//! The store's two-tier block cache state and single-flight machinery.
//!
//! Everything here lives behind one mutex ([`CacheInner`]) so counters and
//! cache contents mutate atomically:
//!
//! * **Tier 1** — decoded `Arc<Field>` blocks, LRU over a byte budget
//!   measured in decoded `f32` bytes. A hit is free (an `Arc` clone).
//! * **Tier 2** — raw *compressed* block bytes (CRC-verified at fetch
//!   time), LRU over its own byte budget. At the archive's typical 6–7×
//!   ratio the same budget holds ~6–7× more blocks than tier 1; a hit
//!   pays an in-memory decode but no source I/O.
//!
//! The tiers are *inclusive*: every successful source decode stashes the
//! block's compressed bytes in tier 2, so when the decoded copy is later
//! evicted from tier 1 the bytes are (usually) still resident — that
//! eviction refreshes the tier-2 entry (a **demotion**), and the next read
//! of the block decodes from memory and re-enters tier 1 (a
//! **promotion**). Nothing is ever written into either tier unless the
//! whole decode succeeded, which is what keeps salvage fill and
//! CRC-failed bytes out of both tiers.
//!
//! [`CacheInner::generation`] guards invalidation against in-flight
//! decodes: `purge`/`invalidate_field` bump it, and inserts started under
//! an older generation are dropped on the floor instead of resurrecting
//! stale data.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use cfc_sz::CfcError;
use cfc_tensor::Field;

use super::super::reader::BlockKey;

struct T1Entry {
    field: Arc<Field>,
    /// LRU timestamp (key into `CacheInner::t1_lru`).
    tick: u64,
    /// Decoded byte size (4 × elements).
    bytes: usize,
    /// Inserted by a prefetch worker and not yet touched by a demand
    /// read — the first demand hit clears this and counts a
    /// `prefetch_hits`.
    prefetched: bool,
}

struct T2Entry {
    bytes: Arc<Vec<u8>>,
    /// LRU timestamp (key into `CacheInner::t2_lru`).
    tick: u64,
}

/// All mutable cache state, under one lock. Ticks are shared across both
/// LRUs and unique, so each `BTreeMap` is a total recency order.
#[derive(Default)]
pub(super) struct CacheInner {
    t1: HashMap<BlockKey, T1Entry>,
    t1_lru: BTreeMap<u64, BlockKey>,
    t1_bytes: usize,
    t2: HashMap<BlockKey, T2Entry>,
    t2_lru: BTreeMap<u64, BlockKey>,
    t2_bytes: usize,
    tick: u64,
    /// Blocks currently being decoded by some thread (single-flight).
    /// Waiters clone the [`Flight`] and block on its condvar; the decoder
    /// publishes its result there, so waiters are served even when the
    /// block is too big to cache.
    pub(super) inflight: HashMap<BlockKey, Arc<Flight>>,
    /// Invalidation epoch: bumped by `purge`/`invalidate_field`. Inserts
    /// record the generation they started under and are discarded when it
    /// moved, so an in-flight decode can never resurrect invalidated data.
    pub(super) generation: u64,
    // ---- counters (same lock, so snapshots are mutually consistent) ----
    pub(super) hits: u64,
    pub(super) misses: u64,
    pub(super) evictions: u64,
    pub(super) insertions: u64,
    pub(super) coalesced: u64,
    pub(super) retries: u64,
    pub(super) salvaged_blocks: u64,
    pub(super) tier2_hits: u64,
    pub(super) tier2_insertions: u64,
    pub(super) tier2_evictions: u64,
    pub(super) demotions: u64,
    pub(super) promotions: u64,
    pub(super) prefetch_issued: u64,
    pub(super) prefetched_blocks: u64,
    pub(super) prefetch_hits: u64,
    pub(super) negative_hits: u64,
}

impl CacheInner {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Tier-1 lookup. A demand hit re-ticks the LRU entry, counts `hits`
    /// (and `prefetch_hits` the first time a prefetched block is hit); a
    /// prefetch probe leaves recency and counters untouched.
    pub(super) fn t1_lookup(&mut self, key: BlockKey, demand: bool) -> Option<Arc<Field>> {
        if !demand {
            return self.t1.get(&key).map(|e| Arc::clone(&e.field));
        }
        if !self.t1.contains_key(&key) {
            return None;
        }
        let tick = self.next_tick();
        let e = self.t1.get_mut(&key).expect("checked above");
        self.t1_lru.remove(&e.tick);
        self.t1_lru.insert(tick, key);
        e.tick = tick;
        self.hits += 1;
        if e.prefetched {
            e.prefetched = false;
            self.prefetch_hits += 1;
        }
        Some(Arc::clone(&e.field))
    }

    pub(super) fn t1_contains(&self, key: &BlockKey) -> bool {
        self.t1.contains_key(key)
    }

    /// Tier-2 lookup: refreshes recency; a demand hit counts
    /// `tier2_hits` (a prefetch probe stays silent, preserving
    /// `tier2_hits ≤ misses`).
    pub(super) fn t2_lookup(&mut self, key: &BlockKey, demand: bool) -> Option<Arc<Vec<u8>>> {
        if !self.t2.contains_key(key) {
            return None;
        }
        let tick = self.next_tick();
        let e = self.t2.get_mut(key).expect("checked above");
        self.t2_lru.remove(&e.tick);
        self.t2_lru.insert(tick, *key);
        e.tick = tick;
        if demand {
            self.tier2_hits += 1;
        }
        Some(Arc::clone(&e.bytes))
    }

    /// Insert a decoded block into tier 1 and evict least-recently-used
    /// blocks until the budget holds. Blocks bigger than the whole budget
    /// are served but not cached. Evicting a block whose compressed bytes
    /// are still resident in tier 2 refreshes that entry and counts a
    /// demotion — the block stays one cheap in-memory decode away.
    pub(super) fn insert_t1(
        &mut self,
        key: BlockKey,
        field: Arc<Field>,
        prefetched: bool,
        capacity: usize,
    ) {
        let bytes = field.len() * 4;
        if bytes > capacity {
            return;
        }
        let tick = self.next_tick();
        if let Some(old) = self.t1.insert(
            key,
            T1Entry {
                field,
                tick,
                bytes,
                prefetched,
            },
        ) {
            self.t1_lru.remove(&old.tick);
            self.t1_bytes -= old.bytes;
            // a replaced entry is a dropped cached block: count it as an
            // eviction so `cached_blocks == insertions - evictions` holds
            self.evictions += 1;
        }
        self.t1_lru.insert(tick, key);
        self.t1_bytes += bytes;
        self.insertions += 1;
        while self.t1_bytes > capacity {
            let (&oldest, &victim) = self
                .t1_lru
                .iter()
                .next()
                .expect("over budget implies entries");
            self.t1_lru.remove(&oldest);
            let e = self.t1.remove(&victim).expect("lru entry cached");
            self.t1_bytes -= e.bytes;
            self.evictions += 1;
            if self.t2.contains_key(&victim) {
                let tick = self.next_tick();
                let t2e = self.t2.get_mut(&victim).expect("checked above");
                self.t2_lru.remove(&t2e.tick);
                self.t2_lru.insert(tick, victim);
                t2e.tick = tick;
                self.demotions += 1;
            }
        }
    }

    /// Insert a block's compressed bytes into tier 2 (LRU over its own
    /// byte budget; oversized blocks are skipped, and a zero budget
    /// disables the tier).
    pub(super) fn insert_t2(&mut self, key: BlockKey, bytes: Arc<Vec<u8>>, capacity: usize) {
        let len = bytes.len();
        if len > capacity {
            return;
        }
        let tick = self.next_tick();
        if let Some(old) = self.t2.insert(key, T2Entry { bytes, tick }) {
            self.t2_lru.remove(&old.tick);
            self.t2_bytes -= old.bytes.len();
            self.tier2_evictions += 1;
        }
        self.t2_lru.insert(tick, key);
        self.t2_bytes += len;
        self.tier2_insertions += 1;
        while self.t2_bytes > capacity {
            let (&oldest, &victim) = self
                .t2_lru
                .iter()
                .next()
                .expect("over budget implies entries");
            self.t2_lru.remove(&oldest);
            let e = self.t2.remove(&victim).expect("lru entry cached");
            self.t2_bytes -= e.bytes.len();
            self.tier2_evictions += 1;
        }
    }

    /// Drop every cached block from both tiers (counted as evictions;
    /// counters keep accumulating).
    pub(super) fn clear_cached(&mut self) {
        self.evictions += self.t1.len() as u64;
        self.t1.clear();
        self.t1_lru.clear();
        self.t1_bytes = 0;
        self.tier2_evictions += self.t2.len() as u64;
        self.t2.clear();
        self.t2_lru.clear();
        self.t2_bytes = 0;
    }

    /// Drop every cached block of one field (both tiers).
    pub(super) fn invalidate_entry(&mut self, fi: usize) {
        let victims: Vec<BlockKey> = self.t1.keys().filter(|k| k.0 == fi).copied().collect();
        for key in victims {
            let e = self.t1.remove(&key).expect("key just listed");
            self.t1_lru.remove(&e.tick);
            self.t1_bytes -= e.bytes;
            self.evictions += 1;
        }
        let victims: Vec<BlockKey> = self.t2.keys().filter(|k| k.0 == fi).copied().collect();
        for key in victims {
            let e = self.t2.remove(&key).expect("key just listed");
            self.t2_lru.remove(&e.tick);
            self.t2_bytes -= e.bytes.len();
            self.tier2_evictions += 1;
        }
    }

    pub(super) fn t1_blocks(&self) -> usize {
        self.t1.len()
    }

    pub(super) fn t1_cached_bytes(&self) -> usize {
        self.t1_bytes
    }

    pub(super) fn t2_blocks(&self) -> usize {
        self.t2.len()
    }

    pub(super) fn t2_cached_bytes(&self) -> usize {
        self.t2_bytes
    }
}

/// Per-block in-flight decode slot: the decoding thread publishes its
/// outcome here and every coalesced waiter reads it directly — the result
/// reaches waiters whether or not it was cacheable.
#[derive(Default)]
pub(super) struct Flight {
    result: Mutex<Option<Result<Arc<Field>, CfcError>>>,
    done: Condvar,
}

impl Flight {
    /// Block until the owning decoder publishes, then share its outcome.
    pub(super) fn wait(&self) -> Result<Arc<Field>, CfcError> {
        let mut slot = self.result.lock().unwrap_or_else(|p| p.into_inner());
        while slot.is_none() {
            slot = self.done.wait(slot).unwrap_or_else(|p| p.into_inner());
        }
        slot.as_ref().expect("published above").clone()
    }

    fn publish(&self, outcome: Result<Arc<Field>, CfcError>) {
        *self.result.lock().unwrap_or_else(|p| p.into_inner()) = Some(outcome);
        self.done.notify_all();
    }
}

/// Publishes the decode outcome to the in-flight slot and clears the
/// marker on drop — runs even when the decode errors (or unwinds), so a
/// failed block never wedges its waiters.
pub(super) struct FlightPublisher<'a> {
    pub(super) inner: &'a Mutex<CacheInner>,
    pub(super) key: BlockKey,
    pub(super) flight: Arc<Flight>,
    pub(super) outcome: Option<Result<Arc<Field>, CfcError>>,
}

impl Drop for FlightPublisher<'_> {
    fn drop(&mut self) {
        let mut g = lock(self.inner);
        g.inflight.remove(&self.key);
        drop(g);
        let outcome = self.outcome.take().unwrap_or_else(|| {
            Err(CfcError::Corrupt {
                context: "archive store",
                detail: "block decode worker did not complete".into(),
            })
        });
        self.flight.publish(outcome);
    }
}

/// Poison-tolerant lock (a panicking decode must not wedge the store).
pub(super) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}
