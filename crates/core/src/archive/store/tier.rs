//! The store's two-tier block cache state and single-flight machinery.
//!
//! Everything here lives behind one mutex ([`CacheInner`]) so counters and
//! cache contents mutate atomically. Both tiers are one type: [`Lru`], a
//! block-keyed LRU over a byte budget, instantiated twice.
//!
//! * **Tier 1** — decoded `Arc<Field>` blocks, sized in decoded `f32`
//!   bytes. A hit is free (an `Arc` clone).
//! * **Tier 2** — raw *compressed* block bytes (CRC-verified at fetch
//!   time), sized in bytes. At the archive's typical 6–7× ratio the same
//!   budget holds ~6–7× more blocks than tier 1; a hit pays an in-memory
//!   decode but no source I/O.
//!
//! What differs between the tiers lives in [`CacheInner`]: tier 1 marks
//! blocks a prefetch worker decoded, and a prefetch probe does not
//! refresh its recency. The tiers are *inclusive*: every successful
//! source decode stashes the block's compressed bytes in tier 2, so when
//! the decoded copy is later evicted from tier 1 the bytes are (usually)
//! still resident — that eviction refreshes the tier-2 entry (a
//! **demotion**), and the next read of the block decodes from memory and
//! re-enters tier 1 (a **promotion**). Nothing is ever written into either
//! tier unless the whole decode succeeded, which is what keeps salvage
//! fill and CRC-failed bytes out of both tiers.
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
use super::StoreStats;

struct Slot<V> {
    value: V,
    /// LRU timestamp (key into `Lru::order`).
    tick: u64,
    /// Size charged against the budget.
    bytes: usize,
}

/// A block-keyed LRU over a byte budget. Ticks are unique, so `order` is
/// a total recency order, oldest first.
pub(super) struct Lru<V> {
    map: HashMap<BlockKey, Slot<V>>,
    order: BTreeMap<u64, BlockKey>,
    bytes: usize,
    tick: u64,
}

impl<V> Default for Lru<V> {
    fn default() -> Self {
        Lru {
            map: HashMap::new(),
            order: BTreeMap::new(),
            bytes: 0,
            tick: 0,
        }
    }
}

impl<V> Lru<V> {
    pub(super) fn len(&self) -> usize {
        self.map.len()
    }

    /// Bytes charged against the budget.
    pub(super) fn bytes(&self) -> usize {
        self.bytes
    }

    pub(super) fn contains(&self, key: &BlockKey) -> bool {
        self.map.contains_key(key)
    }

    /// The entry under `key`, recency untouched.
    fn peek(&self, key: &BlockKey) -> Option<&V> {
        self.map.get(key).map(|s| &s.value)
    }

    /// The entry under `key`, moved to the most-recent end.
    fn get(&mut self, key: &BlockKey) -> Option<&mut V> {
        let slot = self.map.get_mut(key)?;
        self.tick += 1;
        self.order.remove(&slot.tick);
        self.order.insert(self.tick, *key);
        slot.tick = self.tick;
        Some(&mut slot.value)
    }

    /// Insert `value`, charged `bytes`, as the most recent entry —
    /// replacing whatever `key` held — then evict the oldest entries until
    /// `capacity` holds, handing each victim's key to `evicted`. Returns
    /// how many entries were dropped, a replaced one included, or `None`
    /// when `value` alone is over the budget and is not inserted.
    fn insert(
        &mut self,
        key: BlockKey,
        value: V,
        bytes: usize,
        capacity: usize,
        mut evicted: impl FnMut(BlockKey),
    ) -> Option<u64> {
        if bytes > capacity {
            return None;
        }
        self.tick += 1;
        let tick = self.tick;
        let mut dropped = 0;
        if let Some(old) = self.map.insert(key, Slot { value, tick, bytes }) {
            self.order.remove(&old.tick);
            self.bytes -= old.bytes;
            dropped += 1;
        }
        self.order.insert(tick, key);
        self.bytes += bytes;
        while self.bytes > capacity {
            let (_, victim) = self.order.pop_first().expect("over budget implies entries");
            self.bytes -= self.map.remove(&victim).expect("ordered entry").bytes;
            dropped += 1;
            evicted(victim);
        }
        Some(dropped)
    }

    /// Drop every entry of field `fi`; returns how many there were.
    fn remove_field(&mut self, fi: usize) -> u64 {
        let before = self.map.len();
        let (order, bytes) = (&mut self.order, &mut self.bytes);
        self.map.retain(|key, slot| {
            let keep = key.0 != fi;
            if !keep {
                order.remove(&slot.tick);
                *bytes -= slot.bytes;
            }
            keep
        });
        (before - self.map.len()) as u64
    }

    /// Drop every entry; returns how many there were.
    fn clear(&mut self) -> u64 {
        let n = self.map.len() as u64;
        self.map.clear();
        self.order.clear();
        self.bytes = 0;
        n
    }
}

/// A tier-1 entry.
pub(super) struct Decoded {
    field: Arc<Field>,
    /// Inserted by a prefetch worker and not yet touched by a demand
    /// read — the first demand hit clears this and counts a
    /// `prefetch_hits`.
    prefetched: bool,
}

/// All mutable cache state, under one lock.
#[derive(Default)]
pub(super) struct CacheInner {
    /// Tier 1: decoded blocks.
    pub(super) t1: Lru<Decoded>,
    /// Tier 2: compressed block bytes.
    pub(super) t2: Lru<Arc<Vec<u8>>>,
    /// Blocks currently being decoded by some thread (single-flight).
    /// Waiters clone the [`Flight`] and block on its condvar; the decoder
    /// publishes its result there, so waiters are served even when the
    /// block is too big to cache.
    pub(super) inflight: HashMap<BlockKey, Arc<Flight>>,
    /// Invalidation epoch: bumped by `purge`/`invalidate_field`. Inserts
    /// record the generation they started under and are discarded when it
    /// moved, so an in-flight decode can never resurrect invalidated data.
    pub(super) generation: u64,
    /// The counters (same lock, so snapshots are mutually consistent).
    /// The gauges — blocks, bytes and budgets — are filled in by
    /// `snapshot`.
    pub(super) stats: StoreStats,
}

impl CacheInner {
    /// Tier-1 lookup. A demand hit refreshes recency, counts `hits` (and
    /// `prefetch_hits` the first time a prefetched block is hit); a
    /// prefetch probe leaves recency and counters untouched.
    pub(super) fn decoded(&mut self, key: BlockKey, demand: bool) -> Option<Arc<Field>> {
        if !demand {
            return self.t1.peek(&key).map(|e| Arc::clone(&e.field));
        }
        let e = self.t1.get(&key)?;
        self.stats.hits += 1;
        if e.prefetched {
            e.prefetched = false;
            self.stats.prefetch_hits += 1;
        }
        Some(Arc::clone(&e.field))
    }

    /// Tier-2 lookup: refreshes recency; a demand hit counts
    /// `tier2_hits` (a prefetch probe stays silent, preserving
    /// `tier2_hits ≤ misses`).
    pub(super) fn compressed(&mut self, key: BlockKey, demand: bool) -> Option<Arc<Vec<u8>>> {
        let bytes = Arc::clone(self.t2.get(&key)?);
        if demand {
            self.stats.tier2_hits += 1;
        }
        Some(bytes)
    }

    /// Insert a decoded block into tier 1, evicting least-recently-used
    /// blocks until the budget holds. Blocks bigger than the whole budget
    /// are served but not cached. Evicting a block whose compressed bytes
    /// are still resident in tier 2 refreshes that entry and counts a
    /// demotion — the block stays one cheap in-memory decode away. A
    /// replaced entry is a dropped cached block, so it counts as an
    /// eviction and `cached_blocks == insertions - evictions` holds.
    pub(super) fn insert_decoded(
        &mut self,
        key: BlockKey,
        field: Arc<Field>,
        prefetched: bool,
        capacity: usize,
    ) {
        let bytes = field.len() * 4;
        let Self { t1, t2, stats, .. } = self;
        let value = Decoded { field, prefetched };
        let demote = |victim| {
            if t2.get(&victim).is_some() {
                stats.demotions += 1;
            }
        };
        if let Some(dropped) = t1.insert(key, value, bytes, capacity, demote) {
            stats.insertions += 1;
            stats.evictions += dropped;
        }
    }

    /// Insert a block's compressed bytes into tier 2 (LRU over its own
    /// byte budget; oversized blocks are skipped, and a zero budget
    /// disables the tier).
    pub(super) fn insert_compressed(
        &mut self,
        key: BlockKey,
        bytes: Arc<Vec<u8>>,
        capacity: usize,
    ) {
        let len = bytes.len();
        if let Some(dropped) = self.t2.insert(key, bytes, len, capacity, |_| {}) {
            self.stats.tier2_insertions += 1;
            self.stats.tier2_evictions += dropped;
        }
    }

    /// Drop every cached block from both tiers (counted as evictions;
    /// counters keep accumulating).
    pub(super) fn clear_cached(&mut self) {
        self.stats.evictions += self.t1.clear();
        self.stats.tier2_evictions += self.t2.clear();
    }

    /// Drop every cached block of one field (both tiers).
    pub(super) fn invalidate_entry(&mut self, fi: usize) {
        self.stats.evictions += self.t1.remove_field(fi);
        self.stats.tier2_evictions += self.t2.remove_field(fi);
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
