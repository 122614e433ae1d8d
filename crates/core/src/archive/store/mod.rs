//! Concurrent archive serving layer: a thread-safe wrapper over
//! [`ArchiveReader`] with a two-tier block cache and speculative
//! sequential prefetch.
//!
//! A plain [`ArchiveReader`] keeps nothing a read can use (only its epoch
//! decode keeps the last epoch, for the next one): every read re-decodes
//! the blocks it covers, and a cross-field target pays an extra decode of
//! its anchor blocks on every read. [`ArchiveStore`] turns the per-request
//! decode tax into a cache hit.
//!
//! The store decodes nothing on its own terms: a block request runs the
//! reader's one dependency walk (`ArchiveReader::resolve_block`) with this
//! module's `Cached` backend, so "what does this block need first" and
//! "bytes + dependencies → samples" are the reader's code, and the store
//! only answers *do I have it* and *where do its bytes come from*. The
//! walk is iterative, so a cold read at the tail of a delta chain costs
//! heap, not call stack, however long the chain — the anchors of a
//! target and every link of a chain are each their own lookup,
//! single-flight claim, retry loop and insert.
//!
//! * **Tier 1: decoded-block LRU** — keyed by `(field, block)`, bounded by
//!   a byte budget ([`StoreConfig::capacity_bytes`]) measured in decoded
//!   `f32` bytes. Anchor blocks dragged in by cross-field targets go
//!   through the same cache, so repeated region reads over a CFNN/hybrid
//!   target stop re-decoding their anchors.
//! * **Tier 2: compressed-bytes LRU** — the raw (CRC-verified) block
//!   bytes, bounded by [`StoreConfig::tier2_capacity_bytes`]. At the
//!   archive's typical 6–7× compression the same budget covers ~6–7× more
//!   data than tier 1, so a block evicted from tier 1 usually re-enters
//!   with a cheap in-memory decode instead of a source read — the
//!   difference between microseconds and a disk (or object-store)
//!   round-trip. Tier-1 evictions *demote* (refresh the tier-2 entry);
//!   tier-2 hits *promote* back into tier 1 on decode.
//! * **Speculative prefetch** — `read` and `decode_block` report the
//!   block window they covered; two consecutive windows on a field with
//!   the same positive axis-0 stride make an active scan, and the next
//!   [`StoreConfig::prefetch_depth`] blocks are decoded ahead on
//!   `prefetch::WORKERS` = 2 detached workers through the same
//!   single-flight slots, so a demand read arriving mid-prefetch
//!   coalesces instead of decoding twice.
//! * **Single-flight dedup** — concurrent requests for the same block
//!   coalesce: one thread decodes, the rest wait and share the result.
//! * **Retry** — a block decode that failed with a *transient* I/O error
//!   ([`CfcError::is_transient`]) is retried `MAX_RETRIES` = 2 times, after
//!   `RETRY_BACKOFF` = 1 ms and then 2 ms, before the error surfaces
//!   (counted in [`StoreStats::retries`]).
//! * **Shared scratch pool** — decode workers borrow
//!   [`ArchiveScratch`] buffers from a [`ScratchPool`], which keeps one
//!   idle per available core, so steady-state serving stays
//!   allocation-light without per-thread ownership.
//!
//! A caller sets only the two tier budgets and the prefetch depth
//! ([`StoreConfig`]); the worker count, retry schedule and idle scratch
//! above are fixed. The archive's own metadata is
//! [`ArchiveStore::reader`]'s, and so is name resolution: a field name
//! resolves through the reader's manifest on every call, before the
//! epoch, so an unknown name is the error the store returns even at an
//! epoch the archive lacks.
//!
//! Nothing ever enters either tier unless its whole decode succeeded:
//! CRC-failed bytes and [`DecodePolicy::Salvage`](super::DecodePolicy::Salvage) fill are never cached,
//! in tier 1 *or* tier 2. [`ArchiveStore::purge`] and
//! [`ArchiveStore::invalidate_field`] drop cached state after the
//! underlying archive is rewritten (e.g. by `cfc-fsck --repair`), with a
//! generation guard so in-flight decodes can't resurrect stale blocks.
//!
//! All methods take `&self`; wrap the store in an `Arc` and call it from
//! as many threads as you like. Cache hits clone an `Arc<Field>`, never
//! the samples.
//!
//! ```no_run
//! use cfc_core::archive::{ArchiveReader, ArchiveStore, StoreConfig};
//! use cfc_tensor::Region;
//!
//! let file = std::fs::File::open("snapshot.cfar").unwrap();
//! let reader = ArchiveReader::open(file).unwrap();
//! let store = std::sync::Arc::new(ArchiveStore::new(
//!     reader,
//!     StoreConfig::with_capacity(256 << 20),
//! ));
//! let window = store.decode_region("RH", &Region::d2(100, 200, 0, 512)).unwrap();
//! println!("{} samples, stats {:?}", window.len(), store.snapshot());
//! ```

mod prefetch;
mod tier;

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cfc_sz::{CfcError, ScratchPool};
use cfc_tensor::{Field, Region};

use crate::pipeline::Own;

use super::damage::Salvaged;
use super::host_threads;
use super::reader::{
    salvage_blocks, ArchiveReader, ArchiveScratch, BlockBackend, BlockKey, Lookup, ReadRequest,
    TargetMeta, ALL_ROWS,
};
use super::source::ArchiveSource;

use prefetch::{PrefetchShared, WorkerSet};
use tier::{lock, CacheInner, Flight, FlightPublisher};

/// Times a block decode that failed with a transient I/O error is retried
/// before the error surfaces.
const MAX_RETRIES: u32 = 2;

/// Sleep before retry `n` (1-based) is `n × RETRY_BACKOFF` — linear
/// backoff, so a persistently flaky source backs off harder.
const RETRY_BACKOFF: Duration = Duration::from_millis(1);

/// Configuration for an [`ArchiveStore`]: the two tier budgets and the
/// prefetch depth. The rest is fixed (see the [module docs](self)): 2
/// transient retries at 1 ms linear backoff, 2 prefetch workers, one idle
/// scratch per available core.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Byte budget for tier 1, the cache of decoded blocks (decoded `f32`
    /// bytes, i.e. 4 × elements per block). `0` disables caching entirely
    /// — every call decodes from the source, tier 2 and prefetch
    /// included — which is the right baseline for measurements and for
    /// callers that never re-read.
    pub capacity_bytes: usize,
    /// Byte budget for tier 2, the cache of raw *compressed* block bytes.
    /// Blocks evicted from tier 1 whose bytes are still resident here
    /// re-enter with an in-memory decode instead of a source read. `0`
    /// disables the tier.
    pub tier2_capacity_bytes: usize,
    /// Blocks decoded ahead of an active sequential scan. `0` disables
    /// prefetch.
    pub prefetch_depth: usize,
}

impl Default for StoreConfig {
    /// 256 MiB of decoded blocks over 64 MiB of compressed bytes (≈
    /// 400+ MiB of decoded coverage at the typical 6–7× ratio), prefetch
    /// 4 blocks ahead.
    fn default() -> Self {
        StoreConfig {
            capacity_bytes: 256 << 20,
            tier2_capacity_bytes: 64 << 20,
            prefetch_depth: 4,
        }
    }
}

impl StoreConfig {
    /// Default configuration at an explicit tier-1 cache byte budget.
    pub fn with_capacity(capacity_bytes: usize) -> Self {
        StoreConfig {
            capacity_bytes,
            ..Self::default()
        }
    }

    /// Default configuration at explicit tier-1 and tier-2 byte budgets.
    pub fn with_tiers(capacity_bytes: usize, tier2_capacity_bytes: usize) -> Self {
        StoreConfig {
            capacity_bytes,
            tier2_capacity_bytes,
            ..Self::default()
        }
    }

    /// A store with all caching disabled (every read decodes from the
    /// source; no prefetch).
    pub fn uncached() -> Self {
        StoreConfig {
            capacity_bytes: 0,
            tier2_capacity_bytes: 0,
            prefetch_depth: 0,
        }
    }

    /// This configuration with speculative prefetch disabled — for
    /// deterministic tests/benches where background decodes would perturb
    /// counters or timings.
    pub fn no_prefetch(mut self) -> Self {
        self.prefetch_depth = 0;
        self
    }
}

/// Point-in-time snapshot of an [`ArchiveStore`]'s counters, from
/// [`ArchiveStore::snapshot`].
///
/// Every field is captured under one lock acquisition, so the counters
/// are mutually consistent: `cached_blocks == insertions - evictions`,
/// `insertions <= misses + prefetched_blocks`, `tier2_hits <= misses`,
/// and `hits + misses` never under-counts a request whose effect is
/// already visible elsewhere in the snapshot.
///
/// `hits`/`misses`/`hit_rate` describe *demand* traffic against tier 1
/// only — prefetch workers never touch them, so the hit rate keeps
/// meaning "fraction of caller block requests served without decoding".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Block requests served without decoding: from tier 1, or handed the
    /// result of another thread's in-flight decode.
    pub hits: u64,
    /// Block requests that had to decode (from tier-2 bytes or from the
    /// source).
    pub misses: u64,
    /// Tier-1 blocks dropped: evicted to stay under the byte budget,
    /// replaced by a newer decode, or invalidated.
    pub evictions: u64,
    /// Blocks inserted into tier 1.
    pub insertions: u64,
    /// Requests that waited for another thread's in-flight decode of the
    /// same block instead of decoding it again (single-flight dedup).
    pub coalesced: u64,
    /// Blocks currently in tier 1.
    pub cached_blocks: usize,
    /// Decoded bytes currently in tier 1.
    pub cached_bytes: usize,
    /// Configured tier-1 byte budget.
    pub capacity_bytes: usize,
    /// Block decodes re-attempted after a transient I/O failure (at most
    /// 2 per decode).
    pub retries: u64,
    /// Damaged blocks replaced by fill values by a
    /// [`DecodePolicy::Salvage`](super::DecodePolicy::Salvage) decode instead of failing the call.
    pub salvaged_blocks: u64,
    /// Demand misses whose compressed bytes were still in tier 2 — served
    /// by an in-memory decode, no source I/O. Always ≤ `misses`.
    pub tier2_hits: u64,
    /// Compressed block payloads inserted into tier 2.
    pub tier2_insertions: u64,
    /// Tier-2 entries dropped (budget evictions, replacements,
    /// invalidations).
    pub tier2_evictions: u64,
    /// Blocks currently in tier 2.
    pub tier2_blocks: usize,
    /// Compressed bytes currently in tier 2.
    pub tier2_bytes: usize,
    /// Configured tier-2 byte budget.
    pub tier2_capacity_bytes: usize,
    /// Tier-1 evictions whose compressed bytes remained resident in
    /// tier 2 (the block stayed one in-memory decode away).
    pub demotions: u64,
    /// Blocks decoded out of tier 2 back into tier 1.
    pub promotions: u64,
    /// Blocks queued for speculative decode by the scan detector.
    pub prefetch_issued: u64,
    /// Blocks actually decoded by prefetch workers (issued minus those
    /// already cached, in flight, or dropped at shutdown).
    pub prefetched_blocks: u64,
    /// Demand hits on a block a prefetch worker had decoded ahead of the
    /// scan (each prefetched block counts at most once).
    pub prefetch_hits: u64,
}

impl StoreStats {
    /// Total block requests observed (`hits + misses`).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of demand block requests served from tier 1 (0 when no
    /// requests have been made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// Everything the store and its detached prefetch workers share: the
/// reader (which also resolves field names), configuration, both cache
/// tiers and their counters, scratch, parsed target meta, and the
/// prefetch queue. Reference-counted so workers can outlive a single call
/// and still be joined on store drop.
struct StoreCore<R> {
    reader: ArchiveReader<R>,
    config: StoreConfig,
    cache: Mutex<CacheInner>,
    scratch: ScratchPool<ArchiveScratch>,
    /// Parsed target meta (CFNN bytes + hybrid weights), once per field.
    metas: Mutex<HashMap<usize, Arc<TargetMeta>>>,
    prefetch: Arc<PrefetchShared>,
}

/// Concurrent, caching serving layer over an [`ArchiveReader`].
///
/// See the [module docs](self) for the design; in short: `&self` methods,
/// a `(field, block)`-keyed two-tier cache (decoded blocks over
/// compressed bytes, each with its own byte budget), single-flight decode
/// dedup, speculative sequential prefetch, and [`StoreStats`] counters.
/// Construct once, share behind an `Arc`, serve from any number of
/// threads.
pub struct ArchiveStore<R> {
    core: Arc<StoreCore<R>>,
    workers: WorkerSet,
}

impl<R: ArchiveSource + 'static> ArchiveStore<R> {
    /// Wrap a parsed reader in a store with the given configuration.
    pub fn new(reader: ArchiveReader<R>, config: StoreConfig) -> Self {
        let prefetch = Arc::new(PrefetchShared::new());
        ArchiveStore {
            core: Arc::new(StoreCore {
                reader,
                cache: Mutex::new(CacheInner::default()),
                // one idle scratch per core that can be decoding at once
                scratch: ScratchPool::new(host_threads()),
                metas: Mutex::new(HashMap::new()),
                prefetch: Arc::clone(&prefetch),
                config,
            }),
            workers: WorkerSet::new(prefetch),
        }
    }

    /// Parse an archive from a positional source and wrap it in a store
    /// (shorthand for [`ArchiveReader::open`] + [`ArchiveStore::new`]).
    pub fn open(src: R, config: StoreConfig) -> Result<Self, CfcError> {
        Ok(Self::new(ArchiveReader::open(src)?, config))
    }

    /// The wrapped reader: the archive's name, version, epochs and field
    /// metadata, and uncached decode calls.
    pub fn reader(&self) -> &ArchiveReader<R> {
        &self.core.reader
    }

    /// Consistent point-in-time snapshot of the cache counters: every
    /// field is read under one lock acquisition, so derived quantities
    /// (hit rate, `insertions - evictions`) never mix a half-applied
    /// update — concurrent readers of `/stats`-style endpoints can rely
    /// on the [`StoreStats`] invariants.
    pub fn snapshot(&self) -> StoreStats {
        let g = lock(&self.core.cache);
        StoreStats {
            cached_blocks: g.t1.len(),
            cached_bytes: g.t1.bytes(),
            capacity_bytes: self.core.config.capacity_bytes,
            tier2_blocks: g.t2.len(),
            tier2_bytes: g.t2.bytes(),
            tier2_capacity_bytes: self.core.config.tier2_capacity_bytes,
            ..g.stats
        }
    }

    /// Drop *all* cached state — both cache tiers, parsed target
    /// metadata, queued prefetches — and fence out in-flight decodes, so
    /// nothing read before the purge can re-enter the cache afterwards.
    /// The counters keep accumulating: the dropped blocks count as
    /// evictions.
    ///
    /// This is the one call that drops cached state wholesale, to make
    /// after the underlying archive bytes change under the store (e.g.
    /// `cfc-fsck --repair` rewrote the file): a subsequent read re-fetches
    /// everything from the source.
    pub fn purge(&self) {
        {
            let mut g = lock(&self.core.cache);
            g.generation += 1;
            g.clear_cached();
        }
        lock(&self.core.metas).clear();
        self.core.prefetch.reset();
    }

    /// Drop cached state for one field in **every** epoch — and for every
    /// entry decoded *against* the invalidated data: same-epoch targets
    /// that list it as an anchor, and (on temporal archives) the delta
    /// chains hanging off each affected position until the next keyframe.
    /// In-flight decodes of the affected entries are fenced out like
    /// [`ArchiveStore::purge`] does. Errors when the archive has no field
    /// of that name.
    pub fn invalidate_field(&self, name: &str) -> Result<(), CfcError> {
        let pos = self.core.reader.entry_index(name)?;
        let mut victims: Vec<usize> = (0..self.core.reader.n_epochs())
            .flat_map(|e| self.stale_after(pos, e, name))
            .collect();
        victims.sort_unstable();
        victims.dedup();
        self.apply_invalidation(&victims);
        Ok(())
    }

    /// Drop cached state for one field at one epoch, cascading to
    /// everything decoded against it: same-epoch cross-field targets, and
    /// — because a delta epoch decodes against the previous epoch — every
    /// affected position forward through the delta epochs until the next
    /// keyframe breaks the chain. The call after a repair rewrote one
    /// epoch's bytes in place.
    pub fn invalidate_field_at(&self, name: &str, epoch: usize) -> Result<(), CfcError> {
        let pos = self.core.reader.entry_index(name)?;
        self.core.reader.epoch_base(epoch)?;
        let mut victims = self.stale_after(pos, epoch, name);
        victims.sort_unstable();
        victims.dedup();
        self.apply_invalidation(&victims);
        Ok(())
    }

    /// Flat entry indices whose cached state is stale once the field at
    /// position `pos` changes at `epoch`: the entry itself, same-epoch
    /// targets anchored on `name`, and those positions carried forward
    /// through the following delta epochs.
    fn stale_after(&self, pos: usize, epoch: usize, name: &str) -> Vec<usize> {
        let n = self.core.reader.fields_per_epoch();
        let interval = self.core.reader.keyframe_interval();
        let n_epochs = self.core.reader.n_epochs();
        let entries = self.core.reader.entries();
        let mut positions = vec![pos];
        positions.extend(
            entries[epoch * n..(epoch + 1) * n]
                .iter()
                .enumerate()
                .filter(|(i, e)| *i != pos && e.anchors.iter().any(|a| a == name))
                .map(|(i, _)| i),
        );
        let mut victims: Vec<usize> = positions.iter().map(|&p| epoch * n + p).collect();
        let mut e = epoch + 1;
        while e < n_epochs && !e.is_multiple_of(interval) {
            victims.extend(positions.iter().map(|&p| e * n + p));
            e += 1;
        }
        victims
    }

    /// Bump the generation fence and drop cached blocks, parsed meta, and
    /// queued prefetches for the given flat entry indices.
    fn apply_invalidation(&self, victims: &[usize]) {
        {
            let mut g = lock(&self.core.cache);
            g.generation += 1;
            for &i in victims {
                g.invalidate_entry(i);
            }
        }
        {
            let mut metas = lock(&self.core.metas);
            for &i in victims {
                metas.remove(&i);
            }
        }
        for &i in victims {
            self.core.prefetch.invalidate_entry(i);
        }
    }

    /// Block until the speculative prefetch queue is drained and no
    /// worker is mid-decode — for tests and benches that need a
    /// deterministic cache state after a scan.
    pub fn prefetch_quiesce(&self) {
        if self.workers.spawned() {
            self.core.prefetch.quiesce();
        }
    }

    /// Decode one block of `field` through the cache, sharing the decoded
    /// samples with every other holder (`Arc`). Semantics match
    /// [`ArchiveReader::decode_block`]: for a cross-field target the
    /// matching anchor blocks are decoded (and cached) too; a v1 field is
    /// one block holding the whole field.
    pub fn decode_block(&self, field: &str, idx: usize) -> Result<Arc<Field>, CfcError> {
        self.decode_block_at(field, idx, 0)
    }

    /// [`ArchiveStore::decode_block`] at an explicit epoch. A temporal
    /// delta block decodes its chain back to the covering keyframe, every
    /// link a potential cache hit.
    pub fn decode_block_at(
        &self,
        field: &str,
        idx: usize,
        epoch: usize,
    ) -> Result<Arc<Field>, CfcError> {
        let reader = &self.core.reader;
        // the name before the epoch: an unknown name is the error even at
        // an epoch the archive lacks
        let fi = reader.entry_index(field)? + reader.epoch_base(epoch)?;
        let n_blocks = reader.entries()[fi].n_blocks();
        if idx >= n_blocks {
            return Err(CfcError::InvalidInput(format!(
                "field {field} has {n_blocks} blocks, asked for {idx}"
            ))
            .in_field(field, Some(idx)));
        }
        self.maybe_prefetch(fi, idx, idx);
        self.core.get_block(fi, idx, true)
    }

    /// The general read, through the cache: [`ArchiveReader::read`]
    /// semantics, but every covering block (and every anchor or chain
    /// block it decodes against) is a potential cache hit, so repeated
    /// reads over a hot window decode nothing after the first call — and
    /// a sequential scan of windows triggers readahead of the blocks the
    /// next windows will need.
    ///
    /// Under [`DecodePolicy::Salvage`](super::DecodePolicy::Salvage) filled blocks are **never cached**
    /// — neither tier ever holds anything but strictly-decoded data, so a
    /// later strict read of the same block re-reads the source rather
    /// than being served fill. Each filled block bumps
    /// [`StoreStats::salvaged_blocks`].
    pub fn read(&self, req: &ReadRequest<'_>) -> Result<Salvaged<Field>, CfcError> {
        let reader = &self.core.reader;
        // a flat entry index keys the cache, so one block index in two
        // epochs never collides; the name resolves first, as above
        let fi = reader.entry_index(req.field)? + reader.epoch_base(req.epoch)?;
        let entry = &reader.entries()[fi];
        let cover = entry.block_cover(req.region.as_ref())?;
        self.maybe_prefetch(fi, cover.0, cover.1);
        let (blocks, damage) = salvage_blocks(
            entry,
            cover,
            req.policy,
            |bi| self.core.get_block(fi, bi, true),
            |fill| {
                lock(&self.core.cache).stats.salvaged_blocks += 1;
                Arc::new(fill)
            },
        )?;
        let refs: Vec<&Field> = blocks.iter().map(|b| b.as_ref()).collect();
        let data = entry.cut(req.region.as_ref(), cover.0, &refs)?;
        Ok(Salvaged { data, damage })
    }

    /// Strictly decode an axis-aligned region of `field` through the cache
    /// ([`ArchiveStore::read`] with the defaults).
    pub fn decode_region(&self, field: &str, region: &Region) -> Result<Field, CfcError> {
        self.read(&ReadRequest::new(field).region(region))
            .map(|s| s.data)
    }

    /// Report a demand access of blocks `[b_first, b_last]` to the scan
    /// detector and enqueue any predicted readahead, spawning the worker
    /// pool on the first prediction. Cheap no-op unless prefetch is
    /// enabled and an active scan is detected.
    fn maybe_prefetch(&self, fi: usize, b_first: usize, b_last: usize) {
        let cfg = &self.core.config;
        if cfg.capacity_bytes == 0 || cfg.prefetch_depth == 0 {
            return;
        }
        let n_blocks = self.core.reader.entries()[fi].n_blocks();
        let preds =
            self.core
                .prefetch
                .note_access(fi, b_first, b_last, n_blocks, cfg.prefetch_depth);
        if preds.is_empty() {
            return;
        }
        let keys: Vec<BlockKey> = {
            let g = lock(&self.core.cache);
            preds
                .into_iter()
                .map(|b| (fi, b))
                .filter(|k| !g.t1.contains(k) && !g.inflight.contains_key(k))
                .collect()
        };
        if keys.is_empty() {
            return;
        }
        self.workers.ensure(&self.core);
        let issued = self.core.prefetch.enqueue(&keys);
        if issued > 0 {
            lock(&self.core.cache).stats.prefetch_issued += issued as u64;
        }
    }
}

impl<R: ArchiveSource> StoreCore<R> {
    /// Cache-or-decode one block: the reader's dependency walk over this
    /// store's cache (see [`Cached`]). A tier-1 hit returns from the
    /// walk's first lookup; a miss resolves what the block decodes
    /// against — anchors, the delta chain — through the same cache, link
    /// by link, without recursing.
    ///
    /// `demand` distinguishes caller traffic from speculative work:
    /// prefetch lookups never touch the hit/miss counters or tier-1
    /// recency, so [`StoreStats::hit_rate`] keeps describing what callers
    /// experienced.
    fn get_block(&self, fi: usize, idx: usize, demand: bool) -> Result<Arc<Field>, CfcError> {
        let mut backend = Cached { core: self, demand };
        self.reader.resolve_block(fi, idx, ALL_ROWS, &mut backend)
    }

    /// Speculatively decode one block (worker entry point): skip if it is
    /// already cached or in flight, otherwise decode through the normal
    /// path so demand reads coalesce with it. Errors are swallowed — a
    /// failed prefetch simply leaves the block for the demand path (which
    /// will surface the error with retry semantics).
    fn prefetch_block(&self, key: BlockKey) {
        {
            let g = lock(&self.cache);
            if g.t1.contains(&key) || g.inflight.contains_key(&key) {
                return;
            }
        }
        let _ = self.get_block(key.0, key.1, false);
    }

    /// Decode one block given its resolved dependencies: bytes from tier
    /// 2 (a promotion — no source I/O for the block) or from the source,
    /// then the reader's one block decoder. Source bytes are stashed in
    /// tier 2 on success — and only on success, so CRC-failed or
    /// structurally-corrupt bytes never enter the tier.
    ///
    /// A decode that failed with a *transient* I/O error
    /// ([`CfcError::is_transient`] — interrupted syscall, timeout) is
    /// re-attempted up to [`MAX_RETRIES`] times with linear backoff. Deterministic failures (checksum mismatch, truncation,
    /// structural corruption) are never retried — the same bad bytes would
    /// just be re-read. Dependencies were resolved (and retried) on their
    /// own before this call.
    fn decode(
        &self,
        (fi, idx): BlockKey,
        t2: Option<&[u8]>,
        deps: &[&Field],
        gen: u64,
    ) -> Result<Field, CfcError> {
        let entry = &self.reader.entries()[fi];
        let mut scratch = self.scratch.get();
        let mut attempt = 0u32;
        loop {
            let once = (|| {
                let meta = self.target_meta(fi)?;
                let meta = meta.as_deref();
                if let Some(bytes) = t2 {
                    return self.reader.decode_block_bytes(
                        entry,
                        idx,
                        bytes,
                        deps,
                        meta,
                        ALL_ROWS,
                        &mut scratch,
                        Own,
                    );
                }
                let bytes = self
                    .reader
                    .fetch_block_bytes(entry, idx)
                    .map_err(|e| e.in_field(&entry.qualified_name(), Some(idx)))?;
                let field = self.reader.decode_block_bytes(
                    entry,
                    idx,
                    &bytes,
                    deps,
                    meta,
                    ALL_ROWS,
                    &mut scratch,
                    Own,
                )?;
                self.stash_tier2((fi, idx), bytes, gen);
                Ok(field)
            })();
            match once {
                Err(e) if e.is_transient() && attempt < MAX_RETRIES => {
                    attempt += 1;
                    lock(&self.cache).stats.retries += 1;
                    std::thread::sleep(RETRY_BACKOFF * attempt);
                }
                other => return other,
            }
        }
    }

    /// Stash a successfully decoded block's compressed bytes in tier 2
    /// (no-op when caching is off or the generation moved under us).
    fn stash_tier2(&self, key: BlockKey, bytes: Vec<u8>, gen: u64) {
        if self.config.capacity_bytes == 0 || self.config.tier2_capacity_bytes == 0 {
            return;
        }
        let mut g = lock(&self.cache);
        if g.generation != gen {
            return;
        }
        g.insert_compressed(key, Arc::new(bytes), self.config.tier2_capacity_bytes);
    }

    /// Parse (once) and share an entry's meta area — `None` for entries
    /// that have none. The parse (an archive read plus model
    /// deserialization) runs *outside* the map lock so cold starts on
    /// different target fields stay concurrent; a racing duplicate parse
    /// is harmless and the first insert wins.
    fn target_meta(&self, fi: usize) -> Result<Option<Arc<TargetMeta>>, CfcError> {
        let entry = &self.reader.entries()[fi];
        if !entry.has_meta() {
            return Ok(None);
        }
        if let Some(m) = lock(&self.metas).get(&fi) {
            return Ok(Some(m.clone()));
        }
        let Some(parsed) = self.reader.target_meta(entry)? else {
            return Ok(None);
        };
        let mut metas = lock(&self.metas);
        Ok(Some(metas.entry(fi).or_insert(Arc::new(parsed)).clone()))
    }
}

/// The store's [`BlockBackend`]: the dependency walk's view of the cache.
/// `begin` is a tier-1 lookup that coalesces onto an in-flight decode of
/// the same block or, on a miss, claims the block's single-flight slot
/// (picking up its tier-2 bytes if resident); `finish` decodes, inserts
/// and publishes to whoever coalesced in the meantime.
struct Cached<'a, R> {
    core: &'a StoreCore<R>,
    demand: bool,
}

/// A claimed miss, carried from [`Cached::begin`] to [`Cached::finish`].
struct Claim<'a> {
    /// The block's single-flight slot (`None` with caching off: there is
    /// nothing to coalesce onto). Publishes on drop, so a decode that
    /// unwinds never wedges its waiters.
    publisher: Option<FlightPublisher<'a>>,
    /// The block's compressed bytes, when tier 2 still had them.
    t2: Option<Arc<Vec<u8>>>,
    /// Invalidation generation the claim was made under.
    gen: u64,
}

impl<'a, R: ArchiveSource> BlockBackend for Cached<'a, R> {
    type Block = Arc<Field>;
    type Ticket = Claim<'a>;

    fn begin(&mut self, key: BlockKey) -> Result<Lookup<Arc<Field>, Claim<'a>>, CfcError> {
        let (core, demand) = (self.core, self.demand);
        let mut g = lock(&core.cache);
        if core.config.capacity_bytes == 0 {
            if demand {
                g.stats.misses += 1;
            }
            return Ok(Lookup::Miss(Claim {
                publisher: None,
                t2: None,
                gen: 0,
            }));
        }
        if let Some(field) = g.decoded(key, demand) {
            return Ok(Lookup::Ready(field));
        }
        if let Some(f) = g.inflight.get(&key) {
            // coalesce: wait on the in-flight decode's own slot and share
            // whatever it produces — even when it is too big to cache
            let f = Arc::clone(f);
            if demand {
                g.stats.coalesced += 1;
            }
            drop(g);
            let shared = f.wait()?;
            if demand {
                lock(&core.cache).stats.hits += 1;
            }
            return Ok(Lookup::Ready(shared));
        }
        if demand {
            g.stats.misses += 1;
        }
        let t2 = g.compressed(key, demand);
        let flight = Arc::new(Flight::default());
        g.inflight.insert(key, Arc::clone(&flight));
        Ok(Lookup::Miss(Claim {
            publisher: Some(FlightPublisher {
                inner: &core.cache,
                key,
                flight,
                outcome: None,
            }),
            t2,
            gen: g.generation,
        }))
    }

    fn finish(
        &mut self,
        key: BlockKey,
        claim: Claim<'a>,
        deps: &[&Field],
        rows: usize,
    ) -> Result<Arc<Field>, CfcError> {
        // a cache entry is a whole block: `get_block` walks with `ALL_ROWS`
        debug_assert_eq!(rows, ALL_ROWS);
        let (core, demand) = (self.core, self.demand);
        let t2 = claim.t2.as_ref().map(|b| b.as_slice());
        let result = core.decode(key, t2, deps, claim.gen).map(Arc::new);
        let Some(mut publisher) = claim.publisher else {
            return result;
        };
        if let Ok(arc) = &result {
            let mut g = lock(&core.cache);
            if g.generation == claim.gen {
                g.insert_decoded(key, Arc::clone(arc), !demand, core.config.capacity_bytes);
                if claim.t2.is_some() {
                    g.stats.promotions += 1;
                }
            }
            if !demand {
                g.stats.prefetched_blocks += 1;
            }
        }
        publisher.outcome = Some(result.clone());
        drop(publisher); // publishes to waiters + clears in-flight
        result
    }

    fn abandon(&mut self, claim: Claim<'a>, err: &CfcError) {
        if let Some(mut publisher) = claim.publisher {
            publisher.outcome = Some(Err(err.clone()));
        }
    }
}
