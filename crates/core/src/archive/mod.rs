//! Multi-field archive subsystem: one call to compress a whole simulation
//! snapshot, one call — or one *seek* — to get it back.
//!
//! The paper's workload (§I, Table 3) is a *dataset*: tens of co-located
//! fields per snapshot, a few of which (the cross-field targets) compress
//! dramatically better when conditioned on others (their anchors). The
//! archive packages the whole dance — role planning, anchor roundtrips,
//! CFNN training, hybrid fitting, per-field encoding — behind two calls:
//!
//! ```text
//!   ArchiveBuilder ──roles──► ArchiveWriter::write_to(&Dataset, impl Write)
//!        every field split into fixed-slab blocks along axis 0, each
//!        block encoded as its own stream (own quantizer + Huffman state)
//!        and CRC'd; blocks encoded in parallel across ALL fields
//!        ──► one versioned, self-describing CFAR v3 container (one epoch)
//!            with a per-field block index (offset | length | CRC32) and a
//!            CRC32 over each meta area
//!
//!   ArchiveReader::open(impl ArchiveSource) ──► manifest only (no payloads)
//!        read(&ReadRequest { field, epoch, region, policy }): the general
//!            read — touches only the blocks that intersect the region's
//!            axis-0 range, the last of them only up to the region's last
//!            row (decode_region is its strict one-line convenience)
//!        decode_block(field, i): reads + decodes ONE block (plus the same
//!            anchor blocks when the field is a cross-field target)
//!        decode_all(): every block of every field in parallel, each
//!            straight into its field's one buffer
//!
//!   ArchiveStore::new(reader, config) ──► shared, thread-safe serving
//!        layer: the same calls behind a two-tier cache (byte-budgeted LRU
//!        of decoded blocks over an LRU of compressed block bytes) with
//!        single-flight dedup and sequential-scan prefetch — repeated or
//!        concurrent reads of hot regions (and the anchor blocks
//!        cross-field targets drag in) decode once and then hit the
//!        cache; evicted blocks re-enter via a cheap in-memory decode
//! ```
//!
//! ## One decode walk
//!
//! The paper's decoder is one rule — a target block needs its anchors'
//! *decoded* block first, then CFNN inference and the hybrid mix — and
//! temporal archives add one more: a delta block needs the same block of
//! the previous epoch. Both live in exactly one place,
//! `ArchiveReader::resolve_block`, which walks a block's dependencies
//! depth-first with an explicit stack (a delta chain may be thousands of
//! links long; the call stack must not be) and hands each block, with its
//! decoded dependencies, to the one block decoder,
//! `ArchiveReader::decode_block_bytes`, which puts the block where it is
//! told: into a field of its own, or — in an epoch decode — into its slab
//! of the field's one buffer. What differs between callers is
//! only *where blocks come from*, a `BlockBackend`:
//!
//! | caller | "already have it?" | "produce it" |
//! |---|---|---|
//! | `ArchiveReader::read` / `decode_block` | never | read from the source into the caller's scratch, decode |
//! | `ArchiveReader::decode_epoch`, a delta's predecessor | the slab of a field of the previous epoch, when the call before decoded that epoch | same |
//! | `ArchiveReader::decode_epoch` (and `decode_all`), target phase | the slab of a field the first phase decoded | same |
//! | `ArchiveStore` (demand and prefetch) | tier-1 hit, or wait on the block's in-flight decode | claim the single-flight slot, bytes from tier 2 or the source (with retry), decode, insert, publish |
//!
//! The walk also carries how many leading axis-0 rows of the block are
//! wanted: `read` asks the last block of a region's cover only for the rows
//! the window reaches (everything here is causal in raster order, so they
//! decode bit-identically from the same rows of the dependencies), every
//! other caller — and so every cache entry — for all of them. See the
//! [`reader`](mod@reader) module docs for what such a read still checks.
//!
//! The three container versions meet below this: [`format`](mod@format)
//! normalises a v1 row into an entry with one block, so the read path has
//! no per-version branches. A v1 target keeps its model and hybrid weights
//! inside its stream rather than in a meta area; the block decoder hands
//! such a block to [`CrossFieldCompressor::decompress`](crate::pipeline::CrossFieldCompressor::decompress),
//! which reads them out and runs the same cross-field block decode
//! (`pipeline::decode_target_rows`) every chunked target block runs.
//!
//! ## Module layout
//!
//! * [`format`](mod@format) — the CFAR wire format, and the only module
//!   that knows it: the layout of header, manifest row and meta area for
//!   every container version, the one reader and one writer of each, the
//!   one list of rules a manifest is held to (reported into a sink, so
//!   [`ArchiveReader::open`] stops at the first broken rule and the
//!   scrubber collects them all), the typed row ([`ArchiveEntry`]), the
//!   [`FieldRole`] tag and the chunk geometry arithmetic.
//! * [`writer`] — [`ArchiveBuilder`] → [`ArchiveWriter`]: the plan (roles,
//!   geometry, every field's bounds), CFNN training, and the write side's
//!   counterpart of the walk: one block encoder that independent, anchor,
//!   target and delta blocks all go through (see its module docs), behind
//!   one emitter for snapshots and series; what it serializes goes out
//!   through `format`'s writers.
//! * [`source`](mod@source) — [`ArchiveSource`]: the positional
//!   (`pread`-style) byte-source trait archives are read through, so
//!   concurrent block decodes never serialize on a shared cursor.
//! * [`reader`] — [`ArchiveReader`]: lazily-reading decode of whole
//!   snapshots, single fields, single blocks, or axis-aligned regions from
//!   any [`ArchiveSource`]; home of the walk, the block decoder and
//!   [`ReadRequest`]. It keeps two things between calls: the fields of
//!   the last epoch `decode_epoch` decoded, while the next epoch has deltas
//!   to decode against them — so an in-order pass decodes each block once
//!   — and the scratch buffers of its one-request reads, whose target
//!   blocks run their CFNN slices on every core. Every other read decodes
//!   from the source.
//! * [`store`] — [`ArchiveStore`]: a concurrent serving layer over a
//!   reader, with a two-tier block cache (decoded fields over compressed
//!   bytes), speculative sequential prefetch, and [`StoreStats`] counters.
//! * [`damage`], [`scrub`], [`fault`] — salvage policy and damage
//!   reports, offline verification and repair, deterministic fault
//!   injection. The scrubber reads and judges manifests through `format`
//!   like `open` does and adds only what a scrubber alone asks (checksums,
//!   block magic, index tiling, a full decode); its repairs emit through
//!   `format`'s writers.
//!
//! ## Container versions
//!
//! * **v3** (the one written): a sequence of epochs, each holding every
//!   field in the v2 per-field layout plus a CRC32 over the meta area.
//!   Epochs at multiples of the keyframe interval are **keyframes**
//!   (cross-field plan included); the rest are **delta epochs** whose
//!   fields carry [`FieldRole::Delta`] and encode against the decoded
//!   previous epoch, so random access to any epoch decodes at most one
//!   keyframe block plus the delta chain back to it. Written by
//!   [`ArchiveWriter::write_epochs_to`], and by
//!   [`ArchiveWriter::write_to`] as a one-epoch series.
//! * **v2** (read-only): chunked. Per field the header stores shape,
//!   chunk geometry, a meta area (embedded CFNN + hybrid weights for
//!   targets, with no CRC over it), and the block index; payloads follow.
//!   Blocks decode independently — the slab boundary resets predictor
//!   context (neighbours outside the block predict 0, the SZ convention),
//!   so any block can be decoded after reading only its own bytes.
//! * **v1** (read-only): one monolithic CFSZ stream per field, model
//!   embedded in the stream. Read as a one-block entry, so random access
//!   degrades to whole-field decode.
//!
//! The decode path is total: corrupt, truncated, or adversarial archives
//! return [`cfc_sz::CfcError`], never panic, and every block read is
//! verified against its recorded CRC32 before the entropy decoder sees it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

pub mod damage;
pub mod fault;
pub mod format;
pub mod reader;
pub mod scrub;
pub mod source;
pub mod store;
pub mod writer;

pub use damage::{BlockDamage, DamageMap, DecodePolicy, Salvaged};
pub use fault::{FaultInjectingReader, FaultPlan, FaultStats};
pub use format::{
    ArchiveEntry, FieldInfo, FieldRole, ARCHIVE_MAGIC, ARCHIVE_VERSION, DEFAULT_CHUNK_ELEMENTS,
    DEFAULT_KEYFRAME_INTERVAL, MIN_SUPPORTED_VERSION,
};
pub use reader::{ArchiveReader, ArchiveScratch, ReadRequest};
pub use scrub::{
    json_escape, repair_bytes, scrub_bytes, RepairOutcome, ScrubFinding, ScrubKind, ScrubOptions,
    ScrubReport,
};
pub use source::ArchiveSource;
pub use store::{ArchiveStore, StoreConfig, StoreStats};
pub use writer::{ArchiveBuilder, ArchiveReport, ArchiveWriter, FieldReport, TemporalReport};

/// Worker threads for the archive's own fan-outs (the reader's epoch
/// decode and one-request reads, the writer's block encode and training
/// when no thread count is set, the store's idle scratches): what the host
/// offers. Asked once per process — on Linux the query reads cgroup files,
/// tens of microseconds, a tenth of an uncached baseline block read.
pub(crate) fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Run `f(0..n)` across up to `threads` scoped workers, preserving result
/// order. One task per block, so big fields no longer serialize through a
/// single Huffman stream.
pub(crate) fn run_parallel<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_parallel_scratch((0..n).collect(), threads, || (), |(), i| f(i))
}

/// [`run_parallel`] over owned task inputs, with per-worker scratch state:
/// task `i` is `f(scratch, inputs[i])`, each input moved into exactly one
/// call (an epoch decode hands each block the slab of its field's buffer
/// it writes). Each worker calls `init` once and threads the value through
/// every task it claims, so steady-state block processing reuses one set
/// of buffers per thread instead of allocating per block.
pub(crate) fn run_parallel_scratch<In, T, S, I, F>(
    inputs: Vec<In>,
    threads: usize,
    init: I,
    f: F,
) -> Vec<T>
where
    In: Send,
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, In) -> T + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = threads.clamp(1, n);
    if workers == 1 {
        let mut scratch = init();
        return inputs.into_iter().map(|x| f(&mut scratch, x)).collect();
    }
    let next = AtomicUsize::new(0);
    let inputs: Vec<Mutex<Option<In>>> = inputs.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work = || {
        let mut scratch = init();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let input = inputs[i].lock().expect("worker slot poisoned").take();
            let r = f(&mut scratch, input.expect("each task is claimed once"));
            *slots[i].lock().expect("worker slot poisoned") = Some(r);
        }
    };
    // the calling thread is one of the workers: a short task list is
    // under way before the first spawn returns
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("worker slot poisoned")
                .expect("task completed")
        })
        .collect()
}

#[cfg(test)]
mod tests;
