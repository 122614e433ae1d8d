//! Speculative readahead: per-field axis-0 scan detection, the shared
//! prefetch queue, and the lazy worker pool that drains it.
//!
//! Every demand read reports the block window it covered via
//! [`PrefetchShared::note_access`]. Two consecutive windows on the same
//! field with the same positive stride make an *active scan*, and the
//! tracker predicts the next windows along that stride (up to the
//! configured depth). Predicted blocks are enqueued and decoded by
//! detached `cfc-prefetch-N` workers through the store's normal decode
//! path — including the single-flight slots, so a demand read arriving
//! while its block is being prefetched coalesces onto the in-flight
//! decode instead of duplicating it.
//!
//! Workers are spawned lazily on the first prediction (a store that never
//! scans never spawns a thread) and joined on [`WorkerSet`] drop, which
//! happens when the owning store drops.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use super::super::reader::BlockKey;
use super::super::source::ArchiveSource;
use super::tier::lock;
use super::StoreCore;

/// Detached prefetch workers in a store's pool.
const WORKERS: usize = 2;

/// Per-field scan detector: the last accessed block window and the stride
/// between the last two windows.
struct ScanTracker {
    last_first: usize,
    last_last: usize,
    /// Positive axis-0 stride between the last two window starts (0 when
    /// no scan is active).
    stride: usize,
    /// Consecutive accesses at `stride`; ≥ 1 means an active scan.
    streak: u32,
}

#[derive(Default)]
struct PrefetchState {
    queue: VecDeque<BlockKey>,
    /// Mirror of `queue` for O(1) dedup.
    queued: HashSet<BlockKey>,
    scans: HashMap<usize, ScanTracker>,
    /// Workers currently decoding a claimed block.
    active: usize,
    shutdown: bool,
}

/// Queue, scan trackers, and worker signalling — deliberately non-generic
/// so the worker pool's shutdown path needs no knowledge of the source
/// type.
pub(super) struct PrefetchShared {
    state: Mutex<PrefetchState>,
    /// Signalled when work arrives or shutdown is requested.
    work: Condvar,
    /// Signalled when the queue drains and the last worker goes idle.
    idle: Condvar,
}

impl PrefetchShared {
    pub(super) fn new() -> Self {
        PrefetchShared {
            state: Mutex::new(PrefetchState::default()),
            work: Condvar::new(),
            idle: Condvar::new(),
        }
    }

    /// Record a demand access of blocks `[first, last]` of field `fi` and
    /// return the blocks to prefetch (empty unless an axis-0 scan with a
    /// constant positive stride is active). `depth` caps the prediction.
    pub(super) fn note_access(
        &self,
        fi: usize,
        first: usize,
        last: usize,
        n_blocks: usize,
        depth: usize,
    ) -> Vec<usize> {
        let mut g = lock(&self.state);
        if g.shutdown {
            return Vec::new();
        }
        let t = match g.scans.entry(fi) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(ScanTracker {
                    last_first: first,
                    last_last: last,
                    stride: 0,
                    streak: 0,
                });
                return Vec::new();
            }
            std::collections::hash_map::Entry::Occupied(o) => o.into_mut(),
        };
        let step = first as i64 - t.last_first as i64;
        if step > 0 && step as usize == t.stride {
            t.streak += 1;
        } else if step > 0 {
            t.stride = step as usize;
            t.streak = 1;
        } else if !(step == 0 && last == t.last_last) {
            // a backwards or irregular jump kills the scan; an exact
            // repeat of the hot window keeps it alive (cache hits on the
            // current window shouldn't cancel the readahead)
            t.stride = 0;
            t.streak = 0;
        }
        t.last_first = first;
        t.last_last = last;
        if t.streak == 0 || t.stride == 0 {
            return Vec::new();
        }
        // predict the next windows along the stride, keeping only blocks
        // past the current window, up to `depth` blocks total
        let stride = t.stride;
        let mut preds = Vec::new();
        'windows: for j in 1..=depth {
            let lo = first.saturating_add(j * stride);
            let hi = last.saturating_add(j * stride);
            for b in lo..=hi {
                if b > last && b < n_blocks && !preds.contains(&b) {
                    preds.push(b);
                    if preds.len() >= depth {
                        break 'windows;
                    }
                }
            }
        }
        preds
    }

    /// Enqueue keys not already queued; returns how many were accepted
    /// and wakes the workers.
    pub(super) fn enqueue(&self, keys: &[BlockKey]) -> usize {
        let mut g = lock(&self.state);
        if g.shutdown {
            return 0;
        }
        let mut accepted = 0;
        for &k in keys {
            if g.queued.insert(k) {
                g.queue.push_back(k);
                accepted += 1;
            }
        }
        drop(g);
        if accepted > 0 {
            self.work.notify_all();
        }
        accepted
    }

    /// Worker entry: block until a key is available (returns `None` on
    /// shutdown). The caller must pair every `Some` with a
    /// [`PrefetchShared::job_done`].
    fn next_job(&self) -> Option<BlockKey> {
        let mut g = lock(&self.state);
        loop {
            if g.shutdown {
                return None;
            }
            if let Some(k) = g.queue.pop_front() {
                g.queued.remove(&k);
                g.active += 1;
                return Some(k);
            }
            g = self.work.wait(g).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn job_done(&self) {
        let mut g = lock(&self.state);
        g.active -= 1;
        if g.active == 0 && g.queue.is_empty() {
            self.idle.notify_all();
        }
    }

    /// Block until the queue is empty and no worker is mid-decode — for
    /// tests and benches that need deterministic post-prefetch state.
    pub(super) fn quiesce(&self) {
        let mut g = lock(&self.state);
        while !(g.shutdown || (g.queue.is_empty() && g.active == 0)) {
            g = self.idle.wait(g).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Drop all queued work and scan state (invalidation / purge).
    pub(super) fn reset(&self) {
        let mut g = lock(&self.state);
        g.queue.clear();
        g.queued.clear();
        g.scans.clear();
        let idle = g.active == 0;
        drop(g);
        if idle {
            self.idle.notify_all();
        }
    }

    /// Drop queued work and scan state for one field.
    pub(super) fn invalidate_entry(&self, fi: usize) {
        let mut g = lock(&self.state);
        g.queue.retain(|k| k.0 != fi);
        g.queued.retain(|k| k.0 != fi);
        g.scans.remove(&fi);
        let idle = g.active == 0 && g.queue.is_empty();
        drop(g);
        if idle {
            self.idle.notify_all();
        }
    }

    fn request_shutdown(&self) {
        let mut g = lock(&self.state);
        g.shutdown = true;
        g.queue.clear();
        g.queued.clear();
        drop(g);
        self.work.notify_all();
        self.idle.notify_all();
    }
}

/// The lazily-spawned prefetch worker pool. Non-generic (it only holds
/// join handles plus the shared queue), so dropping it — which signals
/// shutdown and joins the workers — needs no bounds on the store's source
/// type.
pub(super) struct WorkerSet {
    shared: Arc<PrefetchShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerSet {
    pub(super) fn new(shared: Arc<PrefetchShared>) -> Self {
        WorkerSet {
            shared,
            handles: Mutex::new(Vec::new()),
        }
    }

    /// Spawn the worker pool if it isn't running yet (first prediction).
    pub(super) fn ensure<R: ArchiveSource + 'static>(&self, core: &Arc<StoreCore<R>>) {
        let mut handles = lock(&self.handles);
        if !handles.is_empty() {
            return;
        }
        for i in 0..WORKERS {
            let core = Arc::clone(core);
            let handle = std::thread::Builder::new()
                .name(format!("cfc-prefetch-{i}"))
                .spawn(move || worker_loop(core))
                .expect("spawn prefetch worker");
            handles.push(handle);
        }
    }

    pub(super) fn spawned(&self) -> bool {
        !lock(&self.handles).is_empty()
    }
}

impl Drop for WorkerSet {
    fn drop(&mut self) {
        self.shared.request_shutdown();
        let handles = self.handles.get_mut().unwrap_or_else(|p| p.into_inner());
        for h in handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop<R: ArchiveSource>(core: Arc<StoreCore<R>>) {
    while let Some(key) = core.prefetch.next_job() {
        core.prefetch_block(key);
        core.prefetch.job_done();
    }
}
