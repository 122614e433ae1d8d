//! Reusable scratch buffers for steady-state block encode/decode.
//!
//! The chunked archive processes thousands of blocks per field; without
//! reuse every block pays fresh allocations for its residual codes,
//! outliers, decompressed lossless payload and, on decode, its lattice —
//! the largest per-block buffers by far (each is proportional to the
//! block's element count). A
//! worker thread owns one [`EncodeScratch`]/[`DecodeScratch`] and passes
//! it to the `*_with` codec entry points
//! ([`crate::SzCompressor::compress_with`],
//! [`crate::SzCompressor::decompress_with`]); after the first block these
//! buffers have steady-state capacity. [`EncodeScratch`] also embeds the
//! staged entropy payload and the LZSS matcher state
//! ([`crate::lossless::LzScratch`]), so the whole
//! residuals→Huffman→LZ encode chain is allocation-free at steady state;
//! only small transients remain (per-stream Huffman tables, section
//! headers).
//!
//! Both types count buffer *growths* (a capacity increase on any internal
//! buffer) so tests can assert the covered buffers really stop growing in
//! steady state.

/// Reusable buffers for the decode path: the decompressed lossless
/// payload, the residual codes, the outlier values, and the reconstructed
/// lattice a baseline block is dequantized from.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    /// Decompressed Huffman-table + bitstream payload (also reused for the
    /// outlier varint payload).
    pub(crate) payload: Vec<u8>,
    /// Residual quantization codes.
    pub(crate) codes: Vec<u32>,
    /// Escaped lattice values.
    pub(crate) outliers: Vec<i64>,
    /// Reconstructed lattice integers ([`crate::SzCompressor::decompress_with`]).
    pub(crate) lattice: Vec<i64>,
    /// Times any buffer had to grow its capacity.
    pub(crate) growths: usize,
}

impl DecodeScratch {
    /// Fresh (empty) scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of capacity growths across all internal buffers since
    /// construction. Stable across decodes ⇔ steady state allocates
    /// nothing new.
    pub fn growths(&self) -> usize {
        self.growths
    }

    /// Record capacity changes against a pre-operation snapshot.
    pub(crate) fn track(&mut self, before: [usize; 4]) {
        let grown = self.caps().into_iter().zip(before);
        self.growths += grown.filter(|&(now, was)| now > was).count();
    }

    /// Capacity snapshot for [`DecodeScratch::track`].
    pub(crate) fn caps(&self) -> [usize; 4] {
        [
            self.payload.capacity(),
            self.codes.capacity(),
            self.outliers.capacity(),
            self.lattice.capacity(),
        ]
    }
}

/// Reusable buffers for the encode path: prediction residuals, their
/// quantized codes, the escaped outlier values, the staged entropy
/// payload, and the LZ matcher state.
#[derive(Debug, Default)]
pub struct EncodeScratch {
    /// Per-sample prediction residuals.
    pub(crate) deltas: Vec<i64>,
    /// Residual quantization codes.
    pub(crate) codes: Vec<u32>,
    /// Escaped lattice values.
    pub(crate) outliers: Vec<i64>,
    /// Staged pre-lossless payload (Huffman table + bits, or outlier
    /// varints).
    pub(crate) payload: Vec<u8>,
    /// LZSS hash chains, token list, and stream staging.
    pub(crate) lz: crate::lossless::LzScratch,
    /// Times any buffer had to grow its capacity.
    pub(crate) growths: usize,
}

impl EncodeScratch {
    /// Fresh (empty) scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of capacity growths across all internal buffers since
    /// construction.
    pub fn growths(&self) -> usize {
        self.growths
    }

    /// The encoded `(codes, outliers)` streams of the last
    /// [`crate::SzCompressor::compress_lattice_with`] call through this
    /// scratch.
    pub fn streams(&self) -> (&[u32], &[i64]) {
        (&self.codes, &self.outliers)
    }

    /// Record capacity changes against a pre-operation snapshot.
    pub(crate) fn track(&mut self, before: (usize, usize, usize, usize, usize)) {
        let (d, c, o, p, l) = before;
        self.growths += usize::from(self.deltas.capacity() > d)
            + usize::from(self.codes.capacity() > c)
            + usize::from(self.outliers.capacity() > o)
            + usize::from(self.payload.capacity() > p)
            + usize::from(self.lz.cap_sum() > l);
    }

    /// Capacity snapshot for [`EncodeScratch::track`].
    pub(crate) fn caps(&self) -> (usize, usize, usize, usize, usize) {
        (
            self.deltas.capacity(),
            self.codes.capacity(),
            self.outliers.capacity(),
            self.payload.capacity(),
            self.lz.cap_sum(),
        )
    }
}

/// A lock-protected pool of reusable scratch values for request-driven
/// workers (e.g. the archive store serving `decode_region` from many
/// threads, where no worker owns a long-lived scratch).
///
/// [`ScratchPool::get`] hands out a pooled value — or a fresh
/// `T::default()` when the pool is empty — wrapped in a [`PooledScratch`]
/// guard that returns it to the pool on drop. Buffers therefore keep their
/// steady-state capacity across requests, with at most one pooled value
/// per concurrently active worker.
#[derive(Debug, Default)]
pub struct ScratchPool<T: Default> {
    pool: std::sync::Mutex<Vec<T>>,
    /// Cap on idle pooled values (extras are dropped on return).
    max_idle: usize,
}

impl<T: Default> ScratchPool<T> {
    /// A pool keeping at most `max_idle` idle values around.
    pub fn new(max_idle: usize) -> Self {
        ScratchPool {
            pool: std::sync::Mutex::new(Vec::new()),
            max_idle,
        }
    }

    /// Check out a scratch value (pooled if available, fresh otherwise).
    pub fn get(&self) -> PooledScratch<'_, T> {
        let item = self
            .pool
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .pop()
            .unwrap_or_default();
        PooledScratch {
            pool: self,
            item: Some(item),
        }
    }

    /// Idle values currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.pool.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    fn put_back(&self, item: T) {
        let mut pool = self.pool.lock().unwrap_or_else(|p| p.into_inner());
        if pool.len() < self.max_idle {
            pool.push(item);
        }
    }
}

/// RAII checkout from a [`ScratchPool`]; derefs to the pooled value and
/// returns it to the pool when dropped.
#[derive(Debug)]
pub struct PooledScratch<'a, T: Default> {
    pool: &'a ScratchPool<T>,
    item: Option<T>,
}

impl<T: Default> std::ops::Deref for PooledScratch<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.item.as_ref().expect("live until drop")
    }
}

impl<T: Default> std::ops::DerefMut for PooledScratch<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.item.as_mut().expect("live until drop")
    }
}

impl<T: Default> Drop for PooledScratch<'_, T> {
    fn drop(&mut self) {
        if let Some(item) = self.item.take() {
            self.pool.put_back(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_tracking_counts_capacity_increases() {
        let mut s = DecodeScratch::new();
        let before = s.caps();
        s.codes.reserve(1000);
        s.track(before);
        assert_eq!(s.growths(), 1);
        // no growth when capacity suffices
        let before = s.caps();
        s.codes.clear();
        s.codes.resize(500, 0);
        s.track(before);
        assert_eq!(s.growths(), 1);
        // the lattice buffer is covered too
        let before = s.caps();
        s.lattice.reserve(1000);
        s.track(before);
        assert_eq!(s.growths(), 2);
    }

    #[test]
    fn encode_scratch_tracks_all_buffers() {
        let mut s = EncodeScratch::new();
        let before = s.caps();
        s.deltas.reserve(10);
        s.codes.reserve(10);
        s.outliers.reserve(10);
        s.payload.reserve(10);
        s.track(before);
        assert_eq!(s.growths(), 4);
        // LZ scratch growth counts as one more
        let before = s.caps();
        let _ = crate::lossless::compress_with(&vec![7u8; 4096], &mut s.lz);
        s.track(before);
        assert_eq!(s.growths(), 5);
    }

    #[test]
    fn pool_reuses_returned_scratch() {
        let pool: ScratchPool<DecodeScratch> = ScratchPool::new(4);
        {
            let mut s = pool.get();
            s.codes.reserve(1 << 12);
            assert_eq!(pool.idle(), 0);
        }
        assert_eq!(pool.idle(), 1);
        // the same grown buffer comes back out
        let s = pool.get();
        assert!(s.codes.capacity() >= 1 << 12);
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn pool_caps_idle_values() {
        let pool: ScratchPool<DecodeScratch> = ScratchPool::new(1);
        let a = pool.get();
        let b = pool.get();
        drop(a);
        drop(b); // second return exceeds max_idle and is dropped
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn pool_hands_out_distinct_values_concurrently() {
        let pool: ScratchPool<EncodeScratch> = ScratchPool::new(8);
        let a = pool.get();
        let b = pool.get();
        // distinct allocations, not aliases
        assert_ne!(
            std::ptr::from_ref::<EncodeScratch>(&*a),
            std::ptr::from_ref::<EncodeScratch>(&*b),
        );
    }
}
