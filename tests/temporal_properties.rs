//! Property tests for the v3 temporal-archive semantics:
//!
//! * decoding epoch *t* through its delta chain is **bit-identical** to
//!   decoding an independently-encoded single-snapshot archive of the same
//!   data — the temporal predictor changes how residuals are priced, never
//!   what values reconstruct;
//! * that equivalence holds across the whole keyframe-interval range
//!   (every-epoch keyframes, mid-range chains, one keyframe for the whole
//!   series);
//! * random access to one block of one epoch reads only the covering
//!   keyframe plus the delta chain back to it — counted at the source, so
//!   a regression that silently pulls extra blocks (or whole epochs) fails
//!   here;
//! * decoding the epochs in order reads every meta area and every block
//!   exactly once (each call starts from the epoch the call before
//!   decoded), and any other order of calls on one reader decodes what a
//!   fresh reader decodes.

use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use cross_field_compression::core::archive::{ArchiveBuilder, ArchiveReader, ArchiveSource};
use cross_field_compression::tensor::{Dataset, Field, Region, Shape};

/// One epoch of a deterministic evolving snapshot: two coupled fields with
/// phase drift, so consecutive epochs differ by a small smooth increment.
fn epoch_snapshot(shape: Shape, t: f32, k0: f32, k1: f32) -> Dataset {
    let a = Field::from_fn(shape, |i| {
        let x = i[0] as f32 * (0.06 + k0 * 0.01) + 0.05 * t;
        let y = i[1] as f32 * (0.04 + k1 * 0.01) - 0.03 * t;
        x.sin() * 12.0 + y.cos() * 6.0 + 40.0 + 0.4 * t
    });
    let b = a.map(|v| 0.7 * v - 3.0);
    let mut ds = Dataset::new("TPROP", shape);
    ds.push("A", a);
    ds.push("B", b);
    ds
}

fn epoch_snapshots(shape: Shape, n: usize, k0: f32, k1: f32) -> Vec<Dataset> {
    (0..n)
        .map(|e| epoch_snapshot(shape, e as f32, k0, k1))
        .collect()
}

/// Plan-free builder shared by the temporal and the independent encodes —
/// same bound, same chunking, so decoded values must agree bit-for-bit.
fn builder(chunk_rows: usize, cols: usize) -> ArchiveBuilder {
    ArchiveBuilder::relative(1e-3).chunk_elements(chunk_rows * cols)
}

/// Decode every epoch of each snapshot encoded *alone* (a one-epoch archive):
/// the ground truth the delta chains are measured against.
fn independent_decodes(snapshots: &[Dataset], chunk_rows: usize, cols: usize) -> Vec<Dataset> {
    snapshots
        .iter()
        .map(|ds| {
            let bytes = builder(chunk_rows, cols)
                .build()
                .write(ds)
                .expect("snapshot write");
            ArchiveReader::new(&bytes)
                .expect("parse snapshot")
                .decode_all()
                .expect("decode snapshot")
        })
        .collect()
}

fn assert_epochs_match<R: ArchiveSource>(
    reader: &ArchiveReader<R>,
    want: &[Dataset],
) -> Result<(), TestCaseError> {
    for (t, w) in want.iter().enumerate() {
        let dec = reader.decode_epoch(t).expect("decode epoch");
        for name in ["A", "B"] {
            prop_assert_eq!(
                dec.expect_field(name).as_slice(),
                w.expect_field(name).as_slice(),
                "epoch {} field {} diverged from the independent encode",
                t,
                name
            );
        }
    }
    Ok(())
}

/// [`ArchiveSource`] wrapper that counts every byte actually read.
struct CountingReader<R> {
    inner: R,
    read: Arc<AtomicU64>,
}

impl<R: ArchiveSource> ArchiveSource for CountingReader<R> {
    fn len(&self) -> std::io::Result<u64> {
        self.inner.len()
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        self.inner.read_exact_at(offset, buf)?;
        self.read.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }
}

type CountingArchiveReader = ArchiveReader<CountingReader<Cursor<Vec<u8>>>>;

/// A reader over `bytes` that counts every byte it reads from the source.
fn counting_reader(bytes: Vec<u8>) -> (CountingArchiveReader, Arc<AtomicU64>) {
    let read = Arc::new(AtomicU64::new(0));
    let src = CountingReader {
        inner: Cursor::new(bytes),
        read: Arc::clone(&read),
    };
    (ArchiveReader::open(src).expect("parse counted"), read)
}

/// Every field of two decodes of one epoch is the same bits.
fn same_bits(got: &Dataset, want: &Dataset) -> bool {
    got.len() == want.len()
        && want.iter().all(|(name, w)| {
            got.field(name).is_some_and(|g| {
                g.shape() == w.shape()
                    && g.as_slice()
                        .iter()
                        .zip(w.as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Delta-chain decode of epoch t ≡ the independently-encoded snapshot
    /// t, for random shapes, chunkings, and keyframe intervals.
    #[test]
    fn delta_chain_decode_equals_independent_snapshot(
        rows in 10usize..28,
        cols in 6usize..14,
        chunk_rows in 2usize..6,
        n_epochs in 3usize..7,
        interval in 2usize..5,
        k0 in 0u32..8, k1 in 0u32..8,
    ) {
        let shape = Shape::d2(rows, cols);
        let snapshots = epoch_snapshots(shape, n_epochs, k0 as f32, k1 as f32);
        let want = independent_decodes(&snapshots, chunk_rows, cols);

        let bytes = builder(chunk_rows, cols)
            .keyframe_interval(interval)
            .build()
            .write_epochs(&snapshots)
            .expect("v3 write");
        let reader = ArchiveReader::new(&bytes).expect("parse v3");
        prop_assert_eq!(reader.version(), 3);
        prop_assert_eq!(reader.n_epochs(), n_epochs);
        assert_epochs_match(&reader, &want)?;
    }

    /// The same equivalence across the interval extremes: keyframe-only
    /// (interval 1), a mid-range chain (3), and one keyframe heading the
    /// entire series (interval ≥ n_epochs).
    #[test]
    fn keyframe_interval_sweep_roundtrips_bit_exactly(
        rows in 10usize..24,
        cols in 6usize..12,
        chunk_rows in 2usize..5,
        n_epochs in 4usize..7,
        k0 in 0u32..8, k1 in 0u32..8,
    ) {
        let shape = Shape::d2(rows, cols);
        let snapshots = epoch_snapshots(shape, n_epochs, k0 as f32, k1 as f32);
        let want = independent_decodes(&snapshots, chunk_rows, cols);

        for interval in [1, 3, n_epochs] {
            let bytes = builder(chunk_rows, cols)
                .keyframe_interval(interval)
                .build()
                .write_epochs(&snapshots)
                .expect("v3 write");
            let reader = ArchiveReader::new(&bytes).expect("parse v3");
            prop_assert_eq!(reader.keyframe_interval(), interval);
            assert_epochs_match(&reader, &want)?;
        }
    }

    /// Random access to one block of one epoch touches only the covering
    /// keyframe + delta chain: the payload bytes read are bounded by the
    /// meta and block spans of exactly those `t % interval + 1 ≤ interval`
    /// entries — never another block, field, or epoch.
    #[test]
    fn epoch_access_reads_only_keyframe_plus_chain(
        rows in 12usize..28,
        cols in 6usize..12,
        chunk_rows in 2usize..5,
        n_epochs in 4usize..8,
        interval in 2usize..5,
        pick_epoch in 0u32..1000,
        pick_block in 0u32..1000,
        k0 in 0u32..8,
    ) {
        let shape = Shape::d2(rows, cols);
        let snapshots = epoch_snapshots(shape, n_epochs, k0 as f32, 3.0);
        let bytes = builder(chunk_rows, cols)
            .keyframe_interval(interval)
            .build()
            .write_epochs(&snapshots)
            .expect("v3 write");

        let plain = ArchiveReader::new(&bytes).expect("parse v3");
        let fields = plain.fields_per_epoch();
        let n_blocks = plain.entries()[0].n_blocks();
        let epoch = pick_epoch as usize % n_epochs;
        let idx = pick_block as usize % n_blocks;
        let keyframe = epoch - epoch % interval;

        // every byte the chain is *allowed* to read: block `idx` plus the
        // field meta of each entry from the covering keyframe to `epoch`
        let allowed: u64 = (keyframe..=epoch)
            .map(|e| {
                let entry = &plain.entries()[e * fields]; // field A
                let (_, len) = entry.block_span(idx).expect("block span");
                entry.meta_len() as u64 + len as u64
            })
            .sum();
        prop_assert!(epoch - keyframe < interval, "chain longer than interval");

        let (counted, read) = counting_reader(bytes.clone());
        let toc = read.load(Ordering::Relaxed);
        let got = counted.decode_block_at("A", idx, epoch).expect("block at epoch");
        let payload_bytes = read.load(Ordering::Relaxed) - toc;
        prop_assert!(
            payload_bytes <= allowed,
            "decode_block_at read {} payload bytes; the keyframe + chain \
             only spans {}",
            payload_bytes,
            allowed
        );

        // and the chain decode is the real data, not a shortcut
        let r0 = idx * chunk_rows;
        let r1 = (r0 + chunk_rows).min(rows);
        let want = plain
            .decode_epoch(epoch)
            .expect("decode epoch")
            .expect_field("A")
            .crop(&Region::d2(r0, r1, 0, cols));
        prop_assert_eq!(got, want);
    }

    /// Decoding every epoch in order reads each meta area and each block
    /// exactly once: a delta decodes against the epoch the call before
    /// decoded, never by walking its chain again.
    #[test]
    fn in_order_epoch_decode_reads_the_payload_once(
        rows in 10usize..24,
        cols in 6usize..12,
        chunk_rows in 2usize..6,
        n_epochs in 3usize..9,
        interval in 1usize..5,
        k0 in 0u32..8,
    ) {
        let shape = Shape::d2(rows, cols);
        let snapshots = epoch_snapshots(shape, n_epochs, k0 as f32, 2.0);
        let bytes = builder(chunk_rows, cols)
            .keyframe_interval(interval)
            .build()
            .write_epochs(&snapshots)
            .expect("v3 write");
        let (reader, read) = counting_reader(bytes);
        let payload: u64 = reader
            .entries()
            .iter()
            .map(|e| {
                let blocks: usize = (0..e.n_blocks()).filter_map(|i| e.block_len(i)).sum();
                (e.meta_len() + blocks) as u64
            })
            .sum();

        let toc = read.load(Ordering::Relaxed);
        for epoch in 0..n_epochs {
            reader.decode_epoch(epoch).expect("decode epoch");
        }
        prop_assert_eq!(read.load(Ordering::Relaxed) - toc, payload);
    }

    /// Any order of `decode_epoch` calls on one reader — reversed, strided,
    /// every epoch twice, one epoch of each group in turn — decodes every
    /// epoch to the bits a fresh reader decodes it to.
    #[test]
    fn every_call_order_decodes_what_a_fresh_reader_decodes(
        rows in 10usize..20,
        cols in 6usize..12,
        chunk_rows in 2usize..6,
        n_epochs in 3usize..9,
        interval in 1usize..5,
        k0 in 0u32..8,
    ) {
        let shape = Shape::d2(rows, cols);
        let snapshots = epoch_snapshots(shape, n_epochs, k0 as f32, 5.0);
        let bytes = builder(chunk_rows, cols)
            .keyframe_interval(interval)
            .build()
            .write_epochs(&snapshots)
            .expect("v3 write");
        let fresh = |e| {
            let reader = ArchiveReader::new(&bytes).expect("parse v3");
            reader.decode_epoch(e).expect("decode epoch")
        };
        let want: Vec<Dataset> = (0..n_epochs).map(fresh).collect();

        let reversed: Vec<usize> = (0..n_epochs).rev().collect();
        let strided: Vec<usize> = (0..n_epochs)
            .step_by(2)
            .chain((1..n_epochs).step_by(2))
            .collect();
        let repeated: Vec<usize> = (0..n_epochs).flat_map(|e| [e, e]).collect();
        let across_groups: Vec<usize> = (0..interval)
            .flat_map(|k| (k..n_epochs).step_by(interval))
            .collect();
        let reader = ArchiveReader::new(&bytes).expect("parse v3");
        for order in [reversed, strided, repeated, across_groups] {
            for &e in &order {
                let got = reader.decode_epoch(e).expect("decode epoch");
                prop_assert!(same_bits(&got, &want[e]), "epoch {} of {:?}", e, order);
            }
        }
    }
}
