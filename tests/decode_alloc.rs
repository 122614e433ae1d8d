//! What an epoch decode allocates (ROADMAP 6(d), the reader's first site).
//!
//! `decode_all` allocates each field's one buffer on the calling thread,
//! sized from the manifest's shape, and every block decodes straight into
//! its slab of it. So on one thread a decode allocates the decoded bytes
//! plus one set of decode scratch, however many blocks the fields are cut
//! into — no block is allocated on its own and then copied into its field.
//! Every block also makes small transients (its container's sections, a
//! few Huffman decode tables), so the buffers this is about are told apart
//! by size: the test counts allocations of at least one slab.
//!
//! The manifest's shape is bytes an attacker writes, so a buffer is sized
//! from it only when the field's blocks could decode to that many samples
//! (`MAX_SAMPLES_PER_BYTE` per stored byte). A manifest claiming more keeps
//! the decode's own error and allocates nothing it claims.
//!
//! The test binary counts the bytes each thread asks the allocator for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cfc_bench::golden;
use cross_field_compression::core::archive::{
    ArchiveBuilder, ArchiveReader, ArchiveScratch, ReadRequest,
};
use cross_field_compression::sz::CfcError;
use cross_field_compression::tensor::{Dataset, Field, Shape};

const DIMS: [usize; 3] = [64, 64, 64];
const FIELDS: [&str; 3] = ["T", "U", "V"];
/// Bytes of one decoded field.
const FIELD_BYTES: usize = DIMS[0] * DIMS[1] * DIMS[2] * 4;
/// Bytes of a slab of `rows` axis-0 rows.
const fn slab_bytes(rows: usize) -> usize {
    rows * DIMS[1] * DIMS[2] * 4
}
/// The archives below cut fields into blocks of 8 and of 4 rows; an
/// allocation of at least the smaller slab is a big one.
const BIG: usize = slab_bytes(4);

thread_local! {
    /// Bytes this thread has asked the allocator for: all of them, and
    /// those in allocations of at least [`BIG`] bytes.
    static ALLOCATED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn count(size: usize) {
    let big = if size >= BIG { size } else { 0 };
    let _ = ALLOCATED.try_with(|n| {
        let (all, bigs) = n.get();
        n.set((all + size, bigs + big));
    });
}

/// The system allocator, counting the bytes each thread requests.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a `const`-initialised
// thread-local `Cell` with no destructor, so touching it neither allocates
// nor can it be observed after teardown (`try_with` covers the latter).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator with `layout`; the
        // caller's `new_size` is passed through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes the calling thread allocates while running `f`: all of them, and
/// those in big allocations.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, (usize, usize)) {
    let (all, big) = ALLOCATED.with(Cell::get);
    let out = f();
    let (all_after, big_after) = ALLOCATED.with(Cell::get);
    (out, (all_after - all, big_after - big))
}

/// Three smooth baseline fields of one 3-D snapshot.
fn snapshot() -> Dataset {
    let shape = Shape::d3(DIMS[0], DIMS[1], DIMS[2]);
    let mut ds = Dataset::new("ALLOC", shape);
    for (k, name) in FIELDS.iter().enumerate() {
        let s = k as f32 + 1.0;
        ds.push(
            *name,
            Field::from_fn(shape, |i| {
                let (z, y, x) = (i[0] as f32, i[1] as f32, i[2] as f32);
                (0.11 * s * z).sin() * 20.0 + (0.07 * y).cos() * 9.0 * s + 0.3 * x
            }),
        );
    }
    ds
}

/// One archive of the snapshot as a baseline snapshot, cut into blocks of
/// `rows` axis-0 rows, and what decoding it on one thread allocates.
struct Probe {
    rows: usize,
    /// Big bytes `decode_all_with_threads(1)` allocates beyond the decoded
    /// fields.
    extra: usize,
    /// Big bytes one fresh [`ArchiveScratch`] grows by over the first
    /// block: one scratch set.
    scratch: usize,
}

fn probe(ds: &Dataset, rows: usize) -> Probe {
    let bytes = ArchiveBuilder::relative(1e-3)
        .chunk_elements(rows * DIMS[1] * DIMS[2])
        .build()
        .write(ds)
        .expect("write");
    let reader = ArchiveReader::new(&bytes).expect("open");
    // the first decode is the measured one: nothing is warm
    let (dec, (_, big)) = allocated_by(|| reader.decode_all_with_threads(1).expect("decode"));
    for name in FIELDS {
        let whole = reader
            .read(&ReadRequest::new(name))
            .expect("per-field read")
            .data;
        assert_eq!(dec.expect_field(name), &whole, "{name}, {rows} rows/block");
    }
    let (block, (_, one)) = allocated_by(|| {
        reader
            .decode_block_with(FIELDS[0], 0, &mut ArchiveScratch::new())
            .expect("block")
    });
    assert_eq!(block.len() * 4, slab_bytes(rows));
    Probe {
        rows,
        extra: big - FIELDS.len() * FIELD_BYTES,
        scratch: one - slab_bytes(rows),
    }
}

#[test]
fn one_thread_allocates_the_decoded_fields_and_one_scratch_however_many_blocks() {
    let ds = snapshot();
    // 8 and then 16 blocks per field
    let (coarse, fine) = (probe(&ds, 8), probe(&ds, 4));
    for p in [&coarse, &fine] {
        eprintln!(
            "{} rows/block: {} B in big allocations beyond the decoded {} B; one scratch set {} B",
            p.rows,
            p.extra,
            FIELDS.len() * FIELD_BYTES,
            p.scratch
        );
        // allocating every block and then stitching the field would add
        // the decoded bytes twice over
        assert!(
            p.extra <= p.scratch,
            "{} rows/block: {} B beyond the decoded fields, one scratch set is {} B",
            p.rows,
            p.extra,
            p.scratch
        );
    }
    // twice the blocks, half the block: no more slab-sized allocation
    assert!(
        fine.extra < coarse.extra + slab_bytes(fine.rows),
        "16 blocks/field: {} B, 8 blocks/field: {} B",
        fine.extra,
        coarse.extra
    );
}

/// The offsets of every manifest row's trailing extent in a golden 2-D
/// snapshot (`ndim` 2, then the two extents).
fn trailing_extents(bytes: &[u8], n_fields: usize) -> Vec<usize> {
    let dims = golden::golden_dataset().shape();
    let mut pattern = vec![2u8];
    for &d in dims.dims() {
        pattern.extend_from_slice(&(d as u64).to_le_bytes());
    }
    let at: Vec<usize> = bytes
        .windows(pattern.len())
        .enumerate()
        .filter(|(_, w)| *w == pattern.as_slice())
        .map(|(i, _)| i + 1 + 8)
        .collect();
    assert_eq!(at.len(), n_fields, "one shape per manifest row");
    at
}

#[test]
fn a_manifest_claiming_more_samples_than_its_blocks_hold_gets_no_buffer() {
    let clean = golden::golden_builder()
        .chunk_elements(golden::GOLDEN_CHUNK_ELEMENTS)
        .build()
        .write(&golden::golden_dataset())
        .expect("write");
    let n_fields = ArchiveReader::new(&clean).expect("open").fields_per_epoch();
    let rows = golden::golden_dataset().shape().dims()[0];
    // every field now claims 2^28 samples, the most a manifest may: the
    // same rows (so the same blocks), each 2^28 / rows samples long
    let claimed = (1usize << 28) / rows;
    let mut bytes = clean.clone();
    for at in trailing_extents(&clean, n_fields) {
        bytes[at..at + 8].copy_from_slice(&(claimed as u64).to_le_bytes());
    }
    let reader = ArchiveReader::new(&bytes).expect("the patched manifest still opens");
    let info = &reader.field_infos()[0];
    assert_eq!(info.dims.iter().product::<usize>(), 1 << 28);
    let stored: usize = reader.entries().iter().map(|e| e.stream_len()).sum();
    assert!(stored < 1 << 16, "{stored} B of payload");

    let (got, (allocated, _)) = allocated_by(|| reader.decode_all());
    let err = got.expect_err("a field whose blocks lie about their shape");
    // the first field's first block fails as it always has: its stream
    // decodes to the slab it records, which is not the one the manifest
    // claims
    let first = reader.field_names()[0].to_string();
    assert!(
        matches!(&err, CfcError::InField { field, block: Some(0), .. } if *field == first),
        "{err}"
    );
    assert!(
        matches!(err.root_cause(), CfcError::ShapeMismatch { .. }),
        "{err}"
    );
    assert!(
        allocated < 16 << 20,
        "{allocated} B allocated for a manifest claiming {} GiB",
        n_fields
    );
}
