//! Domain scenario: archiving a multi-field climate snapshot (the paper's
//! introduction workload — Nyx/SCALE-class simulation output where storage
//! and I/O bandwidth are the bottleneck).
//!
//! One `ArchiveWriter::write_to` call streams *every* field of the
//! synthetic SCALE snapshot straight into a file: the paper's Table 3 role
//! plan sends RH and W through the cross-field pipeline (anchor roundtrip,
//! CFNN training, hybrid fitting all happen inside the writer), everything
//! else through the baseline compressor — and every field is split into
//! independently decodable CRC'd blocks, encoded in parallel. A target
//! whose cross-field encoding, model included, is not smaller than its
//! baseline one is written as an independent field; the role column
//! shows which.
//!
//! The read side opens the file with `ArchiveReader::open`, parses only
//! the manifest, and then:
//! * `decode_all()` reconstructs the whole snapshot (all blocks, parallel);
//! * `decode_region()` serves a small window by touching only the blocks
//!   that cover it — the random-access path a data portal would use;
//! * `ArchiveStore` wraps the reader in a decoded-block LRU cache and
//!   serves the same window from multiple threads, decoding each hot
//!   block (and its anchor blocks) exactly once.
//!
//! ```sh
//! cargo run --release --example climate_archive
//! ```

use std::io::BufWriter;
use std::sync::Arc;

use cross_field_compression::core::archive::{
    ArchiveBuilder, ArchiveReader, ArchiveStore, StoreConfig,
};
use cross_field_compression::core::config::paper_table3;
use cross_field_compression::datagen::{paper_catalog, GenParams};
use cross_field_compression::tensor::Region;

fn main() {
    let rel_eb = 1e-3;
    let info = paper_catalog()
        .into_iter()
        .find(|d| d.name == "SCALE")
        .unwrap();
    let ds = info.generate_default(GenParams::default());
    println!(
        "SCALE snapshot {} — {} fields, {:.1} MB raw, archiving at rel eb {rel_eb:.0e}\n",
        ds.shape(),
        ds.len(),
        ds.len() as f64 * ds.shape().len() as f64 * 4.0 / 1e6
    );

    // the paper's Table 3 rows for SCALE become the field-role plan;
    // everything not named decodes independently through the baseline
    let plan: Vec<_> = paper_table3()
        .into_iter()
        .filter(|r| r.dataset == "SCALE")
        .collect();
    let writer = ArchiveBuilder::relative(rel_eb)
        .plan_from(&plan)
        .chunk_elements(1 << 16) // ~64Ki samples per block
        .build();

    // stream straight to disk — the sink never needs to seek
    let path = std::env::temp_dir().join("scale_snapshot.cfar");
    let file = std::fs::File::create(&path).expect("create archive file");
    let report = writer
        .write_to(&ds, BufWriter::new(file))
        .expect("archive write");

    println!(
        "{:<8}{:>14}{:>12}{:>9}{:>12}",
        "field", "role", "bytes", "blocks", "ratio"
    );
    let raw_per_field = ds.shape().len() * 4;
    for f in &report.fields {
        println!(
            "{:<8}{:>14}{:>12}{:>9}{:>12.2}",
            f.name,
            f.role.label(),
            f.bytes,
            f.n_blocks,
            f.ratio(raw_per_field / 4)
        );
    }
    println!(
        "\narchive: {:.2} MB → {:.2} MB  ({:.2}x, {:.1}% of original) at {}",
        report.raw_bytes as f64 / 1e6,
        report.archive_bytes as f64 / 1e6,
        report.ratio(),
        report.archive_bytes as f64 / report.raw_bytes as f64 * 100.0,
        path.display()
    );

    // read side: open the file, parse nothing but the manifest
    let reader =
        ArchiveReader::open(std::fs::File::open(&path).expect("open")).expect("archive parse");
    let decoded = reader.decode_all().expect("archive decode");
    assert_eq!(decoded.field_names(), ds.field_names());
    for entry in reader.entries() {
        let orig = ds.expect_field(&entry.name);
        let dec = decoded.expect_field(&entry.name);
        let worst = orig
            .as_slice()
            .iter()
            .zip(dec.as_slice())
            .map(|(a, b)| (a - b).abs() as f64)
            .fold(0.0, f64::max);
        assert!(
            worst <= entry.eb_abs * (1.0 + 1e-9),
            "{}: worst error {worst} exceeds bound {}",
            entry.name,
            entry.eb_abs
        );
    }
    println!("✓ every field round-tripped within its recorded error bound");

    // random access: a window of the cross-field W target, served by
    // decoding only the blocks (and anchor blocks) that cover it
    let dims = ds.shape().dims().to_vec();
    let region = match dims.len() {
        3 => Region::d3(
            dims[0] / 3,
            (dims[0] / 3 + 4).min(dims[0]),
            dims[1] / 4,
            dims[1] / 2,
            dims[2] / 4,
            dims[2] / 2,
        ),
        _ => Region::d2(dims[0] / 3, dims[0] / 3 + 40, dims[1] / 2, dims[1] / 2 + 64),
    };
    let window = reader.decode_region("W", &region).expect("region decode");
    let full = decoded.expect_field("W").crop(&region);
    assert_eq!(window, full, "random access must match the full decode");
    let w = reader.entries().iter().find(|e| e.name == "W").unwrap();
    let (b_first, b_last) = region.block_cover(w.chunk_slabs());
    println!(
        "✓ decode_region({region}) of W matches decode_all — served from {} of {} blocks",
        b_last - b_first + 1,
        w.n_blocks()
    );

    // serving layer: wrap a fresh reader in an ArchiveStore and let four
    // threads hammer the same hot window of the cross-field target — the
    // covering blocks (and their anchor blocks) decode once, every later
    // read is a cache hit on shared Arc<Field> samples
    let store = Arc::new(ArchiveStore::new(
        ArchiveReader::open(std::fs::File::open(&path).expect("open")).expect("archive parse"),
        StoreConfig::default(),
    ));
    std::thread::scope(|s| {
        for _ in 0..4 {
            let store = Arc::clone(&store);
            let window = &window;
            s.spawn(move || {
                for _ in 0..8 {
                    let served = store.decode_region("W", &region).expect("store decode");
                    assert_eq!(&served, window, "cached serve must match");
                }
            });
        }
    });
    let stats = store.snapshot();
    println!(
        "✓ ArchiveStore served 32 concurrent reads with {} block decodes, \
         {} cache hits ({:.1}% hit rate, {:.1} KiB cached)",
        stats.misses,
        stats.hits,
        stats.hit_rate() * 100.0,
        stats.cached_bytes as f64 / 1024.0
    );
    std::fs::remove_file(&path).ok();
}
