//! Inputs: seeded datasets, the archives built from them, the verification
//! pass, and the scratch directory archives are served from.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use cfc_core::archive::{ArchiveBuilder, ArchiveReader, ArchiveWriter, FieldReport};
use cfc_core::config::{paper_table3, CrossFieldConfig};
use cfc_core::TrainConfig;
use cfc_datagen::GenParams;
use cfc_tensor::{Dataset, Region, Shape};

/// Pointwise relative error bound every archive is written at.
pub const REL_EB: f64 = 1e-3;
/// Elements per block every archive is written with.
pub const CHUNK_ELEMENTS: usize = 1 << 16;
/// Keyframe interval of the temporal archive.
pub const KEYFRAME_INTERVAL: usize = 4;
/// The paper's SCALE targets (Table III); `xf_gain` is taken over these.
pub const TARGETS: [&str; 2] = ["RH", "W"];
/// The five SCALE fields that stay baseline-coded under the paper's plan.
pub const ANCHORS: [&str; 5] = ["PRES", "T", "QV", "U", "V"];

/// How large the inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` numbers are measured at.
    Full,
    /// `--smoke`: exercises the harness, measures nothing worth keeping.
    Smoke,
}

/// Dimensions of one archive kind at one scale. SCALE slabs are 128x128,
/// so [`CHUNK_ELEMENTS`] makes every block four slabs: a 2-slab window at a
/// random offset lies inside one block three times in four, and the median
/// read latency sits well inside that mode.
///
/// The cross-field volume is the smallest at which the paper's plan pays:
/// the embedded models are a fixed cost, and `xf_gain` (seed 1) reads 1.004
/// at 12 slabs, 1.032 at 16, 1.048 at 24 and 1.053 at 32x160x160, while
/// CFNN inference costs about 1.5 us per target sample and core, so every
/// further slab is paid for in each of a run's two set-ups and five
/// cycles. The baseline snapshot (22 MB) is 2.7x the two cores' L2 and
/// streams from the host's shared 260 MiB L3, which no volume that fits
/// the time cap exceeds.
pub fn dims(kind: Kind, scale: Scale) -> Dims {
    match (kind, scale) {
        (Kind::Baseline, Scale::Full) => Dims::Snapshot([48, 128, 128]),
        (Kind::Crossfield, Scale::Full) => Dims::Snapshot([24, 128, 128]),
        (Kind::Baseline | Kind::Crossfield, Scale::Smoke) => Dims::Snapshot([6, 48, 48]),
        // one 256-row block per field and epoch: every read decodes whole
        // fields down its chain, so its latency has one mode
        (Kind::Temporal, Scale::Full) => Dims::Series {
            side: 256,
            epochs: 16,
        },
        (Kind::Temporal, Scale::Smoke) => Dims::Series {
            side: 64,
            epochs: 8,
        },
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Dims {
    Snapshot([usize; 3]),
    Series { side: usize, epochs: usize },
}

/// SplitMix64: the benchmark's own access-pattern generator, so offsets
/// depend on `--seed` and nothing else.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A directory under `.bench_out/` in the working directory, removed when
/// dropped — also when a run fails, since failures unwind or return.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create() -> std::io::Result<Self> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = output_dir().join(format!("tmp-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where trace files and temporary archives go: inside the checkout the
/// benchmark was started from, never outside it.
pub fn output_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

/// Attempted and failed operations, with the first few failures spelled
/// out so a failing run says which op on which workload broke.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one operation; `what` is only rendered when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    /// Count one fallible operation, named by `what`; yields its value when
    /// it succeeded, and describes the failure by its error otherwise.
    pub fn pass<T>(&mut self, got: Result<T, String>, what: impl FnOnce() -> String) -> Option<T> {
        let error = got.as_ref().err().cloned().unwrap_or_default();
        self.check(got.is_ok(), || format!("{}: {error}", what()));
        got.ok()
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(20);
    }
}

/// Which archive a workload writes or serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// SCALE snapshot, every field baseline-coded.
    Baseline,
    /// SCALE snapshot under the paper's Table III plan.
    Crossfield,
    /// `datagen::temporal` series as one v3 delta-chain archive.
    Temporal,
}

/// Axis-0 slabs per block the writer cuts a field of `shape` into (never
/// more than the field has).
pub fn chunk_slabs(shape: Shape) -> usize {
    let d0 = shape.dims()[0];
    CHUNK_ELEMENTS.div_ceil(shape.len() / d0).clamp(1, d0)
}

/// The paper's Table III rows for the SCALE analogue.
pub fn scale_rows() -> Vec<CrossFieldConfig> {
    paper_table3()
        .into_iter()
        .filter(|r| r.dataset == "SCALE")
        .collect()
}

pub fn builder() -> ArchiveBuilder {
    ArchiveBuilder::relative(REL_EB).chunk_elements(CHUNK_ELEMENTS)
}

/// The builder for `kind`, before `.threads()` / `.build()`.
pub fn builder_for(kind: Kind) -> ArchiveBuilder {
    match kind {
        Kind::Baseline => builder(),
        Kind::Crossfield => builder()
            .train_config(TrainConfig::fast())
            .plan_from(&scale_rows()),
        Kind::Temporal => builder().keyframe_interval(KEYFRAME_INTERVAL),
    }
}

/// Seeded inputs of one archive kind: one snapshot, or a series of epochs.
pub fn generate(kind: Kind, scale: Scale, seed: u64) -> Vec<Dataset> {
    let params = GenParams::default().with_seed(seed);
    match dims(kind, scale) {
        Dims::Snapshot([d, r, c]) => vec![cfc_datagen::scale::generate(Shape::d3(d, r, c), params)],
        Dims::Series { side, epochs } => {
            cfc_datagen::temporal::generate(Shape::d2(side, side), epochs, params)
        }
    }
}

/// One written archive with what the writer reported about it.
#[derive(Debug, Clone)]
pub struct Written {
    pub bytes: Vec<u8>,
    pub raw_bytes: usize,
    /// Per-field reports, epoch-major for a series.
    pub fields: Vec<FieldReport>,
}

impl Written {
    pub fn ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.bytes.len() as f64
    }

    pub fn blocks(&self) -> usize {
        self.fields.iter().map(|f| f.n_blocks).sum()
    }

    /// Payload bytes (blocks + meta) of the fields named in `names`.
    pub fn bytes_of(&self, names: &[&str]) -> usize {
        self.fields
            .iter()
            .filter(|f| names.contains(&f.name.as_str()))
            .map(|f| f.bytes)
            .sum()
    }
}

/// Write `snaps` with `writer` into an in-memory sink: `write_to` for a
/// snapshot, `write_epochs_to` for a series.
pub fn write(writer: &ArchiveWriter, snaps: &[Dataset]) -> Result<Written, String> {
    let mut bytes = Vec::new();
    if let [ds] = snaps {
        let report = writer.write_to(ds, &mut bytes).map_err(|e| e.to_string())?;
        Ok(Written {
            bytes,
            raw_bytes: report.raw_bytes,
            fields: report.fields,
        })
    } else {
        let report = writer
            .write_epochs_to(snaps, &mut bytes)
            .map_err(|e| e.to_string())?;
        Ok(Written {
            bytes,
            raw_bytes: report.raw_bytes,
            fields: report.epochs.into_iter().flat_map(|e| e.fields).collect(),
        })
    }
}

/// Decode everything: `decode_all` for a snapshot, `decode_epoch` over
/// every epoch for a series.
pub fn decode_everything(reader: &ArchiveReader<Vec<u8>>) -> Result<Vec<Dataset>, String> {
    if reader.n_epochs() == 1 {
        Ok(vec![reader.decode_all().map_err(|e| e.to_string())?])
    } else {
        (0..reader.n_epochs())
            .map(|e| reader.decode_epoch(e).map_err(|e| e.to_string()))
            .collect()
    }
}

/// A workload's archive: inputs, writer, bytes, and the exact metrics read
/// off it during the verification pass.
pub struct Archive {
    pub kind: Kind,
    pub snaps: Vec<Dataset>,
    pub writer: ArchiveWriter,
    pub written: Written,
    /// The verified `ArchiveReader` decode of `written`: what every read
    /// path's payloads are compared with, byte for byte.
    pub decoded: Vec<Dataset>,
    pub xf_gain: f64,
    pub psnr_db: f64,
    /// Wall time of this build's write: the default-threads rate the
    /// ladder's `writer.parallel_eff` is taken against.
    pub write_s: f64,
}

impl Archive {
    /// Generate, write, decode and verify: every decoded field is checked
    /// against the original within the bound the archive recorded for it.
    pub fn build(kind: Kind, scale: Scale, seed: u64, tally: &mut Tally) -> Result<Self, String> {
        let snaps = generate(kind, scale, seed);
        let writer = builder_for(kind).build();

        let t = Instant::now();
        let written = write(&writer, &snaps)?;
        let write_s = t.elapsed().as_secs_f64();

        let reader = ArchiveReader::open(written.bytes.clone()).map_err(|e| e.to_string())?;
        let decoded = decode_everything(&reader)?;

        let mut psnr_db = f64::INFINITY;
        let mut reports = written.fields.iter();
        for (e, (orig, dec)) in snaps.iter().zip(&decoded).enumerate() {
            for (name, field) in orig.iter() {
                let report = reports.next().ok_or("writer reported too few fields")?;
                let got = dec.field(name).filter(|g| g.shape() == field.shape());
                let err = got.map(|g| cfc_metrics::max_abs_error(field, g));
                tally.check(err.is_some_and(|e| e <= report.eb_abs), || {
                    format!(
                        "verify: field {name} epoch {e}: max error {err:?} vs bound {}",
                        report.eb_abs
                    )
                });
                if let Some(g) = got {
                    psnr_db = psnr_db.min(cfc_metrics::psnr(field, g));
                }
            }
        }

        // the paper's headline: the same target fields, baseline-coded
        let xf_gain = if kind == Kind::Crossfield {
            let baseline = write(&builder().build(), &snaps)?;
            baseline.bytes_of(&TARGETS) as f64 / written.bytes_of(&TARGETS) as f64
        } else {
            1.0
        };

        Ok(Archive {
            kind,
            snaps,
            writer,
            written,
            decoded,
            xf_gain,
            psnr_db,
            write_s,
        })
    }

    pub fn raw_mb(&self) -> f64 {
        self.written.raw_bytes as f64 / 1e6
    }

    pub fn shape(&self) -> Shape {
        self.snaps[0].shape()
    }

    /// A full-extent window `slabs` high along axis 0 at a seeded offset.
    pub fn window(&self, slabs: usize, rng: &mut Rng) -> Region {
        let shape = self.shape();
        let d = shape.dims();
        let h = slabs.min(d[0]);
        let r0 = rng.below(d[0] - h + 1);
        let mut ranges = vec![(r0, r0 + h)];
        ranges.extend(d[1..].iter().map(|&n| (0, n)));
        Region::from_ranges(&ranges)
    }

    /// A [`read_slabs`](Self::read_slabs)-high window at the start of a
    /// seeded block: a write cycle's few reads all touch exactly one block,
    /// so their latency has one mode (the read workloads, with hundreds of
    /// reads, use [`window`](Self::window) and stitch across blocks).
    pub fn block_window(&self, rng: &mut Rng) -> Region {
        let shape = self.shape();
        let d = shape.dims();
        let chunk = chunk_slabs(shape);
        let r0 = rng.below(d[0].div_ceil(chunk)) * chunk;
        let mut ranges = vec![(r0, (r0 + self.read_slabs()).min(d[0]))];
        ranges.extend(d[1..].iter().map(|&n| (0, n)));
        Region::from_ranges(&ranges)
    }

    /// Window height of this archive's region reads: 2 slabs of a SCALE
    /// volume, 32 rows of a 2-D series field.
    pub fn read_slabs(&self) -> usize {
        match self.kind {
            Kind::Temporal => 32,
            _ => 2,
        }
    }

    /// A chain-tail epoch (the deepest random access) for a series, 0 for
    /// a snapshot.
    pub fn read_epoch(&self, rng: &mut Rng) -> usize {
        let tails = self.snaps.len() / KEYFRAME_INTERVAL;
        if tails == 0 {
            0
        } else {
            rng.below(tails) * KEYFRAME_INTERVAL + KEYFRAME_INTERVAL - 1
        }
    }

    /// The share of a reference tick's slowdown that writing this archive
    /// suffers, as an exponent (`refclock::reference_s`). Measured, over ten
    /// runs a workload on a host whose ticks ran between 0.9 and 1.5 times
    /// nominal: every other operation the benchmark times slows down with
    /// the tick (decodes, region reads, requests, and the cross-field and
    /// temporal writes, which are CFNN training, inference and least-squares
    /// fits: held against the tick they spread by 1 to 6 %, by the wall by
    /// 14 to 47 %), but the plain block encoder slows by about 0.6 of it: at
    /// a tick of 1.5 the baseline write ran 1.27 times slower, and its rate
    /// spread by 13.8 % against the whole tick, 4.9 % at 0.6 and 12.9 % by
    /// the wall. Its LZ parse and Huffman build are chains of dependent
    /// loads; a busy sibling thread takes issue slots they were not using.
    pub fn write_exposure(&self) -> f64 {
        match self.kind {
            Kind::Baseline => 0.6,
            Kind::Crossfield | Kind::Temporal => 1.0,
        }
    }

    /// The region reads that end a write workload's cycle: the fields they
    /// visit in turn, the reads between two ticks, and how many such
    /// segments a cycle holds. Fields differ in decode cost, so reading one
    /// kind of field keeps read latency to one mode. A target read re-runs
    /// inference and takes 90 ms, so each is a segment of its own, four per
    /// target; a baseline read takes 2 ms, so four of one field share one.
    pub fn cycle_reads(&self) -> (&'static [&'static str], usize, usize) {
        match self.kind {
            Kind::Crossfield => (&TARGETS, 1, 8),
            Kind::Baseline => (&["T"], 4, 2),
            Kind::Temporal => (&["TS"], 4, 2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_bounded() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(7, 2);
        let xs: Vec<usize> = (0..64).map(|_| a.below(10)).collect();
        assert_eq!(xs, (0..64).map(|_| b.below(10)).collect::<Vec<_>>());
        assert_ne!(xs, (0..64).map(|_| c.below(10)).collect::<Vec<_>>());
        assert!(xs.iter().all(|&x| x < 10));
    }

    #[test]
    fn scale_blocks_are_four_slabs() {
        for kind in [Kind::Baseline, Kind::Crossfield] {
            let Dims::Snapshot([d, r, c]) = dims(kind, Scale::Full) else {
                panic!("snapshot kinds have snapshot dims")
            };
            assert_eq!(chunk_slabs(Shape::d3(d, r, c)), 4, "{kind:?}");
            assert_eq!(d % 4, 0, "whole blocks only");
        }
    }

    #[test]
    fn smoke_archives_build_and_verify() {
        let mut tally = Tally::default();
        for kind in [Kind::Baseline, Kind::Crossfield, Kind::Temporal] {
            let a = Archive::build(kind, Scale::Smoke, 3, &mut tally).unwrap();
            assert!(a.written.ratio() > 1.0 && a.psnr_db > 40.0);
            let mut rng = Rng::new(3, 0);
            let w = a.window(a.read_slabs(), &mut rng);
            assert_eq!(w.validate(a.shape()), Ok(()));
            let b = a.block_window(&mut rng);
            assert_eq!(b.validate(a.shape()), Ok(()));
            let chunk = chunk_slabs(a.shape());
            assert_eq!(b.start(0) % chunk, 0);
            assert_eq!(b.block_cover(chunk).0, b.block_cover(chunk).1);
            let e = a.read_epoch(&mut rng);
            assert!(e < a.snaps.len() && (a.kind != Kind::Temporal || e % 4 == 3));
        }
        assert!(
            tally.attempted > 0 && tally.failed == 0,
            "{:?}",
            tally.notes
        );
        // a failed check is counted and described
        tally.check(false, || "op 3 on serve_warm".into());
        assert_eq!((tally.failed, tally.notes.len()), (1, 1));
    }
}
