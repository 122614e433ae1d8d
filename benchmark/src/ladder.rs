//! The traced run: per-layer numbers, taken from the benchmark's own files
//! by timing calls into each layer's public functions.
//!
//! The program itself is not instrumented, so the inside of `write_to` or
//! `decode_region` is seen by *replay*: the benchmark performs the
//! writer's and reader's stages itself, each under its own span, on the
//! workload's real data (the real quantization codes of field T, the real
//! CFNN of target RH, a real delta epoch), and reports how much of the
//! measured call the replayed stages explain. End-to-end numbers never
//! come from here.

use std::collections::BTreeMap;
use std::fs::File;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cfc_core::archive::{ArchiveReader, ArchiveSource, ScrubOptions};
use cfc_core::config::CrossFieldConfig;
use cfc_core::hybrid::{HybridConfig, HybridModel};
use cfc_core::pipeline::CrossFieldCompressor;
use cfc_core::predict::predict_differences;
use cfc_core::predictor::{
    sample_hybrid_training, sample_temporal_training, TemporalHybridPredictor,
};
use cfc_core::train::{train_cfnn, TrainedCfnn};
use cfc_core::TrainConfig;
use cfc_serve::http::{self, ResponseHead};
use cfc_serve::{region_request_from_query, HttpClient};
use cfc_sz::compressor::{encode_codes_into, try_decode_codes_into};
use cfc_sz::huffman::HuffmanTable;
use cfc_sz::lossless::{self, LzScratch};
use cfc_sz::stream::{Container, SectionTag};
use cfc_sz::{
    codec, crc32, DecodeScratch, EncodeScratch, ErrorBound, LorenzoPredictor, PredictorKind,
    QuantLattice, QuantizerConfig, SzCompressor,
};
use cfc_tensor::{Field, FieldStats, Region};

use crate::host::nproc;
use crate::json::Reported;
use crate::spec::PER_LAYER;
use crate::stats::{median, tail_percentile};
use crate::trace::{self, Tracer};
use crate::workloads::{kind_of, region_query, ReadPath, Samples, World};
use crate::world::{
    builder, builder_for, chunk_slabs, output_dir, scale_rows, write, Archive, Kind, Rng, Scale,
    Tally, TempDir, REL_EB,
};
use crate::RunArgs;

/// Repeats a cheap stage is the median of.
const REPEATS: usize = 5;

/// Positional reads and bytes seen by a [`Counting`] source.
#[derive(Default)]
struct ReadCounts {
    reads: AtomicU64,
    bytes: AtomicU64,
}

/// An [`ArchiveSource`] that counts the positional reads made through it.
struct Counting<S> {
    inner: S,
    counts: Arc<ReadCounts>,
}

impl<S: ArchiveSource> ArchiveSource for Counting<S> {
    fn len(&self) -> std::io::Result<u64> {
        self.inner.len()
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        self.counts.reads.fetch_add(1, Ordering::Relaxed);
        self.counts
            .bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.inner.read_exact_at(offset, buf)
    }
}

/// Collects per-layer values and the spans they were timed under.
struct Ladder {
    tr: Tracer,
    out: BTreeMap<&'static str, f64>,
    seed: u64,
    /// Seconds a reduced window runs.
    mini_s: f64,
    /// The cross-field archive as a file, for the reader's rungs.
    xf_file: PathBuf,
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Table III's row for target RH, the target the ladder replays.
fn rh_row() -> Result<CrossFieldConfig, String> {
    scale_rows()
        .into_iter()
        .find(|r| r.target == "RH")
        .ok_or_else(|| "Table III has no SCALE/RH row".to_string())
}

/// Blocks of `field` along axis 0, as the archive writer cuts them.
fn blocks_of(field: &Field) -> Vec<Field> {
    let d0 = field.shape().dims()[0];
    let chunk = chunk_slabs(field.shape());
    (0..d0.div_ceil(chunk))
        .map(|b| field.slab(b * chunk, ((b + 1) * chunk).min(d0)))
        .collect()
}

impl Ladder {
    fn put(&mut self, name: &'static str, value: f64) {
        self.out.insert(name, value);
    }

    /// Seconds of one run of `f` under a span.
    fn once<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (f64, T) {
        let t = Instant::now();
        let v = self.tr.span(layer, name, f);
        (t.elapsed().as_secs_f64(), v)
    }

    /// Median seconds of `repeats` runs of `f`, each under a span.
    fn timed(
        &mut self,
        layer: &'static str,
        name: &'static str,
        repeats: usize,
        mut f: impl FnMut(),
    ) -> f64 {
        let runs: Vec<f64> = (0..repeats)
            .map(|_| self.once(layer, name, &mut f).0)
            .collect();
        median(&runs)
    }

    /// `sz`: every stage of the block codec on the real blocks of baseline
    /// field T. Returns seconds of one-thread compress and decompress per
    /// raw MB, for the replay of whole archives.
    fn sz(&mut self, base: &Archive) -> Result<(f64, f64), String> {
        let field = base.snaps[0].expect_field("T");
        let eb_user = ErrorBound::Relative(REL_EB)
            .try_resolve(&FieldStats::of(field))
            .map_err(err)?;
        let sz = SzCompressor {
            bound: ErrorBound::Absolute(eb_user),
            quantizer: QuantizerConfig::default(),
            predictor: PredictorKind::Lorenzo,
        };
        let slabs = blocks_of(field);
        let raw_mb = mb(field.len() * 4);

        // stage inputs, built once in the writer's order
        let mut codes = Vec::new();
        let mut outliers = 0usize;
        let mut payloads = Vec::new();
        let mut sections = Vec::new();
        let mut streams = Vec::new();
        for slab in &slabs {
            let stream = sz
                .compress_with(slab, &mut EncodeScratch::new())
                .map_err(err)?;
            let container = Container::try_from_bytes(&stream.bytes).map_err(err)?;
            let section = container
                .require_section(SectionTag::Residuals)
                .map_err(err)?
                .to_vec();
            let mut payload = Vec::new();
            let mut block_codes = Vec::new();
            try_decode_codes_into(&section, slab.len(), &mut payload, &mut block_codes)
                .map_err(err)?;
            outliers += stream.n_outliers;
            codes.push(block_codes);
            payloads.push(payload);
            sections.push(section);
            streams.push(stream.bytes);
        }
        let compressed: usize = streams.iter().map(Vec::len).sum();
        let payload_mb = mb(payloads.iter().map(Vec::len).sum());

        let quant = QuantizerConfig::default();
        let (mut deltas, mut q_codes, mut q_out) = (Vec::new(), Vec::new(), Vec::new());
        let s = self.timed("sz", "quantize", REPEATS, || {
            for slab in &slabs {
                let eb = sz
                    .bound
                    .try_resolve_quantization(&FieldStats::of(slab))
                    .expect("verified field");
                let lattice = QuantLattice::prequantize(slab, eb);
                codec::encode_residuals_into(&lattice, &LorenzoPredictor, &mut deltas);
                quant.encode_into(&deltas, lattice.as_slice(), &mut q_codes, &mut q_out);
            }
            std::hint::black_box(&q_codes);
        });
        self.put("sz.quantize_mb_s", raw_mb / s);

        let mut staged = Vec::new();
        let s = self.timed("sz", "huffman_encode", REPEATS, || {
            for c in &codes {
                staged.clear();
                let table = HuffmanTable::from_symbols(c);
                table.serialize_into(&mut staged);
                table
                    .try_encode_append(c, &mut staged)
                    .expect("table built from these symbols");
            }
            std::hint::black_box(&staged);
        });
        self.put("sz.huffman_encode_mb_s", raw_mb / s);

        let mut lz = LzScratch::new();
        let s = self.timed("sz", "lz_compress", REPEATS, || {
            for p in &payloads {
                std::hint::black_box(lossless::compress_with(p, &mut lz));
            }
        });
        self.put("sz.lz_compress_mb_s", payload_mb / s);

        let s = self.timed("sz", "codes_encode", REPEATS, || {
            for c in &codes {
                std::hint::black_box(encode_codes_into(c, &mut staged, &mut lz));
            }
        });
        self.put("sz.codes_encode_mb_s", raw_mb / s);

        let s = self.timed("sz", "crc32", REPEATS, || {
            for b in &streams {
                std::hint::black_box(crc32(b));
            }
        });
        self.put("sz.crc_mb_s", mb(compressed) / s);

        let mut enc = EncodeScratch::new();
        let compress_s = self.timed("sz", "compress_with", REPEATS, || {
            for slab in &slabs {
                std::hint::black_box(sz.compress_with(slab, &mut enc).expect("verified field"));
            }
        });
        self.put("sz.field_compress_mb_s", raw_mb / compress_s);

        let mut out = Vec::new();
        let s = self.timed("sz", "lz_decompress", REPEATS, || {
            for (section, p) in sections.iter().zip(&payloads) {
                lossless::try_decompress_bounded_into(section, p.len(), &mut out)
                    .expect("own stream");
            }
            std::hint::black_box(&out);
        });
        self.put("sz.lz_decompress_mb_s", payload_mb / s);

        let tables: Vec<(HuffmanTable, usize)> = payloads
            .iter()
            .map(|p| HuffmanTable::try_deserialize(p).map_err(err))
            .collect::<Result<_, _>>()?;
        let s = self.timed("sz", "huffman_decode", REPEATS, || {
            for ((table, used), (p, c)) in tables.iter().zip(payloads.iter().zip(&codes)) {
                std::hint::black_box(table.try_decode(&p[*used..], c.len()).expect("own stream"));
            }
        });
        self.put("sz.huffman_decode_mb_s", raw_mb / s);

        let mut decoded_codes = Vec::new();
        let s = self.timed("sz", "codes_decode", REPEATS, || {
            for (section, c) in sections.iter().zip(&codes) {
                try_decode_codes_into(section, c.len(), &mut out, &mut decoded_codes)
                    .expect("own stream");
            }
            std::hint::black_box(&decoded_codes);
        });
        self.put("sz.codes_decode_mb_s", raw_mb / s);

        let mut dec = DecodeScratch::new();
        let decompress_s = self.timed("sz", "decompress_with", REPEATS, || {
            for b in &streams {
                std::hint::black_box(sz.decompress_with(b, &mut dec).expect("own stream"));
            }
        });
        self.put("sz.field_decompress_mb_s", raw_mb / decompress_s);

        self.put(
            "sz.bits_per_sample",
            compressed as f64 * 8.0 / field.len() as f64,
        );
        self.put("sz.outlier_share", outliers as f64 / field.len() as f64);
        Ok((compress_s / raw_mb, decompress_s / raw_mb))
    }

    /// `nn` and `core`: the cross-field pipeline for target RH, stage by
    /// stage. Returns the trained model (the region section runs inference
    /// with it) and the seconds one target costs on the write and on the
    /// decode side.
    fn crossfield(&mut self, xf: &Archive) -> Result<(TrainedCfnn, f64, f64), String> {
        let ds = &xf.snaps[0];
        let row = rh_row()?;
        let target = ds.expect_field("RH");
        let anchors: Vec<&Field> = row.anchors.iter().map(|a| ds.expect_field(a)).collect();
        let raw_mb = mb(target.len() * 4);
        let cfc = CrossFieldCompressor::new(REL_EB);

        let (s, dec) = self.once("core", "roundtrip_anchor", || {
            anchors
                .iter()
                .map(|a| cfc.roundtrip_anchor(a))
                .collect::<Result<Vec<_>, _>>()
        });
        let anchors_dec = dec.map_err(err)?;
        let dec_refs: Vec<&Field> = anchors_dec.iter().collect();
        self.put("core.anchor_roundtrip_s", s);

        let (train_s, mut trained) = self.once("nn", "train_cfnn", || {
            train_cfnn(&row.spec, &TrainConfig::fast(), &anchors, target)
        });
        self.put("nn.train_s", train_s);
        self.put(
            "nn.train_final_loss",
            f64::from(*trained.report.losses.last().ok_or("no training epochs")?),
        );

        let (infer_s, diffs) = self.once("nn", "predict_differences", || {
            predict_differences(&mut trained, &dec_refs)
        });
        self.put("nn.infer_mb_s", raw_mb / infer_s);

        let eb = ErrorBound::Relative(REL_EB)
            .try_resolve_quantization(&FieldStats::of(target))
            .map_err(err)?;
        let lattice = QuantLattice::prequantize(target, eb);
        let dq: Vec<Vec<f64>> = diffs
            .iter()
            .map(|f| {
                f.as_slice()
                    .iter()
                    .map(|&v| f64::from(v) / (2.0 * eb))
                    .collect()
            })
            .collect();
        let cfg = HybridConfig::default();
        let (s, _) = self.once("core", "hybrid_fit", || {
            let (preds, targets) = sample_hybrid_training(&lattice, &dq, cfg.n_samples, cfg.seed);
            HybridModel::train(&preds, &targets, &cfg)
        });
        self.put("core.hybrid_fit_s", s);

        let (compress_s, stream) = self.once("core", "xf_compress", || {
            cfc.compress(&mut trained, target, &dec_refs)
        });
        let stream = stream.map_err(err)?;
        self.put("core.xf_compress_mb_s", raw_mb / compress_s);
        let (decompress_s, back) = self.once("core", "xf_decompress", || {
            cfc.decompress(&stream.bytes, &dec_refs)
        });
        let back = back.map_err(err)?;
        if cfc_metrics::max_abs_error(target, &back) > stream.eb_abs {
            return Err("replayed RH stream breaks its error bound".into());
        }
        self.put("core.xf_decompress_mb_s", raw_mb / decompress_s);

        // exact counts, from the archive the workload serves
        let baseline = write(&builder().build(), &xf.snaps)?;
        for (metric, name) in [("core.gain_rh", "RH"), ("core.gain_w", "W")] {
            self.put(
                metric,
                baseline.bytes_of(&[name]) as f64 / xf.written.bytes_of(&[name]) as f64,
            );
        }
        let reader = ArchiveReader::open(xf.written.bytes.clone()).map_err(err)?;
        let meta: usize = reader.entries().iter().map(|e| e.meta_len()).sum();
        self.put(
            "core.model_bytes_share",
            meta as f64 / xf.written.bytes.len() as f64,
        );
        Ok((trained, train_s + compress_s, decompress_s))
    }

    /// `predictor`, and the temporal rungs of `writer` / `reader`. Returns
    /// seconds per raw MB of one delta field-epoch encode.
    fn temporal(&mut self, temp: &Archive) -> Result<f64, String> {
        let name = "TS";
        let cur = temp.snaps[1].expect_field(name);
        let prev = temp.decoded[0].expect_field(name);
        let raw_mb = mb(cur.len() * 4);
        let stats = FieldStats::of(cur);
        let bound = ErrorBound::Absolute(
            ErrorBound::Relative(REL_EB)
                .try_resolve(&stats)
                .map_err(err)?,
        );
        let sz = SzCompressor {
            bound,
            quantizer: QuantizerConfig::default(),
            predictor: PredictorKind::Lorenzo,
        };
        let cfg = HybridConfig::default();
        let cur_slabs = blocks_of(cur);
        let prev_slabs = blocks_of(prev);

        // the writer's delta encode of one field: one hybrid fit, then
        // every block under the temporal predictor
        let mut scratch = EncodeScratch::new();
        let mut encoded = Vec::new();
        let (encode_s, fit) =
            self.once("predictor", "temporal_encode", || -> Result<(), String> {
                let eb_fit = bound.try_resolve_quantization(&stats).map_err(err)?;
                let lattice_fit = QuantLattice::prequantize(cur, eb_fit);
                let pq: Vec<f64> = prev
                    .as_slice()
                    .iter()
                    .map(|&v| f64::from(v) / (2.0 * eb_fit))
                    .collect();
                let (preds, targets) =
                    sample_temporal_training(&lattice_fit, &pq, cfg.n_samples, cfg.seed);
                let hybrid = HybridModel::fit_least_squares(&preds, &targets);
                for (slab, prev_slab) in cur_slabs.iter().zip(&prev_slabs) {
                    let eb = bound
                        .try_resolve_quantization(&FieldStats::of(slab))
                        .map_err(err)?;
                    let lattice = QuantLattice::prequantize(slab, eb);
                    let predictor = TemporalHybridPredictor::new(prev_slab, eb, hybrid.clone());
                    let (container, _) =
                        sz.compress_lattice_with(&lattice, &predictor, eb, &mut scratch);
                    encoded.push((container, predictor, lattice));
                }
                Ok(())
            });
        fit?;
        self.put("predictor.temporal_encode_mb_s", raw_mb / encode_s);

        let mut dec = DecodeScratch::new();
        let (decode_s, ok) = self.once("predictor", "temporal_decode", || {
            encoded.iter().all(|(container, predictor, lattice)| {
                sz.decompress_lattice_with(container, predictor, &mut dec)
                    .is_ok_and(|l| l.as_slice() == lattice.as_slice())
            })
        });
        if !ok {
            return Err("replayed delta epoch does not decode to its lattice".into());
        }
        self.put("predictor.temporal_decode_mb_s", raw_mb / decode_s);

        // same-run control: what the series costs with no delta chain
        let chain = builder_for(Kind::Temporal).build();
        let allkey = builder_for(Kind::Temporal).keyframe_interval(1).build();
        let chain_s = self.timed("writer", "write_epochs", 3, || {
            std::hint::black_box(write(&chain, &temp.snaps).expect("verified series"));
        });
        let allkey_s = self.timed("writer", "write_epochs_allkey", 3, || {
            std::hint::black_box(write(&allkey, &temp.snaps).expect("verified series"));
        });
        self.put("writer.temporal_allkey_mb_s", temp.raw_mb() / allkey_s);
        self.put("writer.delta_cost_x", chain_s / allkey_s);

        let reader = ArchiveReader::open(temp.written.bytes.clone()).map_err(err)?;
        for (metric, epoch) in [
            ("reader.epoch_decode_key_ms", 0),
            ("reader.epoch_decode_tail_ms", 3),
        ] {
            let s = self.timed("reader", "decode_epoch", 3, || {
                std::hint::black_box(reader.decode_epoch(epoch).expect("verified archive"));
            });
            self.put(metric, s * 1e3);
        }
        Ok(encode_s / raw_mb)
    }

    /// One-thread `writer` / `reader` rungs on the selected workload's
    /// archive kind, and the reader's fixed costs on the cross-field file.
    /// Returns the one-thread (write, decode) seconds.
    fn writer_reader(&mut self, a: &Archive) -> Result<(f64, f64), String> {
        // the replay shares divide by these two one-thread timings: the
        // median of three where an op is cheap, one where it takes seconds
        let repeats = if a.kind == Kind::Crossfield { 1 } else { 3 };
        let one = builder_for(a.kind).threads(1).build();
        let write_1t = self.timed("writer", "write_1t", repeats, || {
            std::hint::black_box(write(&one, &a.snaps).expect("verified archive"));
        });
        let rate_1t = a.raw_mb() / write_1t;
        self.put("writer.write_1t_mb_s", rate_1t);
        self.put(
            "writer.parallel_eff",
            (a.raw_mb() / a.write_s) / (nproc() as f64 * rate_1t),
        );
        self.put("writer.blocks", a.written.blocks() as f64);
        self.put("writer.bytes_out", a.written.bytes.len() as f64);

        // decode_all covers epoch 0; a series' later epochs are timed by
        // the temporal section
        let reader = ArchiveReader::open(a.written.bytes.clone()).map_err(err)?;
        let epoch_mb = a.raw_mb() / a.snaps.len() as f64;
        let decode_1t = self.timed("reader", "decode_all_1t", repeats, || {
            std::hint::black_box(reader.decode_all_with_threads(1).expect("verified archive"));
        });
        let decode_nt = self.timed("reader", "decode_all", repeats, || {
            std::hint::black_box(reader.decode_all().expect("verified archive"));
        });
        self.put("reader.decode_all_1t_mb_s", epoch_mb / decode_1t);
        self.put(
            "reader.parallel_eff",
            (epoch_mb / decode_nt) / (nproc() as f64 * epoch_mb / decode_1t),
        );

        let path = self.xf_file.clone();
        let s = self.timed("reader", "open", 50, || {
            std::hint::black_box(
                ArchiveReader::open(File::open(&path).expect("just written")).expect("verified"),
            );
        });
        self.put("reader.open_us", s * 1e6);
        let on_file = ArchiveReader::open(File::open(&path).map_err(err)?).map_err(err)?;
        for (metric, field, repeats) in [
            ("reader.block_decode_ms", "T", REPEATS),
            ("reader.block_decode_xf_ms", "RH", 3),
        ] {
            let s = self.timed("reader", "decode_block", repeats, || {
                std::hint::black_box(on_file.decode_block(field, 0).expect("verified archive"));
            });
            self.put(metric, s * 1e3);
        }
        Ok((write_1t, decode_1t))
    }

    /// `reader` on the cold path: what one target region read costs and
    /// where it goes.
    fn region(
        &mut self,
        cold: &World,
        trained: &mut TrainedCfnn,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let xf = &cold.archive;
        let (samples, _) = cold.window(self.mini_s, self.seed, false, tally)?;
        self.put(
            "reader.region_p90_ms",
            tail_percentile(&samples.read_ms, 0.90).1,
        );
        let counts = Arc::new(ReadCounts::default());
        let reader = ArchiveReader::open(Counting {
            inner: File::open(&self.xf_file).map_err(err)?,
            counts: counts.clone(),
        })
        .map_err(err)?;
        let row = rh_row()?;

        // a block-aligned window, so the exact counters do not depend on
        // where the seed put it
        let dims = xf.shape();
        let dims = dims.dims();
        let window = Region::d3(0, 2, 0, dims[1], 0, dims[2]);
        let chunk = chunk_slabs(xf.shape());
        let (b0, b1) = window.block_cover(chunk);
        let anchor_blocks: Vec<Vec<Field>> = (b0..=b1)
            .map(|b| {
                row.anchors
                    .iter()
                    .map(|a| {
                        xf.decoded[0]
                            .expect_field(a)
                            .slab(b * chunk, ((b + 1) * chunk).min(dims[0]))
                    })
                    .collect()
            })
            .collect();

        let (mut target_s, mut anchors_s, mut infer_s) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..3 {
            let (r0, y0) = (
                counts.reads.load(Ordering::Relaxed),
                counts.bytes.load(Ordering::Relaxed),
            );
            let (s, got) = self.once("reader", "decode_region_target", || {
                reader.decode_region("RH", &window)
            });
            got.map_err(err)?;
            target_s.push(s);
            self.put(
                "reader.source_reads_per_region",
                (counts.reads.load(Ordering::Relaxed) - r0) as f64,
            );
            self.put(
                "reader.source_bytes_per_region",
                (counts.bytes.load(Ordering::Relaxed) - y0) as f64,
            );
            let (s, ok) = self.once("reader", "decode_region_anchors", || {
                row.anchors
                    .iter()
                    .all(|a| reader.decode_region(a, &window).is_ok())
            });
            if !ok {
                return Err("anchor region read failed".into());
            }
            anchors_s.push(s);
            let (s, _) = self.once("nn", "predict_differences_blocks", || {
                for slabs in &anchor_blocks {
                    let refs: Vec<&Field> = slabs.iter().collect();
                    std::hint::black_box(predict_differences(trained, &refs));
                }
            });
            infer_s.push(s);
        }
        let (t, a, i) = (median(&target_s), median(&anchors_s), median(&infer_s));
        self.put("reader.anchor_share", a / t);
        self.put("reader.infer_share", i / t);
        Ok(())
    }

    /// `store` under pressure: counters over a reduced window. Returns the
    /// mean read seconds, the misses per read and a window's MB.
    fn store(&mut self, pressured: &World, tally: &mut Tally) -> Result<(f64, f64, f64), String> {
        let (samples, _) = pressured.window(self.mini_s, self.seed, false, tally)?;
        let (before, after) = samples.store.ok_or("store window returned no counters")?;
        let d = |f: fn(&cfc_core::StoreStats) -> u64| (f(&after) - f(&before)) as f64;
        let (hits, misses) = (d(|s| s.hits), d(|s| s.misses));
        let reads = samples.ops as f64;
        let share = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        self.put("store.hit_rate", share(hits, hits + misses));
        self.put("store.tier2_hit_share", share(d(|s| s.tier2_hits), misses));
        self.put("store.evictions_per_read", d(|s| s.evictions) / reads);
        self.put(
            "store.prefetch_useful_share",
            share(d(|s| s.prefetch_hits), d(|s| s.prefetched_blocks)),
        );
        self.put("store.coalesced", d(|s| s.coalesced));
        self.put(
            "store.read_p90_ms",
            tail_percentile(&samples.read_ms, 0.90).1,
        );
        self.put(
            "store.read_p99_ms",
            tail_percentile(&samples.read_ms, 0.99).1,
        );
        let mean_s = samples.read_ms.iter().sum::<f64>() / reads / 1e3;
        let window = pressured
            .archive
            .window(pressured.read_slabs(), &mut Rng::new(self.seed, 0));
        Ok((mean_s, misses / reads, mb(window.len() * 4)))
    }

    /// `serve`, the warm `store` hit path and `tensor`: a reduced request
    /// window plus each stage of one request on its own. Returns the HTTP
    /// median and the replayed stages' total, in seconds.
    fn serve(&mut self, warm: &World, tally: &mut Tally) -> Result<(f64, f64), String> {
        let ReadPath::Serve(server) = &warm.path else {
            return Err("serve section needs the serve world".into());
        };
        let (samples, _) = warm.window(self.mini_s, self.seed, false, tally)?;
        let http_p50_ms = median(&samples.read_ms);
        self.put(
            "serve.request_p90_ms",
            tail_percentile(&samples.read_ms, 0.90).1,
        );
        self.put(
            "serve.request_p99_ms",
            tail_percentile(&samples.read_ms, 0.99).1,
        );
        let (before, after) = samples.server.ok_or("serve window returned no counters")?;
        self.put(
            "serve.rejected",
            ((after.errors - before.errors)
                + (after.rejected_saturated - before.rejected_saturated)) as f64,
        );

        // the stages of one request, on the windows the generators used
        let fields = warm.read_fields();
        let mut rng = Rng::new(self.seed, 0x5E);
        let windows: Vec<(String, Region)> = (0..512)
            .map(|_| {
                (
                    fields[rng.below(fields.len())].clone(),
                    warm.archive.window(warm.read_slabs(), &mut rng),
                )
            })
            .collect();
        let per_call = |total_s: f64| total_s / windows.len() as f64;

        let store = server.store();
        let hit_s = per_call(self.timed("store", "warm_hit", REPEATS, || {
            for (f, w) in &windows {
                std::hint::black_box(store.decode_region(f, w).expect("warm store"));
            }
        }));
        self.put("store.warm_hit_us", hit_s * 1e6);
        self.put("serve.overhead_x", http_p50_ms / 1e3 / hit_s);

        let queries: Vec<String> = windows.iter().map(|(_, w)| region_query(w)).collect();
        let requests: Vec<Vec<u8>> = windows
            .iter()
            .zip(&queries)
            .map(|((f, _), q)| {
                format!("GET /field/{f}/region?{q} HTTP/1.1\r\nHost: cfc-serve\r\nConnection: keep-alive\r\n\r\n")
                    .into_bytes()
            })
            .collect();
        let parse_s = per_call(self.timed("serve", "read_request", REPEATS, || {
            for r in &requests {
                std::hint::black_box(http::read_request(&mut r.as_slice()).expect("own request"));
            }
        }));
        self.put("serve.parse_us", parse_s * 1e6);
        let query_s = per_call(
            self.timed("serve", "region_request_from_query", REPEATS, || {
                for q in &queries {
                    std::hint::black_box(region_request_from_query(q).expect("own query"));
                }
            }),
        );
        self.put("serve.query_parse_us", query_s * 1e6);

        // one real frame body, fetched over the wire
        let mut client = HttpClient::connect(server.local_addr()).map_err(err)?;
        let (f0, w0) = &windows[0];
        let target = format!("/field/{f0}/region?{}", queries[0]);
        let body = client.get(&target).map_err(err)?.body;
        let mut sink = Vec::with_capacity(body.len() + 256);
        let write_s = self.timed("serve", "write_response", 200, || {
            sink.clear();
            http::write_response(&mut sink, ResponseHead::frame(), &body, true).expect("Vec sink");
            std::hint::black_box(&sink);
        });
        self.put("serve.write_response_mb_s", mb(body.len()) / write_s);
        let stats_s = self.timed("serve", "get_stats", 20, || {
            std::hint::black_box(client.get("/stats").expect("stats endpoint"));
        });
        self.put("serve.stats_ms", stats_s * 1e3);

        // what a hit costs below the store: stitch two blocks, cut a window
        // (a smoke-sized field is one short block: halve it)
        let field = warm.archive.decoded[0].expect_field(f0);
        let d0 = field.shape().dims()[0];
        let chunk = chunk_slabs(field.shape()).min(d0 / 2).max(1);
        let (a, b) = (field.slab(0, chunk), field.slab(chunk, 2 * chunk));
        let local = w0.rebase_axis0(w0.start(0) - w0.start(0) % chunk);
        let crop_s = self.timed("tensor", "concat_crop", 200, || {
            std::hint::black_box(Field::concat_axis0_refs(&[&a, &b]).crop(&local));
        });
        self.put("tensor.crop_mb_s", mb(w0.len() * 4) / crop_s);
        Ok((http_p50_ms / 1e3, parse_s + query_s + hit_s + write_s))
    }

    /// `scrub`: light (CRC) and deep (full decode) passes over the
    /// baseline archive.
    fn scrub(&mut self, base: &Archive, tally: &mut Tally) {
        for (metric, deep) in [("scrub.light_mb_s", false), ("scrub.deep_mb_s", true)] {
            let mut clean = true;
            let s = self.timed(
                "scrub",
                if deep { "scrub_deep" } else { "scrub_light" },
                3,
                || {
                    clean &=
                        cfc_core::archive::scrub_bytes(&base.written.bytes, &ScrubOptions { deep })
                            .is_clean();
                },
            );
            tally.check(clean, || {
                format!("scrub (deep: {deep}) reports damage in a fresh archive")
            });
            self.put(metric, mb(base.written.bytes.len()) / s);
        }
    }
}

/// Operations per second of a window.
fn rate(s: &Samples) -> f64 {
    s.ops as f64 / s.busy_s
}

/// The traced run of one workload: every per-layer metric.
pub fn per_layer(args: &RunArgs, tally: &mut Tally) -> Result<Vec<Reported>, String> {
    // the contract wants every per-layer metric from every traced run, so
    // every run builds all three archives and climbs the whole ladder; only
    // the reduced windows and the replay shares are the selected workload's
    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let build =
        |kind: Kind, tally: &mut Tally| Archive::build(kind, scale, args.seed, tally).map(Arc::new);
    let base = build(Kind::Baseline, tally)?;
    let xf = build(Kind::Crossfield, tally)?;
    let temp = build(Kind::Temporal, tally)?;
    let own = match kind_of(args.workload) {
        Kind::Baseline => &base,
        Kind::Crossfield => &xf,
        Kind::Temporal => &temp,
    };

    let dir = TempDir::create().map_err(err)?;
    let mut l = Ladder {
        tr: Tracer::new(true, Instant::now()),
        out: BTreeMap::new(),
        seed: args.seed,
        mini_s: args.seconds / 8.0,
        xf_file: dir.path().join("crossfield.cfar"),
    };
    std::fs::write(&l.xf_file, &xf.written.bytes).map_err(err)?;

    // the selected workload at a reduced op count: once untraced, once
    // with a span around every call it makes into a layer
    let mut world = World::over(args.workload, own.clone(), args.seed, tally)?;
    world.min_cycles = 1;
    let (plain, _) = world.window(l.mini_s, args.seed, false, tally)?;
    let (traced, generators) = world.window(l.mini_s, args.seed, true, tally)?;
    l.put(
        "trace.overhead_share",
        (rate(&plain) - rate(&traced)) / rate(&plain),
    );
    let ticks: Vec<f64> = plain
        .slowdown
        .iter()
        .chain(&traced.slowdown)
        .copied()
        .collect();
    l.put("host.slowdown_x", median(&ticks));
    drop(world);

    let (sz_enc, sz_dec) = l.sz(&base)?;
    let (mut trained, target_write_s, target_decode_s) = l.crossfield(&xf)?;
    let delta_enc = l.temporal(&temp)?;
    let (write_1t, decode_1t) = l.writer_reader(own)?;
    let cold = World::over("region_cold", xf.clone(), args.seed, tally)?;
    l.region(&cold, &mut trained, tally)?;
    drop(cold);
    let pressured = World::over("store_pressure", base.clone(), args.seed, tally)?;
    let (store_read_s, misses_per_read, window_mb) = l.store(&pressured, tally)?;
    drop(pressured);
    let warm = World::over("serve_warm", base.clone(), args.seed, tally)?;
    let (http_s, http_replayed_s) = l.serve(&warm, tally)?;
    drop(warm);
    l.scrub(&base, tally);

    // how much of the selected workload's real call the replay explains:
    // (sz, nn + core, other) stage seconds over the measured op seconds
    let fields_mb = |a: &Archive, names: &[&str]| mb(names.len() * a.shape().len() * 4);
    let (sz_s, nn_core_s, other_s, op_s) = match args.workload {
        "snapshot_baseline" => {
            // every field goes through the block codec once each way
            (
                base.raw_mb() * (sz_enc + sz_dec),
                0.0,
                0.0,
                write_1t + decode_1t,
            )
        }
        "snapshot_crossfield" => {
            // anchors round-trip on write and decode again on read; RH's
            // stages stand for each target
            let anchors_mb = fields_mb(&xf, &crate::world::ANCHORS);
            let targets = crate::world::TARGETS.len() as f64;
            (
                anchors_mb * (sz_enc + 2.0 * sz_dec),
                targets * (target_write_s + target_decode_s),
                0.0,
                write_1t + decode_1t,
            )
        }
        "temporal_series" => {
            // the one-thread decode covers epoch 0 only, so the op is the
            // one-thread write plus that keyframe decode: keyframes are
            // compressed and mirrored back for the delta that follows,
            // every other epoch goes through the temporal predictor
            let epochs = temp.snaps.len();
            let keys = epochs.div_ceil(crate::world::KEYFRAME_INTERVAL);
            let epoch_mb = temp.raw_mb() / epochs as f64;
            (
                epoch_mb * (keys as f64 * (sz_enc + sz_dec) + sz_dec),
                epoch_mb * (epochs - keys) as f64 * delta_enc,
                0.0,
                write_1t + decode_1t,
            )
        }
        "store_pressure" => {
            // a miss re-decodes one block from tier-2 bytes; a read also
            // stitches and crops its window
            let shape = base.shape();
            let block_mb = mb(chunk_slabs(shape) * shape.len() / shape.dims()[0] * 4);
            let crop_s = window_mb / l.out["tensor.crop_mb_s"];
            (
                misses_per_read * block_mb * sz_dec,
                0.0,
                crop_s,
                store_read_s,
            )
        }
        _ => (0.0, 0.0, http_replayed_s, http_s),
    };
    l.put("trace.share_sz", sz_s / op_s);
    l.put("trace.share_nn_core", nn_core_s / op_s);
    l.put("trace.share_other", other_s / op_s);
    l.put("trace.replay_coverage", (sz_s + nn_core_s + other_s) / op_s);

    // spans leave memory once, when the run ends
    let mut all: Vec<&Tracer> = generators.iter().collect();
    all.push(&l.tr);
    std::fs::create_dir_all(output_dir()).map_err(err)?;
    let path = output_dir().join(format!("trace-{}-{}.json", args.workload, args.seed));
    std::fs::write(&path, trace::to_json(args.workload, args.seed, &all)).map_err(err)?;
    eprintln!(
        "{}: {} spans written to {}; self time by layer (s): {:?}; traced window {} ops vs {} untraced",
        args.workload,
        all.iter().map(|t| t.spans().len()).sum::<usize>(),
        path.display(),
        l.tr.self_time_by_layer(),
        traced.ops,
        plain.ops
    );

    PER_LAYER
        .iter()
        .map(|m| {
            l.out
                .get(m.name)
                .map(|&value| Reported {
                    name: m.name,
                    value,
                    unit: m.unit,
                })
                .ok_or(format!("the ladder did not measure {}", m.name))
        })
        .collect()
}
