//! The benchmark's vocabulary: every workload and metric by name, with
//! unit, direction, bound and definition. `list` prints these tables and a
//! unit test holds `BENCHMARK.json` to them.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One workload: its name, why it exists, and how it is driven.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line, as recorded in `BENCHMARK.json`.
    pub why: &'static str,
    /// Inputs relative to the caches that matter, generators, loop type.
    pub detail: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "snapshot_baseline",
        why: "no cross-field plan: sz does nearly all the work and nn none, so entropy/LZ/quantizer changes show here and nowhere else",
        detail: "SCALE analogue 48x128x128, 7 fields (22 MB raw, 2.7x the two cores' 4 MiB L2s, so every cycle streams from the host's shared 260 MiB L3, which no volume inside the time cap exceeds), 84 blocks of 4 slabs. One generator, closed loop: cycles of write_to -> decode_all -> two segments of four 2-slab region reads of field T, a tick of the reference clock after each.",
    },
    WorkloadSpec {
        name: "snapshot_crossfield",
        why: "the paper's pipeline (RH<-T,QV,PRES; W<-U,V,PRES): CFNN training+inference and the hybrid fit dominate write, decode and every uncached target read",
        detail: "SCALE analogue 24x128x128, 7 fields (11 MB raw: the smallest volume at which the plan pays, xf_gain 1.05 against 1.004 at 12 slabs and 1.053 at 32x160x160; CFNN inference at 1.5 us per target sample and core prices every slab), 42 blocks, paper_table3() SCALE rows, TrainConfig::fast(). One generator, closed loop: cycles of write_to -> decode_all -> eight uncached ArchiveReader::decode_region reads of 2-slab target windows (RH, W in turn; each re-parses meta, re-decodes its anchor blocks and re-runs inference), a tick after each.",
    },
    WorkloadSpec {
        name: "temporal_series",
        why: "16-epoch v3 delta chain without CFNN cost: isolates the temporal predictor and the writer's serial per-epoch chain",
        detail: "datagen::temporal 256x256, 4 fields, 16 epochs (16.8 MB raw, one block per field and epoch), keyframe_interval(4), no cross-field plan. One generator, closed loop: cycles of write_epochs_to -> decode_epoch(0..16) -> two segments of four 32-row region reads of field TS at chain-tail epochs (3, 7, 11, 15), a tick after each.",
    },
    WorkloadSpec {
        name: "store_pressure",
        why: "ArchiveStore with tier 1 at a quarter of the working set: misses, tier-2 promotions, evictions, single-flight and prefetch all run",
        detail: "the snapshot_baseline archive as a file (these reads never reach a target); ArchiveStore<File> with tier 1 = 25 % of the decoded bytes of the five fields read (3.9 MB for a 15.7 MB working set: 15 of 60 blocks), tier 2 = 64 MiB (holds every compressed block), default prefetch. min(2, nproc) threads in step, closed loop, 2-slab windows uniform over PRES, T, QV, U, V, in segments of 0.1 s between ticks, for 70 % of the run; the rest rebuilds the archive (write_to -> decode_all).",
    },
    WorkloadSpec {
        name: "serve_warm",
        why: "working set fits the cache behind ArchiveServer: HTTP parse, frame assembly, socket writes and the store hit path are all the work",
        detail: "the snapshot_baseline archive behind ArchiveServer (default StoreConfig: 256 MiB tier 1 vs 22 MB decoded, ServeConfig::with_threads(nproc)); every field warmed by a whole-field request. min(2, nproc) keep-alive HttpClients in step, closed loop, 1-slab (65 KB) windows uniform over all 7 fields, in segments of 0.1 s between ticks, for 70 % of the run; the rest rebuilds the archive.",
    },
];

/// One metric: name, unit, direction and what it measures. `bound` is the
/// share of the parent's median by which an end-to-end metric may worsen
/// (per-layer metrics carry none).
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload with tracing off.
/// Throughputs are MB (1e6 bytes) of raw `f32` samples per reference second
/// (see `refclock`): a wall second on the undisturbed host.
pub const END_TO_END: [MetricSpec; 9] = [
    e2e("setup_s", "s", Lower, 0.25, "median over 2 set-ups of everything before the timed window: data generation, archive build, verification pass, file write, store/server start, cache warm-up; reference seconds against the pool-wide ticks before and after each set-up"),
    e2e("write_mb_s", "MB/s", Higher, 0.25, "ArchiveWriter::write_to / write_epochs_to into an in-memory sink, default threads, raw MB per reference second (the plain block encoder of the baseline archive at exposure 0.6, see Archive::write_exposure): median over the timed cycles on the write workloads; on the read workloads over the write -> decode cycles that fill the last 30 % of the run"),
    e2e("decode_mb_s", "MB/s", Higher, 0.25, "ArchiveReader::decode_all (snapshots) or decode_epoch summed over every epoch (temporal); median over the same cycles"),
    e2e("ratio", "x", Higher, 0.05, "raw bytes / archive bytes of the workload's archive, container overhead and embedded models included; same seed gives the same bytes"),
    e2e("xf_gain", "x", Higher, 0.05, "bytes of the paper's target fields in a baseline-only archive / their bytes (blocks + model meta) in the workload's archive; exactly 1 where no cross-field plan is set"),
    e2e("psnr_db", "dB", Higher, 0.01, "cfc_metrics PSNR of decoded vs original, minimum over fields (and epochs), so a ratio bought with more of the error budget shows"),
    e2e("read_p50_ms", "ms", Lower, 0.25, "median latency of one region read within a segment (the reads between two ticks), in reference ms, median over the segments: through the workload's read path on the read workloads; uncached ArchiveReader::decode_region on the archive just written on the write workloads"),
    e2e("read_mb_s", "MB/s", Higher, 0.25, "decoded region payload delivered per reference second while reading, all generators: generators / median over the segments of a generator's seconds per MB"),
    e2e("peak_rss_mb", "MB", Lower, 0.25, "VmHWM of the workload's process, one process per workload"),
];

/// Per-layer metrics, reported by every workload with tracing on. The
/// prefix is the layer (module) measured.
pub const PER_LAYER: [MetricSpec; 67] = [
    layer("sz.quantize_mb_s", "MB/s", Higher, "QuantLattice::prequantize + codec::encode_residuals_into + QuantizerConfig::encode_into on the blocks of baseline field T"),
    layer("sz.huffman_encode_mb_s", "MB/s", Higher, "HuffmanTable::from_symbols + try_encode_append on T's real quantization codes"),
    layer("sz.lz_compress_mb_s", "MB/s", Higher, "lossless::compress_with on T's real Huffman payloads (MB of payload)"),
    layer("sz.codes_encode_mb_s", "MB/s", Higher, "compressor::encode_codes_into (Huffman + LZ) on T's codes"),
    layer("sz.crc_mb_s", "MB/s", Higher, "crc32 over T's encoded blocks (MB of compressed bytes)"),
    layer("sz.field_compress_mb_s", "MB/s", Higher, "SzCompressor::compress_with over T's blocks, one thread"),
    layer("sz.huffman_decode_mb_s", "MB/s", Higher, "HuffmanTable::try_decode on T's bitstreams"),
    layer("sz.lz_decompress_mb_s", "MB/s", Higher, "lossless::try_decompress_bounded_into on T's residual sections (MB of payload out)"),
    layer("sz.codes_decode_mb_s", "MB/s", Higher, "compressor::try_decode_codes_into on T's residual sections"),
    layer("sz.field_decompress_mb_s", "MB/s", Higher, "SzCompressor::decompress_with over T's blocks, one thread"),
    layer("sz.bits_per_sample", "bit", Lower, "encoded bits per sample of T (exact)"),
    layer("sz.outlier_share", "fraction", Lower, "escaped samples / samples of T (exact)"),
    layer("nn.train_s", "s", Lower, "core::train::train_cfnn for RH, TrainConfig::fast()"),
    layer("nn.train_final_loss", "mse", Lower, "last epoch's training loss for RH (exact)"),
    layer("nn.infer_mb_s", "MB/s", Higher, "core::predict::predict_differences over the whole RH target"),
    layer("core.hybrid_fit_s", "s", Lower, "sample_hybrid_training + HybridModel::train for RH"),
    layer("core.anchor_roundtrip_s", "s", Lower, "CrossFieldCompressor::roundtrip_anchor over RH's three anchors"),
    layer("core.xf_compress_mb_s", "MB/s", Higher, "CrossFieldCompressor::compress of RH"),
    layer("core.xf_decompress_mb_s", "MB/s", Higher, "CrossFieldCompressor::decompress of RH"),
    layer("core.gain_rh", "x", Higher, "RH bytes baseline-only / cross-field, from ArchiveReport (exact)"),
    layer("core.gain_w", "x", Higher, "W bytes baseline-only / cross-field, from ArchiveReport (exact)"),
    layer("core.model_bytes_share", "fraction", Lower, "embedded model + hybrid meta bytes / cross-field archive bytes (exact)"),
    layer("predictor.temporal_encode_mb_s", "MB/s", Higher, "SzCompressor::compress_lattice_with under TemporalHybridPredictor (incl. sample_temporal_training fit) on one delta epoch of TS"),
    layer("predictor.temporal_decode_mb_s", "MB/s", Higher, "SzCompressor::decompress_lattice_with under TemporalHybridPredictor on the same epoch"),
    layer("writer.temporal_allkey_mb_s", "MB/s", Higher, "same-run control: write_epochs_to with keyframe_interval(1)"),
    layer("writer.delta_cost_x", "x", Lower, "time of the keyframe_interval(4) write / time of the all-keyframe control"),
    layer("writer.write_1t_mb_s", "MB/s", Higher, "ArchiveBuilder::threads(1) write of the workload's archive kind"),
    layer("writer.parallel_eff", "fraction", Higher, "default-threads write rate / (nproc x one-thread rate)"),
    layer("writer.blocks", "count", Higher, "blocks in the archive (exact)"),
    layer("writer.bytes_out", "B", Lower, "archive bytes (exact)"),
    layer("reader.epoch_decode_key_ms", "ms", Lower, "decode_epoch(0), a keyframe"),
    layer("reader.epoch_decode_tail_ms", "ms", Lower, "decode_epoch(3), the end of a delta chain"),
    layer("reader.decode_all_1t_mb_s", "MB/s", Higher, "decode_all_with_threads(1)"),
    layer("reader.parallel_eff", "fraction", Higher, "default-threads decode rate / (nproc x one-thread rate)"),
    layer("reader.open_us", "us", Lower, "ArchiveReader::open on the archive file"),
    layer("reader.block_decode_ms", "ms", Lower, "decode_block of a baseline (anchor) block"),
    layer("reader.block_decode_xf_ms", "ms", Lower, "decode_block of a cross-field target block"),
    layer("reader.region_p90_ms", "ms", Lower, "p90 of uncached ArchiveReader<File> reads of 2-slab target windows at seeded offsets (highest percentile with 10 samples beyond it)"),
    layer("reader.source_reads_per_region", "count", Lower, "positional reads one target region issues, via a counting ArchiveSource (exact)"),
    layer("reader.source_bytes_per_region", "B", Lower, "bytes those reads fetch (exact)"),
    layer("reader.anchor_share", "fraction", Lower, "time to decode_region each anchor over the window / time of the target read"),
    layer("reader.infer_share", "fraction", Lower, "time of predict_differences on the covering anchor blocks / time of the target read"),
    layer("store.hit_rate", "fraction", Higher, "tier-1 hit rate over the store_pressure window (ArchiveStore::snapshot deltas)"),
    layer("store.tier2_hit_share", "fraction", Higher, "misses served from tier-2 bytes / misses"),
    layer("store.evictions_per_read", "count", Lower, "tier-1 evictions / region reads"),
    layer("store.prefetch_useful_share", "fraction", Higher, "prefetch hits / prefetched blocks (0 when none were prefetched)"),
    layer("store.coalesced", "count", Lower, "reads that waited on another thread's in-flight decode"),
    layer("store.read_p90_ms", "ms", Lower, "p90 of the store_pressure reads"),
    layer("store.read_p99_ms", "ms", Lower, "p99 of the store_pressure reads (lowered when fewer than 10 samples lie beyond it)"),
    layer("store.warm_hit_us", "us", Lower, "in-process ArchiveStore::decode_region on the warm store over the serve_warm windows"),
    layer("tensor.crop_mb_s", "MB/s", Higher, "Field::crop + concat_axis0_refs of a 1-slab window out of two decoded blocks"),
    layer("serve.request_p90_ms", "ms", Lower, "p90 of the serve_warm requests"),
    layer("serve.request_p99_ms", "ms", Lower, "p99 of the serve_warm requests"),
    layer("serve.overhead_x", "x", Lower, "HTTP p50 / store.warm_hit_us"),
    layer("serve.parse_us", "us", Lower, "http::read_request on the exact request bytes"),
    layer("serve.query_parse_us", "us", Lower, "region_request_from_query on the exact query"),
    layer("serve.write_response_mb_s", "MB/s", Higher, "http::write_response of one window's frame into a Vec"),
    layer("serve.stats_ms", "ms", Lower, "GET /stats round trip"),
    layer("serve.rejected", "count", Lower, "ServerStats errors + 503 rejections over the window"),
    layer("scrub.light_mb_s", "MB/s", Higher, "scrub_bytes (CRC pass) on the baseline archive, MB of archive"),
    layer("scrub.deep_mb_s", "MB/s", Higher, "scrub_bytes --deep (full decode) on the baseline archive, MB of archive"),
    layer("trace.share_sz", "fraction", Higher, "replayed sz stage time / measured one-thread op time of the selected workload"),
    layer("trace.share_nn_core", "fraction", Higher, "replayed nn + core stage time / measured op time"),
    layer("trace.share_other", "fraction", Higher, "replayed tensor/reader/store/serve stage time / measured op time"),
    layer("trace.replay_coverage", "fraction", Higher, "sum of the three shares: how much of the real call the replay explains"),
    layer("trace.overhead_share", "fraction", Lower, "(untraced - traced) / untraced op rate of the selected workload at the same op count, same process"),
    layer("host.slowdown_x", "x", Lower, "median tick of the reference clock over the selected workload's reduced windows / the tick of the undisturbed host: what this run's wall-clock values are inflated by"),
];

/// Which end-to-end metric each layer's metrics should move, on which
/// workload, and where no change is expected: `(layer metrics, moves, on,
/// unchanged on)`. Written down before measuring; a later change to one
/// layer is held to its row.
pub const LADDER: [(&str, &str, &str, &str); 11] = [
    (
        "sz encode",
        "write_mb_s",
        "snapshot_baseline (most), temporal_series; as a by-product store_pressure, serve_warm (baseline archive built in set-up)",
        "snapshot_crossfield",
    ),
    (
        "sz decode",
        "decode_mb_s; read_p50_ms",
        "snapshot_baseline, temporal_series; store_pressure",
        "serve_warm, snapshot_crossfield",
    ),
    ("sz counts", "ratio", "the three write workloads", "-"),
    (
        "nn train, core fit",
        "write_mb_s; setup_s",
        "snapshot_crossfield",
        "everything else",
    ),
    (
        "nn infer",
        "decode_mb_s, write_mb_s; read_p50_ms, read_mb_s",
        "snapshot_crossfield",
        "snapshot_baseline, serve_warm, store_pressure",
    ),
    (
        "core xf",
        "write_mb_s, decode_mb_s; xf_gain, ratio",
        "snapshot_crossfield",
        "-",
    ),
    (
        "predictor",
        "write_mb_s, decode_mb_s",
        "temporal_series",
        "all others",
    ),
    (
        "writer, reader",
        "write_mb_s, decode_mb_s; read_p50_ms, read_mb_s",
        "the three write workloads",
        "serve_warm",
    ),
    (
        "store",
        "read_mb_s, read_p50_ms",
        "store_pressure (miss path); serve_warm (hit path)",
        "the write workloads",
    ),
    (
        "serve, tensor",
        "read_p50_ms, read_mb_s",
        "serve_warm",
        "every other workload",
    ),
    (
        "scrub",
        "nothing today (baseline for a background scrub that would contend with serve_warm)",
        "-",
        "-",
    ),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit.bytes().all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Lower)
        );
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` at the repository root says what these tables say.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let strs = |v: &Value| -> Vec<String> {
            v.as_array()
                .unwrap()
                .iter()
                .map(|s| s.as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(strs(doc.get("paths").unwrap()), ["benchmark"]);
        assert!(strs(doc.get("command").unwrap()).contains(&"benchmark/Cargo.toml".to_string()));
        let secs = doc.get("run_seconds").unwrap().as_f64().unwrap();
        assert_eq!(secs, crate::suite::RUN_SECONDS as f64);
        assert!((1.0..=60.0).contains(&secs));

        let workloads = doc.get("workloads").unwrap().as_array().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(j.get("name").unwrap().as_str(), Some(w.name));
            assert_eq!(j.get("why").unwrap().as_str(), Some(w.why));
        }
        let check = |key: &str, specs: &[MetricSpec]| {
            let listed = doc.get(key).unwrap().as_array().unwrap();
            assert_eq!(listed.len(), specs.len(), "{key}");
            for (j, m) in listed.iter().zip(specs) {
                assert_eq!(j.get("name").unwrap().as_str(), Some(m.name));
                assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit), "{}", m.name);
                assert_eq!(
                    j.get("better").unwrap().as_str(),
                    Some(m.better.label()),
                    "{}",
                    m.name
                );
                assert_eq!(
                    j.get("bound").and_then(Value::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        };
        check("end_to_end", &END_TO_END);
        check("per_layer", &PER_LAYER);
    }
}
