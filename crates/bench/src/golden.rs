//! Golden-vector fixtures: the deterministic dataset and writers behind
//! `tests/golden/` and `tests/format_conformance.rs`.
//!
//! The CFAR container layout is a compatibility surface: archives written
//! yesterday must decode tomorrow. The conformance suite pins that contract
//! with committed byte-exact fixtures, regenerated by
//! `cargo run -p cfc-bench --bin make_golden` from the functions here.
//!
//! Two writers live here:
//!
//! * [`write_v1`] — a frozen reimplementation of the CFAR **v1** layout
//!   (one monolithic CFSZ stream per field). The production
//!   `ArchiveWriter` moved on to the chunked container, so this is the
//!   only way to produce fresh v1 bytes; the committed `small_v1.cfar`
//!   fixture was generated by the pre-chunking writer and `write_v1` is
//!   asserted byte-identical to it.
//! * the production `ArchiveWriter` (via [`golden_builder`] and
//!   [`golden_partial_builder`]) — produces the v3 fixtures. The golden
//!   plan's `RH` is written with `ArchiveBuilder::always_cross_field`:
//!   on these 32×32 fields it encodes to about 5.6 kB cross-field, 4.7 kB
//!   of that the model, against under 1 kB independent, so the default
//!   builder would demote it and the fixtures would hold no target row.
//!
//! `small_v2.cfar` and `partial_v2.cfar` are frozen: nothing writes v2 any
//! more (a snapshot is a one-epoch v3 archive, the same bytes as epoch 0
//! of `small_v3_keyframes.cfar` and `partial_v3.cfar`), so they are
//! committed bytes only, kept to prove that v2 archives decode.
//!
//! Everything is deterministic: fixed seeds, fixed shapes, fixed plans, and
//! thread-count-independent encoding (asserted in `cfc-core`'s tests).

use bytes::BufMut;
use cfc_core::archive::ArchiveBuilder;
use cfc_core::config::TrainConfig;
use cfc_core::pipeline::CrossFieldCompressor;
use cfc_core::train::train_cfnn;
use cfc_core::CfnnSpec;
use cfc_sz::{ErrorBound, PredictorKind, QuantizerConfig, SzCompressor};
use cfc_tensor::{Dataset, Field, Shape};

/// Relative error bound every golden fixture is written at.
pub const GOLDEN_REL_EB: f64 = 1e-3;

/// Element count per chunk used for the chunked 2-D fixtures — small
/// enough that the 32×32 fields split into four blocks.
pub const GOLDEN_CHUNK_ELEMENTS: usize = 8 * 32;

/// The fixture snapshot: three coupled 32×32 fields. `T` and `P` are
/// anchors, `RH` is a smooth function of both — the same structure as the
/// paper's Table 3 rows, shrunk until training takes milliseconds.
pub fn golden_dataset() -> Dataset {
    let shape = Shape::d2(32, 32);
    let t = Field::from_fn(shape, |i| {
        ((i[0] as f32) * 0.17).sin() * 12.0 + ((i[1] as f32) * 0.11).cos() * 7.0 + 285.0
    });
    let p = Field::from_fn(shape, |i| {
        990.0 - (i[0] as f32) * 0.6 + ((i[1] as f32) * 0.07).sin() * 2.5
    });
    let rh = Field::from_vec(
        shape,
        t.as_slice()
            .iter()
            .zip(p.as_slice())
            .map(|(&tv, &pv)| 0.35 * (tv - 285.0) + 0.04 * (pv - 990.0) + 55.0)
            .collect(),
    );
    let mut ds = Dataset::new("GOLDEN", shape);
    ds.push("T", t);
    ds.push("P", p);
    ds.push("RH", rh);
    ds
}

/// A second fixture snapshot: a 3-D baseline-only dataset whose depth (5)
/// is *not* a multiple of the fixture chunk size, exercising the partial
/// final block.
pub fn golden_dataset_3d() -> Dataset {
    let shape = Shape::d3(5, 12, 12);
    let u = Field::from_fn(shape, |i| {
        (i[0] as f32) * 0.9 + ((i[1] as f32) * 0.3).sin() * 4.0 + ((i[2] as f32) * 0.2).cos() * 3.0
    });
    let v = u.map(|x| 0.5 * x - 1.0);
    let mut ds = Dataset::new("GOLDEN3D", shape);
    ds.push("U", u);
    ds.push("V", v);
    ds
}

/// Keyframe interval of the delta-chain v3 fixture.
pub const GOLDEN_KEYFRAME_INTERVAL: usize = 3;

/// Epoch count of the delta-chain v3 fixture: two keyframes, each heading
/// a two-delta chain.
pub const GOLDEN_V3_EPOCHS: usize = 6;

/// One epoch of the evolving fixture sequence: the [`golden_dataset`]
/// structure with closed-form phase drift, so consecutive epochs differ by
/// a small smooth increment; epoch 0 is the static [`golden_dataset`].
pub fn golden_epoch_dataset(t: f32) -> Dataset {
    let shape = Shape::d2(32, 32);
    let tfield = Field::from_fn(shape, |i| {
        ((i[0] as f32) * 0.17 + 0.05 * t).sin() * 12.0
            + ((i[1] as f32) * 0.11 - 0.04 * t).cos() * 7.0
            + 285.0
            + 0.3 * t
    });
    let p = Field::from_fn(shape, |i| {
        990.0 - (i[0] as f32) * 0.6 + ((i[1] as f32) * 0.07 + 0.06 * t).sin() * 2.5 - 0.2 * t
    });
    let rh = Field::from_vec(
        shape,
        tfield
            .as_slice()
            .iter()
            .zip(p.as_slice())
            .map(|(&tv, &pv)| 0.35 * (tv - 285.0) + 0.04 * (pv - 990.0) + 55.0)
            .collect(),
    );
    let mut ds = Dataset::new("GOLDEN", shape);
    ds.push("T", tfield);
    ds.push("P", p);
    ds.push("RH", rh);
    ds
}

/// `n` consecutive epochs of the evolving 2-D fixture.
pub fn golden_epochs(n: usize) -> Vec<Dataset> {
    (0..n).map(|e| golden_epoch_dataset(e as f32)).collect()
}

/// `n` consecutive epochs of the evolving 3-D partial-block fixture.
pub fn golden_epochs_3d(n: usize) -> Vec<Dataset> {
    (0..n)
        .map(|e| {
            let t = e as f32;
            let shape = Shape::d3(5, 12, 12);
            let u = Field::from_fn(shape, |i| {
                (i[0] as f32) * 0.9
                    + ((i[1] as f32) * 0.3 + 0.08 * t).sin() * 4.0
                    + ((i[2] as f32) * 0.2 - 0.05 * t).cos() * 3.0
            });
            let v = u.map(|x| 0.5 * x - 1.0);
            let mut ds = Dataset::new("GOLDEN3D", shape);
            ds.push("U", u);
            ds.push("V", v);
            ds
        })
        .collect()
}

/// Training configuration shared by every fixture writer.
pub fn golden_train_config() -> TrainConfig {
    TrainConfig::fast()
}

/// The production builder configured exactly like the fixtures: relative
/// bound [`GOLDEN_REL_EB`], fast training, `RH` cross-field on `T`+`P`,
/// written as a target whatever its size
/// ([`ArchiveBuilder::always_cross_field`]; see the module doc).
pub fn golden_builder() -> ArchiveBuilder {
    ArchiveBuilder::relative(GOLDEN_REL_EB)
        .train_config(golden_train_config())
        .cross_field("RH", &["T", "P"])
        .always_cross_field()
}

/// Builder for the 3-D partial-block fixture: baseline-only, chunk of 2
/// slabs against a depth of 5 → 3 blocks, the last one partial.
pub fn golden_partial_builder() -> ArchiveBuilder {
    ArchiveBuilder::relative(GOLDEN_REL_EB).chunk_elements(2 * 12 * 12)
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.put_u16_le(s.len() as u16);
    out.put_slice(s.as_bytes());
}

/// Serialize [`golden_dataset`] in the frozen CFAR **v1** layout:
///
/// ```text
/// "CFAR" | version=1 u16 | name | n_fields u32
/// per field: name | role u8 | n_anchors u16 | anchors… | eb f64
///          | stream_len u64 | one monolithic CFSZ stream
/// ```
///
/// Field streams are produced by the same baseline / cross-field pipelines
/// the v1 `ArchiveWriter` used, so the bytes match the committed
/// `small_v1.cfar` fixture exactly.
pub fn write_v1(ds: &Dataset) -> Vec<u8> {
    let bound = ErrorBound::Relative(GOLDEN_REL_EB);
    let baseline = SzCompressor {
        bound,
        quantizer: QuantizerConfig::default(),
        predictor: PredictorKind::Lorenzo,
    };
    let cross = CrossFieldCompressor {
        bound,
        quantizer: QuantizerConfig::default(),
        hybrid: Default::default(),
    };

    // roles of the fixture plan: RH targets [T, P]; both anchors
    let anchors = ["T", "P"];
    let target = "RH";

    // one serialized v1 manifest row: name, role, anchors, eb, stream
    type EntryRow = (String, u8, Vec<String>, f64, Vec<u8>);
    // anchors: compress + roundtrip (the decoder's view feeds inference)
    let mut streams: Vec<EntryRow> = Vec::new();
    let mut anchors_dec: Vec<Field> = Vec::new();
    for name in anchors {
        let stream = baseline.compress(ds.expect_field(name)).expect("anchor");
        anchors_dec.push(baseline.decompress(&stream.bytes).expect("roundtrip"));
        streams.push((name.to_string(), 1, Vec::new(), stream.eb_abs, stream.bytes));
    }

    // target: CFNN trained on originals, inference on decoded anchors
    let orig_refs: Vec<&Field> = anchors.iter().map(|a| ds.expect_field(a)).collect();
    let dec_refs: Vec<&Field> = anchors_dec.iter().collect();
    let spec = CfnnSpec::writer_default(ds.shape().ndim());
    let trained = train_cfnn(
        &spec,
        &golden_train_config(),
        &orig_refs,
        ds.expect_field(target),
    );
    let stream = cross
        .compress(&trained, ds.expect_field(target), &dec_refs)
        .expect("target");
    streams.push((
        target.to_string(),
        2,
        anchors.iter().map(|s| s.to_string()).collect(),
        stream.eb_abs,
        stream.bytes,
    ));

    // serialize in dataset field order
    let mut out = Vec::new();
    out.put_slice(b"CFAR");
    out.put_u16_le(1);
    put_str(&mut out, ds.name());
    out.put_u32_le(ds.len() as u32);
    for (name, _) in ds.iter() {
        let (n, role, anc, eb, bytes) = streams
            .iter()
            .find(|(sn, ..)| sn == name)
            .expect("every field encoded");
        put_str(&mut out, n);
        out.put_u8(*role);
        out.put_u16_le(anc.len() as u16);
        for a in anc {
            put_str(&mut out, a);
        }
        out.put_f64_le(*eb);
        out.put_u64_le(bytes.len() as u64);
        out.put_slice(bytes);
    }
    out
}
