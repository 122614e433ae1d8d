//! The input policy, as a table (ROADMAP item 5c).
//!
//! What the encoders do with samples they cannot represent is decided in
//! one place — `ErrorBound::try_resolve{,_quantization}`, which every encode
//! path calls on a field's statistics before it prequantizes — and this
//! file holds every encode entry point to it: `SzCompressor::compress`,
//! `ArchiveWriter::write` and `ArchiveWriter::write_epochs`, with the bad
//! field in every role a field can have (independent, anchor, target, a
//! delta epoch's field).
//!
//! | input | verdict |
//! |---|---|
//! | a NaN, +Inf or −Inf sample | `InvalidInput` |
//! | a constant field under a relative bound (the bound resolves to 0) | `InvalidInput` |
//! | a constant field under an absolute bound | round-trips within the bound |
//! | a single-element 1-D field | as a constant field |
//! | `max|v| / 2eb ≥ 2⁶²` (the lattice would saturate `i64`) | `InvalidInput` |
//! | anything else finite | round-trips within the bound |
//! | a plan row whose CFNN has a zero width | `InvalidInput` |
//!
//! An accepted field is held to `|v − v'| ≤ eb` pointwise against the
//! *original*; a refused one to the typed error; nothing may panic. CI runs
//! this in release as well, where `QuantLattice::prequantize`'s
//! `debug_assert!` on finiteness is compiled out and the policy is all
//! there is. A zero-extent field needs no row: `Shape` cannot hold one.
//!
//! A refusal must also come *before* the work: a writer that trains a CFNN
//! for a target and only then finds its bound unresolvable has spent
//! seconds on an archive it will not write. The test binary counts the
//! bytes each thread allocates; a write refused in planning allocates a few
//! names and an error message, while encoding even one block copies a slab
//! and one training allocates its patch set (3.5 MB under
//! `TrainConfig::default()`) — so "refused before any encode or training
//! work" is "allocated less than one field", with no clock involved.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cross_field_compression::core::archive::{ArchiveBuilder, ArchiveReader};
use cross_field_compression::core::config::{CfnnSpec, CrossFieldConfig, TrainConfig};
use cross_field_compression::sz::{CfcError, ErrorBound, SzCompressor};
use cross_field_compression::tensor::{Dataset, Field, Shape};

thread_local! {
    /// Bytes this thread has asked the allocator for.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting the bytes each thread requests.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a `const`-initialised
// thread-local `Cell` with no destructor, so touching it neither allocates
// nor can it be observed after teardown (`try_with` covers the latter).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + layout.size()));
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes the calling thread allocates while running `f`.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

const SIDE: usize = 32;
const FIELD_BYTES: usize = SIDE * SIDE * 4;
/// Position of the planted sample.
const SPOT: usize = 5 * SIDE + 7;

/// One field per role of the plan `RH ← T, P`: two anchors, their target,
/// and an independent bystander.
const ROLES: [(&str, &str); 4] = [
    ("Q", "independent"),
    ("T", "anchor"),
    ("P", "anchor"),
    ("RH", "target"),
];

fn snapshot(t: f32) -> Dataset {
    let shape = Shape::d2(SIDE, SIDE);
    let temp = Field::from_fn(shape, |i| {
        280.0 + 0.4 * i[0] as f32 - 0.02 * (i[1] as f32 - 12.0 - t) * (i[1] as f32 - 12.0)
    });
    let pres = Field::from_fn(shape, |i| {
        990.0 - 0.6 * i[0] as f32 + 0.05 * i[1] as f32 + t
    });
    let rh = Field::from_vec(
        shape,
        temp.as_slice()
            .iter()
            .zip(pres.as_slice())
            .map(|(&a, &b)| 0.35 * (a - 285.0) + 0.04 * (b - 990.0) + 55.0)
            .collect(),
    );
    let q = Field::from_fn(shape, |i| {
        0.01 * ((i[0] * 7 + i[1] * 3) % 17) as f32 + 0.1 * t
    });
    let mut ds = Dataset::new("POLICY", shape);
    ds.push("T", temp);
    ds.push("P", pres);
    ds.push("RH", rh);
    ds.push("Q", q);
    ds
}

/// `ds` with `f` applied to field `name`.
fn with_field(ds: &Dataset, name: &str, f: impl Fn(&Field) -> Field) -> Dataset {
    let mut out = Dataset::new(ds.name(), ds.shape());
    for (n, field) in ds.iter() {
        out.push(n, if n == name { f(field) } else { field.clone() });
    }
    out
}

fn planted(field: &Field, v: f32) -> Field {
    let mut data = field.as_slice().to_vec();
    data[SPOT] = v;
    Field::from_vec(field.shape(), data)
}

/// The cross-field plan under the full-size training configuration: a
/// refusal that waited for training would be impossible to miss.
fn cross_field(bound: ErrorBound) -> ArchiveBuilder {
    ArchiveBuilder::new(bound)
        .train_config(TrainConfig::default())
        .cross_field("RH", &["T", "P"])
        .chunk_elements(8 * SIDE)
        .threads(1)
}

fn assert_refused<T>(what: &str, res: Result<T, CfcError>) {
    match res {
        Err(CfcError::InvalidInput(_)) => {}
        Err(e) => panic!("{what}: expected InvalidInput, got {e:?}"),
        Ok(_) => panic!("{what}: expected InvalidInput, but the input was accepted"),
    }
}

/// A write the policy refuses: typed, and refused before any block was
/// encoded or any network trained (see the module docs).
fn assert_refused_up_front(what: &str, write: impl FnOnce() -> Result<Vec<u8>, CfcError>) {
    let (res, bytes) = allocated_by(write);
    assert_refused(what, res);
    assert!(
        bytes < FIELD_BYTES,
        "{what}: refused, but only after allocating {bytes} B — a field is {FIELD_BYTES} B"
    );
}

fn assert_within(what: &str, orig: &Field, dec: &Field, eb: f64) {
    assert_eq!(orig.shape(), dec.shape(), "{what}");
    for (i, (a, b)) in orig.as_slice().iter().zip(dec.as_slice()).enumerate() {
        let err = (*a as f64 - *b as f64).abs();
        assert!(
            err <= eb,
            "{what}: sample {i} is {a}, decodes {b}: off by {err:e}, bound {eb:e}"
        );
    }
}

/// Every epoch of `bytes` decodes within `eb` of `snaps`, field by field.
fn assert_archive_within(what: &str, bytes: &[u8], snaps: &[Dataset], eb: f64) {
    let reader = ArchiveReader::new(bytes).expect("an archive the writer accepted opens");
    for (e, ds) in snaps.iter().enumerate() {
        let dec = reader.decode_epoch(e).expect("and decodes");
        for (name, field) in ds.iter() {
            assert_within(
                &format!("{what}, {name}@e{e}"),
                field,
                dec.expect_field(name),
                eb,
            );
        }
    }
}

#[test]
fn a_non_finite_sample_is_refused_in_every_role_before_any_work() {
    let (e0, e1) = (snapshot(0.0), snapshot(1.0));
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        for bound in [ErrorBound::Relative(1e-3), ErrorBound::Absolute(0.05)] {
            let codec = SzCompressor {
                bound,
                ..SzCompressor::baseline(1e-3)
            };
            let field = planted(e0.expect_field("Q"), bad);
            assert_refused(&format!("compress, {bad}"), codec.compress(&field));
            for (name, role) in ROLES {
                let what = format!("{bad} in {role} {name}, {}", bound.label());
                let ds = with_field(&e0, name, |f| planted(f, bad));
                let writer = cross_field(bound).build();
                assert_refused_up_front(&format!("write: {what}"), || writer.write(&ds));
                // a keyframe of a series, and a delta epoch's field
                let series = [ds, e1.clone()];
                assert_refused_up_front(&format!("write_epochs, keyframe: {what}"), || {
                    writer.write_epochs(&series)
                });
                let series = [e0.clone(), with_field(&e1, name, |f| planted(f, bad))];
                assert_refused_up_front(&format!("write_epochs, delta: {what}"), || {
                    writer.write_epochs(&series)
                });
            }
        }
    }
}

#[test]
fn a_constant_field_has_no_relative_bound_and_keeps_an_absolute_one() {
    let e0 = snapshot(0.0);
    let flat = |f: &Field| Field::from_vec(f.shape(), vec![3.25; f.len()]);
    let field = flat(e0.expect_field("Q"));
    assert_refused("compress", SzCompressor::baseline(1e-3).compress(&field));
    for (name, role) in ROLES {
        let ds = with_field(&e0, name, flat);
        let series = [e0.clone(), ds.clone()];
        let writer = cross_field(ErrorBound::Relative(1e-3)).build();
        let what = format!("constant {role} {name}");
        assert_refused_up_front(&format!("write: {what}"), || writer.write(&ds));
        assert_refused_up_front(&format!("write_epochs: {what}"), || {
            writer.write_epochs(&series)
        });
    }

    // under an absolute bound a constant field is a field like any other:
    // a snapshot, and a series whose delta epoch conditions on it
    let eb = 0.05;
    let codec = SzCompressor {
        bound: ErrorBound::Absolute(eb),
        ..SzCompressor::baseline(1e-3)
    };
    let stream = codec.compress(&field).expect("compress");
    assert_within(
        "compress",
        &field,
        &codec.decompress(&stream.bytes).unwrap(),
        eb,
    );
    let writer = ArchiveBuilder::new(ErrorBound::Absolute(eb))
        .chunk_elements(8 * SIDE)
        .build();
    let ds = with_field(&e0, "Q", flat);
    let bytes = writer.write(&ds).expect("write");
    assert_archive_within("write", &bytes, std::slice::from_ref(&ds), eb);
    let series = [ds.clone(), with_field(&snapshot(1.0), "Q", flat)];
    let bytes = writer.write_epochs(&series).expect("write_epochs");
    assert_archive_within("write_epochs", &bytes, &series, eb);
}

#[test]
fn a_single_element_field_is_a_constant_field() {
    let one = |v: f32| {
        let mut ds = Dataset::new("ONE", Shape::d1(1));
        ds.push("X", Field::from_vec(Shape::d1(1), vec![v]));
        ds
    };
    let series = [one(-7.5), one(-7.25)];
    let field = series[0].expect_field("X");

    assert_refused("compress", SzCompressor::baseline(1e-3).compress(field));
    // a 1-D series has no deltas to take: every epoch is a keyframe
    let relative = ArchiveBuilder::relative(1e-3).keyframe_interval(1).build();
    assert_refused("write", relative.write(&series[0]));
    assert_refused("write_epochs", relative.write_epochs(&series));

    let eb = 0.1;
    let codec = SzCompressor {
        bound: ErrorBound::Absolute(eb),
        ..SzCompressor::baseline(1e-3)
    };
    let stream = codec.compress(field).expect("compress");
    assert_within(
        "compress",
        field,
        &codec.decompress(&stream.bytes).unwrap(),
        eb,
    );
    let absolute = ArchiveBuilder::new(ErrorBound::Absolute(eb))
        .keyframe_interval(1)
        .build();
    let bytes = absolute.write(&series[0]).expect("write");
    assert_archive_within("write", &bytes, &series[..1], eb);
    let bytes = absolute.write_epochs(&series).expect("write_epochs");
    assert_archive_within("write_epochs", &bytes, &series, eb);
}

#[test]
fn a_lattice_that_would_saturate_is_refused_and_one_that_fits_holds_the_bound() {
    // (sample magnitude, absolute bound): both quotients are past 2⁶³, where
    // `round(v / 2eb) as i64` clamps and the decode lands 1e20 off
    for (magnitude, eb) in [(1e20f32, 1.0), (1e30, 1e10)] {
        let bound = ErrorBound::Absolute(eb);
        let shape = Shape::d2(SIDE, SIDE);
        // every sample is large: no slab resolves a quantization bound
        let huge = Field::from_fn(shape, |i| {
            let sign = if (i[0] + i[1]) % 2 == 0 { 1.0 } else { -1.0 };
            sign * magnitude * (0.5 + (i[0] * SIDE + i[1]) as f32 / 2048.0)
        });
        let codec = SzCompressor {
            bound,
            ..SzCompressor::baseline(1e-3)
        };
        assert_refused(
            &format!("compress, {magnitude:e} at {eb:e}"),
            codec.compress(&huge),
        );

        let (e0, e1) = (snapshot(0.0), snapshot(1.0));
        for (name, role) in ROLES {
            let what = format!("{magnitude:e} at {eb:e} in {role} {name}");
            let ds = with_field(&e0, name, |_| huge.clone());
            let writer = cross_field(bound).build();
            assert_refused_up_front(&format!("write: {what}"), || writer.write(&ds));
            let series = [e0.clone(), with_field(&e1, name, |_| huge.clone())];
            assert_refused_up_front(&format!("write_epochs: {what}"), || {
                writer.write_epochs(&series)
            });
        }

        // the same samples at a bound their lattice fits (quotient ≈ 1e17,
        // far past where `f64` stops counting integers) are accepted, and
        // accepted means within the bound
        let eb = eb * 1e3;
        let codec = SzCompressor {
            bound: ErrorBound::Absolute(eb),
            ..SzCompressor::baseline(1e-3)
        };
        let stream = codec.compress(&huge).expect("a lattice inside 62 bits");
        let dec = codec.decompress(&stream.bytes).expect("decompress");
        assert_within(&format!("{magnitude:e} at {eb:e}"), &huge, &dec, eb);
        let writer = ArchiveBuilder::new(ErrorBound::Absolute(eb))
            .chunk_elements(8 * SIDE)
            .build();
        let mut ds = Dataset::new("HUGE", shape);
        ds.push("H", huge.clone());
        let series = [ds.clone(), with_field(&ds, "H", |f| f.map(|v| v * 1.001))];
        let bytes = writer.write_epochs(&series).expect("write_epochs");
        assert_archive_within(&format!("{magnitude:e} at {eb:e}"), &bytes, &series, eb);
    }
}

#[test]
fn a_zero_cfnn_width_is_refused_before_any_work() {
    let ds = snapshot(0.0);
    // a zero width, and a width past the widest activation a model may have
    for (feat1, feat2) in [(0, 4), (4, 0), (1100, 4), (4, 1100)] {
        let row = CrossFieldConfig {
            dataset: "POLICY",
            target: "RH",
            anchors: vec!["T", "P"],
            spec: CfnnSpec { feat1, feat2 },
        };
        // with the writer's guard and without it
        for always in [false, true] {
            let mut builder = ArchiveBuilder::relative(1e-3)
                .train_config(TrainConfig::default())
                .plan_from(std::slice::from_ref(&row))
                .chunk_elements(8 * SIDE)
                .threads(1);
            if always {
                builder = builder.always_cross_field();
            }
            let writer = builder.build();
            let what = format!("{feat1} x {feat2}, always_cross_field {always}");
            assert_refused_up_front(&what, || writer.write(&ds));
        }
    }
}
