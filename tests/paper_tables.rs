//! The paper's Table II as a checked output.
//!
//! `tests/golden/table2_quick.csv` and `tests/golden/table2_full.csv` are
//! the files `experiments --quick table2` and `experiments table2` write to
//! `target/experiments/table2.csv`, committed; after a change that is meant
//! to move a ratio, run the experiment and `cp` its CSV over the golden one.
//! Every run here goes through `ExperimentContext::run`, which also decodes
//! the cross-field stream, holds it to the error bound pointwise and to the
//! baseline's reconstruction bit for bit.
//!
//! Tier-1 compares two quick-size cells, one 3-D and one 2-D row of
//! Table III. The whole tables are `#[ignore]`d for their cost (CI runs
//! them in release: `cargo test --release --test paper_tables --
//! --include-ignored`), the full-size one together with the two sentences
//! the paper writes about it and a ceiling on its negative cells.

use cfc_bench::runner::{table3_row, ExperimentContext, FieldResult, CSV_HEADER};
use cfc_datagen::GenParams;

const QUICK_CSV: &str = include_str!("golden/table2_quick.csv");
const FULL_CSV: &str = include_str!("golden/table2_full.csv");

/// Negative cells in the committed full-size table.
const NEGATIVE_CELLS: usize = 6;

/// The rows of a committed CSV.
fn committed(csv: &str) -> Vec<FieldResult> {
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some(CSV_HEADER), "column layout moved");
    lines
        .map(|line| {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!(cols.len(), 10, "{line}");
            let num = |i: usize| -> f64 {
                cols[i]
                    .parse()
                    .unwrap_or_else(|e| panic!("column {i} of `{line}`: {e}"))
            };
            FieldResult {
                dataset: cols[0].to_string(),
                field: cols[1].to_string(),
                rel_eb: num(2),
                baseline_ratio: num(3),
                ours_ratio: num(4),
                // column 5 is `improvement_pct`, derived from the two ratios
                baseline_bitrate: num(6),
                ours_bitrate: num(7),
                psnr: num(8),
                model_bytes: cols[9].parse().expect("model_bytes is an integer"),
            }
        })
        .collect()
}

/// `got` against its committed row: ratios and bit-rates within 1e-3
/// relative, PSNR within 0.01 dB, model bytes exact.
fn assert_matches_committed(got: &FieldResult, committed: &[FieldResult]) {
    let cell = format!("{} {} @ {:e}", got.dataset, got.field, got.rel_eb);
    let want = committed
        .iter()
        .find(|w| (&w.dataset, &w.field, w.rel_eb) == (&got.dataset, &got.field, got.rel_eb))
        .unwrap_or_else(|| panic!("{cell}: no committed row"));
    for (what, got, want) in [
        ("baseline_ratio", got.baseline_ratio, want.baseline_ratio),
        ("ours_ratio", got.ours_ratio, want.ours_ratio),
        (
            "baseline_bitrate",
            got.baseline_bitrate,
            want.baseline_bitrate,
        ),
        ("ours_bitrate", got.ours_bitrate, want.ours_bitrate),
    ] {
        assert!(
            (got - want).abs() <= 1e-3 * want,
            "{cell}: {what} {got:.4}, committed {want:.4}"
        );
    }
    assert!(
        (got.psnr - want.psnr).abs() <= 0.01,
        "{cell}: PSNR {:.3} dB, committed {:.3} dB",
        got.psnr,
        want.psnr
    );
    assert_eq!(got.model_bytes, want.model_bytes, "{cell}: model bytes");
}

fn quick_cell_matches(target: &str) {
    let mut ctx = ExperimentContext::new(GenParams::default(), true);
    let got = ctx.run(&table3_row(target), 1e-3);
    assert_matches_committed(&got, &committed(QUICK_CSV));
}

#[test]
fn quick_scale_w_at_1e3_matches_the_committed_row() {
    quick_cell_matches("W");
}

#[test]
fn quick_cesm_lwcf_at_1e3_matches_the_committed_row() {
    quick_cell_matches("LWCF");
}

fn whole_table_matches(quick: bool, csv: &str) -> Vec<FieldResult> {
    let results = ExperimentContext::new(GenParams::default(), quick).table2();
    let committed = committed(csv);
    assert_eq!(results.len(), committed.len());
    for got in &results {
        assert_matches_committed(got, &committed);
    }
    results
}

#[test]
#[ignore = "all 30 quick cells: ~1 min in the debug profile"]
fn quick_table2_matches_every_committed_cell() {
    whole_table_matches(true, QUICK_CSV);
}

#[test]
#[ignore = "all 30 full-size cells: ~20 s in the release profile"]
fn full_table2_matches_every_committed_cell_and_the_papers_two_sentences() {
    let results = whole_table_matches(false, FULL_CSV);
    // the paper: cross-field prediction improves the ratio by up to 25 % …
    let best = results
        .iter()
        .map(FieldResult::improvement_pct)
        .fold(f64::MIN, f64::max);
    assert!(best >= 25.0, "best cell improves by {best:+.2} %");
    // … and improves it in most of the table
    let improved = results.iter().filter(|r| r.improvement_pct() > 0.0).count();
    assert!(
        2 * improved > results.len(),
        "{improved} of {} cells improved",
        results.len()
    );
    // Table III's measured widths leave six cells negative, all CESM:
    // CLDTOT 5e-3 … 5e-4, LWCF 5e-3 and 2e-3
    let negative = results.iter().filter(|r| r.improvement_pct() < 0.0).count();
    assert!(
        negative <= NEGATIVE_CELLS,
        "{negative} cells negative, at most {NEGATIVE_CELLS} committed"
    );
}
