//! Tables I–III of the paper.

use std::io;
use std::path::Path;

use cfc_core::config::{paper_table3, CfnnSpec};
use cfc_datagen::paper_catalog;

use crate::runner::{
    cfnn_params, row_ndim, write_csv, ExperimentContext, FieldResult, PAPER_ERROR_BOUNDS,
};

/// **Table I** — details of the tested datasets: the paper's dimensions
/// alongside the scaled default dimensions used by this reproduction.
pub fn table1(_ctx: &mut ExperimentContext) -> io::Result<()> {
    println!("Table I: Details of tested datasets");
    println!("{:-<78}", "");
    println!(
        "{:<12} {:<16} {:<16} {:<22}",
        "Name", "Paper dims", "Default dims", "Description"
    );
    println!("{:-<78}", "");
    for info in paper_catalog() {
        println!(
            "{:<12} {:<16} {:<16} {:<22}",
            info.name,
            info.paper_dims.to_string(),
            info.default_dims.to_string(),
            info.description
        );
    }
    println!("{:-<78}", "");
    println!("\nSynthetic analogue fields per dataset:");
    for info in paper_catalog() {
        println!("  {:<12} {}", info.name, info.fields.join(", "));
    }
    println!(
        "\nNote: default dims are scaled so the full experiment suite runs on a\n\
         laptop CPU; pass the paper shapes to `DatasetInfo::generate` for\n\
         full-size runs (the fields are synthetic analogues either way)."
    );
    Ok(())
}

/// **Table II** — compression ratios of SCALE, Hurricane, and CESM-ATM
/// fields under the paper's error-bound sweep, baseline vs ours.
///
/// Output mirrors the paper's layout: a Baseline block and an Ours block
/// with percentage deltas. The cells are written to
/// `target/experiments/table2.csv`, the layout `tests/paper_tables.rs`
/// compares against `tests/golden/table2_{quick,full}.csv`.
pub fn table2(ctx: &mut ExperimentContext) -> io::Result<()> {
    let results = ctx.table2();

    let header: Vec<String> = PAPER_ERROR_BOUNDS
        .iter()
        .map(|e| format!("{e:.0E}"))
        .collect();
    println!("\nTable II: compression ratio under different error bounds");
    println!("{:-<100}", "");
    println!(
        "{:<12}{:<10}{:>14}{:>14}{:>14}{:>14}{:>14}",
        "Dataset", "Field", header[0], header[1], header[2], header[3], header[4]
    );
    println!("{:-<100}", "");
    println!("Baseline (SZ3 Lorenzo + dual-quant)");
    print_block(&results, |r| format!("{:.2}", r.baseline_ratio));
    println!("\nOurs (cross-field + hybrid, model bytes included)");
    print_block(&results, |r| {
        format!("{:.2}({:+.2}%)", r.ours_ratio, r.improvement_pct())
    });
    println!("{:-<100}", "");

    // summary stats the paper quotes in prose
    let best = results
        .iter()
        .max_by(|a, b| a.improvement_pct().total_cmp(&b.improvement_pct()))
        .expect("thirty cells");
    let wins = results.iter().filter(|r| r.improvement_pct() > 0.0).count();
    println!(
        "\nBest improvement: {:+.2}% ({} {} @ {:.0e}); {wins}/{} cells improved.",
        best.improvement_pct(),
        best.dataset,
        best.field,
        best.rel_eb,
        results.len()
    );

    write_csv(Path::new("target/experiments/table2.csv"), &results)?;
    println!("CSV written to target/experiments/table2.csv");
    Ok(())
}

/// One line per Table III row, one cell per bound ([`ExperimentContext::table2`]'s order).
fn print_block(results: &[FieldResult], cell: impl Fn(&FieldResult) -> String) {
    for row in results.chunks(PAPER_ERROR_BOUNDS.len()) {
        print!("{:<12}{:<10}", row[0].dataset, row[0].field);
        for r in row {
            print!("{:>14}", cell(r));
        }
        println!();
    }
}

/// **Table III** — experiment configuration: target fields, anchor fields,
/// and model sizes.
///
/// Two model-size columns are printed: the CFNN each row ships with in
/// this reproduction (its widths measured, see [`paper_table3`]), and the
/// *paper-parity* spec whose parameter count lands near the paper's
/// reported 32 871 / 4 470–6 070.
pub fn table3(_ctx: &mut ExperimentContext) -> io::Result<()> {
    println!("Table III: experiment configuration");
    println!("{:-<96}", "");
    println!(
        "{:<10}{:<8}{:<28}{:>14}{:>16}{:>12}",
        "Dataset", "Target", "Anchor fields", "CFNN (ours)", "CFNN (paper≈)", "Hybrid"
    );
    println!("{:-<96}", "");
    for row in paper_table3() {
        let ndim = row_ndim(&row);
        // hybrid model: one weight per predictor (Lorenzo + one per axis),
        // matching the paper's "Model Size Hybrid" column of 4 (2-D) / 5
        // (3-D) — the paper counts n+1 weights plus the normalization concat
        let hybrid_params = ndim + 1 + 1;
        println!(
            "{:<10}{:<8}{:<28}{:>14}{:>16}{:>12}",
            row.dataset,
            row.target,
            row.anchors.join(","),
            cfnn_params(&row, &row.spec),
            cfnn_params(&row, &CfnnSpec::paper(ndim)),
            hybrid_params,
        );
    }
    println!("{:-<96}", "");
    println!(
        "\nPaper reports: CFNN 32 871 (3-D rows), 5 270 / 4 470 / 6 070 (CESM rows);\n\
         hybrid 5 (3-D) / 4 (2-D). Our widths are measured per row: of feat1 x feat2\n\
         in {{2,4,8,12,16,24}} x {{2,4,8,16,32}}, the fewest bits per value summed over\n\
         the five full-size Table II bounds, model included (of the widths within\n\
         0.5 % of that, the one with the fewest parameters). The model's bytes count\n\
         in the ratio, and on grids ~200x smaller than the paper's a wider net does\n\
         not pay."
    );
    Ok(())
}
