//! Suite modes: `list`, and `run` / `trace` / `check`, which spawn one
//! driver-mode child process per workload and run (so `peak_rss_mb` is a
//! workload's own) and tabulate the result lines.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use crate::json::{self, quote};
use crate::spec::{MetricSpec, END_TO_END, LADDER, PER_LAYER, WORKLOADS};
use crate::stats::median;
use crate::{flag, host};

/// Seconds one run measures; `BENCHMARK.json` records the same number.
pub const RUN_SECONDS: u64 = 18;
/// Window of a `--smoke` run.
const SMOKE_SECONDS: f64 = 0.25;
/// End-to-end metrics that are exact counts: same seed, same bytes.
const EXACT: [&str; 3] = ["ratio", "xf_gain", "psnr_db"];
/// Runs in each of `check`'s two sets.
const CHECK_RUNS: usize = 3;

/// `list`: every workload and metric, or (`--json`) `BENCHMARK.json`.
pub fn list(as_json: bool) {
    if as_json {
        print!("{}", benchmark_json());
        return;
    }
    println!("WORKLOADS (closed loop: every generator waits for its reply)");
    for w in &WORKLOADS {
        println!(
            "  {}\n      why:    {}\n      inputs: {}",
            w.name, w.why, w.detail
        );
    }
    println!(
        "\nEND-TO-END METRICS (every workload, tracing off; bound = share of the parent's median it may worsen by)"
    );
    for m in &END_TO_END {
        println!(
            "  {:<14} {:<6} better {:<6} bound {:>4.0} %  {}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound.unwrap_or(0.0) * 100.0,
            m.what
        );
    }
    println!("\nPER-LAYER METRICS (every workload, tracing on; no bound)");
    for m in &PER_LAYER {
        println!(
            "  {:<34} {:<9} better {:<6} {}",
            m.name,
            m.unit,
            m.better.label(),
            m.what
        );
    }
    println!("\nWHICH LAYER SHOULD MOVE WHAT");
    for row in &LADDER {
        println!(
            "  {:<10} moves {} on {}; no change expected on {}",
            row.0, row.1, row.2, row.3
        );
    }
    println!(
        "\nrun:   cfc-benchmark run     every workload untraced, outputs verified, metrics by name\n\
         trace: cfc-benchmark trace   per-layer numbers from the traced run; spans go to .bench_out/\n\
         check: cfc-benchmark check   two interleaved sets of 3 untraced runs; fails unless the sets' medians agree within each bound\n\
         add --smoke to exercise the harness in seconds (numbers labelled, not comparable)"
    );
}

fn metric_json(m: &MetricSpec) -> String {
    let bound = m
        .bound
        .map_or(String::new(), |b| format!(", \"bound\": {b}"));
    format!(
        "{{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
        quote(m.name),
        quote(m.unit),
        quote(m.better.label())
    )
}

/// The contents of the repository's `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let rows = |items: Vec<String>| items.join(",\n    ");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {}\n  ],\n  \
         \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        rows(WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
            .collect()),
        rows(END_TO_END.iter().map(metric_json).collect()),
        rows(PER_LAYER.iter().map(metric_json).collect()),
    )
}

/// Metric values of one child run, by metric name.
type Row = BTreeMap<String, f64>;
/// One suite pass: a row per workload, and whether every run was correct.
type Pass = (Vec<(&'static str, Row)>, bool);

/// What every child of one suite invocation is run with.
struct Options {
    seed: u64,
    seconds: f64,
    smoke: bool,
}

/// Spawn one driver-mode child and parse its last stdout line. The
/// child's stderr passes through, so failing ops are named where they
/// happen. `Err` carries what went wrong, `Ok(.., false)` a run whose
/// checks failed but whose metrics were still emitted.
fn child(workload: &str, o: &Options, trace: bool) -> Result<(Row, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if o.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("{workload}: cannot spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{workload}: no result line (exit {})", out.status))?;
    let (correct, attempted, failed, metrics) =
        json::parse_result_line(line).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    if !correct {
        eprintln!("{workload}: {failed} of {attempted} operations FAILED");
    }
    let row = metrics.into_iter().map(|(n, v, _)| (n, v)).collect();
    Ok((row, correct && out.status.success()))
}

fn print_table(title: &str, specs: &[MetricSpec], rows: &[(&str, Row)]) {
    println!("\n{title}");
    print!("{:<34} {:<9}", "metric", "unit");
    for (w, _) in rows {
        print!(" {w:>19}");
    }
    println!();
    for m in specs {
        print!("{:<34} {:<9}", m.name, m.unit);
        for (_, row) in rows {
            match row.get(m.name) {
                Some(v) => print!(" {v:>19.4}"),
                None => print!(" {:>19}", "-"),
            }
        }
        println!();
    }
}

/// Run every workload once (`trace` selects which half of the metrics).
fn pass(o: &Options, trace: bool) -> Result<Pass, String> {
    let mut rows = Vec::new();
    let mut all_ok = true;
    for w in &WORKLOADS {
        let (row, ok) = child(w.name, o, trace)?;
        all_ok &= ok;
        rows.push((w.name, row));
    }
    Ok((rows, all_ok))
}

pub fn run(mode: &str, args: &[String]) -> Result<ExitCode, String> {
    let smoke = args.iter().any(|a| a == "--smoke");
    let o = Options {
        seed: flag(args, "--seed")?.map_or(Ok(1), |v| {
            v.parse().map_err(|_| "--seed is not a whole number")
        })?,
        seconds: if smoke {
            SMOKE_SECONDS
        } else {
            RUN_SECONDS as f64
        },
        smoke,
    };
    println!("{}", host::header());
    println!(
        "seed {} | window {} s | generators {} | {}",
        o.seed,
        o.seconds,
        crate::workloads::generators(),
        if smoke {
            "SMOKE sizes: numbers are not comparable with BENCHMARK.json runs"
        } else {
            "full sizes"
        }
    );
    let ok = match mode {
        "run" => {
            let (rows, ok) = pass(&o, false)?;
            print_table("END-TO-END (tracing off)", &END_TO_END, &rows);
            ok
        }
        "trace" => {
            let (rows, ok) = pass(&o, true)?;
            print_table(
                "PER-LAYER (traced run; end-to-end numbers never come from here)",
                &PER_LAYER,
                &rows,
            );
            ok
        }
        _ => check(&o)?,
    };
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Two sets of [`CHECK_RUNS`] untraced runs of every workload on the same
/// build and seed, a workload's runs alternating between the sets so that
/// slow drift of the host falls on both alike. Per metric and workload the
/// two sets' medians must agree within the metric's own bound, exact
/// metrics must be bit-equal in every run, and no operation may fail.
/// Prints both medians, their spread, and the range of all runs.
fn check(o: &Options) -> Result<bool, String> {
    let mut ok = true;
    let mut lines = Vec::new();
    for w in &WORKLOADS {
        let mut sets: [Vec<Row>; 2] = [Vec::new(), Vec::new()];
        for i in 0..2 * CHECK_RUNS {
            let (row, run_ok) = child(w.name, o, false)?;
            ok &= run_ok;
            sets[i % 2].push(row);
        }
        for m in &END_TO_END {
            // a value a failed run could not measure reads NaN and fails
            let values = |set: &[Row]| -> Vec<f64> {
                set.iter()
                    .map(|row| row.get(m.name).copied().unwrap_or(f64::NAN))
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let all: Vec<f64> = a.iter().chain(&b).copied().collect();
            let (x, y) = if all.iter().all(|v| v.is_finite()) {
                (median(&a), median(&b))
            } else {
                (f64::NAN, f64::NAN)
            };
            let spread = ((y - x) / x).abs();
            let bound = m.bound.unwrap_or(0.0);
            let (pass, allowed) = if EXACT.contains(&m.name) {
                let same = all.iter().all(|v| v.to_bits() == all[0].to_bits());
                (same && x.is_finite(), "exact".to_string())
            } else {
                (spread <= bound, format!("{:.0} %", bound * 100.0))
            };
            ok &= pass;
            let lo = all.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = all.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            lines.push(format!(
                "  {:<20} {:<12} {x:>11.4} vs {y:>11.4} {:<5} spread {:>7.3} %  (bound {allowed})  all runs [{lo:.4} .. {hi:.4}]{}",
                w.name,
                m.name,
                m.unit,
                spread * 100.0,
                if pass { "" } else { "  VIOLATED" }
            ));
        }
    }
    println!(
        "\nMEDIANS of two interleaved sets of {CHECK_RUNS} runs, |second - first| / first against the metric's bound"
    );
    for line in lines {
        println!("{line}");
    }
    println!(
        "\ncheck: {}",
        if ok {
            "every metric agrees within its bound, no operation failed"
        } else {
            "FAILED"
        }
    );
    Ok(ok)
}
