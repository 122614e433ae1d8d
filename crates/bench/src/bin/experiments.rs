//! The paper's evaluation section, one experiment per name:
//!
//! ```sh
//! cargo run --release -p cfc-bench --bin experiments -- [--quick] <name>…|all
//! ```
//!
//! Experiments run in the order given, in this process, over one
//! [`ExperimentContext`] — a dataset is generated and a model trained once
//! however many experiments use it. `--quick` shrinks every grid and the
//! training budget (see [`ExperimentContext::quick`]). Tables go to stdout,
//! progress to stderr, images and series to `target/experiments/`.

use std::io;
use std::process::ExitCode;

use cfc_bench::runner::ExperimentContext;
use cfc_bench::{ablation, figures, tables};
use cfc_datagen::GenParams;

type Experiment = fn(&mut ExperimentContext) -> io::Result<()>;

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table1", tables::table1),
    ("fig1", figures::fig1),
    ("fig5", figures::fig5),
    ("fig6", figures::fig6),
    ("table2", tables::table2),
    ("table3", tables::table3),
    ("fig8", figures::fig8),
    ("fig9", figures::fig9),
    ("ablation", ablation::ablation),
];

fn usage() -> ExitCode {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    eprintln!("usage: experiments [--quick] <name>…|all");
    eprintln!("experiments: {}", names.join(" "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut selected: Vec<&(&str, Experiment)> = Vec::new();
    for name in args.iter().filter(|a| *a != "--quick") {
        match EXPERIMENTS.iter().find(|(n, _)| n == name) {
            Some(experiment) => selected.push(experiment),
            None if name == "all" => selected.extend(EXPERIMENTS),
            None => {
                eprintln!("unknown experiment `{name}`");
                return usage();
            }
        }
    }
    if selected.is_empty() {
        return usage();
    }

    let mut ctx = ExperimentContext::new(GenParams::default(), quick);
    for (name, run) in selected {
        eprintln!("=== {name} ===");
        if let Err(e) = run(&mut ctx) {
            eprintln!("{name}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
