//! `cfc-bench` — the paper's tables and figures as functions over one
//! shared [`runner::ExperimentContext`] (run by the `experiments` binary and, for
//! Table II, by `tests/paper_tables.rs`), plus the golden-archive fixtures.

pub mod ablation;
pub mod figures;
pub mod golden;
pub mod pgm;
pub mod rng;
pub mod runner;
pub mod tables;
