//! `cfc-bench` — shared experiment-harness plumbing for the per-table /
//! per-figure binaries.

pub mod golden;
pub mod pgm;
pub mod rng;
pub mod runner;

pub use runner::{run_codec, ExperimentContext, FieldResult, PAPER_ERROR_BOUNDS};
