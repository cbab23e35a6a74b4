//! # lowvolt-bench
//!
//! The experiment harness: one function per table and figure of the
//! paper's evaluation, each returning a printable [`Table`] with the same
//! rows/series the paper reports, plus ablation studies for the design
//! choices called out in DESIGN.md.
//!
//! Consumed by the `regen` binary (prints everything) and the `perf`
//! benchmark harness (times the whole registry as its `regen` stage).
//!
//! [`Table`]: lowvolt_core::report::Table

pub mod experiments;

pub use experiments::{all_experiments, run_experiments_with, BenchError, Experiment};
