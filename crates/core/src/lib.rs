#![warn(missing_docs)]

//! # lowvolt-core
//!
//! The paper's primary contribution as a library: CAD models and
//! optimisers for low-voltage digital system design.
//!
//! - [`power`] — the three CMOS power components of §2 (Eq. 1 switching,
//!   short-circuit, sub-threshold leakage).
//! - [`activity`] — the §5.1 activity variables `fga`, `bga`, `α` and
//!   their extraction from profiler and trace outputs.
//! - [`energy`] — the §5.2 burst-mode per-cycle energy models: `E_SOI`
//!   (Eq. 3), `E_SOIAS` (Eq. 4), and their generalisation to MTCMOS and
//!   substrate-biased technologies.
//! - [`optimizer`] — §3: iso-delay `V_DD(V_T)` curves and the
//!   fixed-throughput energy optimum (Figs. 3–4).
//! - [`tradeoff`] — §5.4: the `log(E_SOIAS/E_SOI)` surface over
//!   `(fga, bga)`, its breakeven contour, and application operating
//!   points (Fig. 10).
//! - [`granularity`] — §5.2's V_T-control granularity question
//!   (transistor vs block vs chip).
//! - [`mtcmos`] — sleep-transistor sizing for the multi-threshold option.
//! - [`shutdown`] — event-driven shutdown policies for the §4 scenario.
//! - [`estimator`] — an end-to-end design power estimator combining all
//!   of the above.
//! - [`report`] — plain-text tables and CSV emission for the experiment
//!   harness.
//!
//! # Example: the Fig. 4 optimum
//!
//! ```
//! use lowvolt_core::optimizer::FixedThroughputOptimizer;
//! use lowvolt_device::units::{Seconds, Volts};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let opt = FixedThroughputOptimizer::paper_ring(Seconds::from_nanos(2.0))?;
//! let best = opt.optimum(Seconds(1e-6))?; // 1 MHz throughput
//! // The optimum supply is far below the 3 V convention of the era:
//! assert!(best.vdd.0 < 1.0);
//! assert!(best.vt.0 > 0.0 && best.vt.0 < 0.5);
//! # Ok(())
//! # }
//! ```

pub mod activity;
pub mod energy;
pub mod error;
/// The parallel execution engine (re-exported from `lowvolt-exec`, the
/// bottom of the crate stack, so the circuit layer can share it):
/// [`exec::ExecPolicy`] selects a worker count
/// (`LOWVOLT_THREADS`-aware), [`exec::parallel_map`] runs a chunked
/// scoped-thread map with deterministic, input-ordered results. The
/// optimizer grid, sensitivity analysis, and tradeoff surface all accept
/// a policy via their `*_with` constructors.
pub mod exec {
    pub use lowvolt_exec::*;
}
/// The observability layer (re-exported from `lowvolt-obs`): the
/// [`obs::Recorder`] trait with its zero-cost [`obs::NoopRecorder`]
/// default, the [`obs::MetricsRegistry`] counter/timer store, and the
/// JSON metrics report and codec. Subsystems across the workspace
/// accept a `&dyn Recorder` via their `*_recorded` entry points.
pub mod obs {
    pub use lowvolt_obs::*;
}
pub mod estimator;
pub mod granularity;
pub mod mtcmos;
pub mod optimizer;
pub mod power;
pub mod report;
pub mod scaling;
pub mod sensitivity;
pub mod shutdown;
pub mod tradeoff;

pub use activity::ActivityVars;
pub use energy::{BlockParams, BurstEnergyModel};
pub use error::CoreError;
