//! Zero-simulation static timing analysis (STA) over levelized netlists.
//!
//! The analyzer reuses the levelized/CSR machinery of
//! [`lowvolt_circuit::compiled`]: flip-flop edges are cut, combinational
//! cycles are refused with the compiled engine's collected diagnostics,
//! and the compiled gate tables (level-ascending, so a plain index sweep
//! is a topological order) carry a **forward arrival-time** pass and a
//! **backward required-time** pass. Per-gate delays are priced from the
//! alpha-power-law delay model in [`lowvolt_device`] as a function of
//! `(V_DD, V_T, load)`, where the load is the gate's fanout count times
//! the paper-scale unit load — the same 2 µm drive / 20 fF / `k = 0.5`
//! constants as the ring-oscillator proxy, so STA-backed and
//! ring-oscillator optimizations are physically comparable.
//!
//! The result is a [`StaReport`]: the critical path as a named gate
//! chain, per-node slack (`slack = required − arrival`), and per-endpoint
//! summaries, renderable as text or JSON (through `lowvolt_obs::json`).
//! Endpoint analysis parallelises through [`lowvolt_exec`] with
//! input-ordered, thread-count-invariant output.
//!
//! Operating points with `V_DD ≤ V_T` are reported as **infeasible**
//! (the devices never turn on): arrivals are infinite, the report flags
//! it, and slack-aware consumers (lint rule LV040) treat it as negative
//! slack.

mod analysis;
mod price;
mod profile;
mod report;

pub use analysis::{analyze, analyze_priced, StaConfig, NOMINAL_VDD, NOMINAL_VT};
pub use price::DelayPricer;
pub use profile::{load_profile, CircuitLoadProfile};
pub use report::{EndpointKind, EndpointSummary, NodeSlack, PathStep, StaReport};

use lowvolt_circuit::error::CircuitError;
use lowvolt_device::error::DeviceError;
use std::error::Error;
use std::fmt;

/// Error type for static timing analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum StaError {
    /// The netlist could not be levelized (cycles, multiple drivers,
    /// driven primary inputs — every offending structure is named).
    Circuit(CircuitError),
    /// A delay-model parameter was rejected by the device layer.
    Device(DeviceError),
    /// The netlist has no timing endpoints (no declared outputs and no
    /// registers), so arrival times constrain nothing.
    NoEndpoints,
}

impl fmt::Display for StaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaError::Circuit(e) => write!(f, "static timing analysis refused: {e}"),
            StaError::Device(e) => write!(f, "static timing delay model: {e}"),
            StaError::NoEndpoints => write!(
                f,
                "static timing analysis needs at least one endpoint \
                 (a declared output or a register data pin)"
            ),
        }
    }
}

impl Error for StaError {}

impl From<CircuitError> for StaError {
    fn from(e: CircuitError) -> StaError {
        StaError::Circuit(e)
    }
}

impl From<DeviceError> for StaError {
    fn from(e: DeviceError) -> StaError {
        StaError::Device(e)
    }
}
