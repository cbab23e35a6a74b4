#![warn(missing_docs)]

//! # lowvolt-circuit
//!
//! Gate-level circuit substrate: netlists, an event-driven logic simulator
//! with per-node transition counting, a standard-cell library, datapath
//! generators (ripple-carry/carry-lookahead adders, barrel shifter, array
//! multiplier), register switched-capacitance models, and ring-oscillator
//! evaluation.
//!
//! This crate plays the role of the switch-level simulator (IRSIM) in the
//! paper's §5.3 tool flow: it extracts the node transition activity `α`
//! that the energy models consume, including "the extra transitions due to
//! glitching in static CMOS circuits" — glitches arise naturally from the
//! simulator's non-zero gate delays racing through the carry chain.
//!
//! # Example
//!
//! Measure the transition activity of an 8-bit ripple-carry adder under
//! random stimuli (the paper's Fig. 8 experiment):
//!
//! ```
//! use lowvolt_circuit::adder::ripple_carry_adder;
//! use lowvolt_circuit::netlist::Netlist;
//! use lowvolt_circuit::sim::Simulator;
//! use lowvolt_circuit::stimulus::PatternSource;
//!
//! # fn main() -> Result<(), lowvolt_circuit::CircuitError> {
//! let mut n = Netlist::new();
//! let adder = ripple_carry_adder(&mut n, 8)?;
//! let mut sim = Simulator::new(&n);
//! let mut patterns = PatternSource::random(17, 42)?; // a[8] ++ b[8] ++ cin
//! let report = sim.measure_activity(&mut patterns, &adder.input_nodes(), 200, 8)?;
//! assert!(report.mean_transition_probability() > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod activity;
pub mod adder;
pub mod alu;
pub mod cells;
pub mod compiled;
pub mod error;
pub mod faults;
pub mod logic;
pub mod lower;
pub mod multiplier;
pub mod netlist;
pub mod persist;
pub mod registers;
pub mod ring;
pub mod sequential;
pub mod shifter;
pub mod sim;
pub mod stimulus;
pub mod switch_registers;
pub mod switchlevel;
pub mod timing;

pub use error::CircuitError;
pub use logic::Bit;
pub use netlist::{Circuit, GateId, GateKind, Netlist, NodeId};
