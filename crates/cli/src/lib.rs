#![warn(missing_docs)]

//! # lowvolt-cli
//!
//! The command-line face of the toolkit: the paper's §5 methodology as a
//! tool a designer runs, not a library they link.
//!
//! ```text
//! lowvolt profile  --example idea            # fga/bga from execution
//! lowvolt activity --circuit adder8          # alpha from simulation
//! lowvolt optimize --delay-ps 150            # Fig. 3/4 optimum
//! lowvolt compare  --fga 0.1 --bga 0.01      # technology decision
//! lowvolt iv       --vt 0.25                 # device I-V table
//! ```
//!
//! Every subcommand is a function taking parsed arguments and returning
//! its report as a `String`, so the binary stays a thin dispatcher and
//! the tests drive the same code paths the user does. `sta`, whose
//! reports run to megabytes, also has [`stream_sta`], which writes the
//! report into the binary's stdout instead of a string.

pub mod args;
pub mod commands;

pub use args::{parse, Parsed};
pub use commands::{run_command, stream_sta, CliError, CliFailure};
