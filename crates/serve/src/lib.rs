//! `lowvolt-serve`: a sharded campaign/sweep job service.
//!
//! The daemon (`lowvolt serve`) listens on TCP, speaks one JSON object
//! per line, and runs the same five job kinds as the CLI — `campaign`,
//! `optimize`, `lint`, `sta`, `profile` — with three guarantees:
//!
//! 1. **Byte-identity**: a job's result payload is byte-for-byte the
//!    stdout of the equivalent CLI command, because both call the same
//!    [`jobs`] layer.
//! 2. **Durability**: campaign jobs journal every completed work item
//!    (`LVJR0001`) in one pass, with a progress event every
//!    `shard_items` items; a killed daemon replays the journaled items
//!    on resubmission instead of recomputing them, and golden traces
//!    persist in a shared `LVGC0001` cache.
//! 3. **Determinism**: sharding never changes results — per-word fault
//!    classification is pointwise, and shard merge is a commutative
//!    max over the engine's class precedence
//!    ([`lowvolt_circuit::faults::FaultOutcome::merge`]).
//!
//! Module map: [`proto`] (wire format, read and written with the
//! workspace's one JSON codec, `lowvolt_obs::json`, re-exported here as
//! [`json`]), [`jobs`] (shared job execution, also used by the CLI),
//! [`server`] (daemon), [`client`] (blocking client for
//! `lowvolt submit` and tests).

pub mod client;
pub mod jobs;
pub use lowvolt_obs::json;
pub mod proto;
pub mod server;
