//! End-to-end and per-layer benchmark of the knet stack.
//!
//! Three workloads, each chosen to load a different set of layers (see
//! each module's docs for the why), all driven only through the program's
//! public API on the sequential engine:
//!
//! * [`tenant_mix`] — open loop over MX, ~20k logical clients in four
//!   tenant classes on a lossless fabric;
//! * [`orfs_fanin`] — closed loop over GM, eight ORFA clients doing direct
//!   64 kB `pread`/`pwrite` against one ORFS server at 1 % loss;
//! * [`kv_failover`] — open loop over MX against a replicated KV store
//!   whose primary node is killed early, at 1 % loss.
//!
//! `main.rs` turns runs into the JSON the harness reads; [`stats`] holds
//! the percentile and failure-accounting rules; [`trace`] the host-time
//! spans of the traced run.

pub mod kv_failover;
pub mod layers;
pub mod orfs_fanin;
pub mod run;
pub mod stats;
pub mod tenant_mix;
pub mod trace;
