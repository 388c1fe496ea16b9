//! What every workload provides: a set-up phase (build the world, install
//! the workload), a run phase, and a finish step that checks the outputs
//! and hands back the op log and the per-layer counters.

use crate::stats::{OpRec, Status};

/// Workload parameters taken from the command line.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Seeds every input the workload generates (arrivals, keys, offsets,
    /// op mix) and the fabric's loss dice.
    pub seed: u64,
    /// Size of the workload in percent (100 = the benchmark; the tests run
    /// a few percent).
    pub scale_pct: u64,
}

impl Config {
    /// `n` scaled to the configured size, never below 1.
    pub fn scaled(&self, n: u64) -> u64 {
        (n * self.scale_pct / 100).max(1)
    }
}

/// Everything a finished run reports.
pub struct RunOutput {
    pub ops: Vec<OpRec>,
    /// Virtual instants (ns) bounding the run phase.
    pub start: u64,
    pub end: u64,
    /// The fault instant `blackout_ms` is measured from, if the workload
    /// injects one.
    pub kill: Option<u64>,
    /// Per-layer counters (virtual, deterministic per seed).
    pub layers: Vec<(&'static str, f64)>,
    /// Workload-specific figures printed beside the metrics (not part of
    /// the benchmark's metric set).
    pub notes: Vec<(String, f64)>,
    /// Correctness violations; empty when every check passed.
    pub errors: Vec<String>,
}

pub trait Workload {
    /// The run phase: drive the event loop until every op has resolved or
    /// hit the workload's virtual-time limit.
    fn run(&mut self);
    /// Check the outputs and collect the results.
    fn finish(self: Box<Self>) -> RunOutput;
}

pub const NAMES: [&str; 3] = ["tenant-mix", "orfs-fanin", "kv-failover"];

/// Independent sessions per run, each a fresh world on its own seed
/// derived from the run's seed; their samples are pooled. More sessions
/// buy steadier figures (the tails, and orfs-fanin's defect-driven
/// failures, vary a lot between seeds) at proportional host time.
pub fn sessions(name: &str) -> u64 {
    match name {
        "tenant-mix" => crate::tenant_mix::SESSIONS,
        "orfs-fanin" => crate::orfs_fanin::SESSIONS,
        "kv-failover" => crate::kv_failover::SESSIONS,
        _ => 1,
    }
}

/// Seed of session `i` of a run on `seed`.
pub fn session_seed(seed: u64, i: u64) -> u64 {
    let mut s = seed ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03);
    splitmix(&mut s)
}

/// Build the world and install the named workload (the timed set-up).
pub fn setup(name: &str, cfg: &Config) -> Option<Box<dyn Workload>> {
    Some(match name {
        "tenant-mix" => Box::new(crate::tenant_mix::setup(cfg)),
        "orfs-fanin" => Box::new(crate::orfs_fanin::setup(cfg)),
        "kv-failover" => Box::new(crate::kv_failover::setup(cfg)),
        _ => return None,
    })
}

/// Resolve one op of `ops`; a second resolution is a correctness error.
pub fn resolve(ops: &mut [OpRec], op: usize, status: Status, at: u64, errors: &mut Vec<String>) {
    match ops.get_mut(op) {
        Some(o) if o.status == Status::Pending => {
            o.status = status;
            o.end = at;
        }
        Some(o) => errors.push(format!(
            "op {op} resolved twice ({:?} then {status:?})",
            o.status
        )),
        None => errors.push(format!("resolution for unknown op {op}")),
    }
}

/// Checks every workload shares: no engine invariant broke, and every
/// attempted op is accounted for exactly once.
pub fn common_checks(w: &knet::ClusterWorld, ops: &[OpRec], errors: &mut Vec<String>) {
    let engine_errors = w.sched.engine_stats().errors;
    if engine_errors != 0 {
        errors.push(format!("{engine_errors} engine errors"));
    }
    let c = crate::stats::Counts::of(ops);
    if c.pending != 0 {
        errors.push(format!("{} ops left pending", c.pending));
    }
    if !c.balanced() {
        errors.push(format!("op accounting does not balance: {c:?}"));
    }
}

/// splitmix64: the benchmark's input generator.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` with 53 bits.
pub fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}
