//! Host-time spans recorded from the benchmark's own code around every call
//! into a layer of the stack.
//!
//! A span has a kind (the layer boundary it brackets), the op it belongs
//! to (spans of one op share the id; `0` = not tied to an op), its parent
//! (the span open when it started) and host start/end stamps. Spans are
//! kept in memory and written out when the run ends. A span's **self
//! time** is its duration minus the durations of its direct children.
//!
//! Disabled (the default) a span costs one thread-local flag test; the
//! end-to-end metrics are measured that way, and a separate traced run
//! supplies the per-layer numbers.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// The layer boundary a span brackets (discriminants index [`KINDS`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `ClusterBuilder::build`.
    Build,
    /// Installing the workload: endpoints, tenants, files, replicas.
    Install,
    /// One `run_until` slice of the event loop.
    Slice,
    /// `channel_send`.
    ChannelSend,
    /// `knet_orfs::op_read` / `op_write`.
    OrfsSubmit,
    /// `kv_put` / `kv_get`.
    KvSubmit,
    /// The benchmark's completion handlers (reply checks, op bookkeeping).
    Handler,
}

pub const KINDS: [Kind; 7] = [
    Kind::Build,
    Kind::Install,
    Kind::Slice,
    Kind::ChannelSend,
    Kind::OrfsSubmit,
    Kind::KvSubmit,
    Kind::Handler,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Build => "build",
            Kind::Install => "install",
            Kind::Slice => "run_until",
            Kind::ChannelSend => "channel_send",
            Kind::OrfsSubmit => "orfs_submit",
            Kind::KvSubmit => "kv_submit",
            Kind::Handler => "handler",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    pub op: u64,
    /// Index of the enclosing span, `u32::MAX` at top level.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub const NO_PARENT: u32 = u32::MAX;

struct Recorder {
    enabled: bool,
    base: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        base: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Start recording (clears earlier spans).
pub fn enable() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.enabled = true;
        r.base = Instant::now();
        r.spans.clear();
        r.open.clear();
    });
}

/// Stop recording and hand back the spans of the run.
pub fn disable() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.enabled = false;
        debug_assert!(r.open.is_empty(), "span left open");
        std::mem::take(&mut r.spans)
    })
}

fn open(kind: Kind, op: u64) -> Option<u32> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        let id = r.spans.len() as u32;
        let parent = r.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = r.base.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            kind,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        r.open.push(id);
        Some(id)
    })
}

fn close(id: u32) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let end = r.base.elapsed().as_nanos() as u64;
        r.spans[id as usize].end_ns = end;
        let top = r.open.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
    });
}

/// Run `f` inside a span of `kind` for `op`. The recorder is not borrowed
/// while `f` runs, so layers it calls may open nested spans.
#[inline]
pub fn span<R>(kind: Kind, op: u64, f: impl FnOnce() -> R) -> R {
    let id = open(kind, op);
    let out = f();
    if let Some(id) = id {
        close(id);
    }
    out
}

/// Per-kind totals over a set of spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct KindTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-kind totals of a run's spans.
#[derive(Clone, Copy, Debug)]
pub struct Totals([KindTotals; KINDS.len()]);

impl Totals {
    pub fn get(&self, k: Kind) -> KindTotals {
        self.0[k as usize]
    }
}

/// Totals per kind. Self time = duration minus the durations of direct
/// children.
pub fn totals(spans: &[Span]) -> Totals {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out = [KindTotals::default(); KINDS.len()];
    for (i, s) in spans.iter().enumerate() {
        let k = &mut out[s.kind as usize];
        let d = s.end_ns - s.start_ns;
        k.count += 1;
        k.total_ns += d;
        k.self_ns += d.saturating_sub(child_ns[i]);
    }
    Totals(out)
}

/// Write spans as tab-separated lines: id, parent, op, kind, start, end.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "id\tparent\top\tkind\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            f,
            "{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.op,
            s.kind.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    f.flush()
}
