//! The benchmark's statistics: percentiles with honest failure accounting,
//! and the virtual-time metric set computed from one run's op log.
//!
//! Every rule here is pinned by `tests/stats.rs`:
//!
//! * percentiles are **nearest-rank** (`rank = ceil(q·n)`, 1-based), so a
//!   reported percentile is always a latency that really occurred;
//! * a tail percentile is reported only when at least
//!   [`MIN_BEYOND`] samples lie beyond it — otherwise it describes a
//!   handful of outliers, not a tail;
//! * an op that failed, was refused or shed, or never resolved enters the
//!   latency distribution as the **full virtual run length**, which is at
//!   least every successful latency of the run — so turning a failure into
//!   a slow success can never worsen a percentile.

/// Samples that must lie strictly beyond a tail percentile for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` over `n` samples (`n >= 1`).
pub fn nearest_rank(n: usize, q: f64) -> usize {
    assert!(n >= 1, "nearest rank of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    // Quantiles are given as decimal fractions; scale in integers so
    // 0.999 × 1000 is exactly rank 999, not 999.000…01 → 1000.
    let q_ppm = (q * 1e6).round() as u128;
    let rank = (q_ppm * n as u128).div_ceil(1_000_000) as usize;
    rank.clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), q) - 1])
}

/// A tail percentile with its support: the value is `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: Option<u64>,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    pub samples: usize,
}

pub fn tail_percentile(sorted: &[u64], q: f64) -> Tail {
    if sorted.is_empty() {
        return Tail {
            value: None,
            beyond: 0,
            samples: 0,
        };
    }
    let rank = nearest_rank(sorted.len(), q);
    let beyond = sorted.len() - rank;
    Tail {
        value: (beyond >= MIN_BEYOND).then(|| sorted[rank - 1]),
        beyond,
        samples: sorted.len(),
    }
}

/// How an op ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Issued, not resolved (yet).
    Pending,
    Ok,
    /// Rejected synchronously by a full queue (`SendQueueFull`).
    Refused,
    /// Shed by admission control (`Overload`).
    Shed,
    /// Resolved with a typed error.
    Failed,
    /// Still unresolved at the workload's virtual-time limit.
    Unresolved,
}

/// Which metric families an op feeds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Role {
    /// Counts toward `p50_us`/`p99_us`/`p999_us`.
    pub latency: bool,
    /// The write half: `write_p99_us` and `blackout_ms`.
    pub write: bool,
    /// The workload's protected class: `victim_p99_us`.
    pub victim: bool,
}

/// One op of a run, in virtual nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct OpRec {
    /// The instant the op was due (its scheduled arrival, or the previous
    /// completion of a closed-loop client).
    pub due: u64,
    /// Resolution instant; meaningful once `status != Pending`.
    pub end: u64,
    /// Payload bytes the op moves when it succeeds.
    pub bytes: u64,
    pub role: Role,
    pub status: Status,
}

impl OpRec {
    pub fn new(due: u64, bytes: u64, role: Role) -> Self {
        OpRec {
            due,
            end: due,
            bytes,
            role,
            status: Status::Pending,
        }
    }
}

/// One metric family's samples from a session: the latencies of the
/// successful ops, ascending, and how many ops failed — each failure counts
/// as the session's full run length.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Samples {
    pub ok: Vec<u64>,
    pub failed: u64,
}

pub fn samples(ops: &[OpRec], pick: impl Fn(&OpRec) -> bool) -> Samples {
    let mut out = Samples::default();
    for o in ops.iter().filter(|o| pick(o)) {
        if o.status == Status::Ok {
            out.ok.push(o.end - o.due);
        } else {
            out.failed += 1;
        }
    }
    out.ok.sort_unstable();
    out
}

/// Samples of several sessions pooled: every success, plus each session's
/// failures at that session's run length.
pub struct Pool {
    ok: Vec<u64>,
    /// (run length, failures), ascending by run length.
    failed: Vec<(u64, u64)>,
}

impl Pool {
    pub fn new<'a>(sets: impl IntoIterator<Item = (&'a Samples, u64)>) -> Pool {
        let (mut ok, mut failed) = (Vec::new(), Vec::new());
        for (s, run_len) in sets {
            ok.extend_from_slice(&s.ok);
            if s.failed > 0 {
                failed.push((run_len, s.failed));
            }
        }
        ok.sort_unstable();
        failed.sort_unstable();
        Pool { ok, failed }
    }

    pub fn len(&self) -> usize {
        self.ok.len() + self.failed.iter().map(|f| f.1 as usize).sum::<usize>()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Samples at most `x`.
    fn rank_of(&self, x: u64) -> usize {
        self.ok.partition_point(|&v| v <= x)
            + self
                .failed
                .iter()
                .take_while(|f| f.0 <= x)
                .map(|f| f.1 as usize)
                .sum::<usize>()
    }

    /// The `rank`-th smallest sample (1-based).
    fn nth(&self, rank: usize) -> u64 {
        let from_ok = self
            .ok
            .get(self.ok.partition_point(|&v| self.rank_of(v) < rank))
            .copied();
        let from_failed = self
            .failed
            .iter()
            .map(|f| f.0)
            .find(|&v| self.rank_of(v) >= rank);
        match (from_ok, from_failed) {
            (Some(a), Some(b)) => a.min(b),
            (a, b) => a.or(b).expect("rank within the pool"),
        }
    }

    /// Nearest-rank percentile; `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        (!self.is_empty()).then(|| self.nth(nearest_rank(self.len(), q)))
    }

    /// [`tail_percentile`] over the pool.
    pub fn tail(&self, q: f64) -> Tail {
        let n = self.len();
        if n == 0 {
            return tail_percentile(&[], q);
        }
        let rank = nearest_rank(n, q);
        Tail {
            value: (n - rank >= MIN_BEYOND).then(|| self.nth(rank)),
            beyond: n - rank,
            samples: n,
        }
    }
}

/// Op counts by outcome. `attempted == ok + failed_total()` always holds
/// once every op is resolved (the workloads mark leftovers `Unresolved`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub attempted: u64,
    pub ok: u64,
    pub refused: u64,
    pub shed: u64,
    pub failed: u64,
    pub unresolved: u64,
    pub pending: u64,
}

impl Counts {
    pub fn of(ops: &[OpRec]) -> Counts {
        let mut c = Counts {
            attempted: ops.len() as u64,
            ..Counts::default()
        };
        for o in ops {
            match o.status {
                Status::Ok => c.ok += 1,
                Status::Refused => c.refused += 1,
                Status::Shed => c.shed += 1,
                Status::Failed => c.failed += 1,
                Status::Unresolved => c.unresolved += 1,
                Status::Pending => c.pending += 1,
            }
        }
        c
    }

    /// Refused + shed + failed + never resolved.
    pub fn failed_total(&self) -> u64 {
        self.refused + self.shed + self.failed + self.unresolved + self.pending
    }

    /// `failed_total / attempted` (0 for an empty run).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed_total() as f64 / self.attempted as f64
    }

    /// Every attempted op is accounted for exactly once.
    pub fn balanced(&self) -> bool {
        self.attempted == self.ok + self.failed_total()
    }
}

/// Virtual time from `from` to the first successful write resolved at or
/// after it; if there is none, the rest of the run (`end - from`).
pub fn blackout_ns(ops: &[OpRec], from: u64, end: u64) -> u64 {
    ops.iter()
        .filter(|o| o.role.write && o.status == Status::Ok && o.end >= from)
        .map(|o| o.end)
        .min()
        .unwrap_or(end)
        .max(from)
        - from
}

/// One session folded down to what the metrics need: the latency samples
/// of each family (failures already entered as the session's run length),
/// the op counts, the payload of successful ops and the blackout.
#[derive(Clone, Debug, PartialEq)]
pub struct Session {
    pub lat: Samples,
    pub write: Samples,
    pub victim: Samples,
    pub counts: Counts,
    pub good_bytes: u64,
    pub run_len: u64,
    pub blackout: u64,
}

/// Without a fault, any instant could have been the fault: the mean, over
/// every instant `t` in `[from, to]`, of the time from `t` until the next
/// write acknowledged at or after `t` (or `end`, if none is). `acks` are
/// the acknowledgement instants, ascending.
pub fn mean_residual_ns(acks: &[u64], from: u64, to: u64, end: u64) -> u64 {
    if to <= from {
        return 0;
    }
    // ∫ (next(t) − t) dt over [a, b] when next(t) = n throughout.
    let piece = |a: u64, b: u64, n: u64| {
        let (da, db) = ((n - a) as f64, (n - b) as f64);
        (da * da - db * db) / 2.0
    };
    let mut t = from;
    let mut area = 0.0;
    for &a in acks.iter().filter(|&&a| a >= from) {
        if a >= to {
            area += piece(t, to, a);
            t = to;
            break;
        }
        area += piece(t, a, a);
        t = a;
    }
    if t < to {
        area += piece(t, to, end.max(to));
    }
    (area / (to - from) as f64).round() as u64
}

/// Fold a session's op log. The run phase spans `[start, end]`. With a
/// fault at `kill`, the blackout runs from the kill to the first write
/// acknowledged after it; without one, it is [`mean_residual_ns`] over the
/// span in which writes were offered.
pub fn summarize(ops: &[OpRec], start: u64, end: u64, kill: Option<u64>) -> Session {
    let run_len = end.saturating_sub(start).max(1);
    let blackout = match kill {
        Some(k) => blackout_ns(ops, k, end),
        None => {
            let mut acks: Vec<u64> = ops
                .iter()
                .filter(|o| o.role.write && o.status == Status::Ok)
                .map(|o| o.end)
                .collect();
            acks.sort_unstable();
            let dues = ops.iter().filter(|o| o.role.write).map(|o| o.due);
            let (first, last) = dues.fold((u64::MAX, 0), |(lo, hi), d| (lo.min(d), hi.max(d)));
            mean_residual_ns(&acks, first, last, end)
        }
    };
    Session {
        lat: samples(ops, |o| o.role.latency),
        write: samples(ops, |o| o.role.write),
        victim: samples(ops, |o| o.role.victim),
        counts: Counts::of(ops),
        good_bytes: ops
            .iter()
            .filter(|o| o.status == Status::Ok)
            .map(|o| o.bytes)
            .sum(),
        run_len,
        blackout,
    }
}

impl Session {
    /// Order-sensitive hash of everything the metrics derive from: two runs
    /// of the same session must agree on it exactly.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for v in [&self.lat, &self.write, &self.victim] {
            mix(v.ok.len() as u64);
            v.ok.iter().for_each(|&x| mix(x));
            mix(v.failed);
        }
        let c = &self.counts;
        for x in [
            c.attempted,
            c.ok,
            c.refused,
            c.shed,
            c.failed,
            c.unresolved,
            c.pending,
        ] {
            mix(x);
        }
        for x in [self.good_bytes, self.run_len, self.blackout] {
            mix(x);
        }
        h
    }
}

/// The nine virtual-time end-to-end metrics of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct VirtualMetrics {
    pub p50_us: f64,
    pub p99_us: f64,
    pub p999: Tail,
    pub write_p99_us: f64,
    pub victim_p99_us: f64,
    pub goodput_mbps: f64,
    pub failed_ratio: f64,
    pub ops_completed: u64,
    pub blackout_ms: f64,
    pub counts: Counts,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn pooled(sessions: &[Session], pick: impl Fn(&Session) -> &Samples) -> Pool {
    Pool::new(sessions.iter().map(|s| (pick(s), s.run_len)))
}

/// Pool the sessions of a run: percentiles over all their samples,
/// goodput over their summed virtual time, counts summed, blackout the
/// median over sessions.
pub fn virtual_metrics(sessions: &[Session]) -> VirtualMetrics {
    assert!(!sessions.is_empty(), "a run has at least one session");
    let lat = pooled(sessions, |s| &s.lat);
    let writes = pooled(sessions, |s| &s.write);
    let victims = pooled(sessions, |s| &s.victim);
    let longest = sessions.iter().map(|s| s.run_len).max().unwrap_or(1);
    let mut counts = Counts::default();
    for s in sessions {
        let c = &s.counts;
        counts.attempted += c.attempted;
        counts.ok += c.ok;
        counts.refused += c.refused;
        counts.shed += c.shed;
        counts.failed += c.failed;
        counts.unresolved += c.unresolved;
        counts.pending += c.pending;
    }
    let virtual_ns: u64 = sessions.iter().map(|s| s.run_len).sum();
    let good: u64 = sessions.iter().map(|s| s.good_bytes).sum();
    let blackouts: Vec<f64> = sessions.iter().map(|s| s.blackout as f64 / 1e6).collect();
    VirtualMetrics {
        p50_us: us(lat.percentile(0.50).unwrap_or(longest)),
        p99_us: us(lat.percentile(0.99).unwrap_or(longest)),
        p999: lat.tail(0.999),
        write_p99_us: us(writes.percentile(0.99).unwrap_or(longest)),
        victim_p99_us: us(victims.percentile(0.99).unwrap_or(longest)),
        // Bytes per virtual microsecond == MB/s.
        goodput_mbps: good as f64 / (virtual_ns as f64 / 1e3),
        failed_ratio: counts.failed_ratio(),
        ops_completed: counts.ok,
        blackout_ms: median(&blackouts),
        counts,
    }
}

/// Median of unsorted samples (mean of the middle pair for even `n`).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
