//! Tenant identity and weighted deficit-round-robin (WDRR) queueing.
//!
//! The consumer registry names every endpoint's owner; this module makes
//! that ownership schedulable. A [`TenantId`] is a consumer *group* minted
//! at registry registration ([`TenantTable::create`]) and carried on every
//! send from the channel layer down to the NIC admission point. Each
//! queueing point the send crosses — the per-channel backpressure queue,
//! the driver-seam pacing queues in the GM/MX layers — holds one
//! [`WdrrLanes`] instead of a single FIFO: one lane per tenant, drained by
//! deficit round robin weighted by the tenant's registered weight.
//!
//! Two properties the rest of the system depends on:
//!
//! * **Single-tenant degeneracy:** with one active tenant the scheduler is
//!   *exactly* a FIFO — same pop order, same stats — so every workload
//!   that never registers a tenant behaves bit-identically to the
//!   pre-tenant code.
//! * **Determinism:** all state is integer, rotation order is by dense
//!   lane index, and nothing reads wall-clock time — the drain order is a
//!   pure function of the push/pop history, which keeps every run
//!   bit-identical per seed (the WDRR state is folded into the
//!   `tests/determinism.rs` golden fingerprints).

use std::collections::VecDeque;

/// A consumer group sharing one scheduling identity (weight, token
/// bucket, stats row) across every queueing point of the send path.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The implicit tenant of every endpoint that never registered one.
    pub const DEFAULT: TenantId = TenantId(0);
}

/// Bytes of credit one weight unit earns per WDRR rotation. One MTU-ish
/// quantum keeps the schedule smooth: a weight-2 tenant drains two 4 KiB
/// messages for every one a weight-1 tenant drains.
pub const WDRR_QUANTUM_BYTES: u64 = 4096;

/// Per-tenant channel-layer counters (one row per tenant; the global
/// `RegistryStats` counters stay the cross-tenant sums).
#[derive(Clone, Copy, Debug, Default)]
pub struct TenantSendStats {
    /// Channel sends parked under backpressure.
    pub queued_sends: u64,
    /// Parked sends successfully retried after a `SendDone`.
    pub retried_sends: u64,
    /// Parked sends completed as `SendFailed` (retry failure, eviction,
    /// teardown, dead peer).
    pub failed_retries: u64,
    /// Parked sends withdrawn by `channel_abort_queued_send`.
    pub aborted_queued_sends: u64,
    /// Sends admitted synchronously (straight to the transport).
    pub direct_sends: u64,
}

/// One registered tenant: display name plus WDRR weight.
#[derive(Clone, Debug)]
pub struct TenantInfo {
    pub name: String,
    /// Relative drain weight (clamped to ≥ 1 when scheduling).
    pub weight: u64,
}

/// One per-tenant stats row as surfaced by `Registry::tenant_rows` (the
/// channel-layer half; the composed world merges the NIC-admission half
/// into its own per-tenant rows).
#[derive(Clone, Debug)]
pub struct TenantChannelRow {
    pub id: TenantId,
    pub name: String,
    pub weight: u64,
    pub stats: TenantSendStats,
}

/// The registry's tenant directory: dense ids, idempotent registration.
pub struct TenantTable {
    infos: Vec<TenantInfo>,
    /// Per-tenant channel-layer counters, indexed by `TenantId.0`.
    pub stats: Vec<TenantSendStats>,
}

impl Default for TenantTable {
    fn default() -> Self {
        // Tenant 0 always exists: the unregistered world's identity.
        TenantTable {
            infos: vec![TenantInfo {
                name: "default".to_string(),
                weight: 1,
            }],
            stats: vec![TenantSendStats::default()],
        }
    }
}

impl TenantTable {
    /// Mint a tenant id (idempotent by name: re-registering returns the
    /// existing id without touching its weight).
    pub fn create(&mut self, name: &str, weight: u64) -> TenantId {
        if let Some(i) = self.infos.iter().position(|t| t.name == name) {
            return TenantId(i as u32);
        }
        let id = TenantId(self.infos.len() as u32);
        self.infos.push(TenantInfo {
            name: name.to_string(),
            weight: weight.max(1),
        });
        self.stats.push(TenantSendStats::default());
        id
    }

    pub fn count(&self) -> usize {
        self.infos.len()
    }

    /// The id minted for `name`, if any (no side effects — the read-only
    /// twin of [`Self::create`]).
    pub fn lookup(&self, name: &str) -> Option<TenantId> {
        self.infos
            .iter()
            .position(|t| t.name == name)
            .map(|i| TenantId(i as u32))
    }

    pub fn name(&self, t: TenantId) -> Option<&str> {
        self.infos.get(t.0 as usize).map(|i| i.name.as_str())
    }

    /// The tenant's WDRR weight (1 for unknown tenants).
    pub fn weight(&self, t: TenantId) -> u64 {
        self.infos
            .get(t.0 as usize)
            .map(|i| i.weight.max(1))
            .unwrap_or(1)
    }

    /// Bump a per-tenant counter via `f` (no-op for unknown tenants; the
    /// stats vector is dense so registered tenants always hit).
    pub fn note(&mut self, t: TenantId, f: impl FnOnce(&mut TenantSendStats)) {
        if let Some(s) = self.stats.get_mut(t.0 as usize) {
            f(s);
        }
    }
}

struct Lane<T> {
    q: VecDeque<T>,
    /// Byte credit accumulated by WDRR rotations, spent by pops.
    deficit: u64,
}

/// Per-tenant queues drained by weighted deficit round robin.
///
/// Lanes are a dense slab indexed by `TenantId.0`: they are created on
/// first use and never removed, and each lane's ring buffer keeps its
/// capacity across drains — in steady state a push/pop cycle performs no
/// heap allocation (observable through [`WdrrLanes::grows`], asserted flat
/// by `tests/hotpath_alloc.rs`).
pub struct WdrrLanes<T> {
    lanes: Vec<Lane<T>>,
    len: usize,
    /// Lanes currently holding at least one item.
    active: usize,
    /// The lane the scheduler is currently serving.
    cursor: usize,
    /// Whether `cursor`'s lane already received its quantum this visit.
    granted: bool,
    /// Allocation events: lane-slab growth + lane ring-buffer growth.
    grows: u64,
}

impl<T> Default for WdrrLanes<T> {
    fn default() -> Self {
        WdrrLanes {
            lanes: Vec::new(),
            len: 0,
            active: 0,
            cursor: 0,
            granted: false,
            grows: 0,
        }
    }
}

impl<T> WdrrLanes<T> {
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Items parked for one tenant.
    pub fn lane_len(&self, t: TenantId) -> usize {
        self.lanes.get(t.0 as usize).map(|l| l.q.len()).unwrap_or(0)
    }

    /// Lanes ever materialized (the slab's high-water mark).
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Heap-growth events (lane slab + ring buffers). Flat in steady state.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    fn lane_mut(&mut self, t: TenantId) -> &mut Lane<T> {
        let i = t.0 as usize;
        while self.lanes.len() <= i {
            self.lanes.push(Lane {
                q: VecDeque::new(),
                deficit: 0,
            });
            self.grows += 1;
        }
        &mut self.lanes[i]
    }

    /// Append an item to its tenant's lane (FIFO within the tenant).
    pub fn push(&mut self, t: TenantId, item: T) {
        let lane = self.lane_mut(t);
        let cap = lane.q.capacity();
        let was_empty = lane.q.is_empty();
        lane.q.push_back(item);
        let grew = lane.q.capacity() > cap;
        if was_empty {
            self.active += 1;
        }
        if grew {
            self.grows += 1;
        }
        self.len += 1;
    }

    /// Pop the next item in WDRR order. `weight_of` maps a tenant to its
    /// weight, `cost_of` prices an item in bytes. With a single active
    /// tenant this is exactly `pop_front` on that lane.
    pub fn pop_next(
        &mut self,
        weight_of: impl Fn(TenantId) -> u64,
        cost_of: impl Fn(&T) -> u64,
    ) -> Option<(TenantId, T)> {
        if self.len == 0 {
            return None;
        }
        // Single-tenant degeneracy: one active lane is a plain FIFO, with
        // no deficit bookkeeping to diverge from the pre-tenant behaviour
        // (and no quantum-sized spinning for oversized messages).
        if self.active == 1 {
            let i = self.lanes.iter().position(|l| !l.q.is_empty())?;
            return Some((TenantId(i as u32), self.take_front(i)?));
        }
        loop {
            let i = self.cursor;
            if self.lanes[i].q.is_empty() {
                self.lanes[i].deficit = 0;
                self.advance();
                continue;
            }
            if !self.granted {
                let quantum = weight_of(TenantId(i as u32)).max(1) * WDRR_QUANTUM_BYTES;
                self.lanes[i].deficit = self.lanes[i].deficit.saturating_add(quantum);
                self.granted = true;
            }
            let cost = cost_of(self.lanes[i].q.front().expect("non-empty"));
            if self.lanes[i].deficit >= cost {
                self.lanes[i].deficit -= cost;
                let item = self.take_front(i)?;
                return Some((TenantId(i as u32), item));
            }
            self.advance();
        }
    }

    /// Like [`WdrrLanes::pop_next`], but lanes whose head fails `eligible`
    /// are passed over without popping. Their deficit is kept — the tenant
    /// is *blocked* (over its admission rate, out of driver tokens), not
    /// idle — so a blocked noisy tenant never head-of-line blocks the
    /// others. Returns `None` once every non-empty lane is ineligible.
    pub fn pop_next_eligible(
        &mut self,
        weight_of: impl Fn(TenantId) -> u64,
        cost_of: impl Fn(&T) -> u64,
        mut eligible: impl FnMut(TenantId, &T) -> bool,
    ) -> Option<(TenantId, T)> {
        if self.len == 0 {
            return None;
        }
        if self.active == 1 {
            let i = self.lanes.iter().position(|l| !l.q.is_empty())?;
            let head = self.lanes[i].q.front().expect("non-empty");
            if !eligible(TenantId(i as u32), head) {
                return None;
            }
            return Some((TenantId(i as u32), self.take_front(i)?));
        }
        // `barren` counts consecutive visits that made no progress (empty or
        // ineligible lane); a full barren rotation means nothing is poppable.
        let mut barren = 0usize;
        loop {
            if barren >= self.lanes.len() {
                return None;
            }
            let i = self.cursor;
            if self.lanes[i].q.is_empty() {
                self.lanes[i].deficit = 0;
                self.advance();
                barren += 1;
                continue;
            }
            if !eligible(
                TenantId(i as u32),
                self.lanes[i].q.front().expect("non-empty"),
            ) {
                self.advance();
                barren += 1;
                continue;
            }
            if !self.granted {
                let quantum = weight_of(TenantId(i as u32)).max(1) * WDRR_QUANTUM_BYTES;
                self.lanes[i].deficit = self.lanes[i].deficit.saturating_add(quantum);
                self.granted = true;
            }
            let cost = cost_of(self.lanes[i].q.front().expect("non-empty"));
            if self.lanes[i].deficit >= cost {
                self.lanes[i].deficit -= cost;
                let item = self.take_front(i)?;
                return Some((TenantId(i as u32), item));
            }
            self.advance();
            barren = 0; // quantum granted: the eligible lane is converging
        }
    }

    /// Put a popped item back at the front of its lane and refund its
    /// cost, so the next `pop_next` re-issues it first (the transient
    /// retry shape: a drain hit `NoSendTokens` and parks the head again).
    pub fn requeue_front(&mut self, t: TenantId, item: T, cost: u64) {
        let lane = self.lane_mut(t);
        let cap = lane.q.capacity();
        let was_empty = lane.q.is_empty();
        lane.q.push_front(item);
        lane.deficit = lane.deficit.saturating_add(cost);
        let grew = lane.q.capacity() > cap;
        if was_empty {
            self.active += 1;
        }
        if grew {
            self.grows += 1;
        }
        self.len += 1;
        self.cursor = t.0 as usize;
        self.granted = true;
    }

    /// Evict the newest item of one tenant's lane (cap-shrink semantics:
    /// newest-first *within* the tenant, never cross-tenant).
    pub fn evict_newest(&mut self, t: TenantId) -> Option<T> {
        let lane = self.lanes.get_mut(t.0 as usize)?;
        let item = lane.q.pop_back()?;
        if lane.q.is_empty() {
            self.active -= 1;
            lane.deficit = 0;
        }
        self.len -= 1;
        Some(item)
    }

    /// Remove the oldest item matching `pred`, scanning lanes in tenant
    /// order then FIFO within each lane.
    pub fn remove_first(&mut self, mut pred: impl FnMut(&T) -> bool) -> Option<(TenantId, T)> {
        for i in 0..self.lanes.len() {
            if let Some(pos) = self.lanes[i].q.iter().position(&mut pred) {
                let item = self.lanes[i].q.remove(pos)?;
                if self.lanes[i].q.is_empty() {
                    self.active -= 1;
                    self.lanes[i].deficit = 0;
                }
                self.len -= 1;
                return Some((TenantId(i as u32), item));
            }
        }
        None
    }

    /// Keep only items matching `pred` (lane rings keep their capacity).
    pub fn retain(&mut self, mut pred: impl FnMut(&T) -> bool) {
        for lane in &mut self.lanes {
            let was_empty = lane.q.is_empty();
            let before = lane.q.len();
            lane.q.retain(&mut pred);
            self.len -= before - lane.q.len();
            if !was_empty && lane.q.is_empty() {
                self.active -= 1;
                lane.deficit = 0;
            }
        }
    }

    /// Drain everything in tenant order, FIFO within each lane (teardown:
    /// cold path, the one place an allocation is fine).
    pub fn take_all(&mut self) -> Vec<(TenantId, T)> {
        let mut out = Vec::with_capacity(self.len);
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            for item in lane.q.drain(..) {
                out.push((TenantId(i as u32), item));
            }
            lane.deficit = 0;
        }
        self.len = 0;
        self.active = 0;
        self.granted = false;
        self.cursor = 0;
        out
    }

    /// Fold the scheduler's state into a fingerprint accumulator (lane
    /// lengths + deficits + cursor), for determinism checks.
    pub fn fingerprint(&self, mut mix: impl FnMut(u64)) {
        mix(self.len as u64);
        mix(self.cursor as u64);
        mix(self.granted as u64);
        for lane in &self.lanes {
            mix(lane.q.len() as u64);
            mix(lane.deficit);
        }
    }

    fn take_front(&mut self, i: usize) -> Option<T> {
        let item = self.lanes[i].q.pop_front()?;
        if self.lanes[i].q.is_empty() {
            self.active -= 1;
            self.lanes[i].deficit = 0;
            if self.cursor == i {
                self.granted = false;
                self.advance();
            }
        }
        self.len -= 1;
        Some(item)
    }

    fn advance(&mut self) {
        self.cursor = (self.cursor + 1) % self.lanes.len().max(1);
        self.granted = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(l: &mut WdrrLanes<u64>, weights: &[u64]) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        while let Some((t, v)) =
            l.pop_next(|t| weights.get(t.0 as usize).copied().unwrap_or(1), |v| *v)
        {
            out.push((t.0, v));
        }
        out
    }

    #[test]
    fn single_tenant_is_exact_fifo() {
        let mut l = WdrrLanes::default();
        for v in [7u64, 70_000, 3, 9] {
            l.push(TenantId(2), v);
        }
        assert_eq!(
            drain(&mut l, &[1, 1, 1]),
            vec![(2, 7), (2, 70_000), (2, 3), (2, 9)],
            "one active tenant drains FIFO regardless of cost"
        );
    }

    #[test]
    fn weights_bias_the_interleave() {
        let mut l = WdrrLanes::default();
        for _ in 0..8 {
            l.push(TenantId(0), WDRR_QUANTUM_BYTES);
            l.push(TenantId(1), WDRR_QUANTUM_BYTES);
        }
        let order = drain(&mut l, &[1, 3]);
        // In the first 8 pops, the weight-3 tenant gets ~3x the service.
        let head: Vec<u32> = order.iter().take(8).map(|(t, _)| *t).collect();
        let t1 = head.iter().filter(|t| **t == 1).count();
        assert!(t1 >= 5, "weight-3 tenant dominates early service: {head:?}");
        assert_eq!(order.len(), 16, "nothing lost");
    }

    #[test]
    fn requeue_front_preserves_head_position() {
        let mut l = WdrrLanes::default();
        l.push(TenantId(0), 10);
        l.push(TenantId(1), 20);
        let (t, v) = l.pop_next(|_| 1, |v| *v).unwrap();
        l.requeue_front(t, v, v);
        let (t2, v2) = l.pop_next(|_| 1, |v| *v).unwrap();
        assert_eq!((t, v), (t2, v2), "requeued head pops first again");
    }

    #[test]
    fn ineligible_lanes_are_skipped_without_blocking_others() {
        let mut l = WdrrLanes::default();
        for v in 0..3u64 {
            l.push(TenantId(0), v);
            l.push(TenantId(1), 100 + v);
        }
        // Tenant 0 is blocked: only tenant 1's items drain, in FIFO order.
        let mut out = Vec::new();
        while let Some((t, v)) = l.pop_next_eligible(|_| 1, |_| 1, |t, _| t.0 != 0) {
            out.push((t.0, v));
        }
        assert_eq!(out, vec![(1, 100), (1, 101), (1, 102)]);
        assert_eq!(l.lane_len(TenantId(0)), 3, "blocked lane untouched");
        // Unblocking lets the rest drain FIFO.
        let mut rest = Vec::new();
        while let Some((t, v)) = l.pop_next_eligible(|_| 1, |_| 1, |_, _| true) {
            rest.push((t.0, v));
        }
        assert_eq!(rest, vec![(0, 0), (0, 1), (0, 2)]);
    }

    #[test]
    fn eviction_is_per_lane_newest_first() {
        let mut l = WdrrLanes::default();
        for v in 0..4u64 {
            l.push(TenantId(0), v);
            l.push(TenantId(1), 100 + v);
        }
        assert_eq!(l.evict_newest(TenantId(0)), Some(3));
        assert_eq!(l.evict_newest(TenantId(1)), Some(103));
        assert_eq!(l.lane_len(TenantId(0)), 3);
        assert_eq!(l.lane_len(TenantId(1)), 3);
        assert_eq!(l.len(), 6);
    }
}
