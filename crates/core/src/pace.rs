//! The driver pacing seam shared by GM and MX.
//!
//! A tenant-stamped send offers itself to its token bucket at the NIC
//! admission point (`knet_simnic::QosState`) before it commits any driver
//! resource. *Admit* runs the driver's admitted pipeline at once, refunding
//! the tokens if it fails; *defer* parks the send in the NIC's per-tenant
//! WDRR lane and arms a pace timer for the refill instant; *shed* fails it
//! with `Overload`. While a tenant's lane is non-empty its new sends park
//! behind it, keeping per-tenant FIFO order. This module is the one copy of
//! offer → admit/park → arm → drain → fail-parked: a driver supplies only
//! its parked-send type ([`PacedSend`]). Lanes drain in WDRR order,
//! weighted by the table next to the policies (`QosState::weight`).

use std::collections::BTreeMap;

use knet_simcore::SimTime;
use knet_simnic::{Admission, NicId, NicWorld};

use crate::driver::ScratchStats;
use crate::error::NetError;
use crate::tenant::{TenantId, WdrrLanes};

/// A send a driver parked in a pacing lane, re-issued verbatim once the
/// tenant's bucket refills. Implemented by each driver's parked-send type
/// (the trait sits on the send, not the world, so a driver crate can
/// implement it for every world that runs the driver).
pub trait PacedSend<W: NicWorld>: Sized {
    /// The world's pacing seam for this driver.
    fn seam(w: &mut W) -> &mut PaceSeam<Self>;

    /// Run the driver's admitted send pipeline (post token bucket).
    fn issue(&self, w: &mut W, tenant: TenantId) -> Result<(), NetError>;

    /// The completion reporting this send as failed (typed and terminal:
    /// no `SendDone` follows) and the node it runs on; `None` drops the
    /// failure because the sending endpoint has closed.
    fn failed(self, w: &W, error: NetError) -> Option<(u32, W::Ev)>;

    /// The world event that fires `nic`'s pace timer ([`pace_fire`]).
    fn pace_event(nic: NicId) -> W::Ev;
}

/// A parked send with its byte cost (bucket and WDRR price).
struct Parked<S> {
    bytes: u64,
    send: S,
}

/// Per-NIC pacing state of one driver.
pub struct PaceSeam<S> {
    /// Sends the token bucket deferred, one WDRR lane per tenant.
    lanes: BTreeMap<NicId, WdrrLanes<Parked<S>>>,
    /// Earliest armed pace timer per NIC (a burst of deferrals arms one
    /// event, not one per send).
    armed: BTreeMap<NicId, SimTime>,
    /// Tenants a drain found blocked, recycled across drains.
    blocked: Vec<u32>,
    blocked_stats: ScratchStats,
}

impl<S> Default for PaceSeam<S> {
    fn default() -> Self {
        PaceSeam {
            lanes: BTreeMap::new(),
            armed: BTreeMap::new(),
            blocked: Vec::new(),
            blocked_stats: ScratchStats::default(),
        }
    }
}

impl<S> PaceSeam<S> {
    /// Sends parked in `nic`'s pacing lanes (all tenants).
    pub fn backlog(&self, nic: NicId) -> usize {
        self.lanes.get(&nic).map_or(0, |l| l.len())
    }

    /// Heap-growth events across all pacing lanes and the drain's blocked
    /// list (flat in steady state; see `tests/hotpath_alloc.rs`).
    pub fn grows(&self) -> u64 {
        self.lanes.values().map(|l| l.grows()).sum::<u64>() + self.blocked_stats.grows
    }

    /// Fold the lanes' scheduler state into a fingerprint accumulator,
    /// each NIC id followed by its lanes (determinism hook).
    pub fn fingerprint(&self, mut mix: impl FnMut(u64)) {
        for (nic, lanes) in &self.lanes {
            mix(nic.0 as u64);
            lanes.fingerprint(&mut mix);
        }
    }
}

/// Offer a `bytes`-long send from `tenant` at `nic`'s admission point.
/// `park` builds the parked form (only called on Defer or behind a busy
/// lane); `issue` runs the admitted pipeline. Returns `Ok(())` once the
/// send is issued or parked (a parked send completes later).
pub fn pace_offer<W: NicWorld, S: PacedSend<W>>(
    w: &mut W,
    nic: NicId,
    tenant: TenantId,
    bytes: u64,
    park: impl FnOnce() -> S,
    issue: impl FnOnce(&mut W) -> Result<(), NetError>,
) -> Result<(), NetError> {
    let lane_busy = S::seam(w)
        .lanes
        .get(&nic)
        .is_some_and(|l| l.lane_len(tenant) > 0);
    if lane_busy {
        return pace_park(w, nic, tenant, bytes, park());
    }
    let now = knet_simcore::now(w);
    match w.nics_mut().qos.admit(nic, tenant.0, bytes, now) {
        Admission::Admit => send_admitted(w, nic, tenant, bytes, issue),
        Admission::Shed => Err(NetError::Overload),
        Admission::Defer { until } => {
            pace_park(w, nic, tenant, bytes, park())?;
            pace_arm::<W, S>(w, nic, until);
            Ok(())
        }
    }
}

/// Run an admitted send, refunding the tokens if it fails before reaching
/// the wire — the one admit-then-send path of both the synchronous offer
/// and the drain.
fn send_admitted<W: NicWorld>(
    w: &mut W,
    nic: NicId,
    tenant: TenantId,
    bytes: u64,
    issue: impl FnOnce(&mut W) -> Result<(), NetError>,
) -> Result<(), NetError> {
    let r = issue(w);
    if r.is_err() {
        w.nics_mut().qos.refund(nic, tenant.0, bytes);
    }
    r
}

/// Park one send in `nic`'s lane for `tenant`, shedding if the lane is at
/// the policy's cap.
fn pace_park<W: NicWorld, S: PacedSend<W>>(
    w: &mut W,
    nic: NicId,
    tenant: TenantId,
    bytes: u64,
    send: S,
) -> Result<(), NetError> {
    let cap = w
        .nics()
        .qos
        .policy(tenant.0)
        .map_or(usize::MAX, |p| p.pace_queue_cap);
    let lanes = S::seam(w).lanes.entry(nic).or_default();
    if lanes.lane_len(tenant) >= cap {
        w.nics_mut().qos.note_shed(tenant.0);
        return Err(NetError::Overload);
    }
    lanes.push(tenant, Parked { bytes, send });
    Ok(())
}

/// Arm (or tighten) `nic`'s pace timer to fire at `until`.
fn pace_arm<W: NicWorld, S: PacedSend<W>>(w: &mut W, nic: NicId, until: SimTime) {
    let armed = &mut S::seam(w).armed;
    if armed.get(&nic).is_some_and(|t| *t <= until) {
        return; // an earlier (or equal) fire is already scheduled
    }
    armed.insert(nic, until);
    let node = w.nics().get(nic).node.0;
    knet_simcore::emit_at(w, node, until, S::pace_event(nic));
}

/// A pace timer fired: clear the dedupe entry it satisfied, then drain.
pub fn pace_fire<W: NicWorld, S: PacedSend<W>>(w: &mut W, nic: NicId) {
    let now = knet_simcore::now(w);
    let armed = &mut S::seam(w).armed;
    if armed.get(&nic).is_some_and(|t| *t <= now) {
        armed.remove(&nic);
    }
    pace_drain::<W, S>(w, nic);
}

/// Drain `nic`'s pacing lanes in WDRR order against the token buckets.
/// Blocked tenants (bucket still dry, driver out of send tokens) are
/// skipped without head-of-line blocking the rest, and the timer is
/// re-armed for the earliest refill. A send that fails with
/// `NoSendTokens` is requeued at the head of its lane; any other failure
/// completes it as `SendFailed`.
pub fn pace_drain<W: NicWorld, S: PacedSend<W>>(w: &mut W, nic: NicId) {
    let seam = S::seam(w);
    let Some(mut lanes) = seam.lanes.remove(&nic) else {
        return;
    };
    let mut blocked = std::mem::take(&mut seam.blocked);
    let cap_before = blocked.capacity();
    blocked.clear();
    let now = knet_simcore::now(w);
    let mut min_defer: Option<SimTime> = None;
    loop {
        let popped = {
            let qos = &w.nics().qos;
            lanes.pop_next_eligible(
                |t| qos.weight(t.0),
                |p| p.bytes,
                |t, _| !blocked.contains(&t.0),
            )
        };
        let Some((t, p)) = popped else { break };
        match w.nics_mut().qos.admit(nic, t.0, p.bytes, now) {
            Admission::Admit => match send_admitted(w, nic, t, p.bytes, |w| p.send.issue(w, t)) {
                Ok(()) => {}
                Err(NetError::NoSendTokens) => {
                    let cost = p.bytes;
                    lanes.requeue_front(t, p, cost);
                    blocked.push(t.0);
                }
                Err(e) => fail_parked(w, p.send, e),
            },
            Admission::Defer { until } => {
                let cost = p.bytes;
                lanes.requeue_front(t, p, cost);
                blocked.push(t.0);
                min_defer = Some(min_defer.map_or(until, |m| m.min(until)));
            }
            Admission::Shed => fail_parked(w, p.send, NetError::Overload),
        }
    }
    // Keep the (possibly empty) lanes: the slab and ring capacities are the
    // steady-state allocation the hot path relies on.
    let seam = S::seam(w);
    seam.lanes.insert(nic, lanes);
    seam.blocked_stats.note(cap_before, blocked.capacity());
    seam.blocked = blocked;
    if let Some(until) = min_defer {
        pace_arm::<W, S>(w, nic, until);
    }
}

/// Complete a parked send as failed, now.
fn fail_parked<W: NicWorld, S: PacedSend<W>>(w: &mut W, send: S, error: NetError) {
    if let Some((node, ev)) = send.failed(w, error) {
        let now = knet_simcore::now(w);
        knet_simcore::emit_at(w, node, now, ev);
    }
}
