//! Channels, completion queues and the consumer dispatch registry — the
//! handle-based face of the kernel network API.
//!
//! The raw [`TransportWorld`](crate::transport::TransportWorld) interface
//! moves bytes but leaves three problems to its callers: *who* consumes an
//! endpoint's completion events, *how* driver quirks (GM's single-segment
//! sends, bounded send tokens) surface, and *where* batching policy lives.
//! This module answers all three:
//!
//! * A **[`Registry`]** maps endpoints to *consumers*. A consumer is either
//!   a **completion queue** ([`CqId`]) that accumulates [`CqEntry`]s for a
//!   polling driver, or a **handler** — an in-kernel upcall the way ORFS,
//!   NBD and the socket layer consume their traffic. Events for endpoints
//!   with no consumer yet are *parked* and replayed on bind, so wiring
//!   order never loses traffic. The composed world routes every driver
//!   event through [`deliver`]; it needs no knowledge of any application.
//!   Queues keep a **per-endpoint index** so [`Registry::cq_pop_for`] /
//!   [`Registry::has_event`] stay cheap when thousands of endpoints share
//!   one queue (no linear scans; see [`RegistryStats::indexed_pops`]).
//! * A **[`Channel`]** is a connected, tagged, vectored message pipe
//!   between two endpoints. Completions go to the channel's consumer: a CQ
//!   ([`channel_connect`] / [`channel_accept`]) or an in-kernel upcall
//!   ([`channel_connect_handler`] — how the zero-copy socket layer
//!   attaches). [`channel_send`] accepts multi-segment [`IoVec`]s on
//!   *every* transport: on GM (not vectorial, §4.1) the segments are
//!   coalesced through a per-channel kernel staging buffer — the copy is
//!   charged to the CPU model, and the caller never sees
//!   [`NetError::Unsupported`].
//! * **Send backpressure** lives in the channel, not in every caller: when
//!   the transport rejects a send for lack of tokens
//!   ([`NetError::NoSendTokens`]), the channel queues it and retries in
//!   order on the next `SendDone`, bounded by
//!   [`Channel::send_queue_cap`] — overflow surfaces as
//!   [`NetError::SendQueueFull`].
//!
//! Worlds participate by implementing [`DispatchWorld`]; applications
//! attach with [`Registry::register`] + [`bind`] and are never named by the
//! world again.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use knet_simos::{cpu_charge, Asid, NodeId, VirtAddr, VmaEvent};

use crate::error::NetError;
use crate::iovec::{read_iovec, IoVec, MemRef};
use crate::tenant::{TenantChannelRow, TenantId, TenantTable, WdrrLanes};
use crate::transport::{Endpoint, TransportEvent, TransportKind, TransportWorld};

/// Handle to a completion queue.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CqId(pub u32);

/// Handle to a registered consumer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ConsumerId(pub u32);

/// Handle to a channel.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ChannelId(pub u32);

/// One completion-queue entry: which endpoint, what happened.
#[derive(Clone, Debug)]
pub struct CqEntry {
    pub ep: Endpoint,
    pub event: TransportEvent,
}

/// A world that hosts the dispatch registry. This is the trait application
/// layers (ORFS, NBD, sockets) are written against.
pub trait DispatchWorld: TransportWorld + Sized {
    fn registry(&self) -> &Registry<Self>;
    fn registry_mut(&mut self) -> &mut Registry<Self>;
}

type Handler<W> = Arc<dyn Fn(&mut W, Endpoint, TransportEvent) + Send + Sync>;

/// Where a consumer's events go.
enum Sink<W> {
    /// Accumulate in a completion queue for polling.
    Cq(CqId),
    /// Synchronous upcall into an application layer.
    Handler(Handler<W>),
}

impl<W> Clone for Sink<W> {
    fn clone(&self) -> Self {
        match self {
            Sink::Cq(cq) => Sink::Cq(*cq),
            Sink::Handler(h) => Sink::Handler(Arc::clone(h)),
        }
    }
}

struct Consumer<W> {
    name: String,
    sink: Sink<W>,
}

/// Registry counters (observable by tests and reports).
#[derive(Clone, Copy, Debug, Default)]
pub struct RegistryStats {
    /// Events routed to a consumer.
    pub delivered: u64,
    /// Events parked because their endpoint had no consumer.
    pub parked: u64,
    /// Parked events replayed when a consumer bound.
    pub replayed: u64,
    /// Events dropped because their completion queue was destroyed.
    pub dropped: u64,
    /// Per-endpoint CQ pops served by the endpoint index (no linear scan).
    pub indexed_pops: u64,
    /// Channel sends queued because the transport was out of tokens.
    pub queued_sends: u64,
    /// Queued channel sends successfully retried after a `SendDone`.
    pub retried_sends: u64,
    /// Queued channel sends that failed their retry with a non-transient
    /// error and were dropped (the original caller already holds the
    /// context; no completion will arrive for it).
    pub failed_retries: u64,
    /// Send contexts served by recycling a pooled slot (no growth).
    pub ctx_pool_reuses: u64,
    /// Send-context slots ever created (the pool's high-water mark).
    pub ctx_pool_slots: u64,
    /// Entries drained through [`Registry::cq_pop_batch`].
    pub batched_pops: u64,
    /// Mirrors of the NIC-level reliability counters (`knet_simnic::rel`),
    /// filled by the composed world's stats snapshot so consumers above
    /// the driver seam can assert on retransmission behaviour without
    /// reaching into the NIC layer. Zero in a bare registry.
    ///
    /// Sequenced data packets handed to the reliability window (the
    /// denominator for retransmit-ratio assertions).
    pub rel_data_packets: u64,
    /// Packets resent by selective-repeat rounds (holes only).
    pub rel_retransmits: u64,
    /// Packets a retransmission round skipped because SACK state showed
    /// the receiver already holds them (go-back-N would have resent them).
    pub rel_sack_repairs: u64,
    /// RTT samples fed to the reliability layer's estimator.
    pub rel_rtt_samples: u64,
    /// Retransmission rounds proven unnecessary by timestamp echo.
    pub rel_spurious_rtos: u64,
    /// Latest smoothed RTT observed by the reliability layer, in ns.
    pub rel_srtt_ns: u64,
    /// Latest adaptive RTO derived by the reliability layer, in ns.
    pub rel_rto_ns: u64,
    /// Fast-retransmit rounds fired by duplicate-SACK indications.
    pub rel_fast_retransmits: u64,
    /// Multiplicative decreases of a congestion window (loss episodes the
    /// AIMD loop reacted to).
    pub rel_cwnd_cuts: u64,
    /// Receiver acks aggregated away (covered by a later cumulative ack).
    pub rel_delayed_acks: u64,
    /// Arrivals dropped to receive-FIFO overflow across every NIC (incast
    /// congestion the fabric itself inflicted — deterministic, no fault
    /// dice).
    pub nic_rx_congestion_drops: u64,
    /// Mirrors of the collective-subsystem counters (`knet_coll` +
    /// `knet_simnic::coll`), filled by the composed world's stats
    /// snapshot. Zero in a bare registry.
    ///
    /// Collective operations posted (bcast/barrier/reduce, any member).
    pub coll_started: u64,
    /// Collective contexts completed (`CollectiveDone`).
    pub coll_completed: u64,
    /// Collective contexts resolved as failures (`CollectiveFailed`).
    pub coll_failed: u64,
    /// Collective frames processed by the NIC tree engines.
    pub coll_frames: u64,
    /// In-NIC lane combines performed by the tree engines.
    pub coll_combines: u64,
    /// Mirrors of the event-engine counters (`knet_simcore::EngineStats`),
    /// filled by the composed world's stats snapshot. Zero in a bare
    /// registry.
    ///
    /// Events executed by the scheduler.
    pub engine_events: u64,
    /// Event-arena slots handed out (recycled or fresh).
    pub engine_arena_uses: u64,
    /// Event-arena slot allocations that grew the arena (steady state: 0).
    pub engine_arena_grows: u64,
    /// Typed engine errors recorded (clock regression). Non-zero means an
    /// engine invariant broke — fail the run.
    pub engine_errors: u64,
    /// Queued-but-unobserved `RecvDone` completions withdrawn from a CQ by
    /// [`channel_cancel_recv`](crate::api::channel_cancel_recv) winning the
    /// cancel-vs-completion race.
    pub cancelled_completions: u64,
    /// Backpressure-parked sends withdrawn by
    /// [`channel_abort_queued_send`](crate::api::channel_abort_queued_send)
    /// before the transport ever accepted them.
    pub aborted_queued_sends: u64,
    /// Mirrors of the RPC-layer counters (`knet_rpc`), filled by the
    /// composed world's stats snapshot. Zero in a bare registry.
    ///
    /// RPC calls submitted.
    pub rpc_calls: u64,
    /// RPC calls resolved with a reply.
    pub rpc_completed: u64,
    /// RPC calls resolved with a typed [`RpcError`](crate::RpcError).
    pub rpc_failed: u64,
    /// Request transmissions beyond each call's first attempt.
    pub rpc_retries: u64,
    /// Requests a server dropped because they arrived already past their
    /// propagated deadline (no reply is sent for the dead).
    pub rpc_expired_dropped: u64,
    /// Retried requests answered from a server's idempotency cache without
    /// re-executing the handler (exactly-once for retried writes).
    pub rpc_idem_hits: u64,
    /// Mirrors of the NIC-admission QoS counters (`knet_simnic::qos`),
    /// summed over every tenant by the composed world's stats snapshot
    /// (per-tenant rows come from `ClusterWorld::tenant_stats`). Zero in a
    /// bare registry.
    ///
    /// Sends admitted by a token bucket.
    pub qos_admitted: u64,
    /// Sends deferred into a driver pacing lane (bucket dry, refill due).
    pub qos_deferred: u64,
    /// Sends shed with [`NetError::Overload`] (zero rate, over-burst
    /// message, or pacing lane full).
    pub qos_shed: u64,
}

// ------------------------------------------------------------- send contexts

/// Pooled send contexts: bit 63 tags a pooled value, the low 32 bits are
/// the slot, and bits 32..63 carry the slot's generation so a recycled slot
/// never produces the same context value twice. The pool is **per
/// channel**, so slot numbers are dense within one channel's in-flight
/// window — consumers that key in-flight state by context can therefore
/// use a small dense slab indexed by [`ctx_slot`] instead of a map (the
/// zero-copy socket layer does), bounded by their own concurrency rather
/// than the whole world's.
const CTX_POOL_BIT: u64 = 1 << 63;

/// The slab slot of a pooled send context (None for non-pooled contexts,
/// e.g. receive contexts or raw-transport cookies).
pub fn ctx_slot(ctx: u64) -> Option<usize> {
    (ctx & CTX_POOL_BIT != 0).then_some((ctx & 0xFFFF_FFFF) as usize)
}

/// Allocator of send-context values. Slots recycle on `SendDone` /
/// `SendFailed`; steady state performs zero heap allocations once the pool
/// reaches the workload's in-flight high-water mark.
#[derive(Default)]
struct CtxPool {
    /// Generation per slot; bumped on release.
    gens: Vec<u32>,
    free: Vec<u32>,
}

impl CtxPool {
    fn encode(slot: u32, gen: u32) -> u64 {
        CTX_POOL_BIT | ((gen as u64 & 0x7FFF_FFFF) << 32) | slot as u64
    }

    /// Take a context; `reused` reports whether a slot was recycled.
    fn alloc(&mut self) -> (u64, bool) {
        match self.free.pop() {
            Some(slot) => (Self::encode(slot, self.gens[slot as usize]), true),
            None => {
                let slot = self.gens.len() as u32;
                self.gens.push(0);
                (Self::encode(slot, 0), false)
            }
        }
    }

    /// Return a context's slot to the pool. Ignores non-pooled and stale
    /// values (a second release of the same context is a no-op).
    fn release(&mut self, ctx: u64) {
        if ctx & CTX_POOL_BIT == 0 {
            return;
        }
        let slot = (ctx & 0xFFFF_FFFF) as usize;
        let gen = ((ctx >> 32) & 0x7FFF_FFFF) as u32;
        if let Some(g) = self.gens.get_mut(slot) {
            if *g == gen {
                *g = g.wrapping_add(1) & 0x7FFF_FFFF;
                self.free.push(slot as u32);
            }
        }
    }
}

/// Sentinel slot index for the completion-queue slab.
const CQ_NIL: u32 = u32::MAX;

struct CqSlot {
    /// `None` when the slot is free (payloads drop eagerly).
    entry: Option<CqEntry>,
    /// Global arrival order (doubly linked; `prev` toward the oldest).
    prev: u32,
    next: u32,
    /// Next entry for the same endpoint (singly linked, oldest first).
    ep_next: u32,
}

#[derive(Clone, Copy)]
struct EpQueue {
    head: u32,
    tail: u32,
    len: u32,
}

/// One completion queue: a slab of entries threaded by two intrusive lists
/// — global arrival order, and a per-endpoint chain so pops and peeks for a
/// single endpoint never scan past other endpoints' traffic. Pushes and
/// pops are O(1) and allocation-free once the slab and the per-endpoint map
/// reach their high-water marks (slots and `EpQueue` records are recycled,
/// never removed).
#[derive(Default)]
struct Cq {
    slots: Vec<CqSlot>,
    free: Vec<u32>,
    /// Oldest entry overall.
    head: u32,
    /// Newest entry overall.
    tail: u32,
    by_ep: HashMap<(TransportKind, u32), EpQueue>,
    len: usize,
}

impl Cq {
    fn new() -> Self {
        Cq {
            slots: Vec::new(),
            free: Vec::new(),
            head: CQ_NIL,
            tail: CQ_NIL,
            by_ep: HashMap::new(),
            len: 0,
        }
    }

    fn push(&mut self, ep: Endpoint, event: TransportEvent) {
        let entry = CqEntry { ep, event };
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = CqSlot {
                    entry: Some(entry),
                    prev: self.tail,
                    next: CQ_NIL,
                    ep_next: CQ_NIL,
                };
                i
            }
            None => {
                let i = self.slots.len() as u32;
                assert!(i < CQ_NIL, "completion queue slab overflow");
                self.slots.push(CqSlot {
                    entry: Some(entry),
                    prev: self.tail,
                    next: CQ_NIL,
                    ep_next: CQ_NIL,
                });
                i
            }
        };
        match self.tail {
            CQ_NIL => self.head = slot,
            t => self.slots[t as usize].next = slot,
        }
        self.tail = slot;
        let q = self.by_ep.entry(key(ep)).or_insert(EpQueue {
            head: CQ_NIL,
            tail: CQ_NIL,
            len: 0,
        });
        match q.tail {
            CQ_NIL => q.head = slot,
            t => self.slots[t as usize].ep_next = slot,
        }
        q.tail = slot;
        q.len += 1;
        self.len += 1;
    }

    /// Unlink `slot` from the global list and recycle it.
    fn take_global(&mut self, slot: u32) -> CqEntry {
        let (prev, next) = {
            let s = &self.slots[slot as usize];
            (s.prev, s.next)
        };
        match prev {
            CQ_NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            CQ_NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
        self.free.push(slot);
        self.len -= 1;
        self.slots[slot as usize].entry.take().expect("occupied")
    }

    /// Pop the oldest entry overall.
    fn pop(&mut self) -> Option<CqEntry> {
        let slot = self.head;
        if slot == CQ_NIL {
            return None;
        }
        // The oldest entry overall is also the oldest for its endpoint.
        let ep = self.slots[slot as usize]
            .entry
            .as_ref()
            .expect("occupied")
            .ep;
        let ep_next = self.slots[slot as usize].ep_next;
        let q = self.by_ep.get_mut(&key(ep)).expect("indexed");
        debug_assert_eq!(q.head, slot);
        q.head = ep_next;
        if q.head == CQ_NIL {
            q.tail = CQ_NIL;
        }
        q.len -= 1;
        Some(self.take_global(slot))
    }

    /// Pop the oldest entry for one endpoint (others keep their order).
    fn pop_for(&mut self, ep: Endpoint) -> Option<CqEntry> {
        let q = self.by_ep.get_mut(&key(ep))?;
        let slot = q.head;
        if slot == CQ_NIL {
            return None;
        }
        q.head = self.slots[slot as usize].ep_next;
        if q.head == CQ_NIL {
            q.tail = CQ_NIL;
        }
        q.len -= 1;
        Some(self.take_global(slot))
    }

    fn len_for(&self, ep: Endpoint) -> usize {
        self.by_ep
            .get(&key(ep))
            .map(|q| q.len as usize)
            .unwrap_or(0)
    }

    /// Withdraw the oldest un-popped `RecvDone` for (`ep`, `tag`), if one
    /// is queued: unlink it from both intrusive lists and recycle its slot.
    /// This is the CQ half of the cancel-vs-completion rule (see
    /// [`channel_cancel_recv`]).
    fn withdraw_recv(&mut self, ep: Endpoint, tag: u64) -> bool {
        let Some(q) = self.by_ep.get(&key(ep)) else {
            return false;
        };
        let mut prev = CQ_NIL;
        let mut slot = q.head;
        while slot != CQ_NIL {
            let s = &self.slots[slot as usize];
            let hit = matches!(
                s.entry.as_ref().expect("occupied").event,
                TransportEvent::RecvDone { tag: t, .. } if t == tag
            );
            let next = s.ep_next;
            if hit {
                let q = self.by_ep.get_mut(&key(ep)).expect("indexed");
                match prev {
                    CQ_NIL => q.head = next,
                    p => self.slots[p as usize].ep_next = next,
                }
                if q.tail == slot {
                    q.tail = prev;
                }
                q.len -= 1;
                self.take_global(slot);
                return true;
            }
            prev = slot;
            slot = next;
        }
        false
    }

    /// Drop every entry queued for `ep` (the endpoint's chain empties; the
    /// `EpQueue` record recycles as usual). Returns the number purged.
    fn purge_ep(&mut self, ep: Endpoint) -> usize {
        let Some(q) = self.by_ep.get_mut(&key(ep)) else {
            return 0;
        };
        let mut slot = q.head;
        let purged = q.len as usize;
        q.head = CQ_NIL;
        q.tail = CQ_NIL;
        q.len = 0;
        while slot != CQ_NIL {
            let next = self.slots[slot as usize].ep_next;
            self.take_global(slot);
            slot = next;
        }
        purged
    }
}

/// A channel send waiting for transport tokens.
struct QueuedSend {
    to: Endpoint,
    tag: u64,
    iov: IoVec,
    ctx: u64,
}

/// WDRR byte cost of a parked send.
fn send_cost(qs: &QueuedSend) -> u64 {
    qs.iov.total_len()
}

/// Default bound of the per-channel backpressure queue.
pub const DEFAULT_SEND_QUEUE_CAP: usize = 64;

/// Per-channel state.
pub struct Channel {
    pub local: Endpoint,
    /// `None` until the accepting side learns its peer from the first
    /// inbound message.
    pub peer: Option<Endpoint>,
    /// The backing completion queue, when the consumer is queue-backed
    /// (`None` for handler-backed channels).
    pub cq: Option<CqId>,
    consumer: ConsumerId,
    /// Kernel staging buffer for coalescing vectored sends on GM.
    staging: Option<(VirtAddr, u64)>,
    next_ctx: u64,
    /// Bytes copied through the staging buffer (coalescing cost indicator).
    pub coalesced_bytes: u64,
    /// The tenant newly attributed sends belong to (inherited from the
    /// endpoint's registered tenant at channel creation; updated by
    /// [`Registry::assign_tenant`]).
    pub tenant: TenantId,
    /// Sends the transport refused for lack of tokens — one lane per
    /// tenant, drained in weighted deficit-round-robin order on the next
    /// `SendDone` (FIFO within each tenant; exact FIFO when only one
    /// tenant is active).
    pending: WdrrLanes<QueuedSend>,
    /// Per-tenant bound of `pending`: each tenant's lane holds at most
    /// this many parked sends; a send arriving at its tenant's full lane
    /// fails with [`NetError::SendQueueFull`]. `0` disables queueing —
    /// token exhaustion then surfaces as [`NetError::NoSendTokens`], the
    /// raw transport contract.
    pub send_queue_cap: usize,
    /// Recycled send contexts (slots dense within this channel; see
    /// [`ctx_slot`]).
    pool: CtxPool,
}

impl Channel {
    /// Sends currently parked in the backpressure queue (all tenants).
    pub fn queued_len(&self) -> usize {
        self.pending.len()
    }

    /// Sends parked for one tenant's lane.
    pub fn queued_len_for(&self, t: TenantId) -> usize {
        self.pending.lane_len(t)
    }

    /// Heap-growth events of the per-tenant queue slab (flat in steady
    /// state; asserted by `tests/hotpath_alloc.rs`).
    pub fn queue_grows(&self) -> u64 {
        self.pending.grows()
    }

    /// Tenant lanes ever materialized on this channel.
    pub fn queue_lanes(&self) -> usize {
        self.pending.lane_count()
    }
}

/// Endpoint → consumer dispatch, completion queues, channels.
pub struct Registry<W> {
    consumers: BTreeMap<u32, Consumer<W>>,
    next_consumer: u32,
    routes: BTreeMap<(TransportKind, u32), ConsumerId>,
    cqs: BTreeMap<u32, Cq>,
    next_cq: u32,
    parked: BTreeMap<(TransportKind, u32), VecDeque<TransportEvent>>,
    channels: BTreeMap<u32, Channel>,
    /// Endpoint → channel, for peer learning and send retries.
    channel_routes: BTreeMap<(TransportKind, u32), ChannelId>,
    /// The last queue that accumulated entries for each endpoint — so a
    /// channel taking over a recycled endpoint can purge its predecessor's
    /// ghosts even when it feeds a different queue (or none).
    ep_cqs: HashMap<(TransportKind, u32), CqId>,
    next_channel: u32,
    /// Tenant directory: ids, weights, per-tenant channel-layer counters.
    tenants: TenantTable,
    /// Endpoint → tenant attribution (endpoints never registered to a
    /// tenant belong to [`TenantId::DEFAULT`]).
    ep_tenants: BTreeMap<(TransportKind, u32), TenantId>,
    pub stats: RegistryStats,
}

impl<W> Default for Registry<W> {
    fn default() -> Self {
        Registry {
            consumers: BTreeMap::new(),
            next_consumer: 0,
            routes: BTreeMap::new(),
            cqs: BTreeMap::new(),
            next_cq: 0,
            parked: BTreeMap::new(),
            channels: BTreeMap::new(),
            channel_routes: BTreeMap::new(),
            ep_cqs: HashMap::new(),
            next_channel: 0,
            tenants: TenantTable::default(),
            ep_tenants: BTreeMap::new(),
            stats: RegistryStats::default(),
        }
    }
}

fn key(ep: Endpoint) -> (TransportKind, u32) {
    (ep.kind, ep.idx)
}

impl<W> Registry<W> {
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------------------ queues

    /// Create an empty completion queue.
    pub fn create_cq(&mut self) -> CqId {
        let id = CqId(self.next_cq);
        self.next_cq += 1;
        self.cqs.insert(id.0, Cq::new());
        id
    }

    /// Destroy a queue, dropping any entries still in it. Consumers backed
    /// by the queue are deregistered and their routes dropped — endpoints
    /// that fed the dead queue park future events instead of feeding a
    /// stale [`CqId`] through [`Registry::cq_of`]/[`Registry::has_event`]
    /// (the lifecycle bug regression-tested in `tests/channel_api.rs`).
    pub fn destroy_cq(&mut self, cq: CqId) {
        self.cqs.remove(&cq.0);
        let stale: Vec<ConsumerId> = self
            .consumers
            .iter()
            .filter(|(_, c)| matches!(c.sink, Sink::Cq(q) if q == cq))
            .map(|(id, _)| ConsumerId(*id))
            .collect();
        for cid in stale {
            self.deregister(cid);
        }
    }

    /// Append an entry (used by [`deliver`]; public so tests can drive
    /// queues directly). O(1), allocation-free at the slab's high-water
    /// mark.
    pub fn cq_push(&mut self, cq: CqId, ep: Endpoint, event: TransportEvent) {
        // A destroyed queue stays destroyed: events for it are dropped, not
        // silently resurrected into a queue nobody polls.
        match self.cqs.get_mut(&cq.0) {
            Some(q) => {
                q.push(ep, event);
                // Record the endpoint's accumulating queue; write only on
                // change (the mapping is almost always stable — keep the
                // per-completion path read-mostly).
                match self.ep_cqs.entry(key(ep)) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        if *e.get() != cq {
                            e.insert(cq);
                        }
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(cq);
                    }
                }
            }
            None => self.stats.dropped += 1,
        }
    }

    /// Pop the oldest entry of the queue.
    pub fn cq_pop(&mut self, cq: CqId) -> Option<CqEntry> {
        self.cqs.get_mut(&cq.0)?.pop()
    }

    /// Pop the oldest entry of the queue *for this endpoint* (entries for
    /// other endpoints sharing the queue keep their order). Served by the
    /// per-endpoint chain — O(1), not a scan over the queue.
    pub fn cq_pop_for(&mut self, cq: CqId, ep: Endpoint) -> Option<CqEntry> {
        let e = self.cqs.get_mut(&cq.0)?.pop_for(ep)?;
        self.stats.indexed_pops += 1;
        Some(e)
    }

    /// Drain up to `max` entries for `ep` into `out` (cleared first),
    /// oldest first. One call amortizes the registry access over a whole
    /// burst of completions — the batched form polling drivers should
    /// prefer. Returns the number of entries drained.
    pub fn cq_pop_batch(
        &mut self,
        cq: CqId,
        ep: Endpoint,
        max: usize,
        out: &mut Vec<CqEntry>,
    ) -> usize {
        out.clear();
        let Some(q) = self.cqs.get_mut(&cq.0) else {
            return 0;
        };
        while out.len() < max {
            match q.pop_for(ep) {
                Some(e) => out.push(e),
                None => break,
            }
        }
        let n = out.len();
        self.stats.indexed_pops += n as u64;
        self.stats.batched_pops += n as u64;
        n
    }

    pub fn cq_len(&self, cq: CqId) -> usize {
        self.cqs.get(&cq.0).map(|q| q.len).unwrap_or(0)
    }

    /// Entries waiting in the queue for this endpoint.
    pub fn cq_len_for(&self, cq: CqId, ep: Endpoint) -> usize {
        self.cqs.get(&cq.0).map(|q| q.len_for(ep)).unwrap_or(0)
    }

    /// The queue the endpoint's consumer feeds, when it is queue-backed.
    pub fn cq_of(&self, ep: Endpoint) -> Option<CqId> {
        let cid = self.routes.get(&key(ep))?;
        match self.consumers.get(&cid.0)?.sink {
            Sink::Cq(cq) => Some(cq),
            Sink::Handler(_) => None,
        }
    }

    /// Is an event waiting for `ep` on its bound queue?
    pub fn has_event(&self, ep: Endpoint) -> bool {
        self.cq_of(ep)
            .and_then(|cq| self.cqs.get(&cq.0))
            .map(|q| q.len_for(ep) > 0)
            .unwrap_or(false)
    }

    /// Pop the next event for `ep` from its bound queue.
    pub fn take_event(&mut self, ep: Endpoint) -> Option<TransportEvent> {
        let cq = self.cq_of(ep)?;
        self.cq_pop_for(cq, ep).map(|e| e.event)
    }

    // --------------------------------------------------------- consumers

    /// Register an upcall consumer (how in-kernel applications attach).
    pub fn register(
        &mut self,
        name: &str,
        handler: impl Fn(&mut W, Endpoint, TransportEvent) + Send + Sync + 'static,
    ) -> ConsumerId {
        self.insert_consumer(name, Sink::Handler(Arc::new(handler)))
    }

    /// Register a queue-backed consumer (how polling drivers attach).
    pub fn register_cq(&mut self, name: &str, cq: CqId) -> ConsumerId {
        self.insert_consumer(name, Sink::Cq(cq))
    }

    fn insert_consumer(&mut self, name: &str, sink: Sink<W>) -> ConsumerId {
        let id = ConsumerId(self.next_consumer);
        self.next_consumer += 1;
        self.consumers.insert(
            id.0,
            Consumer {
                name: name.to_string(),
                sink,
            },
        );
        id
    }

    /// Remove a consumer and every route pointing at it. Future events for
    /// those endpoints park until someone else binds. Returns whether the
    /// consumer existed.
    pub fn deregister(&mut self, cid: ConsumerId) -> bool {
        let existed = self.consumers.remove(&cid.0).is_some();
        self.routes.retain(|_, c| *c != cid);
        existed
    }

    /// The consumer currently bound to `ep`.
    pub fn consumer_of(&self, ep: Endpoint) -> Option<ConsumerId> {
        self.routes.get(&key(ep)).copied()
    }

    /// The display name of a consumer.
    pub fn consumer_name(&self, cid: ConsumerId) -> Option<&str> {
        self.consumers.get(&cid.0).map(|c| c.name.as_str())
    }

    /// Drop the route for `ep` (events park again). Returns the previous
    /// consumer, if any.
    pub fn unbind(&mut self, ep: Endpoint) -> Option<ConsumerId> {
        self.routes.remove(&key(ep))
    }

    /// Parked events waiting for `ep` (unbound endpoints).
    pub fn parked_len(&self, ep: Endpoint) -> usize {
        self.parked.get(&key(ep)).map(VecDeque::len).unwrap_or(0)
    }

    // ---------------------------------------------------------- channels

    pub fn channel(&self, ch: ChannelId) -> Option<&Channel> {
        self.channels.get(&ch.0)
    }

    /// The channel owning `ep`, if any.
    pub fn channel_of(&self, ep: Endpoint) -> Option<ChannelId> {
        self.channel_routes.get(&key(ep)).copied()
    }

    // ----------------------------------------------------------- tenants

    /// Mint a tenant id at registration time (idempotent by name). The id
    /// is carried on every send the tenant's endpoints issue and honored
    /// at each queueing point below the channel layer.
    pub fn tenant_create(&mut self, name: &str, weight: u64) -> TenantId {
        self.tenants.create(name, weight)
    }

    /// The tenant an endpoint's sends are attributed to
    /// ([`TenantId::DEFAULT`] when never assigned).
    pub fn tenant_of(&self, ep: Endpoint) -> TenantId {
        self.ep_tenants
            .get(&key(ep))
            .copied()
            .unwrap_or(TenantId::DEFAULT)
    }

    /// Attribute an endpoint (and its current channel, if any) to a
    /// tenant. Sends already parked keep the lane they joined under.
    pub fn assign_tenant(&mut self, ep: Endpoint, t: TenantId) {
        self.ep_tenants.insert(key(ep), t);
        if let Some(chid) = self.channel_routes.get(&key(ep)).copied() {
            if let Some(c) = self.channels.get_mut(&chid.0) {
                c.tenant = t;
            }
        }
    }

    /// The tenant directory (names, weights, per-tenant counters).
    pub fn tenant_table(&self) -> &TenantTable {
        &self.tenants
    }

    /// Per-tenant channel-layer stats rows (one per registered tenant).
    pub fn tenant_rows(&self) -> Vec<TenantChannelRow> {
        (0..self.tenants.count())
            .map(|i| {
                let t = TenantId(i as u32);
                TenantChannelRow {
                    id: t,
                    name: self.tenants.name(t).unwrap_or("").to_string(),
                    weight: self.tenants.weight(t),
                    stats: self.tenants.stats[i],
                }
            })
            .collect()
    }

    /// Fold every channel's WDRR scheduler state into a fingerprint
    /// accumulator — the determinism hook (`tests/determinism.rs` mixes
    /// this next to the event stream so per-tenant queueing cannot
    /// silently drift).
    pub fn wdrr_fingerprint(&self, mut mix: impl FnMut(u64)) {
        for (id, c) in &self.channels {
            mix(*id as u64);
            mix(c.tenant.0 as u64);
            c.pending.fingerprint(&mut mix);
        }
    }

    /// Record the peer of an accept-side channel from its first inbound
    /// message (unexpected delivery or posted-receive completion).
    fn note_channel_event(&mut self, ep: Endpoint, ev: &TransportEvent) {
        let from = match ev {
            TransportEvent::Unexpected { from, .. } | TransportEvent::RecvDone { from, .. } => {
                *from
            }
            TransportEvent::SendDone { .. }
            | TransportEvent::SendFailed { .. }
            | TransportEvent::PeerDown { .. }
            | TransportEvent::CollectiveDone { .. }
            | TransportEvent::CollectiveRecv { .. }
            | TransportEvent::CollectiveFailed { .. }
            | TransportEvent::RpcDone { .. } => return,
        };
        if let Some(chid) = self.channel_routes.get(&key(ep)) {
            if let Some(ch) = self.channels.get_mut(&chid.0) {
                if ch.peer.is_none() {
                    ch.peer = Some(from);
                }
            }
        }
    }
}

/// Bind `ep` to consumer `cid`, replacing any previous binding and
/// replaying events that parked while the endpoint was unbound. A displaced
/// queue-backed consumer with no remaining routes is garbage-collected
/// (handler consumers stay registered — services may bind them to other
/// endpoints later). A *channel* owning the endpoint is torn down
/// coherently: its state, route entry and consumer all go together, so a
/// rebind can never leave a dangling channel learning peers or a
/// `channel_close` deregistering someone else's consumer.
pub fn bind<W: DispatchWorld>(w: &mut W, ep: Endpoint, cid: ConsumerId) {
    let stale_channel = {
        let r = w.registry();
        r.channel_of(ep).filter(|chid| {
            r.channels
                .get(&chid.0)
                .map(|c| c.consumer != cid)
                .unwrap_or(true)
        })
    };
    if let Some(chid) = stale_channel {
        teardown_channel(w, chid);
    }
    let r = w.registry_mut();
    let displaced = r.routes.insert(key(ep), cid);
    if let Some(prev) = displaced.filter(|p| *p != cid) {
        let routeless = !r.routes.values().any(|c| *c == prev);
        let is_cq = matches!(r.consumers.get(&prev.0).map(|c| &c.sink), Some(Sink::Cq(_)));
        if routeless && is_cq {
            r.consumers.remove(&prev.0);
        }
    }
    let Some(parked) = r.parked.remove(&key(ep)) else {
        return;
    };
    for ev in parked {
        w.registry_mut().stats.replayed += 1;
        deliver(w, ep, ev);
    }
}

/// Route one transport event to the endpoint's consumer. This is the single
/// entry point the composed world calls from its driver dispatch loops.
///
/// A `SendDone` additionally releases transport tokens, so it is the moment
/// the endpoint's channel (if any) retries sends parked by backpressure.
pub fn deliver<W: DispatchWorld>(w: &mut W, ep: Endpoint, ev: TransportEvent) {
    let is_send_done = matches!(ev, TransportEvent::SendDone { .. });
    // A send completion retires its pooled context: the slot recycles for
    // the next send (the context *value* stays unique — generations).
    let retired_ctx = match ev {
        TransportEvent::SendDone { ctx } | TransportEvent::SendFailed { ctx, .. } => Some(ctx),
        _ => None,
    };
    let sink = {
        let r = w.registry_mut();
        r.note_channel_event(ep, &ev);
        match r.routes.get(&key(ep)) {
            Some(cid) => r.consumers.get(&cid.0).map(|c| c.sink.clone()),
            None => None,
        }
    };
    match sink {
        None => {
            let r = w.registry_mut();
            r.stats.parked += 1;
            r.parked.entry(key(ep)).or_default().push_back(ev);
        }
        Some(Sink::Cq(cq)) => {
            let r = w.registry_mut();
            r.stats.delivered += 1;
            r.cq_push(cq, ep, ev);
        }
        Some(Sink::Handler(h)) => {
            w.registry_mut().stats.delivered += 1;
            h(w, ep, ev);
        }
    }
    // Release *after* routing: a handler consumer has processed the event
    // by now, so a recycled slot can never collide with its bookkeeping.
    if let Some(ctx) = retired_ctx {
        let r = w.registry_mut();
        if let Some(chid) = r.channel_routes.get(&key(ep)).copied() {
            if let Some(c) = r.channels.get_mut(&chid.0) {
                c.pool.release(ctx);
            }
        }
    }
    if is_send_done {
        if let Some(chid) = w.registry().channel_of(ep) {
            flush_channel_sends(w, chid);
        }
    }
}

// ------------------------------------------------------------------ channels

fn create_channel<W: DispatchWorld>(
    w: &mut W,
    local: Endpoint,
    peer: Option<Endpoint>,
    sink: Sink<W>,
) -> ChannelId {
    // A previous channel on this endpoint is replaced, not leaked.
    if let Some(old) = w.registry().channel_of(local) {
        teardown_channel(w, old);
    }
    let cq = match sink {
        Sink::Cq(cq) => Some(cq),
        Sink::Handler(_) => None,
    };
    // Purge the endpoint's undrained entries from the queue this channel
    // will feed *and* from the last queue that accumulated for it: send
    // contexts are pooled *per channel* (slot 0 restarts every
    // incarnation), so a leftover completion from a closed channel on this
    // endpoint would alias the new channel's contexts — also when the new
    // channel feeds a different queue, or a handler. Completions of a
    // closed channel stay poppable until someone reuses the endpoint —
    // then they are ghosts, and dropped (counted in `dropped`). This is
    // the recycled-endpoint lifecycle bug regression-tested in
    // `tests/channel_api.rs`.
    {
        let r = w.registry_mut();
        let previous = r.ep_cqs.get(&key(local)).copied();
        for target in [cq, previous].into_iter().flatten() {
            if let Some(q) = r.cqs.get_mut(&target.0) {
                let purged = q.purge_ep(local);
                r.stats.dropped += purged as u64;
            }
        }
    }
    let r = w.registry_mut();
    let id = ChannelId(r.next_channel);
    r.next_channel += 1;
    let tenant = r.tenant_of(local);
    let consumer = r.insert_consumer(&format!("channel-{}", id.0), sink);
    r.channels.insert(
        id.0,
        Channel {
            local,
            peer,
            cq,
            consumer,
            staging: None,
            next_ctx: 1,
            coalesced_bytes: 0,
            tenant,
            pending: WdrrLanes::default(),
            send_queue_cap: DEFAULT_SEND_QUEUE_CAP,
            pool: CtxPool::default(),
        },
    );
    r.channel_routes.insert(key(local), id);
    bind(w, local, consumer);
    id
}

/// Open the active side of a channel: `local` will exchange tagged messages
/// with `peer`, completions arriving on `cq`.
pub fn channel_connect<W: DispatchWorld>(
    w: &mut W,
    local: Endpoint,
    peer: Endpoint,
    cq: CqId,
) -> ChannelId {
    create_channel(w, local, Some(peer), Sink::Cq(cq))
}

/// Open the passive side: the peer is learned from the first inbound
/// message (visible via [`channel_peer`]); sends before that fail with
/// [`NetError::BadDestination`].
pub fn channel_accept<W: DispatchWorld>(w: &mut W, local: Endpoint, cq: CqId) -> ChannelId {
    create_channel(w, local, None, Sink::Cq(cq))
}

/// Open a channel whose completions are delivered as in-kernel upcalls
/// instead of accumulating on a queue — how handler-based services (the
/// zero-copy socket layer) get channel semantics (vectored sends with GM
/// coalescing, ordered backpressure) on top of their event-driven shape.
pub fn channel_connect_handler<W: DispatchWorld>(
    w: &mut W,
    local: Endpoint,
    peer: Endpoint,
    name: &str,
    handler: impl Fn(&mut W, Endpoint, TransportEvent) + Send + Sync + 'static,
) -> ChannelId {
    let id = create_channel(w, local, Some(peer), Sink::Handler(Arc::new(handler)));
    name_channel_consumer(w, id, name);
    id
}

/// Open the passive side of a handler-backed channel: no fixed peer, every
/// inbound message is upcalled into `handler`. This is the *server* shape —
/// one endpoint serving many clients (ORFS, NBD) — so replies go out with
/// [`channel_send_to`], which addresses an explicit destination while still
/// getting channel semantics (GM coalescing, pooled contexts, ordered
/// backpressure).
pub fn channel_accept_handler<W: DispatchWorld>(
    w: &mut W,
    local: Endpoint,
    name: &str,
    handler: impl Fn(&mut W, Endpoint, TransportEvent) + Send + Sync + 'static,
) -> ChannelId {
    let id = create_channel(w, local, None, Sink::Handler(Arc::new(handler)));
    name_channel_consumer(w, id, name);
    id
}

/// Give a channel's consumer the service's name for diagnostics.
fn name_channel_consumer<W: DispatchWorld>(w: &mut W, ch: ChannelId, name: &str) {
    let r = w.registry_mut();
    if let Some(c) = r.channels.get(&ch.0).map(|c| c.consumer) {
        if let Some(consumer) = r.consumers.get_mut(&c.0) {
            consumer.name = name.to_string();
        }
    }
}

/// The channel's peer, once known.
pub fn channel_peer<W: DispatchWorld>(w: &W, ch: ChannelId) -> Option<Endpoint> {
    w.registry().channel(ch).and_then(|c| c.peer)
}

/// The channel's completion queue (queue-backed channels only).
pub fn channel_cq<W: DispatchWorld>(w: &W, ch: ChannelId) -> Option<CqId> {
    w.registry().channel(ch).and_then(|c| c.cq)
}

/// Bound the channel's backpressure queue (see [`channel_send`]); the cap
/// applies **per tenant lane**, and `0` disables queueing and restores the
/// raw [`NetError::NoSendTokens`] contract.
///
/// Shrinking the cap below a lane's current [`Channel::queued_len_for`]
/// does not silently strand the excess: parked sends past the new cap are
/// failed deterministically — newest first *within each tenant's lane*,
/// lanes visited in tenant order, never evicting one tenant's sends to
/// make room for another's — each completing as
/// [`TransportEvent::SendFailed`] with [`NetError::SendQueueFull`] (the
/// caller holds `Ok(ctx)` for them, so a completion must arrive).
pub fn channel_set_send_queue_cap<W: DispatchWorld>(w: &mut W, ch: ChannelId, cap: usize) {
    let local = {
        let r = w.registry_mut();
        let Some(c) = r.channels.get_mut(&ch.0) else {
            return;
        };
        c.send_queue_cap = cap;
        c.local
    };
    loop {
        let evicted = {
            let r = w.registry_mut();
            let Some(c) = r.channels.get_mut(&ch.0) else {
                return;
            };
            let over = (0..c.pending.lane_count())
                .map(|i| TenantId(i as u32))
                .find(|t| c.pending.lane_len(*t) > cap);
            let Some(t) = over else { return };
            let qs = c.pending.evict_newest(t).expect("lane over cap");
            r.stats.failed_retries += 1;
            r.tenants.note(t, |s| s.failed_retries += 1);
            qs.ctx
        };
        deliver(
            w,
            local,
            TransportEvent::SendFailed {
                ctx: evicted,
                error: NetError::SendQueueFull,
            },
        );
    }
}

/// Send a tagged, possibly multi-segment message on the channel. Returns
/// the completion context that the eventual `SendDone` will carry.
///
/// On GM the driver only accepts single-segment sends (§4.1); multi-segment
/// io-vectors are transparently gathered into the channel's kernel staging
/// buffer (one memcpy, charged to the CPU model) so the caller-visible
/// contract is vectored I/O on every transport.
///
/// **Backpressure contract:** when the transport is out of send tokens
/// ([`NetError::NoSendTokens`]), the send is queued and retried — in
/// submission order — each time a `SendDone` frees a token; the caller
/// still gets `Ok(ctx)` and the completion arrives later. The queue is
/// bounded by [`Channel::send_queue_cap`]; a send arriving at a full queue
/// fails with [`NetError::SendQueueFull`]. Every other transport error
/// still surfaces synchronously.
pub fn channel_send<W: DispatchWorld>(
    w: &mut W,
    ch: ChannelId,
    tag: u64,
    iov: IoVec,
) -> Result<u64, NetError> {
    let peer = {
        let r = w.registry();
        let c = r.channels.get(&ch.0).ok_or(NetError::BadEndpoint)?;
        c.peer.ok_or(NetError::BadDestination)?
    };
    channel_send_to(w, ch, peer, tag, iov)
}

/// [`channel_send`] with an explicit destination — the reply path of
/// accept-side server channels ([`channel_accept_handler`]), whose one
/// endpoint talks to many peers. Ordering within the channel's backpressure
/// queue is preserved across destinations (submission order).
pub fn channel_send_to<W: DispatchWorld>(
    w: &mut W,
    ch: ChannelId,
    to: Endpoint,
    tag: u64,
    iov: IoVec,
) -> Result<u64, NetError> {
    // Contexts come from the channel's own pool: recycled slots, unique
    // values (see `ctx_slot`). The slot returns on SendDone/SendFailed.
    let (local, tenant, busy, cap, qlen, ctx) = {
        let r = w.registry_mut();
        let c = r.channels.get_mut(&ch.0).ok_or(NetError::BadEndpoint)?;
        let (ctx, reused) = c.pool.alloc();
        let state = (
            c.local,
            c.tenant,
            c.pending.lane_len(c.tenant) > 0,
            c.send_queue_cap,
            c.pending.lane_len(c.tenant),
            ctx,
        );
        if reused {
            r.stats.ctx_pool_reuses += 1;
        } else {
            r.stats.ctx_pool_slots += 1;
        }
        state
    };
    // Earlier sends of this tenant are already waiting for tokens: keep
    // the tenant's FIFO order, join its lane (or overflow it).
    if busy {
        if qlen >= cap {
            release_channel_ctx(w, ch, ctx);
            return Err(NetError::SendQueueFull);
        }
        let r = w.registry_mut();
        if let Some(c) = r.channels.get_mut(&ch.0) {
            c.pending.push(tenant, QueuedSend { to, tag, iov, ctx });
        }
        r.stats.queued_sends += 1;
        r.tenants.note(tenant, |s| s.queued_sends += 1);
        return Ok(ctx);
    }
    let (wire_iov, coalesced) = match coalesce_for_transport(w, ch, local, iov.clone()) {
        Ok(x) => x,
        Err(e) => {
            release_channel_ctx(w, ch, ctx);
            return Err(e);
        }
    };
    match w.t_send_t(local, to, tag, wire_iov, ctx, tenant) {
        Ok(()) => {
            charge_coalesce(w, ch, local.node, coalesced);
            w.registry_mut()
                .tenants
                .note(tenant, |s| s.direct_sends += 1);
            Ok(ctx)
        }
        Err(NetError::NoSendTokens) if cap > 0 => {
            let r = w.registry_mut();
            if let Some(c) = r.channels.get_mut(&ch.0) {
                // Queue the *original* io-vector; coalescing (and its
                // charge) reruns when the retry is accepted.
                c.pending.push(tenant, QueuedSend { to, tag, iov, ctx });
            }
            r.stats.queued_sends += 1;
            r.tenants.note(tenant, |s| s.queued_sends += 1);
            Ok(ctx)
        }
        Err(e) => {
            release_channel_ctx(w, ch, ctx);
            Err(e)
        }
    }
}

/// Return a send context to its channel's pool (no-op if the channel is
/// gone — the pool dies with it).
fn release_channel_ctx<W: DispatchWorld>(w: &mut W, ch: ChannelId, ctx: u64) {
    if let Some(c) = w.registry_mut().channels.get_mut(&ch.0) {
        c.pool.release(ctx);
    }
}

/// Retry queued sends of `ch` until the queue drains or the transport runs
/// out of tokens again. Called from [`deliver`] on every `SendDone` for the
/// channel's endpoint. Lanes drain in weighted deficit-round-robin order
/// (FIFO within each tenant; exact FIFO when one tenant is active).
fn flush_channel_sends<W: DispatchWorld>(w: &mut W, ch: ChannelId) {
    loop {
        let Some((local, tenant, qs)) = ({
            let r = w.registry_mut();
            let tenants = &r.tenants;
            r.channels.get_mut(&ch.0).and_then(|c| {
                c.pending
                    .pop_next(|t| tenants.weight(t), send_cost)
                    .map(|(t, qs)| (c.local, t, qs))
            })
        }) else {
            return;
        };
        let failed = match coalesce_for_transport(w, ch, local, qs.iov.clone()) {
            Ok((wire_iov, coalesced)) => {
                match w.t_send_t(local, qs.to, qs.tag, wire_iov, qs.ctx, tenant) {
                    Ok(()) => {
                        charge_coalesce(w, ch, local.node, coalesced);
                        let r = w.registry_mut();
                        r.stats.retried_sends += 1;
                        r.tenants.note(tenant, |s| s.retried_sends += 1);
                        None
                    }
                    Err(NetError::NoSendTokens) => {
                        // Still dry: put it back (cost refunded, same lane
                        // head) and wait for the next SendDone.
                        if let Some(c) = w.registry_mut().channels.get_mut(&ch.0) {
                            let cost = send_cost(&qs);
                            c.pending.requeue_front(tenant, qs, cost);
                        }
                        return;
                    }
                    Err(e) => Some(e),
                }
            }
            Err(e) => Some(e),
        };
        if let Some(error) = failed {
            // Non-transient failure on retry: the channel's consumer gets a
            // `SendFailed` completion so resources tied to the context are
            // released (the original caller already holds `Ok(ctx)`).
            let r = w.registry_mut();
            r.stats.failed_retries += 1;
            r.tenants.note(tenant, |s| s.failed_retries += 1);
            deliver(w, local, TransportEvent::SendFailed { ctx: qs.ctx, error });
        }
    }
}

fn charge_coalesce<W: DispatchWorld>(w: &mut W, ch: ChannelId, node: NodeId, coalesced: u64) {
    // Account the gather copy only once the send is accepted, so a failed
    // send (e.g. out of tokens) retried later is not double-charged.
    if coalesced == 0 {
        return;
    }
    let cost = w.os().node(node).cpu.model.memcpy_cost(coalesced);
    cpu_charge(w, node, cost);
    if let Some(c) = w.registry_mut().channels.get_mut(&ch.0) {
        c.coalesced_bytes += coalesced;
    }
}

/// Arm a tagged receive on the channel; completion (`RecvDone` with the
/// returned context) arrives at the channel's consumer.
pub fn channel_post_recv<W: DispatchWorld>(
    w: &mut W,
    ch: ChannelId,
    tag: u64,
    iov: IoVec,
) -> Result<u64, NetError> {
    let (local, ctx) = {
        let r = w.registry_mut();
        let c = r.channels.get_mut(&ch.0).ok_or(NetError::BadEndpoint)?;
        let ctx = c.next_ctx;
        c.next_ctx += 1;
        (c.local, ctx)
    };
    w.t_post_recv(local, tag, iov, ctx)?;
    Ok(ctx)
}

/// Withdraw a posted receive by tag.
///
/// **The cancel-vs-completion rule (one rule, both sink shapes):** cancel
/// wins every race the consumer has not yet observed. Concretely:
///
/// * returns `true` ⇒ the consumer will **never** observe a `RecvDone` for
///   this tag — either the receive was still pending in the driver
///   ([`TransportWorld::t_cancel_recv`](crate::transport::TransportWorld::t_cancel_recv)
///   withdrew it), or its completion had already been delivered to the
///   channel's CQ but **not yet popped**, in which case the queued entry is
///   dropped here (counted in [`RegistryStats::cancelled_completions`]);
/// * returns `false` ⇒ cancel lost deterministically: the completion was
///   already observed (popped from the CQ / upcalled into a handler), the
///   transfer was matched in-flight inside the driver and its `RecvDone`
///   is irrevocably on its way, or no such receive was ever posted.
///
/// Handler-backed channels have no queued-but-unobserved window (upcalls
/// are synchronous), so for them this is exactly the driver contract. RPC
/// cancellation sits directly on this rule: after a `true` return
/// `knet-rpc` frees the call context immediately; after a `false` it
/// parks the context until the in-flight completion drains through it.
pub fn channel_cancel_recv<W: DispatchWorld>(w: &mut W, ch: ChannelId, tag: u64) -> bool {
    let Some((local, cq)) = w.registry().channel(ch).map(|c| (c.local, c.cq)) else {
        return false;
    };
    if w.t_cancel_recv(local, tag) {
        return true;
    }
    // The driver no longer holds it: the completion may already be queued
    // (delivered, unobserved) on the channel's CQ. Cancel wins that race.
    if let Some(cq) = cq {
        let r = w.registry_mut();
        if let Some(q) = r.cqs.get_mut(&cq.0) {
            if q.withdraw_recv(local, tag) {
                r.stats.cancelled_completions += 1;
                return true;
            }
        }
    }
    false
}

/// Withdraw a send still parked in the channel's backpressure queue.
///
/// Returns `true` iff `ctx` was waiting for transport tokens and never
/// reached the wire: the entry is removed, the context returns to the
/// channel's pool, and **no completion will be delivered for it** (the
/// caller is withdrawing its `Ok(ctx)`). Returns `false` when the send
/// already left (its `SendDone`/`SendFailed` will arrive as usual) or the
/// channel/context is unknown. This is how deadline enforcement reaches
/// into backpressure: an RPC whose deadline fires while its request is
/// still queued resolves `Deadline` without ever touching the wire.
pub fn channel_abort_queued_send<W: DispatchWorld>(w: &mut W, ch: ChannelId, ctx: u64) -> bool {
    let removed = {
        let r = w.registry_mut();
        let Some(c) = r.channels.get_mut(&ch.0) else {
            return false;
        };
        c.pending.remove_first(|qs| qs.ctx == ctx)
    };
    match removed {
        Some((t, _qs)) => {
            release_channel_ctx(w, ch, ctx);
            let r = w.registry_mut();
            r.stats.aborted_queued_sends += 1;
            r.tenants.note(t, |s| s.aborted_queued_sends += 1);
            true
        }
        None => false,
    }
}

/// Remove a channel's state — route entry, consumer, staging buffer,
/// queued sends — without touching the endpoint's *current* binding.
/// Returns the channel's endpoint when it existed.
fn teardown_channel<W: DispatchWorld>(w: &mut W, ch: ChannelId) -> Option<Endpoint> {
    let mut c = w.registry_mut().channels.remove(&ch.0)?;
    // Backpressure-queued sends can never go out now. Complete them as
    // `SendFailed` while the channel's consumer is still bound, so every
    // `Ok(ctx)` the caller holds gets its completion and the resources
    // tied to those contexts are released (lanes drain in tenant order,
    // FIFO within each).
    for (t, qs) in c.pending.take_all() {
        let r = w.registry_mut();
        r.stats.failed_retries += 1;
        r.tenants.note(t, |s| s.failed_retries += 1);
        deliver(
            w,
            c.local,
            TransportEvent::SendFailed {
                ctx: qs.ctx,
                error: NetError::BadEndpoint,
            },
        );
    }
    {
        let r = w.registry_mut();
        if r.channel_routes.get(&key(c.local)) == Some(&ch) {
            r.channel_routes.remove(&key(c.local));
        }
        r.deregister(c.consumer);
    }
    if let Some((addr, len)) = c.staging {
        release_kernel_buffer(w, c.local.node, addr, len);
    }
    Some(c.local)
}

/// Close a channel: unbind its endpoint (future events park), release the
/// staging buffer, drop its state. Queued backpressure sends complete as
/// [`TransportEvent::SendFailed`] before the consumer detaches. A
/// caller-owned CQ survives. Closing an id already invalidated (e.g. by a
/// rebind of its endpoint) is a no-op.
pub fn channel_close<W: DispatchWorld>(w: &mut W, ch: ChannelId) {
    if let Some(local) = teardown_channel(w, ch) {
        w.registry_mut().unbind(local);
    }
}

/// Propagate a dead link into the channel layer: the driver's reliability
/// window exhausted its retry budget against `remote_node` (or the node was
/// killed). Every channel of `kind` whose endpoint lives on `local_node`:
///
/// * has its backpressure-queued sends toward the dead node completed as
///   [`TransportEvent::SendFailed`] with [`NetError::PeerUnreachable`]
///   (their bytes can never leave), and
/// * receives one [`TransportEvent::PeerDown`] so its consumer can fail
///   in-flight operations instead of stalling forever — zsock poisons the
///   socket, ORFS/NBD clients fail pending ops with a typed error.
///
/// Channels whose recorded peer is a *different* live node still get the
/// event (accept-side server channels serve many peers and may hold state
/// for the dead one); consumers key their cleanup on `peer.node`.
pub fn peer_down<W: DispatchWorld>(
    w: &mut W,
    kind: TransportKind,
    local_node: NodeId,
    remote_node: NodeId,
) {
    let affected: Vec<(ChannelId, Endpoint, Option<Endpoint>)> = w
        .registry()
        .channels
        .iter()
        .filter(|(_, c)| c.local.kind == kind && c.local.node == local_node)
        .map(|(id, c)| (ChannelId(*id), c.local, c.peer))
        .collect();
    for (chid, local, peer) in affected {
        // Fail queued sends addressed to the dead node, in order (lanes in
        // tenant order, FIFO within each).
        loop {
            let ctx = {
                let r = w.registry_mut();
                let Some(c) = r.channels.get_mut(&chid.0) else {
                    break;
                };
                let Some((t, qs)) = c.pending.remove_first(|qs| qs.to.node == remote_node) else {
                    break;
                };
                r.stats.failed_retries += 1;
                r.tenants.note(t, |s| s.failed_retries += 1);
                qs.ctx
            };
            deliver(
                w,
                local,
                TransportEvent::SendFailed {
                    ctx,
                    error: NetError::PeerUnreachable,
                },
            );
        }
        let peer_ep = match peer {
            Some(p) if p.node == remote_node => p,
            _ => Endpoint {
                kind,
                node: remote_node,
                idx: u32::MAX,
            },
        };
        deliver(w, local, TransportEvent::PeerDown { peer: peer_ep });
    }
}

/// Free a kernel buffer that drivers may hold cached registrations for:
/// the VMA-SPY unmap notification runs first, so registration caches (and
/// through them the NIC translation tables) drop their entries before the
/// memory is reused. Kernel `kfree` emits no VMA event of its own — every
/// layer that hands kernel staging memory back must go through here.
pub fn release_kernel_buffer<W: DispatchWorld>(w: &mut W, node: NodeId, addr: VirtAddr, len: u64) {
    w.vma_event(node, VmaEvent::unmap(Asid::KERNEL, addr, len));
    let _ = w.os_mut().node_mut(node).kfree(addr, len);
}

/// Coalesce a multi-segment io-vector into the channel's kernel staging
/// buffer when the transport cannot take it as-is (GM). Single-segment
/// vectors and vectorial transports pass through untouched.
/// Returns the (possibly rewritten) io-vector plus the number of bytes
/// gathered through the staging buffer (0 when passed through untouched);
/// the caller charges the copy once the send is accepted.
fn coalesce_for_transport<W: DispatchWorld>(
    w: &mut W,
    ch: ChannelId,
    local: Endpoint,
    iov: IoVec,
) -> Result<(IoVec, u64), NetError> {
    if local.kind != TransportKind::Gm || iov.seg_count() <= 1 {
        return Ok((iov, 0));
    }
    let len = iov.total_len();
    let node = local.node;
    // Grow (or create) the staging buffer to fit.
    let staging = {
        let cur = w
            .registry()
            .channel(ch)
            .ok_or(NetError::BadEndpoint)?
            .staging;
        match cur {
            Some((addr, cap)) if cap >= len => addr,
            other => {
                if let Some((addr, cap)) = other {
                    release_kernel_buffer(w, node, addr, cap);
                }
                let addr = w.os_mut().node_mut(node).kalloc(len)?;
                if let Some(c) = w.registry_mut().channels.get_mut(&ch.0) {
                    c.staging = Some((addr, len));
                }
                addr
            }
        }
    };
    // Gather in one pass over the segments (the copy cost is charged by the
    // caller once the send goes out).
    let data = read_iovec(w.os().node(node), &iov)?;
    w.os_mut()
        .node_mut(node)
        .write_virt(Asid::KERNEL, staging, &data)?;
    Ok((IoVec::single(MemRef::kernel(staging, len)), len))
}
