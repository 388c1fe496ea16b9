//! `ClusterWorld` — the composed simulation world.
//!
//! Every layer crate exposes its state type plus a capability trait; this is
//! the one place they all meet. `ClusterWorld` implements each trait and
//! routes the upcalls:
//!
//! * `nic_rx` → GM or MX firmware, by packet protocol;
//! * `vma_event` → the GM registration caches (VMA SPY subscribers);
//! * `gm_dispatch`/`mx_dispatch` → unified [`TransportEvent`]s handed to
//!   [`knet_core::api::deliver`], which routes each endpoint's events to
//!   whatever consumer registered for it — a completion queue for polling
//!   drivers, or an application handler (ORFS, NBD, sockets). The world
//!   itself names no application: new workloads attach through the
//!   registry, not by editing this file.
//! * [`TransportWorld`] (`t_send`/`t_post_recv`) → the owning driver, with
//!   the GM glue inserting GMKRC registration for user-virtual buffers
//!   exactly where the paper's in-kernel clients needed it. This is the
//!   *driver seam*: applications and benchmarks send through channels
//!   (`knet_core::api::channel_send`), never through the raw transport —
//!   enforced by `tests/api_boundaries.rs`.

use knet_coll::{CollLayer, CollWorld};
use knet_core::api::{self, ConsumerId, CqId, Registry};
use knet_core::{
    DispatchWorld, Endpoint, IoVec, MemRef, NetError, TenantId, TenantSendStats, TransportEvent,
    TransportKind, TransportWorld,
};
use knet_gm::{
    gm_ensure_cached, gm_next_event, gm_on_packet, gm_on_vma_event, gm_open_port,
    gm_provide_receive_buffer, gm_send_t, GmEv, GmEvent, GmLayer, GmPortConfig, GmPortId, GmWorld,
};
use knet_kv::{KvEv, KvLayer, KvWorld};
use knet_mx::{
    mx_irecv, mx_isend_t, mx_next_event, mx_on_packet, mx_open_endpoint, MxEndpointConfig,
    MxEndpointId, MxEv, MxEvent, MxLayer, MxWorld,
};
use knet_nbd::{NbdLayer, NbdWorld};
use knet_orfs::{OrfsLayer, OrfsWorld};
use knet_rpc::{RpcEv, RpcLayer, RpcWorld};
use knet_simcore::{Scheduler, SimWorld};

use crate::event::ClusterEv;
use knet_simnic::{CollCmd, CollEvent, NicEv, NicId, NicLayer, NicWorld, Packet, Proto};
use knet_simos::{NodeId, OsLayer, OsWorld, VmaEvent};
use knet_zsock::{TcpLayer, TcpWorld, ZsockLayer, ZsockWorld};

/// The fully composed world.
pub struct ClusterWorld {
    pub sched: Scheduler<ClusterWorld>,
    pub os: OsLayer,
    pub nics: NicLayer,
    pub gm: GmLayer,
    pub mx: MxLayer,
    pub orfs: OrfsLayer,
    pub zsock: ZsockLayer,
    pub tcp: TcpLayer,
    pub nbd: NbdLayer,
    /// Collective groups (rosters, round counters, completion contexts).
    pub coll: CollLayer,
    /// Typed RPC over channels: call slabs, servers, deadline/retry state.
    pub rpc: RpcLayer<ClusterWorld>,
    /// Replicated KV store (the RPC layer's proof-of-API consumer).
    pub kv: KvLayer,
    /// Endpoint → consumer dispatch, completion queues, channels.
    pub registry: Registry<ClusterWorld>,
}

impl ClusterWorld {
    pub(crate) fn from_layers(
        os: OsLayer,
        nics: NicLayer,
        gm: GmLayer,
        mx: MxLayer,
        zsock: ZsockLayer,
        tcp: TcpLayer,
    ) -> Self {
        ClusterWorld {
            sched: Scheduler::new(),
            os,
            nics,
            gm,
            mx,
            orfs: OrfsLayer::new(),
            zsock,
            tcp,
            nbd: NbdLayer::new(),
            coll: CollLayer::default(),
            rpc: RpcLayer::new(),
            kv: KvLayer::new(),
            registry: Registry::new(),
        }
    }

    /// Create a completion queue.
    pub fn new_cq(&mut self) -> CqId {
        self.registry.create_cq()
    }

    /// Open a GM port wrapped as a transport endpoint. The endpoint starts
    /// unbound: events park in the registry until a consumer attaches
    /// (application handler or [`Self::attach_cq`]).
    pub fn open_gm(&mut self, node: NodeId, cfg: GmPortConfig) -> Result<Endpoint, NetError> {
        let port = gm_open_port(self, node, cfg)?;
        Ok(Endpoint {
            kind: TransportKind::Gm,
            node,
            idx: port.0,
        })
    }

    /// Open an MX endpoint wrapped as a transport endpoint. Unexpected
    /// delivery is always enabled — the transport contract requires it.
    /// The endpoint starts unbound (see [`Self::open_gm`]).
    pub fn open_mx(&mut self, node: NodeId, cfg: MxEndpointConfig) -> Result<Endpoint, NetError> {
        let ep = mx_open_endpoint(self, node, cfg.with_unexpected_delivery())?;
        Ok(Endpoint {
            kind: TransportKind::Mx,
            node,
            idx: ep.0,
        })
    }

    /// Open a GM endpoint for a polling driver: bound to `cq` on creation.
    pub fn open_gm_cq(
        &mut self,
        node: NodeId,
        cfg: GmPortConfig,
        cq: CqId,
    ) -> Result<Endpoint, NetError> {
        let ep = self.open_gm(node, cfg)?;
        self.attach_cq(ep, cq);
        Ok(ep)
    }

    /// Open an MX endpoint for a polling driver: bound to `cq` on creation.
    pub fn open_mx_cq(
        &mut self,
        node: NodeId,
        cfg: MxEndpointConfig,
        cq: CqId,
    ) -> Result<Endpoint, NetError> {
        let ep = self.open_mx(node, cfg)?;
        self.attach_cq(ep, cq);
        Ok(ep)
    }

    /// Bind an endpoint's events to a completion queue (replacing any
    /// previous consumer; parked events replay into the queue).
    pub fn attach_cq(&mut self, ep: Endpoint, cq: CqId) -> ConsumerId {
        let cid = self.registry.register_cq("driver-cq", cq);
        api::bind(self, ep, cid);
        cid
    }

    /// Pop the next completion-queue event for `ep`.
    pub fn take_event(&mut self, ep: Endpoint) -> Option<TransportEvent> {
        self.registry.take_event(ep)
    }

    /// Drain up to `max` pending events for `ep` from its bound queue into
    /// `out` (cleared first), oldest first — the batched form
    /// ([`Registry::cq_pop_batch`]); one registry access amortizes over a
    /// burst of completions. Returns the number drained.
    pub fn take_events(
        &mut self,
        ep: Endpoint,
        max: usize,
        out: &mut Vec<knet_core::CqEntry>,
    ) -> usize {
        let Some(cq) = self.registry.cq_of(ep) else {
            out.clear();
            return 0;
        };
        self.registry.cq_pop_batch(cq, ep, max, out)
    }

    /// Peek whether a completion-queue event is waiting for `ep`.
    pub fn has_event(&self, ep: Endpoint) -> bool {
        self.registry.has_event(ep)
    }

    /// Install a fault plan on the fabric (see `knet_simnic::FaultPlan`):
    /// seeded drop/duplicate/delay dice plus one-shot node kills, and —
    /// via [`knet_simnic::FaultPlan::for_link`] — per-link asymmetric
    /// overrides with their own independent dice streams. The driver-level
    /// reliability windows absorb the injected faults; an exhausted retry
    /// budget surfaces as `TransportEvent::PeerDown`.
    pub fn set_fault_plan(&mut self, plan: knet_simnic::FaultPlan) {
        self.nics.set_fault_plan(plan);
    }

    /// The registry counters with the NIC-level reliability counters
    /// (`knet_simnic::RelStats`) mirrored in: one snapshot tests, figures
    /// and the bench can assert on without reaching below the driver seam.
    pub fn stats_snapshot(&self) -> knet_core::RegistryStats {
        let mut st = self.registry.stats;
        let rel = self.nics.rel.stats;
        st.rel_data_packets = rel.data_packets;
        st.rel_retransmits = rel.retransmits;
        st.rel_sack_repairs = rel.sack_repairs;
        st.rel_rtt_samples = rel.rtt_samples;
        st.rel_spurious_rtos = rel.spurious_rtos;
        st.rel_srtt_ns = rel.srtt_ns;
        st.rel_rto_ns = rel.rto_ns;
        st.rel_fast_retransmits = rel.fast_retransmits;
        st.rel_cwnd_cuts = rel.cwnd_cuts;
        st.rel_delayed_acks = rel.acks_delayed;
        st.nic_rx_congestion_drops = self.nics.congestion_drops();
        let coll = self.coll.stats;
        st.coll_started = coll.started;
        st.coll_completed = coll.completed;
        st.coll_failed = coll.failed;
        let nic_coll = self.nics.coll.stats;
        st.coll_frames = nic_coll.frames;
        st.coll_combines = nic_coll.combines;
        let rpc = self.rpc.stats;
        st.rpc_calls = rpc.calls;
        st.rpc_completed = rpc.completed;
        st.rpc_failed = rpc.failed;
        st.rpc_retries = rpc.retries;
        st.rpc_expired_dropped = rpc.expired_dropped;
        st.rpc_idem_hits = rpc.idem_hits;
        let eng = self.sched.engine_stats();
        st.engine_events = eng.executed;
        st.engine_arena_uses = eng.arena_uses;
        st.engine_arena_grows = eng.arena_grows;
        st.engine_errors = eng.errors;
        let qos = self.nics.qos.totals();
        st.qos_admitted = qos.admitted;
        st.qos_deferred = qos.deferred;
        st.qos_shed = qos.shed;
        st
    }

    /// The raw engine counters of this world's scheduler (also mirrored
    /// into [`Self::stats_snapshot`]).
    pub fn engine_stats(&self) -> knet_simcore::EngineStats {
        self.sched.engine_stats()
    }

    /// Per-link reliability counters, one row per live link state,
    /// deterministically ordered — the breakdown behind the aggregate
    /// [`Self::stats_snapshot`], so a hot link (e.g. a collective tree's
    /// root edge) is attributable instead of averaged away.
    pub fn rel_link_stats(&self) -> Vec<knet_simnic::RelLinkStats> {
        self.nics.rel.link_breakdown()
    }

    /// Register a tenant (idempotent by name): mints the registry id,
    /// installs the WDRR weight in both drivers, and — when `policy` is
    /// given — the token-bucket policy at the NIC admission point.
    pub fn register_tenant(
        &mut self,
        name: &str,
        weight: u64,
        policy: Option<knet_simnic::QosPolicy>,
    ) -> TenantId {
        let t = self.registry.tenant_create(name, weight);
        if let Some(p) = policy {
            self.nics.qos.set_policy(t.0, p);
        }
        self.sync_tenant_weights();
        t
    }

    /// Attribute an endpoint's sends to `tenant` (channels created for it
    /// pick the tenant up; existing channels are re-tagged).
    pub fn assign_tenant(&mut self, ep: Endpoint, tenant: TenantId) {
        self.registry.assign_tenant(ep, tenant);
    }

    /// Mirror the registry's tenant weights into the driver pacing
    /// schedulers (both drivers index weights by dense tenant id).
    fn sync_tenant_weights(&mut self) {
        let table = self.registry.tenant_table();
        let n = table.count();
        self.gm.tenant_weights.clear();
        self.mx.tenant_weights.clear();
        for i in 0..n {
            let wgt = table.weight(TenantId(i as u32));
            self.gm.tenant_weights.push(wgt);
            self.mx.tenant_weights.push(wgt);
        }
    }

    /// One stats row per tenant: channel-layer queueing counters joined
    /// with the NIC admission counters (summed over the tenant's NICs).
    pub fn tenant_stats(&self) -> Vec<TenantStatsRow> {
        self.registry
            .tenant_rows()
            .into_iter()
            .map(|row| TenantStatsRow {
                id: row.id,
                name: row.name,
                weight: row.weight,
                channel: row.stats,
                qos: self.nics.qos.tenant_stats(row.id.0),
            })
            .collect()
    }

    /// Fold every tenant-visible scheduler and admission state into a
    /// fingerprint accumulator: channel WDRR lanes, driver pacing lanes,
    /// token buckets. Zero-cost mix when no tenant is configured; the
    /// determinism tests fold it next to the observed event stream.
    pub fn tenant_fingerprint(&self, mut mix: impl FnMut(u64)) {
        self.registry.wdrr_fingerprint(&mut mix);
        self.gm.paced_fingerprint(&mut mix);
        self.mx.paced_fingerprint(&mut mix);
        self.nics.qos.fingerprint(&mut mix);
    }
}

/// Per-tenant observability row surfaced by [`ClusterWorld::tenant_stats`]:
/// the channel layer's queueing counters and the NIC admission point's
/// token-bucket counters, keyed by the registry's tenant directory.
#[derive(Clone, Debug)]
pub struct TenantStatsRow {
    pub id: TenantId,
    pub name: String,
    pub weight: u64,
    pub channel: TenantSendStats,
    pub qos: knet_simnic::QosTenantStats,
}

impl SimWorld for ClusterWorld {
    type Ev = ClusterEv;
    fn sched(&self) -> &Scheduler<Self> {
        &self.sched
    }
    fn sched_mut(&mut self) -> &mut Scheduler<Self> {
        &mut self.sched
    }
}

/// A whole world can move to another thread (run independent seeds in
/// parallel, hand a built world to a worker); events are `Send` for the
/// same reason.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<ClusterWorld>();
};

impl OsWorld for ClusterWorld {
    fn os(&self) -> &OsLayer {
        &self.os
    }
    fn os_mut(&mut self) -> &mut OsLayer {
        &mut self.os
    }
    fn vma_event(&mut self, node: NodeId, ev: VmaEvent) {
        // The VMA SPY notifier chain: GM registration caches subscribe.
        gm_on_vma_event(self, node, &ev);
    }
}

impl NicWorld for ClusterWorld {
    fn nics(&self) -> &NicLayer {
        &self.nics
    }
    fn nics_mut(&mut self) -> &mut NicLayer {
        &mut self.nics
    }
    fn lift_nic(ev: NicEv) -> ClusterEv {
        ClusterEv::Nic(ev)
    }
    fn nic_rx(&mut self, nic: NicId, pkt: Packet) {
        match pkt.proto {
            Proto::Gm => gm_on_packet(self, nic, pkt),
            Proto::Mx => mx_on_packet(self, nic, pkt),
            Proto::Raw => {}
        }
    }
    fn nic_link_dead(&mut self, proto: Proto, local: NicId, remote: NicId) {
        // A reliability window exhausted its retry budget: surface the dead
        // peer to every channel above the driver seam, and resolve every
        // collective the dead node was a member of as a typed failure.
        let kind = match proto {
            Proto::Gm => TransportKind::Gm,
            Proto::Mx => TransportKind::Mx,
            Proto::Raw => return,
        };
        let local_node = self.nics.get(local).node;
        let remote_node = self.nics.get(remote).node;
        api::peer_down(self, kind, local_node, remote_node);
        knet_coll::coll_peer_down(self, kind, remote_node);
    }
    fn coll_event(&mut self, proto: Proto, nic: NicId, ev: CollEvent) {
        let kind = match proto {
            Proto::Gm => TransportKind::Gm,
            Proto::Mx => TransportKind::Mx,
            Proto::Raw => return,
        };
        let node = self.nics.get(nic).node;
        knet_coll::on_nic_event(self, kind, node, ev);
    }
}

impl CollWorld for ClusterWorld {
    fn coll(&self) -> &CollLayer {
        &self.coll
    }
    fn coll_mut(&mut self) -> &mut CollLayer {
        &mut self.coll
    }
    fn coll_post(&mut self, ep: Endpoint, cmd: CollCmd) -> Result<(), NetError> {
        match ep.kind {
            TransportKind::Gm => knet_gm::gm_coll_post(self, GmPortId(ep.idx), cmd),
            TransportKind::Mx => knet_mx::mx_coll_post(self, MxEndpointId(ep.idx), cmd),
        }
    }
    fn coll_install(
        &mut self,
        ep: Endpoint,
        parent: Option<Endpoint>,
        children: &[Endpoint],
        group: u32,
    ) {
        let proto = match ep.kind {
            TransportKind::Gm => Proto::Gm,
            TransportKind::Mx => Proto::Mx,
        };
        let Some(nic) = self.nics.nic_of_node(ep.node) else {
            return;
        };
        let parent = parent.and_then(|p| self.nics.nic_of_node(p.node));
        let mut kids: Vec<NicId> = Vec::with_capacity(children.len());
        for c in children {
            if let Some(n) = self.nics.nic_of_node(c.node) {
                kids.push(n);
            }
        }
        self.nics
            .coll
            .install_tree(proto, group, nic, parent, &kids);
    }
    fn coll_uninstall(&mut self, ep: Endpoint, group: u32) {
        let proto = match ep.kind {
            TransportKind::Gm => Proto::Gm,
            TransportKind::Mx => Proto::Mx,
        };
        if let Some(nic) = self.nics.nic_of_node(ep.node) {
            self.nics.coll.uninstall_tree(proto, group, nic);
        }
    }
    fn coll_purge(&mut self, kind: TransportKind, group: u32) {
        let proto = match kind {
            TransportKind::Gm => Proto::Gm,
            TransportKind::Mx => Proto::Mx,
        };
        self.nics.coll.purge_group(proto, group);
    }
}

impl RpcWorld for ClusterWorld {
    fn rpc(&self) -> &RpcLayer<Self> {
        &self.rpc
    }
    fn rpc_mut(&mut self) -> &mut RpcLayer<Self> {
        &mut self.rpc
    }
    fn lift_rpc(ev: RpcEv) -> ClusterEv {
        ClusterEv::Rpc(ev)
    }
}

impl KvWorld for ClusterWorld {
    fn kv(&self) -> &KvLayer {
        &self.kv
    }
    fn kv_mut(&mut self) -> &mut KvLayer {
        &mut self.kv
    }
    fn lift_kv(ev: KvEv) -> ClusterEv {
        ClusterEv::Kv(ev)
    }
}

impl DispatchWorld for ClusterWorld {
    fn registry(&self) -> &Registry<Self> {
        &self.registry
    }
    fn registry_mut(&mut self) -> &mut Registry<Self> {
        &mut self.registry
    }
}

impl GmWorld for ClusterWorld {
    fn gm(&self) -> &GmLayer {
        &self.gm
    }
    fn gm_mut(&mut self) -> &mut GmLayer {
        &mut self.gm
    }
    fn lift_gm(ev: GmEv) -> ClusterEv {
        ClusterEv::Gm(ev)
    }
    fn gm_dispatch(&mut self, port: GmPortId) {
        let node = match self.gm.port(port) {
            Ok(p) => p.node,
            Err(_) => return,
        };
        while let Some(ev) = gm_next_event(self, port) {
            let tev = match ev {
                GmEvent::SendDone { ctx } => TransportEvent::SendDone { ctx },
                GmEvent::SendFailed { ctx, error } => TransportEvent::SendFailed { ctx, error },
                GmEvent::RecvDone {
                    ctx,
                    tag,
                    len,
                    from,
                } => {
                    let from_node = self.gm.port(from).map(|p| p.node).unwrap_or(node);
                    TransportEvent::RecvDone {
                        ctx,
                        tag,
                        len,
                        from: Endpoint {
                            kind: TransportKind::Gm,
                            node: from_node,
                            idx: from.0,
                        },
                    }
                }
                GmEvent::Unexpected { tag, data, from } => {
                    let from_node = self.gm.port(from).map(|p| p.node).unwrap_or(node);
                    TransportEvent::Unexpected {
                        tag,
                        data,
                        from: Endpoint {
                            kind: TransportKind::Gm,
                            node: from_node,
                            idx: from.0,
                        },
                    }
                }
            };
            let ep = Endpoint {
                kind: TransportKind::Gm,
                node,
                idx: port.0,
            };
            api::deliver(self, ep, tev);
        }
    }
}

impl MxWorld for ClusterWorld {
    fn mx(&self) -> &MxLayer {
        &self.mx
    }
    fn mx_mut(&mut self) -> &mut MxLayer {
        &mut self.mx
    }
    fn lift_mx(ev: MxEv) -> ClusterEv {
        ClusterEv::Mx(ev)
    }
    fn mx_dispatch(&mut self, ep_id: MxEndpointId) {
        let node = match self.mx.ep(ep_id) {
            Ok(e) => e.node,
            Err(_) => return,
        };
        while let Some(ev) = mx_next_event(self, ep_id) {
            let tev = match ev {
                MxEvent::SendDone { ctx } => TransportEvent::SendDone { ctx },
                MxEvent::SendFailed { ctx, error } => TransportEvent::SendFailed { ctx, error },
                MxEvent::RecvDone {
                    ctx,
                    tag,
                    len,
                    from,
                } => {
                    let from_node = self.mx.ep(from).map(|e| e.node).unwrap_or(node);
                    TransportEvent::RecvDone {
                        ctx,
                        tag,
                        len,
                        from: Endpoint {
                            kind: TransportKind::Mx,
                            node: from_node,
                            idx: from.0,
                        },
                    }
                }
                MxEvent::Unexpected { tag, data, from } => {
                    let from_node = self.mx.ep(from).map(|e| e.node).unwrap_or(node);
                    TransportEvent::Unexpected {
                        tag,
                        data,
                        from: Endpoint {
                            kind: TransportKind::Mx,
                            node: from_node,
                            idx: from.0,
                        },
                    }
                }
            };
            let ep = Endpoint {
                kind: TransportKind::Mx,
                node,
                idx: ep_id.0,
            };
            api::deliver(self, ep, tev);
        }
    }
}

impl TransportWorld for ClusterWorld {
    fn t_send(
        &mut self,
        from: Endpoint,
        to: Endpoint,
        tag: u64,
        iov: IoVec,
        ctx: u64,
    ) -> Result<(), NetError> {
        self.t_send_t(from, to, tag, iov, ctx, TenantId::DEFAULT)
    }

    fn t_send_t(
        &mut self,
        from: Endpoint,
        to: Endpoint,
        tag: u64,
        iov: IoVec,
        ctx: u64,
        tenant: TenantId,
    ) -> Result<(), NetError> {
        match from.kind {
            TransportKind::Mx => mx_isend_t(
                self,
                MxEndpointId(from.idx),
                MxEndpointId(to.idx),
                tag,
                &iov,
                ctx,
                tenant,
            ),
            TransportKind::Gm => {
                // GM is not vectorial (§4.1): single-segment sends only.
                // The channel layer (`knet_core::api::channel_send`)
                // coalesces above this point; raw callers see the driver's
                // real contract.
                if iov.seg_count() != 1 {
                    return Err(NetError::Unsupported);
                }
                let seg = iov.segs()[0];
                let port = GmPortId(from.idx);
                match seg {
                    // On-the-fly registration through GMKRC for pageable
                    // memory.
                    MemRef::UserVirtual { asid, addr, len } => {
                        if self.gm.port(port)?.regcache.is_some() {
                            gm_ensure_cached(self, port, asid, addr, len)?;
                        }
                    }
                    // Stock GM (no physical-address patch) needs kernel
                    // buffers registered too; the cache absorbs the cost the
                    // same way (the channel layer's coalescing staging
                    // buffers take this path).
                    MemRef::KernelVirtual { addr, len } => {
                        let p = self.gm.port(port)?;
                        if p.regcache.is_some() && !p.physical_api {
                            gm_ensure_cached(self, port, knet_simos::Asid::KERNEL, addr, len)?;
                        }
                    }
                    MemRef::Physical { .. } => {}
                }
                gm_send_t(self, port, seg, GmPortId(to.idx), tag, ctx, tenant)
            }
        }
    }

    fn t_post_recv(
        &mut self,
        ep: Endpoint,
        tag: u64,
        iov: IoVec,
        ctx: u64,
    ) -> Result<(), NetError> {
        match ep.kind {
            TransportKind::Mx => mx_irecv(self, MxEndpointId(ep.idx), tag, &iov, ctx),
            TransportKind::Gm => {
                let port = GmPortId(ep.idx);
                for seg in iov.segs() {
                    if let MemRef::UserVirtual { asid, addr, len } = *seg {
                        if self.gm.port(port)?.regcache.is_some() {
                            gm_ensure_cached(self, port, asid, addr, len)?;
                        }
                    }
                }
                gm_provide_receive_buffer(self, port, &iov, tag, ctx)
            }
        }
    }

    fn t_cancel_recv(&mut self, ep: Endpoint, tag: u64) -> bool {
        match ep.kind {
            TransportKind::Mx => knet_mx::mx_cancel_recv(self, MxEndpointId(ep.idx), tag),
            TransportKind::Gm => knet_gm::gm_cancel_receive_buffer(self, GmPortId(ep.idx), tag),
        }
    }
}

impl OrfsWorld for ClusterWorld {
    fn orfs(&self) -> &OrfsLayer {
        &self.orfs
    }
    fn orfs_mut(&mut self) -> &mut OrfsLayer {
        &mut self.orfs
    }
}

impl ZsockWorld for ClusterWorld {
    fn zsock(&self) -> &ZsockLayer {
        &self.zsock
    }
    fn zsock_mut(&mut self) -> &mut ZsockLayer {
        &mut self.zsock
    }
}

impl TcpWorld for ClusterWorld {
    fn tcp(&self) -> &TcpLayer {
        &self.tcp
    }
    fn tcp_mut(&mut self) -> &mut TcpLayer {
        &mut self.tcp
    }
}

impl NbdWorld for ClusterWorld {
    fn nbd(&self) -> &NbdLayer {
        &self.nbd
    }
    fn nbd_mut(&mut self) -> &mut NbdLayer {
        &mut self.nbd
    }
}
