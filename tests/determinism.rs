//! Determinism pinned by golden fingerprints.
//!
//! Every virtual-time number the repository commits is a pure function of
//! its seed, because the scheduler orders events by the total key
//! `(time, origin, origin_seq)`. This file pins that contract two ways:
//!
//! * the same seed run twice yields the same fingerprint;
//! * fixed seeds yield golden constants, so any change that moves a single
//!   event — a reordered same-instant tie, an extra timer, a different
//!   fault verdict — fails here, not in a ledger diff weeks later.
//!
//! A fingerprint is the `executed()` event count plus an order-sensitive
//! rolling hash of every transport event each endpoint observed, with the
//! tenant-scheduler state (channel WDRR lanes, driver pacing lanes, NIC
//! token buckets) folded in after each round, and — for the collective
//! workload — the NIC tree fingerprint.
//!
//! The chaos workload exercises seeded drop/duplicate/delay fault dice
//! (per-directed-link streams), channel traffic in both directions,
//! reliability retransmission timers, acks, and node kills with
//! `PeerDown` failover. It runs over MX and over GM (kernel ports with the
//! physical-address patch), so both drivers' pacing lanes are pinned.

use knet::harness::{kbuf, KBuf};
use knet::prelude::*;
use knet_core::api::{channel_send, ChannelId};
use knet_core::Endpoint;
use knet_simnic::FaultPlan;
use knet_simos::Asid;
use proptest::prelude::*;

fn builder(n: usize) -> ClusterBuilder {
    ClusterBuilder::new()
        .nodes(n, CpuModel::xeon_2600())
        .mem_frames(32_768.max(n as u32 * 512))
}

// ------------------------------------------------------------ fingerprint

/// FNV-1a-style rolling mix — order-sensitive, so any reordering of the
/// observed event stream changes the result.
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}

fn mix_event(h: u64, ev: &TransportEvent) -> u64 {
    match ev {
        TransportEvent::SendDone { ctx } => mix(mix(h, 1), *ctx),
        TransportEvent::RecvDone { ctx, tag, len, .. } => {
            mix(mix(mix(mix(h, 2), *ctx), *tag), *len)
        }
        TransportEvent::Unexpected { tag, data, from } => {
            let sum: u64 = data.iter().map(|&b| b as u64).sum();
            mix(mix(mix(mix(h, 3), *tag), sum), from.idx as u64)
        }
        TransportEvent::SendFailed { ctx, .. } => mix(mix(h, 4), *ctx),
        TransportEvent::PeerDown { peer } => mix(mix(h, 5), peer.node.0 as u64),
        TransportEvent::CollectiveDone { ctx, data, .. } => {
            let sum: u64 = data.iter().map(|&b| b as u64).sum();
            mix(mix(mix(h, 6), *ctx), sum)
        }
        TransportEvent::CollectiveRecv { tag, data, .. } => {
            let sum: u64 = data.iter().map(|&b| b as u64).sum();
            mix(mix(mix(h, 7), *tag), sum)
        }
        TransportEvent::CollectiveFailed { ctx, .. } => mix(mix(h, 8), *ctx),
        TransportEvent::RpcDone { call, len, error } => {
            mix(mix(mix(mix(h, 9), *call), *len), error.is_some() as u64)
        }
    }
}

// -------------------------------------------------------- chaos workload

struct Mesh {
    eps: Vec<Endpoint>,
    bufs: Vec<KBuf>,
    /// `chans[i]` connects `eps[i] → eps[(i + 1) % n]`.
    chans: Vec<ChannelId>,
}

/// Ring-mesh channel traffic over `kind` under a seeded faulty fabric
/// (drops, dups, delay-reorder, and optionally a node kill). Returns the
/// fingerprint.
///
/// The mesh is multi-tenant: endpoints rotate through two weighted tenants
/// plus a token-bucket-paced one, so the per-channel WDRR lanes, the
/// driver pacing lanes and the NIC buckets all carry state under chaos —
/// and that state is folded into the fingerprint each round.
fn chaos_fingerprint(
    kind: TransportKind,
    n: usize,
    seed: u64,
    loss_pct: u64,
    kill: bool,
) -> (u64, u64) {
    let w = &mut builder(n).build();
    let mesh = {
        let mut plan = FaultPlan::new(seed)
            .with_drop(loss_pct as f64 / 100.0)
            .with_dup(0.03)
            .with_delay(0.06, SimTime::from_micros(2), SimTime::from_micros(60));
        if kill {
            plan = plan.with_kill(NodeId(n as u32 - 1), SimTime::from_millis(2));
        }
        w.set_fault_plan(plan);
        let silver = w.register_tenant("silver", 2, None);
        let bulk = w.register_tenant(
            "bulk",
            3,
            Some(knet_simnic::QosPolicy {
                rate_bytes_per_sec: 50_000_000,
                burst_bytes: 16_384,
                pace_queue_cap: 256,
            }),
        );
        let gold = w.register_tenant("gold", 4, None);
        let mut eps = Vec::new();
        let mut bufs = Vec::new();
        let mut cqs = Vec::new();
        for i in 0..n {
            let node = NodeId(i as u32);
            let cq = w.new_cq();
            let ep = match kind {
                TransportKind::Mx => w.open_mx_cq(node, MxEndpointConfig::kernel(), cq),
                TransportKind::Gm => {
                    w.open_gm_cq(node, GmPortConfig::kernel().with_physical_api(), cq)
                }
            }
            .unwrap();
            w.assign_tenant(ep, [silver, bulk, gold][i % 3]);
            eps.push(ep);
            cqs.push(cq);
            bufs.push(kbuf(w, node, 64 << 10));
        }
        let chans = (0..n)
            .map(|i| knet_core::api::channel_connect(w, eps[i], eps[(i + 1) % n], cqs[i]))
            .collect();
        Mesh { eps, bufs, chans }
    };

    let mut fp = 0xcbf2_9ce4_8422_2325u64;
    for round in 0..3u64 {
        for i in 0..n {
            let len = 900 + 611 * round + 37 * i as u64;
            let buf = mesh.bufs[i];
            let data: Vec<u8> = (0..len)
                .map(|j| (seed ^ (round * 131 + i as u64 * 17 + j)) as u8)
                .collect();
            w.os.node_mut(buf.node)
                .write_virt(Asid::KERNEL, buf.addr, &data)
                .unwrap();
            // Sends to a killed peer may fail synchronously once the link
            // dies — that is part of the fingerprinted behaviour.
            let _ = channel_send(w, mesh.chans[i], round * 100 + i as u64, buf.iov(len));
        }
        run_to_quiescence(w);
        for &ep in &mesh.eps {
            while let Some(ev) = w.take_event(ep) {
                fp = mix_event(fp, &ev);
            }
        }
        // Fold the tenant-scheduler state — channel WDRR lanes, driver
        // pacing lanes, NIC token buckets — so a single mis-scheduled
        // tenant byte anywhere diverges.
        w.tenant_fingerprint(|v| fp = mix(fp, v));
    }
    assert_eq!(w.sched.engine_error(), None);
    (w.sched.executed(), fp)
}

// --------------------------------------------------- collective workload

/// Broadcast + barrier + reduce rounds over an n-member NIC-tree group.
fn coll_fingerprint(n: usize, fanout: usize, seed: u64) -> (u64, u64, u64) {
    let w = &mut builder(n).build();
    let (group, eps, root_buf) = {
        let mut eps = Vec::new();
        let mut bufs = Vec::new();
        for i in 0..n {
            let node = NodeId(i as u32);
            let cq = w.new_cq();
            eps.push(w.open_mx_cq(node, MxEndpointConfig::kernel(), cq).unwrap());
            bufs.push(kbuf(w, node, 32 << 10));
        }
        let group = knet_coll::group_create(w, eps[0], fanout).unwrap();
        for &ep in &eps[1..] {
            knet_coll::group_join(w, group, ep).unwrap();
        }
        (group, eps, bufs[0])
    };

    let mut fp = 0xcbf2_9ce4_8422_2325u64;
    let drain = |w: &mut ClusterWorld, fp: &mut u64| {
        for &ep in &eps {
            while let Some(ev) = w.take_event(ep) {
                *fp = mix_event(*fp, &ev);
            }
        }
    };
    for round in 0..2u64 {
        let len = 4_000 + 512 * round;
        let payload: Vec<u8> = (0..len).map(|i| (seed ^ (round * 91 + i)) as u8).collect();
        w.os.node_mut(NodeId(0))
            .write_virt(Asid::KERNEL, root_buf.addr, &payload)
            .unwrap();
        channel_bcast(w, group, round, &root_buf.iov(len)).unwrap();
        run_to_quiescence(w);
        drain(w, &mut fp);

        for &ep in &eps {
            channel_barrier(w, group, ep).unwrap();
        }
        run_to_quiescence(w);

        for (i, &ep) in eps.iter().enumerate() {
            let v = (i as u64 + 1) * (round + 1);
            channel_reduce(w, group, ep, ReduceOp::Sum, &[v, v * 3]).unwrap();
        }
        run_to_quiescence(w);
        drain(w, &mut fp);
    }
    assert_eq!(w.sched.engine_error(), None);
    let tree = w
        .nics
        .coll
        .tree_fingerprint(knet_simnic::Proto::Mx, group.0);
    (w.sched.executed(), fp, tree)
}

// ----------------------------------------------------------------- tests

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The full chaos surface (faults + reliability + failover) repeats
    /// event for event under the same seed.
    #[test]
    fn chaos_fingerprints_repeat_per_seed(
        seed in 1u64..1_000_000,
        loss in 0u64..12,
        kill in any::<bool>(),
    ) {
        let n = 9;
        prop_assert_eq!(
            chaos_fingerprint(TransportKind::Mx, n, seed, loss, kill),
            chaos_fingerprint(TransportKind::Mx, n, seed, loss, kill)
        );
    }

    /// NIC-tree collectives (fan-out, fan-in, in-NIC combines) repeat
    /// event for event under the same seed.
    #[test]
    fn collective_fingerprints_repeat_per_seed(
        seed in 1u64..1_000_000,
        fanout in 2usize..4,
    ) {
        let n = 7;
        prop_assert_eq!(coll_fingerprint(n, fanout, seed), coll_fingerprint(n, fanout, seed));
    }
}

/// Fixed chaos seeds, with and without a node kill, land on golden
/// fingerprints. A change that moves any event changes these.
#[test]
fn chaos_fingerprints_match_golden() {
    assert_eq!(
        chaos_fingerprint(TransportKind::Mx, 9, 0xC0FFEE, 8, false),
        (144, 10_454_617_983_687_255_829)
    );
    assert_eq!(
        chaos_fingerprint(TransportKind::Mx, 9, 0x5EED, 5, true),
        (138, 6_056_646_812_079_556_699)
    );
    assert_eq!(
        chaos_fingerprint(TransportKind::Gm, 9, 0xC0FFEE, 8, false),
        (144, 12_992_476_759_751_521_750)
    );
}

/// A fixed collective seed lands on its golden fingerprint.
#[test]
fn collective_fingerprint_matches_golden() {
    assert_eq!(
        coll_fingerprint(7, 3, 0xC011),
        (258, 1_718_652_184_997_073_896, 100_538_711_074_943_120)
    );
}
