//! Per-layer counters read from the stack's public `*Stats` at the end of
//! a run, named after the crates that own them. All of them are virtual:
//! deterministic per seed. The host-time per-layer numbers come from the
//! traced run in `main.rs`.

use knet::ClusterWorld;
use knet_core::{Endpoint, TransportKind};
use knet_gm::GmPortId;
use knet_mx::MxEndpointId;
use knet_simos::NodeId;

/// State of the busy-time accumulators when the run phase starts, so busy
/// fractions cover the run phase only.
#[derive(Clone, Copy, Debug)]
pub struct Baseline {
    events: u64,
    fw: u64,
    dma: u64,
    tx: u64,
    rx: u64,
    cpu: u64,
    fs_bytes_written: u64,
}

/// The node whose NIC and CPU the `server_*` fractions describe.
pub fn baseline(w: &ClusterWorld, server: NodeId, fs_bytes_written: u64) -> Baseline {
    let nic = w.nics.get(w.nics.nic_of_node(server).expect("server nic"));
    Baseline {
        events: w.sched.executed(),
        fw: nic.fw.busy_total().nanos(),
        dma: nic.dma.busy_total().nanos(),
        tx: nic.tx.busy_total().nanos(),
        rx: nic.rx.busy_total().nanos(),
        cpu: w.os.node(server).cpu.busy.busy_total().nanos(),
        fs_bytes_written,
    }
}

/// Workload-specific inputs the generic counters need.
pub struct Extra {
    pub server: NodeId,
    /// Every endpoint the workload opened (for the per-endpoint MX stats).
    pub endpoints: Vec<Endpoint>,
    pub run_len_ns: u64,
    pub attempted: u64,
    pub orfs_staging_leftover: u64,
    pub orfs_corrupt_writes: u64,
    pub fs_bytes_written: u64,
    pub kv_ops: u64,
    /// Kill → backup promotion, virtual ms (0 without a kill).
    pub promotion_ms: f64,
}

/// The virtual per-layer counters, in report order.
pub fn counters(w: &ClusterWorld, base: &Baseline, x: &Extra) -> Vec<(&'static str, f64)> {
    let reg = w.registry.stats;
    let eng = w.sched.engine_stats();
    let rel = w.nics.rel.stats;
    let qos = w.nics.qos.totals();
    let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let run = x.run_len_ns.max(1);

    let (mut hits, mut misses, mut evictions, mut reg_pages, mut dereg_pages) = (0, 0, 0, 0, 0);
    let (mut unexpected, mut rndv, mut copies_avoided) = (0, 0, 0);
    for ep in &x.endpoints {
        match ep.kind {
            TransportKind::Gm => {
                let p = w.gm.port(GmPortId(ep.idx)).expect("benchmark GM port");
                if let Some(c) = &p.regcache {
                    hits += c.stats.page_hits;
                    misses += c.stats.page_misses;
                    evictions += c.stats.evictions;
                }
                reg_pages += p.stats.pages_registered;
                dereg_pages += p.stats.pages_deregistered;
            }
            TransportKind::Mx => {
                let e =
                    w.mx.ep(MxEndpointId(ep.idx))
                        .expect("benchmark MX endpoint");
                unexpected += e.stats.unexpected;
                rndv += e.stats.rndv_started;
                copies_avoided += e.stats.send_copies_avoided;
            }
        }
    }

    let nic = w
        .nics
        .get(w.nics.nic_of_node(x.server).expect("server nic"));
    let busy =
        |now: u64, then: u64, lanes: usize| (now - then) as f64 / (run * lanes as u64) as f64;
    let late_replies: u64 = (0..w.rpc.clients.len())
        .map(|i| knet_rpc::rpc_client_stats(w, knet_rpc::RpcClientId(i as u32)).late_replies)
        .sum();
    let rpc = w.rpc.stats;
    let kv = w.kv.stats;

    vec![
        (
            "simcore.events_per_op",
            per(w.sched.executed() - base.events, x.attempted),
        ),
        ("simcore.arena_grows", eng.arena_grows as f64),
        ("core.queued_sends", reg.queued_sends as f64),
        ("core.failed_retries", reg.failed_retries as f64),
        ("core.regcache_hit_ratio", per(hits, hits + misses)),
        ("core.regcache_evictions", evictions as f64),
        ("gm.pages_registered", reg_pages as f64),
        ("gm.pages_deregistered", dereg_pages as f64),
        ("mx.unexpected", unexpected as f64),
        ("mx.rndv_started", rndv as f64),
        ("mx.send_copies_avoided", copies_avoided as f64),
        (
            "simnic.retransmit_ratio",
            per(rel.retransmits, rel.data_packets),
        ),
        ("simnic.timeouts", rel.timeouts as f64),
        ("simnic.fast_retransmits", rel.fast_retransmits as f64),
        ("simnic.nacks", rel.nacks as f64),
        ("simnic.cwnd_cuts", rel.cwnd_cuts as f64),
        ("simnic.spurious_rtos", rel.spurious_rtos as f64),
        ("simnic.dead_links", rel.dead_links as f64),
        (
            "simnic.rx_congestion_drops",
            w.nics.congestion_drops() as f64,
        ),
        ("simnic.qos_deferred", qos.deferred as f64),
        ("simnic.qos_shed", qos.shed as f64),
        (
            "simnic.server_fw_busy",
            busy(nic.fw.busy_total().nanos(), base.fw, 1),
        ),
        (
            "simnic.server_dma_busy",
            busy(nic.dma.busy_total().nanos(), base.dma, 1),
        ),
        (
            "simnic.server_tx_busy",
            busy(nic.tx.busy_total().nanos(), base.tx, nic.tx.width()),
        ),
        (
            "simnic.server_rx_busy",
            busy(nic.rx.busy_total().nanos(), base.rx, nic.rx.width()),
        ),
        (
            "simos.server_cpu_busy",
            busy(
                w.os.node(x.server).cpu.busy.busy_total().nanos(),
                base.cpu,
                1,
            ),
        ),
        ("orfs.staging_leftover", x.orfs_staging_leftover as f64),
        ("orfs.corrupt_writes", x.orfs_corrupt_writes as f64),
        (
            "simfs.bytes_written",
            (x.fs_bytes_written - base.fs_bytes_written) as f64,
        ),
        ("rpc.retries_per_call", per(rpc.retries, rpc.calls)),
        ("rpc.failed", rpc.failed as f64),
        ("rpc.late_replies", late_replies as f64),
        ("kv.reissues_per_op", per(kv.reissues, x.kv_ops)),
        ("kv.promotion_ms", x.promotion_ms),
        ("kv.wrong_epoch", kv.wrong_epoch as f64),
        ("kv.solo_demotions", kv.solo_demotions as f64),
    ]
}
