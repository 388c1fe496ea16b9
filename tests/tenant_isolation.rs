//! The multi-tenant isolation proof: a noisy-neighbor tenant blasting at
//! **10× its token rate** cannot move a latency-sensitive tenant's p99 by
//! more than the documented bound (5×), and the whole experiment is
//! deterministic per seed.
//!
//! Why 5× and not 1×: WDRR and the token bucket schedule *message
//! admission*, not wire occupancy — once a blast packet is on the link, a
//! victim packet behind it waits one MTU serialization. The bound absorbs
//! a couple of those (each ≈ the victim's whole baseline RTT) plus the
//! WDRR quantum; what it provably excludes is queue-length-proportional
//! inflation, which is what an unscheduled FIFO would produce at 10×
//! overload (the blast backlog is ~10× the victim's, so a shared FIFO
//! would inflate p99 by orders of magnitude, not single digits).
//!
//! Token-bucket edge cases ride along: a zero-rate tenant is a typed
//! always-shed (`NetError::Overload`), burst credit is consumed exactly at
//! the epoch boundary (unit-tested in `knet_simnic::qos`), and refill is
//! virtual-time only, so the same seed reproduces every bucket level.

use knet::build::ClusterBuilder;
use knet::workload::{run_solo, ClassSpec, WorkloadSpec};
use knet::world::ClusterWorld;
use knet_core::api::{channel_connect, channel_send};
use knet_core::NetError;
use knet_mx::MxEndpointConfig;
use knet_simcore::SimTime;
use knet_simnic::QosPolicy;
use knet_simos::{CpuModel, NodeId};

const NODES: usize = 3;
const DOCUMENTED_P99_BOUND: f64 = 5.0;

fn builder() -> ClusterBuilder {
    ClusterBuilder::new()
        .nodes(NODES, CpuModel::xeon_2600())
        .mem_frames(65_536)
}

fn victim() -> ClassSpec {
    ClassSpec {
        name: "victim".into(),
        weight: 8,
        rate_bytes_per_sec: 0,
        burst_bytes: 0,
        msg_bytes: 512,
        clients: 64,
        mean_gap: SimTime::from_millis(10),
        alpha_milli: 1400,
    }
}

/// Token rate 4 MB/s, offered ~40 MB/s — ten times the admitted rate.
fn blast() -> ClassSpec {
    ClassSpec {
        name: "blast".into(),
        weight: 1,
        rate_bytes_per_sec: 4_000_000,
        burst_bytes: 65_536,
        msg_bytes: 4096,
        clients: 128,
        mean_gap: SimTime::from_millis(9),
        alpha_milli: 1500,
    }
}

fn spec(seed: u64, classes: Vec<ClassSpec>) -> WorkloadSpec {
    WorkloadSpec {
        seed,
        horizon: SimTime::from_millis(100),
        server_node: NodeId(0),
        client_nodes: vec![NodeId(1), NodeId(2)],
        classes,
    }
}

/// Fold the tenant-scheduler state (channel WDRR lanes, driver pacing
/// lanes, NIC token buckets) into one hash.
fn fold_fingerprint(w: &ClusterWorld) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    w.tenant_fingerprint(|v| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01B3));
    h
}

#[test]
fn noisy_neighbor_cannot_blow_victim_p99() {
    let seed = 0xC0FFEE;

    let mut w_base = builder().build();
    let baseline = run_solo(&mut w_base, &spec(seed, vec![victim()]));
    let base_v = &baseline[0];
    assert!(
        base_v.completed > 300,
        "baseline victim must complete a real sample set, got {}",
        base_v.completed
    );
    assert_eq!(base_v.shed, 0, "unthrottled victim must never shed");
    assert!(base_v.p99_us > 0.0);

    let mut w_cont = builder().build();
    let contended = run_solo(&mut w_cont, &spec(seed, vec![victim(), blast()]));
    let (cont_v, cont_b) = (&contended[0], &contended[1]);

    // The blast tenant really is overloaded: a big slice of its offered
    // load must be refused by admission control (pacing queue at cap).
    assert!(
        cont_b.shed * 2 > cont_b.sent,
        "blast at 10x token rate must shed most of its load, shed {} of {}",
        cont_b.shed,
        cont_b.sent
    );
    assert_eq!(cont_v.shed, 0, "victim must never be shed by blast traffic");
    assert_eq!(
        cont_v.sent, base_v.sent,
        "open loop: victim offers the same load with or without the blast"
    );

    let inflation = cont_v.p99_us / base_v.p99_us;
    assert!(
        inflation <= DOCUMENTED_P99_BOUND,
        "victim p99 inflated {inflation:.2}x (baseline {:.1}us, contended {:.1}us), bound {DOCUMENTED_P99_BOUND}x",
        base_v.p99_us,
        cont_v.p99_us
    );
}

/// Same seed ⇒ bit-identical reports (counts and exact percentiles) and
/// bit-identical folded WDRR + pacing + token-bucket state.
#[test]
fn isolation_experiment_is_deterministic_per_seed() {
    let run = |seed: u64| {
        let mut w = builder().build();
        let reports = run_solo(&mut w, &spec(seed, vec![victim(), blast()]));
        format!("{reports:?} tenant state {:#x}", fold_fingerprint(&w))
    };
    assert_eq!(run(7), run(7));
    assert_ne!(
        run(7),
        run(8),
        "different seeds must actually change the sampled arrivals"
    );
}

/// A zero-rate policy is a typed kill switch: every send from the tenant
/// sheds synchronously with [`NetError::Overload`], while other tenants
/// (including the default) are untouched.
#[test]
fn zero_rate_tenant_always_sheds_typed_overload() {
    let mut w = builder().build();
    let dead = w.register_tenant(
        "dead",
        1,
        Some(QosPolicy {
            rate_bytes_per_sec: 0,
            burst_bytes: 65_536,
            ..QosPolicy::default()
        }),
    );

    let cq = w.new_cq();
    let a = w.open_mx(NodeId(0), MxEndpointConfig::kernel()).unwrap();
    let b = w.open_mx(NodeId(1), MxEndpointConfig::kernel()).unwrap();
    let ch_dead = channel_connect(&mut w, a, b, cq);
    w.assign_tenant(a, dead);

    let c = w.open_mx(NodeId(0), MxEndpointConfig::kernel()).unwrap();
    let d = w.open_mx(NodeId(1), MxEndpointConfig::kernel()).unwrap();
    let ch_free = channel_connect(&mut w, c, d, cq);

    let buf = knet::harness::kbuf(&mut w, NodeId(0), 4096);
    for _ in 0..5 {
        assert_eq!(
            channel_send(&mut w, ch_dead, 1, buf.iov(1024)),
            Err(NetError::Overload),
            "zero-rate tenant must shed synchronously"
        );
    }
    channel_send(&mut w, ch_free, 2, buf.iov(1024)).expect("default tenant rides free");
    knet_simcore::run_to_quiescence(&mut w);

    let st = w.stats_snapshot();
    assert_eq!(st.qos_shed, 5, "every zero-rate send counted as shed");
    let rows = w.tenant_stats();
    let dead_row = rows.iter().find(|r| r.name == "dead").unwrap();
    assert_eq!(dead_row.qos.shed, 5);
    assert_eq!(dead_row.qos.admitted, 0);
}

/// The per-tenant stats rows surface both halves of the story: channel
/// queueing counters and NIC admission counters, one row per tenant.
#[test]
fn tenant_stats_rows_cover_admission_and_queueing() {
    let mut w = builder().build();
    let reports = run_solo(&mut w, &spec(3, vec![victim(), blast()]));
    let rows = w.tenant_stats();
    let blast_row = rows.iter().find(|r| r.name == "blast").unwrap();
    let victim_row = rows.iter().find(|r| r.name == "victim").unwrap();
    assert!(blast_row.qos.deferred > 0, "blast must have been paced");
    assert!(blast_row.qos.shed > 0, "blast must have been shed");
    assert!(victim_row.qos.admitted == 0 && victim_row.qos.shed == 0);
    assert!(victim_row.channel.direct_sends > 0);
    let st = w.stats_snapshot();
    assert_eq!(
        st.qos_shed,
        rows.iter().map(|r| r.qos.shed).sum::<u64>(),
        "snapshot mirrors the per-tenant totals"
    );
    let _ = reports;
}
