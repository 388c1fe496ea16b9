//! Incast: N senders converge on one receiver NIC.
//!
//! The receive FIFO model makes over-driven fan-in drop arrivals
//! *deterministically* (no fault dice), so incast loss is self-inflicted
//! by the fabric — exactly what the per-link AIMD windows plus SACK fast
//! retransmit exist to repair. The regression here is congestion
//! collapse: without a control loop every drop triggers a full paced
//! retransmission round, goodput falls as senders are added, and the
//! retransmit ratio grows without bound.
//!
//! Asserted invariants:
//! * every byte arrives (the reliability window hides the drops),
//! * goodput is monotone-ish in the sender count (no collapse),
//! * `retransmits / data_packets` stays bounded,
//! * the 16-sender point actually exercises the rx-FIFO model
//!   (`nic_rx_congestion_drops > 0`),
//! * the whole scenario is bit-identical per seed, pinned by a golden
//!   fingerprint.

use knet::harness::kbuf;
use knet::prelude::*;
use knet_core::api::{channel_connect, channel_send};
use knet_simnic::{FaultPlan, NicModel};
use knet_simos::Asid;

const MSG: u64 = 32 * 1024;
const ROUNDS: u64 = 6;

fn builder(n_senders: usize) -> ClusterBuilder {
    ClusterBuilder::new()
        .nodes(n_senders + 1, CpuModel::xeon_2600())
        .nic(NicModel::pci_xe())
}

/// Fan-in fixture: sender endpoints on nodes `1..=n`, one receiver
/// endpoint on node 0, one channel per sender pointing at it.
struct Incast {
    recv_ep: Endpoint,
    senders: Vec<(knet_core::api::ChannelId, knet::harness::KBuf)>,
}

fn incast_setup(w: &mut ClusterWorld, n_senders: usize) -> Incast {
    let rcq = w.new_cq();
    let recv_ep = w
        .open_mx_cq(NodeId(0), MxEndpointConfig::kernel(), rcq)
        .unwrap();
    let mut senders = Vec::new();
    for i in 1..=n_senders {
        let node = NodeId(i as u32);
        let cq = w.new_cq();
        let ep = w.open_mx_cq(node, MxEndpointConfig::kernel(), cq).unwrap();
        let ch = channel_connect(w, ep, recv_ep, cq);
        let buf = kbuf(w, node, MSG);
        senders.push((ch, buf));
    }
    Incast { recv_ep, senders }
}

fn post_round(
    w: &mut ClusterWorld,
    s: &(knet_core::api::ChannelId, knet::harness::KBuf),
    round: u64,
    sender: u64,
) {
    let (ch, buf) = *s;
    let data: Vec<u8> = (0..MSG)
        .map(|j| (sender * 37 + round * 131 + j) as u8)
        .collect();
    w.os.node_mut(buf.node)
        .write_virt(Asid::KERNEL, buf.addr, &data)
        .unwrap();
    channel_send(w, ch, round * 100 + sender, buf.iov(MSG)).unwrap();
}

/// Run barrier-synchronized incast rounds sequentially (the classic
/// incast shape: every sender answers the round's request at once, the
/// next round starts when the fan-in drains); return (goodput bytes/sec
/// in virtual time, snapshot of the composed stats).
fn incast_goodput(
    n_senders: usize,
    rel: knet_simnic::RelParams,
) -> (f64, knet_core::RegistryStats) {
    let mut w = builder(n_senders).rel_params(rel).build();
    let inc = incast_setup(&mut w, n_senders);
    for round in 0..ROUNDS {
        for (i, s) in inc.senders.iter().enumerate() {
            post_round(&mut w, s, round, i as u64 + 1);
        }
        run_to_quiescence(&mut w);
    }
    run_to_quiescence(&mut w);
    assert_eq!(w.sched.engine_error(), None);

    // Every byte must arrive despite the self-inflicted drops.
    let mut got_msgs = 0u64;
    let mut got_bytes = 0u64;
    while let Some(ev) = w.take_event(inc.recv_ep) {
        if let TransportEvent::Unexpected { data, .. } = ev {
            got_msgs += 1;
            got_bytes += data.len() as u64;
        }
    }
    assert_eq!(
        got_msgs,
        n_senders as u64 * ROUNDS,
        "{n_senders} senders: every message delivered"
    );
    assert_eq!(got_bytes, n_senders as u64 * ROUNDS * MSG);

    let elapsed = knet_simcore::now(&w).nanos().max(1);
    let goodput = got_bytes as f64 / (elapsed as f64 / 1e9);
    (goodput, w.stats_snapshot())
}

/// The headline regression: adding senders must not collapse goodput,
/// and the control loop keeps the retransmit ratio bounded even while
/// the rx FIFO is genuinely overflowing.
#[test]
fn incast_goodput_is_monotone_ish_and_retransmits_stay_bounded() {
    let mut prev = 0.0f64;
    for n in [2usize, 4, 8, 16] {
        let (goodput, st) = incast_goodput(n, knet_simnic::RelParams::default());
        assert!(
            goodput >= prev * 0.75,
            "congestion collapse at {n} senders: {:.1} MB/s after {:.1} MB/s",
            goodput / 1e6,
            prev / 1e6
        );
        prev = prev.max(goodput);
        assert!(st.rel_data_packets > 0);
        let ratio = st.rel_retransmits as f64 / st.rel_data_packets as f64;
        assert!(
            ratio < 0.5,
            "{n} senders: retransmit ratio {ratio:.3} unbounded \
             ({} resends / {} data packets)",
            st.rel_retransmits,
            st.rel_data_packets
        );
        if n == 16 {
            assert!(
                st.nic_rx_congestion_drops > 0,
                "16-way incast never overflowed the rx FIFO — the \
                 scenario stopped exercising the contention model"
            );
            // The control loop (NACK-driven repair + AIMD + fast
            // retransmit) must beat the pre-control-loop sender, whose
            // only repair for fan-in tail drops is the RTO.
            let (fixed, _) = incast_goodput(n, knet_simnic::RelParams::fixed_window());
            assert!(
                goodput >= fixed * 1.5,
                "control loop buys only {:.2}x over the fixed-window \
                 sender ({:.1} vs {:.1} MB/s)",
                goodput / fixed,
                goodput / 1e6,
                fixed / 1e6
            );
        }
    }
}

// ------------------------------------------------------------ determinism

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}

/// The incast workload under a seeded lossy fabric, returning an
/// order-sensitive fingerprint of everything the receiver observed.
fn incast_fingerprint(n_senders: usize, seed: u64) -> (u64, u64) {
    let w = &mut builder(n_senders).build();
    w.set_fault_plan(FaultPlan::new(seed).with_drop(0.03).with_delay(
        0.05,
        SimTime::from_micros(2),
        SimTime::from_micros(40),
    ));
    let inc = incast_setup(w, n_senders);
    let mut fp = 0xcbf2_9ce4_8422_2325u64;
    for round in 0..3u64 {
        for (i, s) in inc.senders.iter().enumerate() {
            post_round(w, s, round, i as u64 + 1);
        }
        run_to_quiescence(w);
        while let Some(ev) = w.take_event(inc.recv_ep) {
            if let TransportEvent::Unexpected { tag, data, from } = ev {
                let sum: u64 = data.iter().map(|&b| b as u64).sum();
                fp = mix(
                    mix(mix(mix(fp, tag), data.len() as u64), sum),
                    from.idx as u64,
                );
            }
        }
    }
    (w.sched.executed(), fp)
}

/// Same seed ⇒ same incast, event for event, and a fixed seed lands on a
/// golden fingerprint (8 senders + 1 receiver).
#[test]
fn incast_fingerprints_repeat_and_match_golden() {
    let got = incast_fingerprint(8, 0x1_CA57);
    assert_ne!(got.1, 0xcbf2_9ce4_8422_2325, "receiver saw traffic");
    assert_eq!(incast_fingerprint(8, 0x1_CA57), got);
    assert_eq!(got, (668, 11_026_921_040_275_010_973));
}
