//! End-to-end MX driver tests, including the §5.1 calibration checks
//! (4.2 µs latency, kernel ≡ user, copy-removal gains).

use bytes::Bytes;
use knet_core::{IoVec, MemRef, NetError};
use knet_simcore::{run_to_quiescence, run_until, RunOutcome, Scheduler, SimTime, SimWorld};
use knet_simnic::{NicId, NicLayer, NicModel, NicWorld, Packet, Proto};
use knet_simos::{Asid, CpuModel, NodeId, OsLayer, OsWorld, Prot, PAGE_SIZE};

use crate::layer::{
    mx_irecv, mx_isend, mx_next_event, mx_on_packet, mx_open_endpoint, MxEndpointConfig,
    MxEndpointId, MxEvent, MxLayer, MxOpts, MxWorld, MX_ANY_TAG,
};
use crate::params::MxParams;

struct World {
    sched: Scheduler<World>,
    os: OsLayer,
    nics: NicLayer,
    mx: MxLayer,
}

impl SimWorld for World {
    type Ev = knet_simcore::BoxEvent<Self>;
    fn sched(&self) -> &Scheduler<Self> {
        &self.sched
    }
    fn sched_mut(&mut self) -> &mut Scheduler<Self> {
        &mut self.sched
    }
}
impl OsWorld for World {
    fn os(&self) -> &OsLayer {
        &self.os
    }
    fn os_mut(&mut self) -> &mut OsLayer {
        &mut self.os
    }
}
impl NicWorld for World {
    fn nics(&self) -> &NicLayer {
        &self.nics
    }
    fn nics_mut(&mut self) -> &mut NicLayer {
        &mut self.nics
    }
    fn nic_rx(&mut self, nic: NicId, pkt: Packet) {
        if pkt.proto == Proto::Mx {
            mx_on_packet(self, nic, pkt);
        }
    }
}
impl MxWorld for World {
    fn mx(&self) -> &MxLayer {
        &self.mx
    }
    fn mx_mut(&mut self) -> &mut MxLayer {
        &mut self.mx
    }
}

fn world() -> (World, NodeId, NodeId) {
    let mut w = World {
        sched: Scheduler::new(),
        os: OsLayer::new(),
        nics: NicLayer::new(),
        mx: MxLayer::new(MxParams::default()),
    };
    let n0 = w.os.add_node(CpuModel::xeon_2600(), 8192);
    let n1 = w.os.add_node(CpuModel::xeon_2600(), 8192);
    w.nics.add_nic(n0, NicModel::pci_xd());
    w.nics.add_nic(n1, NicModel::pci_xd());
    (w, n0, n1)
}

fn has_recv(w: &World, ep: MxEndpointId) -> bool {
    w.mx.ep(ep)
        .map(|e| {
            e.events
                .iter()
                .any(|e| matches!(e, MxEvent::RecvDone { .. }))
        })
        .unwrap_or(false)
}

fn pop_recv(w: &mut World, ep: MxEndpointId) -> MxEvent {
    loop {
        match mx_next_event(w, ep) {
            Some(ev @ MxEvent::RecvDone { .. }) => return ev,
            Some(_) => continue,
            None => panic!("no receive event pending"),
        }
    }
}

/// A kernel buffer (physically contiguous) as an IoVec of the given class.
enum Class {
    Kernel,
    Physical,
    User,
}

struct Buf {
    iov: IoVec,
    addr: knet_simos::VirtAddr,
    asid: Asid,
}

fn make_buf(w: &mut World, node: NodeId, len: u64, class: Class) -> Buf {
    let alloc = len.max(1).next_multiple_of(PAGE_SIZE);
    match class {
        Class::Kernel => {
            let addr = w.os.node_mut(node).kalloc(alloc).unwrap();
            Buf {
                iov: IoVec::single(MemRef::kernel(addr, len)),
                addr,
                asid: Asid::KERNEL,
            }
        }
        Class::Physical => {
            let addr = w.os.node_mut(node).kalloc(alloc).unwrap();
            let p = addr.kernel_to_phys().unwrap();
            Buf {
                iov: IoVec::single(MemRef::physical(p, len)),
                addr,
                asid: Asid::KERNEL,
            }
        }
        Class::User => {
            let asid = w.os.node_mut(node).create_process();
            let addr = w.os.node_mut(node).map_anon(asid, alloc, Prot::RW).unwrap();
            Buf {
                iov: IoVec::single(MemRef::user(asid, addr, len)),
                addr,
                asid,
            }
        }
    }
}

/// One-way ping-pong latency over `iters` round trips after warm-up.
fn pingpong_latency(
    w: &mut World,
    ea: MxEndpointId,
    eb: MxEndpointId,
    ba: &Buf,
    bb: &Buf,
    iters: u32,
) -> f64 {
    let measure = |w: &mut World| {
        mx_irecv(w, eb, MX_ANY_TAG, &bb.iov, 0).unwrap();
        mx_isend(w, ea, eb, 1, &ba.iov, 0).unwrap();
        assert_eq!(run_until(w, |w| has_recv(w, eb)), RunOutcome::Satisfied);
        pop_recv(w, eb);
        mx_irecv(w, ea, MX_ANY_TAG, &ba.iov, 0).unwrap();
        mx_isend(w, eb, ea, 1, &bb.iov, 0).unwrap();
        assert_eq!(run_until(w, |w| has_recv(w, ea)), RunOutcome::Satisfied);
        pop_recv(w, ea);
    };
    measure(w);
    let t0 = knet_simcore::now(w);
    for _ in 0..iters {
        measure(w);
    }
    (knet_simcore::now(w) - t0).micros() / (2.0 * iters as f64)
}

fn latency_with(class_a: Class, class_b: Class, size: u64, cfg: MxEndpointConfig) -> f64 {
    let (mut w, n0, n1) = world();
    let ea = mx_open_endpoint(&mut w, n0, cfg).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, cfg).unwrap();
    let ba = make_buf(&mut w, n0, size, class_a);
    let bb = make_buf(&mut w, n1, size, class_b);
    pingpong_latency(&mut w, ea, eb, &ba, &bb, 10)
}

#[test]
fn one_byte_latency_matches_paper() {
    // §5.1: 4.2 µs for a 1-byte message.
    let lat = latency_with(Class::User, Class::User, 1, user_cfg());
    assert!(
        (3.7..=4.7).contains(&lat),
        "MX user 1-byte one-way latency = {lat:.2} µs (paper: 4.2)"
    );
}

fn user_cfg() -> MxEndpointConfig {
    // Endpoint config resolved per-world in latency_with (needs the asid);
    // we cheat by making the config in make_buf order: user buffers carry
    // their own asid, and check_classes validates against the endpoint's.
    // So here we build a kernel config for kernel tests and patch user
    // configs inside latency_with_user below.
    MxEndpointConfig::kernel()
}

/// User-mode latency needs the endpoint bound to the buffer's process, so
/// build the world by hand.
fn user_latency(size: u64) -> f64 {
    let (mut w, n0, n1) = world();
    let ba = make_buf(&mut w, n0, size, Class::User);
    let bb = make_buf(&mut w, n1, size, Class::User);
    let ea = mx_open_endpoint(&mut w, n0, MxEndpointConfig::user(ba.asid)).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, MxEndpointConfig::user(bb.asid)).unwrap();
    pingpong_latency(&mut w, ea, eb, &ba, &bb, 10)
}

fn kernel_latency(size: u64, opts: MxOpts) -> f64 {
    latency_with(
        Class::Kernel,
        Class::Kernel,
        size,
        MxEndpointConfig::kernel().with_opts(opts),
    )
}

#[test]
fn user_one_byte_latency_is_4_2us() {
    let lat = user_latency(1);
    assert!(
        (3.7..=4.7).contains(&lat),
        "MX user 1-byte latency = {lat:.2} µs (paper: 4.2)"
    );
}

#[test]
fn kernel_latency_equals_user_latency() {
    // §5.1: "latency and bandwidth do not differ between user and kernel
    // communications."
    for size in [1u64, 64, 1024, 4096] {
        let u = user_latency(size);
        let k = kernel_latency(size, MxOpts::STOCK);
        let diff = (u - k).abs();
        assert!(
            diff <= 0.40,
            "size {size}: user {u:.2} vs kernel {k:.2} µs differ by {diff:.2}"
        );
    }
}

/// One-way transfer time of a single message (send → RecvDone), after a
/// warm-up round trip.
fn one_way_time(size: u64, opts: MxOpts) -> SimTime {
    let (mut w, n0, n1) = world();
    let cfg = MxEndpointConfig::kernel().with_opts(opts);
    let ea = mx_open_endpoint(&mut w, n0, cfg).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, cfg).unwrap();
    let ba = make_buf(&mut w, n0, size, Class::Kernel);
    let bb = make_buf(&mut w, n1, size, Class::Kernel);
    // Warm-up.
    mx_irecv(&mut w, eb, MX_ANY_TAG, &bb.iov, 0).unwrap();
    mx_isend(&mut w, ea, eb, 1, &ba.iov, 0).unwrap();
    run_to_quiescence(&mut w);
    pop_recv(&mut w, eb);
    // Measure.
    mx_irecv(&mut w, eb, MX_ANY_TAG, &bb.iov, 0).unwrap();
    let t0 = knet_simcore::now(&w);
    mx_isend(&mut w, ea, eb, 1, &ba.iov, 0).unwrap();
    assert_eq!(
        run_until(&mut w, |w| has_recv(w, eb)),
        RunOutcome::Satisfied
    );
    knet_simcore::now(&w) - t0
}

#[test]
fn send_copy_removal_gains_match_figure_6() {
    // §5.1: removing the send-side copy buys ≈17 % at 32 kB...
    let size = 32 * 1024;
    let std = one_way_time(size, MxOpts::STOCK);
    let nosend = one_way_time(
        size,
        MxOpts {
            no_send_copy: true,
            no_recv_copy: false,
        },
    );
    let gain = (std.micros() - nosend.micros()) / nosend.micros();
    assert!(
        (0.10..=0.24).contains(&gain),
        "no-send-copy gain at 32 kB = {:.1} % (paper: 17 %)",
        gain * 100.0
    );
    // ...and removing both is predicted to buy another ≈15 %.
    let nocopy = one_way_time(
        size,
        MxOpts {
            no_send_copy: true,
            no_recv_copy: true,
        },
    );
    let gain2 = (nosend.micros() - nocopy.micros()) / nocopy.micros();
    assert!(
        (0.08..=0.24).contains(&gain2),
        "predicted no-copy extra gain = {:.1} % (paper: 15 %)",
        gain2 * 100.0
    );
}

#[test]
fn single_page_copy_removal_gains_about_nine_percent() {
    // §5.1: "The most common case would be a single-page transfer. In this
    // case, our optimization gives a 9 % improvement."
    let std = one_way_time(PAGE_SIZE, MxOpts::STOCK);
    let nosend = one_way_time(
        PAGE_SIZE,
        MxOpts {
            no_send_copy: true,
            no_recv_copy: false,
        },
    );
    let gain = (std.micros() - nosend.micros()) / nosend.micros();
    assert!(
        (0.05..=0.15).contains(&gain),
        "single-page no-send-copy gain = {:.1} % (paper: 9 %)",
        gain * 100.0
    );
}

#[test]
fn small_medium_large_payloads_arrive_intact() {
    for &size in &[1u64, 100, 128, 4096, 32 * 1024, 100 * 1024] {
        let (mut w, n0, n1) = world();
        let cfg = MxEndpointConfig::kernel();
        let ea = mx_open_endpoint(&mut w, n0, cfg).unwrap();
        let eb = mx_open_endpoint(&mut w, n1, cfg).unwrap();
        let ba = make_buf(&mut w, n0, size, Class::Kernel);
        let bb = make_buf(&mut w, n1, size, Class::Kernel);
        let data: Vec<u8> = (0..size).map(|i| (i * 13 % 251) as u8).collect();
        w.os.node_mut(n0)
            .write_virt(Asid::KERNEL, ba.addr, &data)
            .unwrap();
        mx_irecv(&mut w, eb, 5, &bb.iov, 77).unwrap();
        mx_isend(&mut w, ea, eb, 5, &ba.iov, 88).unwrap();
        run_to_quiescence(&mut w);
        match pop_recv(&mut w, eb) {
            MxEvent::RecvDone {
                ctx,
                tag,
                len,
                from,
            } => {
                assert_eq!((ctx, tag, len, from), (77, 5, size, ea), "size {size}");
            }
            _ => unreachable!(),
        }
        let mut back = vec![0u8; size as usize];
        w.os.node(n1)
            .read_virt(Asid::KERNEL, bb.addr, &mut back)
            .unwrap();
        assert_eq!(back, data, "payload mismatch at size {size}");
        // Sender completion arrived too.
        let mut send_done = false;
        while let Some(ev) = mx_next_event(&mut w, ea) {
            if matches!(ev, MxEvent::SendDone { ctx: 88 }) {
                send_done = true;
            }
        }
        assert!(send_done, "send completion missing at size {size}");
    }
}

#[test]
fn vectorial_send_gathers_and_scatters() {
    // §4.1: vectorial primitives move several non-contiguous segments at
    // once — here three scattered kernel pages into two destination pieces.
    let (mut w, n0, n1) = world();
    let cfg = MxEndpointConfig::kernel();
    let ea = mx_open_endpoint(&mut w, n0, cfg).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, cfg).unwrap();
    let mut srcs = Vec::new();
    let mut iov = IoVec::new();
    for i in 0..3u64 {
        let k = w.os.node_mut(n0).kalloc(PAGE_SIZE).unwrap();
        let chunk: Vec<u8> = (0..100).map(|j| (i * 100 + j) as u8).collect();
        w.os.node_mut(n0)
            .write_virt(Asid::KERNEL, k, &chunk)
            .unwrap();
        // Burn a page so source segments are physically discontiguous.
        let _ = w.os.node_mut(n0).kalloc(PAGE_SIZE).unwrap();
        iov.push(MemRef::kernel(k, 100));
        srcs.push(chunk);
    }
    let d0 = w.os.node_mut(n1).kalloc(PAGE_SIZE).unwrap();
    let d1 = w.os.node_mut(n1).kalloc(PAGE_SIZE).unwrap();
    let dst = IoVec::from_segs(vec![MemRef::kernel(d0, 120), MemRef::kernel(d1, 180)]);
    mx_irecv(&mut w, eb, MX_ANY_TAG, &dst, 0).unwrap();
    mx_isend(&mut w, ea, eb, 9, &iov, 0).unwrap();
    run_to_quiescence(&mut w);
    pop_recv(&mut w, eb);
    let flat: Vec<u8> = srcs.concat();
    let mut got = vec![0u8; 300];
    w.os.node(n1)
        .read_virt(Asid::KERNEL, d0, &mut got[..120])
        .unwrap();
    w.os.node(n1)
        .read_virt(Asid::KERNEL, d1, &mut got[120..])
        .unwrap();
    assert_eq!(got, flat);
}

#[test]
fn unexpected_eager_queues_for_later_irecv() {
    // MPI-style matching: the message parks in the unexpected queue and a
    // later irecv completes with a ring copy.
    let (mut w, n0, n1) = world();
    let cfg = MxEndpointConfig::kernel();
    let ea = mx_open_endpoint(&mut w, n0, cfg).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, cfg).unwrap();
    let ba = make_buf(&mut w, n0, 256, Class::Kernel);
    w.os.node_mut(n0)
        .write_virt(Asid::KERNEL, ba.addr, &[0xEE; 256])
        .unwrap();
    mx_isend(&mut w, ea, eb, 3, &ba.iov, 0).unwrap();
    run_to_quiescence(&mut w);
    assert_eq!(w.mx.ep(eb).unwrap().unexpected_queued(), 1);
    let bb = make_buf(&mut w, n1, 256, Class::Kernel);
    mx_irecv(&mut w, eb, 3, &bb.iov, 4).unwrap();
    run_to_quiescence(&mut w);
    match pop_recv(&mut w, eb) {
        MxEvent::RecvDone { ctx, tag, len, .. } => {
            assert_eq!((ctx, tag, len), (4, 3, 256));
        }
        _ => unreachable!(),
    }
    let mut back = [0u8; 256];
    w.os.node(n1)
        .read_virt(Asid::KERNEL, bb.addr, &mut back)
        .unwrap();
    assert!(back.iter().all(|&b| b == 0xEE));
}

#[test]
fn unexpected_delivery_mode_emits_events() {
    // Transport-glue mode: unmatched messages surface as events with the
    // payload inline.
    let (mut w, n0, n1) = world();
    let ea = mx_open_endpoint(&mut w, n0, MxEndpointConfig::kernel()).unwrap();
    let eb = mx_open_endpoint(
        &mut w,
        n1,
        MxEndpointConfig::kernel().with_unexpected_delivery(),
    )
    .unwrap();
    let ba = make_buf(&mut w, n0, 64, Class::Kernel);
    w.os.node_mut(n0)
        .write_virt(Asid::KERNEL, ba.addr, b"rpc-request-bytes")
        .unwrap();
    mx_isend(&mut w, ea, eb, 11, &ba.iov, 0).unwrap();
    run_to_quiescence(&mut w);
    match mx_next_event(&mut w, eb) {
        Some(MxEvent::Unexpected { tag, data, from }) => {
            assert_eq!(tag, 11);
            assert_eq!(from, ea);
            assert_eq!(&data[..17], b"rpc-request-bytes");
        }
        other => panic!("expected Unexpected, got {other:?}"),
    }
    assert_eq!(w.mx.ep(eb).unwrap().unexpected_queued(), 0);
}

#[test]
fn rendezvous_waits_for_matching_receive() {
    // A large send to an endpoint with no posted receive must not move the
    // payload until the receive is posted (RTS parks in the unexpected
    // queue; CTS fires on irecv).
    let (mut w, n0, n1) = world();
    let cfg = MxEndpointConfig::kernel();
    let ea = mx_open_endpoint(&mut w, n0, cfg).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, cfg).unwrap();
    let size = 64 * 1024u64;
    let ba = make_buf(&mut w, n0, size, Class::Kernel);
    mx_isend(&mut w, ea, eb, 8, &ba.iov, 5).unwrap();
    run_to_quiescence(&mut w);
    // Only the RTS crossed the wire.
    let bytes_before = w.nics.get(w.nics.nic_of_node(n1).unwrap()).stats.rx_bytes;
    assert!(bytes_before < 1024, "payload must not flow yet");
    assert_eq!(w.mx.ep(eb).unwrap().unexpected_queued(), 1);
    let bb = make_buf(&mut w, n1, size, Class::Kernel);
    mx_irecv(&mut w, eb, 8, &bb.iov, 6).unwrap();
    run_to_quiescence(&mut w);
    match pop_recv(&mut w, eb) {
        MxEvent::RecvDone { ctx, len, .. } => assert_eq!((ctx, len), (6, size)),
        _ => unreachable!(),
    }
}

#[test]
fn large_user_transfers_pin_and_unpin() {
    let (mut w, n0, n1) = world();
    let size = 128 * 1024u64;
    let ba = make_buf(&mut w, n0, size, Class::User);
    let bb = make_buf(&mut w, n1, size, Class::User);
    let ea = mx_open_endpoint(&mut w, n0, MxEndpointConfig::user(ba.asid)).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, MxEndpointConfig::user(bb.asid)).unwrap();
    mx_irecv(&mut w, eb, MX_ANY_TAG, &bb.iov, 0).unwrap();
    mx_isend(&mut w, ea, eb, 1, &ba.iov, 0).unwrap();
    run_to_quiescence(&mut w);
    pop_recv(&mut w, eb);
    // All pins released after completion on both sides.
    for (node, buf) in [(n0, &ba), (n1, &bb)] {
        let frame =
            w.os.node(node)
                .space(buf.asid)
                .unwrap()
                .frame_of(buf.addr)
                .unwrap();
        assert_eq!(w.os.node(node).mem.pin_count(frame), 0, "pin leaked");
    }
    assert!(w.mx.ep(ea).unwrap().stats.pages_pinned >= 32);
}

#[test]
fn kernel_physical_large_transfer_avoids_pinning() {
    // §5.1: "The large message bandwidth is even higher with the kernel
    // interface since the page locking overhead is lower."
    let user = {
        let (mut w, n0, n1) = world();
        let size = 512 * 1024u64;
        let ba = make_buf(&mut w, n0, size, Class::User);
        let bb = make_buf(&mut w, n1, size, Class::User);
        let ea = mx_open_endpoint(&mut w, n0, MxEndpointConfig::user(ba.asid)).unwrap();
        let eb = mx_open_endpoint(&mut w, n1, MxEndpointConfig::user(bb.asid)).unwrap();
        pingpong_latency(&mut w, ea, eb, &ba, &bb, 4)
    };
    let phys = {
        let (mut w, n0, n1) = world();
        let size = 512 * 1024u64;
        let ba = make_buf(&mut w, n0, size, Class::Physical);
        let bb = make_buf(&mut w, n1, size, Class::Physical);
        let cfg = MxEndpointConfig::kernel();
        let ea = mx_open_endpoint(&mut w, n0, cfg).unwrap();
        let eb = mx_open_endpoint(&mut w, n1, cfg).unwrap();
        pingpong_latency(&mut w, ea, eb, &ba, &bb, 4)
    };
    assert!(
        phys < user,
        "kernel-physical ({phys:.1} µs) must beat user ({user:.1} µs)"
    );
    // The gap is the pinning cost: 128 pages on each side of each transfer.
    let gap = user - phys;
    assert!(
        (20.0..=150.0).contains(&gap),
        "pin-overhead gap = {gap:.1} µs"
    );
}

#[test]
fn user_endpoint_rejects_kernel_memory() {
    let (mut w, n0, n1) = world();
    let asid = w.os.node_mut(n0).create_process();
    let ea = mx_open_endpoint(&mut w, n0, MxEndpointConfig::user(asid)).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, MxEndpointConfig::kernel()).unwrap();
    let k = w.os.node_mut(n0).kalloc(PAGE_SIZE).unwrap();
    let iov = IoVec::single(MemRef::kernel(k, 64));
    assert_eq!(
        mx_isend(&mut w, ea, eb, 0, &iov, 0),
        Err(NetError::BadAddressClass)
    );
    let other = w.os.node_mut(n0).create_process();
    let va =
        w.os.node_mut(n0)
            .map_anon(other, PAGE_SIZE, Prot::RW)
            .unwrap();
    assert_eq!(
        mx_isend(
            &mut w,
            ea,
            eb,
            0,
            &IoVec::single(MemRef::user(other, va, 8)),
            0
        ),
        Err(NetError::BadAddressClass)
    );
}

#[test]
fn copy_avoidance_counters_track_usage() {
    let (mut w, n0, n1) = world();
    let cfg = MxEndpointConfig::kernel().with_opts(MxOpts {
        no_send_copy: true,
        no_recv_copy: true,
    });
    let ea = mx_open_endpoint(&mut w, n0, cfg).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, cfg).unwrap();
    let ba = make_buf(&mut w, n0, 8 * 1024, Class::Kernel);
    let bb = make_buf(&mut w, n1, 8 * 1024, Class::Kernel);
    mx_irecv(&mut w, eb, MX_ANY_TAG, &bb.iov, 0).unwrap();
    mx_isend(&mut w, ea, eb, 1, &ba.iov, 0).unwrap();
    run_to_quiescence(&mut w);
    pop_recv(&mut w, eb);
    assert_eq!(w.mx.ep(ea).unwrap().stats.send_copies_avoided, 1);
    assert_eq!(w.mx.ep(eb).unwrap().stats.recv_copies_avoided, 1);
    // A *vectorial* (non-contiguous) medium send cannot avoid the copy.
    let mut iov = IoVec::new();
    let k1 = w.os.node_mut(n0).kalloc(PAGE_SIZE).unwrap();
    let _gap = w.os.node_mut(n0).kalloc(PAGE_SIZE).unwrap();
    let k2 = w.os.node_mut(n0).kalloc(PAGE_SIZE).unwrap();
    iov.push(MemRef::kernel(k1, 1024));
    iov.push(MemRef::kernel(k2, 1024));
    mx_irecv(&mut w, eb, MX_ANY_TAG, &bb.iov, 0).unwrap();
    mx_isend(&mut w, ea, eb, 1, &iov, 0).unwrap();
    run_to_quiescence(&mut w);
    assert_eq!(
        w.mx.ep(ea).unwrap().stats.send_copies_avoided,
        1,
        "non-contiguous send must take the copy path"
    );
}

#[test]
fn small_message_send_completes_before_the_wire() {
    // Small sends are PIO-inlined: SendDone is host-local and nearly
    // immediate, far before the receiver sees the message.
    let (mut w, n0, n1) = world();
    let cfg = MxEndpointConfig::kernel();
    let ea = mx_open_endpoint(&mut w, n0, cfg).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, cfg).unwrap();
    let ba = make_buf(&mut w, n0, 64, Class::Kernel);
    let bb = make_buf(&mut w, n1, 64, Class::Kernel);
    mx_irecv(&mut w, eb, MX_ANY_TAG, &bb.iov, 0).unwrap();
    mx_isend(&mut w, ea, eb, 1, &ba.iov, 0).unwrap();
    let sat = run_until(&mut w, |w| {
        w.mx.ep(ea).map(|e| !e.events.is_empty()).unwrap_or(false)
    });
    assert_eq!(sat, RunOutcome::Satisfied);
    let send_done_at = knet_simcore::now(&w);
    run_to_quiescence(&mut w);
    assert!(has_recv(&w, eb));
    assert!(
        send_done_at < SimTime::from_micros(2),
        "PIO send completion should be ≈1 µs, got {send_done_at}"
    );
}

#[test]
fn medium_data_is_snapshotted_at_send_time() {
    // The medium copy gives snapshot semantics: mutating the source after
    // isend must not change what the receiver gets.
    let (mut w, n0, n1) = world();
    let cfg = MxEndpointConfig::kernel();
    let ea = mx_open_endpoint(&mut w, n0, cfg).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, cfg).unwrap();
    let ba = make_buf(&mut w, n0, 1024, Class::Kernel);
    let bb = make_buf(&mut w, n1, 1024, Class::Kernel);
    w.os.node_mut(n0)
        .write_virt(Asid::KERNEL, ba.addr, &[1u8; 1024])
        .unwrap();
    mx_irecv(&mut w, eb, MX_ANY_TAG, &bb.iov, 0).unwrap();
    mx_isend(&mut w, ea, eb, 1, &ba.iov, 0).unwrap();
    // Clobber the source immediately (before the sim runs).
    w.os.node_mut(n0)
        .write_virt(Asid::KERNEL, ba.addr, &[9u8; 1024])
        .unwrap();
    run_to_quiescence(&mut w);
    pop_recv(&mut w, eb);
    let mut back = [0u8; 1024];
    w.os.node(n1)
        .read_virt(Asid::KERNEL, bb.addr, &mut back)
        .unwrap();
    assert!(
        back.iter().all(|&b| b == 1),
        "receiver must see the snapshot"
    );
}

#[test]
fn truncating_receive_is_rejected_by_matching() {
    // A posted buffer smaller than the incoming message is skipped (MX
    // matches on capacity); the message goes unexpected instead of being
    // silently truncated.
    let (mut w, n0, n1) = world();
    let cfg = MxEndpointConfig::kernel();
    let ea = mx_open_endpoint(&mut w, n0, cfg).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, cfg).unwrap();
    let ba = make_buf(&mut w, n0, 2048, Class::Kernel);
    let small = make_buf(&mut w, n1, 128, Class::Kernel);
    mx_irecv(&mut w, eb, MX_ANY_TAG, &small.iov, 0).unwrap();
    mx_isend(&mut w, ea, eb, 1, &ba.iov, 0).unwrap();
    run_to_quiescence(&mut w);
    assert!(!has_recv(&w, eb));
    assert_eq!(w.mx.ep(eb).unwrap().unexpected_queued(), 1);
    assert_eq!(
        w.mx.ep(eb).unwrap().posted_recvs(),
        1,
        "buffer still posted"
    );
}

#[test]
fn payload_bytes_on_wire_match_message_sizes() {
    let (mut w, n0, n1) = world();
    let cfg = MxEndpointConfig::kernel();
    let ea = mx_open_endpoint(&mut w, n0, cfg).unwrap();
    let eb = mx_open_endpoint(&mut w, n1, cfg).unwrap();
    let ba = make_buf(&mut w, n0, 10_000, Class::Kernel);
    let bb = make_buf(&mut w, n1, 10_000, Class::Kernel);
    mx_irecv(&mut w, eb, MX_ANY_TAG, &bb.iov, 0).unwrap();
    mx_isend(&mut w, ea, eb, 1, &ba.iov, 0).unwrap();
    run_to_quiescence(&mut w);
    let sent = w.nics.get(w.nics.nic_of_node(n0).unwrap()).stats.tx_bytes;
    // 3 chunks × 32 B header + 10 000 B payload.
    assert_eq!(sent, 10_000 + 3 * 32);
    let _ = Bytes::new(); // keep the bytes import exercised
}
