//! In-kernel MX endpoints skip the medium-path send copy by default (§5.1):
//! a medium send from one contiguous kernel buffer is DMAed straight from
//! the source and completes when its last chunk's DMA does. Vectorial and
//! user-memory sends still go through the ring copy, and stock MX 1.0
//! (`MxOpts::STOCK`, the baseline the paper's figures keep) always copies.

use knet::harness::{kbuf, ubuf};
use knet::prelude::*;
use knet_core::TransportWorld;
use knet_mx::MxEndpointId;
use knet_simcore::SimTime;

/// The largest medium message: the paper's +17 % point.
const LEN: u64 = 32 * 1024;

/// What one send did on an otherwise idle fabric.
struct Sent {
    copies_avoided: u64,
    /// When the sender's DMA engine finished fetching the last chunk.
    last_dma: SimTime,
    /// When `SendDone` reached the sender's completion queue.
    send_done: SimTime,
}

fn send(w: &mut ClusterWorld, a: Endpoint, b: Endpoint, iov: IoVec) -> Sent {
    let mx = MxEndpointId(a.idx);
    let nic = w.mx.ep(mx).unwrap().nic;
    w.t_send(a, b, 1, iov, 0).unwrap();
    // Every chunk's DMA is reserved when the send is issued.
    let last_dma = w.nics.get(nic).dma.free_at();
    assert_eq!(run_until(w, |w| w.has_event(a)), RunOutcome::Satisfied);
    let send_done = now(w);
    assert!(matches!(
        w.take_event(a),
        Some(TransportEvent::SendDone { .. })
    ));
    run_to_quiescence(w);
    Sent {
        copies_avoided: w.mx.ep(mx).unwrap().stats.send_copies_avoided,
        last_dma,
        send_done,
    }
}

/// A 32 kB send from one contiguous kernel buffer, kernel endpoints opened
/// with `cfg`.
fn contiguous_kernel_send(cfg: MxEndpointConfig) -> (Sent, SimTime) {
    let (mut w, n0, n1) = two_nodes();
    let cq = w.new_cq();
    let a = w.open_mx_cq(n0, cfg, cq).unwrap();
    let b = w.open_mx_cq(n1, cfg, cq).unwrap();
    let ka = kbuf(&mut w, n0, LEN);
    let ring_copy = w.os.node(n0).cpu.model.ring_copy_cost(LEN);
    (send(&mut w, a, b, ka.iov(LEN)), ring_copy)
}

#[test]
fn contiguous_kernel_medium_send_skips_the_copy_by_default() {
    let (free, ring_copy) = contiguous_kernel_send(MxEndpointConfig::kernel());
    assert_eq!(free.copies_avoided, 1);
    assert_eq!(
        free.send_done, free.last_dma,
        "a copy-free send completes when its last chunk's DMA does"
    );

    let (stock, _) = contiguous_kernel_send(MxEndpointConfig::kernel().with_opts(MxOpts::STOCK));
    assert_eq!(stock.copies_avoided, 0, "stock MX always copies");
    assert!(
        stock.send_done < stock.last_dma,
        "stock MX completes once the host copy is done, before the DMA"
    );
    assert_eq!(
        stock.last_dma - free.last_dma,
        ring_copy,
        "without the copy the DMA, and with it SendDone, runs one ring copy earlier"
    );
}

#[test]
fn two_segment_kernel_iovec_still_copies() {
    let (mut w, n0, n1) = two_nodes();
    let cq = w.new_cq();
    let a = w.open_mx_cq(n0, MxEndpointConfig::kernel(), cq).unwrap();
    let b = w.open_mx_cq(n1, MxEndpointConfig::kernel(), cq).unwrap();
    let first = kbuf(&mut w, n0, LEN / 2);
    let _gap = kbuf(&mut w, n0, PAGE_SIZE);
    let second = kbuf(&mut w, n0, LEN / 2);
    let mut iov = IoVec::new();
    iov.push(first.memref(LEN / 2));
    iov.push(second.memref(LEN / 2));
    let sent = send(&mut w, a, b, iov);
    assert_eq!(sent.copies_avoided, 0, "two segments take the ring copy");
    assert!(sent.send_done < sent.last_dma);
}

#[test]
fn user_memory_medium_send_still_copies() {
    let (mut w, n0, n1) = two_nodes();
    let cq = w.new_cq();
    let ua = ubuf(&mut w, n0, LEN);
    let ub = ubuf(&mut w, n1, LEN);
    let a = w
        .open_mx_cq(n0, MxEndpointConfig::user(ua.asid), cq)
        .unwrap();
    let b = w
        .open_mx_cq(n1, MxEndpointConfig::user(ub.asid), cq)
        .unwrap();
    let sent = send(&mut w, a, b, ua.iov(LEN));
    assert_eq!(sent.copies_avoided, 0, "user memory takes the ring copy");
    assert!(sent.send_done < sent.last_dma);
}
