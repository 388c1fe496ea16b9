//! `tenant-mix`: open loop over MX on three nodes — per-tenant echo
//! services on n0, ~20k logical clients split over n1 and n2 — in the four
//! tenant classes of the tail bench's mixed phase, on a lossless fabric.
//!
//! Why: a request costs about ten scheduler events and touches no
//! registration, and on this lossless fabric little loss recovery (only
//! the spurious fast retransmits that dual-lane striping's reordering
//! triggers), so the event engine, the channel / WDRR path, the MX eager
//! path and the NIC lanes and QoS do nearly all the work. The throttled
//! 32 kB class drives the pacing path.
//!
//! * Arrivals are Pareto per logical client (virtual-time events), so a
//!   slow stack builds queue instead of throttling the load; each request
//!   is timed from the instant it was due, which is the instant its
//!   arrival event runs (the generator is never late in virtual time).
//! * The three unthrottled classes are the latency ops; the 512 B weight-8
//!   class is the victim and the 4 kB class is the write half (4 kB up, a
//!   64 B acknowledgement back). The others echo their request.
//! * The 32 kB class's bucket (40 MB/s) allows a burst of one message:
//!   with the tail bench's 256 kB burst, rare eight-message bursts set the
//!   p999, which then varied threefold between seeds. NICs are PCI-XE.
//! * An op fails when the channel refuses it (`SendQueueFull`), admission
//!   sheds it (`Overload`), or its reply never lands before the run drains.

use std::cell::RefCell;

use knet::prelude::*;
use knet::{ClusterEv, ClusterWorld};
use knet_core::api::{channel_accept_handler, channel_connect_handler, channel_send_to};
use knet_simcore::emit_at;

use crate::layers;
use crate::run::{common_checks, resolve, splitmix, unit, Config, RunOutput, Workload};
use crate::stats::{OpRec, Role, Status};
use crate::trace::{span, Kind};

struct Class {
    name: &'static str,
    weight: u64,
    /// Token-bucket rate at the NIC (0 = unthrottled) and burst.
    rate: u64,
    burst: u64,
    req_bytes: u64,
    reply_bytes: u64,
    clients: u64,
    mean_gap_ms: u64,
    alpha_milli: u32,
    role: Role,
}

const LATENCY: Role = Role {
    latency: true,
    write: false,
    victim: false,
};

pub const SESSIONS: u64 = 6;
const CLASSES: [Class; 4] = [
    Class {
        name: "small-256",
        weight: 4,
        rate: 0,
        burst: 0,
        req_bytes: 256,
        reply_bytes: 256,
        clients: 12_000,
        mean_gap_ms: 150,
        alpha_milli: 1300,
        role: LATENCY,
    },
    Class {
        name: "write-4k",
        weight: 4,
        rate: 0,
        burst: 0,
        req_bytes: 4096,
        reply_bytes: 64,
        clients: 3_000,
        mean_gap_ms: 300,
        alpha_milli: 1500,
        role: Role {
            latency: true,
            write: true,
            victim: false,
        },
    },
    Class {
        name: "bulk-32k",
        weight: 2,
        rate: 40_000_000,
        burst: 32_768,
        req_bytes: 32_768,
        reply_bytes: 32_768,
        clients: 1_000,
        mean_gap_ms: 600,
        alpha_milli: 1900,
        role: Role {
            latency: false,
            write: false,
            victim: false,
        },
    },
    Class {
        name: "victim-512",
        weight: 8,
        rate: 0,
        burst: 0,
        req_bytes: 512,
        reply_bytes: 512,
        clients: 4_000,
        mean_gap_ms: 400,
        alpha_milli: 1400,
        role: Role {
            latency: true,
            write: false,
            victim: true,
        },
    },
];

/// Arrivals stop here; in-flight traffic then drains.
const HORIZON_MS: u64 = 2_000;

#[derive(Default)]
struct Shared {
    ops: Vec<OpRec>,
    class: Vec<u8>,
    errors: Vec<String>,
    /// Echo replies the server could not send (the op stays unresolved).
    reply_refusals: u64,
    /// Accepted requests whose queued send later failed.
    send_failures: u64,
}

thread_local! {
    static SHARED: RefCell<Shared> = RefCell::new(Shared::default());
}

fn with<R>(f: impl FnOnce(&mut Shared) -> R) -> R {
    SHARED.with(|s| f(&mut s.borrow_mut()))
}

/// One logical client's arrival process, carried from event to event.
struct Arrival {
    class: usize,
    rng: u64,
    ch: ChannelId,
    iov: IoVec,
    node: NodeId,
}

fn pareto_gap_ns(rng: &mut u64, mean_ns: u64, alpha_milli: u32) -> u64 {
    let alpha = f64::from(alpha_milli) / 1000.0;
    let xm = mean_ns as f64 * (alpha - 1.0) / alpha;
    (xm * (1.0 - unit(rng)).powf(-1.0 / alpha)) as u64
}

fn fire(w: &mut ClusterWorld, mut a: Arrival) {
    let t = now(w).nanos();
    let cls = &CLASSES[a.class];
    let op = with(|s| {
        s.ops.push(OpRec::new(t, cls.req_bytes, cls.role));
        s.class.push(a.class as u8);
        s.ops.len() - 1
    });
    // Tags are op ids (+1, so no request carries tag 0).
    let tag = op as u64 + 1;
    let res = span(Kind::ChannelSend, tag, || {
        channel_send(w, a.ch, tag, a.iov.clone())
    });
    if let Err(e) = res {
        let status = match e {
            NetError::Overload => Status::Shed,
            NetError::SendQueueFull => Status::Refused,
            _ => Status::Failed,
        };
        with(|s| resolve(&mut s.ops, op, status, t, &mut s.errors));
    }
    let next = t + pareto_gap_ns(&mut a.rng, cls.mean_gap_ms * 1_000_000, cls.alpha_milli);
    if next < HORIZON_MS * 1_000_000 {
        let node = a.node.0;
        emit_at(
            w,
            node,
            SimTime::from_nanos(next),
            ClusterEv::Call(Box::new(move |w| fire(w, a))),
        );
    }
}

/// A reply landed on class `ci`'s client channel.
fn on_reply(w: &mut ClusterWorld, ci: usize, tag: u64, len: u64) {
    let t = now(w).nanos();
    span(Kind::Handler, tag, || {
        with(|s| {
            let op = tag.wrapping_sub(1) as usize;
            match s.class.get(op) {
                Some(&c) if c as usize == ci && CLASSES[ci].reply_bytes == len => {
                    resolve(&mut s.ops, op, Status::Ok, t, &mut s.errors)
                }
                _ => s.errors.push(format!(
                    "reply tag {tag} ({len} B) on class {} matches no request of that class",
                    CLASSES[ci].name
                )),
            }
        })
    });
}

pub struct TenantMix {
    w: ClusterWorld,
    endpoints: Vec<Endpoint>,
    base: Option<layers::Baseline>,
    start: u64,
    end: u64,
}

pub fn setup(cfg: &Config) -> TenantMix {
    let mut w = span(Kind::Build, 0, || {
        ClusterBuilder::new()
            .nodes(3, CpuModel::xeon_2600())
            .nic(NicModel::pci_xe())
            .mem_frames(65_536)
            .build()
    });
    with(|s| *s = Shared::default());
    let endpoints = span(Kind::Install, 0, || install(&mut w, cfg));
    TenantMix {
        w,
        endpoints,
        base: None,
        start: 0,
        end: 0,
    }
}

fn install(w: &mut ClusterWorld, cfg: &Config) -> Vec<Endpoint> {
    let server = NodeId(0);
    let client_nodes = [NodeId(1), NodeId(2)];
    let mut endpoints = Vec::new();
    for (ci, cls) in CLASSES.iter().enumerate() {
        let policy = (cls.rate > 0).then_some(QosPolicy {
            rate_bytes_per_sec: cls.rate,
            burst_bytes: cls.burst,
            ..QosPolicy::default()
        });
        let tenant = w.register_tenant(cls.name, cls.weight, policy);

        // Echo service: answer every request to its sender, on the tenant's
        // own budget.
        let srv_ep = w
            .open_mx(server, MxEndpointConfig::kernel())
            .expect("open echo endpoint");
        endpoints.push(srv_ep);
        let reply = knet::harness::kbuf(w, server, cls.reply_bytes).iov(cls.reply_bytes);
        let srv_ch = std::sync::Arc::new(std::sync::OnceLock::new());
        let cell = srv_ch.clone();
        let ch = channel_accept_handler(w, srv_ep, cls.name, move |w2, _ep, ev| {
            if let TransportEvent::Unexpected { tag, from, .. } = ev {
                let ch = *cell.get().expect("echo channel registered");
                span(Kind::Handler, tag, || {
                    let res = span(Kind::ChannelSend, tag, || {
                        channel_send_to(w2, ch, from, tag, reply.clone())
                    });
                    if res.is_err() {
                        with(|s| s.reply_refusals += 1);
                    }
                });
            }
        });
        srv_ch.set(ch).expect("set once");
        w.assign_tenant(srv_ep, tenant);

        // One client channel per node; logical clients multiplex onto it.
        let mut chans = Vec::new();
        for &node in &client_nodes {
            let ep = w
                .open_mx(node, MxEndpointConfig::kernel())
                .expect("open client endpoint");
            endpoints.push(ep);
            let buf = knet::harness::kbuf(w, node, cls.req_bytes);
            let ch =
                channel_connect_handler(w, ep, srv_ep, cls.name, move |w2, _ep, ev| match ev {
                    TransportEvent::Unexpected { tag, data, .. } => {
                        on_reply(w2, ci, tag, data.len() as u64)
                    }
                    TransportEvent::SendFailed { .. } => with(|s| s.send_failures += 1),
                    _ => {}
                });
            w.assign_tenant(ep, tenant);
            chans.push((node, ch, buf.iov(cls.req_bytes)));
        }

        for client in 0..cfg.scaled(cls.clients) {
            let (node, ch, iov) = chans[client as usize % chans.len()].clone();
            let mut rng =
                cfg.seed ^ ((ci as u64) << 56) ^ client.wrapping_mul(0x5851_F42D_4C95_7F2D);
            splitmix(&mut rng);
            // Start each client at a random phase of its first gap, so the
            // classes are in steady state from the start of the run.
            let first = (unit(&mut rng)
                * pareto_gap_ns(&mut rng, cls.mean_gap_ms * 1_000_000, cls.alpha_milli) as f64)
                as u64;
            if first >= HORIZON_MS * 1_000_000 {
                continue;
            }
            let a = Arrival {
                class: ci,
                rng,
                ch,
                iov,
                node,
            };
            emit_at(
                w,
                node.0,
                SimTime::from_nanos(first),
                ClusterEv::Call(Box::new(move |w| fire(w, a))),
            );
        }
    }
    endpoints
}

impl Workload for TenantMix {
    fn run(&mut self) {
        let w = &mut self.w;
        self.base = Some(layers::baseline(w, NodeId(0), 0));
        self.start = now(w).nanos();
        // Arrivals run inside the loop; it drains once the horizon passed.
        span(Kind::Slice, 0, || run_until(w, |_| false));
        self.end = now(w).nanos();
    }

    fn finish(self: Box<Self>) -> RunOutput {
        let me = *self;
        let (mut ops, class, mut errors, refusals, send_failures) = with(|s| {
            (
                std::mem::take(&mut s.ops),
                std::mem::take(&mut s.class),
                std::mem::take(&mut s.errors),
                s.reply_refusals,
                s.send_failures,
            )
        });
        for o in ops.iter_mut().filter(|o| o.status == Status::Pending) {
            o.status = Status::Unresolved;
            o.end = me.end;
        }
        common_checks(&me.w, &ops, &mut errors);
        let base = me.base.expect("run before finish");
        let attempted = ops.len() as u64;
        let layers = layers::counters(
            &me.w,
            &base,
            &layers::Extra {
                server: NodeId(0),
                endpoints: me.endpoints,
                run_len_ns: me.end - me.start,
                attempted,
                orfs_staging_leftover: 0,
                orfs_corrupt_writes: 0,
                fs_bytes_written: 0,
                kv_ops: 0,
                promotion_ms: 0.0,
            },
        );
        let mut notes = vec![
            ("reply_refusals".to_string(), refusals as f64),
            ("send_failures".to_string(), send_failures as f64),
        ];
        for (ci, cls) in CLASSES.iter().enumerate() {
            let mut lat: Vec<u64> = ops
                .iter()
                .zip(&class)
                .filter(|(o, &c)| c as usize == ci && o.status == Status::Ok)
                .map(|(o, _)| o.end - o.due)
                .collect();
            lat.sort_unstable();
            let n = lat.len() as f64;
            notes.push((format!("{}.ops", cls.name), n));
            for (q, label) in [(0.5, "p50_us"), (0.99, "p99_us"), (1.0, "max_us")] {
                let v = crate::stats::percentile(&lat, q).unwrap_or(0) as f64 / 1e3;
                notes.push((format!("{}.{label}", cls.name), v));
            }
        }
        RunOutput {
            ops,
            start: me.start,
            end: me.end,
            kill: None,
            layers,
            notes,
            errors,
        }
    }
}
