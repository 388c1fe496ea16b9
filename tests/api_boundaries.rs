//! The transport-boundary gate: raw `t_send`/`t_post_recv` calls are the
//! *driver seam*, not the application API. Channels (`knet_core::api`) are
//! the one application-facing send path — batching, GM coalescing and
//! backpressure live there — so nothing above that layer may call the raw
//! transport. CI runs the same check as a grep step; this test makes the
//! tier-1 suite self-enforcing.
//!
//! Allowed callers: `crates/core` (the channel layer itself), `crates/gm`
//! and `crates/mx` (the drivers), and driver-level integration tests under
//! `tests/`. Every in-kernel service — the socket layer, ORFS and NBD —
//! now attaches through handler-backed channels.

use std::fs;
use std::path::Path;

/// Directories that must not contain raw transport calls.
const FORBIDDEN: &[&str] = &[
    "src",
    "examples",
    "crates/zsock",
    "crates/bench",
    "crates/simfs",
    "crates/orfs",
    "crates/nbd",
    "crates/rpc",
    "crates/kv",
];

/// Directories that must not touch the raw reliability packet fields
/// (the sequence/ack/timestamp members of `Packet`): sequencing, SACKing
/// and RTT echoing belong to the NIC-level window (`knet_simnic::rel`) and
/// the two drivers that feed it — everything else sees only the transport
/// contract. (Same idea, one layer down: the reliability seam is as
/// load-bearing as the driver seam. The cumulative ack and the SACK bitmap
/// themselves ride the control stream and never appear as packet fields;
/// the echoed wire-departure timestamp is the one selective-repeat
/// addition to the wire format.)
const REL_FORBIDDEN: &[&str] = &[
    "src",
    "examples",
    "tests",
    "crates/core",
    "crates/zsock",
    "crates/bench",
    "crates/simfs",
    "crates/orfs",
    "crates/nbd",
    "crates/simos",
    "crates/simcore",
    "crates/rpc",
    "crates/kv",
];

fn scan(dir: &Path, patterns: &[String], offenders: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            scan(&path, patterns, offenders);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let Ok(text) = fs::read_to_string(&path) else {
                continue;
            };
            for (i, line) in text.lines().enumerate() {
                if patterns.iter().any(|p| line.contains(p.as_str())) {
                    offenders.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
                }
            }
        }
    }
}

fn offenders_for(dirs: &[&str], patterns: &[String]) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut offenders = Vec::new();
    for dir in dirs {
        scan(&root.join(dir), patterns, &mut offenders);
    }
    offenders
}

#[test]
fn raw_transport_calls_stay_below_the_channel_layer() {
    let patterns = vec![".t_send(".to_string(), ".t_post_recv(".to_string()];
    let offenders = offenders_for(FORBIDDEN, &patterns);
    assert!(
        offenders.is_empty(),
        "raw t_send/t_post_recv callers above the channel layer \
         (use channel_send/channel_post_recv):\n{}",
        offenders.join("\n")
    );
}

#[test]
fn reliability_packet_fields_stay_inside_the_window_and_drivers() {
    // Patterns assembled at runtime so this file never matches itself.
    let patterns = vec![
        format!("rel_{}", "seq"),
        format!("rel_{}", "ack"),
        format!("rel_{}", "tsval"),
    ];
    let offenders = offenders_for(REL_FORBIDDEN, &patterns);
    assert!(
        offenders.is_empty(),
        "raw sequence/ack/timestamp packet fields touched above the \
         reliability window (only knet-simnic's rel module and the gm/mx \
         drivers may):\n{}",
        offenders.join("\n")
    );
}

/// Directories that must not touch the collective tree engine's wire
/// surface: the `0xC?` frame opcodes and the firmware entry points
/// (`coll_inject` / `coll_on_packet`) belong to `knet-simnic`'s tree
/// engine and the two drivers that feed it. Everything above — including
/// `knet-coll`, which is the *control plane* (groups, membership,
/// completion contexts) — speaks `CollCmd`/`CollEvent` and the
/// `CollWorld` seam only.
const COLL_FORBIDDEN: &[&str] = &[
    "src",
    "examples",
    "tests",
    "crates/core",
    "crates/coll",
    "crates/zsock",
    "crates/bench",
    "crates/simfs",
    "crates/orfs",
    "crates/nbd",
    "crates/simos",
    "crates/simcore",
];

/// Directories that must not schedule through the engine's boxed escape
/// hatches. The engine's zero-allocation contract holds because
/// steady-state events are *typed* (`lift_nic`/`lift_gm`/`lift_mx` →
/// `ClusterEv` variants); the old free functions (`at`/`after`/
/// `immediately`) that boxed every closure are gone from `knet_simcore`'s
/// surface and must not come back above it. The composed cluster crate,
/// examples and benches may also not fall back to `BoxEvent` — that type
/// exists for standalone layer test-worlds only.
const ENGINE_FORBIDDEN: &[&str] = &[
    "src",
    "examples",
    "tests",
    "crates/core",
    "crates/coll",
    "crates/gm",
    "crates/mx",
    "crates/simnic",
    "crates/simos",
    "crates/zsock",
    "crates/bench",
    "crates/simfs",
    "crates/orfs",
    "crates/nbd",
];

/// Stricter subset: nothing in the composed cluster paths may even name the
/// boxed-event fallback type.
const BOXEVENT_FORBIDDEN: &[&str] = &["src", "examples", "crates/bench"];

#[test]
fn boxed_event_scheduling_stays_inside_the_engine() {
    // Patterns assembled at runtime so this file never matches itself.
    let patterns = vec![
        format!("knet_simcore::{}(", "at"),
        format!("knet_simcore::{}(", "after"),
        format!("knet_simcore::{}(", "immediately"),
        format!(".sched.{}(", "at"),
        format!(".sched_mut().{}(", "at"),
    ];
    let offenders = offenders_for(ENGINE_FORBIDDEN, &patterns);
    assert!(
        offenders.is_empty(),
        "raw boxed scheduling above the engine (use typed lift_* events on \
         the hot path, or node-tagged call_at/call_after for cold control \
         code):\n{}",
        offenders.join("\n")
    );

    let patterns = vec![format!("Box{}", "Event")];
    let offenders = offenders_for(BOXEVENT_FORBIDDEN, &patterns);
    assert!(
        offenders.is_empty(),
        "the boxed-event fallback type leaked into the composed cluster \
         paths (ClusterEv's typed variants are the steady-state contract):\n{}",
        offenders.join("\n")
    );
}

/// The replicated KV store is the tentpole *proof* of the typed RPC layer:
/// every byte it moves must ride `rpc_call` / `rpc_server_reply`, so that
/// deadlines, retry budgets, idempotency keys and typed errors apply to
/// all of its traffic. A raw channel call in `crates/kv` would be a
/// side-channel around every one of those guarantees. (`crates/rpc` is the
/// one consumer of the channel API here — the KV store sits strictly above
/// it. CI runs the same check as a grep step.)
#[test]
fn kv_store_speaks_typed_rpc_only() {
    let patterns = vec![
        format!("channel_{}(", "send"),
        format!("channel_{}(", "post_recv"),
        format!("channel_{}(", "connect"),
        format!("channel_{}(", "accept"),
        format!(".t_{}(", "send"),
        format!(".t_{}(", "post_recv"),
    ];
    let offenders = offenders_for(&["crates/kv"], &patterns);
    assert!(
        offenders.is_empty(),
        "the KV store bypassed the typed RPC layer (use rpc_call / \
         rpc_server_reply — deadlines, retries and cancellation live \
         there):\n{}",
        offenders.join("\n")
    );
}

/// Directories that must not bypass the WDRR scheduler. The tenant-stamped
/// send entry points (`t_send_t`, `gm_send_t`, `mx_isend_t`) and the
/// per-tenant lane queue type are the seam *below* per-tenant fair queueing:
/// calling them directly would let a caller pick its own tenant id or
/// reorder parked sends, defeating both isolation and accounting. Services,
/// examples and integration tests send through channels; only the channel
/// layer (`crates/core`), the two drivers, and the composed world
/// (`src/world.rs`, which implements the `t_send_t` seam) sit below it.
const WDRR_FORBIDDEN: &[&str] = &[
    "examples",
    "tests",
    "crates/coll",
    "crates/zsock",
    "crates/bench",
    "crates/simfs",
    "crates/orfs",
    "crates/nbd",
    "crates/rpc",
    "crates/kv",
];

#[test]
fn tenant_stamped_sends_stay_below_the_wdrr_scheduler() {
    // Patterns assembled at runtime so this file never matches itself.
    let patterns = vec![
        format!(".t_send_{}(", "t"),
        format!("gm_send_{}(", "t"),
        format!("mx_isend_{}(", "t"),
        format!("Wdrr{}", "Lanes"),
    ];
    let offenders = offenders_for(WDRR_FORBIDDEN, &patterns);
    assert!(
        offenders.is_empty(),
        "tenant-stamped raw sends or WDRR queue internals touched above \
         the scheduler (register a tenant, assign the endpoint, and send \
         through the channel API):\n{}",
        offenders.join("\n")
    );
}

/// Directories that must not touch the NIC's physical-lane model. Lane
/// selection (the deficit picker that stripes a flow across a dual-link
/// card) and rx-lane contention (the FIFO-overflow drop model) are
/// properties of the simulated hardware in `knet-simnic`: everything
/// above sees their *effects* only — goodput, `lane_tx` counters,
/// `rx_congestion_drops`, NACKs. A layer that picked its own lane or
/// probed lane occupancy would bake the card's link count into protocol
/// code and break the single-link/dual-link A-B the striping bench runs.
/// (`knet-simcore` defines the lane-bank resource; `knet-simnic` is its
/// one consumer.)
const LANE_FORBIDDEN: &[&str] = &[
    "src",
    "examples",
    "tests",
    "crates/core",
    "crates/coll",
    "crates/gm",
    "crates/mx",
    "crates/zsock",
    "crates/bench",
    "crates/simfs",
    "crates/orfs",
    "crates/nbd",
    "crates/simos",
    "crates/rpc",
    "crates/kv",
];

#[test]
fn physical_lane_model_stays_inside_the_nic_layer() {
    // Patterns assembled at runtime so this file never matches itself.
    let patterns = vec![
        format!("Lane{}", "Bank"),
        format!(".tx.{}(", "acquire"),
        format!(".rx.{}(", "acquire"),
    ];
    let offenders = offenders_for(LANE_FORBIDDEN, &patterns);
    assert!(
        offenders.is_empty(),
        "NIC lane internals touched above the simulated hardware (lane \
         striping and rx contention belong to knet-simnic; observe them \
         through stats and goodput only):\n{}",
        offenders.join("\n")
    );
}

#[test]
fn collective_opcodes_stay_inside_the_nic_engine_and_drivers() {
    // Patterns assembled at runtime so this file never matches itself.
    let patterns = vec![
        format!("{}_{}_", "COLL", "KIND"),
        format!("coll_{}(", "inject"),
        format!("coll_{}(", "on_packet"),
    ];
    let offenders = offenders_for(COLL_FORBIDDEN, &patterns);
    assert!(
        offenders.is_empty(),
        "collective frame opcodes / firmware entry points touched above \
         the NIC tree engine (only knet-simnic's coll module and the gm/mx \
         drivers may; go through knet-coll's group API):\n{}",
        offenders.join("\n")
    );
}
