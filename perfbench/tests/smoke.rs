//! Every workload at a few percent of its size: the outputs pass their
//! correctness checks, every op is accounted for, and a second run on the
//! same seed reproduces the virtual results exactly.

use perfbench::run::{setup, Config};
use perfbench::stats::{summarize, virtual_metrics};

fn smoke(name: &str) {
    let cfg = Config {
        seed: 7,
        scale_pct: 2,
    };
    let mut fingerprints = Vec::new();
    for _ in 0..2 {
        let mut wl = setup(name, &cfg).expect("known workload");
        wl.run();
        let out = wl.finish();
        assert!(out.errors.is_empty(), "{name}: {:?}", out.errors);
        let s = summarize(&out.ops, out.start, out.end, out.kill);
        assert!(s.counts.attempted > 0, "{name}: no ops");
        assert!(s.counts.balanced(), "{name}: {:?}", s.counts);
        let m = virtual_metrics(std::slice::from_ref(&s));
        assert!(m.p50_us > 0.0 && m.goodput_mbps > 0.0, "{name}: {m:?}");
        fingerprints.push(s.fingerprint());
    }
    assert_eq!(
        fingerprints[0], fingerprints[1],
        "{name}: same seed, different results"
    );
}

#[test]
fn tenant_mix() {
    smoke("tenant-mix");
}

#[test]
fn orfs_fanin() {
    smoke("orfs-fanin");
}

#[test]
fn kv_failover() {
    smoke("kv-failover");
}
