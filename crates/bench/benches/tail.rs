//! Tail-latency traffic benchmark: the multi-tenant send path under an
//! open-loop, heavy-tailed load.
//!
//! Two phases, both driven by `knet::workload` (tens of thousands of
//! logical clients with Pareto virtual-time arrivals, request→reply echo
//! latency per tenant):
//!
//! * **mixed** — four service-shaped tenant classes (zsock-sized chatter,
//!   ORFS-sized 4 kB ops, NBD-sized 32 kB bulk under a token bucket, and a
//!   light latency-sensitive RPC class) run concurrently; per-tenant
//!   p50/p99/p999 land in `BENCH_tail.json`.
//! * **isolation** — the noisy-neighbor experiment: the victim class runs
//!   alone (baseline), then next to a blast tenant offering **10× its
//!   token rate**. The report carries the victim's p99 inflation factor;
//!   the documented bound (5×, asserted by `tests/tenant_isolation.rs` and
//!   the CI smoke job) is emitted alongside so the JSON is self-checking.
//!
//! Everything is virtual-time deterministic per seed; wall-clock only
//! affects how long the bench takes, never the numbers.
//!
//! Scale knobs (env): `TAIL_SCALE_PCT` (client population percentage,
//! default 100 ⇒ ~20 000 clients), `TAIL_HORIZON_MS` (arrival window,
//! default 400), `TAIL_SEED` (default 0x7A11), `TAIL_OUT` (output path,
//! default `BENCH_tail.json`).

use knet::build::ClusterBuilder;
use knet::workload::{run_solo, ClassReport, ClassSpec, WorkloadSpec};
use knet_simcore::SimTime;
use knet_simos::{CpuModel, NodeId};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct Config {
    scale_pct: u64,
    horizon_ms: u64,
    seed: u64,
}

impl Config {
    fn from_env() -> Self {
        Config {
            scale_pct: env_u64("TAIL_SCALE_PCT", 100).max(1),
            horizon_ms: env_u64("TAIL_HORIZON_MS", 400).max(10),
            seed: env_u64("TAIL_SEED", 0x7A11),
        }
    }

    fn clients(&self, base: u32) -> u32 {
        ((u64::from(base) * self.scale_pct) / 100).max(1) as u32
    }
}

fn builder() -> ClusterBuilder {
    ClusterBuilder::new()
        .nodes(3, CpuModel::xeon_2600())
        .mem_frames(65_536)
}

fn spec(cfg: &Config, classes: Vec<ClassSpec>) -> WorkloadSpec {
    WorkloadSpec {
        seed: cfg.seed,
        horizon: SimTime::from_millis(cfg.horizon_ms),
        server_node: NodeId(0),
        client_nodes: vec![NodeId(1), NodeId(2)],
        classes,
    }
}

/// The four service-shaped tenant classes of the mixed phase.
fn mixed_classes(cfg: &Config) -> Vec<ClassSpec> {
    vec![
        // zsock-style chatter: many clients, tiny messages, heavy tail.
        ClassSpec {
            name: "zsock-small".into(),
            weight: 4,
            rate_bytes_per_sec: 0,
            burst_bytes: 0,
            msg_bytes: 256,
            clients: cfg.clients(12_000),
            mean_gap: SimTime::from_millis(150),
            alpha_milli: 1300,
        },
        // ORFS-style metadata/IO ops: 4 kB payloads.
        ClassSpec {
            name: "orfs-4k".into(),
            weight: 4,
            rate_bytes_per_sec: 0,
            burst_bytes: 0,
            msg_bytes: 4096,
            clients: cfg.clients(3_000),
            mean_gap: SimTime::from_millis(300),
            alpha_milli: 1500,
        },
        // NBD-style bulk: 32 kB (MX medium ceiling) under a token bucket.
        ClassSpec {
            name: "nbd-32k".into(),
            weight: 2,
            rate_bytes_per_sec: 40_000_000,
            burst_bytes: 262_144,
            msg_bytes: 32_768,
            clients: cfg.clients(1_000),
            mean_gap: SimTime::from_millis(600),
            alpha_milli: 1900,
        },
        // The latency-sensitive class the isolation story protects.
        ClassSpec {
            name: "rpc-victim".into(),
            weight: 8,
            rate_bytes_per_sec: 0,
            burst_bytes: 0,
            msg_bytes: 512,
            clients: cfg.clients(4_000),
            mean_gap: SimTime::from_millis(400),
            alpha_milli: 1400,
        },
    ]
}

fn victim_class(cfg: &Config) -> ClassSpec {
    ClassSpec {
        name: "victim".into(),
        weight: 8,
        rate_bytes_per_sec: 0,
        burst_bytes: 0,
        msg_bytes: 512,
        clients: cfg.clients(256),
        mean_gap: SimTime::from_millis(40),
        alpha_milli: 1400,
    }
}

/// Token rate 4 MB/s; offered load ~40 MB/s — 10× the admitted rate.
fn blast_class(cfg: &Config) -> ClassSpec {
    ClassSpec {
        name: "blast".into(),
        weight: 1,
        rate_bytes_per_sec: 4_000_000,
        burst_bytes: 65_536,
        msg_bytes: 4096,
        clients: cfg.clients(512),
        mean_gap: SimTime::from_millis(52),
        alpha_milli: 1500,
    }
}

fn run(spec: &WorkloadSpec) -> Vec<ClassReport> {
    run_solo(&mut builder().build(), spec)
}

fn report_json(r: &ClassReport, cls: &ClassSpec) -> String {
    format!(
        "{{\"name\": \"{}\", \"weight\": {}, \"clients\": {}, \"msg_bytes\": {}, \"rate_bytes_per_sec\": {}, \"sent\": {}, \"completed\": {}, \"shed\": {}, \"queue_full\": {}, \"failed\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}, \"mean_us\": {:.1}, \"max_us\": {:.1}}}",
        r.name,
        cls.weight,
        r.clients,
        cls.msg_bytes,
        cls.rate_bytes_per_sec,
        r.sent,
        r.completed,
        r.shed,
        r.queue_full,
        r.failed,
        r.p50_us,
        r.p99_us,
        r.p999_us,
        r.mean_us,
        r.max_us
    )
}

fn main() {
    let cfg = Config::from_env();
    eprintln!(
        "tail: scale={}% horizon={}ms seed={:#x}",
        cfg.scale_pct, cfg.horizon_ms, cfg.seed
    );

    // ---- mixed phase ----
    let mixed = mixed_classes(&cfg);
    let mixed_spec = spec(&cfg, mixed.clone());
    let mixed_reports = run(&mixed_spec);
    for r in &mixed_reports {
        eprintln!(
            "mixed/{:<12} sent {:>6} done {:>6} shed {:>5}  p50 {:>9.1}us  p99 {:>9.1}us  p999 {:>9.1}us",
            r.name, r.sent, r.completed, r.shed, r.p50_us, r.p99_us, r.p999_us
        );
    }

    // ---- isolation phase ----
    let victim = victim_class(&cfg);
    let blast = blast_class(&cfg);
    let base_reports = run(&spec(&cfg, vec![victim.clone()]));
    let cont_reports = run(&spec(&cfg, vec![victim.clone(), blast.clone()]));
    let base_v = &base_reports[0];
    let cont_v = &cont_reports[0];
    let cont_b = &cont_reports[1];
    let inflation = if base_v.p99_us > 0.0 {
        cont_v.p99_us / base_v.p99_us
    } else {
        0.0
    };
    eprintln!(
        "isolation: victim p99 {:.1}us -> {:.1}us under blast ({:.2}x, bound 5.0x); blast shed {} of {}",
        base_v.p99_us, cont_v.p99_us, inflation, cont_b.shed, cont_b.sent
    );
    // Self-checking: the CI smoke job relies on this panic, and a full-scale
    // regeneration that breaches the documented bound should never commit.
    assert!(
        inflation <= 5.0,
        "victim p99 inflated {inflation:.2}x under the blast — beyond the documented 5.0x bound"
    );

    // ---- JSON emit (hand-rolled; the workspace is offline) ----
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"tail\",\n");
    json.push_str(&format!(
        "  \"config\": {{\"scale_pct\": {}, \"horizon_ms\": {}, \"seed\": {}}},\n",
        cfg.scale_pct, cfg.horizon_ms, cfg.seed
    ));
    json.push_str("  \"mixed\": {\n    \"tenants\": [\n");
    let rows: Vec<String> = mixed_reports
        .iter()
        .zip(&mixed)
        .map(|(r, c)| format!("      {}", report_json(r, c)))
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n    ]\n  },\n");
    json.push_str("  \"isolation\": {\n");
    json.push_str(&format!(
        "    \"victim_baseline\": {},\n",
        report_json(base_v, &victim)
    ));
    json.push_str(&format!(
        "    \"victim_contended\": {},\n",
        report_json(cont_v, &victim)
    ));
    json.push_str(&format!(
        "    \"blast\": {},\n",
        report_json(cont_b, &blast)
    ));
    json.push_str(&format!(
        "    \"p99_inflation\": {inflation:.3},\n    \"documented_bound\": 5.0\n  }}\n}}\n"
    ));

    let out = std::env::var("TAIL_OUT").unwrap_or_else(|_| "BENCH_tail.json".to_string());
    let out = if std::path::Path::new(&out).is_absolute() {
        std::path::PathBuf::from(out)
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(out)
    };
    std::fs::write(&out, &json).expect("write benchmark json");
    println!("{json}");
    eprintln!("wrote {}", out.display());
}
