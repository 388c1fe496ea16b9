//! The benchmark's one command.
//!
//! ```text
//! perfbench --workload <tenant-mix|orfs-fanin|kv-failover|all> --seed <n>
//!           --seconds <s> --trace <0|1> [--scale <percent>]
//! ```
//!
//! A run executes the workload's fixed number of sessions (fresh worlds on
//! seeds derived from `--seed`), then repeats sessions until `--seconds`
//! of host time have passed — at least one repeat, and every repeat must
//! reproduce its session's virtual results exactly. With `--trace 0` it
//! prints the end-to-end metrics; with `--trace 1` the sessions run with
//! spans recorded and it prints the per-layer metrics, each tagged with
//! the end-to-end metric and workload it should move, plus the tracing
//! overhead. The last line of standard output is one JSON object; the exit
//! code is non-zero when any correctness check failed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use perfbench::run::{self, Config, RunOutput};
use perfbench::stats::{self, median, Session};
use perfbench::trace::{self, Kind, Span};

/// Counts heap allocations for `host.allocs_per_op`.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale_pct: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut scale_pct) = (None, None, false, 100);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(num(&val)?),
            "--seconds" => seconds = Some(num(&val)? as f64),
            "--trace" => trace = num(&val)? != 0,
            "--scale" => scale_pct = num(&val)?.clamp(1, 100),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !run::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {:?} or all",
            run::NAMES
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale_pct,
    })
}

/// One session: set up, run, check, with host timings.
struct Done {
    out: RunOutput,
    summary: Session,
    setup_s: f64,
    run_s: f64,
    run_allocs: u64,
    spans: Option<Vec<Span>>,
}

fn session(name: &str, cfg: &Config, traced: bool) -> Done {
    if traced {
        trace::enable();
    }
    let t0 = Instant::now();
    let mut wl = run::setup(name, cfg).expect("known workload");
    let t1 = Instant::now();
    let a1 = allocs();
    wl.run();
    let run_allocs = allocs() - a1;
    let t2 = Instant::now();
    let spans = traced.then(trace::disable);
    let out = wl.finish();
    let summary = stats::summarize(&out.ops, out.start, out.end, out.kill);
    Done {
        out,
        summary,
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        run_allocs,
        spans,
    }
}

/// Set-up samples wanted per run; workloads whose set-up is short next to
/// a session get extra set-ups (built and dropped), within one second.
const SETUP_SAMPLES: usize = 64;

fn extra_setups(name: &str, cfg: &Config, setups: &mut Vec<f64>) {
    let start = Instant::now();
    while setups.len() < SETUP_SAMPLES && start.elapsed().as_secs_f64() < 1.0 {
        let t = Instant::now();
        let wl = run::setup(name, cfg).expect("known workload");
        setups.push(t.elapsed().as_secs_f64());
        drop(wl);
    }
}

fn layer(out: &RunOutput, name: &str) -> f64 {
    out.layers
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// One row of the per-layer table: the metrics of a layer with their
/// units, the end-to-end metrics they should move, and the workload that
/// exercises the mechanism / the one that bypasses it (where the
/// prediction is no change).
struct LayerRow {
    metrics: &'static [(&'static str, &'static str)],
    moves: &'static str,
    workloads: &'static str,
}

const PER_LAYER: &[LayerRow] = &[
    LayerRow {
        metrics: &[
            ("simcore.events_per_op", "events/op"),
            ("simcore.host_ns_per_event", "ns/event"),
            ("simcore.arena_grows", "count"),
        ],
        moves: "host_ops_per_s, peak_rss_mb",
        workloads: "tenant-mix / orfs-fanin",
    },
    LayerRow {
        metrics: &[("host.allocs_per_op", "allocs/op")],
        moves: "host_ops_per_s",
        workloads: "tenant-mix / orfs-fanin",
    },
    LayerRow {
        metrics: &[
            ("core.submit_host_ns", "ns/call"),
            ("core.queued_sends", "count"),
            ("core.failed_retries", "count"),
        ],
        moves: "host_ops_per_s, p99_us",
        workloads: "tenant-mix / orfs-fanin",
    },
    LayerRow {
        metrics: &[
            ("core.regcache_hit_ratio", "ratio"),
            ("core.regcache_evictions", "count"),
            ("gm.pages_registered", "count"),
            ("gm.pages_deregistered", "count"),
        ],
        moves: "p50_us, goodput_mbps",
        workloads: "orfs-fanin / tenant-mix",
    },
    LayerRow {
        metrics: &[
            ("mx.unexpected", "count"),
            ("mx.rndv_started", "count"),
            ("mx.send_copies_avoided", "count"),
        ],
        moves: "p50_us",
        workloads: "tenant-mix, kv-failover / orfs-fanin",
    },
    LayerRow {
        metrics: &[
            ("simnic.retransmit_ratio", "ratio"),
            ("simnic.timeouts", "count"),
            ("simnic.fast_retransmits", "count"),
            ("simnic.nacks", "count"),
            ("simnic.cwnd_cuts", "count"),
            ("simnic.spurious_rtos", "count"),
            ("simnic.dead_links", "count"),
            ("simnic.rx_congestion_drops", "count"),
        ],
        moves: "write_p99_us, goodput_mbps (orfs-fanin); failed_ratio, p99_us (kv-failover)",
        workloads: "orfs-fanin, kv-failover / tenant-mix",
    },
    LayerRow {
        metrics: &[
            ("simnic.qos_deferred", "count"),
            ("simnic.qos_shed", "count"),
        ],
        moves: "victim_p99_us, failed_ratio",
        workloads: "tenant-mix / orfs-fanin",
    },
    LayerRow {
        metrics: &[
            ("simnic.server_fw_busy", "ratio"),
            ("simnic.server_dma_busy", "ratio"),
            ("simnic.server_tx_busy", "ratio"),
            ("simnic.server_rx_busy", "ratio"),
        ],
        moves: "p99_us, which rises before goodput_mbps stops rising",
        workloads: "tenant-mix, orfs-fanin / kv-failover",
    },
    LayerRow {
        metrics: &[("simos.server_cpu_busy", "ratio")],
        moves: "p50_us",
        workloads: "orfs-fanin, tenant-mix / kv-failover",
    },
    LayerRow {
        metrics: &[
            ("orfs.submit_host_ns", "ns/call"),
            ("orfs.staging_leftover", "count"),
            ("orfs.corrupt_writes", "count"),
            ("simfs.bytes_written", "bytes"),
        ],
        moves: "failed_ratio, host_ops_per_s",
        workloads: "orfs-fanin / tenant-mix",
    },
    LayerRow {
        metrics: &[
            ("rpc.retries_per_call", "ratio"),
            ("rpc.failed", "count"),
            ("rpc.late_replies", "count"),
        ],
        moves: "failed_ratio, p99_us",
        workloads: "kv-failover / tenant-mix",
    },
    LayerRow {
        metrics: &[
            ("kv.reissues_per_op", "ratio"),
            ("kv.promotion_ms", "ms"),
            ("kv.wrong_epoch", "count"),
            ("kv.solo_demotions", "count"),
            ("kv.submit_host_ns", "ns/call"),
        ],
        moves: "failed_ratio, blackout_ms",
        workloads: "kv-failover / orfs-fanin",
    },
    LayerRow {
        metrics: &[("knet.build_s", "s"), ("knet.install_s", "s")],
        moves: "setup_s",
        workloads: "all; orfs-fanin's file population dominates its set-up",
    },
    LayerRow {
        metrics: &[("knet.loop_self_s", "s")],
        moves: "host_ops_per_s",
        workloads: "all",
    },
    LayerRow {
        metrics: &[("trace.overhead_pct", "%")],
        moves: "nothing: traced minus untraced run time",
        workloads: "all",
    },
];

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// (name, value, unit)
    metrics: Vec<(String, f64, String)>,
}

impl Report {
    fn json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// A JSON number with every digit of the f64.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn run_workload(a: &Args) -> Report {
    let name = a.workload.as_str();
    let n = run::sessions(name) * a.scale_pct / 100;
    let n = n.max(1);
    let t_start = Instant::now();
    let mut errors: Vec<String> = Vec::new();
    let mut sessions: Vec<Session> = Vec::new();
    let mut fingerprints = Vec::new();
    let mut layer_sums: Vec<(&'static str, f64)> = Vec::new();
    let mut notes: Vec<(String, f64)> = Vec::new();
    let (mut setups, mut rates) = (Vec::new(), Vec::new());
    // Traced run: per-session span totals and timings.
    let mut span_totals = Vec::new();
    let mut ns_per_event = Vec::new();
    let mut allocs_per_op = Vec::new();
    let mut traced_rates = Vec::new();
    let mut first_spans: Option<Vec<Span>> = None;

    let mut i = 0u64;
    loop {
        let s = i % n;
        let first_pass = i < n;
        let cfg = Config {
            seed: run::session_seed(a.seed, s),
            scale_pct: a.scale_pct,
        };
        // A traced run traces the sessions and times the repeats without
        // spans, for the tracing overhead.
        let traced = a.trace && first_pass;
        let d = session(name, &cfg, traced);
        let attempted = d.summary.counts.attempted.max(1);
        let fp = d.summary.fingerprint();
        if first_pass {
            errors.extend(d.out.errors.iter().map(|e| format!("session {s}: {e}")));
            fingerprints.push(fp);
            if layer_sums.is_empty() {
                layer_sums = d.out.layers.iter().map(|&(k, _)| (k, 0.0)).collect();
                notes = d.out.notes.iter().map(|(k, _)| (k.clone(), 0.0)).collect();
            }
            for (acc, (_, v)) in layer_sums.iter_mut().zip(&d.out.layers) {
                acc.1 += v / n as f64;
            }
            for (acc, (_, v)) in notes.iter_mut().zip(&d.out.notes) {
                acc.1 += v / n as f64;
            }
            if let Some(spans) = d.spans {
                let events = layer(&d.out, "simcore.events_per_op") * attempted as f64;
                ns_per_event.push(d.run_s * 1e9 / events.max(1.0));
                allocs_per_op.push(d.run_allocs as f64 / attempted as f64);
                span_totals.push(trace::totals(&spans));
                if first_spans.is_none() {
                    first_spans = Some(spans);
                }
            }
            sessions.push(d.summary);
        } else if fp != fingerprints[s as usize] {
            errors.push(format!(
                "session {s} is not deterministic: a repeat gave different virtual results"
            ));
        }
        if traced {
            traced_rates.push(attempted as f64 / d.run_s);
        } else {
            setups.push(d.setup_s);
            rates.push(attempted as f64 / d.run_s);
        }
        i += 1;
        if i == n && !a.trace {
            extra_setups(name, &cfg, &mut setups);
        }
        if i > n && t_start.elapsed().as_secs_f64() >= a.seconds {
            break;
        }
    }

    let vm = stats::virtual_metrics(&sessions);
    let c = vm.counts;
    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    let mut put = |k: &str, v: f64, u: &str| metrics.push((k.to_string(), v, u.to_string()));
    println!("workload {name}: seed {} · {n} sessions · {i} runs", a.seed);
    println!(
        "ops: attempted {} · ok {} · refused {} · shed {} · failed {} · unresolved {}",
        c.attempted, c.ok, c.refused, c.shed, c.failed, c.unresolved
    );
    for (k, v) in &notes {
        println!("  note {k} = {v}");
    }
    if !a.trace {
        put("p50_us", vm.p50_us, "us");
        put("p99_us", vm.p99_us, "us");
        match vm.p999.value {
            Some(v) => put("p999_us", v as f64 / 1e3, "us"),
            None => println!(
                "  p999_us suppressed: {} of {} samples beyond it (needs {})",
                vm.p999.beyond,
                vm.p999.samples,
                stats::MIN_BEYOND
            ),
        }
        put("write_p99_us", vm.write_p99_us, "us");
        put("victim_p99_us", vm.victim_p99_us, "us");
        put("goodput_mbps", vm.goodput_mbps, "MB/s");
        put("failed_ratio", vm.failed_ratio, "ratio");
        put("ops_completed", vm.ops_completed as f64, "ops");
        put("blackout_ms", vm.blackout_ms, "ms");
        put("setup_s", median(&setups), "s");
        put("host_ops_per_s", median(&rates), "ops/s");
        put("peak_rss_mb", peak_rss_mb(), "MB");
        for (k, v, u) in &metrics {
            println!("{k:>16} = {v} {u}");
        }
        println!(
            "  p999 over {} latency samples, {} beyond it",
            vm.p999.samples, vm.p999.beyond
        );
    } else {
        let sum = |k: Kind| {
            span_totals.iter().fold((0u64, 0u64), |acc, t| {
                let x = t.get(k);
                (acc.0 + x.total_ns, acc.1 + x.count)
            })
        };
        let per_call = |k: Kind| {
            let (ns, calls) = sum(k);
            if calls == 0 {
                0.0
            } else {
                ns as f64 / calls as f64
            }
        };
        let per_session = |f: &dyn Fn(&trace::Totals) -> u64| {
            median(
                &span_totals
                    .iter()
                    .map(|t| f(t) as f64 / 1e9)
                    .collect::<Vec<_>>(),
            )
        };
        let host: Vec<(&str, f64)> = vec![
            ("simcore.host_ns_per_event", median(&ns_per_event)),
            ("host.allocs_per_op", median(&allocs_per_op)),
            ("core.submit_host_ns", per_call(Kind::ChannelSend)),
            ("orfs.submit_host_ns", per_call(Kind::OrfsSubmit)),
            ("kv.submit_host_ns", per_call(Kind::KvSubmit)),
            (
                "knet.build_s",
                per_session(&|t| t.get(Kind::Build).total_ns),
            ),
            (
                "knet.install_s",
                per_session(&|t| t.get(Kind::Install).total_ns),
            ),
            (
                "knet.loop_self_s",
                per_session(&|t| t.get(Kind::Slice).self_ns),
            ),
            (
                "trace.overhead_pct",
                (median(&rates) / median(&traced_rates) - 1.0) * 100.0,
            ),
        ];
        for row in PER_LAYER {
            println!("{}; mechanism / bypass: {}", row.moves, row.workloads);
            for &(k, unit) in row.metrics {
                let v = host
                    .iter()
                    .chain(layer_sums.iter())
                    .find(|(n, _)| *n == k)
                    .map(|&(_, v)| v)
                    .unwrap_or_else(|| panic!("per-layer metric {k} not measured"));
                println!("  {k:>28} = {v} {unit}");
                put(k, v, unit);
            }
        }
        for k in trace::KINDS {
            let (ns, calls) = sum(k);
            println!(
                "  spans {:<13} {calls:>9} calls {:>12.6} s",
                k.name(),
                ns as f64 / 1e9
            );
        }
        if let Some(spans) = &first_spans {
            let path = std::env::current_exe().ok().and_then(|p| {
                p.parent()
                    .map(|d| d.join(format!("perfbench-spans-{name}.tsv")))
            });
            if let Some(path) = path {
                match trace::write_tsv(&path, spans) {
                    Ok(()) => println!("  spans of session 0 written to {}", path.display()),
                    Err(e) => println!("  could not write spans: {e}"),
                }
            }
        }
    }
    for e in errors.iter().take(20) {
        println!("  CHECK FAILED: {e}");
    }
    if errors.len() > 20 {
        println!("  … {} more failed checks", errors.len() - 20);
    }
    Report {
        correct: errors.is_empty(),
        attempted: c.attempted,
        failed: c.failed_total(),
        metrics,
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `--workload all`: each workload in its own process, one after another;
/// the last line merges their results, metric names prefixed by workload.
fn run_all(a: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable");
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics: Vec<String> = Vec::new();
    for name in run::NAMES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .args(["--scale", &a.scale_pct.to_string()])
            .output()
            .expect("run workload process");
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for l in lines {
            println!("{l}");
        }
        println!();
        correct &= out.status.success() && last.contains("\"correct\": true");
        let field = |key: &str| {
            last.split(key)
                .nth(1)
                .and_then(|r| r.split([',', '}']).next())
                .and_then(|v| v.trim().parse::<u64>().ok())
                .unwrap_or(0)
        };
        attempted += field("\"attempted\": ");
        failed += field("\"failed\": ");
        // Each entry is `"name": {"value": v, "unit": "u"}`.
        if let Some(body) = last
            .split_once("\"metrics\": {")
            .and_then(|(_, b)| b.strip_suffix("}}"))
            .filter(|b| !b.is_empty())
        {
            let prefixed: Vec<String> = body
                .split("}, \"")
                .map(|m| format!("\"{name}.{}", m.trim_start_matches('"')))
                .collect();
            metrics.push(prefixed.join("}, "));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if a.workload == "all" {
        return run_all(&a);
    }
    let r = run_workload(&a);
    println!("{}", r.json());
    if r.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
