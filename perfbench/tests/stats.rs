//! The benchmark's own statistics rules.

use perfbench::stats::{
    blackout_ns, mean_residual_ns, nearest_rank, percentile, samples, summarize, tail_percentile,
    virtual_metrics, Counts, OpRec, Pool, Role, Samples, Status, MIN_BEYOND,
};

const LAT: Role = Role {
    latency: true,
    write: false,
    victim: false,
};
const WRITE: Role = Role {
    latency: true,
    write: true,
    victim: false,
};

fn op(due: u64, end: u64, status: Status, role: Role) -> OpRec {
    OpRec {
        due,
        end,
        bytes: 100,
        role,
        status,
    }
}

#[test]
fn nearest_rank_edges() {
    // One sample is every percentile.
    for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
        assert_eq!(nearest_rank(1, q), 1);
    }
    assert_eq!(nearest_rank(10, 0.0), 1, "q = 0 is the minimum");
    assert_eq!(nearest_rank(10, 1.0), 10, "q = 1 is the maximum");
    assert_eq!(nearest_rank(4, 0.5), 2, "ceil(0.5 · 4) = 2");
    assert_eq!(nearest_rank(5, 0.5), 3, "ceil(2.5) = 3");
    assert_eq!(nearest_rank(100, 0.99), 99);
    // 0.999 · 1000 must be exactly 999, not rounded up by float error.
    assert_eq!(nearest_rank(1000, 0.999), 999);
    assert_eq!(nearest_rank(1001, 0.999), 1000);

    let v: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&v, 0.50), Some(50));
    assert_eq!(percentile(&v, 0.99), Some(99));
    assert_eq!(percentile(&v, 1.0), Some(100));
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(percentile(&[7], 0.999), Some(7));
}

#[test]
fn p999_needs_ten_samples_beyond_it() {
    // 9 999 samples: rank 9 990, only 9 beyond — suppressed.
    let v: Vec<u64> = (0..9_999).collect();
    let t = tail_percentile(&v, 0.999);
    assert_eq!((t.value, t.beyond, t.samples), (None, 9, 9_999));
    // 10 000 samples: rank 9 990, exactly 10 beyond — reported.
    let v: Vec<u64> = (0..10_000).collect();
    let t = tail_percentile(&v, 0.999);
    assert_eq!(t.beyond, MIN_BEYOND);
    assert_eq!(t.value, Some(9_989));
    assert_eq!(tail_percentile(&[], 0.999).value, None);
}

/// Every sample of a pool, ascending (by asking for every rank).
fn expand(pool: &Pool) -> Vec<u64> {
    let n = pool.len();
    (1..=n)
        .map(|r| pool.percentile((r as f64 - 0.5) / n as f64).unwrap())
        .collect()
}

#[test]
fn failures_enter_as_run_length_and_never_beat_a_success() {
    let run_len = 1_000;
    let ops = vec![
        op(0, 10, Status::Ok, LAT),
        op(0, 20, Status::Ok, LAT),
        op(100, 100, Status::Failed, LAT),
        op(0, 0, Status::Shed, LAT),
        op(500, 500, Status::Unresolved, LAT),
        op(0, 0, Status::Refused, LAT),
    ];
    let s = samples(&ops, |_| true);
    assert_eq!(
        s,
        Samples {
            ok: vec![10, 20],
            failed: 4
        }
    );
    let pool = Pool::new([(&s, run_len)]);
    assert_eq!(expand(&pool), vec![10, 20, 1000, 1000, 1000, 1000]);
    // Turning any failure into a success, however slow (an op resolves
    // within the run, so its latency is at most the run length), never
    // worsens a percentile.
    for i in 2..ops.len() {
        let mut fixed = ops.clone();
        fixed[i] = op(0, run_len, Status::Ok, LAT);
        let after = Pool::new([(&samples(&fixed, |_| true), run_len)]);
        for q in [0.5, 0.9, 0.99] {
            let (a, b) = (after.percentile(q).unwrap(), pool.percentile(q).unwrap());
            assert!(a <= b, "q={q}: {a} > {b} after fixing op {i}");
        }
    }
    // Pooled sessions: each failure at its own session's run length, merged
    // in order with every success.
    let other = Samples {
        ok: vec![15, 1_500],
        failed: 1,
    };
    let pool = Pool::new([(&s, run_len), (&other, 2_000)]);
    assert_eq!(
        expand(&pool),
        vec![10, 15, 20, 1000, 1000, 1000, 1000, 1500, 2000]
    );
    assert_eq!(pool.percentile(0.5), Some(1000));
    assert_eq!(Pool::new([]).percentile(0.5), None);
}

#[test]
fn failed_ratio_arithmetic() {
    let ops = vec![
        op(0, 1, Status::Ok, LAT),
        op(0, 1, Status::Ok, LAT),
        op(0, 1, Status::Ok, LAT),
        op(0, 1, Status::Ok, LAT),
        op(0, 0, Status::Refused, LAT),
        op(0, 0, Status::Shed, LAT),
        op(0, 1, Status::Failed, LAT),
        op(0, 9, Status::Unresolved, LAT),
    ];
    let c = Counts::of(&ops);
    assert_eq!(
        c,
        Counts {
            attempted: 8,
            ok: 4,
            refused: 1,
            shed: 1,
            failed: 1,
            unresolved: 1,
            pending: 0,
        }
    );
    assert_eq!(c.failed_total(), 4);
    assert_eq!(c.failed_ratio(), 0.5);
    assert!(c.balanced());
    assert_eq!(Counts::default().failed_ratio(), 0.0);
    // A still-pending op is a failure too, never a silent success.
    let c = Counts::of(&[op(0, 0, Status::Pending, LAT)]);
    assert_eq!((c.failed_total(), c.failed_ratio()), (1, 1.0));
}

#[test]
fn blackout_runs_to_the_first_acked_write_or_the_end() {
    let ops = vec![
        op(0, 10, Status::Ok, WRITE),
        op(40, 90, Status::Failed, WRITE),
        op(50, 70, Status::Ok, LAT),
        op(60, 130, Status::Ok, WRITE),
    ];
    assert_eq!(
        blackout_ns(&ops, 50, 1_000),
        80,
        "first write acked after 50 is at 130"
    );
    assert_eq!(
        blackout_ns(&ops, 200, 1_000),
        800,
        "none after 200: capped at the end"
    );
    let s = summarize(&ops, 0, 1_000, Some(50));
    assert_eq!(s.blackout, 80);
}

#[test]
fn without_a_fault_blackout_is_the_mean_wait_for_the_next_write_ack() {
    // Acks at 10 and 30: from t in [0, 10) the wait is 10 − t, from
    // [10, 30) it is 30 − t; mean over [0, 30] = (50 + 200) / 30.
    assert_eq!(mean_residual_ns(&[10, 30], 0, 30, 100), 8);
    // Past the last ack the wait runs to the end of the run.
    assert_eq!(mean_residual_ns(&[10], 0, 20, 30), (50 + 150) / 20);
    // Acks outside the window only bound the wait at its edge.
    assert_eq!(mean_residual_ns(&[5, 40], 10, 20, 100), 25);
    assert_eq!(mean_residual_ns(&[], 0, 10, 10), 5);
    assert_eq!(mean_residual_ns(&[1, 2], 5, 5, 10), 0);
    // A session's writes are offered from 0 to 60 and acked at 10 and 130:
    // (10²/2 + (120² − 70²)/2) / 60 = 80.
    let s = summarize(
        &[op(0, 10, Status::Ok, WRITE), op(60, 130, Status::Ok, WRITE)],
        0,
        1_000,
        None,
    );
    assert_eq!(s.blackout, 80);
}

#[test]
fn sessions_pool_samples_counts_and_time() {
    let a = summarize(
        &[op(0, 10, Status::Ok, LAT), op(0, 0, Status::Shed, LAT)],
        0,
        1_000,
        None,
    );
    let b = summarize(&[op(0, 30, Status::Ok, LAT)], 0, 3_000, None);
    // The failure of session a enters as a's run length, not b's.
    assert_eq!(
        a.lat,
        Samples {
            ok: vec![10],
            failed: 1
        }
    );
    let m = virtual_metrics(&[a.clone(), b.clone()]);
    assert_eq!(m.counts.attempted, 3);
    assert_eq!(m.ops_completed, 2);
    assert_eq!(m.p50_us, 0.03);
    assert_eq!(m.p99_us, 1.0);
    // 200 good bytes over 4 µs of virtual time = 50 MB/s.
    assert_eq!(m.goodput_mbps, 50.0);
    assert!((m.failed_ratio - 1.0 / 3.0).abs() < 1e-12);
    assert_ne!(a.fingerprint(), b.fingerprint());
    assert_eq!(a.fingerprint(), a.clone().fingerprint());
}
