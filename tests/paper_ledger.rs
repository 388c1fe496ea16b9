//! The paper's own numbers, pinned: `BENCH_paper.json` holds Table 1 and
//! every point of figures 5a, 5b, 6, 7a, 7b, 8a and 8b, and must regenerate
//! byte for byte. `tests/figures_shape.rs` checks the paper's qualitative
//! claims; this test catches any drift in the values themselves.
//! Regenerate with `cargo bench -p knet-bench --bench paper`.

#[test]
fn paper_ledger_regenerates_exactly() {
    let committed = include_str!("../BENCH_paper.json");
    let fresh = knet::report::paper_ledger();
    if fresh != committed {
        let diff = fresh
            .lines()
            .zip(committed.lines())
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("first differing line:\n  now:       {a}\n  committed: {b}"))
            .unwrap_or_else(|| "the files differ in length".into());
        panic!("BENCH_paper.json no longer regenerates; {diff}");
    }
}
