//! The paper ledger: regenerates Table 1 and the points of figures 5a, 5b,
//! 6, 7a, 7b, 8a and 8b, and writes them to `BENCH_paper.json` at the
//! repository root. `tests/paper_ledger.rs` requires the committed file to
//! regenerate byte for byte, so a change that moves one of the paper's
//! numbers lands together with the regenerated ledger.
fn main() {
    let json = knet::report::paper_ledger();
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_paper.json");
    std::fs::write(&out, &json).expect("write benchmark json");
    println!("{json}");
    eprintln!("wrote {}", out.display());
}
