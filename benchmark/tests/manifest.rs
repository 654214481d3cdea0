//! `BENCHMARK.json` at the repo root is generated (`bench --manifest`);
//! this fails when the file and the tables in `src/` have drifted apart,
//! or when a table breaks the driver's limits.

use gmp_benchmark::metrics::{END_TO_END, PER_LAYER};
use gmp_benchmark::report::{manifest, package_dir};
use gmp_benchmark::workload::workloads;

#[test]
fn benchmark_json_is_the_generated_one() {
    let path = package_dir().join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    assert_eq!(
        on_disk,
        manifest(),
        "regenerate with: cargo run --release --offline --manifest-path benchmark/Cargo.toml \
         --bin bench -- --manifest > BENCHMARK.json"
    );
}

#[test]
fn tables_are_within_the_drivers_limits() {
    let w = workloads();
    assert!((2..=8).contains(&w.len()));
    for w in &w {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        assert!(w.warm < w.horizon && w.k >= 1);
    }
    assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    assert!(manifest().len() <= 64 * 1024);
    let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
}
