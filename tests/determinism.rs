//! Whole-stack determinism: identical seeds and configurations must give
//! bit-identical results — the property that makes every figure in
//! EXPERIMENTS.md reproducible.

use gdp::experiments::{evaluate_workload, ExperimentConfig, Technique};
use gdp::workloads::{generate_mixed_workloads, paper_workloads, suite, MixPattern};

#[test]
fn benchmark_programs_are_stable() {
    for b in suite().iter().take(8) {
        let p1 = b.program(0x1000);
        let p2 = b.program(0x1000);
        assert_eq!(p1, p2, "{} program not deterministic", b.name);
    }
}

#[test]
fn workload_generation_is_stable() {
    let a: Vec<Vec<&str>> = paper_workloads(4, 99).iter().map(|w| w.names()).collect();
    let b: Vec<Vec<&str>> = paper_workloads(4, 99).iter().map(|w| w.names()).collect();
    assert_eq!(a, b);
    let m1: Vec<Vec<&str>> =
        generate_mixed_workloads(MixPattern::Hhml, 5, 1).iter().map(|w| w.names()).collect();
    let m2: Vec<Vec<&str>> =
        generate_mixed_workloads(MixPattern::Hhml, 5, 1).iter().map(|w| w.names()).collect();
    assert_eq!(m1, m2);
}

#[test]
fn accuracy_evaluation_is_bit_stable() {
    let w = &paper_workloads(2, 5)[0];
    let mut x = ExperimentConfig::quick(2);
    x.sample_instrs = 6_000;
    x.interval_cycles = 10_000;
    let r1 = evaluate_workload(w, &x, &[Technique::GDP, Technique::GDP_O]);
    let r2 = evaluate_workload(w, &x, &[Technique::GDP, Technique::GDP_O]);
    for (a, b) in r1.benches.iter().zip(&r2.benches) {
        let gdp = r1.tech_index(Technique::GDP).unwrap();
        assert_eq!(a.ipc_err[gdp].rms_abs().to_bits(), b.ipc_err[gdp].rms_abs().to_bits());
        assert_eq!(a.cpl_err.rms_rel().to_bits(), b.cpl_err.rms_rel().to_bits());
    }
}
