//! Whole-stack determinism: identical seeds and configurations must give
//! bit-identical results — the property that makes every figure in
//! EXPERIMENTS.md reproducible.

use gdp::experiments::{
    evaluate, evaluate_job_count, evaluate_workload, CampaignTraces, EvalGroup, ExperimentConfig,
    Technique,
};
use gdp::runner::{Pool, Progress};
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

/// Warm-cache replay with `--replay-jobs 1` and `--replay-jobs 4` must
/// produce bit-identical evaluations: the parallel fan-out restores the
/// summarized estimator-state checkpoints, and restoring a boundary
/// snapshot is bit-identical to having replayed everything before it.
#[test]
fn parallel_replay_fanout_is_bit_stable() {
    let dir = std::env::temp_dir().join(format!("gdp-replay-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut x = ExperimentConfig::tiny(2);
    x.sample_instrs = 6_000;
    x.interval_cycles = 10_000;
    let groups = [EvalGroup {
        label: "2c".to_string(),
        xcfg: x,
        workloads: paper_workloads(2, 5)[..1].to_vec(),
    }];
    let set = [Technique::GDP, Technique::GDP_O, Technique::PTCA];
    let run = |traces: &CampaignTraces| {
        let progress = Progress::silent(evaluate_job_count(&groups, &set));
        evaluate(&groups, &set, &Pool::new(2), &progress, traces).remove(0).remove(0)
    };

    let _ = run(&CampaignTraces::new(&dir, true, false));

    let serial = CampaignTraces::new(&dir, false, true).with_replay_jobs(1);
    let fanned = CampaignTraces::new(&dir, false, true).with_replay_jobs(4);
    let r1 = run(&serial);
    let r4 = run(&fanned);
    assert_eq!(fanned.stats().misses, 0, "warm cache must not miss");

    assert_eq!(r1.techniques, r4.techniques);
    for (a, b) in r1.benches.iter().zip(&r4.benches) {
        for t in 0..r1.techniques.len() {
            assert_eq!(a.ipc_err[t].rms_abs().to_bits(), b.ipc_err[t].rms_abs().to_bits());
            assert_eq!(a.stall_err[t].rms_abs().to_bits(), b.stall_err[t].rms_abs().to_bits());
        }
        assert_eq!(a.cpl_err.rms_rel().to_bits(), b.cpl_err.rms_rel().to_bits());
        assert_eq!(a.overlap_err.rms_rel().to_bits(), b.overlap_err.rms_rel().to_bits());
        assert_eq!(a.lambda_err.rms_rel().to_bits(), b.lambda_err.rms_rel().to_bits());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
