//! Cross-crate integration tests: the full pipeline from synthetic
//! workloads through the simulator, DIEF, the accounting techniques and
//! the partitioning policies.

use gdp::experiments::{
    evaluate_workload, run_policy_study, run_shared, ExperimentConfig, PolicyKind, Technique,
};
use gdp::metrics::mean;
use gdp::workloads::{by_name, paper_workloads, Workload};

fn tiny_xcfg(cores: usize) -> ExperimentConfig {
    let mut x = ExperimentConfig::quick(cores);
    x.sample_instrs = 10_000;
    x.interval_cycles = 12_000;
    x.max_cycles_per_instr = 300;
    x
}

#[test]
fn full_accuracy_pipeline_on_a_2core_workload() {
    let w = &paper_workloads(2, 7)[0];
    let x = tiny_xcfg(2);
    let r = evaluate_workload(&w.clone(), &x, &Technique::ALL);
    assert_eq!(r.benches.len(), 2);
    for b in &r.benches {
        for (i, t) in Technique::ALL.iter().enumerate() {
            assert!(!b.ipc_err[i].is_empty(), "{t} empty for {}", b.bench);
            let rms = b.ipc_err[i].rms_abs();
            assert!(rms.is_finite(), "{t} RMS not finite for {}", b.bench);
        }
        // Component errors recorded for the dataflow techniques.
        assert!(!b.cpl_err.is_empty(), "CPL errors missing for {}", b.bench);
        assert!(!b.lambda_err.is_empty(), "λ errors missing for {}", b.bench);
    }
}

#[test]
fn gdp_o_is_accurate_and_unbiased() {
    // At this tiny scale each interval only holds ~20 critical loads, so
    // per-interval estimates carry quantisation noise (the paper's 5M-
    // cycle intervals have CPLs in the thousands). The correctness signal
    // is therefore low *bias* plus bounded RMS.
    let x = tiny_xcfg(2);
    let mut bias = Vec::new();
    let mut rms = Vec::new();
    for w in &paper_workloads(2, 7)[0..2] {
        let r = evaluate_workload(w, &x, &[Technique::GDP_O]);
        for b in &r.benches {
            let i = r.tech_index(Technique::GDP_O).unwrap();
            bias.push(b.ipc_err[i].mean_rel());
            rms.push(b.ipc_err[i].rms_rel().abs());
        }
    }
    let b = mean(&bias);
    let m = mean(&rms);
    assert!(b.abs() < 0.12, "GDP-O IPC estimates are biased: {b:+.3}");
    assert!(m < 0.45, "GDP-O relative IPC RMS error too high: {m:.3}");
}

#[test]
fn transparent_techniques_do_not_perturb_the_run() {
    // Two shared runs with different transparent observers must execute
    // identically (same cycles, same committed counts).
    let w = &paper_workloads(2, 11)[0];
    let x = tiny_xcfg(2);
    let a = run_shared(w, &x, &[Technique::GDP]);
    let b = run_shared(w, &x, &[Technique::ITCA, Technique::PTCA, Technique::GDP_O]);
    assert_eq!(a.cycles, b.cycles, "observers must be performance-transparent");
    assert_eq!(a.final_stats[0].committed_instrs, b.final_stats[0].committed_instrs);
}

#[test]
fn asm_perturbs_the_run_it_measures() {
    // The invasive baseline must actually change execution.
    let w = &paper_workloads(2, 11)[0];
    let x = tiny_xcfg(2);
    let transparent = run_shared(w, &x, &[Technique::GDP]);
    let invasive = run_shared(w, &x, &[Technique::ASM]);
    assert_ne!(transparent.cycles, invasive.cycles, "ASM's priority rotation must perturb timing");
}

#[test]
fn policy_study_produces_sane_stp_for_all_policies() {
    let w = Workload {
        name: "it-hhll".into(),
        class: None,
        benchmarks: vec![by_name("art").unwrap(), by_name("swim").unwrap()],
    };
    let x = tiny_xcfg(2);
    let out = run_policy_study(&w, &x, &PolicyKind::ALL);
    assert_eq!(out.len(), PolicyKind::ALL.len());
    for o in &out {
        assert!(o.stp > 0.0 && o.stp <= 2.0 + 1e-9, "{}: STP {}", o.policy, o.stp);
        assert!(o.shared_cpi.iter().all(|c| c.is_finite() && *c > 0.0));
    }
}

#[test]
fn mcp_does_not_regress_against_lru_when_partitioning_matters() {
    // An LLC-sensitive benchmark next to a polluting stream: MCP must be
    // at least competitive with LRU (the paper shows large wins at 8
    // cores; at this tiny scale we assert no collapse).
    let w = Workload {
        name: "it-sensitive".into(),
        class: None,
        benchmarks: vec![by_name("galgel").unwrap(), by_name("milc").unwrap()],
    };
    let mut x = tiny_xcfg(2);
    x.sample_instrs = 15_000;
    let out = run_policy_study(&w, &x, &[PolicyKind::Lru, PolicyKind::Mcp(Technique::GDP)]);
    let (lru, mcp) = (out[0].stp, out[1].stp);
    assert!(mcp > lru * 0.9, "MCP {mcp:.3} collapsed against LRU {lru:.3}");
}

#[test]
fn eight_core_pipeline_smoke() {
    // One 8-core H workload end to end (kept small: this is the heaviest
    // integration test).
    let w = &paper_workloads(8, 3)[0];
    let mut x = tiny_xcfg(8);
    x.sample_instrs = 4_000;
    x.interval_cycles = 10_000;
    let r = evaluate_workload(w, &x, &[Technique::GDP, Technique::GDP_O]);
    assert_eq!(r.benches.len(), 8);
    let gdp = r.tech_index(Technique::GDP).unwrap();
    assert!(r.benches.iter().any(|b| !b.ipc_err[gdp].is_empty()));
}
