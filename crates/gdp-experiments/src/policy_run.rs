//! The LLC-partitioning case study (paper §V, §VII-C, Fig. 6).
//!
//! Five managers are compared under way-partitioning: plain LRU (no
//! partitioning), UCP (miss-driven lookahead), ASM-driven partitioning
//! (slowdown equalisation; invasive), and MCP / MCP-O (estimated-STP
//! lookahead fed by GDP / GDP-O). Reported STP uses *actual* private-mode
//! CPIs from dedicated private runs: `STP = Σ π_i / P_i`.

use gdp_partition::{
    contiguous_masks, AllocContext, AsmCache, CoreSignals, Mcp, PartitionPolicy, Ucp,
};
use gdp_sim::stats::CoreStats;
use gdp_sim::types::CoreId;
use gdp_sim::System;
use gdp_trace::Boundary;
use gdp_workloads::Workload;

use crate::config::ExperimentConfig;
use crate::interval::IntervalSchedule;
use crate::private::run_private;
use crate::session::Pipeline;
use crate::techniques::Technique;

/// The LLC managers of Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Unpartitioned shared LRU.
    Lru,
    /// Utility-based Cache Partitioning.
    Ucp,
    /// ASM-driven partitioning (invasive accounting).
    AsmPart,
    /// Model-based Cache Partitioning fed by a registered transparent
    /// technique's π̂ estimates: `Mcp(Technique::GDP)` is the paper's
    /// MCP, `Mcp(Technique::GDP_O)` its MCP-O, and any other registered
    /// transparent technique becomes a new policy variant for free.
    Mcp(Technique),
}

impl PolicyKind {
    /// All policies in the paper's presentation order.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Lru,
        PolicyKind::Ucp,
        PolicyKind::AsmPart,
        PolicyKind::Mcp(Technique::GDP),
        PolicyKind::Mcp(Technique::GDP_O),
    ];

    /// One MCP variant per transparent technique of `set` (invasive
    /// techniques cannot feed MCP: their estimator would perturb the run
    /// without the run loop applying its invasive schedule).
    pub fn mcp_feeders(set: &[Technique]) -> Vec<PolicyKind> {
        crate::techniques::transparent_subset(set).into_iter().map(PolicyKind::Mcp).collect()
    }

    /// Display name (the paper's spellings for the GDP-fed variants).
    pub fn name(&self) -> String {
        match self {
            PolicyKind::Lru => "LRU".to_string(),
            PolicyKind::Ucp => "UCP".to_string(),
            PolicyKind::AsmPart => "ASM".to_string(),
            PolicyKind::Mcp(t) if *t == Technique::GDP => "MCP".to_string(),
            PolicyKind::Mcp(t) if *t == Technique::GDP_O => "MCP-O".to_string(),
            PolicyKind::Mcp(t) => format!("MCP[{}]", t.name()),
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Result of running one policy on one workload.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// The policy.
    pub policy: PolicyKind,
    /// Per-core shared-mode CPI under the policy.
    pub shared_cpi: Vec<f64>,
    /// System throughput `Σ π_i / P_i` with actual private CPIs.
    pub stp: f64,
    /// Cycles the run took.
    pub cycles: u64,
}

/// Run the partitioning case study: each policy on `workload`, scored by
/// STP against shared private-mode runs (computed once).
pub fn run_policy_study(
    workload: &Workload,
    xcfg: &ExperimentConfig,
    policies: &[PolicyKind],
) -> Vec<PolicyOutcome> {
    // Actual private CPIs (π_i), one run per benchmark.
    let private_cpi: Vec<f64> = workload
        .benchmarks
        .iter()
        .enumerate()
        .map(|(c, b)| {
            let run = run_private(b, (c as u64) << 36, xcfg, &[xcfg.sample_instrs], None);
            run.total.cpi()
        })
        .collect();

    policies
        .iter()
        .map(|p| {
            let (shared_cpi, cycles) = run_with_policy(workload, xcfg, *p);
            let stp = gdp_metrics::stp(&private_cpi, &shared_cpi);
            PolicyOutcome { policy: *p, shared_cpi, stp, cycles }
        })
        .collect()
}

/// Execute one policy run; returns per-core shared CPI and cycles.
fn run_with_policy(
    workload: &Workload,
    xcfg: &ExperimentConfig,
    policy: PolicyKind,
) -> (Vec<f64>, u64) {
    let n = xcfg.sim.cores;
    let mut sys = System::new(xcfg.sim.clone(), workload.streams());
    // The technique feeding π̂ into the policy, if any, on the same live
    // interval pipeline a session runs (its DIEF also supplies λ̂ and the
    // miss curves). MCP's feeder resolves through the registry, so any
    // registered transparent technique can drive the lookahead.
    let feeder = match policy {
        PolicyKind::Mcp(t) => vec![t],
        PolicyKind::AsmPart => vec![Technique::ASM],
        _ => Vec::new(),
    };
    let mut pipeline = Pipeline::new(&feeder, xcfg, true);
    let mut alloc_policy: Option<Box<dyn PartitionPolicy>> = match policy {
        PolicyKind::Lru => None,
        PolicyKind::Ucp => Some(Box::new(Ucp::new())),
        PolicyKind::AsmPart => Some(Box::new(AsmCache::new())),
        PolicyKind::Mcp(t) if t == Technique::GDP_O => Some(Box::new(Mcp::new_o())),
        PolicyKind::Mcp(_) => Some(Box::new(Mcp::new())),
    };
    // ASM's accounting is invasive: rotate the MC priority token.
    let asm_epoch = feeder.iter().find_map(|t| t.mc_priority_epoch());

    let cap = xcfg.cycle_cap();
    let mut last: Vec<CoreStats> = (0..n).map(|c| *sys.core_stats(c)).collect();
    let mut schedule = IntervalSchedule::new(xcfg.interval_cycles);
    // Cycle at which each core reached the instruction sample: shared CPI
    // is measured over the same instruction window as the private
    // reference (both from cold start), keeping STP terms ≤ 1.
    let mut cycle_at_target: Vec<Option<u64>> = vec![None; n];

    while sys.now() < cap && (0..n).any(|c| sys.committed(c) < xcfg.sample_instrs) {
        if let Some(epoch) = asm_epoch {
            if sys.now() % epoch == 0 {
                let pc = CoreId(((sys.now() / epoch) % n as u64) as u8);
                sys.mem().mc().set_priority_core(Some(pc));
            }
        }
        let mut limit = cap.min(schedule.next_boundary());
        if let Some(epoch) = asm_epoch {
            limit = limit.min((sys.now() / epoch + 1) * epoch);
        }
        sys.advance(limit);
        // Commits only happen on real (ticked) cycles, so a core reaching
        // its sample target is observed at exactly the same cycle a
        // step-by-1 loop would record.
        for c in 0..n {
            if cycle_at_target[c].is_none() && sys.committed(c) >= xcfg.sample_instrs {
                cycle_at_target[c] = Some(sys.now());
            }
        }

        while schedule.pop_crossed(sys.now()).is_some() {
            sys.finalize();
            let events = sys.drain_probes();
            pipeline.observe(&events);
            let dief = pipeline.plane.dief().expect("a live pipeline holds a DIEF");
            // Read the miss curves before the boundary harvest resets
            // DIEF's per-interval counters.
            let curves: Vec<Vec<u64>> = if alloc_policy.is_some() {
                (0..n).map(|c| dief.miss_curve(CoreId(c as u8))).collect()
            } else {
                Vec::new()
            };
            let boundaries: Vec<Boundary> = (0..n)
                .map(|c| {
                    let cum = *sys.core_stats(c);
                    Boundary::between(&std::mem::replace(&mut last[c], cum), &cum)
                })
                .collect();
            let row = pipeline.close(0, &boundaries); // unmetered: no index needed
            if let Some(p) = alloc_policy.as_deref_mut() {
                // Global post-LLC latency (shared off-chip bandwidth, §V).
                let post_sum: u64 = row.iter().map(|r| r.stats.sms_post_llc_latency_sum).sum();
                let miss_sum: u64 = row.iter().map(|r| r.stats.llc_misses).sum();
                let post_global =
                    if miss_sum > 0 { post_sum as f64 / miss_sum as f64 } else { 0.0 };
                let signals = row
                    .iter()
                    .zip(curves)
                    .map(|(r, miss_curve)| {
                        let d = &r.stats;
                        CoreSignals {
                            miss_curve,
                            instrs: d.committed_instrs,
                            commit_cycles: d.commit_cycles,
                            stall_non_sms: d.stall_ind + d.stall_pms + d.stall_other,
                            stall_sms: d.stall_sms,
                            sms_loads: d.sms_loads,
                            llc_misses: d.llc_misses,
                            avg_sms_latency: d.avg_sms_latency(),
                            avg_pre_llc_latency: d.avg_pre_llc_latency(),
                            avg_post_llc_latency: post_global,
                            private_cpi: r.estimates.first().map_or(d.cpi(), |e| e.cpi),
                            shared_cpi: d.cpi(),
                        }
                    })
                    .collect();
                let ctx = AllocContext { ways: xcfg.sim.llc.ways, cores: signals };
                let alloc = p.allocate(&ctx);
                sys.set_llc_partition(Some(contiguous_masks(&alloc)));
            }
        }
    }

    let cpis = (0..n)
        .map(|c| match cycle_at_target[c] {
            Some(cyc) => cyc as f64 / xcfg.sample_instrs as f64,
            None => sys.core_stats(c).cpi(), // cycle cap hit: best effort
        })
        .collect();
    (cpis, sys.now())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_workloads::paper_workloads;

    fn xcfg() -> ExperimentConfig {
        let mut x = ExperimentConfig::quick(2);
        x.sample_instrs = 10_000;
        x.interval_cycles = 10_000;
        x
    }

    #[test]
    fn all_policies_complete_and_score() {
        let w = &paper_workloads(2, 5)[0];
        let out = run_policy_study(w, &xcfg(), &PolicyKind::ALL);
        assert_eq!(out.len(), 5);
        for o in &out {
            assert!(o.stp > 0.0, "{}: stp {}", o.policy, o.stp);
            assert!(o.stp <= 2.0 + 1e-9, "{}: stp {} exceeds core count", o.policy, o.stp);
            assert_eq!(o.shared_cpi.len(), 2);
        }
    }

    #[test]
    fn partitioning_beats_lru_on_sensitive_plus_streaming() {
        // A hand-built workload where partitioning obviously helps: an
        // LLC-sensitive benchmark next to a cache-polluting stream.
        use gdp_workloads::by_name;
        let w = Workload {
            name: "case".into(),
            class: None,
            benchmarks: vec![by_name("art").unwrap(), by_name("swim").unwrap()],
        };
        let mut x = xcfg();
        x.sample_instrs = 15_000;
        let out = run_policy_study(
            &w,
            &x,
            &[PolicyKind::Lru, PolicyKind::Ucp, PolicyKind::Mcp(Technique::GDP)],
        );
        let lru = out[0].stp;
        let ucp = out[1].stp;
        let mcp = out[2].stp;
        assert!(
            ucp > lru * 0.95 && mcp > lru * 0.95,
            "partitioning should not collapse: LRU {lru:.3} UCP {ucp:.3} MCP {mcp:.3}"
        );
    }
}
