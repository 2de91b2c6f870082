//! Shared-mode runs with accounting techniques attached.
//!
//! [`run_shared`] is a one-line convenience over the streaming
//! [`EstimationSession`](crate::session::EstimationSession): it builds a
//! session from the table-backed technique set and immediately asks
//! for the full report. Campaign jobs reach shared runs through
//! [`CampaignTraces::shared`](crate::trace::CampaignTraces::shared);
//! hosts that want per-interval estimates online use the session API
//! directly.

use gdp_core::model::PrivateEstimate;
use gdp_sim::stats::CoreStats;
use gdp_workloads::Workload;

use crate::config::ExperimentConfig;
use crate::session::SessionBuilder;
use crate::techniques::Technique;

/// One core's record for one accounting interval.
///
/// `PartialEq` compares `f64` fields by value (the derive): equality
/// suites that need *bit* comparison (the replay/serve contracts)
/// compare `to_bits()` explicitly instead.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreInterval {
    /// Committed-instruction count at the interval start.
    pub instr_start: u64,
    /// Committed-instruction count at the interval end.
    pub instr_end: u64,
    /// Interval delta of the core's counters.
    pub stats: CoreStats,
    /// DIEF private-latency estimate λ̂ for the interval.
    pub lambda: f64,
    /// Measured shared average SMS latency.
    pub shared_latency: f64,
    /// One estimate per attached technique (same order as the run's
    /// technique list).
    pub estimates: Vec<PrivateEstimate>,
}

/// Result of a shared-mode run.
#[derive(Debug, Clone)]
pub struct SharedRun {
    /// Techniques attached, in estimate order.
    pub techniques: Vec<Technique>,
    /// Interval records: `intervals[i][c]` = interval `i`, core `c`.
    pub intervals: Vec<Vec<CoreInterval>>,
    /// Total cycles simulated.
    pub cycles: u64,
    /// Final cumulative per-core statistics.
    pub final_stats: Vec<CoreStats>,
}

impl SharedRun {
    /// Committed-instruction checkpoints (interval boundaries) for `core`,
    /// fed to the private-mode run.
    pub fn checkpoints(&self, core: usize) -> Vec<u64> {
        self.intervals.iter().map(|iv| iv[core].instr_end).collect()
    }
}

/// Run `workload` in shared mode with the given techniques attached.
///
/// If `techniques` contains an invasive technique (ASM), the run becomes
/// *invasive*: the memory-controller priority token rotates every epoch
/// the technique's descriptor declares, exactly as the real mechanism
/// would perturb execution. Evaluate invasive techniques in their own
/// run, as the paper does.
pub fn run_shared(
    workload: &Workload,
    xcfg: &ExperimentConfig,
    techniques: &[Technique],
) -> SharedRun {
    SessionBuilder::new(workload, xcfg).techniques(techniques).build().into_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_workloads::paper_workloads;

    fn small_xcfg() -> ExperimentConfig {
        let mut x = ExperimentConfig::quick(2);
        x.sample_instrs = 8_000;
        x.interval_cycles = 10_000;
        x
    }

    #[test]
    fn shared_run_produces_intervals_and_estimates() {
        let w = &paper_workloads(2, 3)[0];
        let x = small_xcfg();
        let run = run_shared(w, &x, &[Technique::GDP, Technique::GDP_O]);
        assert!(!run.intervals.is_empty(), "at least one interval expected");
        for iv in &run.intervals {
            assert_eq!(iv.len(), 2);
            for core in iv {
                assert_eq!(core.estimates.len(), 2);
                assert!(core.instr_end >= core.instr_start);
            }
        }
    }

    #[test]
    fn checkpoints_are_monotone() {
        let w = &paper_workloads(2, 3)[1];
        let x = small_xcfg();
        let run = run_shared(w, &x, &[Technique::GDP]);
        for c in 0..2 {
            let cks = run.checkpoints(c);
            assert!(cks.windows(2).all(|w| w[0] <= w[1]), "{cks:?}");
        }
    }

    #[test]
    fn asm_run_is_invasive() {
        // With ASM attached, the run must still complete and produce
        // estimates; the MC priority rotation is applied internally.
        let w = &paper_workloads(2, 3)[0];
        let x = small_xcfg();
        let run = run_shared(w, &x, &[Technique::ASM]);
        assert!(!run.intervals.is_empty());
    }

    #[test]
    fn deterministic_across_repeats() {
        let w = &paper_workloads(2, 9)[0];
        let x = small_xcfg();
        let a = run_shared(w, &x, &[Technique::GDP]);
        let b = run_shared(w, &x, &[Technique::GDP]);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.intervals.len(), b.intervals.len());
    }
}
