//! Experiment-level configuration.

use gdp_sim::SimConfig;

/// Accuracy intervals skipped at the start of each run: the paper's
/// checkpoints carry warm cache state (20B-instruction fast-forward,
/// §VI); we approximate that by excluding cold-start intervals.
pub(crate) const WARMUP_INTERVALS: usize = 1;

/// Parameters governing an evaluation run (paper values in comments,
/// scaled defaults chosen to match the scaled [`SimConfig`]).
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The CMP model.
    pub sim: SimConfig,
    /// Accounting/repartitioning interval in cycles (paper: 5M; scaled
    /// default 50K).
    pub interval_cycles: u64,
    /// Committed instructions per benchmark per run (paper: 100M; scaled
    /// default 60K — the classification sample length).
    pub sample_instrs: u64,
    /// LLC sets sampled by every ATD (paper: 32).
    pub sampled_sets: usize,
    /// PRB entries per GDP unit (paper: 32).
    pub prb_entries: usize,
    /// Safety cap: maximum cycles per run, expressed per instruction.
    pub max_cycles_per_instr: u64,
}

impl ExperimentConfig {
    /// Scaled defaults for a CMP with `cores` cores.
    pub fn scaled(cores: usize) -> Self {
        ExperimentConfig {
            sim: SimConfig::scaled(cores),
            interval_cycles: 50_000,
            sample_instrs: 60_000,
            sampled_sets: 32,
            prb_entries: 32,
            max_cycles_per_instr: 600,
        }
    }

    /// Reduced-cost variant for quick runs and CI (`--quick`).
    pub fn quick(cores: usize) -> Self {
        ExperimentConfig { sample_instrs: 25_000, interval_cycles: 25_000, ..Self::scaled(cores) }
    }

    /// Smallest meaningful variant (`--tiny`): smoke transcripts, CI and
    /// unit tests. The single source of the hand-tuned 12K/15K sample
    /// and interval lengths that were previously copy-pasted across the
    /// bench harness and the accuracy tests.
    pub fn tiny(cores: usize) -> Self {
        ExperimentConfig {
            sample_instrs: 12_000,
            interval_cycles: 15_000,
            max_cycles_per_instr: 250,
            ..Self::quick(cores)
        }
    }

    /// Cycle budget for a run.
    pub fn cycle_cap(&self) -> u64 {
        self.sample_instrs * self.max_cycles_per_instr
    }

    /// The unified construction parameters handed to every registered
    /// technique's factory.
    pub fn technique_config(&self) -> gdp_core::TechniqueConfig {
        gdp_core::TechniqueConfig {
            sim: self.sim.clone(),
            sampled_sets: self.sampled_sets,
            prb_entries: self.prb_entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        let c = ExperimentConfig::scaled(4);
        assert_eq!(c.sim.cores, 4);
        assert_eq!(c.sampled_sets, 32);
        assert_eq!(c.prb_entries, 32);
        let q = ExperimentConfig::quick(4);
        assert!(q.sample_instrs < c.sample_instrs);
        assert!(q.cycle_cap() < c.cycle_cap());
        let t = ExperimentConfig::tiny(4);
        assert_eq!(t.sim.cores, 4);
        assert!(t.sample_instrs < q.sample_instrs);
        assert!(t.cycle_cap() < q.cycle_cap());
    }
}
