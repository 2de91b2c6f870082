//! The DIEF-only accounting technique and its registry descriptor.
//!
//! DIEF by itself estimates private-mode *latency* (λ̂), not performance.
//! The natural zero-dataflow baseline built on it scales every measured
//! SMS stall cycle by the latency ratio λ̂ / L — i.e. it assumes stall
//! time shrinks proportionally with memory latency, exactly the paper's
//! §III assumption for σ̂_Other applied to *all* SMS stalls. GDP's
//! contribution is precisely the dataflow information this baseline
//! lacks: which latency cycles were hidden by MLP and commit overlap.
//! Registering it as a first-class technique makes that gap measurable
//! with `--techniques dief` on any figure binary.

use gdp_core::model::{
    private_cpi, sigma_other, CoreSummary, IntervalMeasurement, PrivateEstimate,
    PrivateModeEstimator,
};
use gdp_core::state::{EstimatorState, StateError, StateValue};
use gdp_core::technique::{Readout, TechniqueCaps, TechniqueConfig, TechniqueDesc};
use gdp_sim::probe::ProbeEvent;
use gdp_sim::types::CoreId;

/// The DIEF-only latency-ratio estimator.
///
/// Stateless between boundaries: everything it needs (the interval's
/// stall counters, λ̂ and the measured shared latency L) arrives with the
/// boundary measurement, so it does not consume the probe stream — the
/// one built-in whose `needs_probe_stream` capability is `false`.
#[derive(Debug, Default)]
pub struct DiefOnly;

impl DiefOnly {
    /// Build the estimator (no per-core state needed).
    pub fn new() -> DiefOnly {
        DiefOnly
    }
}

impl PrivateModeEstimator for DiefOnly {
    fn name(&self) -> &'static str {
        "DIEF"
    }

    fn observe(&mut self, _ev: &ProbeEvent) {}

    fn estimate(&mut self, _core: CoreId, m: &IntervalMeasurement) -> PrivateEstimate {
        latency_ratio_estimate(m)
    }

    fn snapshot(&self) -> EstimatorState {
        // Stateless between boundaries: the snapshot is an empty record.
        EstimatorState::new(self.name(), StateValue::List(Vec::new()))
    }

    fn restore(&mut self, state: &EstimatorState) -> Result<(), StateError> {
        state.check(self.name())?.fields(0)?;
        Ok(())
    }
}

/// Scale every measured SMS stall cycle by λ̂ / L (never up).
pub fn latency_ratio_estimate(m: &IntervalMeasurement) -> PrivateEstimate {
    let ratio = if m.shared_latency > 0.0 { (m.lambda / m.shared_latency).min(1.0) } else { 1.0 };
    let sigma_sms = m.stats.stall_sms as f64 * ratio;
    let so = sigma_other(&m.stats, m.lambda, m.shared_latency);
    PrivateEstimate { cpi: private_cpi(&m.stats, sigma_sms, so), sigma_sms, cpl: 0, overlap: 0.0 }
}

fn build_dief(_cfg: &TechniqueConfig) -> Box<dyn PrivateModeEstimator> {
    Box::new(DiefOnly::new())
}

fn read_dief(_s: &CoreSummary, m: &IntervalMeasurement) -> PrivateEstimate {
    latency_ratio_estimate(m)
}

/// DIEF-only: latency-ratio stall scaling with no dataflow information.
/// Not part of the paper's default comparison set.
pub const DIEF_TECHNIQUE: TechniqueDesc = TechniqueDesc {
    id: "dief",
    label: "DIEF",
    summary: "Latency-ratio scaling from DIEF's lambda alone (no dataflow)",
    caps: TechniqueCaps { invasive: false, needs_probe_stream: false },
    mc_priority_epoch: None,
    default_member: false,
    readout: Some(Readout { reads: &[], estimate: read_dief }),
    factory: build_dief,
};

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_sim::stats::CoreStats;

    fn measurement(stall_sms: u64, lambda: f64, shared: f64) -> IntervalMeasurement {
        IntervalMeasurement {
            stats: CoreStats {
                committed_instrs: 100,
                commit_cycles: 100,
                stall_sms,
                cycles: 100 + stall_sms,
                ..Default::default()
            },
            lambda,
            shared_latency: shared,
        }
    }

    #[test]
    fn scales_stalls_by_the_latency_ratio() {
        let mut d = DiefOnly::new();
        let e = d.estimate(CoreId(0), &measurement(200, 100.0, 200.0));
        assert!((e.sigma_sms - 100.0).abs() < 1e-12, "half the latency, half the stall");
        assert_eq!(e.cpl, 0);
        assert!((e.cpi - 2.0).abs() < 1e-12);
    }

    #[test]
    fn never_scales_up_and_passes_through_without_latency() {
        let mut d = DiefOnly::new();
        let up = d.estimate(CoreId(0), &measurement(200, 300.0, 200.0));
        assert!((up.sigma_sms - 200.0).abs() < 1e-12, "ratio clamps at 1");
        let no_l = d.estimate(CoreId(0), &measurement(200, 300.0, 0.0));
        assert!((no_l.sigma_sms - 200.0).abs() < 1e-12, "no measured latency: passthrough");
    }

    #[test]
    fn descriptor_builds_an_estimator_matching_its_label() {
        let cfg = TechniqueConfig {
            sim: gdp_sim::SimConfig::scaled(2),
            sampled_sets: 32,
            prb_entries: 32,
        };
        assert_eq!(DIEF_TECHNIQUE.build(&cfg).name(), DIEF_TECHNIQUE.label);
        const _: () = assert!(!DIEF_TECHNIQUE.caps.needs_probe_stream);
        const _: () = assert!(!DIEF_TECHNIQUE.default_member);
    }
}
