//! PTCA — Per-Thread Cycle Accounting (Du Bois et al., TACO 2013).
//!
//! PTCA assumes the private-mode stall of each load equals the observed
//! shared-mode stall minus the interference cycles the load suffered while
//! the ROB was full:
//!
//! ```text
//! σ̂_SMS = Σ_stalls max(0, stall_length − I(blocking load))
//! ```
//!
//! Loads are processed *independently* — the source of PTCA's MLP error
//! (paper §II): when one interference event delays several overlapped
//! loads, each load's stall is discounted separately, so shared stalls
//! that would also occur privately (memory-controller serialisation) are
//! wrongly removed. Since the evaluated system has an out-of-order memory
//! controller, PTCA consumes DIEF's per-request interference estimates
//! (paper §VII-A).

use gdp_core::model::{
    private_cpi, sigma_other, IntervalMeasurement, PrivateEstimate, PrivateModeEstimator,
};
use gdp_core::state::{EstimatorState, StateError, StateValue};
use gdp_dief::Dief;
use gdp_sim::probe::{ProbeEvent, StallCause};
use gdp_sim::types::CoreId;
use gdp_sim::SimConfig;

/// The standalone PTCA estimator (one instance covers all cores), over
/// its own DIEF.
#[derive(Debug)]
pub struct Ptca {
    dief: Dief,
    /// Per-core σ̂_SMS accumulated over the interval.
    sigma: Vec<f64>,
}

impl Ptca {
    /// Build PTCA for a configuration, with its own sampled ATDs
    /// (the paper notes ASM, ITCA and PTCA all use sampled ATDs).
    pub fn new(cfg: &SimConfig, sampled_sets: usize) -> Self {
        Ptca { dief: Dief::new(cfg, sampled_sets), sigma: vec![0.0; cfg.cores] }
    }
}

/// One load stall's private-stall estimate, `max(0, stall − I)`. `I` is
/// DIEF's view of the blocking request (which includes ATD-detected
/// interference misses), falling back to the raw counters carried on the
/// event. Returns the stalled core and its σ̂ contribution.
pub fn stall_sigma(dief: &Dief, ev: &ProbeEvent) -> Option<(CoreId, f64)> {
    let ProbeEvent::Stall {
        core,
        start,
        end,
        cause: StallCause::Load,
        blocking_sms: Some(true),
        blocking_req,
        blocking_interference,
        ..
    } = ev
    else {
        return None;
    };
    let stall = (end - start) as f64;
    let interference = blocking_req
        .and_then(|r| dief.interference_of(*core, r))
        .or_else(|| blocking_interference.map(|i| i.total()))
        .unwrap_or(0) as f64;
    Some((*core, (stall - interference).max(0.0)))
}

/// PTCA's estimate from the interval's accumulated σ̂_SMS.
pub fn private_estimate(sigma_sms: f64, m: &IntervalMeasurement) -> PrivateEstimate {
    let so = sigma_other(&m.stats, m.lambda, m.shared_latency);
    PrivateEstimate { cpi: private_cpi(&m.stats, sigma_sms, so), sigma_sms, cpl: 0, overlap: 0.0 }
}

impl PrivateModeEstimator for Ptca {
    fn name(&self) -> &'static str {
        "PTCA"
    }

    fn observe(&mut self, ev: &ProbeEvent) {
        self.dief.observe(ev);
        if let Some((core, sigma)) = stall_sigma(&self.dief, ev) {
            self.sigma[core.idx()] += sigma;
        }
    }

    fn estimate(&mut self, core: CoreId, m: &IntervalMeasurement) -> PrivateEstimate {
        let sigma_sms = std::mem::take(&mut self.sigma[core.idx()]);
        let _ = self.dief.interval_estimate(core);
        private_estimate(sigma_sms, m)
    }

    fn snapshot(&self) -> EstimatorState {
        EstimatorState::new(
            self.name(),
            StateValue::List(vec![
                self.dief.snapshot_value(),
                // σ̂ accumulators travel as exact f64 bits.
                StateValue::List(self.sigma.iter().map(|&s| StateValue::f64(s)).collect()),
            ]),
        )
    }

    fn restore(&mut self, state: &EstimatorState) -> Result<(), StateError> {
        let f = state.check(self.name())?.fields(2)?;
        let sigma: Vec<f64> =
            f[1].as_list()?.iter().map(|s| s.as_f64()).collect::<Result<_, _>>()?;
        if sigma.len() != self.sigma.len() {
            return Err(StateError::ConfigMismatch("core count"));
        }
        self.dief.restore_value(&f[0])?;
        self.sigma = sigma;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_sim::mem::Interference;
    use gdp_sim::stats::CoreStats;
    use gdp_sim::types::ReqId;

    fn stall(core: CoreId, start: u64, end: u64, intf: u64) -> ProbeEvent {
        ProbeEvent::Stall {
            core,
            start,
            end,
            cause: StallCause::Load,
            blocking_block: Some(0x40),
            blocking_req: None,
            blocking_sms: Some(true),
            blocking_interference: Some(Interference { ring: intf, mc_queue: 0, mc_row: 0 }),
        }
    }

    fn measurement(stall_sms: u64) -> IntervalMeasurement {
        IntervalMeasurement {
            stats: CoreStats {
                committed_instrs: 1000,
                commit_cycles: 1000,
                stall_sms,
                cycles: 1000 + stall_sms,
                ..Default::default()
            },
            lambda: 100.0,
            shared_latency: 150.0,
        }
    }

    #[test]
    fn subtracts_interference_per_stall() {
        let mut p = Ptca::new(&SimConfig::scaled(2), 32);
        p.observe(&stall(CoreId(0), 0, 200, 80)); // contributes 120
        p.observe(&stall(CoreId(0), 300, 400, 150)); // clamped to 0
        let est = p.estimate(CoreId(0), &measurement(300));
        assert!((est.sigma_sms - 120.0).abs() < 1e-9);
    }

    #[test]
    fn over_discounts_parallel_stalls() {
        // The paper's libquantum scenario: five parallel loads all heavily
        // interfered with; their serialisation stalls persist privately,
        // but PTCA discounts every one independently → σ̂ = 0.
        let mut p = Ptca::new(&SimConfig::scaled(2), 32);
        for i in 0..5u64 {
            p.observe(&stall(CoreId(0), i * 50, i * 50 + 40, 500));
        }
        let est = p.estimate(CoreId(0), &measurement(200));
        assert_eq!(est.sigma_sms, 0.0, "PTCA wipes out all parallel stalls");
        // The CPI estimate is therefore optimistic.
        assert!(est.cpi < 1.3);
    }

    #[test]
    fn interval_reset_clears_accumulator() {
        let mut p = Ptca::new(&SimConfig::scaled(2), 32);
        p.observe(&stall(CoreId(0), 0, 100, 0));
        let _ = p.estimate(CoreId(0), &measurement(100));
        let est = p.estimate(CoreId(0), &measurement(100));
        assert_eq!(est.sigma_sms, 0.0);
    }

    #[test]
    fn cores_are_independent() {
        let mut p = Ptca::new(&SimConfig::scaled(2), 32);
        p.observe(&stall(CoreId(1), 0, 100, 0));
        let est0 = p.estimate(CoreId(0), &measurement(100));
        assert_eq!(est0.sigma_sms, 0.0);
        let est1 = p.estimate(CoreId(1), &measurement(100));
        assert!((est1.sigma_sms - 100.0).abs() < 1e-9);
    }

    #[test]
    fn prefers_dief_verdict_when_request_known() {
        let mut p = Ptca::new(&SimConfig::scaled(2), 32);
        // Complete a request through DIEF with 60 cycles of interference.
        p.observe(&ProbeEvent::LoadL1MissDone {
            core: CoreId(0),
            req: ReqId(9),
            block: 0x40,
            cycle: 100,
            sms: true,
            latency: 200,
            interference: Interference { ring: 60, mc_queue: 0, mc_row: 0 },
            llc_hit: Some(true),
            post_llc: 0,
        });
        p.observe(&ProbeEvent::Stall {
            core: CoreId(0),
            start: 0,
            end: 100,
            cause: StallCause::Load,
            blocking_block: Some(0x40),
            blocking_req: Some(ReqId(9)),
            blocking_sms: Some(true),
            blocking_interference: Some(Interference::default()),
        });
        let est = p.estimate(CoreId(0), &measurement(100));
        assert!((est.sigma_sms - 40.0).abs() < 1e-9, "100 − 60 from DIEF");
    }
}
