//! The GDP and GDP-O estimators (paper §IV-A).
//!
//! One [`GdpUnit`] per core maintains the dataflow graph; at each interval
//! boundary the estimator multiplies the harvested CPL with DIEF's
//! private-latency estimate:
//!
//! * **GDP**:   σ̂_SMS = CPL · λ̂
//! * **GDP-O**: σ̂_SMS = CPL · max(λ̂ − O, 0), with O the average number of
//!   cycles the CPU commits while an SMS-load is pending.

use crate::model::{
    private_cpi, sigma_other, CoreSummary, IntervalMeasurement, PrivateEstimate,
    PrivateModeEstimator,
};
use crate::state::{EstimatorState, StateError, StateValue};
use crate::unit::GdpUnit;
use gdp_sim::probe::ProbeEvent;
use gdp_sim::types::CoreId;

/// Which estimate the technique produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GdpVariant {
    /// Plain GDP: CPL × λ̂.
    Gdp,
    /// GDP with overlap accounting: CPL × (λ̂ − O).
    GdpO,
}

/// Multi-core GDP/GDP-O estimator.
#[derive(Debug)]
pub struct GdpEstimator {
    variant: GdpVariant,
    units: Vec<GdpUnit>,
}

impl GdpEstimator {
    /// Build an estimator for `cores` cores with `prb_entries` PRB slots
    /// per core (the paper uses 32).
    pub fn new(variant: GdpVariant, cores: usize, prb_entries: usize) -> Self {
        GdpEstimator { variant, units: (0..cores).map(|_| GdpUnit::new(prb_entries)).collect() }
    }

    /// The variant this estimator implements.
    pub fn variant(&self) -> GdpVariant {
        self.variant
    }

    /// Read access to a core's unit (diagnostics).
    pub fn unit(&self, core: CoreId) -> &GdpUnit {
        &self.units[core.idx()]
    }
}

impl PrivateModeEstimator for GdpEstimator {
    fn name(&self) -> &'static str {
        match self.variant {
            GdpVariant::Gdp => "GDP",
            GdpVariant::GdpO => "GDP-O",
        }
    }

    fn observe(&mut self, ev: &ProbeEvent) {
        if let Some(core) = ev.core() {
            if let Some(unit) = self.units.get_mut(core.idx()) {
                unit.observe(ev);
            }
        }
    }

    /// Monomorphized in-order sweep: one virtual call per batch, with
    /// [`GdpEstimator::observe`] and the per-core PRB/PCB updates inlined
    /// into the loop. A partition-by-core pre-pass was measured strictly
    /// slower here — a handful of per-core units already stays cache-hot
    /// across the batch, so building index runs and re-gathering the
    /// (large) events only adds per-event work.
    fn observe_batch(&mut self, events: &[ProbeEvent]) {
        for ev in events {
            self.observe(ev);
        }
    }

    /// Harvests CPL, then the average overlap (drained for plain GDP
    /// too, so memory stays bounded), the order the observation plane
    /// uses.
    fn estimate(&mut self, core: CoreId, m: &IntervalMeasurement) -> PrivateEstimate {
        let unit = &mut self.units[core.idx()];
        let cpl = unit.take_cpl();
        let s = CoreSummary { cpl, overlap: unit.take_average_overlap(), ..Default::default() };
        gdp_estimate(self.variant, &s, m)
    }

    fn snapshot(&self) -> EstimatorState {
        EstimatorState::new(
            self.name(),
            StateValue::List(self.units.iter().map(GdpUnit::snapshot_value).collect()),
        )
    }

    fn restore(&mut self, state: &EstimatorState) -> Result<(), StateError> {
        let units = state.check(self.name())?.as_list()?;
        if units.len() != self.units.len() {
            return Err(StateError::ConfigMismatch("core count"));
        }
        for (unit, v) in self.units.iter_mut().zip(units) {
            unit.restore_value(v)?;
        }
        Ok(())
    }
}

/// Fold an interval's CPL (and, for GDP-O, its overlap) and its boundary
/// measurement into the variant's estimate — the one place the GDP/GDP-O
/// estimate math lives, shared by [`GdpEstimator`] and the registry
/// readouts. Plain GDP ignores and reports no overlap.
pub fn gdp_estimate(
    variant: GdpVariant,
    s: &CoreSummary,
    m: &IntervalMeasurement,
) -> PrivateEstimate {
    let (overlap, effective_lambda) = match variant {
        GdpVariant::Gdp => (0.0, m.lambda),
        GdpVariant::GdpO => (s.overlap, (m.lambda - s.overlap).max(0.0)),
    };
    let sigma_sms = s.cpl as f64 * effective_lambda;
    let so = sigma_other(&m.stats, m.lambda, m.shared_latency);
    PrivateEstimate { cpi: private_cpi(&m.stats, sigma_sms, so), sigma_sms, cpl: s.cpl, overlap }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_sim::mem::Interference;
    use gdp_sim::probe::StallCause;
    use gdp_sim::stats::CoreStats;
    use gdp_sim::types::{Addr, Cycle, ReqId};

    fn miss(addr: Addr, cycle: Cycle) -> ProbeEvent {
        ProbeEvent::LoadL1Miss { core: CoreId(0), req: ReqId(addr), block: addr, cycle }
    }

    fn done(addr: Addr, cycle: Cycle) -> ProbeEvent {
        ProbeEvent::LoadL1MissDone {
            core: CoreId(0),
            req: ReqId(addr),
            block: addr,
            cycle,
            sms: true,
            latency: 100,
            interference: Interference::default(),
            llc_hit: Some(true),
            post_llc: 0,
        }
    }

    fn stall(start: Cycle, end: Cycle, blocking: Addr) -> ProbeEvent {
        ProbeEvent::Stall {
            core: CoreId(0),
            start,
            end,
            cause: StallCause::Load,
            blocking_block: Some(blocking),
            blocking_req: None,
            blocking_sms: Some(true),
            blocking_interference: None,
        }
    }

    /// Replay the Figure 1 example through the full estimator: GDP must
    /// produce CPI 2.47, GDP-O CPI ≈ 2.07 (paper: 2.5 and 2.1).
    #[test]
    fn figure1_end_to_end_estimates() {
        let events = figure1_events();
        let stats = CoreStats {
            committed_instrs: 190,
            commit_cycles: 190,
            cycles: 495,
            stall_sms: 305,
            sms_loads: 5,
            ..Default::default()
        };
        // Perfect latency estimator: λ = 140 (paper's example value).
        let m = IntervalMeasurement { stats, lambda: 140.0, shared_latency: 180.0 };

        let mut gdp = GdpEstimator::new(GdpVariant::Gdp, 1, 32);
        for e in &events {
            gdp.observe(e);
        }
        let est = gdp.estimate(CoreId(0), &m);
        assert_eq!(est.cpl, 2);
        assert!((est.sigma_sms - 280.0).abs() < 1e-9);
        assert!((est.cpi - 2.47).abs() < 0.01, "GDP CPI {}", est.cpi);

        let mut gdpo = GdpEstimator::new(GdpVariant::GdpO, 1, 32);
        for e in &events {
            gdpo.observe(e);
        }
        let est = gdpo.estimate(CoreId(0), &m);
        assert_eq!(est.cpl, 2);
        assert!(est.overlap > 0.0, "commit overlapped with pending loads");
        assert!(est.cpi < 2.47, "GDP-O must correct GDP's overestimate");
    }

    /// The Figure 1a event trace (timestamps match the paper's figure).
    fn figure1_events() -> Vec<ProbeEvent> {
        vec![
            // C1 commits 0..50 while L1..L3 issue and are pending.
            miss(0xa1, 10),
            miss(0xa2, 12),
            miss(0xa3, 14),
            done(0xa1, 150),
            stall(50, 155, 0xa1),
            done(0xa2, 182),
            stall(175, 185, 0xa2),
            miss(0xa4, 190),
            miss(0xa5, 191),
            done(0xa3, 192),
            done(0xa4, 340),
            stall(200, 350, 0xa4),
            done(0xa5, 356),
            stall(352, 358, 0xa5),
        ]
    }

    #[test]
    fn estimator_keeps_cores_separate() {
        let mut gdp = GdpEstimator::new(GdpVariant::Gdp, 2, 32);
        // Core 1 events must not disturb core 0.
        let ev = ProbeEvent::LoadL1Miss { core: CoreId(1), req: ReqId(1), block: 0x9, cycle: 0 };
        gdp.observe(&ev);
        assert_eq!(gdp.unit(CoreId(0)).occupancy(), 0);
        assert_eq!(gdp.unit(CoreId(1)).occupancy(), 1);
    }

    #[test]
    fn gdp_o_clamps_negative_effective_latency() {
        let mut gdpo = GdpEstimator::new(GdpVariant::GdpO, 1, 32);
        // One load fully overlapped: overlap 100 > λ 50.
        gdpo.observe(&miss(0x1, 0));
        gdpo.observe(&done(0x1, 100));
        gdpo.observe(&stall(100, 110, 0x1));
        let stats = CoreStats {
            committed_instrs: 100,
            commit_cycles: 100,
            cycles: 110,
            ..Default::default()
        };
        let m = IntervalMeasurement { stats, lambda: 50.0, shared_latency: 100.0 };
        let est = gdpo.estimate(CoreId(0), &m);
        assert!(est.sigma_sms >= 0.0, "σ̂ must not go negative");
    }
}
