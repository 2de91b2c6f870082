//! ASM — the Application Slowdown Model (Subramanian et al., MICRO 2015).
//!
//! ASM is *invasive*: it rotates a high-priority token between cores every
//! epoch ("a few thousand clock cycles", §II). While a core holds the
//! token the memory controller services its requests first
//! ([`gdp_sim::mem::MemoryController::set_priority_core`]), approximating
//! interference-free conditions. ASM then extrapolates:
//!
//! ```text
//! slowdown = CAR_alone / CAR_shared,   π̂ = CPI_shared / slowdown
//! ```
//!
//! where `CAR` is the LLC access rate, `CAR_alone` measured during the
//! core's own high-priority epochs with (a) an ATD correction removing the
//! service time of interference-induced LLC misses from the epoch time,
//! and (b) interpolation by the memory-bound fraction of the interval so
//! compute phases do not use the CAR ratio.
//!
//! Two paper-documented pathologies reproduce naturally:
//! * **backlogs** (Fig. 1c): a core exiting a low-priority epoch drags a
//!   queue backlog into its high-priority epoch, corrupting `CAR_alone`;
//! * **exploding estimates** (§VII-A, applu): when interference-miss
//!   service time consumes nearly the whole epoch, the corrected epoch
//!   time approaches zero and `CAR_alone` diverges — the source of ASM's
//!   astronomic 8-core L-workload errors.
//!
//! ASM's only DIEF read is the interference verdict of the load that just
//! completed. In a session it is therefore a readout of the observation
//! plane's one DIEF, like ITCA and PTCA: its counters accumulate in the
//! plane's post-batch pass through [`count_event`], and the standalone
//! [`Asm`] shares that function and [`private_estimate`].

use gdp_core::model::{
    sigma_other, sigma_sms_from_cpi, IntervalMeasurement, PrivateEstimate, PrivateModeEstimator,
};
use gdp_core::state::{EstimatorState, StateError, StateValue};
use gdp_dief::Dief;
use gdp_sim::probe::ProbeEvent;
use gdp_sim::types::{CoreId, Cycle};
use gdp_sim::SimConfig;

/// Default epoch length in cycles (paper: "a few thousand clock cycles").
pub const DEFAULT_EPOCH_CYCLES: u64 = 2_000;

/// One core's ASM counters over an interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochCounts {
    /// LLC accesses over the whole interval.
    pub llc: u64,
    /// LLC accesses during this core's own priority epochs.
    pub llc_own: u64,
    /// DRAM residency of the interference misses completing in those
    /// epochs (subtracted from the core's epoch time).
    pub intf_own: u64,
}

/// Which of `cores` cores holds the memory-controller priority token at
/// `cycle`, the token moving on every `epoch_len` cycles. The live run
/// loop applies this to the controller — that is the invasive part of
/// ASM — and the counters attribute accesses by it.
pub fn priority_core_at(cycle: Cycle, epoch_len: u64, cores: usize) -> CoreId {
    CoreId(((cycle / epoch_len) % cores as u64) as u8)
}

/// Count one probe event into the per-core `counts`: every LLC access,
/// the accesses made in the core's own priority epoch, and the DRAM
/// residency of each SMS load completing in that epoch that `dief`
/// flagged as an interference miss. The flag is DIEF's record of the
/// completed load, fixed from its completion to the interval harvest, so
/// this runs mid-stream right after `dief` saw the event or after `dief`
/// took the whole batch alike (see [`Dief::observe_batch`]).
pub fn count_event(counts: &mut [EpochCounts], dief: &Dief, epoch_len: u64, ev: &ProbeEvent) {
    let cores = counts.len();
    let own = |core: CoreId, cycle: Cycle| priority_core_at(cycle, epoch_len, cores) == core;
    match ev {
        ProbeEvent::LlcAccess { core, cycle, .. } => {
            let hp = own(*core, *cycle);
            let c = &mut counts[core.idx()];
            c.llc += 1;
            c.llc_own += u64::from(hp);
        }
        ProbeEvent::LoadL1MissDone { core, req, cycle, sms: true, post_llc, .. }
            if own(*core, *cycle) && dief.was_interference_miss(*core, *req) =>
        {
            counts[core.idx()].intf_own += post_llc;
        }
        _ => {}
    }
}

/// ASM's estimate from one core's interval `counts` on a CMP whose
/// priority token rotates over `cores` cores.
pub fn private_estimate(
    counts: &EpochCounts,
    cores: usize,
    m: &IntervalMeasurement,
) -> PrivateEstimate {
    let interval_cycles = m.stats.cycles.max(1) as f64;
    // Each core owns 1/n of the interval's epochs.
    let hp_cycles = interval_cycles / cores as f64;
    let hp_effective = (hp_cycles - counts.intf_own as f64).max(1.0);

    let car_shared = counts.llc as f64 / interval_cycles;
    let car_alone = counts.llc_own as f64 / hp_effective;

    // Memory-bound fraction weights the CAR ratio (the MISE/ASM model
    // treats compute phases as unslowed).
    let f_mem = (m.stats.stall_sms as f64 / interval_cycles).clamp(0.0, 1.0);
    let car_ratio =
        if car_shared > 0.0 && counts.llc_own > 0 { car_alone / car_shared } else { 1.0 };
    let slowdown = (f_mem * car_ratio + (1.0 - f_mem)).max(1.0);

    let cpi_shared = interval_cycles / m.stats.committed_instrs.max(1) as f64;
    let cpi = cpi_shared / slowdown;

    let so = sigma_other(&m.stats, m.lambda, m.shared_latency);
    let sigma_sms = sigma_sms_from_cpi(&m.stats, cpi, so);
    PrivateEstimate { cpi, sigma_sms, cpl: 0, overlap: 0.0 }
}

/// The standalone ASM estimator, over its own DIEF.
#[derive(Debug)]
pub struct Asm {
    epoch_len: u64,
    dief: Dief,
    counts: Vec<EpochCounts>,
}

impl Asm {
    /// Build ASM with the default epoch length.
    pub fn new(cfg: &SimConfig, sampled_sets: usize) -> Self {
        Self::with_epoch(cfg, sampled_sets, DEFAULT_EPOCH_CYCLES)
    }

    /// Build ASM with an explicit epoch length.
    pub fn with_epoch(cfg: &SimConfig, sampled_sets: usize, epoch_len: u64) -> Self {
        assert!(epoch_len > 0);
        Asm {
            epoch_len,
            dief: Dief::new(cfg, sampled_sets),
            counts: vec![EpochCounts::default(); cfg.cores],
        }
    }
}

impl PrivateModeEstimator for Asm {
    fn name(&self) -> &'static str {
        "ASM"
    }

    fn observe(&mut self, ev: &ProbeEvent) {
        self.dief.observe(ev);
        count_event(&mut self.counts, &self.dief, self.epoch_len, ev);
    }

    fn estimate(&mut self, core: CoreId, m: &IntervalMeasurement) -> PrivateEstimate {
        let counts = std::mem::take(&mut self.counts[core.idx()]);
        let _ = self.dief.interval_estimate(core);
        private_estimate(&counts, self.counts.len(), m)
    }

    fn snapshot(&self) -> EstimatorState {
        let counts = self
            .counts
            .iter()
            .map(|c| {
                StateValue::List(vec![
                    StateValue::U64(c.llc),
                    StateValue::U64(c.llc_own),
                    StateValue::U64(c.intf_own),
                ])
            })
            .collect();
        EstimatorState::new(
            self.name(),
            StateValue::List(vec![
                StateValue::U64(self.epoch_len),
                self.dief.snapshot_value(),
                StateValue::List(counts),
            ]),
        )
    }

    fn restore(&mut self, state: &EstimatorState) -> Result<(), StateError> {
        let f = state.check(self.name())?.fields(3)?;
        if f[0].as_u64()? != self.epoch_len {
            return Err(StateError::ConfigMismatch("epoch length"));
        }
        let list = f[2].as_list()?;
        if list.len() != self.counts.len() {
            return Err(StateError::ConfigMismatch("core count"));
        }
        let mut counts = Vec::with_capacity(list.len());
        for c in list {
            let cf = c.fields(3)?;
            counts.push(EpochCounts {
                llc: cf[0].as_u64()?,
                llc_own: cf[1].as_u64()?,
                intf_own: cf[2].as_u64()?,
            });
        }
        self.dief.restore_value(&f[1])?;
        self.counts = counts;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_sim::mem::Interference;
    use gdp_sim::stats::CoreStats;
    use gdp_sim::types::ReqId;

    fn asm2() -> Asm {
        Asm::with_epoch(&SimConfig::scaled(2), 32, 1000)
    }

    fn measurement(cycles: u64, instrs: u64, stall_sms: u64) -> IntervalMeasurement {
        IntervalMeasurement {
            stats: CoreStats {
                committed_instrs: instrs,
                commit_cycles: instrs,
                stall_sms,
                cycles,
                ..Default::default()
            },
            lambda: 100.0,
            shared_latency: 150.0,
        }
    }

    fn llc_access(core: CoreId, cycle: Cycle, req: u64) -> ProbeEvent {
        ProbeEvent::LlcAccess { core, block: 0x40 * req, cycle, hit: true, req: ReqId(req) }
    }

    #[test]
    fn priority_token_rotates_per_epoch() {
        assert_eq!(priority_core_at(0, 1000, 2), CoreId(0));
        assert_eq!(priority_core_at(999, 1000, 2), CoreId(0));
        assert_eq!(priority_core_at(1000, 1000, 2), CoreId(1));
        assert_eq!(priority_core_at(2000, 1000, 2), CoreId(0));
    }

    #[test]
    fn higher_hp_access_rate_means_larger_slowdown() {
        let mut a = asm2();
        // Core 0's HP epochs on a 2-core, 1000-cycle-epoch schedule are
        // [0,1000) and [2000,3000). Pack HP accesses densely and shared
        // accesses sparsely: CAR_alone >> CAR_shared.
        for i in 0..100u64 {
            a.observe(&llc_access(CoreId(0), i * 10, i)); // HP epoch
        }
        for i in 0..20u64 {
            a.observe(&llc_access(CoreId(0), 1000 + i * 40, 200 + i)); // LP epoch
        }
        // Memory-bound interval.
        let est = a.estimate(CoreId(0), &measurement(4000, 1000, 3000));
        let cpi_shared = 4.0;
        assert!(est.cpi < cpi_shared, "slowdown must shrink the CPI estimate");
    }

    #[test]
    fn compute_bound_interval_reports_no_slowdown() {
        let mut a = asm2();
        // No LLC accesses, no SMS stalls.
        let est = a.estimate(CoreId(0), &measurement(4000, 4000, 0));
        assert!((est.cpi - 1.0).abs() < 1e-9, "CPI_shared / 1.0");
        assert_eq!(est.sigma_sms, 0.0);
    }

    #[test]
    fn interference_correction_can_explode_the_estimate() {
        // The applu pathology: interference-miss service time eats the
        // whole HP epoch → corrected epoch time ≈ 0 → slowdown explodes.
        let mut a = asm2();
        let core = CoreId(0);
        // Prime the ATD (set 0 is sampled) so block 0 is a private hit.
        a.observe(&ProbeEvent::LlcAccess { core, block: 0, cycle: 1, hit: false, req: ReqId(1) });
        a.observe(&ProbeEvent::LoadL1MissDone {
            core,
            req: ReqId(1),
            block: 0,
            cycle: 10,
            sms: true,
            latency: 100,
            interference: Interference::default(),
            llc_hit: Some(false),
            post_llc: 60,
        });
        // A storm of interference misses completing inside the HP epoch,
        // whose combined residency exceeds the epoch share.
        for i in 0..40u64 {
            a.observe(&ProbeEvent::LlcAccess {
                core,
                block: 0,
                cycle: 20 + i,
                hit: false,
                req: ReqId(100 + i),
            });
            a.observe(&ProbeEvent::LoadL1MissDone {
                core,
                req: ReqId(100 + i),
                block: 0,
                cycle: 30 + i,
                sms: true,
                latency: 300,
                interference: Interference::default(),
                llc_hit: Some(false),
                post_llc: 200,
            });
        }
        let est = a.estimate(core, &measurement(4000, 100, 3900));
        // CPI_shared = 40; the corrected epoch time collapsed to the 1.0
        // floor, so the slowdown is enormous and π̂ ≈ 0.
        assert!(est.cpi < 1.0, "pathological overestimate of slowdown: {est:?}");
    }

    #[test]
    fn interval_reset_clears_accumulators() {
        let mut a = asm2();
        a.observe(&llc_access(CoreId(0), 5, 1));
        let _ = a.estimate(CoreId(0), &measurement(4000, 1000, 100));
        // Second interval with no events: slowdown 1.
        let est = a.estimate(CoreId(0), &measurement(4000, 1000, 0));
        assert!((est.cpi - 4.0).abs() < 1e-9);
    }
}
