//! The first-order performance model of paper §III (Eq. 1–2) and the
//! common interface all accounting techniques implement.
//!
//! Shared-mode execution time decomposes per core into
//!
//! ```text
//! CPI_p = (C_p + S_Ind + S_Loads + S_Other) / Inst_p            (Eq. 1)
//! ```
//!
//! Because only the memory system differs between shared and private mode,
//! `C_p`, `S_Ind` and `S_PMS` carry over unchanged and the private-mode
//! estimate is
//!
//! ```text
//! π̂_p = (C_p + S_Ind + S_PMS + σ̂_SMS + σ̂_Other) / Inst_p       (Eq. 2)
//! ```
//!
//! where `σ̂_SMS` is each technique's private SMS-load stall estimate and
//! `σ̂_Other` scales the rare other stalls by the latency ratio (§III).

use crate::state::{EstimatorState, StateError};
use gdp_sim::probe::ProbeEvent;
use gdp_sim::stats::CoreStats;
use gdp_sim::types::CoreId;

/// Measured shared-mode inputs for one accounting interval of one core.
#[derive(Debug, Clone, Copy)]
pub struct IntervalMeasurement {
    /// Interval delta of the core's counters.
    pub stats: CoreStats,
    /// DIEF's private-mode latency estimate λ̂ (cycles).
    pub lambda: f64,
    /// Measured shared-mode average SMS-load latency `L_p` (cycles).
    pub shared_latency: f64,
}

/// A private-mode performance estimate produced at an interval boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivateEstimate {
    /// Estimated private-mode CPI (π̂).
    pub cpi: f64,
    /// Estimated private-mode SMS-load stall cycles (σ̂_SMS).
    pub sigma_sms: f64,
    /// Estimated CPL for the interval (dataflow techniques; 0 otherwise).
    pub cpl: u64,
    /// Estimated average overlap (GDP-O; 0 otherwise).
    pub overlap: f64,
}

impl PrivateEstimate {
    /// Estimated private-mode IPC.
    pub fn ipc(&self) -> f64 {
        if self.cpi.is_finite() && self.cpi > 0.0 {
            1.0 / self.cpi
        } else {
            0.0
        }
    }
}

/// One core's per-interval summary from the observation plane: what the
/// paper's hardware yields at a boundary (§IV). The core's GDP unit gives
/// CPL and overlap; DIEF's per-stall interference records give ITCA's
/// discounted cycles and PTCA's σ̂, and its verdicts on the loads that
/// complete in the core's own priority epochs give ASM's counters. Every
/// technique is a pure readout of this summary and the boundary
/// [`IntervalMeasurement`]. Fields whose observer is absent from the
/// plane stay zero.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreSummary {
    /// Critical path length harvested for the interval.
    pub cpl: u64,
    /// Average commit/load overlap O.
    pub overlap: f64,
    /// Stall cycles on inter-task misses (ITCA's condition 1).
    pub discounted: u64,
    /// Σ per-stall `max(0, stall − interference)` (PTCA's σ̂_SMS).
    pub sigma: f64,
    /// LLC accesses (ASM's shared-mode access rate).
    pub llc_accesses: u64,
    /// LLC accesses in the core's own priority epochs (ASM's alone rate).
    pub llc_accesses_own: u64,
    /// DRAM residency of the interference misses completing in the
    /// core's own priority epochs (ASM's epoch-time correction).
    pub intf_residency_own: u64,
    /// Cores the ASM priority token rotates over: the core holds it for
    /// one epoch in `rotation`.
    pub rotation: u64,
}

/// A standalone accounting technique: observe the shared-mode probe
/// stream and produce a private-mode estimate at every accounting
/// interval.
///
/// Sessions run every technique as a readout of the observation plane;
/// each technique also implements this trait over observers of its own,
/// as the per-event reference the readouts are tested against. `Send`
/// lets a session holding one move to a worker thread.
pub trait PrivateModeEstimator: Send {
    /// Technique name for reports.
    fn name(&self) -> &'static str;

    /// Feed one probe event (the full multi-core stream; implementations
    /// filter by core).
    fn observe(&mut self, ev: &ProbeEvent);

    /// Produce the estimate for `core` at an interval boundary and reset
    /// per-interval state.
    fn estimate(&mut self, core: CoreId, m: &IntervalMeasurement) -> PrivateEstimate;

    /// Capture the estimator's complete internal state, bit-exactly.
    ///
    /// Contract: `restore(snapshot())` on an identically-configured
    /// estimator, followed by any call sequence, produces bit-identical
    /// results to continuing on the original.
    fn snapshot(&self) -> EstimatorState;

    /// Replace the estimator's internal state with `state`.
    ///
    /// Fails (leaving the estimator unspecified but safe to drop or
    /// re-restore) when the snapshot belongs to a different technique,
    /// schema version or hardware configuration.
    fn restore(&mut self, state: &EstimatorState) -> Result<(), StateError>;
}

/// σ̂_Other: other memory-related stalls scale with the latency ratio
/// (paper §III: "assuming that the stall length is proportional to the
/// memory latency difference between the shared and private modes").
pub fn sigma_other(stats: &CoreStats, lambda: f64, shared_latency: f64) -> f64 {
    if shared_latency <= 0.0 {
        stats.stall_other as f64
    } else {
        stats.stall_other as f64 * (lambda / shared_latency).min(1.0)
    }
}

/// Eq. 2: private-mode CPI from measured components and the technique's
/// stall estimates.
pub fn private_cpi(stats: &CoreStats, sigma_sms: f64, sigma_other_est: f64) -> f64 {
    if stats.committed_instrs == 0 {
        return f64::INFINITY;
    }
    let cycles = stats.commit_cycles as f64
        + stats.stall_ind as f64
        + stats.stall_pms as f64
        + sigma_sms
        + sigma_other_est;
    cycles / stats.committed_instrs as f64
}

/// Invert Eq. 2: given a CPI estimate, back out the implied σ̂_SMS (used
/// to derive stall-cycle estimates from ASM's slowdown-based CPI, Fig 3b).
pub fn sigma_sms_from_cpi(stats: &CoreStats, cpi: f64, sigma_other_est: f64) -> f64 {
    let fixed = stats.commit_cycles as f64
        + stats.stall_ind as f64
        + stats.stall_pms as f64
        + sigma_other_est;
    (cpi * stats.committed_instrs as f64 - fixed).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> CoreStats {
        CoreStats {
            committed_instrs: 190,
            commit_cycles: 190,
            stall_ind: 0,
            stall_pms: 0,
            stall_sms: 305,
            stall_other: 0,
            cycles: 495,
            ..Default::default()
        }
    }

    /// Figure 1a's worked example: 190 instructions, 190 commit cycles,
    /// GDP estimates 280 SMS stall cycles → CPI 2.47 (the paper rounds to
    /// 2.5); GDP-O estimates 204 → CPI 2.07 (paper: 2.1).
    #[test]
    fn figure1_worked_example_cpi() {
        let s = stats();
        let gdp = private_cpi(&s, 2.0 * 140.0, 0.0);
        assert!((gdp - 470.0 / 190.0).abs() < 1e-9);
        assert!((gdp - 2.47).abs() < 0.01);
        let gdpo = private_cpi(&s, 2.0 * (140.0 - 38.0), 0.0);
        assert!((gdpo - 394.0 / 190.0).abs() < 1e-9);
        assert!((gdpo - 2.07).abs() < 0.01);
    }

    #[test]
    fn sigma_other_scales_with_latency_ratio() {
        let mut s = stats();
        s.stall_other = 100;
        assert!((sigma_other(&s, 150.0, 300.0) - 50.0).abs() < 1e-9);
        // Never scales up (private latency can't exceed shared here).
        assert!((sigma_other(&s, 400.0, 300.0) - 100.0).abs() < 1e-9);
        // No SMS latency measured: passthrough.
        assert!((sigma_other(&s, 150.0, 0.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn private_cpi_handles_zero_instructions() {
        let s = CoreStats::default();
        assert!(private_cpi(&s, 10.0, 0.0).is_infinite());
    }

    #[test]
    fn sigma_sms_inversion_round_trips() {
        let s = stats();
        let sigma = 280.0;
        let cpi = private_cpi(&s, sigma, 0.0);
        let back = sigma_sms_from_cpi(&s, cpi, 0.0);
        assert!((back - sigma).abs() < 1e-6);
    }

    #[test]
    fn estimate_ipc_inverts_cpi() {
        let e = PrivateEstimate { cpi: 2.0, sigma_sms: 0.0, cpl: 0, overlap: 0.0 };
        assert!((e.ipc() - 0.5).abs() < 1e-12);
        let bad = PrivateEstimate { cpi: f64::INFINITY, sigma_sms: 0.0, cpl: 0, overlap: 0.0 };
        assert_eq!(bad.ipc(), 0.0);
    }
}
