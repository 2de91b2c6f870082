//! Descriptors of the baseline accounting techniques.
//!
//! `gdp-experiments` lists these, with `gdp-core`'s GDP and GDP-O and
//! `gdp-dief`'s DIEF-only descriptor, in its one `const` technique table
//! — the data-driven replacement for per-binary `match`es over a
//! technique enum.

use gdp_core::technique::{Observer, Readout, TechniqueCaps, TechniqueConfig, TechniqueDesc};
use gdp_core::{CoreSummary, IntervalMeasurement, PrivateEstimate, PrivateModeEstimator};

use crate::{asm, itca, ptca, Asm, Itca, Ptca};

fn build_itca(cfg: &TechniqueConfig) -> Box<dyn PrivateModeEstimator> {
    Box::new(Itca::new(&cfg.sim, cfg.sampled_sets))
}

fn build_ptca(cfg: &TechniqueConfig) -> Box<dyn PrivateModeEstimator> {
    Box::new(Ptca::new(&cfg.sim, cfg.sampled_sets))
}

fn build_asm(cfg: &TechniqueConfig) -> Box<dyn PrivateModeEstimator> {
    Box::new(Asm::new(&cfg.sim, cfg.sampled_sets))
}

fn read_itca(s: &CoreSummary, m: &IntervalMeasurement) -> PrivateEstimate {
    itca::private_estimate(s.discounted, m)
}

fn read_ptca(s: &CoreSummary, m: &IntervalMeasurement) -> PrivateEstimate {
    ptca::private_estimate(s.sigma, m)
}

fn read_asm(s: &CoreSummary, m: &IntervalMeasurement) -> PrivateEstimate {
    let counts = asm::EpochCounts {
        llc: s.llc_accesses,
        llc_own: s.llc_accesses_own,
        intf_own: s.intf_residency_own,
    };
    asm::private_estimate(&counts, s.rotation as usize, m)
}

/// ITCA: transparent condition-based discounting (Luque et al.).
pub const ITCA_TECHNIQUE: TechniqueDesc = TechniqueDesc {
    id: "itca",
    label: "ITCA",
    summary: "Inter-Task Conflict-Aware accounting (transparent baseline)",
    caps: TechniqueCaps::transparent(),
    mc_priority_epoch: None,
    readout: Readout { reads: &[Observer::Discounts], estimate: read_itca },
    factory: build_itca,
};

/// PTCA: transparent per-load interference subtraction (Du Bois et al.).
pub const PTCA_TECHNIQUE: TechniqueDesc = TechniqueDesc {
    id: "ptca",
    label: "PTCA",
    summary: "Per-Thread Cycle Accounting (transparent baseline)",
    caps: TechniqueCaps::transparent(),
    mc_priority_epoch: None,
    readout: Readout { reads: &[Observer::Sigma], estimate: read_ptca },
    factory: build_ptca,
};

/// ASM: the invasive slowdown model (Subramanian et al.). Its epoch
/// length tells the run loop how often to rotate the memory-controller
/// priority token — the invasive part the capability flags advertise.
pub const ASM_TECHNIQUE: TechniqueDesc = TechniqueDesc {
    id: "asm",
    label: "ASM",
    summary: "Application Slowdown Model (invasive baseline)",
    caps: TechniqueCaps::invasive(),
    mc_priority_epoch: Some(asm::DEFAULT_EPOCH_CYCLES),
    readout: Readout { reads: &[Observer::Epochs], estimate: read_asm },
    factory: build_asm,
};

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_sim::SimConfig;

    #[test]
    fn descriptors_build_estimators_matching_their_labels() {
        let cfg = TechniqueConfig { sim: SimConfig::scaled(2), sampled_sets: 32, prb_entries: 32 };
        for d in [&ITCA_TECHNIQUE, &PTCA_TECHNIQUE, &ASM_TECHNIQUE] {
            assert_eq!(d.build(&cfg).name(), d.label, "{}", d.id);
        }
        assert!(ITCA_TECHNIQUE.caps.is_transparent());
        assert!(PTCA_TECHNIQUE.caps.is_transparent());
        const _: () = assert!(ASM_TECHNIQUE.caps.invasive);
        assert_eq!(ASM_TECHNIQUE.mc_priority_epoch, Some(asm::DEFAULT_EPOCH_CYCLES));
    }
}
