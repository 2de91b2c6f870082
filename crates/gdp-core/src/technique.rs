//! First-class technique descriptors.
//!
//! Every accounting technique (GDP, GDP-O and the ITCA/PTCA/ASM/DIEF
//! baselines) is described by a [`TechniqueDesc`]: a stable string id, a
//! display label, capability flags, a [`Readout`] over the observation
//! plane's per-core summary and a factory building the standalone
//! estimator from one unified [`TechniqueConfig`].
//!
//! Descriptors are `const` data: each crate exports the descriptors of
//! the techniques it implements (`gdp-core` exports
//! [`GDP_TECHNIQUE`]/[`GDP_O_TECHNIQUE`]; `gdp-accounting` and `gdp-dief`
//! export the baselines), and `gdp-experiments` lists them in one `const`
//! table in presentation order, which every driver, `--techniques` flag,
//! JSON label and trace replay resolves techniques through.

use crate::estimator::{gdp_estimate, GdpEstimator, GdpVariant};
use crate::model::{CoreSummary, IntervalMeasurement, PrivateEstimate, PrivateModeEstimator};
use gdp_sim::SimConfig;

/// Unified construction parameters for every registered technique: the
/// CMP model plus the two technique-hardware sizes the paper sweeps.
#[derive(Debug, Clone)]
pub struct TechniqueConfig {
    /// The CMP the technique's hardware observes.
    pub sim: SimConfig,
    /// LLC sets sampled by ATD-based techniques (paper: 32).
    pub sampled_sets: usize,
    /// PRB entries per GDP unit (paper: 32).
    pub prb_entries: usize,
}

impl TechniqueConfig {
    /// Core count of the CMP under observation.
    pub fn cores(&self) -> usize {
        self.sim.cores
    }
}

/// What a technique needs from (and does to) the system it observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TechniqueCaps {
    /// Whether the technique perturbs execution to measure it (ASM's
    /// memory-controller priority rotation). Invasive techniques must be
    /// evaluated in their own shared-mode run; transparent ones share one.
    pub invasive: bool,
    /// Whether the technique consumes the probe-event stream (all
    /// techniques except pure boundary-measurement models).
    pub needs_probe_stream: bool,
}

impl TechniqueCaps {
    /// A transparent probe-stream observer (the common case).
    pub const fn transparent() -> TechniqueCaps {
        TechniqueCaps { invasive: false, needs_probe_stream: true }
    }

    /// An invasive probe-stream observer (ASM).
    pub const fn invasive() -> TechniqueCaps {
        TechniqueCaps { invasive: true, needs_probe_stream: true }
    }

    /// Transparent, does not perturb execution.
    pub const fn is_transparent(&self) -> bool {
        !self.invasive
    }
}

/// An observer of the probe stream. The paper's hardware has one GDP unit
/// per core and one DIEF (§IV); the DIEF's per-stall and per-epoch
/// counters come in three families, and a plane keeps a family only when
/// a readout it serves reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observer {
    /// One `GdpUnit` per core: CPL and overlap.
    GdpUnits,
    /// DIEF's inter-task-miss stall discounts (ITCA).
    Discounts,
    /// DIEF's per-stall interference-free stall sums (PTCA).
    Sigma,
    /// LLC accesses and interference-miss residency in each core's own
    /// priority epochs, read off DIEF (ASM).
    Epochs,
}

/// A technique as a pure function of one core's [`CoreSummary`] and its
/// boundary measurement.
#[derive(Debug, Clone, Copy)]
pub struct Readout {
    /// The observers whose summary fields the readout reads (none for a
    /// readout of the measurement alone).
    pub reads: &'static [Observer],
    /// The estimate.
    pub estimate: fn(&CoreSummary, &IntervalMeasurement) -> PrivateEstimate,
}

/// An accounting technique: identity, capabilities, readout and
/// factory.
#[derive(Debug)]
pub struct TechniqueDesc {
    /// Stable lower-case string id (`--techniques` / configuration
    /// surface), e.g. `"gdp-o"`.
    pub id: &'static str,
    /// Display label used in tables and JSON results, e.g. `"GDP-O"`.
    /// Always equals the built estimator's
    /// [`PrivateModeEstimator::name`].
    pub label: &'static str,
    /// One-line description (shown by documentation and diagnostics).
    pub summary: &'static str,
    /// Capability flags.
    pub caps: TechniqueCaps,
    /// For invasive techniques that rotate the memory-controller priority
    /// token: the rotation epoch in cycles the run loop must apply.
    pub mc_priority_epoch: Option<u64>,
    /// The technique as a readout of the observation plane.
    pub readout: Readout,
    /// Build the standalone estimator for `cfg`: the per-event reference
    /// the readout is tested against.
    pub factory: fn(&TechniqueConfig) -> Box<dyn PrivateModeEstimator>,
}

impl TechniqueDesc {
    /// Build this technique's estimator for `cfg`.
    pub fn build(&self, cfg: &TechniqueConfig) -> Box<dyn PrivateModeEstimator> {
        (self.factory)(cfg)
    }
}

fn build_gdp(cfg: &TechniqueConfig) -> Box<dyn PrivateModeEstimator> {
    Box::new(GdpEstimator::new(GdpVariant::Gdp, cfg.cores(), cfg.prb_entries))
}

fn build_gdp_o(cfg: &TechniqueConfig) -> Box<dyn PrivateModeEstimator> {
    Box::new(GdpEstimator::new(GdpVariant::GdpO, cfg.cores(), cfg.prb_entries))
}

fn read_gdp(s: &CoreSummary, m: &IntervalMeasurement) -> PrivateEstimate {
    gdp_estimate(GdpVariant::Gdp, s, m)
}

fn read_gdp_o(s: &CoreSummary, m: &IntervalMeasurement) -> PrivateEstimate {
    gdp_estimate(GdpVariant::GdpO, s, m)
}

/// GDP: transparent dataflow accounting, σ̂ = CPL · λ̂ (this paper).
pub const GDP_TECHNIQUE: TechniqueDesc = TechniqueDesc {
    id: "gdp",
    label: "GDP",
    summary: "Graph-based dataflow performance accounting (this paper)",
    caps: TechniqueCaps::transparent(),
    mc_priority_epoch: None,
    readout: Readout { reads: &[Observer::GdpUnits], estimate: read_gdp },
    factory: build_gdp,
};

/// GDP-O: GDP with commit/load overlap accounting, σ̂ = CPL · (λ̂ − O).
pub const GDP_O_TECHNIQUE: TechniqueDesc = TechniqueDesc {
    id: "gdp-o",
    label: "GDP-O",
    summary: "GDP with commit/load overlap accounting (this paper)",
    caps: TechniqueCaps::transparent(),
    mc_priority_epoch: None,
    readout: Readout { reads: &[Observer::GdpUnits], estimate: read_gdp_o },
    factory: build_gdp_o,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factories_build_estimators_whose_name_matches_the_label() {
        let cfg = TechniqueConfig { sim: SimConfig::scaled(2), sampled_sets: 32, prb_entries: 32 };
        for d in [&GDP_TECHNIQUE, &GDP_O_TECHNIQUE] {
            assert_eq!(
                d.build(&cfg).name(),
                d.label,
                "{}: estimator name must equal the label",
                d.id
            );
        }
    }

    #[test]
    fn caps_classify_transparent_and_invasive() {
        assert!(TechniqueCaps::transparent().is_transparent());
        assert!(!TechniqueCaps::invasive().is_transparent());
        assert!(GDP_TECHNIQUE.caps.is_transparent());
        assert_eq!(GDP_TECHNIQUE.mc_priority_epoch, None);
    }
}
