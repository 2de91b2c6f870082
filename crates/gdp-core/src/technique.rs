//! First-class technique descriptors and the technique registry.
//!
//! Every accounting technique (GDP, GDP-O and the ITCA/PTCA/ASM/DIEF
//! baselines) is described by a [`TechniqueDesc`]: a stable string id, a
//! display label, capability flags, a [`Readout`] over the observation
//! plane's per-core summary (none for the stateful ASM) and a factory
//! building the standalone estimator from one unified
//! [`TechniqueConfig`]. A [`TechniqueRegistry`] is an
//! ordered collection of descriptors — the single authority the
//! experiment drivers, the campaign binaries' `--techniques` flag, JSON
//! result labels and trace replay all resolve techniques through, instead
//! of each hardwiring its own `match` over an enum.
//!
//! Descriptors are `const` data, so crates register the techniques they
//! implement by exporting a descriptor (`gdp-core` exports
//! [`GDP_TECHNIQUE`]/[`GDP_O_TECHNIQUE`]; `gdp-accounting` and `gdp-dief`
//! export the baselines) and a downstream crate assembles them into a
//! registry in presentation order.

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

/// An observer of the probe stream, as the paper's hardware has them: one
/// GDP unit per core and one DIEF (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observer {
    /// One `GdpUnit` per core: CPL and overlap.
    GdpUnits,
    /// The DIEF with its per-stall ITCA/PTCA accumulators.
    Dief,
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

/// A registered accounting technique: identity, capabilities, readout
/// and factory.
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
    /// Whether the technique belongs to the paper's default comparison
    /// set (the five techniques of Figs. 3–5).
    pub default_member: bool,
    /// The technique as a readout of the observation plane. `None` marks
    /// a stateful technique (ASM): sessions build it with `factory` and
    /// feed it the stream in order.
    pub readout: Option<Readout>,
    /// Build the standalone estimator for `cfg`.
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
    default_member: true,
    readout: Some(Readout { reads: &[Observer::GdpUnits], estimate: read_gdp }),
    factory: build_gdp,
};

/// GDP-O: GDP with commit/load overlap accounting, σ̂ = CPL · (λ̂ − O).
pub const GDP_O_TECHNIQUE: TechniqueDesc = TechniqueDesc {
    id: "gdp-o",
    label: "GDP-O",
    summary: "GDP with commit/load overlap accounting (this paper)",
    caps: TechniqueCaps::transparent(),
    mc_priority_epoch: None,
    default_member: true,
    readout: Some(Readout { reads: &[Observer::GdpUnits], estimate: read_gdp_o }),
    factory: build_gdp_o,
};

/// A rejected technique id, carrying the registry's valid ids for the
/// error message (the CLI prints exactly this).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownTechnique {
    /// The id that failed to resolve.
    pub id: String,
    /// Every valid id, in registry order.
    pub valid: Vec<&'static str>,
}

impl std::fmt::Display for UnknownTechnique {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown technique `{}` (valid: {})", self.id, self.valid.join(", "))
    }
}

impl std::error::Error for UnknownTechnique {}

/// An ordered collection of technique descriptors: the single source for
/// id resolution, default-set expansion and `--techniques` parsing.
#[derive(Debug, Default)]
pub struct TechniqueRegistry {
    entries: Vec<&'static TechniqueDesc>,
}

impl TechniqueRegistry {
    /// An empty registry.
    pub fn new() -> TechniqueRegistry {
        TechniqueRegistry { entries: Vec::new() }
    }

    /// A registry over `descs`, in the given (presentation) order.
    ///
    /// # Panics
    /// Panics on duplicate ids or labels — two techniques that collide on
    /// either would produce ambiguous CLI selections or JSON columns.
    pub fn with(descs: &[&'static TechniqueDesc]) -> TechniqueRegistry {
        let mut reg = TechniqueRegistry::new();
        for d in descs {
            reg.register(d).expect("registry construction");
        }
        reg
    }

    /// Append a descriptor; rejects duplicate ids and labels.
    pub fn register(&mut self, desc: &'static TechniqueDesc) -> Result<(), String> {
        if let Some(prev) = self.entries.iter().find(|e| e.id == desc.id || e.label == desc.label) {
            return Err(format!(
                "technique `{}`/`{}` collides with registered `{}`/`{}`",
                desc.id, desc.label, prev.id, prev.label
            ));
        }
        self.entries.push(desc);
        Ok(())
    }

    /// All descriptors, in registry order.
    pub fn iter(&self) -> impl Iterator<Item = &'static TechniqueDesc> + '_ {
        self.entries.iter().copied()
    }

    /// Number of registered techniques.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Resolve an id (case-insensitive).
    pub fn get(&self, id: &str) -> Option<&'static TechniqueDesc> {
        self.entries.iter().copied().find(|d| d.id.eq_ignore_ascii_case(id))
    }

    /// Every valid id, in registry order (the CLI error listing).
    pub fn ids(&self) -> Vec<&'static str> {
        self.entries.iter().map(|d| d.id).collect()
    }

    /// The default comparison set, in registry order.
    pub fn default_set(&self) -> Vec<&'static TechniqueDesc> {
        self.entries.iter().copied().filter(|d| d.default_member).collect()
    }

    /// Parse a comma-separated id list (`"gdp,itca"`) into descriptors in
    /// **registry order**, deduplicated — the canonical form every driver
    /// consumes, so a selection's column order never depends on how the
    /// user spelled it.
    pub fn parse_set(&self, list: &str) -> Result<Vec<&'static TechniqueDesc>, UnknownTechnique> {
        let mut picked = vec![false; self.entries.len()];
        for raw in list.split(',') {
            let id = raw.trim();
            if id.is_empty() {
                continue;
            }
            match self.entries.iter().position(|d| d.id.eq_ignore_ascii_case(id)) {
                Some(i) => picked[i] = true,
                None => {
                    return Err(UnknownTechnique { id: id.to_string(), valid: self.ids() });
                }
            }
        }
        let set: Vec<_> = self
            .entries
            .iter()
            .copied()
            .zip(&picked)
            .filter(|(_, p)| **p)
            .map(|(d, _)| d)
            .collect();
        if set.is_empty() {
            return Err(UnknownTechnique { id: list.trim().to_string(), valid: self.ids() });
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> TechniqueRegistry {
        TechniqueRegistry::with(&[&GDP_TECHNIQUE, &GDP_O_TECHNIQUE])
    }

    fn cfg() -> TechniqueConfig {
        TechniqueConfig { sim: SimConfig::scaled(2), sampled_sets: 32, prb_entries: 32 }
    }

    #[test]
    fn factories_build_estimators_whose_name_matches_the_label() {
        let r = reg();
        for d in r.iter() {
            let est = d.build(&cfg());
            assert_eq!(est.name(), d.label, "{}: estimator name must equal the label", d.id);
        }
    }

    #[test]
    fn lookup_is_case_insensitive_and_order_preserving() {
        let r = reg();
        assert_eq!(r.get("GDP-O").unwrap().id, "gdp-o");
        assert_eq!(r.get("gdp").unwrap().label, "GDP");
        assert!(r.get("nope").is_none());
        assert_eq!(r.ids(), vec!["gdp", "gdp-o"]);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn parse_set_canonicalizes_order_and_dedups() {
        let r = reg();
        let set = r.parse_set("gdp-o, gdp, gdp-o").unwrap();
        let ids: Vec<_> = set.iter().map(|d| d.id).collect();
        assert_eq!(ids, vec!["gdp", "gdp-o"], "registry order, deduplicated");
    }

    #[test]
    fn parse_set_rejects_unknown_and_empty_with_valid_ids() {
        let r = reg();
        let err = r.parse_set("gdp,bogus").unwrap_err();
        assert_eq!(err.id, "bogus");
        assert_eq!(err.valid, vec!["gdp", "gdp-o"]);
        assert!(err.to_string().contains("valid: gdp, gdp-o"), "{err}");
        assert!(r.parse_set("").is_err(), "an empty selection is an error");
        assert!(r.parse_set(" , ,").is_err());
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut r = reg();
        let err = r.register(&GDP_TECHNIQUE).unwrap_err();
        assert!(err.contains("collides"), "{err}");
    }

    #[test]
    fn caps_classify_transparent_and_invasive() {
        assert!(TechniqueCaps::transparent().is_transparent());
        assert!(!TechniqueCaps::invasive().is_transparent());
        assert!(GDP_TECHNIQUE.caps.is_transparent());
        assert_eq!(GDP_TECHNIQUE.mc_priority_epoch, None);
    }
}
