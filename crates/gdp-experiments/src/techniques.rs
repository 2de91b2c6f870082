//! The assembled technique registry and the [`Technique`] handle the
//! evaluation stack passes around.
//!
//! `gdp-core`, `gdp-accounting` and `gdp-dief` each export const
//! [`TechniqueDesc`]riptors for the estimators they implement; this
//! module assembles them — in the paper's presentation order — into the
//! one [`TechniqueRegistry`] every driver, figure binary and CLI flag
//! resolves techniques through. A [`Technique`] is a `Copy` handle to a
//! registered descriptor: comparing, hashing and displaying it all go
//! through the descriptor's stable string id, so adding a technique to
//! the registry is the *only* step needed to make it selectable in every
//! sweep, JSON label and `--techniques` flag.

use std::sync::OnceLock;

use gdp_core::model::PrivateModeEstimator;
use gdp_core::technique::{
    TechniqueCaps, TechniqueConfig, TechniqueDesc, TechniqueRegistry, UnknownTechnique,
};

/// The workspace's built-in techniques, in the paper's presentation
/// order (Figs. 3–5 columns), with the non-default DIEF-only baseline
/// appended.
pub fn registry() -> &'static TechniqueRegistry {
    static REGISTRY: OnceLock<TechniqueRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        TechniqueRegistry::with(&[
            &gdp_accounting::ITCA_TECHNIQUE,
            &gdp_accounting::PTCA_TECHNIQUE,
            &gdp_accounting::ASM_TECHNIQUE,
            &gdp_core::GDP_TECHNIQUE,
            &gdp_core::GDP_O_TECHNIQUE,
            &gdp_dief::DIEF_TECHNIQUE,
        ])
    })
}

/// A handle to a registered accounting technique.
///
/// `Copy` and comparable by stable id, so it drops into arrays, maps and
/// job plans exactly like the enum it replaces — but its name, factory
/// and capabilities come from the registry descriptor instead of
/// per-call-site `match`es.
#[derive(Clone, Copy)]
pub struct Technique(&'static TechniqueDesc);

impl Technique {
    /// Inter-Task Conflict-Aware accounting (transparent baseline).
    pub const ITCA: Technique = Technique(&gdp_accounting::ITCA_TECHNIQUE);
    /// Per-Thread Cycle Accounting (transparent baseline).
    pub const PTCA: Technique = Technique(&gdp_accounting::PTCA_TECHNIQUE);
    /// Application Slowdown Model (invasive baseline).
    pub const ASM: Technique = Technique(&gdp_accounting::ASM_TECHNIQUE);
    /// Graph-based Dynamic Performance accounting (this paper).
    pub const GDP: Technique = Technique(&gdp_core::GDP_TECHNIQUE);
    /// GDP with overlap accounting (this paper).
    pub const GDP_O: Technique = Technique(&gdp_core::GDP_O_TECHNIQUE);
    /// DIEF-only latency-ratio baseline (not in the default set).
    pub const DIEF: Technique = Technique(&gdp_dief::DIEF_TECHNIQUE);

    /// The paper's default comparison set, in presentation order — equal
    /// to the registry's `default_set` (asserted by tests).
    pub const ALL: [Technique; 5] =
        [Technique::ITCA, Technique::PTCA, Technique::ASM, Technique::GDP, Technique::GDP_O];

    /// Every registered technique, in registry order.
    pub fn all_registered() -> Vec<Technique> {
        registry().iter().map(Technique).collect()
    }

    /// Resolve a stable id (case-insensitive) against the registry.
    pub fn from_id(id: &str) -> Option<Technique> {
        registry().get(id).map(Technique)
    }

    /// Parse a comma-separated id list into a canonical (registry-order,
    /// deduplicated) technique set; the error lists every valid id.
    pub fn parse_list(list: &str) -> Result<Vec<Technique>, UnknownTechnique> {
        Ok(registry().parse_set(list)?.into_iter().map(Technique).collect())
    }

    /// Canonicalize a set: registry order, duplicates removed. Every
    /// evaluation consumes its technique list in this form, so column
    /// order never depends on how a selection was spelled.
    pub fn canonical(set: &[Technique]) -> Vec<Technique> {
        let mut out: Vec<Technique> = Vec::with_capacity(set.len());
        for d in registry().iter() {
            if set.iter().any(|t| t.id() == d.id) {
                out.push(Technique(d));
            }
        }
        out
    }

    /// The registry descriptor.
    pub fn desc(&self) -> &'static TechniqueDesc {
        self.0
    }

    /// Stable lower-case id (`--techniques` spelling).
    pub fn id(&self) -> &'static str {
        self.0.id
    }

    /// Display label (tables, JSON results).
    pub fn name(&self) -> &'static str {
        self.0.label
    }

    /// Capability flags.
    pub fn caps(&self) -> TechniqueCaps {
        self.0.caps
    }

    /// Whether the technique perturbs the execution it measures.
    pub fn is_invasive(&self) -> bool {
        self.0.caps.invasive
    }

    /// Memory-controller priority-rotation epoch, for invasive
    /// techniques that need one.
    pub fn mc_priority_epoch(&self) -> Option<u64> {
        self.0.mc_priority_epoch
    }

    /// Build the standalone estimator for `cfg` via the registered
    /// factory (sessions use it for stateful techniques only; the
    /// readouts' per-event reference for all others).
    pub fn build(&self, cfg: &TechniqueConfig) -> Box<dyn PrivateModeEstimator> {
        self.0.build(cfg)
    }
}

impl PartialEq for Technique {
    fn eq(&self, other: &Self) -> bool {
        self.0.id == other.0.id
    }
}

impl Eq for Technique {}

impl std::hash::Hash for Technique {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.id.hash(state);
    }
}

impl std::fmt::Debug for Technique {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Technique({})", self.0.id)
    }
}

impl std::fmt::Display for Technique {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The techniques of `set` that share one transparent run (all but the
/// invasive ones, which perturb execution and need their own).
pub fn transparent_subset(set: &[Technique]) -> Vec<Technique> {
    set.iter().copied().filter(|t| !t.is_invasive()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_set_matches_the_registry() {
        let default: Vec<&str> = registry().default_set().iter().map(|d| d.id).collect();
        let all: Vec<&str> = Technique::ALL.iter().map(|t| t.id()).collect();
        assert_eq!(default, all, "Technique::ALL must mirror the registry default set");
    }

    #[test]
    fn every_registered_technique_resolves_round_trip() {
        for t in Technique::all_registered() {
            let back = Technique::from_id(t.id()).expect("id resolves");
            assert_eq!(back, t);
            assert_eq!(back.name(), t.desc().label);
        }
        assert_eq!(Technique::all_registered().len(), 6);
    }

    #[test]
    fn parse_list_is_canonical_and_rejects_unknowns() {
        let set = Technique::parse_list("gdp-o,itca").unwrap();
        assert_eq!(set, vec![Technique::ITCA, Technique::GDP_O], "registry order");
        let err = Technique::parse_list("gdp,wat").unwrap_err();
        assert!(err.to_string().contains("itca, ptca, asm, gdp, gdp-o, dief"), "{err}");
    }

    #[test]
    fn canonical_orders_and_dedups() {
        let set = Technique::canonical(&[Technique::GDP_O, Technique::ITCA, Technique::GDP_O]);
        assert_eq!(set, vec![Technique::ITCA, Technique::GDP_O]);
    }

    #[test]
    fn transparent_subset_drops_invasive_techniques() {
        let t = transparent_subset(&Technique::ALL);
        assert_eq!(t, vec![Technique::ITCA, Technique::PTCA, Technique::GDP, Technique::GDP_O]);
        assert!(Technique::ASM.is_invasive());
        assert_eq!(Technique::ASM.mc_priority_epoch(), Some(2_000));
    }
}
