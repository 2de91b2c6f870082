//! The technique table and the [`Technique`] handle the evaluation stack
//! passes around.
//!
//! `gdp-core`, `gdp-accounting` and `gdp-dief` each export const
//! [`TechniqueDesc`]riptors for the estimators they implement; this
//! module lists them — in the paper's presentation order — in the one
//! `const` table every driver, figure binary and CLI flag resolves
//! techniques through. A [`Technique`] is a `Copy` handle to a
//! descriptor: comparing, hashing and displaying it all go through the
//! descriptor's stable string id, so adding a technique to the table is
//! the *only* step needed to make it selectable in every sweep, JSON
//! label and `--techniques` flag.

use gdp_core::model::PrivateModeEstimator;
use gdp_core::technique::{TechniqueCaps, TechniqueConfig, TechniqueDesc};

/// Every technique, in the paper's presentation order (Figs. 3–5
/// columns), with the DIEF-only baseline, which is not in the default
/// set, appended.
const TABLE: [Technique; 6] = [
    Technique::ITCA,
    Technique::PTCA,
    Technique::ASM,
    Technique::GDP,
    Technique::GDP_O,
    Technique::DIEF,
];

/// A handle to an accounting technique.
///
/// `Copy` and comparable by stable id, so it drops into arrays, maps and
/// job plans exactly like the enum it replaces — but its name, factory
/// and capabilities come from the descriptor instead of per-call-site
/// `match`es.
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

    /// The paper's default comparison set, in presentation order: the
    /// table without the DIEF-only baseline.
    pub const ALL: [Technique; 5] =
        [Technique::ITCA, Technique::PTCA, Technique::ASM, Technique::GDP, Technique::GDP_O];

    /// Every technique, in table order.
    pub fn all_registered() -> Vec<Technique> {
        TABLE.to_vec()
    }

    /// Resolve a stable id (case-insensitive) against the table.
    pub fn from_id(id: &str) -> Option<Technique> {
        TABLE.iter().copied().find(|t| t.id().eq_ignore_ascii_case(id))
    }

    /// Parse a comma-separated id list (`"gdp,itca"`) into a canonical
    /// (table-order, deduplicated) technique set, so a selection's column
    /// order never depends on how it was spelled. An unknown id or an
    /// empty selection is an error listing every valid id.
    pub fn parse_list(list: &str) -> Result<Vec<Technique>, UnknownTechnique> {
        let unknown = |id: &str| UnknownTechnique {
            id: id.to_string(),
            valid: TABLE.iter().map(Technique::id).collect(),
        };
        let mut picked = Vec::new();
        for id in list.split(',').map(str::trim).filter(|id| !id.is_empty()) {
            picked.push(Technique::from_id(id).ok_or_else(|| unknown(id))?);
        }
        if picked.is_empty() {
            return Err(unknown(list.trim()));
        }
        Ok(Technique::canonical(&picked))
    }

    /// Canonicalize a set: table order, duplicates removed. Every
    /// evaluation consumes its technique list in this form, so column
    /// order never depends on how a selection was spelled.
    pub fn canonical(set: &[Technique]) -> Vec<Technique> {
        TABLE.iter().copied().filter(|t| set.contains(t)).collect()
    }

    /// The descriptor.
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

    /// Build the standalone estimator for `cfg` via the descriptor's
    /// factory: the per-event reference the session's readouts are
    /// tested against.
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

/// A rejected technique id, carrying every valid id for the error
/// message (the CLI prints exactly this).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownTechnique {
    /// The id that failed to resolve.
    pub id: String,
    /// Every valid id, in table order.
    pub valid: Vec<&'static str>,
}

impl std::fmt::Display for UnknownTechnique {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown technique `{}` (valid: {})", self.id, self.valid.join(", "))
    }
}

impl std::error::Error for UnknownTechnique {}

/// The techniques of `set` that share one transparent run (all but the
/// invasive ones, which perturb execution and need their own).
pub fn transparent_subset(set: &[Technique]) -> Vec<Technique> {
    set.iter().copied().filter(|t| !t.is_invasive()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_and_labels_are_unique() {
        for (i, a) in TABLE.iter().enumerate() {
            for b in &TABLE[i + 1..] {
                assert_ne!(a.id(), b.id(), "duplicate id");
                assert_ne!(a.name(), b.name(), "duplicate label");
            }
        }
    }

    #[test]
    fn every_technique_resolves_round_trip() {
        for t in Technique::all_registered() {
            let back = Technique::from_id(t.id()).expect("id resolves");
            assert_eq!(back, t);
            assert_eq!(back.name(), t.desc().label);
        }
        assert_eq!(Technique::from_id("GDP-O"), Some(Technique::GDP_O), "case-insensitive");
        assert_eq!(Technique::from_id("nope"), None);
        assert_eq!(Technique::all_registered().len(), 6);
    }

    #[test]
    fn parse_list_is_canonical_and_rejects_unknowns() {
        let set = Technique::parse_list("gdp-o, itca, gdp-o").unwrap();
        assert_eq!(set, vec![Technique::ITCA, Technique::GDP_O], "table order, deduplicated");
        let err = Technique::parse_list("gdp,wat").unwrap_err();
        assert_eq!(err.id, "wat");
        assert!(err.to_string().ends_with("valid: itca, ptca, asm, gdp, gdp-o, dief)"), "{err}");
        assert!(Technique::parse_list("").is_err(), "an empty selection is an error");
        assert!(Technique::parse_list(" , ,").is_err());
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
