//! The observation plane: the paper's dataflow (§IV) as the one place a
//! session's probe stream goes.
//!
//! Each core has one GDP unit, which yields CPL and overlap, and one DIEF
//! yields λ̂ plus the per-load interference records ITCA, PTCA and ASM
//! read. The plane feeds each of these observers exactly once per
//! interval, in one fixed order ([`ObservationPlane::observe`]), and at
//! the boundary harvests one [`CoreSummary`] per core
//! ([`ObservationPlane::harvest`]). Every technique is a pure
//! [`Readout`](gdp_core::Readout) of that summary and the boundary
//! measurement: techniques differ only in how they combine the same
//! values, so selecting both members of a pair costs one observer, not
//! two. The DIEF's three counter families
//! (ITCA's discounts, PTCA's σ̂ and ASM's epoch counts) are each kept
//! only when a readout reads them.
//!
//! Checkpoints hold one state per observer (`gdp-units` and `dief`), and
//! exactly the observers the plane's readouts need. Every checkpoint is
//! taken at a boundary, where the harvest has just emptied the counter
//! families, so the `dief` state is DIEF's own.

use gdp_accounting::asm::{self, EpochCounts};
use gdp_accounting::{itca, ptca};
use gdp_core::state::{EstimatorState, StateError, StateValue};
use gdp_core::{
    CoreSummary, GdpUnit, IntervalMeasurement, Observer, PrivateEstimate, TechniqueConfig,
};
use gdp_dief::Dief;
use gdp_sim::probe::ProbeEvent;
use gdp_sim::types::CoreId;
use gdp_telemetry::SpanHandle;
use gdp_trace::StateCheckpoint;

use crate::techniques::Technique;

/// Checkpoint id of the GDP units' state.
const GDP_UNITS: &str = "gdp-units";
/// Checkpoint id of the DIEF observer's state.
const DIEF: &str = "dief";

/// Wall-clock spans around the plane's feeds: `session.dief` around the
/// DIEF and its counter families' pass, `session.observe` around the GDP
/// units.
pub struct FeedSpans {
    /// `session.dief`.
    pub dief: SpanHandle,
    /// `session.observe`.
    pub observe: SpanHandle,
}

/// The DIEF and the per-core counter families its post-batch pass fills,
/// each present only when a readout reads it.
struct DiefObserver {
    dief: Dief,
    /// ITCA's discounted stall cycles.
    discounted: Option<Vec<u64>>,
    /// PTCA's σ̂.
    sigma: Option<Vec<f64>>,
    /// ASM's epoch counts.
    epochs: Option<Vec<EpochCounts>>,
}

impl DiefObserver {
    /// Whether a readout reads any counter family. A DIEF that serves
    /// only as a live session's λ̂ source has none and is not
    /// checkpointed.
    fn queried(&self) -> bool {
        self.discounted.is_some() || self.sigma.is_some() || self.epochs.is_some()
    }

    /// Count one event of a batch DIEF has already taken into every
    /// family kept. Exact after the batch: each family reads only DIEF's
    /// records of completed loads (see [`Dief::observe_batch`]).
    fn count(&mut self, ev: &ProbeEvent) {
        if let Some(discounted) = &mut self.discounted {
            if let Some((core, cycles)) = itca::stall_discount(&self.dief, ev) {
                discounted[core.idx()] += cycles;
            }
        }
        if let Some(sigma) = &mut self.sigma {
            if let Some((core, s)) = ptca::stall_sigma(&self.dief, ev) {
                sigma[core.idx()] += s;
            }
        }
        if let Some(epochs) = &mut self.epochs {
            asm::count_event(epochs, &self.dief, asm::DEFAULT_EPOCH_CYCLES, ev);
        }
    }
}

/// The observers of one session plus its techniques' readouts (see the
/// module docs).
pub struct ObservationPlane {
    techniques: Vec<Technique>,
    units: Option<Vec<GdpUnit>>,
    dief: Option<DiefObserver>,
}

impl ObservationPlane {
    /// A plane for a (canonicalized) technique set. It holds GDP units
    /// when a readout reads them, each DIEF counter family a readout
    /// reads, and a DIEF when it keeps a family or when `lambda_source`
    /// asks for λ̂ (every live session does).
    pub fn new(
        techniques: &[Technique],
        cfg: &TechniqueConfig,
        lambda_source: bool,
    ) -> ObservationPlane {
        let techniques = Technique::canonical(techniques);
        let reads = |o: Observer| techniques.iter().any(|t| t.desc().readout.reads.contains(&o));
        let n = cfg.cores();
        let units = reads(Observer::GdpUnits)
            .then(|| (0..n).map(|_| GdpUnit::new(cfg.prb_entries)).collect());
        let discounted = reads(Observer::Discounts).then(|| vec![0; n]);
        let sigma = reads(Observer::Sigma).then(|| vec![0.0; n]);
        let epochs = reads(Observer::Epochs).then(|| vec![EpochCounts::default(); n]);
        let queried = discounted.is_some() || sigma.is_some() || epochs.is_some();
        let dief = (queried || lambda_source).then(|| DiefObserver {
            dief: Dief::new(&cfg.sim, cfg.sampled_sets),
            discounted,
            sigma,
            epochs,
        });
        ObservationPlane { techniques, units, dief }
    }

    /// The canonical technique set (estimate order).
    pub(crate) fn techniques(&self) -> &[Technique] {
        &self.techniques
    }

    /// The plane's DIEF, when it holds one (the partitioning policies
    /// read its miss curves).
    pub(crate) fn dief(&self) -> Option<&Dief> {
        self.dief.as_ref().map(|d| &d.dief)
    }

    /// Feed one interval's probe events to every observer, once each, in
    /// this fixed order:
    ///
    /// 1. DIEF, through its batch path;
    /// 2. the counter families' per-event reads of DIEF's records, hoisted
    ///    after the batch (exact: see [`Dief::observe_batch`]);
    /// 3. the GDP units.
    pub fn observe(&mut self, events: &[ProbeEvent], spans: Option<&FeedSpans>) {
        if let Some(d) = &mut self.dief {
            let _g = spans.map(|s| s.dief.enter());
            d.dief.observe_batch(events);
            if d.queried() {
                for ev in events {
                    d.count(ev);
                }
            }
        }
        let _g = spans.map(|s| s.observe.enter());
        if let Some(units) = &mut self.units {
            for ev in events {
                if let Some(unit) = units.get_mut(ev.core().idx()) {
                    unit.observe(ev);
                }
            }
        }
    }

    /// Close `core`'s interval: take the GDP unit's CPL, then its average
    /// overlap, then the counter families, then DIEF's interval estimate.
    /// Returns the summary and DIEF's λ̂, when the plane holds a DIEF.
    pub fn harvest(&mut self, core: CoreId) -> (CoreSummary, Option<f64>) {
        let c = core.idx();
        let mut s = CoreSummary::default();
        if let Some(units) = &mut self.units {
            s.cpl = units[c].take_cpl();
            s.overlap = units[c].take_average_overlap();
        }
        let lambda = self.dief.as_mut().map(|d| {
            if let Some(discounted) = &mut d.discounted {
                s.discounted = std::mem::take(&mut discounted[c]);
            }
            if let Some(sigma) = &mut d.sigma {
                s.sigma = std::mem::take(&mut sigma[c]);
            }
            if let Some(epochs) = &mut d.epochs {
                let e = std::mem::take(&mut epochs[c]);
                s.llc_accesses = e.llc;
                s.llc_accesses_own = e.llc_own;
                s.intf_residency_own = e.intf_own;
                s.rotation = epochs.len() as u64;
            }
            d.dief.interval_estimate(core).private
        });
        (s, lambda)
    }

    /// Technique `i`'s estimate: its readout of `summary` and `m`.
    pub(crate) fn estimate(
        &self,
        i: usize,
        summary: &CoreSummary,
        m: &IntervalMeasurement,
    ) -> PrivateEstimate {
        (self.techniques[i].desc().readout.estimate)(summary, m)
    }

    /// Snapshot every observer the readouts need, keyed by observer id.
    pub(crate) fn snapshot(&self) -> Vec<(String, EstimatorState)> {
        let mut states = Vec::new();
        if let Some(units) = &self.units {
            let tree = StateValue::List(units.iter().map(GdpUnit::snapshot_value).collect());
            states.push((GDP_UNITS.to_string(), EstimatorState::new(GDP_UNITS, tree)));
        }
        if let Some(d) = self.dief.as_ref().filter(|d| d.queried()) {
            states.push((DIEF.to_string(), EstimatorState::new(DIEF, d.dief.snapshot_value())));
        }
        states
    }

    /// Restore every observer [`ObservationPlane::snapshot`] would save
    /// from `cp`. Fails, leaving the plane unfit for bit-exact work until
    /// re-restored or rebuilt, when `cp` lacks one of them or a state
    /// does not fit this configuration.
    pub(crate) fn restore(&mut self, cp: &StateCheckpoint) -> Result<(), StateError> {
        let lookup = |id: &str| {
            cp.state(id).ok_or(StateError::Malformed("checkpoint lacks an observer's state"))
        };
        if let Some(units) = &mut self.units {
            let list = lookup(GDP_UNITS)?.check(GDP_UNITS)?.as_list()?;
            if list.len() != units.len() {
                return Err(StateError::ConfigMismatch("core count"));
            }
            for (unit, v) in units.iter_mut().zip(list) {
                unit.restore_value(v)?;
            }
        }
        if let Some(d) = self.dief.as_mut().filter(|d| d.queried()) {
            d.dief.restore_value(lookup(DIEF)?.check(DIEF)?)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;

    fn plane(set: &[Technique], live: bool) -> ObservationPlane {
        ObservationPlane::new(set, &ExperimentConfig::tiny(2).technique_config(), live)
    }

    #[test]
    fn observers_follow_the_readouts() {
        let ids = |p: &ObservationPlane| -> Vec<String> {
            p.snapshot().into_iter().map(|(id, _)| id).collect()
        };
        assert_eq!(ids(&plane(&[Technique::GDP, Technique::GDP_O], false)), ["gdp-units"]);
        assert_eq!(ids(&plane(&[Technique::ITCA, Technique::PTCA], false)), ["dief"]);
        assert!(ids(&plane(&[Technique::DIEF], false)).is_empty());
        assert!(plane(&[Technique::DIEF], false).dief().is_none());
        // A live λ̂ source holds a DIEF but checkpoints it only when a
        // readout needs it.
        let live = plane(&[Technique::GDP], true);
        assert!(live.dief().is_some());
        assert_eq!(ids(&live), ["gdp-units"]);
        assert_eq!(ids(&plane(&Technique::all_registered(), false)), ["gdp-units", "dief"]);
        // A live ASM session feeds one DIEF, which supplies λ̂ and keeps
        // ASM's counters alone.
        let asm = plane(&[Technique::ASM], true);
        assert_eq!(ids(&asm), ["dief"]);
        let d = asm.dief.as_ref().expect("one DIEF");
        assert!(d.epochs.is_some() && d.discounted.is_none() && d.sigma.is_none());
        let itca = plane(&[Technique::ITCA], false);
        let d = itca.dief.as_ref().expect("one DIEF");
        assert!(d.discounted.is_some() && d.sigma.is_none() && d.epochs.is_none());
    }
}
