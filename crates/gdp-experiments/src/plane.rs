//! The observation plane: the paper's dataflow (§IV) as the one place a
//! session's probe stream goes.
//!
//! Each core has one GDP unit, which yields CPL and overlap, and one DIEF
//! yields λ̂ plus the per-stall interference records ITCA and PTCA read.
//! The plane feeds each of these observers exactly once per interval, in
//! one fixed order ([`ObservationPlane::observe`]), and at the boundary
//! harvests one [`CoreSummary`] per core ([`ObservationPlane::harvest`]).
//! GDP, GDP-O, ITCA, PTCA and DIEF-only are pure [`Readout`]s of that
//! summary and the boundary measurement: they differ only in how they
//! combine the same values, so selecting both members of a pair costs one
//! observer, not two. ASM is the one stateful technique. It keeps its own
//! DIEF and its in-order feed, because it reads DIEF mid-stream.
//!
//! Checkpoints hold one state per observer (`gdp-units`, `dief`, and the
//! stateful technique's id, `asm`), and exactly the observers the plane's
//! readouts need.

use gdp_accounting::{itca, ptca};
use gdp_core::state::{EstimatorState, StateError, StateValue};
use gdp_core::{
    CoreSummary, GdpUnit, IntervalMeasurement, Observer, PrivateEstimate, PrivateModeEstimator,
    Readout, TechniqueConfig,
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
/// DIEF and its per-stall queries, `session.observe` around the GDP
/// units and any stateful technique.
pub struct FeedSpans {
    /// `session.dief`.
    pub dief: SpanHandle,
    /// `session.observe`.
    pub observe: SpanHandle,
}

/// The DIEF and the per-core accumulators its per-stall queries fill.
struct DiefObserver {
    dief: Dief,
    /// Whether a readout reads the accumulators. A DIEF that serves only
    /// as a live session's λ̂ source skips the queries.
    queried: bool,
    /// ITCA's discounted stall cycles per core.
    discounted: Vec<u64>,
    /// PTCA's σ̂ per core.
    sigma: Vec<f64>,
}

/// How one technique's estimate is produced.
enum Slot {
    Readout(Readout),
    Stateful(Box<dyn PrivateModeEstimator>),
}

/// The observers of one session plus its techniques' readouts (see the
/// module docs).
pub struct ObservationPlane {
    techniques: Vec<Technique>,
    slots: Vec<Slot>,
    units: Option<Vec<GdpUnit>>,
    dief: Option<DiefObserver>,
}

impl ObservationPlane {
    /// A plane for a (canonicalized) technique set. It holds GDP units
    /// when a readout reads them, and a DIEF when a readout reads it or
    /// when `lambda_source` asks for λ̂ (every live session does).
    pub fn new(
        techniques: &[Technique],
        cfg: &TechniqueConfig,
        lambda_source: bool,
    ) -> ObservationPlane {
        let techniques = Technique::canonical(techniques);
        let reads = |o: Observer| {
            techniques.iter().any(|t| t.desc().readout.is_some_and(|r| r.reads.contains(&o)))
        };
        let n = cfg.cores();
        let units = reads(Observer::GdpUnits)
            .then(|| (0..n).map(|_| GdpUnit::new(cfg.prb_entries)).collect());
        let queried = reads(Observer::Dief);
        let dief = (queried || lambda_source).then(|| DiefObserver {
            dief: Dief::new(&cfg.sim, cfg.sampled_sets),
            queried,
            discounted: vec![0; n],
            sigma: vec![0.0; n],
        });
        let slots = techniques
            .iter()
            .map(|t| match t.desc().readout {
                Some(r) => Slot::Readout(r),
                None => Slot::Stateful(t.build(cfg)),
            })
            .collect();
        ObservationPlane { techniques, slots, units, dief }
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
    /// 1. DIEF, through its set-partitioned batch path;
    /// 2. the ITCA and PTCA per-`Stall` queries, hoisted after the batch
    ///    (exact: see [`Dief::observe_batch`]);
    /// 3. the GDP units;
    /// 4. each stateful technique, in order.
    pub fn observe(&mut self, events: &[ProbeEvent], spans: Option<&FeedSpans>) {
        if let Some(d) = &mut self.dief {
            let _g = spans.map(|s| s.dief.enter());
            d.dief.observe_batch(events);
            if d.queried {
                for ev in events {
                    if let Some((core, cycles)) = itca::stall_discount(&d.dief, ev) {
                        d.discounted[core.idx()] += cycles;
                    }
                    if let Some((core, sigma)) = ptca::stall_sigma(&d.dief, ev) {
                        d.sigma[core.idx()] += sigma;
                    }
                }
            }
        }
        let _g = spans.map(|s| s.observe.enter());
        if let Some(units) = &mut self.units {
            for ev in events {
                if let Some(unit) = ev.core().and_then(|c| units.get_mut(c.idx())) {
                    unit.observe(ev);
                }
            }
        }
        for slot in &mut self.slots {
            if let Slot::Stateful(e) = slot {
                e.observe_batch(events);
            }
        }
    }

    /// Close `core`'s interval: take the GDP unit's CPL, then its average
    /// overlap, then the DIEF accumulators, then DIEF's interval estimate.
    /// Returns the summary and DIEF's λ̂, when the plane holds a DIEF.
    pub fn harvest(&mut self, core: CoreId) -> (CoreSummary, Option<f64>) {
        let c = core.idx();
        let mut s = CoreSummary::default();
        if let Some(units) = &mut self.units {
            s.cpl = units[c].take_cpl();
            s.overlap = units[c].take_average_overlap();
        }
        let lambda = self.dief.as_mut().map(|d| {
            s.discounted = std::mem::take(&mut d.discounted[c]);
            s.sigma = std::mem::take(&mut d.sigma[c]);
            d.dief.interval_estimate(core).private
        });
        (s, lambda)
    }

    /// Technique `i`'s estimate for `core`: its readout of `summary` and
    /// `m`, or the stateful technique's own estimate.
    pub(crate) fn estimate(
        &mut self,
        i: usize,
        core: CoreId,
        summary: &CoreSummary,
        m: &IntervalMeasurement,
    ) -> PrivateEstimate {
        match &mut self.slots[i] {
            Slot::Readout(r) => (r.estimate)(summary, m),
            Slot::Stateful(e) => e.estimate(core, m),
        }
    }

    /// Snapshot every observer the readouts need, plus each stateful
    /// technique, keyed by observer id.
    pub(crate) fn snapshot(&self) -> Vec<(String, EstimatorState)> {
        let mut states = Vec::new();
        if let Some(units) = &self.units {
            let tree = StateValue::List(units.iter().map(GdpUnit::snapshot_value).collect());
            states.push((GDP_UNITS.to_string(), EstimatorState::new(GDP_UNITS, tree)));
        }
        if let Some(d) = self.dief.as_ref().filter(|d| d.queried) {
            let tree = StateValue::List(vec![
                d.dief.snapshot_value(),
                StateValue::List(d.discounted.iter().map(|&v| StateValue::U64(v)).collect()),
                StateValue::List(d.sigma.iter().map(|&v| StateValue::f64(v)).collect()),
            ]);
            states.push((DIEF.to_string(), EstimatorState::new(DIEF, tree)));
        }
        for (t, slot) in self.techniques.iter().zip(&self.slots) {
            if let Slot::Stateful(e) = slot {
                states.push((t.id().to_string(), e.snapshot()));
            }
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
        if let Some(d) = self.dief.as_mut().filter(|d| d.queried) {
            let f = lookup(DIEF)?.check(DIEF)?.fields(3)?;
            let discounted: Vec<u64> =
                f[1].as_list()?.iter().map(StateValue::as_u64).collect::<Result<_, _>>()?;
            let sigma: Vec<f64> =
                f[2].as_list()?.iter().map(StateValue::as_f64).collect::<Result<_, _>>()?;
            if discounted.len() != d.discounted.len() || sigma.len() != d.sigma.len() {
                return Err(StateError::ConfigMismatch("core count"));
            }
            d.dief.restore_value(&f[0])?;
            d.discounted = discounted;
            d.sigma = sigma;
        }
        for (t, slot) in self.techniques.iter().zip(&mut self.slots) {
            if let Slot::Stateful(e) = slot {
                e.restore(lookup(t.id())?)?;
            }
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
        assert_eq!(ids(&plane(&Technique::all_registered(), false)), ["gdp-units", "dief", "asm"]);
    }
}
