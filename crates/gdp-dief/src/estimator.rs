//! The DIEF latency estimator: λ_p = L_p − I_p (paper Eq. 3).
//!
//! DIEF consumes the probe-event stream. For every completed SMS-load it
//! accumulates the shared-mode latency and the interference suffered in
//! the interconnect and memory controller; ATD verdicts upgrade
//! interference-induced LLC misses so that their memory-controller
//! residency also counts as interference. At each accounting interval the
//! per-core private latency estimate is the average latency minus the
//! average interference, clamped from below by the contention-free LLC
//! hit latency (a hardware sanity clamp).

use crate::atd::{Atd, AtdOutcome};
use gdp_core::state::{StateError, StateValue};
use gdp_sim::probe::ProbeEvent;
use gdp_sim::types::{CoreId, FxHashMap, ReqId};
use gdp_sim::SimConfig;

/// Per-interval latency estimate for one core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyEstimate {
    /// Measured average shared-mode SMS-load latency `L_p`.
    pub shared: f64,
    /// Estimated average interference per SMS-load `I_p`.
    pub interference: f64,
    /// Private-mode latency estimate `λ_p = max(L_p − I_p, floor)`.
    pub private: f64,
    /// SMS-loads observed in the interval.
    pub loads: u64,
}

#[derive(Debug, Default, Clone)]
struct CoreState {
    /// Requests flagged as interference misses by the ATD.
    intf_miss: FxHashMap<ReqId, ()>,
    /// Σ shared latency over the interval.
    lat_sum: u64,
    /// Σ interference over the interval.
    intf_sum: u64,
    /// SMS-loads completed in the interval.
    loads: u64,
    /// Per-request total interference of recently completed requests
    /// (consumed by PTCA) and whether the ATD flagged them as
    /// interference misses (consumed by ITCA); cleared every interval.
    completed_intf: FxHashMap<ReqId, (u64, bool)>,
}

/// The DIEF estimator for all cores of a CMP.
#[derive(Debug)]
pub struct Dief {
    atds: Vec<Atd>,
    cores: Vec<CoreState>,
    /// Lower clamp for λ: the uncontended shared-hit latency.
    latency_floor: f64,
}

impl Dief {
    /// Build DIEF for `cfg`, sampling `sampled_sets` LLC sets per core
    /// (the paper samples 32 \[8\]).
    pub fn new(cfg: &SimConfig, sampled_sets: usize) -> Self {
        let total_sets = cfg.llc.sets();
        // Uncontended SMS hit path: L1 + L2 lookups, ring out and back,
        // LLC lookup.
        let ring_transit =
            2.0 * (cfg.ring.hop_latency * (cfg.cores + cfg.llc_banks) as u64 / 2) as f64;
        let floor = (cfg.l1d.latency + cfg.l2.latency + cfg.llc.latency) as f64 + ring_transit;
        Dief {
            atds: (0..cfg.cores)
                .map(|_| Atd::new(total_sets, sampled_sets.min(total_sets), cfg.llc.ways))
                .collect(),
            cores: (0..cfg.cores).map(|_| CoreState::default()).collect(),
            latency_floor: floor,
        }
    }

    /// Feed one probe event.
    pub fn observe(&mut self, ev: &ProbeEvent) {
        match ev {
            ProbeEvent::LlcAccess { core, block, hit, req, .. } => {
                let atd = &mut self.atds[core.idx()];
                let verdict = atd.access(*block);
                if !*hit && verdict != AtdOutcome::Miss && verdict != AtdOutcome::Unsampled {
                    // Shared miss, private hit: interference miss.
                    self.cores[core.idx()].intf_miss.insert(*req, ());
                }
            }
            ProbeEvent::LoadL1MissDone {
                core, req, sms, latency, interference, post_llc, ..
            } if *sms => {
                self.complete_load(core.idx(), *req, *latency, interference.total(), *post_llc);
            }
            _ => {}
        }
    }

    /// Complete one SMS load (the `LoadL1MissDone` arm of `observe`).
    #[inline]
    fn complete_load(&mut self, core: usize, req: ReqId, latency: u64, intf: u64, post_llc: u64) {
        let st = &mut self.cores[core];
        let mut intf = intf;
        let was_intf_miss = st.intf_miss.remove(&req).is_some();
        if was_intf_miss {
            // The entire DRAM residency would not have occurred in
            // private mode.
            intf += post_llc;
        }
        let intf = intf.min(latency);
        st.lat_sum += latency;
        st.intf_sum += intf;
        st.loads += 1;
        st.completed_intf.insert(req, (intf, was_intf_miss));
    }

    /// Feed one interval's probe-event batch, in order.
    ///
    /// Queries *after* the whole batch ([`Dief::interference_of`],
    /// [`Dief::was_interference_miss`]) answer what they would have
    /// answered right after the event they concern: they target the
    /// completed-request table, whose records are immutable from
    /// completion to the interval reset, because request ids are
    /// globally unique and each request completes once. Every `Stall`
    /// follows the `LoadL1MissDone` it blames (the memory system ticks
    /// before the cores), and ASM reads only the record of the load that
    /// just completed. The observation plane's ITCA, PTCA and ASM
    /// counters rely on exactly that.
    pub fn observe_batch(&mut self, events: &[ProbeEvent]) {
        for ev in events {
            self.observe(ev);
        }
    }

    /// Total interference DIEF attributes to a recently completed request
    /// (used by PTCA). `None` if unknown or older than one interval.
    pub fn interference_of(&self, core: CoreId, req: ReqId) -> Option<u64> {
        self.cores[core.idx()].completed_intf.get(&req).map(|(i, _)| *i)
    }

    /// Whether the ATD flagged the completed request as an
    /// interference-induced LLC miss (ITCA's "inter-thread miss").
    pub fn was_interference_miss(&self, core: CoreId, req: ReqId) -> bool {
        self.cores[core.idx()].completed_intf.get(&req).map(|(_, m)| *m).unwrap_or(false)
    }

    /// Whether `req` was flagged an interference miss and is still pending
    /// completion (used by ITCA's inter-thread miss conditions).
    pub fn is_pending_interference_miss(&self, core: CoreId, req: ReqId) -> bool {
        self.cores[core.idx()].intf_miss.contains_key(&req)
    }

    /// Produce the interval estimate for `core` and reset its interval
    /// accumulators (ATD tags stay warm).
    pub fn interval_estimate(&mut self, core: CoreId) -> LatencyEstimate {
        let st = &mut self.cores[core.idx()];
        let (shared, interference) = if st.loads == 0 {
            (0.0, 0.0)
        } else {
            (st.lat_sum as f64 / st.loads as f64, st.intf_sum as f64 / st.loads as f64)
        };
        let private = if st.loads == 0 {
            self.latency_floor
        } else {
            (shared - interference).max(self.latency_floor)
        };
        let est = LatencyEstimate { shared, interference, private, loads: st.loads };
        st.lat_sum = 0;
        st.intf_sum = 0;
        st.loads = 0;
        st.completed_intf.clear();
        self.atds[core.idx()].reset_counters();
        est
    }

    /// Private-mode miss curve for `core` over the current interval
    /// (scaled by the sampling factor); used by the partitioning policies.
    pub fn miss_curve(&self, core: CoreId) -> Vec<u64> {
        self.atds[core.idx()].miss_curve()
    }

    /// The ATD of `core` (read access for diagnostics and policies).
    pub fn atd(&self, core: CoreId) -> &Atd {
        &self.atds[core.idx()]
    }

    /// The λ lower clamp in cycles.
    pub fn latency_floor(&self) -> f64 {
        self.latency_floor
    }

    /// Capture DIEF's complete state — per-core ATDs plus interference
    /// and λ̂ accumulators — as a positional value tree. Map contents are
    /// emitted in sorted request order so identical states give
    /// identical snapshots.
    pub fn snapshot_value(&self) -> StateValue {
        let cores = self
            .cores
            .iter()
            .map(|st| {
                let mut pending: Vec<u64> = st.intf_miss.keys().map(|r| r.0).collect();
                pending.sort_unstable();
                let mut completed: Vec<(u64, u64, bool)> =
                    st.completed_intf.iter().map(|(r, &(i, m))| (r.0, i, m)).collect();
                completed.sort_unstable();
                StateValue::List(vec![
                    StateValue::List(pending.into_iter().map(StateValue::U64).collect()),
                    StateValue::U64(st.lat_sum),
                    StateValue::U64(st.intf_sum),
                    StateValue::U64(st.loads),
                    StateValue::List(
                        completed
                            .into_iter()
                            .map(|(r, i, m)| {
                                StateValue::List(vec![
                                    StateValue::U64(r),
                                    StateValue::U64(i),
                                    StateValue::Bool(m),
                                ])
                            })
                            .collect(),
                    ),
                ])
            })
            .collect();
        StateValue::List(vec![
            StateValue::List(self.atds.iter().map(Atd::snapshot_value).collect()),
            StateValue::List(cores),
            StateValue::f64(self.latency_floor),
        ])
    }

    /// Restore DIEF from a [`Dief::snapshot_value`] tree. The core count,
    /// ATD geometry and latency floor must match this instance's.
    pub fn restore_value(&mut self, v: &StateValue) -> Result<(), StateError> {
        let f = v.fields(3)?;
        let atds = f[0].as_list()?;
        let cores = f[1].as_list()?;
        if atds.len() != self.atds.len() || cores.len() != self.cores.len() {
            return Err(StateError::ConfigMismatch("core count"));
        }
        if f[2].as_f64()?.to_bits() != self.latency_floor.to_bits() {
            return Err(StateError::ConfigMismatch("latency floor"));
        }
        for (atd, av) in self.atds.iter_mut().zip(atds) {
            atd.restore_value(av)?;
        }
        for (st, cv) in self.cores.iter_mut().zip(cores) {
            let cf = cv.fields(5)?;
            let mut intf_miss = FxHashMap::default();
            for r in cf[0].as_list()? {
                intf_miss.insert(ReqId(r.as_u64()?), ());
            }
            let mut completed_intf = FxHashMap::default();
            for entry in cf[4].as_list()? {
                let ef = entry.fields(3)?;
                completed_intf.insert(ReqId(ef[0].as_u64()?), (ef[1].as_u64()?, ef[2].as_bool()?));
            }
            st.intf_miss = intf_miss;
            st.lat_sum = cf[1].as_u64()?;
            st.intf_sum = cf[2].as_u64()?;
            st.loads = cf[3].as_u64()?;
            st.completed_intf = completed_intf;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_sim::mem::Interference;

    fn cfg() -> SimConfig {
        SimConfig::scaled(2)
    }

    fn done_event(
        core: CoreId,
        req: u64,
        latency: u64,
        ring: u64,
        mc_queue: u64,
        post_llc: u64,
    ) -> ProbeEvent {
        ProbeEvent::LoadL1MissDone {
            core,
            req: ReqId(req),
            block: 0,
            cycle: 1000,
            sms: true,
            latency,
            interference: Interference { ring, mc_queue, mc_row: 0 },
            llc_hit: Some(post_llc == 0),
            post_llc,
        }
    }

    #[test]
    fn lambda_is_shared_minus_interference() {
        let mut d = Dief::new(&cfg(), 32);
        d.observe(&done_event(CoreId(0), 1, 300, 20, 80, 150));
        d.observe(&done_event(CoreId(0), 2, 200, 0, 0, 150));
        let est = d.interval_estimate(CoreId(0));
        assert_eq!(est.loads, 2);
        assert!((est.shared - 250.0).abs() < 1e-9);
        assert!((est.interference - 50.0).abs() < 1e-9);
        assert!((est.private - 200.0).abs() < 1e-9);
    }

    #[test]
    fn interval_estimate_resets_accumulators() {
        let mut d = Dief::new(&cfg(), 32);
        d.observe(&done_event(CoreId(0), 1, 300, 50, 0, 0));
        let _ = d.interval_estimate(CoreId(0));
        let est = d.interval_estimate(CoreId(0));
        assert_eq!(est.loads, 0);
        assert_eq!(est.private, d.latency_floor());
    }

    #[test]
    fn atd_detected_interference_miss_adds_dram_residency() {
        let mut d = Dief::new(&cfg(), 32);
        let core = CoreId(0);
        let block = 0u64; // set 0 is sampled

        // Prime the ATD: the block is private-mode resident.
        d.observe(&ProbeEvent::LlcAccess { core, block, cycle: 1, hit: false, req: ReqId(1) });
        d.observe(&done_event(core, 1, 400, 0, 0, 200));
        let _ = d.interval_estimate(core);
        // Second access: shared-mode miss (evicted by a rival), ATD hit.
        d.observe(&ProbeEvent::LlcAccess { core, block, cycle: 2, hit: false, req: ReqId(2) });
        assert!(d.is_pending_interference_miss(core, ReqId(2)));
        d.observe(&done_event(core, 2, 400, 10, 0, 200));
        let est = d.interval_estimate(core);
        // interference = 10 (ring) + 200 (DRAM residency of the
        // interference miss).
        assert!((est.interference - 210.0).abs() < 1e-9, "{est:?}");
    }

    #[test]
    fn shared_hits_are_not_interference_misses() {
        let mut d = Dief::new(&cfg(), 32);
        let core = CoreId(0);
        d.observe(&ProbeEvent::LlcAccess { core, block: 0, cycle: 1, hit: true, req: ReqId(1) });
        assert!(!d.is_pending_interference_miss(core, ReqId(1)));
    }

    #[test]
    fn lambda_never_drops_below_floor() {
        let mut d = Dief::new(&cfg(), 32);
        // Absurd interference (more than latency) must clamp.
        d.observe(&done_event(CoreId(0), 1, 100, 90, 90, 0));
        let est = d.interval_estimate(CoreId(0));
        assert!(est.private >= d.latency_floor());
    }

    #[test]
    fn per_request_interference_is_queryable_for_ptca() {
        let mut d = Dief::new(&cfg(), 32);
        d.observe(&done_event(CoreId(0), 7, 300, 25, 35, 0));
        assert_eq!(d.interference_of(CoreId(0), ReqId(7)), Some(60));
        assert_eq!(d.interference_of(CoreId(0), ReqId(8)), None);
        let _ = d.interval_estimate(CoreId(0));
        assert_eq!(d.interference_of(CoreId(0), ReqId(7)), None, "cleared per interval");
    }

    #[test]
    fn pms_loads_are_ignored() {
        let mut d = Dief::new(&cfg(), 32);
        d.observe(&ProbeEvent::LoadL1MissDone {
            core: CoreId(0),
            req: ReqId(1),
            block: 0,
            cycle: 5,
            sms: false,
            latency: 12,
            interference: Interference::default(),
            llc_hit: None,
            post_llc: 0,
        });
        let est = d.interval_estimate(CoreId(0));
        assert_eq!(est.loads, 0);
    }
}
