//! The per-core GDP hardware unit: PRB + PCB + CPL estimation
//! (paper §IV-A, Fig. 2, Algorithms 1–3).
//!
//! The software model is semantically identical to the paper's fixed-size
//! hardware buffer with newest/oldest pointers: the PRB holds at most
//! `capacity` pending requests, evicting the *oldest* when full
//! (Algorithm 1), and the PCB tracks the commit period in progress with
//! its depth and child set (the hardware PCB's started-at and stalled-at
//! timestamps feed no estimate, so the model keeps neither). Overlap
//! cycles (GDP-O) are accumulated from the stall-span complement —
//! exactly the value the paper's per-request overlap counters would hold.

use std::collections::VecDeque;

use crate::state::{StateError, StateValue};
use gdp_sim::probe::{ProbeEvent, StallCause};
use gdp_sim::types::{Addr, Cycle, FxHashMap};

#[derive(Debug, Clone)]
struct PrbEntry {
    uid: u64,
    addr: Addr,
    depth: u64,
    issued_at: Cycle,
    completed: bool,
    completed_at: Cycle,
}

/// The commit period in progress (the paper's PCB register).
#[derive(Debug, Clone, Default)]
struct Pcb {
    depth: u64,
    /// Children: pending loads issued during this commit period (the
    /// paper's bit vector over PRB slots; here a uid list).
    children: Vec<u64>,
}

/// Per-core GDP accounting unit.
#[derive(Debug)]
pub struct GdpUnit {
    capacity: usize,
    entries: VecDeque<PrbEntry>,
    by_addr: FxHashMap<Addr, u64>,
    pcb: Pcb,
    next_uid: u64,
    // ---- GDP-O overlap measurement (per interval) ----
    stall_spans: Vec<(Cycle, Cycle)>,
    sms_spans: Vec<(Cycle, Cycle)>,
    /// Swap buffer for the PCB child list, so completing a commit period
    /// never reallocates (never snapshot state, always empty between
    /// calls).
    children_scratch: Vec<u64>,
    // ---- statistics ----
    /// PRB evictions due to capacity (diagnostics; §IV-A argues these are
    /// harmless because the oldest un-stalled load rarely grows the CPL).
    pub evictions: u64,
}

impl GdpUnit {
    /// Create a unit with `capacity` PRB entries (the paper uses 32).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "PRB needs at least one entry");
        GdpUnit {
            capacity,
            entries: VecDeque::with_capacity(capacity.min(1024)),
            by_addr: FxHashMap::default(),
            pcb: Pcb::default(),
            next_uid: 0,
            stall_spans: Vec::new(),
            sms_spans: Vec::new(),
            children_scratch: Vec::new(),
            evictions: 0,
        }
    }

    /// Number of valid PRB entries.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Current PCB depth — the CPL at the time the current commit period
    /// started — without resetting.
    pub fn peek_cpl(&self) -> u64 {
        self.pcb.depth
    }

    /// Feed one probe event (only the core's own events should be passed).
    pub fn observe(&mut self, ev: &ProbeEvent) {
        match ev {
            ProbeEvent::LoadL1Miss { block, cycle, .. } => self.load_issued(*block, *cycle),
            ProbeEvent::LoadL1MissDone { block, cycle, sms, .. } => {
                self.load_completed(*block, *cycle, *sms);
            }
            ProbeEvent::Stall { start, end, cause, blocking_block, .. } => {
                self.stall_spans.push((*start, *end));
                if *cause == StallCause::Load {
                    if let Some(b) = blocking_block {
                        self.cpu_resumed(*b, *start);
                    }
                }
            }
            _ => {}
        }
    }

    /// Algorithm 1: a load request missed the L1.
    fn load_issued(&mut self, addr: Addr, now: Cycle) {
        if self.entries.len() >= self.capacity {
            // Invalidate the oldest entry (wrap-around of the newest valid
            // pointer onto the oldest in the paper's ring buffer).
            if let Some(old) = self.entries.pop_front() {
                self.forget(&old);
                self.evictions += 1;
            }
        }
        let uid = self.next_uid;
        self.next_uid += 1;
        self.entries.push_back(PrbEntry {
            uid,
            addr,
            depth: 0,
            issued_at: now,
            completed: false,
            completed_at: 0,
        });
        self.by_addr.insert(addr, uid);
        // Child of the pending commit period.
        self.pcb.children.push(uid);
    }

    /// Algorithm 2: an L1 miss completed.
    fn load_completed(&mut self, addr: Addr, now: Cycle, sms: bool) {
        let Some(&uid) = self.by_addr.get(&addr) else { return };
        if sms {
            let mut issued_at = now;
            if let Some(e) = self.entry_mut(uid) {
                e.completed = true;
                e.completed_at = now;
                issued_at = e.issued_at;
            }
            self.sms_spans.push((issued_at, now));
        } else {
            // PMS-load: invalidate and remove the PCB pointer.
            self.remove(uid);
        }
    }

    /// Algorithm 3: the CPU resumed after a commit stall, begun at
    /// `stall_start`, on the load at `addr`.
    fn cpu_resumed(&mut self, addr: Addr, stall_start: Cycle) {
        let Some(&s_uid) = self.by_addr.get(&addr) else {
            // PMS-load or evicted: assume a PMS stall, no CPL change.
            return;
        };

        // ---- Step 1: complete commit period l ----
        //
        // Both steps batch-remove with a single retain-compaction pass
        // (k separate removals would each shift the deque), and skip the
        // child-list pruning a one-off removal does: the child list is
        // either emptied right below (step 1) or already empty (step 2),
        // and a stale uid is inert — uids are never reused, so it can
        // only fail every later lookup.
        let mut l_depth = self.pcb.depth;
        for e in &self.entries {
            if e.completed && e.completed_at < stall_start && e.depth > l_depth {
                l_depth = e.depth;
            }
        }
        // Capture s's depth before any invalidation: the hardware clears
        // valid bits but the Depth field stays readable for step 2.
        let mut s_depth = self.entry(s_uid).map(|e| e.depth).unwrap_or(0);
        let s_is_child = self.pcb.children.contains(&s_uid);
        let by_addr = &mut self.by_addr;
        self.entries.retain(|e| {
            let gone = e.completed && e.completed_at < stall_start;
            if gone && by_addr.get(&e.addr) == Some(&e.uid) {
                by_addr.remove(&e.addr);
            }
            !gone
        });
        // Swap, not take: both buffers keep their capacity forever.
        std::mem::swap(&mut self.pcb.children, &mut self.children_scratch);
        debug_assert!(self.pcb.children.is_empty());
        for c in 0..self.children_scratch.len() {
            let uid = self.children_scratch[c];
            if let Some(e) = self.entry_mut(uid) {
                e.depth = l_depth + 1;
            }
        }
        self.children_scratch.clear();
        if s_is_child {
            s_depth = l_depth + 1;
        }

        // ---- Step 2: initialize commit period p ----
        let mut p_depth = s_depth;
        for e in &self.entries {
            if e.completed && e.depth > p_depth {
                p_depth = e.depth;
            }
        }
        let by_addr = &mut self.by_addr;
        self.entries.retain(|e| {
            if e.completed {
                if by_addr.get(&e.addr) == Some(&e.uid) {
                    by_addr.remove(&e.addr);
                }
                false
            } else {
                true
            }
        });
        self.pcb.depth = p_depth;
        debug_assert!(self.pcb.children.is_empty());
    }

    /// Retrieve the CPL for the ending interval and rebase the unit:
    /// depths are rebased so the next interval's CPL starts from zero.
    pub fn take_cpl(&mut self) -> u64 {
        let cpl = self.pcb.depth;
        self.pcb.depth = 0;
        for e in &mut self.entries {
            e.depth = e.depth.saturating_sub(cpl);
        }
        cpl
    }

    /// Average overlap `O_p` for the ending interval: mean cycles the CPU
    /// was committing (not stalled) while each completed SMS-load was
    /// pending. Clears the interval's span records.
    pub fn take_average_overlap(&mut self) -> f64 {
        // In place, clearing (not taking) at the end: the span buffers
        // keep their capacity across intervals.
        self.stall_spans.sort_unstable();
        let stalls = &self.stall_spans;
        let spans = &self.sms_spans;
        let mut total = 0u64;
        for &(issue, done) in spans {
            let mut stalled = 0u64;
            // A core's stall spans are disjoint, so after the sort both
            // endpoints are increasing and the spans ending at or before
            // `issue` form a prefix: skip it in O(log S) instead of
            // rescanning it for every SMS span. The in-loop guard keeps
            // the summation identical even for degenerate span lists.
            let first = stalls.partition_point(|&(_, e)| e <= issue);
            for &(s, e) in &stalls[first..] {
                if e <= issue {
                    continue;
                }
                if s >= done {
                    break;
                }
                stalled += e.min(done) - s.max(issue);
            }
            let window = done - issue;
            total += window.saturating_sub(stalled);
        }
        let n = spans.len() as f64;
        self.stall_spans.clear();
        self.sms_spans.clear();
        if n == 0.0 {
            0.0
        } else {
            total as f64 / n
        }
    }

    // ---- helpers -----------------------------------------------------
    //
    // Uids are allocated monotonically and the PRB only ever appends at
    // the back, so `entries` is always sorted by uid — lookups are binary
    // searches instead of linear scans (`restore_value` rejects trees
    // violating the invariant).

    fn position(&self, uid: u64) -> Option<usize> {
        self.entries.binary_search_by(|e| e.uid.cmp(&uid)).ok()
    }

    fn entry(&self, uid: u64) -> Option<&PrbEntry> {
        self.position(uid).map(|p| &self.entries[p])
    }

    fn entry_mut(&mut self, uid: u64) -> Option<&mut PrbEntry> {
        self.position(uid).map(|p| &mut self.entries[p])
    }

    fn remove(&mut self, uid: u64) {
        if let Some(pos) = self.position(uid) {
            let e = self.entries.remove(pos).expect("position valid");
            self.forget(&e);
        }
    }

    /// Drop bookkeeping references to an entry leaving the PRB.
    fn forget(&mut self, e: &PrbEntry) {
        self.forget_addr(e);
        self.pcb.children.retain(|&u| u != e.uid);
    }

    /// The address-map half of [`GdpUnit::forget`], for removal paths
    /// where the child list is about to be emptied anyway.
    fn forget_addr(&mut self, e: &PrbEntry) {
        if self.by_addr.get(&e.addr) == Some(&e.uid) {
            self.by_addr.remove(&e.addr);
        }
    }

    // ---- snapshot / restore ------------------------------------------

    /// Capture the unit's complete state as a positional value tree.
    ///
    /// `by_addr` is serialized explicitly (in sorted address order, so
    /// identical states give identical snapshots): it is *not*
    /// reconstructible from the PRB entries, because `GdpUnit::forget`
    /// only clears a mapping that still points at the departing uid —
    /// an address re-issued after an eviction keeps the newer mapping.
    pub fn snapshot_value(&self) -> StateValue {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                StateValue::List(vec![
                    StateValue::U64(e.uid),
                    StateValue::U64(e.addr),
                    StateValue::U64(e.depth),
                    StateValue::U64(e.issued_at),
                    StateValue::Bool(e.completed),
                    StateValue::U64(e.completed_at),
                ])
            })
            .collect();
        let mut by_addr: Vec<(Addr, u64)> = self.by_addr.iter().map(|(&a, &u)| (a, u)).collect();
        by_addr.sort_unstable();
        let by_addr = by_addr
            .into_iter()
            .map(|(a, u)| StateValue::List(vec![StateValue::U64(a), StateValue::U64(u)]))
            .collect();
        let pcb = StateValue::List(vec![
            StateValue::U64(self.pcb.depth),
            StateValue::List(self.pcb.children.iter().map(|&u| StateValue::U64(u)).collect()),
        ]);
        let spans = |v: &[(Cycle, Cycle)]| {
            StateValue::List(
                v.iter()
                    .map(|&(s, e)| StateValue::List(vec![StateValue::U64(s), StateValue::U64(e)]))
                    .collect(),
            )
        };
        StateValue::List(vec![
            StateValue::U64(self.capacity as u64),
            StateValue::List(entries),
            StateValue::List(by_addr),
            pcb,
            StateValue::U64(self.next_uid),
            spans(&self.stall_spans),
            spans(&self.sms_spans),
            StateValue::U64(self.evictions),
        ])
    }

    /// Restore the unit from a [`GdpUnit::snapshot_value`] tree.
    pub fn restore_value(&mut self, v: &StateValue) -> Result<(), StateError> {
        let f = v.fields(8)?;
        if f[0].as_u64()? != self.capacity as u64 {
            return Err(StateError::ConfigMismatch("PRB capacity"));
        }
        let mut entries = VecDeque::new();
        for e in f[1].as_list()? {
            let ef = e.fields(6)?;
            entries.push_back(PrbEntry {
                uid: ef[0].as_u64()?,
                addr: ef[1].as_u64()?,
                depth: ef[2].as_u64()?,
                issued_at: ef[3].as_u64()?,
                completed: ef[4].as_bool()?,
                completed_at: ef[5].as_u64()?,
            });
        }
        if entries.len() > self.capacity {
            return Err(StateError::Malformed("PRB overflow"));
        }
        // Uid-sorted lookups rely on the append-only order a live unit
        // always produces; reject hand-edited trees that break it.
        if entries.iter().zip(entries.iter().skip(1)).any(|(a, b)| a.uid >= b.uid) {
            return Err(StateError::Malformed("PRB entries out of uid order"));
        }
        let mut by_addr = FxHashMap::default();
        for pair in f[2].as_list()? {
            let pf = pair.fields(2)?;
            by_addr.insert(pf[0].as_u64()?, pf[1].as_u64()?);
        }
        let pf = f[3].fields(2)?;
        let pcb = Pcb {
            depth: pf[0].as_u64()?,
            children: pf[1].as_list()?.iter().map(|c| c.as_u64()).collect::<Result<_, _>>()?,
        };
        let spans = |v: &StateValue| -> Result<Vec<(Cycle, Cycle)>, StateError> {
            v.as_list()?
                .iter()
                .map(|p| {
                    let pf = p.fields(2)?;
                    Ok((pf[0].as_u64()?, pf[1].as_u64()?))
                })
                .collect()
        };
        self.entries = entries;
        self.by_addr = by_addr;
        self.pcb = pcb;
        self.next_uid = f[4].as_u64()?;
        self.stall_spans = spans(&f[5])?;
        self.sms_spans = spans(&f[6])?;
        self.evictions = f[7].as_u64()?;
        Ok(())
    }

    /// Storage cost in bits (paper §IV-A: 3117 bits for GDP, 3597 for
    /// GDP-O with 32 PRB entries; Fig. 2 gives the field widths).
    pub fn storage_bits(&self, with_overlap: bool) -> u64 {
        // Per PRB entry: Addr 48 + Depth 15 + Completed-at 28 + C 1 + V 1
        // (+ Overlap 14 for GDP-O).
        let entry = 48 + 15 + 28 + 1 + 1 + if with_overlap { 14 } else { 0 };
        // PCB: Depth 15 + Started-at 28 + Stalled-at 28 + children bits.
        let pcb = 15 + 28 + 28 + self.capacity as u64;
        // Newest/oldest valid pointers (5+5), timestamp counter 28
        // (+ global overlap counter 32).
        let regs = 5 + 5 + 28 + if with_overlap { 32 } else { 0 };
        self.capacity as u64 * entry + pcb + regs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_sim::mem::Interference;
    use gdp_sim::types::{CoreId, ReqId};

    fn miss(addr: Addr, cycle: Cycle) -> ProbeEvent {
        ProbeEvent::LoadL1Miss { core: CoreId(0), req: ReqId(addr), block: addr, cycle }
    }

    fn done(addr: Addr, cycle: Cycle, sms: bool) -> ProbeEvent {
        ProbeEvent::LoadL1MissDone {
            core: CoreId(0),
            req: ReqId(addr),
            block: addr,
            cycle,
            sms,
            latency: 100,
            interference: Interference::default(),
            llc_hit: Some(true),
            post_llc: 0,
        }
    }

    fn stall(start: Cycle, end: Cycle, blocking: Addr) -> ProbeEvent {
        ProbeEvent::Stall {
            core: CoreId(0),
            start,
            end,
            cause: StallCause::Load,
            blocking_block: Some(blocking),
            blocking_req: None,
            blocking_sms: Some(true),
            blocking_interference: None,
        }
    }

    /// The paper's Figure 1 worked example: five loads, five commit
    /// periods, CPL must be 2.
    #[test]
    fn figure1_example_yields_cpl_2() {
        let mut u = GdpUnit::new(32);
        // C1 (0..50): L1, L2, L3 issued in parallel.
        u.observe(&miss(0xa1, 10));
        u.observe(&miss(0xa2, 12));
        u.observe(&miss(0xa3, 14));
        // Stall on L1 (50..155); L1 completes at 150.
        u.observe(&done(0xa1, 150, true));
        u.observe(&stall(50, 155, 0xa1));
        assert_eq!(u.peek_cpl(), 1, "first level of loads gives depth 1");
        // C2 (155..175); stall on L2 (175..185), L2 completes at 182.
        u.observe(&done(0xa2, 182, true));
        u.observe(&stall(175, 185, 0xa2));
        assert_eq!(u.peek_cpl(), 1, "L2 was parallel with L1");
        // C3: L4 and L5 issued (children of C3); L3 completes during C3.
        u.observe(&miss(0xa4, 190));
        u.observe(&miss(0xa5, 191));
        u.observe(&done(0xa3, 192, true));
        // Stall on L4 (200..350); L4 completes at 340.
        u.observe(&done(0xa4, 340, true));
        u.observe(&stall(200, 350, 0xa4));
        assert_eq!(u.peek_cpl(), 2, "L4 depends on the first load level");
        // C4; stall on L5; L5 completes.
        u.observe(&done(0xa5, 356, true));
        u.observe(&stall(352, 358, 0xa5));
        assert_eq!(u.peek_cpl(), 2, "L5 was parallel with L4");
        assert_eq!(u.take_cpl(), 2);
        assert_eq!(u.peek_cpl(), 0, "CPL retrieval rebases the unit");
    }

    #[test]
    fn pms_loads_do_not_affect_cpl() {
        let mut u = GdpUnit::new(32);
        u.observe(&miss(0xb1, 0));
        u.observe(&done(0xb1, 20, false)); // PMS: invalidated
        assert_eq!(u.occupancy(), 0);
        // A stall blocked on it finds nothing: no CPL change.
        u.observe(&stall(10, 25, 0xb1));
        assert_eq!(u.peek_cpl(), 0);
    }

    #[test]
    fn serial_chain_has_cpl_equal_to_length() {
        let mut u = GdpUnit::new(32);
        let mut t = 0;
        for i in 0..5u64 {
            let a = 0x100 + i;
            u.observe(&miss(a, t));
            u.observe(&done(a, t + 90, true));
            u.observe(&stall(t + 10, t + 100, a));
            t += 100;
        }
        assert_eq!(u.peek_cpl(), 5, "five serialized loads give CPL 5");
    }

    #[test]
    fn parallel_burst_has_cpl_one() {
        let mut u = GdpUnit::new(32);
        for i in 0..8u64 {
            u.observe(&miss(0x200 + i, i));
        }
        // All complete; the CPU stalled on the first.
        for i in 0..8u64 {
            u.observe(&done(0x200 + i, 100 + i, true));
        }
        u.observe(&stall(10, 120, 0x200));
        assert_eq!(u.peek_cpl(), 1, "parallel loads share one level");
    }

    #[test]
    fn eviction_of_oldest_when_full() {
        let mut u = GdpUnit::new(2);
        u.observe(&miss(0x1, 0));
        u.observe(&miss(0x2, 1));
        u.observe(&miss(0x3, 2)); // evicts 0x1
        assert_eq!(u.occupancy(), 2);
        assert_eq!(u.evictions, 1);
        // A stall on the evicted load is treated as PMS (not found).
        u.observe(&stall(5, 50, 0x1));
        assert_eq!(u.peek_cpl(), 0);
    }

    #[test]
    fn overlap_is_commit_time_under_pending_loads() {
        let mut u = GdpUnit::new(32);
        // Load pending 0..100; the CPU stalled 40..100 (60 cycles).
        u.observe(&miss(0x5, 0));
        u.observe(&done(0x5, 100, true));
        u.observe(&stall(40, 100, 0x5));
        // Overlap = window (100) − stalled (60) = 40.
        let o = u.take_average_overlap();
        assert!((o - 40.0).abs() < 1e-9, "overlap {o}");
    }

    #[test]
    fn overlap_averages_over_loads() {
        let mut u = GdpUnit::new(32);
        u.observe(&miss(0x10, 0));
        u.observe(&done(0x10, 100, true)); // overlap 100 (no stalls)
        u.observe(&miss(0x11, 100));
        u.observe(&done(0x11, 200, true));
        u.observe(&stall(120, 200, 0x11)); // overlap 20
        let o = u.take_average_overlap();
        assert!((o - 60.0).abs() < 1e-9, "overlap {o}");
    }

    #[test]
    fn take_cpl_rebases_pending_depths() {
        let mut u = GdpUnit::new(32);
        // Build depth 1 with a pending deeper load.
        u.observe(&miss(0x20, 0));
        u.observe(&done(0x20, 90, true));
        u.observe(&stall(10, 100, 0x20));
        u.observe(&miss(0x21, 110)); // child of new commit period
        assert_eq!(u.take_cpl(), 1);
        // The pending load eventually stalls: depths restart from 0.
        u.observe(&done(0x21, 190, true));
        u.observe(&stall(130, 200, 0x21));
        assert_eq!(u.peek_cpl(), 1, "post-rebase chain counts from zero");
    }

    #[test]
    fn storage_matches_paper_budget() {
        let u = GdpUnit::new(32);
        assert_eq!(u.storage_bits(false), 3117, "GDP storage, paper §IV-A");
        assert_eq!(u.storage_bits(true), 3597, "GDP-O storage, paper §IV-A");
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = GdpUnit::new(0);
    }
}
