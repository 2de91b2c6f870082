//! Instrumentation events consumed by accounting techniques.
//!
//! The paper's accounting hardware (GDP's PRB/PCB, ITCA/PTCA condition
//! monitors, DIEF's counters) observes the core and memory system without
//! sitting on any critical path. We model that with an event log: each
//! simulated cycle the core and hierarchy may append [`ProbeEvent`]s, which
//! the accounting crates consume in order. Events are timestamped, so
//! consumers can reconstruct exact cycle spans (e.g. ITCA's per-cycle
//! conditions) without a per-cycle callback.
//!
//! This stream is also the system's *recording surface*: it is exactly
//! what every transparent estimator observes, its emission order is
//! deterministic (see `System::drain_probes`), and its timestamps are
//! near-sorted — the properties `gdp-trace` builds on to capture a run
//! once (delta-encoded) and re-evaluate any technique from it
//! bit-identically.
//!
//! Dead cycles emit no events: a quiescent component by definition
//! changes no state and raises no probes. The event-driven engine
//! (`System::advance`) relies on exactly this — skipping a dead stretch
//! cannot alter the stream, which is why traces recorded under either
//! engine are byte-identical.

use crate::mem::Interference;
use crate::types::{Addr, CoreId, Cycle, ReqId};

/// Why commit was stalled (classification per paper §III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// A load at the ROB head waiting on the memory system. Whether it is a
    /// PMS or SMS load is known at completion and reported in
    /// [`ProbeEvent::Stall::blocking_sms`].
    Load,
    /// Store at the ROB head with a full store buffer (`S_Other`).
    StoreBufferFull,
    /// Load could not issue because the L1 was blocked (MSHRs full,
    /// `S_Other`).
    L1Blocked,
    /// ROB empty while the front-end refills after a branch redirect
    /// (`S_Other`; the paper's "ROB only contains wrong-path instructions").
    BranchRedirect,
    /// Any memory-independent stall: long-latency ALU chains, dispatch
    /// starvation, etc. (`S_Ind`).
    MemoryIndependent,
}

/// An instrumentation event.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeEvent {
    /// A load missed the L1 data cache (GDP Algorithm 1 trigger).
    LoadL1Miss {
        /// Issuing core.
        core: CoreId,
        /// Request id (primary or merged-into primary).
        req: ReqId,
        /// Block address (PRB index).
        block: Addr,
        /// Cycle the miss was detected.
        cycle: Cycle,
    },
    /// An L1 miss completed (GDP Algorithm 2 trigger).
    LoadL1MissDone {
        /// Issuing core.
        core: CoreId,
        /// Request id.
        req: ReqId,
        /// Block address.
        block: Addr,
        /// Completion cycle.
        cycle: Cycle,
        /// True if the request visited the shared memory system (SMS-load).
        sms: bool,
        /// Total latency (issue → completion).
        latency: u64,
        /// Interference accumulated by DIEF's counters.
        interference: Interference,
        /// Whether the LLC lookup hit (None if the request never left the
        /// private hierarchy).
        llc_hit: Option<bool>,
        /// Cycles spent in the memory controller and DRAM (0 for LLC
        /// hits); DIEF uses this as the penalty of interference-induced
        /// LLC misses.
        post_llc: u64,
    },
    /// The LLC observed a demand access (ATD update point).
    LlcAccess {
        /// Requesting core.
        core: CoreId,
        /// Block address.
        block: Addr,
        /// Cycle of the lookup.
        cycle: Cycle,
        /// Shared-cache outcome.
        hit: bool,
        /// Request id (to tie ATD verdicts back to requests).
        req: ReqId,
    },
    /// A commit stall ended (GDP Algorithm 3 trigger: "CPU resumed").
    ///
    /// Every cycle in `[start, end)` had zero commits; the complement of all
    /// stall spans is exactly the set of commit cycles.
    Stall {
        /// Stalled core.
        core: CoreId,
        /// First stalled cycle.
        start: Cycle,
        /// First cycle after the stall (commit resumed or run ended).
        end: Cycle,
        /// Stall classification.
        cause: StallCause,
        /// Block address of the blocking load (for `cause == Load`).
        blocking_block: Option<Addr>,
        /// Memory request id of the blocking load (for `cause == Load`).
        blocking_req: Option<ReqId>,
        /// Whether the blocking load was an SMS-load.
        blocking_sms: Option<bool>,
        /// Interference suffered by the blocking load (PTCA's input).
        blocking_interference: Option<Interference>,
    },
}

impl ProbeEvent {
    /// The cycle at which this event becomes visible to observers.
    pub fn cycle(&self) -> Cycle {
        match self {
            ProbeEvent::LoadL1Miss { cycle, .. }
            | ProbeEvent::LoadL1MissDone { cycle, .. }
            | ProbeEvent::LlcAccess { cycle, .. } => *cycle,
            ProbeEvent::Stall { end, .. } => *end,
        }
    }

    /// The core this event concerns.
    pub fn core(&self) -> CoreId {
        match self {
            ProbeEvent::LoadL1Miss { core, .. }
            | ProbeEvent::LoadL1MissDone { core, .. }
            | ProbeEvent::LlcAccess { core, .. }
            | ProbeEvent::Stall { core, .. } => *core,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_accessors() {
        let e = ProbeEvent::LoadL1Miss { core: CoreId(2), req: ReqId(9), block: 0x40, cycle: 123 };
        assert_eq!(e.cycle(), 123);
        assert_eq!(e.core(), CoreId(2));
        let s = ProbeEvent::Stall {
            core: CoreId(1),
            start: 10,
            end: 20,
            cause: StallCause::Load,
            blocking_block: Some(0x80),
            blocking_req: None,
            blocking_sms: Some(true),
            blocking_interference: None,
        };
        assert_eq!(s.cycle(), 20, "stalls become visible when they end");
        assert_eq!(s.core(), CoreId(1));
    }
}
