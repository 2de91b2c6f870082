//! The full memory hierarchy: per-core L1D + L2, shared banked LLC behind a
//! ring, and the DDR memory controller.
//!
//! Requests progress through explicit stages on an event wheel:
//!
//! ```text
//! core --access()--> [L1 probe] --miss--> [L2 probe] --miss--> ring(req)
//!     --> [LLC bank probe] --miss--> MC read queue --FR-FCFS--> DRAM
//!     --> fill LLC --> ring(resp) --> fill L2, L1 --> CompletedAccess
//! ```
//!
//! Tag probes happen when the request *arrives* at a level; the level's
//! lookup latency is charged before the request moves on (hit response or
//! downstream forward). Backpressured steps (full MSHR files, full ring
//! injection queues, full DRAM queues) retry every cycle.
//!
//! Writebacks of dirty victims ride the request ring to the LLC and the
//! write queue of the memory controller, consuming real bandwidth — an
//! interference channel DIEF and the baselines must observe.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::config::SimConfig;
use crate::mem::cache::{AccessResult, Cache};
use crate::mem::dram::{McCompletion, MemoryController};
use crate::mem::mshr::{MshrAlloc, MshrFile};
use crate::mem::request::{Interference, MemRequest};
use crate::mem::ring::{Ring, RingKind};
use crate::probe::ProbeEvent;
use crate::stats::MemStats;
use crate::types::{AccessKind, Addr, CoreId, Cycle, FxHashMap, ReqId, BLOCK_BYTES};

/// Outcome of a core-side access attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Accepted; completion will be delivered with this request id.
    Pending(ReqId),
    /// The L1 cannot accept the access (MSHRs full); retry next cycle.
    Blocked,
}

/// A finished demand access, delivered to the issuing core.
#[derive(Debug, Clone)]
pub struct CompletedAccess {
    /// Request id as returned by [`MemorySystem::access`].
    pub req: ReqId,
    /// Issuing core.
    pub core: CoreId,
    /// Block address.
    pub block: Addr,
    /// Load or store.
    pub kind: AccessKind,
    /// Cycle the access entered the L1.
    pub issued_at: Cycle,
    /// Cycle the data became available to the core.
    pub completed_at: Cycle,
    /// Whether the request visited the shared memory system.
    pub sms: bool,
    /// LLC outcome (None when satisfied privately).
    pub llc_hit: Option<bool>,
    /// DIEF interference counters for this request.
    pub interference: Interference,
    /// Portion of the SMS latency before/after the memory controller.
    pub pre_llc: u64,
    /// Portion spent in the memory controller and DRAM.
    pub post_llc: u64,
    /// True when this completion was merged into another request's MSHR
    /// (same block): it is a distinct load but not a distinct memory
    /// request, so latency-oriented statistics should skip it.
    pub merged_secondary: bool,
    /// Whether the access missed the L1 (PRB-relevant for GDP).
    pub l1_miss: bool,
}

impl CompletedAccess {
    /// Total load-to-use latency.
    pub fn latency(&self) -> u64 {
        self.completed_at - self.issued_at
    }
}

/// Pipeline stages on the event wheel (internal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// L1 hit: deliver completion.
    L1HitDone(ReqId),
    /// Request arrives at the L2: probe tags.
    L2Lookup(ReqId),
    /// L2 hit response arrives back at the L1: fill and complete.
    L2HitDone(ReqId),
    /// Attempt to inject the request packet into the request ring.
    RingReqInject(ReqId),
    /// Request packet arrived at its LLC bank: probe tags.
    LlcLookup(ReqId),
    /// LLC miss: allocate bank MSHR + MC read-queue entry.
    LlcMiss(ReqId),
    /// DRAM read finished: fill the LLC and respond.
    McDone(ReqId),
    /// Attempt to inject a response packet toward the core.
    RingRespInject(ReqId),
    /// Response arrived at the core's private hierarchy.
    AtCore(ReqId),
    /// A writeback packet arrived at its LLC bank.
    WbAtLlc { core: CoreId, block: Addr },
}

/// Retryable backpressured steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Retry {
    RingReq(ReqId),
    LlcMiss(ReqId),
    RingResp(ReqId),
    WbRing { core: CoreId, block: Addr },
    WbMc { core: CoreId, block: Addr },
}

/// The complete memory system below the cores.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: SimConfig,
    l1d: Vec<Cache>,
    l2: Vec<Cache>,
    llc_banks: Vec<Cache>,
    l1_mshr: Vec<MshrFile>,
    l2_mshr: Vec<MshrFile>,
    llc_mshr: Vec<MshrFile>,
    ring: Ring,
    mc: MemoryController,
    inflight: FxHashMap<ReqId, MemRequest>,
    events: BinaryHeap<Reverse<(Cycle, u64, Ev)>>,
    retries: Vec<Retry>,
    completions: Vec<CompletedAccess>,
    next_req: u64,
    next_evseq: u64,
    mc_buf: Vec<McCompletion>,
    /// Per-core count of outstanding L1 *load* misses (GDP-O overlap).
    load_misses_out: Vec<u32>,
    /// Version-guarded cache of a stably-blocked retry round (see
    /// `tick`): while nothing a pending retry depends on has changed,
    /// each tick applies the round's counter effects directly instead of
    /// re-attempting every retry.
    retry_cache: Option<RetryCache>,
    /// Memory-system statistics.
    pub stats: MemStats,
}

/// Precomputed per-cycle effects of one fully-blocked retry round,
/// guarded by the versions of every structure the outcomes depend on:
/// the LLC bank MSHR files (merge/full checks) and the DRAM channel
/// queues (full checks and rival queue shares).
#[derive(Debug)]
struct RetryCache {
    /// Sum of LLC-bank MSHR file versions at classification time.
    llc_mshr_version: u64,
    /// Memory-controller queue version at classification time.
    mc_queues_version: u64,
    /// Retries covered (must equal `retries.len()` to stay valid).
    count: usize,
    /// Per-cycle `enqueue_wait_fp` charges of reads blocked on a full
    /// read queue.
    fp_charges: Vec<(ReqId, u64)>,
}

impl MemorySystem {
    /// Build the hierarchy from a configuration.
    pub fn new(cfg: &SimConfig) -> Self {
        let total_sets = cfg.llc.sets();
        assert!(
            total_sets % cfg.llc_banks == 0,
            "LLC sets ({total_sets}) must divide evenly into {} banks",
            cfg.llc_banks
        );
        let bank_sets = total_sets / cfg.llc_banks;
        MemorySystem {
            cfg: cfg.clone(),
            l1d: (0..cfg.cores).map(|_| Cache::new(&cfg.l1d)).collect(),
            l2: (0..cfg.cores).map(|_| Cache::new(&cfg.l2)).collect(),
            llc_banks: (0..cfg.llc_banks)
                .map(|_| Cache::with_sets(bank_sets, cfg.llc.ways))
                .collect(),
            l1_mshr: (0..cfg.cores).map(|_| MshrFile::new(cfg.l1d.mshrs)).collect(),
            l2_mshr: (0..cfg.cores).map(|_| MshrFile::new(cfg.l2.mshrs)).collect(),
            llc_mshr: (0..cfg.llc_banks).map(|_| MshrFile::new(cfg.llc.mshrs)).collect(),
            ring: Ring::new(&cfg.ring, cfg.cores, cfg.llc_banks),
            mc: MemoryController::new(&cfg.dram, cfg.cores),
            inflight: FxHashMap::default(),
            events: BinaryHeap::new(),
            retries: Vec::new(),
            completions: Vec::new(),
            next_req: 0,
            next_evseq: 0,
            mc_buf: Vec::new(),
            load_misses_out: vec![0; cfg.cores],
            retry_cache: None,
            stats: MemStats::default(),
        }
    }

    /// Install LLC way-partition masks (one per core); `None` disables
    /// partitioning.
    pub fn set_llc_partition(&mut self, masks: Option<Vec<u64>>) {
        for bank in &mut self.llc_banks {
            match &masks {
                Some(m) => bank.set_partition(m.clone()),
                None => bank.clear_partition(),
            }
        }
    }

    /// Mutable access to the memory controller (ASM priority hook).
    pub fn mc(&mut self) -> &mut MemoryController {
        &mut self.mc
    }

    /// Per-core L1 data cache (statistics, tests).
    pub fn l1d(&self, core: CoreId) -> &Cache {
        &self.l1d[core.idx()]
    }

    /// Per-core L2 cache.
    pub fn l2(&self, core: CoreId) -> &Cache {
        &self.l2[core.idx()]
    }

    /// LLC bank array.
    pub fn llc_banks(&self) -> &[Cache] {
        &self.llc_banks
    }

    /// Whether the core's L1 can currently accept a new miss.
    pub fn l1_can_accept(&self, core: CoreId) -> bool {
        !self.l1_mshr[core.idx()].is_full()
    }

    /// Number of outstanding L1 *load* misses for `core` (pending loads in
    /// GDP-O's overlap definition).
    pub fn outstanding_load_misses(&self, core: CoreId) -> u32 {
        self.load_misses_out[core.idx()]
    }

    /// Issue a demand access (load or store) from `core` for the block
    /// containing `addr`.
    pub fn access(
        &mut self,
        core: CoreId,
        addr: Addr,
        kind: AccessKind,
        now: Cycle,
        probes: &mut Vec<ProbeEvent>,
    ) -> AccessOutcome {
        debug_assert!(matches!(kind, AccessKind::Load | AccessKind::Store));
        let block = crate::types::block_addr(addr);
        let c = core.idx();

        match self.l1d[c].access(block, kind.is_write()) {
            AccessResult::Hit => {
                let id = self.alloc_req();
                self.inflight.insert(id, MemRequest::new(id, core, block, kind, now));
                self.push_ev(now + self.cfg.l1d.latency, Ev::L1HitDone(id));
                AccessOutcome::Pending(id)
            }
            AccessResult::Miss => {
                // Peek MSHR state before allocating an id so `Blocked`
                // leaves no residue.
                if self.l1_mshr[c].is_full() && !self.l1_mshr[c].contains(block) {
                    self.stats.backpressure_events += 1;
                    return AccessOutcome::Blocked;
                }
                let id = self.alloc_req();
                let mut req = MemRequest::new(id, core, block, kind, now);
                req.l1_miss = true;
                self.inflight.insert(id, req);
                probes.push(ProbeEvent::LoadL1Miss { core, req: id, block, cycle: now });
                if kind == AccessKind::Load {
                    self.load_misses_out[c] += 1;
                }
                match self.l1_mshr[c].allocate(block, id) {
                    MshrAlloc::Full => unreachable!("checked above"),
                    MshrAlloc::Merged => AccessOutcome::Pending(id),
                    MshrAlloc::Primary => {
                        self.push_ev(now + self.cfg.l1d.latency, Ev::L2Lookup(id));
                        AccessOutcome::Pending(id)
                    }
                }
            }
        }
    }

    /// Drain completions produced since the last call.
    pub fn take_completions(&mut self) -> Vec<CompletedAccess> {
        std::mem::take(&mut self.completions)
    }

    /// Advance the memory system one cycle.
    pub fn tick(&mut self, now: Cycle, probes: &mut Vec<ProbeEvent>) {
        // 1. Retries from previous cycles (backpressured steps). A
        // valid cache proves every retry would fail exactly as it did
        // when classified — apply the round's counter effects directly.
        let cache_valid = self.retry_cache.as_ref().is_some_and(|c| {
            c.count == self.retries.len()
                && c.llc_mshr_version == self.llc_mshr_versions()
                && c.mc_queues_version == self.mc.queues_version()
        });
        if cache_valid {
            let c = self.retry_cache.take().expect("checked");
            self.stats.backpressure_events += c.count as u64;
            for &(req, share) in &c.fp_charges {
                if let Some(rq) = self.inflight.get_mut(&req) {
                    rq.enqueue_wait_fp += share;
                }
            }
            self.retry_cache = Some(c);
        } else {
            self.retry_cache = None;
            let retries = std::mem::take(&mut self.retries);
            for r in retries {
                self.attempt(r, now, probes);
            }
            self.maybe_cache_blocked_retries();
        }
        // 2. Due events.
        while let Some(Reverse((cycle, _, _))) = self.events.peek() {
            if *cycle > now {
                break;
            }
            let Reverse((cycle, _, ev)) = self.events.pop().unwrap();
            self.handle_event(ev, cycle, probes);
        }
        // 3. Memory controller arbitration.
        let mut buf = std::mem::take(&mut self.mc_buf);
        buf.clear();
        self.mc.tick(now, &mut buf);
        for done in &buf {
            if let Some(req) = self.inflight.get_mut(&done.req) {
                req.mc_row_hit = Some(done.row_hit);
                req.mc_private_row_hit = Some(done.private_row_hit);
                req.interference.mc_queue += done.intf_queue;
                req.interference.mc_row += done.intf_row;
                req.mc_finished_at = Some(done.finish);
            }
            self.push_ev(done.finish, Ev::McDone(done.req));
        }
        self.mc_buf = buf;
    }

    /// Earliest future cycle at which the memory system can change state:
    /// the next due pipeline event, any pending backpressured retry
    /// (re-attempted every cycle, so `Some(now)`), or the memory
    /// controller's next possible issue. `None` when nothing is pending —
    /// the memory-system leg of [`System::advance`]'s activity bound.
    ///
    /// Must be called between ticks: every event at or before the last
    /// ticked cycle has already been drained, so the heap minimum is
    /// strictly future (it is still clamped to `now` defensively).
    ///
    /// [`System::advance`]: crate::System::advance
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if !self.retries_stably_blocked() {
            return Some(now);
        }
        let mut next = self.events.peek().map(|Reverse((c, _, _))| (*c).max(now));
        if let Some(m) = self.mc.next_activity(now) {
            next = Some(next.map_or(m, |n| n.min(m)));
        }
        next
    }

    /// Sum of LLC-bank MSHR file versions (retry-cache guard).
    fn llc_mshr_versions(&self) -> u64 {
        self.llc_mshr.iter().map(|m| m.version()).sum()
    }

    /// The per-cycle `enqueue_wait_fp` charge of a read waiting to enter
    /// a full DRAM read queue: the rival cores' share of the queue
    /// occupancy, in 16.16 fixed point (0 when the queue is empty). One
    /// place computes it for the live retry path, the retry-round cache
    /// and the bulk replay — the three must charge identical per-cycle
    /// amounts or the engines diverge.
    fn rival_queue_share(&self, core: CoreId, block: Addr) -> u64 {
        let (other, total) = self.mc.queue_pressure(block, core);
        (other << 16).checked_div(total).unwrap_or(0)
    }

    /// After a retry round in which every retry failed, classify the
    /// survivors; if all are stably blocked, cache the round's per-cycle
    /// effects keyed on the structures they depend on.
    fn maybe_cache_blocked_retries(&mut self) {
        if self.retries.is_empty() || !self.retries_stably_blocked() {
            return;
        }
        let mut fp_charges = Vec::new();
        for r in &self.retries {
            if let Retry::LlcMiss(req) = *r {
                let rq = &self.inflight[&req];
                let (core, block) = (rq.core, rq.block);
                let bank = self.bank_of(block);
                let local = self.bank_local(block);
                if !self.llc_mshr[bank].contains(local) && !self.llc_mshr[bank].is_full() {
                    let share = self.rival_queue_share(core, block);
                    if share > 0 {
                        fp_charges.push((req, share));
                    }
                }
            }
        }
        self.retry_cache = Some(RetryCache {
            llc_mshr_version: self.llc_mshr_versions(),
            mc_queues_version: self.mc.queues_version(),
            count: self.retries.len(),
            fp_charges,
        });
    }

    /// Whether every pending retry is *stably* blocked: guaranteed to
    /// fail identically each cycle until the next event or
    /// memory-controller issue (both already bound the skip window). A
    /// stably blocked retry's only per-cycle effect is a backpressure
    /// count (plus, for reads waiting to enter a full DRAM read queue,
    /// the rival queue-share interference charge) — replayed in bulk by
    /// [`replay_blocked_retries`](Self::replay_blocked_retries).
    ///
    /// Ring-injection retries are conservatively treated as active: ring
    /// lanes drain with time alone, so a full lane can accept a packet a
    /// few cycles later without any event firing.
    fn retries_stably_blocked(&self) -> bool {
        self.retries.iter().all(|r| match *r {
            Retry::LlcMiss(req) => {
                let block = self.inflight[&req].block;
                let bank = self.bank_of(block);
                let local = self.bank_local(block);
                if self.llc_mshr[bank].contains(local) {
                    false // would merge: real state change
                } else if self.llc_mshr[bank].is_full() {
                    true // frees only on McDone (an event)
                } else {
                    // Would attempt the read-queue enqueue.
                    self.mc.read_queue_full(block)
                }
            }
            // Frees only when the controller drains writes (bounded by
            // the controller's next-activity estimate).
            Retry::WbMc { block, .. } => self.mc.write_queue_full(block),
            Retry::RingReq(_) | Retry::RingResp(_) | Retry::WbRing { .. } => false,
        })
    }

    /// Replay `n` skipped cycles of the pending stably-blocked retries
    /// (see [`retries_stably_blocked`](Self::retries_stably_blocked)):
    /// each retry fails `n` more times, counting `n` backpressure events,
    /// and a read blocked on a full read queue accrues `n` more rival
    /// queue-share charges — the exact per-cycle effects of the step-by-1
    /// engine, whose inputs cannot change inside the window.
    pub fn replay_blocked_retries(&mut self, n: u64) {
        if n == 0 || self.retries.is_empty() {
            return;
        }
        self.stats.backpressure_events += n * self.retries.len() as u64;
        let retries = std::mem::take(&mut self.retries);
        for r in &retries {
            if let Retry::LlcMiss(req) = *r {
                let (core, block) = self.req_core_block(req);
                let bank = self.bank_of(block);
                let local = self.bank_local(block);
                if !self.llc_mshr[bank].contains(local) && !self.llc_mshr[bank].is_full() {
                    // Blocked on the full read queue: per-cycle rival
                    // queue-share charge, constant over the window.
                    let share = self.rival_queue_share(core, block);
                    if let Some(rq) = self.inflight.get_mut(&req) {
                        rq.enqueue_wait_fp += n * share;
                    }
                }
            }
        }
        self.retries = retries;
    }

    /// Whether a load probe of `block` by `core` would take the blocked
    /// path of [`access`](Self::access) right now: L1 miss with a full
    /// MSHR file and no mergeable entry. Pure (tag peek only). The
    /// cycle-skipping engine uses this to confirm a core's reported
    /// L1-retry loop against *live* memory state — the core's own
    /// `l1_blocked` flag can be stale when its issue stage was starved of
    /// memory ports on the last tick.
    pub fn l1_probe_stays_blocked(&self, core: CoreId, block: Addr) -> bool {
        let c = core.idx();
        !self.l1d[c].peek(block) && self.l1_mshr[c].is_full() && !self.l1_mshr[c].contains(block)
    }

    /// Replay `n` cycles of `core`'s guaranteed-blocked L1 load probe in
    /// bulk — the retry loop behind [`AccessOutcome::Blocked`]. Each
    /// probed cycle counts one L1 access, one L1 miss (advancing that
    /// cache's LRU clock) and one backpressure event, exactly as `n`
    /// per-cycle [`access`](Self::access) attempts would, and changes
    /// nothing else: a blocked attempt allocates no request id, no MSHR
    /// and no events. Only valid while the memory system is quiescent
    /// (nothing that could unblock the probe fires in the window).
    pub fn replay_blocked_l1_probes(&mut self, core: CoreId, n: u64) {
        self.l1d[core.idx()].replay_miss_probes(n);
        self.stats.backpressure_events += n;
    }

    /// True when no requests, events or retries are outstanding.
    pub fn quiescent(&self) -> bool {
        self.inflight.is_empty()
            && self.events.is_empty()
            && self.retries.is_empty()
            && self.mc.queued_reads() == 0
    }

    fn alloc_req(&mut self) -> ReqId {
        let id = ReqId(self.next_req);
        self.next_req += 1;
        id
    }

    fn push_ev(&mut self, cycle: Cycle, ev: Ev) {
        let seq = self.next_evseq;
        self.next_evseq += 1;
        self.events.push(Reverse((cycle, seq, ev)));
    }

    fn bank_of(&self, block: Addr) -> usize {
        ((block / BLOCK_BYTES) % self.cfg.llc_banks as u64) as usize
    }

    /// Bank-local alias for a global block address.
    fn bank_local(&self, block: Addr) -> Addr {
        (block / BLOCK_BYTES / self.cfg.llc_banks as u64) * BLOCK_BYTES
    }

    /// Global block address from a bank-local alias.
    fn bank_global(&self, bank: usize, local: Addr) -> Addr {
        ((local / BLOCK_BYTES) * self.cfg.llc_banks as u64 + bank as u64) * BLOCK_BYTES
    }

    fn req_core_block(&self, req: ReqId) -> (CoreId, Addr) {
        let r = &self.inflight[&req];
        (r.core, r.block)
    }

    fn handle_event(&mut self, ev: Ev, now: Cycle, probes: &mut Vec<ProbeEvent>) {
        match ev {
            Ev::L1HitDone(req) => self.complete(req, now, false, probes),
            Ev::L2Lookup(req) => {
                let (core, block) = self.req_core_block(req);
                let c = core.idx();
                match self.l2[c].access(block, false) {
                    AccessResult::Hit => {
                        self.push_ev(now + self.cfg.l2.latency, Ev::L2HitDone(req));
                    }
                    AccessResult::Miss => match self.l2_mshr[c].allocate(block, req) {
                        MshrAlloc::Full => {
                            self.stats.backpressure_events += 1;
                            // Undo the duplicate counting and retry.
                            self.l2[c].accesses -= 1;
                            self.l2[c].misses -= 1;
                            self.push_ev(now + 1, Ev::L2Lookup(req));
                        }
                        MshrAlloc::Merged => { /* completion rides the primary */ }
                        MshrAlloc::Primary => {
                            // The request leaves the private hierarchy: it
                            // is now an SMS access.
                            let leave = now + self.cfg.l2.latency;
                            if let Some(r) = self.inflight.get_mut(&req) {
                                r.left_private_at = Some(leave);
                            }
                            self.stats.sms_requests += 1;
                            self.push_ev(leave, Ev::RingReqInject(req));
                        }
                    },
                }
            }
            Ev::L2HitDone(req) => {
                let (core, block) = self.req_core_block(req);
                let kind = self.inflight[&req].kind;
                self.fill_l1(core, block, kind.is_write());
                self.release_l1(core, block, now, probes);
            }
            Ev::RingReqInject(req) => self.attempt(Retry::RingReq(req), now, probes),
            Ev::LlcLookup(req) => {
                let (core, block) = self.req_core_block(req);
                let bank = self.bank_of(block);
                let local = self.bank_local(block);
                let hit = self.llc_banks[bank].access(local, false) == AccessResult::Hit;
                probes.push(ProbeEvent::LlcAccess { core, block, cycle: now, hit, req });
                if let Some(r) = self.inflight.get_mut(&req) {
                    r.llc_hit = Some(hit);
                    r.llc_done_at = Some(now + self.cfg.llc.latency);
                    r.llc_set = Some((block / BLOCK_BYTES) % self.cfg.llc.sets() as u64);
                }
                if hit {
                    self.push_ev(now + self.cfg.llc.latency, Ev::RingRespInject(req));
                } else {
                    self.push_ev(now + self.cfg.llc.latency, Ev::LlcMiss(req));
                }
            }
            Ev::LlcMiss(req) => self.attempt(Retry::LlcMiss(req), now, probes),
            Ev::McDone(req) => {
                let (core, block) = self.req_core_block(req);
                let bank = self.bank_of(block);
                let local = self.bank_local(block);
                if let Some(victim) = self.llc_banks[bank].fill(local, core, false) {
                    let vblock = self.bank_global(bank, victim.block);
                    self.attempt(Retry::WbMc { core: victim.owner, block: vblock }, now, probes);
                }
                if let Some((primary, merged)) = self.llc_mshr[bank].release(local) {
                    debug_assert_eq!(primary, req);
                    // Propagate MC metadata to cross-core merged requests.
                    let (row_hit, intf, enq, fin) = {
                        let r = &self.inflight[&req];
                        (r.mc_row_hit, r.interference, r.mc_enqueued_at, r.mc_finished_at)
                    };
                    for m in merged {
                        if let Some(r) = self.inflight.get_mut(&m) {
                            r.llc_hit = Some(false);
                            r.mc_row_hit = row_hit;
                            r.mc_enqueued_at = enq;
                            r.mc_finished_at = fin;
                            r.interference.mc_queue += intf.mc_queue;
                        }
                        self.push_ev(now, Ev::RingRespInject(m));
                    }
                }
                self.push_ev(now, Ev::RingRespInject(req));
            }
            Ev::RingRespInject(req) => self.attempt(Retry::RingResp(req), now, probes),
            Ev::AtCore(req) => {
                let (core, block) = self.req_core_block(req);
                let kind = self.inflight[&req].kind;
                let c = core.idx();
                if let Some(victim) = self.l2[c].fill(block, core, false) {
                    self.attempt(Retry::WbRing { core, block: victim.block }, now, probes);
                }
                if let Some((_, merged)) = self.l2_mshr[c].release(block) {
                    debug_assert!(
                        merged.is_empty(),
                        "same-core same-block L2 merges cannot occur (L1 merges first)"
                    );
                }
                self.fill_l1(core, block, kind.is_write());
                self.release_l1(core, block, now, probes);
            }
            Ev::WbAtLlc { core, block } => {
                let bank = self.bank_of(block);
                let local = self.bank_local(block);
                if self.llc_banks[bank].mark_dirty(local) {
                    return;
                }
                // Not present: forward to memory without allocating
                // (no-write-allocate for writebacks, so streaming dirty
                // data cannot churn small partitions).
                self.attempt(Retry::WbMc { core, block }, now, probes);
            }
        }
    }

    fn attempt(&mut self, r: Retry, now: Cycle, _probes: &mut Vec<ProbeEvent>) {
        match r {
            Retry::RingReq(req) => {
                let (core, block) = self.req_core_block(req);
                let bank = self.bank_of(block);
                let src = self.ring.core_node(core);
                let dst = self.ring.bank_node(bank);
                match self.ring.try_send(RingKind::Request, src, dst, core, now) {
                    Some(out) => {
                        if let Some(rq) = self.inflight.get_mut(&req) {
                            rq.interference.ring += out.interference;
                        }
                        self.push_ev(out.arrival, Ev::LlcLookup(req));
                    }
                    None => {
                        self.stats.backpressure_events += 1;
                        self.retries.push(Retry::RingReq(req));
                    }
                }
            }
            Retry::LlcMiss(req) => {
                let (core, block) = self.req_core_block(req);
                let bank = self.bank_of(block);
                let local = self.bank_local(block);
                if self.llc_mshr[bank].contains(local) {
                    // Merging discards any accumulated `enqueue_wait_fp` on
                    // purpose: the primary was queued for that whole window,
                    // and its mc_queue charges (propagated at release) cover
                    // it — folding this request's own would double-count.
                    self.llc_mshr[bank].allocate(local, req);
                    return;
                }
                if self.llc_mshr[bank].is_full() {
                    self.stats.backpressure_events += 1;
                    self.retries.push(Retry::LlcMiss(req));
                    return;
                }
                if !self.mc.enqueue_read(req, core, block, now) {
                    self.stats.backpressure_events += 1;
                    // The read queue is full: this wait is interference in
                    // proportion to the rival cores' share of the queue
                    // (running alone, only the core's own traffic blocks it).
                    let share = self.rival_queue_share(core, block);
                    if let Some(rq) = self.inflight.get_mut(&req) {
                        rq.enqueue_wait_fp += share;
                    }
                    self.retries.push(Retry::LlcMiss(req));
                    return;
                }
                self.llc_mshr[bank].allocate(local, req);
                if let Some(rq) = self.inflight.get_mut(&req) {
                    rq.mc_enqueued_at = Some(now);
                    rq.interference.mc_queue += rq.enqueue_wait_fp >> 16;
                    rq.enqueue_wait_fp = 0;
                }
            }
            Retry::RingResp(req) => {
                let (core, block) = self.req_core_block(req);
                let bank = self.bank_of(block);
                let src = self.ring.bank_node(bank);
                let dst = self.ring.core_node(core);
                match self.ring.try_send(RingKind::Response, src, dst, core, now) {
                    Some(out) => {
                        if let Some(rq) = self.inflight.get_mut(&req) {
                            rq.interference.ring += out.interference;
                        }
                        self.push_ev(out.arrival, Ev::AtCore(req));
                    }
                    None => {
                        self.stats.backpressure_events += 1;
                        self.retries.push(Retry::RingResp(req));
                    }
                }
            }
            Retry::WbRing { core, block } => {
                let bank = self.bank_of(block);
                let src = self.ring.core_node(core);
                let dst = self.ring.bank_node(bank);
                match self.ring.try_send(RingKind::Request, src, dst, core, now) {
                    Some(out) => {
                        self.stats.l2_writebacks += 1;
                        self.push_ev(out.arrival, Ev::WbAtLlc { core, block });
                    }
                    None => {
                        self.stats.backpressure_events += 1;
                        self.retries.push(Retry::WbRing { core, block });
                    }
                }
            }
            Retry::WbMc { core, block } => {
                if self.mc.enqueue_write(core, block, now) {
                    self.stats.llc_writebacks += 1;
                } else {
                    self.stats.backpressure_events += 1;
                    self.retries.push(Retry::WbMc { core, block });
                }
            }
        }
    }

    fn fill_l1(&mut self, core: CoreId, block: Addr, dirty: bool) {
        let c = core.idx();
        if let Some(victim) = self.l1d[c].fill(block, core, dirty) {
            // L1 dirty victim descends to the L2 (no timing modelled for
            // this short hop; bandwidth is dominated by lower levels).
            if !self.l2[c].mark_dirty(victim.block) {
                if let Some(v2) = self.l2[c].fill(victim.block, core, true) {
                    self.retries.push(Retry::WbRing { core, block: v2.block });
                }
            }
        }
    }

    /// Release the L1 MSHR for `block` and complete all waiting requests.
    fn release_l1(&mut self, core: CoreId, block: Addr, now: Cycle, probes: &mut Vec<ProbeEvent>) {
        let c = core.idx();
        if let Some((primary, merged)) = self.l1_mshr[c].release(block) {
            // Copy SMS metadata from the primary onto merged completions.
            let meta = {
                let p = &self.inflight[&primary];
                (
                    p.left_private_at,
                    p.llc_hit,
                    p.llc_done_at,
                    p.mc_enqueued_at,
                    p.mc_finished_at,
                    p.interference,
                )
            };
            self.complete(primary, now, false, probes);
            for id in merged {
                if let Some(r) = self.inflight.get_mut(&id) {
                    r.left_private_at = meta.0;
                    r.llc_hit = meta.1;
                    r.llc_done_at = meta.2;
                    r.mc_enqueued_at = meta.3;
                    r.mc_finished_at = meta.4;
                    r.interference = meta.5;
                }
                self.complete(id, now, true, probes);
            }
        }
    }

    /// Build and deliver the completion for `req`.
    fn complete(
        &mut self,
        req: ReqId,
        now: Cycle,
        merged_secondary: bool,
        probes: &mut Vec<ProbeEvent>,
    ) {
        let r = match self.inflight.remove(&req) {
            Some(r) => r,
            None => return,
        };
        let sms = r.is_sms();
        let (pre_llc, post_llc) = if sms {
            let leave = r.left_private_at.unwrap_or(r.issued_at);
            let total = now.saturating_sub(leave);
            match (r.mc_enqueued_at, r.mc_finished_at) {
                (Some(enq), Some(fin)) => {
                    let post = fin.saturating_sub(enq).min(total);
                    (total - post, post)
                }
                _ => (total, 0),
            }
        } else {
            (0, 0)
        };
        // Any L1 miss completion (SMS or PMS) triggers GDP's Algorithm 2.
        // L1 hits never entered the PRB and raise no event.
        if r.l1_miss && r.kind == AccessKind::Load {
            let c = r.core.idx();
            debug_assert!(self.load_misses_out[c] > 0);
            self.load_misses_out[c] -= 1;
        }
        if r.l1_miss {
            probes.push(ProbeEvent::LoadL1MissDone {
                core: r.core,
                req,
                block: r.block,
                cycle: now,
                sms,
                latency: now - r.issued_at,
                interference: r.interference,
                llc_hit: r.llc_hit,
                post_llc,
            });
        }
        self.completions.push(CompletedAccess {
            req,
            core: r.core,
            block: r.block,
            kind: r.kind,
            issued_at: r.issued_at,
            completed_at: now,
            sms,
            llc_hit: r.llc_hit,
            interference: r.interference,
            pre_llc,
            post_llc,
            merged_secondary,
            l1_miss: r.l1_miss,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn run(ms: &mut MemorySystem, from: Cycle, to: Cycle, probes: &mut Vec<ProbeEvent>) {
        for t in from..to {
            ms.tick(t, probes);
        }
    }

    #[test]
    fn l1_hit_completes_after_l1_latency() {
        let cfg = SimConfig::scaled(2);
        let mut ms = MemorySystem::new(&cfg);
        let mut p = Vec::new();
        // Prime the L1.
        let out = ms.access(CoreId(0), 0x1000, AccessKind::Load, 0, &mut p);
        assert!(matches!(out, AccessOutcome::Pending(_)));
        run(&mut ms, 0, 2000, &mut p);
        assert_eq!(ms.take_completions().len(), 1);

        // Second access hits.
        let t0 = 2000;
        ms.access(CoreId(0), 0x1000, AccessKind::Load, t0, &mut p);
        run(&mut ms, t0, t0 + 10, &mut p);
        let done = ms.take_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].latency(), cfg.l1d.latency);
        assert!(!done[0].sms);
        assert!(ms.quiescent());
    }

    #[test]
    fn miss_travels_to_dram_and_back() {
        let cfg = SimConfig::scaled(2);
        let mut ms = MemorySystem::new(&cfg);
        let mut p = Vec::new();
        ms.access(CoreId(0), 0x4000, AccessKind::Load, 0, &mut p);
        run(&mut ms, 0, 3000, &mut p);
        let done = ms.take_completions();
        assert_eq!(done.len(), 1);
        let d = &done[0];
        assert!(d.sms, "a cold miss must visit the shared system");
        assert_eq!(d.llc_hit, Some(false));
        assert!(d.post_llc > 0, "DRAM time must be attributed post-LLC");
        assert!(d.pre_llc > 0, "ring/LLC time must be attributed pre-LLC");
        assert!(d.latency() > 150, "latency {} too small", d.latency());
        assert!(p.iter().any(|e| matches!(e, ProbeEvent::LoadL1Miss { .. })));
        assert!(p.iter().any(|e| matches!(e, ProbeEvent::LoadL1MissDone { sms: true, .. })));
        assert!(p.iter().any(|e| matches!(e, ProbeEvent::LlcAccess { hit: false, .. })));
    }

    #[test]
    fn second_access_hits_llc_after_eviction_from_l2() {
        let cfg = SimConfig::scaled(2);
        let mut ms = MemorySystem::new(&cfg);
        let mut p = Vec::new();
        ms.access(CoreId(0), 0, AccessKind::Load, 0, &mut p);
        run(&mut ms, 0, 3000, &mut p);
        ms.take_completions();

        // Thrash the L1+L2 with enough blocks to evict block 0.
        let l2_bytes = cfg.l2.size_bytes;
        let mut t = 3000;
        for i in 0..(2 * l2_bytes / BLOCK_BYTES) {
            loop {
                match ms.access(CoreId(0), (i + 1) * BLOCK_BYTES, AccessKind::Load, t, &mut p) {
                    AccessOutcome::Pending(_) => break,
                    AccessOutcome::Blocked => {
                        ms.tick(t, &mut p);
                        t += 1;
                    }
                }
            }
            for _ in 0..4 {
                ms.tick(t, &mut p);
                t += 1;
            }
        }
        run(&mut ms, t, t + 8000, &mut p);
        ms.take_completions();

        let t0 = t + 8000;
        ms.access(CoreId(0), 0, AccessKind::Load, t0, &mut p);
        run(&mut ms, t0, t0 + 3000, &mut p);
        let done = ms.take_completions();
        assert_eq!(done.len(), 1);
        assert!(done[0].sms);
        assert_eq!(done[0].llc_hit, Some(true), "block must still be in the LLC");
        assert_eq!(done[0].post_llc, 0);
    }

    #[test]
    fn mshr_merging_completes_both_requests() {
        let cfg = SimConfig::scaled(2);
        let mut ms = MemorySystem::new(&cfg);
        let mut p = Vec::new();
        let a = ms.access(CoreId(0), 0x8000, AccessKind::Load, 0, &mut p);
        let b = ms.access(CoreId(0), 0x8020, AccessKind::Load, 0, &mut p); // same block
        assert!(matches!(a, AccessOutcome::Pending(_)));
        assert!(matches!(b, AccessOutcome::Pending(_)));
        run(&mut ms, 0, 3000, &mut p);
        let done = ms.take_completions();
        assert_eq!(done.len(), 2, "merged request completes with the primary");
        assert_eq!(done[0].completed_at, done[1].completed_at);
        assert_eq!(done.iter().filter(|d| d.merged_secondary).count(), 1);
        assert!(ms.quiescent());
    }

    #[test]
    fn l1_blocks_when_mshrs_exhausted() {
        let mut cfg = SimConfig::scaled(2);
        cfg.l1d.mshrs = 2;
        let mut ms = MemorySystem::new(&cfg);
        let mut p = Vec::new();
        assert!(matches!(
            ms.access(CoreId(0), 0x0000, AccessKind::Load, 0, &mut p),
            AccessOutcome::Pending(_)
        ));
        assert!(matches!(
            ms.access(CoreId(0), 0x1000, AccessKind::Load, 0, &mut p),
            AccessOutcome::Pending(_)
        ));
        assert_eq!(
            ms.access(CoreId(0), 0x2000, AccessKind::Load, 0, &mut p),
            AccessOutcome::Blocked
        );
        assert!(!ms.l1_can_accept(CoreId(0)));
        // Merging into an existing MSHR still works while full.
        assert!(matches!(
            ms.access(CoreId(0), 0x1000, AccessKind::Load, 0, &mut p),
            AccessOutcome::Pending(_)
        ));
    }

    #[test]
    fn stores_mark_lines_dirty_and_produce_writebacks() {
        let cfg = SimConfig::scaled(2);
        let mut ms = MemorySystem::new(&cfg);
        let mut p = Vec::new();
        ms.access(CoreId(0), 0, AccessKind::Store, 0, &mut p);
        run(&mut ms, 0, 3000, &mut p);
        ms.take_completions();
        // Evict block 0 from the L1 by filling its set.
        let set_stride = (cfg.l1d.sets() as u64) * BLOCK_BYTES;
        let mut t = 3000;
        for i in 1..=cfg.l1d.ways as u64 {
            ms.access(CoreId(0), i * set_stride, AccessKind::Load, t, &mut p);
            run(&mut ms, t, t + 3000, &mut p);
            ms.take_completions();
            t += 3000;
        }
        assert!(ms.l2(CoreId(0)).peek(0), "dirty victim must land in the L2");
    }

    #[test]
    fn blocked_mc_enqueue_charges_rival_queue_share() {
        // A one-entry read queue forces backpressure; the wait to enter it
        // while a rival occupies it must surface as mc_queue interference.
        let mut cfg = SimConfig::scaled(2);
        cfg.dram.read_queue = 1;
        let mut ms = MemorySystem::new(&cfg);
        let mut p = Vec::new();
        for i in 0..6u64 {
            ms.access(CoreId(0), 0x0100_0000 + i * 4096, AccessKind::Load, 0, &mut p);
            ms.access(CoreId(1), 0x0900_0000 + i * 4096, AccessKind::Load, 0, &mut p);
        }
        run(&mut ms, 0, 30_000, &mut p);
        let done = ms.take_completions();
        assert_eq!(done.len(), 12);
        assert!(ms.stats.backpressure_events > 0, "read queue must backpressure");
        let mc_q: u64 = done.iter().map(|d| d.interference.mc_queue).sum();
        assert!(mc_q > 0, "blocked enqueue behind a rival must count as interference");
        assert!(ms.quiescent());
    }

    #[test]
    fn cross_core_interference_is_recorded() {
        let cfg = SimConfig::scaled(2);
        let mut ms = MemorySystem::new(&cfg);
        let mut p = Vec::new();
        let mut t = 0;
        for i in 0..8u64 {
            ms.access(CoreId(0), 0x0010_0000 + i * 4096, AccessKind::Load, t, &mut p);
            ms.access(CoreId(1), 0x0200_0000 + i * 4096, AccessKind::Load, t, &mut p);
            ms.tick(t, &mut p);
            t += 1;
        }
        run(&mut ms, t, t + 8000, &mut p);
        let done = ms.take_completions();
        assert_eq!(done.len(), 16);
        let total_intf: u64 = done.iter().map(|d| d.interference.total()).sum();
        assert!(total_intf > 0, "competing cores must interfere");
        assert!(ms.quiescent());
    }

    #[test]
    fn pre_and_post_llc_latency_sum_to_sms_latency() {
        let cfg = SimConfig::scaled(2);
        let mut ms = MemorySystem::new(&cfg);
        let mut p = Vec::new();
        ms.access(CoreId(0), 0x9000, AccessKind::Load, 0, &mut p);
        run(&mut ms, 0, 3000, &mut p);
        let done = ms.take_completions();
        let d = &done[0];
        let leave_to_done = d.pre_llc + d.post_llc;
        assert!(leave_to_done <= d.latency());
        // The private portion (L1+L2 lookup) accounts for the rest.
        assert_eq!(d.latency() - leave_to_done, cfg.l1d.latency + cfg.l2.latency);
    }
}
