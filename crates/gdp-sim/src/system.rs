//! The top-level simulated system: N cores plus the shared memory
//! hierarchy.
//!
//! Two advancement engines share one state machine:
//!
//! * [`System::step`] — the fixed-increment reference engine: every
//!   component ticks every cycle. Simple, obviously correct, and kept as
//!   the oracle the event-driven engine is validated against.
//! * [`System::advance`] — the event-driven, quiescence-aware engine:
//!   after one mandatory step, each component reports its next-activity
//!   cycle and `now` jumps straight to the minimum, crossing dead
//!   stretches (every core stalled on a memory access whose completion
//!   cycle is already scheduled) in O(1) while accruing their cycle
//!   counts in bulk. Statistics, probe events and completion timing are
//!   **bit-identical** between the two engines; only wall-clock differs.
//!
//! * **Shared mode** — one benchmark per core, all cores active.
//! * **Private mode** — a single benchmark on core 0 with every other core
//!   idle (the paper's off-line configuration used as accounting ground
//!   truth). Build it by passing a single-element stream vector against a
//!   multi-core configuration.

use crate::config::SimConfig;
use crate::core::pipeline::{Core, CoreActivity};
use crate::core::InstrStream;
use crate::mem::MemorySystem;
use crate::probe::ProbeEvent;
use crate::stats::{CoreStats, Snapshot};
use crate::types::{CoreId, Cycle};

/// Engine activity counters accumulated by [`System::advance`] /
/// [`System::step`]. Plain integers (no atomics, no dependencies): the
/// simulator is single-threaded, and sessions export these into a
/// telemetry registry at interval boundaries.
///
/// All fields are deterministic for a given configuration and workload —
/// they count simulated work, not wall-clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Cycles the clock has advanced in total (`now`).
    pub cycles: u64,
    /// Dead cycles crossed in bulk by the event-driven engine.
    pub cycles_skipped: u64,
    /// Cycles executed one-by-one (`cycles - cycles_skipped`).
    pub cycles_stepped: u64,
    /// Calls into [`System::advance`].
    pub advance_calls: u64,
    /// Bulk clock jumps taken (quiescent stretches actually crossed).
    pub bulk_jumps: u64,
    /// Per-core quiet windows installed (`set_quiet` cache fills).
    pub quiet_windows: u64,
    /// Steps taken under `GDP_SIM_ENGINE=step` (oracle mode); non-zero
    /// only when the reference engine is forced.
    pub oracle_steps: u64,
}

/// A complete simulated CMP.
#[derive(Debug)]
pub struct System {
    cfg: SimConfig,
    cores: Vec<Core>,
    mem: MemorySystem,
    now: Cycle,
    probes: Vec<ProbeEvent>,
    /// Dead cycles crossed in bulk by [`System::advance`].
    skipped: u64,
    /// `GDP_SIM_ENGINE=step` forces [`System::advance`] to run the
    /// step-by-1 reference engine — the end-to-end A/B hook CI uses to
    /// byte-diff campaign output between the engines.
    force_step: bool,
    /// Engine activity counts (advance calls, jumps, quiet windows).
    engine: EngineCounters,
}

impl System {
    /// Build a system running one [`InstrStream`] per active core. Streams
    /// may number fewer than `cfg.cores`: remaining cores stay idle (this
    /// is how private-mode runs are configured).
    ///
    /// # Panics
    /// Panics if more streams than cores are supplied.
    pub fn new(cfg: SimConfig, streams: Vec<InstrStream>) -> Self {
        assert!(
            streams.len() <= cfg.cores,
            "{} streams but only {} cores",
            streams.len(),
            cfg.cores
        );
        let cores = streams
            .into_iter()
            .enumerate()
            .map(|(i, s)| Core::new(CoreId(i as u8), &cfg.core, s))
            .collect();
        let mem = MemorySystem::new(&cfg);
        let force_step = std::env::var_os("GDP_SIM_ENGINE").is_some_and(|v| v == "step");
        System {
            cfg,
            cores,
            mem,
            now: 0,
            probes: Vec::new(),
            skipped: 0,
            force_step,
            engine: EngineCounters::default(),
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Statistics of core `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is not an active core.
    pub fn core_stats(&self, idx: usize) -> &CoreStats {
        self.cores[idx].stats()
    }

    /// Snapshot of all active cores' statistics at the current cycle.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot { cycle: self.now, cores: self.cores.iter().map(|c| *c.stats()).collect() }
    }

    /// Mutable access to the memory system (partitioning, ASM priority).
    pub fn mem(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Immutable access to the memory system.
    pub fn mem_ref(&self) -> &MemorySystem {
        &self.mem
    }

    /// Install (or clear) LLC way-partition masks.
    pub fn set_llc_partition(&mut self, masks: Option<Vec<u64>>) {
        self.mem.set_llc_partition(masks);
    }

    /// Take all probe events accumulated since the last drain.
    ///
    /// The order is deterministic for a given configuration and workload:
    /// each cycle the memory system appends its events before the cores
    /// (in core order), and the simulation itself is single-threaded and
    /// free of ambient randomness. `gdp-trace` relies on this contract —
    /// a recorded stream replayed through the same estimators reproduces
    /// the live estimates bit-for-bit precisely because two identical
    /// runs drain identical event sequences.
    pub fn drain_probes(&mut self) -> Vec<ProbeEvent> {
        std::mem::take(&mut self.probes)
    }

    /// Advance the whole system by one cycle.
    pub fn step(&mut self) {
        let now = self.now;
        self.mem.tick(now, &mut self.probes);
        for done in self.mem.take_completions() {
            self.cores[done.core.idx()].record_mem_completion(&done);
        }
        for core in &mut self.cores {
            core.tick(now, &mut self.mem, &mut self.probes);
        }
        self.now += 1;
    }

    /// Advance at least one cycle, then jump directly to the next cycle
    /// at which any component can change state, never passing `limit`.
    ///
    /// This is the event-driven engine: after the mandatory [`step`],
    /// every component reports the earliest future cycle it could act
    /// ([`Core::next_activity`], `MemorySystem::next_activity`), and
    /// `now` moves straight to the minimum. The skipped cycles are dead
    /// by construction — no commits, no issues, no probe events, no
    /// memory-controller decisions — so bulk-accounting them onto each
    /// core's cycle counter leaves statistics, probe streams and
    /// completion timing **bit-identical** to calling [`step`] in a
    /// loop, at O(1) cost per dead stretch.
    ///
    /// `limit` exists for callers with cycle-indexed obligations
    /// (accounting-interval boundaries, ASM epoch rotations, cycle
    /// caps): `advance` never moves `now` beyond it, so those callers
    /// observe the exact boundary cycle just as a step-by-1 loop would.
    ///
    /// [`step`]: System::step
    /// [`Core::next_activity`]: crate::core::pipeline::Core::next_activity
    pub fn advance(&mut self, limit: Cycle) {
        // The mandatory step always moves the clock one cycle, so a limit
        // at or below `now` cannot be honored — callers must pass a
        // strictly future bound (the run loops re-derive theirs after
        // every advance for exactly this reason).
        debug_assert!(limit > self.now, "advance limit {limit} is not past cycle {}", self.now);
        self.engine.advance_calls += 1;
        if self.force_step {
            self.engine.oracle_steps += 1;
            self.step();
            return;
        }
        self.step();
        if self.now >= limit {
            return;
        }
        // Refresh each core's cached quiescence window. A cached window
        // makes the core's subsequent ticks O(1) (see `Core::tick`) even
        // when the system as a whole cannot skip — the common case on
        // wide CMPs where the memory controller arbitrates every cycle
        // while most cores sit in long stalls.
        let mut all_quiet = true;
        let mut bound: Option<Cycle> = None;
        for i in 0..self.cores.len() {
            if self.now >= self.cores[i].quiet_until() {
                match self.cores[i].next_activity(self.now) {
                    CoreActivity::Now => {
                        all_quiet = false;
                        continue;
                    }
                    CoreActivity::Quiescent { next, l1_retry } => {
                        let retry = match l1_retry {
                            // The core's l1_blocked flag may be stale;
                            // only a probe confirmed blocked against live
                            // MSHR/tag state is guaranteed pure.
                            Some(block) => {
                                if !self.mem.l1_probe_stays_blocked(CoreId(i as u8), block) {
                                    all_quiet = false;
                                    continue; // it would succeed: real work
                                }
                                Some(block)
                            }
                            None => None,
                        };
                        let until = next.unwrap_or(Cycle::MAX);
                        if until <= self.now {
                            all_quiet = false;
                            continue;
                        }
                        self.cores[i].set_quiet(until, retry);
                        self.engine.quiet_windows += 1;
                    }
                }
            }
            let until = self.cores[i].quiet_until();
            if until != Cycle::MAX {
                bound = Some(bound.map_or(until, |b| b.min(until)));
            }
        }
        if !all_quiet {
            return;
        }
        // Every core is verified quiescent: jump the clock to the next
        // cycle anything can happen (bounded by `limit`), accounting the
        // dead cycles in bulk.
        match self.mem.next_activity(self.now) {
            Some(t) if t <= self.now => return, // memory is active: no jump
            Some(t) => bound = Some(bound.map_or(t, |b| b.min(t))),
            None => {}
        }
        let target = match bound {
            Some(t) => t.min(limit),
            // Nothing self-schedules at all: the system is dead until
            // `limit` (a step-by-1 engine would spin to the same state).
            None => limit,
        };
        if target > self.now {
            let skipped = target - self.now;
            for core in &mut self.cores {
                core.add_idle_cycles(skipped);
                if core.quiet_l1_retry().is_some() {
                    self.mem.replay_blocked_l1_probes(core.id(), skipped);
                }
            }
            // Stably-blocked memory retries re-fail once per skipped
            // cycle; replay their counter effects in bulk.
            self.mem.replay_blocked_retries(skipped);
            self.skipped += skipped;
            self.engine.bulk_jumps += 1;
            self.now = target;
        }
    }

    /// Dead cycles crossed in bulk by [`System::advance`] so far — the
    /// cycles a step-by-1 engine would have burned real work on.
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped
    }

    /// Engine activity counters at the current cycle (see
    /// [`EngineCounters`]); the cycle totals are filled in from the live
    /// clock so the snapshot is always self-consistent.
    pub fn engine_counters(&self) -> EngineCounters {
        EngineCounters {
            cycles: self.now,
            cycles_skipped: self.skipped,
            cycles_stepped: self.now - self.skipped,
            ..self.engine
        }
    }

    /// The engine's activity predictions at the current cycle: per-core
    /// [`CoreActivity`] reports plus the memory system's next-activity
    /// bound. Exposed for the quiescence oracle test, which replays these
    /// predictions against the step-by-1 reference engine cycle by cycle.
    pub fn quiescence_diag(&self) -> (Vec<CoreActivity>, Option<Cycle>) {
        (
            self.cores.iter().map(|c| c.next_activity(self.now)).collect(),
            self.mem.next_activity(self.now),
        )
    }

    /// Run for `n` cycles (event-driven; bit-identical to `n` calls of
    /// [`step`](System::step)).
    pub fn run_cycles(&mut self, n: u64) {
        let deadline = self.now + n;
        while self.now < deadline {
            self.advance(deadline);
        }
    }

    /// Run until core `idx` has committed at least `target` instructions,
    /// or `max_cycles` elapse. Returns the cycle reached.
    pub fn run_core_until_committed(&mut self, idx: usize, target: u64, max_cycles: u64) -> Cycle {
        let deadline = self.now + max_cycles;
        while self.now < deadline && self.cores[idx].committed() < target {
            self.advance(deadline);
        }
        self.now
    }

    /// Close any open stall runs so the cycle taxonomy is complete; call at
    /// the end of a measurement.
    pub fn finalize(&mut self) {
        let now = self.now;
        for core in &mut self.cores {
            core.finalize(now, &mut self.probes);
        }
    }

    /// Committed instructions on core `idx`.
    pub fn committed(&self, idx: usize) -> u64 {
        self.cores[idx].committed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::instr::Instr;

    /// A memory-hungry synthetic kernel: strided loads over `blocks` cache
    /// blocks with some ALU filler.
    fn streaming_program(base: u64, blocks: u64) -> Vec<Instr> {
        let mut prog = Vec::new();
        for i in 0..blocks {
            prog.push(Instr::load(base + i * 64, &[]));
            prog.push(Instr::alu(&[1]));
            prog.push(Instr::alu(&[1]));
        }
        prog
    }

    #[test]
    fn single_core_system_runs_and_commits() {
        let cfg = SimConfig::scaled(2);
        let mut sys = System::new(cfg, vec![InstrStream::cyclic(streaming_program(0, 512))]);
        sys.run_cycles(20_000);
        sys.finalize();
        let s = sys.core_stats(0);
        assert!(s.committed_instrs > 1000, "committed {}", s.committed_instrs);
        assert_eq!(s.commit_cycles + s.stalls(), s.cycles);
    }

    #[test]
    fn sharing_slows_down_memory_bound_cores() {
        // Private mode: benchmark alone.
        let prog = streaming_program(0, 8192); // 512 KB, misses the L2
        let cfg = SimConfig::scaled(2);
        let mut private = System::new(cfg.clone(), vec![InstrStream::cyclic(prog.clone())]);
        private.run_core_until_committed(0, 20_000, 2_000_000);
        let private_cycles = private.now();

        // Shared mode: an antagonist streams on core 1.
        let antagonist = streaming_program(0x4000_0000, 8192);
        let mut shared =
            System::new(cfg, vec![InstrStream::cyclic(prog), InstrStream::cyclic(antagonist)]);
        shared.run_core_until_committed(0, 20_000, 4_000_000);
        let shared_cycles = shared.now();

        assert!(
            shared_cycles > private_cycles * 11 / 10,
            "interference must slow core 0: private={private_cycles} shared={shared_cycles}"
        );
        // And the interference counters must have seen it.
        assert!(shared.core_stats(0).interference_sum > 0);
    }

    #[test]
    fn idle_cores_do_not_perturb_private_mode() {
        let prog = streaming_program(0, 1024);
        let cfg2 = SimConfig::scaled(2);
        let mut a = System::new(cfg2, vec![InstrStream::cyclic(prog.clone())]);
        a.run_core_until_committed(0, 5_000, 1_000_000);
        // Same program on a 2-core config built for 2 streams but given 1.
        let cfg2b = SimConfig::scaled(2);
        let mut b = System::new(cfg2b, vec![InstrStream::cyclic(prog)]);
        b.run_core_until_committed(0, 5_000, 1_000_000);
        assert_eq!(a.now(), b.now(), "private runs must be deterministic");
    }

    #[test]
    fn probes_accumulate_and_drain() {
        let cfg = SimConfig::scaled(2);
        let mut sys = System::new(cfg, vec![InstrStream::cyclic(streaming_program(0, 512))]);
        sys.run_cycles(5_000);
        let events = sys.drain_probes();
        assert!(!events.is_empty());
        assert!(sys.drain_probes().is_empty(), "drain must empty the log");
        // Events are causally ordered per kind; check cycles are sane.
        for e in &events {
            assert!(e.cycle() <= 5_000 + 10_000, "event beyond horizon");
        }
    }

    /// Drive a system with the step-by-1 reference engine for `n` cycles.
    fn run_stepped(sys: &mut System, n: u64) {
        for _ in 0..n {
            sys.step();
        }
    }

    #[test]
    fn event_engine_is_bit_identical_to_stepped_engine() {
        let mk = || {
            let cfg = SimConfig::scaled(2);
            System::new(
                cfg,
                vec![
                    InstrStream::cyclic(streaming_program(0, 4096)),
                    InstrStream::cyclic(streaming_program(0x4000_0000, 64)),
                ],
            )
        };
        let horizon = 30_000;
        let mut a = mk();
        run_stepped(&mut a, horizon);
        let mut b = mk();
        b.run_cycles(horizon); // event-driven
        a.finalize();
        b.finalize();
        assert_eq!(a.now(), b.now());
        for c in 0..2 {
            assert_eq!(a.core_stats(c), b.core_stats(c), "core {c} stats diverged");
        }
        assert_eq!(a.mem_ref().stats, b.mem_ref().stats);
        assert_eq!(a.drain_probes(), b.drain_probes(), "probe streams diverged");
        assert!(b.skipped_cycles() > 0, "memory-bound run must skip dead cycles");
        assert_eq!(a.skipped_cycles(), 0, "step() never skips");
    }

    #[test]
    fn engine_counters_track_jumps_and_windows() {
        let cfg = SimConfig::scaled(2);
        let mut sys = System::new(cfg, vec![InstrStream::cyclic(streaming_program(0, 8192))]);
        sys.run_cycles(40_000);
        let c = sys.engine_counters();
        assert_eq!(c.cycles, 40_000);
        assert_eq!(c.cycles_skipped, sys.skipped_cycles());
        assert_eq!(c.cycles_stepped + c.cycles_skipped, c.cycles);
        assert!(c.advance_calls > 0);
        assert!(c.bulk_jumps > 0, "memory-bound run must jump");
        // A cached quiet window can be reused across several jumps, so
        // no ordering holds between the two; both just have to fire.
        assert!(c.quiet_windows > 0);
        assert_eq!(c.oracle_steps, 0, "oracle mode not forced");
        assert!(c.advance_calls >= c.bulk_jumps);
    }

    #[test]
    fn advance_never_passes_its_limit() {
        let cfg = SimConfig::scaled(2);
        let mut sys = System::new(cfg, vec![InstrStream::cyclic(streaming_program(0, 8192))]);
        let mut boundaries = 0;
        while sys.now() < 40_000 {
            let limit = (sys.now() / 5_000 + 1) * 5_000;
            sys.advance(limit);
            assert!(sys.now() <= limit, "advance overshot {limit} to {}", sys.now());
            if sys.now() == limit {
                boundaries += 1;
            }
        }
        assert_eq!(boundaries, 8, "every 5K boundary must be observed exactly");
        assert!(sys.skipped_cycles() > 0);
    }

    #[test]
    fn llc_partitioning_is_wired_through() {
        let cfg = SimConfig::scaled(2);
        let mut sys = System::new(
            cfg,
            vec![
                InstrStream::cyclic(streaming_program(0, 4096)),
                InstrStream::cyclic(streaming_program(0x4000_0000, 4096)),
            ],
        );
        sys.set_llc_partition(Some(vec![0x00FF, 0xFF00]));
        sys.run_cycles(20_000);
        sys.finalize();
        assert!(sys.core_stats(0).committed_instrs > 0);
        assert!(sys.core_stats(1).committed_instrs > 0);
    }
}
