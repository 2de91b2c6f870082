//! The streaming estimation sessions: one API under the whole stack.
//!
//! An [`EstimationSession`] owns a [`System`], an
//! [`ObservationPlane`] (the probe stream's observers plus the attached
//! techniques' readouts) and an [`IntervalSchedule`], and exposes the
//! paper's runtime estimation loop *incrementally*:
//!
//! * [`EstimationSession::advance_to`] — simulate up to a target cycle,
//!   crossing every accounting-interval boundary exactly;
//! * [`EstimationSession::poll_estimates`] — drain the per-interval
//!   estimate rows produced since the last poll (one
//!   [`PrivateEstimate`](gdp_core::PrivateEstimate) per technique per
//!   core per interval);
//! * [`EstimationSession::into_report`] — finish the run and assemble
//!   the classic [`SharedRun`].
//!
//! [`ReplaySession`] feeds the same pipeline from a recorded trace and
//! [`StreamSession`] from intervals pushed in from outside. All three
//! drive one interval pipeline (observe, harvest, read out, count), so
//! they differ only in where an interval's events and boundaries come
//! from. The batch drivers are thin shims over these sessions, and a host
//! system embeds one to consume live interference-free estimates online
//! (see `examples/quickstart.rs`).

use std::sync::Arc;

use gdp_core::state::{EstimatorState, StateError};
use gdp_sim::probe::ProbeEvent;
use gdp_sim::stats::CoreStats;
use gdp_sim::types::{CoreId, Cycle};
use gdp_sim::{EngineCounters, System};
use gdp_telemetry::{log_info, Counter, MetricsRegistry, SpanHandle, TimeSeries};
use gdp_trace::{
    Boundary, CheckpointFile, SharedTrace, SharedTraceReader, StateCheckpoint, TraceError,
    TraceInterval, TraceSink,
};
use gdp_workloads::Workload;

use crate::config::ExperimentConfig;
use crate::interval::IntervalSchedule;
use crate::metrics::export_engine_counters;
use crate::plane::{FeedSpans, ObservationPlane};
use crate::shared::{CoreInterval, SharedRun};
use crate::techniques::Technique;

/// Telemetry handles a session resolves once at build time, so the
/// per-interval loop touches only atomics (never the registry's name
/// table). All `session.*` metrics are counters — sums over the
/// observed stream, deterministic for any job schedule — except the
/// spans, which measure wall-clock and live outside the deterministic
/// snapshot.
struct SessionMetrics {
    registry: Arc<MetricsRegistry>,
    /// `session.events`: probe events fed to the observation plane.
    events: Counter,
    /// `session.intervals`: accounting-interval rows emitted.
    intervals: Counter,
    /// `session.events.<id>`: events each subscribed technique observed
    /// (zero for techniques that opt out of the probe stream).
    tech_events: Vec<Counter>,
    /// Whether each technique consumes the probe stream.
    subscribed: Vec<bool>,
    /// `session.advance`: time inside [`EstimationSession::advance_to`]
    /// — engine stepping *plus* boundary estimation; subtract the
    /// `session.batch` span for pure engine time.
    advance_span: SpanHandle,
    /// `session.dief` (DIEF and its per-stall queries) and
    /// `session.observe` (GDP units and stateful techniques).
    feed: FeedSpans,
    /// `session.batch`: the whole per-interval pipeline — observe,
    /// harvest and every readout. Its self-time (total minus the
    /// dief/observe/estimate child spans) is the pipeline overhead
    /// `render_profile` separates from observer and readout time.
    batch_span: SpanHandle,
    /// `session.estimate.<id>`: per-technique estimate-phase time.
    estimate_spans: Vec<SpanHandle>,
    /// `ts.session.events`: probe events per interval index — the
    /// flight recorder's deterministic event-rate series. Indices are
    /// *session-local* (each session counts its own boundaries from 0),
    /// so concurrent campaign jobs fold order-free and the series is
    /// byte-identical for every `--jobs N`.
    ts_events: TimeSeries,
    /// `ts.session.intervals`: rows per interval index (the number of
    /// sessions that reached that boundary).
    ts_rows: TimeSeries,
    /// `ts.engine.cycles`: simulated cycles crossed per interval.
    ts_cycles: TimeSeries,
    /// `ts.engine.cycles_skipped`: dead cycles bulk-skipped per interval.
    ts_cycles_skipped: TimeSeries,
    /// `ts.llc.accesses`: LLC accesses per interval (summed over cores).
    ts_llc_accesses: TimeSeries,
    /// `ts.llc.misses`: LLC misses per interval (summed over cores).
    ts_llc_misses: TimeSeries,
    /// `ts.session.batch_events`: technique-observations per interval
    /// index — events × subscribed techniques. Deterministic (a pure
    /// function of the observed stream).
    ts_batch_events: TimeSeries,
    /// `tsw.session.estimate.<id>`: per-technique estimate-phase
    /// nanoseconds per interval — wall-clock, `timeseries_wall` group.
    estimate_ts: Vec<TimeSeries>,
}

impl SessionMetrics {
    fn new(registry: Arc<MetricsRegistry>, techniques: &[Technique]) -> SessionMetrics {
        let per_tech = |prefix: &str| -> Vec<String> {
            techniques.iter().map(|t| format!("{prefix}.{}", t.id())).collect()
        };
        SessionMetrics {
            events: registry.counter("session.events"),
            intervals: registry.counter("session.intervals"),
            tech_events: per_tech("session.events").iter().map(|n| registry.counter(n)).collect(),
            subscribed: techniques.iter().map(|t| t.caps().needs_probe_stream).collect(),
            advance_span: registry.span("session.advance"),
            feed: FeedSpans {
                dief: registry.span("session.dief"),
                observe: registry.span("session.observe"),
            },
            batch_span: registry.span("session.batch"),
            estimate_spans: per_tech("session.estimate").iter().map(|n| registry.span(n)).collect(),
            ts_events: registry.time_series("ts.session.events"),
            ts_rows: registry.time_series("ts.session.intervals"),
            ts_cycles: registry.time_series("ts.engine.cycles"),
            ts_cycles_skipped: registry.time_series("ts.engine.cycles_skipped"),
            ts_llc_accesses: registry.time_series("ts.llc.accesses"),
            ts_llc_misses: registry.time_series("ts.llc.misses"),
            ts_batch_events: registry.time_series("ts.session.batch_events"),
            estimate_ts: per_tech("tsw.session.estimate")
                .iter()
                .map(|n| registry.wall_time_series(n))
                .collect(),
            registry,
        }
    }
}

/// The one interval pipeline under every session (and fig6's policy
/// loop): the observation plane, its readouts and the session's
/// telemetry.
pub(crate) struct Pipeline {
    pub(crate) plane: ObservationPlane,
    /// Whether the plane's DIEF supplies λ̂ (live sessions) instead of
    /// the fed boundaries (recorded or pushed streams).
    live: bool,
    metrics: Option<SessionMetrics>,
}

impl Pipeline {
    pub(crate) fn new(techniques: &[Technique], xcfg: &ExperimentConfig, live: bool) -> Pipeline {
        let plane = ObservationPlane::new(techniques, &xcfg.technique_config(), live);
        Pipeline { plane, live, metrics: None }
    }

    fn attach_metrics(&mut self, registry: Arc<MetricsRegistry>) {
        self.metrics = Some(SessionMetrics::new(registry, self.plane.techniques()));
    }

    fn techniques(&self) -> &[Technique] {
        self.plane.techniques()
    }

    /// One accounting interval, index `idx`: [`Pipeline::observe`] then
    /// [`Pipeline::close`], metered.
    fn step(
        &mut self,
        idx: u64,
        events: &[ProbeEvent],
        boundaries: &[Boundary],
    ) -> Vec<CoreInterval> {
        let batch = self.metrics.as_ref().map(|mx| {
            let n = events.len() as u64;
            mx.events.add(n);
            mx.ts_events.record(idx, n);
            let subscribed = mx.subscribed.iter().filter(|&&s| s).count() as u64;
            mx.ts_batch_events.record(idx, n * subscribed);
            for (c, &on) in mx.tech_events.iter().zip(&mx.subscribed) {
                if on {
                    c.add(n);
                }
            }
            mx.batch_span.enter()
        });
        self.observe(events);
        let row = self.close(idx, boundaries);
        drop(batch);
        if let Some(mx) = &self.metrics {
            mx.intervals.inc();
            mx.ts_rows.record(idx, 1);
            mx.ts_llc_accesses.record(idx, boundaries.iter().map(|b| b.stats.llc_accesses).sum());
            mx.ts_llc_misses.record(idx, boundaries.iter().map(|b| b.stats.llc_misses).sum());
        }
        row
    }

    /// Feed one interval's events to the plane.
    pub(crate) fn observe(&mut self, events: &[ProbeEvent]) {
        self.plane.observe(events, self.metrics.as_ref().map(|mx| &mx.feed));
    }

    /// Close interval `idx` at one boundary per core: harvest each core's
    /// summary (in a live session, its λ̂ replaces the boundary's), then
    /// read every technique out, technique by technique.
    pub(crate) fn close(&mut self, idx: u64, boundaries: &[Boundary]) -> Vec<CoreInterval> {
        let mut inputs = Vec::with_capacity(boundaries.len());
        let mut rows: Vec<CoreInterval> = Vec::with_capacity(boundaries.len());
        for (c, b) in boundaries.iter().enumerate() {
            let (summary, lambda) = self.plane.harvest(CoreId(c as u8), b.stats.cycles);
            let mut m = b.measurement();
            m.lambda = lambda.filter(|_| self.live).unwrap_or(b.lambda);
            inputs.push((summary, m));
            rows.push(CoreInterval {
                instr_start: b.instr_start,
                instr_end: b.instr_end,
                stats: b.stats,
                lambda: m.lambda,
                shared_latency: b.shared_latency,
                estimates: Vec::with_capacity(self.techniques().len()),
            });
        }
        for i in 0..self.techniques().len() {
            let _g = self.metrics.as_ref().map(|mx| mx.estimate_spans[i].enter());
            let start = std::time::Instant::now();
            for (c, (row, (summary, m))) in rows.iter_mut().zip(&inputs).enumerate() {
                row.estimates.push(self.plane.estimate(i, CoreId(c as u8), summary, m));
            }
            if let Some(mx) = &self.metrics {
                mx.estimate_ts[i].record(idx, start.elapsed().as_nanos() as u64);
            }
        }
        rows
    }

    /// The plane's state at boundary `at`.
    fn checkpoint(&self, at: u64) -> StateCheckpoint {
        StateCheckpoint { at, states: self.plane.snapshot() }
    }
}

/// Builder for an [`EstimationSession`].
///
/// ```no_run
/// use gdp_experiments::{ExperimentConfig, SessionBuilder, Technique};
/// use gdp_workloads::paper_workloads;
///
/// let xcfg = ExperimentConfig::quick(4);
/// let workload = &paper_workloads(4, 42)[0];
/// let mut session = SessionBuilder::new(workload, &xcfg)
///     .techniques(&[Technique::GDP, Technique::GDP_O])
///     .build();
/// while !session.done() {
///     session.advance_to(session.now() + 100_000);
///     for row in session.poll_estimates() {
///         let _ = &row[0].estimates; // one estimate per technique
///     }
/// }
/// ```
pub struct SessionBuilder<'s> {
    workload: Workload,
    xcfg: ExperimentConfig,
    techniques: Vec<Technique>,
    sink: Option<&'s mut dyn TraceSink>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl SessionBuilder<'static> {
    /// Start a builder for `workload` under `xcfg`, with the default
    /// technique set ([`Technique::ALL`]) attached.
    pub fn new(workload: &Workload, xcfg: &ExperimentConfig) -> SessionBuilder<'static> {
        SessionBuilder {
            workload: workload.clone(),
            xcfg: xcfg.clone(),
            techniques: Technique::ALL.to_vec(),
            sink: None,
            metrics: None,
        }
    }
}

impl<'s> SessionBuilder<'s> {
    /// Attach a technique set (canonicalized to registry order at
    /// build time). Selecting any invasive technique makes the run
    /// invasive — evaluate those separately, as the paper does.
    pub fn techniques(mut self, set: &[Technique]) -> SessionBuilder<'s> {
        self.techniques = set.to_vec();
        self
    }

    /// Attach a trace capture sink: it sees exactly the event batches
    /// and boundary measurements the observation plane sees.
    pub fn sink<'b>(self, sink: &'b mut dyn TraceSink) -> SessionBuilder<'b> {
        SessionBuilder {
            workload: self.workload,
            xcfg: self.xcfg,
            techniques: self.techniques,
            sink: Some(sink),
            metrics: self.metrics,
        }
    }

    /// Attach a metrics registry: the session resolves `session.*`
    /// counters and spans against it at build time and exports the
    /// engine's `engine.*` counters when the run finishes. Estimates are
    /// bit-identical with or without metrics attached; a host serving
    /// multiple tenants attaches one registry per session.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> SessionBuilder<'s> {
        self.metrics = Some(registry);
        self
    }

    /// Build the session.
    ///
    /// # Panics
    /// Panics if the workload's core count does not match the CMP.
    pub fn build(self) -> EstimationSession<'s> {
        let SessionBuilder { workload, xcfg, techniques, sink, metrics } = self;
        assert_eq!(workload.cores(), xcfg.sim.cores, "workload size must match the CMP");
        let mut pipeline = Pipeline::new(&techniques, &xcfg, true);
        if let Some(reg) = metrics {
            pipeline.attach_metrics(reg);
        }
        let sys = System::new(xcfg.sim.clone(), workload.streams());
        let mc_epoch = pipeline.techniques().iter().find_map(|t| t.mc_priority_epoch());
        let n = xcfg.sim.cores;
        let last_snapshot = (0..n).map(|c| *sys.core_stats(c)).collect();
        let last_engine = sys.engine_counters();
        EstimationSession {
            sys,
            pipeline,
            schedule: IntervalSchedule::new(xcfg.interval_cycles),
            mc_epoch,
            last_snapshot,
            last_engine,
            cores: n,
            cap: xcfg.cycle_cap(),
            sample_instrs: xcfg.sample_instrs,
            intervals: Vec::new(),
            emitted: 0,
            fresh: 0,
            sink,
        }
    }
}

/// A live streaming estimation session (see the module docs).
pub struct EstimationSession<'s> {
    sys: System,
    pipeline: Pipeline,
    schedule: IntervalSchedule,
    mc_epoch: Option<u64>,
    last_snapshot: Vec<CoreStats>,
    /// Engine counters at the previous boundary, so the flight recorder
    /// can record per-interval deltas (cycles, cycles skipped).
    last_engine: EngineCounters,
    cores: usize,
    cap: Cycle,
    sample_instrs: u64,
    intervals: Vec<Vec<CoreInterval>>,
    /// Boundary rows emitted over the session's lifetime — the flight
    /// recorder's interval index. Monotonic even when
    /// [`EstimationSession::take_estimates`] drains `intervals`.
    emitted: u64,
    fresh: usize,
    sink: Option<&'s mut dyn TraceSink>,
}

impl EstimationSession<'_> {
    /// Current simulated cycle.
    pub fn now(&self) -> Cycle {
        self.sys.now()
    }

    /// The canonical technique set attached to this session (estimate
    /// vectors are indexed in this order).
    pub fn techniques(&self) -> &[Technique] {
        self.pipeline.techniques()
    }

    /// Whether the run has reached its end condition: every core hit the
    /// instruction sample target, or the cycle safety cap fired.
    pub fn done(&self) -> bool {
        !(self.sys.now() < self.cap
            && (0..self.cores).any(|c| self.sys.committed(c) < self.sample_instrs))
    }

    /// Simulate up to `target` cycles (clamped by the run's cycle cap
    /// and end condition), producing an estimate row at every crossed
    /// accounting-interval boundary. Returns the number of new rows.
    ///
    /// Calling this with small increments is bit-identical to one big
    /// call: the engine only ever skips provably-dead cycles, and every
    /// cycle-indexed obligation (interval boundaries, invasive priority
    /// epochs) clamps the advance exactly as the batch loop did.
    pub fn advance_to(&mut self, target: Cycle) -> usize {
        // One span per call, not per engine step: the cycle-skipping
        // engine returns once per event, so a per-iteration guard would
        // pay two clock reads on every event (tens of millions per
        // campaign). `session.advance` therefore covers the whole call,
        // boundary emission included.
        let advance_span = self.pipeline.metrics.as_ref().map(|mx| mx.advance_span.clone());
        let _g = advance_span.as_ref().map(|h| h.enter());
        let before = self.intervals.len();
        while !self.done() && self.sys.now() < target {
            if let Some(epoch) = self.mc_epoch {
                if self.sys.now() % epoch == 0 {
                    let n = self.cores as u64;
                    let pc = CoreId(((self.sys.now() / epoch) % n) as u8);
                    self.sys.mem().mc().set_priority_core(Some(pc));
                }
            }
            // Clamp the engine to every cycle-indexed obligation so
            // boundaries are observed exactly.
            let mut limit = self.cap.min(target).min(self.schedule.next_boundary());
            if let Some(epoch) = self.mc_epoch {
                limit = limit.min((self.sys.now() / epoch + 1) * epoch);
            }
            self.sys.advance(limit);

            // Emit every boundary the advance reached (with the clamp
            // above that is at most one, but a missed boundary would
            // corrupt the interval record stream, so the loop is
            // load-bearing).
            while self.schedule.pop_crossed(self.sys.now()).is_some() {
                self.emit_boundary_row();
            }
        }
        self.intervals.len() - before
    }

    /// One accounting-interval boundary: close stall runs, drain the
    /// probe batch, run it through the pipeline (whose DIEF supplies each
    /// core's λ̂), and hand the capture sink the same batch and the
    /// boundaries the pipeline completed — `record_events`, then one
    /// `record_boundary` per core in core order.
    fn emit_boundary_row(&mut self) {
        // The flight recorder's interval index: session-local, counted
        // from 0 — deterministic regardless of job scheduling.
        let idx = self.emitted;
        self.emitted += 1;
        self.sys.finalize(); // close open stall runs at the boundary
        let events = self.sys.drain_probes();
        if let Some(mx) = &self.pipeline.metrics {
            let engine = self.sys.engine_counters();
            mx.ts_cycles.record(idx, engine.cycles - self.last_engine.cycles);
            mx.ts_cycles_skipped
                .record(idx, engine.cycles_skipped - self.last_engine.cycles_skipped);
            self.last_engine = engine;
        }
        let mut boundaries: Vec<Boundary> = (0..self.cores)
            .map(|c| {
                let cum = *self.sys.core_stats(c);
                Boundary::between(&std::mem::replace(&mut self.last_snapshot[c], cum), &cum)
            })
            .collect();
        let row = self.pipeline.step(idx, &events, &boundaries);
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record_events(&events);
            for (b, r) in boundaries.iter_mut().zip(&row) {
                b.lambda = r.lambda;
                sink.record_boundary(*b);
            }
        }
        self.intervals.push(row);
    }

    /// Run to the end condition (the batch mode).
    pub fn run_to_end(&mut self) {
        self.advance_to(self.cap);
    }

    /// Drain the estimate rows produced since the last poll:
    /// `rows[i][core]` carries the boundary measurement and one estimate
    /// per attached technique. Rows remain owned by the session — they
    /// also feed [`EstimationSession::into_report`] — so memory grows
    /// with run length; a long-running host that never wants the batch
    /// report should use [`EstimationSession::take_estimates`] instead.
    pub fn poll_estimates(&mut self) -> &[Vec<CoreInterval>] {
        let from = self.fresh;
        self.fresh = self.intervals.len();
        &self.intervals[from..]
    }

    /// Drain the retained rows *by value*, removing them from the
    /// session — the bounded-memory polling mode for long-running hosts:
    /// used exclusively, each call returns exactly the rows produced
    /// since the previous one and the session holds no history. A later
    /// [`EstimationSession::into_report`] still reports correct
    /// `cycles`/`final_stats` but only the rows not yet taken.
    pub fn take_estimates(&mut self) -> Vec<Vec<CoreInterval>> {
        self.fresh = 0;
        std::mem::take(&mut self.intervals)
    }

    /// All interval rows currently retained by the session.
    pub fn intervals(&self) -> &[Vec<CoreInterval>] {
        &self.intervals
    }

    /// Suspend the estimation stack into a [`StateCheckpoint`] at the
    /// current boundary count: the state of every observer the attached
    /// techniques read, stamped with the number of rows emitted so far.
    /// Feeding the same post-suspend stream to a session resumed from
    /// this checkpoint produces rows bit-identical to never having
    /// suspended (the contract `tests/suspend_resume.rs` pins).
    ///
    /// The simulator is not captured, and neither is a DIEF that only
    /// supplies λ̂: the intended resume targets are stream-fed consumers
    /// ([`StreamSession`], [`ReplaySession`]) that receive events and
    /// boundary measurements, λ̂ included, from outside.
    pub fn suspend(&self) -> StateCheckpoint {
        self.pipeline.checkpoint(self.emitted)
    }

    /// Restore the observers from `cp` and continue the flight-recorder
    /// interval index from `cp.at`, mirroring
    /// [`ReplaySession::restore_checkpoint`]. Fails — leaving the session
    /// unfit for bit-exact work — when the checkpoint lacks an observer's
    /// state or a state does not fit this configuration.
    pub fn resume_from(&mut self, cp: &StateCheckpoint) -> Result<(), StateError> {
        self.pipeline.plane.restore(cp)?;
        self.emitted = cp.at;
        Ok(())
    }

    /// Finish the run (if not already at its end condition), record the
    /// final statistics with any attached sink, and assemble the
    /// [`SharedRun`] report.
    pub fn into_report(mut self) -> SharedRun {
        self.run_to_end();
        let n = self.cores;
        let final_stats: Vec<CoreStats> = (0..n).map(|c| *self.sys.core_stats(c)).collect();
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record_final(self.sys.now(), &final_stats);
        }
        if let Some(mx) = &self.pipeline.metrics {
            export_engine_counters(&mx.registry, &self.sys.engine_counters());
        }
        SharedRun {
            techniques: self.pipeline.techniques().to_vec(),
            intervals: self.intervals,
            cycles: self.sys.now(),
            final_stats,
        }
    }
}

/// A streaming session over a *recorded* trace: the same pipeline and
/// the same per-interval surface as [`EstimationSession`], fed from a
/// [`SharedTrace`] at memory speed instead of a live simulator.
///
/// Because every observer is a pure function of its observed stream, a
/// replay session's estimates are bit-identical to the live session that
/// recorded the trace — for *any* registered technique subset (the
/// recorded stream does not depend on who observes it).
pub struct ReplaySession<'t> {
    trace: &'t SharedTrace,
    xcfg: ExperimentConfig,
    pipeline: Pipeline,
    next: usize,
    intervals: Vec<Vec<CoreInterval>>,
    fresh: usize,
}

impl<'t> ReplaySession<'t> {
    /// Build a replay session over `trace` with a (canonicalized)
    /// technique set built from the registry for `xcfg`.
    ///
    /// The technique set's *invasiveness must match the trace's run
    /// kind*: an invasive technique (ASM) perturbs the execution it
    /// measures, so replaying it over a transparently-recorded stream
    /// produces estimates no live run would — the trace format does not
    /// record run kind, so this cannot be checked here. The campaign
    /// cache layer gets it right by keying invasive runs separately
    /// ([`shared_trace_key_for`](crate::trace::shared_trace_key_for));
    /// direct callers carry the same obligation.
    pub fn new(
        trace: &'t SharedTrace,
        xcfg: &ExperimentConfig,
        techniques: &[Technique],
    ) -> ReplaySession<'t> {
        ReplaySession {
            trace,
            xcfg: xcfg.clone(),
            pipeline: Pipeline::new(techniques, xcfg, false),
            next: 0,
            intervals: Vec::new(),
            fresh: 0,
        }
    }

    /// Attach a metrics registry: the replayed stream feeds the same
    /// `session.*` counters and estimate spans a live session would
    /// (there is no `session.advance`/`engine.*` activity — replay never
    /// touches a simulator). Estimates are unaffected.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> ReplaySession<'t> {
        self.pipeline.attach_metrics(registry);
        self
    }

    /// The canonical technique set under replay.
    pub fn techniques(&self) -> &[Technique] {
        self.pipeline.techniques()
    }

    /// Whether every recorded interval has been replayed.
    pub fn done(&self) -> bool {
        self.next >= self.trace.intervals.len()
    }

    /// Replay the next recorded interval and return its row.
    fn replay_next(&mut self) -> Vec<CoreInterval> {
        // Replay's flight-recorder interval index is the position in the
        // recorded trace — the same session-local index the live run
        // used, so live and replay series line up bin-for-bin.
        let idx = self.next;
        let iv = &self.trace.intervals[idx];
        assert!(
            iv.boundaries.len() <= self.trace.cores,
            "{} boundaries in a {}-core trace",
            iv.boundaries.len(),
            self.trace.cores
        );
        self.next += 1;
        self.pipeline.step(idx as u64, &iv.events, &iv.boundaries)
    }

    /// Replay up to `count` recorded intervals; returns how many were
    /// processed (fewer at the end of the trace).
    pub fn advance_intervals(&mut self, count: usize) -> usize {
        let upto = self.next.saturating_add(count).min(self.trace.intervals.len());
        let done = upto - self.next;
        while self.next < upto {
            let row = self.replay_next();
            self.intervals.push(row);
        }
        done
    }

    /// Drain the estimate rows produced since the last poll (rows stay
    /// retained for [`ReplaySession::into_report`]).
    pub fn poll_estimates(&mut self) -> &[Vec<CoreInterval>] {
        let from = self.fresh;
        self.fresh = self.intervals.len();
        &self.intervals[from..]
    }

    /// Drain the retained rows by value (bounded-memory streaming; see
    /// [`EstimationSession::take_estimates`]).
    pub fn take_estimates(&mut self) -> Vec<Vec<CoreInterval>> {
        self.fresh = 0;
        std::mem::take(&mut self.intervals)
    }

    /// Replay any remaining intervals and assemble the [`SharedRun`],
    /// bit-identical to the live run with the same technique set.
    pub fn into_report(mut self) -> SharedRun {
        self.advance_intervals(usize::MAX);
        SharedRun {
            techniques: self.pipeline.techniques().to_vec(),
            intervals: self.intervals,
            cycles: self.trace.cycles,
            final_stats: self.trace.final_stats.clone(),
        }
    }

    /// Snapshot every observer the attached techniques read, keyed by
    /// observer id — the per-boundary payload the offline checkpoint
    /// summarizer stores
    /// ([`summarize_checkpoints`](crate::trace::summarize_checkpoints)).
    pub fn snapshot_states(&self) -> Vec<(String, EstimatorState)> {
        self.pipeline.plane.snapshot()
    }

    /// Restore from a checkpoint: seeks the session to interval `cp.at`
    /// with every observer's state restored, after which replay is
    /// bit-identical to a serial session that already replayed intervals
    /// `0..cp.at`. Fails — leaving the session unfit for bit-exact work
    /// until re-restored or rebuilt — when the checkpoint lacks an
    /// observer's state or a state does not fit this configuration.
    pub fn restore_checkpoint(&mut self, cp: &StateCheckpoint) -> Result<(), StateError> {
        self.pipeline.plane.restore(cp)?;
        self.next = (cp.at as usize).min(self.trace.intervals.len());
        Ok(())
    }

    /// Position the session at interval `k`: restore the nearest
    /// checkpoint at or before `k` when that beats replaying forward from
    /// here, rebuild the cold state when the session is already past `k`,
    /// then replay (discarding rows) up to `k`. A checkpoint that fails
    /// to restore degrades to replay from the trace start.
    fn seek(&mut self, k: usize, checkpoints: Option<&CheckpointFile>) {
        let cp = checkpoints
            .and_then(|f| f.nearest_at_or_before(k as u64))
            .filter(|cp| self.next > k || cp.at as usize > self.next);
        let mut failed = false;
        if let Some(cp) = cp {
            if let Err(e) = self.restore_checkpoint(cp) {
                log_info!(
                    "gdp: checkpoint at interval {} unusable ({e}); replaying from the start",
                    cp.at
                );
                failed = true;
            }
        }
        if failed || (cp.is_none() && self.next > k) {
            let metrics = self.pipeline.metrics.take();
            self.pipeline = Pipeline::new(self.pipeline.techniques(), &self.xcfg, false);
            self.pipeline.metrics = metrics;
            self.next = 0;
        }
        while self.next < k {
            self.replay_next();
        }
    }

    /// On-demand single-interval query: restore the nearest checkpoint of
    /// `checkpoints` at or before `k` (or continue from the session's
    /// position, or from the cold state) and replay forward just far
    /// enough to produce interval `k`'s row — bit-identical to the `k`-th
    /// row of a full serial replay. Rows replayed on the way are not
    /// retained; the session is left positioned at `k + 1`. `None` when
    /// `k` is past the end of the trace.
    pub fn estimate_interval(
        &mut self,
        k: usize,
        checkpoints: Option<&CheckpointFile>,
    ) -> Option<Vec<CoreInterval>> {
        if k >= self.trace.intervals.len() {
            return None;
        }
        self.seek(k, checkpoints);
        Some(self.replay_next())
    }
}

/// Replay a verified trace straight from its reader: decode one interval
/// at a time into a reused buffer and step it through the pipeline —
/// [`ReplaySession`]'s interval step without building a [`SharedTrace`].
/// The report, and with `metrics` attached the `session.*` counters and
/// `ts.*` series, equal those of a [`ReplaySession`] over the decoded
/// trace. `decode` (the `trace.decode` span) times each interval's
/// decode. A decode error ends the replay and drops its rows; counters
/// already fed by the intervals before it stay counted.
pub(crate) fn replay_streamed(
    mut reader: SharedTraceReader<'_>,
    xcfg: &ExperimentConfig,
    techniques: &[Technique],
    metrics: Option<Arc<MetricsRegistry>>,
    decode: Option<&SpanHandle>,
) -> Result<SharedRun, TraceError> {
    let mut pipeline = Pipeline::new(techniques, xcfg, false);
    if let Some(reg) = metrics {
        pipeline.attach_metrics(reg);
    }
    let mut next = |iv: &mut TraceInterval| {
        let _g = decode.map(SpanHandle::enter);
        reader.read_interval(iv)
    };
    let mut iv = TraceInterval::default();
    let mut intervals = Vec::new();
    while next(&mut iv)? {
        let row = pipeline.step(intervals.len() as u64, &iv.events, &iv.boundaries);
        intervals.push(row);
    }
    Ok(SharedRun {
        techniques: pipeline.techniques().to_vec(),
        intervals,
        cycles: reader.cycles(),
        final_stats: reader.final_stats().to_vec(),
    })
}

/// A push-fed streaming session: the same pipeline as
/// [`EstimationSession`]/[`ReplaySession`], fed one interval at a time
/// from *outside* — the estimation core of a serving host, where each
/// tenant's probe stream arrives over a wire rather than from a local
/// simulator or an in-memory trace.
///
/// Each [`StreamSession::feed_interval`] call returns that interval's
/// row *by value* and retains nothing, so a long-running host's memory
/// stays bounded by construction. Because observers are pure functions
/// of their observed stream, the rows are bit-identical to a
/// [`ReplaySession`] over the same intervals — for any technique subset
/// and any chunking of the transport that delivered them (the serve
/// correctness contract, pinned from both ends by
/// `tests/suspend_resume.rs` and the `gdp-serve` suite).
///
/// Suspend/resume round-trips through the same [`StateCheckpoint`]
/// bundle as on-demand queries: an idle tenant's session can be
/// snapshotted (one STATE entry on disk), dropped, and rebuilt later with
/// [`StreamSession::resume_from`], after which the continued stream is
/// bit-identical to never having suspended.
pub struct StreamSession {
    pipeline: Pipeline,
    cores: usize,
    /// Intervals fed so far — the flight-recorder interval index and the
    /// `at` stamp of [`StreamSession::suspend`].
    fed: u64,
}

impl StreamSession {
    /// Build a stream session for a (canonicalized) technique set under
    /// `xcfg`. The invasiveness caveat of [`ReplaySession::new`] applies:
    /// the fed stream must come from a run whose kind matches the set.
    pub fn new(xcfg: &ExperimentConfig, techniques: &[Technique]) -> StreamSession {
        StreamSession {
            pipeline: Pipeline::new(techniques, xcfg, false),
            cores: xcfg.sim.cores,
            fed: 0,
        }
    }

    /// Attach a metrics registry: the fed stream drives the same
    /// `session.*` counters and estimate spans a replay would. Estimates
    /// are unaffected.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> StreamSession {
        self.pipeline.attach_metrics(registry);
        self
    }

    /// The canonical technique set attached to this session.
    pub fn techniques(&self) -> &[Technique] {
        self.pipeline.techniques()
    }

    /// The core count this session expects per fed interval.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Intervals fed so far (the next interval's flight-recorder index).
    pub fn intervals_fed(&self) -> u64 {
        self.fed
    }

    /// Feed one accounting interval — the event batch and one
    /// [`Boundary`] per core, in core order — and return its estimate
    /// row: `row[core]` carries the boundary measurement plus one
    /// estimate per attached technique, in registry order. Nothing is
    /// retained.
    ///
    /// # Panics
    /// Panics if `boundaries` does not hold exactly one entry per core —
    /// a malformed interval would silently desynchronize every later
    /// estimate, so the caller (the serve shard) must validate tenant
    /// input *before* feeding it.
    pub fn feed_interval(
        &mut self,
        events: &[ProbeEvent],
        boundaries: &[Boundary],
    ) -> Vec<CoreInterval> {
        assert_eq!(boundaries.len(), self.cores, "fed interval must carry one boundary per core");
        let idx = self.fed;
        self.fed += 1;
        self.pipeline.step(idx, events, boundaries)
    }

    /// Suspend into a [`StateCheckpoint`] stamped with the number of
    /// intervals fed. A fresh session resumed from the checkpoint
    /// continues the stream bit-exactly (the serve evict/resume path).
    pub fn suspend(&self) -> StateCheckpoint {
        self.pipeline.checkpoint(self.fed)
    }

    /// Restore the observers from `cp` and continue feeding from interval
    /// `cp.at`. Fails — leaving the session unfit for bit-exact work
    /// until re-restored or rebuilt — when the checkpoint lacks an
    /// observer's state or a state does not fit this configuration.
    pub fn resume_from(&mut self, cp: &StateCheckpoint) -> Result<(), StateError> {
        self.pipeline.plane.restore(cp)?;
        self.fed = cp.at;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_workloads::paper_workloads;

    fn xcfg() -> ExperimentConfig {
        let mut x = ExperimentConfig::tiny(2);
        x.sample_instrs = 6_000;
        x.interval_cycles = 10_000;
        x
    }

    #[test]
    fn chunked_advance_is_bit_identical_to_one_shot() {
        let w = &paper_workloads(2, 5)[0];
        let x = xcfg();
        let techniques = [Technique::GDP, Technique::GDP_O];
        let oneshot = SessionBuilder::new(w, &x).techniques(&techniques).build().into_report();
        let mut s = SessionBuilder::new(w, &x).techniques(&techniques).build();
        // Deliberately awkward chunk size: lands mid-interval constantly.
        let mut polled = 0;
        while !s.done() {
            s.advance_to(s.now() + 3_333);
            polled += s.poll_estimates().len();
        }
        let chunked = s.into_report();
        assert_eq!(polled, chunked.intervals.len(), "every row polled exactly once");
        assert_eq!(oneshot.cycles, chunked.cycles);
        assert_eq!(oneshot.final_stats, chunked.final_stats);
        assert_eq!(oneshot.intervals.len(), chunked.intervals.len());
        for (a, b) in oneshot.intervals.iter().flatten().zip(chunked.intervals.iter().flatten()) {
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.lambda.to_bits(), b.lambda.to_bits());
            for (ea, eb) in a.estimates.iter().zip(&b.estimates) {
                assert_eq!(ea.cpi.to_bits(), eb.cpi.to_bits());
                assert_eq!(ea.sigma_sms.to_bits(), eb.sigma_sms.to_bits());
            }
        }
    }

    #[test]
    fn chunked_advance_matches_one_shot_for_an_invasive_session() {
        // The ASM priority rotation is cycle-indexed: chunked advances
        // must hit every epoch boundary exactly.
        let w = &paper_workloads(2, 5)[0];
        let x = xcfg();
        let oneshot =
            SessionBuilder::new(w, &x).techniques(&[Technique::ASM]).build().into_report();
        let mut s = SessionBuilder::new(w, &x).techniques(&[Technique::ASM]).build();
        while !s.done() {
            s.advance_to(s.now() + 777);
        }
        let chunked = s.into_report();
        assert_eq!(oneshot.cycles, chunked.cycles);
        assert_eq!(oneshot.final_stats, chunked.final_stats);
    }

    #[test]
    fn poll_estimates_streams_rows_incrementally() {
        let w = &paper_workloads(2, 5)[1];
        let x = xcfg();
        let mut s = SessionBuilder::new(w, &x).techniques(&[Technique::GDP_O]).build();
        assert_eq!(s.techniques(), &[Technique::GDP_O]);
        let mut seen = 0;
        while !s.done() {
            s.advance_to(s.now() + x.interval_cycles);
            for row in s.poll_estimates() {
                assert_eq!(row.len(), 2, "one entry per core");
                for iv in row {
                    assert_eq!(iv.estimates.len(), 1, "one estimate per technique");
                }
                seen += 1;
            }
        }
        assert!(seen > 0, "a run must produce interval rows");
        assert!(s.poll_estimates().is_empty(), "drained");
        assert_eq!(s.intervals().len(), seen);
    }

    #[test]
    fn take_estimates_streams_with_bounded_memory() {
        let w = &paper_workloads(2, 5)[0];
        let x = xcfg();
        let reference =
            SessionBuilder::new(w, &x).techniques(&[Technique::GDP]).build().into_report();
        let mut s = SessionBuilder::new(w, &x).techniques(&[Technique::GDP]).build();
        let mut taken: Vec<Vec<CoreInterval>> = Vec::new();
        while !s.done() {
            s.advance_to(s.now() + 3_333);
            taken.extend(s.take_estimates());
            assert!(s.intervals().is_empty(), "taking must leave no retained history");
        }
        assert_eq!(taken.len(), reference.intervals.len());
        for (a, b) in taken.iter().flatten().zip(reference.intervals.iter().flatten()) {
            assert_eq!(a.stats, b.stats);
            assert_eq!(
                a.estimates[0].cpi.to_bits(),
                b.estimates[0].cpi.to_bits(),
                "taken rows are the same rows the report would have carried"
            );
        }
        let report = s.into_report();
        assert!(report.intervals.is_empty(), "all rows were taken");
        assert_eq!(report.cycles, reference.cycles, "run identity is unaffected");
        assert_eq!(report.final_stats, reference.final_stats);
    }

    #[test]
    fn metrics_do_not_perturb_estimates_and_count_the_stream() {
        let w = &paper_workloads(2, 5)[0];
        let x = xcfg();
        let techniques = [Technique::GDP, Technique::GDP_O];
        let plain = SessionBuilder::new(w, &x).techniques(&techniques).build().into_report();
        let reg = MetricsRegistry::shared();
        let metered = SessionBuilder::new(w, &x)
            .techniques(&techniques)
            .with_metrics(Arc::clone(&reg))
            .build()
            .into_report();
        assert_eq!(plain.cycles, metered.cycles);
        assert_eq!(plain.final_stats, metered.final_stats);
        for (a, b) in plain.intervals.iter().flatten().zip(metered.intervals.iter().flatten()) {
            for (ea, eb) in a.estimates.iter().zip(&b.estimates) {
                assert_eq!(ea.cpi.to_bits(), eb.cpi.to_bits());
                assert_eq!(ea.sigma_sms.to_bits(), eb.sigma_sms.to_bits());
            }
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("session.intervals"), Some(plain.intervals.len() as u64));
        let events = snap.counter("session.events").unwrap();
        assert!(events > 0, "a real run observes probe events");
        assert_eq!(snap.counter("session.events.gdp"), Some(events), "GDP subscribes");
        assert_eq!(snap.counter("engine.cycles"), Some(plain.cycles));
        assert!(snap.counter("engine.advance_calls").unwrap() > 0);
    }

    #[test]
    fn metered_replay_matches_live_and_counts_the_stream() {
        let w = &paper_workloads(2, 5)[1];
        let x = xcfg();
        let techniques = [Technique::GDP];
        let (live, trace) = crate::trace::record_shared(w, &x, &techniques);
        let reg = MetricsRegistry::shared();
        let replayed = ReplaySession::new(&trace, &x, &techniques)
            .with_metrics(Arc::clone(&reg))
            .into_report();
        for (a, b) in live.intervals.iter().flatten().zip(replayed.intervals.iter().flatten()) {
            assert_eq!(a.estimates[0].cpi.to_bits(), b.estimates[0].cpi.to_bits());
        }
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("session.intervals"),
            Some(live.intervals.len() as u64),
            "replay counts the same interval stream"
        );
        assert_eq!(snap.counter("engine.cycles"), None, "replay never touches a simulator");
    }

    /// The Figure 1a worked example, replayed from a one-interval trace:
    /// GDP must reproduce CPL 2 and CPI 2.47 (paper: 2.5), exactly as the
    /// standalone estimator does.
    #[test]
    fn replaying_figure1_reproduces_the_paper_example() {
        use gdp_sim::mem::Interference;
        use gdp_sim::probe::StallCause;
        use gdp_sim::types::ReqId;
        use gdp_trace::TraceInterval;

        let core = CoreId(0);
        let miss = |b: u64, cycle| ProbeEvent::LoadL1Miss { core, req: ReqId(b), block: b, cycle };
        let done = |b: u64, cycle| ProbeEvent::LoadL1MissDone {
            core,
            req: ReqId(b),
            block: b,
            cycle,
            sms: true,
            latency: 100,
            interference: Interference::default(),
            llc_hit: Some(true),
            post_llc: 0,
        };
        let stall = |start, end, b: u64| ProbeEvent::Stall {
            core,
            start,
            end,
            cause: StallCause::Load,
            blocking_block: Some(b),
            blocking_req: None,
            blocking_sms: Some(true),
            blocking_interference: None,
        };
        let events = vec![
            miss(0xa1, 10),
            miss(0xa2, 12),
            miss(0xa3, 14),
            done(0xa1, 150),
            stall(50, 155, 0xa1),
            done(0xa2, 182),
            stall(175, 185, 0xa2),
            miss(0xa4, 190),
            miss(0xa5, 191),
            done(0xa3, 192),
            done(0xa4, 340),
            stall(200, 350, 0xa4),
            done(0xa5, 356),
            stall(352, 358, 0xa5),
        ];
        let stats = CoreStats {
            committed_instrs: 190,
            commit_cycles: 190,
            cycles: 495,
            stall_sms: 305,
            sms_loads: 5,
            ..Default::default()
        };
        // Core 1 of the (smallest simulated) 2-core CMP stays idle.
        let fig1 = Boundary {
            instr_start: 0,
            instr_end: 190,
            stats,
            lambda: 140.0,
            shared_latency: 180.0,
        };
        let idle = Boundary { instr_end: 0, stats: CoreStats::default(), ..fig1 };
        let trace = SharedTrace {
            cores: 2,
            workload: "fig1".into(),
            cycles: 495,
            final_stats: vec![stats, CoreStats::default()],
            intervals: vec![TraceInterval { events, boundaries: vec![fig1, idle] }],
        };
        let run =
            ReplaySession::new(&trace, &ExperimentConfig::tiny(2), &[Technique::GDP]).into_report();
        assert_eq!(run.intervals.len(), 1);
        let e = run.intervals[0][0].estimates[0];
        assert_eq!(e.cpl, 2);
        assert!((e.cpi - 2.47).abs() < 0.01, "GDP CPI {}", e.cpi);
    }

    #[test]
    fn builder_canonicalizes_the_technique_set() {
        let w = &paper_workloads(2, 5)[0];
        let x = xcfg();
        let s = SessionBuilder::new(w, &x)
            .techniques(&[Technique::GDP_O, Technique::ITCA, Technique::GDP_O])
            .build();
        assert_eq!(s.techniques(), &[Technique::ITCA, Technique::GDP_O]);
    }
}
