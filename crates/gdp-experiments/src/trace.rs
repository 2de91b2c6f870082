//! Record/replay glue between the experiment drivers and `gdp-trace`:
//! simulate once, estimate many.
//!
//! * [`record_shared`] runs a shared-mode simulation with a recorder
//!   attached and returns both the live [`SharedRun`] and the trace.
//! * [`replay_shared`] rebuilds a [`SharedRun`] for *any* technique
//!   subset from a trace, bit-identically to a live run — the event
//!   stream of a transparent run does not depend on which transparent
//!   techniques observe it, so one trace serves them all (the invasive
//!   ASM perturbs execution and records its own trace).
//! * [`CampaignTraces`] is the campaign-facing policy object combining a
//!   content-addressed [`TraceCache`] with the `--record`/`--replay`
//!   flags: shared and private jobs route through it and transparently
//!   hit the cache instead of the simulator.

use std::sync::Arc;

use gdp_runner::Pool;
use gdp_sim::{CacheConfig, SimConfig};
use gdp_telemetry::{log_info, MetricsRegistry};
use gdp_trace::{
    CacheKey, CacheStatsSnapshot, CheckpointFile, PrivateTrace, Recorder, SharedTrace,
    StateCheckpoint, TraceCache, TraceCheckpoint, FORMAT_VERSION,
};
use gdp_workloads::Workload;

use crate::accuracy::{private_base, Technique, WorkloadEval};
use crate::config::ExperimentConfig;
use crate::private::{PrivateCheckpoint, PrivateRun};
use crate::session::{ParallelReplaySession, ReplaySession};
use crate::shared::{run_shared_metered, SharedRun};

/// Run `workload` in shared mode with a recorder attached; returns the
/// live run plus the trace that replays it.
pub fn record_shared(
    workload: &Workload,
    xcfg: &ExperimentConfig,
    techniques: &[Technique],
) -> (SharedRun, SharedTrace) {
    record_shared_metered(workload, xcfg, techniques, None)
}

/// [`record_shared`] with an optional metrics registry attached to the
/// recording session (see
/// [`run_shared_metered`](crate::shared::run_shared_metered)).
pub fn record_shared_metered(
    workload: &Workload,
    xcfg: &ExperimentConfig,
    techniques: &[Technique],
    metrics: Option<Arc<MetricsRegistry>>,
) -> (SharedRun, SharedTrace) {
    let mut rec = Recorder::new(xcfg.sim.cores, &workload.name);
    let run = run_shared_metered(workload, xcfg, techniques, &mut rec, metrics);
    (run, rec.into_trace())
}

/// Re-evaluate `techniques` over a recorded shared-mode trace,
/// producing a [`SharedRun`] bit-identical to a live
/// [`run_shared`](crate::shared::run_shared) with the same techniques
/// attached.
pub fn replay_shared(
    trace: &SharedTrace,
    xcfg: &ExperimentConfig,
    techniques: &[Technique],
) -> SharedRun {
    ReplaySession::new(trace, xcfg, techniques).into_report()
}

/// One-pass offline checkpoint summarization: replay `trace` once with
/// *every* registered technique attached, snapshotting every observer
/// (GDP units, DIEF, ASM) at each interval boundary. One checkpoint file
/// serves any later technique subset: an observer's state depends only
/// on the recorded stream, never on the readouts consuming it — the
/// same invariant that lets one trace serve every subset.
pub fn summarize_checkpoints(trace: &SharedTrace, xcfg: &ExperimentConfig) -> CheckpointFile {
    let techniques = Technique::all_registered();
    let mut s = ReplaySession::new(trace, xcfg, &techniques);
    let n = trace.intervals.len() as u64;
    let mut f = CheckpointFile {
        workload: trace.workload.clone(),
        cores: trace.cores,
        intervals: n,
        checkpoints: Vec::with_capacity(n.saturating_sub(1) as usize),
    };
    // Boundary n would have no intervals left to replay; boundary 0 is
    // the cold state every fresh session already has.
    for at in 1..n {
        s.advance_intervals(1);
        let _ = s.take_estimates(); // bounded memory: keep states, not rows
        f.checkpoints.push(StateCheckpoint { at, states: s.snapshot_states() });
    }
    f
}

/// Convert a private run to its trace record.
pub fn private_to_trace(run: &PrivateRun, bench: &str, base: u64) -> PrivateTrace {
    PrivateTrace {
        bench: bench.to_string(),
        base,
        checkpoints: run
            .checkpoints
            .iter()
            .map(|c| TraceCheckpoint {
                instrs: c.instrs,
                cycle: c.cycle,
                stats: c.stats,
                cpl: c.cpl,
            })
            .collect(),
        total: run.total,
    }
}

/// Rebuild a private run from its trace record ("replay" of pure data).
pub fn private_from_trace(t: &PrivateTrace) -> PrivateRun {
    PrivateRun {
        checkpoints: t
            .checkpoints
            .iter()
            .map(|c| PrivateCheckpoint {
                instrs: c.instrs,
                cycle: c.cycle,
                stats: c.stats,
                cpl: c.cpl,
            })
            .collect(),
        total: t.total,
    }
}

// ------------------------------------------------------------ cache keys

fn feed_cache_cfg(k: &mut CacheKey, c: &CacheConfig) {
    k.u64(c.size_bytes).usize(c.ways).u64(c.latency).usize(c.mshrs);
}

fn feed_sim_config(k: &mut CacheKey, s: &SimConfig) {
    k.usize(s.cores);
    let c = &s.core;
    k.usize(c.rob_entries)
        .usize(c.lsq_entries)
        .usize(c.iq_entries)
        .usize(c.width)
        .usize(c.store_buffer_entries)
        .usize(c.int_alu)
        .usize(c.int_mul_div)
        .usize(c.fp_alu)
        .usize(c.fp_mul_div)
        .usize(c.mem_ports)
        .u64(c.branch_redirect_penalty);
    feed_cache_cfg(k, &s.l1d);
    feed_cache_cfg(k, &s.l2);
    feed_cache_cfg(k, &s.llc);
    k.usize(s.llc_banks);
    k.u64(s.ring.hop_latency)
        .usize(s.ring.queue_entries)
        .usize(s.ring.request_rings)
        .usize(s.ring.response_rings);
    let d = &s.dram;
    k.str(match d.kind {
        gdp_sim::DramKind::Ddr2_800 => "ddr2",
        gdp_sim::DramKind::Ddr4_2666 => "ddr4",
    });
    k.usize(d.channels)
        .usize(d.banks)
        .u64(d.row_bytes)
        .usize(d.read_queue)
        .usize(d.write_queue)
        .u64(d.cpu_cycles_per_mem_cycle)
        .u64(d.t_cl)
        .u64(d.t_rcd)
        .u64(d.t_rp)
        .u64(d.t_ras)
        .u64(d.burst_cycles)
        .usize(d.write_drain_threshold);
}

/// The one shared derivation of a trace key's format/config material:
/// run kind, trace-format version and the full simulator + experiment
/// configuration. Both key builders start from it, so the slicing rule
/// cannot drift between shared and private entries — and, deliberately,
/// it takes **no technique information**: the recorded stream of a run
/// does not depend on which techniques observe it, so a registry-driven
/// technique subset must never fork the cache ("record once, replay any
/// subset"; asserted by tests).
fn key_material(kind: &str, x: &ExperimentConfig) -> CacheKey {
    let mut k = CacheKey::new(kind);
    k.u64(u64::from(FORMAT_VERSION));
    feed_sim_config(&mut k, &x.sim);
    k.u64(x.interval_cycles)
        .u64(x.sample_instrs)
        .usize(x.sampled_sets)
        .usize(x.prb_entries)
        .u64(x.max_cycles_per_instr)
        .usize(x.warmup_intervals);
    k
}

/// Cache key of a shared-mode run: experiment configuration + workload
/// spec + run kind. Transparent runs are keyed *without* the technique
/// list — the recorded stream does not depend on which transparent
/// techniques observe it, so one entry serves every subset ("simulate
/// once, estimate many"). The invasive run is a separate kind.
pub fn shared_trace_key(xcfg: &ExperimentConfig, workload: &Workload, invasive: bool) -> CacheKey {
    let mut k = key_material("shared", xcfg);
    k.str(&workload.name);
    k.usize(workload.cores());
    for b in &workload.benchmarks {
        k.str(b.name);
    }
    k.bool(invasive);
    k
}

/// [`shared_trace_key`] for a technique set: the only key-relevant
/// property of the set is whether it makes the run invasive (per the
/// registry capability flags) — the identity of the transparent
/// observers never reaches the key.
pub fn shared_trace_key_for(
    xcfg: &ExperimentConfig,
    workload: &Workload,
    techniques: &[Technique],
) -> CacheKey {
    shared_trace_key(xcfg, workload, techniques.iter().any(Technique::is_invasive))
}

/// Cache key of a checkpoint (estimator-state) file: the same material
/// as the shared trace it summarizes, under its own domain, plus the
/// estimator-state schema version — a restored snapshot must match the
/// exact estimator layout, so a schema bump invalidates checkpoints
/// without touching the (still-valid) traces.
pub fn checkpoint_key(xcfg: &ExperimentConfig, workload: &Workload, invasive: bool) -> CacheKey {
    let mut k = key_material("state", xcfg);
    k.u64(u64::from(gdp_core::STATE_VERSION));
    k.str(&workload.name);
    k.usize(workload.cores());
    for b in &workload.benchmarks {
        k.str(b.name);
    }
    k.bool(invasive);
    k
}

/// Cache key of a *serving tenant's* suspended estimator state: the
/// state-schema material of [`checkpoint_key`] plus the tenant id and
/// the exact (canonical) technique set. Unlike trace keys, the technique
/// ids **must** feed this key — a suspended bundle is the estimator
/// layout itself, so sessions with different sets must never collide —
/// and the tenant id keeps concurrent tenants with identical
/// configurations in separate entries.
pub fn session_state_key(
    xcfg: &ExperimentConfig,
    tenant: u64,
    techniques: &[Technique],
) -> CacheKey {
    let mut k = key_material("serve-session", xcfg);
    k.u64(u64::from(gdp_core::STATE_VERSION));
    k.u64(tenant);
    let canon = Technique::canonical(techniques);
    k.usize(canon.len());
    for t in &canon {
        k.str(t.id());
    }
    k
}

/// Cache key of a private ground-truth run: configuration + benchmark +
/// address base + the exact checkpoint list (checkpoints come from the
/// shared runs, so a changed shared trace invalidates its private runs).
pub fn private_trace_key(
    xcfg: &ExperimentConfig,
    bench: &str,
    base: u64,
    checkpoints: &[u64],
) -> CacheKey {
    let mut k = key_material("private", xcfg);
    k.str(bench);
    k.u64(base);
    k.usize(checkpoints.len());
    for &c in checkpoints {
        k.u64(c);
    }
    k
}

// ------------------------------------------------------ campaign policy

/// Campaign-level record/replay policy around a [`TraceCache`]. Shared
/// by reference across parallel campaign jobs.
#[derive(Debug)]
pub struct CampaignTraces {
    cache: TraceCache,
    record: bool,
    replay: bool,
    replay_jobs: usize,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl CampaignTraces {
    /// A policy over `dir`: `record` stores traces after live runs,
    /// `replay` consults the cache before simulating (both may be set:
    /// replay what exists, record what does not).
    pub fn new(dir: impl Into<std::path::PathBuf>, record: bool, replay: bool) -> CampaignTraces {
        CampaignTraces {
            cache: TraceCache::new(dir),
            record,
            replay,
            replay_jobs: 1,
            metrics: None,
        }
    }

    /// Attach a campaign-wide metrics registry: every session and
    /// private run routed through this policy feeds it (`session.*`,
    /// `engine.*`, `replay.*`), and callers fold the cache's own
    /// counters in via [`CacheStatsSnapshot::export`]. The registry is
    /// shared across parallel campaign jobs — counters accumulate
    /// order-independently, so totals stay deterministic for any
    /// `--jobs N`.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> CampaignTraces {
        self.metrics = Some(registry);
        self
    }

    /// Set the parallel-replay fan-out: warm replays of cached traces
    /// fan interval segments across an `n`-worker pool using summarized
    /// checkpoints. With `n <= 1`, or when no checkpoint entry exists,
    /// replay stays serial — results are bit-identical either way.
    pub fn with_replay_jobs(mut self, n: usize) -> CampaignTraces {
        self.replay_jobs = n.max(1);
        self
    }

    /// The configured parallel-replay fan-out.
    pub fn replay_jobs(&self) -> usize {
        self.replay_jobs
    }

    /// The underlying cache (diagnostics).
    pub fn cache(&self) -> &TraceCache {
        &self.cache
    }

    /// Hit/miss/store counters for the campaign run record.
    pub fn stats(&self) -> CacheStatsSnapshot {
        self.cache.stats()
    }

    /// A shared-mode run through the cache: replayed when a trace
    /// exists, simulated (and, under `record`, stored) otherwise.
    /// Bit-identical to [`run_shared`] either way.
    pub fn shared(
        &self,
        workload: &Workload,
        xcfg: &ExperimentConfig,
        techniques: &[Technique],
    ) -> SharedRun {
        let key = shared_trace_key_for(xcfg, workload, techniques);
        let invasive = techniques.iter().any(Technique::is_invasive);
        if self.replay {
            if let Some(trace) = self.cache.load_shared(&key) {
                if self.replay_jobs > 1 {
                    // Salvage-loaded checkpoints (None on a full miss):
                    // the parallel session degrades around whatever is
                    // missing, so corruption costs time, not the run.
                    let cks =
                        self.cache.load_checkpoints(&checkpoint_key(xcfg, workload, invasive));
                    let mut s = ParallelReplaySession::new(
                        &trace,
                        xcfg,
                        techniques,
                        cks.as_ref(),
                        Pool::new(self.replay_jobs),
                    );
                    if let Some(reg) = &self.metrics {
                        s = s.with_metrics(Arc::clone(reg));
                    }
                    return s.into_report();
                }
                let mut s = ReplaySession::new(&trace, xcfg, techniques);
                if let Some(reg) = &self.metrics {
                    s = s.with_metrics(Arc::clone(reg));
                }
                return s.into_report();
            }
        }
        if self.record {
            let (run, trace) =
                record_shared_metered(workload, xcfg, techniques, self.metrics.clone());
            if let Err(e) = self.cache.store_shared(&key, &trace) {
                log_info!("gdp-trace: cannot store shared trace: {e}");
            }
            // Summarize checkpoints next to the stored trace so warm
            // replays can fan out immediately. Deliberately unmetered:
            // its full-registry replay would double-count the stream in
            // `session.*`.
            let cks = summarize_checkpoints(&trace, xcfg);
            if let Err(e) =
                self.cache.store_checkpoints(&checkpoint_key(xcfg, workload, invasive), &cks)
            {
                log_info!("gdp-trace: cannot store checkpoint file: {e}");
            }
            run
        } else {
            run_shared_metered(
                workload,
                xcfg,
                techniques,
                &mut gdp_trace::NullSink,
                self.metrics.clone(),
            )
        }
    }

    /// A private ground-truth run through the cache: decoded when a
    /// trace exists, simulated (and, under `record`, stored) otherwise.
    pub fn private(&self, eval: &WorkloadEval, core: usize) -> PrivateRun {
        let checkpoints = eval.checkpoints_for(core);
        let bench = eval.bench_name(core);
        let base = private_base(core);
        let key = private_trace_key(eval.xcfg(), bench, base, &checkpoints);
        if self.replay {
            if let Some(trace) = self.cache.load_private(&key) {
                return private_from_trace(&trace);
            }
        }
        let run = eval.run_private_for_metered(core, self.metrics.as_deref());
        if self.record {
            if let Err(e) = self.cache.store_private(&key, &private_to_trace(&run, bench, base)) {
                log_info!("gdp-trace: cannot store private trace: {e}");
            }
        }
        run
    }
}

/// [`crate::evaluate_workload_subset`] routed through a trace policy:
/// the shared phase and every per-core private run consult the cache
/// when one is given. Results are bit-identical with or without it.
pub fn evaluate_workload_traced(
    workload: &Workload,
    xcfg: &ExperimentConfig,
    techniques: &[Technique],
    traces: Option<&CampaignTraces>,
) -> crate::accuracy::WorkloadAccuracy {
    let eval = match traces {
        None => WorkloadEval::shared(workload, xcfg, techniques),
        Some(tc) => {
            let techniques = Technique::canonical(techniques);
            let transparent = crate::accuracy::transparent_subset(&techniques);
            let invasive: Vec<Technique> =
                techniques.iter().copied().filter(Technique::is_invasive).collect();
            let t_run = tc.shared(workload, xcfg, &transparent);
            let a_run = (!invasive.is_empty()).then(|| tc.shared(workload, xcfg, &invasive));
            WorkloadEval::from_runs(workload, xcfg, t_run, a_run)
        }
    };
    let privates: Vec<PrivateRun> = (0..eval.cores())
        .map(|c| match traces {
            None => eval.run_private_for(c),
            Some(tc) => tc.private(&eval, c),
        })
        .collect();
    eval.finish(&privates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::run_shared;
    use gdp_workloads::paper_workloads;

    fn xcfg() -> ExperimentConfig {
        let mut x = ExperimentConfig::tiny(2);
        x.sample_instrs = 6_000;
        x.interval_cycles = 10_000;
        x
    }

    fn assert_runs_bit_identical(a: &SharedRun, b: &SharedRun) {
        assert_eq!(a.techniques, b.techniques);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.final_stats, b.final_stats);
        assert_eq!(a.intervals.len(), b.intervals.len());
        for (ra, rb) in a.intervals.iter().zip(&b.intervals) {
            for (ca, cb) in ra.iter().zip(rb) {
                assert_eq!(ca.instr_start, cb.instr_start);
                assert_eq!(ca.instr_end, cb.instr_end);
                assert_eq!(ca.stats, cb.stats);
                assert_eq!(ca.lambda.to_bits(), cb.lambda.to_bits());
                assert_eq!(ca.shared_latency.to_bits(), cb.shared_latency.to_bits());
                assert_eq!(ca.estimates.len(), cb.estimates.len());
                for (ea, eb) in ca.estimates.iter().zip(&cb.estimates) {
                    assert_eq!(ea.cpi.to_bits(), eb.cpi.to_bits());
                    assert_eq!(ea.sigma_sms.to_bits(), eb.sigma_sms.to_bits());
                    assert_eq!(ea.cpl, eb.cpl);
                    assert_eq!(ea.overlap.to_bits(), eb.overlap.to_bits());
                }
            }
        }
    }

    #[test]
    fn recording_does_not_perturb_the_run() {
        let w = &paper_workloads(2, 5)[0];
        let x = xcfg();
        let plain = run_shared(w, &x, &[Technique::GDP]);
        let (recorded, trace) = record_shared(w, &x, &[Technique::GDP]);
        assert_runs_bit_identical(&plain, &recorded);
        assert_eq!(trace.intervals.len(), plain.intervals.len());
        assert!(trace.event_count() > 0, "a real run must produce events");
    }

    #[test]
    fn replay_is_bit_identical_to_live_for_all_transparent_techniques() {
        let w = &paper_workloads(2, 5)[0];
        let x = xcfg();
        let transparent = [Technique::ITCA, Technique::PTCA, Technique::GDP, Technique::GDP_O];
        let (live, trace) = record_shared(w, &x, &transparent);
        // Round-trip the trace through the binary codec, as the cache does.
        let decoded = gdp_trace::decode_shared(&gdp_trace::encode_shared(&trace)).expect("codec");
        let replayed = replay_shared(&decoded, &x, &transparent);
        assert_runs_bit_identical(&live, &replayed);
    }

    #[test]
    fn one_trace_serves_any_technique_subset() {
        // Record with all four attached; replay GDP-O alone must match a
        // live run with GDP-O alone (the stream is technique-invariant).
        let w = &paper_workloads(2, 5)[1];
        let x = xcfg();
        let (_, trace) = record_shared(
            w,
            &x,
            &[Technique::ITCA, Technique::PTCA, Technique::GDP, Technique::GDP_O],
        );
        let live_solo = run_shared(w, &x, &[Technique::GDP_O]);
        let replay_solo = replay_shared(&trace, &x, &[Technique::GDP_O]);
        assert_runs_bit_identical(&live_solo, &replay_solo);
    }

    #[test]
    fn private_trace_round_trips_through_codec() {
        let w = &paper_workloads(2, 5)[0];
        let x = xcfg();
        let eval = WorkloadEval::shared(w, &x, &[Technique::GDP]);
        let run = eval.run_private_for(0);
        let t = private_to_trace(&run, eval.bench_name(0), private_base(0));
        let decoded = gdp_trace::decode_private(&gdp_trace::encode_private(&t)).expect("codec");
        let back = private_from_trace(&decoded);
        assert_eq!(back.checkpoints.len(), run.checkpoints.len());
        for (a, b) in back.checkpoints.iter().zip(&run.checkpoints) {
            assert_eq!(a.instrs, b.instrs);
            assert_eq!(a.cycle, b.cycle);
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.cpl, b.cpl);
        }
        assert_eq!(back.total, run.total);
    }

    #[test]
    fn technique_subset_choice_never_forks_the_cache_key() {
        // The "record once, replay any subset" invariant: a registry-
        // driven technique selection must map to the same shared-trace
        // key as any other transparent selection (and as the full
        // transparent set), or subsets would silently re-simulate.
        let ws = paper_workloads(2, 5);
        let x = xcfg();
        let full = shared_trace_key_for(
            &x,
            &ws[0],
            &crate::techniques::transparent_subset(&Technique::ALL),
        );
        for subset in [
            &[Technique::GDP][..],
            &[Technique::GDP_O][..],
            &[Technique::ITCA, Technique::PTCA][..],
            &[Technique::DIEF][..],
            &[][..],
        ] {
            assert_eq!(
                full.digest(),
                shared_trace_key_for(&x, &ws[0], subset).digest(),
                "transparent subset {subset:?} must share the cache entry"
            );
        }
        // Any invasive selection is a different run kind — and equally
        // subset-invariant on the transparent side of the set.
        let inv = shared_trace_key_for(&x, &ws[0], &[Technique::ASM]);
        assert_ne!(full.digest(), inv.digest());
        assert_eq!(
            inv.digest(),
            shared_trace_key_for(&x, &ws[0], &Technique::ALL).digest(),
            "an invasive set keys the invasive run regardless of transparent members"
        );
    }

    #[test]
    fn cache_keys_separate_configs_workloads_and_kinds() {
        let ws = paper_workloads(2, 5);
        let x = xcfg();
        let a = shared_trace_key(&x, &ws[0], false);
        assert_eq!(a.digest(), shared_trace_key(&x, &ws[0], false).digest(), "deterministic");
        assert_ne!(a.digest(), shared_trace_key(&x, &ws[1], false).digest(), "workload");
        assert_ne!(a.digest(), shared_trace_key(&x, &ws[0], true).digest(), "invasive kind");
        let mut x2 = xcfg();
        x2.prb_entries = 8;
        assert_ne!(a.digest(), shared_trace_key(&x2, &ws[0], false).digest(), "config");
        let p = private_trace_key(&x, "ammp", 0, &[1, 2]);
        assert_ne!(p.digest(), private_trace_key(&x, "ammp", 0, &[1, 3]).digest(), "checkpoints");
    }

    #[test]
    fn campaign_traces_record_then_replay_round_trip() {
        let dir = std::env::temp_dir().join(format!("gdp-exp-traces-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let w = &paper_workloads(2, 5)[0];
        let x = xcfg();
        let techniques = [Technique::GDP, Technique::GDP_O];

        let rec = CampaignTraces::new(&dir, true, false);
        let cold = evaluate_workload_traced(w, &x, &techniques, Some(&rec));
        assert!(rec.stats().stores >= 3, "1 shared + 2 private traces stored");

        let rep = CampaignTraces::new(&dir, false, true);
        let warm = evaluate_workload_traced(w, &x, &techniques, Some(&rep));
        let s = rep.stats();
        assert_eq!(s.misses, 0, "warm cache must not miss");
        assert!(s.hits >= 3);

        let live = crate::evaluate_workload_subset(w, &x, &techniques);
        for (l, c, h) in itertools3(&live.benches, &cold.benches, &warm.benches) {
            for t in 0..live.techniques.len() {
                assert_eq!(l.ipc_err[t].rms_abs().to_bits(), c.ipc_err[t].rms_abs().to_bits());
                assert_eq!(l.ipc_err[t].rms_abs().to_bits(), h.ipc_err[t].rms_abs().to_bits());
                assert_eq!(l.stall_err[t].rms_abs().to_bits(), h.stall_err[t].rms_abs().to_bits());
            }
            assert_eq!(l.cpl_err.rms_rel().to_bits(), h.cpl_err.rms_rel().to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn itertools3<'a, T>(a: &'a [T], b: &'a [T], c: &'a [T]) -> Vec<(&'a T, &'a T, &'a T)> {
        a.iter().zip(b).zip(c).map(|((x, y), z)| (x, y, z)).collect()
    }
}
