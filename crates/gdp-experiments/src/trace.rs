//! Record/replay glue between the experiment drivers and `gdp-trace`:
//! simulate once, estimate many.
//!
//! * [`record_shared`] runs a shared-mode simulation with a recorder
//!   attached and returns both the live [`SharedRun`] and the trace. A
//!   [`ReplaySession`] over that trace rebuilds the run for *any*
//!   technique subset, bit-identically — the event stream of a
//!   transparent run does not depend on which transparent techniques
//!   observe it, so one trace serves them all (the invasive ASM perturbs
//!   execution and records its own trace).
//! * [`CampaignTraces`] is the campaign router: every shared and private
//!   job of an evaluation goes through it. It combines a
//!   content-addressed [`TraceCache`] with the `--record`/`--replay`
//!   flags and the campaign's metrics registry; with both flags off it
//!   simulates every job and never touches its directory.

use std::path::PathBuf;
use std::sync::Arc;

use gdp_sim::{CacheConfig, SimConfig};
use gdp_telemetry::{log_info, MetricsRegistry};
use gdp_trace::{
    CacheKey, CacheStatsSnapshot, CheckpointFile, NullSink, PrivateTrace, Recorder, SharedTrace,
    StateCheckpoint, TraceCache, TraceCheckpoint, TraceSink, FORMAT_VERSION,
};
use gdp_workloads::Workload;

use crate::accuracy::{private_base, Technique, WorkloadEval};
use crate::config::ExperimentConfig;
use crate::private::{run_private, PrivateCheckpoint, PrivateRun};
use crate::session::{replay_streamed, ReplaySession, SessionBuilder};
use crate::shared::SharedRun;

/// Run `workload` in shared mode with a recorder attached; returns the
/// live run plus the trace that replays it.
pub fn record_shared(
    workload: &Workload,
    xcfg: &ExperimentConfig,
    techniques: &[Technique],
) -> (SharedRun, SharedTrace) {
    let mut rec = Recorder::new(xcfg.sim.cores, &workload.name);
    let run = SessionBuilder::new(workload, xcfg)
        .techniques(techniques)
        .sink(&mut rec)
        .build()
        .into_report();
    (run, rec.into_trace())
}

/// One-pass offline checkpoint summarization: replay `trace` once with
/// *every* registered technique attached, snapshotting every observer
/// (GDP units, DIEF, ASM) at each interval boundary. The returned
/// in-memory index serves any later technique subset: an observer's state depends only
/// on the recorded stream, never on the readouts consuming it — the
/// same invariant that lets one trace serve every subset.
///
/// Computed on demand, for a caller about to ask many random-access
/// [`ReplaySession::estimate_interval`] queries of one trace; the
/// campaign record path never calls it.
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

/// Cache key of a *serving tenant's* suspended estimator state: the
/// configuration material of every trace key, the estimator-state
/// schema version (a restored snapshot must match the exact estimator
/// layout), the tenant id and the exact (canonical) technique set.
/// Unlike trace keys, the technique ids **must** feed this key — a
/// suspended bundle is the estimator layout itself, so sessions with
/// different sets must never collide — and the tenant id keeps
/// concurrent tenants with identical configurations in separate
/// entries.
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

/// The campaign router: the one way a campaign job gets a shared or
/// private run. Record/replay policy around a [`TraceCache`], plus the
/// campaign's metrics registry; shared by reference across parallel
/// campaign jobs.
#[derive(Debug)]
pub struct CampaignTraces {
    cache: TraceCache,
    record: bool,
    replay: bool,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl CampaignTraces {
    /// A policy over `dir`: `record` stores traces after live runs,
    /// `replay` consults the cache before simulating (both may be set:
    /// replay what exists, record what does not).
    pub fn new(dir: impl Into<PathBuf>, record: bool, replay: bool) -> CampaignTraces {
        CampaignTraces { cache: TraceCache::new(dir), record, replay, metrics: None }
    }

    /// A router with recording and replay off: every job simulates and
    /// no directory is ever touched.
    pub fn no_cache() -> CampaignTraces {
        CampaignTraces::new(PathBuf::new(), false, false)
    }

    /// Attach a campaign-wide metrics registry: every session and
    /// private run routed through this policy feeds it (`session.*`,
    /// `engine.*`, `trace.*` spans), and callers fold the cache's own
    /// counters in via [`CacheStatsSnapshot::export`]. The registry is
    /// shared across parallel campaign jobs — counters accumulate
    /// order-independently, so totals stay deterministic for any
    /// `--jobs N`.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> CampaignTraces {
        self.metrics = Some(registry);
        self
    }

    /// Hit/miss/store counters for the campaign run record.
    pub fn stats(&self) -> CacheStatsSnapshot {
        self.cache.stats()
    }

    /// A shared-mode run through the cache: replayed when a trace
    /// exists, simulated (and, under `record`, stored) otherwise.
    /// Bit-identical to [`run_shared`](crate::shared::run_shared) either
    /// way. A replay streams the entry through the session pipeline one
    /// interval at a time, after the whole file has been verified, and
    /// never builds a [`SharedTrace`]; an entry that fails mid-stream is
    /// a quarantined miss and the run is simulated.
    pub fn shared(
        &self,
        workload: &Workload,
        xcfg: &ExperimentConfig,
        techniques: &[Technique],
    ) -> SharedRun {
        let key = shared_trace_key_for(xcfg, workload, techniques);
        if self.replay {
            let spans =
                self.metrics.as_ref().map(|r| (r.span("trace.read"), r.span("trace.decode")));
            // `trace.read` covers the file read and its verification: it
            // ends when the replay starts, or when the load gives up
            // before that and drops the replay closure holding it.
            let read = spans.as_ref().map(|(read, _)| read.enter());
            let decode = spans.as_ref().map(|(_, decode)| decode);
            let streamed = self.cache.stream_shared(&key, |reader| {
                drop(read);
                replay_streamed(reader, xcfg, techniques, self.metrics.clone(), decode)
            });
            if let Some(run) = streamed {
                return run;
            }
        }
        let mut rec = self.record.then(|| Recorder::new(xcfg.sim.cores, &workload.name));
        let mut null = NullSink;
        let sink: &mut dyn TraceSink = match rec.as_mut() {
            Some(rec) => rec,
            None => &mut null,
        };
        let mut session = SessionBuilder::new(workload, xcfg).techniques(techniques).sink(sink);
        if let Some(reg) = &self.metrics {
            session = session.with_metrics(Arc::clone(reg));
        }
        let run = session.build().into_report();
        if let Some(rec) = rec {
            if let Err(e) = self.cache.store_shared(&key, &rec.into_trace()) {
                log_info!("gdp-trace: cannot store shared trace: {e}");
            }
        }
        run
    }

    /// A private ground-truth run through the cache: decoded when a
    /// trace exists, simulated (and, under `record`, stored) otherwise.
    pub fn private(&self, eval: &WorkloadEval, core: usize) -> PrivateRun {
        let checkpoints = eval.checkpoints_for(core);
        let bench = eval.benchmark(core);
        let base = private_base(core);
        let key = private_trace_key(eval.xcfg(), bench.name, base, &checkpoints);
        if self.replay {
            if let Some(trace) = self.cache.load_private(&key) {
                return private_from_trace(&trace);
            }
        }
        let run = run_private(bench, base, eval.xcfg(), &checkpoints, self.metrics.as_deref());
        if self.record {
            if let Err(e) =
                self.cache.store_private(&key, &private_to_trace(&run, bench.name, base))
            {
                log_info!("gdp-trace: cannot store private trace: {e}");
            }
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::{evaluate, evaluate_job_count, EvalGroup};
    use crate::shared::run_shared;
    use gdp_runner::{Pool, Progress};
    use gdp_trace::SharedTraceReader;
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
        let replayed = ReplaySession::new(&decoded, &x, &transparent).into_report();
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
        let replay_solo = ReplaySession::new(&trace, &x, &[Technique::GDP_O]).into_report();
        assert_runs_bit_identical(&live_solo, &replay_solo);
    }

    #[test]
    fn private_trace_round_trips_through_codec() {
        let w = &paper_workloads(2, 5)[0];
        let x = xcfg();
        let tc = CampaignTraces::no_cache();
        let eval = WorkloadEval::from_runs(w, &x, tc.shared(w, &x, &[Technique::GDP]), None);
        let run = tc.private(&eval, 0);
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
        let x = xcfg();
        let groups = [EvalGroup {
            label: "2c".to_string(),
            xcfg: x.clone(),
            workloads: paper_workloads(2, 5)[..1].to_vec(),
        }];
        let techniques = [Technique::GDP, Technique::GDP_O];
        let run = |traces: &CampaignTraces| {
            let progress = Progress::silent(evaluate_job_count(&groups, &techniques));
            evaluate(&groups, &techniques, &Pool::new(2), &progress, traces)
        };

        let rec = CampaignTraces::new(&dir, true, false);
        let cold = run(&rec);
        assert_eq!(rec.stats().stores, 3, "1 shared + 2 private traces stored, nothing else");
        let entries: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            !entries.iter().any(|name| name.starts_with("state-")),
            "recording writes no checkpoint entries: {entries:?}"
        );

        let rep = CampaignTraces::new(&dir, false, true);
        let warm = run(&rep);
        let s = rep.stats();
        assert_eq!(s.misses, 0, "warm cache must not miss");
        assert!(s.hits >= 3);

        // `Debug` prints every f64 in round-trip form, so equal
        // renderings mean equal values in every error series.
        let live = crate::evaluate_workload(&groups[0].workloads[0], &x, &techniques);
        assert_eq!(format!("{live:?}"), format!("{:?}", cold[0][0]), "recorded run");
        assert_eq!(format!("{live:?}"), format!("{:?}", warm[0][0]), "replayed run");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn tmp_cache_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gdp-exp-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn every_bitflip_is_rejected_before_any_interval_is_handed_out() {
        // A recorded 2-core trace, cut to the first events of its first
        // two intervals so that flipping every bit of it stays cheap.
        let w = &paper_workloads(2, 5)[0];
        let (_, mut trace) = record_shared(w, &xcfg(), &[Technique::GDP]);
        trace.intervals.truncate(2);
        for iv in &mut trace.intervals {
            iv.events.truncate(48);
        }
        assert!(trace.event_count() > 0, "the prefix carries probe events");
        let clean = gdp_trace::encode_shared(&trace);
        assert!(SharedTraceReader::new(&clean).is_ok());
        for pos in 0..clean.len() {
            for bit in 0..8 {
                let mut bytes = clean.clone();
                bytes[pos] ^= 1 << bit;
                assert!(
                    SharedTraceReader::new(&bytes).is_err(),
                    "bit {bit} of byte {pos} passed verification"
                );
            }
        }
    }

    #[test]
    fn streamed_replay_equals_whole_trace_replay_and_meters_alike() {
        let dir = tmp_cache_dir("streamed");
        let w = &paper_workloads(2, 5)[1];
        let x = xcfg();
        for set in [&[Technique::ITCA, Technique::GDP, Technique::GDP_O][..], &[Technique::ASM]] {
            let live = CampaignTraces::new(&dir, true, false).shared(w, &x, set);
            let path = TraceCache::new(&dir).path("shared", &shared_trace_key_for(&x, w, set));
            let trace = gdp_trace::decode_shared(&std::fs::read(path).unwrap()).unwrap();

            let reg_whole = MetricsRegistry::shared();
            let whole = ReplaySession::new(&trace, &x, set)
                .with_metrics(Arc::clone(&reg_whole))
                .into_report();
            let reg_streamed = MetricsRegistry::shared();
            let replay =
                CampaignTraces::new(&dir, false, true).with_metrics(Arc::clone(&reg_streamed));
            let streamed = replay.shared(w, &x, set);
            assert_eq!((replay.stats().hits, replay.stats().misses), (1, 0));

            assert_runs_bit_identical(&streamed, &whole);
            assert_runs_bit_identical(&streamed, &live);
            let (a, b) = (reg_streamed.snapshot(), reg_whole.snapshot());
            assert!(a.counter("session.events").unwrap() > 0);
            assert_eq!(a.counters, b.counters, "session.* counters");
            assert_eq!(a.timeseries, b.timeseries, "ts.* series");
            let decoded = a.spans.iter().find(|s| s.name == "trace.decode").unwrap();
            assert_eq!(decoded.count, trace.intervals.len() as u64 + 1, "one per read_interval");
            assert!(a.spans.iter().any(|s| s.name == "trace.read" && s.count == 1));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_mid_stream_decode_error_is_a_quarantined_miss_that_simulates() {
        let dir = tmp_cache_dir("mid-stream");
        let w = &paper_workloads(2, 5)[0];
        let x = xcfg();
        let set = [Technique::GDP, Technique::PTCA];
        let (live, mut trace) = record_shared(w, &x, &set);
        // Every CRC holds, but the last interval runs core 0 back below
        // its instruction watermark: the error surfaces only after the
        // earlier intervals were replayed.
        let last = trace.intervals.len() - 1;
        trace.intervals[last].boundaries[0].instr_start = 0;
        let cache = TraceCache::new(&dir);
        cache.store_shared(&shared_trace_key_for(&x, w, &set), &trace).unwrap();

        let reg = MetricsRegistry::shared();
        let replay = CampaignTraces::new(&dir, false, true).with_metrics(Arc::clone(&reg));
        assert_runs_bit_identical(&replay.shared(w, &x, &set), &live);
        let s = replay.stats();
        assert_eq!((s.hits, s.misses, s.quarantines), (0, 1, 1));
        assert!(!cache.path("shared", &shared_trace_key_for(&x, w, &set)).exists());

        // A known limit, pinned: the intervals replayed before the error
        // stay counted, so the registry holds them on top of the
        // simulated run's.
        let clean = MetricsRegistry::shared();
        CampaignTraces::no_cache().with_metrics(Arc::clone(&clean)).shared(w, &x, &set);
        let (got, want) = (reg.snapshot(), clean.snapshot());
        let prefix_events: u64 =
            trace.intervals[..last].iter().map(|iv| iv.events.len() as u64).sum();
        assert_eq!(
            got.counter("session.intervals"),
            want.counter("session.intervals").map(|n| n + last as u64)
        );
        assert_eq!(
            got.counter("session.events"),
            want.counter("session.events").map(|n| n + prefix_events)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_no_cache_router_does_no_io() {
        let dir = std::env::temp_dir().join(format!("gdp-exp-no-io-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let w = &paper_workloads(2, 5)[0];
        let x = xcfg();
        let set = [Technique::GDP, Technique::PTCA];
        let reference = run_shared(w, &x, &set);
        let eval = WorkloadEval::from_runs(w, &x, reference.clone(), None);
        for metrics in [None, Some(MetricsRegistry::shared())] {
            let mut tc = CampaignTraces::new(&dir, false, false);
            if let Some(reg) = metrics {
                tc = tc.with_metrics(reg);
            }
            assert_runs_bit_identical(&tc.shared(w, &x, &set), &reference);
            for core in 0..eval.cores() {
                let routed = tc.private(&eval, core);
                let direct = run_private(
                    eval.benchmark(core),
                    private_base(core),
                    &x,
                    &eval.checkpoints_for(core),
                    None,
                );
                assert_eq!(routed.total, direct.total);
                assert_eq!(routed.checkpoints.len(), direct.checkpoints.len());
                for (a, b) in routed.checkpoints.iter().zip(&direct.checkpoints) {
                    assert_eq!(
                        (a.instrs, a.cycle, a.stats, a.cpl),
                        (b.instrs, b.cycle, b.stats, b.cpl)
                    );
                }
            }
            let s = tc.stats();
            assert_eq!((s.hits, s.misses, s.stores, s.quarantines), (0, 0, 0, 0));
            assert!(!dir.exists(), "a no-cache router must never touch its directory");
        }
    }
}
