//! The campaign workloads: the fig3 accuracy sweep, composed from the
//! public calls the figure binaries use (`CampaignTraces::{shared,
//! private}` jobs on a `Pool`, then `WorkloadEval::{from_runs, finish}`),
//! with every call timed from here.
//!
//! * `campaign_cold` records every sweep into a fresh trace directory:
//!   simulation, ground truth, trace encoding, fsync and checkpoint
//!   summarisation.
//! * `campaign_warm` records once in set-up, then replays the sweep from
//!   that cache: trace decoding and the estimator stack, no simulator.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gdp_bench::{aggregate, cell_accuracy_json, SweepCell};
use gdp_experiments::{
    shared_trace_key_for, transparent_subset, CampaignTraces, ExperimentConfig, PrivateRun,
    SharedRun, Technique, WorkloadAccuracy, WorkloadEval,
};
use gdp_runner::{Pool, PoolTelemetry};
use gdp_telemetry::{MetricsRegistry, Snapshot, SpanHandle, TraceRecorder};
use gdp_trace::{CacheStatsSnapshot, TraceCache};
use gdp_workloads::Workload;

use crate::inputs;
use crate::layers::{self, ProbeTrace};
use crate::report::{Metrics, Outcome};
use crate::stats::{median, tail};
use crate::{secs, Ctx};

/// The fig3 sweep over some cells: tiny scale, the five default
/// techniques.
struct Sweep {
    prep: Vec<(SweepCell, ExperimentConfig, Vec<Workload>)>,
    transparent: Vec<Technique>,
    invasive: Vec<Technique>,
}

/// Bench-side spans around each layer call of a sweep (traced runs).
struct SweepSpans {
    shared: SpanHandle,
    private: SpanHandle,
    from_runs: SpanHandle,
    finish: SpanHandle,
}

/// What one sweep produced and how long each part took.
struct SweepRun {
    /// Each cell's entry of the data section fig3 writes, as text.
    cells: Vec<String>,
    /// Per-cell workload accuracies.
    accuracies: Vec<Vec<WorkloadAccuracy>>,
    /// Wall time of the whole sweep.
    wall: Duration,
    /// Wall time of the two pool fan-outs.
    pool_wall: Duration,
    /// Duration of each shared-mode job.
    shared_jobs: Vec<Duration>,
    /// Duration of each private ground-truth job.
    private_jobs: Vec<Duration>,
    /// Total time in `WorkloadEval::finish` (scoring).
    score: Duration,
}

fn timed<T>(span: Option<&SpanHandle>, f: impl FnOnce() -> T) -> (T, Duration) {
    let _g = span.map(SpanHandle::enter);
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

impl Sweep {
    /// The sweep over `cells`, each with its workloads.
    fn new(cells: Vec<(SweepCell, Vec<Workload>)>) -> Sweep {
        let techniques = Technique::canonical(&Technique::ALL);
        Sweep {
            prep: cells
                .into_iter()
                .map(|(c, ws)| (c, ExperimentConfig::tiny(c.cores), ws))
                .collect(),
            transparent: transparent_subset(&techniques),
            invasive: techniques.iter().copied().filter(Technique::is_invasive).collect(),
        }
    }

    /// Run the sweep: shared-mode jobs through `shared`, private
    /// ground-truth jobs through `private`, both on `pool`, then score.
    /// `shared` and `private` may be the same policy object.
    fn run(
        &self,
        pool: &Pool,
        shared: &CampaignTraces,
        private: &CampaignTraces,
        spans: Option<&SweepSpans>,
    ) -> SweepRun {
        let start = Instant::now();
        type Job<'a> = Box<dyn FnOnce() -> (SharedRun, Duration) + Send + 'a>;
        let mut jobs: Vec<Job<'_>> = Vec::new();
        for (_, xcfg, workloads) in &self.prep {
            for w in workloads {
                for set in [&self.transparent, &self.invasive] {
                    let span = spans.map(|s| &s.shared);
                    jobs.push(Box::new(move || timed(span, || shared.shared(w, xcfg, set))));
                }
            }
        }
        let t = Instant::now();
        let mut runs = pool.run(jobs).into_iter();
        let mut pool_wall = t.elapsed();
        let mut shared_jobs = Vec::new();
        let mut evals = Vec::new();
        for (_, xcfg, workloads) in &self.prep {
            for w in workloads {
                let (t_run, dt) = runs.next().expect("one transparent run per workload");
                let (a_run, da) = runs.next().expect("one invasive run per workload");
                shared_jobs.extend([dt, da]);
                let span = spans.map(|s| &s.from_runs);
                evals.push(timed(span, || WorkloadEval::from_runs(w, xcfg, t_run, Some(a_run))).0);
            }
        }

        let jobs: Vec<_> = evals
            .iter()
            .flat_map(|eval| {
                (0..eval.cores()).map(move |core| {
                    let span = spans.map(|s| &s.private);
                    move || timed(span, || private.private(eval, core))
                })
            })
            .collect();
        let t = Instant::now();
        let mut privates = pool.run(jobs).into_iter();
        pool_wall += t.elapsed();
        let mut private_jobs = Vec::new();
        let mut score = Duration::ZERO;
        let mut scored = Vec::with_capacity(evals.len());
        for eval in &evals {
            let ps: Vec<PrivateRun> = (0..eval.cores())
                .map(|_| {
                    let (p, d) = privates.next().expect("one private run per core");
                    private_jobs.push(d);
                    p
                })
                .collect();
            let (acc, d) = timed(spans.map(|s| &s.finish), || eval.finish(&ps));
            score += d;
            scored.push(acc);
        }
        let mut scored = scored.into_iter();
        let accuracies: Vec<Vec<WorkloadAccuracy>> = self
            .prep
            .iter()
            .map(|(_, _, ws)| ws.iter().map(|_| scored.next().expect("per workload")).collect())
            .collect();
        let wall = start.elapsed();
        let cells = self
            .prep
            .iter()
            .zip(&accuracies)
            .map(|((c, _, _), results)| {
                cell_accuracy_json(&c.label(), &aggregate(results)).to_pretty()
            })
            .collect();
        SweepRun { cells, accuracies, wall, pool_wall, shared_jobs, private_jobs, score }
    }

    /// Visit the shared traces a recorded sweep left in `dir` one at a
    /// time, loaded through a cache of their own (so the campaign's hit
    /// counters stay clean), each with its configuration and whether it
    /// is the invasive run.
    fn each_trace(&self, dir: &Path, mut f: impl FnMut(ProbeTrace)) {
        let cache = TraceCache::new(dir);
        for (_, xcfg, workloads) in &self.prep {
            for w in workloads {
                for (set, invasive) in [(&self.transparent, false), (&self.invasive, true)] {
                    let trace = cache
                        .load_shared(&shared_trace_key_for(xcfg, w, set))
                        .expect("a recorded sweep stores every shared run");
                    f(ProbeTrace { trace, xcfg: xcfg.clone(), invasive });
                }
            }
        }
    }

    /// Total probe events in the shared runs a recorded sweep left in
    /// `dir` (loading one trace at a time, so the count does not raise
    /// the workload's peak memory).
    fn count_events(&self, dir: &Path) -> u64 {
        let mut n = 0u64;
        self.each_trace(dir, |t| n += t.trace.event_count() as u64);
        n
    }

    /// Check every cell of `run` against `reference`.
    fn check(&self, out: &mut Outcome, what: &str, run: &SweepRun, reference: &[String]) {
        for (i, (c, _, _)) in self.prep.iter().enumerate() {
            let err = (run.cells.get(i) != reference.get(i))
                .then(|| format!("{what}: cell {} differs from the reference", c.label()));
            out.check(err);
        }
    }
}

/// What the per-layer metrics need from one traced sweep.
struct TracedSweep {
    recording: bool,
    shared: Snapshot,
    private: Snapshot,
    pool: Arc<PoolTelemetry>,
    cache: CacheStatsSnapshot,
    pool_wall: f64,
    private_time: f64,
    score: f64,
    ipc_err: [f64; 2],
}

/// The attachments of traced sweeps: separate registries for shared and
/// private runs (so simulator counters of the two do not mix), the pool
/// sink, the timeline, and the benchmark's own spans.
struct Tracing {
    tracer: Arc<TraceRecorder>,
    bench: Arc<MetricsRegistry>,
    spans: SweepSpans,
    sweeps: Vec<TracedSweep>,
}

impl Tracing {
    fn new() -> Tracing {
        let tracer = TraceRecorder::shared();
        let bench = MetricsRegistry::shared();
        bench.set_tracer(Arc::clone(&tracer));
        let spans = SweepSpans {
            shared: bench.span("bench.experiments.shared"),
            private: bench.span("bench.experiments.private"),
            from_runs: bench.span("bench.experiments.from_runs"),
            finish: bench.span("bench.experiments.finish"),
        };
        Tracing { tracer, bench, spans, sweeps: Vec::new() }
    }

    fn registry(&self) -> Arc<MetricsRegistry> {
        let r = MetricsRegistry::shared();
        r.set_tracer(Arc::clone(&self.tracer));
        r
    }
}

/// The pool size and trace attachments the sweeps of one run share.
struct Campaign {
    workers: usize,
    tracing: Option<Tracing>,
}

impl Campaign {
    /// One sweep recording into (or replaying from) `dir`, with the
    /// trace attachments when `traced`. Returns the run and the cache
    /// counters of its policy.
    fn sweep(
        &mut self,
        sweep: &Sweep,
        dir: &Path,
        recording: bool,
        traced: bool,
    ) -> (SweepRun, CacheStatsSnapshot) {
        let policy = || CampaignTraces::new(dir, recording, !recording);
        let tr = match (&mut self.tracing, traced) {
            (Some(tr), true) => tr,
            _ => {
                let tc = policy();
                let run = sweep.run(&Pool::new(self.workers), &tc, &tc, None);
                return (run, tc.stats());
            }
        };
        let (reg_s, reg_p) = (tr.registry(), tr.registry());
        let tc_s = policy().with_metrics(Arc::clone(&reg_s));
        let tc_p = policy().with_metrics(Arc::clone(&reg_p));
        let pool_tel = PoolTelemetry::shared();
        let pool = Pool::new(self.workers)
            .with_telemetry(Arc::clone(&pool_tel))
            .with_tracer(Arc::clone(&tr.tracer));
        let run = sweep.run(&pool, &tc_s, &tc_p, Some(&tr.spans));
        let (a, b) = (tc_s.stats(), tc_p.stats());
        let cache = CacheStatsSnapshot {
            hits: a.hits + b.hits,
            misses: a.misses + b.misses,
            stores: a.stores + b.stores,
            ..Default::default()
        };
        tr.sweeps.push(TracedSweep {
            recording,
            shared: reg_s.snapshot(),
            private: reg_p.snapshot(),
            pool: pool_tel,
            cache,
            pool_wall: secs(run.pool_wall),
            private_time: run.private_jobs.iter().map(|d| secs(*d)).sum(),
            score: secs(run.score),
            ipc_err: [2, 4].map(|cores| gdp_ipc_err_pct(&run.accuracies, cores)),
        });
        (run, cache)
    }
}

fn remove_dir(dir: &Path) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        if e.kind() != std::io::ErrorKind::NotFound {
            eprintln!("gdpbench: cannot remove {}: {e}", dir.display());
        }
    }
}

/// Run `campaign_cold` (`warm == false`) or `campaign_warm`.
pub fn run(ctx: &Ctx, warm: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut c = Campaign { workers: ctx.nproc, tracing: ctx.trace.then(Tracing::new) };

    // Set-up. Cold: generate the workloads. Warm: generate them and
    // record the cache the measured sweeps replay; that recording is the
    // reference every replayed sweep must reproduce.
    let cache_dir = ctx.work.join("cache");
    let (sweep, mut reference) = crate::set_up(
        &mut out.metrics,
        || {
            let sweep = Sweep::new(inputs::campaign_cells(ctx.seed));
            let reference = warm.then(|| c.sweep(&sweep, &cache_dir, true, ctx.trace).0.cells);
            (sweep, reference)
        },
        |_| remove_dir(&cache_dir),
    );
    let mut events = warm.then(|| sweep.count_events(&cache_dir));

    // Measurement: whole sweeps until the next one would overrun the
    // run's time; under --trace, untraced and traced sweeps alternate.
    let mut walls: Vec<f64> = Vec::new();
    let mut peaks: Vec<f64> = Vec::new();
    let mut traced_walls: Vec<f64> = Vec::new();
    let mut shared_jobs = Vec::new();
    let mut private_jobs = Vec::new();
    let mut probe_dir: Option<PathBuf> = None;
    let begin = Instant::now();
    for rep in 1.. {
        let traced = ctx.trace && rep % 2 == 0;
        let next = if traced { median(&traced_walls) } else { median(&walls) };
        let owed = ctx.trace && traced_walls.is_empty();
        if !walls.is_empty() && !owed && secs(begin.elapsed()) + next.unwrap_or(0.0) > ctx.seconds {
            break;
        }
        let dir = if warm { cache_dir.clone() } else { ctx.work.join(format!("cold-{rep}")) };
        crate::heap::take_peak_mb();
        let (run, cache) = c.sweep(&sweep, &dir, !warm, traced);
        if traced {
            traced_walls.push(secs(run.wall));
        } else {
            walls.push(secs(run.wall));
            peaks.push(crate::heap::take_peak_mb());
        }
        shared_jobs.extend(run.shared_jobs.iter().map(|d| secs(*d)));
        private_jobs.extend(run.private_jobs.iter().map(|d| secs(*d)));
        if warm {
            if cache.misses > 0 {
                out.check(Some(format!("warm sweep {rep}: {} cache misses", cache.misses)));
            }
            let reference = reference.as_deref().expect("warm set-up recorded a reference");
            sweep.check(&mut out, &format!("warm sweep {rep} vs cold"), &run, reference);
            continue;
        }
        // Cold: the recorded traces must replay to the same data, and
        // every sweep must equal the first.
        let (replayed, _) = c.sweep(&sweep, &dir, false, false);
        sweep.check(&mut out, &format!("cold sweep {rep} replayed"), &replayed, &run.cells);
        match &reference {
            None => reference = Some(run.cells),
            Some(first) => {
                sweep.check(&mut out, &format!("cold sweep {rep} vs sweep 1"), &run, first)
            }
        }
        events.get_or_insert_with(|| sweep.count_events(&dir));
        if traced {
            if let Some(old) = probe_dir.replace(dir) {
                remove_dir(&old);
            }
        } else {
            remove_dir(&dir);
        }
    }
    let events = events.expect("events counted") as f64;
    let rates: Vec<f64> = walls.iter().map(|w| events / w).collect();
    let n = walls.len();
    out.metrics.sampled("events_per_s", "events/s", median(&rates).expect("sweeps"), n);
    out.metrics.sampled("op_p50_ms", "ms", median(&walls).expect("sweeps") * 1e3, n);
    out.metrics.sampled("peak_heap_mb", "MB", median(&peaks).expect("sweeps"), n);

    if let Some(tr) = &c.tracing {
        let probe_dir =
            if warm { cache_dir.clone() } else { probe_dir.expect("a traced cold sweep") };
        let mut traces = Vec::new();
        sweep.each_trace(&probe_dir, |t| traces.push(t));
        let m = &mut out.metrics;
        layer_metrics(m, &tr.sweeps, ctx.nproc);
        for (name, jobs) in [("shared", &shared_jobs), ("private", &private_jobs)] {
            if let Some(p50) = median(jobs) {
                m.sampled(&format!("experiments.{name}_job_p50_s"), "s", p50, jobs.len());
            }
            if let Some(t) = tail(jobs) {
                m.tail(&format!("experiments.{name}_job_tail_s"), "s", t, jobs.len());
            }
        }
        if let (Some(a), Some(b)) = (median(&walls), median(&traced_walls)) {
            m.set("telemetry.overhead_pct", "%", 100.0 * (b / a - 1.0));
        }
        m.extend(layers::probe(&traces, &ctx.work.join("probe"), ctx.clients, &tr.bench));
        crate::write_timeline(ctx, &tr.tracer);
        remove_dir(&probe_dir);
    }
    remove_dir(&cache_dir);
    out
}

/// Self time of span `name` in `snap`.
fn self_time(snap: &Snapshot, name: &str) -> f64 {
    snap.spans.iter().find(|s| s.name == name).map_or(0.0, |s| secs(s.self_time()))
}

/// Total time of every span whose name starts with `prefix`.
fn span_total(snap: &Snapshot, prefix: &str) -> f64 {
    snap.spans.iter().filter(|s| s.name.starts_with(prefix)).map(|s| secs(s.total)).sum()
}

fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

/// The per-layer metrics the traced sweeps' telemetry yields.
fn layer_metrics(m: &mut Metrics, traced: &[TracedSweep], workers: usize) {
    let total =
        |ts: &[&TracedSweep], f: &dyn Fn(&TracedSweep) -> f64| ts.iter().map(|t| f(t)).sum::<f64>();
    let all: Vec<&TracedSweep> = traced.iter().collect();
    // gdp-sim and gdp-dief run only in recording sweeps.
    let live: Vec<&TracedSweep> = traced.iter().filter(|t| t.recording).collect();
    let shared_cycles = total(&live, &|t| counter(&t.shared, "engine.cycles"));
    let private_cycles = total(&live, &|t| counter(&t.private, "engine.cycles"));
    let skipped = total(&live, &|t| {
        counter(&t.shared, "engine.cycles_skipped") + counter(&t.private, "engine.cycles_skipped")
    });
    let advance = total(&live, &|t| self_time(&t.shared, "session.advance"));
    m.set("sim.shared_ns_per_cycle", "ns", advance * 1e9 / shared_cycles);
    let private_time = total(&live, &|t| t.private_time);
    m.set("sim.private_ns_per_cycle", "ns", private_time * 1e9 / private_cycles);
    m.set("sim.skip_frac", "fraction", skipped / (shared_cycles + private_cycles));
    m.set("sim.cycles", "count", (shared_cycles + private_cycles) / live.len() as f64);
    let dief = total(&live, &|t| span_total(&t.shared, "session.dief"));
    let live_events = total(&live, &|t| counter(&t.shared, "session.events"));
    m.set("dief.ns_per_event", "ns", dief * 1e9 / live_events);

    // gdp-core: the estimate phase per interval, live or replayed.
    let estimate = total(&all, &|t| span_total(&t.shared, "session.estimate."));
    let intervals = total(&all, &|t| counter(&t.shared, "session.intervals"));
    m.set("core.estimate_us_per_interval", "us", estimate * 1e6 / intervals);

    // gdp-experiments and gdp-trace, per sweep.
    let scores: Vec<f64> = traced.iter().map(|t| t.score * 1e3).collect();
    m.sampled("experiments.score_ms", "ms", median(&scores).unwrap_or(0.0), scores.len());
    if let Some(last) = traced.last() {
        m.set("experiments.gdp_ipc_err_2c_pct", "%", last.ipc_err[0]);
        m.set("experiments.gdp_ipc_err_4c_pct", "%", last.ipc_err[1]);
        m.set("trace.cache_hits", "count", last.cache.hits as f64);
        m.set("trace.cache_misses", "count", last.cache.misses as f64);
        m.set("trace.cache_stores", "count", last.cache.stores as f64);
    }

    // gdp-runner.
    let job_time = total(&all, &|t| secs(t.pool.total_job_time()));
    let pool_wall = total(&all, &|t| t.pool_wall);
    m.set("runner.busy_frac", "fraction", job_time / (pool_wall * workers as f64));
    let n = all.len() as f64;
    m.set("runner.steals", "count", total(&all, &|t| t.pool.steals() as f64) / n);
    m.set("runner.jobs", "count", total(&all, &|t| t.pool.jobs() as f64) / n);
}

/// GDP's mean relative IPC error over the `cores`-core workloads, as
/// `headline` computes it.
fn gdp_ipc_err_pct(accuracies: &[Vec<WorkloadAccuracy>], cores: usize) -> f64 {
    let errs: Vec<f64> = accuracies
        .iter()
        .flatten()
        .filter(|r| r.benches.len() == cores)
        .flat_map(|r| {
            let g = r.tech_index(Technique::GDP).expect("GDP is a default technique");
            r.benches
                .iter()
                .filter(move |b| !b.ipc_err[g].is_empty())
                .map(move |b| b.ipc_err[g].rms_rel().abs() * 100.0)
        })
        .collect();
    gdp_metrics::mean(&errs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_bench::{class_workloads, Scale};
    use gdp_runner::Progress;
    use gdp_workloads::LlcClass;

    /// The composed sweep measures the work fig3 does: recorded cold and
    /// replayed warm, it yields the data section `accuracy_sweep` does,
    /// byte for byte.
    #[test]
    fn composed_sweep_matches_accuracy_sweep() {
        let cells = [
            SweepCell { cores: 2, class: LlcClass::H },
            SweepCell { cores: 4, class: LlcClass::M },
        ];
        let pool = Pool::new(2);
        let jobs = gdp_bench::sweep_job_count(&cells, Scale::Tiny, &Technique::ALL);
        let reference = gdp_bench::accuracy_sweep(
            &cells,
            Scale::Tiny,
            &Technique::ALL,
            &pool,
            &Progress::silent(jobs),
        );
        let want: Vec<String> = cells
            .iter()
            .zip(&reference)
            .map(|(c, r)| cell_accuracy_json(&c.label(), &aggregate(r)).to_pretty())
            .collect();

        let dir = std::env::temp_dir().join(format!("gdpbench-sweep-{}", std::process::id()));
        let sweep = Sweep::new(
            cells.iter().map(|&c| (c, class_workloads(c.cores, c.class, Scale::Tiny))).collect(),
        );
        let cold = CampaignTraces::new(&dir, true, false);
        assert_eq!(sweep.run(&pool, &cold, &cold, None).cells, want, "recorded sweep");
        let warm = CampaignTraces::new(&dir, false, true);
        assert_eq!(sweep.run(&pool, &warm, &warm, None).cells, want, "replayed sweep");
        assert_eq!(warm.stats().misses, 0);
        assert!(sweep.count_events(&dir) > 0);
        remove_dir(&dir);
    }
}
