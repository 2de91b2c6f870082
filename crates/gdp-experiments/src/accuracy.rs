//! Accuracy evaluation: shared-mode estimates vs. private-mode actuals
//! (paper §VII-A/B, Figs. 3–5).

use std::collections::HashMap;

use gdp_metrics::ErrorSeries;
use gdp_runner::{Pool, Progress};
use gdp_workloads::{Benchmark, Workload};

use crate::config::{ExperimentConfig, WARMUP_INTERVALS};
use crate::private::PrivateRun;
use crate::shared::SharedRun;
pub use crate::techniques::{transparent_subset, Technique};
use crate::trace::CampaignTraces;

/// Per-benchmark (per-core slot) error series over a workload run.
#[derive(Debug, Clone)]
pub struct BenchAccuracy {
    /// Benchmark name.
    pub bench: &'static str,
    /// Core slot in the workload.
    pub core: usize,
    /// IPC estimation errors, indexed like the evaluation's canonical
    /// technique set ([`WorkloadAccuracy::techniques`]).
    pub ipc_err: Vec<ErrorSeries>,
    /// SMS-load stall-cycle estimation errors, indexed like the
    /// evaluation's canonical technique set.
    pub stall_err: Vec<ErrorSeries>,
    /// GDP's runtime CPL vs. the unbounded private-mode reference.
    pub cpl_err: ErrorSeries,
    /// GDP-O's overlap estimate vs. the private-mode actual.
    pub overlap_err: ErrorSeries,
    /// DIEF's λ̂ vs. the private-mode actual average SMS latency.
    pub lambda_err: ErrorSeries,
}

/// Accuracy results for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadAccuracy {
    /// Workload identifier.
    pub workload: String,
    /// The canonical technique set under evaluation: the index space of
    /// every per-bench error vector.
    pub techniques: Vec<Technique>,
    /// One record per core slot.
    pub benches: Vec<BenchAccuracy>,
    /// Per-core shared-mode slowdown imposed by ASM's invasive priority
    /// rotation relative to the transparent run (>1 = ASM slowed the core;
    /// the paper observed up to 57% reductions).
    pub invasive_slowdown: Vec<f64>,
}

impl WorkloadAccuracy {
    /// Index of a technique in this evaluation's error vectors.
    pub fn tech_index(&self, t: Technique) -> Option<usize> {
        self.techniques.iter().position(|x| *x == t)
    }
}

/// One labelled group of an evaluation campaign: workloads evaluated
/// under one experiment configuration (a sweep cell such as `2c-H`, a
/// sensitivity variant of one class, a mix pattern).
#[derive(Debug, Clone)]
pub struct EvalGroup {
    /// Prefix of the group's shared-job labels.
    pub label: String,
    /// The configuration every workload of the group runs under.
    pub xcfg: ExperimentConfig,
    /// The group's workloads, in result order.
    pub workloads: Vec<Workload>,
}

/// The shared runs each workload needs, as technique sets (paper §VI):
/// the transparent run, plus a separate invasive run when `techniques`
/// selects any invasive technique (per its registry capability flags).
fn run_kinds(techniques: &[Technique]) -> Vec<Vec<Technique>> {
    let techniques = Technique::canonical(techniques);
    let invasive: Vec<Technique> =
        techniques.iter().copied().filter(Technique::is_invasive).collect();
    let mut kinds = vec![transparent_subset(&techniques)];
    if !invasive.is_empty() {
        kinds.push(invasive);
    }
    kinds
}

/// Every (group, workload) pair of `groups`, in result order.
fn group_workloads(groups: &[EvalGroup]) -> impl Iterator<Item = (&EvalGroup, &Workload)> {
    groups.iter().flat_map(|g| g.workloads.iter().map(move |w| (g, w)))
}

/// Label of one shared-mode job; an invasive run names its techniques,
/// e.g. `2c-H/2c-H-00 shared (ASM)`.
fn shared_job_label(group: &str, workload: &str, kind: &[Technique]) -> String {
    if kind.iter().any(Technique::is_invasive) {
        let names: Vec<&str> = kind.iter().map(|t| t.name()).collect();
        format!("{group}/{workload} shared ({})", names.join("+"))
    } else {
        format!("{group}/{workload} shared")
    }
}

/// Total number of jobs [`evaluate`] submits for `groups`: per workload,
/// one shared job per run kind and one private job per core.
pub fn evaluate_job_count(groups: &[EvalGroup], techniques: &[Technique]) -> usize {
    let kinds = run_kinds(techniques).len();
    group_workloads(groups).map(|(_, w)| kinds + w.cores()).sum()
}

/// The job plan of [`evaluate`] as one label per job, in submission
/// order — the single source for both a `--list` plan and execution
/// progress, so the two can never drift.
pub fn evaluate_job_labels(groups: &[EvalGroup], techniques: &[Technique]) -> Vec<String> {
    let kinds = run_kinds(techniques);
    let shared = group_workloads(groups)
        .flat_map(|(g, w)| kinds.iter().map(|k| shared_job_label(&g.label, &w.name, k)));
    let private = group_workloads(groups)
        .flat_map(|(_, w)| (0..w.cores()).map(|core| format!("{} private core {core}", w.name)));
    shared.chain(private).collect()
}

/// Evaluate every workload of `groups` with `techniques` (paper
/// methodology §VI) as jobs on `pool`: first one shared job per
/// (workload × run kind), then one private ground-truth job per
/// (workload × core) at the union of that workload's shared-run
/// checkpoints. Every job goes through `traces`, so it replays a cached
/// trace or simulates (recording under `record`), and reports its label
/// to `progress`. `result[g][w]` is workload `w` of `groups[g]`,
/// bit-identical for every pool size and trace policy.
pub fn evaluate(
    groups: &[EvalGroup],
    techniques: &[Technique],
    pool: &Pool,
    progress: &Progress,
    traces: &CampaignTraces,
) -> Vec<Vec<WorkloadAccuracy>> {
    let kinds = run_kinds(techniques);
    let labels = evaluate_job_labels(groups, techniques);
    let (shared_labels, private_labels) =
        labels.split_at(group_workloads(groups).count() * kinds.len());

    // Phase 1: shared-mode runs.
    let shared_jobs: Vec<_> = group_workloads(groups)
        .flat_map(|(g, w)| kinds.iter().map(move |k| (g, w, k)))
        .zip(shared_labels)
        .map(|((g, w, kind), label)| {
            move || {
                let run = traces.shared(w, &g.xcfg, kind);
                progress.finish_item(label);
                run
            }
        })
        .collect();
    let mut runs = pool.run(shared_jobs).into_iter();
    let evals: Vec<WorkloadEval> = group_workloads(groups)
        .map(|(g, w)| {
            let t_run = runs.next().expect("one transparent run per workload");
            let a_run = (kinds.len() > 1).then(|| runs.next().expect("one invasive run"));
            WorkloadEval::from_runs(w, &g.xcfg, t_run, a_run)
        })
        .collect();

    // Phase 2: per-(workload, core) private reference runs.
    let private_jobs: Vec<_> = evals
        .iter()
        .flat_map(|eval| (0..eval.cores()).map(move |core| (eval, core)))
        .zip(private_labels)
        .map(|((eval, core), label)| {
            move || {
                let run = traces.private(eval, core);
                progress.finish_item(label);
                run
            }
        })
        .collect();
    let mut privates = pool.run(private_jobs).into_iter();

    // Phase 3: score and regroup (pure, serial, deterministic).
    let mut scored = evals.iter().map(|eval| {
        let ps: Vec<PrivateRun> =
            (0..eval.cores()).map(|_| privates.next().expect("one private run per core")).collect();
        eval.finish(&ps)
    });
    groups
        .iter()
        .map(|g| g.workloads.iter().map(|_| scored.next().expect("one per workload")).collect())
        .collect()
}

/// Evaluate `techniques` on one workload, serially and without a trace
/// cache: [`evaluate`] over a single one-workload group. The invasive
/// ASM run is only performed when ASM is requested.
pub fn evaluate_workload(
    workload: &Workload,
    xcfg: &ExperimentConfig,
    techniques: &[Technique],
) -> WorkloadAccuracy {
    let groups =
        [EvalGroup { label: String::new(), xcfg: xcfg.clone(), workloads: vec![workload.clone()] }];
    let progress = Progress::silent(evaluate_job_count(&groups, techniques));
    let mut out =
        evaluate(&groups, techniques, &Pool::new(1), &progress, &CampaignTraces::no_cache());
    out.pop().and_then(|mut g| g.pop()).expect("one workload evaluated")
}

/// Address-space base a private run uses for `core` (disjoint across
/// cores; part of the private trace cache key).
pub fn private_base(core: usize) -> u64 {
    (core as u64) << 36
}

/// A workload evaluation split into its two phases (paper §VI):
///
/// 1. **Shared phase** ([`WorkloadEval::from_runs`]): the transparent
///    shared-mode run and — if ASM is under evaluation — the separate
///    invasive one, each its own campaign job.
/// 2. **Private phase**: one ground-truth run *per core slot* at the
///    union of both shared runs' instruction checkpoints
///    ([`WorkloadEval::checkpoints_for`]), each an independent job
///    ([`CampaignTraces::private`]).
///
/// [`WorkloadEval::finish`] then scores estimates against the private
/// records and assembles the [`WorkloadAccuracy`]; [`evaluate`] composes
/// the phases.
#[derive(Debug, Clone)]
pub struct WorkloadEval {
    workload_name: String,
    benchmarks: Vec<Benchmark>,
    xcfg: ExperimentConfig,
    techniques: Vec<Technique>,
    t_run: SharedRun,
    a_run: Option<SharedRun>,
}

impl WorkloadEval {
    /// Assemble an evaluation from shared runs executed elsewhere (e.g.
    /// as two independent campaign jobs). `t_run` must be the transparent
    /// run and `a_run`, if present, the invasive run of the same workload
    /// under the same configuration. The evaluation's technique set is
    /// the canonical union of both runs' sets.
    pub fn from_runs(
        workload: &Workload,
        xcfg: &ExperimentConfig,
        t_run: SharedRun,
        a_run: Option<SharedRun>,
    ) -> WorkloadEval {
        debug_assert!(t_run.techniques.iter().all(|t| !t.is_invasive()));
        debug_assert!(a_run
            .as_ref()
            .map_or(true, |r| r.techniques.iter().all(Technique::is_invasive)));
        let mut techniques = t_run.techniques.clone();
        techniques.extend(a_run.iter().flat_map(|r| r.techniques.iter().copied()));
        WorkloadEval {
            workload_name: workload.name.clone(),
            benchmarks: workload.benchmarks.clone(),
            xcfg: xcfg.clone(),
            techniques: Technique::canonical(&techniques),
            t_run,
            a_run,
        }
    }

    /// Core slots (= private jobs) of this evaluation.
    pub fn cores(&self) -> usize {
        self.benchmarks.len()
    }

    /// Name of the workload under evaluation.
    pub fn workload_name(&self) -> &str {
        &self.workload_name
    }

    /// The experiment configuration the evaluation runs under.
    pub fn xcfg(&self) -> &ExperimentConfig {
        &self.xcfg
    }

    /// Name of the benchmark occupying `core`.
    pub fn bench_name(&self, core: usize) -> &'static str {
        self.benchmarks[core].name
    }

    /// The benchmark occupying `core`.
    pub(crate) fn benchmark(&self, core: usize) -> &Benchmark {
        &self.benchmarks[core]
    }

    /// Sorted, deduplicated union of both shared runs' checkpoints for
    /// `core` — the instruction sample points handed to the private run.
    pub fn checkpoints_for(&self, core: usize) -> Vec<u64> {
        let mut cks: Vec<u64> = self
            .t_run
            .checkpoints(core)
            .into_iter()
            .chain(self.a_run.iter().flat_map(|r| r.checkpoints(core)))
            .filter(|&x| x > 0)
            .collect();
        cks.sort_unstable();
        cks.dedup();
        cks
    }

    /// The canonical technique set under evaluation.
    pub fn techniques(&self) -> &[Technique] {
        &self.techniques
    }

    /// Score every core's shared-mode estimates against its private
    /// record (`privates[core]`, as produced by
    /// [`CampaignTraces::private`]).
    pub fn finish(&self, privates: &[PrivateRun]) -> WorkloadAccuracy {
        let n = self.cores();
        assert_eq!(privates.len(), n, "one private run per core slot");
        let mut benches = Vec::with_capacity(n);
        let mut invasive_slowdown = Vec::with_capacity(n);

        for (core, private) in privates.iter().enumerate() {
            let by_target: HashMap<u64, usize> =
                private.checkpoints.iter().enumerate().map(|(i, c)| (c.instrs, i)).collect();

            let mut acc = BenchAccuracy {
                bench: self.benchmarks[core].name,
                core,
                ipc_err: self.techniques.iter().map(|_| ErrorSeries::new()).collect(),
                stall_err: self.techniques.iter().map(|_| ErrorSeries::new()).collect(),
                cpl_err: ErrorSeries::new(),
                overlap_err: ErrorSeries::new(),
                lambda_err: ErrorSeries::new(),
            };

            // Transparent techniques.
            score_run(&self.t_run, &self.techniques, core, private, &by_target, &mut acc, true);
            // Invasive techniques (separate run).
            if let Some(ar) = &self.a_run {
                score_run(ar, &self.techniques, core, private, &by_target, &mut acc, false);
                let t_cpi = self.t_run.final_stats[core].cpi();
                let a_cpi = ar.final_stats[core].cpi();
                invasive_slowdown.push(if t_cpi.is_finite() && t_cpi > 0.0 {
                    a_cpi / t_cpi
                } else {
                    1.0
                });
            } else {
                invasive_slowdown.push(1.0);
            }

            benches.push(acc);
        }

        WorkloadAccuracy {
            workload: self.workload_name.clone(),
            techniques: self.techniques.clone(),
            benches,
            invasive_slowdown,
        }
    }
}

/// Score one shared run's estimates for `core` against the private
/// record, skipping the first [`WARMUP_INTERVALS`] intervals.
fn score_run(
    run: &SharedRun,
    eval_set: &[Technique],
    core: usize,
    private: &crate::private::PrivateRun,
    by_target: &HashMap<u64, usize>,
    acc: &mut BenchAccuracy,
    component_errors: bool,
) {
    let mut prev_end = 0u64;
    for (interval_idx, row) in run.intervals.iter().enumerate() {
        let iv = &row[core];
        if iv.instr_end <= prev_end || iv.stats.committed_instrs == 0 {
            continue;
        }
        let Some(&pi) = by_target.get(&iv.instr_end) else {
            prev_end = iv.instr_end;
            continue;
        };
        let cur = &private.checkpoints[pi];
        let prev_stats = if prev_end == 0 {
            Default::default()
        } else {
            match by_target.get(&prev_end) {
                Some(&j) => private.checkpoints[j].stats,
                None => {
                    prev_end = iv.instr_end;
                    continue;
                }
            }
        };
        let actual = cur.stats.delta(&prev_stats);
        if actual.committed_instrs == 0 || actual.cycles == 0 {
            prev_end = iv.instr_end;
            continue;
        }
        if interval_idx < WARMUP_INTERVALS {
            // Cold-start interval: caches warming in both modes but at
            // different rates; the paper measures from warm checkpoints.
            prev_end = iv.instr_end;
            continue;
        }

        // Private CPL over the window: sum of reference harvests in range.
        let actual_cpl: u64 = private
            .checkpoints
            .iter()
            .filter(|c| c.instrs > prev_end && c.instrs <= iv.instr_end)
            .map(|c| c.cpl)
            .sum();

        for (slot, tech) in run.techniques.iter().enumerate() {
            let est = &iv.estimates[slot];
            let global = eval_set.iter().position(|t| t == tech).expect("known");
            acc.ipc_err[global].push(est.ipc(), actual.ipc());
            acc.stall_err[global].push(est.sigma_sms, actual.stall_sms as f64);
            if component_errors && *tech == Technique::GDP {
                acc.cpl_err.push(est.cpl as f64, actual_cpl as f64);
            }
            if component_errors && *tech == Technique::GDP_O {
                let actual_overlap = if actual.sms_loads > 0 {
                    actual.overlap_cycles as f64 / actual.sms_loads as f64
                } else {
                    0.0
                };
                acc.overlap_err.push(est.overlap, actual_overlap);
            }
        }
        if component_errors {
            acc.lambda_err.push(iv.lambda, actual.avg_sms_latency());
        }
        prev_end = iv.instr_end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_metrics::mean;
    use gdp_workloads::paper_workloads;

    fn xcfg() -> ExperimentConfig {
        ExperimentConfig::tiny(2)
    }

    /// One group of 2-core workloads under the tiny configuration with
    /// `prb_entries` PRB entries.
    fn group(workloads: &[Workload], prb_entries: usize) -> EvalGroup {
        let mut x = xcfg();
        x.sample_instrs = 6_000;
        x.prb_entries = prb_entries;
        EvalGroup { label: format!("prb={prb_entries}"), xcfg: x, workloads: workloads.to_vec() }
    }

    fn run(groups: &[EvalGroup], set: &[Technique], workers: usize) -> Vec<Vec<WorkloadAccuracy>> {
        let progress = Progress::silent(evaluate_job_count(groups, set));
        evaluate(groups, set, &Pool::new(workers), &progress, &CampaignTraces::no_cache())
    }

    // `Debug` prints every f64 in round-trip form, so equal renderings
    // mean equal values in every error series.

    #[test]
    fn pooled_private_runs_match_the_serial_composition() {
        // The per-core private reference runs are independent jobs: the
        // pooled evaluation must be bit-identical to the serial one.
        let g = group(&paper_workloads(2, 5)[..1], 32);
        let set = [Technique::GDP, Technique::GDP_O];
        let serial = evaluate_workload(&g.workloads[0], &g.xcfg, &set);
        let pooled = run(std::slice::from_ref(&g), &set, 4);
        assert_eq!(format!("{serial:?}"), format!("{:?}", pooled[0][0]));
    }

    #[test]
    fn grouped_evaluation_is_pool_invariant_and_matches_each_group_alone() {
        // Two groups share one workload under different configurations,
        // with the invasive ASM in the set — the shape fig7 runs on.
        let w = &paper_workloads(2, 5)[..1];
        let groups = [group(w, 8), group(w, 32)];
        let set = [Technique::ASM, Technique::GDP, Technique::GDP_O];
        let serial = run(&groups, &set, 1);
        assert_eq!(format!("{serial:?}"), format!("{:?}", run(&groups, &set, 3)));
        for (g, results) in groups.iter().zip(&serial) {
            let alone = evaluate_workload(&w[0], &g.xcfg, &set);
            assert_eq!(format!("{:?}", results[0]), format!("{alone:?}"), "{}", g.label);
        }
        assert_ne!(format!("{:?}", serial[0]), format!("{:?}", serial[1]), "configs must differ");
        let labels = evaluate_job_labels(&groups, &set);
        assert_eq!(labels.len(), evaluate_job_count(&groups, &set));
        assert_eq!(labels[1], format!("prb=8/{} shared (ASM)", w[0].name));
    }

    #[test]
    fn evaluation_produces_errors_for_every_technique() {
        let w = &paper_workloads(2, 5)[0]; // H workload: real interference
        let r = evaluate_workload(w, &xcfg(), &Technique::ALL);
        assert_eq!(r.benches.len(), 2);
        for b in &r.benches {
            for (i, t) in Technique::ALL.iter().enumerate() {
                assert!(!b.ipc_err[i].is_empty(), "{t} produced no IPC errors for {}", b.bench);
            }
            assert!(!b.lambda_err.is_empty());
        }
        assert_eq!(r.invasive_slowdown.len(), 2);
    }

    #[test]
    fn gdp_o_beats_the_architecture_centric_baselines() {
        // The paper's headline: dataflow accounting is more accurate than
        // condition-based accounting. On 2-core workloads the paper itself
        // observes that plain GDP can trail GDP-O (applications hide much
        // of the private latency, §VII-A), so the robust 2-core assertion
        // is on GDP-O.
        let x = xcfg();
        let mut gdpo = Vec::new();
        let mut itca = Vec::new();
        let mut ptca = Vec::new();
        for w in &paper_workloads(2, 5)[0..3] {
            let r = evaluate_workload(w, &x, &Technique::ALL);
            for b in &r.benches {
                gdpo.push(b.ipc_err[r.tech_index(Technique::GDP_O).unwrap()].rms_abs());
                itca.push(b.ipc_err[r.tech_index(Technique::ITCA).unwrap()].rms_abs());
                ptca.push(b.ipc_err[r.tech_index(Technique::PTCA).unwrap()].rms_abs());
            }
        }
        assert!(
            mean(&gdpo) < mean(&itca),
            "GDP-O mean RMS {} must beat ITCA {}",
            mean(&gdpo),
            mean(&itca)
        );
        assert!(
            mean(&gdpo) < mean(&ptca),
            "GDP-O mean RMS {} must beat PTCA {}",
            mean(&gdpo),
            mean(&ptca)
        );
    }
}
