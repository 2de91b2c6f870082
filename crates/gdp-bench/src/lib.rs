//! # gdp-bench — figure and table regeneration harness
//!
//! One binary per table/figure of the paper's evaluation:
//!
//! | Target | Paper artefact |
//! |---|---|
//! | `table1` | Table I — CMP model parameters |
//! | `fig3` | Fig. 3 — IPC / SMS-stall estimation RMS error, 5 techniques |
//! | `fig4` | Fig. 4 — sorted per-benchmark stall-error distributions |
//! | `fig5` | Fig. 5 — CPL / overlap / latency component error distributions |
//! | `fig6` | Fig. 6 — STP under LRU/UCP/ASM/MCP/MCP-O partitioning |
//! | `fig7` | Fig. 7 — GDP-O sensitivity sweeps |
//! | `headline` | §I / §VII headline numbers |
//!
//! Every binary runs through `gdp-runner`: the sweep is flattened into
//! independent jobs (per-workload shared-mode runs — the invasive ASM
//! run is its own job — then per-core private reference runs), executed
//! on a work-stealing pool (`--jobs N`, default all cores), and
//! reassembled in deterministic job order, so stdout tables and result
//! files are **byte-identical for every worker count**. `--json`
//! additionally writes machine-readable results to `results/<name>.json`
//! (see `gdp_runner::report` for the document layout); progress goes to
//! stderr. EXPERIMENTS.md records a reference transcript.

use std::sync::Arc;

use gdp_experiments::{
    evaluate, evaluate_job_count, evaluate_job_labels, CampaignTraces, EvalGroup, ExperimentConfig,
    Technique, WorkloadAccuracy,
};
use gdp_metrics::{mean, Summary};
use gdp_runner::{
    cli, summary_json, CacheCounters, Campaign, Json, Pool, PoolTelemetry, Progress, ScaleFlag,
};
use gdp_telemetry::{log_info, render_profile, MetricsRegistry, TraceRecorder};
use gdp_workloads::{generate_workloads, LlcClass, Workload};

/// Sweep scale selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smallest meaningful sweep (CI / smoke transcripts; ~minutes total).
    Tiny,
    /// Reduced workload counts and sample sizes (default).
    Quick,
    /// The paper's 30/15/5 workloads per class (hours).
    Full,
}

impl From<ScaleFlag> for Scale {
    fn from(f: ScaleFlag) -> Scale {
        match f {
            ScaleFlag::Tiny => Scale::Tiny,
            ScaleFlag::Quick => Scale::Quick,
            ScaleFlag::Full => Scale::Full,
        }
    }
}

impl Scale {
    /// Lower-case name (the `scale` field of result files).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// Workloads per class (H, M, L).
    pub fn class_counts(self) -> (usize, usize, usize) {
        match self {
            Scale::Tiny => (2, 1, 1),
            Scale::Quick => (4, 2, 2),
            Scale::Full => (30, 15, 5),
        }
    }

    /// Experiment configuration for `cores`.
    pub fn xcfg(self, cores: usize) -> ExperimentConfig {
        match self {
            Scale::Tiny => ExperimentConfig::tiny(cores),
            Scale::Quick => ExperimentConfig::quick(cores),
            Scale::Full => ExperimentConfig::scaled(cores),
        }
    }
}

/// Parsed command line of a figure binary (shared `gdp-runner` surface:
/// `--tiny/--quick/--full`, `--jobs N`, `--json`, `--list`, the
/// trace-cache flags `--record`/`--replay`/`--trace-dir DIR`, and the
/// registry-backed `--techniques a,b,c` selection; unknown flags and
/// unknown technique ids exit non-zero with usage / the valid-id list).
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Binary name (used for progress labels and the results file).
    pub bin: &'static str,
    /// Sweep scale.
    pub scale: Scale,
    /// Worker count.
    pub jobs: usize,
    /// Write `results/<bin>.json`.
    pub json: bool,
    /// `--list`: print the flattened job plan and exit 0.
    pub list: bool,
    /// `--record`: store event traces after simulating.
    pub record: bool,
    /// `--replay`: reuse cached event traces when present.
    pub replay: bool,
    /// Trace-cache directory.
    pub trace_dir: String,
    /// `--techniques`: validated registry selection, canonical order;
    /// `None` means the binary's default set.
    pub techniques: Option<Vec<Technique>>,
    /// `--metrics`: collect telemetry and write the full snapshot to
    /// `results/<bin>.metrics.json` (plus a `telemetry` object in the
    /// run record under `--json`).
    pub metrics: bool,
    /// `--metrics-out PATH`: write the snapshot to an explicit path
    /// (implies collection).
    pub metrics_out: Option<String>,
    /// `--trace-out PATH`: write the Chrome trace-event / Perfetto
    /// timeline (one lane per pool worker; wall-clock, outside every
    /// byte-compared surface) to PATH after the run.
    pub trace_out: Option<String>,
    /// `--profile`: print the span-profile table to stderr after the
    /// run (implies collection).
    pub profile: bool,
    /// `--quiet`: stderr diagnostics suppressed (the log level is
    /// already applied globally by the shared CLI parser).
    pub quiet: bool,
    registry: Option<Arc<MetricsRegistry>>,
    pool_telemetry: Option<Arc<PoolTelemetry>>,
    tracer: Option<Arc<TraceRecorder>>,
}

impl BenchArgs {
    /// Parse [`std::env::args`]; prints usage and exits on bad input.
    /// An unknown technique id exits 2 listing every registered id.
    pub fn parse(bin: &'static str) -> BenchArgs {
        let a = cli::parse_or_exit(bin);
        let techniques = a.techniques.as_deref().map(|list| match Technique::parse_list(list) {
            Ok(set) => set,
            Err(e) => {
                eprintln!("{bin}: {e}");
                std::process::exit(2);
            }
        });
        // Fail fast on unwritable output paths: create missing parent
        // directories now and exit 2 with a clear message instead of
        // discarding a finished campaign on the final write.
        for out in [a.metrics_out.as_deref(), a.trace_out.as_deref()].into_iter().flatten() {
            ensure_writable_or_exit(bin, out);
        }
        let wants = a.wants_telemetry();
        let registry = wants.then(MetricsRegistry::shared);
        let tracer = a.trace_out.as_ref().map(|_| TraceRecorder::shared());
        if let (Some(reg), Some(tr)) = (&registry, &tracer) {
            // Before any session resolves its span handles, so every
            // span lands on the timeline.
            reg.set_tracer(Arc::clone(tr));
        }
        BenchArgs {
            bin,
            scale: a.scale.into(),
            jobs: a.jobs(),
            json: a.json,
            list: a.list,
            record: a.record,
            replay: a.replay,
            trace_dir: a.trace_dir,
            techniques,
            metrics: a.metrics,
            metrics_out: a.metrics_out,
            trace_out: a.trace_out,
            profile: a.profile,
            quiet: a.quiet,
            registry,
            pool_telemetry: wants.then(PoolTelemetry::shared),
            tracer,
        }
    }

    /// The campaign-wide metrics registry, when any telemetry flag
    /// (`--metrics`/`--metrics-out`/`--profile`) asked for one.
    pub fn telemetry(&self) -> Option<Arc<MetricsRegistry>> {
        self.registry.clone()
    }

    /// The technique selection, falling back to the binary's default set.
    pub fn techniques_or(&self, default: &[Technique]) -> Vec<Technique> {
        self.techniques.clone().unwrap_or_else(|| default.to_vec())
    }

    /// The job pool for this invocation (with the scheduling-telemetry
    /// sink attached when telemetry is on, and the trace recorder when
    /// `--trace-out` asked for a timeline).
    pub fn pool(&self) -> Pool {
        let mut p = Pool::new(self.jobs);
        if let Some(t) = &self.pool_telemetry {
            p = p.with_telemetry(Arc::clone(t));
        }
        if let Some(tr) = &self.tracer {
            p = p.with_tracer(Arc::clone(tr));
        }
        p
    }

    /// Start the campaign clock/identity for this invocation.
    pub fn campaign(&self) -> Campaign {
        Campaign::new(self.bin, self.scale.name(), SWEEP_SEED, self.jobs)
    }

    /// The campaign router every shared and private job goes through:
    /// `--record`/`--replay` over `--trace-dir`, with the metrics
    /// registry attached under any telemetry flag.
    pub fn traces(&self) -> CampaignTraces {
        let tc = CampaignTraces::new(&self.trace_dir, self.record, self.replay);
        match &self.registry {
            Some(reg) => tc.with_metrics(Arc::clone(reg)),
            None => tc,
        }
    }

    /// Under `--list`, print the flattened job plan (one label per job,
    /// in submission order) and report `true` so the binary exits
    /// without running anything.
    pub fn print_plan(&self, labels: &[String]) -> bool {
        if !self.list {
            return false;
        }
        for l in labels {
            println!("{l}");
        }
        eprintln!("[{}] {} jobs planned", self.bin, labels.len());
        true
    }

    /// End-of-campaign bookkeeping: the stderr `done:` summary line
    /// (with per-job aggregate time when telemetry is on), trace-cache
    /// counters for the run record, and — under any telemetry flag —
    /// the metrics snapshot: exported into the campaign (`telemetry`
    /// run-record object), written to `results/<bin>.metrics.json` (or
    /// `--metrics-out PATH`), and rendered as the `--profile` span
    /// table on stderr.
    pub fn finish_campaign(
        &self,
        campaign: &mut Campaign,
        progress: &Progress,
        traces: &CampaignTraces,
    ) {
        progress.campaign_done_with(self.pool_telemetry.as_deref());
        let s = traces.stats();
        if self.record || self.replay {
            campaign.set_cache(CacheCounters {
                hits: s.hits,
                misses: s.misses,
                stores: s.stores,
                quarantines: s.quarantines,
            });
            log_info!(
                "[{}] trace cache: {} hits, {} misses, {} stores ({})",
                self.bin,
                s.hits,
                s.misses,
                s.stores,
                self.trace_dir
            );
        }
        if let Some(reg) = &self.registry {
            s.export(reg);
        }
        if let (Some(tr), Some(path)) = (&self.tracer, &self.trace_out) {
            match tr.write_json(path) {
                Ok(()) => log_info!(
                    "[{}] wrote {path} ({} slices; load it in ui.perfetto.dev)",
                    self.bin,
                    tr.len()
                ),
                Err(e) => eprintln!("{}: cannot write trace to {path}: {e}", self.bin),
            }
        }
        let Some(reg) = &self.registry else { return };
        if let Some(pt) = &self.pool_telemetry {
            pt.export(reg);
        }
        let snap = reg.snapshot();
        if self.profile {
            eprint!("{}", render_profile(&snap, campaign.elapsed()));
        }
        let full = snap.to_json();
        match Json::parse(&full) {
            Ok(j) => campaign.set_telemetry(j),
            Err(e) => eprintln!("{}: malformed metrics snapshot: {e:?}", self.bin),
        }
        // `--trace-out` alone wants a timeline, not a metrics file: the
        // snapshot file is written only when a metrics flag asked for it.
        if !(self.metrics || self.metrics_out.is_some() || self.profile) {
            return;
        }
        let path = self
            .metrics_out
            .clone()
            .unwrap_or_else(|| format!("{}/{}.metrics.json", gdp_runner::RESULTS_DIR, self.bin));
        if let Some(dir) = std::path::Path::new(&path).parent() {
            if !dir.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(dir);
            }
        }
        match std::fs::write(&path, &full) {
            Ok(()) => log_info!("[{}] wrote {path}", self.bin),
            Err(e) => eprintln!("{}: cannot write metrics to {path}: {e}", self.bin),
        }
    }

    /// Under `--json`, write `data` to `results/<bin>.json` (with the
    /// run record appended) and note the path on stderr.
    pub fn write_json(&self, campaign: &Campaign, job_count: usize, data: Json) {
        if !self.json {
            return;
        }
        match campaign.write(job_count, data) {
            Ok(path) => eprintln!("[{}] wrote {}", self.bin, path.display()),
            Err(e) => {
                eprintln!("{}: cannot write results: {e}", self.bin);
                std::process::exit(1);
            }
        }
    }
}

/// Verify `path` will be writable at the end of the run: create missing
/// parent directories, then open the file for appending (which creates
/// it without truncating an existing one). Returns the first error.
fn ensure_writable(path: &str) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::OpenOptions::new().append(true).create(true).open(path).map(|_| ())
}

/// Exit 2 with a clear message when an `--metrics-out`/`--trace-out`
/// path cannot be written (checked up front, not after the campaign).
fn ensure_writable_or_exit(bin: &str, path: &str) {
    if let Err(e) = ensure_writable(path) {
        eprintln!("{bin}: cannot write to {path}: {e}");
        std::process::exit(2);
    }
}

/// Workload-generation seed shared by all figures (deterministic output).
pub const SWEEP_SEED: u64 = 2018;

/// One (core count, LLC class) cell of the paper's sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepCell {
    /// CMP core count (2, 4 or 8).
    pub cores: usize,
    /// Workload LLC-sensitivity class.
    pub class: LlcClass,
}

impl SweepCell {
    /// Display label, e.g. `2c-H`.
    pub fn label(&self) -> String {
        format!("{}c-{}", self.cores, self.class)
    }
}

/// The nine cells of Figs. 3–6: {2,4,8} cores × {H,M,L}.
pub fn all_cells() -> Vec<SweepCell> {
    let mut out = Vec::with_capacity(9);
    for cores in [2usize, 4, 8] {
        for class in [LlcClass::H, LlcClass::M, LlcClass::L] {
            out.push(SweepCell { cores, class });
        }
    }
    out
}

/// The workloads of one class for one core count at the chosen scale.
pub fn class_workloads(cores: usize, class: LlcClass, scale: Scale) -> Vec<Workload> {
    let (h, m, l) = scale.class_counts();
    let count = match class {
        LlcClass::H => h,
        LlcClass::M => m,
        LlcClass::L => l,
    };
    generate_workloads(cores, class, count, SWEEP_SEED)
}

/// The sweep cells as evaluation groups, labelled by cell (`2c-H`).
fn cell_groups(cells: &[SweepCell], scale: Scale) -> Vec<EvalGroup> {
    cells
        .iter()
        .map(|c| EvalGroup {
            label: c.label(),
            xcfg: scale.xcfg(c.cores),
            workloads: class_workloads(c.cores, c.class, scale),
        })
        .collect()
}

/// Total number of jobs [`accuracy_sweep`] will submit for `cells`:
/// per workload, one transparent shared run, one invasive shared run if
/// any invasive technique is evaluated, and one private run per core.
pub fn sweep_job_count(cells: &[SweepCell], scale: Scale, techniques: &[Technique]) -> usize {
    evaluate_job_count(&cell_groups(cells, scale), techniques)
}

/// The flattened job plan of [`accuracy_sweep`] as one label per job, in
/// submission order (`--list`; each label names the simulation a cache
/// key covers, which makes cache hits/misses attributable).
pub fn sweep_job_labels(
    cells: &[SweepCell],
    scale: Scale,
    techniques: &[Technique],
) -> Vec<String> {
    evaluate_job_labels(&cell_groups(cells, scale), techniques)
}

/// Run the accuracy campaign over `cells` as parallel jobs without a
/// trace cache, reassembled deterministically: `result[i][w]` is
/// workload `w` of `cells[i]`, bit-identical for every pool size.
pub fn accuracy_sweep(
    cells: &[SweepCell],
    scale: Scale,
    techniques: &[Technique],
    pool: &Pool,
    progress: &Progress,
) -> Vec<Vec<WorkloadAccuracy>> {
    accuracy_sweep_traced(cells, scale, techniques, pool, progress, &CampaignTraces::no_cache())
}

/// [`accuracy_sweep`] through a campaign router: one job per (workload ×
/// run kind) shared-mode simulation — ASM's invasive run is separate
/// from the transparent run — then one job per (workload × core) private
/// reference run, each replayed on a cache hit and simulated (and under
/// `--record` stored) on a miss. Results are bit-identical either way.
pub fn accuracy_sweep_traced(
    cells: &[SweepCell],
    scale: Scale,
    techniques: &[Technique],
    pool: &Pool,
    progress: &Progress,
    traces: &CampaignTraces,
) -> Vec<Vec<WorkloadAccuracy>> {
    evaluate(&cell_groups(cells, scale), techniques, pool, progress, traces)
}

/// Aggregated accuracy numbers for one (core count, class) cell.
#[derive(Debug, Clone)]
pub struct CellAccuracy {
    /// The canonical technique set the per-technique vectors are
    /// indexed by.
    pub techniques: Vec<Technique>,
    /// Mean per-benchmark absolute RMS error of IPC estimates, per
    /// technique in [`CellAccuracy::techniques`] order.
    pub ipc_rms: Vec<f64>,
    /// Mean per-benchmark absolute RMS error of SMS-stall estimates.
    pub stall_rms: Vec<f64>,
    /// Every per-benchmark stall RMS value, per technique (Fig. 4 input).
    pub stall_rms_all: Vec<Vec<f64>>,
    /// Per-benchmark relative RMS errors of CPL / overlap / λ (Fig. 5).
    pub cpl_rel: Vec<f64>,
    /// Overlap estimator relative RMS errors.
    pub overlap_rel: Vec<f64>,
    /// DIEF latency relative RMS errors.
    pub lambda_rel: Vec<f64>,
    /// Worst per-core invasive slowdown observed under ASM.
    pub worst_asm_slowdown: f64,
}

/// Aggregate a set of workload evaluations into a cell. All evaluations
/// must share one technique set (the index space of the output vectors).
pub fn aggregate(results: &[WorkloadAccuracy]) -> CellAccuracy {
    let techniques: Vec<Technique> =
        results.first().map(|r| r.techniques.clone()).unwrap_or_default();
    debug_assert!(results.iter().all(|r| r.techniques == techniques));
    let nt = techniques.len();
    let mut ipc: Vec<Vec<f64>> = vec![Vec::new(); nt];
    let mut stall: Vec<Vec<f64>> = vec![Vec::new(); nt];
    let mut cpl = Vec::new();
    let mut overlap = Vec::new();
    let mut lambda = Vec::new();
    let mut worst = 1.0f64;
    for r in results {
        for b in &r.benches {
            for t in 0..nt {
                if !b.ipc_err[t].is_empty() {
                    ipc[t].push(b.ipc_err[t].rms_abs());
                    stall[t].push(b.stall_err[t].rms_abs());
                }
            }
            if !b.cpl_err.is_empty() {
                cpl.push(b.cpl_err.rms_rel().abs() * 100.0);
            }
            if !b.overlap_err.is_empty() {
                overlap.push(b.overlap_err.rms_rel().abs() * 100.0);
            }
            if !b.lambda_err.is_empty() {
                lambda.push(b.lambda_err.rms_rel().abs() * 100.0);
            }
        }
        for s in &r.invasive_slowdown {
            worst = worst.max(*s);
        }
    }
    CellAccuracy {
        techniques,
        ipc_rms: ipc.iter().map(|v| mean(v)).collect(),
        stall_rms: stall.iter().map(|v| mean(v)).collect(),
        stall_rms_all: stall,
        cpl_rel: cpl,
        overlap_rel: overlap,
        lambda_rel: lambda,
        worst_asm_slowdown: worst,
    }
}

/// Per-technique values as an ordered JSON object keyed by the
/// registry display labels of `techniques`.
pub fn technique_json(techniques: &[Technique], values: &[f64]) -> Json {
    Json::Obj(
        techniques
            .iter()
            .zip(values)
            .map(|(t, v)| (t.name().to_string(), Json::from(*v)))
            .collect(),
    )
}

/// One cell's aggregated accuracy as JSON (shared by fig3/fig5 and the
/// determinism suite), labelled from the cell's technique set.
pub fn cell_accuracy_json(label: &str, cell: &CellAccuracy) -> Json {
    Json::obj(vec![
        ("cell", Json::from(label)),
        ("ipc_rms", technique_json(&cell.techniques, &cell.ipc_rms)),
        ("stall_rms", technique_json(&cell.techniques, &cell.stall_rms)),
        ("cpl_rel_pct", summary_json(&Summary::of(&cell.cpl_rel))),
        ("overlap_rel_pct", summary_json(&Summary::of(&cell.overlap_rel))),
        ("lambda_rel_pct", summary_json(&Summary::of(&cell.lambda_rel))),
        ("worst_asm_slowdown", Json::from(cell.worst_asm_slowdown)),
    ])
}

/// Print a header banner for a figure binary.
pub fn banner(title: &str, scale: Scale) {
    println!("================================================================");
    println!("{title}");
    println!(
        "scale: {:?} (--tiny/--quick/--full; full = the paper's 30/15/5 workloads per class)",
        scale
    );
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_controls_counts() {
        assert_eq!(Scale::Tiny.class_counts(), (2, 1, 1));
        assert_eq!(Scale::Quick.class_counts(), (4, 2, 2));
        assert_eq!(Scale::Full.class_counts(), (30, 15, 5));
        assert!(Scale::Quick.xcfg(2).sample_instrs < Scale::Full.xcfg(2).sample_instrs);
        assert!(Scale::Tiny.xcfg(2).sample_instrs < Scale::Quick.xcfg(2).sample_instrs);
    }

    #[test]
    fn class_workload_generation_is_deterministic() {
        let a = class_workloads(2, LlcClass::H, Scale::Quick);
        let b = class_workloads(2, LlcClass::H, Scale::Quick);
        assert_eq!(a.len(), 4);
        assert_eq!(a[0].names(), b[0].names());
    }

    #[test]
    fn scale_flags_map_to_scales() {
        assert_eq!(Scale::from(ScaleFlag::Tiny), Scale::Tiny);
        assert_eq!(Scale::from(ScaleFlag::Quick), Scale::Quick);
        assert_eq!(Scale::from(ScaleFlag::Full), Scale::Full);
        assert_eq!(Scale::Tiny.name(), "tiny");
    }

    #[test]
    fn job_labels_match_the_job_count_and_name_every_phase() {
        let cells = all_cells();
        for techniques in [&Technique::ALL[..], &[Technique::GDP][..]] {
            let labels = sweep_job_labels(&cells, Scale::Tiny, techniques);
            assert_eq!(labels.len(), sweep_job_count(&cells, Scale::Tiny, techniques));
            assert!(labels.iter().any(|l| l.ends_with("shared")));
            assert!(labels.iter().any(|l| l.contains("private core")));
            let has_asm = labels.iter().any(|l| l.contains("(ASM)"));
            assert_eq!(has_asm, techniques.contains(&Technique::ASM));
        }
    }

    #[test]
    fn ensure_writable_creates_parents_and_rejects_bad_paths() {
        let dir = std::env::temp_dir().join(format!("gdp-bench-writable-{}", std::process::id()));
        let nested = dir.join("a/b/out.json");
        let nested = nested.to_str().unwrap();
        assert!(ensure_writable(nested).is_ok(), "missing parents are created");
        assert!(dir.join("a/b").is_dir());
        // Probing must not truncate an existing file.
        std::fs::write(nested, b"keep").unwrap();
        assert!(ensure_writable(nested).is_ok());
        assert_eq!(std::fs::read(nested).unwrap(), b"keep");
        // A path through a *file* cannot gain a parent directory.
        let through_file = dir.join("a/b/out.json/x.json");
        assert!(ensure_writable(through_file.to_str().unwrap()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn job_count_accounts_for_shared_and_private_jobs() {
        let cells = [
            SweepCell { cores: 2, class: LlcClass::H },
            SweepCell { cores: 4, class: LlcClass::M },
        ];
        // Tiny: 2 H workloads, 1 M workload. With ASM: per workload
        // 2 shared + cores private jobs.
        assert_eq!(sweep_job_count(&cells, Scale::Tiny, &Technique::ALL), 2 * (2 + 2) + (2 + 4));
        // Without ASM, one shared job per workload.
        assert_eq!(sweep_job_count(&cells, Scale::Tiny, &[Technique::GDP]), 2 * (1 + 2) + (1 + 4));
        assert_eq!(all_cells().len(), 9);
        assert_eq!(all_cells()[0].label(), "2c-H");
    }
}
