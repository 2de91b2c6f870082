//! gdpbench: the one benchmark every performance claim in this
//! workspace is measured with. See README.md next to this crate for the
//! workloads, the metrics and how each layer maps onto them.
//!
//! ```text
//! gdpbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! gdpbench [--seed N] [--seconds S] [--trace 0|1] [--sets N]
//! ```
//!
//! With `--workload`, one workload runs in this process and the last
//! line of standard output is its JSON result. Without it, every
//! workload runs in a child process of its own (this executable again,
//! with `--workload`), `--sets` times over, and the sets are compared
//! against the bounds in `BENCHMARK.json`.

mod campaign;
mod heap;
mod inputs;
mod layers;
mod report;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gdp_runner::Json;
use gdp_telemetry::TraceRecorder;

use report::{json_line, render, reported, Metrics, Outcome, END_TO_END, PER_LAYER};
use stats::median;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// The workloads, in the order the orchestrator runs them.
const WORKLOADS: [&str; 4] = ["campaign_cold", "campaign_warm", "serve_stream", "serve_churn"];

/// Set-ups per run: at least this many, and until together they took
/// `SETUP_MIN_TIME`, so that a set-up of microseconds is timed thousands
/// of times. The run reports their median.
const SETUP_MIN_REPS: usize = 3;

/// See [`SETUP_MIN_REPS`]. A fresh process runs microsecond set-ups up to
/// half again slower for its first tens of milliseconds; a whole second
/// keeps that phase out of the median (20 ms let it move by 70% between
/// runs, 1 s by under 10%).
const SETUP_MIN_TIME: Duration = Duration::from_secs(1);

/// Default measured seconds per run (`run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 30.0;

/// Where runs write their results, relative to the working directory.
const RESULTS_DIR: &str = "results/bench";

const USAGE: &str = "\
usage: gdpbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--sets N]
  --workload NAME  run one of campaign_cold, campaign_warm, serve_stream, serve_churn
                   in this process; the last stdout line is its JSON result
  --seed N         workload seed (default 2018)
  --seconds S      measured seconds per run (default 30)
  --trace 0|1      1: attach telemetry and a timeline and report per-layer metrics;
                   without --workload, run every workload once more that way
  --sets N         without --workload: run every workload N times and, for N >= 2,
                   compare each set's end-to-end metrics with the first against
                   the bounds in BENCHMARK.json (exit 1 when any is outside)";

/// One run's settings and places.
pub struct Ctx {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer (traced) run.
    pub trace: bool,
    /// Host parallelism: the campaign pool size.
    pub nproc: usize,
    /// Serve client threads (one connection each), at most `nproc`.
    pub clients: usize,
    /// Result directory of this run.
    pub dir: PathBuf,
    /// Scratch space of this run (removed at the end).
    pub work: PathBuf,
}

/// A duration in seconds.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Write the run's Perfetto timeline next to its results.
pub fn write_timeline(ctx: &Ctx, tracer: &Arc<TraceRecorder>) {
    let path = ctx.dir.join(format!("{}.perfetto.json", ctx.workload));
    match path.to_str().map(|p| tracer.write_json(p)) {
        Some(Ok(())) => {}
        Some(Err(e)) => eprintln!("gdpbench: cannot write {}: {e}", path.display()),
        None => eprintln!("gdpbench: unprintable timeline path {}", path.display()),
    }
}

/// Set the workload up repeatedly (see [`SETUP_MIN_REPS`]), handing
/// every set-up but the last to `discard`; records `setup_s`, the median
/// set-up time, and returns the last set-up.
pub fn set_up<T>(m: &mut Metrics, mut setup: impl FnMut() -> T, mut discard: impl FnMut(T)) -> T {
    let mut times = Vec::new();
    let begin = Instant::now();
    loop {
        let t = Instant::now();
        let ready = setup();
        times.push(secs(t.elapsed()));
        if times.len() >= SETUP_MIN_REPS && begin.elapsed() >= SETUP_MIN_TIME {
            m.sampled("setup_s", "s", median(&times).expect("set-up times"), times.len());
            return ready;
        }
        discard(ready);
    }
}

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: gdp_bench::SWEEP_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        sets: 1,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                a.workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|n| *n == w)
                        .ok_or(format!("unknown workload {w:?}"))?,
                );
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds expects a number")?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => match it.peek().map(String::as_str) {
                Some("0") | Some("1") => a.trace = it.next().as_deref() == Some("1"),
                _ => a.trace = true,
            },
            "--sets" => {
                a.sets = value()?.parse().map_err(|_| "--sets expects an integer")?;
                if a.sets == 0 {
                    return Err("--sets must be at least 1".into());
                }
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gdpbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Per-suspend and per-store log lines would drown the report.
    gdp_telemetry::log::set_level(gdp_telemetry::log::Level::Quiet);
    match args.workload {
        Some(w) => run_one(&args, w),
        None => run_all(&args),
    }
}

/// Run one workload in this process and print its report.
fn run_one(args: &Args, workload: &'static str) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run = format!("{workload}-s{}{}", args.seed, if args.trace { "-trace" } else { "" });
    let dir = PathBuf::from(RESULTS_DIR).join(run);
    let ctx = Ctx {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc,
        clients: nproc.min(2),
        work: dir.join("work"),
        dir,
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("gdpbench: cannot create {}: {e}", ctx.work.display());
        return ExitCode::FAILURE;
    }
    let out = match workload {
        "campaign_cold" => campaign::run(&ctx, false),
        "campaign_warm" => campaign::run(&ctx, true),
        "serve_stream" => serve::run(&ctx, false),
        "serve_churn" => serve::run(&ctx, true),
        _ => unreachable!("workload names are validated by the parser"),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);

    print!("{}", render(workload, &out));
    println!(
        "  host: nproc={} pool_workers={} client_threads={} seed={} seconds={}",
        ctx.nproc, ctx.nproc, ctx.clients, ctx.seed, ctx.seconds
    );
    if let Err(e) = write_results(&ctx, &out) {
        eprintln!("gdpbench: cannot write results in {}: {e}", ctx.dir.display());
    }
    println!("{}", json_line(&out, reported(ctx.trace)));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `results.json` (every metric) and, under `--trace`, `layers.json`
/// (the per-layer list) in the run's directory.
fn write_results(ctx: &Ctx, out: &Outcome) -> std::io::Result<()> {
    let metric_obj = |names: &[(&str, &str)]| {
        Json::Obj(
            names
                .iter()
                .map(|(n, u)| {
                    let v = out.metrics.get(n).map_or(0.0, |m| m.value);
                    (
                        n.to_string(),
                        Json::obj(vec![("value", Json::from(v)), ("unit", Json::from(*u))]),
                    )
                })
                .collect(),
        )
    };
    let doc = Json::obj(vec![
        ("workload", Json::from(ctx.workload)),
        ("seed", Json::from(ctx.seed)),
        ("seconds", Json::from(ctx.seconds)),
        ("trace", Json::from(ctx.trace)),
        (
            "host",
            Json::obj(vec![
                ("nproc", Json::from(ctx.nproc)),
                ("pool_workers", Json::from(ctx.nproc)),
                ("client_threads", Json::from(ctx.clients)),
            ]),
        ),
        ("correct", Json::from(out.correct())),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        ("failures", Json::Arr(out.failures.iter().map(|f| Json::from(f.as_str())).collect())),
        ("end_to_end", metric_obj(&END_TO_END)),
        ("per_layer", metric_obj(&PER_LAYER)),
    ]);
    std::fs::write(ctx.dir.join("results.json"), doc.to_pretty())?;
    if ctx.trace {
        std::fs::write(ctx.dir.join("layers.json"), metric_obj(&PER_LAYER).to_pretty())?;
    }
    Ok(())
}

/// Run `workload` in a child process (this executable again) and return
/// whether its outputs were correct and its metrics object. The child's
/// report lines are passed through.
fn run_child(args: &Args, workload: &str, trace: bool) -> Result<(bool, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate gdpbench: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for l in lines {
        println!("{l}");
    }
    let j = Json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    let correct = matches!(j.get("correct"), Some(Json::Bool(true)));
    let metrics = j.get("metrics").cloned().ok_or(format!("{workload}: result without metrics"))?;
    Ok((correct && output.status.success(), metrics))
}

/// The end-to-end bounds of `BENCHMARK.json`: `(name, bound)`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("--sets needs BENCHMARK.json in the working directory: {e}"))?;
    let j = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = j.get("end_to_end").and_then(Json::as_arr).ok_or("BENCHMARK.json: no end_to_end")?;
    list.iter()
        .map(|m| {
            let name =
                m.get("name").and_then(Json::as_str).ok_or("end_to_end entry without name")?;
            let bound =
                m.get("bound").and_then(Json::as_f64).ok_or("end_to_end entry without bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// Every workload's metrics object from one pass over the workloads.
type Pass = BTreeMap<&'static str, Json>;

/// Run every workload `--sets` times, each run in its own process; with
/// `--trace`, then once more each with the trace attachments. With two
/// or more sets, compare every set's end-to-end metrics with the first
/// against the bounds in `BENCHMARK.json`.
fn run_all(args: &Args) -> ExitCode {
    let bounds = match (args.sets > 1).then(bounds).transpose() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("gdpbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    let mut pass = |label: &str, trace: bool| -> Pass {
        let mut out = Pass::new();
        for w in WORKLOADS {
            eprintln!("[gdpbench] {label}: {w}");
            match run_child(args, w, trace) {
                Ok((correct, metrics)) => {
                    ok &= correct;
                    out.insert(w, metrics);
                }
                Err(e) => {
                    eprintln!("gdpbench: {e}");
                    ok = false;
                }
            }
        }
        out
    };
    let sets: Vec<Pass> =
        (1..=args.sets).map(|k| pass(&format!("set {k}/{}", args.sets), false)).collect();
    let layers = args.trace.then(|| pass("traced", true));

    let value = |p: &Pass, w: &str, name: &str| {
        p.get(w).and_then(|m| m.get(name)).and_then(|m| m.get("value")).and_then(Json::as_f64)
    };
    let mut rows = Vec::new();
    if let Some(bounds) = &bounds {
        println!(
            "\nrepeatability over {} sets: worst |set k - set 1| / set 1, and IQR/median",
            sets.len()
        );
        for w in WORKLOADS {
            for (name, bound) in bounds {
                let vals: Vec<f64> = sets.iter().filter_map(|p| value(p, w, name)).collect();
                let (Some(&first), true) = (vals.first(), vals.len() == sets.len()) else {
                    continue;
                };
                let worst =
                    vals.iter().map(|v| (v - first).abs() / first.abs()).fold(0.0, f64::max);
                let spread = stats::relative_iqr(&vals).unwrap_or(0.0);
                let verdict = if worst <= *bound { "ok" } else { "OUTSIDE" };
                ok &= worst <= *bound;
                println!(
                    "  {w:<14} {name:<14} median {:>14.4}  worst {:>6.2}%  spread {:>6.2}%  bound {:>4.1}%  {verdict}",
                    stats::median(&vals).unwrap_or(0.0),
                    worst * 100.0,
                    spread * 100.0,
                    bound * 100.0
                );
                rows.push(Json::obj(vec![
                    ("workload", Json::from(w)),
                    ("metric", Json::from(name.as_str())),
                    ("values", Json::Arr(vals.iter().map(|v| Json::from(*v)).collect())),
                    ("worst_rel_diff", Json::from(worst)),
                    ("spread", Json::from(spread)),
                    ("bound", Json::from(*bound)),
                ]));
            }
        }
    }
    let as_obj = |p: &Pass| Json::Obj(p.iter().map(|(w, m)| (w.to_string(), m.clone())).collect());
    let mut doc = vec![
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("nproc", Json::from(std::thread::available_parallelism().map_or(1, |n| n.get()))),
        ("sets", Json::Arr(sets.iter().map(as_obj).collect())),
        ("repeatability", Json::Arr(rows)),
    ];
    let dir = PathBuf::from(RESULTS_DIR).join(format!("all-s{}", args.seed));
    let mut written = std::fs::create_dir_all(&dir);
    if let Some(layers) = &layers {
        doc.push(("per_layer", as_obj(layers)));
        written = written
            .and_then(|()| std::fs::write(dir.join("layers.json"), as_obj(layers).to_pretty()));
    }
    written =
        written.and_then(|()| std::fs::write(dir.join("results.json"), Json::obj(doc).to_pretty()));
    match written {
        Ok(()) => eprintln!("[gdpbench] wrote {}", dir.display()),
        Err(e) => eprintln!("gdpbench: cannot write {}: {e}", dir.display()),
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
