//! Shared command-line parsing for campaign binaries.
//!
//! Every figure/table binary accepts the same surface:
//!
//! ```text
//! --tiny | --quick | --full   sweep scale (default --quick)
//! --jobs N                    parallel workers (default: all cores)
//! --json                      also write results/<name>.json
//! --list                      print the flattened job plan and exit
//! --record                    store event traces after simulating
//! --replay                    reuse cached event traces when present
//! --trace-dir DIR             trace cache location (default results/traces)
//! --techniques a,b,c          registry-backed technique selection (ids
//!                             validated downstream against the registry)
//! --metrics                   collect telemetry; write results/<name>.metrics.json
//! --metrics-out PATH          write the full metrics snapshot to PATH
//! --trace-out PATH            write a Chrome trace-event / Perfetto timeline
//! --profile                   span-profile table on stderr after the run
//! --quiet                     suppress stderr diagnostics (GDP_LOG=quiet)
//! --help | -h                 usage
//! ```
//!
//! Unlike the earlier per-binary `Scale::from_args`, unrecognized
//! arguments are **errors**: the binary prints usage to stderr and exits
//! non-zero instead of silently running the default sweep.

use crate::pool::{default_parallelism, Pool};

/// Sweep scale requested on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScaleFlag {
    /// `--tiny`: smallest meaningful sweep (CI smoke, transcripts).
    Tiny,
    /// `--quick`: reduced workload counts (the default).
    #[default]
    Quick,
    /// `--full`: the paper's workload counts (hours).
    Full,
}

impl ScaleFlag {
    /// Lower-case flag name (also the `scale` field of result files).
    pub fn name(self) -> &'static str {
        match self {
            ScaleFlag::Tiny => "tiny",
            ScaleFlag::Quick => "quick",
            ScaleFlag::Full => "full",
        }
    }
}

/// Default trace-cache directory handed to `gdp-trace` (which always
/// takes an explicit root); lives here so the runner crate stays
/// dependency-free.
pub const DEFAULT_TRACE_DIR: &str = "results/traces";

/// Parsed arguments of a campaign binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunnerArgs {
    /// Sweep scale.
    pub scale: ScaleFlag,
    /// `--jobs N` if given; `None` means "all available cores".
    pub jobs: Option<usize>,
    /// Write machine-readable results under `results/`.
    pub json: bool,
    /// Print the flattened job plan (one label per job) and exit 0.
    pub list: bool,
    /// Store event traces in the cache after simulating.
    pub record: bool,
    /// Replay cached event traces instead of simulating, when present.
    pub replay: bool,
    /// Trace-cache directory (`--trace-dir`; default
    /// [`DEFAULT_TRACE_DIR`]).
    pub trace_dir: String,
    /// Raw `--techniques` id list, if given. The runner crate stays
    /// dependency-free, so validation against the technique registry
    /// happens in the binaries (which exit 2 listing the valid ids).
    pub techniques: Option<String>,
    /// Collect telemetry and write `results/<name>.metrics.json`.
    pub metrics: bool,
    /// `--metrics-out PATH`: write the full metrics snapshot to an
    /// explicit path (implies metrics collection).
    pub metrics_out: Option<String>,
    /// `--trace-out PATH`: write a Chrome trace-event / Perfetto
    /// timeline of the run (one lane per pool worker, jobs as top-level
    /// slices with session spans nested inside). The timeline is
    /// **wall-clock** — it never participates in byte-compared `data`
    /// sections or stdout, which stay identical with or without it.
    pub trace_out: Option<String>,
    /// Print the span-profile table (top spans by total time) to stderr
    /// after the run (implies telemetry collection).
    pub profile: bool,
    /// Suppress stderr diagnostics (equivalent to `GDP_LOG=quiet`).
    pub quiet: bool,
}

impl RunnerArgs {
    /// Effective worker count: `--jobs N` or the machine's parallelism.
    pub fn jobs(&self) -> usize {
        self.jobs.unwrap_or_else(default_parallelism).max(1)
    }

    /// A [`Pool`] sized by [`RunnerArgs::jobs`].
    pub fn pool(&self) -> Pool {
        Pool::new(self.jobs())
    }

    /// Whether any flag requested telemetry collection (`--metrics`,
    /// `--metrics-out`, `--trace-out`, or `--profile`). `--trace-out`
    /// needs the registry because span slices are recorded through it.
    pub fn wants_telemetry(&self) -> bool {
        self.metrics || self.metrics_out.is_some() || self.trace_out.is_some() || self.profile
    }
}

/// A rejected command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` / `-h`: not an error, but parsing stops.
    Help,
    /// An argument no campaign binary understands.
    Unknown(String),
    /// `--jobs` without a value, or with a non-numeric / zero value.
    BadJobs(String),
    /// `--trace-dir` without a value.
    MissingTraceDir,
    /// `--techniques` without a value.
    MissingTechniques,
    /// `--metrics-out` without a value.
    MissingMetricsOut,
    /// `--trace-out` without a value.
    MissingTraceOut,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Help => f.write_str("help requested"),
            CliError::Unknown(a) => write!(f, "unrecognized argument `{a}`"),
            CliError::BadJobs(v) => write!(f, "--jobs expects a positive integer, got `{v}`"),
            CliError::MissingTraceDir => f.write_str("--trace-dir expects a directory path"),
            CliError::MissingTechniques => {
                f.write_str("--techniques expects a comma-separated id list")
            }
            CliError::MissingMetricsOut => f.write_str("--metrics-out expects a file path"),
            CliError::MissingTraceOut => f.write_str("--trace-out expects a file path"),
        }
    }
}

/// Usage text for `bin`.
pub fn usage(bin: &str) -> String {
    format!(
        "usage: {bin} [--tiny|--quick|--full] [--jobs N] [--json]\n\
         \x20            [--list] [--record] [--replay]\n\
         \x20            [--trace-dir DIR] [--techniques a,b,c]\n\
         \x20            [--metrics] [--metrics-out PATH] [--trace-out PATH]\n\
         \x20            [--profile] [--quiet]\n\
         \n\
         \x20 --tiny          smallest meaningful sweep (CI smoke; minutes)\n\
         \x20 --quick         reduced workload counts (default)\n\
         \x20 --full          the paper's 30/15/5 workloads per class (hours)\n\
         \x20 --jobs N        run N campaign jobs in parallel (default: all cores);\n\
         \x20                 results are identical for every N\n\
         \x20 --json          also write machine-readable results/{bin}.json\n\
         \x20 --list          print the flattened job plan (one label per job,\n\
         \x20                 the cache-key/debugging view) and exit 0\n\
         \x20 --record        store event traces in the cache after simulating\n\
         \x20 --replay        replay cached event traces instead of simulating;\n\
         \x20                 output is byte-identical to the live run\n\
         \x20 --trace-dir DIR trace cache location (default {DEFAULT_TRACE_DIR})\n\
         \x20 --techniques L  comma-separated technique ids to evaluate\n\
         \x20                 (registry-validated; unknown ids exit 2 and\n\
         \x20                 list the valid ids)\n\
         \x20 --metrics       collect telemetry; write the full snapshot to\n\
         \x20                 results/{bin}.metrics.json and a `telemetry`\n\
         \x20                 object into the run record (never the data\n\
         \x20                 sections: output stays byte-identical)\n\
         \x20 --metrics-out P write the full metrics snapshot to P instead\n\
         \x20                 (implies --metrics)\n\
         \x20 --trace-out P   write a Chrome trace-event / Perfetto timeline\n\
         \x20                 to P (load it in ui.perfetto.dev): one lane per\n\
         \x20                 pool worker, jobs as top-level slices, session\n\
         \x20                 spans nested inside. Wall-clock only; the data\n\
         \x20                 sections stay byte-identical\n\
         \x20 --profile       print the span-profile table (top spans by\n\
         \x20                 total time) to stderr after the run\n\
         \x20 --quiet         suppress stderr diagnostics (GDP_LOG=quiet)\n\
         \x20 --help          this text"
    )
}

/// Parse an argument list (without the program name).
pub fn parse<I>(args: I) -> Result<RunnerArgs, CliError>
where
    I: IntoIterator<Item = String>,
{
    let mut out = RunnerArgs {
        scale: ScaleFlag::default(),
        jobs: None,
        json: false,
        list: false,
        record: false,
        replay: false,
        trace_dir: DEFAULT_TRACE_DIR.to_string(),
        techniques: None,
        metrics: false,
        metrics_out: None,
        trace_out: None,
        profile: false,
        quiet: false,
    };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tiny" => out.scale = ScaleFlag::Tiny,
            "--quick" => out.scale = ScaleFlag::Quick,
            "--full" => out.scale = ScaleFlag::Full,
            "--json" => out.json = true,
            "--list" => out.list = true,
            "--record" => out.record = true,
            "--replay" => out.replay = true,
            "--metrics" => out.metrics = true,
            "--profile" => out.profile = true,
            "--quiet" => out.quiet = true,
            "--metrics-out" => {
                let v = it.next().filter(|v| !v.starts_with("--") && !v.is_empty());
                out.metrics_out = Some(v.ok_or(CliError::MissingMetricsOut)?);
            }
            "--trace-out" => {
                let v = it.next().filter(|v| !v.starts_with("--") && !v.is_empty());
                out.trace_out = Some(v.ok_or(CliError::MissingTraceOut)?);
            }
            "--help" | "-h" => return Err(CliError::Help),
            "--jobs" => {
                let v = it.next().ok_or_else(|| CliError::BadJobs("<missing>".into()))?;
                out.jobs = Some(parse_jobs(&v)?);
            }
            "--trace-dir" => {
                // A following flag is not a directory: reject rather
                // than silently recording into a directory named
                // `--replay`.
                let v = it.next().filter(|v| !v.starts_with("--"));
                out.trace_dir = v.ok_or(CliError::MissingTraceDir)?;
            }
            "--techniques" => {
                let v = it.next().filter(|v| !v.starts_with("--") && !v.is_empty());
                out.techniques = Some(v.ok_or(CliError::MissingTechniques)?);
            }
            s => {
                if let Some(v) = s.strip_prefix("--jobs=") {
                    out.jobs = Some(parse_jobs(v)?);
                } else if let Some(v) = s.strip_prefix("--trace-dir=") {
                    if v.is_empty() {
                        return Err(CliError::MissingTraceDir);
                    }
                    out.trace_dir = v.to_string();
                } else if let Some(v) = s.strip_prefix("--techniques=") {
                    if v.is_empty() {
                        return Err(CliError::MissingTechniques);
                    }
                    out.techniques = Some(v.to_string());
                } else if let Some(v) = s.strip_prefix("--metrics-out=") {
                    if v.is_empty() {
                        return Err(CliError::MissingMetricsOut);
                    }
                    out.metrics_out = Some(v.to_string());
                } else if let Some(v) = s.strip_prefix("--trace-out=") {
                    if v.is_empty() {
                        return Err(CliError::MissingTraceOut);
                    }
                    out.trace_out = Some(v.to_string());
                } else {
                    return Err(CliError::Unknown(a));
                }
            }
        }
    }
    Ok(out)
}

fn parse_jobs(v: &str) -> Result<usize, CliError> {
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(CliError::BadJobs(v.into())),
    }
}

/// Parse [`std::env::args`] for `bin`; on `--help` print usage and exit 0,
/// on a bad command line print the error and usage to stderr and exit 2.
pub fn parse_or_exit(bin: &str) -> RunnerArgs {
    match parse(std::env::args().skip(1)) {
        Ok(args) => {
            if args.quiet {
                gdp_telemetry::log::set_level(gdp_telemetry::log::Level::Quiet);
            }
            args
        }
        Err(CliError::Help) => {
            println!("{}", usage(bin));
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("{bin}: {e}\n{}", usage(bin));
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<RunnerArgs, CliError> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_quick_all_cores_no_json() {
        let a = p(&[]).unwrap();
        assert_eq!(a.scale, ScaleFlag::Quick);
        assert_eq!(a.jobs, None);
        assert!(a.jobs() >= 1);
        assert!(!a.json);
    }

    #[test]
    fn scale_flags_select_scales() {
        assert_eq!(p(&["--tiny"]).unwrap().scale, ScaleFlag::Tiny);
        assert_eq!(p(&["--full"]).unwrap().scale, ScaleFlag::Full);
        // Last flag wins, as with the legacy parser's precedence quirks
        // resolved: the command line reads left to right.
        assert_eq!(p(&["--full", "--tiny"]).unwrap().scale, ScaleFlag::Tiny);
    }

    #[test]
    fn jobs_accepts_separate_and_equals_forms() {
        assert_eq!(p(&["--jobs", "4"]).unwrap().jobs, Some(4));
        assert_eq!(p(&["--jobs=8"]).unwrap().jobs, Some(8));
        assert_eq!(p(&["--jobs", "4"]).unwrap().pool().workers(), 4);
    }

    #[test]
    fn bad_jobs_values_are_rejected() {
        assert!(matches!(p(&["--jobs"]), Err(CliError::BadJobs(_))));
        assert!(matches!(p(&["--jobs", "zero"]), Err(CliError::BadJobs(_))));
        assert!(matches!(p(&["--jobs", "0"]), Err(CliError::BadJobs(_))));
        assert!(matches!(p(&["--jobs=-2"]), Err(CliError::BadJobs(_))));
    }

    #[test]
    fn unknown_flags_are_errors_not_ignored() {
        // The legacy `Scale::from_args` silently ran the default sweep on
        // typos like `--fulll`; that is exactly the bug this parser fixes.
        assert_eq!(p(&["--fulll"]), Err(CliError::Unknown("--fulll".into())));
        assert_eq!(p(&["extra"]), Err(CliError::Unknown("extra".into())));
        // Replay has no fan-out flag: a command line that still passes one
        // must fail loudly instead of running.
        assert_eq!(p(&["--replay-jobs", "4"]), Err(CliError::Unknown("--replay-jobs".into())));
    }

    #[test]
    fn help_is_reported_and_usage_mentions_every_flag() {
        assert_eq!(p(&["-h"]), Err(CliError::Help));
        assert_eq!(p(&["--help"]), Err(CliError::Help));
        let u = usage("fig3");
        for flag in [
            "--tiny",
            "--quick",
            "--full",
            "--jobs",
            "--json",
            "--list",
            "--record",
            "--replay",
            "--trace-dir",
            "--techniques",
        ] {
            assert!(u.contains(flag), "usage must mention {flag}");
        }
    }

    #[test]
    fn json_flag_parses() {
        let a = p(&["--tiny", "--json", "--jobs", "2"]).unwrap();
        assert!(a.json);
        assert_eq!(a.scale.name(), "tiny");
        assert_eq!(a.jobs(), 2);
    }

    #[test]
    fn trace_flags_default_off() {
        let a = p(&[]).unwrap();
        assert!(!a.list && !a.record && !a.replay);
        assert_eq!(a.trace_dir, DEFAULT_TRACE_DIR);
    }

    #[test]
    fn trace_flags_parse() {
        let a = p(&["--record", "--replay", "--list"]).unwrap();
        assert!(a.list && a.record && a.replay);
        assert_eq!(p(&["--trace-dir", "/tmp/t"]).unwrap().trace_dir, "/tmp/t");
        assert_eq!(p(&["--trace-dir=/tmp/u"]).unwrap().trace_dir, "/tmp/u");
    }

    #[test]
    fn techniques_flag_parses_and_requires_a_value() {
        assert_eq!(p(&[]).unwrap().techniques, None);
        assert_eq!(p(&["--techniques", "gdp,itca"]).unwrap().techniques, Some("gdp,itca".into()));
        assert_eq!(p(&["--techniques=gdp-o"]).unwrap().techniques, Some("gdp-o".into()));
        assert_eq!(p(&["--techniques"]), Err(CliError::MissingTechniques));
        assert_eq!(p(&["--techniques="]), Err(CliError::MissingTechniques));
        // A following flag must not be swallowed as the id list.
        assert_eq!(p(&["--techniques", "--json"]), Err(CliError::MissingTechniques));
    }

    #[test]
    fn metrics_flags_parse() {
        let a = p(&[]).unwrap();
        assert!(!a.metrics && !a.profile && !a.quiet && a.metrics_out.is_none());
        assert!(!a.wants_telemetry());
        let a = p(&["--metrics"]).unwrap();
        assert!(a.metrics && a.wants_telemetry());
        let a = p(&["--profile", "--quiet"]).unwrap();
        assert!(a.profile && a.quiet && a.wants_telemetry());
        assert_eq!(p(&["--metrics-out", "m.json"]).unwrap().metrics_out, Some("m.json".into()));
        assert_eq!(p(&["--metrics-out=n.json"]).unwrap().metrics_out, Some("n.json".into()));
        assert!(p(&["--metrics-out", "x"]).unwrap().wants_telemetry());
    }

    #[test]
    fn metrics_out_requires_a_value() {
        assert_eq!(p(&["--metrics-out"]), Err(CliError::MissingMetricsOut));
        assert_eq!(p(&["--metrics-out="]), Err(CliError::MissingMetricsOut));
        // A following flag must not be swallowed as the path.
        assert_eq!(p(&["--metrics-out", "--json"]), Err(CliError::MissingMetricsOut));
    }

    #[test]
    fn trace_out_parses_and_implies_telemetry() {
        assert_eq!(p(&[]).unwrap().trace_out, None);
        let a = p(&["--trace-out", "results/t.json"]).unwrap();
        assert_eq!(a.trace_out, Some("results/t.json".into()));
        assert!(a.wants_telemetry(), "span slices flow through the registry");
        assert_eq!(p(&["--trace-out=u.json"]).unwrap().trace_out, Some("u.json".into()));
        assert!(!p(&["--trace-out=u.json"]).unwrap().metrics);
    }

    #[test]
    fn trace_out_requires_a_value() {
        assert_eq!(p(&["--trace-out"]), Err(CliError::MissingTraceOut));
        assert_eq!(p(&["--trace-out="]), Err(CliError::MissingTraceOut));
        // A following flag must not be swallowed as the path.
        assert_eq!(p(&["--trace-out", "--json"]), Err(CliError::MissingTraceOut));
    }

    #[test]
    fn usage_mentions_metrics_flags() {
        let u = usage("fig3");
        for flag in ["--metrics", "--metrics-out", "--trace-out", "--profile", "--quiet"] {
            assert!(u.contains(flag), "usage must mention {flag}");
        }
    }

    #[test]
    fn trace_dir_requires_a_value() {
        assert_eq!(p(&["--trace-dir"]), Err(CliError::MissingTraceDir));
        assert_eq!(p(&["--trace-dir="]), Err(CliError::MissingTraceDir));
        // A following flag must not be swallowed as the directory.
        assert_eq!(p(&["--trace-dir", "--replay"]), Err(CliError::MissingTraceDir));
    }
}
