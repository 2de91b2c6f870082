//! What one workload run reports, and the two ways it is printed: a
//! human-readable table (every metric with its unit and sample count)
//! and the one-line JSON result, the last line of standard output,
//! that harnesses read.

use std::collections::BTreeMap;

/// The end-to-end metrics every workload reports, as `(name, unit)` —
/// the `end_to_end` list of `BENCHMARK.json`, in the same order.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("events_per_s", "events/s"), ("op_p50_ms", "ms"), ("peak_heap_mb", "MB")];

/// The per-layer metrics every workload reports under `--trace 1`, as
/// `(name, unit)` — the `per_layer` list of `BENCHMARK.json`. A layer
/// that does no work on a workload reports 0 there.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("sim.shared_ns_per_cycle", "ns"),
    ("sim.private_ns_per_cycle", "ns"),
    ("sim.skip_frac", "fraction"),
    ("sim.cycles", "count"),
    ("dief.ns_per_event", "ns"),
    ("core.gdp_ns_per_event", "ns"),
    ("core.gdpo_ns_per_event", "ns"),
    ("core.estimate_us_per_interval", "us"),
    ("accounting.itca_ns_per_event", "ns"),
    ("accounting.ptca_ns_per_event", "ns"),
    ("accounting.asm_ns_per_event", "ns"),
    ("experiments.replay_ns_per_event", "ns"),
    ("experiments.session_build_us", "us"),
    ("experiments.summarize_s", "s"),
    ("experiments.score_ms", "ms"),
    ("experiments.shared_job_p50_s", "s"),
    ("experiments.shared_job_tail_s", "s"),
    ("experiments.private_job_p50_s", "s"),
    ("experiments.private_job_tail_s", "s"),
    ("experiments.gdp_ipc_err_2c_pct", "%"),
    ("experiments.gdp_ipc_err_4c_pct", "%"),
    ("trace.decode_ns_per_event", "ns"),
    ("trace.encode_ns_per_event", "ns"),
    ("trace.store_ms_p50", "ms"),
    ("trace.bytes_per_event", "B"),
    ("trace.frame_decode_ns_per_event", "ns"),
    ("trace.events", "count"),
    ("trace.cache_hits", "count"),
    ("trace.cache_misses", "count"),
    ("trace.cache_stores", "count"),
    ("runner.busy_frac", "fraction"),
    ("runner.steals", "count"),
    ("runner.jobs", "count"),
    ("serve.admit_p50_us", "us"),
    ("serve.first_row_p50_us", "us"),
    ("serve.first_row_tail_us", "us"),
    ("serve.interval_rtt_p50_us", "us"),
    ("serve.interval_rtt_tail_us", "us"),
    ("serve.resume_p50_us", "us"),
    ("serve.resume_tail_us", "us"),
    ("serve.resume_retries", "count"),
    ("serve.embedded_events_per_s", "events/s"),
    ("serve.shard_busy_frac", "fraction"),
    ("serve.tenants", "count"),
    ("serve.events", "count"),
    ("serve.intervals", "count"),
    ("serve.suspends", "count"),
    ("serve.resume", "count"),
    ("serve.shed", "count"),
    ("telemetry.overhead_pct", "%"),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Value in `unit`.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
    /// Samples behind a timing (0 for counts and ratios of totals).
    pub samples: usize,
    /// Which percentile a tail was taken at (printed beside it).
    pub percentile: Option<f64>,
}

/// Metrics by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, Metric>);

impl Metrics {
    /// Record a value with no sample count (a count, or a ratio of
    /// totals).
    pub fn set(&mut self, name: &str, unit: &'static str, value: f64) {
        self.put(name, Metric { value, unit, samples: 0, percentile: None });
    }

    /// Record a statistic over `samples` samples.
    pub fn sampled(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.put(name, Metric { value, unit, samples, percentile: None });
    }

    /// Record a tail statistic taken at `percentile`.
    pub fn tail(&mut self, name: &str, unit: &'static str, (value, p): (f64, f64), samples: usize) {
        self.put(name, Metric { value, unit, samples, percentile: Some(p) });
    }

    fn put(&mut self, name: &str, m: Metric) {
        // A NaN or infinity would corrupt the JSON line; a ratio over no
        // work is reported as 0.
        let m = Metric { value: if m.value.is_finite() { m.value } else { 0.0 }, ..m };
        self.0.insert(name.to_string(), m);
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.get(name)
    }

    /// Fold `other` in (later values win).
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations that failed (wrong output, error, shed).
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Every metric measured.
    pub metrics: Metrics,
}

impl Outcome {
    /// Record one checked operation; `err` describes a failure.
    pub fn check(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(e);
            }
        }
    }

    /// Whether every checked output was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// The `(name, unit)` list a run reports: per-layer under `--trace 1`,
/// end-to-end otherwise.
pub fn reported(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Human-readable lines: every metric measured, with unit, sample count
/// and tail percentile, plus the failure count over attempts.
pub fn render(workload: &str, out: &Outcome) -> String {
    let mut s = format!("[{workload}]\n");
    for (name, m) in &out.metrics.0 {
        let mut line = format!("  {name:<36} {:>16} {:<9}", readable(m.value), m.unit);
        if m.samples > 0 {
            line += &format!(" n={}", m.samples);
        }
        if let Some(p) = m.percentile {
            line += &format!(" at p{p}");
        }
        s += line.trim_end();
        s.push('\n');
    }
    let frac = if out.attempted == 0 { 0.0 } else { out.failed as f64 / out.attempted as f64 };
    s += &format!(
        "  {:<36} {:>16} fraction  ({} of {} failed)\n",
        "failed_frac",
        readable(frac),
        out.failed,
        out.attempted
    );
    for f in &out.failures {
        s += &format!("  FAILED: {f}\n");
    }
    s
}

/// A value with four decimals, or four significant digits when it is
/// too small for that (set-up times of microseconds).
fn readable(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

/// The one-line JSON result: `correct`, `attempted`,
/// `failed`, and the `names` metrics (0 for any this workload did not
/// measure).
pub fn json_line(out: &Outcome, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = out.metrics.get(name).map_or(0.0, |m| m.value);
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(v))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// A finite number in JSON syntax, with every digit Rust's shortest
/// round-trip formatting gives.
fn json_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut out = Outcome::default();
        out.check(None);
        out.metrics.sampled("setup_s", "s", 0.8127, 3);
        out.metrics.set("events_per_s", "events/s", 1e6);
        let line = json_line(&out, &END_TO_END);
        let j = gdp_runner::Json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = match &j {
            gdp_runner::Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = j.get("metrics").unwrap();
        assert_eq!(m.get("setup_s").unwrap().get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(m.get("setup_s").unwrap().get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(m.get("events_per_s").unwrap().get("value").unwrap().as_f64(), Some(1e6));
        for (name, _) in END_TO_END {
            assert!(m.get(name).is_some(), "{name} missing");
        }
        assert!(line.starts_with("{\"correct\": true"));
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut out = Outcome::default();
        assert!(!out.correct(), "nothing attempted is not a pass");
        out.check(None);
        out.check(Some("tenant 3: shed".into()));
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert!(!out.correct());
        assert!(render("w", &out).contains("FAILED: tenant 3: shed"));
    }

    #[test]
    fn non_finite_values_report_zero() {
        let mut m = Metrics::default();
        m.set("x", "ns", f64::NAN);
        m.set("y", "ns", f64::INFINITY);
        assert_eq!(m.get("y").unwrap().value, 0.0);
        assert_eq!(m.get("x").unwrap().value, 0.0);
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(0.25), "0.25");
    }

    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let j = gdp_runner::Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            j.get(key)
                .and_then(|a| a.as_arr())
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }
}
