//! Machine-readable campaign results.
//!
//! Every figure binary can write `results/<figure>.json` next to its
//! stdout tables. The document layout separates what is deterministic
//! from what is not:
//!
//! ```json
//! {
//!   "figure": "fig3",          // deterministic
//!   "scale": "tiny",           // deterministic
//!   "seed": 2018,              // deterministic
//!   "data": { ... },           // deterministic — byte-identical for any --jobs N
//!   "run": {                   // execution record, varies run to run
//!     "jobs": 4,
//!     "job_count": 45,
//!     "wall_clock_secs": 12.8
//!   }
//! }
//! ```
//!
//! Consumers tracking accuracy/performance trajectories diff `data` and
//! read `run` for wall-clock; the determinism suite asserts that `data`
//! is identical between serial and parallel executions.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use gdp_metrics::Summary;

use crate::json::Json;

/// Directory results are written to (gitignored).
pub const RESULTS_DIR: &str = "results";

/// Trace-cache counters attached to a campaign's run record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Cache loads that found a usable trace.
    pub hits: u64,
    /// Cache loads that found nothing usable.
    pub misses: u64,
    /// Traces written.
    pub stores: u64,
    /// Corrupt cache files quarantined (removed) on load.
    pub quarantines: u64,
}

/// An in-flight campaign: identity plus a wall-clock timer.
#[derive(Debug)]
pub struct Campaign {
    figure: String,
    scale: String,
    seed: u64,
    jobs: usize,
    started: Instant,
    cache: Option<CacheCounters>,
    telemetry: Option<Json>,
}

impl Campaign {
    /// Start the clock for `figure` at `scale` with `jobs` workers.
    pub fn new(figure: &str, scale: &str, seed: u64, jobs: usize) -> Campaign {
        Campaign {
            figure: figure.to_string(),
            scale: scale.to_string(),
            seed,
            jobs,
            started: Instant::now(),
            cache: None,
            telemetry: None,
        }
    }

    /// Elapsed wall-clock since the campaign started.
    pub fn elapsed(&self) -> std::time::Duration {
        self.started.elapsed()
    }

    /// Attach trace-cache counters; the run record then carries a
    /// `cache` object (campaigns without a trace cache omit it).
    pub fn set_cache(&mut self, counters: CacheCounters) {
        self.cache = Some(counters);
    }

    /// Attach a telemetry snapshot; the run record then carries a
    /// `telemetry` object. Lives in `run`, **not** `data`: metrics
    /// include wall-clock measurements and must stay outside the
    /// byte-diffed sections.
    pub fn set_telemetry(&mut self, snapshot: Json) {
        self.telemetry = Some(snapshot);
    }

    /// Assemble the result document around deterministic `data`.
    pub fn document(&self, job_count: usize, data: Json) -> Json {
        let mut run = vec![
            ("jobs", Json::from(self.jobs)),
            ("job_count", Json::from(job_count)),
            ("wall_clock_secs", Json::from(self.started.elapsed().as_secs_f64())),
        ];
        if let Some(c) = self.cache {
            run.push((
                "cache",
                Json::obj(vec![
                    ("hits", Json::from(c.hits)),
                    ("misses", Json::from(c.misses)),
                    ("stores", Json::from(c.stores)),
                    ("quarantines", Json::from(c.quarantines)),
                ]),
            ));
        }
        if let Some(t) = &self.telemetry {
            run.push(("telemetry", t.clone()));
        }
        Json::obj(vec![
            ("figure", Json::from(self.figure.as_str())),
            ("scale", Json::from(self.scale.as_str())),
            ("seed", Json::from(self.seed)),
            ("data", data),
            ("run", Json::obj(run)),
        ])
    }

    /// Write the document to `results/<figure>.json`; returns the path.
    pub fn write(&self, job_count: usize, data: Json) -> io::Result<PathBuf> {
        write_results_in(Path::new(RESULTS_DIR), &self.figure, &self.document(job_count, data))
    }
}

/// Write `doc` to `<dir>/<figure>.json`, creating `dir` if needed.
pub fn write_results_in(dir: &Path, figure: &str, doc: &Json) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{figure}.json"));
    std::fs::write(&path, doc.to_pretty() + "\n")?;
    Ok(path)
}

/// A five-number [`Summary`] as an ordered JSON object.
pub fn summary_json(s: &Summary) -> Json {
    let mut pairs: Vec<(String, Json)> =
        s.as_pairs().into_iter().map(|(k, v)| (k.to_string(), Json::from(v))).collect();
    pairs.push(("n".to_string(), Json::from(s.n)));
    Json::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_layout_separates_data_from_run() {
        let c = Campaign::new("figX", "tiny", 2018, 4);
        let doc = c.document(9, Json::obj(vec![("cells", Json::Arr(vec![]))]));
        assert_eq!(doc.get("figure").unwrap().as_str(), Some("figX"));
        assert_eq!(doc.get("scale").unwrap().as_str(), Some("tiny"));
        assert_eq!(doc.get("seed").unwrap().as_f64(), Some(2018.0));
        assert!(doc.get("data").unwrap().get("cells").is_some());
        let run = doc.get("run").unwrap();
        assert_eq!(run.get("jobs").unwrap().as_f64(), Some(4.0));
        assert_eq!(run.get("job_count").unwrap().as_f64(), Some(9.0));
        assert!(run.get("wall_clock_secs").unwrap().as_f64().unwrap() >= 0.0);
        assert!(run.get("cache").is_none(), "no cache object without a trace cache");
    }

    #[test]
    fn cache_counters_appear_in_the_run_record() {
        let mut c = Campaign::new("figX", "tiny", 2018, 1);
        c.set_cache(CacheCounters { hits: 5, misses: 2, stores: 3, quarantines: 1 });
        let doc = c.document(7, Json::Null);
        let cache = doc.get("run").unwrap().get("cache").expect("cache object");
        assert_eq!(cache.get("hits").unwrap().as_f64(), Some(5.0));
        assert_eq!(cache.get("misses").unwrap().as_f64(), Some(2.0));
        assert_eq!(cache.get("stores").unwrap().as_f64(), Some(3.0));
        assert_eq!(cache.get("quarantines").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn telemetry_lands_in_run_not_data() {
        let mut c = Campaign::new("figX", "tiny", 2018, 1);
        c.set_telemetry(Json::obj(vec![("counters", Json::obj(vec![("a", Json::from(1u64))]))]));
        let doc = c.document(1, Json::obj(vec![("cells", Json::Arr(vec![]))]));
        assert!(doc.get("run").unwrap().get("telemetry").is_some());
        assert!(doc.get("data").unwrap().get("telemetry").is_none());
    }

    #[test]
    fn writes_parseable_files() {
        let dir = std::env::temp_dir().join("gdp-runner-report-test");
        let doc = Campaign::new("t", "tiny", 1, 1).document(0, Json::Null);
        let path = write_results_in(&dir, "t", &doc).expect("writes");
        let text = std::fs::read_to_string(&path).expect("readable");
        assert!(Json::parse(&text).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn summary_serializes_all_five_numbers() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        let j = summary_json(&s);
        assert_eq!(j.get("min").unwrap().as_f64(), Some(1.0));
        assert_eq!(j.get("median").unwrap().as_f64(), Some(2.0));
        assert_eq!(j.get("max").unwrap().as_f64(), Some(3.0));
        assert_eq!(j.get("n").unwrap().as_f64(), Some(3.0));
    }
}
