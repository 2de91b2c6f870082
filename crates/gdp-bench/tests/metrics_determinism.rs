//! Telemetry must observe, never perturb — the observability layer's
//! core guarantee, pinned at campaign granularity.
//!
//! Two properties, each checked for a serial (1-worker) and a parallel
//! (4-worker) pool:
//!
//! 1. **Data is untouched.** A fig3-style tiny sweep run with a metrics
//!    registry attached produces a `data` section byte-identical to the
//!    same sweep with telemetry off.
//! 2. **Counters are scheduling-independent.** The deterministic sink
//!    ([`Snapshot::counters_json`]) is byte-identical across pool sizes:
//!    counters only ever accumulate order-independent sums, so `--jobs N`
//!    must not leak into them. (Gauges, spans and histograms are
//!    *expected* to vary — they live outside the deterministic sink.)

use std::sync::Arc;

use gdp_bench::{
    accuracy_sweep_traced, aggregate, cell_accuracy_json, sweep_job_count, Scale, SweepCell,
};
use gdp_experiments::{CampaignTraces, Technique};
use gdp_runner::{Json, Pool, Progress};
use gdp_telemetry::MetricsRegistry;
use gdp_workloads::LlcClass;

/// One tiny 2-core cell: 8 jobs racing on up to 4 workers, small enough
/// for the debug-build test suite (mirrors `parallel_determinism.rs`).
fn tiny_sweep(workers: usize, metrics: Option<Arc<MetricsRegistry>>) -> String {
    let cells = [SweepCell { cores: 2, class: LlcClass::H }];
    let scale = Scale::Tiny;
    let progress = Progress::silent(sweep_job_count(&cells, scale, &Technique::ALL));
    let traces = match metrics {
        Some(reg) => CampaignTraces::no_cache().with_metrics(reg),
        None => CampaignTraces::no_cache(),
    };
    let sweep = accuracy_sweep_traced(
        &cells,
        scale,
        &Technique::ALL,
        &Pool::new(workers),
        &progress,
        &traces,
    );
    let data_cells: Vec<Json> = cells
        .iter()
        .zip(&sweep)
        .map(|(cell, results)| cell_accuracy_json(&cell.label(), &aggregate(results)))
        .collect();
    Json::obj(vec![("cells", Json::Arr(data_cells))]).to_pretty()
}

#[test]
fn metered_campaign_data_is_byte_identical_and_counters_are_jobs_invariant() {
    let plain_1 = tiny_sweep(1, None);

    let reg_1 = MetricsRegistry::shared();
    let metered_1 = tiny_sweep(1, Some(Arc::clone(&reg_1)));
    assert!(
        plain_1 == metered_1,
        "metrics perturbed the serial campaign\n--- off ---\n{plain_1}\n--- on ---\n{metered_1}"
    );

    let reg_4 = MetricsRegistry::shared();
    let metered_4 = tiny_sweep(4, Some(Arc::clone(&reg_4)));
    assert!(
        plain_1 == metered_4,
        "metrics perturbed the parallel campaign\n--- off ---\n{plain_1}\n--- on ---\n{metered_4}"
    );

    // The deterministic sink must not see pool size at all.
    let counters_1 = reg_1.snapshot().counters_json();
    let counters_4 = reg_4.snapshot().counters_json();
    assert!(
        counters_1 == counters_4,
        "counters varied with --jobs\n--- jobs 1 ---\n{counters_1}\n--- jobs 4 ---\n{counters_4}"
    );

    // And it must be real data, not an empty skeleton: the engine and
    // session both fed it.
    let doc = Json::parse(&counters_1).expect("counters sink is valid JSON");
    for key in ["engine.cycles", "session.events", "session.intervals", "session.events.gdp"] {
        let v = doc.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("missing {key}"));
        assert!(v > 0.0, "{key} must be non-zero, got {v}");
    }

    // The flight recorder's deterministic `timeseries` group obeys the
    // same contract: interval-indexed bins are order-free sums over
    // session-local indices, so the sink is byte-identical across pool
    // sizes.
    let ts_1 = reg_1.snapshot().timeseries_json();
    let ts_4 = reg_4.snapshot().timeseries_json();
    assert!(
        ts_1 == ts_4,
        "timeseries varied with --jobs\n--- jobs 1 ---\n{ts_1}\n--- jobs 4 ---\n{ts_4}"
    );
    for key in [
        "\"ts.session.events\"",
        "\"ts.session.intervals\"",
        "\"ts.engine.cycles\"",
        "\"ts.engine.cycles_skipped\"",
        "\"ts.llc.accesses\"",
        "\"ts.llc.misses\"",
    ] {
        assert!(ts_1.contains(key), "missing {key} in timeseries sink:\n{ts_1}");
    }
    // Wall-clock series exist but stay out of the deterministic sink.
    assert!(!ts_1.contains("tsw."), "wall series leaked into the deterministic sink:\n{ts_1}");
    let snap = reg_1.snapshot();
    assert!(
        snap.timeseries_wall.iter().any(|(k, _)| k.starts_with("tsw.session.estimate.")),
        "per-technique estimate time-series missing from the wall group"
    );
    // The series carry real samples, not empty rings.
    let (_, events) = snap
        .timeseries
        .iter()
        .find(|(k, _)| k == "ts.session.events")
        .expect("event series present");
    assert!(events.samples > 0 && events.bins.iter().sum::<u64>() > 0);
}
