//! Record-then-replay bit-equality at the campaign level: a fig3
//! `--tiny` cell evaluated from cached traces must serialize to exactly
//! the bytes the live (recording) run produced, for all four transparent
//! techniques, and the warm run must be a pure cache hit.

use gdp_bench::{
    accuracy_sweep_traced, aggregate, cell_accuracy_json, sweep_job_count, Scale, SweepCell,
};
use gdp_experiments::{CampaignTraces, Technique};
use gdp_runner::{Json, Pool, Progress};
use gdp_workloads::LlcClass;

/// Serialize one cell's aggregated accuracy exactly as fig3/fig5 write
/// their `data` sections.
fn data_bytes(sweep: &[Vec<gdp_experiments::WorkloadAccuracy>], cell: &SweepCell) -> String {
    let agg = aggregate(&sweep[0]);
    Json::obj(vec![("cells", Json::Arr(vec![cell_accuracy_json(&cell.label(), &agg)]))]).to_pretty()
}

#[test]
fn fig3_tiny_cell_replays_bit_identically_for_all_transparent_techniques() {
    let dir = std::env::temp_dir().join(format!("gdp-bench-trace-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cells = [SweepCell { cores: 2, class: LlcClass::H }];
    let transparent = [Technique::ITCA, Technique::PTCA, Technique::GDP, Technique::GDP_O];
    let pool = Pool::new(2);
    let jobs = sweep_job_count(&cells, Scale::Tiny, &transparent);

    // Cold run: simulate and record.
    let rec = CampaignTraces::new(&dir, true, false);
    let cold = accuracy_sweep_traced(
        &cells,
        Scale::Tiny,
        &transparent,
        &pool,
        &Progress::silent(jobs),
        &rec,
    );
    assert!(rec.stats().stores > 0, "cold run must store traces");

    // Warm run: replay everything from the cache.
    let rep = CampaignTraces::new(&dir, false, true);
    let warm = accuracy_sweep_traced(
        &cells,
        Scale::Tiny,
        &transparent,
        &pool,
        &Progress::silent(jobs),
        &rep,
    );
    let s = rep.stats();
    assert_eq!(s.misses, 0, "warm cache must not miss");
    assert_eq!(s.hits as usize, jobs, "every job must be served from the cache");

    // Untraced reference run: the cache must be invisible in the output.
    let live = accuracy_sweep_traced(
        &cells,
        Scale::Tiny,
        &transparent,
        &pool,
        &Progress::silent(jobs),
        &CampaignTraces::no_cache(),
    );

    let cold_bytes = data_bytes(&cold, &cells[0]);
    assert_eq!(cold_bytes, data_bytes(&warm, &cells[0]), "record vs replay data section");
    assert_eq!(cold_bytes, data_bytes(&live, &cells[0]), "traced vs untraced data section");

    // Technique-level: every transparent technique produced estimates
    // whose scored errors agree to the bit.
    for (cb, wb) in cold[0].iter().zip(&warm[0]) {
        for (a, b) in cb.benches.iter().zip(&wb.benches) {
            for t in [Technique::ITCA, Technique::PTCA, Technique::GDP, Technique::GDP_O] {
                let i = cold[0][0].tech_index(t).unwrap();
                assert!(!a.ipc_err[i].is_empty(), "{t} must produce errors");
                assert_eq!(
                    a.ipc_err[i].rms_abs().to_bits(),
                    b.ipc_err[i].rms_abs().to_bits(),
                    "{t} IPC errors must replay bit-identically"
                );
                assert_eq!(
                    a.stall_err[i].rms_abs().to_bits(),
                    b.stall_err[i].rms_abs().to_bits(),
                    "{t} stall errors must replay bit-identically"
                );
            }
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}
