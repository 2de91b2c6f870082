//! Workload inputs from the seed.
//!
//! The seed changes what runs, never how much: the campaign keeps
//! fig3's own workloads and the seed decides which core each benchmark
//! runs on; the serve tenants cover the whole suite and the seed
//! decides which benchmarks share a CMP. Drawing benchmarks afresh per
//! seed instead (as `generate_workloads` does) changes a tiny sweep's
//! simulated work several-fold between seeds, which no regression bound
//! could absorb.

use gdp_bench::{class_workloads, Scale, SweepCell};
use gdp_experiments::{ExperimentConfig, SessionBuilder, Technique};
use gdp_trace::{Recorder, SharedTrace};
use gdp_workloads::{suite, Benchmark, LlcClass, Workload};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The campaign's cells: fig3's 2-core row and its 4-core M and L
/// cells. The 4-core H cell and the 8-core row each cost several times
/// more, and would leave a run one sweep to take its median over.
const CAMPAIGN_CELLS: [(usize, LlcClass); 5] =
    [(2, LlcClass::H), (2, LlcClass::M), (2, LlcClass::L), (4, LlcClass::M), (4, LlcClass::L)];

/// Intervals each serve tenant streams: the prefix every 2-core tiny
/// trace of the suite reaches (the shortest runs end after 5-6).
const SERVE_INTERVALS: u64 = 8;

/// `items` in an order drawn from `seed` and `salt`.
fn shuffle<T>(items: &mut [T], seed: u64, salt: u64) {
    items.shuffle(&mut StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
}

/// The campaign sweep's cells with fig3's tiny workloads, each
/// workload's benchmarks placed on the cores in an order drawn from
/// `seed`.
pub fn campaign_cells(seed: u64) -> Vec<(SweepCell, Vec<Workload>)> {
    let mut salt = 0;
    CAMPAIGN_CELLS
        .iter()
        .map(|&(cores, class)| {
            let mut workloads = class_workloads(cores, class, Scale::Tiny);
            for w in &mut workloads {
                salt += 1;
                shuffle(&mut w.benchmarks, seed, salt);
            }
            (SweepCell { cores, class }, workloads)
        })
        .collect()
}

/// The serve workloads: every benchmark of the suite once, paired into
/// 2-core workloads by the seed.
pub fn serve_workloads(seed: u64) -> Vec<Workload> {
    let mut benchmarks: Vec<Benchmark> = suite();
    shuffle(&mut benchmarks, seed, 0);
    benchmarks
        .chunks_exact(2)
        .enumerate()
        .map(|(i, b)| Workload {
            name: format!("2c-pair-{i:02}"),
            class: None,
            benchmarks: b.to_vec(),
        })
        .collect()
}

/// Record the first `SERVE_INTERVALS` intervals of `workload`'s shared
/// run (fewer if the run ends earlier) under `techniques`.
pub fn record_prefix(
    workload: &Workload,
    xcfg: &ExperimentConfig,
    techniques: &[Technique],
) -> SharedTrace {
    let mut rec = Recorder::new(xcfg.sim.cores, &workload.name);
    {
        let mut session =
            SessionBuilder::new(workload, xcfg).techniques(techniques).sink(&mut rec).build();
        session.advance_to(SERVE_INTERVALS * xcfg.interval_cycles);
    }
    rec.into_trace()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(ws: &[Workload]) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = ws.iter().flat_map(|w| w.names()).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn seeds_change_placement_not_membership() {
        let (a, b) = (campaign_cells(1), campaign_cells(2));
        for ((ca, wa), (cb, wb)) in a.iter().zip(&b) {
            assert_eq!(ca, cb);
            let fig3 = class_workloads(ca.cores, ca.class, Scale::Tiny);
            assert_eq!(wa.len(), fig3.len());
            for ((x, y), f) in wa.iter().zip(wb).zip(&fig3) {
                assert_eq!(x.name, f.name);
                assert_eq!(names(std::slice::from_ref(x)), names(std::slice::from_ref(f)));
                assert_eq!(names(std::slice::from_ref(y)), names(std::slice::from_ref(f)));
            }
        }
        let placements = |s: u64| -> Vec<Vec<&'static str>> {
            campaign_cells(s).iter().flat_map(|(_, ws)| ws.iter().map(|w| w.names())).collect()
        };
        assert_ne!(placements(1), placements(2), "the seed moves benchmarks between cores");
        assert_eq!(placements(5), placements(5), "deterministic");
        let all: Vec<&str> = {
            let mut v: Vec<&str> = suite().iter().map(|b| b.name).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(names(&serve_workloads(1)), all, "serve pairs cover the suite once");
        assert_ne!(serve_workloads(1)[0].names(), serve_workloads(2)[0].names());
        assert_eq!(serve_workloads(7)[3].names(), serve_workloads(7)[3].names(), "deterministic");
    }
}
