//! Private-mode ground-truth runs.
//!
//! The benchmark runs alone on core 0 of the same CMP (every other core
//! idle — the paper's private mode). Cumulative statistics are recorded at
//! the *committed-instruction checkpoints* the shared run produced, so
//! shared-mode estimates and private-mode actuals cover the same
//! instructions (§VI). The run also feeds its probe stream through an
//! effectively unbounded [`GdpUnit`], harvesting the *actual private-mode
//! CPL* at every checkpoint (the Fig. 5a reference).

use gdp_core::GdpUnit;
use gdp_sim::System;
use gdp_telemetry::MetricsRegistry;
use gdp_trace::{PrivateTrace, TraceCheckpoint};
use gdp_workloads::Benchmark;

use crate::config::ExperimentConfig;
use crate::metrics::export_engine_counters;

/// Cumulative private-mode state at one instruction checkpoint: the
/// trace record itself, so a cached run is stored and loaded as is.
pub type PrivateCheckpoint = TraceCheckpoint;

/// A complete private-mode run: the benchmark, its address base, one
/// [`PrivateCheckpoint`] per requested checkpoint and the final
/// statistics — the trace record itself.
pub type PrivateRun = PrivateTrace;

/// Run `bench` alone with addresses offset by `base`, recording state at
/// each committed-instruction checkpoint (must be sorted ascending).
/// With a metrics registry, the finished simulator's `engine.*` counters
/// accumulate into it, so campaign-wide engine totals cover the private
/// ground-truth runs too; the run itself is bit-identical either way.
pub fn run_private(
    bench: &Benchmark,
    base: u64,
    xcfg: &ExperimentConfig,
    checkpoints: &[u64],
    metrics: Option<&MetricsRegistry>,
) -> PrivateRun {
    debug_assert!(checkpoints.windows(2).all(|w| w[0] <= w[1]), "checkpoints must be sorted");
    let mut sys = System::new(xcfg.sim.clone(), vec![bench.stream(base)]);
    // Unbounded PRB: the reference CPL computation (paper §VII-B compares
    // the runtime estimator against "the same algorithms running with
    // unlimited buffer space in the private mode").
    let mut reference = GdpUnit::new(usize::MAX >> 1);
    let cap = xcfg.cycle_cap();
    let mut out = Vec::with_capacity(checkpoints.len());

    for &target in checkpoints {
        while sys.committed(0) < target && sys.now() < cap {
            // Event-driven: long memory stalls (the bulk of a private run
            // on a memory-bound benchmark) are crossed in O(1). The
            // checkpoint cycle is unchanged — commits only happen on real
            // ticks, so the target is reached at the same cycle as under
            // the step-by-1 reference engine.
            sys.advance(cap);
        }
        sys.finalize();
        for ev in sys.drain_probes() {
            reference.observe(&ev);
        }
        let cpl = reference.take_cpl();
        out.push(PrivateCheckpoint {
            instrs: target,
            cycle: sys.now(),
            stats: *sys.core_stats(0),
            cpl,
        });
    }
    if let Some(reg) = metrics {
        export_engine_counters(reg, &sys.engine_counters());
    }
    PrivateRun { bench: bench.name.to_string(), base, checkpoints: out, total: *sys.core_stats(0) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_workloads::by_name;

    fn xcfg() -> ExperimentConfig {
        let mut x = ExperimentConfig::quick(2);
        x.sample_instrs = 10_000;
        x
    }

    #[test]
    fn checkpoints_record_monotone_state() {
        let b = by_name("art").unwrap();
        let run = run_private(&b, 0, &xcfg(), &[2_000, 4_000, 6_000], None);
        assert_eq!(run.checkpoints.len(), 3);
        for w in run.checkpoints.windows(2) {
            assert!(w[1].cycle >= w[0].cycle);
            assert!(w[1].stats.committed_instrs >= w[0].stats.committed_instrs);
        }
        // Reached (commit width may overshoot slightly).
        assert!(run.checkpoints[0].stats.committed_instrs >= 2_000);
        assert!(run.checkpoints[0].stats.committed_instrs < 2_100);
    }

    #[test]
    fn memory_bound_benchmark_accumulates_cpl() {
        // A pointer chaser's private CPL grows with every serialised miss.
        let b = by_name("ammp").unwrap();
        let run = run_private(&b, 0, &xcfg(), &[4_000], None);
        assert!(run.checkpoints[0].cpl > 0, "serialised misses must build CPL");
    }

    #[test]
    fn compute_bound_benchmark_has_negligible_cpl() {
        let b = by_name("wrf").unwrap();
        let run = run_private(&b, 0, &xcfg(), &[4_000], None);
        let memory = by_name("ammp").unwrap();
        let mrun = run_private(&memory, 0, &xcfg(), &[4_000], None);
        assert!(
            run.checkpoints[0].cpl < mrun.checkpoints[0].cpl / 4,
            "wrf CPL {} vs ammp CPL {}",
            run.checkpoints[0].cpl,
            mrun.checkpoints[0].cpl
        );
    }

    #[test]
    fn private_mode_is_deterministic() {
        let b = by_name("art").unwrap();
        let a = run_private(&b, 0, &xcfg(), &[5_000], None);
        let c = run_private(&b, 0, &xcfg(), &[5_000], None);
        assert_eq!(a.checkpoints[0].cycle, c.checkpoints[0].cycle);
        assert_eq!(a.checkpoints[0].cpl, c.checkpoints[0].cpl);
    }
}
