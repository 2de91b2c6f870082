//! Estimator-session benchmark: observation-plane and readout throughput
//! through the streaming session API.
//!
//! A shared-mode trace is recorded once (setup, unmeasured); each
//! benchmark then drives a `ReplaySession` over it — exactly the
//! interval pipeline a live `EstimationSession` runs, at memory speed, so
//! the measured time is the *estimator* cost per event, isolated from the
//! simulator. Scenarios cover the single-technique
//! embedding case, the paper's transparent comparison set, and the full
//! registry. `BENCH_session.json` at the repo root records the baseline
//! events/s.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use gdp_bench::{Scale, SWEEP_SEED};
use gdp_experiments::{record_shared, ReplaySession, Technique};
use gdp_workloads::{generate_workloads, LlcClass};

fn bench_session(c: &mut Criterion) {
    let workload = generate_workloads(2, LlcClass::H, 1, SWEEP_SEED).remove(0);
    let xcfg = Scale::Tiny.xcfg(2);
    let transparent: Vec<Technique> =
        Technique::ALL.iter().copied().filter(|t| !t.is_invasive()).collect();
    let (_, trace) = record_shared(&workload, &xcfg, &transparent);
    let events = trace.event_count();
    eprintln!(
        "estimator_session: {} intervals, {events} events per replay (events/s = events / median)",
        trace.intervals.len()
    );

    let scenarios: Vec<(&str, Vec<Technique>)> = vec![
        ("gdp-o", vec![Technique::GDP_O]),
        ("transparent4", transparent.clone()),
        // Throughput-only: replaying the invasive ASM over a transparent
        // trace has no live counterpart (see ReplaySession::new); here it
        // just exercises every registered observer and readout.
        ("registry6", Technique::all_registered()),
    ];
    for (name, set) in scenarios {
        c.bench_function(&format!("session/replay/{name}"), |b| {
            b.iter_batched(
                || ReplaySession::new(&trace, &xcfg, &set),
                |session| session.into_report(),
                BatchSize::SmallInput,
            );
        });
    }

    // Instrumentation overhead: identical replays with a telemetry
    // registry attached — per-interval span enters plus event counting.
    // The delta vs the unmetered scenarios above is the hot-path cost
    // of `--metrics` (BENCH_session.json tracks it; budget ≤2%).
    let registry = gdp_telemetry::MetricsRegistry::shared();
    for (name, set) in [("gdp-o", vec![Technique::GDP_O]), ("transparent4", transparent.clone())] {
        let reg = std::sync::Arc::clone(&registry);
        c.bench_function(&format!("session/replay/{name}/metered"), |b| {
            b.iter_batched(
                || {
                    ReplaySession::new(&trace, &xcfg, &set)
                        .with_metrics(std::sync::Arc::clone(&reg))
                },
                |session| session.into_report(),
                BatchSize::SmallInput,
            );
        });
    }

    // The streaming poll path: advance interval-by-interval and poll
    // after each, the embedding host's cadence (same work + poll
    // bookkeeping; confirms polling adds nothing measurable).
    c.bench_function("session/replay/gdp-o/streamed", |b| {
        b.iter_batched(
            || ReplaySession::new(&trace, &xcfg, &[Technique::GDP_O]),
            |mut session| {
                let mut rows = 0usize;
                while !session.done() {
                    session.advance_intervals(1);
                    rows += session.poll_estimates().len();
                }
                (session.into_report(), rows)
            },
            BatchSize::SmallInput,
        );
    });
}

criterion_group!(benches, bench_session);
criterion_main!(benches);
