//! Microbenchmarks for trace encode and decode throughput.
//!
//! Run with `cargo bench -p gdp-trace`. The headline figure is
//! events/second for decoding a shared trace — the cost a warm-cache
//! campaign pays instead of cycle-level simulation (replay through the
//! estimator stack is `gdp-bench`'s `estimator_session` bench).

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gdp_sim::mem::Interference;
use gdp_sim::probe::{ProbeEvent, StallCause};
use gdp_sim::stats::CoreStats;
use gdp_sim::types::{CoreId, ReqId};
use gdp_trace::{decode_shared, encode_shared, Boundary, SharedTrace, TraceInterval};

/// A synthetic but realistically-shaped trace: `intervals` intervals of
/// `events_per_interval` mixed events across 2 cores.
fn synthetic_trace(intervals: usize, events_per_interval: usize) -> SharedTrace {
    let mut cycle = 0u64;
    let mut req = 0u64;
    let ivs: Vec<TraceInterval> = (0..intervals)
        .map(|i| {
            let mut events = Vec::with_capacity(events_per_interval);
            for e in 0..events_per_interval {
                let core = CoreId((e % 2) as u8);
                cycle += 3 + (e as u64 % 7);
                match e % 4 {
                    0 => {
                        req += 1;
                        events.push(ProbeEvent::LoadL1Miss {
                            core,
                            req: ReqId(req),
                            block: (req * 64) % (1 << 20),
                            cycle,
                        });
                    }
                    1 => events.push(ProbeEvent::LoadL1MissDone {
                        core,
                        req: ReqId(req),
                        block: (req * 64) % (1 << 20),
                        cycle: cycle + 120,
                        sms: e % 8 < 6,
                        latency: 120 + (e as u64 % 80),
                        interference: Interference {
                            ring: e as u64 % 9,
                            mc_queue: e as u64 % 30,
                            mc_row: (e as i64 % 21) - 10,
                        },
                        llc_hit: Some(e % 3 == 0),
                        post_llc: e as u64 % 160,
                    }),
                    2 => events.push(ProbeEvent::LlcAccess {
                        core,
                        block: (req * 64) % (1 << 20),
                        cycle,
                        hit: e % 3 != 0,
                        req: ReqId(req),
                    }),
                    _ => events.push(ProbeEvent::Stall {
                        core,
                        start: cycle,
                        end: cycle + 40 + (e as u64 % 100),
                        cause: StallCause::Load,
                        blocking_block: Some((req * 64) % (1 << 20)),
                        blocking_req: Some(ReqId(req)),
                        blocking_sms: Some(true),
                        blocking_interference: None,
                    }),
                }
            }
            let boundary = |c: u64| Boundary {
                instr_start: i as u64 * 10_000 + c,
                instr_end: (i as u64 + 1) * 10_000 + c,
                stats: CoreStats {
                    committed_instrs: 10_000,
                    commit_cycles: 9_000,
                    stall_sms: 12_000,
                    cycles: 25_000,
                    sms_loads: 100,
                    sms_latency_sum: 18_000,
                    ..Default::default()
                },
                lambda: 140.0 + c as f64,
                shared_latency: 180.0 + c as f64,
            };
            TraceInterval { events, boundaries: vec![boundary(0), boundary(1)] }
        })
        .collect();
    SharedTrace {
        cores: 2,
        workload: "bench-2c".to_string(),
        cycles: cycle,
        final_stats: vec![CoreStats::default(); 2],
        intervals: ivs,
    }
}

fn bench_codec(c: &mut Criterion) {
    let trace = synthetic_trace(50, 2_000);
    let events = trace.event_count();
    let bytes = encode_shared(&trace);
    println!(
        "trace: {events} events over {} intervals, {} bytes encoded ({:.2} B/event)",
        trace.intervals.len(),
        bytes.len(),
        bytes.len() as f64 / events as f64
    );

    c.bench_function(&format!("encode_shared/{events}_events"), |b| {
        b.iter(|| black_box(encode_shared(black_box(&trace))))
    });
    c.bench_function(&format!("decode_shared/{events}_events"), |b| {
        b.iter(|| black_box(decode_shared(black_box(&bytes)).expect("decodes")))
    });
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_codec
}
criterion_main!(benches);
