//! Paired A/B: segmented parallel replay (`ParallelReplaySession` on a
//! 2-worker pool) against serial `ReplaySession`, over one recorded
//! `ExperimentConfig::quick(4)` transparent trace.
//!
//! Ten pairs, alternating which side runs first; each sample is the mean
//! of five replays. Checkpoint summarization is setup, as in a recorded
//! campaign. Prints every pair, both sides' median and quartiles, and
//! how many pairs parallel replay won.
//!
//! ```console
//! $ cargo run --release --example parallel_replay_ab
//! ```

use std::time::Instant;

use gdp::experiments::{
    record_shared, summarize_checkpoints, transparent_subset, ExperimentConfig,
    ParallelReplaySession, ReplaySession, Technique,
};
use gdp::runner::Pool;
use gdp::workloads::paper_workloads;

const PAIRS: usize = 10;
const REPS: u32 = 5;

/// Mean wall time of `REPS` runs of `f`, in milliseconds.
fn time_ms(f: impl Fn()) -> f64 {
    let start = Instant::now();
    for _ in 0..REPS {
        f();
    }
    start.elapsed().as_secs_f64() * 1e3 / f64::from(REPS)
}

/// (first quartile, median, third quartile) of ten samples.
fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    (v[2], (v[4] + v[5]) / 2.0, v[7])
}

fn main() {
    let xcfg = ExperimentConfig::quick(4);
    let workload = &paper_workloads(4, 42)[0];
    let set = transparent_subset(&Technique::ALL);
    let (_, trace) = record_shared(workload, &xcfg, &set);
    let checkpoints = summarize_checkpoints(&trace, &xcfg);
    println!("trace: {} intervals, {} events", trace.intervals.len(), trace.event_count());

    let serial = || {
        std::hint::black_box(ReplaySession::new(&trace, &xcfg, &set).into_report());
    };
    let parallel = || {
        let s = ParallelReplaySession::new(&trace, &xcfg, &set, Some(&checkpoints), Pool::new(2));
        std::hint::black_box(s.into_report());
    };
    time_ms(serial); // warm-up
    time_ms(parallel);

    let (mut s, mut p) = (Vec::new(), Vec::new());
    for i in 0..PAIRS {
        let (a, b) = if i % 2 == 0 {
            let a = time_ms(serial);
            (a, time_ms(parallel))
        } else {
            let b = time_ms(parallel);
            (time_ms(serial), b)
        };
        println!("pair {i}: serial {a:.3} ms, parallel {b:.3} ms");
        s.push(a);
        p.push(b);
    }
    let wins = s.iter().zip(&p).filter(|(a, b)| b < a).count();
    let (s1, sm, s3) = quartiles(&s);
    let (p1, pm, p3) = quartiles(&p);
    println!("serial:   median {sm:.3} ms (q1 {s1:.3}, q3 {s3:.3})");
    println!("parallel: median {pm:.3} ms (q1 {p1:.3}, q3 {p3:.3})");
    println!("parallel wins {wins}/{PAIRS} pairs");
}
