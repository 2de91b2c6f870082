//! Per-layer cost probes over a workload's recorded shared traces.
//!
//! Every workload ends up holding shared-mode traces (recorded by its
//! sweeps or its set-up), so every workload can price the same layer
//! calls on its own inputs: the trace codec and store, the wire-frame
//! decoder, each estimator replayed alone, checkpoint summarisation,
//! session construction and embedded streaming. Each probe runs under a
//! `bench.<layer>.*` span, so it also appears on the timeline.

use std::path::Path;
use std::time::Instant;

use gdp_experiments::{
    summarize_checkpoints, transparent_subset, ExperimentConfig, ReplaySession, StreamSession,
    Technique,
};
use gdp_serve::proto::{decode_client, encode_client, ClientMsg};
use gdp_telemetry::MetricsRegistry;
use gdp_trace::{encode_shared, CacheKey, FrameAssembler, SharedTrace, TraceCache};

use crate::report::Metrics;
use crate::secs;
use crate::stats::median;

/// One recorded shared-mode run and the configuration it was run under.
pub struct ProbeTrace {
    /// The trace.
    pub trace: SharedTrace,
    /// Its experiment configuration.
    pub xcfg: ExperimentConfig,
    /// Whether it is the invasive (ASM) run.
    pub invasive: bool,
}

/// Session builds timed for `experiments.session_build_us`.
const SESSION_BUILDS: usize = 200;

/// Time `f` under the bench span `name`, in seconds.
fn timed<T>(bench: &MetricsRegistry, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let _g = bench.span(name).enter();
    let t = Instant::now();
    let out = f();
    (out, secs(t.elapsed()))
}

/// Run every probe over `traces`, using `dir` as scratch space for the
/// store/load round trip (removed afterwards) and feeding embedded
/// sessions on `threads` threads (the serve workloads' client count).
pub fn probe(
    traces: &[ProbeTrace],
    dir: &Path,
    threads: usize,
    bench: &MetricsRegistry,
) -> Metrics {
    let mut m = Metrics::default();
    let events = |ts: &[&ProbeTrace]| ts.iter().map(|t| t.trace.event_count() as f64).sum::<f64>();
    let all: Vec<&ProbeTrace> = traces.iter().collect();
    let transparent: Vec<&ProbeTrace> = traces.iter().filter(|t| !t.invasive).collect();
    let (all_events, tr_events) = (events(&all), events(&transparent));
    m.set("trace.events", "count", all_events);

    // gdp-trace: encode, store (write + fsync), load (read + decode).
    let mut encode = 0.0;
    let mut bytes = 0.0;
    for t in &all {
        let (b, dt) = timed(bench, "bench.trace.encode", || encode_shared(&t.trace));
        encode += dt;
        bytes += b.len() as f64;
    }
    m.set("trace.encode_ns_per_event", "ns", encode * 1e9 / all_events);
    m.set("trace.bytes_per_event", "B", bytes / all_events);
    let cache = TraceCache::new(dir);
    let key = |i: usize| {
        let mut k = CacheKey::new("gdpbench-probe");
        k.usize(i);
        k
    };
    let mut stores = Vec::new();
    for (i, t) in all.iter().enumerate() {
        let (r, dt) = timed(bench, "bench.trace.store", || cache.store_shared(&key(i), &t.trace));
        r.expect("probe directory is writable");
        stores.push(dt * 1e3);
    }
    m.sampled("trace.store_ms_p50", "ms", median(&stores).unwrap_or(0.0), stores.len());
    let mut decode = 0.0;
    for i in 0..all.len() {
        let (t, dt) = timed(bench, "bench.trace.load", || cache.load_shared(&key(i)));
        assert!(t.is_some(), "a stored probe trace loads back");
        decode += dt;
    }
    m.set("trace.decode_ns_per_event", "ns", decode * 1e9 / all_events);
    let _ = std::fs::remove_dir_all(dir);

    // gdp-trace frames + gdp-serve decoding: what a serve reader does
    // with each interval frame a tenant sends.
    let mut frame_decode = 0.0;
    for t in &transparent {
        let frames: Vec<Vec<u8>> = t
            .trace
            .intervals
            .iter()
            .map(|iv| encode_client(&ClientMsg::Interval(iv.clone())))
            .collect();
        let ((), dt) = timed(bench, "bench.trace.frame_decode", || {
            let mut asm = FrameAssembler::new();
            for f in &frames {
                asm.push(f);
                while let Some(frame) = asm.next_frame().expect("well-formed frames") {
                    decode_client(&frame, t.trace.cores, usize::MAX).expect("a client interval");
                }
            }
        });
        frame_decode += dt;
    }
    m.set("trace.frame_decode_ns_per_event", "ns", frame_decode * 1e9 / tr_events);

    // gdp-core and gdp-accounting: each estimator replayed alone; the
    // campaign's transparent set together (gdp-experiments).
    let campaign_set = transparent_subset(&Technique::ALL);
    let solo: [(&str, &[Technique]); 6] = [
        ("core.gdp_ns_per_event", &[Technique::GDP]),
        ("core.gdpo_ns_per_event", &[Technique::GDP_O]),
        ("accounting.itca_ns_per_event", &[Technique::ITCA]),
        ("accounting.ptca_ns_per_event", &[Technique::PTCA]),
        ("accounting.asm_ns_per_event", &[Technique::ASM]),
        ("experiments.replay_ns_per_event", &campaign_set),
    ];
    for (name, set) in solo {
        let mut total = 0.0;
        for t in &transparent {
            let (_, dt) = timed(bench, &format!("bench.{name}"), || {
                ReplaySession::new(&t.trace, &t.xcfg, set).into_report()
            });
            total += dt;
        }
        m.set(name, "ns", total * 1e9 / tr_events);
    }

    // gdp-experiments: checkpoint summarisation of every trace (what a
    // recording campaign does after each shared run) and session builds.
    let mut summarize = 0.0;
    for t in &all {
        let (_, dt) = timed(bench, "bench.experiments.summarize", || {
            summarize_checkpoints(&t.trace, &t.xcfg)
        });
        summarize += dt;
    }
    m.set("experiments.summarize_s", "s", summarize);
    let xcfg = ExperimentConfig::tiny(2);
    let set = [Technique::GDP, Technique::GDP_O];
    let builds: Vec<f64> = (0..SESSION_BUILDS)
        .map(|_| {
            timed(bench, "bench.experiments.session_build", || StreamSession::new(&xcfg, &set)).1
                * 1e6
        })
        .collect();
    m.sampled("experiments.session_build_us", "us", median(&builds).unwrap_or(0.0), builds.len());

    // gdp-serve's ceiling: StreamSession::feed_interval over the same
    // traces, no transport.
    let ((), wall) = timed(bench, "bench.serve.embedded", || {
        std::thread::scope(|s| {
            for k in 0..threads {
                let mine: Vec<&&ProbeTrace> = transparent.iter().skip(k).step_by(threads).collect();
                s.spawn(move || {
                    for t in mine {
                        let mut session = StreamSession::new(&t.xcfg, &set);
                        for iv in &t.trace.intervals {
                            std::hint::black_box(session.feed_interval(&iv.events, &iv.boundaries));
                        }
                    }
                });
            }
        })
    });
    m.set("serve.embedded_events_per_s", "events/s", tr_events / wall);
    m
}
