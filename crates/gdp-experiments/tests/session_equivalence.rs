//! The streaming `EstimationSession` against a retained copy of the
//! pre-session batch loop: on arbitrary workload mixes and registered
//! technique subsets, interval records, λ̂ bits, every technique's
//! estimates and the final statistics must be **bit-identical** — the
//! property that let the whole estimation stack collapse onto one
//! session API, and every technique onto a readout of one observation
//! plane, without moving a single figure. The oracle feeds each
//! technique's standalone estimator (`Technique::build`, its own
//! observers) event by event.

use proptest::prelude::*;

use gdp_core::model::{IntervalMeasurement, PrivateModeEstimator};
use gdp_dief::Dief;
use gdp_experiments::{
    record_shared, run_shared, CoreInterval, ExperimentConfig, IntervalSchedule, ReplaySession,
    SessionBuilder, SharedRun, StreamSession, Technique,
};
use gdp_sim::mem::Interference;
use gdp_sim::probe::ProbeEvent;
use gdp_sim::stats::CoreStats;
use gdp_sim::types::{CoreId, ReqId};
use gdp_sim::System;
use gdp_trace::Boundary;
use gdp_workloads::paper_workloads;

mod common;
use common::{assert_rows_bit_identical, assert_runs_bit_identical, subset_from_mask, xcfg};

/// The shared-mode run loop exactly as it existed before the session
/// refactor (minus the trace sink): the bit-equality oracle.
fn legacy_run_shared(
    workload: &gdp_workloads::Workload,
    xcfg: &ExperimentConfig,
    techniques: &[Technique],
) -> SharedRun {
    let techniques = Technique::canonical(techniques);
    let mut sys = System::new(xcfg.sim.clone(), workload.streams());
    let mut dief = Dief::new(&xcfg.sim, xcfg.sampled_sets);
    let tcfg = xcfg.technique_config();
    let mut estimators: Vec<Box<dyn PrivateModeEstimator>> =
        techniques.iter().map(|t| t.build(&tcfg)).collect();
    let asm_schedule = techniques.iter().find_map(|t| t.mc_priority_epoch());

    let n = xcfg.sim.cores;
    let cap = xcfg.cycle_cap();
    let mut intervals: Vec<Vec<CoreInterval>> = Vec::new();
    let mut last_snapshot: Vec<CoreStats> = (0..n).map(|c| *sys.core_stats(c)).collect();
    let mut schedule = IntervalSchedule::new(xcfg.interval_cycles);

    while sys.now() < cap && (0..n).any(|c| sys.committed(c) < xcfg.sample_instrs) {
        if let Some(epoch) = asm_schedule {
            if sys.now() % epoch == 0 {
                let pc = CoreId(((sys.now() / epoch) % n as u64) as u8);
                sys.mem().mc().set_priority_core(Some(pc));
            }
        }
        let mut limit = cap.min(schedule.next_boundary());
        if let Some(epoch) = asm_schedule {
            limit = limit.min((sys.now() / epoch + 1) * epoch);
        }
        sys.advance(limit);

        while schedule.pop_crossed(sys.now()).is_some() {
            sys.finalize();
            let events = sys.drain_probes();
            for ev in &events {
                dief.observe(ev);
            }
            // The historical events-outer observe loop, verbatim.
            for ev in &events {
                for e in estimators.iter_mut() {
                    e.observe(ev);
                }
            }
            let mut row = Vec::with_capacity(n);
            for c in 0..n {
                let core = CoreId(c as u8);
                let cum = *sys.core_stats(c);
                let delta = cum.delta(&last_snapshot[c]);
                let lat = dief.interval_estimate(core);
                let m = IntervalMeasurement {
                    stats: delta,
                    lambda: lat.private,
                    shared_latency: delta.avg_sms_latency(),
                };
                let estimates =
                    estimators.iter_mut().map(|e| e.estimate(core, &m)).collect::<Vec<_>>();
                row.push(CoreInterval {
                    instr_start: last_snapshot[c].committed_instrs,
                    instr_end: cum.committed_instrs,
                    stats: delta,
                    lambda: lat.private,
                    shared_latency: m.shared_latency,
                    estimates,
                });
                last_snapshot[c] = cum;
            }
            intervals.push(row);
        }
    }

    let final_stats: Vec<CoreStats> = (0..n).map(|c| *sys.core_stats(c)).collect();
    SharedRun { techniques, intervals, cycles: sys.now(), final_stats }
}

fn assert_session_matches_legacy(seed: u64, cores: usize, mask: usize, chunk: u64) {
    let w = &paper_workloads(cores, seed)[0];
    let x = xcfg(cores);
    let set = subset_from_mask(mask);
    let legacy = legacy_run_shared(w, &x, &set);
    // Batch driver (one-shot session).
    let batch = run_shared(w, &x, &set);
    assert_runs_bit_identical(&legacy, &batch, "batch session vs legacy");
    // Streaming session, deliberately awkward advance increments.
    let mut s = SessionBuilder::new(w, &x).techniques(&set).build();
    let mut polled = 0usize;
    while !s.done() {
        s.advance_to(s.now() + chunk);
        polled += s.poll_estimates().len();
    }
    let streamed = s.into_report();
    assert_eq!(polled, streamed.intervals.len(), "every interval polled exactly once");
    assert_runs_bit_identical(&legacy, &streamed, "streamed session vs legacy");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random workload mixes × registered technique subsets × stream
    /// chunk sizes: the session is bit-identical to the legacy loop.
    #[test]
    fn session_is_bit_identical_to_the_legacy_loop(
        seed in 0u64..1_000,
        mask in 1usize..64,
        chunk in 1_000u64..20_000,
    ) {
        assert_session_matches_legacy(seed, 2, mask, chunk);
    }
}

/// One deterministic 4-core case with the full default set (covers the
/// invasive epoch clamping on a wider CMP than the proptest cases).
#[test]
fn four_core_full_set_session_matches_legacy() {
    assert_session_matches_legacy(42, 4, 0b111111, 7_777);
}

/// Stream replay of a recorded trace against the legacy loop: random
/// event mixes (workload seed) and technique subsets, with a snapshot
/// taken mid-stream and resumed into a fresh session — every row, and
/// the resumed suffix, must match the per-event standalone estimators
/// bit for bit.
fn assert_replay_matches_legacy(seed: u64, cores: usize, mask: usize, cut_pick: usize) {
    let w = &paper_workloads(cores, seed)[0];
    let x = xcfg(cores);
    let set = subset_from_mask(mask);
    let legacy = legacy_run_shared(w, &x, &set);
    let (_, trace) = record_shared(w, &x, &set);
    assert_runs_bit_identical(
        &legacy,
        &ReplaySession::new(&trace, &x, &set).into_report(),
        "replay vs legacy",
    );

    let cut = cut_pick % (trace.intervals.len() + 1);
    let mut s = StreamSession::new(&x, &set);
    let mut rows: Vec<Vec<CoreInterval>> = trace.intervals[..cut]
        .iter()
        .map(|iv| s.feed_interval(&iv.events, &iv.boundaries))
        .collect();
    let cp = s.suspend();
    assert_eq!(cp.at, cut as u64, "suspend stamps the fed-interval count");
    let mut resumed = StreamSession::new(&x, &set);
    resumed.resume_from(&cp).expect("a mid-stream snapshot restores");
    rows.extend(
        trace.intervals[cut..].iter().map(|iv| resumed.feed_interval(&iv.events, &iv.boundaries)),
    );
    assert_rows_bit_identical(&rows, &legacy.intervals, "suspended and resumed stream vs legacy");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random event mixes × technique subsets × suspend points: the
    /// observation plane's readouts match the legacy loop, including
    /// across a snapshot/restore.
    #[test]
    fn stream_replay_with_restore_matches_the_legacy_loop(
        seed in 0u64..1_000,
        mask in 1usize..64,
        cut_pick in 0usize..1_000,
    ) {
        assert_replay_matches_legacy(seed, 2, mask, cut_pick);
    }
}

/// ASM's interference correction through the plane: one hand-built
/// interval fed to a `StreamSession` with `{ASM}` and, event by event, to
/// the standalone ASM. Block 0 is primed (set 0 is sampled), then a storm
/// of interference misses completes inside core 0's own priority epoch
/// (the applu pathology). The readout must match the standalone estimate
/// bit for bit, and the storm must move it — random workloads may never
/// complete an interference miss inside an ASM epoch.
#[test]
fn asm_interference_correction_matches_the_standalone_estimator() {
    let x = xcfg(2);
    let core = CoreId(0);
    let access = |req: u64, cycle| ProbeEvent::LlcAccess {
        core,
        block: 0,
        cycle,
        hit: false,
        req: ReqId(req),
    };
    let done = |req: u64, cycle, post_llc| ProbeEvent::LoadL1MissDone {
        core,
        req: ReqId(req),
        block: 0,
        cycle,
        sms: true,
        latency: 300,
        interference: Interference::default(),
        llc_hit: Some(false),
        post_llc,
    };
    let primed = vec![access(1, 1), done(1, 10, 60)];
    let mut storm = primed.clone();
    for i in 0..40 {
        storm.extend([access(100 + i, 20 + i), done(100 + i, 30 + i, 200)]);
    }
    let stats = CoreStats {
        committed_instrs: 100,
        commit_cycles: 100,
        stall_sms: 3_900,
        cycles: 4_000,
        ..Default::default()
    };
    let boundary =
        Boundary { instr_start: 0, instr_end: 100, stats, lambda: 100.0, shared_latency: 150.0 };
    let estimate = |events: &[ProbeEvent]| {
        let row = StreamSession::new(&x, &[Technique::ASM]).feed_interval(events, &[boundary; 2]);
        let mut asm = Technique::ASM.build(&x.technique_config());
        for ev in events {
            asm.observe(ev);
        }
        let standalone = asm.estimate(core, &boundary.measurement());
        let plane = row[0].estimates[0];
        assert_eq!(plane.cpi.to_bits(), standalone.cpi.to_bits(), "CPI");
        assert_eq!(plane.sigma_sms.to_bits(), standalone.sigma_sms.to_bits(), "σ̂");
        plane
    };
    let quiet = estimate(&primed);
    let stormy = estimate(&storm);
    assert_ne!(stormy.cpi.to_bits(), quiet.cpi.to_bits(), "the storm must move the estimate");
    assert!(stormy.cpi < 1.0, "the corrected epoch time collapses: {stormy:?}");
}
