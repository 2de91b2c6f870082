//! Snapshot/restore equivalence: extending the session-equivalence
//! harness to the checkpointable observer surface.
//!
//! The pinned property: restoring a summarized observer-state snapshot
//! at *any* interval boundary is bit-identical to having replayed every
//! interval before it — which is exactly what makes the on-demand
//! `ReplaySession::estimate_interval(k)` query exact rather than
//! approximate. Over random workload mixes × registered technique
//! subsets × restore points, a restored session must reproduce the
//! serial `ReplaySession` row for row, bit for bit, and every summarized
//! checkpoint must round-trip a binary STATE entry; every query, over
//! full, sparse, unrestorable or no checkpoints, equals the serial row.

use proptest::prelude::*;

use gdp_experiments::{
    record_shared, summarize_checkpoints, CoreInterval, ObservationPlane, ReplaySession, SharedRun,
    StreamSession, Technique,
};
use gdp_sim::types::CoreId;
use gdp_trace::{decode_state, encode_state, CheckpointFile, StateCheckpoint};
use gdp_workloads::paper_workloads;

mod common;
use common::{assert_rows_bit_identical, transparent_subset_from_mask, xcfg};

/// One recorded tiny cell: (trace, summarized checkpoints). Recording a
/// transparent run is subset-invariant, so the GDP-only recording serves
/// every transparent replay subset; invasive subsets are excluded by the
/// mask space below (ASM replays must come from ASM-recorded traces).
fn recorded_cell(seed: u64, cores: usize) -> (gdp_trace::SharedTrace, CheckpointFile) {
    let w = &paper_workloads(cores, seed)[0];
    let x = xcfg(cores);
    let (_, trace) = record_shared(w, &x, &[Technique::GDP]);
    let cks = summarize_checkpoints(&trace, &x);
    (trace, cks)
}

/// `estimate_interval(k, checkpoints)` for **every** k equals the k-th
/// row of `serial`. One session answers every query, first backwards
/// (each a restore or a cold rebuild), then forwards (each continuing
/// from the previous position); past-the-end queries return `None`.
fn assert_every_interval_matches(
    trace: &gdp_trace::SharedTrace,
    set: &[Technique],
    checkpoints: Option<&CheckpointFile>,
    serial: &SharedRun,
    what: &str,
) {
    let n = trace.intervals.len();
    let mut q = ReplaySession::new(trace, &xcfg(trace.cores), set);
    for k in (0..n).rev().chain(0..n) {
        let row = q.estimate_interval(k, checkpoints).expect("in-range interval");
        assert_rows_bit_identical(
            std::slice::from_ref(&row),
            std::slice::from_ref(&serial.intervals[k]),
            &format!("{what}: estimate_interval({k})"),
        );
    }
    assert!(q.estimate_interval(n, checkpoints).is_none(), "{what}: past-the-end query");
    assert!(q.estimate_interval(n + 7, checkpoints).is_none());
}

fn check_snapshot_equivalence(seed: u64, mask: usize, cut_pick: usize) {
    let cores = 2;
    let x = xcfg(cores);
    let set = transparent_subset_from_mask(mask);
    let (trace, cks) = recorded_cell(seed, cores);
    let n = trace.intervals.len();
    assert!(n >= 2, "a tiny run must cross at least two boundaries");
    assert_eq!(cks.checkpoints.len(), n - 1, "one checkpoint per interior boundary");

    // Serial oracle.
    let serial = ReplaySession::new(&trace, &x, &set).into_report();

    // Property 1: restore-at-any-boundary. Replay to `cut`, snapshot,
    // restore into a *fresh* session, finish both; the restored tail
    // must be bit-identical to the oracle's tail.
    let cut = 1 + cut_pick % (n - 1); // an interior boundary 1..n-1
    let mut warm = ReplaySession::new(&trace, &x, &set);
    warm.advance_intervals(cut);
    let _ = warm.take_estimates();
    let cp = StateCheckpoint { at: cut as u64, states: warm.snapshot_states() };
    let mut restored = ReplaySession::new(&trace, &x, &set);
    restored.restore_checkpoint(&cp).expect("restore a just-taken snapshot");
    restored.advance_intervals(usize::MAX);
    assert_rows_bit_identical(
        &restored.take_estimates(),
        &serial.intervals[cut..],
        "restored tail vs serial",
    );

    // Property 2: every summarized snapshot round-trips a STATE entry
    // and still restores bit-exactly (f64 bit transport end to end).
    let decoded = CheckpointFile {
        checkpoints: cks
            .checkpoints
            .iter()
            .map(|c| decode_state(&encode_state(c)).expect("STATE codec"))
            .collect(),
        ..cks.clone()
    };
    assert_eq!(decoded, cks, "every checkpoint round-trips exactly");
    assert_every_interval_matches(&trace, &set, Some(&decoded), &serial, "decoded checkpoints");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random workload mixes × transparent technique subsets × restore
    /// points: snapshot/restore at any boundary is bit-identical to the
    /// serial session, and summarized checkpoints round-trip the codec.
    #[test]
    fn snapshot_restore_at_any_boundary_matches_serial(
        seed in 0u64..1_000,
        mask in 1usize..64,
        cut_pick in 0usize..1_000,
    ) {
        check_snapshot_equivalence(seed, mask, cut_pick);
    }
}

/// `ReplaySession::estimate_interval(k)` for **every** k of a recorded
/// cell equals the k-th row of a full serial replay — including k=0
/// (cold state, no checkpoint restored) and the final interval (the row
/// the FINAL section's statistics close over) — with and without
/// checkpoints.
#[test]
fn estimate_interval_matches_every_serial_row() {
    let x = xcfg(2);
    let set = [Technique::GDP, Technique::GDP_O, Technique::ITCA];
    let (trace, cks) = recorded_cell(7, 2);
    let serial = ReplaySession::new(&trace, &x, &set).into_report();
    assert_every_interval_matches(&trace, &set, Some(&cks), &serial, "full checkpoints");
    assert_every_interval_matches(&trace, &set, None, &serial, "no checkpoints");
}

/// A sparse checkpoint index (one interior restore point left) serves
/// queries from the restore point it holds; a checkpoint that *restores*
/// badly (schema version from the future) falls back to replaying from
/// the trace start. Both paths stay bit-identical to serial — corruption costs
/// time, never results.
#[test]
fn damaged_checkpoints_degrade_without_changing_results() {
    let x = xcfg(2);
    let set = [Technique::GDP, Technique::PTCA];
    let (trace, cks) = recorded_cell(13, 2);
    let serial = ReplaySession::new(&trace, &x, &set).into_report();

    // All but one interior checkpoint gone.
    let keep = cks.checkpoints.len() / 2;
    let sparse = CheckpointFile {
        workload: cks.workload.clone(),
        cores: cks.cores,
        intervals: cks.intervals,
        checkpoints: vec![cks.checkpoints[keep].clone()],
    };
    assert_every_interval_matches(&trace, &set, Some(&sparse), &serial, "sparse checkpoints");

    // A restore-time failure (future schema version) must not surface:
    // the query silently replays from the trace start.
    let mut tampered = cks.clone();
    for cp in &mut tampered.checkpoints {
        for (_, state) in &mut cp.states {
            state.version = gdp_core::STATE_VERSION + 1;
        }
    }
    assert_every_interval_matches(&trace, &set, Some(&tampered), &serial, "unrestorable");
}

/// One checkpoint index (summarized with every registered technique)
/// serves any transparent replay subset: an observer's state depends
/// only on the recorded stream, never on which readouts consume it. And
/// a suspended {GDP, GDP-O} stream — one GDP-unit tree — resumes into
/// {GDP}, {GDP-O} and {GDP, GDP-O} sessions bit-exactly.
#[test]
fn one_checkpoint_file_serves_any_transparent_subset() {
    let x = xcfg(2);
    let (trace, cks) = recorded_cell(17, 2);
    for set in
        [&[Technique::GDP_O][..], &[Technique::DIEF][..], &[Technique::ITCA, Technique::PTCA][..]]
    {
        let serial = ReplaySession::new(&trace, &x, set).into_report();
        assert_every_interval_matches(&trace, set, Some(&cks), &serial, "subset queries");
    }

    let cut = trace.intervals.len() / 2;
    let mut head = StreamSession::new(&x, &[Technique::GDP, Technique::GDP_O]);
    for iv in &trace.intervals[..cut] {
        head.feed_interval(&iv.events, &iv.boundaries);
    }
    let cp = head.suspend();
    assert_eq!(cp.states.len(), 1, "one unit tree serves both GDP variants");
    for set in [&[Technique::GDP][..], &[Technique::GDP_O][..], &[Technique::GDP, Technique::GDP_O]]
    {
        let serial = ReplaySession::new(&trace, &x, set).into_report();
        let mut tail = StreamSession::new(&x, set);
        tail.resume_from(&cp).expect("a GDP-unit tree seeds any GDP variant");
        let rows: Vec<Vec<CoreInterval>> = trace.intervals[cut..]
            .iter()
            .map(|iv| tail.feed_interval(&iv.events, &iv.boundaries))
            .collect();
        assert_rows_bit_identical(&rows, &serial.intervals[cut..], "resumed GDP subset");
    }
}

/// One DIEF serves both roles: replaying a recorded cell through an
/// {ITCA, PTCA} plane recomputes every boundary's λ̂ from the plane's
/// DIEF, bit-identical to the λ̂ the live session recorded.
#[test]
fn the_itca_ptca_dief_recomputes_the_recorded_lambda() {
    let x = xcfg(2);
    let (trace, _) = recorded_cell(19, 2);
    let mut plane =
        ObservationPlane::new(&[Technique::ITCA, Technique::PTCA], &x.technique_config(), false);
    let mut checked = 0;
    for (i, iv) in trace.intervals.iter().enumerate() {
        plane.observe(&iv.events, None);
        for (c, b) in iv.boundaries.iter().enumerate() {
            let (_, lambda) = plane.harvest(CoreId(c as u8), b.stats.cycles);
            let lambda = lambda.expect("an ITCA/PTCA plane holds a DIEF");
            assert_eq!(lambda.to_bits(), b.lambda.to_bits(), "iv {i} core {c} λ");
            checked += 1;
        }
    }
    assert!(checked > 0);
}
