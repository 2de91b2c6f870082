//! Snapshot/restore equivalence: extending the session-equivalence
//! harness to the checkpointable observer surface.
//!
//! The pinned property: a `StreamSession` resumed from an observer-state
//! snapshot taken at *any* interval boundary is bit-identical to one that
//! was fed every interval before it — which is exactly what makes an
//! on-demand query of interval k (`summarize_checkpoints`, then a fresh
//! session resumed from `checkpoints[k - 1]` and fed interval k) exact
//! rather than approximate. Over random workload mixes × registered
//! technique subsets × restore points, a resumed session must reproduce
//! the serial `ReplaySession` row for row, bit for bit, and every
//! summarized checkpoint must round-trip a binary STATE entry and still
//! answer every query exactly.

use proptest::prelude::*;

use gdp_experiments::{
    record_shared, summarize_checkpoints, CoreInterval, ObservationPlane, ReplaySession, SharedRun,
    StreamSession, Technique,
};
use gdp_sim::types::CoreId;
use gdp_trace::{decode_state, encode_state, CheckpointFile};
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

/// The on-demand query of interval `k` for **every** k equals the k-th
/// row of `serial`: a fresh session resumed from `checkpoints[k - 1]`
/// (cold for k = 0) and fed interval k alone.
fn assert_every_interval_matches(
    trace: &gdp_trace::SharedTrace,
    set: &[Technique],
    checkpoints: &CheckpointFile,
    serial: &SharedRun,
    what: &str,
) {
    let x = xcfg(trace.cores);
    assert_eq!(checkpoints.checkpoints.len() + 1, trace.intervals.len(), "{what}: index size");
    for (k, iv) in trace.intervals.iter().enumerate() {
        let mut s = StreamSession::new(&x, set);
        if k > 0 {
            let cp = &checkpoints.checkpoints[k - 1];
            assert_eq!(cp.at, k as u64, "{what}: checkpoint {} stamp", k - 1);
            s.resume_from(cp).expect("a summarized checkpoint restores");
        }
        let row = s.feed_interval(&iv.events, &iv.boundaries);
        assert_rows_bit_identical(
            std::slice::from_ref(&row),
            std::slice::from_ref(&serial.intervals[k]),
            &format!("{what}: query of interval {k}"),
        );
    }
}

fn check_snapshot_equivalence(seed: u64, mask: usize, cut_pick: usize) {
    let cores = 2;
    let x = xcfg(cores);
    let set = transparent_subset_from_mask(mask);
    let (trace, cks) = recorded_cell(seed, cores);
    let n = trace.intervals.len();
    assert!(n >= 2, "a tiny run must cross at least two boundaries");

    // Serial oracle.
    let serial = ReplaySession::new(&trace, &x, &set).into_report();

    // Property 1: restore-at-any-boundary. Feed up to `cut`, suspend,
    // resume a *fresh* session, feed it the tail; the resumed tail must
    // be bit-identical to the oracle's tail.
    let cut = 1 + cut_pick % (n - 1); // an interior boundary 1..n-1
    let mut warm = StreamSession::new(&x, &set);
    for iv in &trace.intervals[..cut] {
        warm.feed_interval(&iv.events, &iv.boundaries);
    }
    let cp = warm.suspend();
    let mut restored = StreamSession::new(&x, &set);
    restored.resume_from(&cp).expect("restore a just-taken snapshot");
    let tail: Vec<Vec<CoreInterval>> = trace.intervals[cut..]
        .iter()
        .map(|iv| restored.feed_interval(&iv.events, &iv.boundaries))
        .collect();
    assert_rows_bit_identical(&tail, &serial.intervals[cut..], "restored tail vs serial");

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
    assert_every_interval_matches(&trace, &set, &decoded, &serial, "decoded checkpoints");
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

/// The on-demand query of **every** interval of a recorded cell equals
/// the matching row of a full serial replay — including interval 0 (cold
/// state, nothing restored) and the final interval (the row the FINAL
/// section's statistics close over). One index, summarized with every
/// registered technique, serves every transparent set: an observer's
/// state depends only on the recorded stream, never on which readouts
/// consume it.
#[test]
fn a_resumed_stream_session_answers_every_interval_query() {
    let x = xcfg(2);
    let (trace, cks) = recorded_cell(7, 2);
    for set in [
        &[Technique::GDP, Technique::GDP_O, Technique::ITCA][..],
        &[Technique::GDP_O],
        &[Technique::DIEF],
        &[Technique::ITCA, Technique::PTCA],
    ] {
        let serial = ReplaySession::new(&trace, &x, set).into_report();
        assert_every_interval_matches(&trace, set, &cks, &serial, &format!("{set:?}"));
    }
}

/// One checkpoint serves any subset of the techniques that read its
/// observers: a suspended {GDP, GDP-O} stream — one GDP-unit tree —
/// resumes into {GDP}, {GDP-O} and {GDP, GDP-O} sessions bit-exactly.
#[test]
fn one_checkpoint_file_serves_any_transparent_subset() {
    let x = xcfg(2);
    let (trace, _) = recorded_cell(17, 2);
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
            let (_, lambda) = plane.harvest(CoreId(c as u8));
            let lambda = lambda.expect("an ITCA/PTCA plane holds a DIEF");
            assert_eq!(lambda.to_bits(), b.lambda.to_bits(), "iv {i} core {c} λ");
            checked += 1;
        }
    }
    assert!(checked > 0);
}
