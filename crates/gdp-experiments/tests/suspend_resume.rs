//! Suspend/resume equivalence for the push-fed [`StreamSession`] and the
//! live [`EstimationSession`] — the estimator-state surface the serving
//! host (`gdp-serve`) builds tenant evict/resume on.
//!
//! The pinned properties:
//!
//! 1. a `StreamSession` fed a recorded trace interval-by-interval is
//!    bit-identical to a `ReplaySession` over the same trace, for any
//!    transparent technique subset;
//! 2. suspending a `StreamSession` at *any* boundary and resuming a
//!    fresh one from the checkpoint — including through the binary
//!    `STATE` codec, i.e. a disk round-trip — leaves the continued
//!    stream bit-identical to never having suspended;
//! 3. a live session's `suspend()` bundle seeds a `StreamSession` whose
//!    continuation matches the live run's own remaining rows bit for
//!    bit (the recording surface and the observation plane agree on
//!    where the stream was cut).

use proptest::prelude::*;

use gdp_experiments::{
    record_shared, session_state_key, CoreInterval, ExperimentConfig, ReplaySession,
    SessionBuilder, StreamSession, Technique,
};
use gdp_trace::{decode_state, encode_state, Recorder, SharedTrace};
use gdp_workloads::paper_workloads;

mod common;
use common::{assert_rows_bit_identical, transparent_subset_from_mask, xcfg};

fn recorded(seed: u64, cores: usize) -> SharedTrace {
    let w = &paper_workloads(cores, seed)[0];
    let (_, trace) = record_shared(w, &xcfg(cores), &[Technique::GDP]);
    trace
}

/// Feed every interval of `trace` to a fresh `StreamSession`, returning
/// the rows.
fn stream_all(
    trace: &SharedTrace,
    x: &ExperimentConfig,
    set: &[Technique],
) -> Vec<Vec<CoreInterval>> {
    let mut s = StreamSession::new(x, set);
    trace.intervals.iter().map(|iv| s.feed_interval(&iv.events, &iv.boundaries)).collect()
}

fn check_stream_suspend_resume(seed: u64, mask: usize, cut_pick: usize) {
    let cores = 2;
    let x = xcfg(cores);
    let set = transparent_subset_from_mask(mask);
    let trace = recorded(seed, cores);
    let n = trace.intervals.len();
    assert!(n >= 2, "a tiny run must cross at least two boundaries");

    // Property 1: push-fed stream == replay, row for row.
    let replay = ReplaySession::new(&trace, &x, &set).into_report();
    let streamed = stream_all(&trace, &x, &set);
    assert_rows_bit_identical(&streamed, &replay.intervals, "stream vs replay");

    // Property 2: suspend at an interior boundary, round-trip the bundle
    // through the binary STATE codec (the serve snapshot's disk format),
    // resume a *fresh* session, feed the tail.
    let cut = 1 + cut_pick % (n - 1);
    let mut head = StreamSession::new(&x, &set);
    let mut rows: Vec<Vec<CoreInterval>> = trace.intervals[..cut]
        .iter()
        .map(|iv| head.feed_interval(&iv.events, &iv.boundaries))
        .collect();
    let cp = head.suspend();
    assert_eq!(cp.at, cut as u64, "suspend stamps the fed-interval count");
    drop(head);
    let decoded = decode_state(&encode_state(&cp)).expect("STATE codec");
    assert_eq!(decoded, cp, "suspend bundle round-trips the codec exactly");
    let mut tail = StreamSession::new(&x, &set);
    tail.resume_from(&decoded).expect("resume a just-taken bundle");
    assert_eq!(tail.intervals_fed(), cut as u64, "resume continues the interval index");
    rows.extend(
        trace.intervals[cut..].iter().map(|iv| tail.feed_interval(&iv.events, &iv.boundaries)),
    );
    assert_rows_bit_identical(&rows, &replay.intervals, "suspend/resume vs uninterrupted");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random workload mixes × transparent technique subsets × cut
    /// points: streamed rows match replay, and a codec-round-tripped
    /// suspend/resume cycle is invisible in the output.
    #[test]
    fn stream_suspend_resume_matches_uninterrupted(
        seed in 0u64..1_000,
        mask in 1usize..64,
        cut_pick in 0usize..1_000,
    ) {
        check_stream_suspend_resume(seed, mask, cut_pick);
    }
}

/// A live session's `suspend()` seeds a `StreamSession` that continues
/// the recorded stream bit-identically to the live run's own remaining
/// rows — the estimator bundle and the recording surface agree on the
/// cut position.
#[test]
fn live_suspend_seeds_a_stream_session_bit_exactly() {
    let cores = 2;
    let x = xcfg(cores);
    let set = [Technique::GDP, Technique::ITCA];
    let w = &paper_workloads(cores, 23)[0];

    // Oracle: one uninterrupted live run, recording its stream.
    let mut rec = Recorder::new(cores, &w.name);
    let oracle = SessionBuilder::new(w, &x).techniques(&set).sink(&mut rec).build().into_report();
    let trace = rec.into_trace();
    let n = trace.intervals.len();
    assert!(n >= 2);

    // The same live run again, suspended partway through.
    let mut live = SessionBuilder::new(w, &x).techniques(&set).build();
    while !live.done() && (live.intervals().len() as u64) < (n as u64) / 2 {
        live.advance_to(live.now() + x.interval_cycles);
    }
    let cp = live.suspend();
    let cut = cp.at as usize;
    assert!(cut >= 1 && cut < n, "suspended at an interior boundary");
    assert_rows_bit_identical(
        live.intervals(),
        &oracle.intervals[..cut],
        "live head vs oracle head",
    );

    // Resume the estimator bundle into a stream session fed the
    // recorded tail.
    let mut tail = StreamSession::new(&x, &set);
    tail.resume_from(&cp).expect("resume the live bundle");
    let rows: Vec<Vec<CoreInterval>> = trace.intervals[cut..]
        .iter()
        .map(|iv| tail.feed_interval(&iv.events, &iv.boundaries))
        .collect();
    assert_rows_bit_identical(&rows, &oracle.intervals[cut..], "resumed tail vs oracle tail");

    // The mirrored `EstimationSession::resume_from` restores the same
    // bundle into a live bank: states after restore are bit-identical to
    // the suspended ones and the interval index continues.
    let mut relive = SessionBuilder::new(w, &x).techniques(&set).build();
    relive.resume_from(&cp).expect("restore into a live session");
    let roundtrip = relive.suspend();
    assert_eq!(roundtrip.at, cp.at);
    assert_eq!(roundtrip.states, cp.states, "restore/snapshot round-trips state bits");
}

/// A resumed session rejects a checkpoint missing one of its attached
/// techniques' states, and the technique set (not its order) plus the
/// tenant id determine the serve-session cache key.
#[test]
fn resume_rejects_missing_states_and_keys_separate_tenants() {
    let x = xcfg(2);
    let trace = recorded(29, 2);
    let mut s = StreamSession::new(&x, &[Technique::GDP]);
    for iv in &trace.intervals[..1] {
        s.feed_interval(&iv.events, &iv.boundaries);
    }
    let cp = s.suspend();
    let mut wider = StreamSession::new(&x, &[Technique::GDP, Technique::PTCA]);
    assert!(wider.resume_from(&cp).is_err(), "a GDP-only bundle cannot seed GDP+PTCA");

    let k = |tenant, set: &[Technique]| session_state_key(&x, tenant, set).hex();
    assert_eq!(
        k(7, &[Technique::GDP, Technique::GDP_O]),
        k(7, &[Technique::GDP_O, Technique::GDP]),
        "key is canonical in technique order"
    );
    assert_ne!(k(7, &[Technique::GDP]), k(8, &[Technique::GDP]), "tenants do not collide");
    assert_ne!(
        k(7, &[Technique::GDP]),
        k(7, &[Technique::GDP, Technique::GDP_O]),
        "sets do not collide"
    );
}
