//! Shared helpers for the serve integration suite.

#![allow(dead_code)] // each test binary uses a subset

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use gdp_experiments::{record_shared, CoreInterval, ExperimentConfig, ReplaySession, Technique};
use gdp_trace::SharedTrace;
use gdp_workloads::paper_workloads;

/// The suite's experiment configuration: tiny, but crossing several
/// interval boundaries.
pub fn xcfg(cores: usize) -> ExperimentConfig {
    let mut x = ExperimentConfig::tiny(cores);
    x.sample_instrs = 5_000;
    x.interval_cycles = 9_000;
    x
}

/// Record a deterministic tiny trace for `seed`.
pub fn recorded(seed: u64, cores: usize) -> SharedTrace {
    let w = &paper_workloads(cores, seed)[0];
    let (_, trace) = record_shared(w, &xcfg(cores), &[Technique::GDP]);
    trace
}

/// The embedded-session oracle: replay `trace` locally with `set`
/// attached and return the interval rows. Served rows must match these
/// bit for bit.
pub fn embedded_rows(
    trace: &SharedTrace,
    x: &ExperimentConfig,
    set: &[Technique],
) -> Vec<Vec<CoreInterval>> {
    ReplaySession::new(trace, x, set).into_report().intervals
}

/// A non-empty transparent (non-invasive) technique subset from a
/// bitmask over the technique table.
pub fn subset_from_mask(mask: usize) -> Vec<Technique> {
    let set: Vec<Technique> = Technique::all_registered()
        .iter()
        .copied()
        .enumerate()
        .filter(|(i, t)| mask & (1 << i) != 0 && !t.is_invasive())
        .map(|(_, t)| t)
        .collect();
    if set.is_empty() {
        vec![Technique::GDP]
    } else {
        set
    }
}

/// Bit-for-bit row equality: every `f64` compared via `to_bits`.
pub fn assert_rows_bit_identical(a: &[Vec<CoreInterval>], b: &[Vec<CoreInterval>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: row count");
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ra.len(), rb.len(), "{what}: iv {i} core count");
        for (c, (ca, cb)) in ra.iter().zip(rb).enumerate() {
            assert_eq!(ca.instr_start, cb.instr_start, "{what}: iv {i} core {c}");
            assert_eq!(ca.instr_end, cb.instr_end, "{what}: iv {i} core {c}");
            assert_eq!(ca.stats, cb.stats, "{what}: iv {i} core {c}");
            assert_eq!(ca.lambda.to_bits(), cb.lambda.to_bits(), "{what}: iv {i} core {c} λ");
            assert_eq!(
                ca.shared_latency.to_bits(),
                cb.shared_latency.to_bits(),
                "{what}: iv {i} core {c} L"
            );
            assert_eq!(ca.estimates.len(), cb.estimates.len(), "{what}: iv {i} core {c}");
            for (e, (ea, eb)) in ca.estimates.iter().zip(&cb.estimates).enumerate() {
                assert_eq!(ea.cpi.to_bits(), eb.cpi.to_bits(), "{what}: iv {i} c{c} est{e} cpi");
                assert_eq!(
                    ea.sigma_sms.to_bits(),
                    eb.sigma_sms.to_bits(),
                    "{what}: iv {i} c{c} est{e} σ"
                );
                assert_eq!(ea.cpl, eb.cpl, "{what}: iv {i} c{c} est{e} cpl");
                assert_eq!(
                    ea.overlap.to_bits(),
                    eb.overlap.to_bits(),
                    "{what}: iv {i} c{c} est{e} overlap"
                );
            }
        }
    }
}

/// A fresh, unique scratch directory (snapshot stores).
pub fn unique_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "gdp-serve-test-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}
