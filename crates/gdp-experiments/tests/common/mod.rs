//! Helpers shared by the session, snapshot and suspend/resume
//! equivalence suites.

#![allow(dead_code)] // each suite uses a subset

use gdp_experiments::{CoreInterval, ExperimentConfig, SharedRun, Technique};

/// A tiny configuration: 5K-instruction samples, 9K-cycle intervals.
pub fn xcfg(cores: usize) -> ExperimentConfig {
    let mut x = ExperimentConfig::tiny(cores);
    x.sample_instrs = 5_000;
    x.interval_cycles = 9_000;
    x
}

/// Decode a subset bitmask over the full technique table into a set
/// (GDP alone for an empty mask).
pub fn subset_from_mask(mask: usize) -> Vec<Technique> {
    let set: Vec<Technique> = Technique::all_registered()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, t)| t)
        .collect();
    if set.is_empty() {
        vec![Technique::GDP]
    } else {
        set
    }
}

/// [`subset_from_mask`] without invasive techniques: replaying ASM over a
/// transparently recorded stream is a category error the cache layer
/// prevents by keying run kinds separately.
pub fn transparent_subset_from_mask(mask: usize) -> Vec<Technique> {
    let all = Technique::all_registered();
    let invasive: usize =
        all.iter().enumerate().filter(|(_, t)| t.is_invasive()).map(|(i, _)| 1 << i).sum();
    subset_from_mask(mask & !invasive)
}

/// Every field of every row equal, f64s compared by bits.
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

/// Two runs equal in technique set, cycles, final statistics and every
/// row bit.
pub fn assert_runs_bit_identical(a: &SharedRun, b: &SharedRun, what: &str) {
    assert_eq!(a.techniques, b.techniques, "{what}: technique sets");
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.final_stats, b.final_stats, "{what}: final stats");
    assert_rows_bit_identical(&a.intervals, &b.intervals, what);
}
