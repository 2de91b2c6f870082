//! UCP's lookahead allocation (Qureshi & Patt, MICRO 2006) and ASM-driven
//! partitioning.

use crate::policy::{ensure_valid, AllocContext, PartitionPolicy};

/// Utility-based Cache Partitioning: greedy lookahead maximising the miss
/// reduction (hit gain) per allocated way.
#[derive(Debug, Default)]
pub struct Ucp;

impl Ucp {
    /// New UCP policy.
    pub fn new() -> Self {
        Ucp
    }
}

/// The lookahead step: for a core at allocation `cur`, the best
/// `(gain_per_way, ways)` move available with `budget` remaining ways.
/// Gain is the miss reduction `curve[cur] − curve[cur+k]`.
fn best_move(curve: &[u64], cur: usize, budget: usize) -> Option<(f64, usize)> {
    let max_k = (curve.len() - 1).saturating_sub(cur).min(budget);
    let mut best: Option<(f64, usize)> = None;
    for k in 1..=max_k {
        let gain = curve[cur].saturating_sub(curve[cur + k]) as f64 / k as f64;
        match best {
            Some((g, _)) if g >= gain => {}
            _ => best = Some((gain, k)),
        }
    }
    best
}

impl PartitionPolicy for Ucp {
    fn name(&self) -> &'static str {
        "UCP"
    }

    fn allocate(&mut self, ctx: &AllocContext) -> Vec<usize> {
        let n = ctx.cores.len();
        let mut alloc = vec![1usize; n];
        let mut budget = ctx.ways.saturating_sub(n);
        while budget > 0 {
            let mut winner: Option<(f64, usize, usize)> = None; // (gain, core, k)
            for (i, c) in ctx.cores.iter().enumerate() {
                if let Some((gain, k)) = best_move(&c.miss_curve, alloc[i], budget) {
                    match winner {
                        Some((g, _, _)) if g >= gain => {}
                        _ => winner = Some((gain, i, k)),
                    }
                }
            }
            match winner {
                Some((gain, i, k)) if gain > 0.0 => {
                    alloc[i] += k;
                    budget -= k;
                }
                _ => {
                    // No marginal utility anywhere: spread the remainder.
                    let i = (0..n).min_by_key(|&i| alloc[i]).unwrap();
                    alloc[i] += 1;
                    budget -= 1;
                }
            }
        }
        ensure_valid(alloc, ctx.ways)
    }
}

/// ASM-driven cache partitioning (paper §VII-C compares against \[15\]):
/// repeatedly grants a way to the core with the highest estimated
/// slowdown, where slowdown is the ratio of the miss-curve-projected
/// shared CPI at the candidate allocation to ASM's private-mode CPI
/// estimate.
#[derive(Debug, Default)]
pub struct AsmCache;

impl AsmCache {
    /// New ASM-driven partitioning policy.
    pub fn new() -> Self {
        AsmCache
    }
}

/// Project the shared-mode CPI of core `c` at `ways` allocated ways using
/// the first-order model of paper Eq. 4–6.
pub(crate) fn projected_cpi(c: &crate::policy::CoreSignals, ways: usize) -> f64 {
    if c.instrs == 0 {
        return f64::INFINITY;
    }
    let inst = c.instrs as f64;
    // Non-overlapped load count: CPL̂ = S_SMS / L_SMS (paper §V).
    let cpl_hat =
        if c.avg_sms_latency > 0.0 { c.stall_sms as f64 / c.avg_sms_latency } else { 0.0 };
    // Fraction of loads that are non-overlapped, applied per miss.
    let phi = if c.sms_loads > 0 { (cpl_hat / c.sms_loads as f64).min(1.0) } else { 0.0 };
    let pre = (c.commit_cycles + c.stall_non_sms) as f64 + cpl_hat * c.avg_pre_llc_latency;
    let misses =
        *c.miss_curve.get(ways.min(c.miss_curve.len() - 1)).unwrap_or(&c.llc_misses) as f64;
    let g = phi * c.avg_post_llc_latency;
    (pre + g * misses) / inst
}

impl PartitionPolicy for AsmCache {
    fn name(&self) -> &'static str {
        "ASM"
    }

    fn allocate(&mut self, ctx: &AllocContext) -> Vec<usize> {
        let n = ctx.cores.len();
        let mut alloc = vec![1usize; n];
        let mut budget = ctx.ways.saturating_sub(n);
        while budget > 0 {
            // Give the next way to the core with the largest estimated
            // slowdown at its current allocation.
            let i = (0..n)
                .max_by(|&a, &b| {
                    let sa = slowdown(&ctx.cores[a], alloc[a]);
                    let sb = slowdown(&ctx.cores[b], alloc[b]);
                    sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal)
                })
                .unwrap();
            alloc[i] += 1;
            budget -= 1;
        }
        ensure_valid(alloc, ctx.ways)
    }
}

fn slowdown(c: &crate::policy::CoreSignals, ways: usize) -> f64 {
    let shared = projected_cpi(c, ways);
    if c.private_cpi > 0.0 && c.private_cpi.is_finite() {
        shared / c.private_cpi
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::CoreSignals;

    /// A core whose miss curve drops sharply at `knee` ways.
    fn core_with_knee(knee: usize, ways: usize, scale: u64) -> CoreSignals {
        let curve: Vec<u64> =
            (0..=ways).map(|w| if w < knee { scale } else { scale / 20 }).collect();
        CoreSignals {
            miss_curve: curve,
            instrs: 10_000,
            commit_cycles: 8_000,
            stall_non_sms: 1_000,
            stall_sms: 20_000,
            sms_loads: 200,
            llc_misses: scale,
            avg_sms_latency: 200.0,
            avg_pre_llc_latency: 60.0,
            avg_post_llc_latency: 150.0,
            private_cpi: 1.5,
            shared_cpi: 3.0,
        }
    }

    /// A streaming core: flat curve, no ways help.
    fn streaming_core(ways: usize) -> CoreSignals {
        let mut c = core_with_knee(0, ways, 4_000);
        c.miss_curve = vec![4_000; ways + 1];
        c
    }

    #[test]
    fn ucp_gives_ways_to_the_core_that_benefits() {
        let ctx = AllocContext {
            ways: 16,
            cores: vec![core_with_knee(8, 16, 10_000), streaming_core(16)],
        };
        let alloc = Ucp::new().allocate(&ctx);
        assert_eq!(alloc.iter().sum::<usize>(), 16);
        // The sensitive core is given exactly its knee; ways beyond it
        // have no utility for either core and are spread as remainder.
        assert_eq!(alloc[0], 8, "the sensitive core needs its knee: {alloc:?}");
    }

    #[test]
    fn ucp_splits_between_two_identical_cores() {
        let ctx = AllocContext {
            ways: 16,
            cores: vec![core_with_knee(6, 16, 5_000), core_with_knee(6, 16, 5_000)],
        };
        let alloc = Ucp::new().allocate(&ctx);
        assert_eq!(alloc.iter().sum::<usize>(), 16);
        assert!(alloc[0] >= 6 && alloc[1] >= 6, "both knees satisfied: {alloc:?}");
    }

    #[test]
    fn best_move_prefers_steepest_gain_per_way() {
        // Curve: 100 → (1 way) 90 → (2 ways) 30: the 2-way move averages
        // 35/way, beating the 1-way move's 10.
        let curve = vec![100, 90, 30];
        let (gain, k) = best_move(&curve, 0, 2).unwrap();
        assert_eq!(k, 2);
        assert!((gain - 35.0).abs() < 1e-12);
    }

    #[test]
    fn asm_cache_feeds_the_most_slowed_down_core() {
        // Core 0's projected CPI collapses with ways; core 1 is flat.
        let ctx = AllocContext {
            ways: 16,
            cores: vec![core_with_knee(8, 16, 10_000), streaming_core(16)],
        };
        let alloc = AsmCache::new().allocate(&ctx);
        assert_eq!(alloc.iter().sum::<usize>(), 16);
        // The sensitive core's slowdown dominates until its knee is
        // satisfied; afterwards the streaming core absorbs the rest.
        assert!(alloc[0] >= 8, "sensitive core reaches its knee: {alloc:?}");
    }

    #[test]
    fn projected_cpi_decreases_with_more_ways() {
        let c = core_with_knee(8, 16, 10_000);
        assert!(projected_cpi(&c, 16) < projected_cpi(&c, 1));
    }

    #[test]
    fn allocations_always_cover_all_ways() {
        for ways in [4usize, 8, 16] {
            let ctx =
                AllocContext { ways, cores: vec![streaming_core(ways), streaming_core(ways)] };
            let u = Ucp::new().allocate(&ctx);
            assert_eq!(u.iter().sum::<usize>(), ways);
            assert!(u.iter().all(|&a| a >= 1));
        }
    }
}
