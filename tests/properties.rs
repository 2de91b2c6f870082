//! Property-based tests over the core data structures and invariants,
//! spanning the substrate and accounting crates.

use proptest::prelude::*;

use gdp::core::GdpUnit;
use gdp::dief::Atd;
use gdp::metrics::{rms, Summary};
use gdp::partition::contiguous_masks;
use gdp::sim::mem::{Cache, MshrAlloc, MshrFile};
use gdp::sim::probe::{ProbeEvent, StallCause};
use gdp::sim::types::{CoreId, ReqId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A filled block is always present afterwards; LRU never evicts the
    /// block just inserted.
    #[test]
    fn cache_fill_makes_block_present(blocks in proptest::collection::vec(0u64..4096, 1..200)) {
        let mut cache = Cache::with_sets(16, 4);
        for b in blocks {
            let block = b * 64;
            cache.fill(block, CoreId(0), false);
            prop_assert!(cache.peek(block), "block {block:#x} must be present after fill");
        }
    }

    /// Way partitioning: a core filling blocks never occupies more
    /// distinct lines per set than its quota.
    #[test]
    fn cache_partition_quota_is_never_exceeded(
        blocks in proptest::collection::vec(0u64..256, 1..300),
        quota in 1usize..4,
    ) {
        let mut cache = Cache::with_sets(8, 4);
        let mask = (1u64 << quota) - 1;
        cache.set_partition(vec![mask]);
        for b in &blocks {
            cache.fill(b * 64, CoreId(0), false);
        }
        // Count survivors: at most quota per set.
        for set in 0..8u64 {
            let present = (0..256u64)
                .filter(|b| b % 8 == set && cache.peek(b * 64))
                .count();
            prop_assert!(present <= quota, "set {set}: {present} > quota {quota}");
        }
    }

    /// MSHR bookkeeping: merges never exceed capacity; release returns
    /// everything that was allocated for the block.
    #[test]
    fn mshr_release_returns_all_requests(reqs in proptest::collection::vec(0u64..16, 1..64)) {
        let mut mshr = MshrFile::new(8);
        let mut expected: std::collections::HashMap<u64, usize> = Default::default();
        for (i, r) in reqs.iter().enumerate() {
            let block = r * 64;
            match mshr.allocate(block, ReqId(i as u64)) {
                MshrAlloc::Primary | MshrAlloc::Merged => {
                    *expected.entry(block).or_insert(0) += 1;
                }
                MshrAlloc::Full => {}
            }
        }
        for (block, count) in expected {
            let (_, merged) = mshr.release(block).expect("allocated block must release");
            prop_assert_eq!(merged.len() + 1, count);
        }
        prop_assert!(mshr.is_empty());
    }

    /// ATD miss curves are monotonically non-increasing in ways and the
    /// zero-way column counts every access.
    #[test]
    fn atd_miss_curve_monotone(blocks in proptest::collection::vec(0u64..2048, 1..500)) {
        let mut atd = Atd::new(64, 64, 8);
        for b in &blocks {
            atd.access(b * 64);
        }
        let curve = atd.miss_curve();
        for w in 1..curve.len() {
            prop_assert!(curve[w] <= curve[w - 1], "{curve:?}");
        }
        prop_assert_eq!(curve[0], atd.accesses() * atd.sampling_factor());
    }

    /// The PRB never exceeds its capacity and the CPL never exceeds the
    /// number of load-stall resumes observed.
    #[test]
    fn gdp_unit_invariants(
        ops in proptest::collection::vec((0u64..32, 0u8..3), 1..300),
        capacity in 1usize..64,
    ) {
        let mut unit = GdpUnit::new(capacity);
        let mut t = 0u64;
        let mut resumes = 0u64;
        for (addr, op) in ops {
            let block = addr * 64;
            t += 10;
            match op {
                0 => unit.observe(&ProbeEvent::LoadL1Miss {
                    core: CoreId(0), req: ReqId(t), block, cycle: t,
                }),
                1 => unit.observe(&ProbeEvent::LoadL1MissDone {
                    core: CoreId(0), req: ReqId(t), block, cycle: t,
                    sms: true, latency: 10, interference: Default::default(),
                    llc_hit: Some(true), post_llc: 0,
                }),
                _ => {
                    unit.observe(&ProbeEvent::Stall {
                        core: CoreId(0), start: t.saturating_sub(5), end: t,
                        cause: StallCause::Load,
                        blocking_block: Some(block),
                        blocking_req: Some(ReqId(t)),
                        blocking_sms: Some(true),
                        blocking_interference: None,
                    });
                    resumes += 1;
                }
            }
            prop_assert!(unit.occupancy() <= capacity);
            prop_assert!(unit.peek_cpl() <= resumes + 1, "CPL grows once per resume");
        }
    }

    /// RMS is bounded by the largest absolute error and is zero only for
    /// all-zero inputs.
    #[test]
    fn rms_bounds(errors in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let r = rms(&errors);
        let max = errors.iter().fold(0.0f64, |a, e| a.max(e.abs()));
        prop_assert!(r <= max + 1e-9);
        prop_assert!(r >= 0.0);
        if errors.iter().any(|e| *e != 0.0) {
            prop_assert!(r > 0.0);
        }
    }

    /// Five-number summaries are ordered.
    #[test]
    fn summary_is_ordered(values in proptest::collection::vec(-1e9f64..1e9, 1..200)) {
        let s = Summary::of(&values);
        prop_assert!(s.min <= s.p25 + 1e-9);
        prop_assert!(s.p25 <= s.median + 1e-9);
        prop_assert!(s.median <= s.p75 + 1e-9);
        prop_assert!(s.p75 <= s.max + 1e-9);
        prop_assert_eq!(s.n, values.len());
    }

    /// Trace-codec round trip: arbitrary event streams (all four event
    /// kinds, arbitrary cores/addresses/timestamps/option fields) encode
    /// and decode to identity, including exact f64 boundary bits.
    #[test]
    fn trace_codec_round_trips_arbitrary_event_streams(
        raw in proptest::collection::vec((0u64..4, 0u64..(1 << 40), 0u64..10_000), 0..300),
        lambda in 0.0f64..1e6,
        cores in 1usize..8,
    ) {
        use gdp::sim::mem::Interference;
        use gdp::trace::{decode_shared, encode_shared, Boundary, SharedTrace, TraceInterval};

        let mut cycle = 0u64;
        let events: Vec<ProbeEvent> = raw
            .iter()
            .map(|&(kind, addr, dt)| {
                cycle += dt;
                let core = CoreId((addr % cores as u64) as u8);
                let block = addr * 64;
                let req = ReqId(addr ^ dt);
                match kind {
                    0 => ProbeEvent::LoadL1Miss { core, req, block, cycle },
                    1 => ProbeEvent::LoadL1MissDone {
                        core, req, block, cycle,
                        sms: addr % 2 == 0,
                        latency: dt * 3,
                        interference: Interference {
                            ring: addr % 97,
                            mc_queue: dt % 53,
                            mc_row: (addr % 41) as i64 - 20,
                        },
                        llc_hit: [None, Some(false), Some(true)][(addr % 3) as usize],
                        post_llc: dt % 400,
                    },
                    2 => ProbeEvent::LlcAccess { core, block, cycle, hit: dt % 2 == 0, req },
                    _ => ProbeEvent::Stall {
                        core,
                        start: cycle,
                        end: cycle + dt % 500,
                        cause: [
                            StallCause::Load,
                            StallCause::StoreBufferFull,
                            StallCause::L1Blocked,
                            StallCause::BranchRedirect,
                            StallCause::MemoryIndependent,
                        ][(addr % 5) as usize],
                        blocking_block: (addr % 2 == 0).then_some(block),
                        blocking_req: (addr % 3 == 0).then_some(req),
                        blocking_sms: [None, Some(false), Some(true)][(dt % 3) as usize],
                        blocking_interference: (addr % 5 == 0).then_some(Interference {
                            ring: 1, mc_queue: 2, mc_row: -3,
                        }),
                    },
                }
            })
            .collect();
        let boundary = Boundary {
            instr_start: 0,
            instr_end: events.len() as u64,
            stats: Default::default(),
            lambda,
            shared_latency: lambda / 3.0,
        };
        let trace = SharedTrace {
            cores,
            workload: format!("prop-{cores}c"),
            cycles: cycle + 1,
            final_stats: vec![Default::default(); cores],
            intervals: vec![TraceInterval { events, boundaries: vec![boundary; cores] }],
        };
        let decoded = decode_shared(&encode_shared(&trace)).expect("round trip decodes");
        prop_assert_eq!(decoded, trace);
    }

    /// Contiguous way masks are disjoint and exactly cover the allocated
    /// ways.
    #[test]
    fn way_masks_partition_the_cache(alloc in proptest::collection::vec(1usize..8, 1..8)) {
        let total: usize = alloc.iter().sum();
        prop_assume!(total <= 64);
        let masks = contiguous_masks(&alloc);
        let mut seen = 0u64;
        for (m, n) in masks.iter().zip(&alloc) {
            prop_assert_eq!(m.count_ones() as usize, *n);
            prop_assert_eq!(seen & m, 0, "masks overlap");
            seen |= m;
        }
        prop_assert_eq!(seen.count_ones() as usize, total);
    }
}

/// The simulator's cycle taxonomy is complete for arbitrary benchmarks.
#[test]
fn cycle_taxonomy_is_complete_across_benchmarks() {
    use gdp::sim::{SimConfig, System};
    for name in ["art", "mcf", "wrf", "libquantum", "vortex", "facerec"] {
        let b = gdp::workloads::by_name(name).unwrap();
        let mut sys = System::new(SimConfig::scaled(2), vec![b.stream(0)]);
        sys.run_cycles(15_000);
        sys.finalize();
        let s = sys.core_stats(0);
        assert_eq!(s.commit_cycles + s.stalls(), s.cycles, "{name}: taxonomy gap: {s:?}");
    }
}
