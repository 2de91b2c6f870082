//! The trace data model and the [`Recorder`] that captures it.
//!
//! A [`SharedTrace`] is exactly what a [`PrivateModeEstimator`] sees over
//! a shared-mode run: per accounting interval, the drained probe-event
//! batch followed by one [`Boundary`] per core, plus the run's final
//! cumulative statistics. A [`PrivateTrace`] is the private-mode
//! ground-truth record (per-checkpoint CPIs and reference CPLs) — pure
//! data whose "replay" is just decoding. A [`StateCheckpoint`] is a
//! session's observer states at one interval boundary: a suspended
//! session is stored as one, and a [`CheckpointFile`] indexes one per
//! interior boundary in memory.
//!
//! [`PrivateModeEstimator`]: gdp_core::model::PrivateModeEstimator

use gdp_core::model::IntervalMeasurement;
use gdp_core::state::EstimatorState;
use gdp_sim::probe::ProbeEvent;
use gdp_sim::stats::CoreStats;

/// Per-core record of one accounting-interval boundary: the exact inputs
/// the live run hands to `PrivateModeEstimator::estimate`, plus the
/// committed-instruction checkpoint identity the accuracy evaluation
/// keys on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Boundary {
    /// Committed-instruction count at the interval start.
    pub instr_start: u64,
    /// Committed-instruction count at the interval end (the checkpoint).
    pub instr_end: u64,
    /// Interval delta of the core's counters.
    pub stats: CoreStats,
    /// DIEF private-latency estimate λ̂ (exact f64 bits of the live value).
    pub lambda: f64,
    /// Measured shared average SMS latency (exact f64 bits).
    pub shared_latency: f64,
}

impl Boundary {
    /// The boundary a live run measures between a core's previous and
    /// current cumulative statistics: the instruction window, the stats
    /// delta and its measured shared latency. λ̂ is left at 0.0 for the
    /// estimation pipeline's DIEF to fill in.
    pub fn between(prev: &CoreStats, cum: &CoreStats) -> Boundary {
        let stats = cum.delta(prev);
        Boundary {
            instr_start: prev.committed_instrs,
            instr_end: cum.committed_instrs,
            stats,
            lambda: 0.0,
            shared_latency: stats.avg_sms_latency(),
        }
    }

    /// The estimator-facing measurement, bit-identical to the live one.
    pub fn measurement(&self) -> IntervalMeasurement {
        IntervalMeasurement {
            stats: self.stats,
            lambda: self.lambda,
            shared_latency: self.shared_latency,
        }
    }
}

/// One accounting interval: the probe events drained at the boundary and
/// one [`Boundary`] per core (in core order).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceInterval {
    /// Probe events of the interval, in drain order.
    pub events: Vec<ProbeEvent>,
    /// Per-core boundary records, in core order.
    pub boundaries: Vec<Boundary>,
}

/// A recorded shared-mode run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SharedTrace {
    /// Number of cores in the CMP.
    pub cores: usize,
    /// Workload identifier (diagnostics; the cache key carries identity).
    pub workload: String,
    /// Total cycles simulated.
    pub cycles: u64,
    /// Final cumulative per-core statistics.
    pub final_stats: Vec<CoreStats>,
    /// Interval records in time order.
    pub intervals: Vec<TraceInterval>,
}

impl SharedTrace {
    /// Total probe events across all intervals.
    pub fn event_count(&self) -> usize {
        self.intervals.iter().map(|iv| iv.events.len()).sum()
    }
}

/// Cumulative private-mode state at one instruction checkpoint — the
/// record gdp-experiments' private runs produce (it names the type
/// `PrivateCheckpoint`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceCheckpoint {
    /// Requested committed-instruction count.
    pub instrs: u64,
    /// Cycle at which the count was reached.
    pub cycle: u64,
    /// Cumulative statistics at that point.
    pub stats: CoreStats,
    /// Private-mode reference CPL harvested since the previous checkpoint.
    pub cpl: u64,
}

/// A recorded private-mode ground-truth run (gdp-experiments' `PrivateRun`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PrivateTrace {
    /// Benchmark name (diagnostics).
    pub bench: String,
    /// Address-space base the benchmark ran at.
    pub base: u64,
    /// Checkpoint records in order.
    pub checkpoints: Vec<TraceCheckpoint>,
    /// Final cumulative statistics.
    pub total: CoreStats,
}

/// Snapshots of a session's observer states at one interval boundary of
/// a stream: a session resumed from them and fed intervals `at..` is
/// bit-identical to one fed the whole stream — the unit of on-demand
/// per-interval queries and of the serve evict/resume path (one per
/// STATE entry on disk).
#[derive(Debug, Clone, PartialEq)]
pub struct StateCheckpoint {
    /// Number of intervals fully replayed before this state was captured
    /// (checkpoint `at = k` restores a session about to replay interval
    /// `k`; `k = 0` is the cold state and is never stored).
    pub at: u64,
    /// Per-observer snapshots, keyed by observer id (`gdp-units`, `dief`,
    /// or a stateful technique's id such as `asm`).
    pub states: Vec<(String, EstimatorState)>,
}

impl StateCheckpoint {
    /// The snapshot of observer `id`, if the checkpoint holds one.
    pub fn state(&self, id: &str) -> Option<&EstimatorState> {
        self.states.iter().find(|(s, _)| s == id).map(|(_, e)| e)
    }
}

/// The in-memory index of restore points over one shared trace: observer
/// states at every interior interval boundary, summarized on demand from
/// the trace, so a query of interval `k` restores `checkpoints[k - 1]`
/// (interval 0 starts cold). Never written to disk — the one snapshot
/// that is, a suspended session's, is a single [`StateCheckpoint`] in a
/// STATE entry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckpointFile {
    /// Workload identifier (diagnostics; must match the trace's).
    pub workload: String,
    /// Core count of the summarized trace.
    pub cores: usize,
    /// Total interval count of the summarized trace.
    pub intervals: u64,
    /// Checkpoints in ascending `at` order.
    pub checkpoints: Vec<StateCheckpoint>,
}

/// The capture hook of a shared-mode run: builds a [`SharedTrace`]. The
/// calls mirror the run's structure: one [`Recorder::record_events`] per
/// drained interval batch, then one [`Recorder::record_boundary`] per
/// core, and a final [`Recorder::record_final`] when the run ends.
#[derive(Debug, Default)]
pub struct Recorder {
    trace: SharedTrace,
}

impl Recorder {
    /// A recorder for a `cores`-core run of `workload`.
    pub fn new(cores: usize, workload: &str) -> Recorder {
        Recorder {
            trace: SharedTrace { cores, workload: workload.to_string(), ..Default::default() },
        }
    }

    /// The completed trace (call after the run's `record_final`).
    pub fn into_trace(self) -> SharedTrace {
        self.trace
    }

    /// An interval's probe-event batch was drained (opens the interval).
    pub fn record_events(&mut self, events: &[ProbeEvent]) {
        self.trace
            .intervals
            .push(TraceInterval { events: events.to_vec(), boundaries: Vec::new() });
    }

    /// One core's boundary record for the currently open interval.
    pub fn record_boundary(&mut self, b: Boundary) {
        self.trace
            .intervals
            .last_mut()
            .expect("record_events must open an interval before boundaries")
            .boundaries
            .push(b);
    }

    /// The run finished.
    pub fn record_final(&mut self, cycles: u64, final_stats: &[CoreStats]) {
        self.trace.cycles = cycles;
        self.trace.final_stats = final_stats.to_vec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_sim::types::{CoreId, ReqId};

    fn ev(cycle: u64) -> ProbeEvent {
        ProbeEvent::LoadL1Miss { core: CoreId(0), req: ReqId(cycle), block: 0x40, cycle }
    }

    #[test]
    fn recorder_builds_interval_structure() {
        let mut r = Recorder::new(2, "w");
        r.record_events(&[ev(1), ev(2)]);
        r.record_boundary(Boundary {
            instr_start: 0,
            instr_end: 100,
            stats: CoreStats::default(),
            lambda: 1.5,
            shared_latency: 2.5,
        });
        r.record_boundary(Boundary {
            instr_start: 0,
            instr_end: 90,
            stats: CoreStats::default(),
            lambda: 0.5,
            shared_latency: 0.0,
        });
        r.record_events(&[ev(3)]);
        r.record_final(500, &[CoreStats::default(), CoreStats::default()]);
        let t = r.into_trace();
        assert_eq!(t.cores, 2);
        assert_eq!(t.intervals.len(), 2);
        assert_eq!(t.intervals[0].events.len(), 2);
        assert_eq!(t.intervals[0].boundaries.len(), 2);
        assert_eq!(t.intervals[1].boundaries.len(), 0);
        assert_eq!(t.cycles, 500);
        assert_eq!(t.event_count(), 3);
    }

    #[test]
    fn boundary_measurement_round_trips_bits() {
        let b = Boundary {
            instr_start: 1,
            instr_end: 2,
            stats: CoreStats { cycles: 7, ..Default::default() },
            lambda: 140.25,
            shared_latency: 181.125,
        };
        let m = b.measurement();
        assert_eq!(m.lambda.to_bits(), b.lambda.to_bits());
        assert_eq!(m.shared_latency.to_bits(), b.shared_latency.to_bits());
        assert_eq!(m.stats, b.stats);
    }
}
