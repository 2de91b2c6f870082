//! Interval-indexed time-series: the flight recorder's deterministic
//! per-interval dimension.
//!
//! A [`TimeSeries`] is a fixed-capacity ring of atomic bins sampled at
//! **accounting-interval boundaries** — simulated time, never wall
//! clock. `record(index, v)` folds `v` into `bins[index % capacity]`
//! with a plain `fetch_add`, so samples taken by concurrent sessions at
//! the same *session-local* interval index aggregate order-free: the
//! resulting series is byte-identical for every `--jobs N`, exactly like
//! the counters it decomposes over simulated time.
//!
//! Two kinds share the type:
//!
//! * **deterministic** ([`MetricsRegistry::time_series`]) — samples are
//!   simulated-work quantities (events per interval, engine cycle
//!   deltas, LLC access/miss deltas). Exported as the `timeseries`
//!   group of the metrics JSON and pinned `--jobs`-invariant by the
//!   determinism suite.
//! * **wall-clock** ([`MetricsRegistry::wall_time_series`]) — samples
//!   are nanoseconds (per-technique estimate time per interval).
//!   Exported as the separate `timeseries_wall` group and *excluded*
//!   from every byte-compared surface.
//!
//! Runs longer than the capacity wrap: bin `i` then holds the sum of
//! intervals `i, i+capacity, i+2·capacity, …` — a coarse but still
//! deterministic folding. `max_index` records how far the run actually
//! reached.
//!
//! [`MetricsRegistry::time_series`]: crate::MetricsRegistry::time_series
//! [`MetricsRegistry::wall_time_series`]: crate::MetricsRegistry::wall_time_series

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bins a [`TimeSeries`] ring keeps. Tiny-scale campaigns produce ~26
/// intervals per session (no wrap); longer runs fold modulo this.
pub const TIMESERIES_BINS: usize = 64;

#[derive(Debug)]
struct TimeSeriesInner {
    bins: Vec<AtomicU64>,
    samples: AtomicU64,
    /// Highest interval index recorded plus one (0 = never recorded),
    /// so `max_index()` can distinguish "no samples" from "index 0".
    end: AtomicU64,
    wall: bool,
}

/// A fixed-capacity interval-indexed ring of atomic bins (see the
/// module docs for the determinism contract).
#[derive(Debug, Clone)]
pub struct TimeSeries(Arc<TimeSeriesInner>);

impl TimeSeries {
    /// A standalone series (`wall` selects the export group; registry
    /// users go through [`MetricsRegistry::time_series`] /
    /// [`MetricsRegistry::wall_time_series`] instead).
    ///
    /// [`MetricsRegistry::time_series`]: crate::MetricsRegistry::time_series
    /// [`MetricsRegistry::wall_time_series`]: crate::MetricsRegistry::wall_time_series
    pub fn new(wall: bool) -> TimeSeries {
        TimeSeries(Arc::new(TimeSeriesInner {
            bins: (0..TIMESERIES_BINS).map(|_| AtomicU64::new(0)).collect(),
            samples: AtomicU64::new(0),
            end: AtomicU64::new(0),
            wall,
        }))
    }

    /// Whether this series carries wall-clock samples (exported under
    /// `timeseries_wall` instead of the deterministic `timeseries`).
    pub fn is_wall(&self) -> bool {
        self.0.wall
    }

    /// Fold `v` into the bin for interval `index` (order-free sum).
    #[inline]
    pub fn record(&self, index: u64, v: u64) {
        let cap = self.0.bins.len() as u64;
        self.0.bins[(index % cap) as usize].fetch_add(v, Ordering::Relaxed);
        self.0.samples.fetch_add(1, Ordering::Relaxed);
        self.0.end.fetch_max(index + 1, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn samples(&self) -> u64 {
        self.0.samples.load(Ordering::Relaxed)
    }

    /// Highest interval index recorded, or `None` when empty.
    pub fn max_index(&self) -> Option<u64> {
        match self.0.end.load(Ordering::Relaxed) {
            0 => None,
            end => Some(end - 1),
        }
    }

    /// Point-in-time copy for a snapshot.
    pub fn snapshot(&self) -> TimeSeriesSnapshot {
        let cap = self.0.bins.len();
        let used = match self.max_index() {
            None => 0,
            Some(mi) => (mi as usize + 1).min(cap),
        };
        TimeSeriesSnapshot {
            samples: self.samples(),
            max_index: self.max_index(),
            capacity: cap as u64,
            bins: self.0.bins[..used].iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

impl Default for TimeSeries {
    fn default() -> TimeSeries {
        TimeSeries::new(false)
    }
}

/// One series' state in a [`Snapshot`](crate::Snapshot): `bins[i]` is
/// the sum over interval indices `≡ i (mod capacity)`, trimmed to the
/// used prefix (`min(max_index + 1, capacity)` entries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeriesSnapshot {
    /// Samples recorded.
    pub samples: u64,
    /// Highest interval index recorded (`None` when empty).
    pub max_index: Option<u64>,
    /// Ring capacity.
    pub capacity: u64,
    /// Used prefix of the ring.
    pub bins: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_fold_by_index_and_track_the_end() {
        let ts = TimeSeries::new(false);
        assert_eq!(ts.max_index(), None);
        assert_eq!(ts.snapshot().bins, Vec::<u64>::new());
        ts.record(0, 5);
        ts.record(2, 7);
        ts.record(0, 1);
        assert_eq!(ts.samples(), 3);
        assert_eq!(ts.max_index(), Some(2));
        let s = ts.snapshot();
        assert_eq!(s.bins, vec![6, 0, 7]);
        assert_eq!(s.capacity, TIMESERIES_BINS as u64);
    }

    #[test]
    fn long_runs_wrap_modulo_capacity() {
        let ts = TimeSeries::new(true);
        assert!(ts.is_wall());
        let cap = TIMESERIES_BINS as u64;
        ts.record(1, 10);
        ts.record(1 + cap, 20); // same bin, one ring-lap later
        let s = ts.snapshot();
        assert_eq!(s.max_index, Some(1 + cap));
        assert_eq!(s.bins.len(), TIMESERIES_BINS, "wrapped ring is fully used");
        assert_eq!(s.bins[1], 30);
    }

    #[test]
    fn concurrent_records_aggregate_order_free() {
        let ts = TimeSeries::new(false);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let ts = ts.clone();
                s.spawn(move || {
                    for i in 0..10u64 {
                        ts.record(i, i + 1);
                    }
                });
            }
        });
        let snap = ts.snapshot();
        assert_eq!(snap.samples, 40);
        for (i, b) in snap.bins.iter().enumerate() {
            assert_eq!(*b, 4 * (i as u64 + 1));
        }
    }
}
