//! The metrics registry: named counters, gauges, histograms, spans and
//! interval-indexed time-series.
//!
//! Registration interns a name into the registry map and returns a
//! cloneable atomic handle; the hot path only ever touches the handle
//! (one `fetch_add`), never the map. Names use dotted groups
//! (`engine.cycles_skipped`, `session.events.gdp`, `cache.hits`,
//! `pool.jobs`) — the group prefix is what the CI smoke test asserts on.
//!
//! The metric *kind* encodes a determinism contract, not just a shape:
//!
//! * **counter** — a deterministic count, identical for every `--jobs N`
//!   and every interleaving (sums of per-job counts are order-free);
//! * **gauge** — a scheduling-dependent value (steals, queue high-water,
//!   per-worker job counts); excluded from the deterministic snapshot;
//! * **histogram** — a distribution over power-of-two buckets
//!   (wall-clock per job, etc.); full snapshot only;
//! * **span** — aggregated wall-clock of a named phase (total + count +
//!   time spent inside *nested* spans, so profiles can report
//!   self-time); full snapshot only;
//! * **time-series** — a counter decomposed over accounting-interval
//!   indices ([`TimeSeries`]; deterministic, `timeseries` group) or a
//!   wall-clock per-interval measurement (`timeseries_wall` group).
//!
//! When a [`TraceRecorder`] is attached ([`MetricsRegistry::set_tracer`]
//! before any span is resolved), every entered span additionally lands
//! as a slice on the wall-clock trace timeline (`--trace-out`).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::timeseries::{TimeSeries, TimeSeriesSnapshot};
use crate::trace_event::{current_lane, TraceRecorder};

/// Number of power-of-two buckets a [`Histogram`] keeps (bucket `i`
/// counts values `v` with `2^(i-1) < v <= 2^i`, bucket 0 counts 0..=1).
pub const HISTOGRAM_BUCKETS: usize = 48;

/// A deterministic event counter (see the module docs for the contract).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A scheduling-dependent value (last-write or running-max semantics).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge to `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if larger (high-water-mark semantics).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Add `n` (running-total semantics for nondeterministic counts,
    /// e.g. work steals).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> HistogramInner {
        HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A power-of-two-bucketed distribution (typically nanoseconds).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// A standalone histogram (adopt it into a registry with
    /// [`MetricsRegistry::adopt_histogram`] to have it appear in
    /// snapshots).
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation of `v`.
    #[inline]
    pub fn record(&self, v: u64) {
        let idx = (64 - u64::leading_zeros(v.max(1)) as usize - 1).min(HISTOGRAM_BUCKETS - 1);
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Record a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos() as u64);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Non-empty `(bucket_ceiling, count)` pairs, ascending.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let n = c.load(Ordering::Relaxed);
                (n > 0).then(|| (1u64 << i, n))
            })
            .collect()
    }
}

#[derive(Debug, Default)]
struct SpanStat {
    total_ns: AtomicU64,
    count: AtomicU64,
    /// Wall-clock spent inside spans entered while this one was the
    /// innermost open span on its thread — the subtrahend of self-time.
    child_ns: AtomicU64,
}

thread_local! {
    /// The stack of currently-open spans on this thread: a dropped span
    /// attributes its elapsed time to the span below it, so profiles
    /// know each span's *self*-time regardless of metric names.
    static SPAN_STACK: RefCell<Vec<Arc<SpanStat>>> = const { RefCell::new(Vec::new()) };
}

/// A handle to one named span's aggregate (total wall-clock + count +
/// child time), plus the trace-slice context when a recorder is
/// attached to the owning registry.
#[derive(Debug, Clone, Default)]
pub struct SpanHandle {
    stat: Arc<SpanStat>,
    trace: Option<(Arc<str>, Arc<TraceRecorder>)>,
}

impl SpanHandle {
    /// Enter the span: returns a guard that, on drop, adds the elapsed
    /// wall-clock to the aggregate, attributes it as child time to the
    /// enclosing open span on this thread, and (with a tracer attached)
    /// records a timeline slice.
    #[inline]
    pub fn enter(&self) -> Span {
        SPAN_STACK.with(|s| s.borrow_mut().push(Arc::clone(&self.stat)));
        Span { stat: Arc::clone(&self.stat), trace: self.trace.clone(), start: Instant::now() }
    }

    /// Fold a pre-measured duration (and `count` entries) into the
    /// aggregate — the export path for subsystems that time themselves
    /// with plain atomics (e.g. the job pool). No child attribution, no
    /// trace slice: the measurement happened outside any span scope.
    pub fn add(&self, count: u64, total: Duration) {
        self.stat.total_ns.fetch_add(total.as_nanos() as u64, Ordering::Relaxed);
        self.stat.count.fetch_add(count, Ordering::Relaxed);
    }

    /// Total recorded wall-clock.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.stat.total_ns.load(Ordering::Relaxed))
    }

    /// Wall-clock attributed to spans nested inside this one.
    pub fn child_total(&self) -> Duration {
        Duration::from_nanos(self.stat.child_ns.load(Ordering::Relaxed))
    }

    /// Number of recorded entries.
    pub fn count(&self) -> u64 {
        self.stat.count.load(Ordering::Relaxed)
    }
}

/// An entered span; leaving scope (or [`Span::exit`]) records the
/// elapsed monotonic-clock duration into the handle's aggregate (and
/// the enclosing span's child time, and the trace timeline).
#[derive(Debug)]
pub struct Span {
    stat: Arc<SpanStat>,
    trace: Option<(Arc<str>, Arc<TraceRecorder>)>,
    start: Instant,
}

impl Span {
    /// Explicitly end the span (equivalent to dropping it).
    pub fn exit(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        let ns = elapsed.as_nanos() as u64;
        self.stat.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.stat.count.fetch_add(1, Ordering::Relaxed);
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            stack.pop(); // this span's own frame (guards drop LIFO)
            if let Some(parent) = stack.last() {
                parent.child_ns.fetch_add(ns, Ordering::Relaxed);
            }
        });
        if let Some((name, tracer)) = &self.trace {
            tracer.record_complete(name, current_lane(), self.start, elapsed);
        }
    }
}

#[derive(Debug, Clone)]
enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    Span(SpanHandle),
    TimeSeries(TimeSeries),
}

/// The registry of named metrics (see the module docs).
///
/// Thread-safe and shared by `Arc`: campaign jobs, pool workers and
/// embedded sessions all write through cloned handles. One registry per
/// campaign — or, in a multi-tenant server, one per tenant session
/// (`SessionBuilder::with_metrics` takes an `Arc`, so a host hands each
/// session its own).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    slots: Mutex<BTreeMap<String, Slot>>,
    tracer: Mutex<Option<Arc<TraceRecorder>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// A fresh registry behind an `Arc` (the shape every attachment
    /// point takes).
    pub fn shared() -> Arc<MetricsRegistry> {
        Arc::new(MetricsRegistry::new())
    }

    /// Attach a trace recorder: every span resolved *after* this call
    /// additionally records a timeline slice per entry. Attach before
    /// handing the registry to any session — handles resolved earlier
    /// keep aggregating without tracing.
    pub fn set_tracer(&self, tracer: Arc<TraceRecorder>) {
        *self.tracer.lock().expect("metrics registry poisoned") = Some(tracer);
    }

    /// The attached trace recorder, if any.
    pub fn tracer(&self) -> Option<Arc<TraceRecorder>> {
        self.tracer.lock().expect("metrics registry poisoned").clone()
    }

    fn slot(&self, name: &str, mk: impl FnOnce() -> Slot) -> Slot {
        let mut slots = self.slots.lock().expect("metrics registry poisoned");
        slots.entry(name.to_string()).or_insert_with(mk).clone()
    }

    /// Get or create the counter `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.slot(name, || Slot::Counter(Counter::default())) {
            Slot::Counter(c) => c,
            _ => panic!("metric `{name}` is not a counter"),
        }
    }

    /// Get or create the gauge `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.slot(name, || Slot::Gauge(Gauge::default())) {
            Slot::Gauge(g) => g,
            _ => panic!("metric `{name}` is not a gauge"),
        }
    }

    /// Get or create the histogram `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.slot(name, || Slot::Histogram(Histogram::default())) {
            Slot::Histogram(h) => h,
            _ => panic!("metric `{name}` is not a histogram"),
        }
    }

    /// Get or create the span `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn span(&self, name: &str) -> SpanHandle {
        let trace = self
            .tracer
            .lock()
            .expect("metrics registry poisoned")
            .as_ref()
            .map(|t| (Arc::<str>::from(name), Arc::clone(t)));
        match self.slot(name, || Slot::Span(SpanHandle { stat: Arc::default(), trace })) {
            Slot::Span(s) => s,
            _ => panic!("metric `{name}` is not a span"),
        }
    }

    /// Get or create the **deterministic** time-series `name` (exported
    /// in the `timeseries` group; samples must be simulated-work
    /// quantities recorded at session-local interval indices).
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn time_series(&self, name: &str) -> TimeSeries {
        match self.slot(name, || Slot::TimeSeries(TimeSeries::new(false))) {
            Slot::TimeSeries(ts) if !ts.is_wall() => ts,
            Slot::TimeSeries(_) => panic!("metric `{name}` is a wall-clock time-series"),
            _ => panic!("metric `{name}` is not a time-series"),
        }
    }

    /// Get or create the **wall-clock** time-series `name` (exported in
    /// the `timeseries_wall` group, outside every byte-compared
    /// surface).
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn wall_time_series(&self, name: &str) -> TimeSeries {
        match self.slot(name, || Slot::TimeSeries(TimeSeries::new(true))) {
            Slot::TimeSeries(ts) if ts.is_wall() => ts,
            Slot::TimeSeries(_) => panic!("metric `{name}` is a deterministic time-series"),
            _ => panic!("metric `{name}` is not a time-series"),
        }
    }

    /// Register an externally-owned histogram under `name` (subsystems
    /// that measure before a registry exists, e.g. the job pool).
    pub fn adopt_histogram(&self, name: &str, h: &Histogram) {
        let mut slots = self.slots.lock().expect("metrics registry poisoned");
        slots.insert(name.to_string(), Slot::Histogram(h.clone()));
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let slots = self.slots.lock().expect("metrics registry poisoned");
        let mut s = Snapshot::default();
        for (name, slot) in slots.iter() {
            match slot {
                Slot::Counter(c) => s.counters.push((name.clone(), c.get())),
                Slot::Gauge(g) => s.gauges.push((name.clone(), g.get())),
                Slot::Histogram(h) => s.histograms.push((
                    name.clone(),
                    HistogramSnapshot { count: h.count(), sum: h.sum(), buckets: h.buckets() },
                )),
                Slot::Span(sp) => s.spans.push(SpanSnapshot {
                    name: name.clone(),
                    count: sp.count(),
                    total: sp.total(),
                    child: sp.child_total(),
                }),
                Slot::TimeSeries(ts) => {
                    let dest =
                        if ts.is_wall() { &mut s.timeseries_wall } else { &mut s.timeseries };
                    dest.push((name.clone(), ts.snapshot()));
                }
            }
        }
        s
    }
}

/// One span's aggregate in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Registered span name.
    pub name: String,
    /// Times entered.
    pub count: u64,
    /// Total wall-clock across entries.
    pub total: Duration,
    /// Wall-clock spent inside nested spans (runtime nesting, not name
    /// prefixes): `total - child` is this span's self-time.
    pub child: Duration,
}

impl SpanSnapshot {
    /// Wall-clock spent in this span itself, with nested spans
    /// subtracted out (clamped at zero: child time measured by separate
    /// clock reads can overshoot the parent's by nanoseconds).
    pub fn self_time(&self) -> Duration {
        self.total.saturating_sub(self.child)
    }
}

/// One histogram's state in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Non-empty `(bucket_ceiling, count)` pairs, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// The `p`-th percentile (0 < p ≤ 100) as the **power-of-two label
    /// of the bucket** holding the rank-⌈p/100·count⌉ observation
    /// (bucket `2^i` counts values in `2^i..2^(i+1)`, so the result is
    /// within 2× of the true value — the resolution the buckets carry).
    /// `None` on an empty histogram. Observations beyond the last
    /// bucket saturate into it, so the result never exceeds
    /// `2^(HISTOGRAM_BUCKETS - 1)`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(ceiling, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(ceiling);
            }
        }
        self.buckets.last().map(|&(ceiling, _)| ceiling)
    }

    /// The (p50, p90, p99) triple ((0, 0, 0) on an empty histogram) —
    /// the shape the JSON sinks and the profile table print.
    pub fn percentiles(&self) -> (u64, u64, u64) {
        (
            self.percentile(50.0).unwrap_or(0),
            self.percentile(90.0).unwrap_or(0),
            self.percentile(99.0).unwrap_or(0),
        )
    }
}

/// A point-in-time copy of a registry, sorted by metric name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Deterministic counters (name, value).
    pub counters: Vec<(String, u64)>,
    /// Scheduling-dependent gauges (name, value).
    pub gauges: Vec<(String, u64)>,
    /// Span aggregates.
    pub spans: Vec<SpanSnapshot>,
    /// Histograms.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Deterministic interval-indexed time-series.
    pub timeseries: Vec<(String, TimeSeriesSnapshot)>,
    /// Wall-clock interval-indexed time-series.
    pub timeseries_wall: Vec<(String, TimeSeriesSnapshot)>,
}

pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_pairs(out: &mut String, pairs: &[(String, u64)], indent: &str) {
    out.push('{');
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(indent);
        out.push_str("  ");
        push_json_str(out, k);
        out.push_str(": ");
        out.push_str(&v.to_string());
    }
    if !pairs.is_empty() {
        out.push('\n');
        out.push_str(indent);
    }
    out.push('}');
}

fn push_timeseries(out: &mut String, series: &[(String, TimeSeriesSnapshot)], indent: &str) {
    out.push('{');
    for (i, (name, ts)) in series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(indent);
        out.push_str("  ");
        push_json_str(out, name);
        let max_index = ts.max_index.map(|m| m.to_string()).unwrap_or_else(|| "null".to_string());
        out.push_str(&format!(
            ": {{\"samples\": {}, \"max_index\": {max_index}, \"capacity\": {}, \"bins\": [",
            ts.samples, ts.capacity
        ));
        for (j, b) in ts.bins.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&b.to_string());
        }
        out.push_str("]}");
    }
    if !series.is_empty() {
        out.push('\n');
        out.push_str(indent);
    }
    out.push('}');
}

impl Snapshot {
    /// The **deterministic sink**: counters only, stable (sorted) key
    /// order, integer values — byte-identical across `--jobs N` and
    /// suitable for test/CI diffing.
    pub fn counters_json(&self) -> String {
        let mut out = String::new();
        push_pairs(&mut out, &self.counters, "");
        out.push('\n');
        out
    }

    /// The deterministic **time-series sink**: the `timeseries` group
    /// alone, stable key order — like [`Snapshot::counters_json`],
    /// byte-identical across `--jobs N` (bins aggregate by
    /// session-local interval index with order-free sums). The
    /// wall-clock `timeseries_wall` group is deliberately absent.
    pub fn timeseries_json(&self) -> String {
        let mut out = String::new();
        push_timeseries(&mut out, &self.timeseries, "");
        out.push('\n');
        out
    }

    /// The **full sink**: counters, gauges, span timings (total, child
    /// and derived self-time), histograms with p50/p90/p99, and both
    /// time-series groups (wall-clock-dependent — for
    /// `results/<figure>.metrics.json` and the run record, never for
    /// byte-diffed `data` sections).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": ");
        push_pairs(&mut out, &self.counters, "  ");
        out.push_str(",\n  \"gauges\": ");
        push_pairs(&mut out, &self.gauges, "  ");
        out.push_str(",\n  \"spans\": {");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            push_json_str(&mut out, &s.name);
            out.push_str(&format!(
                ": {{\"count\": {}, \"total_secs\": {:.6}, \"self_secs\": {:.6}}}",
                s.count,
                s.total.as_secs_f64(),
                s.self_time().as_secs_f64()
            ));
        }
        if !self.spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            push_json_str(&mut out, name);
            let (p50, p90, p99) = h.percentiles();
            out.push_str(&format!(
                ": {{\"count\": {}, \"sum\": {}, \"p50\": {p50}, \"p90\": {p90}, \
                 \"p99\": {p99}, \"buckets\": [",
                h.count, h.sum
            ));
            for (j, (ceil, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{ceil}, {n}]"));
            }
            out.push_str("]}");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"timeseries\": ");
        push_timeseries(&mut out, &self.timeseries, "  ");
        out.push_str(",\n  \"timeseries_wall\": ");
        push_timeseries(&mut out, &self.timeseries_wall, "  ");
        out.push_str("\n}\n");
        out
    }

    /// Value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Sum of all counters under a dotted `group.` prefix.
    pub fn group_total(&self, group: &str) -> u64 {
        let prefix = format!("{group}.");
        self.counters.iter().filter(|(k, _)| k.starts_with(&prefix)).map(|(_, v)| v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let r = MetricsRegistry::new();
        r.counter("b.two").add(2);
        r.counter("a.one").inc();
        r.counter("b.two").add(3);
        let s = r.snapshot();
        assert_eq!(s.counters, vec![("a.one".to_string(), 1), ("b.two".to_string(), 5)]);
        assert_eq!(s.counter("b.two"), Some(5));
        assert_eq!(s.counter("missing"), None);
        assert_eq!(s.group_total("b"), 5);
    }

    #[test]
    fn counters_json_is_deterministic_regardless_of_registration_order() {
        let a = MetricsRegistry::new();
        a.counter("x").add(1);
        a.counter("m").add(2);
        let b = MetricsRegistry::new();
        b.counter("m").add(2);
        b.counter("x").add(1);
        assert_eq!(a.snapshot().counters_json(), b.snapshot().counters_json());
        assert!(a.snapshot().counters_json().contains("\"m\": 2"));
    }

    #[test]
    fn gauges_keep_max_and_running_totals() {
        let r = MetricsRegistry::new();
        let g = r.gauge("pool.depth_hwm");
        g.set_max(4);
        g.set_max(2);
        assert_eq!(g.get(), 4);
        let s = r.gauge("pool.steals");
        s.add(3);
        s.add(2);
        assert_eq!(s.get(), 5);
        let snap = r.snapshot();
        assert!(snap.counters.is_empty(), "gauges are not counters");
        assert_eq!(snap.gauges.len(), 2);
    }

    #[test]
    fn spans_aggregate_duration_and_count() {
        let r = MetricsRegistry::new();
        let h = r.span("phase.x");
        for _ in 0..3 {
            let _guard = h.enter();
            std::hint::black_box(42);
        }
        h.add(2, Duration::from_millis(5));
        assert_eq!(h.count(), 5);
        assert!(h.total() >= Duration::from_millis(5));
        let snap = r.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].count, 5);
    }

    #[test]
    fn nested_spans_attribute_child_time_to_the_enclosing_span() {
        let r = MetricsRegistry::new();
        let outer = r.span("outer");
        let inner = r.span("inner.work"); // no name relation required
        {
            let _o = outer.enter();
            for _ in 0..4 {
                let _i = inner.enter();
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert!(outer.child_total() > Duration::ZERO);
        assert!(outer.child_total() <= outer.total(), "child time nests inside the parent");
        assert_eq!(inner.child_total(), Duration::ZERO, "leaf spans have no children");
        let snap = r.snapshot();
        let o = snap.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(o.self_time(), o.total - o.child);
        // Sibling guards in one scope drop LIFO, matching the stack.
        {
            let _a = outer.enter();
            let _b = inner.enter();
        }
        // A span measured outside any scope attributes nothing.
        inner.add(1, Duration::from_millis(3));
        assert!(outer.child_total() <= outer.total());
    }

    #[test]
    fn spans_record_trace_slices_when_a_tracer_is_attached() {
        let r = MetricsRegistry::new();
        let tracer = TraceRecorder::shared();
        r.set_tracer(Arc::clone(&tracer));
        assert!(r.tracer().is_some());
        {
            let _g = r.span("traced.phase").enter();
        }
        assert_eq!(tracer.len(), 1);
        assert!(tracer.to_json().contains("traced.phase"));
    }

    #[test]
    fn histograms_bucket_by_power_of_two() {
        let h = Histogram::new();
        h.record(0); // clamped into bucket 0 (ceiling 1)
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        assert_eq!(h.buckets(), vec![(1, 2), (2, 2), (1024, 1)]);
        let r = MetricsRegistry::new();
        r.adopt_histogram("pool.job_ns", &h);
        assert_eq!(r.snapshot().histograms.len(), 1);
    }

    #[test]
    fn percentiles_follow_bucket_boundaries() {
        // 10 observations: 8 in bucket ceiling 2, 2 in ceiling 1024.
        let h = Histogram::new();
        for _ in 0..8 {
            h.record(2);
        }
        h.record(600);
        h.record(1000); // both land in bucket 512..1024
        let snap = HistogramSnapshot { count: h.count(), sum: h.sum(), buckets: h.buckets() };
        assert_eq!(snap.percentile(50.0), Some(2)); // rank 5 of 10
        assert_eq!(snap.percentile(80.0), Some(2)); // rank 8: last in the low bucket
        assert_eq!(snap.percentile(90.0), Some(512)); // rank 9 crosses into 512..1024
        assert_eq!(snap.percentile(99.0), Some(512));
        assert_eq!(snap.percentiles(), (2, 512, 512));
    }

    #[test]
    fn percentile_of_an_empty_histogram_is_none() {
        let snap = HistogramSnapshot { count: 0, sum: 0, buckets: vec![] };
        assert_eq!(snap.percentile(50.0), None);
        assert_eq!(snap.percentiles(), (0, 0, 0));
    }

    #[test]
    fn percentile_of_a_single_sample_is_its_bucket_label() {
        let h = Histogram::new();
        h.record(300); // bucket 256..512: label 256
        let snap = HistogramSnapshot { count: h.count(), sum: h.sum(), buckets: h.buckets() };
        for p in [1.0, 50.0, 99.0, 100.0] {
            assert_eq!(snap.percentile(p), Some(256), "p{p}");
        }
    }

    #[test]
    fn percentile_saturates_at_the_top_bucket() {
        let h = Histogram::new();
        h.record(u64::MAX); // far past 2^47: clamps into the last bucket
        h.record(u64::MAX / 2);
        let snap = HistogramSnapshot { count: h.count(), sum: h.sum(), buckets: h.buckets() };
        let top = 1u64 << (HISTOGRAM_BUCKETS - 1);
        assert_eq!(snap.percentile(50.0), Some(top));
        assert_eq!(snap.percentile(99.0), Some(top));
    }

    #[test]
    fn time_series_kinds_are_enforced_and_snapshot_into_their_groups() {
        let r = MetricsRegistry::new();
        r.time_series("ts.a").record(0, 3);
        r.wall_time_series("tsw.b").record(1, 7);
        // Same name returns the same series.
        r.time_series("ts.a").record(0, 1);
        let snap = r.snapshot();
        assert_eq!(snap.timeseries.len(), 1);
        assert_eq!(snap.timeseries[0].0, "ts.a");
        assert_eq!(snap.timeseries[0].1.bins, vec![4]);
        assert_eq!(snap.timeseries_wall.len(), 1);
        assert_eq!(snap.timeseries_wall[0].1.max_index, Some(1));
        let ts_json = snap.timeseries_json();
        assert!(ts_json.contains("\"ts.a\""), "{ts_json}");
        assert!(!ts_json.contains("tsw.b"), "wall series stay out of the deterministic sink");
    }

    #[test]
    #[should_panic(expected = "is a wall-clock time-series")]
    fn time_series_wall_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.wall_time_series("x");
        r.time_series("x");
    }

    #[test]
    fn same_name_returns_the_same_metric() {
        let r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(1);
        b.add(1);
        assert_eq!(r.counter("x").get(), 2);
    }

    #[test]
    #[should_panic(expected = "is not a gauge")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn full_json_is_parseable_shape() {
        let r = MetricsRegistry::new();
        r.counter("a").add(1);
        r.gauge("g").set(2);
        r.span("s").add(1, Duration::from_micros(10));
        r.histogram("h").record(7);
        r.time_series("ts.x").record(0, 2);
        r.wall_time_series("tsw.y").record(0, 9);
        let j = r.snapshot().to_json();
        for key in [
            "\"counters\"",
            "\"gauges\"",
            "\"spans\"",
            "\"histograms\"",
            "total_secs",
            "self_secs",
            "\"p50\"",
            "\"p99\"",
            "\"timeseries\"",
            "\"timeseries_wall\"",
            "\"max_index\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        // Escaping: a hostile name must not break the document.
        let r2 = MetricsRegistry::new();
        r2.counter("we\"ird\\name").add(1);
        assert!(r2.snapshot().counters_json().contains("we\\\"ird\\\\name"));
    }
}
