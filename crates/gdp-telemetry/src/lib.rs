//! # gdp-telemetry — deterministic metrics, span profiling, flight
//! recorder and logging
//!
//! A std-only, dependency-free observability layer for the estimation
//! stack. Five pieces:
//!
//! * [`MetricsRegistry`] — named counters, gauges, histograms, span
//!   timers and time-series behind cheap atomic handles. **Counters are
//!   the deterministic class**: everything registered as a counter
//!   counts a quantity that is identical for every `--jobs N` (events
//!   observed, intervals emitted, cycles skipped, cache hits), so the
//!   counters-only snapshot ([`Snapshot::counters_json`]) is
//!   byte-stable and CI-diffable. Gauges, histograms and spans carry
//!   scheduling- and wall-clock-dependent measurements and only appear
//!   in the full snapshot ([`Snapshot::to_json`]).
//! * [`Span`] — lightweight manual profiling: `registry.span(name)`
//!   once, then [`SpanHandle::enter`] around a phase; durations are
//!   aggregated per name (total + count + nested-child time for
//!   self-time reporting), never allocated per event.
//! * [`TimeSeries`] — the flight recorder's deterministic dimension:
//!   fixed-capacity rings sampled at accounting-interval boundaries
//!   (simulated time). The `timeseries` snapshot group
//!   ([`Snapshot::timeseries_json`]) is byte-identical across
//!   `--jobs N`, like the counters; the `timeseries_wall` group carries
//!   wall-clock per-interval samples and is not.
//! * [`TraceRecorder`] — the flight recorder's wall-clock dimension: a
//!   Chrome trace-event / Perfetto timeline (`--trace-out`) with one
//!   lane per pool worker; attach with [`MetricsRegistry::set_tracer`]
//!   and every entered span lands as a slice.
//! * [`log`] — a tiny leveled stderr logger (`GDP_LOG=quiet|info|debug`
//!   or [`log::set_level`]) replacing the scattered `eprintln!`
//!   diagnostics; default level `info` keeps output byte-identical to
//!   the pre-logger tree.
//!
//! Instrumentation costs nothing unless a registry is attached (hot
//! paths hold `Option` handles).

pub mod log;
pub mod profile;
pub mod registry;
pub mod timeseries;
pub mod trace_event;

pub use profile::render_profile;
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, Snapshot, Span, SpanHandle,
    SpanSnapshot,
};
pub use timeseries::{TimeSeries, TimeSeriesSnapshot};
pub use trace_event::TraceRecorder;
