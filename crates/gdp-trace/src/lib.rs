//! # gdp-trace — event-trace capture & replay with a content-addressed
//! campaign cache: simulate once, estimate many
//!
//! Every transparent accounting technique (GDP, GDP-O, PTCA, ITCA)
//! consumes the same estimator-facing stream: probe events between
//! interval boundaries plus, at each boundary, the per-core
//! [`IntervalMeasurement`](gdp_core::model::IntervalMeasurement) inputs
//! (counter delta, DIEF λ̂, measured shared latency). The paper argues
//! this dataflow structure is invariant under the technique attached —
//! which also makes it a perfect *recording surface*: capture the stream
//! once per (configuration × workload) and any technique, including ones
//! that do not exist yet, can be re-evaluated from the trace at memory
//! speed, bit-identically to the live run.
//!
//! Layers:
//!
//! * [`model`] — the trace data model and the [`TraceSink`](model::TraceSink)
//!   capture hook the experiment drivers call into.
//! * [`codec`] — varint/zigzag primitives, CRC32 and the typed
//!   [`TraceError`](codec::TraceError) decoder errors (no serde; the same
//!   hand-rolled discipline as `gdp-runner::json`).
//! * [`format`] — the versioned, sectioned binary file format with
//!   per-section CRCs and one strict decoder per kind: shared traces
//!   (whole, or streamed one interval at a time by [`SharedTraceReader`]),
//!   private traces, and STATE entries (a suspended session's snapshot).
//! * [`frame`] — the section discipline over a byte *stream*: an
//!   incremental [`FrameAssembler`](frame::FrameAssembler) reassembling
//!   CRC-checked frames from arbitrarily-chunked reads (the serve wire
//!   protocol's receive half).
//! * [`cache`] — the content-addressed trace store under
//!   `results/traces/`, keyed by an FNV-1a hash of (simulator config,
//!   workload spec, scale) so a warm campaign never re-simulates; it also
//!   holds gdp-serve's suspended-tenant STATE entries.
//!
//! Replaying a trace through the estimator stack is `gdp-experiments`'
//! `ReplaySession`.

pub mod cache;
pub mod codec;
pub mod format;
pub mod frame;
pub mod model;

pub use cache::{CacheKey, CacheStatsSnapshot, TraceCache};
pub use codec::TraceError;
pub use format::{
    decode_interval_payload, decode_private, decode_shared, decode_state, encode_interval_payload,
    encode_private, encode_shared, encode_state, SharedTraceReader, FORMAT_VERSION,
};
pub use frame::{encode_frame, Frame, FrameAssembler};
pub use model::{
    Boundary, CheckpointFile, NullSink, PrivateTrace, Recorder, SharedTrace, StateCheckpoint,
    TraceCheckpoint, TraceInterval, TraceSink,
};
