//! # gdp-serve — sharded, multi-tenant estimation-as-a-service over the
//! trace wire format
//!
//! A std-only, long-running server that accepts many concurrent tenant
//! probe-event streams, feeds each tenant's stream to its own
//! [`StreamSession`](gdp_experiments::StreamSession), and streams the
//! per-interval π̂ estimate rows back — turning the paper's "estimate
//! interference-free performance at runtime" loop into a service a host
//! scheduler can query over a socket.
//!
//! Layers:
//!
//! * [`proto`] — the wire protocol: client/server messages framed with
//!   `gdp-trace`'s CRC-checked stream frames
//!   ([`FrameAssembler`](gdp_trace::FrameAssembler)); interval payloads
//!   reuse the trace file format's event/boundary codecs, so a recorded
//!   trace can be streamed to the server byte-compatibly.
//! * [`transport`] — one [`Transport`](transport::Listener) seam, two
//!   implementations: a real TCP socket and an in-process channel pair
//!   (same framing, same backpressure), so tests and embedded hosts
//!   drive the identical server code path without a network.
//! * [`server`] + [`shard`] — the serving core: tenant sessions are
//!   hash-sharded across worker threads by tenant id, each shard owning
//!   its tenants' [`StreamSession`](gdp_experiments::StreamSession)s and
//!   a bounded op inbox (backpressure, never loss, for admitted
//!   tenants). Admission is *global*: at most `max_tenants` concurrent
//!   tenants, excess admissions shed deterministically in arrival order
//!   — independent of the shard count, so the shed set is byte-stable
//!   across `--shards N`.
//! * [`client`] — a blocking tenant client over either transport, with
//!   windowed pipelining and a configurable outgoing chunk size (the
//!   chunking-invariance test surface).
//!
//! ## Correctness contract
//!
//! The rows served for a tenant's stream are **bit-identical** to an
//! embedded [`ReplaySession`](gdp_experiments::ReplaySession) fed the
//! same intervals — for any shard count, any event-frame chunking, and
//! across a suspend/evict/resume cycle (a disconnected tenant's
//! [`EstimatorState`](gdp_core::state::EstimatorState) bundle is
//! suspended to disk as one STATE entry and restored bit-exactly on
//! reconnect; a corrupt entry is a quarantined miss that welcomes the
//! tenant at interval 0, and one that decodes but does not restore is
//! dropped after a typed error). The `tests/` suite and the CI
//! `serve-smoke` job pin this from both ends.
//!
//! ## Telemetry (`serve.*` glossary)
//!
//! With a registry attached ([`ServeConfig::metrics`](server::ServeConfig)):
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `serve.tenants` | counter | admissions accepted (incl. resumes) |
//! | `serve.resume` | counter | admissions restored from a snapshot |
//! | `serve.shed` | counter | tenants shed at admission (capacity) |
//! | `serve.events` | counter | probe events fed to tenant sessions |
//! | `serve.intervals` | counter | interval frames fed (= rows served) |
//! | `serve.suspends` | counter | sessions checkpointed on hangup/drain |
//! | `serve.errors` | counter | per-tenant protocol/restore failures |
//! | `serve.done` | counter | tenants that finished cleanly |
//! | `serve.active` | gauge | currently admitted tenants (high-water) |
//! | `serve.shard.<i>` | span | wall-clock each shard spent serving |
//!
//! All `serve.*` counters are deterministic for a deterministic client
//! schedule; the per-shard spans are wall-clock and stay out of the
//! counters-only snapshot.

pub mod client;
pub mod proto;
pub mod server;
pub mod shard;
pub mod transport;

pub use client::{ClientError, TenantClient};
pub use proto::{ClientMsg, ServerMsg};
pub use server::{serve_channel, serve_tcp, ServeConfig, Server};
pub use transport::{ChannelConnector, ChannelTransport, Connection, Listener};
