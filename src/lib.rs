//! # gdp — reproduction of "GDP: Using Dataflow Properties to Accurately
//! Estimate Interference-Free Performance at Runtime" (HPCA 2018)
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`sim`] — cycle-level CMP simulator (cores, caches, ring, DRAM).
//! * [`workloads`] — synthetic SPEC-like benchmarks and workload mixes.
//! * [`dief`] — DIEF private-mode memory latency estimation.
//! * [`accounting`] — GDP, GDP-O and the ITCA/PTCA/ASM baselines.
//! * [`partition`] — LLC way-partitioning policies (UCP, MCP, MCP-O, ASM).
//! * [`metrics`] — RMS error, STP and distribution summaries.
//! * [`experiments`] — shared/private mode drivers reproducing the paper's
//!   evaluation, the technique table and the streaming
//!   [`Session`] API.
//! * [`runner`] — parallel, deterministic campaign execution (job pool,
//!   shared CLI, machine-readable JSON results).
//! * [`trace`] — event-trace capture & replay with a content-addressed
//!   campaign cache (simulate once, estimate many).
//! * [`serve`] — sharded, multi-tenant estimation-as-a-service over the
//!   trace wire format (TCP or in-process), with snapshot/evict/resume.
//!
//! ## Embedding GDP at runtime
//!
//! The primary embedding surface is the streaming estimation session: a
//! host builds a [`Session`] via [`SessionBuilder`], advances it in
//! whatever increments its own event loop uses, and polls per-interval
//! interference-free estimates online:
//!
//! ```no_run
//! use gdp::prelude::*;
//!
//! let xcfg = ExperimentConfig::quick(4);
//! let workload = &gdp::workloads::paper_workloads(4, 42)[0];
//! let mut session = SessionBuilder::new(workload, &xcfg)
//!     .techniques(&[Technique::GDP_O])
//!     .build();
//! while !session.done() {
//!     session.advance_to(session.now() + 50_000);
//!     for row in session.poll_estimates() {
//!         println!("core 0 estimated private IPC: {:.3}", row[0].estimates[0].ipc());
//!     }
//! }
//! ```
//!
//! Techniques are data: every estimator's descriptor — a stable id,
//! factory, readout and capability flags — sits in one `const` table
//! behind [`Technique`], so technique subsets are configuration, not
//! code.
//!
//! See `examples/quickstart.rs` for the runnable end-to-end tour.

pub use gdp_accounting as accounting;
pub use gdp_core as core;
pub use gdp_dief as dief;
pub use gdp_experiments as experiments;
pub use gdp_metrics as metrics;
pub use gdp_partition as partition;
pub use gdp_runner as runner;
pub use gdp_serve as serve;
pub use gdp_sim as sim;
pub use gdp_trace as trace;
pub use gdp_workloads as workloads;

pub use gdp_experiments::{EstimationSession as Session, ReplaySession, SessionBuilder, Technique};

/// The embedding-facing prelude: everything a host needs to build a
/// streaming estimation session and read its estimates.
pub mod prelude {
    pub use gdp_core::{PrivateEstimate, TechniqueConfig};
    pub use gdp_experiments::{
        CoreInterval, EstimationSession as Session, ExperimentConfig, ReplaySession,
        SessionBuilder, SharedRun, Technique,
    };
    pub use gdp_workloads::{paper_workloads, Workload};
}
