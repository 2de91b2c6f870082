//! # gdp-experiments — drivers reproducing the paper's evaluation (§VI–VII)
//!
//! * [`shared`] — shared-mode runs: all cores active, accounting
//!   techniques observing, estimates every interval. ASM runs invasively
//!   (memory-controller priority rotation), the others transparently.
//! * [`private`] — private-mode ground truth: one benchmark alone on the
//!   CMP, measured at the *same committed-instruction checkpoints* as the
//!   shared run (paper §VI: "the shared mode instruction sample points are
//!   provided as input to the private mode experiments").
//! * [`accuracy`] — per-benchmark RMS error evaluation of IPC, SMS-stall,
//!   CPL, overlap and latency estimates (Figs. 3–5): [`evaluate`]
//!   composes the shared and private phases once, as pool jobs over
//!   labelled workload groups.
//! * [`techniques`] — the assembled technique registry and the
//!   [`Technique`] handle: every estimator is data (id, label,
//!   capability flags, factory), so sweeps, CLI selection and JSON
//!   labels are configuration instead of code.
//! * [`plane`] — the [`ObservationPlane`]: the probe stream's observers
//!   (one GDP unit per core, one DIEF) fed once per interval, with every
//!   transparent technique a readout of their per-core summary.
//! * [`session`] — the streaming [`EstimationSession`]: a host embeds
//!   it to consume per-interval private-mode estimates online;
//!   [`run_shared`] is a one-line convenience over it.
//! * [`interval`] — accounting-interval bookkeeping shared by the run
//!   loops: the engine's advance limit and exact, lossless boundary
//!   emission under multi-cycle clock jumps.
//! * [`policy_run`] — the LLC-partitioning case study: LRU, UCP, ASM, MCP
//!   and MCP-O under way-partitioning with STP scoring (Fig. 6).
//! * [`trace`] — record/replay glue over `gdp-trace`: capture the
//!   estimator-facing stream once per (config × workload), replay any
//!   technique from it bit-identically, and the [`CampaignTraces`]
//!   router every campaign job goes through.

//! * [`metrics`] — binding glue exporting the simulator's plain
//!   [`EngineCounters`](gdp_sim::EngineCounters) into a
//!   `gdp-telemetry` registry (`engine.*`).

pub mod accuracy;
pub mod config;
pub mod interval;
pub mod metrics;
pub mod plane;
pub mod policy_run;
pub mod private;
pub mod session;
pub mod shared;
pub mod techniques;
pub mod trace;

pub use accuracy::{
    evaluate, evaluate_job_count, evaluate_job_labels, evaluate_workload, private_base,
    BenchAccuracy, EvalGroup, WorkloadAccuracy, WorkloadEval,
};
pub use config::ExperimentConfig;
pub use interval::IntervalSchedule;
pub use metrics::export_engine_counters;
pub use plane::ObservationPlane;
pub use policy_run::{run_policy_study, PolicyKind, PolicyOutcome};
pub use private::{run_private, PrivateCheckpoint, PrivateRun};
pub use session::{
    EstimationSession, ParallelReplaySession, ReplaySession, SessionBuilder, StreamSession,
};
pub use shared::{run_shared, CoreInterval, SharedRun};
pub use techniques::{registry, transparent_subset, Technique};
pub use trace::{
    checkpoint_key, private_from_trace, private_to_trace, private_trace_key, record_shared,
    session_state_key, shared_trace_key, shared_trace_key_for, summarize_checkpoints,
    CampaignTraces,
};
