//! # gdp-dief — Dynamic Interference Estimation Framework
//!
//! Reimplementation of DIEF (Jahre et al., HiPEAC 2010) as used by the GDP
//! paper (§IV-B): strategically positioned counters in the interconnect,
//! LLC and memory controller measure each request's shared-mode latency
//! `L_p` and the portion caused by inter-process interference `I_p`; the
//! private-mode latency estimate is `λ_p = L_p − I_p` (Eq. 3).
//!
//! The components are:
//!
//! * **Interconnect and memory-controller counters** — maintained by the
//!   simulator per request ([`gdp_sim::mem::Interference`]) and delivered
//!   via [`ProbeEvent::LoadL1MissDone`](gdp_sim::ProbeEvent::LoadL1MissDone).
//! * **Auxiliary Tag Directories (ATDs) with set sampling** ([`Atd`]) —
//!   per-core shadow tag arrays over a sampled subset of LLC sets that
//!   emulate the private-mode LLC; a shared-mode miss that the ATD says
//!   would have hit privately is an *interference miss* whose memory-
//!   controller residency counts as interference. The same structures
//!   yield the private-mode miss curves consumed by UCP/MCP partitioning.
//!
//! ```
//! use gdp_dief::Atd;
//! let mut atd = Atd::new(1024, 32, 16);
//! // Feed it LLC accesses; read back the miss curve for partitioning.
//! atd.access(0);
//! let curve = atd.miss_curve();
//! assert_eq!(curve.len(), 17); // misses with 0..=16 ways
//! ```

pub mod atd;
pub mod estimator;
pub mod technique;

pub use atd::{Atd, AtdOutcome};
pub use estimator::{Dief, LatencyEstimate};
pub use technique::{latency_ratio_estimate, DiefOnly, DIEF_TECHNIQUE};
