//! # gdp-core — Graph-based Dynamic Performance accounting
//!
//! The paper's primary contribution: a *transparent* performance-accounting
//! technique that estimates interference-free (private-mode) performance
//! from shared-mode **dataflow properties**.
//!
//! GDP dynamically builds a dependency graph between memory loads and the
//! periods in which the processor commits instructions, using two small
//! hardware structures (paper §IV-A, Fig. 2):
//!
//! * the **Pending Request Buffer (PRB)** — a small associative buffer of
//!   outstanding L1 load misses, and
//! * the **Pending Commit Buffer (PCB)** — a register describing the
//!   commit period in progress.
//!
//! Algorithms 1–3 of the paper maintain the graph's **Critical Path
//! Length (CPL)** incrementally — an online approximation of Kahn's
//! topological-order longest-path computation. The private-mode SMS-load
//! stall estimate is then
//!
//! ```text
//! GDP:    σ̂_SMS = CPL · λ̂
//! GDP-O:  σ̂_SMS = CPL · (λ̂ − O)        (O = average commit/load overlap)
//! ```
//!
//! and private-mode CPI follows from the first-order performance model of
//! §III (Eq. 2). λ̂ is supplied by DIEF (the `gdp-dief` crate).
//!
//! ```
//! use gdp_core::{GdpUnit};
//! let mut unit = GdpUnit::new(32);
//! // Feed it probe events from the simulator; read CPL per interval.
//! assert_eq!(unit.peek_cpl(), 0);
//! ```

pub mod estimator;
pub mod model;
pub mod state;
pub mod technique;
pub mod unit;

pub use estimator::{gdp_estimate, GdpEstimator, GdpVariant};
pub use model::{
    private_cpi, sigma_other, CoreSummary, IntervalMeasurement, PrivateEstimate,
    PrivateModeEstimator,
};
pub use state::{EstimatorState, StateError, StateValue, STATE_VERSION};
pub use technique::{
    Observer, Readout, TechniqueCaps, TechniqueConfig, TechniqueDesc, TechniqueRegistry,
    UnknownTechnique, GDP_O_TECHNIQUE, GDP_TECHNIQUE,
};
pub use unit::GdpUnit;
