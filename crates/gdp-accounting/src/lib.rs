//! # gdp-accounting — baseline performance-accounting techniques
//!
//! The three prior-art accounting systems the paper compares against
//! (§VII-A), implemented over the same probe-event interface as GDP:
//!
//! * [`Ptca`] — Per-Thread Cycle Accounting (Du Bois et al.): an
//!   architecture-centric *transparent* scheme that subtracts the
//!   interference suffered by the load blocking the ROB head from each
//!   observed stall, treating loads independently (which mis-handles MLP,
//!   §II).
//! * [`Itca`] — Inter-Task Conflict-Aware accounting (Luque et al.): a
//!   transparent scheme that discounts only cycles matching a fixed set of
//!   architectural conditions, making it conservative.
//! * [`Asm`] — the Application Slowdown Model (Subramanian et al.): an
//!   *invasive* scheme that periodically gives each core highest priority
//!   in the memory controller and extrapolates private-mode performance
//!   from the cache access rate observed in those epochs. Being invasive,
//!   it perturbs the workload it measures (Fig. 1c's backlog pathology).
//!
//! All three implement [`gdp_core::PrivateModeEstimator`]. In a session,
//! all three are readouts of the observation plane's one DIEF: their
//! per-event math ([`itca::stall_discount`], [`ptca::stall_sigma`] and
//! [`asm::count_event`]) and their estimates are shared with the
//! standalone estimators.

pub mod asm;
pub mod itca;
pub mod ptca;
pub mod technique;

pub use asm::Asm;
pub use itca::Itca;
pub use ptca::Ptca;
pub use technique::{ASM_TECHNIQUE, ITCA_TECHNIQUE, PTCA_TECHNIQUE};
