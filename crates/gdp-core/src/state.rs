//! First-class, serializable estimator state.
//!
//! Every observer of the probe stream (the GDP units, DIEF, the stateful
//! ASM) and every standalone estimator can [`snapshot`] its complete
//! internal state — PRB/PCB contents, ATD tag arrays, DIEF interference
//! and λ̂ counters — into an [`EstimatorState`] and later [`restore`] it,
//! bit-exactly. The state is a positional tree of [`StateValue`]s: the
//! encoding layer (`gdp-trace`) needs no per-observer knowledge, and an
//! observer's snapshot/restore pair is the only code that knows its
//! field order. Restoring a snapshot taken at interval boundary *k* and
//! replaying from there is bit-identical to replaying from the start —
//! the property that makes on-demand per-interval queries and
//! suspend/resume exact, not approximate.
//!
//! Floating-point fields travel as exact bit patterns ([`StateValue::F64Bits`]),
//! never as decimal round-trips, and hash-map contents are emitted in a
//! canonical sorted order so identical estimator states always produce
//! identical snapshots.
//!
//! [`snapshot`]: crate::model::PrivateModeEstimator::snapshot
//! [`restore`]: crate::model::PrivateModeEstimator::restore

use std::fmt;

/// Version of the snapshot *schema* (the field layout each observer
/// writes). Bumped whenever any layout changes; a mismatch is a typed
/// [`StateError`], never a misdecode. Version 2 keys checkpoints by
/// observer (`gdp-units`, `dief`, `asm`) instead of by technique.
pub const STATE_VERSION: u32 = 2;

/// One node of a positional estimator-state tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateValue {
    /// An unsigned counter, index or identifier.
    U64(u64),
    /// A signed quantity.
    I64(i64),
    /// An `f64` carried as its exact bit pattern.
    F64Bits(u64),
    /// A flag.
    Bool(bool),
    /// An ordered sequence of child values (structs and vectors alike).
    List(Vec<StateValue>),
}

impl StateValue {
    /// Wrap an `f64` preserving its exact bits (including NaN payloads).
    pub fn f64(v: f64) -> StateValue {
        StateValue::F64Bits(v.to_bits())
    }

    /// Read back a `u64`.
    pub fn as_u64(&self) -> Result<u64, StateError> {
        match self {
            StateValue::U64(v) => Ok(*v),
            _ => Err(StateError::Malformed("expected u64")),
        }
    }

    /// Read back an `i64`.
    pub fn as_i64(&self) -> Result<i64, StateError> {
        match self {
            StateValue::I64(v) => Ok(*v),
            _ => Err(StateError::Malformed("expected i64")),
        }
    }

    /// Read back an `f64`, bit-exactly.
    pub fn as_f64(&self) -> Result<f64, StateError> {
        match self {
            StateValue::F64Bits(b) => Ok(f64::from_bits(*b)),
            _ => Err(StateError::Malformed("expected f64")),
        }
    }

    /// Read back a `bool`.
    pub fn as_bool(&self) -> Result<bool, StateError> {
        match self {
            StateValue::Bool(v) => Ok(*v),
            _ => Err(StateError::Malformed("expected bool")),
        }
    }

    /// Read back a list of any length.
    pub fn as_list(&self) -> Result<&[StateValue], StateError> {
        match self {
            StateValue::List(v) => Ok(v),
            _ => Err(StateError::Malformed("expected list")),
        }
    }

    /// Read back a list of exactly `n` fields (a positional struct).
    pub fn fields(&self, n: usize) -> Result<&[StateValue], StateError> {
        let list = self.as_list()?;
        if list.len() != n {
            return Err(StateError::Malformed("wrong field count"));
        }
        Ok(list)
    }
}

/// A complete snapshot of one observer's or estimator's internal state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EstimatorState {
    /// The observer or technique name (an estimator's
    /// [`PrivateModeEstimator::name`]); restore refuses a snapshot taken
    /// from anything else.
    ///
    /// [`PrivateModeEstimator::name`]: crate::model::PrivateModeEstimator::name
    pub technique: String,
    /// Snapshot schema version ([`STATE_VERSION`] at capture time).
    pub version: u32,
    /// The technique's positional state tree.
    pub root: StateValue,
}

impl EstimatorState {
    /// A current-version snapshot of `technique` with state `root`.
    pub fn new(technique: &str, root: StateValue) -> EstimatorState {
        EstimatorState { technique: technique.to_string(), version: STATE_VERSION, root }
    }

    /// Validate identity and version; returns the root on success. Every
    /// `restore` implementation starts here.
    pub fn check(&self, technique: &str) -> Result<&StateValue, StateError> {
        if self.version != STATE_VERSION {
            return Err(StateError::UnsupportedVersion(self.version));
        }
        if self.technique != technique {
            return Err(StateError::WrongTechnique {
                want: technique.to_string(),
                got: self.technique.clone(),
            });
        }
        Ok(&self.root)
    }
}

/// A snapshot that cannot be restored into the target estimator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The snapshot was taken from a different technique.
    WrongTechnique {
        /// Technique the restore target implements.
        want: String,
        /// Technique the snapshot came from.
        got: String,
    },
    /// The snapshot's schema version is not [`STATE_VERSION`].
    UnsupportedVersion(u32),
    /// The snapshot's configuration does not match the estimator's (e.g.
    /// different core count, PRB capacity or ATD geometry).
    ConfigMismatch(&'static str),
    /// The state tree does not have the shape the technique expects.
    Malformed(&'static str),
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::WrongTechnique { want, got } => {
                write!(f, "snapshot of technique `{got}` cannot restore `{want}`")
            }
            StateError::UnsupportedVersion(v) => write!(f, "unsupported state version {v}"),
            StateError::ConfigMismatch(what) => write!(f, "state config mismatch: {what}"),
            StateError::Malformed(what) => write!(f, "malformed estimator state: {what}"),
        }
    }
}

impl std::error::Error for StateError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_bits_round_trip_exactly() {
        for v in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE] {
            let sv = StateValue::f64(v);
            assert_eq!(sv.as_f64().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn accessors_reject_wrong_variants() {
        assert!(StateValue::U64(1).as_bool().is_err());
        assert!(StateValue::Bool(true).as_u64().is_err());
        assert!(StateValue::I64(-1).as_f64().is_err());
        assert!(StateValue::f64(1.0).as_list().is_err());
        assert_eq!(StateValue::I64(-7).as_i64().unwrap(), -7);
    }

    #[test]
    fn fields_enforces_exact_arity() {
        let v = StateValue::List(vec![StateValue::U64(1), StateValue::U64(2)]);
        assert_eq!(v.fields(2).unwrap().len(), 2);
        assert!(matches!(v.fields(3), Err(StateError::Malformed(_))));
    }

    #[test]
    fn check_validates_identity_and_version() {
        let s = EstimatorState::new("GDP", StateValue::U64(0));
        assert!(s.check("GDP").is_ok());
        assert!(matches!(s.check("GDP-O"), Err(StateError::WrongTechnique { .. })));
        let stale = EstimatorState { version: STATE_VERSION + 1, ..s };
        assert!(matches!(stale.check("GDP"), Err(StateError::UnsupportedVersion(_))));
    }
}
