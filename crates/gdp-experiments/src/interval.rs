//! Accounting-interval bookkeeping for the live run loop.
//!
//! [`EstimationSession::advance_to`](crate::EstimationSession::advance_to),
//! the one loop under shared-mode runs and the partitioning study,
//! advances the simulated clock in multi-cycle jumps (`System::advance`),
//! so "have we reached the next interval boundary?" is no longer a single
//! `if` against a clock that moves by one: a jump could in principle land
//! on — or, if a caller ever advances without a boundary limit, *beyond*
//! — one or more boundaries.
//! [`IntervalSchedule`] makes both obligations explicit: it hands the
//! loop the next boundary to clamp its advance to, and it replays every
//! crossed boundary one at a time so no interval record is ever merged
//! into its neighbour or silently skipped.

use gdp_sim::types::Cycle;

/// Fixed-length accounting-interval schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalSchedule {
    every: Cycle,
    next: Cycle,
}

impl IntervalSchedule {
    /// A schedule with a boundary every `every` cycles (the first at
    /// `every`).
    ///
    /// # Panics
    /// Panics if `every` is zero.
    pub fn new(every: Cycle) -> Self {
        assert!(every > 0, "interval length must be positive");
        IntervalSchedule { every, next: every }
    }

    /// The next boundary cycle — the limit a run loop passes to
    /// `System::advance` so the engine observes the boundary exactly.
    pub fn next_boundary(&self) -> Cycle {
        self.next
    }

    /// If `now` has reached the next boundary, consume and return it;
    /// call in a `while let` so an advance that crossed several
    /// boundaries emits every one of them, in order.
    pub fn pop_crossed(&mut self, now: Cycle) -> Option<Cycle> {
        if now >= self.next {
            let b = self.next;
            self.next += self.every;
            Some(b)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_fire_exactly_once_each() {
        let mut s = IntervalSchedule::new(100);
        assert_eq!(s.next_boundary(), 100);
        assert_eq!(s.pop_crossed(99), None);
        assert_eq!(s.pop_crossed(100), Some(100));
        assert_eq!(s.pop_crossed(100), None, "a consumed boundary must not refire");
        assert_eq!(s.next_boundary(), 200);
    }

    /// Regression for the latent interval-boundary bug: a clock jump
    /// crossing several boundaries must emit *every* crossed boundary
    /// (the old `if now >= next_interval` check emitted only one record
    /// and silently merged the rest — latent under step-by-1, fatal
    /// under cycle-skipping).
    #[test]
    fn multi_boundary_jump_emits_every_crossed_boundary() {
        let mut s = IntervalSchedule::new(50);
        let mut seen = Vec::new();
        while let Some(b) = s.pop_crossed(237) {
            seen.push(b);
        }
        assert_eq!(seen, vec![50, 100, 150, 200], "all four crossed boundaries, in order");
        assert_eq!(s.next_boundary(), 250, "schedule resumes past the jump");
        // The next small step crosses the following boundary normally.
        assert_eq!(s.pop_crossed(250), Some(250));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_is_rejected() {
        let _ = IntervalSchedule::new(0);
    }
}
