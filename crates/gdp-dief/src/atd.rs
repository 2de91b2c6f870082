//! Auxiliary Tag Directory with set sampling (Qureshi & Patt's UMON \[8\],
//! as used by DIEF, ASM, ITCA and PTCA).
//!
//! An ATD shadows the tag array of the LLC *as if the observed core owned
//! the whole cache*: every access by the core updates a fully-LRU set of
//! the full associativity. Hits record their LRU stack position, giving
//! the classic stack-distance histogram from which the miss count for any
//! way allocation is read off directly. Set sampling (paper §IV-B, \[22\])
//! keeps only a subset of sets, cutting storage from megabytes to
//! kilobytes; counts are scaled back up by the sampling factor.

use gdp_core::state::{StateError, StateValue};
use gdp_sim::types::{Addr, BLOCK_BYTES};

/// Outcome of an ATD access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtdOutcome {
    /// The block's set is not sampled; nothing was recorded.
    Unsampled,
    /// Private-mode hit at the given LRU stack position (0 = MRU).
    Hit(usize),
    /// Private-mode miss.
    Miss,
}

/// A sampled, per-core auxiliary tag directory.
///
/// Tag storage is structure-of-arrays: one dense `tags` array of
/// `slots × ways` entries (each sampled set is a fixed-stride row,
/// MRU-first) plus a parallel per-slot valid count — no per-set heap
/// allocation or hashing on the probe path, and the whole directory is a
/// few contiguous KB that stays resident in L1/L2 across a batch.
#[derive(Debug, Clone)]
pub struct Atd {
    ways: usize,
    /// Sample a set when `set % sample_interval == 0`.
    sample_interval: u64,
    total_sets: u64,
    /// SoA tag rows: `tags[slot*ways .. slot*ways + lens[slot]]` are the
    /// valid tags of sampled set `slot * sample_interval`, MRU-first.
    tags: Vec<u64>,
    /// Valid-tag count per slot (`ways` fits in a u8 — asserted in `new`).
    lens: Vec<u8>,
    /// `log2(total_sets)` when the set count is a power of two — the
    /// probe-path fast split (shift/mask instead of two divisions).
    sets_shift: Option<u32>,
    /// `log2(sample_interval)` when the interval is a power of two.
    interval_shift: Option<u32>,
    /// Stack-distance histogram: `hits_at[r]` = hits at LRU position `r`.
    hits_at: Vec<u64>,
    /// Misses observed (sampled sets only, unscaled).
    misses: u64,
    /// Accesses observed (sampled sets only, unscaled).
    accesses: u64,
}

impl Atd {
    /// Build an ATD over a cache of `total_sets` sets and `ways` ways,
    /// sampling `sampled_sets` of them (paper: 32).
    ///
    /// # Panics
    /// Panics if `sampled_sets` is 0 or exceeds `total_sets`, or if
    /// `ways` is 0 or exceeds 255.
    pub fn new(total_sets: usize, sampled_sets: usize, ways: usize) -> Self {
        assert!(sampled_sets > 0 && sampled_sets <= total_sets);
        assert!(ways > 0 && ways <= u8::MAX as usize, "associativity must fit a u8 and be > 0");
        let interval = (total_sets / sampled_sets).max(1) as u64;
        let total = total_sets as u64;
        let slots = total.div_ceil(interval) as usize;
        Atd {
            ways,
            sample_interval: interval,
            total_sets: total,
            tags: vec![0; slots * ways],
            lens: vec![0; slots],
            sets_shift: total.is_power_of_two().then(|| total.trailing_zeros()),
            interval_shift: interval.is_power_of_two().then(|| interval.trailing_zeros()),
            hits_at: vec![0; ways],
            misses: 0,
            accesses: 0,
        }
    }

    /// The sampling factor used to scale counts back to full-cache scale.
    pub fn sampling_factor(&self) -> u64 {
        self.sample_interval
    }

    /// Number of sampled sets (dense slot rows).
    fn slots(&self) -> usize {
        self.lens.len()
    }

    /// Split a block address into its set's dense slot index (when
    /// sampled) and its tag.
    #[inline]
    fn split(&self, block: Addr) -> (Option<u64>, u64) {
        let b = block / BLOCK_BYTES;
        let (set, tag) = match self.sets_shift {
            Some(s) => (b & (self.total_sets - 1), b >> s),
            None => (b % self.total_sets, b / self.total_sets),
        };
        let slot = match self.interval_shift {
            Some(s) => (set & (self.sample_interval - 1) == 0).then(|| set >> s),
            None => (set % self.sample_interval == 0).then(|| set / self.sample_interval),
        };
        (slot, tag)
    }

    /// Record an access to `block`, returning the private-mode outcome.
    pub fn access(&mut self, block: Addr) -> AtdOutcome {
        let (slot, tag) = self.split(block);
        let Some(slot) = slot else {
            return AtdOutcome::Unsampled;
        };
        let slot = slot as usize;
        self.accesses += 1;
        let len = self.lens[slot] as usize;
        let base = slot * self.ways;
        let row = &mut self.tags[base..base + self.ways];
        if let Some(pos) = row[..len].iter().position(|&t| t == tag) {
            // MRU promotion: shift positions 0..pos right by one.
            row.copy_within(0..pos, 1);
            row[0] = tag;
            self.hits_at[pos] += 1;
            AtdOutcome::Hit(pos)
        } else {
            // Insert at MRU; the LRU tag falls off a full row.
            let keep = len.min(self.ways - 1);
            row.copy_within(0..keep, 1);
            row[0] = tag;
            if len < self.ways {
                self.lens[slot] = (len + 1) as u8;
            }
            self.misses += 1;
            AtdOutcome::Miss
        }
    }

    /// Sampled (unscaled) access count since the last reset.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Sampled (unscaled) miss count since the last reset.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Estimated misses over the whole cache for every way allocation
    /// `w ∈ 0..=ways`, scaled by the sampling factor.
    ///
    /// `curve[w] = (misses + Σ_{r ≥ w} hits_at[r]) × sampling_factor`:
    /// with `w` ways a hit at stack position `≥ w` becomes a miss.
    pub fn miss_curve(&self) -> Vec<u64> {
        let mut curve = vec![0u64; self.ways + 1];
        let mut beyond: u64 = self.hits_at.iter().sum();
        curve[0] = (self.misses + beyond) * self.sample_interval;
        for w in 1..=self.ways {
            beyond -= self.hits_at[w - 1];
            curve[w] = (self.misses + beyond) * self.sample_interval;
        }
        curve
    }

    /// Clear the histogram and counters for a new measurement interval
    /// (tag state is retained: the shadow cache stays warm).
    pub fn reset_counters(&mut self) {
        self.hits_at.iter_mut().for_each(|h| *h = 0);
        self.misses = 0;
        self.accesses = 0;
    }

    /// Capture the ATD's complete state (geometry, tag arrays, stack-
    /// distance histogram and counters) as a positional value tree.
    /// Only non-empty sampled sets are emitted, in sorted set-index
    /// order, so identical ATD states always yield identical snapshots —
    /// and the tree is byte-compatible with the historical per-set map
    /// layout (a set appeared in the map exactly once accessed, i.e.
    /// exactly when it holds at least one tag).
    pub fn snapshot_value(&self) -> StateValue {
        let sets = (0..self.slots())
            .filter(|&slot| self.lens[slot] > 0)
            .map(|slot| {
                let len = self.lens[slot] as usize;
                let row = &self.tags[slot * self.ways..slot * self.ways + len];
                StateValue::List(vec![
                    StateValue::U64(slot as u64 * self.sample_interval),
                    StateValue::List(row.iter().map(|&t| StateValue::U64(t)).collect()),
                ])
            })
            .collect();
        StateValue::List(vec![
            StateValue::U64(self.ways as u64),
            StateValue::U64(self.sample_interval),
            StateValue::U64(self.total_sets),
            StateValue::List(sets),
            StateValue::List(self.hits_at.iter().map(|&h| StateValue::U64(h)).collect()),
            StateValue::U64(self.misses),
            StateValue::U64(self.accesses),
        ])
    }

    /// Restore the ATD from a [`Atd::snapshot_value`] tree. The geometry
    /// (ways, sampling interval, total sets) must match this ATD's, and
    /// every listed set index must be a sampled set (snapshots only ever
    /// contain sampled sets).
    pub fn restore_value(&mut self, v: &StateValue) -> Result<(), StateError> {
        let f = v.fields(7)?;
        if f[0].as_u64()? != self.ways as u64
            || f[1].as_u64()? != self.sample_interval
            || f[2].as_u64()? != self.total_sets
        {
            return Err(StateError::ConfigMismatch("ATD geometry"));
        }
        let mut tags = vec![0u64; self.tags.len()];
        let mut lens = vec![0u8; self.lens.len()];
        for entry in f[3].as_list()? {
            let ef = entry.fields(2)?;
            let set = ef[0].as_u64()?;
            if set >= self.total_sets || set % self.sample_interval != 0 {
                return Err(StateError::Malformed("ATD set index not sampled"));
            }
            let slot = (set / self.sample_interval) as usize;
            let row: Vec<u64> =
                ef[1].as_list()?.iter().map(|t| t.as_u64()).collect::<Result<_, _>>()?;
            if row.len() > self.ways {
                return Err(StateError::Malformed("ATD set overflow"));
            }
            tags[slot * self.ways..slot * self.ways + row.len()].copy_from_slice(&row);
            lens[slot] = row.len() as u8;
        }
        let hits_at: Vec<u64> =
            f[4].as_list()?.iter().map(|h| h.as_u64()).collect::<Result<_, _>>()?;
        if hits_at.len() != self.ways {
            return Err(StateError::Malformed("ATD histogram length"));
        }
        self.tags = tags;
        self.lens = lens;
        self.hits_at = hits_at;
        self.misses = f[5].as_u64()?;
        self.accesses = f[6].as_u64()?;
        Ok(())
    }

    /// Approximate storage cost in bits (diagnostics; paper §IV-B reports
    /// 5.0/9.9/23.8 KB for its sampled configurations).
    pub fn storage_bits(&self, tag_bits: u64) -> u64 {
        let sampled = self.total_sets / self.sample_interval;
        sampled * self.ways as u64 * tag_bits + self.ways as u64 * 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(set: u64, tag: u64, total_sets: u64) -> Addr {
        (tag * total_sets + set) * BLOCK_BYTES
    }

    #[test]
    fn unsampled_sets_are_ignored() {
        let mut atd = Atd::new(1024, 32, 16);
        assert_eq!(atd.sampling_factor(), 32);
        // Set 1 is not a multiple of 32.
        assert_eq!(atd.access(block(1, 0, 1024)), AtdOutcome::Unsampled);
        assert_eq!(atd.accesses(), 0);
        // Set 32 is sampled.
        assert_eq!(atd.access(block(32, 0, 1024)), AtdOutcome::Miss);
        assert_eq!(atd.accesses(), 1);
    }

    #[test]
    fn hit_positions_follow_lru_stack_order() {
        let mut atd = Atd::new(64, 64, 4);
        let s = 0;
        // Touch A, B, C: stack (MRU→LRU) = C B A.
        atd.access(block(s, 1, 64));
        atd.access(block(s, 2, 64));
        atd.access(block(s, 3, 64));
        // A is at position 2.
        assert_eq!(atd.access(block(s, 1, 64)), AtdOutcome::Hit(2));
        // A moved to MRU: stack = A C B; B at position 2, C at 1.
        assert_eq!(atd.access(block(s, 3, 64)), AtdOutcome::Hit(1));
    }

    #[test]
    fn eviction_beyond_associativity() {
        let mut atd = Atd::new(64, 64, 2);
        let s = 0;
        atd.access(block(s, 1, 64));
        atd.access(block(s, 2, 64));
        atd.access(block(s, 3, 64)); // evicts tag 1
        assert_eq!(atd.access(block(s, 1, 64)), AtdOutcome::Miss);
    }

    #[test]
    fn miss_curve_is_monotonically_nonincreasing() {
        let mut atd = Atd::new(64, 16, 8);
        // Random-ish accesses.
        for i in 0..4096u64 {
            atd.access(((i * 2654435761) % 65536) * BLOCK_BYTES);
        }
        let curve = atd.miss_curve();
        assert_eq!(curve.len(), 9);
        for w in 1..curve.len() {
            assert!(curve[w] <= curve[w - 1], "curve must not increase: {curve:?}");
        }
    }

    #[test]
    fn miss_curve_matches_hand_computed_example() {
        let mut atd = Atd::new(4, 4, 2);
        let s = 0;
        atd.access(block(s, 1, 4)); // miss
        atd.access(block(s, 2, 4)); // miss
        atd.access(block(s, 1, 4)); // hit at pos 1
        atd.access(block(s, 1, 4)); // hit at pos 0
        let curve = atd.miss_curve();
        // 0 ways: all 4 accesses miss. 1 way: pos-1 hit becomes a miss (3).
        // 2 ways: just the 2 cold misses.
        assert_eq!(curve, vec![4, 3, 2]);
    }

    #[test]
    fn reset_counters_keeps_tags_warm() {
        let mut atd = Atd::new(4, 4, 2);
        atd.access(0);
        atd.reset_counters();
        assert_eq!(atd.accesses(), 0);
        // The tag survives the reset: this access is a hit.
        assert_eq!(atd.access(0), AtdOutcome::Hit(0));
    }

    #[test]
    fn sampling_scales_curve_counts() {
        let mut full = Atd::new(64, 64, 4);
        let mut sampled = Atd::new(64, 8, 4);
        for i in 0..8192u64 {
            let b = ((i * 40503) % 16384) * BLOCK_BYTES;
            full.access(b);
            sampled.access(b);
        }
        let cf = full.miss_curve();
        let cs = sampled.miss_curve();
        // The sampled estimate should be within 30% of the full count.
        for w in 0..=4 {
            let f = cf[w] as f64;
            let s = cs[w] as f64;
            assert!((s - f).abs() / f.max(1.0) < 0.3, "w={w}: full={f} sampled={s}");
        }
    }

    #[test]
    fn storage_is_small_with_sampling() {
        let atd = Atd::new(16384, 32, 16);
        // 32 sets × 16 ways × ~40-bit tags ≈ 2.6 KB — kilobytes, not MB.
        assert!(atd.storage_bits(40) < 64 * 1024 * 8);
    }
}
