//! Set-associative cache tag array with LRU replacement and way
//! partitioning.
//!
//! Only tags are modelled (no data payloads): the simulator needs timing and
//! placement behaviour, not values. Way partitioning restricts which ways a
//! core may *allocate* into (replacement victims are chosen among the core's
//! quota), while lookups hit in any way — exactly how way-partitioned LLCs
//! behave (paper §V, UCP \[8\]).

use crate::config::CacheConfig;
use crate::types::{block_addr, Addr, CoreId};

/// An evicted dirty line that must be written back to the next level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Block address of the evicted line.
    pub block: Addr,
    /// Core that owned (allocated) the line.
    pub owner: CoreId,
}

/// Result of a tag lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// The block is present; LRU state was updated.
    Hit,
    /// The block is absent.
    Miss,
}

#[derive(Debug, Clone)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    owner: CoreId,
    lru: u64,
}

impl Line {
    fn invalid() -> Self {
        Line { tag: 0, valid: false, dirty: false, owner: CoreId(0), lru: 0 }
    }
}

/// A set-associative, write-back, LRU cache tag array.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<Vec<Line>>,
    ways: usize,
    set_mask: u64,
    /// Optional per-core allocation masks (bit w set = way w allowed).
    partition: Option<Vec<u64>>,
    tick: u64,
    /// Demand accesses observed (for statistics).
    pub accesses: u64,
    /// Demand misses observed.
    pub misses: u64,
}

impl Cache {
    /// Build a cache from its configuration.
    pub fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.sets();
        Cache {
            sets: vec![vec![Line::invalid(); cfg.ways]; sets],
            ways: cfg.ways,
            set_mask: sets as u64 - 1,
            partition: None,
            tick: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// Build a cache with an explicit set count (used for banked LLCs where
    /// each bank holds `total_sets / banks` sets).
    pub fn with_sets(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            sets: vec![vec![Line::invalid(); ways]; sets],
            ways,
            set_mask: sets as u64 - 1,
            partition: None,
            tick: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Set index for a block address (banked callers pre-shift the address).
    #[inline]
    pub fn set_index(&self, block: Addr) -> u64 {
        (block / crate::types::BLOCK_BYTES) & self.set_mask
    }

    /// Install per-core way-allocation masks. `masks[c]` is a bitmask of the
    /// ways core `c` may allocate into.
    ///
    /// # Panics
    /// Panics if any mask is empty or references ways beyond associativity.
    pub fn set_partition(&mut self, masks: Vec<u64>) {
        let all = if self.ways >= 64 { u64::MAX } else { (1u64 << self.ways) - 1 };
        for (c, m) in masks.iter().enumerate() {
            assert!(*m != 0, "core {c} was given an empty way mask");
            assert_eq!(*m & !all, 0, "core {c} mask references nonexistent ways");
        }
        self.partition = Some(masks);
    }

    /// Remove way partitioning (plain shared LRU).
    pub fn clear_partition(&mut self) {
        self.partition = None;
    }

    /// Probe for `block`; on a hit, update LRU and (for writes) the dirty
    /// bit. Counts toward access/miss statistics.
    pub fn access(&mut self, block: Addr, write: bool) -> AccessResult {
        self.accesses += 1;
        self.tick += 1;
        let tag = block / crate::types::BLOCK_BYTES;
        let set = (tag & self.set_mask) as usize;
        let tick = self.tick;
        for line in &mut self.sets[set] {
            if line.valid && line.tag == tag {
                line.lru = tick;
                if write {
                    line.dirty = true;
                }
                return AccessResult::Hit;
            }
        }
        self.misses += 1;
        AccessResult::Miss
    }

    /// Replay `n` probes that are known to miss, in bulk: each counts one
    /// access and one miss and advances the LRU clock by one, exactly as
    /// `n` calls of [`access`](Cache::access) on an absent block would —
    /// a missing probe touches no line state. Used by the cycle-skipping
    /// engine to account an L1-blocked load's per-cycle retry probes
    /// without executing them.
    pub(crate) fn replay_miss_probes(&mut self, n: u64) {
        self.accesses += n;
        self.misses += n;
        self.tick += n;
    }

    /// Probe without updating LRU or statistics (used by tests and probes).
    pub fn peek(&self, block: Addr) -> bool {
        let tag = block / crate::types::BLOCK_BYTES;
        let set = (tag & self.set_mask) as usize;
        self.sets[set].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Fill `block` into the cache on behalf of `core`, evicting a victim if
    /// necessary. Returns the dirty victim that must be written back, if any.
    ///
    /// The victim is chosen among invalid lines first, then the LRU line of
    /// the ways `core` is allowed to allocate into (all ways when
    /// unpartitioned).
    pub fn fill(&mut self, block: Addr, core: CoreId, dirty: bool) -> Option<Victim> {
        self.tick += 1;
        let tag = block / crate::types::BLOCK_BYTES;
        let set_idx = (tag & self.set_mask) as usize;
        let tick = self.tick;
        let allowed: u64 = match &self.partition {
            Some(masks) => masks.get(core.idx()).copied().unwrap_or(u64::MAX),
            None => u64::MAX,
        };

        // Already present (e.g. a racing fill): refresh.
        if let Some(line) = self.sets[set_idx].iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = tick;
            line.dirty |= dirty;
            line.owner = core;
            return None;
        }

        let set = &mut self.sets[set_idx];
        // Victim selection stays inside the core's way quota: an invalid
        // way within the quota first, else the LRU way within the quota.
        let in_quota = |w: usize| allowed & (1u64 << (w as u64 & 63)) != 0;
        let slot = set
            .iter()
            .enumerate()
            .position(|(w, l)| in_quota(w) && !l.valid)
            .or_else(|| {
                set.iter()
                    .enumerate()
                    .filter(|(w, _)| in_quota(*w))
                    .min_by_key(|(_, l)| l.lru)
                    .map(|(w, _)| w)
            })
            .expect("a victim way must exist");

        let line = &mut set[slot];
        let victim = if line.valid && line.dirty {
            Some(Victim { block: line.tag * crate::types::BLOCK_BYTES, owner: line.owner })
        } else {
            None
        };
        *line = Line { tag, valid: true, dirty, owner: core, lru: tick };
        victim
    }

    /// Mark `block` dirty if present (writeback landing on a hit).
    /// Returns whether the block was present.
    pub fn mark_dirty(&mut self, block: Addr) -> bool {
        let tag = block / crate::types::BLOCK_BYTES;
        let set = (tag & self.set_mask) as usize;
        for line in &mut self.sets[set] {
            if line.valid && line.tag == tag {
                line.dirty = true;
                return true;
            }
        }
        false
    }

    /// Invalidate `block` if present, returning whether it was dirty.
    pub fn invalidate(&mut self, block: Addr) -> Option<bool> {
        let tag = block / crate::types::BLOCK_BYTES;
        let set = (tag & self.set_mask) as usize;
        for line in &mut self.sets[set] {
            if line.valid && line.tag == tag {
                line.valid = false;
                return Some(line.dirty);
            }
        }
        None
    }

    /// Miss ratio over the cache's lifetime (0 when never accessed).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Validate a block address is block-aligned in debug builds.
#[allow(dead_code)]
fn debug_assert_aligned(addr: Addr) {
    debug_assert_eq!(addr, block_addr(addr), "address {addr:#x} is not block-aligned");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(ways: usize, sets: usize) -> Cache {
        Cache::with_sets(sets, ways)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small_cache(2, 4);
        assert_eq!(c.access(0x1000, false), AccessResult::Miss);
        c.fill(0x1000, CoreId(0), false);
        assert_eq!(c.access(0x1000, false), AccessResult::Hit);
        assert_eq!(c.accesses, 2);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 2-way, 1 set: fill A, B, touch A, fill C -> B evicted.
        let mut c = small_cache(2, 1);
        c.fill(0x000, CoreId(0), false);
        c.fill(0x040, CoreId(0), false);
        assert_eq!(c.access(0x000, false), AccessResult::Hit);
        c.fill(0x080, CoreId(0), false);
        assert!(c.peek(0x000), "recently used line must survive");
        assert!(!c.peek(0x040), "LRU line must be evicted");
        assert!(c.peek(0x080));
    }

    #[test]
    fn dirty_victim_is_returned_for_writeback() {
        let mut c = small_cache(1, 1);
        c.fill(0x000, CoreId(1), true);
        let v = c.fill(0x040, CoreId(0), false).expect("dirty victim");
        assert_eq!(v.block, 0x000);
        assert_eq!(v.owner, CoreId(1));
    }

    #[test]
    fn clean_victim_produces_no_writeback() {
        let mut c = small_cache(1, 1);
        c.fill(0x000, CoreId(0), false);
        assert!(c.fill(0x040, CoreId(0), false).is_none());
    }

    #[test]
    fn partition_restricts_allocation_not_hits() {
        // 4-way, 1 set; core0 gets ways {0,1}, core1 gets ways {2,3}.
        let mut c = small_cache(4, 1);
        c.set_partition(vec![0b0011, 0b1100]);
        // Core 0 fills three distinct blocks; only 2 ways -> one evicted.
        c.fill(0x000, CoreId(0), false);
        c.fill(0x040, CoreId(0), false);
        c.fill(0x080, CoreId(0), false);
        let present = [0x000u64, 0x040, 0x080].iter().filter(|&&b| c.peek(b)).count();
        assert_eq!(present, 2, "core 0 can hold at most its 2 ways");
        // Core 1's fills must not evict core 0's remaining lines.
        c.fill(0x0c0, CoreId(1), false);
        c.fill(0x100, CoreId(1), false);
        let core0_present = [0x000u64, 0x040, 0x080].iter().filter(|&&b| c.peek(b)).count();
        assert_eq!(core0_present, 2, "core 1 must not evict core 0's quota");
        // Hits are allowed in any way: core 0 hitting core 1's line is fine.
        assert_eq!(c.access(0x0c0, false), AccessResult::Hit);
    }

    #[test]
    #[should_panic(expected = "empty way mask")]
    fn empty_partition_mask_rejected() {
        let mut c = small_cache(4, 1);
        c.set_partition(vec![0b0011, 0]);
    }

    #[test]
    fn mark_dirty_and_invalidate() {
        let mut c = small_cache(2, 2);
        c.fill(0x000, CoreId(0), false);
        assert!(c.mark_dirty(0x000));
        assert_eq!(c.invalidate(0x000), Some(true));
        assert_eq!(c.invalidate(0x000), None);
        assert!(!c.mark_dirty(0x040));
    }

    #[test]
    fn set_indexing_distributes_blocks() {
        let c = small_cache(2, 4);
        assert_eq!(c.set_index(0x000), 0);
        assert_eq!(c.set_index(0x040), 1);
        assert_eq!(c.set_index(0x080), 2);
        assert_eq!(c.set_index(0x0c0), 3);
        assert_eq!(c.set_index(0x100), 0);
    }

    #[test]
    fn refill_of_present_block_refreshes_without_victim() {
        let mut c = small_cache(1, 1);
        c.fill(0x000, CoreId(0), false);
        assert!(c.fill(0x000, CoreId(1), true).is_none());
        // Ownership and dirtiness transferred.
        let v = c.fill(0x040, CoreId(0), false).expect("dirty victim");
        assert_eq!(v.owner, CoreId(1));
    }

    #[test]
    fn miss_ratio_reports_fraction() {
        let mut c = small_cache(2, 2);
        assert_eq!(c.miss_ratio(), 0.0);
        c.access(0x000, false); // miss
        c.fill(0x000, CoreId(0), false);
        c.access(0x000, false); // hit
        assert!((c.miss_ratio() - 0.5).abs() < 1e-12);
    }
}
