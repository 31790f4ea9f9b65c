//! Set-associative cache model with true-LRU replacement, write-back /
//! write-allocate policy, and per-line prefetch tagging for usefulness
//! accounting (the ChampSim convention: a line filled by a prefetch carries
//! a prefetch bit that is cleared — and counted useful — on its first
//! demand hit).

/// Outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Demand hit on a normal line.
    Hit,
    /// Demand hit on a line that was brought in by a prefetch and had not
    /// been used yet — the prefetch was *useful*.
    HitPrefetched,
    Miss,
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Set when the fill came from a prefetch; cleared on first demand hit.
    prefetched: bool,
    /// LRU timestamp (higher = more recent).
    stamp: u64,
}

/// A victim line evicted by an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    pub block: u64,
    pub dirty: bool,
    /// True if the line was prefetched and never used (a useless prefetch).
    pub unused_prefetch: bool,
}

/// Aggregate counters for one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub prefetch_hits: u64,
    pub evictions: u64,
    pub writebacks: u64,
    pub prefetch_fills: u64,
    pub useless_prefetch_evictions: u64,
}

impl CacheStats {
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Set-associative cache operating on *block addresses* (byte address / 64).
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<Line>,
    num_sets: usize,
    assoc: usize,
    clock: u64,
    pub stats: CacheStats,
}

impl Cache {
    /// Builds a cache of `size_bytes` with `assoc` ways and 64-byte blocks.
    pub fn new(size_bytes: usize, assoc: usize) -> Self {
        let block = 64usize;
        assert!(
            size_bytes.is_multiple_of(assoc * block),
            "size not divisible"
        );
        let num_sets = size_bytes / (assoc * block);
        assert!(num_sets.is_power_of_two(), "sets must be a power of two");
        Cache {
            sets: vec![Line::default(); num_sets * assoc],
            num_sets,
            assoc,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    pub fn assoc(&self) -> usize {
        self.assoc
    }

    #[inline]
    fn set_of(&self, block: u64) -> usize {
        (block as usize) & (self.num_sets - 1)
    }

    #[inline]
    fn ways(&mut self, set: usize) -> &mut [Line] {
        &mut self.sets[set * self.assoc..(set + 1) * self.assoc]
    }

    /// Demand lookup. Updates LRU and the dirty bit on hit.
    pub fn access(&mut self, block: u64, is_write: bool) -> Lookup {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(block);
        let ways = self.ways(set);
        for line in ways.iter_mut() {
            if line.valid && line.tag == block {
                line.stamp = clock;
                line.dirty |= is_write;
                let r = if line.prefetched {
                    line.prefetched = false;
                    Lookup::HitPrefetched
                } else {
                    Lookup::Hit
                };
                match r {
                    Lookup::HitPrefetched => {
                        self.stats.hits += 1;
                        self.stats.prefetch_hits += 1;
                    }
                    _ => self.stats.hits += 1,
                }
                return r;
            }
        }
        self.stats.misses += 1;
        Lookup::Miss
    }

    /// Probe without side effects (no LRU update, no stats).
    pub fn contains(&self, block: u64) -> bool {
        let set = self.set_of(block);
        self.sets[set * self.assoc..(set + 1) * self.assoc]
            .iter()
            .any(|l| l.valid && l.tag == block)
    }

    /// Fills `block`, evicting the LRU way if the set is full. Returns the
    /// victim, if a valid line was displaced. `prefetch` marks the fill as
    /// prefetch-originated; `dirty` pre-dirties it (write-allocate stores).
    pub fn insert(&mut self, block: u64, prefetch: bool, dirty: bool) -> Option<Victim> {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(block);
        let ways = self.ways(set);
        // Already present (e.g. race between prefetch and demand): refresh.
        if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == block) {
            line.stamp = clock;
            line.dirty |= dirty;
            return None;
        }
        let victim_idx = ways
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.stamp } else { 0 })
            .map(|(i, _)| i)
            .expect("assoc >= 1");
        // Prefer an invalid way outright.
        let idx = ways.iter().position(|l| !l.valid).unwrap_or(victim_idx);
        let old = ways[idx];
        ways[idx] = Line {
            tag: block,
            valid: true,
            dirty,
            prefetched: prefetch,
            stamp: clock,
        };
        if prefetch {
            self.stats.prefetch_fills += 1;
        }
        if old.valid {
            self.stats.evictions += 1;
            if old.dirty {
                self.stats.writebacks += 1;
            }
            if old.prefetched {
                self.stats.useless_prefetch_evictions += 1;
            }
            Some(Victim {
                block: old.tag,
                dirty: old.dirty,
                unused_prefetch: old.prefetched,
            })
        } else {
            None
        }
    }

    /// Invalidates `block` if present; returns whether it was dirty.
    pub fn invalidate(&mut self, block: u64) -> Option<bool> {
        let set = self.set_of(block);
        let ways = self.ways(set);
        for line in ways.iter_mut() {
            if line.valid && line.tag == block {
                line.valid = false;
                return Some(line.dirty);
            }
        }
        None
    }

    /// Number of valid lines (for tests / occupancy introspection).
    pub fn occupancy(&self) -> usize {
        self.sets.iter().filter(|l| l.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 64 B = 256 B.
        Cache::new(256, 2)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(10, false), Lookup::Miss);
        c.insert(10, false, false);
        assert_eq!(c.access(10, false), Lookup::Hit);
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Blocks 0, 2, 4 all map to set 0 (2 sets → even blocks in set 0).
        c.insert(0, false, false);
        c.insert(2, false, false);
        c.access(0, false); // 0 is now MRU; 2 is LRU
        let v = c.insert(4, false, false).expect("eviction");
        assert_eq!(v.block, 2);
        assert!(c.contains(0) && c.contains(4) && !c.contains(2));
    }

    #[test]
    fn prefetch_hit_reported_once() {
        let mut c = tiny();
        c.insert(8, true, false);
        assert_eq!(c.access(8, false), Lookup::HitPrefetched);
        assert_eq!(c.access(8, false), Lookup::Hit); // bit cleared
        assert_eq!(c.stats.prefetch_hits, 1);
    }

    #[test]
    fn unused_prefetch_eviction_flagged() {
        let mut c = tiny();
        c.insert(0, true, false);
        c.insert(2, false, false);
        c.access(2, false);
        let v = c.insert(4, false, false).unwrap();
        assert_eq!(v.block, 0);
        assert!(v.unused_prefetch);
        assert_eq!(c.stats.useless_prefetch_evictions, 1);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        c.insert(0, false, false);
        c.access(0, true); // dirty it
        c.insert(2, false, false);
        let v = c.insert(4, false, false).unwrap();
        assert_eq!(v.block, 0);
        assert!(v.dirty);
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let mut c = tiny();
        c.insert(0, false, false);
        assert!(c.insert(0, false, false).is_none());
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.insert(0, false, false);
        c.access(0, true);
        assert_eq!(c.invalidate(0), Some(true));
        assert!(!c.contains(0));
        assert_eq!(c.invalidate(0), None);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = tiny();
        for b in 0..100u64 {
            c.insert(b, false, false);
        }
        assert!(c.occupancy() <= 4);
    }

    #[test]
    fn table3_geometry() {
        // LLC: 2 MB, 16-way → 2048 sets.
        let llc = Cache::new(2 * 1024 * 1024, 16);
        assert_eq!(llc.num_sets(), 2048);
        // L1D: 64 KB, 4-way → 256 sets.
        let l1 = Cache::new(64 * 1024, 4);
        assert_eq!(l1.num_sets(), 256);
        // L2: 512 KB, 8-way → 1024 sets.
        let l2 = Cache::new(512 * 1024, 8);
        assert_eq!(l2.num_sets(), 1024);
    }
}
