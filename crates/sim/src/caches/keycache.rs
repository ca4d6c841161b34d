//! X-Cache model: exact-key leaf cache.
//!
//! X-Cache (Sedaghati et al., ISCA'22) is the state-of-the-art DSA cache
//! the paper compares against. It "tags the data with the actual key, and a
//! hit short-circuits the entire walk. However, on a miss, X-Cache triggers
//! a root-to-leaf walk" and then inserts the *leaf* (§2.3). Because leaves
//! are the least-reused level of a deep index, its miss rate is high
//! (0.6–0.95 in the paper's Fig. 15).
//!
//! We model it as a set-associative exact-key cache whose payload is the
//! leaf's block address. A line's tag is the key *and* the index it was
//! looked up in, so on multi-index workloads (JOIN, R-tree) a key cached
//! from one index never hits in another. As in the paper's setup, the
//! hit path returns data on a fast path and the miss handlers are ideal
//! (limited only by DRAM latency).

use crate::types::Key;

/// Opaque payload a [`KeyCache`] line carries — typically the leaf's node
/// id or block number; the cache never interprets it.
pub type LeafToken = u64;

/// Identifier of the index a [`KeyCache`] line was filled from.
pub type IndexTag = u8;

/// Exact-key → leaf cache (the X-Cache organization).
#[derive(Debug, Clone)]
pub struct KeyCache {
    sets: Vec<Set>,
    ways: usize,
    probes: u64,
    misses: u64,
    inserts: u64,
    tick: u64,
}

#[derive(Debug, Clone, Default)]
struct Set {
    /// (index, key, leaf token, last-use tick).
    lines: Vec<(IndexTag, Key, LeafToken, u64)>,
}

impl KeyCache {
    /// Creates an X-Cache with `entries` lines and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `ways` is zero, or `entries % ways != 0`.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(entries > 0, "cache needs at least one entry");
        assert!(ways > 0, "cache needs at least one way");
        assert!(
            entries.is_multiple_of(ways),
            "entries ({entries}) must be a multiple of ways ({ways})"
        );
        KeyCache {
            sets: vec![Set::default(); entries / ways],
            ways,
            probes: 0,
            misses: 0,
            inserts: 0,
            tick: 0,
        }
    }

    fn set_of(&self, key: Key) -> usize {
        (key as usize) % self.sets.len()
    }

    /// Probes for an exact `key` of index `index`. On a hit the whole
    /// walk short-circuits and the cached leaf token is returned.
    pub fn probe(&mut self, index: IndexTag, key: Key) -> Option<LeafToken> {
        self.tick += 1;
        self.probes += 1;
        let set = self.set_of(key);
        let tick = self.tick;
        if let Some(line) = self.sets[set]
            .lines
            .iter_mut()
            .find(|l| (l.0, l.1) == (index, key))
        {
            line.3 = tick;
            return Some(line.2);
        }
        self.misses += 1;
        None
    }

    /// Inserts the leaf found by a miss walk (allocate-on-miss, LRU victim).
    pub fn insert(&mut self, index: IndexTag, key: Key, leaf: LeafToken) {
        self.tick += 1;
        self.inserts += 1;
        let set_idx = self.set_of(key);
        let tick = self.tick;
        let ways = self.ways;
        let set = &mut self.sets[set_idx];
        if let Some(line) = set.lines.iter_mut().find(|l| (l.0, l.1) == (index, key)) {
            line.2 = leaf;
            line.3 = tick;
            return;
        }
        if set.lines.len() < ways {
            set.lines.push((index, key, leaf, tick));
        } else {
            let victim = set
                .lines
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.3)
                .map(|(i, _)| i)
                .expect("full set is non-empty");
            set.lines[victim] = (index, key, leaf, tick);
        }
    }

    /// Drops every cached line of `index` whose key falls in `[lo, hi]`
    /// and returns how many died. The mutation coherence hook: X-Cache
    /// tags exact keys, so a structural change to the span `[lo, hi]` of
    /// a mutated leaf invalidates exactly the lines inside it.
    pub fn invalidate_range(&mut self, index: IndexTag, lo: Key, hi: Key) -> u64 {
        let mut killed = 0u64;
        for set in &mut self.sets {
            let before = set.lines.len();
            set.lines
                .retain(|&(i, k, _, _)| i != index || k < lo || k > hi);
            killed += (before - set.lines.len()) as u64;
        }
        killed
    }

    /// Checks residency without side effects.
    pub fn peek(&self, index: IndexTag, key: Key) -> bool {
        let set = self.set_of(key);
        self.sets[set]
            .lines
            .iter()
            .any(|l| (l.0, l.1) == (index, key))
    }

    /// Number of probes issued.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Number of probe misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of insertions performed.
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Miss rate over all probes (0.0 if none).
    pub fn miss_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.misses as f64 / self.probes as f64
        }
    }

    /// Total line count.
    pub fn entries(&self) -> usize {
        self.sets.len() * self.ways
    }

    /// Currently valid lines.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(|s| s.lines.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_miss_then_hit_after_insert() {
        let mut c = KeyCache::new(16, 4);
        assert_eq!(c.probe(0, 42), None);
        c.insert(0, 42, 7);
        assert_eq!(c.probe(0, 42), Some(7));
        assert_eq!(c.probes(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn exact_key_match_only() {
        let mut c = KeyCache::new(16, 4);
        c.insert(0, 100, 1);
        // Unlike the IX-cache, a nearby key does NOT hit.
        assert_eq!(c.probe(0, 101), None);
        assert_eq!(c.probe(0, 99), None);
        assert_eq!(c.probe(0, 100), Some(1));
    }

    #[test]
    fn indexes_are_isolated() {
        let mut c = KeyCache::new(16, 4);
        c.insert(0, 42, 7);
        // The same key in another index is a different line.
        assert_eq!(c.probe(1, 42), None);
        assert!(!c.peek(1, 42));
        c.insert(1, 42, 9);
        assert_eq!(c.occupancy(), 2);
        assert_eq!(c.invalidate_range(1, 0, 100), 1);
        assert_eq!(c.probe(0, 42), Some(7), "index 0's line survives");
    }

    #[test]
    fn insert_updates_existing_line() {
        let mut c = KeyCache::new(4, 4);
        c.insert(0, 5, 1);
        c.insert(0, 5, 2);
        assert_eq!(c.occupancy(), 1, "same key overwrites, not duplicates");
        assert_eq!(c.probe(0, 5), Some(2));
    }

    #[test]
    fn lru_eviction_within_set() {
        // 1 set × 2 ways; keys all map to set 0.
        let mut c = KeyCache::new(2, 2);
        c.insert(0, 0, 10);
        c.insert(0, 2, 20);
        assert!(c.probe(0, 0).is_some()); // refresh key 0
        c.insert(0, 4, 30); // evicts key 2
        assert!(c.peek(0, 0));
        assert!(!c.peek(0, 2));
        assert!(c.peek(0, 4));
    }

    #[test]
    fn many_distinct_leaves_thrash() {
        // The paper's Observation 3: leaf working set exceeds capacity →
        // miss rate stays high.
        let mut c = KeyCache::new(64, 16);
        let mut probes_hit = 0;
        for round in 0..4 {
            for k in 0..1000u64 {
                if c.probe(0, k).is_some() {
                    probes_hit += 1;
                }
                if round == 0 || !c.peek(0, k) {
                    c.insert(0, k, k);
                }
            }
        }
        assert!(
            c.miss_rate() > 0.9,
            "1000-leaf working set in 64 entries must thrash (got {})",
            c.miss_rate()
        );
        assert!(probes_hit < 400);
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn bad_geometry_rejected() {
        let _ = KeyCache::new(6, 4);
    }

    #[test]
    fn invalidate_range_drops_only_covered_keys() {
        let mut c = KeyCache::new(16, 4);
        for k in [3u64, 10, 11, 20] {
            c.insert(0, k, k * 100);
        }
        assert_eq!(c.invalidate_range(0, 10, 15), 2);
        assert!(c.peek(0, 3));
        assert!(!c.peek(0, 10) && !c.peek(0, 11));
        assert!(c.peek(0, 20));
        assert_eq!(c.occupancy(), 2);
        assert_eq!(c.invalidate_range(0, 10, 15), 0, "already gone");
    }
}
