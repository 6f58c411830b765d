//! Set-associative cache hierarchy with LRU replacement.
//!
//! Models the data-side cache hierarchy of the paper's host CPU (ARM
//! Cortex-A9 on the PYNQ-Z2: 32 KiB L1D, 512 KiB shared L2 — exactly the
//! `"cache-levels": [32K, 512K]` entry of the Fig. 5 configuration file).
//!
//! Only *cached* CPU accesses flow through here; the DMA staging regions are
//! mapped uncached on the real board and bypass the hierarchy (see
//! [`crate::dma`]).
//!
//! Replacement is kept as an order: each set holds its tags most recently
//! used first, invalid ways at the back. A hit moves its way to the front;
//! a miss drops the last way and inserts at the front. The back is an
//! invalid way while one is left and otherwise the valid way used longest
//! ago — the victim per-way timestamps would pick — so every access hits or
//! misses as under timestamped true LRU (`tests/cache_oracle.rs` compares
//! the two). Geometry is all powers of two: set and tag are a mask and a
//! shift.

use std::fmt;

/// Whether an access reads or writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store. The model is write-allocate, so a write miss fills the line.
    Write,
}

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
}

impl CacheConfig {
    /// Creates a config, validating the geometry.
    ///
    /// # Panics
    ///
    /// Panics if sizes are not powers of two or the geometry is inconsistent.
    pub fn new(size_bytes: u64, line_bytes: u64, ways: u32) -> Self {
        assert!(size_bytes.is_power_of_two(), "cache size must be a power of two");
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(ways > 0, "associativity must be positive");
        assert_eq!(
            size_bytes % (line_bytes * u64::from(ways)),
            0,
            "size must be divisible by line_bytes * ways"
        );
        Self { size_bytes, line_bytes, ways }
    }

    /// Cortex-A9 L1 data cache: 32 KiB, 32-byte lines, 4-way.
    fn cortex_a9_l1d() -> Self {
        Self::new(32 * 1024, 32, 4)
    }

    /// Zynq-7000 shared L2: 512 KiB, 32-byte lines, 8-way.
    fn zynq_l2() -> Self {
        Self::new(512 * 1024, 32, 8)
    }

    /// Number of sets.
    fn num_sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * u64::from(self.ways))
    }
}

/// Per-level hit/miss statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheLevelStats {
    /// Lookups presented to this level.
    pub accesses: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
}

/// One set-associative cache level with true-LRU replacement.
#[derive(Clone)]
struct CacheLevel {
    config: CacheConfig,
    /// `ways` tags per set, most recently used first; `INVALID_TAG` marks
    /// an empty way, and empty ways sit at the back of their set.
    tags: Vec<u64>,
    /// log2 of the set count: the line address's low bits pick the set.
    set_bits: u32,
    stats: CacheLevelStats,
}

const INVALID_TAG: u64 = u64::MAX;

impl CacheLevel {
    fn new(config: CacheConfig) -> Self {
        let sets = config.num_sets();
        Self {
            config,
            tags: vec![INVALID_TAG; (sets * u64::from(config.ways)) as usize],
            set_bits: sets.trailing_zeros(),
            stats: CacheLevelStats::default(),
        }
    }

    /// Looks up a line address; on miss, fills it (evicting LRU). Returns hit.
    #[inline]
    fn access_line(&mut self, line_addr: u64) -> bool {
        let n = self.config.ways as usize;
        let set = (line_addr & ((1 << self.set_bits) - 1)) as usize;
        let tag = line_addr >> self.set_bits;
        let ways = &mut self.tags[set * n..set * n + n];
        self.stats.accesses += 1;
        if ways[0] == tag {
            self.stats.hits += 1;
            return true;
        }
        let found = ways.iter().position(|&t| t == tag);
        self.stats.hits += u64::from(found.is_some());
        self.stats.misses += u64::from(found.is_none());
        // A hit moves its way to the front; a miss shifts the last way out.
        let mut w = found.unwrap_or(n - 1);
        while w > 0 {
            ways[w] = ways[w - 1];
            w -= 1;
        }
        ways[0] = tag;
        found.is_some()
    }

    fn flush(&mut self) {
        self.tags.fill(INVALID_TAG);
    }
}

impl fmt::Debug for CacheLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheLevel")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish()
    }
}

/// Result of presenting one access to the hierarchy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cache lookups performed at L1 (one per line touched).
    pub l1_lookups: u64,
    /// How many of those missed L1 (and were presented to L2).
    pub l1_misses: u64,
    /// How many missed L2 too (and went to DRAM).
    pub l2_misses: u64,
}

/// A two-level (L1D + unified L2) cache hierarchy.
///
/// # Examples
///
/// ```
/// use axi4mlir_sim::cache::{AccessKind, CacheConfig, CacheHierarchy};
///
/// let mut h = CacheHierarchy::cortex_a9();
/// let first = h.access(0x1_0000, 4, AccessKind::Read);
/// assert_eq!(first.l1_misses, 1); // cold miss
/// let second = h.access(0x1_0000, 4, AccessKind::Read);
/// assert_eq!(second.l1_misses, 0); // now resident
/// ```
#[derive(Clone, Debug)]
pub struct CacheHierarchy {
    l1: CacheLevel,
    l2: Option<CacheLevel>,
}

impl CacheHierarchy {
    /// Builds a hierarchy from level configs (L1 first). At least one level
    /// is required; levels beyond the second are folded into L2 capacity.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty.
    pub fn new(levels: &[CacheConfig]) -> Self {
        assert!(!levels.is_empty(), "at least one cache level required");
        let l1 = CacheLevel::new(levels[0]);
        let l2 = levels.get(1).map(|c| CacheLevel::new(*c));
        Self { l1, l2 }
    }

    /// The paper's host: 32 KiB L1D + 512 KiB L2.
    pub fn cortex_a9() -> Self {
        Self::new(&[CacheConfig::cortex_a9_l1d(), CacheConfig::zynq_l2()])
    }

    /// Presents an access of `bytes` bytes at `addr`; spans are split into
    /// line-sized lookups. Returns per-level miss counts for cost accounting.
    #[inline]
    pub fn access(&mut self, addr: u64, bytes: u64, _kind: AccessKind) -> AccessOutcome {
        let line_bits = self.l1.config.line_bytes.trailing_zeros();
        let first = addr >> line_bits;
        let last = (addr + bytes.max(1) - 1) >> line_bits;
        let mut outcome = AccessOutcome::default();
        for line_addr in first..=last {
            outcome.l1_lookups += 1;
            if !self.l1.access_line(line_addr) {
                outcome.l1_misses += 1;
                let l2_hit = self.l2.as_mut().is_some_and(|l2| l2.access_line(line_addr));
                outcome.l2_misses += u64::from(!l2_hit);
            }
        }
        outcome
    }

    /// L1 statistics.
    pub fn l1_stats(&self) -> CacheLevelStats {
        self.l1.stats
    }

    /// L2 statistics (zeroes if the hierarchy has one level).
    pub fn l2_stats(&self) -> CacheLevelStats {
        self.l2.as_ref().map(|l| l.stats).unwrap_or_default()
    }

    /// Invalidates all lines (keeps statistics).
    pub fn flush(&mut self) {
        self.l1.flush();
        if let Some(l2) = &mut self.l2 {
            l2.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_geometry() {
        let c = CacheConfig::cortex_a9_l1d();
        assert_eq!(c.num_sets(), 32 * 1024 / (32 * 4));
        let l2 = CacheConfig::zynq_l2();
        assert_eq!(l2.num_sets(), 512 * 1024 / (32 * 8));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_config_panics() {
        let _ = CacheConfig::new(3000, 32, 4);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut h = CacheHierarchy::cortex_a9();
        let o1 = h.access(0x2_0000, 4, AccessKind::Read);
        assert_eq!(o1, AccessOutcome { l1_lookups: 1, l1_misses: 1, l2_misses: 1 });
        let o2 = h.access(0x2_0000, 4, AccessKind::Write);
        assert_eq!(o2, AccessOutcome { l1_lookups: 1, l1_misses: 0, l2_misses: 0 });
        assert_eq!(h.l1_stats().hits, 1);
        assert_eq!(h.l1_stats().misses, 1);
    }

    #[test]
    fn same_line_shares_fill() {
        let mut h = CacheHierarchy::cortex_a9();
        h.access(0x2_0000, 4, AccessKind::Read);
        // Neighbouring element on the same 32-byte line hits.
        let o = h.access(0x2_0004, 4, AccessKind::Read);
        assert_eq!(o.l1_misses, 0);
    }

    #[test]
    fn spanning_access_touches_two_lines() {
        let mut h = CacheHierarchy::cortex_a9();
        let o = h.access(0x2_0000 + 30, 4, AccessKind::Read);
        assert_eq!(o.l1_lookups, 2);
        assert_eq!(o.l1_misses, 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        // Tiny 2-way cache with 1 set: 2 lines of 32B.
        let cfg = CacheConfig::new(64, 32, 2);
        let mut h = CacheHierarchy::new(&[cfg]);
        h.access(0, 4, AccessKind::Read); // line 0
        h.access(32, 4, AccessKind::Read); // line 1
        h.access(0, 4, AccessKind::Read); // touch line 0 (line 1 is LRU)
        h.access(64, 4, AccessKind::Read); // evicts line 1
        let o = h.access(0, 4, AccessKind::Read);
        assert_eq!(o.l1_misses, 0, "line 0 should still be resident");
        let o = h.access(32, 4, AccessKind::Read);
        assert_eq!(o.l1_misses, 1, "line 1 should have been evicted");
    }

    #[test]
    fn l2_catches_l1_misses() {
        // L1: 2 lines; L2: 64 lines. Stream 4 lines then re-read: L1 misses
        // but L2 hits.
        let l1 = CacheConfig::new(64, 32, 2);
        let l2 = CacheConfig::new(2048, 32, 8);
        let mut h = CacheHierarchy::new(&[l1, l2]);
        for i in 0..4 {
            h.access(i * 32, 4, AccessKind::Read);
        }
        let o = h.access(0, 4, AccessKind::Read);
        assert_eq!(o.l1_misses, 1);
        assert_eq!(o.l2_misses, 0, "L2 should retain the line");
    }

    #[test]
    fn working_set_larger_than_l1_thrashes() {
        let mut h = CacheHierarchy::cortex_a9();
        // 64 KiB working set streamed twice: second pass still misses L1
        // (32 KiB) but hits L2.
        let span = 64 * 1024;
        for pass in 0..2 {
            for off in (0..span).step_by(32) {
                let o = h.access(0x10_0000 + off, 4, AccessKind::Read);
                if pass == 1 {
                    assert_eq!(o.l1_misses, 1);
                    assert_eq!(o.l2_misses, 0);
                }
            }
        }
    }

    #[test]
    fn working_set_within_l1_stays_hot() {
        let mut h = CacheHierarchy::cortex_a9();
        let span = 8 * 1024;
        for off in (0..span).step_by(32) {
            h.access(0x10_0000 + off, 4, AccessKind::Read);
        }
        for off in (0..span).step_by(32) {
            let o = h.access(0x10_0000 + off, 4, AccessKind::Read);
            assert_eq!(o.l1_misses, 0);
        }
    }

    #[test]
    fn flush_invalidates() {
        let mut h = CacheHierarchy::cortex_a9();
        h.access(0x2_0000, 4, AccessKind::Read);
        h.flush();
        let o = h.access(0x2_0000, 4, AccessKind::Read);
        assert_eq!(o.l1_misses, 1);
    }

    #[test]
    fn hit_rate_reporting() {
        let mut h = CacheHierarchy::cortex_a9();
        h.access(0x2_0000, 4, AccessKind::Read);
        h.access(0x2_0000, 4, AccessKind::Read);
        let s = h.l1_stats();
        assert_eq!((s.accesses, s.hits, s.misses), (2, 1, 1));
        assert_eq!(CacheLevelStats::default().accesses, 0);
    }
}
