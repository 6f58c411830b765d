//! Differential oracle for the cache model: `CacheHierarchy` keeps each
//! set's LRU state as a most-recently-used-first order, and must hit and
//! miss exactly as the timestamped true-LRU model it replaced. That model
//! is kept here, verbatim in its replacement logic, as the reference.
//! A run (`CacheHierarchy::access_run`), which only counts the lookups
//! that repeat the one before, must agree with the reference taking every
//! step of it as its own access.

use proptest::prelude::*;

use axi4mlir_sim::cache::{
    AccessKind, AccessOutcome, CacheConfig, CacheHierarchy, CacheLevelStats,
};

const INVALID_TAG: u64 = u64::MAX;

/// One level with per-way timestamps: a hit restamps its way; a miss fills
/// the first invalid way, else the way with the oldest stamp.
struct StampLevel {
    config: CacheConfig,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    tick: u64,
    stats: CacheLevelStats,
}

impl StampLevel {
    fn new(config: CacheConfig) -> Self {
        let entries = (num_sets(&config) * u64::from(config.ways)) as usize;
        Self {
            config,
            tags: vec![INVALID_TAG; entries],
            stamps: vec![0; entries],
            tick: 0,
            stats: CacheLevelStats::default(),
        }
    }

    fn access_line(&mut self, line_addr: u64) -> bool {
        self.tick += 1;
        let sets = num_sets(&self.config);
        let set = (line_addr % sets) as usize;
        let tag = line_addr / sets;
        let ways = self.config.ways as usize;
        let base = set * ways;
        self.stats.accesses += 1;
        for w in 0..ways {
            if self.tags[base + w] == tag {
                self.stamps[base + w] = self.tick;
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for w in 0..ways {
            if self.tags[base + w] == INVALID_TAG {
                victim = w;
                break;
            }
            if self.stamps[base + w] < oldest {
                oldest = self.stamps[base + w];
                victim = w;
            }
        }
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = self.tick;
        false
    }

    fn flush(&mut self) {
        self.tags.fill(INVALID_TAG);
        self.stamps.fill(0);
    }
}

fn num_sets(config: &CacheConfig) -> u64 {
    config.size_bytes / (config.line_bytes * u64::from(config.ways))
}

/// The reference hierarchy: L1, optional L2, line-split spans.
struct StampHierarchy {
    l1: StampLevel,
    l2: Option<StampLevel>,
}

impl StampHierarchy {
    fn new(levels: &[CacheConfig]) -> Self {
        Self { l1: StampLevel::new(levels[0]), l2: levels.get(1).map(|c| StampLevel::new(*c)) }
    }

    /// `repeats` accesses of each `step`-byte piece of the span, one by one.
    fn access_run(&mut self, addr: u64, bytes: u64, step: u64, repeats: u64) -> AccessOutcome {
        let mut total = AccessOutcome::default();
        for at in (addr..addr + bytes).step_by(step as usize) {
            for _ in 0..repeats {
                let outcome = self.access(at, step.min(addr + bytes - at));
                total.l1_lookups += outcome.l1_lookups;
                total.l1_misses += outcome.l1_misses;
                total.l2_misses += outcome.l2_misses;
            }
        }
        total
    }

    fn access(&mut self, addr: u64, bytes: u64) -> AccessOutcome {
        let line = self.l1.config.line_bytes;
        let mut outcome = AccessOutcome::default();
        for line_addr in addr / line..=(addr + bytes.max(1) - 1) / line {
            outcome.l1_lookups += 1;
            if !self.l1.access_line(line_addr) {
                outcome.l1_misses += 1;
                let l2_hit = self.l2.as_mut().is_some_and(|l2| l2.access_line(line_addr));
                outcome.l2_misses += u64::from(!l2_hit);
            }
        }
        outcome
    }

    fn flush(&mut self) {
        self.l1.flush();
        if let Some(l2) = &mut self.l2 {
            l2.flush();
        }
    }

    fn l2_stats(&self) -> CacheLevelStats {
        self.l2.as_ref().map(|l| l.stats).unwrap_or_default()
    }
}

/// One step of a trace: an access `(pool index, bytes, kind)`, a run
/// `(pool index, aligned, bytes, step, repeats)` — from the pool address,
/// or from it rounded down to a multiple of `step` — or a flush.
#[derive(Clone, Debug)]
enum Step {
    Access(usize, u64, AccessKind),
    Run(usize, bool, u64, u64, u64),
    Flush,
}

/// A small address pool: lines at multiples of both levels' set spans, so
/// six share each L1 set and twelve each L2 set — more than either level
/// has ways — each at a sub-line offset so a 64-byte access straddles.
fn pool(levels: &[CacheConfig]) -> Vec<u64> {
    let span = |c: &CacheConfig| num_sets(c) * c.line_bytes;
    let l1 = span(&levels[0]);
    let last = span(levels.last().expect("a level"));
    let mut addrs = Vec::new();
    for a in 0..6u64 {
        for b in 0..12u64 {
            addrs.push(0x1_0000 + a * l1 + b * last + (a * 13 + b * 7) % 48);
        }
    }
    addrs
}

/// Steps ∈ {4, 8, 16, 32, 64}: inside a line, a whole line, and (64, or
/// any step over the tiny hierarchy's 16-byte lines) more than one.
fn steps(pool_len: usize) -> impl Strategy<Value = Vec<Step>> {
    let access = (0..pool_len, 1u64..=64, 0u32..40)
        .prop_map(|(i, bytes, roll)| match roll {
            0 => Step::Flush,
            r if r % 2 == 0 => Step::Access(i, bytes, AccessKind::Read),
            _ => Step::Access(i, bytes, AccessKind::Write),
        })
        .boxed();
    let run = (0..pool_len, 0u32..2, 0u64..=200, 2u32..=6, 1u64..=2).prop_map(
        |(i, aligned, bytes, log_step, repeats)| {
            Step::Run(i, aligned == 1, bytes, 1 << log_step, repeats)
        },
    );
    proptest::collection::vec(prop_oneof![access.clone(), access, run], 1..600)
}

/// Replays `trace` on `model` and on the reference built from `levels`,
/// comparing every outcome and the final per-level statistics.
fn agree(
    mut model: CacheHierarchy,
    levels: &[CacheConfig],
    trace: &[Step],
) -> Result<(), TestCaseError> {
    let addrs = pool(levels);
    let mut oracle = StampHierarchy::new(levels);
    for (n, step) in trace.iter().enumerate() {
        match *step {
            Step::Access(i, bytes, kind) => {
                let got = model.access(addrs[i], bytes, kind);
                let want = oracle.access(addrs[i], bytes);
                prop_assert_eq!(got, want, "step {} ({:?})", n, step);
            }
            Step::Run(i, aligned, bytes, piece, repeats) => {
                let addr = if aligned { addrs[i] / piece * piece } else { addrs[i] };
                let got = model.access_run(addr, bytes, piece, repeats);
                let want = oracle.access_run(addr, bytes, piece, repeats);
                prop_assert_eq!(got, want, "step {} ({:?})", n, step);
            }
            Step::Flush => {
                model.flush();
                oracle.flush();
            }
        }
    }
    prop_assert_eq!(model.l1_stats(), oracle.l1.stats);
    prop_assert_eq!(model.l2_stats(), oracle.l2_stats());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The paper's host: 32 KiB 4-way L1D over a 512 KiB 8-way L2.
    #[test]
    fn cortex_a9_matches_stamped_lru(trace in steps(72)) {
        let levels = [CacheConfig::new(32 * 1024, 32, 4), CacheConfig::new(512 * 1024, 32, 8)];
        agree(CacheHierarchy::cortex_a9(), &levels, &trace)?;
    }

    /// One set of two ways, no L2: every third distinct line evicts.
    #[test]
    fn one_set_two_ways_matches_stamped_lru(trace in steps(72)) {
        let levels = [CacheConfig::new(64, 32, 2)];
        agree(CacheHierarchy::new(&levels), &levels, &trace)?;
    }

    /// A tiny two-level hierarchy: 2-set 2-way L1 over a 4-set 4-way L2
    /// with 16-byte lines, so spans cover up to five lines.
    #[test]
    fn tiny_two_level_matches_stamped_lru(trace in steps(72)) {
        let levels = [CacheConfig::new(64, 16, 2), CacheConfig::new(256, 16, 4)];
        agree(CacheHierarchy::new(&levels), &levels, &trace)?;
    }
}
