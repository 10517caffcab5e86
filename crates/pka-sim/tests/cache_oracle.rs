//! The recency-list cache against a timestamp-LRU reference model.
//!
//! [`SetAssocCache`] keeps each set as a tag list in most-recent-first
//! order. The reference below is the textbook form it replaced: one tag and
//! one logical timestamp per way, hit on tag match, fill into an invalid
//! way or else evict the way with the oldest stamp. Stamps are unique (one
//! clock tick per access), so "oldest stamp" names exactly one way, and it
//! is the back of the recency list. The property checks that claim over
//! random geometries and conflict-heavy address streams, `reset()`
//! included.

use pka_sim::SetAssocCache;
use proptest::prelude::*;

/// Timestamp-LRU reference model.
struct StampLru {
    sets: usize,
    ways: usize,
    line_shift: u32,
    /// `tags[set * ways + way]`; `u64::MAX` marks an invalid way.
    tags: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    accesses: u64,
    misses: u64,
}

impl StampLru {
    fn new(sets: usize, ways: usize, line_bytes: u64) -> Self {
        Self {
            sets,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            clock: 0,
            accesses: 0,
            misses: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        self.accesses += 1;
        let line = addr >> self.line_shift;
        let base = (line as usize % self.sets) * self.ways;
        let slots = &self.tags[base..base + self.ways];
        if let Some(way) = slots.iter().position(|&t| t == line) {
            self.stamps[base + way] = self.clock;
            return true;
        }
        self.misses += 1;
        let victim = slots
            .iter()
            .position(|&t| t == u64::MAX)
            .unwrap_or_else(|| {
                (0..self.ways)
                    .min_by_key(|&w| self.stamps[base + w])
                    .expect("ways > 0")
            });
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.clock;
        false
    }

    fn miss_rate_pct(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64 * 100.0
        }
    }

    fn reset(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        self.clock = 0;
        self.accesses = 0;
        self.misses = 0;
    }
}

/// One step of a trace: a probe of `line` at byte `offset` within it
/// (both reduced modulo the geometry), or a reset.
#[derive(Debug, Clone, Copy)]
enum Op {
    Access { line: u64, offset: u64 },
    Reset,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        200 => (0u64..1 << 20, any::<u64>()).prop_map(|(line, offset)| Op::Access { line, offset }),
        1 => Just(Op::Reset),
    ];
    prop::collection::vec(op, 1..2_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn recency_lists_match_stamp_lru(
        sets in 1usize..24,
        ways in 1usize..17,
        line_log2 in 0u32..8,
        // Lines are drawn from a pool a small multiple of the capacity, so
        // sets overflow and evictions dominate.
        pool_factor in 1u64..5,
        trace in ops(),
    ) {
        let line_bytes = 1u64 << line_log2;
        let pool = (sets * ways) as u64 * pool_factor + 1;
        let mut cache = SetAssocCache::new(sets, ways, line_bytes);
        let mut oracle = StampLru::new(sets, ways, line_bytes);
        for (step, op) in trace.iter().enumerate() {
            match *op {
                Op::Access { line, offset } => {
                    let addr = (line % pool) * line_bytes + offset % line_bytes;
                    prop_assert!(cache.access(addr) == oracle.access(addr), "diverged at step {}", step);
                }
                Op::Reset => {
                    cache.reset();
                    oracle.reset();
                }
            }
            prop_assert_eq!(cache.accesses(), oracle.accesses);
            prop_assert_eq!(cache.misses(), oracle.misses);
            prop_assert_eq!(cache.miss_rate_pct().to_bits(), oracle.miss_rate_pct().to_bits());
        }
    }
}

#[test]
fn the_engine_geometries_match_stamp_lru() {
    // The simulator's own L1 (4-way) and L2 (16-way) shapes on a long
    // skewed stream: a hot set of lines re-touched between cold sweeps.
    for (sets, ways) in [(1024, 4), (12_288, 16), (3, 16)] {
        let mut cache = SetAssocCache::new(sets, ways, 32);
        let mut oracle = StampLru::new(sets, ways, 32);
        let mut rng = TestRng::from_seed(sets as u64);
        let lines = (sets * ways) as u64;
        for _ in 0..200_000 {
            let line = if rng.next_below(4) == 0 {
                rng.next_below(lines * 3)
            } else {
                rng.next_below(lines / 2 + 1)
            };
            let addr = line * 32 + rng.next_below(32);
            assert_eq!(cache.access(addr), oracle.access(addr));
        }
        assert_eq!(cache.misses(), oracle.misses);
        assert!(cache.misses() > 0 && cache.misses() < cache.accesses());
    }
}
