/// A set-associative cache model with true LRU replacement, operating on
/// 32-byte sector addresses.
///
/// Used for both the per-SM L1 slices and the shared L2 of the timing
/// simulator. Tags are probed per access; this is a *functional* hit/miss
/// model (no MSHR merging), which is the fidelity level the PKA methodology
/// needs — miss rates and the resulting latency/bandwidth pressure.
///
/// Each set is stored as a tag-only list in recency order, most recently
/// used first: a hit moves its line to the front and a fill evicts the
/// back. That order *is* the LRU order, so there are no per-line
/// timestamps to keep, and the whole model is one tag word per line plus a
/// fill count per set.
///
/// # Examples
///
/// ```
/// use pka_sim::SetAssocCache;
///
/// let mut cache = SetAssocCache::new(1024, 4, 32);
/// assert!(!cache.access(0x1000)); // cold miss
/// assert!(cache.access(0x1000)); // now resident
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    line_shift: u32,
    /// `tags[set * ways..][..ways]`: the set's resident lines, most recently
    /// used first; only the first `filled[set]` entries are valid.
    tags: Vec<u64>,
    /// Valid lines per set (a set fills front to back, never shrinks).
    filled: Vec<u32>,
    accesses: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates a cache with `sets × ways` lines of `line_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero, `ways` exceeds `u32::MAX`, or
    /// `line_bytes` is not a power of two.
    pub fn new(sets: usize, ways: usize, line_bytes: u64) -> Self {
        assert!(sets > 0 && ways > 0, "cache must have sets and ways");
        assert!(u32::try_from(ways).is_ok(), "too many ways");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        Self {
            sets,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            tags: vec![0; sets * ways],
            filled: vec![0; sets],
            accesses: 0,
            misses: 0,
        }
    }

    /// Builds a cache of `capacity_bytes` with the given associativity and
    /// line size (sets derived; capacity is rounded down to a whole number
    /// of sets, minimum one).
    pub fn with_capacity(capacity_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        let lines = (capacity_bytes / line_bytes).max(ways as u64);
        let sets = (lines as usize / ways).max(1);
        Self::new(sets, ways, line_bytes)
    }

    /// Probes (and fills on miss) the line containing `addr`. Returns `true`
    /// on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let line = addr >> self.line_shift;
        let set = (line as usize) % self.sets;
        let filled = self.filled[set] as usize;
        let slots = &mut self.tags[set * self.ways..][..self.ways];

        if let Some(way) = slots[..filled].iter().position(|&t| t == line) {
            // Promote to most recently used.
            slots.copy_within(..way, 1);
            slots[0] = line;
            return true;
        }
        self.misses += 1;
        // Fill at the front; a full set drops its back (least recent) line.
        if filled < self.ways {
            self.filled[set] += 1;
            slots.copy_within(..filled, 1);
        } else {
            slots.copy_within(..filled - 1, 1);
        }
        slots[0] = line;
        false
    }

    /// Total probes so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate in percent (0 when never accessed).
    pub fn miss_rate_pct(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64 * 100.0
        }
    }

    /// Invalidates all lines and resets statistics.
    pub fn reset(&mut self) {
        self.filled.fill(0);
        self.accesses = 0;
        self.misses = 0;
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        (self.sets * self.ways) as u64 * (1u64 << self.line_shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "sets and ways")]
    fn zero_sets_panics() {
        let _ = SetAssocCache::new(0, 4, 32);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn odd_line_size_panics() {
        let _ = SetAssocCache::new(16, 4, 48);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = SetAssocCache::new(16, 2, 32);
        assert!(!c.access(64));
        assert!(c.access(64));
        assert!(c.access(95)); // same 32B line as 64? 95/32 = 2, 64/32 = 2 -> same line
        assert_eq!(c.misses(), 1);
        assert_eq!(c.accesses(), 3);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 1 set, 2 ways: addresses 0, 512, 1024 conflict (sets=1).
        let mut c = SetAssocCache::new(1, 2, 32);
        c.access(0); // miss, fill
        c.access(512); // miss, fill
        c.access(0); // hit, refresh
        c.access(1024); // miss, evicts 512
        assert!(c.access(0), "0 was most recent, must survive");
        assert!(!c.access(512), "512 was LRU, must be gone");
    }

    #[test]
    fn working_set_within_capacity_hits() {
        let mut c = SetAssocCache::with_capacity(32 * 1024, 4, 32);
        let lines = 512; // 16 KiB of 32B lines, half the capacity
        for pass in 0..3 {
            for i in 0..lines {
                let hit = c.access(i * 32);
                if pass > 0 {
                    assert!(hit, "line {i} should be resident on pass {pass}");
                }
            }
        }
    }

    #[test]
    fn streaming_thrashes() {
        let mut c = SetAssocCache::with_capacity(4 * 1024, 4, 32);
        // Touch 100x the capacity once; everything misses.
        for i in 0..12_800u64 {
            c.access(i * 32);
        }
        assert_eq!(c.miss_rate_pct(), 100.0);
    }

    #[test]
    fn capacity_round_trip() {
        let c = SetAssocCache::with_capacity(6 * 1024 * 1024, 16, 32);
        assert_eq!(c.capacity_bytes(), 6 * 1024 * 1024);
    }

    #[test]
    fn reset_clears_state() {
        let mut c = SetAssocCache::new(4, 2, 32);
        c.access(0);
        c.reset();
        assert_eq!(c.accesses(), 0);
        assert!(!c.access(0), "reset must invalidate");
    }
}
