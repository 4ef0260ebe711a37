//! Set-associative SRAM cache model (L1 / L2).
//!
//! The model tracks tags and metadata only — simulated programs have no data
//! values. Lines record whether they cache *remotely homed* memory so the
//! NUMA-GPU software-coherence flush ([`SetAssocCache::invalidate_remote`])
//! can drop exactly those lines at kernel boundaries.

/// Whether an access reads or writes the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// A dirty line pushed out by a fill, which the owner must write back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line-aligned address of the victim.
    pub addr: u64,
    /// Whether the victim cached remotely homed memory.
    pub remote: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    remote: bool,
    lru: u64,
}

/// A set-associative cache with true-LRU replacement.
///
/// Write policy is the *caller's* decision: [`SetAssocCache::probe`] updates
/// recency and reports hit/miss; the caller chooses whether to
/// [`fill`](SetAssocCache::fill) on a miss (allocate-on-miss) and whether to
/// [`mark_dirty`](SetAssocCache::mark_dirty) on stores (write-back) or to
/// propagate the store downstream (write-through).
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    line_size: u64,
    /// `log2(line_size)` and `log2(sets)`: [`SetAssocCache::index`]
    /// shifts and masks instead of dividing.
    line_shift: u32,
    set_shift: u32,
    lines: Vec<Line>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates a cache of `capacity_bytes` with `ways` ways and
    /// `line_size`-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, capacity not
    /// divisible into at least one set, or a non-power-of-two line size or
    /// set count — required for shift-and-mask indexing).
    pub fn new(capacity_bytes: u64, ways: usize, line_size: u64) -> SetAssocCache {
        assert!(capacity_bytes > 0 && ways > 0 && line_size.is_power_of_two());
        let total_lines = (capacity_bytes / line_size) as usize;
        assert!(
            total_lines >= ways,
            "capacity {capacity_bytes} too small for {ways} ways of {line_size}B lines"
        );
        let sets = total_lines / ways;
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        SetAssocCache {
            sets,
            ways,
            line_size,
            line_shift: line_size.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            lines: vec![Line::default(); sets * ways],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn index(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr as usize) & (self.sets - 1);
        let tag = line_addr >> self.set_shift;
        (set, tag)
    }

    /// Looks up `addr`; on a hit updates recency (and dirty state for
    /// writes, so callers using write-back semantics get it for free).
    /// Returns `true` on hit.
    pub fn probe(&mut self, addr: u64, kind: AccessKind) -> bool {
        self.tick += 1;
        let (set, tag) = self.index(addr);
        let base = set * self.ways;
        for way in 0..self.ways {
            let line = &mut self.lines[base + way];
            if line.valid && line.tag == tag {
                line.lru = self.tick;
                if kind == AccessKind::Write {
                    line.dirty = true;
                }
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    /// Accounts `n` probes that missed without re-running them: each moves
    /// only the LRU clock and the miss counter, so this leaves exactly what
    /// `n` missing [`SetAssocCache::probe`] calls would.
    pub fn credit_misses(&mut self, n: u64) {
        self.tick += n;
        self.misses += n;
    }

    /// Looks up `addr` without disturbing recency or hit/miss statistics.
    pub fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        let base = set * self.ways;
        (0..self.ways).any(|w| {
            let l = &self.lines[base + w];
            l.valid && l.tag == tag
        })
    }

    /// Installs the line for `addr`, evicting LRU if the set is full.
    /// Returns the evicted line if it was valid *and dirty* (needs
    /// write-back); clean victims vanish silently.
    pub fn fill(&mut self, addr: u64, remote: bool) -> Option<Eviction> {
        self.tick += 1;
        let (set, tag) = self.index(addr);
        let base = set * self.ways;
        // Already present (e.g. racing fills merged by an MSHR): refresh.
        for way in 0..self.ways {
            let line = &mut self.lines[base + way];
            if line.valid && line.tag == tag {
                line.lru = self.tick;
                line.remote = remote;
                return None;
            }
        }
        // Choose an invalid way, else the LRU way.
        let mut victim = base;
        let mut best = u64::MAX;
        for way in 0..self.ways {
            let line = &self.lines[base + way];
            if !line.valid {
                victim = base + way;
                break;
            }
            if line.lru < best {
                best = line.lru;
                victim = base + way;
            }
        }
        let old = self.lines[victim];
        self.lines[victim] = Line {
            tag,
            valid: true,
            dirty: false,
            remote,
            lru: self.tick,
        };
        if old.valid && old.dirty {
            let line_addr = (old.tag * self.sets as u64 + set as u64) * self.line_size;
            Some(Eviction {
                addr: line_addr,
                remote: old.remote,
            })
        } else {
            None
        }
    }

    /// Marks the line holding `addr` dirty (no-op if absent). Returns
    /// whether the line was present.
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        let base = set * self.ways;
        for way in 0..self.ways {
            let line = &mut self.lines[base + way];
            if line.valid && line.tag == tag {
                line.dirty = true;
                return true;
            }
        }
        false
    }

    /// Invalidates the line holding `addr` if present; returns whether the
    /// invalidated line was dirty.
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let (set, tag) = self.index(addr);
        let base = set * self.ways;
        for way in 0..self.ways {
            let line = &mut self.lines[base + way];
            if line.valid && line.tag == tag {
                line.valid = false;
                return Some(line.dirty);
            }
        }
        None
    }

    /// Invalidates every line (kernel-boundary L1 flush). Returns the number
    /// of lines dropped.
    pub fn invalidate_all(&mut self) -> usize {
        let mut n = 0;
        for line in &mut self.lines {
            if line.valid {
                line.valid = false;
                n += 1;
            }
        }
        n
    }

    /// Invalidates only lines caching *remote* memory (NUMA-GPU's software
    /// coherence extension to the LLC). Returns dirty remote lines that
    /// would need write-back before dropping.
    pub fn invalidate_remote(&mut self) -> Vec<Eviction> {
        let mut dirty = Vec::new();
        for set in 0..self.sets {
            for way in 0..self.ways {
                let idx = set * self.ways + way;
                let line = self.lines[idx];
                if line.valid && line.remote {
                    if line.dirty {
                        let addr = (line.tag * self.sets as u64 + set as u64) * self.line_size;
                        dirty.push(Eviction { addr, remote: true });
                    }
                    self.lines[idx].valid = false;
                }
            }
        }
        dirty
    }

    /// Total line-granularity accesses that hit.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total line-granularity accesses that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate over all probes (0.0 when never probed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    /// Configured line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.line_size
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> SetAssocCache {
        SetAssocCache::new(4096, 4, 128) // 8 sets x 4 ways
    }

    #[test]
    fn cold_miss_then_hit_after_fill() {
        let mut c = cache();
        assert!(!c.probe(0x1000, AccessKind::Read));
        c.fill(0x1000, false);
        assert!(c.probe(0x1000, AccessKind::Read));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn credited_misses_match_missing_probes() {
        let mut probed = cache();
        let mut credited = cache();
        for c in [&mut probed, &mut credited] {
            c.fill(0x1000, false);
        }
        for _ in 0..5 {
            assert!(!probed.probe(0x8000, AccessKind::Read));
        }
        credited.credit_misses(5);
        assert_eq!(probed.misses(), credited.misses());
        assert_eq!(probed.tick, credited.tick);
    }

    #[test]
    fn same_line_different_offset_hits() {
        let mut c = cache();
        c.fill(0x1000, false);
        assert!(c.probe(0x1000 + 64, AccessKind::Read));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = cache();
        // 5 lines mapping to the same set (stride = sets * line = 8*128).
        let stride = 8 * 128u64;
        for i in 0..4 {
            c.fill(i * stride, false);
        }
        // Touch line 0 to make line 1 LRU.
        assert!(c.probe(0, AccessKind::Read));
        c.fill(4 * stride, false);
        assert!(c.contains(0));
        assert!(!c.contains(stride), "LRU line should have been evicted");
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = cache();
        let stride = 8 * 128u64;
        c.fill(0, false);
        assert!(c.mark_dirty(0));
        for i in 1..=4u64 {
            let ev = c.fill(i * stride, false);
            if i < 4 {
                assert!(ev.is_none());
            } else {
                let ev = ev.expect("dirty LRU line must be evicted with write-back");
                assert_eq!(ev.addr, 0);
            }
        }
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut c = cache();
        let stride = 8 * 128u64;
        for i in 0..=4u64 {
            assert!(c.fill(i * stride, false).is_none());
        }
    }

    #[test]
    fn write_probe_sets_dirty() {
        let mut c = cache();
        c.fill(0x80, false);
        assert!(c.probe(0x80, AccessKind::Write));
        assert_eq!(c.invalidate(0x80), Some(true));
    }

    #[test]
    fn invalidate_remote_keeps_local_lines() {
        let mut c = cache();
        c.fill(0x0000, false);
        c.fill(0x2000, true);
        c.fill(0x4000, true);
        c.mark_dirty(0x4000);
        let dirty = c.invalidate_remote();
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].addr, 0x4000);
        assert!(c.contains(0x0000));
        assert!(!c.contains(0x2000));
        assert!(!c.contains(0x4000));
    }

    #[test]
    fn invalidate_all_counts_lines() {
        let mut c = cache();
        c.fill(0x0, false);
        c.fill(0x1000, false);
        assert_eq!(c.invalidate_all(), 2);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn refill_of_resident_line_does_not_evict() {
        let mut c = cache();
        c.fill(0x100, false);
        c.mark_dirty(0x100);
        assert!(c.fill(0x100, true).is_none());
        // Remote flag refreshed by the new fill.
        let dirty = c.invalidate_remote();
        assert_eq!(dirty.len(), 1);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_sets_rejected() {
        let _ = SetAssocCache::new(3 * 128 * 4, 4, 128);
    }

    #[test]
    fn hit_rate_tracks_probes() {
        let mut c = cache();
        c.fill(0, false);
        c.probe(0, AccessKind::Read);
        c.probe(0x10000, AccessKind::Read);
        assert!((c.hit_rate() - 0.5).abs() < 1e-9);
    }
}
