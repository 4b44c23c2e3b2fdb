//! Cache, write-buffer, and victim-cache models for the §4.3 ablations.
//!
//! The paper's headline results use a fixed two-cycle memory; §4.3 asks
//! how a richer hierarchy would change the picture (better cache, write
//! buffer, victim cache). These models answer that question for our
//! workloads: a set-associative write-back LRU cache, an optional
//! FIFO write buffer that absorbs store latency, and an optional victim
//! cache that catches conflict evictions.

/// Line size of every modeled cache, in bytes.
pub const CACHE_LINE: u32 = 32;
/// Latency of a cache hit, in cycles.
pub const CACHE_HIT_LATENCY: u64 = 1;
/// Latency of a cache miss (fill from main memory), in cycles.
pub const CACHE_MISS_LATENCY: u64 = 10;

/// Cache geometry. Line size and timing are fixed: [`CACHE_LINE`],
/// [`CACHE_HIT_LATENCY`] and [`CACHE_MISS_LATENCY`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: u32,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Entries in the write buffer (0 = none). A store that hits the
    /// buffer costs a hit; the buffer drains one entry per non-memory
    /// cycle; a store finding it full pays a miss.
    pub write_buffer: u32,
    /// Lines in the fully associative victim cache (0 = none). A miss
    /// that hits the victim cache costs one cycle more than a hit.
    pub victim_lines: u32,
}

impl CacheConfig {
    /// An 8 KiB direct-mapped cache with 32-byte lines, 1-cycle hits and
    /// 10-cycle misses — a representative late-90s L1.
    pub fn small_direct_mapped() -> CacheConfig {
        CacheConfig {
            size: 8 * 1024,
            assoc: 1,
            write_buffer: 0,
            victim_lines: 0,
        }
    }
}

#[derive(Clone, Debug)]
struct Line {
    tag: u64,
    valid: bool,
    lru: u64,
}

/// Counters exposed by the memory system.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit in the cache.
    pub hits: u64,
    /// Accesses that missed everywhere.
    pub misses: u64,
    /// Misses that were caught by the victim cache.
    pub victim_hits: u64,
    /// Stores absorbed by the write buffer.
    pub buffered_stores: u64,
    /// Lines evicted from the cache.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate over all accesses (1.0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.victim_hits;
        if total == 0 {
            1.0
        } else {
            (self.hits + self.victim_hits) as f64 / total as f64
        }
    }
}

/// A set-associative write-back LRU cache with optional victim cache and
/// write buffer.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    victims: Vec<Line>,
    buffer_occupancy: u32,
    tick: u64,
    /// Access counters.
    pub stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (size not divisible by
    /// `CACHE_LINE * assoc`).
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(cfg.assoc >= 1, "associativity must be at least 1");
        let lines_total = cfg.size / CACHE_LINE;
        assert!(
            lines_total.is_multiple_of(cfg.assoc) && lines_total > 0,
            "size must be divisible by line * assoc"
        );
        let n_sets = (lines_total / cfg.assoc) as usize;
        let sets = vec![
            vec![
                Line {
                    tag: 0,
                    valid: false,
                    lru: 0
                };
                cfg.assoc as usize
            ];
            n_sets
        ];
        let victims = vec![
            Line {
                tag: 0,
                valid: false,
                lru: 0
            };
            cfg.victim_lines as usize
        ];
        Cache {
            cfg,
            sets,
            victims,
            buffer_occupancy: 0,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr / u64::from(CACHE_LINE);
        let set = (line_addr % self.sets.len() as u64) as usize;
        (set, line_addr)
    }

    /// Simulates one access; returns its latency in cycles.
    pub fn access(&mut self, addr: u64, is_store: bool) -> u64 {
        self.tick += 1;
        // The write buffer drains over time: model one free slot per access.
        if self.buffer_occupancy > 0 {
            self.buffer_occupancy -= 1;
        }

        let (set, tag) = self.set_and_tag(addr);
        // Probe the set.
        if let Some(way) = self.sets[set].iter().position(|l| l.valid && l.tag == tag) {
            self.sets[set][way].lru = self.tick;
            self.stats.hits += 1;
            return CACHE_HIT_LATENCY;
        }

        // Probe the victim cache.
        if let Some(v) = self.victims.iter().position(|l| l.valid && l.tag == tag) {
            // Swap the victim line back into the set.
            self.stats.victim_hits += 1;
            let evicted = self.install(set, tag);
            if let Some(e) = evicted {
                self.victims[v] = Line {
                    tag: e,
                    valid: true,
                    lru: self.tick,
                };
            } else {
                self.victims[v].valid = false;
            }
            return CACHE_HIT_LATENCY + 1;
        }

        // Full miss. Stores may be absorbed by the write buffer.
        self.stats.misses += 1;
        if is_store && self.cfg.write_buffer > 0 && self.buffer_occupancy < self.cfg.write_buffer {
            self.buffer_occupancy += 1;
            self.stats.buffered_stores += 1;
            self.install_with_victim(set, tag);
            return CACHE_HIT_LATENCY;
        }
        self.install_with_victim(set, tag);
        CACHE_MISS_LATENCY
    }

    /// Installs `tag` into `set`, returning the evicted tag if any.
    fn install(&mut self, set: usize, tag: u64) -> Option<u64> {
        // Empty way?
        if let Some(way) = self.sets[set].iter().position(|l| !l.valid) {
            self.sets[set][way] = Line {
                tag,
                valid: true,
                lru: self.tick,
            };
            return None;
        }
        // Evict LRU.
        let way = self.sets[set]
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.lru)
            .map(|(i, _)| i)
            .expect("nonempty set");
        let old = self.sets[set][way].tag;
        self.sets[set][way] = Line {
            tag,
            valid: true,
            lru: self.tick,
        };
        self.stats.evictions += 1;
        Some(old)
    }

    fn install_with_victim(&mut self, set: usize, tag: u64) {
        if let Some(evicted) = self.install(set, tag) {
            if !self.victims.is_empty() {
                // Replace the LRU victim entry.
                let v = self
                    .victims
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| if l.valid { l.lru } else { 0 })
                    .map(|(i, _)| i)
                    .expect("nonempty victim cache");
                self.victims[v] = Line {
                    tag: evicted,
                    valid: true,
                    lru: self.tick,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(assoc: u32, victim: u32, wb: u32) -> Cache {
        Cache::new(CacheConfig {
            size: 128,
            assoc,
            write_buffer: wb,
            victim_lines: victim,
        })
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = tiny(1, 0, 0);
        assert_eq!(c.access(0, false), 10); // cold miss
        assert_eq!(c.access(4, false), 1); // same line
        assert_eq!(c.access(31, false), 1);
        assert_eq!(c.stats.hits, 2);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn conflict_misses_in_direct_mapped() {
        let mut c = tiny(1, 0, 0);
        // 4 sets × 32B lines: addresses 0 and 128 map to set 0.
        c.access(0, false);
        c.access(128, false); // evicts 0
        assert_eq!(c.access(0, false), 10); // conflict miss
        assert_eq!(c.stats.misses, 3);
    }

    #[test]
    fn associativity_removes_conflicts() {
        let mut c = tiny(2, 0, 0);
        c.access(0, false);
        c.access(128, false); // same set, other way
        assert_eq!(c.access(0, false), 1);
        assert_eq!(c.access(128, false), 1);
    }

    #[test]
    fn victim_cache_catches_conflict_evictions() {
        let mut c = tiny(1, 2, 0);
        c.access(0, false);
        c.access(128, false); // 0 evicted into victim cache
        let lat = c.access(0, false);
        assert_eq!(lat, 2, "victim hit costs hit+1");
        assert_eq!(c.stats.victim_hits, 1);
    }

    #[test]
    fn write_buffer_absorbs_store_misses() {
        let mut c = tiny(1, 0, 4);
        assert_eq!(c.access(0, true), 1, "buffered store miss");
        assert_eq!(c.stats.buffered_stores, 1);
        // Loads are never buffered.
        assert_eq!(c.access(256, false), 10);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2, 0, 0);
        c.access(0, false); // set 0 way A
        c.access(128, false); // set 0 way B
        c.access(0, false); // touch 0 (B is now LRU)
        c.access(256, false); // evicts 128
        assert_eq!(c.access(0, false), 1, "0 must still be cached");
        assert_eq!(c.access(128, false), 10, "128 was evicted");
    }

    #[test]
    fn hit_rate_computation() {
        let mut c = tiny(1, 0, 0);
        c.access(0, false);
        c.access(0, false);
        c.access(0, false);
        let r = c.stats.hit_rate();
        assert!((r - 2.0 / 3.0).abs() < 1e-12);
    }
}
