//! A simple set-associative cache hierarchy with LRU replacement.
//!
//! The hierarchy reproduces Table II's memory system shape: split 32 KB
//! L1s, a 512 KB L2, a 4 MB LLC, and a flat DRAM latency (standing in for
//! the paper's FASED DDR3 timing model). It is a latency model, not a
//! coherence model: each access returns the cycles to first use and
//! updates recency state.

use crate::config::CacheConfig;
use cobra_sim::{bits, ContainerError, StateReader, StateWriter};

/// One set-associative cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `tags[set * ways + way]`: tag + valid bit packed (0 = invalid).
    tags: Vec<u64>,
    /// Per-way recency counters (higher = more recent).
    recency: Vec<u32>,
    clock: u32,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds a cache level.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two number of sets.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(bits::is_pow2(sets), "cache sets must be a power of two");
        let slots = (sets * cfg.ways) as usize;
        Self {
            cfg,
            tags: vec![0; slots],
            recency: vec![0; slots],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_of(&self, addr: u64) -> u64 {
        (addr / self.cfg.line_bytes) & bits::mask(bits::clog2(self.cfg.sets()))
    }

    fn tag_of(&self, addr: u64) -> u64 {
        (addr / self.cfg.line_bytes) >> bits::clog2(self.cfg.sets()) | 1 << 63
    }

    /// Probes and fills: returns `true` on hit. A miss installs the line
    /// (the caller charges the lower-level latency).
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let set = self.set_of(addr) as usize;
        let tag = self.tag_of(addr);
        let ways = self.cfg.ways as usize;
        let base = set * ways;
        for w in 0..ways {
            if self.tags[base + w] == tag {
                self.recency[base + w] = self.clock;
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        // LRU victim.
        let victim = (0..ways)
            .min_by_key(|&w| self.recency[base + w])
            .expect("ways > 0");
        self.tags[base + victim] = tag;
        self.recency[base + victim] = self.clock;
        false
    }

    /// Installs a line without counting an access (prefetch).
    pub fn prefetch(&mut self, addr: u64) {
        let set = self.set_of(addr) as usize;
        let tag = self.tag_of(addr);
        let ways = self.cfg.ways as usize;
        let base = set * ways;
        if (0..ways).any(|w| self.tags[base + w] == tag) {
            return;
        }
        let victim = (0..ways)
            .min_by_key(|&w| self.recency[base + w])
            .expect("ways > 0");
        self.tags[base + victim] = tag;
        // Prefetched lines enter cold (clock not bumped): they are first
        // LRU victims until used.
    }

    /// Hit latency of this level.
    pub fn hit_latency(&self) -> u64 {
        self.cfg.hit_latency
    }

    /// Lifetime (hits, misses).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Serializes tag, recency, and counter state into a checkpoint
    /// stream. Geometry is configuration and is not stored.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.begin_section("cache");
        w.write_u64(u64::from(self.clock));
        w.write_u64(self.hits);
        w.write_u64(self.misses);
        for &t in &self.tags {
            w.write_u64(t);
        }
        for &rc in &self.recency {
            w.write_u64(u64::from(rc));
        }
        w.end_section();
    }

    /// Restores state written by [`save_state`](Self::save_state) into a
    /// cache of the same geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`ContainerError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), ContainerError> {
        r.open_section("cache")?;
        self.clock = r.read_u64_capped("cache clock", u64::from(u32::MAX))? as u32;
        self.hits = r.read_u64("cache hits")?;
        self.misses = r.read_u64("cache misses")?;
        for t in &mut self.tags {
            *t = r.read_u64("cache tag")?;
        }
        for rc in &mut self.recency {
            *rc = r.read_u64_capped("cache recency", u64::from(u32::MAX))? as u32;
        }
        r.close_section()
    }
}

/// The full hierarchy: split L1s over a shared L2/L3 and DRAM.
#[derive(Debug)]
pub struct MemoryHierarchy {
    /// L1 instruction cache.
    pub l1i: Cache,
    /// L1 data cache.
    pub l1d: Cache,
    l2: Cache,
    l3: Cache,
    dram_latency: u64,
    nlp: bool,
}

impl MemoryHierarchy {
    /// Builds the hierarchy from a core configuration.
    pub fn new(cfg: &crate::config::CoreConfig) -> Self {
        Self {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            l3: Cache::new(cfg.l3),
            dram_latency: cfg.dram_latency,
            nlp: cfg.nlp_prefetch,
        }
    }

    fn below_l1(&mut self, addr: u64) -> u64 {
        if self.l2.access(addr) {
            self.l2.hit_latency()
        } else if self.l3.access(addr) {
            self.l3.hit_latency()
        } else {
            self.dram_latency
        }
    }

    /// Instruction fetch of the block at `addr`: returns added cycles
    /// beyond the L1I pipeline (0 on hit).
    pub fn fetch(&mut self, addr: u64) -> u64 {
        let extra = if self.l1i.access(addr) {
            self.l1i.hit_latency()
        } else {
            self.l1i.hit_latency() + self.below_l1(addr)
        };
        if self.nlp {
            // Next-line prefetcher (Table II).
            let line = 64;
            self.l1i.prefetch(addr + line);
        }
        extra
    }

    /// Data access latency for a load/store at `addr`.
    pub fn data(&mut self, addr: u64) -> u64 {
        if self.l1d.access(addr) {
            self.l1d.hit_latency()
        } else {
            self.l1d.hit_latency() + self.below_l1(addr)
        }
    }

    /// Serializes every level of the hierarchy into a checkpoint stream.
    pub fn save_state(&self, w: &mut StateWriter) {
        self.l1i.save_state(w);
        self.l1d.save_state(w);
        self.l2.save_state(w);
        self.l3.save_state(w);
    }

    /// Restores a hierarchy written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Returns a [`ContainerError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), ContainerError> {
        self.l1i.load_state(r)?;
        self.l1d.load_state(r)?;
        self.l2.load_state(r)?;
        self.l3.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;

    #[test]
    fn second_access_hits() {
        let mut c = Cache::new(CoreConfig::boom_4wide().l1d);
        assert!(!c.access(0x8000));
        assert!(c.access(0x8000));
        assert!(c.access(0x8004), "same line");
        assert!(!c.access(0x8040), "next line misses");
    }

    #[test]
    fn lru_eviction() {
        let cfg = CacheConfig {
            size_bytes: 2 * 64,
            ways: 2,
            line_bytes: 64,
            hit_latency: 1,
        };
        let mut c = Cache::new(cfg);
        // One set, two ways.
        c.access(0x0000);
        c.access(0x1000);
        c.access(0x0000); // refresh line 0
        c.access(0x2000); // evicts 0x1000
        assert!(c.access(0x0000));
        assert!(!c.access(0x1000));
    }

    #[test]
    fn hierarchy_latencies_ordered() {
        let cfg = CoreConfig::boom_4wide();
        let mut m = MemoryHierarchy::new(&cfg);
        let cold = m.data(0x4_0000);
        let warm = m.data(0x4_0000);
        assert!(cold > warm, "cold {cold} <= warm {warm}");
        assert_eq!(warm, cfg.l1d.hit_latency);
        assert!(cold >= cfg.dram_latency);
    }

    #[test]
    fn next_line_prefetch_hides_sequential_miss() {
        let cfg = CoreConfig::boom_4wide();
        let mut m = MemoryHierarchy::new(&cfg);
        let _ = m.fetch(0x1_0000); // miss; prefetches 0x1_0040
        let seq = m.fetch(0x1_0040);
        assert_eq!(seq, 0, "prefetched block hits");
    }

    #[test]
    fn stats_accumulate() {
        let mut c = Cache::new(CoreConfig::boom_4wide().l1i);
        c.access(0);
        c.access(0);
        assert_eq!(c.stats(), (1, 1));
    }
}
