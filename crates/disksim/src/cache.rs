//! Segmented disk cache with read-ahead.
//!
//! Era-accurate drive caches were a handful of segments, each holding a
//! contiguous run of blocks; a read that lands entirely inside a cached
//! run is served from RAM, and every medium read prefetches ahead to the
//! end of its track. Writes are modeled write-through (server-class
//! drives of the period shipped with write caching disabled for
//! integrity) but still populate a segment, so a read after a write
//! hits.

use serde::{Deserialize, Serialize};

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total cache size in bytes (the paper's systems use 4 MB).
    pub bytes: u64,
    /// Number of segments the cache is divided into.
    pub segments: u32,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            bytes: 4 << 20,
            segments: 16,
        }
    }
}

impl CacheConfig {
    /// Sectors each segment can hold.
    pub fn segment_sectors(&self) -> u64 {
        (self.bytes / self.segments as u64) / 512
    }
}

/// Result of offering a request to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheOutcome {
    /// Every requested sector was cached; no medium access needed.
    Hit,
    /// The medium must be accessed.
    Miss,
}

/// One cached run of sectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Segment {
    start: u64,
    end: u64,
    /// LRU stamp: higher = more recently used.
    stamp: u64,
}

/// A segmented LRU cache over LBA runs.
///
/// # Examples
///
/// ```
/// use disksim::{CacheConfig, CacheOutcome, DiskCache};
///
/// let mut cache = DiskCache::new(CacheConfig::default());
/// assert_eq!(cache.lookup(100, 8), CacheOutcome::Miss);
/// cache.fill(100, 64); // medium read + read-ahead
/// assert_eq!(cache.lookup(120, 8), CacheOutcome::Hit);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiskCache {
    config: CacheConfig,
    segments: Vec<Segment>,
    clock: u64,
    hits: u64,
    misses: u64,
    /// `config.segment_sectors().max(1)`, resolved once — `fill` runs on
    /// every medium access and the quotient never changes. Serialized
    /// like every other field, so checkpoints carry it; a zero read
    /// back from a hand-edited state is re-derived from `config`.
    segment_clip: u64,
}

impl DiskCache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        Self {
            config,
            segments: Vec::with_capacity(config.segments as usize),
            clock: 0,
            hits: 0,
            misses: 0,
            segment_clip: config.segment_sectors().max(1),
        }
    }

    /// The per-segment sector clip, tolerating a deserialized (zeroed)
    /// field.
    #[inline]
    fn clip(&self) -> u64 {
        if self.segment_clip != 0 {
            self.segment_clip
        } else {
            self.config.segment_sectors().max(1)
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Checks whether `[lba, lba + sectors)` is entirely cached, and
    /// refreshes the containing segment's recency on a hit.
    pub fn lookup(&mut self, lba: u64, sectors: u32) -> CacheOutcome {
        let end = lba + sectors as u64;
        self.clock += 1;
        for seg in &mut self.segments {
            if lba >= seg.start && end <= seg.end {
                seg.stamp = self.clock;
                self.hits += 1;
                return CacheOutcome::Hit;
            }
        }
        self.misses += 1;
        CacheOutcome::Miss
    }

    /// Installs a run starting at `lba` after a medium access (the run
    /// includes any read-ahead the disk performed). The run is clipped
    /// to one segment's capacity; the least recently used segment is
    /// evicted when the cache is full.
    pub fn fill(&mut self, lba: u64, sectors: u64) {
        if sectors == 0 {
            return;
        }
        self.clock += 1;
        let cap = self.clip();
        let len = sectors.min(cap);
        let new = Segment {
            start: lba,
            end: lba + len,
            stamp: self.clock,
        };
        // Merge with an overlapping or adjacent segment if it extends it.
        for seg in &mut self.segments {
            if new.start <= seg.end && seg.start <= new.end {
                seg.start = seg.start.min(new.start);
                seg.end = seg.end.max(new.end);
                // Clip a merged over-long run to segment capacity,
                // keeping the most recent (tail) end.
                if seg.end - seg.start > cap {
                    seg.start = seg.end - cap;
                }
                seg.stamp = self.clock;
                return;
            }
        }
        if (self.segments.len() as u32) < self.config.segments {
            self.segments.push(new);
        } else {
            let victim = self
                .segments
                .iter_mut()
                .min_by_key(|s| s.stamp)
                .expect("cache has segments");
            *victim = new;
        }
    }

    /// Fraction of lookups served from cache so far.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Lookups served from cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that went to the medium.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drops all cached data (but keeps hit/miss counters).
    pub fn invalidate(&mut self) {
        self.segments.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> DiskCache {
        DiskCache::new(CacheConfig::default())
    }

    #[test]
    fn empty_cache_misses() {
        let mut c = cache();
        assert_eq!(c.lookup(0, 1), CacheOutcome::Miss);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn fill_then_hit_whole_and_partial() {
        let mut c = cache();
        c.fill(1000, 100);
        assert_eq!(c.lookup(1000, 100), CacheOutcome::Hit);
        assert_eq!(c.lookup(1050, 10), CacheOutcome::Hit);
        // Straddling the end of the run is a miss.
        assert_eq!(c.lookup(1090, 20), CacheOutcome::Miss);
    }

    #[test]
    fn lru_eviction_prefers_stale_segments() {
        let mut c = DiskCache::new(CacheConfig {
            bytes: 4 * 512 * 4,
            segments: 4,
        });
        for i in 0..4u64 {
            c.fill(i * 1_000, 4);
        }
        // Touch segments 1-3 so segment 0 is the LRU victim.
        for i in 1..4u64 {
            assert_eq!(c.lookup(i * 1_000, 4), CacheOutcome::Hit);
        }
        c.fill(50_000, 4);
        assert_eq!(c.lookup(0, 4), CacheOutcome::Miss, "victim was evicted");
        assert_eq!(c.lookup(50_000, 4), CacheOutcome::Hit);
        assert_eq!(c.lookup(1_000, 4), CacheOutcome::Hit, "survivor intact");
    }

    #[test]
    fn adjacent_fills_merge() {
        let mut c = cache();
        c.fill(100, 50);
        c.fill(150, 50);
        assert_eq!(c.lookup(100, 100), CacheOutcome::Hit);
    }

    #[test]
    fn merged_run_clips_to_segment_capacity_keeping_tail() {
        let cap = CacheConfig::default().segment_sectors();
        let mut c = cache();
        c.fill(0, cap);
        c.fill(cap, cap); // merge would be 2x capacity
        assert_eq!(c.lookup(cap, cap as u32), CacheOutcome::Hit);
        assert_eq!(c.lookup(0, 8), CacheOutcome::Miss, "head was clipped");
    }

    #[test]
    fn hit_rate_tracks_history() {
        let mut c = cache();
        c.fill(0, 100);
        let _ = c.lookup(0, 10); // hit
        let _ = c.lookup(500, 10); // miss
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn invalidate_clears_data_not_stats() {
        let mut c = cache();
        c.fill(0, 100);
        let _ = c.lookup(0, 10);
        c.invalidate();
        assert_eq!(c.lookup(0, 10), CacheOutcome::Miss);
        assert_eq!(c.hits(), 1);
    }

    #[test]
    fn zero_length_fill_is_noop() {
        let mut c = cache();
        c.fill(10, 0);
        assert_eq!(c.lookup(10, 1), CacheOutcome::Miss);
    }
}
