//! Deterministic lowering caches.
//!
//! The serving hot paths repeatedly lower the same `(request shape,
//! operating point)` pairs: benchmark-derived traces draw from a handful of
//! shapes, and adaptive decay/retry/feedback re-lowerings revisit the same
//! lean points. Every such lowering is a *pure function* of its key — the
//! pipeline, the cycle simulator and the energy model take no input besides
//! the shape, the operating point and immutable configuration — so
//! memoising it cannot change any output bit. What memoisation *can* change
//! is determinism bookkeeping: a concurrently-filled cache would make
//! hit/miss counters (and any eval counters derived from them) depend on
//! thread interleaving. The types here therefore only support two access disciplines, both
//! deterministic at any `SOFA_THREADS`:
//!
//! 1. **Serial memoisation** via [`LoweringCache::get_or_insert_with`] from a
//!    single-threaded event loop, and
//! 2. **First-sight dedup**: a serial pass keys each request as it arrives,
//!    lowers only the first request of each key (its representative) and
//!    shares that lowering with every later request of the key. The
//!    representatives' lowerings are stored with
//!    [`LoweringCache::insert_computed`] and the sharers counted with
//!    [`LoweringCache::record_shared_hits`].
//!
//! Hit/miss statistics are part of the deterministic contract: for a fixed
//! trace and configuration they are identical across runs and thread counts.

use std::collections::HashMap;
use std::hash::Hash;

use sofa_model::{OperatingPoint, RequestSpec};

/// Snapshot of cache effectiveness counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (and store) a fresh value.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache; 0.0 when nothing was
    /// looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A deterministic memo table for pure lowering/evaluation functions.
///
/// Generic over the key and value; `sofa-serve`'s request-shape lowering
/// cache (value: lowered pipeline job + footprint + energy) is the user. A
/// hit returns exactly what the function would compute for that key, so the
/// memo changes wall time only, never output.
#[derive(Debug, Clone)]
pub struct LoweringCache<K, V> {
    map: HashMap<K, V>,
    stats: CacheStats,
}

impl<K: Eq + Hash, V> Default for LoweringCache<K, V> {
    fn default() -> Self {
        Self {
            map: HashMap::new(),
            stats: CacheStats::default(),
        }
    }
}

impl<K: Eq + Hash, V> LoweringCache<K, V> {
    /// Effectiveness counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Look up `key`, computing and storing the value on a miss.
    pub fn get_or_insert_with(&mut self, key: K, compute: impl FnOnce() -> V) -> &V {
        use std::collections::hash_map::Entry;
        if self.map.contains_key(&key) {
            self.stats.hits += 1;
            return self.map.get(&key).expect("hit was just observed");
        }
        self.stats.misses += 1;
        let value = compute();
        match self.map.entry(key) {
            Entry::Vacant(slot) => slot.insert(value),
            Entry::Occupied(_) => unreachable!("key was absent above"),
        }
    }

    /// Store a precomputed value (a first-sight dedup representative).
    /// Counts as a miss — the value was computed outside the cache.
    pub fn insert_computed(&mut self, key: K, value: V) {
        self.stats.misses += 1;
        self.map.insert(key, value);
    }

    /// Record `n` lookups answered by the first-sight dedup pass without
    /// reaching the memo table (requests that shared a representative).
    pub fn record_shared_hits(&mut self, n: u64) {
        self.stats.hits += n;
    }
}

/// Cache key identifying a request lowering: the request *shape* (class,
/// query count, geometry) plus the full per-layer operating point. The
/// per-layer keep ratios enter as IEEE-754 bit patterns so two points that
/// differ in any layer's keep — e.g. an attempt-shrunk retry keep — can never
/// collide, while bit-identical floats always do.
///
/// The default key is empty: a buffer for [`ShapeKey::refill`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct ShapeKey {
    class: u8,
    queries: usize,
    seq_len: usize,
    hidden: usize,
    heads: usize,
    keeps: Vec<u64>,
    tiles: Vec<usize>,
}

impl ShapeKey {
    /// Build the key for lowering `spec` at `op`.
    pub fn new(spec: &RequestSpec, op: &OperatingPoint) -> Self {
        let mut key = Self::default();
        key.refill(spec, op.keeps().iter().copied(), op.tiles());
        key
    }

    /// Rebuilds the key in place for lowering `spec` at the per-layer
    /// `keeps` and `tiles`, reusing its buffers: a loop that keys many
    /// requests through one reused key allocates only when the key
    /// outgrows them. Refilled from an operating point's keeps and tiles,
    /// it equals [`ShapeKey::new`] of that point.
    pub fn refill(
        &mut self,
        spec: &RequestSpec,
        keeps: impl IntoIterator<Item = f64>,
        tiles: &[usize],
    ) {
        self.class = spec.class as u8;
        self.queries = spec.queries;
        self.seq_len = spec.seq_len;
        self.hidden = spec.hidden;
        self.heads = spec.heads;
        self.keeps.clear();
        self.keeps.extend(keeps.into_iter().map(f64::to_bits));
        self.tiles.clear();
        self.tiles.extend_from_slice(tiles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofa_model::RequestClass;

    fn spec(queries: usize) -> RequestSpec {
        RequestSpec {
            id: 0,
            arrival_cycle: 0,
            class: RequestClass::Decode,
            queries,
            seq_len: 512,
            hidden: 256,
            heads: 4,
            keep_ratio: 0.25,
        }
    }

    #[test]
    fn memoises_and_counts() {
        let mut cache: LoweringCache<u32, u64> = LoweringCache::default();
        let mut computed = 0u64;
        for key in [1u32, 2, 1, 1, 2, 3] {
            cache.get_or_insert_with(key, || {
                computed += 1;
                u64::from(key) * 10
            });
        }
        assert_eq!(computed, 3);
        assert_eq!(cache.stats(), CacheStats { hits: 3, misses: 3 });
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shared_hit_accounting_matches_dedup_pass() {
        let mut cache: LoweringCache<u32, u64> = LoweringCache::default();
        // First-sight dedup: 5 requests, 2 unique keys.
        cache.insert_computed(1, 10);
        cache.insert_computed(2, 20);
        cache.record_shared_hits(3);
        assert_eq!(cache.stats(), CacheStats { hits: 3, misses: 2 });
    }

    #[test]
    fn same_shape_different_per_layer_keep_misses() {
        let s = spec(4);
        let a = OperatingPoint::new(vec![0.25, 0.25, 0.25, 0.25], vec![16, 16, 16, 16]).unwrap();
        let b = OperatingPoint::new(vec![0.25, 0.25, 0.2, 0.25], vec![16, 16, 16, 16]).unwrap();
        assert_ne!(ShapeKey::new(&s, &a), ShapeKey::new(&s, &b));
        // Retry-shrunk uniform keep must also be a distinct key.
        let shrunk = a.with_uniform_keep(a.mean_keep() * 0.5);
        assert_ne!(ShapeKey::new(&s, &a), ShapeKey::new(&s, &shrunk));
    }

    #[test]
    fn same_shape_different_tile_misses() {
        let s = spec(4);
        let a = OperatingPoint::uniform(0.25, 16, 4);
        let b = OperatingPoint::uniform(0.25, 32, 4);
        assert_ne!(ShapeKey::new(&s, &a), ShapeKey::new(&s, &b));
    }

    #[test]
    fn refilled_keys_equal_new_keys() {
        let mut key = ShapeKey::default();
        for (s, op) in [
            (spec(4), OperatingPoint::uniform(0.25, 16, 4)),
            (
                spec(64),
                OperatingPoint::new(vec![0.5, 0.2], vec![32, 16]).unwrap(),
            ),
            (spec(1), OperatingPoint::single(0.1, 64)),
        ] {
            key.refill(&s, op.keeps().iter().copied(), op.tiles());
            assert_eq!(key, ShapeKey::new(&s, &op));
        }
    }

    #[test]
    fn identical_inputs_collide() {
        let s = spec(4);
        let a = OperatingPoint::uniform(0.25, 16, 4);
        let b = OperatingPoint::uniform(0.25, 16, 4);
        assert_eq!(ShapeKey::new(&s, &a), ShapeKey::new(&s, &b));
        // Different query counts (decode vs prefill shapes) must miss.
        assert_ne!(ShapeKey::new(&spec(4), &a), ShapeKey::new(&spec(64), &a));
    }
}
