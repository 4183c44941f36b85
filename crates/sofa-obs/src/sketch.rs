//! Streaming quantile sketch for cycle-valued latency distributions.
//!
//! Serving reports used to keep every per-request latency and clone + sort
//! the whole vector on *each* percentile call — fine for hundreds of
//! requests, quadratic pain at fleet scale (a 1M-request trace asking for
//! p50/p95/p99 sorts three million-element vectors). [`QuantileSketch`] is
//! the HDR-histogram-style replacement: O(1) insertion into
//! exponentially-spaced buckets with 128 sub-buckets per octave, so any
//! quantile is answered in one bucket walk with a relative error of at most
//! 1/128 (≈0.8%) while values below 256 cycles stay exact.
//!
//! The sketch is deterministic (bucket index is a pure function of the
//! value; no sampling) and mergeable — node-level sketches combine into a
//! fleet-level one without re-touching any request.

/// Values below this resolve to their own exact bucket.
const EXACT: u64 = 256;
/// Sub-buckets per octave above the exact range.
const SUBBUCKETS: u64 = 128;

/// A fixed-shape log-bucketed histogram answering nearest-rank quantiles.
///
/// Recorded values land in buckets whose width is at most `value / 128`;
/// quantile queries return the bucket's lower bound (clamped to the observed
/// min/max), giving a deterministic under-estimate within 0.8% of the true
/// order statistic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QuantileSketch {
    /// Bucket counts, grown on demand (index space is bounded: ≤ 7552 for
    /// the full `u64` range).
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Bucket index of `v`: identity below [`EXACT`], log-spaced with
/// [`SUBBUCKETS`] sub-buckets per octave above.
fn bucket_of(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    // Shift so the mantissa `v >> e` lands in [128, 256).
    let e = (63 - v.leading_zeros() as u64) - 7;
    (EXACT + (e - 1) * SUBBUCKETS + ((v >> e) - SUBBUCKETS)) as usize
}

/// Lower bound of bucket `idx` (exact inverse of [`bucket_of`]'s floor).
fn bucket_floor(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < EXACT {
        return idx;
    }
    let i = idx - EXACT;
    let e = i / SUBBUCKETS + 1;
    (i % SUBBUCKETS + SUBBUCKETS) << e
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// A sketch of every value yielded by `values`.
    pub fn collect(values: impl IntoIterator<Item = u64>) -> Self {
        let mut s = Self::new();
        for v in values {
            s.record(v);
        }
        s
    }

    /// Records one value. O(1); never samples or drops.
    pub fn record(&mut self, v: u64) {
        let idx = bucket_of(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Mean of all recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Nearest-rank percentile `p`: a lower bound on the value whose rank is
    /// `ceil(p/100 · count)`, within 1/128 relative error (exact below 256).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 100]` or the sketch is empty.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 100.0, "percentile out of range");
        assert!(self.count > 0, "quantile of an empty sketch");
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        if rank == self.count {
            // The top rank is the observed maximum — report it exactly.
            return self.max;
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_floor_inverts_bucket_of() {
        for v in (0..4096u64).chain([
            1 << 20,
            (1 << 20) + 137,
            u64::MAX / 3,
            u64::MAX - 1,
            u64::MAX,
        ]) {
            let idx = bucket_of(v);
            let floor = bucket_floor(idx);
            assert!(floor <= v, "floor {floor} above value {v}");
            // The bucket's floor maps back to the same bucket, and the error
            // is bounded by the bucket width (v/128 above the exact range).
            assert_eq!(bucket_of(floor), idx, "value {v}");
            if v >= EXACT {
                assert!(v - floor <= v / SUBBUCKETS, "value {v} floor {floor}");
            } else {
                assert_eq!(floor, v);
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let s = QuantileSketch::collect((1..=100).map(|v| v * 2));
        assert_eq!(s.percentile(50.0), 100);
        assert_eq!(s.percentile(95.0), 190);
        assert_eq!(s.percentile(100.0), 200);
        assert_eq!(s.percentile(1.0), 2);
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 200);
        assert!((s.mean() - 101.0).abs() < 1e-12);
    }

    #[test]
    fn large_values_stay_within_the_error_bound() {
        let values: Vec<u64> = (0..1000u64).map(|i| 10_000 + i * 997).collect();
        let s = QuantileSketch::collect(values.iter().copied());
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for p in [1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
            let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
            let exact = sorted[rank.clamp(1, sorted.len()) - 1];
            let approx = s.percentile(p);
            assert!(approx <= exact, "p{p}: {approx} above exact {exact}");
            assert!(
                exact - approx <= exact / SUBBUCKETS,
                "p{p}: {approx} vs {exact}"
            );
        }
    }

    #[test]
    fn percentiles_are_monotone_in_p() {
        let s = QuantileSketch::collect((0..500u64).map(|i| i * i + 7));
        let mut last = 0;
        for p in 1..=100 {
            let v = s.percentile(p as f64);
            assert!(v >= last, "p{p} regressed: {v} < {last}");
            last = v;
        }
        assert_eq!(last, s.max);
    }

    #[test]
    fn single_value_answers_every_percentile() {
        let s = QuantileSketch::collect([123_456_789]);
        // Clamping to [min, max] makes a one-value sketch exact even far
        // above the exact range.
        assert_eq!(s.percentile(0.001), 123_456_789);
        assert_eq!(s.percentile(100.0), 123_456_789);
        assert_eq!(s.min, s.max);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn zero_percentile_panics() {
        QuantileSketch::collect([1]).percentile(0.0);
    }

    #[test]
    #[should_panic(expected = "empty sketch")]
    fn empty_sketch_panics() {
        QuantileSketch::new().percentile(50.0);
    }
}
