//! Fixed-bucket latency histogram and the segment median.
//!
//! Buckets are log-linear: 64 linear sub-buckets per power of two, so a
//! bucket is at most 1.6 % wide — well inside the tightest regression
//! bound (10 %). Values are nanoseconds; percentiles interpolate inside
//! the bucket they fall in.

/// Sub-buckets per octave.
const SUB: u64 = 64;
const SUB_BITS: u32 = 6;
/// Values below `2^MIN_EXP` ns share the first octave.
const MIN_EXP: u32 = 6;
/// Values at or above `2^MAX_EXP` ns (≈69 s) land in the last bucket.
const MAX_EXP: u32 = 36;
const BUCKETS: usize = ((MAX_EXP - MIN_EXP) as usize + 1) * SUB as usize;

/// A percentile is reported only when at least this many samples lie
/// beyond it: fewer, and the figure is one outlier, not a tail.
pub const MIN_BEYOND: u64 = 10;

#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(ns: u64) -> usize {
    let ns = ns.max(1);
    let exp = 63 - ns.leading_zeros();
    if exp < MIN_EXP {
        // The first octave is linear over 0..2^MIN_EXP.
        return ((ns * SUB) >> MIN_EXP) as usize;
    }
    if exp >= MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = (ns >> (exp - SUB_BITS)) - SUB;
    ((exp - MIN_EXP + 1) as u64 * SUB + sub) as usize
}

/// Lower and upper edge (ns) of bucket `b`.
fn bucket_bounds(b: usize) -> (f64, f64) {
    let octave = b as u64 / SUB;
    let sub = b as u64 % SUB;
    if octave == 0 {
        let width = (1u64 << MIN_EXP) as f64 / SUB as f64;
        return (sub as f64 * width, (sub + 1) as f64 * width);
    }
    let exp = octave as u32 - 1 + MIN_EXP;
    let base = (1u64 << exp) as f64;
    let width = base / SUB as f64;
    (base + sub as f64 * width, base + (sub + 1) as f64 * width)
}

impl Histogram {
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            sum_ns: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.sum_ns += u128::from(ns);
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.sum_ns = 0;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn mean_us(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum_ns as f64 / self.total as f64 / 1e3
    }

    /// The `q`-quantile in microseconds, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it (for the median: on either
    /// side).
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        // The epsilon keeps products like 0.01 × 1000 from flooring to 9.
        let beyond = ((1.0 - q) * self.total as f64 + 1e-6).floor() as u64;
        let below = (q * self.total as f64 + 1e-6).floor() as u64;
        if beyond < MIN_BEYOND || below < MIN_BEYOND {
            return None;
        }
        Some(self.quantile_unchecked_us(q))
    }

    /// The `q`-quantile labelled `label` if the sample supports it, else
    /// the highest of p90, p75 and p50 that it does, under its own label.
    pub fn tail_us(&self, q: f64, label: &'static str) -> (&'static str, f64) {
        [(label, q), ("p90", 0.90), ("p75", 0.75)]
            .into_iter()
            .find_map(|(l, q)| Some((l, self.quantile_us(q)?)))
            .unwrap_or(("p50", self.quantile_unchecked_us(0.5)))
    }

    pub fn quantile_unchecked_us(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q * self.total as f64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= rank {
                let (lo, hi) = bucket_bounds(b);
                let into = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return (lo + (hi - lo) * into) / 1e3;
            }
            seen += c;
        }
        bucket_bounds(BUCKETS - 1).1 / 1e3
    }
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One measured slice of a client's closed loop.
#[derive(Clone, Copy, Debug)]
pub struct Segment {
    pub ops: u64,
    pub wall_ns: u64,
}

/// The median over segments of ops ÷ wall time, in ops per second.
pub fn segment_median_rate(segments: &[Segment]) -> f64 {
    let rates: Vec<f64> = segments
        .iter()
        .filter(|s| s.wall_ns > 0)
        .map(|s| s.ops as f64 / (s.wall_ns as f64 / 1e9))
        .collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut last = 0usize;
        for ns in [1u64, 63, 64, 65, 1000, 1_000_000, 123_456_789, 1 << 35] {
            let b = bucket_of(ns);
            assert!(b >= last, "bucket order broke at {ns}");
            last = b;
            let (lo, hi) = bucket_bounds(b);
            assert!(
                lo <= ns as f64 && (ns as f64) < hi,
                "{ns} outside [{lo},{hi})"
            );
            if ns >= 64 {
                assert!((hi - lo) / lo <= 1.0 / 64.0 + 1e-9);
            }
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_of_a_uniform_ramp() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 1000); // 1..10000 µs
        }
        let p50 = h.quantile_us(0.5).unwrap();
        let p99 = h.quantile_us(0.99).unwrap();
        assert!((p50 - 5000.0).abs() / 5000.0 < 0.02, "p50 {p50}");
        assert!((p99 - 9900.0).abs() / 9900.0 < 0.02, "p99 {p99}");
        assert!((h.mean_us() - 5000.5).abs() < 1.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let mut h = Histogram::new();
        for i in 0..999u64 {
            h.record(1000 + i);
        }
        // 999 samples: 9 beyond p99 — not enough.
        assert!(h.quantile_us(0.99).is_none());
        assert_eq!(h.tail_us(0.99, "p99").0, "p90");
        h.record(5000);
        // 1000 samples: exactly 10 beyond p99.
        assert!(h.quantile_us(0.99).is_some());
        assert_eq!(h.tail_us(0.99, "p99").0, "p99");
        assert!(h.quantile_us(0.999).is_none());
        // A median needs ten on each side too.
        let mut small = Histogram::new();
        for _ in 0..19 {
            small.record(10);
        }
        assert!(small.quantile_us(0.5).is_none());
        small.record(10);
        assert!(small.quantile_us(0.5).is_some());
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(100);
        b.record(300);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean_us() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn segment_median_ignores_one_slow_segment() {
        let mut segs = vec![
            Segment {
                ops: 100,
                wall_ns: 1_000_000_000,
            };
            9
        ];
        // The last segment carried a long barrier.
        segs.push(Segment {
            ops: 100,
            wall_ns: 10_000_000_000,
        });
        assert!((segment_median_rate(&segs) - 100.0).abs() < 1e-9);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
