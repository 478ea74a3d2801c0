//! Latency histograms and the percentile rule.
//!
//! A timing is reported as its median and the highest percentile that has
//! at least [`MIN_BEYOND`] samples beyond it. Histograms have a fixed size,
//! so recording every call of a long run costs no memory growth and does
//! not show up in the run's peak RSS.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: u64 = 10;

/// The percentile ladder, in parts per 10 000.
pub const LADDER: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// Samples of `n` that lie strictly above the `q`-quantile (`q` in parts
/// per 10 000), with the nearest-rank definition of the quantile.
pub fn beyond(n: u64, q: u64) -> u64 {
    n - rank(n, q)
}

/// Nearest rank (1-based) of the `q`-quantile among `n` samples.
fn rank(n: u64, q: u64) -> u64 {
    (n * q).div_ceil(10_000).clamp(1, n.max(1))
}

/// The highest ladder percentile (parts per 10 000) with at least
/// [`MIN_BEYOND`] samples beyond it, if any.
pub fn highest_reportable(n: u64) -> Option<u64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| n > 0 && beyond(n, q) >= MIN_BEYOND)
}

/// Whether a `q` percentile of `n` samples has enough samples beyond it.
pub fn reportable(n: u64, q: u64) -> bool {
    n > 0 && beyond(n, q) >= MIN_BEYOND
}

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const TOP_BITS: u32 = 42;
const BUCKETS: usize = ((TOP_BITS - SUB_BITS + 1) as u64 * SUB) as usize;

/// Nanosecond histogram: exact below 128 ns, then 128 buckets per octave
/// (0.8 % wide) up to about 73 minutes; 37 KiB.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let e = (63 - v.leading_zeros()).min(TOP_BITS - 1);
        let sub = (v.min((1 << TOP_BITS) - 1) >> (e - SUB_BITS)) & (SUB - 1);
        (u64::from(e - SUB_BITS + 1) * SUB + sub) as usize
    }

    /// Lower bound and width of bucket `i`.
    fn bucket(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < SUB {
            return (i as f64, 1.0);
        }
        let e = i / SUB - 1 + u64::from(SUB_BITS);
        let sub = i % SUB;
        let width = 1u64 << (e - u64::from(SUB_BITS));
        (((SUB + sub) * width) as f64, width as f64)
    }

    /// Records one sample (ns).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.n += 1;
    }

    /// Sample count.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `q`-quantile (parts per 10 000) in ns, interpolated inside its
    /// bucket by rank; 0 for an empty histogram.
    pub fn quantile(&self, q: u64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let r = rank(self.n, q);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && seen + c >= r {
                let (lo, width) = Self::bucket(i);
                return lo + width * ((r - seen) as f64 - 0.5) / c as f64;
            }
            seen += c;
        }
        unreachable!("rank {r} within {} samples", self.n)
    }
}

/// Linear-interpolation quantile of `v` (`q` in 0..=1), as Python's
/// `statistics.quantiles(method="inclusive")` computes it.
pub fn quantile_f64(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    match s.get(lo + 1) {
        Some(&hi) => s[lo] + (hi - s[lo]) * frac,
        None => s[lo],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Nearest-rank quantile of sorted samples.
    fn quantile_sorted(sorted: &[u64], q: u64) -> u64 {
        sorted[rank(sorted.len() as u64, q) as usize - 1]
    }

    #[test]
    fn percentile_rule_needs_ten_beyond() {
        assert_eq!(highest_reportable(0), None);
        assert_eq!(highest_reportable(19), None);
        assert_eq!(highest_reportable(20), Some(5_000));
        assert_eq!(highest_reportable(99), Some(5_000));
        assert_eq!(highest_reportable(100), Some(9_000));
        assert_eq!(highest_reportable(999), Some(9_000));
        assert_eq!(highest_reportable(1_000), Some(9_900));
        assert_eq!(highest_reportable(10_000), Some(9_990));
        assert_eq!(highest_reportable(100_000), Some(9_999));
        assert_eq!(beyond(1_000, 9_900), 10);
        assert_eq!(beyond(1_001, 9_900), 10);
        assert!(reportable(1_000, 9_900));
        assert!(!reportable(999, 9_900));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 5_000), 50);
        assert_eq!(quantile_sorted(&v, 9_900), 99);
        assert_eq!(quantile_sorted(&[7], 9_900), 7);
    }

    #[test]
    fn histogram_tracks_exact_quantiles() {
        let mut r = Rng::new(11, 0);
        let mut h = Hist::default();
        let mut v = Vec::new();
        for _ in 0..50_000 {
            let x = r.log_uniform(20, 5_000_000) as u64;
            h.record(x);
            v.push(x);
        }
        v.sort_unstable();
        for q in LADDER {
            let exact = quantile_sorted(&v, q) as f64;
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() <= exact * 0.008 + 1.0,
                "q={q}: {got} vs {exact}"
            );
        }
    }

    #[test]
    fn histogram_buckets_tile_the_range() {
        for v in [
            0,
            1,
            SUB - 1,
            SUB,
            SUB + 1,
            255,
            256,
            1 << 20,
            (1 << 30) + 12_345,
        ] {
            let (lo, width) = Hist::bucket(Hist::index(v));
            assert!(
                lo <= v as f64 && (v as f64) < lo + width,
                "v={v} in [{lo}, +{width})"
            );
        }
        assert!(Hist::index(u64::MAX) < BUCKETS);
        let mut a = Hist::default();
        let mut b = Hist::default();
        a.record(5);
        b.record(7);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(Hist::default().quantile(5_000), 0.0);
    }

    #[test]
    fn interpolated_quantiles_match_python() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4, method="inclusive")
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile_f64(&v, 0.25), 2.0);
        assert_eq!(quantile_f64(&v, 0.75), 4.0);
        assert_eq!(quantile_f64(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile_f64(&[7.0], 0.75), 7.0);
        assert_eq!(quantile_f64(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile_f64(&[4.0, 1.0, 2.0, 3.0], 0.5), 2.5);
    }
}
