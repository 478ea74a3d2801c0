//! Seeded input generation: a SplitMix64 stream and an FNV-1a digest used
//! to show that equal seeds give equal inputs.

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` (e.g. a worker index).
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Log-uniform in `lo..=hi`: as many small buffers as large ones per
    /// size octave, the usual shape of heap traffic.
    pub fn log_uniform(&mut self, lo: usize, hi: usize) -> usize {
        let (l, h) = ((lo as f64).ln(), (hi as f64).ln());
        let u = self.next_u64() as f64 / u64::MAX as f64;
        ((l + (h - l) * u).exp().round() as usize).clamp(lo, hi)
    }

    /// A seeded permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// FNV-1a over a stream of words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Mixes one word into the digest.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_equal_streams() {
        let a: Vec<u64> = (0..64)
            .scan(Rng::new(7, 0), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..64)
            .scan(Rng::new(7, 0), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..64)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_hold() {
        let mut r = Rng::new(3, 0);
        for _ in 0..10_000 {
            assert!(r.below(5) < 5);
            let s = r.log_uniform(16, 512);
            assert!((16..=512).contains(&s));
        }
        let mut p = r.permutation(30);
        p.sort_unstable();
        assert_eq!(p, (0..30).collect::<Vec<_>>());
    }
}
