//! Deterministic random primitives.
//!
//! Every experiment in the workspace is seeded, so runs are exactly
//! reproducible. The core generator is an in-tree xoshiro256++ (seeded
//! through SplitMix64, the initialization recommended by its authors) —
//! fast, tiny state, and no external dependency, which keeps the build
//! hermetic. The distributions the paper's workloads need beyond uniforms
//! — Gaussians for planted factors and noise, Zipf for item popularity —
//! are implemented on top.

/// The splitmix64 finalizer: a bijective avalanche of one 64-bit word.
/// ALS factor initialization hashes `(entity, component)` with it directly;
/// [`splitmix64`] is it applied to a Weyl sequence.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64: advances `state` by the golden-ratio increment and returns
/// the mixed word. Expands a seed into the xoshiro state, and is a small
/// seedable generator on its own.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    mix64(*state)
}

/// A seeded random source with the distributions Velox's generators need.
///
/// Internally a xoshiro256++ generator: 256 bits of state, one rotate /
/// shift / xor round per output word, period 2²⁵⁶ − 1.
#[derive(Debug, Clone)]
pub struct VeloxRng {
    s: [u64; 4],
    /// Spare Gaussian from the last Box–Muller pair.
    spare: Option<f64>,
}

impl VeloxRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        VeloxRng { s, spare: None }
    }

    /// Next raw 64-bit word (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`: the top 53 bits of a word over 2⁵³.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. `n` must be positive. Uses rejection
    /// sampling (Lemire-style threshold) so the draw is exactly uniform.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        if n.is_power_of_two() {
            return self.next_u64() & (n - 1);
        }
        // Rejection zone: discard draws above the largest multiple of n.
        let zone = u64::MAX - (u64::MAX % n) - 1;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % n;
            }
        }
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo < hi);
        lo + (hi - lo) * self.uniform()
    }

    /// Standard normal via Box–Muller (polar form), caching the spare.
    pub fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        loop {
            let u = 2.0 * self.uniform() - 1.0;
            let v = 2.0 * self.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                self.spare = Some(v * factor);
                return u * factor;
            }
        }
    }

    /// Normal with the given mean and standard deviation.
    pub fn gaussian_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gaussian()
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (partial Fisher–Yates).
    /// `k` is clamped to `n`.
    pub fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below((n - i) as u64) as usize;
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

/// A Zipf(s) sampler over `{0, 1, ..., n-1}` by inverted CDF with binary
/// search: P(k) ∝ 1/(k+1)^s. Rank 0 is the most popular item.
///
/// CDF construction is O(n) once; each sample is O(log n). This is the item
/// popularity model of §5 ("item popularity often follows a Zipfian
/// distribution").
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with exponent `s >= 0`.
    ///
    /// # Panics
    /// Panics when `n == 0` or `s` is negative/non-finite — both are
    /// configuration errors.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over an empty universe");
        assert!(s >= 0.0 && s.is_finite(), "Zipf exponent must be finite and >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn universe(&self) -> usize {
        self.cdf.len()
    }

    /// Draws a rank in `[0, n)`.
    pub fn sample(&self, rng: &mut VeloxRng) -> usize {
        let u = rng.uniform();
        // First index whose CDF value exceeds u.
        match self.cdf.binary_search_by(|c| c.partial_cmp(&u).expect("CDF has no NaN")) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Probability mass of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        if k >= self.cdf.len() {
            return 0.0;
        }
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = VeloxRng::seed_from(42);
        let mut b = VeloxRng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
            assert_eq!(a.gaussian().to_bits(), b.gaussian().to_bits());
        }
        let mut c = VeloxRng::seed_from(43);
        assert_ne!(a.uniform(), c.uniform());
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = VeloxRng::seed_from(1);
        for _ in 0..1000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
            let r = rng.range(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&r));
            let i = rng.below(7);
            assert!(i < 7);
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = VeloxRng::seed_from(7);
        let n = 100_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let z = rng.gaussian();
            sum += z;
            sumsq += z * z;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn gaussian_with_params() {
        let mut rng = VeloxRng::seed_from(9);
        let n = 50_000;
        let mut sum = 0.0;
        for _ in 0..n {
            sum += rng.gaussian_with(5.0, 0.5);
        }
        assert!((sum / n as f64 - 5.0).abs() < 0.02);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = VeloxRng::seed_from(3);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "seed 3 should not give identity permutation");
    }

    #[test]
    fn sample_distinct_properties() {
        let mut rng = VeloxRng::seed_from(4);
        let sample = rng.sample_distinct(100, 10);
        assert_eq!(sample.len(), 10);
        let mut uniq = sample.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 10, "duplicates in distinct sample");
        assert!(sample.iter().all(|&i| i < 100));
        // k > n clamps.
        assert_eq!(rng.sample_distinct(5, 50).len(), 5);
    }

    #[test]
    fn zipf_pmf_sums_to_one_and_is_monotone() {
        let z = Zipf::new(1000, 1.0);
        let total: f64 = (0..1000).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for k in 1..1000 {
            assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-15, "pmf must be non-increasing");
        }
        assert_eq!(z.pmf(5000), 0.0);
    }

    #[test]
    fn zipf_empirical_skew() {
        let z = Zipf::new(10_000, 1.0);
        let mut rng = VeloxRng::seed_from(11);
        let n = 100_000;
        let mut head = 0u64;
        for _ in 0..n {
            if z.sample(&mut rng) < 100 {
                head += 1;
            }
        }
        // With s=1 over 10k items, top-100 carries ~ H(100)/H(10000) ≈ 53%.
        let frac = head as f64 / n as f64;
        assert!(frac > 0.45 && frac < 0.62, "head mass {frac}");
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(100, 0.0);
        for k in 0..100 {
            assert!((z.pmf(k) - 0.01).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_higher_skew_concentrates_more() {
        let z1 = Zipf::new(1000, 0.8);
        let z2 = Zipf::new(1000, 1.4);
        assert!(z2.pmf(0) > z1.pmf(0));
    }

    #[test]
    #[should_panic(expected = "empty universe")]
    fn zipf_empty_panics() {
        let _ = Zipf::new(0, 1.0);
    }
}
