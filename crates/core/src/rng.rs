//! Deterministic pseudo-random numbers: the one generator of the
//! workspace.
//!
//! A SplitMix64 generator: tiny, fast, and fully reproducible across
//! platforms. Every simulation run (`rgb-sim`, re-exported there as
//! `rgb_sim::SplitMix64`) and every Monte-Carlo estimate (`rgb-analysis`)
//! is a pure function of its seed, which the digest pins and the estimator
//! pins rely on.
//!
//! Every method is `#[inline]`: the workspace builds without LTO, and the
//! simulator draws from a node's stream once or twice per frame
//! (`NetworkModel::plan_frame`), so an out-of-line call here is a call per
//! frame from another crate.

/// SplitMix64 PRNG.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded generator.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// An independent stream derived from `(seed, stream)`.
    ///
    /// Streams are how the engine stays deterministic *independently of
    /// execution order*: every node (and every mobile host) draws from its
    /// own stream keyed by its identity, so two executions that interleave
    /// nodes differently (sequential vs. sharded-parallel) still hand each
    /// node the exact same random sequence. The Weyl-style multiply
    /// decorrelates neighbouring stream ids; one warm-up step separates the
    /// stream from a plain `new(seed ^ …)` generator.
    #[inline]
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)` (`hi > lo`).
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(hi > lo);
        lo + self.next_u64() % (hi - lo)
    }

    /// Bernoulli trial.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Exponentially distributed value with the given mean.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = self.uniform().max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Pick one element of a non-empty slice.
    #[inline]
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range(0, items.len() as u64) as usize]
    }

    /// Fork an independent stream (for sub-components).
    #[inline]
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64() ^ 0xA5A5_A5A5_5A5A_5A5A)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = SplitMix64::new(1);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_about_half() {
        let mut r = SplitMix64::new(7);
        let n = 100_000;
        let total: f64 = (0..n).map(|_| r.uniform()).sum();
        let mean = total / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = SplitMix64::new(3);
        for _ in 0..10_000 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn chance_frequency_tracks_p() {
        let mut r = SplitMix64::new(11);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.chance(0.2)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.2).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SplitMix64::new(13);
        let n = 100_000;
        let total: f64 = (0..n).map(|_| r.exponential(50.0)).sum();
        let mean = total / n as f64;
        assert!((mean - 50.0).abs() < 1.5, "mean {mean}");
    }

    #[test]
    fn streams_are_deterministic_and_decorrelated() {
        let mut a = SplitMix64::stream(42, 7);
        let mut b = SplitMix64::stream(42, 7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::stream(42, 8);
        let mut d = SplitMix64::stream(43, 7);
        let v = a.next_u64();
        assert_ne!(v, c.next_u64());
        assert_ne!(v, d.next_u64());
    }

    #[test]
    fn forked_streams_differ() {
        let mut a = SplitMix64::new(5);
        let mut b = a.fork();
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn pick_covers_all_elements() {
        let mut r = SplitMix64::new(17);
        let items = [1, 2, 3, 4];
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[*r.pick(&items) as usize - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
