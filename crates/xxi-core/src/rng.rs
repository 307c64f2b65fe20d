//! Deterministic pseudo-random generation and workload distributions.
//!
//! Every stochastic model in the workspace (service times, fault arrivals,
//! harvested energy, memory traces) draws from [`Rng64`], a xoshiro256++
//! generator seeded through SplitMix64. Two properties matter here:
//!
//! 1. **Reproducibility** — a seed fully determines an experiment, so every
//!    number in EXPERIMENTS.md can be regenerated.
//! 2. **Splittability** — [`Rng64::split`] derives an independent stream,
//!    letting parallel workers or per-server arrival processes stay
//!    decorrelated without shared state.
//!
//! The distribution set matches what the paper's scenarios need:
//! exponential and log-normal service times (tail latency, §2.1), Pareto
//! heavy tails (stragglers), Zipf object popularity ("big data" skew,
//! Appendix A), and Gaussian sensor noise.

/// SplitMix64 step — used for seeding and stream splitting.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// xoshiro256++ PRNG (Blackman & Vigna), seeded via SplitMix64.
///
/// Passes BigCrush; period 2²⁵⁶−1; not cryptographic (none of our models
/// need that).
#[derive(Clone, Debug)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Create a generator from a seed. Any seed (including 0) is fine; the
    /// internal state is expanded with SplitMix64 and cannot be all-zero.
    pub fn new(seed: u64) -> Rng64 {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng64 { s }
    }

    /// Derive an independent stream (for a parallel worker, a server's
    /// arrival process, …). Deterministic: the i-th split of a given
    /// generator state is always the same.
    pub fn split(&mut self) -> Rng64 {
        Rng64::new(self.next_u64() ^ 0xA5A5_5A5A_DEAD_BEEF)
    }

    /// The `index`-th substream of `seed`: a generator that is a pure
    /// function of `(seed, index)`, independent of any generator state or
    /// draw order. Parallel Monte Carlo chunks each take their own
    /// substream so results do not depend on which thread ran which chunk
    /// (see `xxi_core::par::mc_chunks`). Adjacent indices are pushed far
    /// apart in seed space by two SplitMix64 passes.
    pub fn stream(seed: u64, index: u64) -> Rng64 {
        let mut sm = seed;
        let root = splitmix64(&mut sm);
        let mut sm2 = root ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
        Rng64::new(splitmix64(&mut sm2))
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`. Uses Lemire's multiply-shift rejection method to
    /// avoid modulo bias.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Uniform float in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    ///
    /// Draw contract: consumes exactly one [`Rng64::next_u64`], whatever
    /// `p` and the outcome. Callers may rely on it to step a stream past a
    /// trial without evaluating it (the sensor node's epoch kernel does).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal via Box–Muller (one value per call; the pair's
    /// second member is discarded for simplicity and statelessness).
    ///
    /// Draw contract: consumes exactly two [`Rng64::next_u64`]: the first
    /// sets the radius (`u = 1 - next_f64()`), the second the angle.
    /// Callers may step over a normal by drawing twice without the math.
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0) by shifting u into (0, 1].
        let u = 1.0 - self.next_f64();
        let v = self.next_f64();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }

    /// Normal with mean `mu` and standard deviation `sigma`. Consumes
    /// exactly two [`Rng64::next_u64`], as [`Rng64::normal`] does.
    #[inline]
    pub fn normal_with(&mut self, mu: f64, sigma: f64) -> f64 {
        mu + sigma * self.normal()
    }

    /// Exponential with rate `lambda` (mean `1/lambda`).
    pub fn exp(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0);
        -(1.0 - self.next_f64()).ln() / lambda
    }

    /// Log-normal with `ln`-space parameters `mu`, `sigma`; a standard model
    /// for server response times (long right tail).
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Pareto with minimum `x_min` and shape `alpha` (heavier tail for
    /// smaller `alpha`); models stragglers.
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        assert!(x_min > 0.0 && alpha > 0.0);
        x_min / (1.0 - self.next_f64()).powf(1.0 / alpha)
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Pick a uniformly random element.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty());
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// Zipf-distributed ranks over `{0, 1, …, n−1}` with skew `s`.
///
/// Rank `k` (0-based) has probability ∝ 1/(k+1)^s. Sampling is by binary
/// search over the precomputed CDF — O(log n) per sample, exact, and fast
/// enough for the trace generators (n ≤ a few million).
///
/// Zipf popularity is the canonical "big data" access skew (Appendix A):
/// cache and hybrid-memory experiments use it heavily.
///
/// ```
/// use xxi_core::rng::{Rng64, Zipf};
/// let z = Zipf::new(100, 1.0);
/// assert!(z.pmf(0) > z.pmf(50));          // rank 0 is hottest
/// let mut rng = Rng64::new(7);
/// assert!(z.sample(&mut rng) < 100);
/// ```
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a Zipf sampler over `n` items with exponent `s ≥ 0`.
    /// `s = 0` degenerates to uniform.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over zero items");
        assert!(
            s >= 0.0 && s.is_finite(),
            "Zipf exponent must be finite and >= 0"
        );
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
        // Guard against floating-point shortfall at the top.
        *cdf.last_mut().unwrap() = 1.0; // xxi-allow: panic-path -- cdf has one entry per weight
        Zipf { cdf }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if the sampler covers no items (never: `new` rejects n = 0).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Probability of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }

    /// Draw a rank in `[0, n)`.
    pub fn sample(&self, rng: &mut Rng64) -> usize {
        let u = rng.next_f64();
        // partition_point returns the first index with cdf[i] >= u... we
        // want the first index whose cdf exceeds u.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = Rng64::new(7);
        let mut b = Rng64::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_decorrelated() {
        let mut a = Rng64::new(99);
        let mut b = a.split();
        let n = 10_000;
        let matches = (0..n)
            .filter(|_| (a.next_u64() & 1) == (b.next_u64() & 1))
            .count();
        // Around n/2 for independent streams.
        assert!((matches as f64 - n as f64 / 2.0).abs() < 4.0 * (n as f64 / 4.0).sqrt());
    }

    /// The draw contract stated on `chance`, `normal` and `normal_with`:
    /// one, two and two `next_u64` draws, whatever the parameters.
    #[test]
    fn chance_draws_one_u64_and_normal_draws_two() {
        for seed in 0..64 {
            let mut a = Rng64::new(seed);
            let mut b = a.clone();
            for p in [0.0, 0.0002, 0.5, 1.0, 2.0] {
                a.chance(p);
                b.next_u64();
                assert_eq!(a.next_u64(), b.next_u64(), "chance({p}), seed {seed}");
            }
            a.normal();
            b.next_u64();
            b.next_u64();
            assert_eq!(a.next_u64(), b.next_u64(), "normal, seed {seed}");
            for (mu, sigma) in [(0.0, 0.05), (10.0, 3.0), (0.0, 0.0)] {
                a.normal_with(mu, sigma);
                b.next_u64();
                b.next_u64();
                assert_eq!(
                    a.next_u64(),
                    b.next_u64(),
                    "normal_with({mu}, {sigma}), seed {seed}"
                );
            }
        }
    }

    #[test]
    fn stream_is_a_pure_function_of_seed_and_index() {
        let mut a = Rng64::stream(42, 3);
        let mut b = Rng64::stream(42, 3);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn stream_indices_are_decorrelated() {
        let mut a = Rng64::stream(42, 0);
        let mut b = Rng64::stream(42, 1);
        let n = 10_000;
        let matches = (0..n)
            .filter(|_| (a.next_u64() & 1) == (b.next_u64() & 1))
            .count();
        assert!((matches as f64 - n as f64 / 2.0).abs() < 4.0 * (n as f64 / 4.0).sqrt());
        // And a substream differs from the base generator for the seed.
        let mut base = Rng64::new(42);
        let mut s0 = Rng64::stream(42, 0);
        let same = (0..100)
            .filter(|_| base.next_u64() == s0.next_u64())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = Rng64::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_unbiased_ish() {
        let mut r = Rng64::new(4);
        let n = 7u64;
        let mut counts = [0u64; 7];
        let trials = 70_000;
        for _ in 0..trials {
            counts[r.below(n) as usize] += 1;
        }
        let expected = trials as f64 / n as f64;
        for &c in &counts {
            assert!(
                (c as f64 - expected).abs() < 5.0 * expected.sqrt(),
                "{counts:?}"
            );
        }
    }

    #[test]
    fn range_bounds_inclusive() {
        let mut r = Rng64::new(5);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let x = r.range_u64(3, 5);
            assert!((3..=5).contains(&x));
            saw_lo |= x == 3;
            saw_hi |= x == 5;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn exponential_mean_matches() {
        let mut r = Rng64::new(6);
        let lambda = 2.0;
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.exp(lambda)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn normal_moments_match() {
        let mut r = Rng64::new(8);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal_with(10.0, 3.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean={mean}");
        assert!((var - 9.0).abs() < 0.3, "var={var}");
    }

    #[test]
    fn lognormal_median_matches() {
        let mut r = Rng64::new(9);
        let mut xs: Vec<f64> = (0..50_001).map(|_| r.lognormal(1.0, 0.5)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        // Median of lognormal(mu, sigma) is e^mu.
        assert!((median - 1.0f64.exp()).abs() < 0.05, "median={median}");
    }

    #[test]
    fn pareto_respects_minimum_and_tail() {
        let mut r = Rng64::new(10);
        let mut above10 = 0;
        let n = 100_000;
        for _ in 0..n {
            let x = r.pareto(1.0, 1.5);
            assert!(x >= 1.0);
            if x > 10.0 {
                above10 += 1;
            }
        }
        // P(X > 10) = 10^-1.5 ≈ 0.0316.
        let p = above10 as f64 / n as f64;
        assert!((p - 0.0316).abs() < 0.005, "p={p}");
    }

    #[test]
    fn zipf_rank0_dominates_and_pmf_sums_to_one() {
        let z = Zipf::new(1000, 1.0);
        let total: f64 = (0..1000).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(10));
        // With s=1, p(0)/p(9) = 10.
        assert!((z.pmf(0) / z.pmf(9) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn zipf_sampling_matches_pmf() {
        let z = Zipf::new(100, 0.8);
        let mut r = Rng64::new(11);
        let n = 200_000;
        let mut counts = vec![0u64; 100];
        for _ in 0..n {
            counts[z.sample(&mut r)] += 1;
        }
        for k in [0usize, 1, 5, 50] {
            let emp = counts[k] as f64 / n as f64;
            let exp = z.pmf(k);
            assert!(
                (emp - exp).abs() < 5.0 * (exp / n as f64).sqrt() + 1e-3,
                "rank {k}: emp={emp} exp={exp}"
            );
        }
    }

    #[test]
    fn zipf_zero_skew_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng64::new(12);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>()); // astronomically unlikely
    }

    #[test]
    fn choose_returns_member() {
        let mut r = Rng64::new(13);
        let xs = [10, 20, 30];
        for _ in 0..100 {
            assert!(xs.contains(r.choose(&xs)));
        }
    }

    #[test]
    #[should_panic]
    fn below_zero_panics() {
        Rng64::new(0).below(0);
    }
}
