//! The per-epoch signal kernel behind [`SensorNode`](crate::node::SensorNode).
//!
//! A node epoch needs two booleans from the synthetic signal: whether the
//! epoch holds an anomaly, and (under the filter policy) whether the
//! moving-mean detector fires. [`EpochKernel`] answers both with the same
//! bits as [`SignalGen::generate`] + [`detect`], but without building the
//! signal in the common case; the `node` module doc states how, and the
//! error budget the filter verdict carries.

use xxi_approx::signal::SignalGen;
use xxi_core::rng::Rng64;

/// Relative slack on each per-sample magnitude bound: 2⁻⁴⁰ ≈ 8192 ulps,
/// covering libm's `ln`/`sqrt`/`cos` (≤ 1 ulp each), the Box–Muller and
/// signal products, and the rounding of the bound's own arithmetic.
const SAMPLE_SLACK: f64 = 1.0 / (1u64 << 40) as f64;

/// 2⁻⁴⁸ = 32·2⁻⁵³: the unit of the window comparisons' margins, 16× the
/// worst-case rounding of the reference's sums that they must cover.
const SUM_ULP: f64 = 1.0 / (1u64 << 48) as f64;

/// An upper bound on `-ln u` for `u` in `(0, 1]` without calling `ln`:
/// with `u = m·2^e`, `m` in `[1, 2)`, it is `ln 2·(1 - m - e)`, the chord of
/// the convex `-ln m` over `[1, 2]`.
#[inline]
fn neg_ln_upper(u: f64) -> f64 {
    let bits = u.to_bits();
    let e = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let m = f64::from_bits((bits & ((1u64 << 52) - 1)) | (1023u64 << 52));
    std::f64::consts::LN_2 * ((1.0 - m) - e as f64)
}

/// Decides one epoch's `(has_anomaly, detected)` for a fixed signal shape,
/// epoch length and detector; reuses its buffers across epochs.
pub(crate) struct EpochKernel {
    gen: SignalGen,
    samples: usize,
    window: usize,
    threshold: f64,
    /// `carrier[i]` is sample `i`'s carrier, bit-equal to `generate`'s;
    /// indexed modulo its length (the period, or `samples` if shorter).
    carrier: Vec<f64>,
    /// Per-sample upper and lower bounds on the squared signal.
    hi2: Vec<f64>,
    lo2: Vec<f64>,
}

impl EpochKernel {
    pub(crate) fn new(
        gen: SignalGen,
        samples: usize,
        window: usize,
        threshold: f64,
    ) -> EpochKernel {
        let carrier = (0..gen.period.min(samples))
            .map(|i| {
                let phase = (i % gen.period) as f64 / gen.period as f64;
                gen.amplitude * (std::f64::consts::TAU * phase).sin()
            })
            .collect();
        EpochKernel {
            gen,
            samples,
            window,
            threshold,
            carrier,
            hi2: vec![0.0; samples],
            lo2: vec![0.0; samples],
        }
    }

    /// Whether epoch `seed` holds an anomaly: `generate`'s `mask.any()`.
    /// Draws only each sample's `chance`, steps over the two draws of its
    /// noise, and stops at the first anomaly start.
    pub(crate) fn has_anomaly(&self, seed: u64) -> bool {
        let mut rng = Rng64::new(seed);
        for _ in 0..self.samples {
            if rng.chance(self.gen.anomaly_rate) {
                return true;
            }
            rng.next_u64();
            rng.next_u64();
        }
        false
    }

    /// `(has_anomaly, detected)` for epoch `seed`: the certified verdict
    /// when the bounds decide it, otherwise the exact reference.
    pub(crate) fn filter(&mut self, seed: u64) -> (bool, bool) {
        match self.certify(seed) {
            (has_anomaly, Some(detected)) => (has_anomaly, detected),
            (_, None) => self.exact(seed),
        }
    }

    /// The reference: build the signal and run the detector on it.
    fn exact(&self, seed: u64) -> (bool, bool) {
        let (signal, mask) = self.gen.generate(self.samples, seed);
        (
            mask.iter().any(|&m| m),
            detect(&signal, self.window, self.threshold),
        )
    }

    /// The exact anomaly flag and, when the per-sample bounds settle it,
    /// the detector's verdict; `None` means the bounds cannot tell.
    fn certify(&mut self, seed: u64) -> (bool, Option<bool>) {
        let gen = &self.gen;
        let sigma = gen.noise_sigma.abs();
        let mut rng = Rng64::new(seed);
        let mut anomaly_left = 0usize;
        let mut has_anomaly = false;
        let mut phase = 0usize;
        let (mut sum_hi, mut sum_lo, mut max_hi) = (0.0f64, 0.0f64, 0.0f64);
        for (hi2, lo2) in self.hi2.iter_mut().zip(self.lo2.iter_mut()) {
            // The same draws, in the same order, as `generate`.
            if anomaly_left == 0 && rng.chance(gen.anomaly_rate) {
                anomaly_left = gen.anomaly_len;
            }
            let gain = if anomaly_left > 0 {
                has_anomaly = true;
                anomaly_left -= 1;
                gen.anomaly_gain
            } else {
                1.0
            };
            let carrier = (self.carrier[phase] * gain).abs();
            phase += 1;
            if phase == self.carrier.len() {
                phase = 0;
            }
            // Box–Muller's radius from its first draw; |cos| ≤ 1 stands in
            // for the angle, whose draw is stepped over.
            let u = 1.0 - rng.next_f64();
            rng.next_u64();
            let noise = sigma * (2.0 * neg_ln_upper(u)).sqrt() * (1.0 + SAMPLE_SLACK);
            let hi = (carrier + noise) * (1.0 + SAMPLE_SLACK);
            let lo = (carrier - noise).max(0.0) * (1.0 - SAMPLE_SLACK);
            *hi2 = hi * hi;
            *lo2 = lo * lo;
            sum_hi += *hi2;
            sum_lo += *lo2;
            max_hi = max_hi.max(*hi2);
        }
        // Outside this range a square could underflow past the margins or
        // overflow; a NaN bound (which `max` skips) leaves `sum_hi` NaN.
        if !(1e-100..=1e100).contains(&max_hi) || !sum_hi.is_finite() {
            return (has_anomaly, None);
        }

        let n = self.samples as f64;
        let w = self.window;
        let rel = (n + 64.0) * SUM_ULP;
        let abs = n * (w.min(self.samples) as f64 + 1.0) * SUM_ULP * max_hi;
        let t2 = self.threshold * self.threshold;
        let below = t2 * (sum_lo / n) * (1.0 - rel);
        let above = t2 * (sum_hi / n) * (1.0 + rel);
        // No window's mean exceeds the largest sample bound, so when even
        // that is below, the verdict is "no" without scanning the windows.
        if (max_hi + abs) * (1.0 + rel) < below {
            return (has_anomaly, Some(false));
        }
        let (mut acc_hi, mut acc_lo) = (0.0f64, 0.0f64);
        let mut all_below = true;
        for i in 0..self.samples {
            acc_hi += self.hi2[i];
            acc_lo += self.lo2[i];
            if i >= w {
                acc_hi -= self.hi2[i - w];
                acc_lo -= self.lo2[i - w];
            }
            let len = w.min(i + 1) as f64;
            if (acc_lo - abs) * (1.0 - rel) > len * above {
                return (has_anomaly, Some(true));
            }
            // Written so a NaN bound counts as "not below".
            all_below &= (acc_hi + abs) * (1.0 + rel) < len * below;
        }
        (has_anomaly, all_below.then_some(false))
    }
}

/// Moving-mean-of-squares anomaly detector: fires when any window's RMS
/// exceeds `threshold ×` the epoch RMS baseline.
fn detect(signal: &[f64], window: usize, threshold: f64) -> bool {
    let epoch_ms = signal.iter().map(|x| x * x).sum::<f64>() / signal.len() as f64;
    if epoch_ms == 0.0 {
        return false;
    }
    let mut acc = 0.0;
    for (i, x) in signal.iter().enumerate() {
        acc += x * x;
        if i >= window {
            acc -= signal[i - window] * signal[i - window];
        }
        let n = window.min(i + 1) as f64;
        if acc / n > threshold * threshold * epoch_ms {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The largest window mean-square over the epoch mean-square, computed
    /// as `detect` does: the threshold² at which its verdict flips.
    fn flip_ratio(signal: &[f64], window: usize) -> f64 {
        let ms = signal.iter().map(|x| x * x).sum::<f64>() / signal.len() as f64;
        let mut acc = 0.0;
        let mut worst = 0.0f64;
        for (i, x) in signal.iter().enumerate() {
            acc += x * x;
            if i >= window {
                acc -= signal[i - window] * signal[i - window];
            }
            worst = worst.max(acc / window.min(i + 1) as f64);
        }
        worst / ms
    }

    #[test]
    fn neg_ln_upper_bounds_neg_ln_and_is_tight() {
        let mut rng = Rng64::new(11);
        for _ in 0..100_000 {
            let u = 1.0 - rng.next_f64();
            let (exact, bound) = (-u.ln(), neg_ln_upper(u));
            assert!(bound >= exact, "u={u} bound={bound} -ln u={exact}");
            // The chord's worst gap over -ln m on [1, 2) is ~0.0861.
            assert!(bound - exact < 0.087, "u={u} gap={}", bound - exact);
        }
        assert_eq!(neg_ln_upper(1.0), 0.0);
        assert_eq!(neg_ln_upper(0.5), std::f64::consts::LN_2);
    }

    #[test]
    fn carrier_table_is_bit_equal_to_generate() {
        for (period, samples) in [(64, 250), (64, 7), (5, 64), (300, 250)] {
            let gen = SignalGen {
                period,
                noise_sigma: 0.0,
                anomaly_rate: 0.0,
                ..SignalGen::default()
            };
            let k = EpochKernel::new(gen, samples, 8, 1.8);
            let (signal, _) = gen.generate(samples, 1);
            for (i, x) in signal.iter().enumerate() {
                // Zero noise adds `0.0 * normal` = ±0, which keeps the bits.
                assert_eq!(
                    x.to_bits(),
                    (k.carrier[i % k.carrier.len()] + 0.0).to_bits(),
                    "period {period} sample {i}"
                );
            }
        }
    }

    /// The kernel's `(has_anomaly, detected)` against `generate` + `detect`
    /// over an adversarial sweep: thresholds 0.8–2.75, windows from 1 to
    /// past the epoch, epochs of 7/64/250 samples, noise σ 0.05–0.5 and
    /// anomaly rates 0–0.01, with a quarter of the epochs given a threshold
    /// within a few ulps of the one at which their verdict flips.
    #[test]
    fn kernel_matches_generate_and_detect() {
        let mut rng = Rng64::new(0xE10);
        let (mut epochs, mut fallbacks) = (0u64, 0u64);
        for samples in [7usize, 64, 250] {
            for window in [1usize, 3, 8, 16, samples + 5] {
                for rate in [0.0, 0.0002, 0.002, 0.01] {
                    for e in 0..1_700u64 {
                        let gen = SignalGen {
                            noise_sigma: rng.range_f64(0.05, 0.5),
                            anomaly_rate: rate,
                            ..SignalGen::default()
                        };
                        let seed = rng.next_u64();
                        let (signal, mask) = gen.generate(samples, seed);
                        let mut t = rng.range_f64(0.8, 2.75);
                        if e % 4 == 0 {
                            let ulps = rng.range_u64(0, 8) as i64 - 4;
                            let flip = flip_ratio(&signal, window).sqrt();
                            t = f64::from_bits((flip.to_bits() as i64 + ulps) as u64);
                        }
                        let want = (mask.iter().any(|&m| m), detect(&signal, window, t));
                        let mut k = EpochKernel::new(gen, samples, window, t);
                        let (has_anomaly, verdict) = k.certify(seed);
                        assert_eq!(has_anomaly, want.0, "mask: {gen:?} n={samples} seed={seed}");
                        match verdict {
                            Some(d) => assert_eq!(
                                d, want.1,
                                "verdict: {gen:?} n={samples} w={window} t={t} seed={seed}"
                            ),
                            None => fallbacks += 1,
                        }
                        assert_eq!(k.filter(seed), want);
                        assert_eq!(k.has_anomaly(seed), want.0);
                        epochs += 1;
                    }
                }
            }
        }
        assert!(epochs >= 100_000, "{epochs} epochs");
        // Both paths carry real weight: the bounds decide most epochs, and
        // the exact fallback runs on a non-trivial share.
        let share = fallbacks as f64 / epochs as f64;
        assert!((0.05..0.95).contains(&share), "fallback share {share}");
    }

    #[test]
    fn the_e10_signal_rarely_needs_the_fallback() {
        let gen = SignalGen {
            anomaly_rate: 0.0002,
            ..SignalGen::default()
        };
        let mut k = EpochKernel::new(gen, 250, 8, 1.8);
        let mut seed = 1u64;
        let mut fallbacks = 0;
        for _ in 0..20_000 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(7);
            if k.certify(seed).1.is_none() {
                fallbacks += 1;
            }
        }
        assert!(fallbacks < 400, "{fallbacks} of 20000 epochs fell back");
    }
}
