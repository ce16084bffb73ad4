//! Flat-fading channel model between a tag and the reader.
//!
//! Per §II-B, each component of a mixed signal arrives with its own channel
//! attenuation `h` and phase shift `γ`:
//! `y[n] = h'·A_s·e^{i(θ_s[n]+γ')} + h''·B_s·e^{i(φ_s[n]+γ'')}`.
//!
//! Tags are statically located during a reading round (§IV-E), so the
//! channel is modelled as a per-transmission complex gain (drawn once per
//! slot) plus additive white Gaussian noise at the reader.

use crate::complex::Complex;
use rand::Rng;
use rfid_types::simd;
use std::f64::consts::PI;

/// Draws an independent standard-normal *pair* via one Marsaglia polar
/// transform (the offline `rand` 0.8 has no bundled normal distribution).
///
/// The polar method is the trig-free form of Box-Muller: rejection-sample a
/// point uniform in the unit disk (≈ 1.27 tries), then scale it by
/// `√(−2·ln s / s)` — the direction cosines come from the point itself, so
/// the per-pair cost is one `ln`/`sqrt` instead of Box-Muller's
/// `ln`/`sqrt`/[`f64::sin_cos`]. The transform is exact (both variates are
/// independent N(0,1), pinned by the moment/KS tests below), and both are
/// returned so filling `n` normals costs `n/2` transforms. Complex AWGN
/// maps one pair onto one sample: `(re, im) = (z0, z1)`.
///
/// The rejection loop draws a *variable* number of uniforms per pair, which
/// is harmless under per-`(record, hop)` counter streams: no other consumer
/// ever continues a stream mid-sequence, so draw counts never need to line
/// up across call sites.
#[must_use]
pub fn standard_normal_pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    loop {
        let u = rng.gen::<f64>() * 2.0 - 1.0;
        let v = rng.gen::<f64>() * 2.0 - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            let f = (-2.0 * s.ln() / s).sqrt();
            return (u * f, v * f);
        }
    }
}

/// Draws a single standard-normal variate (the cosine half of
/// [`standard_normal_pair`]).
///
/// Scalar convenience for call sites that need exactly one variate; bulk
/// fills should use [`fill_standard_normal_into`] or consume pairs directly
/// so the sine variate isn't discarded.
#[must_use]
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    standard_normal_pair(rng).0
}

/// Candidate points per block of [`for_each_standard_normal_pair`]: the
/// block's generator bytes and four arrays of this many `f64`s (6 KiB).
const POLAR_BLOCK: usize = 128;

/// Draws `pairs` standard-normal pairs and hands pair `i` to
/// `emit(i, z0, z1)`, in order — the block form of calling
/// [`standard_normal_pair`] `pairs` times.
///
/// Each block runs in two phases. First the candidates: the block draws
/// the words of at most as many `(u, v)` candidates as pairs are still
/// needed through one [`rand::RngCore::fill_bytes`] call, and
/// [`rfid_types::simd::polar_candidates`] keeps the accepted ones in
/// order. It never over-draws: the sequential loop would draw every one of
/// those candidates too (it stops only at its `pairs`-th acceptance), in
/// the same order, and accept the same ones. Then one transform loop
/// turns each accepted `(u, v, s)` into `(u·f, v·f)` with
/// `f = √(−2·ln s / s)`, the logarithms taken by
/// [`rfid_types::simd::ln_into`] (bit for bit `f64::ln`). Samples and the
/// generator's end state are bit-identical to the per-pair loop (pinned
/// by the tests below for `StdRng` and the counter streams) for every
/// generator whose `fill_bytes` writes successive `next_u64` outputs
/// little-endian, as this workspace's generators do. For
/// [`CounterRng`](rfid_types::CounterRng) both the words and the
/// candidates come eight lanes at a time.
pub(crate) fn for_each_standard_normal_pair<R, F>(rng: &mut R, pairs: usize, mut emit: F)
where
    R: Rng + ?Sized,
    F: FnMut(usize, f64, f64),
{
    let mut words = [0u8; 16 * POLAR_BLOCK];
    let mut us = [0.0f64; POLAR_BLOCK];
    let mut vs = [0.0f64; POLAR_BLOCK];
    let mut ss = [0.0f64; POLAR_BLOCK];
    let mut scales = [0.0f64; POLAR_BLOCK];
    let mut done = 0;
    while done < pairs {
        let words = &mut words[..16 * (pairs - done).min(POLAR_BLOCK)];
        rng.fill_bytes(words);
        let accepted = simd::polar_candidates(words, &mut us, &mut vs, &mut ss);
        let (ss, scales) = (&ss[..accepted], &mut scales[..accepted]);
        simd::ln_into(ss, scales);
        // f = √(−2·ln s / s) in place, in a loop of its own so the
        // divisions and square roots run in vector lanes (both are
        // correctly rounded, so lanes change no bit).
        for (f, &s) in scales.iter_mut().zip(ss) {
            *f = (-2.0 * *f / s).sqrt();
        }
        for (j, ((&u, &v), &f)) in us.iter().zip(&vs).zip(scales.iter()).enumerate() {
            emit(done + j, u * f, v * f);
        }
        done += accepted;
    }
}

/// Batched normal fill: writes one standard-normal variate per element of
/// `out`, consuming one polar transform per pair of elements (the second
/// variate lands in the pair's second element instead of being
/// discarded). An odd tail costs one extra transform.
pub fn fill_standard_normal_into<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
    for_each_standard_normal_pair(rng, out.len().div_ceil(2), |i, z0, z1| {
        out[2 * i] = z0;
        if let Some(last) = out.get_mut(2 * i + 1) {
            *last = z1;
        }
    });
}

/// The realized channel of one tag transmission: amplitude gain, phase
/// rotation (`h` and `γ` of §II-B), and residual carrier frequency offset.
///
/// In the RFID setting the tags are synchronized by the reader's signal
/// (§II-B: "transmissions in a RFID system can be synchronized by the
/// reader's signal"), so `freq_offset` defaults to zero — this is exactly
/// what makes the RFID collision-resolution problem *simpler* than Katti's
/// Alice-Bob case. A nonzero offset models free-running transmitter
/// oscillators, under which the relative phase of two components sweeps and
/// the paper's energy equations become accurate per-slot.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ChannelParams {
    /// Amplitude attenuation `h > 0`.
    pub attenuation: f64,
    /// Phase shift `γ` in radians.
    pub phase: f64,
    /// Residual carrier frequency offset in radians per sample.
    pub freq_offset: f64,
}

impl ChannelParams {
    /// The identity channel (no attenuation, no rotation, no offset).
    #[must_use]
    pub fn identity() -> Self {
        ChannelParams {
            attenuation: 1.0,
            phase: 0.0,
            freq_offset: 0.0,
        }
    }

    /// The complex gain `h·e^{iγ}` this channel multiplies onto the signal
    /// at sample 0.
    #[must_use]
    pub fn gain(&self) -> Complex {
        Complex::from_polar(self.attenuation, self.phase)
    }

    /// Applies this channel to a waveform (no noise): sample `n` is
    /// multiplied by `h·e^{i(γ + n·freq_offset)}`.
    #[must_use]
    pub fn apply(&self, samples: &[Complex]) -> Vec<Complex> {
        let mut out = samples.to_vec();
        self.apply_in_place(&mut out);
        out
    }

    /// In-place [`ChannelParams::apply`]: bit-identical samples, no
    /// allocation.
    pub fn apply_in_place(&self, samples: &mut [Complex]) {
        if self.freq_offset == 0.0 {
            let g = self.gain();
            for s in samples.iter_mut() {
                *s *= g;
            }
        } else {
            for (n, s) in samples.iter_mut().enumerate() {
                *s *=
                    Complex::from_polar(self.attenuation, self.phase + n as f64 * self.freq_offset);
            }
        }
    }
}

/// Statistical model from which per-transmission [`ChannelParams`] and
/// receiver noise are drawn.
///
/// Defaults: attenuation uniform in `[0.5, 1.0]` (tags at varying range,
/// none vanishing), phase uniform in `[0, 2π)`, and a noise standard
/// deviation of `0.01` per real dimension — ≈ 37 dB SNR for a unit-power
/// component, comfortably inside MSK's working region so that the paper's
/// "2-collision slots are resolvable" holds by default. The `ablation-snr`
/// experiment sweeps `noise_std` to find where it stops holding.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ChannelModel {
    attenuation_range: (f64, f64),
    noise_std: f64,
    max_freq_offset: f64,
}

impl ChannelModel {
    /// Creates a model with attenuation drawn uniformly from
    /// `attenuation_range` and AWGN of standard deviation `noise_std` per
    /// real dimension. Frequency offset defaults to zero (reader-
    /// synchronized tags); see [`ChannelModel::with_max_freq_offset`].
    ///
    /// # Panics
    ///
    /// Panics if the range is empty/non-positive or `noise_std < 0`.
    #[must_use]
    pub fn new(attenuation_range: (f64, f64), noise_std: f64) -> Self {
        let (lo, hi) = attenuation_range;
        assert!(
            lo > 0.0 && hi >= lo && hi.is_finite(),
            "attenuation range must satisfy 0 < lo <= hi"
        );
        assert!(
            noise_std >= 0.0 && noise_std.is_finite(),
            "noise_std must be >= 0"
        );
        ChannelModel {
            attenuation_range,
            noise_std,
            max_freq_offset: 0.0,
        }
    }

    /// Returns this model drawing per-transmission frequency offsets
    /// uniformly from `[-max, +max]` radians per sample.
    ///
    /// # Panics
    ///
    /// Panics if `max` is negative or non-finite.
    #[must_use]
    pub fn with_max_freq_offset(mut self, max: f64) -> Self {
        assert!(
            max >= 0.0 && max.is_finite(),
            "max_freq_offset must be >= 0"
        );
        self.max_freq_offset = max;
        self
    }

    /// A noiseless variant of this model (for exactness tests).
    #[must_use]
    pub fn noiseless(mut self) -> Self {
        self.noise_std = 0.0;
        self
    }

    /// Returns this model with a different noise standard deviation.
    #[must_use]
    pub fn with_noise_std(mut self, noise_std: f64) -> Self {
        assert!(noise_std >= 0.0 && noise_std.is_finite());
        self.noise_std = noise_std;
        self
    }

    /// Noise standard deviation per real dimension.
    #[must_use]
    pub fn noise_std(&self) -> f64 {
        self.noise_std
    }

    /// Attenuation range.
    #[must_use]
    pub fn attenuation_range(&self) -> (f64, f64) {
        self.attenuation_range
    }

    /// Maximum per-transmission frequency offset magnitude (rad/sample).
    #[must_use]
    pub fn max_freq_offset(&self) -> f64 {
        self.max_freq_offset
    }

    /// Draws channel parameters for one tag transmission.
    #[must_use]
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> ChannelParams {
        let (lo, hi) = self.attenuation_range;
        let attenuation = if hi > lo { rng.gen_range(lo..hi) } else { lo };
        let freq_offset = if self.max_freq_offset > 0.0 {
            rng.gen_range(-self.max_freq_offset..self.max_freq_offset)
        } else {
            0.0
        };
        ChannelParams {
            attenuation,
            phase: rng.gen_range(0.0..(2.0 * PI)),
            freq_offset,
        }
    }

    /// Adds receiver noise in place: one normal pair per complex sample
    /// (`re ← z0`, `im ← z1`), so a span of `n` samples costs `n` transforms
    /// instead of `2n` single-variate draws.
    pub fn add_noise<R: Rng + ?Sized>(&self, samples: &mut [Complex], rng: &mut R) {
        if self.noise_std == 0.0 {
            return;
        }
        let std = self.noise_std;
        for_each_standard_normal_pair(rng, samples.len(), |i, re, im| {
            samples[i] += Complex::new(std * re, std * im);
        });
    }

    /// The mean per-sample SNR (in dB) of a single component of amplitude
    /// `a` under this model's noise. Noise power per complex sample is
    /// `2·noise_std²`.
    #[must_use]
    pub fn snr_db(&self, amplitude: f64) -> f64 {
        if self.noise_std == 0.0 {
            return f64::INFINITY;
        }
        let signal = amplitude * amplitude;
        let noise = 2.0 * self.noise_std * self.noise_std;
        10.0 * (signal / noise).log10()
    }
}

impl Default for ChannelModel {
    fn default() -> Self {
        ChannelModel::new((0.5, 1.0), 0.01)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn identity_preserves_signal() {
        let samples = vec![Complex::new(1.0, 2.0), Complex::new(-0.5, 0.25)];
        assert_eq!(ChannelParams::identity().apply(&samples), samples);
    }

    #[test]
    fn gain_magnitude_matches_attenuation() {
        let p = ChannelParams {
            attenuation: 0.7,
            phase: 1.1,
            freq_offset: 0.0,
        };
        assert!((p.gain().norm() - 0.7).abs() < 1e-12);
        assert!((p.gain().arg() - 1.1).abs() < 1e-12);
    }

    #[test]
    fn freq_offset_rotates_progressively() {
        let p = ChannelParams {
            attenuation: 1.0,
            phase: 0.0,
            freq_offset: 0.1,
        };
        let out = p.apply(&[Complex::ONE; 4]);
        for (n, s) in out.iter().enumerate() {
            assert!((s.arg() - 0.1 * n as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn model_draws_offset_within_bound() {
        let model = ChannelModel::new((0.5, 1.0), 0.0).with_max_freq_offset(0.02);
        let mut rng = StdRng::seed_from_u64(8);
        let mut saw_nonzero = false;
        for _ in 0..200 {
            let p = model.draw(&mut rng);
            assert!(p.freq_offset.abs() <= 0.02);
            saw_nonzero |= p.freq_offset != 0.0;
        }
        assert!(saw_nonzero);
        // Default model draws zero offset (reader-synchronized tags).
        assert_eq!(ChannelModel::default().draw(&mut rng).freq_offset, 0.0);
    }

    #[test]
    fn draw_within_range() {
        let model = ChannelModel::new((0.25, 0.75), 0.0);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            let p = model.draw(&mut rng);
            assert!(p.attenuation >= 0.25 && p.attenuation < 0.75);
            assert!(p.phase >= 0.0 && p.phase < 2.0 * PI);
        }
    }

    #[test]
    fn degenerate_range_allowed() {
        let model = ChannelModel::new((0.5, 0.5), 0.0);
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(model.draw(&mut rng).attenuation, 0.5);
    }

    #[test]
    fn noiseless_adds_nothing() {
        let model = ChannelModel::default().noiseless();
        let mut samples = vec![Complex::ONE; 16];
        let mut rng = StdRng::seed_from_u64(1);
        model.add_noise(&mut samples, &mut rng);
        assert!(samples.iter().all(|s| (*s - Complex::ONE).norm() == 0.0));
    }

    #[test]
    fn noise_statistics() {
        let model = ChannelModel::default().with_noise_std(0.5);
        let mut samples = vec![Complex::ZERO; 40_000];
        let mut rng = StdRng::seed_from_u64(2);
        model.add_noise(&mut samples, &mut rng);
        let power = crate::complex::mean_power(&samples);
        // E|n|² = 2σ² = 0.5
        assert!((power - 0.5).abs() < 0.02, "noise power {power}");
        let mean: Complex = samples
            .iter()
            .copied()
            .sum::<Complex>()
            .scale(1.0 / 40_000.0);
        assert!(mean.norm() < 0.01, "noise mean {mean:?}");
    }

    #[test]
    fn snr_formula() {
        let model = ChannelModel::default().with_noise_std(0.1);
        // signal 1, noise 0.02 → 16.99 dB
        assert!((model.snr_db(1.0) - 16.9897).abs() < 1e-3);
        assert_eq!(
            ChannelModel::default().noiseless().snr_db(1.0),
            f64::INFINITY
        );
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 60_000;
        let draws: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn pair_halves_are_uncorrelated_unit_normals() {
        // The polar transform's two halves are exactly independent N(0,1);
        // pin the sample moments and the cross-correlation of (z0, z1).
        let mut rng = StdRng::seed_from_u64(11);
        let n = 60_000;
        let pairs: Vec<(f64, f64)> = (0..n).map(|_| standard_normal_pair(&mut rng)).collect();
        for pick in [0usize, 1] {
            let xs: Vec<f64> = pairs
                .iter()
                .map(|&(a, b)| if pick == 0 { a } else { b })
                .collect();
            let mean = xs.iter().sum::<f64>() / n as f64;
            let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
            assert!(mean.abs() < 0.02, "half {pick} mean {mean}");
            assert!((var - 1.0).abs() < 0.03, "half {pick} var {var}");
        }
        let cross = pairs.iter().map(|&(a, b)| a * b).sum::<f64>() / n as f64;
        assert!(cross.abs() < 0.02, "pair cross-correlation {cross}");
    }

    #[test]
    fn fill_kernel_matches_pair_sequence_and_handles_odd_tails() {
        // The fill kernel is the pair generator laid out flat: same draws,
        // same values, and an odd tail takes the cosine half of one extra
        // transform, leaving the generator where the pair loop leaves it.
        for len in [0usize, 1, 2, 7, 64, 255, 256, 257, 769] {
            let mut filled = vec![0.0f64; len];
            let mut fill_rng = StdRng::seed_from_u64(17);
            fill_standard_normal_into(&mut fill_rng, &mut filled);
            let mut rng = StdRng::seed_from_u64(17);
            let mut expect = Vec::with_capacity(len);
            while expect.len() + 2 <= len {
                let (z0, z1) = standard_normal_pair(&mut rng);
                expect.push(z0);
                expect.push(z1);
            }
            if expect.len() < len {
                expect.push(standard_normal_pair(&mut rng).0);
            }
            assert_eq!(filled, expect, "len {len}");
            assert_eq!(fill_rng.next_u64(), rng.next_u64(), "len {len}");
        }
    }

    /// The per-pair reference the block helper replaces: `pairs` calls of
    /// [`standard_normal_pair`], then the generator's next output.
    fn per_pair_loop<R: Rng>(mut rng: R, pairs: usize) -> (Vec<(f64, f64)>, u64) {
        let drawn = (0..pairs).map(|_| standard_normal_pair(&mut rng)).collect();
        (drawn, rng.next_u64())
    }

    fn block_helper<R: Rng>(mut rng: R, pairs: usize) -> (Vec<(f64, f64)>, u64) {
        let mut drawn = Vec::new();
        for_each_standard_normal_pair(&mut rng, pairs, |i, z0, z1| {
            assert_eq!(i, drawn.len(), "pairs are emitted in order");
            drawn.push((z0, z1));
        });
        (drawn, rng.next_u64())
    }

    #[test]
    fn block_polar_matches_per_pair_loop_and_rng_end_state() {
        // Same samples to the bit and the same next draw afterwards, for
        // lengths 0–17, around the 128-candidate block edge, a whole-ID
        // waveform and 5 000 pairs, on the sequential generator and on
        // thousands of counter streams (the eight-lane kernels' path).
        let mut lengths: Vec<usize> = (0..=17).collect();
        lengths.extend([127, 128, 129, 769, 5_000]);
        for &len in &lengths {
            for seed in [0u64, 5, 0xDEAD_BEEF] {
                assert_eq!(
                    block_helper(StdRng::seed_from_u64(seed), len),
                    per_pair_loop(StdRng::seed_from_u64(seed), len),
                    "StdRng seed {seed} len {len}"
                );
            }
            let streams = if len <= 129 { 2_000 } else { 200 };
            for record in 0..streams {
                let stream = rfid_sim::noise_stream_seed(7, record, 3);
                assert_eq!(
                    block_helper(rfid_sim::CounterRng::new(stream), len),
                    per_pair_loop(rfid_sim::CounterRng::new(stream), len),
                    "CounterRng record {record} len {len}"
                );
            }
        }
    }

    #[test]
    fn add_noise_matches_per_pair_loop() {
        let model = ChannelModel::default().with_noise_std(0.3);
        for len in [0usize, 1, 129, 769] {
            let clean: Vec<Complex> = (0..len)
                .map(|i| Complex::new(i as f64 * 0.01, -(i as f64) * 0.02))
                .collect();
            let mut noisy = clean.clone();
            let mut rng = rfid_sim::CounterRng::new(41);
            model.add_noise(&mut noisy, &mut rng);
            let mut reference = rfid_sim::CounterRng::new(41);
            let expect: Vec<Complex> = clean
                .iter()
                .map(|&s| {
                    let (re, im) = standard_normal_pair(&mut reference);
                    s + Complex::new(0.3 * re, 0.3 * im)
                })
                .collect();
            assert_eq!(noisy, expect, "len {len}");
            assert_eq!(rng.next_u64(), reference.next_u64(), "len {len}");
        }
    }

    /// Abramowitz & Stegun 7.1.26 erf approximation (max abs error 1.5e-7);
    /// good enough to bound a KS statistic at the 1e-2 scale.
    fn normal_cdf(x: f64) -> f64 {
        let t = 1.0 / (1.0 + 0.3275911 * x.abs() / std::f64::consts::SQRT_2);
        let poly = t
            * (0.254829592
                + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
        let erf = 1.0 - poly * (-x * x / 2.0).exp();
        if x >= 0.0 {
            0.5 * (1.0 + erf)
        } else {
            0.5 * (1.0 - erf)
        }
    }

    #[test]
    fn fill_kernel_passes_ks_style_normality_check() {
        // KS distance of the empirical CDF against Φ. The 99% critical
        // value at n=20_000 is 1.63/√n ≈ 0.0115; the fixed seed keeps this
        // deterministic, and the bound fails loudly for e.g. a var-0.9 or
        // mean-0.05 stream.
        let n = 20_000;
        let mut draws = vec![0.0f64; n];
        fill_standard_normal_into(&mut StdRng::seed_from_u64(23), &mut draws);
        draws.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut d_max = 0.0f64;
        for (i, x) in draws.iter().enumerate() {
            let phi = normal_cdf(*x);
            let lo = i as f64 / n as f64;
            let hi = (i + 1) as f64 / n as f64;
            d_max = d_max.max((phi - lo).abs()).max((hi - phi).abs());
        }
        assert!(d_max < 0.0115, "KS distance {d_max}");
        // 1σ/2σ/3σ coverage as a cheap cross-check on the same sample.
        for (k, expect, tol) in [
            (1.0, 0.6827, 0.01),
            (2.0, 0.9545, 0.006),
            (3.0, 0.9973, 0.003),
        ] {
            let frac = draws.iter().filter(|x| x.abs() < k).count() as f64 / n as f64;
            assert!((frac - expect).abs() < tol, "{k}σ coverage {frac}");
        }
    }

    #[test]
    #[should_panic(expected = "attenuation range")]
    fn bad_range_panics() {
        let _ = ChannelModel::new((0.0, 1.0), 0.0);
    }
}
