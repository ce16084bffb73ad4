//! Minimum Shift Keying modulation and demodulation (§II-B).
//!
//! > "In MSK, a bit '1' is represented as a phase difference of π/2 over a
//! > time interval t, whereas a bit '0' is represented as a phase difference
//! > of −π/2 over t."
//!
//! The modulator produces complex baseband samples `A·e^{iθ[n]}` whose phase
//! ramps linearly by `±π/2` per bit interval (continuous-phase, constant
//! envelope — exactly the property the energy equations of the ANC paper
//! rely on). The demodulator recovers each bit from the sign of the phase
//! difference accumulated across its interval.
//!
//! Sampling convention: a transmission of `B` bits is represented by
//! `B·samples_per_bit + 1` samples — sample `k·samples_per_bit` sits on the
//! boundary *before* bit `k`, so each bit's phase step is measured between
//! two boundary samples shared with its neighbours.

use crate::complex::Complex;
use std::f64::consts::FRAC_PI_2;

/// Configuration of the MSK baseband representation.
///
/// # Example
///
/// ```
/// use rfid_signal::{MskConfig, MskModulator, MskDemodulator};
///
/// let cfg = MskConfig::default();
/// let bits = vec![true, false, true, true, false];
/// let wave = MskModulator::new(cfg.clone()).modulate(&bits, 1.0, 0.0);
/// let decoded = MskDemodulator::new(cfg).demodulate(&wave);
/// assert_eq!(decoded, bits);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MskConfig {
    samples_per_bit: u32,
}

impl MskConfig {
    /// Creates a configuration with the given oversampling factor.
    ///
    /// # Panics
    ///
    /// Panics if `samples_per_bit == 0`.
    #[must_use]
    pub fn new(samples_per_bit: u32) -> Self {
        assert!(samples_per_bit > 0, "samples_per_bit must be positive");
        MskConfig { samples_per_bit }
    }

    /// Samples per bit interval.
    #[must_use]
    pub fn samples_per_bit(&self) -> u32 {
        self.samples_per_bit
    }

    /// Number of samples representing a transmission of `bits` bits
    /// (includes the shared leading boundary sample).
    #[must_use]
    pub fn samples_for_bits(&self, bits: usize) -> usize {
        bits * self.samples_per_bit as usize + 1
    }

    /// Number of bits represented by a waveform of `samples` samples, or
    /// `None` if the length is not of the form `B·spb + 1`.
    #[must_use]
    pub fn bits_for_samples(&self, samples: usize) -> Option<usize> {
        let spb = self.samples_per_bit as usize;
        if samples == 0 || !(samples - 1).is_multiple_of(spb) {
            return None;
        }
        Some((samples - 1) / spb)
    }
}

impl Default for MskConfig {
    /// Eight samples per bit — enough oversampling for the energy-equation
    /// window statistics while keeping 96-bit IDs at 769 samples.
    fn default() -> Self {
        MskConfig::new(8)
    }
}

/// MSK modulator: bit vector → complex baseband waveform.
///
/// MSK phases live on a fixed lattice: every sample's phase is
/// `θ0 + k·(π/2)/spb` for an integer lattice index `k`, and the lattice is
/// periodic with period `4·spb` (one full 2π turn). The modulator therefore
/// precomputes the `4·spb` unit rotations once and synthesizes each sample
/// as `A·e^{iθ0} · table[k mod 4·spb]` — one complex multiply instead of a
/// `sin_cos` call per sample, which removes the dominant libm cost of
/// waveform synthesis.
#[derive(Debug, Clone)]
pub struct MskModulator {
    config: MskConfig,
    /// `table[j] = e^{i·j·(π/2)/spb}` for `j ∈ [0, 4·spb)`.
    table: Vec<Complex>,
}

impl MskModulator {
    /// Creates a modulator for the given configuration.
    #[must_use]
    pub fn new(config: MskConfig) -> Self {
        let spb = config.samples_per_bit as usize;
        let step = FRAC_PI_2 / spb as f64;
        let table = (0..4 * spb)
            .map(|j| Complex::from_polar(1.0, j as f64 * step))
            .collect();
        MskModulator { config, table }
    }

    /// Modulates `bits` into `bits.len()·spb + 1` samples of amplitude
    /// `amplitude`, starting from initial phase `theta0`.
    ///
    /// A constant phase offset (the channel's rotation) commutes with MSK's
    /// phase ramps: `modulate(bits, a, θ0) == modulate(bits, a, 0) · e^{iθ0}`.
    /// The ANC resolver exploits this to fold the unknown channel rotation
    /// into a single complex gain per component.
    #[must_use]
    pub fn modulate(&self, bits: &[bool], amplitude: f64, theta0: f64) -> Vec<Complex> {
        let mut samples = Vec::new();
        self.modulate_into(bits, amplitude, theta0, &mut samples);
        samples
    }

    /// Allocation-free [`MskModulator::modulate`]: clears `out` and fills
    /// it with the waveform, reusing its capacity. Produces bit-identical
    /// samples (same arithmetic, same order).
    pub fn modulate_into(
        &self,
        bits: &[bool],
        amplitude: f64,
        theta0: f64,
        out: &mut Vec<Complex>,
    ) {
        out.clear();
        out.resize(self.config.samples_for_bits(bits.len()), Complex::ZERO);
        self.modulate_to_slice(bits, amplitude, theta0, out);
    }

    /// [`MskModulator::modulate_into`] onto a pre-sized slice — the form
    /// the reference cache uses to modulate directly into one of its
    /// spans. Performs the identical phase recurrence and `from_polar`
    /// calls, so samples are bit-identical to the `Vec` variants.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != samples_for_bits(bits.len())`.
    pub fn modulate_to_slice(
        &self,
        bits: &[bool],
        amplitude: f64,
        theta0: f64,
        out: &mut [Complex],
    ) {
        self.synthesize::<false, true>(bits, amplitude, theta0, out);
    }

    /// Writes the waveform into `out` and, when `SELF_INNER`, returns
    /// `inner_product(out, out)` accumulated in the same pass (same terms,
    /// same order, so the same bits); otherwise returns zero.
    ///
    /// `ROTATE = false` is the unit-rotor form for `amplitude = 1`,
    /// `theta0 = 0`: the base rotor is then exactly `1 + 0i`, and
    /// `(1 + 0i)·table[k]` is `table[k]` bit for bit (no table entry has a
    /// negative zero, pinned by a test), so the samples are copied from
    /// the table instead of multiplied.
    fn synthesize<const SELF_INNER: bool, const ROTATE: bool>(
        &self,
        bits: &[bool],
        amplitude: f64,
        theta0: f64,
        out: &mut [Complex],
    ) -> Complex {
        let spb = self.config.samples_per_bit as usize;
        let period = 4 * spb;
        assert_eq!(
            out.len(),
            self.config.samples_for_bits(bits.len()),
            "modulate_to_slice needs an exactly-sized span"
        );
        // One transcendental evaluation per waveform: the base rotor
        // carries amplitude and initial phase; every sample is then a
        // table lookup on the (periodic) phase lattice.
        let base = Complex::from_polar(amplitude, theta0);
        let last = period - 1;
        let mut k = 0usize;
        let mut self_inner = Complex::ZERO;
        out[0] = base;
        if SELF_INNER {
            self_inner += base * base.conj();
        }
        for (&bit, span) in bits.iter().zip(out[1..].chunks_exact_mut(spb)) {
            for s in span {
                // Compare-and-wrap: the lattice index `(k ± 1) mod period`
                // without a hardware divide per sample.
                k = match (bit, k) {
                    (true, k) if k == last => 0,
                    (true, k) => k + 1,
                    (false, 0) => last,
                    (false, k) => k - 1,
                };
                *s = if ROTATE {
                    base * self.table[k]
                } else {
                    self.table[k]
                };
                if SELF_INNER {
                    self_inner += *s * s.conj();
                }
            }
        }
        self_inner
    }

    /// The reference (unit-amplitude, zero-phase) waveform for `bits`, used
    /// as the regression basis by the ANC least-squares fit.
    #[must_use]
    pub fn reference(&self, bits: &[bool]) -> Vec<Complex> {
        self.modulate(bits, 1.0, 0.0)
    }

    /// Allocation-free [`MskModulator::reference`].
    pub fn reference_into(&self, bits: &[bool], out: &mut Vec<Complex>) {
        self.modulate_into(bits, 1.0, 0.0, out);
    }

    /// [`MskModulator::reference`] onto a pre-sized slice (see
    /// [`MskModulator::modulate_to_slice`]).
    pub fn reference_to_slice(&self, bits: &[bool], out: &mut [Complex]) {
        self.synthesize::<false, false>(bits, 1.0, 0.0, out);
    }

    /// [`MskModulator::reference_to_slice`] that also returns the
    /// reference's self inner product, bit-identical to
    /// `inner_product(out, out)` but accumulated while the samples are
    /// written — the Gram-matrix diagonal the reference cache keeps.
    pub(crate) fn reference_to_slice_with_self_inner(
        &self,
        bits: &[bool],
        out: &mut [Complex],
    ) -> Complex {
        self.synthesize::<true, false>(bits, 1.0, 0.0, out)
    }
}

/// `z.arg() > 0.0`, decided from the signs of `z` whenever they settle it.
///
/// `atan2(im, re)` is positive exactly when `im > 0`, except where the
/// quotient `im/re` is so small that the angle rounds to zero: `re = +∞`
/// (`atan2(1, +∞) = +0`) or an underflowing ratio. So `im < 0` is a 0,
/// `im > 0` with `re ≤ 0` is a 1 (the angle lies in `[π/2, π]`), and
/// `im > 0` with `re > 0` is a 1 when `im ≥ re·ε`, where the angle is at
/// least about `ε` and cannot round to zero. `re = +∞` makes `re·ε`
/// infinite, so only `im = +∞` passes there (`atan2(∞, ∞) = π/4`); a NaN
/// fails every comparison. Everything else — signed zeros, NaN,
/// `re = +∞` under a finite `im`, a vanishing ratio — asks `atan2`, so
/// the decision is bit-for-bit the `arg` rule it replaces (pinned by the
/// special-value and random-bit-pattern tests below).
#[inline]
fn phase_step_is_positive(z: Complex) -> bool {
    let one = (z.im > 0.0) & ((z.re <= 0.0) | (z.im >= z.re * f64::EPSILON));
    if one | (z.im < 0.0) {
        one
    } else {
        z.arg() > 0.0
    }
}

/// MSK demodulator: complex baseband waveform → bit vector.
#[derive(Debug, Clone)]
pub struct MskDemodulator {
    config: MskConfig,
}

impl MskDemodulator {
    /// Creates a demodulator for the given configuration.
    #[must_use]
    pub fn new(config: MskConfig) -> Self {
        MskDemodulator { config }
    }

    /// Demodulates as many whole bits as the waveform contains.
    ///
    /// Each bit is decided by the sign of the phase rotation between its two
    /// boundary samples, `arg(y[(k+1)·spb] · conj(y[k·spb]))`: positive → 1,
    /// negative → 0. This matches the paper's description of decoding
    /// "phase differences ... translated into the bit stream" and is robust
    /// to any constant phase offset and amplitude scaling.
    #[must_use]
    pub fn demodulate(&self, samples: &[Complex]) -> Vec<bool> {
        let mut bits = Vec::new();
        self.demodulate_into(samples, &mut bits);
        bits
    }

    /// Allocation-free [`MskDemodulator::demodulate`]: clears `out` and
    /// fills it with the decoded bits, reusing its capacity. Same decision
    /// statistic per bit, so the output is identical.
    pub fn demodulate_into(&self, samples: &[Complex], out: &mut Vec<bool>) {
        let spb = self.config.samples_per_bit as usize;
        out.clear();
        if samples.len() <= spb {
            return;
        }
        let nbits = (samples.len() - 1) / spb;
        out.reserve(nbits);
        for k in 0..nbits {
            let a = samples[k * spb];
            let b = samples[(k + 1) * spb];
            out.push(phase_step_is_positive(b * a.conj()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_rotor_references_copy_the_table_bit_for_bit() {
        // The copy path must equal `(1 + 0i)·table[k]` exactly: no table
        // entry may carry a signed zero the multiply would flip.
        for spb in [1u32, 2, 3, 4, 8, 16] {
            let m = MskModulator::new(MskConfig::new(spb));
            let one = Complex::from_polar(1.0, 0.0);
            for &t in &m.table {
                let z = one * t;
                assert_eq!(
                    (z.re.to_bits(), z.im.to_bits()),
                    (t.re.to_bits(), t.im.to_bits())
                );
            }
            for payload in [0u128, 1, 0xDEAD_BEEF, u128::MAX >> 32] {
                let mut bits = Vec::new();
                rfid_types::TagId::from_payload(payload).write_bits(&mut bits);
                let len = m.config.samples_for_bits(bits.len());
                let (mut copied, mut rotated) =
                    (vec![Complex::ZERO; len], vec![Complex::ZERO; len]);
                let inner = m.reference_to_slice_with_self_inner(&bits, &mut copied);
                let want = m.synthesize::<true, true>(&bits, 1.0, 0.0, &mut rotated);
                let bits_of = |v: &[Complex]| {
                    v.iter()
                        .map(|z| (z.re.to_bits(), z.im.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits_of(&copied), bits_of(&rotated), "spb {spb}");
                assert_eq!(bits_of(&[inner]), bits_of(&[want]), "spb {spb}");
                let mut plain = vec![Complex::ZERO; len];
                m.reference_to_slice(&bits, &mut plain);
                assert_eq!(bits_of(&plain), bits_of(&rotated), "spb {spb}");
            }
        }
    }
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn roundtrip(bits: &[bool], amplitude: f64, theta0: f64) -> Vec<bool> {
        let cfg = MskConfig::default();
        let wave = MskModulator::new(cfg.clone()).modulate(bits, amplitude, theta0);
        MskDemodulator::new(cfg).demodulate(&wave)
    }

    #[test]
    fn simple_roundtrip() {
        let bits = vec![true, true, false, true, false, false, true];
        assert_eq!(roundtrip(&bits, 1.0, 0.0), bits);
    }

    #[test]
    fn roundtrip_with_phase_and_amplitude() {
        let bits = vec![false, true, false, false, true, true];
        assert_eq!(roundtrip(&bits, 0.37, 2.1), bits);
        assert_eq!(roundtrip(&bits, 10.0, -1.9), bits);
    }

    #[test]
    fn empty_bits_single_sample() {
        let cfg = MskConfig::default();
        let wave = MskModulator::new(cfg.clone()).modulate(&[], 1.0, 0.5);
        assert_eq!(wave.len(), 1);
        assert!(MskDemodulator::new(cfg).demodulate(&wave).is_empty());
    }

    #[test]
    fn constant_envelope() {
        let cfg = MskConfig::new(16);
        let bits: Vec<bool> = (0..40).map(|i| i % 3 == 0).collect();
        let wave = MskModulator::new(cfg).modulate(&bits, 2.5, 0.9);
        for s in &wave {
            assert!((s.norm() - 2.5).abs() < 1e-9);
        }
    }

    #[test]
    fn phase_offset_commutes() {
        // modulate(bits, a, θ0) == modulate(bits, a, 0) · e^{iθ0}
        let cfg = MskConfig::default();
        let bits = vec![true, false, false, true];
        let m = MskModulator::new(cfg);
        let rotated = m.modulate(&bits, 1.3, 0.7);
        let base = m.modulate(&bits, 1.3, 0.0);
        let phasor = Complex::cis(0.7);
        for (r, b) in rotated.iter().zip(base.iter()) {
            assert!((*r - *b * phasor).norm() < 1e-9);
        }
    }

    #[test]
    fn sample_count_formula() {
        let cfg = MskConfig::new(4);
        assert_eq!(cfg.samples_for_bits(0), 1);
        assert_eq!(cfg.samples_for_bits(96), 385);
        assert_eq!(cfg.bits_for_samples(385), Some(96));
        assert_eq!(cfg.bits_for_samples(384), None);
        assert_eq!(cfg.bits_for_samples(0), None);
    }

    #[test]
    fn short_waveform_yields_no_bits() {
        let cfg = MskConfig::new(8);
        let demod = MskDemodulator::new(cfg);
        assert!(demod.demodulate(&[Complex::ONE; 8]).is_empty());
        assert!(demod.demodulate(&[]).is_empty());
    }

    /// The `% period` phase stepping the compare-and-wrap loop replaced.
    fn modulate_with_modulo(
        m: &MskModulator,
        bits: &[bool],
        amplitude: f64,
        theta0: f64,
    ) -> Vec<Complex> {
        let spb = m.config.samples_per_bit as usize;
        let period = 4 * spb;
        let base = Complex::from_polar(amplitude, theta0);
        let mut out = vec![base];
        let mut k = 0usize;
        for &bit in bits {
            for _ in 0..spb {
                k = if bit {
                    (k + 1) % period
                } else {
                    (k + period - 1) % period
                };
                out.push(base * m.table[k]);
            }
        }
        out
    }

    #[test]
    fn compare_and_wrap_stepping_matches_modulo_form() {
        let mut rng = StdRng::seed_from_u64(77);
        for spb in [1u32, 2, 8] {
            let m = MskModulator::new(MskConfig::new(spb));
            for _ in 0..200 {
                let len = rng.gen_range(0..200usize);
                // Long runs of one bit value drive the index through both
                // wrap points, not just around its start.
                let bias = rng.gen::<f64>();
                let bits: Vec<bool> = (0..len).map(|_| rng.gen::<f64>() < bias).collect();
                let amplitude = rng.gen_range(0.01..10.0);
                let theta0 = rng.gen_range(-7.0..7.0);
                assert_eq!(
                    m.modulate(&bits, amplitude, theta0),
                    modulate_with_modulo(&m, &bits, amplitude, theta0),
                    "spb {spb} len {len}"
                );
                let mut reference = vec![Complex::ZERO; bits.len() * spb as usize + 1];
                let self_inner = m.reference_to_slice_with_self_inner(&bits, &mut reference);
                assert_eq!(reference, modulate_with_modulo(&m, &bits, 1.0, 0.0));
                assert_eq!(
                    self_inner,
                    crate::complex::inner_product(&reference, &reference)
                );
            }
        }
    }

    fn assert_decision_matches_arg(re: f64, im: f64) {
        let z = Complex::new(re, im);
        assert_eq!(
            phase_step_is_positive(z),
            z.arg() > 0.0,
            "decision differs from atan2 at ({re:e}, {im:e}) = ({:#x}, {:#x})",
            re.to_bits(),
            im.to_bits()
        );
    }

    #[test]
    fn sign_decision_matches_atan2_on_special_values() {
        let specials = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1), // smallest subnormal
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0, // mid-range subnormal
            -f64::MIN_POSITIVE / 3.0,
            f64::EPSILON,
            1.0,
            -1.0,
            1e-300,
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for &re in &specials {
            for &im in &specials {
                assert_decision_matches_arg(re, im);
            }
        }
        // The two cases a bare sign rule gets wrong: atan2(1, +inf) = +0,
        // and a ratio that underflows the angle to zero.
        assert!(!phase_step_is_positive(Complex::new(f64::INFINITY, 1.0)));
        assert!(!phase_step_is_positive(Complex::new(1e300, 1e-300)));
        assert_decision_matches_arg(f64::INFINITY, 1.0);
        assert_decision_matches_arg(1e300, 1e-300);
    }

    #[test]
    fn sign_decision_matches_atan2_on_random_bit_patterns() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        // Uniform bit patterns: every exponent, NaN payload and subnormal.
        for _ in 0..1_000_000 {
            assert_decision_matches_arg(f64::from_bits(rng.gen()), f64::from_bits(rng.gen()));
        }
        // Ratios straddling the `im ≥ re·ε` threshold, where the fast path
        // hands over to atan2.
        for _ in 0..200_000 {
            let re = f64::from_bits(rng.gen::<u64>() >> 1); // any non-negative
            let edge = re * f64::EPSILON;
            for im in [
                edge.next_down(),
                edge,
                edge.next_up(),
                edge * 0.5,
                edge * 2.0,
            ] {
                assert_decision_matches_arg(re, im);
            }
        }
    }

    #[test]
    #[should_panic(expected = "samples_per_bit must be positive")]
    fn zero_spb_panics() {
        let _ = MskConfig::new(0);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_any_bits(
            bits in proptest::collection::vec(any::<bool>(), 0..200),
            amplitude in 0.01f64..50.0,
            theta0 in -std::f64::consts::TAU..std::f64::consts::TAU,
        ) {
            prop_assert_eq!(roundtrip(&bits, amplitude, theta0), bits);
        }

        #[test]
        fn prop_roundtrip_survives_mild_noise(seed in any::<u64>()) {
            // SNR of ~20 dB must never flip a bit at spb=8.
            let mut rng = StdRng::seed_from_u64(seed);
            let bits: Vec<bool> = (0..96).map(|_| rng.gen()).collect();
            let cfg = MskConfig::default();
            let mut wave = MskModulator::new(cfg.clone()).modulate(&bits, 1.0, 0.3);
            let noise_std = 0.05;
            let mut noise = vec![0.0f64; wave.len() * 2];
            crate::channel::fill_standard_normal_into(&mut rng, &mut noise);
            for (s, z) in wave.iter_mut().zip(noise.chunks_exact(2)) {
                *s += Complex::new(noise_std * z[0], noise_std * z[1]);
            }
            prop_assert_eq!(MskDemodulator::new(cfg).demodulate(&wave), bits);
        }
    }
}
