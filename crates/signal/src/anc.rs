//! Analog-network-coding collision resolution (§II-B, §III-B, §IV-B).
//!
//! A `k`-collision slot leaves the reader with a *mixed signal*
//! `y[n] = Σ_j g_j · s_j[n] + noise`, where `s_j` is tag `j`'s MSK waveform
//! and `g_j = h_j·e^{iγ_j}` its unknown complex channel gain. Once the
//! reader knows `k−1` of the component IDs (from later singleton slots or
//! earlier resolutions), it:
//!
//! 1. rebuilds each known component's **reference waveform** from its ID
//!    bits (the transmission decision hash makes membership recomputable);
//! 2. jointly estimates the known components' complex gains by
//!    **least squares** against the recorded mixture — this generalizes the
//!    paper's observation that "because the same signal of t₁ appears in the
//!    two slots, it becomes easier to remove it from the mixed signal";
//! 3. subtracts the reconstructed components;
//! 4. MSK-demodulates the residual and checks the CRC (§IV-B: "extracts the
//!    CRC code. If the CRC code is verified to be correct, the collision
//!    record is resolved").
//!
//! The module also implements the paper's **energy equations** (§II-B,
//! after Hamkins \[21\]) for blind estimation of the two component amplitudes
//! of a 2-mixture:
//!
//! ```text
//! μ = E[|y[n]|²]                       = A² + B²
//! σ = (2/W)·Σ_{|y[n]|²>μ} |y[n]|²      = A² + B² + 4AB/π
//! ```

use crate::channel::ChannelModel;
use crate::complex::{mean_power, Complex};
use crate::linalg::{self, SolveError};
use crate::msk::{MskConfig, MskDemodulator, MskModulator};
use rand::Rng;
use rfid_types::TagId;
use std::fmt;

/// Errors from the ANC resolver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AncError {
    /// The mixture length does not correspond to a whole number of ID bits.
    BadLength {
        /// Sample count received.
        samples: usize,
    },
    /// The joint gain fit failed (duplicate known IDs, degenerate basis).
    GainFit(SolveError),
    /// Subtraction succeeded but the residual does not demodulate into a
    /// CRC-valid tag ID (too many unknown components, or channel noise).
    CrcMismatch,
    /// The residual carries (almost) no energy: every component of the
    /// mixture was already known, so there is no last ID to recover.
    EmptyResidual,
}

impl fmt::Display for AncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AncError::BadLength { samples } => {
                write!(f, "mixture of {samples} samples is not a whole ID")
            }
            AncError::GainFit(e) => write!(f, "gain estimation failed: {e}"),
            AncError::CrcMismatch => write!(f, "residual failed CRC verification"),
            AncError::EmptyResidual => write!(f, "residual carries no signal energy"),
        }
    }
}

impl std::error::Error for AncError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AncError::GainFit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolveError> for AncError {
    fn from(e: SolveError) -> Self {
        AncError::GainFit(e)
    }
}

/// Absolute power floor below which a reception counts as silence.
pub(crate) const EMPTY_RESIDUAL_POWER: f64 = 1e-6;

/// A residual is "empty" when its power drops below this fraction of the
/// original mixture's power — i.e. the subtraction explained essentially
/// everything, so there is no further component to decode. The relative
/// form keeps the check meaningful under receiver noise (whose power is
/// absolute, not proportional to the mixture).
pub(crate) const EMPTY_RESIDUAL_FRACTION: f64 = 2e-3;

/// Synthesizes the mixed signal a reader records during a `k`-collision
/// slot: each tag's ID is MSK-modulated, passed through an independently
/// drawn channel, summed, and receiver noise is added.
///
/// A single-element `tags` slice produces an ordinary singleton reception,
/// and an empty slice produces pure noise — useful for modelling the
/// reader's slot classification.
#[must_use]
pub fn transmit_mixed<R: Rng + ?Sized>(
    tags: &[TagId],
    cfg: &MskConfig,
    model: &ChannelModel,
    rng: &mut R,
) -> Vec<Complex> {
    let mut mixed = Vec::new();
    transmit_mixed_into(
        tags,
        cfg,
        model,
        rng,
        &mut MixScratch::default(),
        &mut mixed,
    );
    mixed
}

/// Reusable working memory for [`transmit_mixed_into`]: one tag's bit
/// vector and one channel-shaped component waveform.
#[derive(Debug, Default)]
pub struct MixScratch {
    bits: Vec<bool>,
    component: Vec<Complex>,
}

/// Allocation-free [`transmit_mixed`]: clears `mixed` and fills it with the
/// superposed reception, reusing its capacity and `scratch`'s.
///
/// Draws the same RNG sequence and performs the same float operations in
/// the same order as the allocating variant, so the two produce
/// bit-identical waveforms — the simulation engine's hot loop relies on
/// this for byte-identical reports.
pub fn transmit_mixed_into<R: Rng + ?Sized>(
    tags: &[TagId],
    cfg: &MskConfig,
    model: &ChannelModel,
    rng: &mut R,
    scratch: &mut MixScratch,
    mixed: &mut Vec<Complex>,
) {
    let modulator = MskModulator::new(cfg.clone());
    let len = cfg.samples_for_bits(rfid_types::TAG_ID_BITS as usize);
    mixed.clear();
    mixed.resize(len, Complex::ZERO);
    for &tag in tags {
        let params = model.draw(rng);
        tag.write_bits(&mut scratch.bits);
        modulator.reference_into(&scratch.bits, &mut scratch.component);
        params.apply_in_place(&mut scratch.component);
        for (acc, &s) in mixed.iter_mut().zip(scratch.component.iter()) {
            *acc += s;
        }
    }
    model.add_noise(mixed, rng);
}

/// Attempts to decode a reception as a singleton: demodulate and verify the
/// CRC. Returns `None` for empty, collided, or noise-corrupted slots.
#[must_use]
pub fn decode_singleton(samples: &[Complex], cfg: &MskConfig) -> Option<TagId> {
    decode_singleton_with_power(samples, mean_power(samples), cfg, &mut Vec::new())
}

/// Resolves a collision record: subtracts the waveforms of the `known` IDs
/// from `mixed` and decodes the remaining component.
///
/// This is line 10–18 of the paper's reader pseudocode: reconstruct known
/// signals, "remove known signals from the mixed signal", "extract ID′ from
/// the resulting signal", "if CRC in ID′ is verified to be correct" the
/// record is resolved.
///
/// # Errors
///
/// * [`AncError::BadLength`] — `mixed` is not a whole-ID waveform.
/// * [`AncError::GainFit`] — the joint least-squares fit is degenerate
///   (e.g. the same ID appears twice in `known`).
/// * [`AncError::EmptyResidual`] — all components were already known.
/// * [`AncError::CrcMismatch`] — more than one unknown component remains,
///   or noise defeated the demodulator. The caller treats this as "record
///   not yet resolvable" and retries after learning more IDs.
pub fn resolve(mixed: &[Complex], known: &[TagId], cfg: &MskConfig) -> Result<TagId, AncError> {
    if cfg.bits_for_samples(mixed.len()) != Some(rfid_types::TAG_ID_BITS as usize) {
        return Err(AncError::BadLength {
            samples: mixed.len(),
        });
    }

    let residual = subtract_known(mixed, known, cfg)?;
    let floor = (EMPTY_RESIDUAL_FRACTION * mean_power(mixed)).max(EMPTY_RESIDUAL_POWER);
    if mean_power(&residual) < floor {
        return Err(AncError::EmptyResidual);
    }
    decode_singleton(&residual, cfg).ok_or(AncError::CrcMismatch)
}

/// Subtracts the best least-squares reconstruction of the `known` IDs'
/// waveforms from `mixed`, returning the residual.
///
/// Exposed separately so callers can inspect residual energy (e.g. the SNR
/// ablation) without committing to a decode.
///
/// # Errors
///
/// Returns [`AncError::GainFit`] when the gain fit is degenerate.
pub fn subtract_known(
    mixed: &[Complex],
    known: &[TagId],
    cfg: &MskConfig,
) -> Result<Vec<Complex>, AncError> {
    if known.is_empty() {
        return Ok(mixed.to_vec());
    }
    let modulator = MskModulator::new(cfg.clone());
    let basis: Vec<Vec<Complex>> = known
        .iter()
        .map(|id| modulator.reference(&id.to_bits()))
        .collect();
    let gains = linalg::least_squares_gains(&basis, mixed)?;
    let mut residual = mixed.to_vec();
    for (wave, gain) in basis.iter().zip(gains) {
        for (r, &s) in residual.iter_mut().zip(wave.iter()) {
            *r -= s * gain;
        }
    }
    Ok(residual)
}

/// Upper bound on cached reference waveforms before the cache resets.
///
/// References are pure functions of the ID, so eviction can never change a
/// result — the bound only caps memory (32 × one whole-ID span ≈ 0.4 MiB
/// at the default 8 samples/bit) and keeps the cache itself in the CPU
/// caches. A larger bound buys almost nothing: each resolution attempt
/// needs the reference of its record's one unknown participant, which no
/// earlier call has cached, so most misses are inherent. Over 48
/// inventories of perfbench's `inventory-signal` workload (seed 1) the
/// record stores' caches missed 56 991 times at 32 entries, 55 809 at 256
/// and 55 671 at 1024.
const MAX_CACHED_REFERENCES: usize = 32;

/// A SoA store of reference waveforms keyed by [`TagId`]: one contiguous
/// sample buffer, fixed-length spans. A frontier of cascade resolutions
/// re-uses the same few known IDs across many records and hops; caching
/// their modulated references turns the per-attempt basis construction
/// into an index lookup.
#[derive(Debug)]
pub struct ReferenceCache {
    span: usize,
    modulator: MskModulator,
    ids: Vec<TagId>,
    data: Vec<Complex>,
    /// `inner_product(wave(i), wave(i))` per span: the Gram diagonal of
    /// every fit that uses reference `i`.
    self_inner: Vec<Complex>,
    bits: Vec<bool>,
}

impl ReferenceCache {
    /// Creates an empty cache of whole-ID reference spans for `cfg`.
    #[must_use]
    pub fn new(cfg: &MskConfig) -> Self {
        ReferenceCache {
            span: cfg.samples_for_bits(rfid_types::TAG_ID_BITS as usize),
            modulator: MskModulator::new(cfg.clone()),
            ids: Vec::new(),
            data: Vec::new(),
            self_inner: Vec::new(),
            bits: Vec::new(),
        }
    }

    /// Drops every cached reference, keeping capacity.
    fn clear(&mut self) {
        self.ids.clear();
        self.data.clear();
        self.self_inner.clear();
    }

    /// The span index of `id` if it is cached.
    fn index_of(&self, id: TagId) -> Option<usize> {
        self.ids.iter().position(|&k| k == id)
    }

    /// Returns the span index of `id`, modulating and inserting its
    /// reference on a miss (after resetting a full cache).
    pub fn ensure(&mut self, id: TagId) -> usize {
        if let Some(idx) = self.index_of(id) {
            return idx;
        }
        if self.ids.len() >= MAX_CACHED_REFERENCES {
            self.clear();
        }
        self.insert(id)
    }

    /// Modulates and appends the reference of an uncached `id`, returning
    /// its span index. Never evicts.
    fn insert(&mut self, id: TagId) -> usize {
        let idx = self.ids.len();
        self.ids.push(id);
        let start = idx * self.span;
        self.data.resize(start + self.span, Complex::ZERO);
        id.write_bits(&mut self.bits);
        let self_inner = self.modulator.reference_to_slice_with_self_inner(
            &self.bits,
            &mut self.data[start..start + self.span],
        );
        self.self_inner.push(self_inner);
        idx
    }

    /// [`Self::ensure`] for every ID of one resolution attempt, leaving all
    /// of them cached. The cache resets at most once, before the misses are
    /// inserted, when they would not fit under the bound; inserts never
    /// evict, so a call with more IDs than the bound leaves an over-full
    /// cache that the next miss resets.
    pub fn ensure_all(&mut self, ids: &[TagId]) {
        let misses = ids
            .iter()
            .filter(|&&id| self.index_of(id).is_none())
            .count();
        if misses > 0 && self.ids.len() + misses > MAX_CACHED_REFERENCES {
            self.clear();
        }
        for &id in ids {
            if self.index_of(id).is_none() {
                self.insert(id);
            }
        }
    }

    /// The cached reference waveform at span index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn wave(&self, idx: usize) -> &[Complex] {
        &self.data[idx * self.span..(idx + 1) * self.span]
    }

    /// `inner_product(wave(idx), wave(idx))`, computed once at insert.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub(crate) fn self_inner(&self, idx: usize) -> Complex {
        self.self_inner[idx]
    }
}

/// Reusable working memory for one ANC resolution attempt: the residual
/// buffer, gain fit scratch, demodulated bits, and (for cascaded hops) the
/// noise-degraded mixture copy. Reusing one instance keeps the whole
/// subtract→demodulate→CRC chain allocation-free in steady state.
#[derive(Debug, Default)]
pub struct ResolveScratch {
    pub(crate) refs: Vec<usize>,
    pub(crate) ls: linalg::LsScratch,
    pub(crate) gains: Vec<Complex>,
    pub(crate) residual: Vec<Complex>,
    pub(crate) bits: Vec<bool>,
    pub(crate) degraded: Vec<Complex>,
}

/// Allocation-free [`subtract_known`] against pre-cached references:
/// leaves the residual in `scratch.residual` (cleared first).
///
/// Every reference must already be in `cache` (see
/// [`ReferenceCache::ensure`]); the cache is only read. Performs the
/// identical gain fit and the identical per-element subtraction arithmetic
/// as [`subtract_known`], so the residual is bit-identical.
///
/// # Errors
///
/// Returns [`AncError::GainFit`] when the gain fit is degenerate.
///
/// # Panics
///
/// Panics if a `known` ID is missing from the cache.
pub(crate) fn subtract_known_prepared(
    samples: &[Complex],
    known: &[TagId],
    cache: &ReferenceCache,
    scratch: &mut ResolveScratch,
) -> Result<(), AncError> {
    let ResolveScratch {
        refs,
        ls,
        gains,
        residual,
        ..
    } = scratch;
    residual.clear();
    residual.extend_from_slice(samples);
    if known.is_empty() {
        return Ok(());
    }
    refs.clear();
    for &id in known {
        refs.push(
            cache
                .index_of(id)
                .expect("reference must be cached before subtract_known_prepared"),
        );
    }
    linalg::least_squares_gains_by(
        known.len(),
        |j| cache.wave(refs[j]),
        |j| cache.self_inner(refs[j]),
        samples,
        ls,
        gains,
    )?;
    for (j, &gain) in gains.iter().enumerate() {
        crate::kernels::sub_scaled(residual, cache.wave(refs[j]), gain);
    }
    Ok(())
}

/// [`transmit_mixed_into`] against a [`ReferenceCache`] and a pre-sized
/// output span — the form the signal-backed record store uses to
/// synthesize a collision mixture in place when the record is attempted.
///
/// Draws the same RNG sequence and computes every sample with the same
/// `f64` expression as [`transmit_mixed_into`] (the cached reference times
/// the channel gain is exactly the reference-modulate → channel-apply →
/// accumulate chain), so mixtures are bit-identical.
///
/// # Panics
///
/// Panics if `out.len()` is not the whole-ID sample count.
pub fn transmit_mixed_cached<R: Rng + ?Sized>(
    tags: &[TagId],
    cfg: &MskConfig,
    model: &ChannelModel,
    rng: &mut R,
    cache: &mut ReferenceCache,
    scratch: &mut MixScratch,
    out: &mut [Complex],
) {
    let len = cfg.samples_for_bits(rfid_types::TAG_ID_BITS as usize);
    assert_eq!(out.len(), len, "output span must be a whole-ID waveform");
    out.fill(Complex::ZERO);
    let mut offset_modulator = None;
    for &tag in tags {
        let params = model.draw(rng);
        if params.freq_offset == 0.0 {
            // Fused path: (reference · gain) accumulated directly — the
            // same per-element arithmetic as apply_in_place + accumulate.
            let idx = cache.ensure(tag);
            crate::kernels::accumulate_scaled(out, cache.wave(idx), params.gain());
        } else {
            // Frequency offsets rotate per sample; keep the shaped-copy
            // path of the uncached variant.
            let modulator = offset_modulator.get_or_insert_with(|| MskModulator::new(cfg.clone()));
            tag.write_bits(&mut scratch.bits);
            modulator.reference_into(&scratch.bits, &mut scratch.component);
            params.apply_in_place(&mut scratch.component);
            crate::kernels::accumulate(out, &scratch.component);
        }
    }
    model.add_noise(out, rng);
}

/// Allocation-free [`decode_singleton`] reusing a bit buffer, for a caller
/// that already holds `power == mean_power(samples)`.
pub fn decode_singleton_with_power(
    samples: &[Complex],
    power: f64,
    cfg: &MskConfig,
    bits: &mut Vec<bool>,
) -> Option<TagId> {
    if power < EMPTY_RESIDUAL_POWER {
        return None;
    }
    MskDemodulator::new(cfg.clone()).demodulate_into(samples, bits);
    let id = TagId::from_bit_slice(bits)?;
    id.crc_is_valid().then_some(id)
}

/// The paper's energy-equation estimate of the two component amplitudes of
/// a 2-mixture (§II-B).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct EnergyEstimate {
    /// Estimated larger amplitude.
    pub stronger: f64,
    /// Estimated smaller amplitude.
    pub weaker: f64,
    /// Measured mean power `μ = E[|y|²]`.
    pub mu: f64,
    /// Measured above-mean power statistic `σ`.
    pub sigma: f64,
}

/// Estimates the amplitudes `A ≥ B` of a two-component constant-envelope
/// mixture from the energy statistics μ and σ.
///
/// Solves `μ = A² + B²`, `σ = A² + B² + 4AB/π` for `A` and `B`. When the
/// measured statistics are inconsistent (e.g. the input is actually a
/// single component, so `σ ≈ μ` and the discriminant goes negative), the
/// weaker amplitude is clamped to zero — the caller can use
/// `weaker ≈ 0` as a cheap single-vs-multiple component discriminator.
///
/// Returns `None` for an empty input.
#[must_use]
pub fn estimate_two_amplitudes(samples: &[Complex]) -> Option<EnergyEstimate> {
    if samples.is_empty() {
        return None;
    }
    let w = samples.len() as f64;
    let mu = mean_power(samples);
    let above: f64 = samples
        .iter()
        .map(|s| s.norm_sqr())
        .filter(|&p| p > mu)
        .sum();
    let sigma = 2.0 / w * above;

    // AB = (σ − μ)·π/4 ; A² + B² = μ.
    let ab = ((sigma - mu) * std::f64::consts::PI / 4.0).max(0.0);
    // A², B² are roots of z² − μ·z + (AB)² = 0.
    let disc = (mu * mu - 4.0 * ab * ab).max(0.0);
    let root = disc.sqrt();
    let a2 = ((mu + root) / 2.0).max(0.0);
    let b2 = ((mu - root) / 2.0).max(0.0);
    Some(EnergyEstimate {
        stronger: a2.sqrt(),
        weaker: b2.sqrt(),
        mu,
        sigma,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> MskConfig {
        MskConfig::default()
    }

    fn quiet_model() -> ChannelModel {
        ChannelModel::default().with_noise_std(0.005)
    }

    #[test]
    fn singleton_decodes() {
        let mut rng = StdRng::seed_from_u64(1);
        let tag = TagId::from_payload(0x1234_5678);
        let wave = transmit_mixed(&[tag], &cfg(), &quiet_model(), &mut rng);
        assert_eq!(decode_singleton(&wave, &cfg()), Some(tag));
    }

    #[test]
    fn transmit_mixed_into_is_bit_identical() {
        // Same seed, interleaved rounds with a reused scratch: the into
        // variant must match the allocating one sample for sample (exact
        // float equality) and leave both RNGs in the same state.
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        let mut scratch = MixScratch::default();
        let mut reused = vec![Complex::ONE; 3]; // stale contents must not leak
        let t1 = TagId::from_payload(42);
        let t2 = TagId::from_payload(7_777);
        for tags in [vec![], vec![t1], vec![t1, t2], vec![t2]] {
            let wave = transmit_mixed(&tags, &cfg(), &quiet_model(), &mut rng_a);
            transmit_mixed_into(
                &tags,
                &cfg(),
                &quiet_model(),
                &mut rng_b,
                &mut scratch,
                &mut reused,
            );
            assert_eq!(wave, reused, "k = {}", tags.len());
        }
    }

    #[test]
    fn empty_slot_decodes_to_none() {
        let mut rng = StdRng::seed_from_u64(2);
        let wave = transmit_mixed(&[], &cfg(), &ChannelModel::default().noiseless(), &mut rng);
        assert_eq!(decode_singleton(&wave, &cfg()), None);
    }

    #[test]
    fn two_collision_equal_power_does_not_decode_as_singleton() {
        // With near-equal component powers the phase of the sum is the
        // average of the component phases: bits where the two IDs disagree
        // demodulate to noise and the CRC rejects the word.
        let model = ChannelModel::new((1.0, 1.0), 0.005);
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let t1 = TagId::from_payload(111 + u128::from(seed));
            let t2 = TagId::from_payload(90_000 + u128::from(seed));
            let wave = transmit_mixed(&[t1, t2], &cfg(), &model, &mut rng);
            assert_eq!(decode_singleton(&wave, &cfg()), None, "seed {seed}");
        }
    }

    #[test]
    fn capture_effect_decodes_dominant_component() {
        // A well-known RFID PHY phenomenon the DSP layer reproduces: when
        // one component is much stronger, the phase of the mixture tracks
        // it and the "collision" decodes as the stronger tag's singleton.
        use crate::channel::ChannelParams;
        let modulator = MskModulator::new(cfg());
        let strong = TagId::from_payload(1);
        let weak = TagId::from_payload(2);
        let p_strong = ChannelParams {
            attenuation: 1.0,
            phase: 0.7,
            freq_offset: 0.0,
        };
        let p_weak = ChannelParams {
            attenuation: 0.15,
            phase: 2.9,
            freq_offset: 0.0,
        };
        let w1 = p_strong.apply(&modulator.reference(&strong.to_bits()));
        let w2 = p_weak.apply(&modulator.reference(&weak.to_bits()));
        let mixed: Vec<Complex> = w1.iter().zip(&w2).map(|(&a, &b)| a + b).collect();
        assert_eq!(decode_singleton(&mixed, &cfg()), Some(strong));
    }

    #[test]
    fn resolve_two_collision() {
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let t1 = TagId::from_payload(1000 + u128::from(seed));
            let t2 = TagId::from_payload(2000 + u128::from(seed));
            let mixed = transmit_mixed(&[t1, t2], &cfg(), &quiet_model(), &mut rng);
            assert_eq!(resolve(&mixed, &[t1], &cfg()), Ok(t2), "seed {seed}");
            assert_eq!(resolve(&mixed, &[t2], &cfg()), Ok(t1), "seed {seed}");
        }
    }

    #[test]
    fn resolve_three_and_four_collisions() {
        let mut rng = StdRng::seed_from_u64(7);
        let ids: Vec<TagId> = (0..4).map(|i| TagId::from_payload(50 + i)).collect();
        let mixed3 = transmit_mixed(&ids[..3], &cfg(), &quiet_model(), &mut rng);
        assert_eq!(resolve(&mixed3, &ids[..2], &cfg()), Ok(ids[2]));
        let mixed4 = transmit_mixed(&ids[..4], &cfg(), &quiet_model(), &mut rng);
        assert_eq!(resolve(&mixed4, &ids[..3], &cfg()), Ok(ids[3]));
    }

    #[test]
    fn resolve_with_insufficient_knowledge_fails_crc() {
        let mut rng = StdRng::seed_from_u64(9);
        let ids: Vec<TagId> = (0..3).map(|i| TagId::from_payload(90 + i)).collect();
        let mixed = transmit_mixed(&ids, &cfg(), &quiet_model(), &mut rng);
        // Knowing 1 of 3 leaves a 2-mixture residual → CRC mismatch.
        assert_eq!(
            resolve(&mixed, &ids[..1], &cfg()),
            Err(AncError::CrcMismatch)
        );
    }

    #[test]
    fn resolve_fully_known_mixture_reports_empty_residual() {
        let mut rng = StdRng::seed_from_u64(11);
        let t1 = TagId::from_payload(5);
        let t2 = TagId::from_payload(6);
        let mixed = transmit_mixed(
            &[t1, t2],
            &cfg(),
            &ChannelModel::default().noiseless(),
            &mut rng,
        );
        assert_eq!(
            resolve(&mixed, &[t1, t2], &cfg()),
            Err(AncError::EmptyResidual)
        );
        // The check is relative to the mixture's power, so it also fires
        // under the default receiver noise (absolute residual ≈ 2σ²).
        let mut rng = StdRng::seed_from_u64(12);
        let noisy = transmit_mixed(&[t1, t2], &cfg(), &ChannelModel::default(), &mut rng);
        assert_eq!(
            resolve(&noisy, &[t1, t2], &cfg()),
            Err(AncError::EmptyResidual)
        );
    }

    #[test]
    fn resolve_duplicate_known_is_gain_fit_error() {
        let mut rng = StdRng::seed_from_u64(13);
        let t1 = TagId::from_payload(5);
        let t2 = TagId::from_payload(6);
        let mixed = transmit_mixed(&[t1, t2], &cfg(), &quiet_model(), &mut rng);
        assert!(matches!(
            resolve(&mixed, &[t1, t1], &cfg()),
            Err(AncError::GainFit(_))
        ));
    }

    #[test]
    fn resolve_bad_length_rejected() {
        assert_eq!(
            resolve(&[Complex::ONE; 10], &[], &cfg()),
            Err(AncError::BadLength { samples: 10 })
        );
    }

    #[test]
    fn resolve_fails_under_heavy_noise() {
        // At ~0 dB SNR the 2-collision must (essentially always) fail —
        // this is the regime where the paper says to fall back to a plain
        // contention protocol (§IV-E).
        let model = ChannelModel::default().with_noise_std(0.7);
        let mut failures = 0;
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let t1 = TagId::from_payload(10 + u128::from(seed));
            let t2 = TagId::from_payload(20 + u128::from(seed));
            let mixed = transmit_mixed(&[t1, t2], &cfg(), &model, &mut rng);
            if resolve(&mixed, &[t1], &cfg()).is_err() {
                failures += 1;
            }
        }
        assert!(failures >= 8, "only {failures}/10 failed at 0 dB");
    }

    #[test]
    fn energy_estimate_two_components() {
        // The energy equations assume the relative phase of the two
        // components sweeps over the observation window (true in Katti's
        // setting, where the transmitters run free oscillators). Model that
        // with a carrier frequency offset on one component; the μ/σ
        // statistics then recover the amplitudes.
        use crate::channel::ChannelParams;
        let modulator = MskModulator::new(cfg());
        let bits1 = TagId::from_payload(0xAAAA).to_bits();
        let bits2 = TagId::from_payload(0x5555).to_bits();
        let (a, b) = (1.0, 0.6);
        let p1 = ChannelParams {
            attenuation: a,
            phase: 0.4,
            freq_offset: 0.0,
        };
        let p2 = ChannelParams {
            attenuation: b,
            phase: 2.2,
            freq_offset: 0.05, // relative phase sweeps ~6 cycles over the ID
        };
        let w1 = p1.apply(&modulator.reference(&bits1));
        let w2 = p2.apply(&modulator.reference(&bits2));
        let mixed: Vec<Complex> = w1.iter().zip(&w2).map(|(&x, &y)| x + y).collect();
        let est = estimate_two_amplitudes(&mixed).unwrap();
        assert!((est.mu - (a * a + b * b)).abs() < 0.08, "mu {}", est.mu);
        assert!((est.stronger - a).abs() < 0.15, "A {}", est.stronger);
        assert!((est.weaker - b).abs() < 0.15, "B {}", est.weaker);
    }

    #[test]
    fn energy_estimate_single_component_weak_is_small() {
        let modulator = MskModulator::new(cfg());
        let bits = TagId::from_payload(0xF00D).to_bits();
        let wave = modulator.modulate(&bits, 1.0, 0.4);
        let est = estimate_two_amplitudes(&wave).unwrap();
        assert!(est.weaker < 0.35, "weaker {}", est.weaker);
        assert!(
            (est.stronger - 1.0).abs() < 0.2,
            "stronger {}",
            est.stronger
        );
    }

    #[test]
    fn energy_estimate_empty_is_none() {
        assert_eq!(estimate_two_amplitudes(&[]), None);
    }

    #[test]
    fn cached_gram_diagonal_is_the_inner_product() {
        // The diagonal the fit reads from the cache is the very
        // inner product it used to recompute, through evictions too.
        let mut cache = ReferenceCache::new(&cfg());
        for i in 0..(MAX_CACHED_REFERENCES as u128 + 40) {
            let idx = cache.ensure(TagId::from_payload(i * 7_919 + 1));
            let wave = cache.wave(idx);
            let (cached, direct) = (
                cache.self_inner(idx),
                crate::complex::inner_product(wave, wave),
            );
            // Bit patterns, so a flipped zero sign would show too.
            assert_eq!(
                (cached.re.to_bits(), cached.im.to_bits()),
                (direct.re.to_bits(), direct.im.to_bits()),
                "id {i}"
            );
        }
        // The fit against the cached diagonal is the fit against
        // recomputed inner products: same residual to the bit.
        let mut rng = StdRng::seed_from_u64(21);
        let ids: Vec<TagId> = (0..4).map(|i| TagId::from_payload(300 + i)).collect();
        let mixed = transmit_mixed(&ids, &cfg(), &quiet_model(), &mut rng);
        let mut scratch = ResolveScratch::default();
        for k in 1..=3 {
            for &id in &ids[..k] {
                cache.ensure(id);
            }
            subtract_known_prepared(&mixed, &ids[..k], &cache, &mut scratch).unwrap();
            assert_eq!(
                scratch.residual,
                subtract_known(&mixed, &ids[..k], &cfg()).unwrap()
            );
        }
    }

    #[test]
    fn ensure_all_keeps_every_id_across_a_reset() {
        // One short of full: the first new ID fills the cache, and the
        // second resets it, which would drop the first.
        let mut cache = ReferenceCache::new(&cfg());
        for i in 0..(MAX_CACHED_REFERENCES as u128 - 1) {
            cache.ensure(TagId::from_payload(10_000 + i));
        }
        let ids = [TagId::from_payload(1), TagId::from_payload(2)];
        cache.ensure_all(&ids);
        for id in ids {
            assert!(cache.index_of(id).is_some(), "{id} evicted");
        }
    }

    #[test]
    fn ensure_all_holds_more_ids_than_the_bound() {
        let mut cache = ReferenceCache::new(&cfg());
        cache.ensure(TagId::from_payload(7));
        for n in [MAX_CACHED_REFERENCES + 1, 2 * MAX_CACHED_REFERENCES] {
            let ids: Vec<TagId> = (0..n as u128)
                .map(|i| TagId::from_payload(20_000 + i))
                .collect();
            cache.ensure_all(&ids);
            for &id in &ids {
                assert!(cache.index_of(id).is_some(), "{id} missing after {n} IDs");
            }
        }
        // The over-full cache resets on the next miss.
        cache.ensure(TagId::from_payload(8));
        assert_eq!(cache.ids.len(), 1);
    }

    #[test]
    fn resolve_cascaded_accepts_more_known_ids_than_the_bound() {
        let mut rng = StdRng::seed_from_u64(31);
        let (a, b) = (TagId::from_payload(1), TagId::from_payload(2));
        let mixed = transmit_mixed(&[a, b], &cfg(), &quiet_model(), &mut rng);
        for n in [MAX_CACHED_REFERENCES + 1, 2 * MAX_CACHED_REFERENCES] {
            let known: Vec<TagId> = std::iter::once(a)
                .chain((1..n as u128).map(|i| TagId::from_payload(40_000 + i)))
                .collect();
            let attempt =
                crate::cascade::resolve_cascaded(&mixed, &known, &cfg(), 0.005, 0.0, &mut rng);
            assert!(attempt.recovered.is_err(), "{n} known IDs: {attempt:?}");
        }
    }

    #[test]
    fn cached_mixture_matches_uncached_through_cache_states() {
        // On a noiseless channel the cached synthesizer's output is the
        // uncached mixture sample for sample, whether the references are
        // cold, already cached, or dropped by a reset in the middle of
        // the call (the cache one short of full, three new IDs).
        let model = ChannelModel::default().noiseless();
        let ids: Vec<TagId> = (0..3)
            .map(|i| TagId::from_payload(0xABCD_0000 + i))
            .collect();
        let mut cache = ReferenceCache::new(&cfg());
        let mut scratch = MixScratch::default();
        let mut cached = vec![Complex::ZERO; cfg().samples_for_bits(96)];
        let mut plain = Vec::new();
        for (seed, state) in [(1, "cold"), (2, "warm"), (3, "reset mid-call")] {
            if state == "reset mid-call" {
                cache.clear();
                for i in 0..(MAX_CACHED_REFERENCES as u128 - 1) {
                    cache.ensure(TagId::from_payload(60_000 + i));
                }
            }
            transmit_mixed_cached(
                &ids,
                &cfg(),
                &model,
                &mut StdRng::seed_from_u64(seed),
                &mut cache,
                &mut scratch,
                &mut cached,
            );
            transmit_mixed_into(
                &ids,
                &cfg(),
                &model,
                &mut StdRng::seed_from_u64(seed),
                &mut MixScratch::default(),
                &mut plain,
            );
            assert_eq!(cached, plain, "{state} cache");
        }
        assert!(cache.ids.len() < 3, "the last call did not reset the cache");
    }

    #[test]
    fn offset_components_match_the_uncached_mixture() {
        // With frequency offsets every component takes the shaped-copy
        // path of the cached synthesizer; it must still match the
        // uncached variant sample for sample.
        let model = quiet_model().with_max_freq_offset(0.02);
        let ids: Vec<TagId> = (0..3).map(|i| TagId::from_payload(40 + i)).collect();
        let mut cache = ReferenceCache::new(&cfg());
        let mut scratch = MixScratch::default();
        let mut cached = vec![Complex::ZERO; cfg().samples_for_bits(96)];
        transmit_mixed_cached(
            &ids,
            &cfg(),
            &model,
            &mut StdRng::seed_from_u64(4),
            &mut cache,
            &mut scratch,
            &mut cached,
        );
        let plain = transmit_mixed(&ids, &cfg(), &model, &mut StdRng::seed_from_u64(4));
        assert_eq!(cached, plain);
    }

    #[test]
    fn error_display() {
        assert!(!AncError::CrcMismatch.to_string().is_empty());
        assert!(!AncError::EmptyResidual.to_string().is_empty());
        assert!(!AncError::BadLength { samples: 3 }.to_string().is_empty());
    }
}
