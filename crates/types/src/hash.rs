//! The deterministic slot-membership hash `H(ID|i)` of §IV-A.
//!
//! In SCAT the reader advertises an `l`-bit integer `⌊p_i · 2^l⌋` rather than
//! a real-valued probability. A tag computes a hash `H(ID|i)` with range
//! `[0, 2^l)` and transmits its ID in slot `i` iff `H(ID|i) ≤ ⌊p_i · 2^l⌋`.
//!
//! Making the transmission decision a *deterministic function of (ID, slot)*
//! — rather than a private coin flip — is load-bearing for collision
//! resolution (§IV-B): once the reader learns an ID from a singleton slot it
//! can recompute `H(ID|j)` for every outstanding collision record `j` and
//! decide whether that tag's signal is a component of the recorded mixture.
//!
//! The hash here is a [SplitMix64](https://prng.di.unimi.it/splitmix64.c)
//! finalizer over a mix of the 96-bit ID and the 64-bit slot index: fast,
//! stateless, and with excellent avalanche behaviour (verified by the tests
//! below and by the chi-squared property test in `rfid-sim`).

use crate::TagId;
use rand::RngCore;

/// SplitMix64's additive constant and its two multipliers, shared by
/// [`splitmix64`], [`CounterRng`] and the eight-lane kernels in
/// [`crate::simd`].
pub(crate) const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
pub(crate) const MIX1: u64 = 0xBF58_476D_1CE4_E5B9;
pub(crate) const MIX2: u64 = 0x94D0_49BB_1331_11EB;

/// Mixes one 64-bit word with the SplitMix64 finalizer.
#[inline]
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(MIX1);
    x = (x ^ (x >> 27)).wrapping_mul(MIX2);
    x ^ (x >> 31)
}

/// A counter-based SplitMix64 generator: output `i` is
/// `finalize(seed + (i + 1)·γ)` — the canonical SplittableRandom sequence.
///
/// Unlike the sequential `StdRng`, construction is free (one `u64`) and
/// each output is three multiplies and some shifts, so signal-backed
/// resolution can afford a *fresh* stream per `(record, hop)` pair instead
/// of threading one sequential generator through the whole run. Because
/// output `i` depends only on `i`, [`RngCore::fill_bytes`] computes eight
/// outputs at a time ([`crate::simd::fill_counter_bytes`]), with the same
/// bytes as successive [`RngCore::next_u64`] calls. Statistical quality is
/// ample for AWGN synthesis (SplitMix64 passes BigCrush); it is **not** a
/// cryptographic generator.
#[derive(Debug, Clone)]
pub struct CounterRng {
    state: u64,
}

impl CounterRng {
    /// Creates the stream rooted at `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        CounterRng { state: seed }
    }
}

impl RngCore for CounterRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        // `splitmix64` already folds one γ increment into its finalizer,
        // so stepping the state by γ afterwards yields exactly
        // `finalize(seed + (i + 1)·γ)` per call.
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(GAMMA);
        out
    }

    /// Successive [`RngCore::next_u64`] outputs as little-endian bytes; a
    /// partial tail draws one more word and keeps its first bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.state = crate::simd::fill_counter_bytes(self.state, dest);
    }
}

/// The per-tag prefix of the slot-membership hash, precomputed once.
///
/// `slot_hash(id, slot)` is three SplitMix64 rounds, but the inner two mix
/// only the ID. Engines that evaluate the membership test for every tag in
/// every slot (Hash membership, §IV-A) cache this state per tag so the
/// per-slot cost drops to a single finalizer round.
///
/// Equivalence with the free functions is exact — see
/// [`TagHashState::slot_hash`] — and enforced by a property test. The
/// state is exactly one `u64` wide, so a slice of states is a dense array
/// of prefixes for the batch scan [`transmitters_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct TagHashState {
    prefix: u64,
}

impl TagHashState {
    /// Precomputes the ID-only mixing rounds of [`slot_hash`].
    #[inline]
    #[must_use]
    pub fn new(id: TagId) -> Self {
        let raw = id.raw_bits();
        let lo = raw as u64;
        let hi = (raw >> 64) as u64;
        let h = splitmix64(lo ^ 0xA076_1D64_78BD_642F);
        TagHashState {
            prefix: splitmix64(h ^ hi),
        }
    }

    /// The full-width hash `H(ID|slot)`; identical to
    /// [`slot_hash`]`(id, slot)` at one round of mixing.
    #[inline]
    #[must_use]
    pub fn slot_hash(self, slot: u64) -> u64 {
        splitmix64(self.prefix ^ slot)
    }

    /// The `l`-bit reduction; identical to [`slot_hash_bits`].
    ///
    /// # Panics
    ///
    /// Panics if `l == 0` or `l > 32`.
    #[inline]
    #[must_use]
    pub fn slot_hash_bits(self, slot: u64, l: u32) -> u64 {
        assert!((1..=32).contains(&l), "l must be in 1..=32, got {l}");
        self.slot_hash(slot) >> (64 - l)
    }

    /// The membership test against a precomputed `l`-bit threshold;
    /// identical to [`transmits`].
    ///
    /// Callers on the hot path compute the threshold once per slot with
    /// [`probability_threshold`] (and handle `p <= 0` themselves, as
    /// [`transmits_with_probability`] does).
    #[inline]
    #[must_use]
    pub fn transmits(self, slot: u64, threshold: u64, l: u32) -> bool {
        self.slot_hash_bits(slot, l) <= threshold
    }

    /// The precomputed prefix the eight-lane scan loads.
    #[inline]
    pub(crate) fn prefix(self) -> u64 {
        self.prefix
    }
}

/// Appends `ids[j]` to `out` for every `states[j]` that transmits in `slot`
/// under the `l`-bit `threshold`, in index order: the batch form of
/// [`TagHashState::transmits`], with exactly the same result.
///
/// On `x86_64` hosts with AVX-512DQ (detected at run time, see
/// [`membership_kernel`]) the scan tests eight tags per step; everywhere
/// else, and for the last `len % 8` tags, it runs the scalar loop.
///
/// # Panics
///
/// Panics if `l == 0`, `l > 32`, or `states` and `ids` differ in length.
pub fn transmitters_into(
    states: &[TagHashState],
    ids: &[u32],
    slot: u64,
    threshold: u64,
    l: u32,
    out: &mut Vec<u32>,
) {
    assert!((1..=32).contains(&l), "l must be in 1..=32, got {l}");
    assert_eq!(states.len(), ids.len(), "one id per hash state");
    let done = crate::simd::transmitters_prefix(states, ids, slot, threshold, l, out);
    scalar_transmitters_into(&states[done..], &ids[done..], slot, threshold, l, out);
}

/// The reference loop behind [`transmitters_into`]; `l` is already checked.
fn scalar_transmitters_into(
    states: &[TagHashState],
    ids: &[u32],
    slot: u64,
    threshold: u64,
    l: u32,
    out: &mut Vec<u32>,
) {
    let shift = 64 - l;
    for (&state, &id) in states.iter().zip(ids) {
        if state.slot_hash(slot) >> shift <= threshold {
            out.push(id);
        }
    }
}

/// Names the kernels [`transmitters_into`] and [`crate::simd`] use on this
/// host: `"avx512dq"` or `"scalar"`.
#[must_use]
pub fn membership_kernel() -> &'static str {
    if crate::simd::avx512_available() {
        "avx512dq"
    } else {
        "scalar"
    }
}

/// Computes the full-width 64-bit hash `H(ID|slot)`.
///
/// Both halves of the 96-bit ID and the slot index go through independent
/// mixing rounds so that IDs differing in any bit, or adjacent slot indices,
/// decorrelate completely.
#[inline]
#[must_use]
pub fn slot_hash(id: TagId, slot: u64) -> u64 {
    TagHashState::new(id).slot_hash(slot)
}

/// Reduces [`slot_hash`] to the `l`-bit range `[0, 2^l)` used by the
/// advertisement encoding.
///
/// # Panics
///
/// Panics if `l == 0` or `l > 32` (the paper uses small `l`; 16 in our
/// default configuration, and 32 is already far below the hash width).
#[inline]
#[must_use]
pub fn slot_hash_bits(id: TagId, slot: u64, l: u32) -> u64 {
    assert!((1..=32).contains(&l), "l must be in 1..=32, got {l}");
    slot_hash(id, slot) >> (64 - l)
}

/// Quantizes a report probability `p ∈ [0, 1]` to the advertised `l`-bit
/// threshold `⌊p · 2^l⌋` (§IV-A).
///
/// Values of `p` outside `[0, 1]` are clamped.
#[inline]
#[must_use]
pub fn probability_threshold(p: f64, l: u32) -> u64 {
    assert!((1..=32).contains(&l), "l must be in 1..=32, got {l}");
    let p = p.clamp(0.0, 1.0);
    (p * (1u64 << l) as f64).floor() as u64
}

/// The membership test itself: does `id` transmit in `slot` when the
/// advertised threshold is `threshold` (an `l`-bit integer)?
///
/// Matches the paper's rule `H(ID|i) ≤ ⌊p_i · 2^l⌋`. Note the paper's `≤`
/// with a *floor*: `p = 1` yields threshold `2^l`, which every `l`-bit hash
/// value satisfies, so `p = 1` forces all tags to transmit (used by the
/// termination probe, §IV-A).
#[inline]
#[must_use]
pub fn transmits(id: TagId, slot: u64, threshold: u64, l: u32) -> bool {
    slot_hash_bits(id, slot, l) <= threshold
}

/// The probability the hash test actually realizes for a requested `p`:
/// `(⌊p·2^l⌋ + 1) / 2^l`, clamped to `[0, 1]` (0 when `p ≤ 0`).
///
/// Because the paper's rule is `H(ID|i) ≤ ⌊p·2^l⌋` with an *inclusive*
/// comparison, the realized probability sits one quantum above the floor.
/// Simulations that shortcut the hash (drawing transmitter counts from a
/// binomial) must use this value, not the raw `p`, to stay
/// distribution-identical with the hash-gated path.
#[inline]
#[must_use]
pub fn effective_probability(p: f64, l: u32) -> f64 {
    if p <= 0.0 {
        return 0.0;
    }
    (((probability_threshold(p, l) + 1) as f64) / (1u64 << l) as f64).min(1.0)
}

/// Convenience: membership test directly from a real-valued probability.
#[inline]
#[must_use]
pub fn transmits_with_probability(id: TagId, slot: u64, p: f64, l: u32) -> bool {
    // p == 0 must mean "never transmits"; the paper's `<=` rule with
    // threshold 0 would still admit hash value 0, so special-case it.
    if p <= 0.0 {
        return false;
    }
    transmits(id, slot, probability_threshold(p, l), l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn splitmix_known_values() {
        // First outputs of the reference splitmix64 stream seeded with 0.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }

    #[test]
    fn hash_is_deterministic() {
        let id = TagId::from_payload(123);
        assert_eq!(slot_hash(id, 5), slot_hash(id, 5));
        assert_ne!(slot_hash(id, 5), slot_hash(id, 6));
    }

    #[test]
    fn different_ids_hash_differently() {
        let a = TagId::from_payload(1);
        let b = TagId::from_payload(2);
        assert_ne!(slot_hash(a, 0), slot_hash(b, 0));
    }

    #[test]
    fn high_payload_bits_affect_hash() {
        // IDs that agree on the low 64 raw bits but differ above them.
        let a = TagId::from_raw_bits(0x0000_0000_0000_0000_1234_u128);
        let b = TagId::from_raw_bits((1u128 << 80) | 0x1234_u128);
        assert_ne!(slot_hash(a, 0), slot_hash(b, 0));
    }

    #[test]
    fn probability_one_always_transmits() {
        let l = 16;
        for payload in 0..200u128 {
            let id = TagId::from_payload(payload);
            assert!(transmits_with_probability(id, 9, 1.0, l));
        }
    }

    #[test]
    fn probability_zero_never_transmits() {
        let l = 16;
        for payload in 0..200u128 {
            let id = TagId::from_payload(payload);
            assert!(!transmits_with_probability(id, 9, 0.0, l));
        }
    }

    #[test]
    fn empirical_rate_tracks_probability() {
        let l = 16;
        let p = 0.3;
        let n = 20_000u128;
        let hits = (0..n)
            .filter(|&i| transmits_with_probability(TagId::from_payload(i), 42, p, l))
            .count();
        let rate = hits as f64 / n as f64;
        assert!(
            (rate - p).abs() < 0.02,
            "empirical rate {rate} too far from {p}"
        );
    }

    #[test]
    fn effective_probability_matches_hash_admission() {
        let l = 16;
        // The hash admits threshold+1 of the 2^l values.
        for p in [1e-5, 0.001, 0.3, 0.999] {
            let expected = (probability_threshold(p, l) + 1) as f64 / 65536.0;
            assert!((effective_probability(p, l) - expected).abs() < 1e-15);
        }
        assert_eq!(effective_probability(0.0, l), 0.0);
        assert_eq!(effective_probability(-1.0, l), 0.0);
        assert_eq!(effective_probability(1.0, l), 1.0);
        // At tiny p the inclusive comparison matters: p = 2.83e-5 realizes
        // 2/65536, not 1.85/65536.
        let p = 1.414 / 50_000.0;
        assert!((effective_probability(p, l) - 2.0 / 65536.0).abs() < 1e-12);
    }

    #[test]
    fn threshold_clamps() {
        assert_eq!(probability_threshold(-0.5, 8), 0);
        assert_eq!(probability_threshold(2.0, 8), 256);
        assert_eq!(probability_threshold(0.5, 8), 128);
    }

    #[test]
    #[should_panic(expected = "l must be in 1..=32")]
    fn zero_l_panics() {
        let _ = slot_hash_bits(TagId::from_payload(0), 0, 0);
    }

    /// The per-tag reference: `TagHashState::transmits` in index order.
    fn reference(states: &[TagHashState], ids: &[u32], slot: u64, t: u64, l: u32) -> Vec<u32> {
        states
            .iter()
            .zip(ids)
            .filter(|(s, _)| s.transmits(slot, t, l))
            .map(|(_, &id)| id)
            .collect()
    }

    /// Checks the batch scan (whichever kernel this host runs) and the
    /// scalar loop called directly against the per-tag reference; the
    /// output must match exactly, order included, and must append.
    fn check_batch(states: &[TagHashState], slot: u64, t: u64, l: u32) {
        // Distinct, non-monotone ids so a reordering cannot go unseen.
        let ids: Vec<u32> = (0..states.len() as u32)
            .map(|j| j.wrapping_mul(2_654_435_761))
            .collect();
        let mut expected = vec![u32::MAX];
        expected.extend(reference(states, &ids, slot, t, l));
        let mut batch = vec![u32::MAX];
        transmitters_into(states, &ids, slot, t, l, &mut batch);
        assert_eq!(
            batch,
            expected,
            "{} kernel, n={} slot={slot} t={t} l={l}",
            membership_kernel(),
            states.len()
        );
        let mut scalar = vec![u32::MAX];
        scalar_transmitters_into(states, &ids, slot, t, l, &mut scalar);
        assert_eq!(
            scalar,
            expected,
            "scalar, n={} slot={slot} t={t} l={l}",
            states.len()
        );
    }

    fn states(n: usize, seed: u64) -> Vec<TagHashState> {
        (0..n as u64)
            .map(|j| {
                TagHashState::new(TagId::from_raw_bits(
                    u128::from(splitmix64(seed ^ j)) << 16 | u128::from(j),
                ))
            })
            .collect()
    }

    #[test]
    fn tag_hash_state_is_one_word() {
        assert_eq!(std::mem::size_of::<TagHashState>(), 8);
        assert_eq!(std::mem::align_of::<TagHashState>(), 8);
    }

    #[test]
    fn batch_scan_matches_per_tag_test_exactly() {
        let mut lengths: Vec<usize> = (0..=17).collect();
        lengths.extend([2_900, 5_000]);
        let mut draw = 0x5EED_u64;
        let mut next = move || {
            draw = splitmix64(draw);
            draw
        };
        for l in 1..=32u32 {
            let full = 1u64 << l;
            let mut thresholds = vec![0, 1, full - 1, full];
            thresholds.extend((0..3).map(|_| next() % full));
            let slots = [0, u64::MAX, next(), next()];
            for &n in &lengths {
                let states = states(n, u64::from(l));
                for &slot in &slots {
                    for &t in &thresholds {
                        check_batch(&states, slot, t, l);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "l must be in 1..=32")]
    fn batch_scan_rejects_wide_l() {
        transmitters_into(&states(8, 0), &[0; 8], 0, 0, 33, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "one id per hash state")]
    fn batch_scan_rejects_mismatched_ids() {
        transmitters_into(&states(8, 0), &[0; 7], 0, 0, 16, &mut Vec::new());
    }

    proptest! {
        #[test]
        fn prop_batch_scan_matches_per_tag_test(
            seed in any::<u64>(),
            n in 0usize..64,
            slot in any::<u64>(),
            l in 1u32..=32,
            threshold in any::<u64>(),
        ) {
            let threshold = threshold % ((1u64 << l) + 1);
            check_batch(&states(n, seed), slot, threshold, l);
        }

        #[test]
        fn prop_monotone_in_threshold(
            payload in any::<u128>(),
            slot in any::<u64>(),
            t1 in 0u64..=65_536,
            t2 in 0u64..=65_536,
        ) {
            // If a tag transmits under a low threshold it must also transmit
            // under any higher threshold (the reader relies on this when it
            // re-evaluates membership for past slots that used different p).
            let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            let id = TagId::from_payload(payload);
            if transmits(id, slot, lo, 16) {
                prop_assert!(transmits(id, slot, hi, 16));
            }
        }

        #[test]
        fn prop_hash_bits_in_range(
            payload in any::<u128>(),
            slot in any::<u64>(),
            l in 1u32..=32,
        ) {
            let id = TagId::from_payload(payload);
            prop_assert!(slot_hash_bits(id, slot, l) < (1u64 << l));
        }

        #[test]
        fn prop_cached_state_matches_free_functions(
            raw in any::<u128>(),
            slot in any::<u64>(),
            l in 1u32..=32,
            threshold in any::<u64>(),
        ) {
            // The cached fast path must be bit-identical to the reference
            // three-round functions for arbitrary (even CRC-invalid) IDs.
            let id = TagId::from_raw_bits(raw);
            let state = TagHashState::new(id);
            prop_assert_eq!(state.slot_hash(slot), slot_hash(id, slot));
            prop_assert_eq!(state.slot_hash_bits(slot, l), slot_hash_bits(id, slot, l));
            let threshold = threshold & ((1u64 << l) - 1);
            prop_assert_eq!(
                state.transmits(slot, threshold, l),
                transmits(id, slot, threshold, l)
            );
        }

        #[test]
        fn prop_cached_state_matches_probability_path(
            payload in any::<u128>(),
            slot in any::<u64>(),
            p in -0.25f64..1.25,
            l in 1u32..=32,
        ) {
            // The engine's hot path: threshold hoisted out of the loop,
            // p <= 0 handled before the hash. Must equal the reference
            // `transmits_with_probability` for every (ID, slot, p, l).
            let id = TagId::from_payload(payload);
            let fast = p > 0.0
                && TagHashState::new(id).transmits(slot, probability_threshold(p, l), l);
            prop_assert_eq!(fast, transmits_with_probability(id, slot, p, l));
        }
    }
}
