//! Hash sets and maps keyed by [`TagId`].
//!
//! Tag IDs come from the simulator's own population generators, never from
//! an adversary, so the standard library's keyed, flood-resistant SipHash
//! (`RandomState`) buys nothing here and costs a full SipHash pass per
//! lookup. Every per-tag set and map in the workspace (the generators'
//! dedup, the record store's intern map, the report's identified set, the
//! multi-site merge, the monitoring driver) uses [`TagIdHasher`] instead:
//! one 64×64→128-bit multiply of the ID's two halves, folded back to 64
//! bits, and one more folded multiply to finish.
//!
//! Switching hashers cannot change any result: `RandomState` already drew a
//! fresh key in every process, so nothing may depend on the iteration order
//! of these containers (DESIGN.md §18).
//!
//! # Example
//!
//! ```
//! use rfid_types::{TagId, TagSet};
//!
//! let mut seen = TagSet::default();
//! assert!(seen.insert(TagId::from_payload(7)));
//! assert!(!seen.insert(TagId::from_payload(7)));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::TagId;

/// Constants (digits of π) that keep an all-zero half from zeroing the
/// product.
const K_LO: u64 = 0x243F_6A88_85A3_08D3;
const K_HI: u64 = 0x1319_8A2E_0370_7344;
/// The odd 64-bit golden-ratio constant of the finishing multiply.
const K_FINISH: u64 = 0x9E37_79B9_7F4A_7C15;

/// The 128-bit product of `a` and `b`, its two halves XORed together.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// A [`Hasher`] for [`TagId`] keys: a folded multiply of the `u128`'s two
/// 64-bit halves.
///
/// [`Hasher::finish`] folds the state once more against a constant. Without
/// it the low seven bits of sequential IDs' hashes (whose high half is
/// constant) are visibly uneven: a χ² 4.6σ over its mean across 128
/// buckets, against ≤ 2.1σ with it for every generator in the tests.
///
/// `TagId`'s derived `Hash` makes exactly one `write_u128` call. Other
/// writes are accepted (in 16-byte chunks) so the type is a lawful
/// `Hasher`, but only `TagId` keys are what it is tuned and tested for.
#[derive(Debug, Default, Clone, Copy)]
pub struct TagIdHasher {
    state: u64,
}

impl Hasher for TagIdHasher {
    #[inline]
    fn write_u128(&mut self, value: u128) {
        let lo = value as u64 ^ self.state ^ K_LO;
        let hi = (value >> 64) as u64 ^ K_HI;
        self.state = folded_multiply(lo, hi);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(16) {
            let mut word = [0u8; 16];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u128(u128::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        folded_multiply(self.state, K_FINISH)
    }
}

/// A set of tag IDs hashed with [`TagIdHasher`].
pub type TagSet = HashSet<TagId, BuildHasherDefault<TagIdHasher>>;

/// A map keyed by tag ID, hashed with [`TagIdHasher`].
pub type TagMap<V> = HashMap<TagId, V, BuildHasherDefault<TagIdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::hash::BuildHasher;

    const IDS: usize = 100_000;

    /// Pearson's statistic of `IDS` hashes bucketed by `bucket`, checked
    /// against its `χ²(buckets − 1)` distribution under uniform hashing:
    /// mean `df`, standard deviation `sqrt(2 df)`. The 6σ bound depends
    /// only on the ID count and the bucket count.
    fn assert_balanced(ids: &[TagId], buckets: usize, bucket: impl Fn(u64) -> usize, what: &str) {
        assert_eq!(ids.len(), IDS);
        let build = BuildHasherDefault::<TagIdHasher>::default();
        let mut counts = vec![0u64; buckets];
        for &id in ids {
            counts[bucket(build.hash_one(id))] += 1;
        }
        let expected = IDS as f64 / buckets as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum();
        let df = (buckets - 1) as f64;
        let bound = df + 6.0 * (2.0 * df).sqrt();
        assert!(
            chi2 < bound,
            "{what}: chi-square {chi2:.1} over bound {bound:.1}"
        );
    }

    fn populations() -> Vec<(&'static str, Vec<TagId>)> {
        vec![
            (
                "uniform",
                population::uniform(&mut StdRng::seed_from_u64(1), IDS),
            ),
            ("sequential", population::sequential(0, IDS)),
            (
                "sequential-high",
                population::sequential(0xFFFF_FFFF_FFFF << 32, IDS),
            ),
            (
                "clustered",
                population::clustered(&mut StdRng::seed_from_u64(2), IDS, 10),
            ),
        ]
    }

    /// hashbrown picks the bucket from the low bits and the control byte
    /// from the top seven; both must look uniform for every generator.
    #[test]
    fn low_and_top_bits_are_balanced() {
        for (name, ids) in populations() {
            for bits in [7u32, 10, 14] {
                let mask = (1u64 << bits) - 1;
                assert_balanced(&ids, 1 << bits, |h| (h & mask) as usize, name);
            }
            assert_balanced(&ids, 128, |h| (h >> 57) as usize, name);
        }
    }

    #[test]
    fn byte_writes_match_the_u128_write() {
        let value: u128 = 0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3210;
        let mut words = TagIdHasher::default();
        words.write_u128(value);
        let mut bytes = TagIdHasher::default();
        bytes.write(&value.to_le_bytes());
        assert_eq!(words.finish(), bytes.finish());
    }
}
