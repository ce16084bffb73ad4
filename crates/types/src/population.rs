//! Tag-population generators for experiments.
//!
//! The paper's simulations deploy `N` tags with (implicitly) uniformly
//! random IDs. Query-tree baselines are sensitive to the ID distribution
//! (§VII: "A query-tree protocol can have quite different reading
//! throughputs determined by the tag ID distribution"), so besides the
//! uniform generator we provide sequential and clustered generators for
//! stress tests and ablations.

use rand::Rng;

use crate::{TagId, TagSet};

/// Generates `n` *distinct* tags with uniformly random 80-bit payloads.
///
/// Uniqueness is enforced by rejection; with an 80-bit space collisions are
/// astronomically unlikely, but the protocols assume unique IDs (§I: "Each
/// tag carries a unique identification number"), so we guarantee it.
#[must_use]
pub fn uniform<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<TagId> {
    let mut seen = TagSet::with_capacity_and_hasher(n, Default::default());
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let payload: u128 = u128::from(rng.gen::<u64>()) << 16 | u128::from(rng.gen::<u16>());
        let id = TagId::from_payload(payload);
        if seen.insert(id) {
            out.push(id);
        }
    }
    out
}

/// Generates `n` tags with consecutive payloads starting at `start`.
///
/// Sequential IDs share long common prefixes, the worst case for query-tree
/// splitting and a useful determinism aid in unit tests.
#[must_use]
pub fn sequential(start: u128, n: usize) -> Vec<TagId> {
    (0..n as u128)
        .map(|i| TagId::from_payload(start + i))
        .collect()
}

/// Generates `n` tags clustered into `clusters` groups of near-consecutive
/// payloads with random 40-bit cluster bases.
///
/// Models a warehouse where pallets carry blocks of sequential serials.
///
/// # Panics
///
/// Panics if `clusters == 0` while `n > 0`.
#[must_use]
pub fn clustered<R: Rng + ?Sized>(rng: &mut R, n: usize, clusters: usize) -> Vec<TagId> {
    if n == 0 {
        return Vec::new();
    }
    assert!(clusters > 0, "clusters must be > 0 when n > 0");
    let mut seen = TagSet::with_capacity_and_hasher(n, Default::default());
    let mut out = Vec::with_capacity(n);
    let bases: Vec<u128> = (0..clusters)
        .map(|_| u128::from(rng.gen::<u64>() >> 24) << 40)
        .collect();
    let mut offset: u128 = 0;
    while out.len() < n {
        let base = bases[out.len() % clusters];
        let id = TagId::from_payload(base + offset);
        if seen.insert(id) {
            out.push(id);
        }
        if out.len() % clusters == 0 {
            offset += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn uniform_generates_unique_ids() {
        let mut rng = StdRng::seed_from_u64(7);
        let tags = uniform(&mut rng, 5_000);
        assert_eq!(tags.len(), 5_000);
        let set: HashSet<_> = tags.iter().copied().collect();
        assert_eq!(set.len(), 5_000);
        assert!(tags.iter().all(|t| t.crc_is_valid()));
    }

    #[test]
    fn uniform_zero_is_empty() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(uniform(&mut rng, 0).is_empty());
    }

    #[test]
    fn sequential_payloads_consecutive() {
        let tags = sequential(100, 4);
        let payloads: Vec<u128> = tags.iter().map(|t| t.payload()).collect();
        assert_eq!(payloads, vec![100, 101, 102, 103]);
    }

    #[test]
    fn clustered_generates_unique_ids() {
        let mut rng = StdRng::seed_from_u64(11);
        let tags = clustered(&mut rng, 1000, 10);
        let set: HashSet<_> = tags.iter().copied().collect();
        assert_eq!(set.len(), 1000);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = uniform(&mut StdRng::seed_from_u64(3), 64);
        let b = uniform(&mut StdRng::seed_from_u64(3), 64);
        assert_eq!(a, b);
    }
}
