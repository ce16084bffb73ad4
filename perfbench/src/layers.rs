//! Timed calls into single layers' public functions, on inputs taken from
//! the workload's own trace (its report probabilities, its k mix, its hop
//! mix, its estimator inputs, its request lines).
//!
//! Each function times repeated batches for `budget` and returns the best
//! batch's cost per call: every batch does the same work, so anything
//! above the best is the host, not the layer.

use crate::stats::median;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfid_anc::SignalResolutionConfig;
use rfid_signal::{
    cascade_noise_std, degrade_into, resolve_cascaded_cached, transmit_mixed_cached, Complex,
    MixScratch, ReferenceCache, ResolveScratch,
};
use rfid_types::hash::{probability_threshold, TagHashState};
use rfid_types::TagId;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Advertisement hash width every workload runs at (the simulator default).
const HASH_BITS: u32 = 16;

/// Runs `batch` (which performs `calls` calls) repeatedly for `budget`,
/// at least five times, and returns the best batch's nanoseconds per call.
fn time_batches(budget: Duration, calls: u64, mut batch: impl FnMut()) -> f64 {
    batch(); // warm caches and lazily grown buffers
    let mut best = f64::INFINITY;
    let start = Instant::now();
    for round in 0.. {
        if round >= 5 && start.elapsed() >= budget {
            break;
        }
        let t = Instant::now();
        batch();
        best = best.min(t.elapsed().as_nanos() as f64 / calls as f64);
    }
    best
}

/// Weighted mean of `cost(key)` over a `key → count` mix; `fallback`
/// stands in for an empty mix (a workload that never calls the layer).
fn mix_cost(mix: &BTreeMap<u32, u64>, fallback: u32, mut cost: impl FnMut(u32) -> f64) -> f64 {
    if mix.is_empty() {
        return cost(fallback);
    }
    let total: u64 = mix.values().sum();
    mix.iter()
        .map(|(&key, &count)| cost(key) * count as f64 / total as f64)
        .sum()
}

/// `TagHashState::transmits` over `tags` at the median report probability
/// of the workload's slots.
pub fn hash_ns_per_call(tags: &[TagId], slot_p: &[f64], budget: Duration) -> f64 {
    let states: Vec<TagHashState> = tags.iter().map(|&t| TagHashState::new(t)).collect();
    let p = match median(slot_p) {
        p if p > 0.0 => p,
        _ => 1.0 / tags.len().max(1) as f64,
    };
    let threshold = probability_threshold(p, HASH_BITS);
    let mut slot = 0u64;
    time_batches(budget, states.len() as u64 * 16, || {
        let mut hits = 0u32;
        for _ in 0..16 {
            slot += 1;
            for state in &states {
                hits += u32::from(black_box(*state).transmits(slot, threshold, HASH_BITS));
            }
        }
        black_box(hits);
    })
}

/// Waveform synthesis of a k-tag collision (`transmit_mixed_cached`, the
/// call the record store makes at deposit) at the workload's k mix.
pub fn synth_ns_per_call(
    tags: &[TagId],
    k_mix: &BTreeMap<u32, u64>,
    cfg: &SignalResolutionConfig,
    budget: Duration,
) -> f64 {
    let clean = cfg.channel.clone().noiseless();
    let mut cache = ReferenceCache::new(&cfg.msk);
    let mut scratch = MixScratch::default();
    let mut out = vec![Complex::ZERO; cfg.msk.samples_for_bits(rfid_types::TAG_ID_BITS as usize)];
    let mut rng = StdRng::seed_from_u64(7);
    let per_key = budget / k_mix.len().max(1) as u32;
    mix_cost(k_mix, 2, |k| {
        let k = (k as usize).clamp(1, tags.len());
        let mut start = 0usize;
        time_batches(per_key, 16, || {
            for _ in 0..16 {
                start = (start + k) % (tags.len() - k + 1);
                let ids = &tags[start..start + k];
                transmit_mixed_cached(
                    ids,
                    &cfg.msk,
                    &clean,
                    &mut rng,
                    &mut cache,
                    &mut scratch,
                    &mut out,
                );
                black_box(&out);
            }
        })
    })
}

/// One resolution attempt as the record store runs it — realize the
/// recording's receiver noise, then `resolve_cascaded_cached` with the
/// hop's accumulated residual — at the workload's hop mix, on two-tag
/// mixtures whose first tag is known.
pub fn resolve_ns_per_call(
    tags: &[TagId],
    hop_mix: &BTreeMap<u32, u64>,
    cfg: &SignalResolutionConfig,
    budget: Duration,
) -> f64 {
    let clean = cfg.channel.clone().noiseless();
    let base = cfg.channel.noise_std();
    let span = cfg.msk.samples_for_bits(rfid_types::TAG_ID_BITS as usize);
    let mut cache = ReferenceCache::new(&cfg.msk);
    let mut mix = MixScratch::default();
    let mut rng = StdRng::seed_from_u64(11);
    let pairs: Vec<(TagId, Vec<Complex>)> = tags
        .chunks_exact(2)
        .take(32)
        .map(|pair| {
            let mut wave = vec![Complex::ZERO; span];
            transmit_mixed_cached(
                pair, &cfg.msk, &clean, &mut rng, &mut cache, &mut mix, &mut wave,
            );
            (pair[0], wave)
        })
        .collect();
    let mut scratch = ResolveScratch::default();
    let mut noised = Vec::new();
    let per_key = budget / hop_mix.len().max(1) as u32;
    mix_cost(hop_mix, 1, |hop| {
        let extra = cascade_noise_std(base, cfg.residual_per_hop, hop);
        let mut i = 0usize;
        time_batches(per_key, 8, || {
            for _ in 0..8 {
                i = (i + 1) % pairs.len();
                let (known, wave) = &pairs[i];
                degrade_into(wave, base, &mut rng, &mut noised);
                let attempt = resolve_cascaded_cached(
                    &noised,
                    std::slice::from_ref(known),
                    &cfg.msk,
                    base,
                    extra,
                    &mut rng,
                    &mut cache,
                    &mut scratch,
                );
                black_box(attempt);
            }
        })
    })
}

/// `estimate_remaining_from_collisions` on the workload's own estimator
/// inputs `(collisions, frame, p)` (a fixed typical frame when the workload
/// made none).
pub fn estimator_ns_per_call(inputs: &[(u32, u32, f64)], omega: f64, budget: Duration) -> f64 {
    let mut valid: Vec<(u32, u32, f64)> = inputs
        .iter()
        .copied()
        .filter(|&(nc, frame, p)| frame > 0 && nc <= frame && p > 0.0 && p < 1.0)
        .collect();
    if valid.is_empty() {
        valid.push((12, 30, 0.01));
    }
    let calls = valid.len().max(256);
    time_batches(budget, calls as u64, || {
        let mut acc = 0.0;
        for i in 0..calls {
            let (nc, frame, p) = valid[i % valid.len()];
            acc += rfid_analysis::estimate_remaining_from_collisions(
                black_box(nc),
                frame,
                black_box(p),
                omega,
            );
        }
        black_box(acc);
    })
}

/// `rfid_bench::serve::parse_request` on `lines`, in microseconds per line.
pub fn parse_us_per_line(lines: &[String], budget: Duration) -> f64 {
    let options = rfid_bench::ServeOptions::default();
    let ns = time_batches(budget, lines.len() as u64, || {
        for line in lines {
            black_box(rfid_bench::serve::parse_request(line, &options).is_ok());
        }
    });
    ns / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_sim::seeded_rng;
    use rfid_types::population;

    #[test]
    fn micro_benchmarks_report_positive_costs() {
        let tags = population::uniform(&mut seeded_rng(1), 64);
        let budget = Duration::from_millis(5);
        let cfg = SignalResolutionConfig::default().with_noise_std(0.1);
        assert!(hash_ns_per_call(&tags, &[0.01], budget) > 0.0);
        assert!(synth_ns_per_call(&tags, &BTreeMap::new(), &cfg, budget) > 0.0);
        let hops = BTreeMap::from([(1, 3), (2, 1)]);
        assert!(resolve_ns_per_call(&tags, &hops, &cfg, budget) > 0.0);
        assert!(estimator_ns_per_call(&[(3, 10, 0.1)], 1.414, budget) > 0.0);
        assert!(parse_us_per_line(&["{\"tags\":5}".to_owned()], budget) > 0.0);
    }

    #[test]
    fn mix_cost_weights_by_count() {
        let mix = BTreeMap::from([(1, 3), (3, 1)]);
        assert_eq!(mix_cost(&mix, 9, f64::from), 1.5);
        assert_eq!(mix_cost(&BTreeMap::new(), 9, f64::from), 9.0);
    }
}
