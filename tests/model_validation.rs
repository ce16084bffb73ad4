//! The closed-form FCAT performance model must predict the simulator
//! across λ and frame size — the strongest whole-system consistency check
//! we have (analysis, protocol, and timing all have to line up).

use anc_rfid::analysis::optimal_omega;
use anc_rfid::analysis::throughput::{fcat_model, fcat_model_exact};
use anc_rfid::prelude::*;

#[test]
fn model_predicts_simulation_across_lambda_and_frame() {
    let timing = TimingConfig::philips_icode();
    let n = 4_000;
    for lambda in 2..=4u32 {
        for frame in [10u32, 30, 100] {
            let model = fcat_model(&timing, lambda, optimal_omega(lambda), frame);
            let cfg = FcatConfig::default()
                .with_lambda(lambda)
                .with_frame_size(frame);
            let agg =
                run_many(&Fcat::new(cfg), n, 4, &SimConfig::default().with_seed(2)).expect("runs");
            let rel = (agg.throughput.mean - model.throughput_tags_per_sec).abs()
                / model.throughput_tags_per_sec;
            // The model excludes two O(f) effects the simulation pays:
            // estimator convergence lag (fewer updates per run at large f)
            // and the termination cost (one all-empty frame plus probe).
            // Both grow with f; at f = 100 over N = 4 000 they are worth
            // ~9 %. Allow 10 %.
            assert!(
                rel < 0.10,
                "λ={lambda} f={frame}: model {:.1}, measured {:.1}, rel {rel:.3}",
                model.throughput_tags_per_sec,
                agg.throughput.mean
            );
            let resolved_fraction = agg.resolved_from_collisions.mean / n as f64;
            assert!(
                (resolved_fraction - model.resolved_fraction).abs() < 0.04,
                "λ={lambda} f={frame}: resolved {} vs model {}",
                resolved_fraction,
                model.resolved_fraction
            );
        }
    }
}

#[test]
fn exact_model_tracks_small_populations_better() {
    let timing = TimingConfig::philips_icode();
    let n = 200u64;
    let omega = optimal_omega(2);
    let poisson = fcat_model(&timing, 2, omega, 30);
    let exact = fcat_model_exact(&timing, n, 2, omega, 30);
    let agg = run_many(
        &Fcat::new(FcatConfig::default()),
        n as usize,
        8,
        &SimConfig::default().with_seed(5),
    )
    .expect("runs");
    let err_exact = (agg.throughput.mean - exact.throughput_tags_per_sec).abs();
    let err_poisson = (agg.throughput.mean - poisson.throughput_tags_per_sec).abs();
    // At N = 200, protocol overheads (estimator warm-up, termination) are
    // a visible fraction; both models overestimate, but the finite-N model
    // must not be worse.
    assert!(
        err_exact <= err_poisson + 1.0,
        "exact err {err_exact:.1} vs poisson err {err_poisson:.1} (measured {:.1})",
        agg.throughput.mean
    );
}

#[test]
fn scat_signal_level_completes() {
    use anc_rfid::anc::{Fidelity, SignalLevelConfig};
    let tags = population::uniform(&mut seeded_rng(13), 120);
    let cfg =
        ScatConfig::default().with_fidelity(Fidelity::SignalLevel(SignalLevelConfig::default()));
    let report = run_inventory(&Scat::new(cfg), &tags, &SimConfig::default()).expect("run");
    assert_eq!(report.identified, 120);
}

/// Expected slot count `L(n)` of binary tree splitting over `n` tags: the
/// root slot, then each of the two subtrees a fair coin splits the tags
/// into, `L(0) = L(1) = 1` and
/// `L(n) = 1 + Σ_k C(n,k)·2^-n·(L(k) + L(n−k))`. The `k = 0` and `k = n`
/// terms hold `L(n)` itself, so each step solves for it.
fn binary_splitting_slots(n: usize) -> f64 {
    let mut slots = vec![1.0f64; n.max(1) + 1];
    for m in 2..=n {
        let edge = 0.5f64.powi(m as i32); // C(m,0)·2^-m = C(m,m)·2^-m
        let mut p = edge;
        let mut inner = 0.0;
        for k in 1..m {
            p *= (m - k + 1) as f64 / k as f64;
            inner += p * (slots[k] + slots[m - k]);
        }
        slots[m] = (1.0 + inner + 2.0 * edge * slots[0]) / (1.0 - 2.0 * edge);
    }
    slots[n]
}

#[test]
fn binary_splitting_recursion_matches_hand_values() {
    assert_eq!(binary_splitting_slots(0), 1.0);
    assert_eq!(binary_splitting_slots(1), 1.0);
    // Two tags: the root collides; a 1/1 split costs two more slots, a
    // 2/0 split an empty slot and the same problem again.
    assert!((binary_splitting_slots(2) - 5.0).abs() < 1e-12);
    assert!((binary_splitting_slots(100) - 287.54).abs() < 0.005);
    assert!((binary_splitting_slots(500) - 1_441.70).abs() < 0.005);
}

#[test]
fn tree_splitting_matches_the_exact_recursion() {
    // ABS walks the splitting tree from the root, so its mean slot count
    // is L(n); AQS starts from the queue {0, 1}, skipping the root slot,
    // so it expects L(n) − 1. The tolerance is 4 standard errors of the
    // mean over the runs, from the sample standard deviation. At n = 100
    // the run count puts 4σ under one slot, so the root slot AQS skips
    // is resolved; at n = 500, 4σ is about 0.25 % of L(n).
    let abs = Abs::new();
    let aqs = Aqs::new();
    for (n, runs) in [(100usize, 8_000usize), (500, 2_000)] {
        let exact = binary_splitting_slots(n);
        let protocols: [(&str, &(dyn AntiCollisionProtocol + Sync), f64); 2] =
            [("ABS", &abs, exact), ("AQS", &aqs, exact - 1.0)];
        for (name, protocol, expected) in protocols {
            let config = SimConfig::default().with_seed(n as u64);
            let slots = run_many(protocol, n, runs, &config)
                .expect("runs")
                .total_slots;
            let bound = 4.0 * slots.std_dev / (runs as f64).sqrt();
            assert!(
                (slots.mean - expected).abs() <= bound,
                "{name} n={n}: mean {:.2} slots vs exact {expected:.2} (4σ = {bound:.2})",
                slots.mean
            );
        }
    }
}
