//! Fidelity cross-checks: the slot-level abstraction (paper's simulation
//! model) must agree with the faithful hash-gated protocol and, at high
//! SNR, with the full signal-level DSP chain.

use anc_rfid::anc::{Fidelity, Membership, SignalLevelConfig};
use anc_rfid::prelude::*;
use anc_rfid::signal::{ChannelModel, MskConfig};

#[test]
fn sampled_and_hash_membership_agree_statistically() {
    let config = SimConfig::default().with_seed(21);
    let n = 2_000;
    let runs = 6;
    let sampled = run_many(&Fcat::new(FcatConfig::default()), n, runs, &config).expect("runs");
    let hashed = run_many(
        &Fcat::new(FcatConfig::default().with_membership(Membership::Hash)),
        n,
        runs,
        &config,
    )
    .expect("runs");
    let rel_tp = (sampled.throughput.mean - hashed.throughput.mean).abs() / sampled.throughput.mean;
    assert!(rel_tp < 0.04, "throughput mismatch {rel_tp}");
    let rel_slots =
        (sampled.total_slots.mean - hashed.total_slots.mean).abs() / sampled.total_slots.mean;
    assert!(rel_slots < 0.06, "slot-count mismatch {rel_slots}");
}

#[test]
fn signal_level_brackets_slot_level_at_high_snr() {
    // At 37 dB SNR the DSP chain resolves essentially every 2-collision —
    // so signal-level FCAT must be at least as fast as the slot-level
    // λ = 2 abstraction. It is in fact *faster*, for two physical reasons
    // the abstraction deliberately omits: (a) joint least-squares
    // subtraction peels k-collisions for any k once k−1 IDs are known
    // (the paper's "future ANC" regime), and (b) capture turns unbalanced
    // collisions into free singletons. Bracket it: above slot-λ2, below
    // the one-ID-per-slot physical ceiling.
    let n = 400;
    let runs = 4;
    let config = SimConfig::default().with_seed(31);
    let slot = run_many(&Fcat::new(FcatConfig::default()), n, runs, &config).expect("runs");
    let signal_cfg =
        FcatConfig::default().with_fidelity(Fidelity::SignalLevel(SignalLevelConfig {
            msk: MskConfig::default(),
            channel: ChannelModel::new((0.7, 1.0), 0.01),
        }));
    let signal = run_many(&Fcat::new(signal_cfg), n, runs, &config).expect("runs");
    assert!((signal.population - n as f64).abs() < 1e-12);
    assert!(
        signal.throughput.mean > slot.throughput.mean,
        "signal {} !> slot {}",
        signal.throughput.mean,
        slot.throughput.mean
    );
    let ceiling = 1e6 / config.timing().basic_slot_us(); // 1 ID per slot
    assert!(
        signal.throughput.mean < ceiling,
        "signal {} above physical ceiling {ceiling}",
        signal.throughput.mean
    );
    // And it pulls a large share of IDs out of collision records.
    assert!(signal.resolved_from_collisions.mean > 0.2 * n as f64);
}

/// Extension G's N = 50 row as a paired test: each pair runs slot-level
/// and signal-level FCAT-2 on the same population with the same config
/// seed, so the population's variance cancels from the difference. The
/// claim "signal-level reads at least slot-level throughput" fails only if
/// the mean paired difference lies more than 4 standard errors below
/// zero. These 100 pairs measure +1.78 tags/s with sd 2.83 (z = +6.3).
#[test]
fn signal_level_reads_at_least_slot_level_at_n50() {
    let n = 50;
    let pairs = 100u64;
    let signal_fcat = Fcat::new(FcatConfig::default().with_fidelity(Fidelity::SignalLevel(
        SignalLevelConfig {
            msk: MskConfig::default(),
            channel: ChannelModel::new((0.7, 1.0), 0.01),
        },
    )));
    let slot_fcat = Fcat::new(FcatConfig::default());
    let diffs: Vec<f64> = (0..pairs)
        .map(|i| {
            let seed = anc_rfid::sim::derive_seed(42, i);
            let tags = population::uniform(&mut seeded_rng(seed), n);
            let config = SimConfig::default().with_seed(seed);
            let read = |p: &Fcat| {
                let report = run_inventory(p, &tags, &config).expect("run");
                assert_eq!(report.identified, n);
                report.throughput_tags_per_sec
            };
            read(&signal_fcat) - read(&slot_fcat)
        })
        .collect();
    let count = diffs.len() as f64;
    let mean = diffs.iter().sum::<f64>() / count;
    let sd = (diffs.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / (count - 1.0)).sqrt();
    let se = sd / count.sqrt();
    assert!(
        mean >= -4.0 * se,
        "signal-level below slot-level at N = 50: mean paired difference {mean:.3} \
         tags/s, sd {sd:.3}, 4σ bound {:.3}",
        -4.0 * se
    );
}

#[test]
fn signal_level_low_snr_degrades() {
    // Noise at ~11 dB per component: many resolutions fail, throughput
    // drops well below the clean-channel level but inventory completes.
    let n = 200;
    let config = SimConfig::default().with_seed(41);
    let noisy_cfg = FcatConfig::default().with_fidelity(Fidelity::SignalLevel(SignalLevelConfig {
        msk: MskConfig::default(),
        channel: ChannelModel::new((0.7, 1.0), 0.2),
    }));
    let clean_cfg = FcatConfig::default().with_fidelity(Fidelity::SignalLevel(SignalLevelConfig {
        msk: MskConfig::default(),
        channel: ChannelModel::new((0.7, 1.0), 0.01),
    }));
    let noisy = run_many(&Fcat::new(noisy_cfg), n, 3, &config).expect("runs");
    let clean = run_many(&Fcat::new(clean_cfg), n, 3, &config).expect("runs");
    assert!(
        noisy.throughput.mean < clean.throughput.mean,
        "noisy {} !< clean {}",
        noisy.throughput.mean,
        clean.throughput.mean
    );
    // Noise burns more slots for the same population.
    assert!(noisy.total_slots.mean > clean.total_slots.mean);
}

/// A λ policy that moves λ at the first decision point after any one
/// resolution attempt: every residual SNR is below its demote threshold.
fn hair_trigger_lambda_policy() -> LambdaPolicy {
    LambdaPolicy::SnrWindow {
        min_lambda: 2,
        max_lambda: 4,
        window: 1,
        demote_below_db: 1e9,
        promote_above_db: 1e9,
    }
}

#[test]
fn signal_level_keeps_lambda_and_drops_failed_records() {
    // Signal-level records take no λ gate, so their resolution attempts
    // never reach the adaptive-λ controller, and failed records are dropped
    // whatever the recovery policy. The same policy at slot level with
    // signal-backed resolution does move λ.
    use anc_rfid::sim::obs::MetricsSink;
    use anc_rfid::sim::run_inventory_observed;

    let tags = population::uniform(&mut seeded_rng(43), 200);
    let config = SimConfig::default()
        .with_seed(43)
        .with_lambda_policy(hair_trigger_lambda_policy());
    let channel = ChannelModel::new((0.7, 1.0), 0.2);
    let signal_level = FcatConfig::default()
        .with_lambda(3)
        .with_recovery(RecoveryPolicy::requery())
        .with_fidelity(Fidelity::SignalLevel(SignalLevelConfig {
            msk: MskConfig::default(),
            channel: channel.clone(),
        }));
    let mut sink = MetricsSink::new();
    let report = run_inventory_observed(&Fcat::new(signal_level), &tags, &config, &mut sink)
        .expect("signal-level run");
    let metrics = sink.into_metrics();
    assert_eq!(report.identified, tags.len());
    assert!(metrics.resolution_attempts > 0, "no attempts observed");
    assert!(metrics.records_failed > 0, "no failures to re-query");
    assert_eq!(report.requery_slots, 0);
    assert_eq!(metrics.requeries_scheduled, 0);
    assert_eq!(report.lambda_trajectory.len(), 1, "λ moved");
    assert_eq!(report.lambda_trajectory[0].lambda, 3);

    let backed =
        FcatConfig::default()
            .with_lambda(3)
            .with_resolution(ResolutionModel::SignalBacked(SignalResolutionConfig {
                msk: MskConfig::default(),
                channel,
                residual_per_hop: 0.0,
            }));
    let report = run_inventory(&Fcat::new(backed), &tags, &config).expect("slot-level run");
    assert!(report.lambda_trajectory.len() > 1, "the policy never fired");
}

#[test]
fn message_level_fcat_differential_against_engine() {
    // With a clean channel both executions are deterministic functions of
    // the same hash tests, the same quantized probabilities, and the same
    // estimator updates — so the aggregate engine (Membership::Hash) and
    // the message-level reader/tag state machines must collect the same
    // set and differ in slot counts only by the termination tail (the
    // engine stops on ground truth; the device reader must observe an
    // all-empty frame plus an empty probe).
    use anc_rfid::anc::device::MessageLevelFcat;
    use anc_rfid::anc::InitialPopulation;

    for seed in [1u64, 7, 99] {
        let tags = population::uniform(&mut seeded_rng(seed), 500);
        let config = SimConfig::default().with_seed(seed);
        let base = FcatConfig::default().with_initial(InitialPopulation::Guess(512));
        let engine_report = run_inventory(
            &Fcat::new(base.clone().with_membership(Membership::Hash)),
            &tags,
            &config,
        )
        .expect("engine run");
        let device_report =
            run_inventory(&MessageLevelFcat::new(base), &tags, &config).expect("device run");

        assert_eq!(engine_report.identified, 500);
        assert_eq!(device_report.identified, 500);
        assert_eq!(engine_report.ids, device_report.ids, "seed {seed}");
        let diff = (device_report.slots.total() as i64 - engine_report.slots.total() as i64)
            .unsigned_abs();
        // Tail allowance: the rest of the final frame, one empty frame,
        // and the probe slot.
        assert!(
            diff <= 2 * 30 + 1,
            "seed {seed}: slot totals diverge by {diff} (engine {}, device {})",
            engine_report.slots.total(),
            device_report.slots.total()
        );
        // The productive prefix must agree: identical singleton counts and
        // near-identical collision counts.
        assert_eq!(
            engine_report.slots.singleton, device_report.slots.singleton,
            "seed {seed}"
        );
        assert!(
            (engine_report.slots.collision as i64 - device_report.slots.collision as i64).abs()
                <= 2,
            "seed {seed}: collisions {} vs {}",
            engine_report.slots.collision,
            device_report.slots.collision
        );
    }
}

#[test]
fn calibrated_cascade_model_tracks_waveform_path() {
    // The model tier compresses cascaded subtraction error into one
    // constant (CALIBRATED_RESIDUAL_PER_HOP, fitted by `repro calibrate`):
    // extra noise variance σ²·((1+r)^(d−1) − 1) at hop depth d. This
    // cross-check re-measures both tiers at points inside the calibration
    // grid and holds their decode-failure rates to the fitted agreement.
    use anc_rfid::signal::{anc, cascade};

    let points = [(0.15f64, 2u32), (0.2, 2), (0.2, 3), (0.25, 2)];
    let trials = 120u64;
    let msk = MskConfig::default();
    for (sigma, depth) in points {
        let model = ChannelModel::default().with_noise_std(sigma);
        let k = depth as usize + 1;

        // Waveform tier: sequential scalar-gain peeling of a (d+1)-mixture,
        // each hop's fit error riding into the next.
        let mut wave_fail = 0u32;
        for t in 0..trials {
            let mut rng = seeded_rng(0xF1DE ^ (u64::from(depth) << 32) ^ t);
            let ids: Vec<TagId> = population::uniform(&mut rng, k);
            let mixed = anc::transmit_mixed(&ids, &msk, &model, &mut rng);
            let attempt = cascade::peel_sequential(&mixed, &ids[..k - 1], &msk, sigma);
            if attempt.recovered != Ok(ids[k - 1]) {
                wave_fail += 1;
            }
        }

        // Model tier: one joint subtraction plus the calibrated
        // depth-dependent noise injection.
        let extra = cascade::cascade_noise_std(sigma, CALIBRATED_RESIDUAL_PER_HOP, depth);
        let mut model_fail = 0u32;
        for t in 0..trials {
            let mut rng = seeded_rng(0x0DE1 ^ (u64::from(depth) << 32) ^ t);
            let ids: Vec<TagId> = population::uniform(&mut rng, 2);
            let mixed = anc::transmit_mixed(&ids, &msk, &model, &mut rng);
            let attempt =
                cascade::resolve_cascaded(&mixed, &ids[..1], &msk, sigma, extra, &mut rng);
            if attempt.recovered != Ok(ids[1]) {
                model_fail += 1;
            }
        }

        let gap = (f64::from(wave_fail) - f64::from(model_fail)).abs() / trials as f64;
        assert!(
            gap <= 0.15,
            "sigma {sigma} depth {depth}: waveform {wave_fail}/{trials} vs model \
             {model_fail}/{trials}, gap {gap:.3} > 0.15"
        );
    }
}

#[test]
fn message_level_signal_backed_matches_ideal_at_high_snr() {
    // The device-plane reader honors the resolution model through
    // ReaderDevice::with_resolution. At ~43 dB SNR every signal-backed
    // attempt succeeds, and the resolution layer draws from a dedicated RNG
    // stream, so the run must be indistinguishable from the Ideal model —
    // same IDs in the same order, same slot count.
    use anc_rfid::anc::device::MessageLevelFcat;

    let tags = population::uniform(&mut seeded_rng(61), 400);
    let config = SimConfig::default().with_seed(13);
    let ideal = run_inventory(
        &MessageLevelFcat::new(FcatConfig::default()),
        &tags,
        &config,
    )
    .expect("ideal run");
    let backed_cfg = FcatConfig::default().with_resolution(ResolutionModel::SignalBacked(
        SignalResolutionConfig::default().with_noise_std(0.005),
    ));
    let backed =
        run_inventory(&MessageLevelFcat::new(backed_cfg), &tags, &config).expect("backed run");
    assert_eq!(ideal.identified, 400);
    assert_eq!(backed.identified, 400);
    assert_eq!(ideal.ids, backed.ids);
    assert_eq!(ideal.slots.total(), backed.slots.total());
}

#[test]
fn scat_and_fcat_agree_on_what_they_read() {
    // Same seed, same tags: both collision-aware protocols read the whole
    // population; FCAT is faster thanks to amortized advertisements.
    let tags = population::uniform(&mut seeded_rng(51), 3_000);
    let config = SimConfig::default().with_seed(3);
    let scat = run_inventory(&Scat::new(ScatConfig::default()), &tags, &config).expect("scat");
    let fcat = run_inventory(&Fcat::new(FcatConfig::default()), &tags, &config).expect("fcat");
    assert_eq!(scat.identified, 3_000);
    assert_eq!(fcat.identified, 3_000);
    assert!(
        fcat.throughput_tags_per_sec > scat.throughput_tags_per_sec,
        "fcat {} !> scat {}",
        fcat.throughput_tags_per_sec,
        scat.throughput_tags_per_sec
    );
}
