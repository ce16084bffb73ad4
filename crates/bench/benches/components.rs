//! Criterion microbenchmarks for the hot components: CRC, population
//! generation, slot hash, the hash-membership scan, MSK
//! modulation/demodulation, the signal-tier noise/reference/demod kernels,
//! ANC resolution, record-store cascade, and the frame estimator.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rfid_anc::CollisionRecordStore;
use rfid_signal::{anc, cascade, ChannelModel, Complex, MskConfig, MskDemodulator, MskModulator};
use rfid_sim::{noise_stream_seed, seeded_rng, CounterRng};
use rfid_types::{crc, hash, population, TagId};

fn bench_crc(c: &mut Criterion) {
    let id = TagId::from_payload(0xDEAD_BEEF_CAFE);
    c.bench_function("crc16_value_96bit", |b| {
        b.iter(|| crc::crc16_value(black_box(id.raw_bits()), 96));
    });
}

/// The per-tag fixed cost every served site and `run_many` repetition pays
/// before its first slot: one CRC and one dedup insert per generated tag.
fn bench_population(c: &mut Criterion) {
    let mut seed = 0u64;
    c.bench_function("population_uniform_2000", |b| {
        b.iter(|| {
            seed += 1;
            population::uniform(&mut seeded_rng(seed), black_box(2_000))
        });
    });
}

fn bench_hash(c: &mut Criterion) {
    let id = TagId::from_payload(0x1234_5678);
    c.bench_function("slot_hash", |b| {
        b.iter(|| hash::slot_hash(black_box(id), black_box(12345)));
    });
}

/// One slot of the hash-membership scan at the `inventory-hash` workload's
/// typical live population: 2 900 tags, p ≈ 1.414/2 900, l = 16.
fn bench_membership_scan(c: &mut Criterion) {
    let n = 2_900u32;
    let states: Vec<hash::TagHashState> = population::uniform(&mut seeded_rng(5), n as usize)
        .into_iter()
        .map(hash::TagHashState::new)
        .collect();
    let ids: Vec<u32> = (0..n).collect();
    let threshold = hash::probability_threshold(1.414 / f64::from(n), 16);
    let mut out = Vec::new();
    let mut slot = 0u64;
    c.bench_function("membership_scan_2900", |b| {
        b.iter(|| {
            slot += 1;
            out.clear();
            hash::transmitters_into(&states, &ids, black_box(slot), threshold, 16, &mut out);
            black_box(&out);
        });
    });
}

fn bench_msk(c: &mut Criterion) {
    let cfg = MskConfig::default();
    let id = TagId::from_payload(0xA5A5);
    let bits = id.to_bits();
    let modulator = MskModulator::new(cfg.clone());
    let wave = modulator.modulate(&bits, 1.0, 0.3);
    let demodulator = MskDemodulator::new(cfg);
    c.bench_function("msk_modulate_96bit", |b| {
        b.iter(|| modulator.modulate(black_box(&bits), 1.0, 0.3));
    });
    c.bench_function("msk_demodulate_96bit", |b| {
        b.iter(|| demodulator.demodulate(black_box(&wave)));
    });
}

/// The three signal-tier kernels of a record's life: the reference a
/// cache miss modulates, the per-hop noise a cascaded attempt draws on
/// its counter stream, and the demodulation of the residual.
fn bench_signal_kernels(c: &mut Criterion) {
    let cfg = MskConfig::default();
    let bits = TagId::from_payload(0xA5A5).to_bits();
    let modulator = MskModulator::new(cfg.clone());
    let mut span = vec![Complex::ZERO; cfg.samples_for_bits(bits.len())];
    c.bench_function("msk_reference_to_slice_96bit", |b| {
        b.iter(|| {
            modulator.reference_to_slice(black_box(&bits), &mut span);
            black_box(&span);
        });
    });

    let mixed = anc::transmit_mixed(
        &[TagId::from_payload(1), TagId::from_payload(2)],
        &cfg,
        &ChannelModel::default().noiseless(),
        &mut seeded_rng(4),
    );
    let mut degraded = Vec::new();
    let mut record = 0u64;
    c.bench_function("cascade_degrade_into_769", |b| {
        b.iter(|| {
            record += 1;
            let mut rng = CounterRng::new(noise_stream_seed(1, record, 2));
            cascade::degrade_into(black_box(&mixed), 0.1, &mut rng, &mut degraded);
            black_box(&degraded);
        });
    });

    let demodulator = MskDemodulator::new(cfg);
    let mut decoded = Vec::new();
    c.bench_function("msk_demodulate_into_96bit", |b| {
        b.iter(|| {
            demodulator.demodulate_into(black_box(&degraded), &mut decoded);
            black_box(&decoded);
        });
    });
}

fn bench_anc_resolve(c: &mut Criterion) {
    let cfg = MskConfig::default();
    let model = ChannelModel::default();
    let mut rng = seeded_rng(1);
    let t1 = TagId::from_payload(1);
    let t2 = TagId::from_payload(2);
    let t3 = TagId::from_payload(3);
    let mixed2 = anc::transmit_mixed(&[t1, t2], &cfg, &model, &mut rng);
    let mixed3 = anc::transmit_mixed(&[t1, t2, t3], &cfg, &model, &mut rng);
    c.bench_function("anc_resolve_2collision", |b| {
        b.iter(|| anc::resolve(black_box(&mixed2), &[t1], &cfg));
    });
    c.bench_function("anc_resolve_3collision", |b| {
        b.iter(|| anc::resolve(black_box(&mixed3), &[t1, t2], &cfg));
    });
}

fn bench_record_cascade(c: &mut Criterion) {
    c.bench_function("record_store_chain_cascade_1000", |b| {
        b.iter(|| {
            // A 1000-link chain of 2-collision records resolved by one
            // singleton — worst-case cascade depth.
            let mut store = CollisionRecordStore::slot_level(2);
            for i in 0..1000u128 {
                store.add_record(
                    i as u64,
                    vec![TagId::from_payload(i), TagId::from_payload(i + 1)],
                    true,
                );
            }
            let resolved = store.learn(TagId::from_payload(0));
            assert_eq!(resolved.len(), 1000);
        });
    });
}

fn bench_estimator(c: &mut Criterion) {
    c.bench_function("estimate_remaining_from_collisions", |b| {
        b.iter(|| {
            rfid_analysis::estimator::estimate_remaining_from_collisions(
                black_box(13),
                30,
                1.414e-4,
                1.414,
            )
        });
    });
}

fn bench_energy_estimator(c: &mut Criterion) {
    let cfg = MskConfig::default();
    let model = ChannelModel::default();
    let mut rng = seeded_rng(2);
    let t1 = TagId::from_payload(0x1111);
    let t2 = TagId::from_payload(0x2222);
    let mixed = anc::transmit_mixed(&[t1, t2], &cfg, &model, &mut rng);
    c.bench_function("energy_estimate_two_amplitudes", |b| {
        b.iter(|| anc::estimate_two_amplitudes(black_box(&mixed)));
    });
}

fn bench_binomial_sampling(c: &mut Criterion) {
    let mut rng = seeded_rng(3);
    c.bench_function("sample_binomial_n20000_p1e-4", |b| {
        b.iter(|| rfid_sim::sampling::sample_binomial(black_box(20_000), 1.414e-4, &mut rng));
    });
}

criterion_group!(
    benches,
    bench_crc,
    bench_population,
    bench_hash,
    bench_membership_scan,
    bench_msk,
    bench_signal_kernels,
    bench_anc_resolve,
    bench_energy_estimator,
    bench_binomial_sampling,
    bench_record_cascade,
    bench_estimator
);
criterion_main!(benches);
