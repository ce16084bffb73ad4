//! Cross-crate completeness invariants: with a clean channel every
//! protocol in the workspace must identify every tag, exactly once, for a
//! range of population sizes, population shapes, and seeds.

use anc_rfid::prelude::*;
use anc_rfid::protocols::Gen2Q;
use anc_rfid::sim::AntiCollisionProtocol;

fn all_protocols() -> Vec<Box<dyn AntiCollisionProtocol + Sync>> {
    vec![
        Box::new(Fcat::new(FcatConfig::default())),
        Box::new(Fcat::new(FcatConfig::default().with_lambda(3))),
        Box::new(Fcat::new(FcatConfig::default().with_lambda(4))),
        Box::new(MessageLevelFcat::new(FcatConfig::default())),
        Box::new(Scat::new(ScatConfig::default())),
        Box::new(Dfsa::new()),
        Box::new(Edfsa::new()),
        Box::new(Crdsa::new()),
        Box::new(Gen2Q::new()),
        Box::new(Abs::new()),
        Box::new(Aqs::new()),
        Box::new(QueryTree::new()),
        Box::new(SlottedAloha::new()),
    ]
}

#[test]
fn every_protocol_reads_every_tag() {
    let config = SimConfig::default().with_seed(1);
    for &n in &[1usize, 2, 3, 17, 100, 1_000] {
        let tags = population::uniform(&mut seeded_rng(n as u64), n);
        for protocol in all_protocols() {
            let report = run_inventory(protocol.as_ref(), &tags, &config)
                .unwrap_or_else(|e| panic!("{} at n={n}: {e}", protocol.name()));
            assert_eq!(report.identified, n, "{} at n={n}", protocol.name());
            assert_eq!(
                report.duplicates_discarded,
                0,
                "{} at n={n}",
                protocol.name()
            );
            // Every identified tag is a real tag.
            for tag in &tags {
                assert!(report.contains(*tag), "{} missing {tag}", protocol.name());
            }
        }
    }
}

#[test]
fn every_protocol_handles_empty_population() {
    let config = SimConfig::default();
    for protocol in all_protocols() {
        let report = run_inventory(protocol.as_ref(), &[], &config)
            .unwrap_or_else(|e| panic!("{}: {e}", protocol.name()));
        assert_eq!(report.identified, 0, "{}", protocol.name());
    }
}

#[test]
fn sequential_and_clustered_populations() {
    // ID structure must not break anything (query trees are the sensitive
    // ones; collision-aware hashing must not care either).
    let config = SimConfig::default().with_seed(3);
    let sequential = population::sequential(1 << 40, 300);
    let clustered = population::clustered(&mut seeded_rng(9), 300, 7);
    for tags in [&sequential, &clustered] {
        for protocol in all_protocols() {
            let report = run_inventory(protocol.as_ref(), tags.as_slice(), &config)
                .unwrap_or_else(|e| panic!("{}: {e}", protocol.name()));
            assert_eq!(report.identified, 300, "{}", protocol.name());
        }
    }
}

#[test]
fn reports_are_reproducible_for_fixed_seed() {
    let tags = population::uniform(&mut seeded_rng(5), 500);
    let config = SimConfig::default().with_seed(77);
    for protocol in all_protocols() {
        let a = run_inventory(protocol.as_ref(), &tags, &config).expect("run a");
        let b = run_inventory(protocol.as_ref(), &tags, &config).expect("run b");
        assert_eq!(a, b, "{} not reproducible", protocol.name());
    }
}

#[test]
fn different_seeds_differ() {
    let tags = population::uniform(&mut seeded_rng(5), 500);
    let a = run_inventory(
        &Fcat::new(FcatConfig::default()),
        &tags,
        &SimConfig::default().with_seed(1),
    )
    .expect("run");
    let b = run_inventory(
        &Fcat::new(FcatConfig::default()),
        &tags,
        &SimConfig::default().with_seed(2),
    )
    .expect("run");
    assert_ne!(a.slots, b.slots);
}

#[test]
fn elapsed_time_consistent_with_slots() {
    // Air time >= slots × basic slot length (advertisements only add).
    let tags = population::uniform(&mut seeded_rng(6), 400);
    let config = SimConfig::default();
    for protocol in all_protocols() {
        let report = run_inventory(protocol.as_ref(), &tags, &config).expect("run");
        let floor = report.slots.total() as f64 * config.timing().basic_slot_us();
        assert!(
            report.elapsed_us >= floor - 1e-6,
            "{}: elapsed {} < slots floor {floor}",
            protocol.name(),
            report.elapsed_us
        );
        // ... and not absurdly larger (advertisement overhead is bounded
        // by one advertisement per slot).
        let ceiling = floor
            + report.slots.total() as f64 * config.timing().advertisement_us()
            + report.identified as f64 * config.timing().id_ack_us()
            + 1e6; // pre-step allowance
        assert!(
            report.elapsed_us <= ceiling,
            "{}: elapsed {} > ceiling {ceiling}",
            protocol.name(),
            report.elapsed_us
        );
    }
}

/// The hash width must cover the population: FCAT-2 and SCAT-2 run at
/// report probability `ω*/N`, and an `l`-bit threshold realizes nothing
/// below `2^-l`, so both refuse `N > ⌊ω*·2^l⌋` with a typed error under
/// either membership. At `l = 8` the cliff sits at `⌊ω*·256⌋ = 362`
/// tags: 362 run to completion and 363 are refused.
#[test]
fn hash_width_must_cover_the_population() {
    use anc_rfid::analysis::omega::optimal_omega;
    use anc_rfid::anc::Membership;
    use anc_rfid::sim::SimError;
    let config = SimConfig::default().with_seed(5).with_hash_bits(8);
    let max = (optimal_omega(2) * 256.0).floor() as usize;
    assert_eq!(max, 362);
    for membership in [Membership::Sampled, Membership::Hash] {
        let protocols: [Box<dyn AntiCollisionProtocol>; 2] = [
            Box::new(Fcat::new(FcatConfig::default().with_membership(membership))),
            Box::new(Scat::new(ScatConfig::default().with_membership(membership))),
        ];
        for protocol in &protocols {
            let fits = population::uniform(&mut seeded_rng(1), max);
            let report = run_inventory(protocol.as_ref(), &fits, &config)
                .unwrap_or_else(|e| panic!("{} {membership:?}: {e}", protocol.name()));
            assert_eq!(report.identified, max);
            let over = population::uniform(&mut seeded_rng(1), max + 1);
            match run_inventory(protocol.as_ref(), &over, &config) {
                Err(SimError::HashWidthExceeded {
                    tags,
                    hash_bits,
                    max_tags,
                }) => assert_eq!((tags, hash_bits, max_tags), (max + 1, 8, max as u64)),
                other => panic!("{} {membership:?}: {other:?}", protocol.name()),
            }
        }
    }
}
