//! Property test: the incremental cascade in `CollisionRecordStore` must
//! compute exactly the same knowledge closure as a brute-force fixpoint
//! oracle, for arbitrary record structures and learn orders.

use anc_rfid::anc::CollisionRecordStore;
use anc_rfid::types::TagId;
use proptest::prelude::*;
use std::collections::HashSet;

/// Reference semantics: repeatedly scan all records; any usable record
/// with exactly one unknown participant yields that participant; iterate
/// to fixpoint.
fn oracle_closure(
    records: &[(Vec<u128>, bool)],
    initially_known: &[u128],
    lambda: usize,
) -> HashSet<u128> {
    let mut known: HashSet<u128> = initially_known.iter().copied().collect();
    let mut consumed = vec![false; records.len()];
    loop {
        let mut progress = false;
        for (idx, (participants, usable)) in records.iter().enumerate() {
            if consumed[idx] {
                continue;
            }
            let unknowns: Vec<u128> = participants
                .iter()
                .copied()
                .filter(|t| !known.contains(t))
                .collect();
            if unknowns.is_empty() {
                consumed[idx] = true;
                continue;
            }
            if unknowns.len() == 1 && *usable && participants.len() <= lambda {
                known.insert(unknowns[0]);
                consumed[idx] = true;
                progress = true;
            }
        }
        if !progress {
            return known;
        }
    }
}

/// Random record structures: participants drawn from a small tag universe
/// so that overlaps and chains occur frequently.
#[allow(clippy::type_complexity)]
fn record_strategy() -> impl Strategy<Value = (Vec<(Vec<u128>, bool)>, Vec<u128>, usize)> {
    let record = (
        proptest::collection::hash_set(0u128..20, 1..5),
        proptest::bool::weighted(0.85),
    )
        .prop_map(|(set, usable)| (set.into_iter().collect::<Vec<u128>>(), usable));
    (
        proptest::collection::vec(record, 0..25),
        proptest::collection::vec(0u128..20, 0..10),
        2usize..5,
    )
}

/// A record deposited with the same tag repeated must act on the distinct
/// participant set: `{a, a, b}` is the two-collision `{a, b}`, so learning
/// `a` resolves `b` — the duplicate must not inflate the unknown count and
/// strand the record.
#[test]
fn duplicate_participants_resolve_as_distinct_set() {
    let mut store = CollisionRecordStore::slot_level(2);
    let a = TagId::from_payload(1);
    let b = TagId::from_payload(2);
    assert!(store.add_record(0, vec![a, a, b], true).is_empty());
    let resolved = store.learn(a);
    assert_eq!(resolved.len(), 1);
    assert_eq!(resolved[0].tag, b);
    assert_eq!(store.outstanding(), 0);
}

/// A record whose other participants are all known at deposit time must
/// resolve its single unknown immediately, from `add_record` itself, and
/// a record that is *entirely* known must be dropped rather than counted
/// as outstanding.
#[test]
fn participants_known_at_insert_resolve_immediately() {
    let mut store = CollisionRecordStore::slot_level(3);
    let known = TagId::from_payload(10);
    let unknown = TagId::from_payload(11);
    assert!(store.learn(known).is_empty());

    let resolved = store.add_record(0, vec![known, unknown], true);
    assert_eq!(resolved.len(), 1);
    assert_eq!(resolved[0].tag, unknown);
    assert_eq!(store.outstanding(), 0);

    // Fully known at insert: nothing new, nothing left outstanding.
    assert!(store.add_record(1, vec![known, unknown], true).is_empty());
    assert_eq!(store.outstanding(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cascade_matches_fixpoint_oracle(
        (records, learn_order, lambda) in record_strategy(),
    ) {
        let mut store = CollisionRecordStore::slot_level(lambda as u32);
        let mut known: HashSet<u128> = HashSet::new();

        // Interleave record deposits and singleton learns in a fixed
        // pattern derived from the inputs, collecting everything the
        // store reports as learned.
        let mut learn_iter = learn_order.iter();
        for (slot, (participants, usable)) in records.iter().enumerate() {
            let tags: Vec<TagId> = participants
                .iter()
                .map(|&p| TagId::from_payload(p))
                .collect();
            for r in store.add_record(slot as u64, tags, *usable) {
                known.insert(r.tag.payload());
            }
            if let Some(&learn) = learn_iter.next() {
                known.insert(learn);
                for r in store.learn(TagId::from_payload(learn)) {
                    known.insert(r.tag.payload());
                }
            }
        }
        for &learn in learn_iter {
            known.insert(learn);
            for r in store.learn(TagId::from_payload(learn)) {
                known.insert(r.tag.payload());
            }
        }

        // The oracle sees all records at once and the full learn set; the
        // incremental store interleaved them — the closure must agree
        // because resolution is monotone.
        let expected = oracle_closure(&records, &learn_order, lambda);
        prop_assert_eq!(known, expected);
    }

    #[test]
    fn duplicated_participants_match_deduplicated_oracle(
        records in proptest::collection::vec(
            (proptest::collection::vec(0u128..10, 1..6), proptest::bool::weighted(0.85)),
            0..20,
        ),
        learn_order in proptest::collection::vec(0u128..10, 0..8),
        lambda in 2usize..5,
    ) {
        // Participants drawn with replacement from a tiny universe, so
        // repeats are common: the store must behave exactly as if each
        // record had been deposited with its distinct participant set.
        let deduped: Vec<(Vec<u128>, bool)> = records
            .iter()
            .map(|(p, usable)| {
                let mut seen = HashSet::new();
                (
                    p.iter().copied().filter(|&t| seen.insert(t)).collect(),
                    *usable,
                )
            })
            .collect();
        let mut store = CollisionRecordStore::slot_level(lambda as u32);
        let mut known: HashSet<u128> = HashSet::new();
        for (slot, (participants, usable)) in records.iter().enumerate() {
            let tags: Vec<TagId> = participants
                .iter()
                .map(|&p| TagId::from_payload(p))
                .collect();
            for r in store.add_record(slot as u64, tags, *usable) {
                known.insert(r.tag.payload());
            }
        }
        for &learn in &learn_order {
            known.insert(learn);
            for r in store.learn(TagId::from_payload(learn)) {
                known.insert(r.tag.payload());
            }
        }
        let expected = oracle_closure(&deduped, &learn_order, lambda);
        prop_assert_eq!(known, expected);
    }

    #[test]
    fn resolved_tags_are_always_record_participants(
        (records, learn_order, lambda) in record_strategy(),
    ) {
        let participants_union: HashSet<u128> = records
            .iter()
            .flat_map(|(p, _)| p.iter().copied())
            .collect();
        let mut store = CollisionRecordStore::slot_level(lambda as u32);
        for (slot, (participants, usable)) in records.iter().enumerate() {
            let tags: Vec<TagId> = participants
                .iter()
                .map(|&p| TagId::from_payload(p))
                .collect();
            for r in store.add_record(slot as u64, tags, *usable) {
                prop_assert!(participants_union.contains(&r.tag.payload()));
            }
        }
        for &learn in &learn_order {
            for r in store.learn(TagId::from_payload(learn)) {
                prop_assert!(participants_union.contains(&r.tag.payload()));
                prop_assert_ne!(r.tag.payload(), learn);
            }
        }
    }
}
