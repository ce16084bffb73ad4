//! Bit-identity guard for the data-oriented (SoA) signal-backed path.
//!
//! The goldens under `tests/goldens/soa_*.txt` are captured from the
//! counter-stream noise path: every AWGN realization is a pure function of
//! `(noise_seed, record, hop)`, so the report is invariant to draw order by
//! construction. The goldens pin the realizations themselves for FCAT and
//! SCAT at every `RecoveryPolicy`, across seeds 0–5 and at a noise level
//! high enough to exercise failed attempts, salvage retries and re-query
//! scheduling. `trace_goldens` pins the per-attempt events these
//! report-level goldens do not show.
//!
//! To (re)bless after an *intentional* behaviour change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test soa_bit_identity
//! ```

use anc_rfid::anc::{Fcat, FcatConfig, Scat, ScatConfig};
use anc_rfid::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;

const SEEDS: std::ops::Range<u64> = 0..6;

fn signal_backed(noise_std: f64) -> ResolutionModel {
    ResolutionModel::SignalBacked(SignalResolutionConfig::default().with_noise_std(noise_std))
}

/// Canonical, locale-free text form of a report; `{:?}` on `f64` prints
/// the shortest round-tripping representation, so any drift in
/// floating-point accumulation order shows up as a byte difference.
fn canonical(report: &InventoryReport) -> String {
    let mut s = String::new();
    writeln!(s, "protocol: {}", report.protocol).unwrap();
    writeln!(s, "population: {}", report.population_initial).unwrap();
    writeln!(s, "identified: {}", report.identified).unwrap();
    writeln!(
        s,
        "slots: empty={} singleton={} collision={}",
        report.slots.empty, report.slots.singleton, report.slots.collision
    )
    .unwrap();
    writeln!(
        s,
        "resolved_from_collisions: {}",
        report.resolved_from_collisions
    )
    .unwrap();
    writeln!(s, "duplicates_discarded: {}", report.duplicates_discarded).unwrap();
    writeln!(s, "elapsed_us: {:?}", report.elapsed_us).unwrap();
    let mut ids: Vec<TagId> = report.ids.iter().copied().collect();
    ids.sort_unstable();
    write!(s, "ids:").unwrap();
    for id in ids {
        write!(s, " {id}").unwrap();
    }
    writeln!(s).unwrap();
    s
}

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
}

fn check<P: AntiCollisionProtocol>(name: &str, protocol: &P, n_tags: usize) {
    let mut actual = String::new();
    for seed in SEEDS {
        let tags = population::uniform(&mut seeded_rng(700 + seed), n_tags);
        let config = SimConfig::default().with_seed(seed);
        let report = run_inventory(protocol, &tags, &config).expect("inventory completes");
        writeln!(actual, "# seed {seed}").unwrap();
        actual.push_str(&canonical(&report));
    }

    let path = goldens_dir().join(format!("{name}.txt"));
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(goldens_dir()).expect("create goldens dir");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); bless with UPDATE_GOLDENS=1 cargo test --test soa_bit_identity",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "report for {name} drifted from the per-record-path golden {}.\n\
         If this change is intentional, re-bless with UPDATE_GOLDENS=1.\n\
         --- expected ---\n{expected}\n--- actual ---\n{actual}",
        path.display()
    );
}

fn policies() -> [(&'static str, RecoveryPolicy); 3] {
    [
        ("drop", RecoveryPolicy::DropRecord),
        ("requery", RecoveryPolicy::requery()),
        ("salvage", RecoveryPolicy::SalvagePartial),
    ]
}

#[test]
fn fcat2_signal_backed_matches_per_record_goldens() {
    for (tag, policy) in policies() {
        check(
            &format!("soa_fcat2_signal_{tag}"),
            &Fcat::new(
                FcatConfig::default()
                    .with_resolution(signal_backed(0.35))
                    .with_recovery(policy),
            ),
            300,
        );
    }
}

#[test]
fn fcat3_signal_backed_matches_per_record_goldens() {
    // λ = 3 drives deeper cascades (hop ≥ 2), which is the only place the
    // per-hop residual noise streams fire — pinning the realizations of
    // every `(record, hop ≥ 2)` degradation stream, not just the hop-0
    // recording noise.
    for (tag, policy) in policies() {
        check(
            &format!("soa_fcat3_signal_{tag}"),
            &Fcat::new(
                FcatConfig::default()
                    .with_lambda(3)
                    .with_resolution(signal_backed(0.25))
                    .with_recovery(policy),
            ),
            300,
        );
    }
}

#[test]
fn scat2_signal_backed_matches_per_record_goldens() {
    for (tag, policy) in policies() {
        check(
            &format!("soa_scat2_signal_{tag}"),
            &Scat::new(
                ScatConfig::default()
                    .with_resolution(signal_backed(0.35))
                    .with_recovery(policy),
            ),
            300,
        );
    }
}

/// The eight-lane noise kernels (DESIGN.md §17) against their scalar
/// meanings: `simd::ln_into` against `f64::ln` bit for bit on 10^6
/// noise-domain values — the `s` of counter-stream polar candidates,
/// values just below 1, either side of powers of two and around the
/// smallest candidate `s = 2^-104` — and a whole noise pass against the
/// per-pair polar loop, end state included. CI's release job runs the
/// same `ln` comparison on 10^9 values.
#[test]
fn noise_kernels_match_their_scalar_meaning() {
    use anc_rfid::signal::{standard_normal_pair, ChannelModel, Complex};
    use anc_rfid::types::{simd, CounterRng};
    use rand::RngCore;

    let mut rng = CounterRng::new(2026);
    let mut words = vec![0u8; 16 * 4_000];
    let (mut us, mut vs, mut ss) = (vec![0.0; 4_000], vec![0.0; 4_000], vec![0.0; 4_000]);
    let mut xs = Vec::with_capacity(1_000_000);
    while xs.len() < 1_000_000 {
        rng.fill_bytes(&mut words);
        let accepted = simd::polar_candidates(&words, &mut us, &mut vs, &mut ss);
        xs.extend_from_slice(&ss[..accepted]);
        for _ in 0..1_000 {
            let w = rng.next_u64();
            let near = (w >> 54) as i64 - 512;
            let e = (w % 105) as i32;
            xs.push(f64::from_bits(1f64.to_bits() - 1 - (w >> 44)));
            xs.push(f64::from_bits(
                (2f64.powi(-e).to_bits() as i64 + near) as u64,
            ));
            xs.push(f64::from_bits(
                (2f64.powi(-104).to_bits() as i64 + near) as u64,
            ));
        }
    }
    let mut logs = vec![0.0; xs.len()];
    simd::ln_into(&xs, &mut logs);
    for (x, l) in xs.iter().zip(&logs) {
        assert_eq!(
            l.to_bits(),
            x.ln().to_bits(),
            "ln({x:e}) on {}",
            anc_rfid::types::hash::membership_kernel()
        );
    }

    let model = ChannelModel::default().with_noise_std(0.2);
    for (stream, len) in [(1u64, 0usize), (2, 1), (3, 17), (4, 769), (5, 5_000)] {
        let mut noisy = vec![Complex::ZERO; len];
        let mut fast = CounterRng::new(stream);
        model.add_noise(&mut noisy, &mut fast);
        let mut slow = CounterRng::new(stream);
        for (i, z) in noisy.iter().enumerate() {
            let (re, im) = standard_normal_pair(&mut slow);
            let want = Complex::new(0.2 * re, 0.2 * im);
            assert_eq!(
                (z.re.to_bits(), z.im.to_bits()),
                (want.re.to_bits(), want.im.to_bits()),
                "{i}"
            );
        }
        assert_eq!(fast.next_u64(), slow.next_u64(), "end state, len {len}");
    }
}
