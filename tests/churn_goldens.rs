//! Golden-report guards for the dynamic-population (churn) layer.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Churn off is a strict no-op.** Replaying a static
//!    [`PopulationSchedule`] (same tags, one round) through
//!    [`run_monitoring`] must reproduce the *committed* fixed-population
//!    goldens under `tests/goldens/` byte-for-byte — the monitoring
//!    driver adds no RNG draws, no reordering, no float drift.
//! 2. **Monitoring under churn is frozen.** A seed matrix of Poisson
//!    churn runs (slot- and signal-level, FCAT and SCAT) is captured in
//!    `tests/goldens/churn_*.txt`; any change to event application
//!    order, detection accounting, or latency bookkeeping shows up as a
//!    byte difference.
//!
//! To (re)bless the churn goldens after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test churn_goldens
//! ```

use anc_rfid::anc::{Fcat, FcatConfig, Scat, ScatConfig, SignalLevelConfig};
use anc_rfid::prelude::*;
use anc_rfid::sim::rounds::{MultiRoundSession, StatelessSession};
use std::fmt::Write as _;
use std::path::PathBuf;

const SEEDS: std::ops::Range<u64> = 0..6;

/// Canonical form of one inventory report — byte-compatible with the
/// serialization in `tests/golden_reports.rs`, so static monitoring runs
/// can be diffed against the committed fixed-population goldens.
fn canonical_inventory(report: &InventoryReport) -> String {
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
    writeln!(
        s,
        "throughput_tags_per_sec: {:?}",
        report.throughput_tags_per_sec
    )
    .unwrap();
    let mut ids: Vec<TagId> = report.ids.iter().copied().collect();
    ids.sort_unstable();
    write!(s, "ids:").unwrap();
    for id in ids {
        write!(s, " {id}").unwrap();
    }
    writeln!(s).unwrap();
    s
}

/// Canonical form of a monitor report: totals, every round, every
/// detection. `{:?}` on `f64` prints the shortest round-tripping
/// representation, so accumulation-order drift is a byte difference.
fn canonical_monitor(report: &MonitorReport) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "population: initial={} seen={}",
        report.population_initial, report.population_seen
    )
    .unwrap();
    writeln!(
        s,
        "unique: {} present_at_end={} departed_after_read={}",
        report.unique, report.unique_present_at_end, report.unique_departed_after_read
    )
    .unwrap();
    writeln!(s, "elapsed_us: {:?}", report.elapsed_us).unwrap();
    for (round, r) in report.per_round.iter().enumerate() {
        let mut ids: Vec<TagId> = r.ids.iter().copied().collect();
        ids.sort_unstable();
        write!(
            s,
            "round {round}: identified={} slots={} elapsed_us={:?} ids:",
            r.identified,
            r.slots.total(),
            r.elapsed_us
        )
        .unwrap();
        for id in ids {
            write!(s, " {id}").unwrap();
        }
        writeln!(s).unwrap();
    }
    for d in &report.detections {
        writeln!(
            s,
            "detection: {:?} tag={} event_round={} detected_round={} \
             latency_rounds={} latency_us={:?}",
            d.kind, d.tag, d.event_round, d.detected_round, d.latency_rounds, d.latency_us
        )
        .unwrap();
    }
    s
}

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
}

/// Replays the exact population of a committed fixed-population golden
/// through the monitoring driver (static schedule, one round) and
/// asserts the per-round report is byte-identical to that golden.
fn check_noop<P>(golden: &str, protocol: P, n_tags: usize)
where
    P: AntiCollisionProtocol + Send + Sync,
{
    let mut session = StatelessSession::new(protocol);
    let mut actual = String::new();
    for seed in 0..5 {
        // Same tag stream as `tests/golden_reports.rs`.
        let tags = population::uniform(&mut seeded_rng(100 + seed), n_tags);
        let schedule = PopulationSchedule::from_tags(tags, 1);
        assert!(schedule.is_static());
        let config = SimConfig::default().with_seed(seed);
        let report = run_monitoring(&mut session, &schedule, &MonitorConfig::default(), &config)
            .expect("monitoring completes");
        assert!(
            report.detections.is_empty(),
            "static schedule detects nothing"
        );
        writeln!(actual, "# seed {seed}").unwrap();
        actual.push_str(&canonical_inventory(&report.per_round[0]));
    }
    let path = goldens_dir().join(format!("{golden}.txt"));
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed golden {}: {e}", path.display()));
    assert!(
        expected == actual,
        "churn-off monitoring drifted from the committed fixed-population \
         golden {} — the static schedule must be a strict no-op.\n\
         --- expected ---\n{expected}\n--- actual ---\n{actual}",
        path.display()
    );
}

#[test]
fn static_schedule_reproduces_fcat2_sampled_golden() {
    check_noop("fcat2_sampled", Fcat::new(FcatConfig::default()), 400);
}

#[test]
fn static_schedule_reproduces_fcat3_sampled_golden() {
    check_noop(
        "fcat3_sampled",
        Fcat::new(FcatConfig::default().with_lambda(3)),
        400,
    );
}

#[test]
fn static_schedule_reproduces_scat2_sampled_golden() {
    check_noop("scat2_sampled", Scat::new(ScatConfig::default()), 400);
}

#[test]
fn static_schedule_reproduces_fcat2_signal_golden() {
    check_noop(
        "fcat2_signal",
        Fcat::new(
            FcatConfig::default()
                .with_fidelity(anc_rfid::anc::Fidelity::SignalLevel(
                    SignalLevelConfig::default(),
                ))
                .with_initial(anc_rfid::anc::InitialPopulation::Known),
        ),
        60,
    );
}

/// Runs a churn-monitoring matrix cell for every seed and either
/// compares against or blesses the named golden file.
fn check_churn<S: MultiRoundSession>(name: &str, mut session: S) {
    let model = DwellModel::poisson(2.0, 5.0);
    let monitor = MonitorConfig {
        audit_every: 2,
        persistence: true,
    };
    let mut actual = String::new();
    for seed in SEEDS {
        let schedule = PopulationSchedule::generate(&model, 40, 8, seed);
        let config = SimConfig::default().with_seed(seed);
        let report = run_monitoring(&mut session, &schedule, &monitor, &config)
            .expect("monitoring completes");
        writeln!(actual, "# seed {seed}").unwrap();
        actual.push_str(&canonical_monitor(&report));
    }

    let path = goldens_dir().join(format!("{name}.txt"));
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(goldens_dir()).expect("create goldens dir");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); bless with UPDATE_GOLDENS=1 cargo test --test churn_goldens",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "churn monitoring for {name} drifted from the golden {}.\n\
         If this change is intentional, re-bless with UPDATE_GOLDENS=1.\n\
         --- expected ---\n{expected}\n--- actual ---\n{actual}",
        path.display()
    );
}

#[test]
fn churn_fcat2_matches_golden() {
    check_churn(
        "churn_fcat2",
        StatelessSession::new(Fcat::new(
            FcatConfig::default().with_lambda(2).with_frame_size(8),
        )),
    );
}

#[test]
fn churn_scat2_matches_golden() {
    check_churn(
        "churn_scat2",
        StatelessSession::new(Scat::new(ScatConfig::default())),
    );
}

#[test]
fn churn_fcat2_signal_matches_golden() {
    // Signal-backed resolution under churn pins the per-record noise
    // streams of the waveform path across rounds with changing
    // populations.
    check_churn(
        "churn_fcat2_signal",
        StatelessSession::new(Fcat::new(
            FcatConfig::default().with_frame_size(8).with_resolution(
                ResolutionModel::SignalBacked(
                    SignalResolutionConfig::default().with_noise_std(0.2),
                ),
            ),
        )),
    );
}
