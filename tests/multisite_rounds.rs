//! Integration of the two workload drivers (§II-A multi-location sweeps,
//! §I periodic rounds) with the real protocols.

use anc_rfid::prelude::*;
use anc_rfid::sim::rounds::{MultiRoundSession, StatelessSession};
use anc_rfid::sim::{multi_site_inventory, Deployment};

#[test]
fn fcat_multi_site_sweep_covers_warehouse() {
    let mut rng = seeded_rng(77);
    let deployment = Deployment::uniform(&mut rng, 2_000, 60.0, 60.0);
    let positions = deployment.grid_positions(30.0);
    let report = multi_site_inventory(
        &Fcat::new(FcatConfig::default()),
        &deployment,
        &positions,
        30.0,
        &SimConfig::default().with_seed(5),
    )
    .expect("sweep succeeds");
    assert_eq!(report.unique_tags, 2_000);
    assert_eq!(report.uncovered, 0);
    assert!(report.cross_site_duplicates > 0);
    assert_eq!(report.per_site.len(), positions.len());
    // Effective throughput is below single-site throughput because the
    // overlap tags are read (and discarded) more than once.
    assert!(report.effective_throughput() < 210.0);
    assert!(report.effective_throughput() > 60.0);
}

#[test]
fn coverage_gap_detected() {
    let mut rng = seeded_rng(78);
    let deployment = Deployment::uniform(&mut rng, 1_000, 100.0, 100.0);
    let report = multi_site_inventory(
        &Dfsa::new(),
        &deployment,
        &[(25.0, 25.0)],
        20.0,
        &SimConfig::default(),
    )
    .expect("sweep succeeds");
    assert!(report.uncovered > 0);
    assert_eq!(report.unique_tags + report.uncovered, 1_000);
}

/// The churn row "each present tag leaves after a round with probability
/// `departure`, `arrivals` tags arrive per round" as a schedule: an
/// exponential dwell with mean -1/ln(1 - departure), rounded up to whole
/// rounds, is geometric with exactly that per-round departure chance.
fn churn_schedule(
    initial: usize,
    rounds: usize,
    departure: f64,
    arrivals: f64,
    seed: u64,
) -> PopulationSchedule {
    let model = DwellModel::poisson(arrivals, -1.0 / (1.0 - departure).ln());
    PopulationSchedule::generate(&model, initial, rounds, seed)
}

#[test]
fn rounds_with_real_protocols_and_errors() {
    use anc_rfid::sim::ErrorModel;
    let config = SimConfig::default()
        .with_seed(9)
        .with_errors(ErrorModel::new(0.1, 0.05, 0.2));
    let schedule = churn_schedule(500, 4, 0.1, 50.0, config.seed());
    for session_factory in 0..3 {
        let mut session: Box<dyn MultiRoundSession> = match session_factory {
            0 => Box::new(anc_rfid::anc::FcatSession::new(FcatConfig::default())),
            1 => Box::new(anc_rfid::protocols::AbsSession::new()),
            _ => Box::new(StatelessSession::new(Dfsa::new())),
        };
        let report = run_monitoring(
            session.as_mut(),
            &schedule,
            &MonitorConfig::default(),
            &config,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", session_factory));
        assert_eq!(report.per_round.len(), 4);
        // With errors enabled, each round must still read its population
        // (run_monitoring only enforces this on clean channels, so check
        // explicitly).
        for (round, (r, n)) in report
            .per_round
            .iter()
            .zip(&report.population_per_round)
            .enumerate()
        {
            assert_eq!(r.identified, *n, "session {session_factory} round {round}");
        }
    }
}

#[test]
fn session_trajectories_are_comparable() {
    // All sessions see the identical population trajectory for one seed:
    // the same count and, since every round reads everyone, the same tags.
    let config = SimConfig::default().with_seed(3);
    let schedule = churn_schedule(300, 3, 0.2, 25.0, config.seed());
    let mut a = StatelessSession::new(Dfsa::new());
    let mut b = anc_rfid::anc::FcatSession::new(FcatConfig::default());
    let ra = run_monitoring(&mut a, &schedule, &MonitorConfig::default(), &config).expect("a");
    let rb = run_monitoring(&mut b, &schedule, &MonitorConfig::default(), &config).expect("b");
    assert_eq!(ra.population_per_round, rb.population_per_round);
    for (round, (x, y)) in ra.per_round.iter().zip(&rb.per_round).enumerate() {
        assert_eq!(x.ids, y.ids, "round {round}");
    }
}

#[test]
fn churned_rounds_are_deterministic_per_seed() {
    // Same seed ⇒ identical population trajectory AND identical per-round
    // reports, slot for slot — the schedule (departures, arrivals) and the
    // per-round protocol RNG all derive from the run seed.
    let run = |seed: u64| {
        let mut session = StatelessSession::new(Fcat::new(FcatConfig::default()));
        run_monitoring(
            &mut session,
            &churn_schedule(300, 4, 0.3, 40.0, seed),
            &MonitorConfig::default(),
            &SimConfig::default().with_seed(seed),
        )
        .expect("rounds complete")
    };
    let a = run(19);
    let b = run(19);
    assert_eq!(a.population_per_round, b.population_per_round);
    assert_eq!(a.per_round, b.per_round, "same seed must replay exactly");
    let c = run(20);
    assert_ne!(
        a.per_round, c.per_round,
        "different seeds should churn differently"
    );
}
