//! FCAT across periodic inventory rounds: estimator warm-starting.
//!
//! FCAT has no tree to preserve, but its embedded estimator's convergence
//! cost *can* be carried over: the previous round's final population count
//! is an excellent prior for the next round under moderate churn, so a
//! warm session skips the cold-start frames a fresh `Guess` pays.

use crate::{Fcat, FcatConfig, InitialPopulation, Scat, ScatConfig};
use rand::rngs::StdRng;
use rfid_sim::rounds::MultiRoundSession;
use rfid_sim::{AntiCollisionProtocol, InventoryReport, SimConfig, SimError};
use rfid_types::TagId;

/// Session-state FCAT: each round bootstraps its population estimate from
/// the previous round's identified count.
///
/// # Example
///
/// ```
/// use rfid_anc::{FcatConfig, FcatSession};
/// use rfid_sim::{run_monitoring, DwellModel, MonitorConfig, PopulationSchedule, SimConfig};
///
/// // 500 tags; 50 arrive per round and each stays 10 rounds on average.
/// let schedule = PopulationSchedule::generate(&DwellModel::poisson(50.0, 10.0), 500, 3, 0);
/// let mut session = FcatSession::new(FcatConfig::default());
/// let report = run_monitoring(&mut session, &schedule, &MonitorConfig::default(),
///                             &SimConfig::default())?;
/// assert_eq!(report.per_round.len(), 3);
/// # Ok::<(), rfid_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FcatSession {
    base: FcatConfig,
    last_count: Option<usize>,
    name: String,
}

impl FcatSession {
    /// Creates a cold session; the first round uses `base`'s own
    /// initial-population setting.
    #[must_use]
    pub fn new(base: FcatConfig) -> Self {
        let name = format!("FCAT-{}-session", base.lambda());
        FcatSession {
            base,
            last_count: None,
            name,
        }
    }

    /// The estimate the next round will start from, if warmed.
    #[must_use]
    pub fn warm_estimate(&self) -> Option<usize> {
        self.last_count
    }
}

impl MultiRoundSession for FcatSession {
    fn name(&self) -> &str {
        &self.name
    }

    fn run_round(
        &mut self,
        tags: &[TagId],
        config: &SimConfig,
        rng: &mut StdRng,
    ) -> Result<InventoryReport, SimError> {
        let cfg = match self.last_count {
            Some(count) => self
                .base
                .clone()
                .with_initial(InitialPopulation::Guess(count.max(1) as u32)),
            None => self.base.clone(),
        };
        let report = Fcat::new(cfg).run(tags, config, rng)?;
        self.last_count = Some(report.identified);
        Ok(report)
    }
}

/// Session-state SCAT: like [`FcatSession`], each round seeds the initial
/// population estimate from the previous round's identified count, so
/// re-inventory rounds skip the pre-step bootstrap.
///
/// # Example
///
/// ```
/// use rfid_anc::{ScatConfig, ScatSession};
/// use rfid_sim::{run_monitoring, DwellModel, MonitorConfig, PopulationSchedule, SimConfig};
///
/// // 500 tags; 50 arrive per round and each stays 10 rounds on average.
/// let schedule = PopulationSchedule::generate(&DwellModel::poisson(50.0, 10.0), 500, 3, 0);
/// let mut session = ScatSession::new(ScatConfig::default());
/// let report = run_monitoring(&mut session, &schedule, &MonitorConfig::default(),
///                             &SimConfig::default())?;
/// assert_eq!(report.per_round.len(), 3);
/// # Ok::<(), rfid_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ScatSession {
    base: ScatConfig,
    last_count: Option<usize>,
    name: String,
}

impl ScatSession {
    /// Creates a cold session; the first round uses `base`'s own
    /// initial-population setting.
    #[must_use]
    pub fn new(base: ScatConfig) -> Self {
        let name = format!("SCAT-{}-session", base.lambda());
        ScatSession {
            base,
            last_count: None,
            name,
        }
    }

    /// The estimate the next round will start from, if warmed.
    #[must_use]
    pub fn warm_estimate(&self) -> Option<usize> {
        self.last_count
    }
}

impl MultiRoundSession for ScatSession {
    fn name(&self) -> &str {
        &self.name
    }

    fn run_round(
        &mut self,
        tags: &[TagId],
        config: &SimConfig,
        rng: &mut StdRng,
    ) -> Result<InventoryReport, SimError> {
        let cfg = match self.last_count {
            Some(count) => self
                .base
                .clone()
                .with_initial(InitialPopulation::Guess(count.max(1) as u32)),
            None => self.base.clone(),
        };
        let report = Scat::new(cfg).run(tags, config, rng)?;
        self.last_count = Some(report.identified);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_sim::{run_monitoring, DwellModel, MonitorConfig, MonitorReport, PopulationSchedule};

    fn monitor(
        session: &mut dyn MultiRoundSession,
        schedule: &PopulationSchedule,
        seed: u64,
    ) -> MonitorReport {
        let config = SimConfig::default().with_seed(seed);
        run_monitoring(session, schedule, &MonitorConfig::default(), &config).unwrap()
    }

    #[test]
    fn warm_start_tracks_population() {
        let mut session =
            FcatSession::new(FcatConfig::default().with_initial(InitialPopulation::Guess(16)));
        assert_eq!(session.warm_estimate(), None);
        // Mean dwell 20 rounds: about 5 % leave after each round.
        let schedule = PopulationSchedule::generate(&DwellModel::poisson(100.0, 20.0), 2_000, 3, 1);
        let report = monitor(&mut session, &schedule, 1);
        assert_eq!(report.per_round.len(), 3);
        // The session now knows the scale of the population.
        let warm = session.warm_estimate().unwrap();
        assert!((1_700..2_400).contains(&warm), "warm estimate {warm}");
        // Every round read its full population.
        for (r, n) in report.per_round.iter().zip(&report.population_per_round) {
            assert_eq!(r.identified, *n);
        }
    }

    #[test]
    fn warm_rounds_not_slower_than_cold_guess() {
        // With a bad base guess, the warm rounds must recover the full
        // throughput while the cold round pays convergence frames.
        let mut session =
            FcatSession::new(FcatConfig::default().with_initial(InitialPopulation::Guess(16)));
        let report = monitor(
            &mut session,
            &PopulationSchedule::static_population(3_000, 4, 2),
            2,
        );
        let cold = report.per_round[0].throughput_tags_per_sec;
        let warm = report.warm_throughput();
        assert!(
            warm >= cold - 2.0,
            "warm {warm} unexpectedly below cold {cold}"
        );
        assert!(warm > 185.0, "warm {warm}");
    }

    #[test]
    fn scat_session_warm_start_tracks_population() {
        let mut session =
            ScatSession::new(ScatConfig::default().with_initial(InitialPopulation::Guess(16)));
        assert_eq!(session.warm_estimate(), None);
        let schedule = PopulationSchedule::generate(&DwellModel::poisson(50.0, 20.0), 1_000, 3, 4);
        let report = monitor(&mut session, &schedule, 4);
        assert_eq!(report.per_round.len(), 3);
        let warm = session.warm_estimate().unwrap();
        assert!((800..1_200).contains(&warm), "warm estimate {warm}");
        for (r, n) in report.per_round.iter().zip(&report.population_per_round) {
            assert_eq!(r.identified, *n);
        }
    }

    #[test]
    fn empty_round_resets_gracefully() {
        let mut session = FcatSession::new(FcatConfig::default());
        let mut rng = rfid_sim::seeded_rng(3);
        let config = SimConfig::default();
        let report = session.run_round(&[], &config, &mut rng).unwrap();
        assert_eq!(report.identified, 0);
        assert_eq!(session.warm_estimate(), Some(0));
        // Next round with tags still works (guess clamps to >= 1).
        let tags = rfid_types::population::uniform(&mut rng, 50);
        let report = session.run_round(&tags, &config, &mut rng).unwrap();
        assert_eq!(report.identified, 50);
    }
}
