//! ABS with **progress preservation across rounds** — the "adaptive" in
//! Adaptive Binary Splitting (Myung-Lee [12]).
//!
//! Within one round ABS behaves like classic binary splitting (see
//! [`super::Abs`]). Its distinguishing feature only pays off under
//! *periodic* reading: at the end of a round the tags stand in the order
//! they were identified, and the next round starts from that order — each
//! staying tag gets its own counter slot, so an unchanged population reads
//! back in exactly `N` singleton slots (1 tag per slot, `1/T` throughput,
//! 2.88× better than a cold round). Tags that arrived since the last round
//! join at a random existing counter and are split off as usual.

use super::splitting::run_splitting;
use rand::rngs::StdRng;
use rand::Rng;
use rfid_sim::rounds::MultiRoundSession;
use rfid_sim::{InventoryReport, SimConfig, SimError};
use rfid_types::{TagId, TagSet};
use std::collections::VecDeque;

/// Session-state ABS: keeps the identification order between rounds.
///
/// # Example
///
/// ```
/// use rfid_protocols::AbsSession;
/// use rfid_sim::{run_monitoring, MonitorConfig, PopulationSchedule, SimConfig};
///
/// let schedule = PopulationSchedule::static_population(200, 3, 0);
/// let mut session = AbsSession::new();
/// let report = run_monitoring(&mut session, &schedule, &MonitorConfig::default(),
///                             &SimConfig::default())?;
/// // A static population re-reads in pure singletons from round 2 on.
/// assert_eq!(report.per_round[1].slots.singleton, 200);
/// assert_eq!(report.per_round[1].slots.collision, 0);
/// # Ok::<(), rfid_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct AbsSession {
    /// Identification order of the previous round.
    previous_order: Vec<TagId>,
}

impl AbsSession {
    /// Creates a cold session (first round behaves like one-shot ABS).
    #[must_use]
    pub fn new() -> Self {
        AbsSession::default()
    }
}

impl MultiRoundSession for AbsSession {
    fn name(&self) -> &str {
        "ABS-session"
    }

    fn run_round(
        &mut self,
        tags: &[TagId],
        config: &SimConfig,
        rng: &mut StdRng,
    ) -> Result<InventoryReport, SimError> {
        if tags.is_empty() {
            self.previous_order.clear();
            return Ok(InventoryReport::new(self.name()));
        }

        // Build the initial counter groups from the previous round's
        // order: each staying tag keeps the counter it ended with, a
        // departed tag's counter is left unclaimed (it will cost one idle
        // slot), and newcomers pick a random existing counter (Myung-Lee's
        // round transition).
        let current: TagSet = tags.iter().copied().collect();
        let stack: VecDeque<Vec<TagId>> = if self.previous_order.is_empty() {
            VecDeque::from([tags.to_vec()])
        } else {
            let known: TagSet = self.previous_order.iter().copied().collect();
            let mut groups: Vec<Vec<TagId>> = self
                .previous_order
                .iter()
                .map(|t| {
                    if current.contains(t) {
                        vec![*t]
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            for &tag in tags {
                if !known.contains(&tag) {
                    let idx = rng.gen_range(0..groups.len());
                    groups[idx].push(tag);
                }
            }
            groups.into()
        };

        let mut order = Vec::with_capacity(tags.len());
        let report = run_splitting(self.name(), stack, tags.len(), config, rng, |tag| {
            order.push(tag);
        })?;
        self.previous_order = order;
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

    /// `arrivals` tags per round and nobody leaves within `rounds` rounds.
    fn arrivals_only(
        initial: usize,
        rounds: usize,
        arrivals: f64,
        seed: u64,
    ) -> PopulationSchedule {
        let model = DwellModel::conveyor(arrivals, rounds as u32);
        PopulationSchedule::generate(&model, initial, rounds, seed)
    }
    use rfid_sim::seeded_rng;
    use rfid_types::population;

    #[test]
    fn first_round_matches_cold_abs_scale() {
        let mut session = AbsSession::new();
        let report = monitor(
            &mut session,
            &PopulationSchedule::static_population(1_000, 1, 1),
            1,
        );
        let slots = report.per_round[0].slots.total();
        assert!((2_500..3_300).contains(&slots), "cold round used {slots}");
    }

    #[test]
    fn static_population_rereads_in_pure_singletons() {
        let mut session = AbsSession::new();
        let report = monitor(
            &mut session,
            &PopulationSchedule::static_population(500, 3, 2),
            2,
        );
        for round in 1..3 {
            let slots = &report.per_round[round].slots;
            assert_eq!(slots.singleton, 500, "round {round}");
            assert_eq!(slots.collision, 0, "round {round}");
            assert_eq!(slots.empty, 0, "round {round}");
        }
        // Warm rounds approach the physical 1-ID-per-slot ceiling.
        assert!(report.warm_throughput() > 350.0);
    }

    #[test]
    fn departures_cost_empty_slots() {
        let mut session = AbsSession::new();
        // No arrivals; mean dwell 2.8 rounds: about 30 % leave after round 0.
        let schedule = PopulationSchedule::generate(&DwellModel::poisson(0.0, 2.8), 400, 2, 3);
        let report = monitor(&mut session, &schedule, 3);
        let second = &report.per_round[1].slots;
        assert!(
            second.empty > 50,
            "departed slots show as empties: {second:?}"
        );
        assert_eq!(second.collision, 0);
    }

    #[test]
    fn arrivals_cause_limited_splitting() {
        let mut session = AbsSession::new();
        let report = monitor(&mut session, &arrivals_only(400, 2, 40.0, 4), 4);
        let second = &report.per_round[1].slots;
        assert_eq!(report.population_per_round[1], 440);
        assert_eq!(report.per_round[1].identified, 440);
        // Only the ~40 joined slots collide, not the whole tree.
        assert!(second.collision < 150, "{second:?}");
    }

    #[test]
    fn round_after_emptying_is_trivial() {
        let mut session = AbsSession::new();
        let mut rng = seeded_rng(5);
        let tags = population::uniform(&mut rng, 50);
        let config = SimConfig::default();
        session.run_round(&tags, &config, &mut rng).unwrap();
        let report = session.run_round(&[], &config, &mut rng).unwrap();
        assert_eq!(report.identified, 0);
    }
}
