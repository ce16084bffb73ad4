//! AQS with its adaptive cross-round queue — the "adaptive" in Adaptive
//! Query Splitting (Myung-Lee [12]).
//!
//! At the end of a round the query tree's *leaves* (queries that came back
//! singleton or empty) partition the ID space. AQS starts the next round
//! from exactly that leaf queue: a static population re-reads with one
//! query per leaf and no collisions at all; arrivals only split the leaves
//! they land in.

use super::query::{run_query_tree, Prefix};
use rand::rngs::StdRng;
use rfid_sim::rounds::MultiRoundSession;
use rfid_sim::{InventoryReport, SimConfig, SimError};
use rfid_types::TagId;

/// Session-state AQS: carries the leaf-query queue between rounds.
///
/// # Example
///
/// ```
/// use rfid_protocols::AqsSession;
/// use rfid_sim::{run_monitoring, MonitorConfig, PopulationSchedule, SimConfig};
///
/// let schedule = PopulationSchedule::static_population(200, 3, 0);
/// let mut session = AqsSession::new();
/// let report = run_monitoring(&mut session, &schedule, &MonitorConfig::default(),
///                             &SimConfig::default())?;
/// // Warm rounds re-read the static population without any collision.
/// assert_eq!(report.per_round[1].slots.collision, 0);
/// # Ok::<(), rfid_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct AqsSession {
    leaves: Vec<Prefix>,
}

impl AqsSession {
    /// Creates a cold session (first round behaves like one-shot AQS).
    #[must_use]
    pub fn new() -> Self {
        AqsSession::default()
    }

    /// Number of leaf queries carried from the previous round.
    #[must_use]
    pub fn carried_leaves(&self) -> usize {
        self.leaves.len()
    }
}

impl MultiRoundSession for AqsSession {
    fn name(&self) -> &str {
        "AQS-session"
    }

    fn run_round(
        &mut self,
        tags: &[TagId],
        config: &SimConfig,
        rng: &mut StdRng,
    ) -> Result<InventoryReport, SimError> {
        let initial: Vec<Prefix> = if self.leaves.is_empty() {
            vec![Prefix::EMPTY.child(0), Prefix::EMPTY.child(1)]
        } else {
            std::mem::take(&mut self.leaves)
        };
        let mut leaves = Vec::new();
        let report = run_query_tree(self.name(), &initial, tags, config, rng, Some(&mut leaves))?;
        if tags.is_empty() {
            // Keep the old partition; an empty round teaches nothing.
            self.leaves = initial;
        } else {
            // Myung-Lee's QueryDeletion: merge sibling leaves that both
            // came back empty, otherwise departures grow the carried queue
            // without bound under churn.
            self.leaves = merge_empty_siblings(leaves, tags);
        }
        Ok(report)
    }
}

/// Collapses pairs of sibling leaves that currently match no tag into
/// their parent query, repeating until no pair merges. Keeps the leaf set
/// a partition of the ID space (required so future arrivals are caught)
/// while bounding its size near the live population.
fn merge_empty_siblings(mut leaves: Vec<Prefix>, tags: &[TagId]) -> Vec<Prefix> {
    use std::collections::HashSet;
    let occupied: Vec<TagId> = tags.to_vec();
    loop {
        let leaf_set: HashSet<Prefix> = leaves.iter().copied().collect();
        let mut merged: HashSet<Prefix> = HashSet::new();
        let mut next: Vec<Prefix> = Vec::with_capacity(leaves.len());
        let mut changed = false;
        for &leaf in &leaves {
            if merged.contains(&leaf) {
                continue;
            }
            let (Some(parent), Some(sibling)) = (leaf.parent(), leaf.sibling()) else {
                next.push(leaf);
                continue;
            };
            let both_present = leaf_set.contains(&sibling) && !merged.contains(&sibling);
            if both_present
                && !prefix_matches_any(leaf, &occupied)
                && !prefix_matches_any(sibling, &occupied)
            {
                merged.insert(leaf);
                merged.insert(sibling);
                next.push(parent);
                changed = true;
            } else {
                next.push(leaf);
            }
        }
        leaves = next;
        if !changed {
            return leaves;
        }
    }
}

fn prefix_matches_any(prefix: Prefix, tags: &[TagId]) -> bool {
    let (lo, hi) = prefix.range();
    tags.iter().any(|t| {
        let p = t.payload();
        p >= lo && p < hi
    })
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

    #[test]
    fn static_population_rereads_without_collisions() {
        let mut session = AqsSession::new();
        let report = monitor(
            &mut session,
            &PopulationSchedule::static_population(400, 3, 1),
            1,
        );
        // Cold round pays the full tree...
        assert!(report.per_round[0].slots.collision > 300);
        // ...warm rounds are collision-free: one query per leaf.
        for round in 1..3 {
            assert_eq!(report.per_round[round].slots.collision, 0, "round {round}");
            assert_eq!(report.per_round[round].identified, 400);
        }
        assert!(report.warm_throughput() > report.per_round[0].throughput_tags_per_sec);
        assert!(session.carried_leaves() >= 400);
    }

    #[test]
    fn warm_round_still_pays_empty_leaves() {
        // The leaf partition contains the empties too, so a warm AQS round
        // costs (singleton + empty) slots — unlike warm ABS, which prunes
        // to exactly N slots. This is the known AQS/ABS gap under reading
        // (Myung-Lee's own comparison).
        let mut session = AqsSession::new();
        let report = monitor(
            &mut session,
            &PopulationSchedule::static_population(400, 2, 2),
            2,
        );
        let warm = &report.per_round[1].slots;
        assert_eq!(warm.singleton, 400);
        assert!(warm.empty > 0);
    }

    #[test]
    fn arrivals_split_only_their_leaves() {
        let mut session = AqsSession::new();
        let report = monitor(&mut session, &arrivals_only(400, 2, 40.0, 3), 3);
        let warm = &report.per_round[1].slots;
        assert_eq!(report.per_round[1].identified, 440);
        assert!(warm.collision < 160, "{warm:?}");
    }

    #[test]
    fn leaf_queue_bounded_under_churn() {
        // Without QueryDeletion the carried queue grows every round;
        // with it, the leaf count stays proportional to the population.
        let mut session = AqsSession::new();
        // 120 arrivals per round; mean dwell 2.8 rounds: about 30 % leave
        // after each round.
        let schedule = PopulationSchedule::generate(&DwellModel::poisson(120.0, 2.8), 400, 12, 9);
        let report = monitor(&mut session, &schedule, 9);
        let final_pop = *report.population_per_round.last().unwrap();
        let leaves = session.carried_leaves();
        assert!(
            leaves < 4 * final_pop.max(1),
            "leaf queue {leaves} for population {final_pop}"
        );
    }

    #[test]
    fn empty_round_keeps_partition() {
        let mut session = AqsSession::new();
        let mut rng = rfid_sim::seeded_rng(4);
        let config = SimConfig::default();
        let tags = rfid_types::population::uniform(&mut rng, 64);
        session.run_round(&tags, &config, &mut rng).unwrap();
        let leaves_before = session.carried_leaves();
        session.run_round(&[], &config, &mut rng).unwrap();
        assert_eq!(session.carried_leaves(), leaves_before);
    }
}
