//! Per-slot probabilistic ALOHA (§VII: "the reader sends out a contention
//! probability at the beginning of each slot and each unread tag [replies]
//! with this probability").

use rand::rngs::StdRng;
use rfid_sim::sampling::{pick_distinct_indices, sample_binomial};
use rfid_sim::{AntiCollisionProtocol, InventoryReport, SimConfig, SimError};
use rfid_types::{SlotClass, TagId};

/// Slotted ALOHA with a per-slot contention probability `p = 1/N̂`, the
/// λ = 1 special case of the collision-aware probability rule: it maximizes
/// the singleton probability at `36.8 %` and tops out at `1/(eT)`.
///
/// # Example
///
/// ```
/// use rfid_protocols::SlottedAloha;
/// use rfid_sim::{run_inventory, SimConfig};
/// use rfid_types::population;
///
/// let tags = population::uniform(&mut rfid_sim::seeded_rng(1), 200);
/// let report = run_inventory(&SlottedAloha::new(), &tags, &SimConfig::default())?;
/// assert_eq!(report.identified, 200);
/// # Ok::<(), rfid_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SlottedAloha;

impl SlottedAloha {
    /// Creates the protocol with an oracle initial population estimate.
    #[must_use]
    pub fn new() -> Self {
        SlottedAloha
    }
}

impl AntiCollisionProtocol for SlottedAloha {
    fn name(&self) -> &str {
        "SlottedALOHA"
    }

    fn run(
        &self,
        tags: &[TagId],
        config: &SimConfig,
        rng: &mut StdRng,
    ) -> Result<InventoryReport, SimError> {
        let mut report = InventoryReport::new(self.name());
        let mut active: Vec<TagId> = tags.to_vec();
        let slot_us = config.timing().basic_slot_us();
        let errors = config.errors().clone();

        // Reader-side backlog estimate, maintained with Rivest's
        // pseudo-Bayesian broadcast-control updates: −1 on an empty slot,
        // −1 departure on a success, +1/(e−2) on a collision. At the
        // optimal operating point the expected drift matches the true
        // backlog's, so the estimate self-corrects from any bootstrap.
        const COLLISION_INCREMENT: f64 = 1.0 / (std::f64::consts::E - 2.0);
        let mut backlog = tags.len() as f64;
        let mut slots: u64 = 0;

        while !active.is_empty() {
            if slots >= config.max_slots() {
                return Err(SimError::ExceededMaxSlots {
                    max_slots: config.max_slots(),
                    identified: report.identified,
                    total: tags.len(),
                });
            }
            slots += 1;

            let p = (1.0 / backlog.max(1.0)).min(1.0);
            let k = sample_binomial(active.len(), p, rng);
            match k {
                0 => {
                    report.record_slot(SlotClass::Empty, slot_us);
                    backlog = (backlog - 1.0).max(1.0);
                }
                1 => {
                    if errors.sample_report_corrupted(rng) {
                        report.record_slot(SlotClass::Collision, slot_us);
                        backlog += COLLISION_INCREMENT;
                    } else {
                        report.record_slot(SlotClass::Singleton, slot_us);
                        let idx = pick_distinct_indices(active.len(), 1, rng)[0];
                        report.record_identified(active[idx]);
                        if !errors.sample_ack_lost(rng) {
                            active.swap_remove(idx);
                            backlog = (backlog - 1.0).max(0.0);
                        }
                    }
                }
                _ => {
                    report.record_slot(SlotClass::Collision, slot_us);
                    backlog = (backlog + COLLISION_INCREMENT).max(2.0);
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_sim::{run_inventory, run_many, seeded_rng, ErrorModel};
    use rfid_types::population;

    #[test]
    fn reads_all_tags() {
        let tags = population::uniform(&mut seeded_rng(1), 300);
        let report = run_inventory(&SlottedAloha::new(), &tags, &SimConfig::default()).unwrap();
        assert_eq!(report.identified, 300);
        assert_eq!(report.resolved_from_collisions, 0);
    }

    #[test]
    fn empty_population_zero_slots() {
        let report = run_inventory(&SlottedAloha::new(), &[], &SimConfig::default()).unwrap();
        assert_eq!(report.identified, 0);
        assert_eq!(report.slots.total(), 0);
    }

    #[test]
    fn single_tag_read_quickly() {
        let tags = population::uniform(&mut seeded_rng(2), 1);
        let report = run_inventory(&SlottedAloha::new(), &tags, &SimConfig::default()).unwrap();
        assert_eq!(report.identified, 1);
        assert!(report.slots.total() < 20);
    }

    #[test]
    fn throughput_near_aloha_bound() {
        // Optimal slotted ALOHA ≈ 1/(e·T) ≈ 131 tags/s on I-Code timing.
        let agg = run_many(&SlottedAloha::new(), 2_000, 5, &SimConfig::default()).unwrap();
        let bound = rfid_analysis::bounds::aloha_throughput_bound(SimConfig::default().timing());
        assert!(
            agg.throughput.mean > 0.9 * bound && agg.throughput.mean <= bound * 1.02,
            "throughput {} vs bound {bound}",
            agg.throughput.mean
        );
    }

    #[test]
    fn slot_mix_matches_theory() {
        // At p = 1/N: 36.8% empty, 36.8% singleton, 26.4% collision (§I).
        let agg = run_many(&SlottedAloha::new(), 5_000, 3, &SimConfig::default()).unwrap();
        let total = agg.total_slots.mean;
        assert!((agg.singleton_slots.mean / total - 0.368).abs() < 0.02);
        assert!((agg.empty_slots.mean / total - 0.368).abs() < 0.03);
        assert!((agg.collision_slots.mean / total - 0.264).abs() < 0.03);
    }

    #[test]
    fn survives_ack_loss_and_corruption() {
        let tags = population::uniform(&mut seeded_rng(3), 150);
        let config = SimConfig::default()
            .with_errors(ErrorModel::new(0.2, 0.1, 0.0))
            .with_seed(9);
        let report = run_inventory(&SlottedAloha::new(), &tags, &config).unwrap();
        assert_eq!(report.identified, 150);
        assert!(report.duplicates_discarded > 0 || report.slots.collision > 0);
    }

    #[test]
    fn max_slots_enforced() {
        let tags = population::uniform(&mut seeded_rng(5), 1_000);
        let config = SimConfig::default().with_max_slots(10);
        let err = run_inventory(&SlottedAloha::new(), &tags, &config).unwrap_err();
        assert!(matches!(err, SimError::ExceededMaxSlots { .. }));
    }
}
