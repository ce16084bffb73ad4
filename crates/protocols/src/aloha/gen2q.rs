//! The EPCglobal Class-1 Gen-2 "Q algorithm" (ISO 18000-6C) — the
//! industrial-standard anti-collision scheme the paper's §VII alludes to
//! with "contention-based time-slotted protocols have become the
//! industrial standards".
//!
//! The reader maintains a floating-point slot-count exponent `Q_fp`; each
//! inventory round opens `2^Q` slots and every unread tag draws a uniform
//! counter in `[0, 2^Q)`. After observing a slot the reader nudges the
//! exponent — up by `C` on a collision, down by `C` on an idle slot,
//! unchanged on a success — re-issuing the round with the new `Q` whenever
//! the rounded exponent changes. The standard recommends `0.1 ≤ C ≤ 0.5`.
//!
//! Like every member of the ALOHA family it discards collision slots, so
//! its throughput also converges to the `1/(eT)` ceiling at best.

use rand::rngs::StdRng;
use rand::Rng;
use rfid_sim::{AntiCollisionProtocol, InventoryReport, SimConfig, SimError};
use rfid_types::{SlotClass, TagId, TagSet};

/// Configuration of [`Gen2Q`].
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Gen2QConfig {
    /// Initial exponent `Q` (the standard's default is 4).
    pub initial_q: f64,
    /// Adjustment constant `C` (standard: 0.1–0.5).
    pub c: f64,
    /// Largest exponent allowed (standard: 15).
    pub max_q: f64,
}

impl Default for Gen2QConfig {
    fn default() -> Self {
        Gen2QConfig {
            initial_q: 4.0,
            c: 0.3,
            max_q: 15.0,
        }
    }
}

/// The Gen-2 Q algorithm.
///
/// # Example
///
/// ```
/// use rfid_protocols::Gen2Q;
/// use rfid_sim::{run_inventory, SimConfig};
/// use rfid_types::population;
///
/// let tags = population::uniform(&mut rfid_sim::seeded_rng(1), 300);
/// let report = run_inventory(&Gen2Q::new(), &tags, &SimConfig::default())?;
/// assert_eq!(report.identified, 300);
/// # Ok::<(), rfid_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Gen2Q {
    config: Gen2QConfig,
}

impl Gen2Q {
    /// Creates the protocol with the standard's default parameters.
    #[must_use]
    pub fn new() -> Self {
        Gen2Q::with_config(Gen2QConfig::default())
    }

    /// Creates the protocol with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `c` is outside `(0, 1]` or the exponents are out of
    /// `[0, 15]` order.
    #[must_use]
    pub fn with_config(config: Gen2QConfig) -> Self {
        assert!(config.c > 0.0 && config.c <= 1.0, "C must be in (0, 1]");
        assert!(
            (0.0..=15.0).contains(&config.initial_q) && config.max_q <= 15.0,
            "Q exponents must be within [0, 15]"
        );
        assert!(
            config.initial_q <= config.max_q,
            "initial_q must be <= max_q"
        );
        Gen2Q { config }
    }
}

/// Removes the acknowledged tags from the active set in one pass.
fn remove_read(active: &mut Vec<TagId>, read: &[TagId]) {
    if read.is_empty() {
        return;
    }
    let read: TagSet = read.iter().copied().collect();
    active.retain(|t| !read.contains(t));
}

impl AntiCollisionProtocol for Gen2Q {
    fn name(&self) -> &str {
        "Gen2-Q"
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
        let mut q_fp = self.config.initial_q;
        let mut slots_used: u64 = 0;

        'rounds: while !active.is_empty() {
            let q = q_fp.round().clamp(0.0, self.config.max_q) as u32;
            let slots = 1u64 << q;
            // Tags draw their slot counters for this round; bucketing them
            // by counter keeps each slot O(responders) instead of scanning
            // every live counter.
            let mut buckets: Vec<Vec<TagId>> = vec![Vec::new(); slots as usize];
            for &tag in &active {
                buckets[rng.gen_range(0..slots) as usize].push(tag);
            }
            let mut read_this_round: Vec<TagId> = Vec::new();

            let mut slot = 0u64;
            while slot < slots {
                if slots_used >= config.max_slots() {
                    return Err(SimError::ExceededMaxSlots {
                        max_slots: config.max_slots(),
                        identified: report.identified,
                        total: tags.len(),
                    });
                }
                slots_used += 1;

                let responders = &mut buckets[slot as usize];
                let q_before = q_fp;
                match responders.len() {
                    0 => {
                        report.record_slot(SlotClass::Empty, slot_us);
                        q_fp = (q_fp - self.config.c).max(0.0);
                    }
                    1 => {
                        if errors.sample_report_corrupted(rng) {
                            report.record_slot(SlotClass::Collision, slot_us);
                            q_fp = (q_fp + self.config.c).min(self.config.max_q);
                        } else {
                            report.record_slot(SlotClass::Singleton, slot_us);
                            let tag = responders[0];
                            report.record_identified(tag);
                            if !errors.sample_ack_lost(rng) {
                                read_this_round.push(tag);
                                if read_this_round.len() == active.len() {
                                    break 'rounds;
                                }
                                slot += 1;
                                continue;
                            }
                        }
                    }
                    _ => {
                        report.record_slot(SlotClass::Collision, slot_us);
                        q_fp = (q_fp + self.config.c).min(self.config.max_q);
                    }
                }
                // The standard restarts the round when round(Q) changes.
                if q_fp.round() != q_before.round() {
                    remove_read(&mut active, &read_this_round);
                    continue 'rounds;
                }
                slot += 1;
            }
            remove_read(&mut active, &read_this_round);
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
        let tags = population::uniform(&mut seeded_rng(1), 800);
        let report = run_inventory(&Gen2Q::new(), &tags, &SimConfig::default()).unwrap();
        assert_eq!(report.identified, 800);
        assert_eq!(report.resolved_from_collisions, 0);
    }

    #[test]
    fn adapts_from_small_q_to_large_population() {
        // Q starts at 4 (16 slots) against 5 000 tags; the C updates must
        // walk it up without the round counter thrashing forever.
        let tags = population::uniform(&mut seeded_rng(2), 5_000);
        let report = run_inventory(&Gen2Q::new(), &tags, &SimConfig::default()).unwrap();
        assert_eq!(report.identified, 5_000);
    }

    #[test]
    fn throughput_within_aloha_family_band() {
        let agg = run_many(&Gen2Q::new(), 2_000, 5, &SimConfig::default()).unwrap();
        let bound = rfid_analysis::bounds::aloha_throughput_bound(SimConfig::default().timing());
        assert!(
            agg.throughput.mean <= bound * 1.02,
            "Gen2-Q {} above ALOHA ceiling {bound}",
            agg.throughput.mean
        );
        assert!(
            agg.throughput.mean > 0.72 * bound,
            "Gen2-Q {} implausibly low vs {bound}",
            agg.throughput.mean
        );
    }

    #[test]
    fn empty_and_single() {
        let report = run_inventory(&Gen2Q::new(), &[], &SimConfig::default()).unwrap();
        assert_eq!(report.slots.total(), 0);
        let tags = population::uniform(&mut seeded_rng(3), 1);
        let report = run_inventory(&Gen2Q::new(), &tags, &SimConfig::default()).unwrap();
        assert_eq!(report.identified, 1);
    }

    #[test]
    fn completes_under_channel_errors() {
        let tags = population::uniform(&mut seeded_rng(4), 200);
        let config = SimConfig::default().with_errors(ErrorModel::new(0.2, 0.1, 0.0));
        let report = run_inventory(&Gen2Q::new(), &tags, &config).unwrap();
        assert_eq!(report.identified, 200);
    }

    #[test]
    fn aggressive_c_still_converges() {
        let tags = population::uniform(&mut seeded_rng(5), 500);
        let proto = Gen2Q::with_config(Gen2QConfig {
            c: 0.5,
            ..Gen2QConfig::default()
        });
        let report = run_inventory(&proto, &tags, &SimConfig::default()).unwrap();
        assert_eq!(report.identified, 500);
    }

    #[test]
    #[should_panic(expected = "C must be in (0, 1]")]
    fn zero_c_panics() {
        let _ = Gen2Q::with_config(Gen2QConfig {
            c: 0.0,
            ..Gen2QConfig::default()
        });
    }
}
