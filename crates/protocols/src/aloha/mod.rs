//! ALOHA-family baselines (§VII, first class).
//!
//! All of them read a tag only from singleton slots; collision slots are
//! pure loss, which caps their throughput at `1/(eT)` (Roberts \[11\]).

mod crdsa;
mod dfsa;
mod edfsa;
mod gen2q;
mod slotted;

pub use crdsa::{Crdsa, CrdsaConfig};
pub use dfsa::{Dfsa, DfsaConfig};
pub use edfsa::{Edfsa, EdfsaConfig};
pub use gen2q::{Gen2Q, Gen2QConfig};
pub use slotted::SlottedAloha;

/// How an ALOHA reader bootstraps its knowledge of the population size.
///
/// The paper lets every baseline track the backlog well (their DFSA sits
/// at the `1/(eT)` ceiling), so experiments default to [`Exact`].
///
/// [`Exact`]: InitialEstimate::Exact
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Default)]
pub enum InitialEstimate {
    /// The reader is told the true initial population (oracle start).
    #[default]
    Exact,
    /// The reader starts from a fixed guess and adapts from observations.
    Fixed(u32),
}

impl InitialEstimate {
    /// Resolves the starting estimate for a population of `n` tags.
    #[must_use]
    pub fn resolve(self, n: usize) -> f64 {
        match self {
            InitialEstimate::Exact => n as f64,
            InitialEstimate::Fixed(guess) => f64::from(guess.max(1)),
        }
    }
}

pub(crate) mod frame {
    //! Shared frame execution for DFSA and EDFSA.

    use rand::rngs::StdRng;
    use rand::Rng;
    use rfid_sim::{InventoryReport, SimConfig};
    use rfid_types::{SlotClass, TagId};

    /// Outcome counts of one frame.
    #[derive(Debug, Default, Clone, Copy)]
    pub struct FrameStats {
        /// Empty slots observed.
        pub empty: u32,
        /// Readable singleton slots observed.
        pub singleton: u32,
        /// Collision slots observed (includes corrupted singletons, which
        /// the reader cannot distinguish from collisions).
        pub collision: u32,
        /// Tags identified and successfully acknowledged.
        pub identified: u32,
    }

    /// Runs one framed-ALOHA frame: every tag in `active` picks one slot
    /// uniformly; singletons are identified and (ack permitting) removed
    /// from `active`.
    ///
    /// Slot airtime and classes are recorded into `report`.
    pub fn run_frame(
        active: &mut Vec<TagId>,
        frame_size: u32,
        config: &SimConfig,
        rng: &mut StdRng,
        report: &mut InventoryReport,
    ) -> FrameStats {
        let l = frame_size as usize;
        debug_assert!(l > 0);
        let slot_us = config.timing().basic_slot_us();
        let errors = config.errors().clone();

        // Occupancy: count per slot and the index (into `active`) of the
        // first occupant, which is the decodable tag when count == 1.
        let mut counts = vec![0u32; l];
        let mut first = vec![usize::MAX; l];
        let mut choice = vec![0usize; active.len()];
        for (idx, slot) in choice.iter_mut().enumerate() {
            *slot = rng.gen_range(0..l);
            counts[*slot] += 1;
            if first[*slot] == usize::MAX {
                first[*slot] = idx;
            }
        }

        let mut stats = FrameStats::default();
        let mut acked = vec![false; active.len()];
        for slot in 0..l {
            match counts[slot] {
                0 => {
                    stats.empty += 1;
                    report.record_slot(SlotClass::Empty, slot_us);
                }
                1 => {
                    if errors.sample_report_corrupted(rng) {
                        // Reader sees a CRC failure — indistinguishable
                        // from a collision; the tag is not acknowledged.
                        stats.collision += 1;
                        report.record_slot(SlotClass::Collision, slot_us);
                    } else {
                        stats.singleton += 1;
                        report.record_slot(SlotClass::Singleton, slot_us);
                        let idx = first[slot];
                        report.record_identified(active[idx]);
                        if !errors.sample_ack_lost(rng) {
                            acked[idx] = true;
                            stats.identified += 1;
                        }
                    }
                }
                _ => {
                    stats.collision += 1;
                    report.record_slot(SlotClass::Collision, slot_us);
                }
            }
        }

        // Compact the active set, preserving relative order (not required,
        // but keeps runs reproducible independent of removal pattern).
        let mut write = 0usize;
        for read in 0..active.len() {
            if !acked[read] {
                active[write] = active[read];
                write += 1;
            }
        }
        active.truncate(write);
        stats
    }
}
