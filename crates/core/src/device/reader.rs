//! The reader-side state machine.

use super::messages::{AckPayload, FrameAdvertisement, SlotObservation};
use crate::fcat::update_estimate;
use crate::records::CollisionRecordStore;
use crate::resolution::{RecoveryPolicy, ResolutionModel};
use crate::EstimatorInput;
use rfid_types::hash::probability_threshold;
use rfid_types::TagId;

/// What the reader is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum ReaderPhase {
    /// Normal framed reading.
    Reading,
    /// The last frame was entirely empty: issue one `p = 1` probe slot
    /// (§IV-A's termination rule).
    Probing,
    /// The probe came back empty: every tag is read.
    Finished,
}

/// The FCAT reader as a self-contained state machine.
///
/// Unlike the aggregate simulation engine, this reader decides
/// *everything* from its own observations: the report probability from the
/// embedded collision-count estimator, acknowledgement payloads from its
/// record store, and termination from an all-empty frame followed by an
/// empty full-participation probe. It never sees the simulation's ground
/// truth.
#[derive(Debug)]
pub struct ReaderDevice {
    lambda: u32,
    omega: f64,
    frame_size: u32,
    threshold_bits: u32,
    estimator: EstimatorInput,
    records: CollisionRecordStore,
    collected: Vec<TagId>,
    estimate: f64,
    phase: ReaderPhase,
    frame_index: u64,
    next_base_slot: u64,
    current: Option<FrameAdvertisement>,
    slot_in_frame: u32,
    frame_p: f64,
    n0: u32,
    nc: u32,
}

impl ReaderDevice {
    /// Creates a reader.
    ///
    /// # Panics
    ///
    /// Panics if `lambda < 2`, `omega <= 0`, `frame_size == 0` or
    /// `initial_estimate` is not finite and non-negative.
    #[must_use]
    pub fn new(
        lambda: u32,
        omega: f64,
        frame_size: u32,
        estimator: EstimatorInput,
        initial_estimate: f64,
    ) -> Self {
        assert!(lambda >= 2, "lambda must be >= 2");
        assert!(omega.is_finite() && omega > 0.0, "omega must be positive");
        assert!(frame_size > 0, "frame_size must be positive");
        assert!(
            initial_estimate.is_finite() && initial_estimate >= 0.0,
            "initial estimate must be finite and >= 0"
        );
        ReaderDevice {
            lambda,
            omega,
            frame_size,
            threshold_bits: 16,
            estimator,
            records: CollisionRecordStore::slot_level(lambda),
            collected: Vec::new(),
            estimate: initial_estimate,
            phase: ReaderPhase::Reading,
            frame_index: 0,
            next_base_slot: 0,
            current: None,
            slot_in_frame: 0,
            frame_p: 0.0,
            n0: 0,
            nc: 0,
        }
    }

    /// Rebuilds the record store under the given resolution model (a
    /// fresh λ-gate-only store for [`ResolutionModel::Ideal`]). Call
    /// before the first frame: any already-deposited records are lost.
    ///
    /// [`RecoveryPolicy::Requery`] is downgraded to
    /// [`RecoveryPolicy::DropRecord`]: this reader has no dedicated
    /// re-query slots, and under either policy the unresolved tag stays
    /// active and re-contends in later slots — completeness is unaffected,
    /// only throughput.
    #[must_use]
    pub fn with_resolution(
        mut self,
        resolution: &ResolutionModel,
        recovery: RecoveryPolicy,
        seed: u64,
    ) -> Self {
        self.records = match resolution {
            ResolutionModel::Ideal => CollisionRecordStore::slot_level(self.lambda),
            ResolutionModel::SignalBacked(cfg) => {
                let policy = if matches!(recovery, RecoveryPolicy::Requery { .. }) {
                    RecoveryPolicy::DropRecord
                } else {
                    recovery
                };
                CollisionRecordStore::signal_backed(self.lambda, cfg.clone(), policy, seed)
            }
        };
        self
    }

    /// The reader's phase.
    #[must_use]
    pub fn phase(&self) -> ReaderPhase {
        self.phase
    }

    /// IDs collected so far, in collection order.
    #[must_use]
    pub fn collected(&self) -> &[TagId] {
        &self.collected
    }

    /// The reader's current remaining-population estimate.
    #[must_use]
    pub fn estimate(&self) -> f64 {
        self.estimate
    }

    /// λ in effect.
    #[must_use]
    pub fn lambda(&self) -> u32 {
        self.lambda
    }

    /// Starts the next frame (or probe) and returns its advertisement.
    ///
    /// Returns `None` once the reader has finished.
    pub fn begin_frame(&mut self) -> Option<FrameAdvertisement> {
        match self.phase {
            ReaderPhase::Finished => None,
            ReaderPhase::Probing => {
                let adv = FrameAdvertisement {
                    frame_index: self.frame_index,
                    base_slot: self.next_base_slot,
                    frame_size: 1,
                    threshold: 1 << self.threshold_bits, // p = 1
                    threshold_bits: self.threshold_bits,
                };
                self.arm_frame(adv, 1.0);
                Some(adv)
            }
            ReaderPhase::Reading => {
                let p = (self.omega / self.estimate.max(1.0)).clamp(1e-9, 1.0);
                let threshold = if p >= 1.0 {
                    1 << self.threshold_bits
                } else {
                    probability_threshold(p, self.threshold_bits)
                };
                let adv = FrameAdvertisement {
                    frame_index: self.frame_index,
                    base_slot: self.next_base_slot,
                    frame_size: self.frame_size,
                    threshold,
                    threshold_bits: self.threshold_bits,
                };
                self.arm_frame(adv, p);
                Some(adv)
            }
        }
    }

    fn arm_frame(&mut self, adv: FrameAdvertisement, p: f64) {
        self.current = Some(adv);
        self.slot_in_frame = 0;
        self.frame_p = p;
        self.n0 = 0;
        self.nc = 0;
    }

    /// Processes the reception of one report segment and returns the
    /// acknowledgement to broadcast.
    ///
    /// # Panics
    ///
    /// Panics if no frame is armed or the armed frame is already complete.
    pub fn observe_slot(&mut self, observation: SlotObservation) -> AckPayload {
        let adv = self.current.expect("begin_frame must be called first");
        assert!(
            self.slot_in_frame < adv.frame_size,
            "frame already complete; call end_frame"
        );
        let slot = adv.global_slot(self.slot_in_frame);
        self.slot_in_frame += 1;

        match observation {
            SlotObservation::Empty => {
                self.n0 += 1;
                AckPayload::negative()
            }
            SlotObservation::Singleton(id) => {
                let first_sighting = !self.records.is_known(id);
                let resolved = self.records.learn(id);
                if first_sighting {
                    self.collected.push(id);
                }
                let mut resolved_slots = Vec::with_capacity(resolved.len());
                for r in resolved {
                    self.collected.push(r.tag);
                    resolved_slots.push(r.slot);
                }
                AckPayload {
                    decoded: Some(id),
                    resolved_slots,
                }
            }
            SlotObservation::Mixture {
                participants,
                usable,
            } => {
                self.nc += 1;
                let resolved = self.records.add_record(slot, participants, usable);
                let mut resolved_slots = Vec::with_capacity(resolved.len());
                for r in resolved {
                    self.collected.push(r.tag);
                    resolved_slots.push(r.slot);
                }
                AckPayload {
                    decoded: None,
                    resolved_slots,
                }
            }
        }
    }

    /// Closes the current frame: updates the estimator and decides the
    /// next phase.
    ///
    /// # Panics
    ///
    /// Panics if the armed frame has unprocessed slots.
    pub fn end_frame(&mut self) {
        let adv = self.current.take().expect("no frame armed");
        assert_eq!(
            self.slot_in_frame, adv.frame_size,
            "end_frame before all slots observed"
        );
        self.frame_index += 1;
        self.next_base_slot += u64::from(adv.frame_size);

        match self.phase {
            ReaderPhase::Finished => {}
            ReaderPhase::Probing => {
                if self.n0 == 1 {
                    // Empty probe at p = 1: nobody is left.
                    self.phase = ReaderPhase::Finished;
                } else {
                    // Somebody answered the probe: at least one tag (a
                    // singleton was collected right away; a collision
                    // proves >= 2). Resume reading from that evidence —
                    // deliberately *discarding* any stale overshot estimate
                    // (frames were all-empty, so the old estimate carries
                    // no information; the Eq. 12 updates re-grow it from
                    // saturation within a few frames if more tags remain).
                    self.phase = ReaderPhase::Reading;
                    self.estimate = if self.nc > 0 { 2.0 } else { 1.0 };
                }
            }
            ReaderPhase::Reading => {
                if self.n0 == adv.frame_size {
                    self.phase = ReaderPhase::Probing;
                } else {
                    self.estimate = update_estimate(
                        self.estimator,
                        self.estimate,
                        self.n0,
                        self.nc,
                        adv.frame_size,
                        self.frame_p,
                        self.omega,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(n: u128) -> TagId {
        TagId::from_payload(n)
    }

    fn reader() -> ReaderDevice {
        ReaderDevice::new(2, 1.414, 4, EstimatorInput::Collisions, 100.0)
    }

    #[test]
    fn frame_lifecycle_and_numbering() {
        let mut r = reader();
        let adv0 = r.begin_frame().unwrap();
        assert_eq!(adv0.base_slot, 0);
        assert_eq!(adv0.frame_size, 4);
        for _ in 0..4 {
            let ack = r.observe_slot(SlotObservation::Empty);
            assert!(ack.is_negative());
        }
        r.end_frame();
        // All-empty frame → probe next.
        assert_eq!(r.phase(), ReaderPhase::Probing);
        let probe = r.begin_frame().unwrap();
        assert_eq!(probe.base_slot, 4);
        assert_eq!(probe.frame_size, 1);
        assert_eq!(probe.threshold, 1 << 16);
        r.observe_slot(SlotObservation::Empty);
        r.end_frame();
        assert_eq!(r.phase(), ReaderPhase::Finished);
        assert!(r.begin_frame().is_none());
    }

    #[test]
    fn singleton_collected_and_acked() {
        let mut r = reader();
        r.begin_frame().unwrap();
        let ack = r.observe_slot(SlotObservation::Singleton(tag(5)));
        assert_eq!(ack.decoded, Some(tag(5)));
        assert!(ack.resolved_slots.is_empty());
        assert_eq!(r.collected(), &[tag(5)]);
    }

    #[test]
    fn collision_then_singleton_resolves_with_index_ack() {
        let mut r = reader();
        r.begin_frame().unwrap();
        let ack = r.observe_slot(SlotObservation::Mixture {
            participants: vec![tag(1), tag(2)],
            usable: true,
        });
        assert!(ack.is_negative());
        let ack = r.observe_slot(SlotObservation::Singleton(tag(1)));
        assert_eq!(ack.decoded, Some(tag(1)));
        assert_eq!(ack.resolved_slots, vec![0]); // the collision's slot
        assert_eq!(r.collected(), &[tag(1), tag(2)]);
    }

    #[test]
    fn unusable_mixture_never_resolves() {
        let mut r = reader();
        r.begin_frame().unwrap();
        r.observe_slot(SlotObservation::Mixture {
            participants: vec![tag(1), tag(2)],
            usable: false,
        });
        let ack = r.observe_slot(SlotObservation::Singleton(tag(1)));
        assert!(ack.resolved_slots.is_empty());
    }

    #[test]
    fn probe_collision_resumes_reading() {
        let mut r = reader();
        // Empty frame → probe.
        r.begin_frame().unwrap();
        for _ in 0..4 {
            r.observe_slot(SlotObservation::Empty);
        }
        r.end_frame();
        r.begin_frame().unwrap();
        r.observe_slot(SlotObservation::Mixture {
            participants: vec![tag(1), tag(2), tag(3)],
            usable: false,
        });
        r.end_frame();
        assert_eq!(r.phase(), ReaderPhase::Reading);
        assert!(r.estimate() >= 2.0);
    }

    #[test]
    fn estimator_tracks_collisions() {
        let mut r = ReaderDevice::new(2, 1.414, 4, EstimatorInput::Collisions, 1_000.0);
        r.begin_frame().unwrap();
        for _ in 0..4 {
            r.observe_slot(SlotObservation::Mixture {
                participants: vec![tag(1), tag(2), tag(3)],
                usable: false,
            });
        }
        r.end_frame();
        // Saturated frame → estimate stays large.
        assert!(r.estimate() > 1_000.0, "estimate {}", r.estimate());
    }

    #[test]
    #[should_panic(expected = "end_frame before all slots observed")]
    fn premature_end_frame_panics() {
        let mut r = reader();
        r.begin_frame().unwrap();
        r.observe_slot(SlotObservation::Empty);
        r.end_frame();
    }

    #[test]
    #[should_panic(expected = "begin_frame must be called first")]
    fn observe_without_frame_panics() {
        let mut r = reader();
        let _ = r.observe_slot(SlotObservation::Empty);
    }

    #[test]
    #[should_panic(expected = "lambda must be >= 2")]
    fn bad_lambda_panics() {
        let _ = ReaderDevice::new(1, 1.4, 30, EstimatorInput::Collisions, 10.0);
    }
}
