//! The benchmark's own [`EventSink`]: exact per-layer counts plus an
//! `Instant` stamp at every slot and estimator event.
//!
//! The engine emits one [`SlotEvent`] after each slot (cascade included),
//! so the host time between two consecutive stamps is that slot's cost.
//! Nothing inside the simulator is timed; the sink only reads the events
//! the engine already emits.

use rfid_obs::{EstimatorEvent, EventSink, RecordEvent, RecordEventKind, SlotEvent};
use rfid_types::SlotClass;
use std::collections::BTreeMap;
use std::time::Instant;

/// Exact counts of one pass over a workload's operations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerCounts {
    /// Membership-hash tests: active tags summed over every slot with
    /// `p > 0` (Hash membership only).
    pub hash_calls: u64,
    /// Observed slots by class (`empty`, `singleton`, `collision`).
    pub slots: [u64; 3],
    /// Collision records deposited.
    pub records_created: u64,
    /// Records whose waveform was synthesized, keyed by participant count.
    pub synth_k_mix: BTreeMap<u32, u64>,
    /// Records resolved into a new ID.
    pub records_resolved: u64,
    /// Signal-level resolution attempts that failed.
    pub records_failed: u64,
    /// Signal-backed resolution attempts, keyed by cascade hop.
    pub attempt_hop_mix: BTreeMap<u32, u64>,
    /// Attempts that recovered their record's last ID.
    pub attempt_successes: u64,
    /// Deepest resolution cascade seen.
    pub cascade_depth_max: u32,
    /// Slots each resolved record waited.
    pub record_latency_slots: Vec<f64>,
    /// FCAT/SCAT estimator revisions, as `(collisions, frame, p)`.
    pub estimator_inputs: Vec<(u32, u32, f64)>,
    /// Report probability of every slot (the hash micro-benchmark's input).
    pub slot_p: Vec<f64>,
    /// Every event received.
    pub events: u64,
}

impl LayerCounts {
    /// Synthesized waveforms.
    pub fn synth_calls(&self) -> u64 {
        self.synth_k_mix.values().sum()
    }

    /// Signal-backed resolution attempts.
    pub fn attempts(&self) -> u64 {
        self.attempt_hop_mix.values().sum()
    }
}

/// Host time per slot bucket, summed over every traced operation. The
/// buckets are the three observed classes (`empty`, `singleton`,
/// `collision`) plus `cascade`: slots in which a collision record resolved
/// (`learned_resolved > 0`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SlotTimes {
    /// Nanoseconds per bucket.
    pub ns: [f64; 4],
    /// Slots per bucket.
    pub count: [u64; 4],
    /// Nanoseconds between a frame's last slot and its estimator event.
    pub estimator_gap_ns: f64,
}

impl SlotTimes {
    /// Mean host nanoseconds per slot in bucket `b`.
    pub fn ns_per_slot(&self, b: usize) -> f64 {
        crate::stats::ratio(self.ns[b], self.count[b] as f64)
    }

    /// All host time the sink attributed to the engine.
    pub fn attributed_ns(&self) -> f64 {
        self.ns.iter().sum::<f64>() + self.estimator_gap_ns
    }
}

/// Counting and timing sink for one inventory at a time.
#[derive(Debug)]
pub struct TimingSink {
    /// Whether the protocol tests membership with the per-tag hash.
    hash_membership: bool,
    /// Whether collision records carry synthesized waveforms.
    synthesizes: bool,
    /// Whether counts are still being collected (the first pass only).
    counting: bool,
    population: u64,
    identified: u64,
    last: Instant,
    /// Exact counts of the first pass.
    pub counts: LayerCounts,
    /// Host time of every pass.
    pub times: SlotTimes,
}

impl TimingSink {
    /// A sink for inventories with the given membership and record kind.
    pub fn new(hash_membership: bool, synthesizes: bool) -> Self {
        TimingSink {
            hash_membership,
            synthesizes,
            counting: true,
            population: 0,
            identified: 0,
            last: Instant::now(),
            counts: LayerCounts::default(),
            times: SlotTimes::default(),
        }
    }

    /// Arms the sink for an inventory of `population` tags; the first
    /// slot is timed from here.
    pub fn begin(&mut self, population: usize) {
        self.population = population as u64;
        self.identified = 0;
        self.last = Instant::now();
    }

    /// Stops collecting counts (later passes repeat the first exactly);
    /// timing continues.
    pub fn stop_counting(&mut self) {
        self.counting = false;
    }

    fn lap_ns(&mut self) -> f64 {
        let now = Instant::now();
        let ns = now.duration_since(self.last).as_nanos() as f64;
        self.last = now;
        ns
    }
}

impl EventSink for TimingSink {
    fn slot(&mut self, event: &SlotEvent) {
        let ns = self.lap_ns();
        let class = match event.class {
            SlotClass::Empty => 0,
            SlotClass::Singleton => 1,
            SlotClass::Collision => 2,
        };
        let bucket = if event.learned_resolved > 0 { 3 } else { class };
        self.times.ns[bucket] += ns;
        self.times.count[bucket] += 1;
        if self.counting {
            let c = &mut self.counts;
            c.events += 1;
            c.slots[class] += 1;
            c.slot_p.push(event.p);
            if self.hash_membership && event.p > 0.0 {
                c.hash_calls += self.population - self.identified;
            }
        }
        self.identified += u64::from(event.learned_direct + event.learned_resolved);
    }

    fn record(&mut self, event: &RecordEvent) {
        if !self.counting {
            return;
        }
        let c = &mut self.counts;
        c.events += 1;
        match event.kind {
            RecordEventKind::Created {
                participants,
                usable,
            } => {
                c.records_created += 1;
                if self.synthesizes && usable {
                    *c.synth_k_mix.entry(participants).or_default() += 1;
                }
            }
            RecordEventKind::Resolved {
                cascade_depth,
                latency_slots,
                ..
            } => {
                c.records_resolved += 1;
                c.cascade_depth_max = c.cascade_depth_max.max(cascade_depth);
                c.record_latency_slots.push(latency_slots as f64);
            }
            RecordEventKind::Failed => c.records_failed += 1,
            RecordEventKind::Attempted { hop, success, .. } => {
                *c.attempt_hop_mix.entry(hop).or_default() += 1;
                c.attempt_successes += u64::from(success);
            }
            _ => {}
        }
    }

    fn estimator(&mut self, event: &EstimatorEvent) {
        self.times.estimator_gap_ns += self.lap_ns();
        if self.counting {
            self.counts.events += 1;
            let frame = event.n0 + event.n1 + event.nc;
            self.counts
                .estimator_inputs
                .push((event.nc, frame, event.p));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(class: SlotClass, p: f64, direct: u32, resolved: u32) -> SlotEvent {
        SlotEvent {
            slot: 0,
            class,
            transmitters: 0,
            p,
            learned_direct: direct,
            learned_resolved: resolved,
            records_outstanding: 0,
        }
    }

    #[test]
    fn hash_calls_sum_the_active_tags_of_each_slot() {
        let mut sink = TimingSink::new(true, false);
        sink.begin(10);
        sink.slot(&slot(SlotClass::Collision, 0.2, 0, 0)); // 10 active
        sink.slot(&slot(SlotClass::Singleton, 0.2, 1, 2)); // 10 active, 3 learned
        sink.slot(&slot(SlotClass::Empty, 0.0, 0, 0)); // p = 0: no tests
        sink.slot(&slot(SlotClass::Empty, 0.3, 0, 0)); // 7 active
        assert_eq!(sink.counts.hash_calls, 27);
        assert_eq!(sink.counts.slots, [2, 1, 1]);
        assert_eq!(sink.times.count, [2, 0, 1, 1]);

        sink.stop_counting();
        sink.begin(10);
        sink.slot(&slot(SlotClass::Empty, 0.3, 0, 0));
        assert_eq!(sink.counts.hash_calls, 27, "later passes only time");
        assert_eq!(sink.times.count[0], 3);
    }

    #[test]
    fn sampled_membership_makes_no_hash_calls() {
        let mut sink = TimingSink::new(false, true);
        sink.begin(10);
        sink.slot(&slot(SlotClass::Collision, 0.2, 0, 0));
        sink.record(&RecordEvent {
            slot: 0,
            record_slot: 0,
            kind: RecordEventKind::Created {
                participants: 2,
                usable: true,
            },
        });
        assert_eq!(sink.counts.hash_calls, 0);
        assert_eq!(sink.counts.synth_calls(), 1);
        assert_eq!(sink.counts.events, 2);
    }
}
