//! Run reports and multi-run aggregation.

use rfid_types::{SlotClass, TagId, TagSet};

/// One slot's worth of trace detail, recorded when
/// [`crate::SimConfig::with_trace`] is enabled and the protocol supports
/// tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TraceEvent {
    /// Global slot index.
    pub slot: u64,
    /// Observed slot class.
    pub class: SlotClass,
    /// Ground-truth transmitter count.
    pub transmitters: u32,
    /// IDs the reader gained during this slot (direct + resolved).
    pub learned: u32,
}

/// One λ re-selection made by an adaptive λ controller (see
/// [`crate::LambdaPolicy`]): at `slot`, the controller switched to
/// `lambda` and the protocol started advertising `omega` = ω*(λ).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LambdaTrajectoryPoint {
    /// Global slot index at which the new λ took effect.
    pub slot: u64,
    /// The selected λ.
    pub lambda: u32,
    /// The matching optimal report probability numerator ω* = (λ!)^{1/λ}.
    pub omega: f64,
}

/// Per-class slot counters — exactly the rows of the paper's Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SlotCounts {
    /// Slots with no transmission.
    pub empty: u64,
    /// Slots with exactly one transmission.
    pub singleton: u64,
    /// Slots with two or more transmissions.
    pub collision: u64,
}

impl SlotCounts {
    /// Total slots used.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.empty + self.singleton + self.collision
    }

    /// Increments the counter for `class`.
    pub fn record(&mut self, class: SlotClass) {
        match class {
            SlotClass::Empty => self.empty += 1,
            SlotClass::Singleton => self.singleton += 1,
            SlotClass::Collision => self.collision += 1,
        }
    }
}

/// The outcome of one simulated inventory run.
///
/// Protocols build this incrementally with [`record_slot`],
/// [`record_identified`] and friends; the harness finalizes throughput.
///
/// [`record_slot`]: InventoryReport::record_slot
/// [`record_identified`]: InventoryReport::record_identified
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct InventoryReport {
    /// Name of the protocol that produced this report.
    pub protocol: String,
    /// Size of the tag population present when the run started. Set by the
    /// run harness ([`crate::run_inventory`]); 0 for reports built by hand.
    ///
    /// Serialized under the legacy name `population` so existing traces
    /// and goldens keep their wire shape.
    #[cfg_attr(feature = "serde", serde(rename = "population"))]
    pub population_initial: usize,
    /// Distinct tags that were present at any point during the run. For a
    /// static inventory this equals [`population_initial`]; under a
    /// dynamic population (see [`crate::population`]) it additionally
    /// counts mid-run arrivals, so completeness (`identified /
    /// population_seen`) stays well-defined when tags churn.
    ///
    /// [`population_initial`]: InventoryReport::population_initial
    #[cfg_attr(feature = "serde", serde(default))]
    pub population_seen: usize,
    /// Number of distinct tags identified.
    pub identified: usize,
    /// Slot breakdown.
    pub slots: SlotCounts,
    /// IDs learned by resolving collision records (Table III); zero for
    /// protocols without collision resolution.
    pub resolved_from_collisions: u64,
    /// Duplicate receptions discarded (only nonzero under ack loss).
    pub duplicates_discarded: u64,
    /// Dedicated re-query slots spent recovering failed resolutions (only
    /// nonzero under `RecoveryPolicy::Requery`).
    #[cfg_attr(feature = "serde", serde(default))]
    pub requery_slots: u64,
    /// Total simulated air time in microseconds, including advertisements
    /// and any extended acknowledgements.
    pub elapsed_us: f64,
    /// `identified / elapsed_seconds` — the paper's reading-throughput
    /// metric (Table I). Finalized by [`InventoryReport::finalize`].
    pub throughput_tags_per_sec: f64,
    /// The distinct identified tags (kept for invariant checking; cleared
    /// by [`InventoryReport::without_ids`] when memory matters).
    pub ids: TagSet,
    /// Per-slot trace (empty unless tracing was enabled and the protocol
    /// supports it).
    pub trace: Vec<TraceEvent>,
    /// λ selections over the run, starting with the initial λ at slot 0.
    /// Empty unless an adaptive [`crate::LambdaPolicy`] was active.
    #[cfg_attr(feature = "serde", serde(default))]
    pub lambda_trajectory: Vec<LambdaTrajectoryPoint>,
}

impl InventoryReport {
    /// Creates an empty report for the named protocol.
    #[must_use]
    pub fn new(protocol: &str) -> Self {
        InventoryReport {
            protocol: protocol.to_owned(),
            population_initial: 0,
            population_seen: 0,
            identified: 0,
            slots: SlotCounts::default(),
            resolved_from_collisions: 0,
            duplicates_discarded: 0,
            requery_slots: 0,
            elapsed_us: 0.0,
            throughput_tags_per_sec: 0.0,
            ids: TagSet::default(),
            trace: Vec::new(),
            lambda_trajectory: Vec::new(),
        }
    }

    /// Pre-sizes the identified-ID set for `n` tags so a full inventory
    /// does not rehash mid-run.
    pub fn reserve_identified(&mut self, n: usize) {
        self.ids.reserve(n);
    }

    /// Records one slot of class `class` costing `duration_us`.
    pub fn record_slot(&mut self, class: SlotClass, duration_us: f64) {
        self.slots.record(class);
        self.elapsed_us += duration_us;
    }

    /// Adds protocol overhead airtime (advertisements, extended acks) that
    /// is not attributable to a slot.
    pub fn record_overhead(&mut self, duration_us: f64) {
        self.elapsed_us += duration_us;
    }

    /// Records a newly identified tag. Returns `false` (and counts a
    /// discarded duplicate) if the tag was already known.
    pub fn record_identified(&mut self, tag: TagId) -> bool {
        if self.ids.insert(tag) {
            self.identified += 1;
            true
        } else {
            self.duplicates_discarded += 1;
            false
        }
    }

    /// Records a tag identified by resolving a collision record.
    /// Returns `false` for duplicates, which are *not* counted as resolved.
    pub fn record_resolved_from_collision(&mut self, tag: TagId) -> bool {
        if self.record_identified(tag) {
            self.resolved_from_collisions += 1;
            true
        } else {
            false
        }
    }

    /// Whether `tag` has been identified.
    #[must_use]
    pub fn contains(&self, tag: TagId) -> bool {
        self.ids.contains(&tag)
    }

    /// Computes the throughput from the identified count and elapsed time.
    /// Call once, after the run completes.
    pub fn finalize(&mut self) {
        self.throughput_tags_per_sec = if self.elapsed_us > 0.0 {
            self.identified as f64 / (self.elapsed_us / 1e6)
        } else {
            0.0
        };
    }

    /// Appends a trace event (protocols call this only when tracing is
    /// enabled).
    pub fn record_trace_event(&mut self, event: TraceEvent) {
        self.trace.push(event);
    }

    /// Appends a λ-trajectory point (protocols with an active adaptive λ
    /// controller call this at every re-selection, plus once for the
    /// initial λ).
    pub fn record_lambda_point(&mut self, point: LambdaTrajectoryPoint) {
        self.lambda_trajectory.push(point);
    }

    /// Drops the per-tag ID set and trace (e.g. before aggregating
    /// thousands of runs).
    #[must_use]
    pub fn without_ids(mut self) -> Self {
        self.ids = TagSet::default();
        self.trace = Vec::new();
        self
    }
}

/// Mean/stddev/min/max of one scalar across runs.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Aggregate {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator; 0 for a single run).
    pub std_dev: f64,
    /// Minimum observed.
    pub min: f64,
    /// Maximum observed.
    pub max: f64,
}

impl Aggregate {
    /// The all-zero aggregate, used as the deserialization default for
    /// statistics absent from older serialized reports.
    #[must_use]
    pub fn zero() -> Self {
        Aggregate {
            mean: 0.0,
            std_dev: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }

    /// Aggregates a non-empty sample.
    ///
    /// Returns `None` for an empty slice.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = if samples.len() > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(Aggregate {
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        })
    }
}

/// Aggregated statistics over repeated runs of one protocol at one
/// population size — one cell of the paper's tables.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MultiRunReport {
    /// Protocol name.
    pub protocol: String,
    /// Mean population size across runs. For the common fixed-size
    /// generator this equals every run's size; variable-size generators
    /// (e.g. Poisson arrivals) make it a true mean — it is **not** the
    /// maximum, which earlier versions reported by mistake.
    pub population: f64,
    /// Number of runs aggregated.
    pub runs: usize,
    /// Reading throughput (tags/s).
    pub throughput: Aggregate,
    /// Total slots.
    pub total_slots: Aggregate,
    /// Empty slots.
    pub empty_slots: Aggregate,
    /// Singleton slots.
    pub singleton_slots: Aggregate,
    /// Collision slots.
    pub collision_slots: Aggregate,
    /// IDs resolved from collision records.
    pub resolved_from_collisions: Aggregate,
    /// Dedicated re-query slots spent on failed resolutions.
    #[cfg_attr(feature = "serde", serde(default = "Aggregate::zero"))]
    pub requery_slots: Aggregate,
    /// Total elapsed air time (µs).
    pub elapsed_us: Aggregate,
}

impl MultiRunReport {
    /// Aggregates per-run reports. The population is the mean of each
    /// report's own [`InventoryReport::population_initial`].
    ///
    /// Returns `None` when `reports` is empty.
    #[must_use]
    pub fn from_reports(reports: &[InventoryReport]) -> Option<Self> {
        let first = reports.first()?;
        let pull = |f: &dyn Fn(&InventoryReport) -> f64| {
            Aggregate::from_samples(&reports.iter().map(f).collect::<Vec<_>>())
                .expect("non-empty reports")
        };
        Some(MultiRunReport {
            protocol: first.protocol.clone(),
            population: pull(&|r| r.population_initial as f64).mean,
            runs: reports.len(),
            throughput: pull(&|r| r.throughput_tags_per_sec),
            total_slots: pull(&|r| r.slots.total() as f64),
            empty_slots: pull(&|r| r.slots.empty as f64),
            singleton_slots: pull(&|r| r.slots.singleton as f64),
            collision_slots: pull(&|r| r.slots.collision as f64),
            resolved_from_collisions: pull(&|r| r.resolved_from_collisions as f64),
            requery_slots: pull(&|r| r.requery_slots as f64),
            elapsed_us: pull(&|r| r.elapsed_us),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(n: u128) -> TagId {
        TagId::from_payload(n)
    }

    #[test]
    fn slot_counts_record_and_total() {
        let mut c = SlotCounts::default();
        c.record(SlotClass::Empty);
        c.record(SlotClass::Singleton);
        c.record(SlotClass::Singleton);
        c.record(SlotClass::Collision);
        assert_eq!(c.empty, 1);
        assert_eq!(c.singleton, 2);
        assert_eq!(c.collision, 1);
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn report_identification_and_duplicates() {
        let mut r = InventoryReport::new("test");
        assert!(r.record_identified(tag(1)));
        assert!(!r.record_identified(tag(1)));
        assert!(r.record_resolved_from_collision(tag(2)));
        assert!(!r.record_resolved_from_collision(tag(2)));
        assert_eq!(r.identified, 2);
        assert_eq!(r.resolved_from_collisions, 1);
        assert_eq!(r.duplicates_discarded, 2);
        assert!(r.contains(tag(1)));
        assert!(!r.contains(tag(3)));
    }

    #[test]
    fn finalize_computes_throughput() {
        let mut r = InventoryReport::new("test");
        r.record_identified(tag(1));
        r.record_identified(tag(2));
        r.record_slot(SlotClass::Singleton, 500_000.0); // 0.5 s
        r.finalize();
        assert!((r.throughput_tags_per_sec - 4.0).abs() < 1e-9);
    }

    #[test]
    fn finalize_zero_time_is_zero_throughput() {
        let mut r = InventoryReport::new("test");
        r.record_identified(tag(1));
        r.finalize();
        assert_eq!(r.throughput_tags_per_sec, 0.0);
    }

    #[test]
    fn overhead_accumulates() {
        let mut r = InventoryReport::new("t");
        r.record_overhead(100.0);
        r.record_overhead(50.0);
        assert!((r.elapsed_us - 150.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_statistics() {
        let a = Aggregate::from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((a.mean - 2.5).abs() < 1e-12);
        assert!((a.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 4.0);
        assert_eq!(Aggregate::from_samples(&[]), None);
        let single = Aggregate::from_samples(&[7.0]).unwrap();
        assert_eq!(single.std_dev, 0.0);
    }

    #[test]
    fn multi_run_aggregation() {
        let mut r1 = InventoryReport::new("p");
        r1.population_initial = 1;
        r1.record_slot(SlotClass::Singleton, 1000.0);
        r1.record_identified(tag(1));
        r1.finalize();
        let mut r2 = InventoryReport::new("p");
        r2.population_initial = 3;
        r2.record_slot(SlotClass::Singleton, 1000.0);
        r2.record_slot(SlotClass::Empty, 1000.0);
        r2.record_identified(tag(1));
        r2.finalize();
        let m = MultiRunReport::from_reports(&[r1, r2]).unwrap();
        assert_eq!(m.runs, 2);
        assert_eq!(m.protocol, "p");
        // Mean of the per-run populations, not the max.
        assert!((m.population - 2.0).abs() < 1e-12);
        assert!((m.total_slots.mean - 1.5).abs() < 1e-12);
        assert!((m.empty_slots.mean - 0.5).abs() < 1e-12);
        assert!(MultiRunReport::from_reports(&[]).is_none());
    }

    #[test]
    fn without_ids_clears_set() {
        let mut r = InventoryReport::new("t");
        r.record_identified(tag(9));
        let r = r.without_ids();
        assert_eq!(r.identified, 1);
        assert!(r.ids.is_empty());
    }
}
