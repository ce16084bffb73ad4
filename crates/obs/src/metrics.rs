//! Aggregate counters and histograms built from the event stream.

use crate::event::{
    DetectionEvent, DetectionKind, EstimatorEvent, LambdaEvent, PopulationEvent,
    PopulationEventKind, RecordEvent, RecordEventKind, ScheduleEvent, SiteEvent, SlotEvent,
};
use crate::EventSink;
use rfid_types::SlotClass;
use std::fmt;

/// Descriptive statistics of the residual SNR observed at one hop depth.
///
/// `min`/`mean` can be `±inf`: a noiseless channel reports every attempt at
/// `+inf`, and an attempt whose residual is pure noise reports `-inf`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnrHopStats {
    /// Number of attempts observed at this hop depth.
    pub count: u64,
    /// Minimum residual SNR (dB).
    pub min: f64,
    /// Mean residual SNR (dB).
    pub mean: f64,
    /// 10th-percentile residual SNR (dB): the sample at rank
    /// `⌊0.1·(n−1)⌋` of the sorted values.
    pub p10: f64,
}

/// Per-hop-depth residual-SNR samples from signal-backed resolution
/// attempts.
///
/// Shared by the live [`MetricsSink`] and the JSONL replay summary
/// ([`crate::jsonl::replay::TraceSummary`]) so "replay == live" holds
/// structurally: both sides collect raw samples and derive min/mean/p10 the
/// same way.
#[derive(Debug, Clone, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SnrByHop {
    /// `samples[d]` holds the residual SNRs observed at hop depth `d + 1`.
    samples: Vec<Vec<f64>>,
}

impl SnrByHop {
    /// Records one attempt's residual SNR at 1-based hop depth `hop`.
    /// Hop 0 (never emitted) is ignored; `NaN` samples are dropped so the
    /// derived statistics stay ordered.
    pub fn observe(&mut self, hop: u32, residual_snr_db: f64) {
        if hop == 0 || residual_snr_db.is_nan() {
            return;
        }
        let idx = hop as usize - 1;
        if self.samples.len() <= idx {
            self.samples.resize(idx + 1, Vec::new());
        }
        self.samples[idx].push(residual_snr_db);
    }

    /// Whether no attempt has been observed at any depth.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.iter().all(Vec::is_empty)
    }

    /// Deepest hop with at least one sample (0 when empty).
    #[must_use]
    pub fn max_hop(&self) -> u32 {
        self.samples
            .iter()
            .rposition(|s| !s.is_empty())
            .map_or(0, |i| i as u32 + 1)
    }

    /// Statistics for 1-based hop depth `hop`, or `None` when no attempt
    /// ran at that depth.
    #[must_use]
    pub fn stats(&self, hop: u32) -> Option<SnrHopStats> {
        let samples = match hop.checked_sub(1) {
            Some(idx) => self.samples.get(idx as usize)?,
            None => return None,
        };
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        Some(SnrHopStats {
            count: n as u64,
            min: sorted[0],
            mean: sorted.iter().sum::<f64>() / n as f64,
            p10: sorted[(n - 1) / 10],
        })
    }

    /// Appends another collection's samples into this one.
    pub fn merge(&mut self, other: &SnrByHop) {
        if self.samples.len() < other.samples.len() {
            self.samples.resize(other.samples.len(), Vec::new());
        }
        for (mine, theirs) in self.samples.iter_mut().zip(other.samples.iter()) {
            mine.extend_from_slice(theirs);
        }
    }
}

/// Per-class slot totals (obs-side mirror of the simulator's counters, so
/// this crate depends only on `rfid-types`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SlotTotals {
    /// Slots with no transmission.
    pub empty: u64,
    /// Slots with exactly one transmission.
    pub singleton: u64,
    /// Slots with two or more transmissions.
    pub collision: u64,
}

impl SlotTotals {
    /// Total slots observed.
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

/// Number of power-of-two latency buckets (bucket `i` holds values in
/// `[2^i, 2^(i+1))`; values above the last bucket land in the overflow).
pub const LATENCY_BUCKETS: usize = 16;

/// A power-of-two histogram of slot-count latencies.
///
/// Bucket 0 holds latency 0–1, bucket `i` holds `[2^i, 2^{i+1})`, and one
/// overflow bucket catches everything `≥ 2^LATENCY_BUCKETS`. The exact sum
/// and count are kept alongside, so [`LatencyHistogram::mean`] is exact and
/// only the quantiles are bucket-resolution approximations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS + 1],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; LATENCY_BUCKETS + 1],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    fn bucket_index(value: u64) -> usize {
        if value <= 1 {
            0
        } else {
            ((u64::BITS - 1 - value.leading_zeros()) as usize).min(LATENCY_BUCKETS)
        }
    }

    /// Records one latency observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the observations (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Maximum observed value.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Upper bound of the bucket containing the `q`-quantile (0 ≤ q ≤ 1),
    /// i.e. an approximation with power-of-two resolution.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == 0 {
                    1
                } else if i >= LATENCY_BUCKETS {
                    self.max
                } else {
                    (1u64 << (i + 1)) - 1
                };
            }
        }
        self.max
    }

    /// Adds another histogram's observations into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Aggregate observability metrics for one or more runs.
///
/// Built by [`MetricsSink`]; merge per-run metrics with [`Metrics::merge`].
#[derive(Debug, Clone, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Metrics {
    /// Runs merged into this value (1 for a single run).
    pub runs: u64,
    /// Per-class slot totals.
    pub slots: SlotTotals,
    /// Ground-truth transmissions summed over all slots.
    pub transmissions: u64,
    /// IDs learned directly from singleton decodes.
    pub identified_direct: u64,
    /// IDs learned by resolving collision records.
    pub identified_resolved: u64,
    /// Collision records deposited.
    pub records_created: u64,
    /// Deposited records that could never resolve (spoiled or `k > λ`).
    pub records_unusable: u64,
    /// Records resolved into an ID.
    pub records_resolved: u64,
    /// Records that became fully known without yielding a new ID.
    pub records_exhausted: u64,
    /// Signal-level resolution attempts defeated by noise.
    pub records_failed: u64,
    /// Highest simultaneous count of outstanding records.
    pub max_outstanding: u64,
    /// Deepest resolution cascade observed in a single slot.
    pub max_cascade_depth: u32,
    /// Deposit-to-resolution latency of resolved records, in slots.
    pub resolution_latency: LatencyHistogram,
    /// Signal-backed resolution attempts (successful or not).
    pub resolution_attempts: u64,
    /// Signal-backed attempts that succeeded.
    pub resolution_successes: u64,
    /// Deepest hop at which a signal-backed attempt ran.
    pub max_attempt_hop: u32,
    /// Residual-SNR samples per hop depth from signal-backed attempts.
    #[cfg_attr(feature = "serde", serde(default))]
    pub snr_by_hop: SnrByHop,
    /// λ re-selections made by an adaptive λ controller.
    #[cfg_attr(feature = "serde", serde(default))]
    pub lambda_adjustments: u64,
    /// The λ currently in effect (gauge: last λ event wins; 0 when no
    /// λ event was ever observed).
    #[cfg_attr(feature = "serde", serde(default))]
    pub lambda_current: u32,
    /// Sites completed by a sharded (work-stealing) multi-site executor.
    #[cfg_attr(feature = "serde", serde(default))]
    pub sites_completed: u64,
    /// Tags identified across completed sharded sites, summed.
    #[cfg_attr(feature = "serde", serde(default))]
    pub site_identified: u64,
    /// Concurrent multi-reader time slices completed.
    #[cfg_attr(feature = "serde", serde(default))]
    pub schedule_slices: u64,
    /// Sites run across all completed time slices.
    #[cfg_attr(feature = "serde", serde(default))]
    pub scheduled_sites: u64,
    /// Largest number of sites reading concurrently in one slice.
    #[cfg_attr(feature = "serde", serde(default))]
    pub max_concurrent_sites: u64,
    /// Collision slots decoded in place by a non-ANC recovery backend
    /// (MPR / compressed sensing).
    #[cfg_attr(feature = "serde", serde(default))]
    pub slots_recovered: u64,
    /// Replies decoded by those in-place recoveries, summed.
    #[cfg_attr(feature = "serde", serde(default))]
    pub replies_recovered: u64,
    /// Tag arrivals replayed by a dynamic-population schedule.
    #[cfg_attr(feature = "serde", serde(default))]
    pub arrivals: u64,
    /// Tag departures replayed by a dynamic-population schedule.
    #[cfg_attr(feature = "serde", serde(default))]
    pub departures: u64,
    /// Unknown-tag (arrival) detections made by the monitoring reader.
    #[cfg_attr(feature = "serde", serde(default))]
    pub unknown_detected: u64,
    /// Missing-tag (departure) detections made by the monitoring reader.
    #[cfg_attr(feature = "serde", serde(default))]
    pub missing_detected: u64,
    /// Summed detection latency across both detection kinds, µs (divide
    /// by `unknown_detected + missing_detected` for the mean).
    #[cfg_attr(feature = "serde", serde(default))]
    pub detection_latency_us: f64,
    /// Re-query slots scheduled by the recovery policy.
    pub requeries_scheduled: u64,
    /// Re-query slots executed.
    pub requeries_executed: u64,
    /// Executed re-queries whose addressed decode succeeded.
    pub requeries_succeeded: u64,
    /// Estimator revisions observed.
    pub estimator_updates: u64,
    /// The last estimate `N̂` each run ended with, summed over runs
    /// (divide by [`Metrics::runs`] for the mean).
    pub final_estimate_sum: f64,
}

impl Metrics {
    /// Mean of the final population estimates across merged runs.
    #[must_use]
    pub fn final_estimate_mean(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.final_estimate_sum / self.runs as f64
        }
    }

    /// Share of created records that resolved into an ID.
    #[must_use]
    pub fn resolution_rate(&self) -> f64 {
        if self.records_created == 0 {
            0.0
        } else {
            self.records_resolved as f64 / self.records_created as f64
        }
    }

    /// Mean detection latency over every unknown- and missing-tag
    /// detection, µs (0 when nothing was detected).
    #[must_use]
    pub fn detection_latency_mean_us(&self) -> f64 {
        let n = self.unknown_detected + self.missing_detected;
        if n == 0 {
            0.0
        } else {
            self.detection_latency_us / n as f64
        }
    }

    /// Folds another run's (or aggregate's) metrics into this one.
    pub fn merge(&mut self, other: &Metrics) {
        self.runs += other.runs;
        self.slots.empty += other.slots.empty;
        self.slots.singleton += other.slots.singleton;
        self.slots.collision += other.slots.collision;
        self.transmissions += other.transmissions;
        self.identified_direct += other.identified_direct;
        self.identified_resolved += other.identified_resolved;
        self.records_created += other.records_created;
        self.records_unusable += other.records_unusable;
        self.records_resolved += other.records_resolved;
        self.records_exhausted += other.records_exhausted;
        self.records_failed += other.records_failed;
        self.max_outstanding = self.max_outstanding.max(other.max_outstanding);
        self.max_cascade_depth = self.max_cascade_depth.max(other.max_cascade_depth);
        self.resolution_latency.merge(&other.resolution_latency);
        self.resolution_attempts += other.resolution_attempts;
        self.resolution_successes += other.resolution_successes;
        self.max_attempt_hop = self.max_attempt_hop.max(other.max_attempt_hop);
        self.snr_by_hop.merge(&other.snr_by_hop);
        self.lambda_adjustments += other.lambda_adjustments;
        if other.lambda_current != 0 {
            self.lambda_current = other.lambda_current;
        }
        self.sites_completed += other.sites_completed;
        self.site_identified += other.site_identified;
        self.schedule_slices += other.schedule_slices;
        self.scheduled_sites += other.scheduled_sites;
        self.max_concurrent_sites = self.max_concurrent_sites.max(other.max_concurrent_sites);
        self.slots_recovered += other.slots_recovered;
        self.replies_recovered += other.replies_recovered;
        self.arrivals += other.arrivals;
        self.departures += other.departures;
        self.unknown_detected += other.unknown_detected;
        self.missing_detected += other.missing_detected;
        self.detection_latency_us += other.detection_latency_us;
        self.requeries_scheduled += other.requeries_scheduled;
        self.requeries_executed += other.requeries_executed;
        self.requeries_succeeded += other.requeries_succeeded;
        self.estimator_updates += other.estimator_updates;
        self.final_estimate_sum += other.final_estimate_sum;
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lat = &self.resolution_latency;
        writeln!(f, "metric                          value")?;
        writeln!(f, "------------------------------  ------------")?;
        writeln!(f, "runs                            {:>12}", self.runs)?;
        writeln!(
            f,
            "slots total                     {:>12}",
            self.slots.total()
        )?;
        writeln!(
            f,
            "  empty                         {:>12}",
            self.slots.empty
        )?;
        writeln!(
            f,
            "  singleton                     {:>12}",
            self.slots.singleton
        )?;
        writeln!(
            f,
            "  collision                     {:>12}",
            self.slots.collision
        )?;
        writeln!(
            f,
            "transmissions                   {:>12}",
            self.transmissions
        )?;
        writeln!(
            f,
            "identified direct               {:>12}",
            self.identified_direct
        )?;
        writeln!(
            f,
            "identified via records          {:>12}",
            self.identified_resolved
        )?;
        writeln!(
            f,
            "records created                 {:>12}",
            self.records_created
        )?;
        writeln!(
            f,
            "  unusable at creation          {:>12}",
            self.records_unusable
        )?;
        writeln!(
            f,
            "  resolved                      {:>12}",
            self.records_resolved
        )?;
        writeln!(
            f,
            "  exhausted                     {:>12}",
            self.records_exhausted
        )?;
        writeln!(
            f,
            "  failed (noise)                {:>12}",
            self.records_failed
        )?;
        writeln!(
            f,
            "resolution rate                 {:>11.1}%",
            100.0 * self.resolution_rate()
        )?;
        writeln!(
            f,
            "max records outstanding         {:>12}",
            self.max_outstanding
        )?;
        writeln!(
            f,
            "max cascade depth               {:>12}",
            self.max_cascade_depth
        )?;
        writeln!(
            f,
            "resolution latency (slots)      mean {:.1}, p50 ≤ {}, p99 ≤ {}, max {}",
            lat.mean(),
            lat.quantile(0.5),
            lat.quantile(0.99),
            lat.max()
        )?;
        writeln!(
            f,
            "resolution attempts             {:>12}",
            self.resolution_attempts
        )?;
        writeln!(
            f,
            "  succeeded                     {:>12}",
            self.resolution_successes
        )?;
        writeln!(
            f,
            "  max hop                       {:>12}",
            self.max_attempt_hop
        )?;
        for hop in 1..=self.snr_by_hop.max_hop() {
            if let Some(s) = self.snr_by_hop.stats(hop) {
                writeln!(
                    f,
                    "  hop {hop} residual SNR (dB)     min {:.1}, mean {:.1}, p10 {:.1} (n={})",
                    s.min, s.mean, s.p10, s.count
                )?;
            }
        }
        writeln!(
            f,
            "lambda adjustments              {:>12}",
            self.lambda_adjustments
        )?;
        writeln!(
            f,
            "lambda current                  {:>12}",
            self.lambda_current
        )?;
        writeln!(
            f,
            "sharded sites completed         {:>12}",
            self.sites_completed
        )?;
        writeln!(
            f,
            "  site identifications          {:>12}",
            self.site_identified
        )?;
        writeln!(
            f,
            "schedule slices                 {:>12}",
            self.schedule_slices
        )?;
        writeln!(
            f,
            "  sites scheduled               {:>12}",
            self.scheduled_sites
        )?;
        writeln!(
            f,
            "  max concurrent sites          {:>12}",
            self.max_concurrent_sites
        )?;
        writeln!(
            f,
            "backend slots recovered         {:>12}",
            self.slots_recovered
        )?;
        writeln!(
            f,
            "  replies decoded               {:>12}",
            self.replies_recovered
        )?;
        writeln!(f, "population arrivals             {:>12}", self.arrivals)?;
        writeln!(f, "population departures           {:>12}", self.departures)?;
        writeln!(
            f,
            "unknown tags detected           {:>12}",
            self.unknown_detected
        )?;
        writeln!(
            f,
            "missing tags detected           {:>12}",
            self.missing_detected
        )?;
        writeln!(
            f,
            "detection latency (mean µs)     {:>12.1}",
            self.detection_latency_mean_us()
        )?;
        writeln!(
            f,
            "re-queries scheduled            {:>12}",
            self.requeries_scheduled
        )?;
        writeln!(
            f,
            "re-queries executed             {:>12}",
            self.requeries_executed
        )?;
        writeln!(
            f,
            "  succeeded                     {:>12}",
            self.requeries_succeeded
        )?;
        writeln!(
            f,
            "estimator revisions             {:>12}",
            self.estimator_updates
        )?;
        write!(
            f,
            "final estimate (mean)           {:>12.1}",
            self.final_estimate_mean()
        )
    }
}

/// An [`EventSink`] that folds the event stream into [`Metrics`].
#[derive(Debug, Clone, Default)]
pub struct MetricsSink {
    metrics: Metrics,
    final_estimate: f64,
}

impl MetricsSink {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        MetricsSink::default()
    }

    /// Finishes the run and returns its metrics (with `runs = 1`).
    #[must_use]
    pub fn into_metrics(self) -> Metrics {
        let mut metrics = self.metrics;
        metrics.runs = 1;
        metrics.final_estimate_sum = self.final_estimate;
        metrics
    }

    /// The metrics accumulated so far, mid-run. `runs` and
    /// `final_estimate_sum` are only stamped by
    /// [`MetricsSink::into_metrics`]; everything else is live. Used by
    /// streaming sinks to publish coalesced snapshots under backpressure.
    #[must_use]
    pub fn current(&self) -> &Metrics {
        &self.metrics
    }
}

impl EventSink for MetricsSink {
    fn slot(&mut self, event: &SlotEvent) {
        let m = &mut self.metrics;
        m.slots.record(event.class);
        m.transmissions += u64::from(event.transmitters);
        m.identified_direct += u64::from(event.learned_direct);
        m.identified_resolved += u64::from(event.learned_resolved);
        m.max_outstanding = m.max_outstanding.max(event.records_outstanding);
    }

    fn record(&mut self, event: &RecordEvent) {
        let m = &mut self.metrics;
        match event.kind {
            RecordEventKind::Created { usable, .. } => {
                m.records_created += 1;
                if !usable {
                    m.records_unusable += 1;
                }
            }
            RecordEventKind::Resolved {
                cascade_depth,
                latency_slots,
                ..
            } => {
                m.records_resolved += 1;
                m.max_cascade_depth = m.max_cascade_depth.max(cascade_depth);
                m.resolution_latency.record(latency_slots);
            }
            RecordEventKind::Exhausted => m.records_exhausted += 1,
            RecordEventKind::Failed => m.records_failed += 1,
            RecordEventKind::Attempted {
                hop,
                residual_snr_db,
                success,
            } => {
                m.resolution_attempts += 1;
                if success {
                    m.resolution_successes += 1;
                }
                m.max_attempt_hop = m.max_attempt_hop.max(hop);
                m.snr_by_hop.observe(hop, residual_snr_db);
            }
            RecordEventKind::RequeryScheduled { .. } => m.requeries_scheduled += 1,
            RecordEventKind::Requeried { success, .. } => {
                m.requeries_executed += 1;
                if success {
                    m.requeries_succeeded += 1;
                }
            }
            RecordEventKind::Recovered { decoded, .. } => {
                m.slots_recovered += 1;
                m.replies_recovered += u64::from(decoded);
            }
        }
    }

    fn estimator(&mut self, event: &EstimatorEvent) {
        self.metrics.estimator_updates += 1;
        self.final_estimate = event.estimate;
    }

    fn lambda(&mut self, event: &LambdaEvent) {
        self.metrics.lambda_adjustments += 1;
        self.metrics.lambda_current = event.lambda;
    }

    fn schedule(&mut self, event: &ScheduleEvent) {
        let m = &mut self.metrics;
        m.schedule_slices += 1;
        m.scheduled_sites += u64::from(event.sites);
        m.max_concurrent_sites = m.max_concurrent_sites.max(u64::from(event.sites));
    }

    fn site(&mut self, event: &SiteEvent) {
        let m = &mut self.metrics;
        m.sites_completed += 1;
        m.site_identified += u64::from(event.identified);
    }

    fn population(&mut self, event: &PopulationEvent) {
        match event.kind {
            PopulationEventKind::Arrival => self.metrics.arrivals += 1,
            PopulationEventKind::Departure => self.metrics.departures += 1,
        }
    }

    fn detection(&mut self, event: &DetectionEvent) {
        match event.kind {
            DetectionKind::Unknown => self.metrics.unknown_detected += 1,
            DetectionKind::Missing => self.metrics.missing_detected += 1,
        }
        self.metrics.detection_latency_us += event.latency_us;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_types::TagId;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = LatencyHistogram::default();
        for v in [0u64, 1, 2, 3, 4, 100, 70_000, 1 << 20] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 1 << 20);
        let mean = (1 + 2 + 3 + 4 + 100 + 70_000 + (1 << 20)) as f64 / 8.0;
        assert!((h.mean() - mean).abs() < 1e-9);
        // p50 of 8 values → 4th smallest (3) lives in bucket [2,4).
        assert!(h.quantile(0.5) >= 3);
        assert_eq!(h.quantile(1.0), 1 << 20);
        assert_eq!(LatencyHistogram::default().quantile(0.5), 0);
    }

    #[test]
    fn histogram_merge_adds() {
        let mut a = LatencyHistogram::default();
        a.record(5);
        let mut b = LatencyHistogram::default();
        b.record(7);
        b.record(9);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 9);
        assert!((a.mean() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn sink_accumulates_and_merges() {
        let mut sink = MetricsSink::new();
        sink.slot(&SlotEvent {
            slot: 0,
            class: SlotClass::Collision,
            transmitters: 2,
            p: 0.5,
            learned_direct: 0,
            learned_resolved: 0,
            records_outstanding: 1,
        });
        sink.record(&RecordEvent {
            slot: 0,
            record_slot: 0,
            kind: RecordEventKind::Created {
                participants: 2,
                usable: true,
            },
        });
        sink.record(&RecordEvent {
            slot: 4,
            record_slot: 0,
            kind: RecordEventKind::Resolved {
                tag: TagId::from_payload(9),
                cascade_depth: 2,
                latency_slots: 4,
            },
        });
        sink.estimator(&EstimatorEvent {
            slot: 30,
            frame: 0,
            p: 0.1,
            n0: 5,
            n1: 20,
            nc: 5,
            estimate: 123.0,
        });
        let m = sink.into_metrics();
        assert_eq!(m.runs, 1);
        assert_eq!(m.slots.collision, 1);
        assert_eq!(m.records_created, 1);
        assert_eq!(m.records_resolved, 1);
        assert_eq!(m.max_cascade_depth, 2);
        assert_eq!(m.resolution_latency.count(), 1);
        assert_eq!(m.estimator_updates, 1);
        assert!((m.final_estimate_mean() - 123.0).abs() < 1e-12);
        assert!((m.resolution_rate() - 1.0).abs() < 1e-12);

        let mut merged = m.clone();
        merged.merge(&m);
        assert_eq!(merged.runs, 2);
        assert_eq!(merged.records_created, 2);
        assert!((merged.final_estimate_mean() - 123.0).abs() < 1e-12);
        let table = merged.to_string();
        assert!(table.contains("records created"));
        assert!(table.contains("resolution latency"));
    }

    #[test]
    fn snr_by_hop_stats_and_merge() {
        let mut snr = SnrByHop::default();
        assert!(snr.is_empty());
        assert_eq!(snr.max_hop(), 0);
        assert_eq!(snr.stats(1), None);
        for v in [10.0, 20.0, 0.0, 30.0] {
            snr.observe(1, v);
        }
        snr.observe(3, f64::INFINITY);
        snr.observe(2, f64::NEG_INFINITY);
        snr.observe(0, 99.0); // hop 0 never happens — ignored
        snr.observe(1, f64::NAN); // dropped
        assert_eq!(snr.max_hop(), 3);
        let h1 = snr.stats(1).unwrap();
        assert_eq!(h1.count, 4);
        assert_eq!(h1.min, 0.0);
        assert!((h1.mean - 15.0).abs() < 1e-12);
        assert_eq!(h1.p10, 0.0);
        assert_eq!(snr.stats(2).unwrap().min, f64::NEG_INFINITY);
        let h3 = snr.stats(3).unwrap();
        assert_eq!(h3.mean, f64::INFINITY);
        assert_eq!(h3.p10, f64::INFINITY);
        assert_eq!(snr.stats(4), None);

        let mut other = SnrByHop::default();
        other.observe(1, 50.0);
        snr.merge(&other);
        assert_eq!(snr.stats(1).unwrap().count, 5);
    }

    #[test]
    fn lambda_events_update_gauge_and_counter() {
        let mut sink = MetricsSink::new();
        sink.lambda(&LambdaEvent {
            slot: 0,
            lambda: 2,
            omega: 1.414,
        });
        sink.lambda(&LambdaEvent {
            slot: 40,
            lambda: 3,
            omega: 1.817,
        });
        let m = sink.into_metrics();
        assert_eq!(m.lambda_adjustments, 2);
        assert_eq!(m.lambda_current, 3);

        let mut merged = Metrics::default();
        merged.merge(&m);
        assert_eq!(merged.lambda_current, 3);
        assert_eq!(merged.lambda_adjustments, 2);
        let table = merged.to_string();
        assert!(table.contains("lambda adjustments"));
    }

    #[test]
    fn schedule_events_accumulate_and_merge() {
        let mut sink = MetricsSink::new();
        for (slice, sites) in [(0u32, 5u32), (1, 3), (2, 1)] {
            sink.schedule(&ScheduleEvent {
                slice,
                sites,
                wall_elapsed_us: 100.0,
                serial_elapsed_us: 100.0 * f64::from(sites),
            });
        }
        let m = sink.into_metrics();
        assert_eq!(m.schedule_slices, 3);
        assert_eq!(m.scheduled_sites, 9);
        assert_eq!(m.max_concurrent_sites, 5);

        let mut merged = m.clone();
        merged.merge(&m);
        assert_eq!(merged.schedule_slices, 6);
        assert_eq!(merged.scheduled_sites, 18);
        assert_eq!(merged.max_concurrent_sites, 5);
        assert!(merged.to_string().contains("schedule slices"));
    }

    #[test]
    fn recovered_events_accumulate_and_merge() {
        use crate::event::RecoveryBackendTag;
        let mut sink = MetricsSink::new();
        for (slot, decoded) in [(2u64, 3u32), (7, 2)] {
            sink.record(&RecordEvent {
                slot,
                record_slot: slot,
                kind: RecordEventKind::Recovered {
                    backend: RecoveryBackendTag::Mpr,
                    decoded,
                },
            });
        }
        let m = sink.into_metrics();
        assert_eq!(m.slots_recovered, 2);
        assert_eq!(m.replies_recovered, 5);
        assert_eq!(m.records_created, 0, "in-place decodes deposit nothing");

        let mut merged = m.clone();
        merged.merge(&m);
        assert_eq!(merged.slots_recovered, 4);
        assert_eq!(merged.replies_recovered, 10);
        assert!(merged.to_string().contains("backend slots recovered"));
    }

    #[test]
    fn attempted_events_feed_snr_by_hop() {
        let mut sink = MetricsSink::new();
        sink.record(&RecordEvent {
            slot: 2,
            record_slot: 1,
            kind: RecordEventKind::Attempted {
                hop: 1,
                residual_snr_db: 12.5,
                success: true,
            },
        });
        sink.record(&RecordEvent {
            slot: 3,
            record_slot: 1,
            kind: RecordEventKind::Attempted {
                hop: 2,
                residual_snr_db: f64::INFINITY,
                success: true,
            },
        });
        let m = sink.into_metrics();
        assert_eq!(m.snr_by_hop.stats(1).unwrap().count, 1);
        assert_eq!(m.snr_by_hop.stats(2).unwrap().mean, f64::INFINITY);
    }
}
