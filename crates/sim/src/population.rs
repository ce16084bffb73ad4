//! Event-driven dynamic tag populations: deterministic arrival/departure
//! schedules, Gen2-style session persistence, and a continuous-monitoring
//! driver whose headline metric is missing-/unknown-tag detection latency.
//!
//! Every scenario elsewhere in the workspace inventories a fixed
//! population; the paper's throughput claims matter most where tags arrive
//! and leave mid-run — portals, conveyors, drive-by readers. This module
//! models that regime at round granularity:
//!
//! * [`DwellModel`] — how tags enter and how long they stay (conveyor,
//!   portal, Poisson churn).
//! * [`PopulationSchedule`] — the model unrolled into a deterministic,
//!   seed-derived list of [`PopulationEvent`]s that the driver replays at
//!   round boundaries. Same seed ⇒ same ground truth, for every protocol
//!   and at any thread count.
//! * [`MonitorConfig`] + [`run_monitoring`] /
//!   [`run_monitoring_observed`] — the continuous-monitoring driver:
//!   re-inventory rounds with optional session persistence (delta rounds
//!   contend only for unread arrivals; every `audit_every`-th round is a
//!   full inventory), producing a [`MonitorReport`] with per-detection
//!   latencies.
//!
//! # Detection semantics
//!
//! *Unknown-tag detection* happens the first time an arrived tag is read;
//! its latency runs from the arrival event (start of the arrival round) to
//! the end of the detecting round, in simulated air time. *Missing-tag
//! detection* happens at the end of the first full-inventory round after a
//! previously read tag departed — delta rounds cannot detect absence,
//! which is exactly the persistence/latency trade the `audit_every` knob
//! exposes.
//!
//! # Example
//!
//! ```
//! use rfid_sim::population::{DwellModel, MonitorConfig, PopulationSchedule, run_monitoring};
//! use rfid_sim::rounds::StatelessSession;
//! use rfid_sim::SimConfig;
//! # use rfid_sim::{AntiCollisionProtocol, InventoryReport, SimError};
//! # use rfid_types::{SlotClass, TagId};
//! # struct RollCall;
//! # impl AntiCollisionProtocol for RollCall {
//! #     fn name(&self) -> &str { "roll-call" }
//! #     fn run(&self, tags: &[TagId], config: &SimConfig, _rng: &mut rand::rngs::StdRng)
//! #         -> Result<InventoryReport, SimError> {
//! #         let mut report = InventoryReport::new(self.name());
//! #         for tag in tags {
//! #             report.record_slot(SlotClass::Singleton, config.timing().basic_slot_us());
//! #             report.record_identified(*tag);
//! #         }
//! #         Ok(report)
//! #     }
//! # }
//!
//! let model = DwellModel::poisson(2.0, 5.0);
//! let schedule = PopulationSchedule::generate(&model, 20, 10, 7);
//! let mut session = StatelessSession::new(RollCall);
//! let report = run_monitoring(
//!     &mut session,
//!     &schedule,
//!     &MonitorConfig::default(),
//!     &SimConfig::default().with_seed(7),
//! )?;
//! assert_eq!(report.per_round.len(), 10);
//! assert_eq!(report.population_initial, 20);
//! assert!(report.population_seen >= report.population_initial);
//! # Ok::<(), rfid_sim::SimError>(())
//! ```

use crate::rounds::MultiRoundSession;
use crate::{derive_seed, seeded_rng, InventoryReport, SimConfig, SimError};
use rand::Rng;
use rfid_obs::{
    DetectionEvent, DetectionKind as ObsDetectionKind, EventSink, NoopSink, PopulationEvent,
    PopulationEventKind,
};
use rfid_types::{TagId, TagMap, TagSet};

/// Dedicated RNG-stream index for schedule generation, disjoint from the
/// per-round config seeds `derive_seed(seed, k)`, the resolution-noise
/// master (`u64::MAX - 2`) and the backend stream (`u64::MAX - 3`).
const SCHEDULE_STREAM: u64 = u64::MAX - 4;

/// How tags enter the read zone and how long they dwell, in rounds.
///
/// All three models are unrolled by [`PopulationSchedule::generate`] into
/// the same deterministic event list; they differ only in their
/// inter-arrival and dwell-time distributions.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum DwellModel {
    /// A conveyor belt: `rate` tags arrive per round (fractional rates
    /// accumulate), and every tag dwells exactly `dwell_rounds` rounds.
    Conveyor {
        /// Mean arrivals per round (≥ 0, finite).
        rate: f64,
        /// Deterministic dwell, rounds (≥ 1).
        dwell_rounds: u32,
    },
    /// A dock-door portal: Poisson(`rate`) arrivals per round, each tag
    /// dwelling uniformly in `[dwell_min, dwell_max]` rounds.
    Portal {
        /// Mean arrivals per round (≥ 0, finite).
        rate: f64,
        /// Shortest dwell, rounds (≥ 1).
        dwell_min: u32,
        /// Longest dwell, rounds (≥ `dwell_min`).
        dwell_max: u32,
    },
    /// Memoryless churn: Poisson(`rate`) arrivals per round, exponential
    /// dwell with mean `mean_dwell_rounds` (clamped to ≥ 1 round).
    Poisson {
        /// Mean arrivals per round (≥ 0, finite).
        rate: f64,
        /// Mean dwell, rounds (> 0, finite).
        mean_dwell_rounds: f64,
    },
}

impl DwellModel {
    /// Convenience constructor for the conveyor model.
    #[must_use]
    pub fn conveyor(rate: f64, dwell_rounds: u32) -> Self {
        DwellModel::Conveyor { rate, dwell_rounds }
    }

    /// Convenience constructor for the portal model.
    #[must_use]
    pub fn portal(rate: f64, dwell_min: u32, dwell_max: u32) -> Self {
        DwellModel::Portal {
            rate,
            dwell_min,
            dwell_max,
        }
    }

    /// Convenience constructor for the Poisson-churn model.
    #[must_use]
    pub fn poisson(rate: f64, mean_dwell_rounds: f64) -> Self {
        DwellModel::Poisson {
            rate,
            mean_dwell_rounds,
        }
    }

    /// Checks the model parameters, returning a description of the first
    /// violation. Used by external entry points (`repro serve`) where a
    /// panicking constructor would be a remote crash.
    ///
    /// # Errors
    ///
    /// Negative or non-finite rates, non-finite or non-positive dwell
    /// times, and empty (zero-length) dwell windows are rejected.
    pub fn validate(&self) -> Result<(), String> {
        let rate = match *self {
            DwellModel::Conveyor { rate, dwell_rounds } => {
                if dwell_rounds == 0 {
                    return Err("conveyor dwell_rounds must be >= 1".into());
                }
                rate
            }
            DwellModel::Portal {
                rate,
                dwell_min,
                dwell_max,
            } => {
                if dwell_min == 0 {
                    return Err("portal dwell_min must be >= 1".into());
                }
                if dwell_max < dwell_min {
                    return Err(format!(
                        "portal dwell window [{dwell_min}, {dwell_max}] is empty"
                    ));
                }
                rate
            }
            DwellModel::Poisson {
                rate,
                mean_dwell_rounds,
            } => {
                if !mean_dwell_rounds.is_finite() || mean_dwell_rounds <= 0.0 {
                    return Err(format!(
                        "mean_dwell_rounds must be finite and > 0, got {mean_dwell_rounds}"
                    ));
                }
                rate
            }
        };
        if !rate.is_finite() || rate < 0.0 {
            return Err(format!("arrival rate must be finite and >= 0, got {rate}"));
        }
        Ok(())
    }
}

/// What happened to the ground-truth population at a round boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum ScheduledEventKind {
    /// The tag enters the read zone at the start of `round`.
    Arrival,
    /// The tag leaves the read zone at the start of `round`.
    Departure,
}

/// One scheduled population change, applied at the start of its round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ScheduledEvent {
    /// Round at whose start the change applies (0-based).
    pub round: u64,
    /// Arrival or departure.
    pub kind: ScheduledEventKind,
    /// The affected tag.
    pub tag: TagId,
}

/// A deterministic, fully unrolled arrival/departure timeline.
///
/// Generated once from a [`DwellModel`] and a seed, then replayed by
/// [`run_monitoring`]: the ground truth is fixed *before* any protocol
/// runs, so every session (FCAT, SCAT, a baseline) sees the identical
/// population trajectory and results stay byte-for-byte reproducible at
/// any thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationSchedule {
    initial: Vec<TagId>,
    events: Vec<ScheduledEvent>,
    rounds: usize,
}

impl PopulationSchedule {
    /// A static population: `initial` tags, no churn, `rounds` rounds.
    /// Replaying this through [`run_monitoring`] is a strict no-op
    /// relative to the fixed-population harness.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    #[must_use]
    pub fn static_population(initial: usize, rounds: usize, seed: u64) -> Self {
        assert!(rounds > 0, "rounds must be positive");
        let mut rng = seeded_rng(derive_seed(seed, SCHEDULE_STREAM));
        PopulationSchedule {
            initial: rfid_types::population::uniform(&mut rng, initial),
            events: Vec::new(),
            rounds,
        }
    }

    /// A static schedule over a caller-provided population: no churn,
    /// `rounds` rounds. Lets monitoring replay the exact tag set of an
    /// existing fixed-population run (the strict-no-op guarantee is
    /// checked against committed goldens in `tests/churn_goldens.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    #[must_use]
    pub fn from_tags(initial: Vec<TagId>, rounds: usize) -> Self {
        assert!(rounds > 0, "rounds must be positive");
        PopulationSchedule {
            initial,
            events: Vec::new(),
            rounds,
        }
    }

    /// Unrolls `model` into a schedule: `initial` tags present at round 0
    /// (their dwell clocks start there), plus model-drawn arrivals at the
    /// start of every later round. Departures past the last round are
    /// dropped — those tags simply remain present at the end.
    ///
    /// All randomness comes from one RNG seeded with
    /// `derive_seed(seed, SCHEDULE_STREAM)`, so the schedule is a pure
    /// function of `(model, initial, rounds, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0` or the model fails [`DwellModel::validate`].
    #[must_use]
    pub fn generate(model: &DwellModel, initial: usize, rounds: usize, seed: u64) -> Self {
        assert!(rounds > 0, "rounds must be positive");
        if let Err(e) = model.validate() {
            panic!("invalid dwell model: {e}");
        }
        let mut rng = seeded_rng(derive_seed(seed, SCHEDULE_STREAM));
        let initial_tags = rfid_types::population::uniform(&mut rng, initial);
        let mut events = Vec::new();
        // Initial tags: dwell clocks start at round 0.
        for &tag in &initial_tags {
            let departs = draw_dwell(model, &mut rng);
            if (departs as usize) < rounds {
                events.push(ScheduledEvent {
                    round: departs,
                    kind: ScheduledEventKind::Departure,
                    tag,
                });
            }
        }
        // Arrivals at the start of rounds 1..rounds (an arrival at round 0
        // would be indistinguishable from the initial population).
        let mut carry = 0.0_f64;
        for round in 1..rounds as u64 {
            let n = match *model {
                DwellModel::Conveyor { rate, .. } => {
                    carry += rate;
                    let whole = carry.floor();
                    carry -= whole;
                    whole as usize
                }
                DwellModel::Portal { rate, .. } | DwellModel::Poisson { rate, .. } => {
                    poisson_draw(&mut rng, rate)
                }
            };
            for tag in rfid_types::population::uniform(&mut rng, n) {
                events.push(ScheduledEvent {
                    round,
                    kind: ScheduledEventKind::Arrival,
                    tag,
                });
                let departs = round + draw_dwell(model, &mut rng);
                if (departs as usize) < rounds {
                    events.push(ScheduledEvent {
                        round: departs,
                        kind: ScheduledEventKind::Departure,
                        tag,
                    });
                }
            }
        }
        // Deterministic replay order: by round, departures before arrivals
        // within a round, ties broken by tag. (A tag never arrives and
        // departs in the same round — dwell is at least one round.)
        events.sort_by_key(|e| {
            (
                e.round,
                matches!(e.kind, ScheduledEventKind::Arrival),
                e.tag,
            )
        });
        PopulationSchedule {
            initial: initial_tags,
            events,
            rounds,
        }
    }

    /// Tags present at round 0.
    #[must_use]
    pub fn initial(&self) -> &[TagId] {
        &self.initial
    }

    /// The full event timeline, sorted by round.
    #[must_use]
    pub fn events(&self) -> &[ScheduledEvent] {
        &self.events
    }

    /// Number of rounds the schedule spans.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Whether the schedule contains no churn at all.
    #[must_use]
    pub fn is_static(&self) -> bool {
        self.events.is_empty()
    }

    /// Total scheduled arrivals.
    #[must_use]
    pub fn arrivals(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == ScheduledEventKind::Arrival)
            .count()
    }

    /// Total scheduled departures.
    #[must_use]
    pub fn departures(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == ScheduledEventKind::Departure)
            .count()
    }

    /// The round each tag is present for, as `[arrival, departure)` pairs
    /// (departure `== rounds` when the tag never leaves). Useful for
    /// invariant checking.
    #[must_use]
    pub fn presence_windows(&self) -> TagMap<(u64, u64)> {
        let mut windows: TagMap<(u64, u64)> = self
            .initial
            .iter()
            .map(|&t| (t, (0, self.rounds as u64)))
            .collect();
        for event in &self.events {
            match event.kind {
                ScheduledEventKind::Arrival => {
                    windows.insert(event.tag, (event.round, self.rounds as u64));
                }
                ScheduledEventKind::Departure => {
                    if let Some(w) = windows.get_mut(&event.tag) {
                        w.1 = event.round;
                    }
                }
            }
        }
        windows
    }
}

/// Draws one dwell time, in rounds (≥ 1).
fn draw_dwell<R: Rng + ?Sized>(model: &DwellModel, rng: &mut R) -> u64 {
    match *model {
        DwellModel::Conveyor { dwell_rounds, .. } => u64::from(dwell_rounds.max(1)),
        DwellModel::Portal {
            dwell_min,
            dwell_max,
            ..
        } => u64::from(rng.gen_range(dwell_min.max(1)..=dwell_max.max(dwell_min).max(1))),
        DwellModel::Poisson {
            mean_dwell_rounds, ..
        } => {
            // Inverse-CDF exponential draw, floored to a whole round.
            let u: f64 = rng.gen::<f64>();
            let dwell = -mean_dwell_rounds * (1.0 - u).ln();
            (dwell.ceil() as u64).max(1)
        }
    }
}

/// Largest mean one Knuth draw handles. Its stopping limit `exp(-λ)`
/// underflows near λ ≈ 745, which would cap a draw near there, so larger
/// rates are split into chunks of at most this mean.
const POISSON_CHUNK: f64 = 500.0;

/// Poisson(`lambda`) draw: Knuth's sampler on chunks of mean at most
/// [`POISSON_CHUNK`], summed — a sum of independent Poissons is Poisson
/// with the summed mean. A rate of at most one chunk is a single Knuth
/// draw.
fn poisson_draw<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> usize {
    let mut remaining = lambda;
    let mut total = 0;
    while remaining > 0.0 {
        let chunk = remaining.min(POISSON_CHUNK);
        remaining -= chunk;
        let limit = (-chunk).exp();
        let mut p = 1.0_f64;
        loop {
            p *= rng.gen::<f64>();
            if p <= limit {
                break;
            }
            total += 1;
        }
    }
    total
}

/// Continuous-monitoring knobs: how often the reader audits the full
/// population versus chasing only the delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MonitorConfig {
    /// Every `audit_every`-th round (round 0, `audit_every`,
    /// 2·`audit_every`, …) is a *full* inventory that every present tag
    /// contends in. Must be ≥ 1; 1 means every round is full.
    pub audit_every: usize,
    /// Gen2-style session persistence: when `true`, non-audit rounds
    /// inventory only the delta — present tags the reader has not yet
    /// read. When `false`, every round is a full inventory regardless of
    /// `audit_every`.
    pub persistence: bool,
}

impl Default for MonitorConfig {
    /// Full inventory every round, no persistence — the legacy
    /// periodic-reading behaviour.
    fn default() -> Self {
        MonitorConfig {
            audit_every: 1,
            persistence: false,
        }
    }
}

impl MonitorConfig {
    /// Session persistence with a full audit every `audit_every` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `audit_every == 0`.
    #[must_use]
    pub fn persistent(audit_every: usize) -> Self {
        assert!(audit_every > 0, "audit_every must be >= 1");
        MonitorConfig {
            audit_every,
            persistence: true,
        }
    }

    /// Whether `round` is a full-inventory (audit) round under this
    /// config.
    #[must_use]
    pub fn is_audit_round(&self, round: usize) -> bool {
        !self.persistence || self.audit_every <= 1 || round.is_multiple_of(self.audit_every)
    }
}

/// Which anomaly a detection resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum MonitorDetectionKind {
    /// A newly arrived tag was read for the first time.
    UnknownTag,
    /// A previously read tag was absent from a completed full round.
    MissingTag,
}

/// One unknown-/missing-tag detection made by the monitoring reader.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Detection {
    /// The detected tag.
    pub tag: TagId,
    /// Unknown-tag (arrival) or missing-tag (departure) detection.
    pub kind: MonitorDetectionKind,
    /// Round at whose start the underlying population event happened.
    pub event_round: usize,
    /// Round at whose end the reader made the detection.
    pub detected_round: usize,
    /// `detected_round - event_round` (0 = caught within the event's own
    /// round).
    pub latency_rounds: u64,
    /// Simulated air time from the population event to the end of the
    /// detecting round, µs — the headline metric.
    pub latency_us: f64,
}

/// Outcome of a continuous-monitoring scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorReport {
    /// Session (protocol) name.
    pub session: String,
    /// One finalized report per round, in order. Per-round
    /// `population_initial` is that round's *contender* count (the delta
    /// on persistence rounds), and the identified-ID sets are retained
    /// for invariant checking.
    pub per_round: Vec<InventoryReport>,
    /// Ground-truth present-tag count at the start of each round (after
    /// that round's events applied).
    pub population_per_round: Vec<usize>,
    /// Every detection, in detection order.
    pub detections: Vec<Detection>,
    /// Tags present at round 0.
    pub population_initial: usize,
    /// Distinct tags present at any point (initial + arrivals).
    pub population_seen: usize,
    /// Distinct tags read at least once.
    pub unique: usize,
    /// Of [`unique`](MonitorReport::unique): tags still present when the
    /// scenario ended.
    pub unique_present_at_end: usize,
    /// Of [`unique`](MonitorReport::unique): tags that departed after
    /// being read. The two partitions always sum to `unique`.
    pub unique_departed_after_read: usize,
    /// Total simulated air time across all rounds, µs.
    pub elapsed_us: f64,
}

impl MonitorReport {
    /// Mean latency of the selected detection kind, µs. `None` when no
    /// such detection occurred.
    #[must_use]
    pub fn mean_latency_us(&self, kind: MonitorDetectionKind) -> Option<f64> {
        let latencies: Vec<f64> = self
            .detections
            .iter()
            .filter(|d| d.kind == kind)
            .map(|d| d.latency_us)
            .collect();
        if latencies.is_empty() {
            None
        } else {
            Some(latencies.iter().sum::<f64>() / latencies.len() as f64)
        }
    }

    /// Number of detections of the selected kind.
    #[must_use]
    pub fn detection_count(&self, kind: MonitorDetectionKind) -> usize {
        self.detections.iter().filter(|d| d.kind == kind).count()
    }

    /// Mean throughput of the rounds after the first (the warmed-up
    /// regime); the first round's when there is only one.
    #[must_use]
    pub fn warm_throughput(&self) -> f64 {
        let warm = match self.per_round.as_slice() {
            [] => return 0.0,
            [only] => std::slice::from_ref(only),
            [_, rest @ ..] => rest,
        };
        warm.iter().map(|r| r.throughput_tags_per_sec).sum::<f64>() / warm.len() as f64
    }
}

/// [`run_monitoring_observed`] with the observability path compiled out.
///
/// # Errors
///
/// Same contract as [`run_monitoring_observed`].
pub fn run_monitoring<S: MultiRoundSession + ?Sized>(
    session: &mut S,
    schedule: &PopulationSchedule,
    monitor: &MonitorConfig,
    config: &SimConfig,
) -> Result<MonitorReport, SimError> {
    run_monitoring_observed(session, schedule, monitor, config, &mut NoopSink)
}

/// Replays `schedule` against `session`, round by round, with continuous
/// monitoring.
///
/// Round `k` runs on config seed `config.seed()` for `k = 0` and
/// `derive_seed(config.seed(), k)` afterwards — so a single-round static
/// schedule reproduces [`crate::run_inventory`] byte for byte (churn off
/// is a strict no-op), and later rounds get independent streams. The sink
/// receives a [`PopulationEvent`] per replayed arrival/departure and a
/// [`DetectionEvent`] per detection; sinks only observe, so traced and
/// untraced runs return identical reports.
///
/// # Errors
///
/// Propagates round failures; additionally returns
/// [`SimError::IncompleteInventory`] when a clean-channel round missed
/// one of its contenders.
///
/// # Panics
///
/// Panics if `monitor.audit_every == 0`.
pub fn run_monitoring_observed<S, E>(
    session: &mut S,
    schedule: &PopulationSchedule,
    monitor: &MonitorConfig,
    config: &SimConfig,
    sink: &mut E,
) -> Result<MonitorReport, SimError>
where
    S: MultiRoundSession + ?Sized,
    E: EventSink,
{
    assert!(monitor.audit_every > 0, "audit_every must be >= 1");
    let rounds = schedule.rounds();
    let mut present: Vec<TagId> = schedule.initial().to_vec();
    let mut present_set: TagSet = present.iter().copied().collect();
    // The reader's belief: tags read and not since declared missing.
    let mut known = TagSet::default();
    let mut ever_read = TagSet::default();
    // Pending anomalies, keyed by tag: (event round, air time at event).
    let mut pending_unknown: TagMap<(usize, f64)> = TagMap::default();
    let mut pending_missing: TagMap<(usize, f64)> = TagMap::default();
    let mut departed_this_round: Vec<TagId> = Vec::new();

    let mut per_round = Vec::with_capacity(rounds);
    let mut population_per_round = Vec::with_capacity(rounds);
    let mut detections = Vec::new();
    let mut population_seen = present.len();
    let mut elapsed_us = 0.0_f64;
    let mut next_event = 0usize;
    let events = schedule.events();

    for round in 0..rounds {
        // 1. Apply this round's scheduled events (start-of-round).
        departed_this_round.clear();
        while next_event < events.len() && events[next_event].round == round as u64 {
            let event = events[next_event];
            next_event += 1;
            match event.kind {
                ScheduledEventKind::Arrival => {
                    debug_assert!(!present_set.contains(&event.tag));
                    present.push(event.tag);
                    present_set.insert(event.tag);
                    population_seen += 1;
                    pending_unknown.insert(event.tag, (round, elapsed_us));
                    if E::ENABLED {
                        sink.population(&PopulationEvent {
                            round: round as u64,
                            kind: PopulationEventKind::Arrival,
                            tag: event.tag,
                        });
                    }
                }
                ScheduledEventKind::Departure => {
                    present_set.remove(&event.tag);
                    departed_this_round.push(event.tag);
                    // A tag that left before ever being read can never be
                    // detected; only known tags go missing.
                    if known.contains(&event.tag) {
                        pending_missing.insert(event.tag, (round, elapsed_us));
                    }
                    pending_unknown.remove(&event.tag);
                    if E::ENABLED {
                        sink.population(&PopulationEvent {
                            round: round as u64,
                            kind: PopulationEventKind::Departure,
                            tag: event.tag,
                        });
                    }
                }
            }
        }
        if !departed_this_round.is_empty() {
            present.retain(|t| present_set.contains(t));
        }
        population_per_round.push(present.len());

        // 2. Select contenders: full population on audit rounds, unread
        //    delta on persistence rounds.
        let audit = monitor.is_audit_round(round);
        let contenders: Vec<TagId> = if audit {
            present.clone()
        } else {
            present
                .iter()
                .copied()
                .filter(|t| !known.contains(t))
                .collect()
        };

        // 3. Run the round. Round 0 reuses the config seed unchanged so a
        //    static single-round schedule is byte-identical to the
        //    fixed-population harness.
        let round_config = if round == 0 {
            config.clone()
        } else {
            config
                .clone()
                .with_seed(derive_seed(config.seed(), round as u64))
        };
        round_config.validate()?;
        let mut rng = seeded_rng(round_config.seed());
        let mut report = session.run_round(&contenders, &round_config, &mut rng)?;
        report.population_initial = contenders.len();
        report.population_seen = contenders.len();
        report.finalize();
        elapsed_us += report.elapsed_us;
        if config.errors().is_clean() && report.identified != contenders.len() {
            return Err(SimError::IncompleteInventory {
                identified: report.identified,
                total: contenders.len(),
            });
        }

        // 4. Unknown-tag detections: pending arrivals read this round.
        //    Iterating `contenders` (not the report's hash set) keeps the
        //    detection order deterministic.
        for &tag in &contenders {
            if !report.contains(tag) {
                continue;
            }
            known.insert(tag);
            ever_read.insert(tag);
            if let Some((event_round, event_elapsed)) = pending_unknown.remove(&tag) {
                let detection = Detection {
                    tag,
                    kind: MonitorDetectionKind::UnknownTag,
                    event_round,
                    detected_round: round,
                    latency_rounds: (round - event_round) as u64,
                    latency_us: elapsed_us - event_elapsed,
                };
                detections.push(detection);
                if E::ENABLED {
                    sink.detection(&DetectionEvent {
                        round: round as u64,
                        tag,
                        kind: ObsDetectionKind::Unknown,
                        event_round: event_round as u64,
                        latency_rounds: detection.latency_rounds,
                        latency_us: detection.latency_us,
                    });
                }
            }
        }

        // 5. Missing-tag detections: a completed full round read every
        //    present tag, so every known-but-departed tag is now exposed.
        if audit {
            let mut missing: Vec<(TagId, (usize, f64))> = pending_missing.drain().collect();
            missing.sort_by_key(|&(tag, (event_round, _))| (event_round, tag));
            for (tag, (event_round, event_elapsed)) in missing {
                known.remove(&tag);
                let detection = Detection {
                    tag,
                    kind: MonitorDetectionKind::MissingTag,
                    event_round,
                    detected_round: round,
                    latency_rounds: (round - event_round) as u64,
                    latency_us: elapsed_us - event_elapsed,
                };
                detections.push(detection);
                if E::ENABLED {
                    sink.detection(&DetectionEvent {
                        round: round as u64,
                        tag,
                        kind: ObsDetectionKind::Missing,
                        event_round: event_round as u64,
                        latency_rounds: detection.latency_rounds,
                        latency_us: detection.latency_us,
                    });
                }
            }
        }

        per_round.push(report);
    }

    let unique = ever_read.len();
    let unique_present_at_end = ever_read.iter().filter(|t| present_set.contains(t)).count();
    Ok(MonitorReport {
        session: session.name().to_owned(),
        per_round,
        population_per_round,
        detections,
        population_initial: schedule.initial().len(),
        population_seen,
        unique,
        unique_present_at_end,
        unique_departed_after_read: unique - unique_present_at_end,
        elapsed_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rounds::StatelessSession;
    use crate::AntiCollisionProtocol;
    use rand::rngs::StdRng;
    use rfid_types::SlotClass;

    struct RollCall;

    impl AntiCollisionProtocol for RollCall {
        fn name(&self) -> &str {
            "roll-call"
        }

        fn run(
            &self,
            tags: &[TagId],
            config: &SimConfig,
            _rng: &mut StdRng,
        ) -> Result<InventoryReport, SimError> {
            let mut report = InventoryReport::new(self.name());
            for &tag in tags {
                report.record_slot(SlotClass::Singleton, config.timing().basic_slot_us());
                report.record_identified(tag);
            }
            Ok(report)
        }
    }

    #[test]
    fn schedule_is_deterministic() {
        let model = DwellModel::poisson(2.0, 4.0);
        let a = PopulationSchedule::generate(&model, 30, 12, 9);
        let b = PopulationSchedule::generate(&model, 30, 12, 9);
        assert_eq!(a, b);
        let c = PopulationSchedule::generate(&model, 30, 12, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn schedule_events_sorted_and_windows_consistent() {
        let model = DwellModel::portal(3.0, 1, 5);
        let schedule = PopulationSchedule::generate(&model, 20, 15, 3);
        let rounds: Vec<u64> = schedule.events().iter().map(|e| e.round).collect();
        assert!(rounds.windows(2).all(|w| w[0] <= w[1]), "timeline monotone");
        for (tag, (arrive, depart)) in schedule.presence_windows() {
            assert!(arrive < depart, "tag {tag} window [{arrive}, {depart})");
        }
    }

    #[test]
    fn conveyor_accumulates_fractional_rates() {
        let model = DwellModel::conveyor(0.5, 3);
        let schedule = PopulationSchedule::generate(&model, 0, 9, 1);
        // 0.5/round over rounds 1..=8 → 4 arrivals.
        assert_eq!(schedule.arrivals(), 4);
    }

    #[test]
    fn static_schedule_is_static() {
        let schedule = PopulationSchedule::static_population(25, 5, 2);
        assert!(schedule.is_static());
        assert_eq!(schedule.initial().len(), 25);
        assert_eq!(schedule.arrivals(), 0);
    }

    #[test]
    fn poisson_draw_mean_holds_past_the_underflow_point() {
        // The mean of `DRAWS` Poisson(λ) draws has standard error
        // sqrt(λ / DRAWS); allow five of them.
        const DRAWS: usize = 200;
        let mut rng = seeded_rng(17);
        for lambda in [800.0, 1_500.0, 10_000.0] {
            let total: usize = (0..DRAWS).map(|_| poisson_draw(&mut rng, lambda)).sum();
            let mean = total as f64 / DRAWS as f64;
            let tolerance = 5.0 * (lambda / DRAWS as f64).sqrt();
            assert!(
                (mean - lambda).abs() < tolerance,
                "λ = {lambda}: mean {mean}, tolerance {tolerance}"
            );
        }
    }

    #[test]
    fn poisson_dwell_leaves_after_each_round_with_the_churn_fraction() {
        // Mean dwell m = -1/ln(1-d) makes ceil(Exp(m)) geometric: a present
        // tag leaves after each round with probability d, whatever its age.
        // A departure count is Binomial(at_risk, d), so the frequency has
        // standard error sqrt(d(1-d) / at_risk); allow five of them.
        const TAGS: usize = 20_000;
        for d in [0.02_f64, 0.1, 0.3] {
            let model = DwellModel::poisson(0.0, -1.0 / (1.0 - d).ln());
            let schedule = PopulationSchedule::generate(&model, TAGS, 3, 23);
            let left_at = |round| {
                schedule
                    .events()
                    .iter()
                    .filter(|e| e.round == round)
                    .count()
            };
            for (round, at_risk) in [(1, TAGS), (2, TAGS - left_at(1))] {
                let frequency = left_at(round) as f64 / at_risk as f64;
                let tolerance = 5.0 * (d * (1.0 - d) / at_risk as f64).sqrt();
                assert!(
                    (frequency - d).abs() < tolerance,
                    "d = {d}, round {round}: frequency {frequency}, tolerance {tolerance}"
                );
            }
        }
    }

    #[test]
    fn warm_throughput_excludes_first_round() {
        let round = |throughput| {
            let mut r = InventoryReport::new("x");
            r.throughput_tags_per_sec = throughput;
            r
        };
        let mut report = MonitorReport {
            session: "x".into(),
            per_round: vec![round(100.0), round(300.0), round(500.0)],
            population_per_round: vec![1, 1, 1],
            detections: Vec::new(),
            population_initial: 1,
            population_seen: 1,
            unique: 1,
            unique_present_at_end: 1,
            unique_departed_after_read: 0,
            elapsed_us: 0.0,
        };
        assert!((report.warm_throughput() - 400.0).abs() < 1e-9);
        report.per_round.truncate(1);
        assert!((report.warm_throughput() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_models_rejected() {
        assert!(DwellModel::poisson(-1.0, 2.0).validate().is_err());
        assert!(DwellModel::poisson(f64::NAN, 2.0).validate().is_err());
        assert!(DwellModel::poisson(1.0, f64::INFINITY).validate().is_err());
        assert!(DwellModel::poisson(1.0, 0.0).validate().is_err());
        assert!(DwellModel::portal(1.0, 3, 2).validate().is_err());
        assert!(DwellModel::portal(1.0, 0, 2).validate().is_err());
        assert!(DwellModel::conveyor(1.0, 0).validate().is_err());
        assert!(DwellModel::conveyor(2.5, 4).validate().is_ok());
    }

    #[test]
    fn monitoring_detects_arrivals_and_departures() {
        let model = DwellModel::poisson(2.0, 3.0);
        let schedule = PopulationSchedule::generate(&model, 20, 12, 5);
        assert!(schedule.arrivals() > 0, "churny schedule expected");
        assert!(schedule.departures() > 0, "churny schedule expected");
        let mut session = StatelessSession::new(RollCall);
        let report = run_monitoring(
            &mut session,
            &schedule,
            &MonitorConfig::default(),
            &SimConfig::default().with_seed(5),
        )
        .unwrap();
        assert_eq!(report.population_initial, 20);
        assert_eq!(report.population_seen, 20 + schedule.arrivals());
        assert_eq!(
            report.detection_count(MonitorDetectionKind::UnknownTag),
            schedule.arrivals(),
            "every arrival eventually read under a complete protocol"
        );
        assert_eq!(
            report.unique_present_at_end + report.unique_departed_after_read,
            report.unique
        );
        for d in &report.detections {
            assert!(d.latency_us > 0.0);
            assert!(d.detected_round >= d.event_round);
        }
    }

    #[test]
    fn persistence_defers_missing_detection_to_audit_rounds() {
        let model = DwellModel::conveyor(1.0, 2);
        let schedule = PopulationSchedule::generate(&model, 10, 13, 8);
        let mut session = StatelessSession::new(RollCall);
        let monitor = MonitorConfig::persistent(4);
        let report = run_monitoring(
            &mut session,
            &schedule,
            &monitor,
            &SimConfig::default().with_seed(8),
        )
        .unwrap();
        for d in &report.detections {
            if d.kind == MonitorDetectionKind::MissingTag {
                assert_eq!(
                    d.detected_round % 4,
                    0,
                    "missing tags only surface on audit rounds: {d:?}"
                );
            }
        }
        // Delta rounds contend fewer tags than the ground-truth population.
        let any_delta = report
            .per_round
            .iter()
            .zip(&report.population_per_round)
            .enumerate()
            .any(|(round, (r, &pop))| !monitor.is_audit_round(round) && r.population_initial < pop);
        assert!(any_delta, "persistence should shrink some round");
    }

    #[test]
    fn monitoring_reproducible() {
        let model = DwellModel::portal(1.5, 2, 6);
        let schedule = PopulationSchedule::generate(&model, 15, 10, 11);
        let run = || {
            let mut session = StatelessSession::new(RollCall);
            run_monitoring(
                &mut session,
                &schedule,
                &MonitorConfig::persistent(3),
                &SimConfig::default().with_seed(11),
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }
}
