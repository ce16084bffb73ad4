//! # rfid-obs — slot-level observability for the ANC-RFID simulator
//!
//! The paper's protocols (SCAT/FCAT, Zhang et al., ICDCS 2010) are evaluated
//! on aggregate throughput, but debugging and validating a reproduction needs
//! *slot-level* visibility: what class each slot was, how deep resolution
//! cascades run, how many collision records sit outstanding, and how the
//! per-frame population estimator behaves. This crate provides that without
//! perturbing the simulation:
//!
//! - [`EventSink`] — the observer trait. Engines are generic over `S:
//!   EventSink` and guard every emission behind `S::ENABLED`, a
//!   `const bool`, so the no-op case compiles to nothing.
//! - [`NoopSink`] — the default sink (`ENABLED = false`); off-path
//!   observability costs zero.
//! - [`MetricsSink`] / [`Metrics`] — aggregate counters and latency
//!   histograms, mergeable across runs.
//! - [`JsonlSink`] — writes one JSON line per event;
//!   [`jsonl::replay::summarize`] reads traces back for verification.
//! - [`json::Json`] — the workspace's one JSON parser (depth-capped,
//!   never panics), shared by trace replay, `repro serve` and `repro
//!   bench`.
//!
//! ## Determinism contract
//!
//! Sinks only *observe*: they receive `&Event` and never touch the
//! simulation's RNG or state. A traced run and an untraced run of the same
//! seed therefore produce byte-identical reports — the test suite enforces
//! this.

#![forbid(unsafe_code)]

pub mod event;
pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod stream;

pub use event::{
    DetectionEvent, DetectionKind, EstimatorEvent, LambdaEvent, PopulationEvent,
    PopulationEventKind, RecordEvent, RecordEventKind, RecoveryBackendTag, ScheduleEvent,
    SiteEvent, SlotEvent,
};
pub use jsonl::JsonlSink;
pub use metrics::{
    LatencyHistogram, Metrics, MetricsSink, SlotTotals, SnrByHop, SnrHopStats, LATENCY_BUCKETS,
};
pub use stream::{StreamQueue, StreamRecv, StreamSink};

/// Receives simulation events.
///
/// All methods default to no-ops, so a sink implements only what it cares
/// about. Implementations must not influence the simulation (they get shared
/// references to event data and no access to the RNG); the engine additionally
/// skips event *construction* entirely when [`EventSink::ENABLED`] is `false`.
pub trait EventSink {
    /// Whether this sink wants events at all. Engines guard event
    /// construction behind `if S::ENABLED`, so a `false` here (see
    /// [`NoopSink`]) removes the observability code path at compile time.
    const ENABLED: bool = true;

    /// A slot finished executing (including any resolution cascade).
    fn slot(&mut self, event: &SlotEvent) {
        let _ = event;
    }

    /// A collision record was created, resolved, exhausted, or failed.
    fn record(&mut self, event: &RecordEvent) {
        let _ = event;
    }

    /// A protocol revised its population estimate.
    fn estimator(&mut self, event: &EstimatorEvent) {
        let _ = event;
    }

    /// An adaptive-λ controller re-selected λ (and thus ω*).
    fn lambda(&mut self, event: &LambdaEvent) {
        let _ = event;
    }

    /// A concurrent multi-reader sweep finished one conflict-free time
    /// slice.
    fn schedule(&mut self, event: &ScheduleEvent) {
        let _ = event;
    }

    /// A sharded multi-site sweep finished one site's inventory.
    fn site(&mut self, event: &SiteEvent) {
        let _ = event;
    }

    /// A dynamic-population schedule applied an arrival or departure.
    fn population(&mut self, event: &PopulationEvent) {
        let _ = event;
    }

    /// The monitoring reader detected an unknown or missing tag.
    fn detection(&mut self, event: &DetectionEvent) {
        let _ = event;
    }
}

/// The do-nothing sink: `ENABLED = false`, so engines generic over it
/// compile the observability path away entirely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl EventSink for NoopSink {
    const ENABLED: bool = false;
}

/// Forwarding impl so callers can pass `&mut sink` without giving it up.
impl<S: EventSink> EventSink for &mut S {
    const ENABLED: bool = S::ENABLED;

    fn slot(&mut self, event: &SlotEvent) {
        (**self).slot(event);
    }

    fn record(&mut self, event: &RecordEvent) {
        (**self).record(event);
    }

    fn estimator(&mut self, event: &EstimatorEvent) {
        (**self).estimator(event);
    }

    fn lambda(&mut self, event: &LambdaEvent) {
        (**self).lambda(event);
    }

    fn schedule(&mut self, event: &ScheduleEvent) {
        (**self).schedule(event);
    }

    fn site(&mut self, event: &SiteEvent) {
        (**self).site(event);
    }

    fn population(&mut self, event: &PopulationEvent) {
        (**self).population(event);
    }

    fn detection(&mut self, event: &DetectionEvent) {
        (**self).detection(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_types::SlotClass;

    #[test]
    fn noop_sink_is_disabled() {
        const {
            assert!(!NoopSink::ENABLED);
            assert!(!<&mut NoopSink as EventSink>::ENABLED);
            assert!(MetricsSink::ENABLED);
        }
    }

    #[test]
    fn forwarding_impl_reaches_inner_sink() {
        let mut sink = MetricsSink::new();
        {
            let mut fwd = &mut sink;
            // Go through the `&mut S` impl explicitly — plain method syntax
            // would auto-deref straight to `MetricsSink::slot`.
            <&mut MetricsSink as EventSink>::slot(
                &mut fwd,
                &SlotEvent {
                    slot: 0,
                    class: SlotClass::Empty,
                    transmitters: 0,
                    p: 1.0,
                    learned_direct: 0,
                    learned_resolved: 0,
                    records_outstanding: 0,
                },
            );
        }
        assert_eq!(sink.into_metrics().slots.empty, 1);
    }
}
