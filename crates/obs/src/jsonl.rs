//! JSONL trace writer and replay parser.
//!
//! Each event becomes one self-describing JSON object per line:
//!
//! ```text
//! {"type":"slot","slot":12,"class":"collision","transmitters":3,"p":0.047,"learned_direct":0,"learned_resolved":0,"outstanding":4}
//! {"type":"record","event":"created","slot":12,"record_slot":12,"participants":3,"usable":false}
//! {"type":"record","event":"resolved","slot":19,"record_slot":7,"tag":"00000000000000000002a8c4","cascade_depth":1,"latency_slots":12}
//! {"type":"estimator","slot":30,"frame":0,"p":0.047,"n0":6,"n1":13,"nc":11,"estimate":512.3}
//! ```
//!
//! The format is hand-rolled (this workspace builds offline, without
//! serde_json): every field is a number, a bare keyword, or a fixed-alphabet
//! hex string, so the emitted lines are valid JSON. [`replay::summarize`]
//! reads traces back for post-hoc verification through the workspace's one
//! JSON parser, [`crate::json::Json`].

use crate::event::{
    DetectionEvent, EstimatorEvent, LambdaEvent, PopulationEvent, RecordEvent, ScheduleEvent,
    SiteEvent, SlotEvent,
};
use crate::metrics::SlotTotals;
use crate::EventSink;
use rfid_types::SlotClass;
use std::io::{self, BufWriter, Write};

/// Formats an `f64` so the JSON stays finite and parseable: non-finite
/// values become `null` as a defensive fallback. The only field that can
/// legitimately go non-finite is the residual SNR, which routes through
/// [`fmt_snr`] and its explicit sentinels instead.
fn fmt_f64(value: f64) -> String {
    if value.is_finite() {
        let mut s = format!("{value}");
        if !s.contains('.') && !s.contains('e') && !s.contains("inf") {
            s.push_str(".0");
        }
        s
    } else {
        "null".to_owned()
    }
}

/// Formats a residual SNR so non-finite values survive the round trip as
/// *valid JSON* and stay distinguishable from each other: `+inf`
/// (noiseless channel) → `"inf"`, `-inf` (pure-noise residual) → `"-inf"`,
/// and `NaN` → `"nan"` — explicit string sentinels. The previous encoding
/// spelled `-inf` as the bare token `-1e999`, which is not a JSON value
/// (RFC 8259 numbers must fit the grammar and interoperable parsers reject
/// over-range literals), and collapsed both `+inf` and `NaN` to `null`, so
/// a serialized NaN resurrected as `+inf` on replay.
fn fmt_snr(value: f64) -> String {
    if value == f64::INFINITY {
        "\"inf\"".to_owned()
    } else if value == f64::NEG_INFINITY {
        "\"-inf\"".to_owned()
    } else if value.is_nan() {
        "\"nan\"".to_owned()
    } else {
        fmt_f64(value)
    }
}

fn class_str(class: SlotClass) -> &'static str {
    match class {
        SlotClass::Empty => "empty",
        SlotClass::Singleton => "singleton",
        SlotClass::Collision => "collision",
    }
}

/// Renders events to their one-line JSON wire encoding.
///
/// [`JsonlSink`] (file traces) and [`crate::StreamSink`] (bounded
/// per-client event streams, the `repro serve` protocol) share these
/// functions, so a served stream and a local trace of the same run are
/// byte-identical line for line.
pub mod wire {
    use super::{class_str, fmt_f64, fmt_snr};
    use crate::event::{
        DetectionEvent, EstimatorEvent, LambdaEvent, PopulationEvent, RecordEvent, RecordEventKind,
        ScheduleEvent, SiteEvent, SlotEvent,
    };
    use crate::metrics::Metrics;

    /// `{"type":"slot",...}` — one executed slot.
    #[must_use]
    pub fn slot_line(event: &SlotEvent) -> String {
        format!(
            "{{\"type\":\"slot\",\"slot\":{},\"class\":\"{}\",\"transmitters\":{},\"p\":{},\
             \"learned_direct\":{},\"learned_resolved\":{},\"outstanding\":{}}}",
            event.slot,
            class_str(event.class),
            event.transmitters,
            fmt_f64(event.p),
            event.learned_direct,
            event.learned_resolved,
            event.records_outstanding,
        )
    }

    /// `{"type":"record",...}` — one collision-record lifecycle event.
    #[must_use]
    pub fn record_line(event: &RecordEvent) -> String {
        match event.kind {
            RecordEventKind::Created {
                participants,
                usable,
            } => format!(
                "{{\"type\":\"record\",\"event\":\"created\",\"slot\":{},\"record_slot\":{},\
                 \"participants\":{participants},\"usable\":{usable}}}",
                event.slot, event.record_slot,
            ),
            RecordEventKind::Resolved {
                tag,
                cascade_depth,
                latency_slots,
            } => format!(
                "{{\"type\":\"record\",\"event\":\"resolved\",\"slot\":{},\"record_slot\":{},\
                 \"tag\":\"{tag}\",\"cascade_depth\":{cascade_depth},\
                 \"latency_slots\":{latency_slots}}}",
                event.slot, event.record_slot,
            ),
            RecordEventKind::Exhausted => format!(
                "{{\"type\":\"record\",\"event\":\"exhausted\",\"slot\":{},\"record_slot\":{}}}",
                event.slot, event.record_slot,
            ),
            RecordEventKind::Failed => format!(
                "{{\"type\":\"record\",\"event\":\"failed\",\"slot\":{},\"record_slot\":{}}}",
                event.slot, event.record_slot,
            ),
            RecordEventKind::Attempted {
                hop,
                residual_snr_db,
                success,
            } => format!(
                "{{\"type\":\"record\",\"event\":\"attempted\",\"slot\":{},\"record_slot\":{},\
                 \"hop\":{hop},\"residual_snr_db\":{},\"success\":{success}}}",
                event.slot,
                event.record_slot,
                fmt_snr(residual_snr_db),
            ),
            RecordEventKind::RequeryScheduled { attempt, due_slot } => format!(
                "{{\"type\":\"record\",\"event\":\"requery_scheduled\",\"slot\":{},\
                 \"record_slot\":{},\"attempt\":{attempt},\"due_slot\":{due_slot}}}",
                event.slot, event.record_slot,
            ),
            RecordEventKind::Requeried { attempt, success } => format!(
                "{{\"type\":\"record\",\"event\":\"requeried\",\"slot\":{},\"record_slot\":{},\
                 \"attempt\":{attempt},\"success\":{success}}}",
                event.slot, event.record_slot,
            ),
            RecordEventKind::Recovered { backend, decoded } => format!(
                "{{\"type\":\"record\",\"event\":\"recovered\",\"slot\":{},\"record_slot\":{},\
                 \"backend\":\"{}\",\"decoded\":{decoded}}}",
                event.slot,
                event.record_slot,
                backend.as_str(),
            ),
        }
    }

    /// `{"type":"estimator",...}` — one population-estimate revision.
    #[must_use]
    pub fn estimator_line(event: &EstimatorEvent) -> String {
        format!(
            "{{\"type\":\"estimator\",\"slot\":{},\"frame\":{},\"p\":{},\"n0\":{},\"n1\":{},\
             \"nc\":{},\"estimate\":{}}}",
            event.slot,
            event.frame,
            fmt_f64(event.p),
            event.n0,
            event.n1,
            event.nc,
            fmt_f64(event.estimate),
        )
    }

    /// `{"type":"lambda",...}` — one adaptive-λ re-selection.
    #[must_use]
    pub fn lambda_line(event: &LambdaEvent) -> String {
        format!(
            "{{\"type\":\"lambda\",\"slot\":{},\"lambda\":{},\"omega\":{}}}",
            event.slot,
            event.lambda,
            fmt_f64(event.omega),
        )
    }

    /// `{"type":"schedule",...}` — one completed concurrent time slice.
    #[must_use]
    pub fn schedule_line(event: &ScheduleEvent) -> String {
        format!(
            "{{\"type\":\"schedule\",\"slice\":{},\"sites\":{},\"wall_us\":{},\"serial_us\":{}}}",
            event.slice,
            event.sites,
            fmt_f64(event.wall_elapsed_us),
            fmt_f64(event.serial_elapsed_us),
        )
    }

    /// `{"type":"site",...}` — one completed site of a sharded sweep.
    #[must_use]
    pub fn site_line(event: &SiteEvent) -> String {
        format!(
            "{{\"type\":\"site\",\"site\":{},\"worker\":{},\"identified\":{},\"slots\":{},\
             \"elapsed_us\":{}}}",
            event.site,
            event.worker,
            event.identified,
            event.slots,
            fmt_f64(event.elapsed_us),
        )
    }

    /// `{"type":"population",...}` — one replayed arrival or departure.
    #[must_use]
    pub fn population_line(event: &PopulationEvent) -> String {
        format!(
            "{{\"type\":\"population\",\"round\":{},\"kind\":\"{}\",\"tag\":\"{}\"}}",
            event.round,
            event.kind.as_str(),
            event.tag,
        )
    }

    /// `{"type":"detection",...}` — one unknown-/missing-tag detection.
    #[must_use]
    pub fn detection_line(event: &DetectionEvent) -> String {
        format!(
            "{{\"type\":\"detection\",\"round\":{},\"kind\":\"{}\",\"tag\":\"{}\",\
             \"event_round\":{},\"latency_rounds\":{},\"latency_us\":{}}}",
            event.round,
            event.kind.as_str(),
            event.tag,
            event.event_round,
            event.latency_rounds,
            fmt_f64(event.latency_us),
        )
    }

    /// `{"type":"metrics",...}` — a coalesced aggregate snapshot.
    ///
    /// Emitted by [`crate::StreamSink`] when a bounded client queue had to
    /// drop events: the snapshot summarizes everything observed so far
    /// (including the dropped events, which are still folded into the
    /// aggregates) so a slow consumer loses granularity, never totals.
    #[must_use]
    pub fn metrics_line(metrics: &Metrics, dropped_events: u64) -> String {
        format!(
            "{{\"type\":\"metrics\",\"slots\":{},\"empty\":{},\"singleton\":{},\
             \"collision\":{},\"identified_direct\":{},\"identified_resolved\":{},\
             \"records_created\":{},\"records_resolved\":{},\"sites\":{},\
             \"site_identified\":{},\"schedule_slices\":{},\"arrivals\":{},\
             \"departures\":{},\"unknown_detected\":{},\"missing_detected\":{},\
             \"dropped_events\":{}}}",
            metrics.slots.total(),
            metrics.slots.empty,
            metrics.slots.singleton,
            metrics.slots.collision,
            metrics.identified_direct,
            metrics.identified_resolved,
            metrics.records_created,
            metrics.records_resolved,
            metrics.sites_completed,
            metrics.site_identified,
            metrics.schedule_slices,
            metrics.arrivals,
            metrics.departures,
            metrics.unknown_detected,
            metrics.missing_detected,
            dropped_events,
        )
    }
}

/// An [`EventSink`] that appends one JSON line per event to a writer.
///
/// I/O errors are sticky: the first failure stops further writing and is
/// returned by [`JsonlSink::finish`]. (Sink callbacks cannot return errors —
/// by design, so the engine's hot path stays infallible.)
///
/// By default the internal buffer is flushed only by [`JsonlSink::finish`]
/// — right for file traces, where syscall count matters. Streaming
/// consumers (a `repro serve` client watching events live) should set
/// [`JsonlSink::with_flush_every`] so output arrives in bounded batches
/// instead of multi-KB bursts, and so a dropped connection loses at most
/// the last partial batch rather than the whole buffered tail.
///
/// Dropping a sink without calling `finish` flushes what it can; a flush
/// failure (or an earlier sticky error) is reported on stderr rather than
/// silently discarded — but only `finish` can *return* the error, so it
/// remains the correct way to end a trace.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: Option<BufWriter<W>>,
    error: Option<io::Error>,
    lines: u64,
    flush_every: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer (buffered internally).
    pub fn new(out: W) -> Self {
        JsonlSink {
            out: Some(BufWriter::new(out)),
            error: None,
            lines: 0,
            flush_every: 0,
        }
    }

    /// Returns this sink flushing after every `lines` written lines
    /// (streaming mode). `0` restores the default: flush only at
    /// [`JsonlSink::finish`].
    #[must_use]
    pub fn with_flush_every(mut self, lines: u64) -> Self {
        self.flush_every = lines;
        self
    }

    /// Lines successfully queued so far.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flushes and returns the underlying writer, or the first I/O error
    /// encountered while tracing.
    ///
    /// # Errors
    ///
    /// Returns the first write/flush error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(error) = self.error.take() {
            return Err(error);
        }
        let mut out = self.out.take().expect("finish is called at most once");
        out.flush()?;
        out.into_inner().map_err(io::IntoInnerError::into_error)
    }

    fn write_line(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        let Some(out) = self.out.as_mut() else {
            return;
        };
        if let Err(error) = out
            .write_all(line.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
        {
            self.error = Some(error);
            return;
        }
        self.lines += 1;
        if self.flush_every > 0 && self.lines.is_multiple_of(self.flush_every) {
            if let Err(error) = out.flush() {
                self.error = Some(error);
            }
        }
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        let Some(mut out) = self.out.take() else {
            return; // finish() already ran and owned the error path
        };
        let error = match self.error.take() {
            Some(error) => Some(error),
            None => out.flush().err(),
        };
        if let Some(error) = error {
            // A drop cannot return the error; surfacing it beats the old
            // behavior (BufWriter's Drop silently ignoring the failed
            // flush and losing the tail of the trace).
            eprintln!("rfid-obs: JsonlSink dropped with unreported I/O error: {error}");
        }
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn slot(&mut self, event: &SlotEvent) {
        self.write_line(&wire::slot_line(event));
    }

    fn record(&mut self, event: &RecordEvent) {
        self.write_line(&wire::record_line(event));
    }

    fn estimator(&mut self, event: &EstimatorEvent) {
        self.write_line(&wire::estimator_line(event));
    }

    fn lambda(&mut self, event: &LambdaEvent) {
        self.write_line(&wire::lambda_line(event));
    }

    fn schedule(&mut self, event: &ScheduleEvent) {
        self.write_line(&wire::schedule_line(event));
    }

    fn site(&mut self, event: &SiteEvent) {
        self.write_line(&wire::site_line(event));
    }

    fn population(&mut self, event: &PopulationEvent) {
        self.write_line(&wire::population_line(event));
    }

    fn detection(&mut self, event: &DetectionEvent) {
        self.write_line(&wire::detection_line(event));
    }
}

/// Reading traces back, for post-hoc verification and tooling.
pub mod replay {
    use super::SlotTotals;
    use crate::json::Json;
    use crate::metrics::SnrByHop;
    use std::io::{self, BufRead};

    /// Roll-up of one replayed JSONL trace.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct TraceSummary {
        /// Per-class totals over the trace's slot events.
        pub slots: SlotTotals,
        /// IDs learned directly (singleton decodes), summed over slots.
        pub learned_direct: u64,
        /// IDs learned via record resolution, summed over slots.
        pub learned_resolved: u64,
        /// `record` events with `event == "created"`.
        pub records_created: u64,
        /// `record` events with `event == "resolved"`.
        pub records_resolved: u64,
        /// `record` events with `event == "attempted"`.
        pub resolution_attempts: u64,
        /// `record` events with `event == "recovered"` (a non-ANC backend
        /// decoded a collision slot in place).
        pub slots_recovered: u64,
        /// Replies decoded by those `recovered` events, summed.
        pub replies_recovered: u64,
        /// Residual-SNR samples per hop depth, rebuilt from `attempted`
        /// events (same aggregation type as the live
        /// [`crate::Metrics::snr_by_hop`], so replay == live is
        /// structural).
        pub snr_by_hop: SnrByHop,
        /// `schedule` events (completed concurrent time slices).
        pub schedule_slices: u64,
        /// Sites summed over `schedule` events — the total scheduled site
        /// count of the sweep.
        pub scheduled_sites: u64,
        /// Wall-clock air time summed over `schedule` events, µs.
        pub schedule_wall_us: f64,
        /// Serial-equivalent air time summed over `schedule` events, µs.
        pub schedule_serial_us: f64,
        /// `site` events (completed sites of a sharded sweep).
        pub sites_completed: u64,
        /// Identifications summed over `site` events.
        pub site_identified: u64,
        /// `metrics` events (coalesced snapshots a bounded stream emitted
        /// after dropping events for a slow consumer).
        pub coalesced_snapshots: u64,
        /// `dropped_events` of the last `metrics` line seen (the counter is
        /// cumulative on the wire, so last-wins is the stream's total).
        pub dropped_events: u64,
        /// `lambda` events (adaptive-λ re-selections).
        pub lambda_adjustments: u64,
        /// λ of the last `lambda` event (0 when none occurred).
        pub lambda_current: u32,
        /// `estimator` events.
        pub estimator_updates: u64,
        /// `population` events with `kind == "arrival"`.
        pub arrivals: u64,
        /// `population` events with `kind == "departure"`.
        pub departures: u64,
        /// `detection` events with `kind == "unknown"`.
        pub unknown_detected: u64,
        /// `detection` events with `kind == "missing"`.
        pub missing_detected: u64,
        /// Detection latency summed over `detection` events, µs.
        pub detection_latency_us: f64,
        /// Non-blank lines read, whether or not they parsed.
        pub lines: u64,
    }

    /// The legacy spelling of a `-inf` residual SNR: an over-range number
    /// literal, which the parser rightly rejects.
    const LEGACY_NEG_INF_SNR: &str = "\"residual_snr_db\":-1e999";

    /// Parses a residual SNR back from the wire encoding. Current traces
    /// spell non-finite values as the string sentinels `"inf"`, `"-inf"`
    /// and `"nan"`. Legacy traces are still readable: `null` was the old
    /// spelling of `+inf` (noiseless channel), and the old bare `-1e999`
    /// for `-inf` is rewritten to the `"-inf"` sentinel before parsing
    /// (`LEGACY_NEG_INF_SNR`). Note the legacy format also wrote NaN as
    /// `null`, so NaN in *old* traces is unrecoverable — that lossiness is
    /// exactly what the sentinel encoding fixes.
    fn snr(line: &Json) -> Option<f64> {
        match line.get("residual_snr_db")? {
            Json::Null => Some(f64::INFINITY),
            Json::Num(db) => Some(*db),
            Json::Str(sentinel) => match sentinel.as_str() {
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                "nan" => Some(f64::NAN),
                _ => None,
            },
            _ => None,
        }
    }

    /// Replays a JSONL trace and rolls it up into a [`TraceSummary`].
    ///
    /// Each non-blank line is parsed as one JSON object
    /// ([`Json::parse`]). Lines of unknown type, and lines that do not
    /// parse, are counted in `lines` and otherwise ignored, so the format
    /// can grow without breaking old readers.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the reader.
    pub fn summarize<R: BufRead>(reader: R) -> io::Result<TraceSummary> {
        let mut summary = TraceSummary::default();
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            summary.lines += 1;
            let line = line.replace(LEGACY_NEG_INF_SNR, "\"residual_snr_db\":\"-inf\"");
            let Ok(line) = Json::parse(&line) else {
                continue;
            };
            match line.get("type").and_then(Json::as_str) {
                Some("slot") => {
                    match line.get("class").and_then(Json::as_str) {
                        Some("empty") => summary.slots.empty += 1,
                        Some("singleton") => summary.slots.singleton += 1,
                        Some("collision") => summary.slots.collision += 1,
                        _ => {}
                    }
                    summary.learned_direct += line
                        .get("learned_direct")
                        .and_then(Json::as_u64)
                        .unwrap_or(0);
                    summary.learned_resolved += line
                        .get("learned_resolved")
                        .and_then(Json::as_u64)
                        .unwrap_or(0);
                }
                Some("record") => match line.get("event").and_then(Json::as_str) {
                    Some("created") => summary.records_created += 1,
                    Some("resolved") => summary.records_resolved += 1,
                    Some("attempted") => {
                        summary.resolution_attempts += 1;
                        if let Some(db) = snr(&line) {
                            summary.snr_by_hop.observe(
                                line.get("hop").and_then(Json::as_u64).unwrap_or(0) as u32,
                                db,
                            );
                        }
                    }
                    Some("recovered") => {
                        summary.slots_recovered += 1;
                        summary.replies_recovered +=
                            line.get("decoded").and_then(Json::as_u64).unwrap_or(0);
                    }
                    _ => {}
                },
                Some("estimator") => summary.estimator_updates += 1,
                Some("schedule") => {
                    summary.schedule_slices += 1;
                    summary.scheduled_sites +=
                        line.get("sites").and_then(Json::as_u64).unwrap_or(0);
                    summary.schedule_wall_us +=
                        line.get("wall_us").and_then(Json::as_f64).unwrap_or(0.0);
                    summary.schedule_serial_us +=
                        line.get("serial_us").and_then(Json::as_f64).unwrap_or(0.0);
                }
                Some("site") => {
                    summary.sites_completed += 1;
                    summary.site_identified +=
                        line.get("identified").and_then(Json::as_u64).unwrap_or(0);
                }
                Some("metrics") => {
                    summary.coalesced_snapshots += 1;
                    summary.dropped_events = line
                        .get("dropped_events")
                        .and_then(Json::as_u64)
                        .unwrap_or(0);
                }
                Some("lambda") => {
                    summary.lambda_adjustments += 1;
                    summary.lambda_current =
                        line.get("lambda").and_then(Json::as_u64).unwrap_or(0) as u32;
                }
                Some("population") => match line.get("kind").and_then(Json::as_str) {
                    Some("arrival") => summary.arrivals += 1,
                    Some("departure") => summary.departures += 1,
                    _ => {}
                },
                Some("detection") => {
                    match line.get("kind").and_then(Json::as_str) {
                        Some("unknown") => summary.unknown_detected += 1,
                        Some("missing") => summary.missing_detected += 1,
                        _ => {}
                    }
                    summary.detection_latency_us +=
                        line.get("latency_us").and_then(Json::as_f64).unwrap_or(0.0);
                }
                _ => {}
            }
        }
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::RecordEventKind;
    use crate::{DetectionEvent, DetectionKind, PopulationEvent, PopulationEventKind};
    use rfid_types::TagId;
    use std::io::BufReader;

    fn sample_events(sink: &mut JsonlSink<Vec<u8>>) {
        sink.slot(&SlotEvent {
            slot: 0,
            class: SlotClass::Collision,
            transmitters: 2,
            p: 0.25,
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
        sink.slot(&SlotEvent {
            slot: 1,
            class: SlotClass::Singleton,
            transmitters: 1,
            p: 0.25,
            learned_direct: 1,
            learned_resolved: 1,
            records_outstanding: 0,
        });
        sink.record(&RecordEvent {
            slot: 1,
            record_slot: 0,
            kind: RecordEventKind::Resolved {
                tag: TagId::from_payload(42),
                cascade_depth: 1,
                latency_slots: 1,
            },
        });
        sink.estimator(&EstimatorEvent {
            slot: 30,
            frame: 0,
            p: 0.25,
            n0: 10,
            n1: 15,
            nc: 5,
            estimate: 64.5,
        });
    }

    #[test]
    fn writes_valid_lines_and_replays() {
        let mut sink = JsonlSink::new(Vec::new());
        sample_events(&mut sink);
        assert_eq!(sink.lines(), 5);
        let bytes = sink.finish().expect("in-memory writes succeed");
        let text = String::from_utf8(bytes).expect("utf8");
        assert_eq!(text.lines().count(), 5);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(text.contains("\"class\":\"collision\""));
        assert!(text.contains("\"estimate\":64.5"));
        let expected_tag = format!("\"tag\":\"{}\"", TagId::from_payload(42));
        assert!(text.contains(&expected_tag));

        let summary = replay::summarize(BufReader::new(text.as_bytes())).expect("replay");
        assert_eq!(summary.lines, 5);
        assert_eq!(summary.slots.collision, 1);
        assert_eq!(summary.slots.singleton, 1);
        assert_eq!(summary.slots.total(), 2);
        assert_eq!(summary.learned_direct, 1);
        assert_eq!(summary.learned_resolved, 1);
        assert_eq!(summary.records_created, 1);
        assert_eq!(summary.records_resolved, 1);
        assert_eq!(summary.estimator_updates, 1);
    }

    #[test]
    fn population_and_detection_lines_round_trip_through_replay() {
        let tag = TagId::from_payload(42);
        let mut sink = JsonlSink::new(Vec::new());
        sink.population(&PopulationEvent {
            round: 3,
            kind: PopulationEventKind::Arrival,
            tag,
        });
        sink.population(&PopulationEvent {
            round: 5,
            kind: PopulationEventKind::Departure,
            tag,
        });
        sink.detection(&DetectionEvent {
            round: 4,
            tag,
            kind: DetectionKind::Unknown,
            event_round: 3,
            latency_rounds: 1,
            latency_us: 120.5,
        });
        sink.detection(&DetectionEvent {
            round: 8,
            tag,
            kind: DetectionKind::Missing,
            event_round: 5,
            latency_rounds: 3,
            latency_us: 30.25,
        });
        assert_eq!(sink.lines(), 4);
        let bytes = sink.finish().expect("in-memory writes succeed");
        let text = String::from_utf8(bytes).expect("utf8");
        assert!(text.contains("\"kind\":\"arrival\""));
        assert!(text.contains("\"kind\":\"departure\""));
        assert!(text.contains("\"latency_us\":120.5"));

        let summary = replay::summarize(BufReader::new(text.as_bytes())).expect("replay");
        assert_eq!(summary.arrivals, 1);
        assert_eq!(summary.departures, 1);
        assert_eq!(summary.unknown_detected, 1);
        assert_eq!(summary.missing_detected, 1);
        assert!((summary.detection_latency_us - 150.75).abs() < 1e-12);
    }

    #[test]
    fn f64_formatting_is_json_safe() {
        assert_eq!(fmt_f64(0.25), "0.25");
        assert_eq!(fmt_f64(1.0), "1.0");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(1e-9), "0.000000001");
    }

    #[test]
    fn resolution_events_serialize() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&RecordEvent {
            slot: 3,
            record_slot: 1,
            kind: RecordEventKind::Attempted {
                hop: 2,
                residual_snr_db: f64::INFINITY,
                success: true,
            },
        });
        sink.record(&RecordEvent {
            slot: 4,
            record_slot: 1,
            kind: RecordEventKind::RequeryScheduled {
                attempt: 1,
                due_slot: 8,
            },
        });
        sink.record(&RecordEvent {
            slot: 8,
            record_slot: 1,
            kind: RecordEventKind::Requeried {
                attempt: 1,
                success: false,
            },
        });
        let text = String::from_utf8(sink.finish().expect("write")).expect("utf8");
        assert!(text.contains("\"event\":\"attempted\""));
        assert!(text.contains("\"residual_snr_db\":\"inf\""));
        assert!(text.contains("\"event\":\"requery_scheduled\""));
        assert!(text.contains("\"due_slot\":8"));
        assert!(text.contains("\"event\":\"requeried\""));
        assert!(text.contains("\"success\":false"));
        // Old readers treat the new record events as unknown and skip them.
        let summary = replay::summarize(BufReader::new(text.as_bytes())).expect("replay");
        assert_eq!(summary.lines, 3);
        assert_eq!(summary.records_created, 0);
    }

    #[test]
    fn snr_round_trips_through_writer_and_reader() {
        let mut sink = JsonlSink::new(Vec::new());
        for (hop, db) in [
            (1u32, f64::INFINITY),
            (1, f64::NEG_INFINITY),
            (2, 12.5),
            (2, -3.25),
        ] {
            sink.record(&RecordEvent {
                slot: 0,
                record_slot: 0,
                kind: RecordEventKind::Attempted {
                    hop,
                    residual_snr_db: db,
                    success: true,
                },
            });
        }
        let text = String::from_utf8(sink.finish().expect("write")).expect("utf8");
        // The wire encodings pinned by the format doc: explicit string
        // sentinels, so every non-finite value stays valid JSON and
        // distinguishable on replay.
        assert!(text.contains("\"residual_snr_db\":\"inf\""));
        assert!(text.contains("\"residual_snr_db\":\"-inf\""));

        let summary = replay::summarize(BufReader::new(text.as_bytes())).expect("replay");
        assert_eq!(summary.resolution_attempts, 4);
        let h1 = summary.snr_by_hop.stats(1).unwrap();
        assert_eq!(h1.count, 2);
        // +inf must come back as +inf (not NaN, not an error, not a skip).
        assert_eq!(h1.min, f64::NEG_INFINITY);
        assert!(h1.mean.is_nan(), "inf + -inf has no defined mean");
        let mut expected = crate::metrics::SnrByHop::default();
        expected.observe(1, f64::INFINITY);
        expected.observe(1, f64::NEG_INFINITY);
        expected.observe(2, 12.5);
        expected.observe(2, -3.25);
        assert_eq!(summary.snr_by_hop, expected);
    }

    #[test]
    fn nan_snr_round_trips_distinct_from_infinity() {
        let mut sink = JsonlSink::new(Vec::new());
        for db in [f64::NAN, f64::INFINITY, 7.5] {
            sink.record(&RecordEvent {
                slot: 0,
                record_slot: 0,
                kind: RecordEventKind::Attempted {
                    hop: 1,
                    residual_snr_db: db,
                    success: false,
                },
            });
        }
        let text = String::from_utf8(sink.finish().expect("write")).expect("utf8");
        assert!(text.contains("\"residual_snr_db\":\"nan\""));
        assert!(text.contains("\"residual_snr_db\":\"inf\""));

        let summary = replay::summarize(BufReader::new(text.as_bytes())).expect("replay");
        assert_eq!(summary.resolution_attempts, 3);
        // Live `SnrByHop::observe` drops NaN samples; the replay must see
        // the same NaN (not a resurrected +inf) so it drops it too —
        // otherwise replay counts one sample more than live did.
        let mut expected = crate::metrics::SnrByHop::default();
        expected.observe(1, f64::NAN);
        expected.observe(1, f64::INFINITY);
        expected.observe(1, 7.5);
        assert_eq!(summary.snr_by_hop, expected);
        assert_eq!(summary.snr_by_hop.stats(1).unwrap().count, 2);
    }

    #[test]
    fn legacy_snr_encodings_still_replay() {
        // Traces written before the sentinel encoding spelled +inf (and,
        // lossily, NaN) as `null` and -inf as the bare token `-1e999`.
        let text = "{\"type\":\"record\",\"event\":\"attempted\",\"slot\":0,\"record_slot\":0,\"hop\":1,\"residual_snr_db\":null,\"success\":true}\n\
                    {\"type\":\"record\",\"event\":\"attempted\",\"slot\":1,\"record_slot\":0,\"hop\":1,\"residual_snr_db\":-1e999,\"success\":false}\n";
        let summary = replay::summarize(BufReader::new(text.as_bytes())).expect("replay");
        assert_eq!(summary.resolution_attempts, 2);
        let stats = summary.snr_by_hop.stats(1).unwrap();
        assert_eq!(stats.count, 2);
        assert_eq!(stats.min, f64::NEG_INFINITY);
        assert!(stats.mean.is_nan(), "inf + -inf has no defined mean");
    }

    #[test]
    fn recovered_events_serialize_and_replay() {
        use crate::event::RecoveryBackendTag;
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&RecordEvent {
            slot: 5,
            record_slot: 5,
            kind: RecordEventKind::Recovered {
                backend: RecoveryBackendTag::Mpr,
                decoded: 3,
            },
        });
        sink.record(&RecordEvent {
            slot: 9,
            record_slot: 9,
            kind: RecordEventKind::Recovered {
                backend: RecoveryBackendTag::Cs,
                decoded: 2,
            },
        });
        let text = String::from_utf8(sink.finish().expect("write")).expect("utf8");
        assert!(text.contains("\"event\":\"recovered\""));
        assert!(text.contains("\"backend\":\"mpr\""));
        assert!(text.contains("\"backend\":\"cs\""));
        assert!(text.contains("\"decoded\":3"));
        let summary = replay::summarize(BufReader::new(text.as_bytes())).expect("replay");
        assert_eq!(summary.slots_recovered, 2);
        assert_eq!(summary.replies_recovered, 5);
        // Not conflated with the ANC record-lifecycle counters.
        assert_eq!(summary.records_created, 0);
        assert_eq!(summary.records_resolved, 0);
    }

    #[test]
    fn lambda_events_serialize_and_replay() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.lambda(&LambdaEvent {
            slot: 12,
            lambda: 3,
            omega: 1.8171205928321397,
        });
        sink.lambda(&LambdaEvent {
            slot: 64,
            lambda: 2,
            omega: std::f64::consts::SQRT_2,
        });
        let text = String::from_utf8(sink.finish().expect("write")).expect("utf8");
        assert!(text.contains("\"type\":\"lambda\""));
        assert!(text.contains("\"lambda\":3"));
        let summary = replay::summarize(BufReader::new(text.as_bytes())).expect("replay");
        assert_eq!(summary.lambda_adjustments, 2);
        assert_eq!(summary.lambda_current, 2);
    }

    #[test]
    fn schedule_events_serialize_and_replay() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.schedule(&ScheduleEvent {
            slice: 0,
            sites: 6,
            wall_elapsed_us: 1500.0,
            serial_elapsed_us: 6400.5,
        });
        sink.schedule(&ScheduleEvent {
            slice: 1,
            sites: 2,
            wall_elapsed_us: 700.25,
            serial_elapsed_us: 900.25,
        });
        let text = String::from_utf8(sink.finish().expect("write")).expect("utf8");
        assert!(text.contains("\"type\":\"schedule\""));
        assert!(text.contains("\"slice\":1"));
        assert!(text.contains("\"sites\":6"));
        assert!(text.contains("\"wall_us\":1500.0"));
        assert!(text.contains("\"serial_us\":900.25"));
        let summary = replay::summarize(BufReader::new(text.as_bytes())).expect("replay");
        assert_eq!(summary.schedule_slices, 2);
        assert_eq!(summary.scheduled_sites, 8);
        assert!((summary.schedule_wall_us - 2200.25).abs() < 1e-9);
        assert!((summary.schedule_serial_us - 7300.75).abs() < 1e-9);
    }

    #[test]
    fn site_and_metrics_lines_serialize_and_replay() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.site(&SiteEvent {
            site: 7,
            worker: 2,
            identified: 40,
            slots: 233,
            elapsed_us: 1234.5,
        });
        sink.site(&SiteEvent {
            site: 3,
            worker: 0,
            identified: 25,
            slots: 150,
            elapsed_us: 800.0,
        });
        let metrics = crate::Metrics {
            sites_completed: 2,
            site_identified: 65,
            ..crate::Metrics::default()
        };
        let snapshot = wire::metrics_line(&metrics, 17);
        let mut text = String::from_utf8(sink.finish().expect("write")).expect("utf8");
        text.push_str(&snapshot);
        text.push('\n');
        assert!(text.contains("\"type\":\"site\""));
        assert!(text.contains("\"worker\":2"));
        assert!(text.contains("\"elapsed_us\":1234.5"));
        assert!(text.contains("\"type\":\"metrics\""));
        assert!(text.contains("\"dropped_events\":17"));
        let summary = replay::summarize(BufReader::new(text.as_bytes())).expect("replay");
        assert_eq!(summary.sites_completed, 2);
        assert_eq!(summary.site_identified, 65);
        assert_eq!(summary.coalesced_snapshots, 1);
        assert_eq!(summary.dropped_events, 17);
    }

    /// A writer that records flush calls, for pinning the flush policy.
    #[derive(Debug)]
    struct FlushCounter {
        flushes: std::rc::Rc<std::cell::Cell<u64>>,
        fail_flush: bool,
    }

    impl Write for FlushCounter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushes.set(self.flushes.get() + 1);
            if self.fail_flush {
                Err(io::Error::other("flush refused"))
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn flush_every_flushes_in_bounded_batches() {
        let flushes = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut sink = JsonlSink::new(FlushCounter {
            flushes: flushes.clone(),
            fail_flush: false,
        })
        .with_flush_every(2);
        for slot in 0..5 {
            sink.lambda(&LambdaEvent {
                slot,
                lambda: 2,
                omega: 1.5,
            });
        }
        // 5 lines with flush_every=2 → flushes after lines 2 and 4.
        assert_eq!(flushes.get(), 2);
        sink.finish().expect("finish");
        assert!(flushes.get() >= 3, "finish flushes the tail");
    }

    #[test]
    fn default_mode_flushes_only_at_finish() {
        let flushes = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut sink = JsonlSink::new(FlushCounter {
            flushes: flushes.clone(),
            fail_flush: false,
        });
        for slot in 0..100 {
            sink.lambda(&LambdaEvent {
                slot,
                lambda: 2,
                omega: 1.5,
            });
        }
        assert_eq!(flushes.get(), 0);
        sink.finish().expect("finish");
        assert!(flushes.get() >= 1);
    }

    #[test]
    fn streaming_flush_error_is_sticky_and_returned_by_finish() {
        let flushes = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut sink = JsonlSink::new(FlushCounter {
            flushes: flushes.clone(),
            fail_flush: true,
        })
        .with_flush_every(1);
        sink.lambda(&LambdaEvent {
            slot: 0,
            lambda: 2,
            omega: 1.5,
        });
        let lines_after_error = sink.lines();
        sink.lambda(&LambdaEvent {
            slot: 1,
            lambda: 2,
            omega: 1.5,
        });
        assert_eq!(
            sink.lines(),
            lines_after_error,
            "sticky error stops writing"
        );
        let err = sink.finish().expect_err("flush error surfaces");
        assert_eq!(err.to_string(), "flush refused");
    }

    #[test]
    fn replay_reads_spaced_lines_and_skips_unparseable_ones() {
        // Valid JSON with whitespace around `:` and `,` — a hand-written or
        // re-serialized trace — replays like the compact wire form; a line
        // that does not parse is counted and otherwise ignored.
        let text = "{\"type\": \"slot\", \"class\": \"empty\", \"learned_direct\": 0}\n\
                    { \"type\" : \"schedule\" , \"sites\" : 3 , \"wall_us\" : 2.5 }\n\
                    {\"type\":\"slot\",\"class\":\"collision\"\n";
        let summary = replay::summarize(BufReader::new(text.as_bytes())).expect("replay");
        assert_eq!(summary.lines, 3);
        assert_eq!(summary.slots.empty, 1);
        assert_eq!(summary.slots.total(), 1);
        assert_eq!(summary.schedule_slices, 1);
        assert_eq!(summary.scheduled_sites, 3);
        assert_eq!(summary.schedule_wall_us, 2.5);
    }

    #[test]
    fn replay_ignores_unknown_and_blank_lines() {
        let text = "\n{\"type\":\"future-thing\",\"x\":1}\n{\"type\":\"slot\",\"slot\":0,\"class\":\"empty\",\"transmitters\":0,\"p\":1.0,\"learned_direct\":0,\"learned_resolved\":0,\"outstanding\":0}\n";
        let summary = replay::summarize(BufReader::new(text.as_bytes())).expect("replay");
        assert_eq!(summary.lines, 2);
        assert_eq!(summary.slots.empty, 1);
    }
}
