//! Determinism guards for the observability layer.
//!
//! The `EventSink` contract says sinks are observation-only: attaching one
//! must not change a single bit of what a run computes, and a written JSONL
//! trace must replay to the exact slot-class totals of the report it was
//! recorded alongside. These tests pin both halves of that contract for
//! SCAT and FCAT.

use anc_rfid::anc::{Fidelity, SignalLevelConfig};
use anc_rfid::prelude::*;
use anc_rfid::sim::obs::jsonl::replay;
use anc_rfid::sim::obs::{JsonlSink, MetricsSink};
use anc_rfid::sim::{run_inventory_observed, run_many_observed};

#[test]
fn traced_and_untraced_run_many_are_identical_fcat() {
    let config = SimConfig::default().with_seed(7);
    let protocol = Fcat::new(FcatConfig::default());
    let plain = run_many(&protocol, 300, 5, &config).expect("plain runs");
    let (observed, metrics) = run_many_observed(&protocol, 300, 5, &config).expect("observed");
    assert_eq!(plain, observed, "metrics collection perturbed the runs");
    assert_eq!(metrics.runs, 5);
    assert!((metrics.slots.total() as f64 - observed.total_slots.mean * 5.0).abs() < 0.5);
}

#[test]
fn traced_and_untraced_run_many_are_identical_scat() {
    let config = SimConfig::default().with_seed(11);
    let protocol = Scat::new(ScatConfig::default());
    let plain = run_many(&protocol, 300, 5, &config).expect("plain runs");
    let (observed, metrics) = run_many_observed(&protocol, 300, 5, &config).expect("observed");
    assert_eq!(plain, observed, "metrics collection perturbed the runs");
    assert_eq!(metrics.runs, 5);
    assert!((metrics.slots.total() as f64 - observed.total_slots.mean * 5.0).abs() < 0.5);
}

/// Runs one inventory plain and once more with a JSONL sink writing into a
/// buffer; asserts the two reports are equal and that replaying the buffer
/// reproduces the report's slot-class totals and identified count.
fn assert_trace_replays<P>(protocol: &P, seed: u64) -> replay::TraceSummary
where
    P: anc_rfid::sim::ObservableProtocol,
{
    let config = SimConfig::default().with_seed(seed);
    let tags = population::uniform(&mut seeded_rng(seed), 400);

    let plain = run_inventory(protocol, &tags, &config).expect("plain run");
    let mut sink = JsonlSink::new(Vec::new());
    let traced = run_inventory_observed(protocol, &tags, &config, &mut sink).expect("traced run");
    assert_eq!(plain, traced, "JSONL sink perturbed the run");

    let buffer = sink.finish().expect("in-memory writes cannot fail");
    let summary = replay::summarize(buffer.as_slice()).expect("well-formed trace");
    assert_eq!(summary.slots.empty, traced.slots.empty);
    assert_eq!(summary.slots.singleton, traced.slots.singleton);
    assert_eq!(summary.slots.collision, traced.slots.collision);
    assert_eq!(
        summary.learned_direct + summary.learned_resolved,
        traced.identified as u64
    );
    assert_eq!(
        summary.learned_resolved,
        traced.resolved_from_collisions as u64
    );
    assert_eq!(summary.records_resolved, summary.learned_resolved);
    assert!(summary.estimator_updates > 0, "estimator never reported");
    summary
}

#[test]
fn jsonl_replay_matches_fcat_report() {
    assert_trace_replays(&Fcat::new(FcatConfig::default()), 13);
}

#[test]
fn jsonl_replay_matches_scat_report() {
    assert_trace_replays(&Scat::new(ScatConfig::default()), 17);
}

#[test]
fn signal_level_trace_carries_attempts_and_replays() {
    // Signal-level records are attempted by the same signal backend as
    // signal-backed ones, so their traces carry `Attempted` record events.
    let protocol = Fcat::new(
        FcatConfig::default().with_fidelity(Fidelity::SignalLevel(SignalLevelConfig::default())),
    );
    let summary = assert_trace_replays(&protocol, 19);
    assert!(summary.resolution_attempts > 0, "no attempts traced");
    assert!(summary.resolution_attempts >= summary.records_resolved);
}

#[test]
fn replayed_snr_by_hop_matches_live_metrics() {
    // Signal-backed resolution emits a residual SNR per attempt; the live
    // MetricsSink buckets them by hop depth, and the JSONL replay must
    // rebuild the exact same buckets from the wire (including non-finite
    // samples, which round-trip as the `"inf"`/`"-inf"`/`"nan"` string
    // sentinels).
    let config = SimConfig::default().with_seed(29);
    let tags = population::uniform(&mut seeded_rng(29), 400);
    let protocol = Fcat::new(
        FcatConfig::default().with_resolution(ResolutionModel::SignalBacked(
            SignalResolutionConfig::default().with_noise_std(0.2),
        )),
    );

    let mut metrics_sink = MetricsSink::new();
    let live = run_inventory_observed(&protocol, &tags, &config, &mut metrics_sink).expect("live");
    let metrics = metrics_sink.into_metrics();

    let mut jsonl = JsonlSink::new(Vec::new());
    let traced = run_inventory_observed(&protocol, &tags, &config, &mut jsonl).expect("traced");
    assert_eq!(live, traced, "sink choice perturbed the run");
    let buffer = jsonl.finish().expect("in-memory writes cannot fail");
    let summary = replay::summarize(buffer.as_slice()).expect("well-formed trace");

    assert_eq!(summary.snr_by_hop, metrics.snr_by_hop, "replay != live");
    assert!(!metrics.snr_by_hop.is_empty(), "no attempts observed");
    let h1 = metrics.snr_by_hop.stats(1).expect("hop-1 attempts");
    assert!(h1.count > 0);
    // At σ = 0.2 residual SNRs are finite and ordered as min ≤ p10 ≤ mean.
    assert!(h1.min <= h1.p10 && h1.p10 <= h1.mean, "{h1:?}");
    assert!(metrics.snr_by_hop.max_hop() >= 1);
}

#[test]
fn metrics_sink_totals_match_single_report() {
    // The aggregate counters must agree with the report they were collected
    // alongside — same slots, same split of direct vs. resolved IDs.
    let config = SimConfig::default().with_seed(23);
    let tags = population::uniform(&mut seeded_rng(23), 500);
    let mut sink = MetricsSink::new();
    let report =
        run_inventory_observed(&Fcat::new(FcatConfig::default()), &tags, &config, &mut sink)
            .expect("run");
    let metrics = sink.into_metrics();
    assert_eq!(metrics.slots.total(), report.slots.total());
    assert_eq!(
        metrics.identified_direct + metrics.identified_resolved,
        report.identified as u64
    );
    assert_eq!(
        metrics.identified_resolved,
        report.resolved_from_collisions as u64
    );
    assert_eq!(metrics.records_resolved, metrics.identified_resolved);
    assert!(metrics.max_cascade_depth >= 1, "500 tags must cascade");
}
