//! Conflict/coverage oracle for the concurrent multi-reader scheduler.
//!
//! The scheduled sweep — one core, [`multi_site_inventory_sharded`], of
//! which [`multi_site_inventory_scheduled`] is the one-worker call — makes
//! three claims this suite holds it to, each checked against an
//! *independent* reference (the serial loop [`multi_site_inventory`], a
//! brute-force conflict predicate) rather than the scheduler's own data
//! structures:
//!
//! 1. **Conflict-freedom** — every emitted time slice is an independent
//!    set of the interference graph (no two sites in a slice have
//!    overlapping coverage disks or separation within the interference
//!    radius), and every site is scheduled exactly once.
//! 2. **Coverage equivalence** — `unique_tags`, `uncovered`,
//!    `cross_site_duplicates` and every per-site report are bit-identical
//!    to the serial sweep, for arbitrary deployments, radii and worker
//!    counts, and the wall-clock roll-up equals one recomputed from the
//!    schedule.
//! 3. **Determinism** — the same inputs always produce the same schedule
//!    and the same report.

mod common;

use anc_rfid::prelude::*;
use anc_rfid::sim::obs::{jsonl::replay, JsonlSink, MetricsSink};
use anc_rfid::sim::{
    multi_site_inventory, multi_site_inventory_scheduled, multi_site_inventory_sharded,
    multi_site_inventory_sharded_observed, AntiCollisionProtocol, Deployment, InterferenceGraph,
    MultiSiteReport, Schedule, SimError,
};
use common::{assert_matches_serial_reference, WORKERS};
use proptest::prelude::*;
use rand::rngs::StdRng;

/// A cheap deterministic protocol (one singleton slot per tag) so the
/// property tests spend their budget on geometry, not anti-collision.
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

/// The conflict predicate, reimplemented from the model definition: disks
/// of radius `range` overlap (separation strictly below `2·range`), or
/// reader-to-reader interference reaches (separation at most `radius`,
/// inclusive).
fn conflict_oracle(a: (f64, f64), b: (f64, f64), range: f64, radius: f64) -> bool {
    let d = ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
    d < 2.0 * range || d <= radius
}

/// Brute-force check that `report.schedule` partitions `positions` into
/// independent sets of the interference graph.
fn assert_schedule_valid(
    report: &MultiSiteReport,
    positions: &[(f64, f64)],
    range: f64,
    radius: f64,
) {
    let mut scheduled = vec![0usize; positions.len()];
    for slice in &report.schedule {
        for (i, &a) in slice.iter().enumerate() {
            scheduled[a] += 1;
            for &b in &slice[i + 1..] {
                assert!(
                    !conflict_oracle(positions[a], positions[b], range, radius),
                    "sites {a} and {b} conflict but share a slice"
                );
            }
        }
    }
    assert!(
        scheduled.iter().all(|&count| count == 1),
        "every site must be scheduled exactly once: {scheduled:?}"
    );
}

fn small_deployment(seed: u64, n: usize, width: f64, height: f64) -> Deployment {
    Deployment::uniform(&mut seeded_rng(seed), n, width, height)
}

// ---------------------------------------------------------------------------
// Property tests: arbitrary deployments and radii.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Scheduled ≡ serial on everything except the wall-clock roll-up, at
    /// every worker count; the roll-up matches one recomputed from the
    /// schedule, and the emitted schedule is conflict-free (brute-force
    /// oracle).
    #[test]
    fn scheduled_sweep_equivalent_to_serial(
        n in 0usize..60,
        width in 20.0f64..80.0,
        height in 20.0f64..80.0,
        spacing in 8.0f64..45.0,
        range in 2.0f64..20.0,
        radius in 0.0f64..70.0,
        seed in any::<u64>(),
    ) {
        let deployment = small_deployment(seed, n, width, height);
        let positions = deployment.grid_positions(spacing);
        let config = SimConfig::default().with_seed(seed ^ 0x5C4E);
        let serial =
            multi_site_inventory(&RollCall, &deployment, &positions, range, &config).unwrap();
        for workers in WORKERS {
            let scheduled = multi_site_inventory_sharded(
                &RollCall, &deployment, &positions, range, radius, &config, workers,
            )
            .unwrap();

            assert_matches_serial_reference(&scheduled, &serial);
            prop_assert!(
                (scheduled.serial_elapsed_us() - serial.total_elapsed_us).abs() < 1e-6,
                "serial cost must be schedule-invariant"
            );
            // Concurrency can only shrink wall-clock time.
            prop_assert!(scheduled.total_elapsed_us <= serial.total_elapsed_us + 1e-9);
            prop_assert!(scheduled.speedup_vs_serial() >= 1.0 - 1e-12);
            assert_schedule_valid(&scheduled, &positions, range, radius);
        }
    }

    /// The same inputs always give the same schedule and the same report.
    #[test]
    fn schedule_is_deterministic(
        n in 0usize..40,
        spacing in 8.0f64..40.0,
        range in 2.0f64..18.0,
        radius in 0.0f64..60.0,
        seed in any::<u64>(),
    ) {
        let deployment = small_deployment(seed, n, 50.0, 50.0);
        let positions = deployment.grid_positions(spacing);
        let config = SimConfig::default().with_seed(seed);
        let run = || {
            multi_site_inventory_scheduled(
                &RollCall, &deployment, &positions, range, radius, &config,
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a.schedule, &b.schedule);
        prop_assert_eq!(a, b);
    }

    /// Greedy coloring respects the classic bound: at most max-degree + 1
    /// slices, and the partition is valid for its own graph.
    #[test]
    fn slice_count_bounded_by_max_degree(
        sites in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 0..40),
        range in 0.0f64..25.0,
        radius in 0.0f64..80.0,
    ) {
        let graph = InterferenceGraph::build(&sites, range, radius);
        let schedule = Schedule::greedy(&graph);
        prop_assert!(schedule.num_slices() <= graph.max_degree() + 1);
        prop_assert_eq!(schedule.num_sites(), sites.len());
        prop_assert!(schedule.is_valid_for(&graph));
        // Cross-check independence against the raw predicate.
        for slice in &schedule.slices {
            for (i, &a) in slice.iter().enumerate() {
                for &b in &slice[i + 1..] {
                    prop_assert!(!conflict_oracle(sites[a], sites[b], range, radius));
                }
            }
        }
    }

    /// Satellite: `grid_positions(spacing ≤ range·√2)` covers every placed
    /// tag — each tag is within `range` of at least one position.
    #[test]
    fn grid_covers_every_tag_when_spacing_fits_range(
        n in 1usize..80,
        width in 5.0f64..90.0,
        height in 5.0f64..90.0,
        range in 2.0f64..30.0,
        shrink in 0.5f64..1.0,
        seed in any::<u64>(),
    ) {
        let deployment = small_deployment(seed, n, width, height);
        let spacing = range * std::f64::consts::SQRT_2 * shrink;
        let positions = deployment.grid_positions(spacing);
        // Positions are capped to the region rectangle.
        for &(x, y) in &positions {
            prop_assert!((0.0..=width).contains(&x) && (0.0..=height).contains(&y));
        }
        for tag in &deployment.tags {
            let covered = positions.iter().any(|&(x, y)| {
                (tag.x - x).powi(2) + (tag.y - y).powi(2) <= range * range
            });
            prop_assert!(covered, "tag at ({}, {}) uncovered", tag.x, tag.y);
        }
        // And the sweep agrees: nothing is left uncovered.
        let report = multi_site_inventory(
            &RollCall,
            &deployment,
            &positions,
            range,
            &SimConfig::default().with_seed(seed),
        )
        .unwrap();
        prop_assert_eq!(report.uncovered, 0);
        prop_assert_eq!(report.unique_tags, n);
    }
}

// ---------------------------------------------------------------------------
// Golden reports for seeded deployments.
// ---------------------------------------------------------------------------

/// Seeds 0–5, real FCAT-2: serial and scheduled sweeps agree on
/// `unique_tags`/`uncovered`/duplicates at a low, a medium and a
/// fully-serializing interference radius.
#[test]
fn golden_seeds_serial_vs_scheduled_identical() {
    let fcat = Fcat::new(FcatConfig::default());
    for seed in 0u64..=5 {
        let deployment = small_deployment(seed, 250, 60.0, 40.0);
        let positions = deployment.grid_positions(20.0);
        let config = SimConfig::default().with_seed(seed);
        let serial = multi_site_inventory(&fcat, &deployment, &positions, 14.0, &config).unwrap();
        assert_eq!(
            serial.unique_tags + serial.uncovered,
            250,
            "seed {seed}: every tag is either read or uncovered"
        );
        for radius in [0.0, 30.0, 1_000.0] {
            let scheduled = multi_site_inventory_scheduled(
                &fcat,
                &deployment,
                &positions,
                14.0,
                radius,
                &config,
            )
            .unwrap();
            assert_eq!(scheduled.unique_tags, serial.unique_tags, "seed {seed}");
            assert_eq!(scheduled.uncovered, serial.uncovered, "seed {seed}");
            assert_eq!(
                scheduled.cross_site_duplicates, serial.cross_site_duplicates,
                "seed {seed}"
            );
            assert_eq!(scheduled.per_site, serial.per_site, "seed {seed}");
            assert_matches_serial_reference(&scheduled, &serial);
            assert_schedule_valid(&scheduled, &positions, 14.0, radius);
            assert!(scheduled.speedup_vs_serial() >= 1.0 - 1e-12);
        }
        // A radius larger than the region diameter forces full
        // serialization: one site per slice, speedup exactly 1.
        let serialized =
            multi_site_inventory_scheduled(&fcat, &deployment, &positions, 14.0, 1_000.0, &config)
                .unwrap();
        assert_eq!(serialized.slices.len(), positions.len());
        assert!((serialized.speedup_vs_serial() - 1.0).abs() < 1e-9);
    }
}

/// A pinned schedule for a hand-built geometry: four sites on a line,
/// 10 m apart, coverage 4 m (no overlap), interference radius 10 m —
/// a path graph, greedily 2-colored into even/odd sites.
#[test]
fn golden_schedule_for_path_geometry() {
    let positions = [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0)];
    let deployment = Deployment {
        width: 30.0,
        height: 1.0,
        tags: (0..4)
            .map(|i| anc_rfid::sim::PlacedTag {
                id: TagId::from_payload(i),
                x: 10.0 * i as f64,
                y: 0.0,
            })
            .collect(),
    };
    let report = multi_site_inventory_scheduled(
        &RollCall,
        &deployment,
        &positions,
        4.0,
        10.0,
        &SimConfig::default().with_seed(1),
    )
    .unwrap();
    assert_eq!(report.schedule, vec![vec![0, 2], vec![1, 3]]);
    assert_eq!(report.slices.len(), 2);
    assert_eq!(report.unique_tags, 4);
    assert_eq!(report.cross_site_duplicates, 0);
    // Every site reads exactly one tag, so both slices cost one basic
    // slot and the sweep halves the serial wall clock.
    assert!((report.speedup_vs_serial() - 2.0).abs() < 1e-9);
}

// ---------------------------------------------------------------------------
// Satellite: MultiSiteReport edge cases and duplicates accounting.
// ---------------------------------------------------------------------------

#[test]
fn effective_throughput_edge_cases() {
    // No positions: no air time, throughput and speedup degenerate cleanly.
    let deployment = small_deployment(9, 20, 10.0, 10.0);
    let empty =
        multi_site_inventory(&RollCall, &deployment, &[], 5.0, &SimConfig::default()).unwrap();
    assert_eq!(empty.total_elapsed_us, 0.0);
    assert_eq!(empty.effective_throughput(), 0.0);
    assert_eq!(empty.speedup_vs_serial(), 1.0);
    assert_eq!(empty.unique_tags, 0);
    assert_eq!(empty.uncovered, 20);

    // Positions that cover nothing: slots may still be zero-cost (RollCall
    // charges per tag), so zero air time with a non-empty position list.
    let nothing_in_range = multi_site_inventory(
        &RollCall,
        &deployment,
        &[(1_000.0, 1_000.0)],
        5.0,
        &SimConfig::default(),
    )
    .unwrap();
    assert_eq!(nothing_in_range.total_elapsed_us, 0.0);
    assert_eq!(nothing_in_range.effective_throughput(), 0.0);
    assert_eq!(nothing_in_range.speedup_vs_serial(), 1.0);

    // Scheduled variant of the degenerate sweep behaves identically.
    let scheduled = multi_site_inventory_scheduled(
        &RollCall,
        &deployment,
        &[],
        5.0,
        0.0,
        &SimConfig::default(),
    )
    .unwrap();
    assert_eq!(scheduled.effective_throughput(), 0.0);
    assert_eq!(scheduled.speedup_vs_serial(), 1.0);
    assert!(scheduled.schedule.is_empty());
}

#[test]
fn cross_site_duplicates_under_overlapping_coverage() {
    // Two co-located readers with identical coverage: the second site
    // re-reads exactly the first site's tags, so every one of its reads is
    // a cross-site duplicate.
    let deployment = small_deployment(10, 60, 20.0, 20.0);
    let position = (10.0, 10.0);
    let range = 30.0; // covers the whole region from the center
    let config = SimConfig::default().with_seed(3);
    let report = multi_site_inventory(
        &RollCall,
        &deployment,
        &[position, position],
        range,
        &config,
    )
    .unwrap();
    assert_eq!(report.unique_tags, 60);
    assert_eq!(report.cross_site_duplicates, 60);
    assert_eq!(report.uncovered, 0);

    // Partial overlap: duplicates equal the tags in both disks.
    let a = (5.0, 10.0);
    let b = (15.0, 10.0);
    let r = 8.0;
    let in_both: Vec<_> = deployment
        .tags
        .iter()
        .filter(|t| {
            (t.x - a.0).powi(2) + (t.y - a.1).powi(2) <= r * r
                && (t.x - b.0).powi(2) + (t.y - b.1).powi(2) <= r * r
        })
        .collect();
    let partial = multi_site_inventory(&RollCall, &deployment, &[a, b], r, &config).unwrap();
    assert_eq!(partial.cross_site_duplicates, in_both.len());
    // Co-located sites always conflict, so the scheduled path serializes
    // them and still counts duplicates identically.
    let scheduled = multi_site_inventory_scheduled(
        &RollCall,
        &deployment,
        &[position, position],
        range,
        0.0,
        &config,
    )
    .unwrap();
    assert_eq!(scheduled.slices.len(), 2);
    assert_eq!(scheduled.cross_site_duplicates, 60);
}

// ---------------------------------------------------------------------------
// Satellite: Deployment geometry pins.
// ---------------------------------------------------------------------------

#[test]
fn in_range_boundary_is_inclusive() {
    // A tag at distance *exactly* `range` is read; epsilon beyond is not.
    let deployment = Deployment {
        width: 10.0,
        height: 10.0,
        tags: vec![anc_rfid::sim::PlacedTag {
            id: TagId::from_payload(7),
            x: 3.0,
            y: 4.0,
        }],
    };
    assert_eq!(deployment.in_range(0.0, 0.0, 5.0).len(), 1, "d == range");
    assert_eq!(deployment.in_range(0.0, 0.0, 5.0 - 1e-9).len(), 0);
    // The same inclusivity drives the interference model's coverage term:
    // tangent disks (separation exactly 2·range) do NOT conflict...
    assert!(!InterferenceGraph::positions_conflict(
        (0.0, 0.0),
        (10.0, 0.0),
        5.0,
        0.0
    ));
    // ...while separation exactly equal to the interference radius does.
    assert!(InterferenceGraph::positions_conflict(
        (0.0, 0.0),
        (10.0, 0.0),
        0.0,
        10.0
    ));
}

#[test]
fn grid_positions_capped_inside_region() {
    // Regression for the pre-scheduler bug: a spacing larger than the
    // region used to put the single cell center outside the rectangle.
    let deployment = Deployment {
        width: 10.0,
        height: 8.0,
        tags: vec![anc_rfid::sim::PlacedTag {
            id: TagId::from_payload(1),
            x: 9.5,
            y: 7.5,
        }],
    };
    let positions = deployment.grid_positions(25.0);
    assert_eq!(positions, vec![(10.0, 8.0)]);
    // The capped position can actually read a corner tag a runaway center
    // would have missed: distance from (12.5, 12.5) is ~5.8, from (10, 8)
    // it is ~0.7.
    let report = multi_site_inventory(
        &RollCall,
        &deployment,
        &positions,
        1.0,
        &SimConfig::default(),
    )
    .unwrap();
    assert_eq!(report.unique_tags, 1);
    assert_eq!(report.uncovered, 0);
}

// ---------------------------------------------------------------------------
// Observability: slice boundaries reach the sinks and replay.
// ---------------------------------------------------------------------------

#[test]
fn schedule_events_reach_sinks_and_replay() {
    let deployment = small_deployment(21, 200, 60.0, 40.0);
    let positions = deployment.grid_positions(20.0);
    let config = SimConfig::default().with_seed(13);
    let (range, radius) = (14.0, 25.0);

    let unobserved =
        multi_site_inventory_scheduled(&RollCall, &deployment, &positions, range, radius, &config)
            .unwrap();

    let mut metrics_sink = MetricsSink::new();
    let observed = multi_site_inventory_sharded_observed(
        &RollCall,
        &deployment,
        &positions,
        range,
        radius,
        &config,
        1,
        &mut metrics_sink,
    )
    .unwrap();
    assert_eq!(observed, unobserved, "sinks must not perturb the sweep");

    let metrics = metrics_sink.into_metrics();
    assert_eq!(metrics.schedule_slices as usize, observed.slices.len());
    assert_eq!(metrics.scheduled_sites as usize, positions.len());
    assert_eq!(metrics.sites_completed as usize, positions.len());
    assert_eq!(
        metrics.max_concurrent_sites as usize,
        observed.slices.iter().map(|s| s.sites).max().unwrap()
    );

    let mut jsonl = JsonlSink::new(Vec::new());
    let traced = multi_site_inventory_sharded_observed(
        &RollCall,
        &deployment,
        &positions,
        range,
        radius,
        &config,
        1,
        &mut jsonl,
    )
    .unwrap();
    assert_eq!(traced, unobserved);
    let bytes = jsonl.finish().expect("in-memory trace");
    let summary = replay::summarize(std::io::BufReader::new(bytes.as_slice())).expect("replay");
    assert_eq!(summary.schedule_slices as usize, traced.slices.len());
    assert_eq!(summary.scheduled_sites as usize, positions.len());
    assert_eq!(summary.sites_completed as usize, positions.len());
    assert!((summary.schedule_wall_us - traced.total_elapsed_us).abs() < 1e-6);
    assert!((summary.schedule_serial_us - traced.serial_elapsed_us()).abs() < 1e-6);
}
