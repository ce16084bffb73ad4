//! The scheduled multi-site sweep: real threads, work stealing, identical
//! reports.
//!
//! This module is the one implementation of a scheduled sweep. It colors
//! the [`InterferenceGraph`] over the reading positions into a greedy
//! [`Schedule`], runs the sites on `workers` OS threads with site-level
//! work stealing, and rolls the per-site air times up into the slice
//! wall-clock accounting. [`multi_site_inventory_scheduled`] is the same
//! sweep on one worker — the model for studying the schedule itself —
//! while a fleet-scale inventory service (`repro serve`) spreads the same
//! work over a pool: thousands of sites, millions of tags, many requests
//! in flight.
//!
//! Each worker starts on its own "home" time slice, and once that slice
//! has no unstarted sites left it steals sites from the busiest remaining
//! slices ([`SliceQueue`]). Stealing is safe because a site's RNG stream
//! is derived from `(config.seed(), site_index)` alone (see
//! `multisite::run_site`) — *which* worker executes a site, and in what
//! order, cannot change its report. The determinism contract is therefore
//! strict and tested: every field of the returned [`MultiSiteReport`] is
//! bit-identical across worker counts, including the floating-point
//! wall-clock roll-up, which is computed in slice order after the join
//! rather than in completion order; and the per-site reports, unique,
//! duplicate and uncovered counts equal those of the serial loop
//! [`crate::multi_site_inventory`], the reference the tests compare
//! against.
//!
//! Observability: a [`SiteEvent`] is emitted per site as it completes
//! (live, completion order — this is what a streaming `serve` client
//! watches), and one [`ScheduleEvent`] per time slice after the join, in
//! slice order.

use crate::multisite::{merge_site_reports, run_site};
use crate::{
    AntiCollisionProtocol, Deployment, InterferenceGraph, InventoryReport, MultiSiteReport,
    Schedule, SimConfig, SimError, SliceTiming,
};
use rfid_obs::{EventSink, NoopSink, ScheduleEvent, SiteEvent};
use std::collections::VecDeque;
use std::sync::{mpsc, Mutex};

/// A work-stealing queue over the sites of a [`Schedule`].
///
/// Every site appears exactly once. Worker `w`'s home slice is `w %
/// num_slices`; [`SliceQueue::pop`] serves the home slice first and, once
/// it is drained, scans the remaining slices in cyclic order and steals
/// their unstarted sites. Busy slices thus donate work to idle workers,
/// while the common case (workers spread across slices) keeps each worker
/// on one slice's sites.
#[derive(Debug)]
pub struct SliceQueue {
    slices: Mutex<Vec<VecDeque<usize>>>,
}

impl SliceQueue {
    /// Builds the queue from a schedule; slice order and in-slice site
    /// order are preserved.
    #[must_use]
    pub fn new(schedule: &Schedule) -> Self {
        SliceQueue {
            slices: Mutex::new(
                schedule
                    .slices
                    .iter()
                    .map(|slice| slice.iter().copied().collect())
                    .collect(),
            ),
        }
    }

    /// Unstarted sites remaining across all slices.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.slices
            .lock()
            .expect("slice queue poisoned")
            .iter()
            .map(VecDeque::len)
            .sum()
    }

    /// Claims the next site for `worker`: the front of its home slice, or
    /// a site stolen from the next non-empty slice in cyclic order.
    /// Returns `(slice_index, site_index)`, or `None` when every site has
    /// been claimed.
    #[must_use]
    pub fn pop(&self, worker: usize) -> Option<(usize, usize)> {
        let mut slices = self.slices.lock().expect("slice queue poisoned");
        let n = slices.len();
        if n == 0 {
            return None;
        }
        let home = worker % n;
        (0..n).find_map(|offset| {
            let slice = (home + offset) % n;
            slices[slice].pop_front().map(|site| (slice, site))
        })
    }
}

/// Runs the sweep under a conflict-free concurrent schedule, on one
/// worker.
///
/// The interference graph over `positions` (coverage overlap below
/// `2·range`, or separation within `interference_radius` — see
/// [`InterferenceGraph`]) is greedily colored into time slices; each
/// slice's sites read concurrently, so the slice costs its *slowest* site
/// rather than the sum. Per-site RNG streams are derived from the site
/// index exactly as in [`crate::multi_site_inventory`], so every per-site
/// report — and therefore `unique_tags`, `cross_site_duplicates` and
/// `uncovered` — is bit-identical to the serial sweep; only the
/// wall-clock roll-up ([`MultiSiteReport::total_elapsed_us`],
/// [`MultiSiteReport::slices`], [`MultiSiteReport::schedule`]) differs.
///
/// This is [`multi_site_inventory_sharded`] with `workers = 1`.
///
/// # Errors
///
/// Same as [`multi_site_inventory_sharded`].
pub fn multi_site_inventory_scheduled<P: AntiCollisionProtocol + Sync + ?Sized>(
    protocol: &P,
    deployment: &Deployment,
    positions: &[(f64, f64)],
    range: f64,
    interference_radius: f64,
    config: &SimConfig,
) -> Result<MultiSiteReport, SimError> {
    multi_site_inventory_sharded(
        protocol,
        deployment,
        positions,
        range,
        interference_radius,
        config,
        1,
    )
}

/// Runs a multi-site sweep sharded over `workers` threads with site-level
/// work stealing. The returned report is bit-identical for every worker
/// count.
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] for `workers == 0` or an
/// invalid `config`; otherwise propagates the first failing site's error
/// in schedule (slice) order, whichever worker ran it.
pub fn multi_site_inventory_sharded<P: AntiCollisionProtocol + Sync + ?Sized>(
    protocol: &P,
    deployment: &Deployment,
    positions: &[(f64, f64)],
    range: f64,
    interference_radius: f64,
    config: &SimConfig,
    workers: usize,
) -> Result<MultiSiteReport, SimError> {
    multi_site_inventory_sharded_observed(
        protocol,
        deployment,
        positions,
        range,
        interference_radius,
        config,
        workers,
        &mut NoopSink,
    )
}

/// [`multi_site_inventory_sharded`] with an [`EventSink`] attached: one
/// [`SiteEvent`] per completed site (emitted live, in completion order)
/// and one [`ScheduleEvent`] per time slice (emitted after the join, in
/// slice order: slice index, concurrent site count, wall vs serial air
/// time). Sinks are observation-only, so the returned report is identical
/// to the unobserved call's.
///
/// The sink runs on the calling thread; workers hand finished reports
/// back over a channel, so `S` needs no synchronization.
///
/// # Errors
///
/// Same as [`multi_site_inventory_sharded`].
#[allow(clippy::too_many_arguments)]
pub fn multi_site_inventory_sharded_observed<P, S>(
    protocol: &P,
    deployment: &Deployment,
    positions: &[(f64, f64)],
    range: f64,
    interference_radius: f64,
    config: &SimConfig,
    workers: usize,
    sink: &mut S,
) -> Result<MultiSiteReport, SimError>
where
    P: AntiCollisionProtocol + Sync + ?Sized,
    S: EventSink,
{
    if workers == 0 {
        return Err(SimError::InvalidParameter {
            message: "workers must be positive".into(),
        });
    }
    // Reject bad configs before spawning anything: `serve` feeds this
    // function configs assembled from external input.
    config.validate()?;

    let graph = InterferenceGraph::build(positions, range, interference_radius);
    let schedule = Schedule::greedy(&graph);
    let queue = SliceQueue::new(&schedule);
    let n = positions.len();
    let workers = workers.min(n.max(1));

    let mut results: Vec<Option<Result<InventoryReport, SimError>>> =
        (0..n).map(|_| None).collect();
    let (tx, rx) = mpsc::channel::<(usize, usize, Result<InventoryReport, SimError>)>();
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let tx = tx.clone();
            let queue = &queue;
            scope.spawn(move || {
                while let Some((_, site)) = queue.pop(worker) {
                    let result = run_site(protocol, deployment, positions, range, config, site);
                    if tx.send((site, worker, result)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        // Drain live on the calling thread so the sink sees sites as they
        // finish — this is the stream a `serve` client watches.
        for (site, worker, result) in rx {
            if S::ENABLED {
                if let Ok(report) = &result {
                    sink.site(&SiteEvent {
                        site: site as u32,
                        worker: worker as u32,
                        identified: report.identified as u32,
                        slots: report.slots.total(),
                        elapsed_us: report.elapsed_us,
                    });
                }
            }
            results[site] = Some(result);
        }
    });

    // Every site ran (workers drain the queue even on errors), so error
    // selection is deterministic: the first failing site in slice order,
    // whatever the worker count.
    for slice in &schedule.slices {
        for &site in slice {
            if let Some(Err(_)) = &results[site] {
                let result = results[site].take().expect("checked above");
                return Err(result.expect_err("checked above"));
            }
        }
    }
    let reports: Vec<InventoryReport> = results
        .into_iter()
        .map(|slot| {
            slot.expect("every site is scheduled exactly once")
                .expect("errors returned above")
        })
        .collect();

    // The wall-clock roll-up runs in slice order, not completion order,
    // so the floating-point sums — and `total_elapsed_us` — are
    // bit-identical for every worker count, not merely close.
    let mut total_elapsed_us = 0.0;
    let mut slice_timings = Vec::with_capacity(schedule.slices.len());
    for (slice_index, slice) in schedule.slices.iter().enumerate() {
        let mut wall = 0.0f64;
        let mut serial = 0.0f64;
        for &site in slice {
            let elapsed = reports[site].elapsed_us;
            wall = wall.max(elapsed);
            serial += elapsed;
        }
        total_elapsed_us += wall;
        slice_timings.push(SliceTiming {
            sites: slice.len(),
            wall_elapsed_us: wall,
            serial_elapsed_us: serial,
        });
        if S::ENABLED {
            sink.schedule(&ScheduleEvent {
                slice: slice_index as u32,
                sites: slice.len() as u32,
                wall_elapsed_us: wall,
                serial_elapsed_us: serial,
            });
        }
    }

    let merged = merge_site_reports(deployment, reports);
    Ok(MultiSiteReport {
        per_site: merged.per_site,
        unique_tags: merged.unique_tags,
        cross_site_duplicates: merged.cross_site_duplicates,
        uncovered: merged.uncovered,
        total_elapsed_us,
        slices: slice_timings,
        schedule: schedule.slices,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;
    use rand::rngs::StdRng;
    use rfid_types::{SlotClass, TagId};

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
    fn slice_queue_serves_home_slice_then_steals() {
        let schedule = Schedule {
            slices: vec![vec![0, 2], vec![1, 3, 4]],
        };
        let queue = SliceQueue::new(&schedule);
        assert_eq!(queue.remaining(), 5);
        // Worker 0's home is slice 0.
        assert_eq!(queue.pop(0), Some((0, 0)));
        assert_eq!(queue.pop(0), Some((0, 2)));
        // Home drained: steal from slice 1, front first.
        assert_eq!(queue.pop(0), Some((1, 1)));
        // Worker 1's home is slice 1.
        assert_eq!(queue.pop(1), Some((1, 3)));
        assert_eq!(queue.pop(3), Some((1, 4)));
        assert_eq!(queue.pop(0), None);
        assert_eq!(queue.remaining(), 0);
    }

    #[test]
    fn sharded_report_is_bit_identical_to_scheduled() {
        let mut rng = seeded_rng(21);
        let d = Deployment::uniform(&mut rng, 300, 60.0, 60.0);
        let positions = d.grid_positions(20.0);
        let config = SimConfig::default().with_seed(5);
        let scheduled =
            multi_site_inventory_scheduled(&RollCall, &d, &positions, 9.0, 25.0, &config).unwrap();
        for workers in [1, 2, 3, 8] {
            let sharded = multi_site_inventory_sharded(
                &RollCall, &d, &positions, 9.0, 25.0, &config, workers,
            )
            .unwrap();
            assert_eq!(sharded, scheduled, "workers={workers}");
        }
    }

    #[test]
    fn sharded_rejects_zero_workers_and_bad_configs() {
        let d = Deployment::uniform(&mut seeded_rng(1), 10, 10.0, 10.0);
        let err = multi_site_inventory_sharded(
            &RollCall,
            &d,
            &[(5.0, 5.0)],
            10.0,
            0.0,
            &SimConfig::default(),
            0,
        )
        .unwrap_err();
        assert!(err.to_string().contains("workers"), "{err}");
    }

    #[test]
    fn sharded_handles_empty_position_lists() {
        let d = Deployment::uniform(&mut seeded_rng(2), 10, 10.0, 10.0);
        let report =
            multi_site_inventory_sharded(&RollCall, &d, &[], 5.0, 0.0, &SimConfig::default(), 4)
                .unwrap();
        assert_eq!(report.unique_tags, 0);
        assert_eq!(report.uncovered, 10);
    }
}
