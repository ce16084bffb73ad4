//! Multi-location reading (§II-A) and concurrent multi-reader scheduling.
//!
//! > "If the communication range cannot cover the whole deployment region,
//! > the reader may have to perform the reading process at several
//! > locations and remove the duplicate IDs when some tags are covered by
//! > multiple readings."
//!
//! This module models that workflow: tags placed on a plane, reading
//! positions covering the region, an inventory round executed at each
//! position over the tags in range, and the union taken with duplicates
//! removed. [`multi_site_inventory`] is that plain serial loop. Beyond
//! the paper's serial sweep the module also models *concurrent*
//! multi-reader operation: an [`InterferenceGraph`] captures which
//! positions cannot read simultaneously (overlapping coverage disks, or
//! reader-to-reader interference within a configurable radius), and a
//! greedy graph coloring partitions the positions into conflict-free time
//! slices ([`Schedule`]) whose wall-clock cost is the *maximum* site air
//! time instead of the sum.
//!
//! Scheduled sweeps have one implementation, the sharded core in
//! [`crate::shard`]; [`crate::multi_site_inventory_scheduled`] is that
//! core on one worker. Every site's inventory runs on the same per-site
//! derived RNG stream (`run_site`) whichever path executes it, so each
//! per-site report is bit-identical between the serial loop and the
//! scheduled sweep; only the wall-clock roll-up differs. The serial loop
//! is the reference the `tests/multisite_schedule.rs` and
//! `tests/multisite_shard.rs` oracle suites hold the core to.

use crate::{run_inventory, AntiCollisionProtocol, InventoryReport, SimConfig, SimError};
use rand::Rng;
use rfid_types::{TagId, TagSet};

/// A tag placed at a 2-D position (meters).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PlacedTag {
    /// The tag.
    pub id: TagId,
    /// X coordinate in meters.
    pub x: f64,
    /// Y coordinate in meters.
    pub y: f64,
}

/// A deployment region with placed tags.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Deployment {
    /// Region width in meters.
    pub width: f64,
    /// Region height in meters.
    pub height: f64,
    /// The placed tags.
    pub tags: Vec<PlacedTag>,
}

impl Deployment {
    /// Places `n` uniformly random tags in a `width × height` region.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is not strictly positive and finite.
    #[must_use]
    pub fn uniform<R: Rng + ?Sized>(rng: &mut R, n: usize, width: f64, height: f64) -> Self {
        assert!(width > 0.0 && width.is_finite(), "width must be positive");
        assert!(
            height > 0.0 && height.is_finite(),
            "height must be positive"
        );
        let ids = rfid_types::population::uniform(rng, n);
        let tags = ids
            .into_iter()
            .map(|id| PlacedTag {
                id,
                x: rng.gen_range(0.0..width),
                y: rng.gen_range(0.0..height),
            })
            .collect();
        Deployment {
            width,
            height,
            tags,
        }
    }

    /// The tags within `range` meters of `(x, y)` — one reading location's
    /// coverage. The boundary is inclusive: a tag at distance exactly
    /// `range` is read.
    #[must_use]
    pub fn in_range(&self, x: f64, y: f64, range: f64) -> Vec<TagId> {
        self.tags
            .iter()
            .filter(|t| {
                let dx = t.x - x;
                let dy = t.y - y;
                dx * dx + dy * dy <= range * range
            })
            .map(|t| t.id)
            .collect()
    }

    /// A grid of reading positions with the given spacing, covering the
    /// region (positions at cell centers, capped to the region rectangle).
    ///
    /// Only the last row/column's centers can overshoot the region; those
    /// are clamped to the boundary, so every returned position lies inside
    /// `[0, width] × [0, height]` — in particular a `spacing` larger than
    /// the region yields its single position *inside* the rectangle, not
    /// half a cell outside it. A point of the region is never farther than
    /// `spacing/2` per axis (`spacing/√2` total) from its nearest
    /// position, so `spacing ≤ range·√2` guarantees full coverage.
    ///
    /// # Panics
    ///
    /// Panics on the errors [`Deployment::try_grid_positions`] reports —
    /// use that method when `spacing` comes from external input.
    #[must_use]
    pub fn grid_positions(&self, spacing: f64) -> Vec<(f64, f64)> {
        match self.try_grid_positions(spacing) {
            Ok(positions) => positions,
            Err(error) => panic!("{error}"),
        }
    }

    /// [`Deployment::grid_positions`] with fallible validation, for
    /// spacings arriving from external input (a `repro serve` request).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] when `spacing` is not
    /// strictly positive and finite, or when it is so small relative to
    /// the region that the grid would exceed
    /// [`Deployment::MAX_GRID_POSITIONS`] sites — the old unchecked
    /// arithmetic turned a denormal spacing into an OOM-sized allocation.
    pub fn try_grid_positions(&self, spacing: f64) -> Result<Vec<(f64, f64)>, SimError> {
        if !(spacing > 0.0 && spacing.is_finite()) {
            return Err(SimError::InvalidParameter {
                message: format!("spacing must be positive and finite, got {spacing}"),
            });
        }
        let cols = (self.width / spacing).ceil().max(1.0);
        let rows = (self.height / spacing).ceil().max(1.0);
        // Bound *before* converting to usize: `cols * rows` can overflow
        // through `as usize` saturation long before the multiply.
        if cols * rows > Self::MAX_GRID_POSITIONS as f64 {
            return Err(SimError::InvalidParameter {
                message: format!(
                    "spacing {spacing} over a {} x {} region yields {cols} x {rows} grid \
                     positions (max {})",
                    self.width,
                    self.height,
                    Self::MAX_GRID_POSITIONS
                ),
            });
        }
        let cols = cols as usize;
        let rows = rows as usize;
        let mut positions = Vec::with_capacity(cols * rows);
        for row in 0..rows {
            for col in 0..cols {
                let x = ((col as f64 + 0.5) * spacing).min(self.width);
                let y = ((row as f64 + 0.5) * spacing).min(self.height);
                positions.push((x, y));
            }
        }
        Ok(positions)
    }
}

impl Deployment {
    /// Upper bound on the number of reading positions
    /// [`Deployment::try_grid_positions`] will generate (2²² ≈ 4.2 M
    /// sites, far beyond any realistic fleet but well short of an
    /// OOM-sized allocation).
    pub const MAX_GRID_POSITIONS: usize = 1 << 22;
}

/// Which reading positions cannot run their inventories simultaneously.
///
/// Site `a` conflicts with site `b` when either
///
/// * their coverage disks overlap — separation strictly below `2·range`,
///   so two readers could contend for the same tag (tangent disks, at
///   separation exactly `2·range`, do *not* conflict); or
/// * reader-to-reader interference reaches: separation at most
///   `interference_radius` (inclusive, so co-located readers conflict
///   even at radius 0).
///
/// The graph is symmetric and irreflexive; neighbor lists are kept in
/// ascending site order, so everything derived from it is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct InterferenceGraph {
    neighbors: Vec<Vec<usize>>,
    edges: usize,
}

impl InterferenceGraph {
    /// Builds the conflict graph over `positions` for readers of the given
    /// coverage `range` and reader-to-reader `interference_radius` (both
    /// meters).
    ///
    /// # Panics
    ///
    /// Panics if `range` or `interference_radius` is negative or not
    /// finite.
    #[must_use]
    pub fn build(positions: &[(f64, f64)], range: f64, interference_radius: f64) -> Self {
        assert!(
            range >= 0.0 && range.is_finite(),
            "range must be non-negative"
        );
        assert!(
            interference_radius >= 0.0 && interference_radius.is_finite(),
            "interference radius must be non-negative"
        );
        let n = positions.len();
        let mut neighbors = vec![Vec::new(); n];
        let mut edges = 0;
        for a in 0..n {
            for b in (a + 1)..n {
                if Self::positions_conflict(positions[a], positions[b], range, interference_radius)
                {
                    neighbors[a].push(b);
                    neighbors[b].push(a);
                    edges += 1;
                }
            }
        }
        InterferenceGraph { neighbors, edges }
    }

    /// The conflict predicate, on raw coordinates.
    #[must_use]
    pub fn positions_conflict(
        a: (f64, f64),
        b: (f64, f64),
        range: f64,
        interference_radius: f64,
    ) -> bool {
        let dx = a.0 - b.0;
        let dy = a.1 - b.1;
        let d2 = dx * dx + dy * dy;
        let coverage = 2.0 * range;
        d2 < coverage * coverage || d2 <= interference_radius * interference_radius
    }

    /// Number of sites.
    #[must_use]
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// Whether the graph has no sites.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }

    /// Number of conflict edges.
    #[must_use]
    pub fn edges(&self) -> usize {
        self.edges
    }

    /// Whether sites `a` and `b` conflict.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn conflicts(&self, a: usize, b: usize) -> bool {
        assert!(a < self.len() && b < self.len(), "site index out of range");
        self.neighbors[a].binary_search(&b).is_ok()
    }

    /// Conflict neighbors of `site`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    #[must_use]
    pub fn neighbors(&self, site: usize) -> &[usize] {
        &self.neighbors[site]
    }

    /// Degree of the busiest site (0 for an empty graph).
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.neighbors.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// A partition of reading positions into conflict-free time slices.
///
/// Produced by [`Schedule::greedy`]; slice `k` holds the (ascending) site
/// indices that read concurrently during time slice `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Site indices per time slice; each slice is an independent set of
    /// the interference graph it was built from, and every site appears in
    /// exactly one slice.
    pub slices: Vec<Vec<usize>>,
}

impl Schedule {
    /// Colors the interference graph greedily: sites are visited in index
    /// order and each takes the lowest-numbered slice none of its
    /// already-placed conflict neighbors occupies.
    ///
    /// The classic greedy bound applies: at most `max_degree + 1` slices.
    /// The traversal order is fixed, so the same graph always yields the
    /// same schedule.
    #[must_use]
    pub fn greedy(graph: &InterferenceGraph) -> Self {
        let n = graph.len();
        let mut color = vec![usize::MAX; n];
        let mut slices: Vec<Vec<usize>> = Vec::new();
        let mut used = Vec::new();
        for site in 0..n {
            used.clear();
            used.resize(slices.len(), false);
            for &neighbor in graph.neighbors(site) {
                if color[neighbor] != usize::MAX {
                    used[color[neighbor]] = true;
                }
            }
            let slice = used.iter().position(|&taken| !taken).unwrap_or_else(|| {
                slices.push(Vec::new());
                slices.len() - 1
            });
            color[site] = slice;
            slices[slice].push(site);
        }
        Schedule { slices }
    }

    /// Number of time slices.
    #[must_use]
    pub fn num_slices(&self) -> usize {
        self.slices.len()
    }

    /// Total sites across all slices.
    #[must_use]
    pub fn num_sites(&self) -> usize {
        self.slices.iter().map(Vec::len).sum()
    }

    /// Checks the schedule against a graph: every slice an independent
    /// set, every one of the graph's sites scheduled exactly once.
    #[must_use]
    pub fn is_valid_for(&self, graph: &InterferenceGraph) -> bool {
        let mut seen = vec![false; graph.len()];
        for slice in &self.slices {
            for (i, &a) in slice.iter().enumerate() {
                if a >= graph.len() || std::mem::replace(&mut seen[a], true) {
                    return false;
                }
                if slice[i + 1..].iter().any(|&b| graph.conflicts(a, b)) {
                    return false;
                }
            }
        }
        seen.into_iter().all(|s| s)
    }
}

/// Wall-clock accounting for one conflict-free time slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceTiming {
    /// Sites that read concurrently in this slice.
    pub sites: usize,
    /// Wall-clock air time of the slice, µs — the slowest site.
    pub wall_elapsed_us: f64,
    /// Summed air time of the slice's sites, µs — what a serial visit
    /// would have paid.
    pub serial_elapsed_us: f64,
}

/// Result of a multi-location inventory sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSiteReport {
    /// Per-stop inventory reports, in site-index order.
    pub per_site: Vec<InventoryReport>,
    /// Distinct tags collected over the whole sweep.
    pub unique_tags: usize,
    /// Readings of tags already collected at an earlier (lower-index) site
    /// (the overlap overhead §II-A mentions).
    pub cross_site_duplicates: usize,
    /// Tags in the deployment never covered by any stop.
    pub uncovered: usize,
    /// Wall-clock air time of the sweep, µs (travel time not modelled).
    /// Serial sweeps pay every site in sequence; scheduled sweeps pay the
    /// slowest site of each time slice.
    pub total_elapsed_us: f64,
    /// Per-slice wall-clock accounting. Empty for serial sweeps.
    pub slices: Vec<SliceTiming>,
    /// The conflict-free partition the sweep ran under: site indices per
    /// time slice. Empty for serial sweeps.
    pub schedule: Vec<Vec<usize>>,
}

impl MultiSiteReport {
    /// Aggregate reading throughput over the sweep (unique tags per
    /// second of wall-clock air time).
    #[must_use]
    pub fn effective_throughput(&self) -> f64 {
        if self.total_elapsed_us <= 0.0 {
            return 0.0;
        }
        self.unique_tags as f64 / (self.total_elapsed_us / 1e6)
    }

    /// Summed per-site air time, µs — the cost of visiting every site
    /// serially. Equals [`MultiSiteReport::total_elapsed_us`] for serial
    /// sweeps.
    #[must_use]
    pub fn serial_elapsed_us(&self) -> f64 {
        self.per_site.iter().map(|r| r.elapsed_us).sum()
    }

    /// How much faster this sweep ran than a strictly serial visit of the
    /// same sites: `serial_elapsed_us / total_elapsed_us`. Exactly 1.0 for
    /// serial sweeps (and for sweeps with no air time at all); ≥ 1.0 for
    /// scheduled sweeps, growing with the concurrency the interference
    /// graph admits.
    #[must_use]
    pub fn speedup_vs_serial(&self) -> f64 {
        if self.total_elapsed_us <= 0.0 {
            return 1.0;
        }
        self.serial_elapsed_us() / self.total_elapsed_us
    }
}

/// Runs one inventory round at every position, serially, and merges the
/// results — the paper's §II-A model, and the reference every scheduled
/// sweep is tested against.
///
/// Each stop reads the tags in range — including tags already read at a
/// previous stop, which re-participate (a tag has no memory across
/// rounds) and are discarded as duplicates by the back office. The sweep
/// pays every site's air time in sequence; the report's `slices` and
/// `schedule` stay empty.
///
/// # Errors
///
/// Propagates the first [`SimError`] any stop produces.
pub fn multi_site_inventory<P: AntiCollisionProtocol + ?Sized>(
    protocol: &P,
    deployment: &Deployment,
    positions: &[(f64, f64)],
    range: f64,
    config: &SimConfig,
) -> Result<MultiSiteReport, SimError> {
    let reports = (0..positions.len())
        .map(|site| run_site(protocol, deployment, positions, range, config, site))
        .collect::<Result<Vec<_>, _>>()?;
    let total_elapsed_us = reports.iter().fold(0.0, |total, r| total + r.elapsed_us);
    let merged = merge_site_reports(deployment, reports);
    Ok(MultiSiteReport {
        per_site: merged.per_site,
        unique_tags: merged.unique_tags,
        cross_site_duplicates: merged.cross_site_duplicates,
        uncovered: merged.uncovered,
        total_elapsed_us,
        slices: Vec::new(),
        schedule: Vec::new(),
    })
}

/// Runs the inventory of one site exactly as every sweep entry point
/// must: the tags in range of the site's position, under a config whose
/// seed is derived from the site *index*. The derivation depends only on
/// `(config.seed(), site)`, so per-site reports are independent of which
/// path (the serial loop or the sharded core) or worker executes them.
pub(crate) fn run_site<P: AntiCollisionProtocol + ?Sized>(
    protocol: &P,
    deployment: &Deployment,
    positions: &[(f64, f64)],
    range: f64,
    config: &SimConfig,
    site: usize,
) -> Result<InventoryReport, SimError> {
    let (x, y) = positions[site];
    let in_range = deployment.in_range(x, y, range);
    let site_config = config
        .clone()
        .with_seed(crate::derive_seed(config.seed(), site as u64));
    run_inventory(protocol, &in_range, &site_config)
}

/// The site-order merge shared by the serial loop and the sharded core.
pub(crate) struct MergedSites {
    pub per_site: Vec<InventoryReport>,
    pub unique_tags: usize,
    pub cross_site_duplicates: usize,
    pub uncovered: usize,
}

/// Merges per-site reports in site-index order, whatever order the sites
/// ran in: the duplicates accounting (first reader keeps the tag) then
/// matches the serial sweep exactly.
pub(crate) fn merge_site_reports(
    deployment: &Deployment,
    reports: Vec<InventoryReport>,
) -> MergedSites {
    let mut seen = TagSet::default();
    let mut per_site = Vec::with_capacity(reports.len());
    let mut cross_site_duplicates = 0usize;
    for report in reports {
        // Credit what the protocol actually identified (== in_range on a
        // clean channel, but the distinction matters under error models).
        for tag in &report.ids {
            if !seen.insert(*tag) {
                cross_site_duplicates += 1;
            }
        }
        per_site.push(report.without_ids());
    }
    let uncovered = deployment
        .tags
        .iter()
        .filter(|t| !seen.contains(&t.id))
        .count();
    MergedSites {
        per_site,
        unique_tags: seen.len(),
        cross_site_duplicates,
        uncovered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{multi_site_inventory_scheduled, seeded_rng, InventoryReport, SimConfig};
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
    fn uniform_deployment_within_bounds() {
        let d = Deployment::uniform(&mut seeded_rng(1), 500, 100.0, 50.0);
        assert_eq!(d.tags.len(), 500);
        assert!(d
            .tags
            .iter()
            .all(|t| (0.0..100.0).contains(&t.x) && (0.0..50.0).contains(&t.y)));
    }

    #[test]
    fn in_range_geometry() {
        let d = Deployment {
            width: 10.0,
            height: 10.0,
            tags: vec![
                PlacedTag {
                    id: TagId::from_payload(1),
                    x: 0.0,
                    y: 0.0,
                },
                PlacedTag {
                    id: TagId::from_payload(2),
                    x: 3.0,
                    y: 4.0,
                },
                PlacedTag {
                    id: TagId::from_payload(3),
                    x: 9.0,
                    y: 9.0,
                },
            ],
        };
        let hits = d.in_range(0.0, 0.0, 5.0);
        assert_eq!(hits.len(), 2); // (0,0) and (3,4) at distance exactly 5
        assert!(d.in_range(0.0, 0.0, 1.0).len() == 1);
    }

    #[test]
    fn grid_positions_cover_region() {
        let d = Deployment::uniform(&mut seeded_rng(2), 10, 100.0, 60.0);
        let positions = d.grid_positions(40.0);
        assert_eq!(positions.len(), 3 * 2);
        // Cell centers are capped to the region rectangle.
        assert!(positions
            .iter()
            .all(|&(x, y)| (0.0..=100.0).contains(&x) && (0.0..=60.0).contains(&y)));
    }

    #[test]
    fn grid_positions_capped_when_spacing_exceeds_region() {
        // Regression: spacing 25 over a 10×8 region used to put the single
        // cell center at (12.5, 12.5) — outside the deployment rectangle.
        let d = Deployment {
            width: 10.0,
            height: 8.0,
            tags: Vec::new(),
        };
        let positions = d.grid_positions(25.0);
        assert_eq!(positions, vec![(10.0, 8.0)]);
    }

    #[test]
    fn try_grid_positions_rejects_external_input_hazards() {
        let d = Deployment {
            width: 100.0,
            height: 60.0,
            tags: Vec::new(),
        };
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = d.try_grid_positions(bad).unwrap_err();
            assert!(err.to_string().contains("spacing"), "{err}");
        }
        // Regression: a denormal-tiny spacing passed the old positivity
        // assert and then sized the grid at (width/spacing).ceil() cells
        // per axis — an OOM-scale allocation. Now it is a structured
        // error.
        let err = d.try_grid_positions(1e-300).unwrap_err();
        assert!(err.to_string().contains("grid positions"), "{err}");
        assert_eq!(d.try_grid_positions(40.0).unwrap().len(), 6);
    }

    #[test]
    #[should_panic(expected = "spacing must be positive")]
    fn grid_positions_still_panics_for_programmatic_misuse() {
        let d = Deployment {
            width: 10.0,
            height: 10.0,
            tags: Vec::new(),
        };
        let _ = d.grid_positions(f64::NAN);
    }

    #[test]
    fn full_coverage_reads_everything_once_per_overlap() {
        let mut rng = seeded_rng(3);
        let d = Deployment::uniform(&mut rng, 400, 60.0, 60.0);
        // Grid spacing 30 with range 30: full coverage with overlaps.
        let positions = d.grid_positions(30.0);
        let report = multi_site_inventory(
            &RollCall,
            &d,
            &positions,
            30.0,
            &SimConfig::default().with_seed(4),
        )
        .unwrap();
        assert_eq!(report.unique_tags, 400);
        assert_eq!(report.uncovered, 0);
        assert!(report.cross_site_duplicates > 0, "overlaps expected");
        assert!(report.effective_throughput() > 0.0);
        // The serial path reports no schedule and a degenerate speedup.
        assert!(report.schedule.is_empty());
        assert!(report.slices.is_empty());
        assert!((report.speedup_vs_serial() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_positions_leave_gaps() {
        let mut rng = seeded_rng(5);
        let d = Deployment::uniform(&mut rng, 400, 100.0, 100.0);
        let report =
            multi_site_inventory(&RollCall, &d, &[(10.0, 10.0)], 15.0, &SimConfig::default())
                .unwrap();
        assert!(report.uncovered > 0);
        assert_eq!(report.unique_tags + report.uncovered, 400);
    }

    #[test]
    fn no_positions_reads_nothing() {
        let d = Deployment::uniform(&mut seeded_rng(6), 10, 10.0, 10.0);
        let report = multi_site_inventory(&RollCall, &d, &[], 5.0, &SimConfig::default()).unwrap();
        assert_eq!(report.unique_tags, 0);
        assert_eq!(report.uncovered, 10);
        assert_eq!(report.effective_throughput(), 0.0);
        assert_eq!(report.speedup_vs_serial(), 1.0);
    }

    #[test]
    fn interference_graph_boundaries() {
        // Tangent coverage disks (separation exactly 2·range) do not
        // conflict; separation exactly the interference radius does.
        let positions = [(0.0, 0.0), (10.0, 0.0)];
        let tangent = InterferenceGraph::build(&positions, 5.0, 0.0);
        assert!(!tangent.conflicts(0, 1));
        assert_eq!(tangent.edges(), 0);
        let overlapping = InterferenceGraph::build(&positions, 5.001, 0.0);
        assert!(overlapping.conflicts(0, 1));
        let interfering = InterferenceGraph::build(&positions, 1.0, 10.0);
        assert!(interfering.conflicts(0, 1));
        assert_eq!(interfering.max_degree(), 1);
        // Co-located readers conflict even at radius 0 and range 0.
        let colocated = InterferenceGraph::build(&[(3.0, 3.0), (3.0, 3.0)], 0.0, 0.0);
        assert!(colocated.conflicts(0, 1));
    }

    #[test]
    fn greedy_schedule_on_a_path_graph_two_colors() {
        // Four sites in a line, each conflicting only with its neighbors:
        // the greedy coloring alternates, giving two slices.
        let positions = [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0)];
        let graph = InterferenceGraph::build(&positions, 1.0, 10.0);
        let schedule = Schedule::greedy(&graph);
        assert_eq!(schedule.slices, vec![vec![0, 2], vec![1, 3]]);
        assert!(schedule.is_valid_for(&graph));
        assert!(schedule.num_slices() <= graph.max_degree() + 1);
    }

    #[test]
    fn scheduled_sweep_matches_serial_and_runs_faster() {
        let mut rng = seeded_rng(8);
        let d = Deployment::uniform(&mut rng, 300, 60.0, 60.0);
        let positions = d.grid_positions(20.0);
        let config = SimConfig::default().with_seed(11);
        let serial = multi_site_inventory(&RollCall, &d, &positions, 9.0, &config).unwrap();
        let scheduled =
            multi_site_inventory_scheduled(&RollCall, &d, &positions, 9.0, 0.0, &config).unwrap();
        assert_eq!(scheduled.per_site, serial.per_site);
        assert_eq!(scheduled.unique_tags, serial.unique_tags);
        assert_eq!(
            scheduled.cross_site_duplicates,
            serial.cross_site_duplicates
        );
        assert_eq!(scheduled.uncovered, serial.uncovered);
        assert_eq!(scheduled.schedule.len(), scheduled.slices.len());
        // 2·range = 18 < 20 = spacing: no conflicts, one big slice.
        assert_eq!(scheduled.slices.len(), 1);
        assert!(scheduled.total_elapsed_us < serial.total_elapsed_us);
        assert!(scheduled.speedup_vs_serial() > 1.0);
        assert!(
            (scheduled.serial_elapsed_us() - serial.total_elapsed_us).abs() < 1e-9,
            "serial cost is schedule-invariant"
        );
    }
}
