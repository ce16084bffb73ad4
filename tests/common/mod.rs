//! Shared oracle for the multisite suites: a scheduled sweep checked
//! against the serial loop it must reproduce.

use anc_rfid::sim::MultiSiteReport;

/// Worker counts every scheduled-sweep parity check runs at.
pub const WORKERS: [usize; 4] = [1, 2, 3, 8];

/// Asserts that `report`, a scheduled sweep, agrees with `serial`, the
/// serial loop [`anc_rfid::sim::multi_site_inventory`] over the same
/// inputs: identical per-site reports and dedup roll-up, and a wall-clock
/// roll-up equal, bit for bit, to one recomputed here — per slice of
/// `report.schedule`, the max and the sum of the sites' air times, the
/// maxima summed in slice order.
pub fn assert_matches_serial_reference(report: &MultiSiteReport, serial: &MultiSiteReport) {
    assert_eq!(report.per_site, serial.per_site);
    assert_eq!(report.unique_tags, serial.unique_tags);
    assert_eq!(report.cross_site_duplicates, serial.cross_site_duplicates);
    assert_eq!(report.uncovered, serial.uncovered);

    assert_eq!(report.slices.len(), report.schedule.len());
    let mut total = 0.0f64;
    for (slice, timing) in report.schedule.iter().zip(&report.slices) {
        let mut wall = 0.0f64;
        let mut summed = 0.0f64;
        for &site in slice {
            let elapsed = serial.per_site[site].elapsed_us;
            wall = wall.max(elapsed);
            summed += elapsed;
        }
        total += wall;
        assert_eq!(timing.sites, slice.len());
        assert_eq!(timing.wall_elapsed_us.to_bits(), wall.to_bits());
        assert_eq!(timing.serial_elapsed_us.to_bits(), summed.to_bits());
    }
    assert_eq!(report.total_elapsed_us.to_bits(), total.to_bits());
}
