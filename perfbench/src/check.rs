//! Correctness of every operation: completeness invariants, digests of the
//! simulated statistics, and the committed digests of the default seed.
//!
//! Simulated statistics (identified, slot classes, air time, throughput)
//! are outputs to verify, never performance: a report whose digest differs
//! from its reference is a failed operation.

use rfid_sim::{InventoryReport, MonitorReport, MultiSiteReport};
use rfid_types::hash::splitmix64;
use rfid_types::TagId;

/// The seed whose reference digests are committed in `golden/digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

const GOLDEN: &str = include_str!("../golden/digests.txt");

/// An order-sensitive 64-bit fold.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0x5EED_D16E_5700_0001)
    }

    pub fn word(mut self, x: u64) -> Self {
        self.0 = splitmix64(self.0 ^ x);
        self
    }

    pub fn float(self, x: f64) -> Self {
        self.word(x.to_bits())
    }

    pub fn bytes(self, s: &str) -> Self {
        s.bytes()
            .fold(self.word(s.len() as u64), |d, b| d.word(u64::from(b)))
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of everything a report says about the simulated run, the
/// identified set included (sorted, so set order does not matter).
pub fn report_digest(report: &InventoryReport) -> u64 {
    let mut ids: Vec<u128> = report.ids.iter().map(|t| t.raw_bits()).collect();
    ids.sort_unstable();
    let d = Digest::new()
        .bytes(&report.protocol)
        .word(report.population_initial as u64)
        .word(report.identified as u64)
        .word(report.slots.empty)
        .word(report.slots.singleton)
        .word(report.slots.collision)
        .word(report.resolved_from_collisions)
        .word(report.duplicates_discarded)
        .word(report.requery_slots)
        .float(report.elapsed_us)
        .float(report.throughput_tags_per_sec);
    ids.iter()
        .fold(d, |d, &id| d.word(id as u64).word((id >> 64) as u64))
        .finish()
}

/// Digest of a multi-site sweep: every site's report and the roll-up.
pub fn sweep_digest(report: &MultiSiteReport) -> u64 {
    report
        .per_site
        .iter()
        .fold(Digest::new(), |d, site| d.word(report_digest(site)))
        .word(report.unique_tags as u64)
        .word(report.cross_site_duplicates as u64)
        .word(report.uncovered as u64)
        .float(report.total_elapsed_us)
        .finish()
}

/// Digest of a monitoring window: every round's report and the detections.
pub fn monitor_digest(report: &MonitorReport) -> u64 {
    let d = report
        .per_round
        .iter()
        .fold(Digest::new(), |d, round| d.word(report_digest(round)));
    report
        .detections
        .iter()
        .fold(d, |d, det| {
            d.word(det.tag.raw_bits() as u64)
                .word(det.detected_round as u64)
                .float(det.latency_us)
        })
        .word(report.unique as u64)
        .word(report.unique_present_at_end as u64)
        .float(report.elapsed_us)
        .finish()
}

/// The completeness contract of a clean-channel inventory: every tag of
/// the population identified exactly once, and every identification
/// accounted for by a singleton slot or a resolved collision record.
pub fn check_inventory(report: &InventoryReport, tags: &[TagId]) -> Result<(), String> {
    let fail = |what: String| Err(format!("{}: {what}", report.protocol));
    if report.identified != tags.len() {
        return fail(format!(
            "identified {} of {}",
            report.identified,
            tags.len()
        ));
    }
    if report.ids.len() != report.identified || report.duplicates_discarded != 0 {
        return fail(format!(
            "{} distinct ids for {} identified, {} duplicates",
            report.ids.len(),
            report.identified,
            report.duplicates_discarded
        ));
    }
    if let Some(missing) = tags.iter().find(|t| !report.ids.contains(t)) {
        return fail(format!("tag {missing} never identified"));
    }
    let accounted = report.slots.singleton + report.resolved_from_collisions;
    if accounted != report.identified as u64 {
        return fail(format!(
            "singleton {} + resolved {} != identified {}",
            report.slots.singleton, report.resolved_from_collisions, report.identified
        ));
    }
    if report.slots.total() == 0 || report.elapsed_us.is_nan() || report.elapsed_us <= 0.0 {
        return fail("no slots or no air time".to_owned());
    }
    Ok(())
}

/// The committed digest of operation `key` of `workload` at
/// [`DEFAULT_SEED`], if one is committed.
fn golden(workload: &str, key: &str) -> Option<u64> {
    GOLDEN.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        (fields.next() == Some(workload) && fields.next() == Some(key))
            .then(|| {
                fields
                    .next()
                    .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            })
            .flatten()
    })
}

/// The digest operation `key` of `workload` must produce: at
/// [`DEFAULT_SEED`] the committed one (an operation with no committed
/// digest can never match), at other seeds the `reference` computed during
/// set-up.
pub fn expected_digest(workload: &str, seed: u64, key: &str, reference: u64) -> u64 {
    if seed == DEFAULT_SEED {
        golden(workload, key).unwrap_or(!reference)
    } else {
        reference
    }
}

/// The digest lines of one workload, in the committed file's format.
pub fn golden_lines(workload: &str, digests: &[(String, u64)]) -> String {
    digests
        .iter()
        .map(|(key, digest)| format!("{workload} {key} {digest:016x}\n"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_anc::{Fcat, FcatConfig};
    use rfid_sim::{run_inventory, seeded_rng, SimConfig};
    use rfid_types::population;

    fn inventory() -> (Vec<TagId>, InventoryReport) {
        let tags = population::uniform(&mut seeded_rng(3), 200);
        let report = run_inventory(
            &Fcat::new(FcatConfig::default()),
            &tags,
            &SimConfig::default().with_seed(4),
        )
        .expect("clean inventory completes");
        (tags, report)
    }

    #[test]
    fn complete_report_passes_and_perturbed_reports_fail() {
        let (tags, report) = inventory();
        assert_eq!(check_inventory(&report, &tags), Ok(()));
        let digest = report_digest(&report);
        assert_eq!(digest, report_digest(&report.clone()));

        let mut lost = report.clone();
        let tag = *lost.ids.iter().next().unwrap();
        lost.ids.remove(&tag);
        lost.identified -= 1;
        assert!(check_inventory(&lost, &tags).is_err());

        let mut slots = report.clone();
        slots.slots.singleton += 1;
        assert!(check_inventory(&slots, &tags).is_err());
        assert_ne!(report_digest(&slots), digest);

        let mut airtime = report.clone();
        airtime.elapsed_us += 1e-6;
        assert_eq!(check_inventory(&airtime, &tags), Ok(()));
        assert_ne!(report_digest(&airtime), digest, "digest sees air time");
    }

    #[test]
    fn committed_digests_are_expected_only_at_the_default_seed() {
        let (workload, key) = ("inventory-hash", "pop0/fcat2");
        let committed = golden(workload, key).expect("committed digest");
        assert_eq!(expected_digest(workload, DEFAULT_SEED, key, 7), committed);
        assert_eq!(expected_digest(workload, DEFAULT_SEED + 1, key, 7), 7);
        assert_ne!(expected_digest(workload, DEFAULT_SEED, "no-such-op", 7), 7);
    }

    #[test]
    fn golden_lines_round_trip() {
        let lines = golden_lines("w", &[("a".into(), 0xabc), ("b".into(), 7)]);
        assert_eq!(lines, "w a 0000000000000abc\nw b 0000000000000007\n");
    }
}
