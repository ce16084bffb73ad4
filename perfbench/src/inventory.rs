//! The closed-loop inventory workloads: back-to-back FCAT-2 and SCAT-2
//! inventories on one thread over populations generated from the seed.

use crate::check::{self, check_inventory, report_digest};
use crate::layers;
use crate::stats::{median, quantile, ratio};
use crate::timing::TimingSink;
use crate::{ms, timed_setup, Outcome};
use rfid_anc::SignalResolutionConfig;
use rfid_anc::{Fcat, FcatConfig, Membership, ResolutionModel, Scat, ScatConfig};
use rfid_obs::EventSink;
use rfid_sim::{derive_seed, run_inventory_observed, seeded_rng, InventoryReport, SimConfig};
use rfid_types::{population, TagId};
use std::time::{Duration, Instant};

/// Populations generated per run; operations cycle through them, FCAT and
/// SCAT alternating.
pub const POPULATIONS: usize = 8;

/// Receiver noise of the signal-backed workload.
pub const NOISE_STD: f64 = 0.1;

/// Budget of each layer micro-benchmark after each traced cycle.
const MICRO_SLICE: Duration = Duration::from_millis(10);

/// One inventory workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// Tags per population.
    pub tags: usize,
    /// `Membership::Hash` (per-tag hash test) instead of `Sampled`.
    pub hash: bool,
    /// `ResolutionModel::SignalBacked` instead of `Ideal`.
    pub signal: bool,
    /// Latency limit of `serve_slo_met_rate`, ms from due time.
    pub slo_ms: f64,
}

impl Spec {
    pub fn named(name: &str) -> Option<Spec> {
        match name {
            "inventory-hash" => Some(Spec {
                name: "inventory-hash",
                tags: 5_000,
                hash: true,
                signal: false,
                slo_ms: 150.0,
            }),
            "inventory-signal" => Some(Spec {
                name: "inventory-signal",
                tags: 2_000,
                hash: false,
                signal: true,
                slo_ms: 200.0,
            }),
            _ => None,
        }
    }

    fn signal_config() -> SignalResolutionConfig {
        SignalResolutionConfig::default().with_noise_std(NOISE_STD)
    }

    fn protocols(&self) -> (Fcat, Scat) {
        let membership = if self.hash {
            Membership::Hash
        } else {
            Membership::Sampled
        };
        let resolution = if self.signal {
            ResolutionModel::SignalBacked(Self::signal_config())
        } else {
            ResolutionModel::Ideal
        };
        (
            Fcat::new(
                FcatConfig::default()
                    .with_membership(membership)
                    .with_resolution(resolution.clone()),
            ),
            Scat::new(
                ScatConfig::default()
                    .with_membership(membership)
                    .with_resolution(resolution),
            ),
        )
    }
}

/// Generated inputs plus the reference digest of every operation.
struct Setup {
    populations: Vec<Vec<TagId>>,
    configs: Vec<SimConfig>,
    fcat: Fcat,
    scat: Scat,
    /// Digest per operation of one cycle (`2 * POPULATIONS` operations),
    /// as computed during set-up.
    references: Vec<u64>,
    /// The digest each operation must produce (see
    /// [`check::expected_digest`]).
    expected: Vec<u64>,
}

/// The populations and run configs of `seed`: the same seed always gives
/// the same inputs.
pub fn inputs(spec: &Spec, seed: u64) -> (Vec<Vec<TagId>>, Vec<SimConfig>) {
    let populations = (0..POPULATIONS as u64)
        .map(|i| population::uniform(&mut seeded_rng(derive_seed(seed, i)), spec.tags))
        .collect();
    let configs = (0..POPULATIONS as u64)
        .map(|i| {
            SimConfig::default()
                .with_seed(derive_seed(seed, 1_000 + i))
                .with_threads(1)
        })
        .collect();
    (populations, configs)
}

impl Setup {
    fn new(spec: &Spec, seed: u64) -> Result<Setup, String> {
        let (populations, configs) = inputs(spec, seed);
        let (fcat, scat) = spec.protocols();
        let mut setup = Setup {
            populations,
            configs,
            fcat,
            scat,
            references: Vec::new(),
            expected: Vec::new(),
        };
        for op in 0..setup.cycle() {
            let report = setup
                .run(op, &mut rfid_obs::NoopSink)
                .map_err(|e| e.to_string())?;
            check_inventory(&report, setup.tags(op))?;
            let digest = report_digest(&report);
            setup.references.push(digest);
            let expected = check::expected_digest(spec.name, seed, &Self::key(op), digest);
            setup.expected.push(expected);
        }
        Ok(setup)
    }

    fn cycle(&self) -> usize {
        2 * self.populations.len()
    }

    fn key(op: usize) -> String {
        let protocol = if op.is_multiple_of(2) {
            "fcat2"
        } else {
            "scat2"
        };
        format!("pop{}/{protocol}", op / 2)
    }

    fn tags(&self, op: usize) -> &[TagId] {
        &self.populations[(op / 2) % self.populations.len()]
    }

    fn run<S: EventSink>(
        &self,
        op: usize,
        sink: &mut S,
    ) -> Result<InventoryReport, rfid_sim::SimError> {
        let op = op % self.cycle();
        let (tags, config) = (self.tags(op), &self.configs[op / 2]);
        if op.is_multiple_of(2) {
            run_inventory_observed(&self.fcat, tags, config, sink)
        } else {
            run_inventory_observed(&self.scat, tags, config, sink)
        }
    }

    /// Checks one operation's report against the contract and its
    /// reference digest.
    fn check(&self, op: usize, report: &InventoryReport) -> Result<(), String> {
        let op = op % self.cycle();
        check_inventory(report, self.tags(op))?;
        let digest = report_digest(report);
        if digest != self.expected[op] {
            return Err(format!(
                "{}: digest {digest:016x}, expected {:016x}",
                Self::key(op),
                self.expected[op]
            ));
        }
        Ok(())
    }

    fn digests(&self) -> Vec<(String, u64)> {
        self.references
            .iter()
            .enumerate()
            .map(|(op, &d)| (Self::key(op), d))
            .collect()
    }
}

/// Reference digests of every operation of `seed`.
pub fn reference_digests(spec: &Spec, seed: u64) -> Result<Vec<(String, u64)>, String> {
    Ok(Setup::new(spec, seed)?.digests())
}

/// One operation of a closed loop, as the loop timed it.
#[derive(Debug, Clone, Copy)]
struct OpSample {
    /// Position of the operation in the cycle.
    op: usize,
    /// The inventory call, ms.
    inventory_ms: f64,
    /// Completion to completion (each operation is due when the previous
    /// one's result is back), ms.
    latency_ms: f64,
    /// Due to start: the harness checking the previous result, ms.
    lag_ms: f64,
    slots: u64,
    correct: bool,
    on_time: bool,
}

/// Simulated slots per second of inventory calls.
fn slots_per_s(ops: &[OpSample]) -> f64 {
    let slots: u64 = ops.iter().map(|o| o.slots).sum();
    ratio(
        slots as f64,
        ops.iter().map(|o| o.inventory_ms).sum::<f64>() / 1e3,
    )
}

fn column(ops: &[OpSample], f: impl Fn(&OpSample) -> f64) -> Vec<f64> {
    ops.iter().map(f).collect()
}

/// The best repetition of each operation of the cycle: for every field,
/// its lowest value over the run (an operation repeats the same work, so
/// anything above its best is the host, not the program).
fn best_per_op(ops: &[OpSample], cycle: usize) -> Vec<OpSample> {
    (0..cycle)
        .filter_map(|op| {
            let mut reps = ops.iter().filter(|o| o.op == op && o.correct);
            let first = *reps.next()?;
            Some(reps.fold(first, |best, o| OpSample {
                inventory_ms: best.inventory_ms.min(o.inventory_ms),
                latency_ms: best.latency_ms.min(o.latency_ms),
                lag_ms: best.lag_ms.min(o.lag_ms),
                ..best
            }))
        })
        .collect()
}

/// Runs operations back to back until `deadline` (whole cycles when
/// `whole_cycles`), feeding every report to `sink`.
fn closed_loop<S: EventSink>(
    setup: &Setup,
    spec: &Spec,
    deadline: Instant,
    whole_cycles: bool,
    outcome: &mut Outcome,
    sink: &mut S,
    mut before_op: impl FnMut(&mut S, usize),
) -> Vec<OpSample> {
    let mut ops = Vec::new();
    let mut due = Instant::now();
    let mut op = 0usize;
    loop {
        let now = Instant::now();
        let cycle_done = op.is_multiple_of(setup.cycle());
        if now >= deadline && op > 0 && (!whole_cycles || cycle_done) {
            break;
        }
        before_op(sink, op);
        let sent = Instant::now();
        let result = setup.run(op, sink);
        let done = Instant::now();
        let mut slots = 0;
        let verdict = result.map_err(|e| e.to_string()).and_then(|report| {
            slots = report.slots.total();
            setup.check(op, &report)
        });
        let latency_ms = ms(done - due);
        let correct = outcome.verdict(verdict);
        ops.push(OpSample {
            op: op % setup.cycle(),
            inventory_ms: ms(done - sent),
            latency_ms,
            lag_ms: ms(sent - due),
            slots,
            correct,
            on_time: correct && latency_ms <= spec.slo_ms,
        });
        due = done;
        op += 1;
    }
    ops
}

pub fn run(spec: &Spec, seed: u64, seconds: Duration, trace: bool) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let (setup, setup_s) = timed_setup(|| Setup::new(spec, seed))?;

    if !trace {
        let deadline = Instant::now() + seconds;
        let noop = &mut rfid_obs::NoopSink;
        let ops = closed_loop(&setup, spec, deadline, false, &mut outcome, noop, |_, _| {});
        let count = |f: fn(&OpSample) -> bool| ops.iter().filter(|o| f(o)).count() as f64;
        let success = ratio(count(|o| o.correct), ops.len() as f64);
        let best = best_per_op(&ops, setup.cycle());
        let inventory = column(&best, |o| o.inventory_ms);
        let latency = column(&best, |o| o.latency_ms);
        outcome.set("setup_s", setup_s);
        outcome.set("peak_rss_mb", crate::env::peak_rss_mb());
        outcome.set("success_rate", success);
        outcome.set("slots_per_s", slots_per_s(&best));
        outcome.set("inventory_ms_p50", median(&inventory));
        outcome.set("inventory_ms_p90", quantile(&inventory, 0.9));
        outcome.set("serve_latency_ms_p50", median(&latency));
        outcome.set("serve_latency_ms_p99", quantile(&latency, 0.99));
        outcome.set(
            "serve_goodput_rps",
            success * ratio(best.len() as f64, latency.iter().sum::<f64>() / 1e3),
        );
        outcome.set(
            "serve_slo_met_rate",
            ratio(count(|o| o.on_time), ops.len() as f64),
        );
        return Ok(outcome);
    }

    // Traced run: untraced and traced cycles alternate, with the layer
    // calls timed after each traced cycle, so all three see the same host.
    let mut sink = TimingSink::new(spec.hash, spec.signal);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + seconds;
    let tags = &setup.populations[0];
    let signal_cfg = Spec::signal_config();
    let omega = rfid_analysis::optimal_omega(2);
    let mut micro: [Vec<f64>; 4] = Default::default();
    while traced.is_empty() || Instant::now() < deadline {
        let noop = &mut rfid_obs::NoopSink;
        untraced.extend(closed_loop(
            &setup,
            spec,
            Instant::now(),
            true,
            &mut outcome,
            noop,
            |_, _| {},
        ));
        traced.extend(closed_loop(
            &setup,
            spec,
            Instant::now(),
            true,
            &mut outcome,
            &mut sink,
            |sink, op| sink.begin(setup.tags(op).len()),
        ));
        sink.stop_counting();
        // Layer calls between cycles, so they see the same host as the
        // cycles they are compared with.
        let c = &sink.counts;
        micro[0].push(layers::hash_ns_per_call(tags, &c.slot_p, MICRO_SLICE));
        micro[1].push(layers::synth_ns_per_call(
            tags,
            &c.synth_k_mix,
            &signal_cfg,
            MICRO_SLICE,
        ));
        micro[2].push(layers::resolve_ns_per_call(
            tags,
            &c.attempt_hop_mix,
            &signal_cfg,
            MICRO_SLICE,
        ));
        micro[3].push(layers::estimator_ns_per_call(
            &c.estimator_inputs,
            omega,
            MICRO_SLICE,
        ));
    }
    // The best slice, like the best repetition the program time uses.
    let [hash_ns, synth_ns, resolve_ns, estimator_ns] =
        micro.map(|v| v.into_iter().fold(f64::INFINITY, f64::min));
    let cycle = setup.cycle();
    let cycles = (traced.len() / cycle).max(1) as f64;
    let program_ms = |ops: &[OpSample]| ops.iter().map(|o| o.inventory_ms).sum::<f64>();
    // Shares compare best layer-call costs with the cycle's best program
    // time; coverage compares the sink's stamps with the same cycles' time.
    let best_program_ns = program_ms(&best_per_op(&traced, cycle)) * 1e6;
    let program_ns_per_cycle = program_ms(&traced) * 1e6 / cycles;
    let counts = &sink.counts;
    let times = &sink.times;

    let hash_share = counts.hash_calls as f64 * hash_ns / best_program_ns;
    let signal_ns = counts.synth_calls() as f64 * synth_ns + counts.attempts() as f64 * resolve_ns;
    let o = &mut outcome;
    o.set("types.hash.calls", counts.hash_calls as f64);
    o.set("types.hash.ns_per_call", hash_ns);
    o.set("types.hash.share", hash_share);
    o.set("signal.synth.calls", counts.synth_calls() as f64);
    o.set("signal.synth.ns_per_call", synth_ns);
    o.set("signal.resolve.calls", counts.attempts() as f64);
    o.set("signal.resolve.ns_per_call", resolve_ns);
    o.set("signal.share", signal_ns / best_program_ns);
    set_anc_metrics(o, &sink);
    o.set(
        "analysis.estimator.calls",
        counts.estimator_inputs.len() as f64,
    );
    o.set("analysis.estimator.ns_per_call", estimator_ns);
    o.set("obs.events_emitted", counts.events as f64);
    o.set(
        "obs.trace_overhead_ratio",
        ratio(
            slots_per_s(&best_per_op(&traced, cycle)),
            slots_per_s(&best_per_op(&untraced, cycle)),
        ),
    );
    o.set(
        "loadgen.lag_ms_p99",
        quantile(&column(&traced, |o| o.lag_ms), 0.99),
    );
    o.set(
        "layers.coverage",
        ratio(times.attributed_ns() / cycles, program_ns_per_cycle),
    );
    Ok(outcome)
}

/// The `anc.*` metrics of a traced pass.
pub fn set_anc_metrics(o: &mut Outcome, sink: &TimingSink) {
    let (counts, times) = (&sink.counts, &sink.times);
    for (b, name) in [
        "anc.slot_ns.empty",
        "anc.slot_ns.singleton",
        "anc.slot_ns.collision",
        "anc.slot_ns.cascade",
    ]
    .into_iter()
    .enumerate()
    {
        o.set(name, times.ns_per_slot(b));
    }
    o.set("anc.slots.empty", counts.slots[0] as f64);
    o.set("anc.slots.singleton", counts.slots[1] as f64);
    o.set("anc.slots.collision", counts.slots[2] as f64);
    o.set("anc.records.created", counts.records_created as f64);
    o.set("anc.records.resolved", counts.records_resolved as f64);
    o.set("anc.records.failed", counts.records_failed as f64);
    o.set(
        "anc.records.useful_ratio",
        ratio(
            counts.records_resolved as f64,
            counts.records_created as f64,
        ),
    );
    o.set("anc.attempts", counts.attempts() as f64);
    o.set(
        "anc.attempt_success_ratio",
        ratio(counts.attempt_successes as f64, counts.attempts() as f64),
    );
    o.set("anc.cascade_depth_max", f64::from(counts.cascade_depth_max));
    o.set(
        "anc.record_latency_slots_p50",
        median(&counts.record_latency_slots),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let spec = Spec {
            tags: 300,
            ..Spec::named("inventory-hash").unwrap()
        };
        let (pops_a, configs_a) = inputs(&spec, 5);
        let (pops_b, configs_b) = inputs(&spec, 5);
        assert_eq!(pops_a, pops_b);
        let seeds = |c: &[SimConfig]| c.iter().map(SimConfig::seed).collect::<Vec<_>>();
        assert_eq!(seeds(&configs_a), seeds(&configs_b));
        let (pops_c, _) = inputs(&spec, 6);
        assert_ne!(pops_a, pops_c);
        assert_eq!(pops_a.len(), POPULATIONS);
        assert!(pops_a.iter().all(|p| p.len() == 300));
    }

    #[test]
    fn small_workloads_run_clean_and_perturbed_reports_fail() {
        for name in ["inventory-hash", "inventory-signal"] {
            let spec = Spec {
                tags: 200,
                ..Spec::named(name).unwrap()
            };
            let setup = Setup::new(&spec, 9).expect("set-up succeeds");
            let report = setup.run(1, &mut rfid_obs::NoopSink).unwrap();
            assert_eq!(setup.check(1, &report), Ok(()));
            // Right population, wrong operation: the digest catches it.
            assert!(setup.check(3, &report).is_err());
            let mut perturbed = report.clone();
            perturbed.slots.empty += 1;
            assert!(setup.check(1, &perturbed).is_err());

            let mut outcome = Outcome::default();
            let samples = closed_loop(
                &setup,
                &spec,
                Instant::now(),
                true,
                &mut outcome,
                &mut rfid_obs::NoopSink,
                |_, _| {},
            );
            assert_eq!(samples.len(), setup.cycle());
            assert_eq!(
                (outcome.attempted, outcome.failed),
                (setup.cycle() as u64, 0)
            );
        }
    }

    #[test]
    fn traced_counts_match_the_reports() {
        let spec = Spec {
            tags: 300,
            ..Spec::named("inventory-hash").unwrap()
        };
        let setup = Setup::new(&spec, 2).unwrap();
        let mut sink = TimingSink::new(true, false);
        sink.begin(300);
        let report = setup.run(0, &mut sink).unwrap();
        let counts = &sink.counts;
        assert_eq!(counts.slots[1], report.slots.singleton);
        assert_eq!(counts.slots[2], report.slots.collision);
        assert_eq!(counts.records_resolved, report.resolved_from_collisions);
        assert!(counts.hash_calls >= 300, "every slot tests the active tags");
    }
}
