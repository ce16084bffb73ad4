//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <inventory-hash|inventory-signal|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1> [--print-digests] [--calibrate]
//! ```
//!
//! Prints an environment line, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: every end-to-end metric
//! with `--trace 0`, every per-layer metric with `--trace 1`. See
//! `perfbench/README.md` for what each workload and metric means.

mod check;
mod env;
mod inventory;
mod layers;
mod serve_mixed;
mod stats;
mod timing;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics (untraced run), with units, in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "ratio"),
    ("slots_per_s", "1/s"),
    ("inventory_ms_p50", "ms"),
    ("inventory_ms_p90", "ms"),
    ("serve_latency_ms_p50", "ms"),
    ("serve_latency_ms_p99", "ms"),
    ("serve_goodput_rps", "1/s"),
    ("serve_slo_met_rate", "ratio"),
];

/// Per-layer metrics (traced run), with units, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("types.hash.calls", "count"),
    ("types.hash.ns_per_call", "ns"),
    ("types.hash.share", "ratio"),
    ("signal.synth.calls", "count"),
    ("signal.synth.ns_per_call", "ns"),
    ("signal.resolve.calls", "count"),
    ("signal.resolve.ns_per_call", "ns"),
    ("signal.share", "ratio"),
    ("anc.slot_ns.empty", "ns"),
    ("anc.slot_ns.singleton", "ns"),
    ("anc.slot_ns.collision", "ns"),
    ("anc.slot_ns.cascade", "ns"),
    ("anc.slots.empty", "count"),
    ("anc.slots.singleton", "count"),
    ("anc.slots.collision", "count"),
    ("anc.records.created", "count"),
    ("anc.records.resolved", "count"),
    ("anc.records.failed", "count"),
    ("anc.records.useful_ratio", "ratio"),
    ("anc.attempts", "count"),
    ("anc.attempt_success_ratio", "ratio"),
    ("anc.cascade_depth_max", "count"),
    ("anc.record_latency_slots_p50", "slots"),
    ("analysis.estimator.calls", "count"),
    ("analysis.estimator.ns_per_call", "ns"),
    ("sim.sweep_ms_p50", "ms"),
    ("sim.monitor_ms_p50", "ms"),
    ("serve.parse_us", "us"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.lines_per_request", "count"),
    ("obs.events_emitted", "count"),
    ("obs.dropped_events", "count"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("loadgen.lag_ms_p99", "ms"),
    ("layers.coverage", "ratio"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["inventory-hash", "inventory-signal", "serve-mixed"];

/// Times each set-up is repeated; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (inventories or requests).
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// Metric values by name; names absent here print as 0.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one operation's verdict, returning whether it was correct.
    pub fn verdict(&mut self, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(message) => {
                if self.failed < 5 {
                    eprintln!("perfbench: failed operation: {message}");
                }
                self.failed += 1;
                false
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    print_digests: bool,
    calibrate: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: check::DEFAULT_SEED,
        seconds: 30,
        trace: false,
        print_digests: false,
        calibrate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                };
            }
            "--print-digests" => args.print_digests = true,
            "--calibrate" => args.calibrate = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !(1..=600).contains(&args.seconds) {
        return Err(format!(
            "--seconds must be in 1..=600, got {}",
            args.seconds
        ));
    }
    Ok(args)
}

/// Runs `f` [`SETUP_REPEATS`] times and returns the last result with the
/// median set-up time in seconds.
pub fn timed_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        last = Some(f()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), stats::median(&times)))
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn render(outcome: &Outcome, trace: bool) -> String {
    let catalog = if trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = catalog
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    )
}

fn run(args: &Args) -> Result<Outcome, String> {
    let seconds = Duration::from_secs(args.seconds);
    match args.workload.as_str() {
        "serve-mixed" => serve_mixed::run(args.seed, seconds, args.trace),
        name => {
            let spec = inventory::Spec::named(name).expect("workload validated");
            inventory::run(&spec, args.seed, seconds, args.trace)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let result = if args.calibrate {
        serve_mixed::calibrate(args.seed, Duration::from_secs(args.seconds)).map(|rps| {
            let connections = serve_mixed::CONNECTIONS;
            format!("{{\"capacity_rps\":{rps:?},\"connections\":{connections}}}\n")
        })
    } else if args.print_digests {
        digests(&args)
    } else {
        let rate = serve_mixed::RATE_RPS;
        let (seed, seconds) = (args.seed, args.seconds);
        println!(
            "{}",
            env::stamp(&args.workload, seed, seconds, args.trace, rate)
        );
        run(&args).map(|outcome| format!("{}\n", render(&outcome, args.trace)))
    };
    match result {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The reference digests of `args.workload` at `args.seed`, in the
/// committed file's format.
fn digests(args: &Args) -> Result<String, String> {
    let digests = match args.workload.as_str() {
        "serve-mixed" => serve_mixed::reference_digests(args.seed)?,
        name => inventory::reference_digests(
            &inventory::Spec::named(name).expect("workload validated"),
            args.seed,
        )?,
    };
    Ok(check::golden_lines(&args.workload, &digests))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_every_workload_and_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench");
        let parsed = rfid_bench::json::Json::parse(&json).expect("BENCHMARK.json is JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            parsed
                .get(key)
                .and_then(|v| v.as_array())
                .expect("array")
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |catalog: &[(&str, &str)]| -> Vec<(String, String)> {
            catalog
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_carries_every_metric_of_its_mode() {
        let mut outcome = Outcome::default();
        outcome.verdict(Ok(()));
        outcome.set("setup_s", 0.5);
        let line = render(&outcome, false);
        let parsed = rfid_bench::json::Json::parse(&line).expect("result line is JSON");
        assert_eq!(parsed.get("correct").and_then(|v| v.as_bool()), Some(true));
        let metrics = parsed.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).expect("every end-to-end metric");
            assert_eq!(m.get("unit").and_then(|v| v.as_str()), Some(*unit));
        }
        assert_eq!(
            metrics
                .get("setup_s")
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64()),
            Some(0.5)
        );
        outcome.verdict(Err("wrong".into()));
        assert!(
            render(&outcome, true).starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1")
        );
    }
}
