//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--runs N] [--seed S] [--out DIR] [--quick] \
//!       [--trace FILE.jsonl [--trace-tags N]] [<experiment>...]
//! repro serve [--addr HOST:PORT] [--workers N] [--queue-capacity N] \
//!             [--flush-every N]
//! repro bench [--smoke] [--out FILE] [--baseline FILE] [--gate FILE] \
//!             [--budget-ms N] [--seed S] [--no-alloc-check]
//! ```
//!
//! Run `repro` with no arguments (or an unknown one) for the experiment
//! list — it is generated from the same registry that dispatches the
//! experiments, so it cannot drift. `all` runs everything in registry
//! order. Each experiment prints its table and writes `<out>/<name>.csv`
//! (default `results/`).
//!
//! `--trace FILE.jsonl` runs one seeded FCAT-2 inventory (default 500
//! tags, override with `--trace-tags`), streams every slot / collision-
//! record / estimator event to the file as JSON lines, prints the
//! aggregate observability metrics, and verifies the written trace replays
//! to the report's exact slot-class totals. It can be used alone or
//! alongside experiments.
//!
//! `repro serve` starts the long-running inventory service (see
//! [`rfid_bench::serve`]): line-delimited JSON sweep requests over TCP,
//! streamed JSONL event responses, graceful shutdown on SIGINT / SIGTERM
//! / stdin EOF.
//!
//! `repro bench` runs the committed perf harness (see [`rfid_bench::perf`])
//! under a counting global allocator and writes `BENCH_PR25.json` unless
//! `--out` names another file.

use rfid_bench::experiments::{self, ExperimentOptions};
use rfid_bench::output::Table;
use rfid_bench::perf::{self, BenchOptions};
use rfid_bench::serve::{ServeOptions, Server};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Read;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts every heap allocation so `repro bench` can assert the slot-level
/// hot loop is allocation-free in steady state. Counting is a single relaxed
/// atomic increment; free/dealloc is left untouched.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation unchanged to `System`; the counter is a
// lock-free atomic and allocates nothing itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One registered experiment: its CLI name, CSV artifact name, whether the
/// printed table gets sparklines, and the function that produces it.
struct Experiment {
    name: &'static str,
    csv: &'static str,
    sparkline: bool,
    run: fn(&ExperimentOptions) -> Result<Table, String>,
}

/// The experiment registry, in `all` execution order. Help text, `--list`
/// output, and dispatch all derive from this table, so adding an
/// experiment here is the complete wiring.
const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "bounds",
        csv: "bounds",
        sparkline: false,
        run: |_opts| Ok(experiments::run_bounds()),
    },
    Experiment {
        name: "table1",
        csv: "table1",
        sparkline: false,
        run: |opts| experiments::run_table1(opts).map_err(|e| e.to_string()),
    },
    Experiment {
        name: "table2",
        csv: "table2",
        sparkline: false,
        run: |opts| experiments::run_table2(opts).map_err(|e| e.to_string()),
    },
    Experiment {
        name: "table3",
        csv: "table3",
        sparkline: false,
        run: |opts| experiments::run_table3(opts).map_err(|e| e.to_string()),
    },
    Experiment {
        name: "table4",
        csv: "table4",
        sparkline: false,
        run: |opts| experiments::run_table4(opts).map_err(|e| e.to_string()),
    },
    Experiment {
        name: "fig3",
        csv: "fig3",
        sparkline: true,
        run: |opts| Ok(experiments::run_fig3(opts)),
    },
    Experiment {
        name: "fig4",
        csv: "fig4",
        sparkline: true,
        run: |opts| Ok(experiments::run_fig4(opts)),
    },
    Experiment {
        name: "fig5",
        csv: "fig5",
        sparkline: true,
        run: |opts| experiments::run_fig5(opts).map_err(|e| e.to_string()),
    },
    Experiment {
        name: "fig6",
        csv: "fig6",
        sparkline: true,
        run: |opts| experiments::run_fig6(opts).map_err(|e| e.to_string()),
    },
    Experiment {
        name: "ablation-estimator",
        csv: "ablation-estimator",
        sparkline: false,
        run: |opts| experiments::run_ablation_estimator(opts).map_err(|e| e.to_string()),
    },
    Experiment {
        name: "ablation-snr",
        csv: "ablation-snr",
        sparkline: true,
        run: |opts| Ok(experiments::run_ablation_snr(opts)),
    },
    Experiment {
        name: "ablation-noise",
        csv: "ablation-noise",
        sparkline: false,
        run: |opts| experiments::run_ablation_noise(opts).map_err(|e| e.to_string()),
    },
    Experiment {
        name: "snr-sweep",
        csv: "snr-sweep",
        sparkline: true,
        run: |opts| experiments::run_snr_sweep(opts).map_err(|e| e.to_string()),
    },
    Experiment {
        name: "backend-sweep",
        csv: "backend-sweep",
        sparkline: true,
        run: |opts| experiments::run_backend_sweep(opts).map_err(|e| e.to_string()),
    },
    Experiment {
        // The calibrate experiment's artifact is the calibration table.
        name: "calibrate",
        csv: "calibration",
        sparkline: false,
        run: |opts| Ok(experiments::run_calibrate(opts)),
    },
    Experiment {
        name: "lambda-sweep",
        csv: "lambda-sweep",
        sparkline: true,
        run: |opts| experiments::run_lambda_sweep(opts).map_err(|e| e.to_string()),
    },
    Experiment {
        name: "interference-sweep",
        csv: "interference-sweep",
        sparkline: true,
        run: |opts| experiments::run_interference_sweep(opts).map_err(|e| e.to_string()),
    },
    Experiment {
        name: "churn-sweep",
        csv: "churn-sweep",
        sparkline: true,
        run: |opts| experiments::run_churn_sweep(opts).map_err(|e| e.to_string()),
    },
    Experiment {
        name: "extension-crdsa",
        csv: "extension-crdsa",
        sparkline: false,
        run: |opts| experiments::run_extension_crdsa(opts).map_err(|e| e.to_string()),
    },
    Experiment {
        name: "extension-model",
        csv: "extension-model",
        sparkline: false,
        run: |opts| experiments::run_extension_model(opts).map_err(|e| e.to_string()),
    },
    Experiment {
        name: "extension-rounds",
        csv: "extension-rounds",
        sparkline: false,
        run: |opts| experiments::run_extension_rounds(opts).map_err(|e| e.to_string()),
    },
    Experiment {
        name: "extension-signal",
        csv: "extension-signal",
        sparkline: false,
        run: |opts| experiments::run_extension_signal(opts).map_err(|e| e.to_string()),
    },
];

/// Prints usage with the experiment list generated from [`EXPERIMENTS`].
fn print_usage() {
    eprintln!(
        "usage: repro [--runs N] [--seed S] [--out DIR] [--quick] \
         [--trace FILE.jsonl [--trace-tags N]] <experiment>..."
    );
    eprintln!(
        "       repro serve [--addr HOST:PORT] [--workers N] [--queue-capacity N] \
         [--flush-every N]"
    );
    eprintln!(
        "       repro bench [--smoke] [--out FILE] [--baseline FILE] [--gate FILE] \
         [--budget-ms N] [--seed S] [--no-alloc-check]"
    );
    eprint!("experiments:");
    let mut column = 66;
    for experiment in EXPERIMENTS {
        if column + experiment.name.len() + 1 > 66 {
            eprint!("\n  ");
            column = 0;
        }
        eprint!(" {}", experiment.name);
        column += experiment.name.len() + 1;
    }
    eprintln!("\n   all        (everything above)");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("bench") {
        return match run_bench(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                eprintln!();
                eprintln!(
                    "usage: repro bench [--smoke] [--out FILE] [--baseline FILE] \
                     [--gate FILE] [--budget-ms N] [--seed S] [--no-alloc-check]"
                );
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("serve") {
        return match run_serve(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                eprintln!();
                eprintln!(
                    "usage: repro serve [--addr HOST:PORT] [--workers N] \
                     [--queue-capacity N] [--flush-every N]"
                );
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            print_usage();
            ExitCode::FAILURE
        }
    }
}

/// Set by the SIGINT/SIGTERM handler and the stdin-EOF watcher; the serve
/// loop polls it and shuts the server down gracefully.
static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

extern "C" fn handle_shutdown_signal(_signum: i32) {
    SHUTDOWN_REQUESTED.store(true, Ordering::SeqCst);
}

/// Routes SIGINT and SIGTERM to [`SHUTDOWN_REQUESTED`] via the libc
/// `signal` call (no signal-handling crate in the vendored set).
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: the handler only performs an async-signal-safe atomic store,
    // and `handle_shutdown_signal` has the C ABI the kernel expects.
    unsafe {
        signal(SIGINT, handle_shutdown_signal as *const () as usize);
        signal(SIGTERM, handle_shutdown_signal as *const () as usize);
    }
}

/// Parses and runs the `repro serve` subcommand: bind, print the address,
/// then block until SIGINT / SIGTERM / stdin EOF requests shutdown.
fn run_serve(args: &[String]) -> Result<(), String> {
    let mut options = ServeOptions::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => {
                options.addr = iter.next().ok_or("--addr needs a value")?.clone();
            }
            "--workers" => {
                options.workers = iter
                    .next()
                    .ok_or("--workers needs a value")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                if options.workers == 0 {
                    return Err("--workers must be positive".into());
                }
            }
            "--queue-capacity" => {
                options.queue_capacity = iter
                    .next()
                    .ok_or("--queue-capacity needs a value")?
                    .parse()
                    .map_err(|e| format!("--queue-capacity: {e}"))?;
                if options.queue_capacity == 0 {
                    return Err("--queue-capacity must be positive".into());
                }
            }
            "--flush-every" => {
                options.flush_every = iter
                    .next()
                    .ok_or("--flush-every needs a value")?
                    .parse()
                    .map_err(|e| format!("--flush-every: {e}"))?;
            }
            other => return Err(format!("unknown serve flag {other}")),
        }
    }

    install_signal_handlers();
    let server = Server::spawn(options).map_err(|e| format!("bind: {e}"))?;
    println!("repro serve listening on {}", server.local_addr());
    println!("send line-delimited JSON sweep requests; Ctrl-C or stdin EOF shuts down");

    // Treat stdin EOF as a shutdown request too, so piping a finite script
    // into `repro serve` (or the parent closing the pipe) stops it.
    std::thread::spawn(|| {
        let mut sink = [0u8; 1024];
        let mut stdin = std::io::stdin();
        loop {
            match stdin.read(&mut sink) {
                Ok(0) | Err(_) => {
                    SHUTDOWN_REQUESTED.store(true, Ordering::SeqCst);
                    break;
                }
                Ok(_) => {}
            }
        }
    });

    while !SHUTDOWN_REQUESTED.load(Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    println!("shutdown requested; draining in-flight streams");
    server.shutdown();
    println!("serve stopped");
    Ok(())
}

/// Parses and runs the `repro bench` subcommand.
fn run_bench(args: &[String]) -> Result<(), String> {
    let mut opts = BenchOptions::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--no-alloc-check" => opts.check_allocs = false,
            "--out" => {
                opts.out = PathBuf::from(iter.next().ok_or("--out needs a value")?);
            }
            "--baseline" => {
                opts.baseline = Some(PathBuf::from(
                    iter.next().ok_or("--baseline needs a value")?,
                ));
            }
            "--gate" => {
                opts.gate = Some(PathBuf::from(iter.next().ok_or("--gate needs a value")?));
            }
            "--budget-ms" => {
                let ms: u64 = iter
                    .next()
                    .ok_or("--budget-ms needs a value")?
                    .parse()
                    .map_err(|e| format!("--budget-ms: {e}"))?;
                if ms == 0 {
                    return Err("--budget-ms must be positive".into());
                }
                opts.budget_ms = Some(ms);
            }
            "--seed" => {
                opts.seed = iter
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            other => return Err(format!("unknown bench flag {other}")),
        }
    }
    perf::run(&opts, Some(&|| ALLOCATIONS.load(Ordering::Relaxed)))
}

fn run(args: &[String]) -> Result<(), String> {
    let mut opts = ExperimentOptions::default();
    let mut out_dir = PathBuf::from("results");
    let mut selected: Vec<String> = Vec::new();
    let mut trace_path: Option<PathBuf> = None;
    let mut trace_tags: usize = 500;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--runs" => {
                opts.runs = iter
                    .next()
                    .ok_or("--runs needs a value")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if opts.runs == 0 {
                    return Err("--runs must be positive".into());
                }
            }
            "--seed" => {
                opts.seed = iter
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--out" => {
                out_dir = PathBuf::from(iter.next().ok_or("--out needs a value")?);
            }
            "--trace" => {
                trace_path = Some(PathBuf::from(iter.next().ok_or("--trace needs a value")?));
            }
            "--trace-tags" => {
                trace_tags = iter
                    .next()
                    .ok_or("--trace-tags needs a value")?
                    .parse()
                    .map_err(|e| format!("--trace-tags: {e}"))?;
                if trace_tags == 0 {
                    return Err("--trace-tags must be positive".into());
                }
            }
            "--quick" => opts.quick = true,
            "--list" => {
                for experiment in EXPERIMENTS {
                    println!("{}", experiment.name);
                }
                return Ok(());
            }
            name if !name.starts_with('-') => selected.push(name.to_owned()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if selected.is_empty() && trace_path.is_none() {
        return Err("no experiment selected".into());
    }
    if selected.iter().any(|s| s == "all") {
        selected = EXPERIMENTS
            .iter()
            .map(|experiment| experiment.name.to_owned())
            .collect();
    }

    if let Some(path) = &trace_path {
        run_trace(path, trace_tags, opts.seed)?;
    }

    for name in &selected {
        let experiment = EXPERIMENTS
            .iter()
            .find(|experiment| experiment.name == name.as_str())
            .ok_or_else(|| format!("unknown experiment {name}"))?;
        let started = std::time::Instant::now();
        let table: Table = (experiment.run)(&opts)?;
        println!("{}", table.render());
        if experiment.sparkline {
            let lines = rfid_bench::output::table_sparklines(&table);
            if !lines.is_empty() {
                println!("{lines}");
            }
        }
        let path = table
            .write_csv(&out_dir, experiment.csv)
            .map_err(|e| format!("writing csv: {e}"))?;
        println!(
            "[{name}: {:.1}s, csv -> {}]\n",
            started.elapsed().as_secs_f64(),
            path.display()
        );
    }
    Ok(())
}

/// Runs the single traced FCAT inventory behind `--trace` and prints the
/// observability metrics summary plus the replay verification verdict.
fn run_trace(path: &std::path::Path, n_tags: usize, seed: u64) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("creating {}: {e}", parent.display()))?;
    }
    let started = std::time::Instant::now();
    let traced = rfid_bench::trace::run_traced_fcat(path, n_tags, seed)?;
    let report = &traced.report;
    println!(
        "traced run: {} over {} tags (seed {seed})",
        report.protocol, report.population_initial
    );
    println!(
        "  identified {} ({} via collision records), {} slots, {:.1} tags/s",
        report.identified,
        report.resolved_from_collisions,
        report.slots.total(),
        report.throughput_tags_per_sec
    );
    println!("{}", traced.metrics);
    if !traced.replay_consistent {
        return Err(format!(
            "trace replay of {} disagrees with the run report",
            path.display()
        ));
    }
    println!(
        "replay check: {} lines reproduce the report's slot-class totals exactly",
        traced.trace_lines
    );
    println!(
        "[trace: {:.1}s, jsonl -> {}]\n",
        started.elapsed().as_secs_f64(),
        path.display()
    );
    Ok(())
}
