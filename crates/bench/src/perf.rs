//! `repro bench` — the committed performance harness.
//!
//! Times whole inventories (SCAT/FCAT under both membership modes, plus
//! DFSA/EDFSA/ABS/AQS) at several population sizes using the vendored
//! criterion's [`measure_with_budget`] timing discipline, and writes the
//! results as a `BENCH_*.json` file that is committed per PR so the repo
//! accumulates a performance trajectory.
//!
//! The harness also counts heap allocations per slot when the caller (the
//! `repro` binary, which installs a counting `#[global_allocator]`) hands it
//! an allocation counter, and — unless disabled — asserts that the
//! slot-level SCAT/FCAT loop is allocation-free in steady state.
//!
//! ```text
//! repro bench [--smoke] [--out FILE] [--baseline FILE] [--gate FILE]
//!             [--budget-ms N] [--seed S] [--no-alloc-check]
//! ```
//!
//! `--baseline FILE` points at a previous run's JSON (e.g. captured before
//! an optimization); per-entry speedups are computed and embedded in the
//! output. `--gate FILE` points at the committed `BENCH_*.json` and fails
//! the run if any `*/signal-soa` cell's throughput, normalized by the
//! `*/sampled` cell of the same family and `n`, drops more than
//! [`GATE_TOLERANCE`] (20%) below the committed ratio. Cells present in
//! only one of the two files are skipped. Each cell's budget is spread over
//! five interleaved passes across the matrix, and in every pass a
//! `*/signal-soa` cell is timed right after its `*/sampled` cell; the
//! ratio is the median of the five per-pass ratios, so a host stall during
//! one pass moves one ratio and not the verdict. The JSON records that
//! median for every `*/signal-soa` cell (`"paired_ratio"`), and the gate
//! compares this run's median with the committed one.
//!
//! The JSON records which membership-scan kernel ran (`"hash_kernel"`,
//! see [`rfid_types::hash::membership_kernel`]) and the host's core count
//! (`"nproc"`): `*/hash` cells run faster where the AVX-512DQ kernel is
//! selected, so hash cells from two files are comparable only when both
//! fields match.

use crate::json::Json;
use criterion::measure_with_budget;
use rfid_anc::{
    BackendModel, CompressedSensing, Fcat, FcatConfig, Fidelity, Membership, Mpr, ResolutionModel,
    Scat, ScatConfig, SignalLevelConfig, SignalResolutionConfig,
};
use rfid_protocols::{Abs, Aqs, Dfsa, Edfsa};
use rfid_sim::{run_inventory, seeded_rng, InventoryReport, SimConfig, SimError};
use rfid_types::{hash, population, TagId};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Steady-state allocation tolerance for the ideal-resolution slot-level
/// loop, in allocations per slot. The loop itself must be allocation-free;
/// this allowance covers strictly amortized growth outside the loop (report
/// `Vec`/`HashSet` doublings, the rare spill of an unusable k > λ record)
/// which shrinks toward zero as the run gets longer.
pub const MAX_ALLOCS_PER_SLOT: f64 = 0.05;

/// Allocation allowance for the signal-backed and signal-level entries:
/// the slot-level budget. Records store only their participants, and the
/// mixture an attempt (or a signal-level slot) synthesizes, the reference
/// cache and the resolve scratch are buffers reused across the whole run,
/// so steady state pays only for amortized growth and report-side
/// doublings (0.017–0.026 allocs/slot at n = 2000 in `repro bench
/// --smoke`). A buffer allocated per slot, record or attempt would fail it.
pub const MAX_ALLOCS_PER_SLOT_SIGNAL: f64 = 0.05;

/// Allocation allowance for the tree-splitting (ABS) walk. The depth-first
/// dynamics recycle drained group buffers through a spare pool, so a round
/// only allocates the root group, O(depth) pool growth and report-side
/// doublings — the naive two-fresh-vectors-per-collision version measured
/// ≈ 1.1 allocs/slot and would blow this gate by an order of magnitude.
pub const MAX_ALLOCS_PER_SLOT_TREE: f64 = 0.05;

/// Population size at which the allocation assertion is applied: large
/// enough that one-time setup cost is amortized far below the tolerance.
const ALLOC_CHECK_MIN_TAGS: usize = 2_000;

/// CLI-level options for a bench run.
#[derive(Debug)]
pub struct BenchOptions {
    /// Tiny populations and budget, for CI smoke coverage.
    pub smoke: bool,
    /// Per-entry measurement budget override (milliseconds).
    pub budget_ms: Option<u64>,
    /// Simulation seed (populations derive theirs from the size).
    pub seed: u64,
    /// Enforce the steady-state zero-allocation assertion.
    pub check_allocs: bool,
    /// Previous `BENCH_*.json` to compute speedups against.
    pub baseline: Option<PathBuf>,
    /// Committed `BENCH_*.json` to enforce the signal-throughput gate
    /// against: each `*/signal-soa` cell's slots/s, normalized by the
    /// matching `*/sampled` cell at the same `n` (so the gate is
    /// machine-speed independent), must stay within [`GATE_TOLERANCE`] of
    /// the committed ratio.
    pub gate: Option<PathBuf>,
    /// Output JSON path.
    pub out: PathBuf,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            smoke: false,
            budget_ms: None,
            seed: 0,
            check_allocs: true,
            baseline: None,
            gate: None,
            out: PathBuf::from("BENCH_PR25.json"),
        }
    }
}

/// Number of interleaved passes over the matrix that share each cell's
/// timing budget; a cell's `best_wall_s` is its best over all passes.
const TIMING_PASSES: u32 = 5;

/// Allowed relative regression of the signal-soa/sampled throughput ratio
/// before the `--gate` check fails (0.2 = 20%).
pub const GATE_TOLERANCE: f64 = 0.2;

/// One measured (protocol, population) cell.
#[derive(Debug)]
struct Entry {
    name: String,
    n: usize,
    slots: u64,
    identified: usize,
    best_wall_s: f64,
    slots_per_sec: f64,
    /// Best slots/s within each timing pass, in pass order.
    pass_slots_per_sec: Vec<f64>,
    iters: u64,
    /// Heap allocations over one full inventory (None without a counter).
    allocs: Option<u64>,
    allocs_per_slot: Option<f64>,
    /// Whether this entry runs a steady-state-pooled loop (the slot-level
    /// engine or the recycling tree walk) and is therefore subject to an
    /// allocation gate.
    slot_level: bool,
    /// Per-entry allocation gate (allocs/slot); `None` exempts the entry.
    alloc_limit: Option<f64>,
}

type Runner = Box<dyn Fn(&[TagId], &SimConfig) -> Result<InventoryReport, SimError>>;

/// The protocol axis of the matrix: (name, alloc gate, runner). A `Some`
/// gate marks a slot-level-engine entry whose allocs/slot must stay under
/// the given limit.
fn protocol_specs() -> Vec<(String, Option<f64>, Runner)> {
    let mut specs: Vec<(String, Option<f64>, Runner)> = Vec::new();
    for (mname, membership) in [("hash", Membership::Hash), ("sampled", Membership::Sampled)] {
        let scat = Scat::new(ScatConfig::default().with_membership(membership));
        specs.push((
            format!("scat2/{mname}"),
            Some(MAX_ALLOCS_PER_SLOT),
            Box::new(move |tags, cfg| run_inventory(&scat, tags, cfg)),
        ));
        let fcat = Fcat::new(FcatConfig::default().with_membership(membership));
        specs.push((
            format!("fcat2/{mname}"),
            Some(MAX_ALLOCS_PER_SLOT),
            Box::new(move |tags, cfg| run_inventory(&fcat, tags, cfg)),
        ));
    }
    // Non-ANC recovery backends: same slot-level engine, no records ever
    // deposited — MPR decodes bounded collisions in place, compressed
    // sensing draws a per-slot success from a counter stream. Both must
    // hold the ideal steady-state allocation budget.
    let mpr_fcat = Fcat::new(FcatConfig::default().with_backend(BackendModel::Mpr(Mpr::new(4))));
    specs.push((
        "fcat2/mpr4".into(),
        Some(MAX_ALLOCS_PER_SLOT),
        Box::new(move |tags, cfg| run_inventory(&mpr_fcat, tags, cfg)),
    ));
    let cs_fcat = Fcat::new(
        FcatConfig::default()
            .with_backend(BackendModel::CompressedSensing(CompressedSensing::default())),
    );
    specs.push((
        "fcat2/cs".into(),
        Some(MAX_ALLOCS_PER_SLOT),
        Box::new(move |tags, cfg| run_inventory(&cs_fcat, tags, cfg)),
    ));
    // Signal-backed resolution: same slot-level engine, but every
    // resolution attempt synthesizes its record's mixture and runs the
    // DSP chain. Gated by its own allowance.
    let signal_fcat = Fcat::new(FcatConfig::default().with_resolution(
        ResolutionModel::SignalBacked(SignalResolutionConfig::default().with_noise_std(0.1)),
    ));
    specs.push((
        "fcat2/signal-soa".into(),
        Some(MAX_ALLOCS_PER_SLOT_SIGNAL),
        Box::new(move |tags, cfg| run_inventory(&signal_fcat, tags, cfg)),
    ));
    let signal_scat = Scat::new(ScatConfig::default().with_resolution(
        ResolutionModel::SignalBacked(SignalResolutionConfig::default().with_noise_std(0.1)),
    ));
    specs.push((
        "scat2/signal-soa".into(),
        Some(MAX_ALLOCS_PER_SLOT_SIGNAL),
        Box::new(move |tags, cfg| run_inventory(&signal_scat, tags, cfg)),
    ));
    // Signal-level fidelity: every slot's reception is synthesized,
    // energy-detected and demodulated, and a record rebuilds its slot's
    // reception when it is attempted. Same allowance.
    let level_fcat = Fcat::new(
        FcatConfig::default().with_fidelity(Fidelity::SignalLevel(SignalLevelConfig::default())),
    );
    specs.push((
        "fcat2/signal-level".into(),
        Some(MAX_ALLOCS_PER_SLOT_SIGNAL),
        Box::new(move |tags, cfg| run_inventory(&level_fcat, tags, cfg)),
    ));
    let dfsa = Dfsa::new();
    specs.push((
        "dfsa".into(),
        None,
        Box::new(move |tags, cfg| run_inventory(&dfsa, tags, cfg)),
    ));
    let edfsa = Edfsa::new();
    specs.push((
        "edfsa".into(),
        None,
        Box::new(move |tags, cfg| run_inventory(&edfsa, tags, cfg)),
    ));
    let abs = Abs::new();
    specs.push((
        "abs".into(),
        Some(MAX_ALLOCS_PER_SLOT_TREE),
        Box::new(move |tags, cfg| run_inventory(&abs, tags, cfg)),
    ));
    let aqs = Aqs::new();
    specs.push((
        "aqs".into(),
        None,
        Box::new(move |tags, cfg| run_inventory(&aqs, tags, cfg)),
    ));
    specs
}

/// Runs the full matrix, writes `opts.out`, and returns an error listing any
/// steady-state allocation violations (after the JSON is written, so a
/// failing run still leaves its evidence on disk).
pub fn run(opts: &BenchOptions, alloc_count: Option<&dyn Fn() -> u64>) -> Result<(), String> {
    let sizes: &[usize] = if opts.smoke {
        &[64, ALLOC_CHECK_MIN_TAGS]
    } else {
        &[500, 2_000, 10_000]
    };
    let budget = Duration::from_millis(opts.budget_ms.unwrap_or(if opts.smoke { 5 } else { 200 }));

    let specs = protocol_specs();
    let config = SimConfig::default().with_seed(opts.seed);
    let mut cells: Vec<(&Runner, Vec<TagId>, Entry)> = Vec::new();
    for (name, alloc_limit, runner) in &specs {
        let slot_level = alloc_limit.is_some();
        for &n in sizes {
            // Smoke mode only needs the big population on the entries the
            // allocation assertion covers (and only when it is enforced).
            if opts.smoke && n >= ALLOC_CHECK_MIN_TAGS && !(slot_level && opts.check_allocs) {
                continue;
            }
            // One deterministic population per size, shared by all
            // protocols so cells at equal n are comparable.
            let tags = population::uniform(&mut seeded_rng(1_000 + n as u64), n);

            // Untimed run: slot count, identified count, allocation delta.
            let before = alloc_count.map(|f| f());
            let report = runner(&tags, &config).map_err(|e| format!("bench {name} n={n}: {e}"))?;
            let allocs = alloc_count.map(|f| f() - before.unwrap_or(0));
            let slots = report.slots.total();
            let entry = Entry {
                name: name.clone(),
                n,
                slots,
                identified: report.identified,
                best_wall_s: f64::INFINITY,
                slots_per_sec: 0.0,
                pass_slots_per_sec: Vec::new(),
                iters: 0,
                allocs,
                allocs_per_slot: allocs.map(|a| a as f64 / slots.max(1) as f64),
                slot_level,
                alloc_limit: *alloc_limit,
            };
            cells.push((runner, tags, entry));
        }
    }

    // Time the matrix in interleaved passes and keep each cell's best. On
    // a shared host the machine's speed drifts over a run; spreading every
    // cell over the whole run lets cells that are later divided by each
    // other (the throughput gate) see the same fast and slow phases. Each
    // signal-soa cell sorts right after its sampled cell, so within a pass
    // the gate's two timings are taken back to back.
    let mut order: Vec<(usize, usize)> = (0..cells.len())
        .map(|i| {
            let partner = gate_normalizer(cells.iter().map(|c| &c.2), &cells[i].2);
            (partner.unwrap_or(i), i)
        })
        .collect();
    order.sort_unstable();
    let pass_budget = budget / TIMING_PASSES;
    for _ in 0..TIMING_PASSES {
        for &(_, i) in &order {
            let (runner, tags, e) = &mut cells[i];
            let m = measure_with_budget(pass_budget, || {
                runner(tags, &config).expect("bench rerun cannot fail")
            });
            let wall_s = m.best_ns_per_iter * 1e-9;
            e.best_wall_s = e.best_wall_s.min(wall_s);
            e.pass_slots_per_sec.push(e.slots as f64 / wall_s);
            e.iters += m.iters;
        }
    }

    let mut entries: Vec<Entry> = Vec::new();
    for (_, _, mut e) in cells {
        if e.best_wall_s > 0.0 {
            e.slots_per_sec = e.slots as f64 / e.best_wall_s;
        }
        println!(
            "{:<16} n={:<6} {:>7} slots  {:>10.4} s/run {:>12.0} slots/s  {}",
            e.name,
            e.n,
            e.slots,
            e.best_wall_s,
            e.slots_per_sec,
            match e.allocs_per_slot {
                Some(aps) => format!("{aps:.4} allocs/slot"),
                None => "allocs n/a".to_owned(),
            }
        );
        entries.push(e);
    }

    let baseline = match &opts.baseline {
        Some(path) => Some(
            std::fs::read_to_string(path)
                .map_err(|e| format!("reading baseline {}: {e}", path.display()))?,
        ),
        None => None,
    };
    let speedups = baseline
        .as_deref()
        .map(|b| compute_speedups(&entries, b))
        .transpose()?;

    let json = render_json(opts, &entries, speedups.as_deref());
    if let Some(parent) = opts.out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("creating {}: {e}", parent.display()))?;
    }
    std::fs::write(&opts.out, &json).map_err(|e| format!("writing {}: {e}", opts.out.display()))?;
    println!("json -> {}", opts.out.display());

    if let Some(speedups) = &speedups {
        for s in speedups {
            println!(
                "speedup {:<16} n={:<6} {:.4}s -> {:.4}s  ({:.2}x)",
                s.name, s.n, s.baseline_best_wall_s, s.new_best_wall_s, s.speedup
            );
        }
    }

    if opts.check_allocs {
        if alloc_count.is_none() {
            return Err(
                "allocation check requested but no counting allocator is installed \
                        (run via the repro binary, or pass --no-alloc-check)"
                    .into(),
            );
        }
        let violations: Vec<String> = entries
            .iter()
            .filter(|e| e.n >= ALLOC_CHECK_MIN_TAGS)
            .filter_map(|e| {
                let limit = e.alloc_limit?;
                let aps = e.allocs_per_slot.unwrap_or(0.0);
                (aps > limit).then(|| {
                    format!(
                        "{} n={}: {:.4} allocs/slot (limit {limit})",
                        e.name, e.n, aps
                    )
                })
            })
            .collect();
        if !violations.is_empty() {
            return Err(format!(
                "steady-state slot loop is allocating:\n  {}",
                violations.join("\n  ")
            ));
        }
        println!(
            "alloc check: gated entries at n >= {ALLOC_CHECK_MIN_TAGS} stay under \
             their per-entry allocs/slot limits ({MAX_ALLOCS_PER_SLOT} ideal, \
             {MAX_ALLOCS_PER_SLOT_SIGNAL} signal, {MAX_ALLOCS_PER_SLOT_TREE} tree)"
        );
    }

    if let Some(path) = &opts.gate {
        let gate = std::fs::read_to_string(path)
            .map_err(|e| format!("reading gate file {}: {e}", path.display()))?;
        check_throughput_gate(&entries, &gate)?;
    }
    Ok(())
}

/// The position in `cells` of the `*/sampled` cell that normalizes `e` in
/// the throughput gate: same protocol family and `n`. `None` unless `e` is
/// a `*/signal-soa` cell with such a partner.
fn gate_normalizer<'a>(mut cells: impl Iterator<Item = &'a Entry>, e: &Entry) -> Option<usize> {
    let family = e.name.strip_suffix("/signal-soa")?;
    cells.position(|c| c.n == e.n && c.name.strip_suffix("/sampled") == Some(family))
}

/// The gate ratio of a `*/signal-soa` cell: the median over the timing
/// passes of its throughput divided by its `*/sampled` partner's. `None`
/// for every other cell.
fn paired_ratio(entries: &[Entry], e: &Entry) -> Option<f64> {
    let norm = &entries[gate_normalizer(entries.iter(), e)?];
    median_paired_ratio(&e.pass_slots_per_sec, &norm.pass_slots_per_sec)
}

/// The median of `a[p] / b[p]` over the passes both cells measured.
fn median_paired_ratio(a: &[f64], b: &[f64]) -> Option<f64> {
    let mut ratios: Vec<f64> = a
        .iter()
        .zip(b)
        .map(|(x, y)| x / y)
        .filter(|r| r.is_finite() && *r > 0.0)
        .collect();
    if ratios.is_empty() {
        return None;
    }
    ratios.sort_unstable_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    Some(if ratios.len() % 2 == 1 {
        ratios[mid]
    } else {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    })
}

/// Enforces the signal-throughput gate: for every `*/signal-soa` cell
/// present in both this run and the committed gate file, the ratio
/// signal-soa slots/s ÷ sampled slots/s (same protocol family, same `n`)
/// must not fall more than [`GATE_TOLERANCE`] below the committed ratio.
/// Both sides are the same statistic: the median over the timing passes of
/// the two cells' back-to-back per-pass throughputs ([`paired_ratio`]),
/// which the gate file records as `"paired_ratio"`.
/// Normalizing by the sampled cell measured in the same run makes the gate
/// insensitive to absolute machine speed. The sampled cell draws its
/// transmitters from a binomial and never runs the membership hash, so
/// unlike the `*/hash` cell its speed does not depend on which
/// hash kernel the CPU selects.
fn check_throughput_gate(entries: &[Entry], gate: &str) -> Result<(), String> {
    let committed = committed_cells(gate, "paired_ratio").map_err(|e| format!("gate file: {e}"))?;
    let mut compared = 0usize;
    let mut violations = Vec::new();
    for e in entries {
        let Some(cur_ratio) = paired_ratio(entries, e) else {
            continue;
        };
        let Some(old_ratio) = committed
            .iter()
            .find(|(cell, cell_n, _)| *cell == e.name && *cell_n == e.n)
            .map(|&(_, _, v)| v)
            .filter(|v| *v > 0.0)
        else {
            continue;
        };
        compared += 1;
        let floor = old_ratio * (1.0 - GATE_TOLERANCE);
        println!(
            "gate {:<18} n={:<6} signal/sampled ratio {cur_ratio:.4} \
             (median of paired passes; committed {old_ratio:.4}, floor {floor:.4})",
            e.name, e.n
        );
        if cur_ratio < floor {
            violations.push(format!(
                "{} n={}: signal/sampled throughput ratio {cur_ratio:.4} fell below \
                 {floor:.4} ({}% under committed {old_ratio:.4})",
                e.name,
                e.n,
                (GATE_TOLERANCE * 100.0) as u32,
            ));
        }
    }
    if compared == 0 {
        return Err(
            "throughput gate: no (signal-soa, sampled) cell pair of this run has a \
                    \"paired_ratio\" row in the gate file — check sizes/alloc-check flags"
                .into(),
        );
    }
    if !violations.is_empty() {
        return Err(format!(
            "signal-soa throughput regressed:\n  {}",
            violations.join("\n  ")
        ));
    }
    Ok(())
}

#[derive(Debug)]
struct Speedup {
    name: String,
    n: usize,
    baseline_best_wall_s: f64,
    new_best_wall_s: f64,
    speedup: f64,
}

/// Maps entry names from baselines captured before the SoA rewrite onto
/// their current spelling, so `--baseline` against a pre-rewrite file still
/// produces a speedup row for the renamed signal cell.
fn baseline_alias(name: &str) -> &str {
    match name {
        "fcat2/signal" => "fcat2/signal-soa",
        other => other,
    }
}

/// Matches entries against a previous run's JSON by (name, n); fails when
/// the baseline does not parse.
fn compute_speedups(entries: &[Entry], baseline: &str) -> Result<Vec<Speedup>, String> {
    let mut speedups = Vec::new();
    for (name, n, base) in
        committed_cells(baseline, "best_wall_s").map_err(|e| format!("baseline file: {e}"))?
    {
        let name = baseline_alias(&name);
        if let Some(e) = entries.iter().find(|e| e.name == name && e.n == n) {
            if base > 0.0 && e.best_wall_s > 0.0 {
                speedups.push(Speedup {
                    name: e.name.clone(),
                    n,
                    baseline_best_wall_s: base,
                    new_best_wall_s: e.best_wall_s,
                    speedup: base / e.best_wall_s,
                });
            }
        }
    }
    Ok(speedups)
}

/// The `(name, n, field)` triple of every `entries` row of a `BENCH_*.json`
/// document that carries all three; other rows are skipped.
fn committed_cells(text: &str, field: &str) -> Result<Vec<(String, usize, f64)>, String> {
    let doc = Json::parse(text)?;
    let rows = doc
        .get("entries")
        .and_then(Json::as_array)
        .ok_or("no \"entries\" array")?;
    Ok(rows
        .iter()
        .filter_map(|row| {
            Some((
                row.get("name")?.as_str()?.to_owned(),
                row.get("n")?.as_usize()?,
                row.get(field)?.as_f64()?,
            ))
        })
        .collect())
}

/// `{:?}` gives the shortest f64 representation that round-trips, which is
/// also valid JSON for finite values.
fn jf(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

fn render_json(opts: &BenchOptions, entries: &[Entry], speedups: Option<&[Speedup]>) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    writeln!(s, "\"schema\":\"anc-rfid-bench/1\",").unwrap();
    writeln!(
        s,
        "\"mode\":\"{}\",",
        if opts.smoke { "smoke" } else { "full" }
    )
    .unwrap();
    writeln!(
        s,
        "\"budget_ms\":{},",
        opts.budget_ms.unwrap_or(if opts.smoke { 5 } else { 200 })
    )
    .unwrap();
    writeln!(s, "\"seed\":{},", opts.seed).unwrap();
    writeln!(s, "\"hash_kernel\":\"{}\",", hash::membership_kernel()).unwrap();
    writeln!(
        s,
        "\"nproc\":{},",
        std::thread::available_parallelism().map_or(1, usize::from)
    )
    .unwrap();
    writeln!(s, "\"max_allocs_per_slot\":{},", jf(MAX_ALLOCS_PER_SLOT)).unwrap();
    s.push_str("\"entries\":[\n");
    for (i, e) in entries.iter().enumerate() {
        write!(
            s,
            "  {{\"name\":\"{}\",\"n\":{},\"slots\":{},\"identified\":{},\
             \"best_wall_s\":{},\"slots_per_sec\":{},\"iters\":{},\
             \"slot_level\":{}",
            e.name,
            e.n,
            e.slots,
            e.identified,
            jf(e.best_wall_s),
            jf(e.slots_per_sec),
            e.iters,
            e.slot_level,
        )
        .unwrap();
        if let (Some(a), Some(aps)) = (e.allocs, e.allocs_per_slot) {
            write!(s, ",\"allocs\":{a},\"allocs_per_slot\":{}", jf(aps)).unwrap();
        }
        if let Some(limit) = e.alloc_limit {
            write!(s, ",\"alloc_limit\":{}", jf(limit)).unwrap();
        }
        if let Some(ratio) = paired_ratio(entries, e) {
            write!(s, ",\"paired_ratio\":{}", jf(ratio)).unwrap();
        }
        s.push('}');
        if i + 1 < entries.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push(']');
    if let Some(speedups) = speedups {
        s.push_str(",\n\"speedups\":[\n");
        for (i, sp) in speedups.iter().enumerate() {
            write!(
                s,
                "  {{\"name\":\"{}\",\"n\":{},\"baseline_best_wall_s\":{},\
                 \"new_best_wall_s\":{},\"speedup\":{}}}",
                sp.name,
                sp.n,
                jf(sp.baseline_best_wall_s),
                jf(sp.new_best_wall_s),
                jf(sp.speedup),
            )
            .unwrap();
            if i + 1 < speedups.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push(']');
    }
    s.push_str("\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rfid_sim::obs::jsonl::replay;
    use rfid_sim::obs::JsonlSink;
    use std::sync::OnceLock;

    const BENCH_PR7: &str = include_str!("../../../BENCH_PR7.json");
    /// The gate file CI's bench-smoke job reads.
    const BENCH_PR25: &str = include_str!("../../../BENCH_PR25.json");

    /// A gate file written by this harness from the cells of `text`, as
    /// measured with no slowdown.
    fn gate_file(text: &str) -> String {
        render_json(&BenchOptions::default(), &measured(text, 1.0), None)
    }

    /// A bench file re-serialized the way a JSON formatter would: one key
    /// per line and a space after every `:`.
    fn pretty(compact: &str) -> String {
        compact
            .replace("\":", "\": ")
            .replace(",\"", ",\n    \"")
            .replace("{\"", "{\n    \"")
    }

    /// The cells of a committed bench file as this run's measurements, with
    /// every signal-soa cell's throughput divided by `slowdown`.
    fn measured(text: &str, slowdown: f64) -> Vec<Entry> {
        measured_scaled(text, |name| {
            if name.contains("/signal-soa") {
                1.0 / slowdown
            } else {
                1.0
            }
        })
    }

    /// The cells of a committed bench file as this run's measurements, each
    /// cell's throughput multiplied by `scale(name)` in every one of
    /// [`TIMING_PASSES`] passes.
    fn measured_scaled(text: &str, scale: impl Fn(&str) -> f64) -> Vec<Entry> {
        measured_passes(text, |name, _| scale(name))
    }

    /// The cells of a committed bench file as this run's measurements, each
    /// cell's throughput in pass `p` multiplied by `scale(name, p)`.
    fn measured_passes(text: &str, scale: impl Fn(&str, u32) -> f64) -> Vec<Entry> {
        let walls = committed_cells(text, "best_wall_s").unwrap();
        committed_cells(text, "slots_per_sec")
            .unwrap()
            .into_iter()
            .zip(walls)
            .map(|((name, n, slots_per_sec), (_, _, best_wall_s))| Entry {
                pass_slots_per_sec: (0..TIMING_PASSES)
                    .map(|p| slots_per_sec * scale(&name, p))
                    .collect(),
                slots_per_sec,
                name,
                n,
                slots: 1,
                identified: n,
                best_wall_s,
                iters: 1,
                allocs: None,
                allocs_per_slot: None,
                slot_level: false,
                alloc_limit: None,
            })
            .collect()
    }

    #[test]
    fn speedups_match_by_name_and_n() {
        let entries = vec![Entry {
            name: "scat2/hash".into(),
            n: 10_000,
            slots: 17_000,
            identified: 10_000,
            best_wall_s: 0.2,
            slots_per_sec: 85_000.0,
            pass_slots_per_sec: vec![85_000.0],
            iters: 3,
            allocs: None,
            allocs_per_slot: None,
            slot_level: true,
            alloc_limit: Some(MAX_ALLOCS_PER_SLOT),
        }];
        let baseline = r#"{
"entries":[
  {"name":"scat2/hash","n":10000,"slots":17000,"identified":10000,"best_wall_s":0.6,"slots_per_sec":1.0,"iters":2,"slot_level":true},
  {"name":"scat2/hash","n":500,"slots":900,"identified":500,"best_wall_s":0.01,"slots_per_sec":1.0,"iters":9,"slot_level":true}
]
}"#;
        let speedups = compute_speedups(&entries, baseline).unwrap();
        assert_eq!(speedups.len(), 1);
        assert_eq!(speedups[0].n, 10_000);
        assert!((speedups[0].speedup - 3.0).abs() < 1e-12);
        assert!(compute_speedups(&entries, "{\"entries\":[").is_err());
    }

    #[test]
    fn gate_and_baseline_read_pretty_printed_bench_files() {
        let gate = gate_file(BENCH_PR7);
        let pretty_gate = pretty(&gate);
        assert!(pretty_gate.contains("\n    \"name\": \"fcat2/signal-soa\","));
        for slowdown in [1.0, 2.0] {
            let entries = measured(BENCH_PR7, slowdown);
            assert_eq!(
                check_throughput_gate(&entries, &pretty_gate),
                check_throughput_gate(&entries, &gate),
                "slowdown {slowdown}"
            );
        }
        assert_eq!(
            check_throughput_gate(&measured(BENCH_PR7, 1.0), &pretty_gate),
            Ok(())
        );
        let err = check_throughput_gate(&measured(BENCH_PR7, 2.0), &pretty_gate).unwrap_err();
        assert!(err.contains("throughput regressed"), "{err}");

        let pretty = pretty(BENCH_PR7);
        let entries = measured(BENCH_PR7, 1.0);
        let compact = compute_speedups(&entries, BENCH_PR7).unwrap();
        assert_eq!(compact.len(), entries.len());
        assert_eq!(
            format!("{:?}", compute_speedups(&entries, &pretty).unwrap()),
            format!("{compact:?}")
        );
    }

    #[test]
    fn gate_ignores_hash_kernel_speed_and_catches_signal_drops() {
        let gate = gate_file(BENCH_PR7);
        // A host whose membership scan runs 3× faster moves only the
        // `*/hash` cells; the sampled-normalized gate must not notice.
        let fast_hash = measured_scaled(
            BENCH_PR7,
            |name| {
                if name.ends_with("/hash") {
                    3.0
                } else {
                    1.0
                }
            },
        );
        assert_eq!(check_throughput_gate(&fast_hash, &gate), Ok(()));
        // A 30 % signal-soa drop is past the 20 % tolerance and must fail,
        // whatever the hash cells do.
        for hash_scale in [1.0, 3.0] {
            let slow_signal = measured_scaled(BENCH_PR7, |name| {
                if name.contains("/signal-soa") {
                    0.7
                } else if name.ends_with("/hash") {
                    hash_scale
                } else {
                    1.0
                }
            });
            let err = check_throughput_gate(&slow_signal, &gate).unwrap_err();
            assert!(err.contains("signal/sampled"), "{err}");
        }
        // A stall in one pass, whichever of the two cells it hits, moves one
        // paired ratio; the median of the five does not move.
        for stalled in ["/signal-soa", "/sampled"] {
            let stall = measured_passes(BENCH_PR7, |name, pass| {
                if pass == 2 && name.ends_with(stalled) {
                    0.3
                } else {
                    1.0
                }
            });
            assert_eq!(check_throughput_gate(&stall, &gate), Ok(()), "{stalled}");
        }
        // Without a sampled cell there is nothing to normalize by.
        let no_sampled: Vec<Entry> = measured(BENCH_PR7, 1.0)
            .into_iter()
            .filter(|e| !e.name.ends_with("/sampled"))
            .collect();
        assert!(check_throughput_gate(&no_sampled, &gate).is_err());
    }

    #[test]
    fn gate_compares_the_committed_median_paired_ratio() {
        // The committed side of the gate is the recorded median of paired
        // passes, never a quotient of best-of-pass throughputs: a file
        // without `paired_ratio` rows gives the gate nothing to compare.
        let entries = measured(BENCH_PR7, 1.0);
        let err = check_throughput_gate(&entries, BENCH_PR7).unwrap_err();
        assert!(err.contains("no (signal-soa, sampled) cell pair"), "{err}");
        // One pass reads a ratio three times the others; the recorded
        // median ignores it.
        let lucky = measured_passes(BENCH_PR7, |name, pass| {
            if pass == 0 && name.ends_with("/signal-soa") {
                3.0
            } else {
                1.0
            }
        });
        let gate = render_json(&BenchOptions::default(), &lucky, None);
        for (name, n, ratio) in committed_cells(&gate, "paired_ratio").unwrap() {
            let e = entries.iter().find(|e| e.name == name && e.n == n).unwrap();
            assert_eq!(Some(ratio), paired_ratio(&entries, e), "{name} n={n}");
        }
        assert_eq!(check_throughput_gate(&entries, &gate), Ok(()));
        // The committed gate file records a ratio for each signal cell at the
        // population the smoke run times.
        let committed = committed_cells(BENCH_PR25, "paired_ratio").unwrap();
        for name in ["fcat2/signal-soa", "scat2/signal-soa"] {
            assert!(
                committed
                    .iter()
                    .any(|(cell, n, r)| cell == name && *n == ALLOC_CHECK_MIN_TAGS && *r > 0.0),
                "{name}"
            );
        }
    }

    #[test]
    fn median_paired_ratio_pairs_passes_and_skips_unusable_ones() {
        assert_eq!(
            median_paired_ratio(&[1.0, 9.0, 3.0], &[1.0, 1.0, 1.0]),
            Some(3.0)
        );
        assert_eq!(median_paired_ratio(&[2.0, 8.0], &[1.0, 2.0]), Some(3.0));
        assert_eq!(
            median_paired_ratio(&[4.0, f64::INFINITY], &[2.0, 1.0]),
            Some(2.0)
        );
        assert_eq!(median_paired_ratio(&[1.0], &[0.0]), None);
        assert_eq!(median_paired_ratio(&[], &[]), None);
    }

    #[test]
    fn signal_cells_pair_with_the_sampled_cell_of_their_family_and_n() {
        let cell = |name: &str, n: usize| {
            let mut e = measured(BENCH_PR7, 1.0).remove(0);
            e.name = name.into();
            e.n = n;
            e
        };
        let cells = [
            cell("scat2/sampled", 64),
            cell("scat2/sampled", 2_000),
            cell("fcat2/sampled", 64),
            cell("scat2/signal-soa", 64),
            cell("fcat2/signal-soa", 2_000),
        ];
        let partners: Vec<_> = cells
            .iter()
            .map(|e| gate_normalizer(cells.iter(), e))
            .collect();
        assert_eq!(partners, [None, None, None, Some(0), None]);
    }

    #[test]
    fn smoke_run_writes_json() {
        let dir = std::env::temp_dir().join("anc_rfid_perf_test");
        let out = dir.join("bench_smoke.json");
        let opts = BenchOptions {
            smoke: true,
            budget_ms: Some(1),
            check_allocs: false,
            out: out.clone(),
            ..BenchOptions::default()
        };
        run(&opts, None).expect("smoke bench runs");
        let json = std::fs::read_to_string(&out).expect("json written");
        assert!(json.contains("\"schema\":\"anc-rfid-bench/1\""));
        let doc = Json::parse(&json).expect("bench JSON parses");
        let kernel = doc.get("hash_kernel").and_then(Json::as_str);
        assert_eq!(kernel, Some(hash::membership_kernel()));
        assert!(doc.get("nproc").and_then(Json::as_usize) >= Some(1));
        assert!(json.contains("\"name\":\"scat2/hash\""));
        assert!(json.contains("\"name\":\"aqs\""));
        assert!(json.contains("\"name\":\"fcat2/signal-level\""));
        let ratios = committed_cells(&json, "paired_ratio").expect("bench JSON parses");
        let soa_cells = json.matches("/signal-soa\"").count();
        assert_eq!(
            ratios.len(),
            soa_cells,
            "one paired ratio per signal-soa cell"
        );
        // Every entry is readable by the same reader used for baselines.
        let cells = committed_cells(&json, "best_wall_s").expect("bench JSON parses");
        assert_eq!(cells.len(), json.matches("\"slots\":").count());
        std::fs::remove_file(&out).ok();
    }

    /// Inputs the JSON reader meets from outside the process: a committed
    /// bench file, a JSONL trace of a 200-tag FCAT-2 run, and `repro serve`
    /// request lines.
    fn fuzz_seeds() -> &'static [Vec<u8>] {
        static SEEDS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
        SEEDS.get_or_init(|| {
            let mut trace = JsonlSink::new(Vec::new());
            let tags = population::uniform(&mut seeded_rng(9), 200);
            rfid_sim::run_inventory_observed(
                &Fcat::new(FcatConfig::default()),
                &tags,
                &SimConfig::default().with_seed(9),
                &mut trace,
            )
            .expect("traced run");
            let requests = [
                r#"{"protocol":"fcat","tags":500,"spacing":20,"seed":7}"#,
                r#"{"protocol":"SCAT","lambda":4,"seed":9,"tags":50,"width":30,"height":20,
                    "spacing":10,"range":8,"workers":2,"threads":3,"queue_capacity":16,
                    "drain_delay_ms":5}"#,
                r#"{"churn_rate":0,"churn_dwell":3.5,"churn_rounds":12,"churn_audit_every":1}"#,
                r#"{"tags":30,"seed":5,"churn_rate":2,"churn_rounds":6,"churn_audit_every":2}"#,
                r#"{"width":"wide"}"#,
            ];
            vec![
                BENCH_PR7.as_bytes().to_vec(),
                trace.finish().expect("in-memory trace"),
                requests.join("\n").into_bytes(),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Truncated, byte-flipped and chunk-dropped copies of the seeds
        /// never panic the parser, the trace replay or the gate/baseline
        /// reader: failures come back as `Err`, and replay still counts
        /// every non-blank line.
        #[test]
        fn mutated_inputs_never_panic_the_json_readers(
            seed in 0usize..3,
            edits in proptest::collection::vec((0u8..3, any::<u64>(), any::<u8>()), 1..8),
        ) {
            let mut bytes = fuzz_seeds()[seed].clone();
            for (kind, at, byte) in edits {
                if bytes.is_empty() {
                    break;
                }
                let at = (at % bytes.len() as u64) as usize;
                match kind {
                    0 => bytes.truncate(at),
                    1 => bytes[at] ^= byte.max(1),
                    _ => {
                        bytes.drain(at..(at + usize::from(byte)).min(bytes.len()));
                    }
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            let _ = Json::parse(&text);
            for line in text.lines() {
                let _ = Json::parse(line);
            }
            match replay::summarize(bytes.as_slice()) {
                Ok(summary) => prop_assert_eq!(
                    summary.lines,
                    text.lines().filter(|l| !l.trim().is_empty()).count() as u64
                ),
                // The only error replay may return is the reader's: bytes
                // that are not UTF-8.
                Err(error) => prop_assert!(std::str::from_utf8(&bytes).is_err(), "{error}"),
            }
            let entries = measured(BENCH_PR7, 1.0);
            let _ = check_throughput_gate(&entries, &text);
            let _ = compute_speedups(&entries, &text);
        }
    }
}
