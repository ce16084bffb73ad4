//! One function per paper table/figure, plus the ablations from DESIGN.md.

use crate::output::{f1, fx, Table};
use rfid_analysis::bounds;
use rfid_analysis::estimator::normalized_bias;
use rfid_analysis::moments::slot_moments;
use rfid_analysis::omega::optimal_omega;
use rfid_anc::{
    BackendModel, CompressedSensing, EstimatorInput, Fcat, FcatConfig, Mpr, RecoveryPolicy,
    ResolutionModel, Scat, ScatConfig, SignalResolutionConfig,
};
use rfid_protocols::{Abs, Aqs, Dfsa, Edfsa, SlottedAloha};
use rfid_signal::{anc, cascade, ChannelModel, MskConfig};
use rfid_sim::rounds::{MultiRoundSession, StatelessSession};
use rfid_sim::{
    run_inventory, run_many, run_monitoring, seeded_rng, AntiCollisionProtocol, DwellModel,
    ErrorModel, LambdaPolicy, MonitorConfig, MonitorDetectionKind, MonitorReport, MultiRunReport,
    PopulationSchedule, SimConfig, SimError,
};
use rfid_types::TagId;

/// Scale knobs shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    /// Repetitions per cell (the paper averages 100).
    pub runs: usize,
    /// Master seed.
    pub seed: u64,
    /// Reduced population grid for smoke tests / quick runs.
    pub quick: bool,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            runs: 10,
            seed: 42,
            quick: false,
        }
    }
}

impl ExperimentOptions {
    fn sim(&self) -> SimConfig {
        SimConfig::default().with_seed(self.seed)
    }

    fn table1_populations(&self) -> Vec<usize> {
        if self.quick {
            vec![1_000, 5_000, 10_000]
        } else {
            (1..=20).map(|k| k * 1_000).collect()
        }
    }

    fn table3_populations(&self) -> Vec<usize> {
        if self.quick {
            vec![1_000, 5_000]
        } else {
            vec![1_000, 5_000, 10_000, 15_000, 20_000]
        }
    }
}

fn fcat(lambda: u32) -> Fcat {
    Fcat::new(FcatConfig::default().with_lambda(lambda))
}

fn fcat_run(lambda: u32, n: usize, opts: &ExperimentOptions) -> Result<MultiRunReport, SimError> {
    run_many(&fcat(lambda), n, opts.runs, &opts.sim())
}

/// All seven Table I/II protocols, boxed for uniform iteration.
fn comparison_protocols() -> Vec<Box<dyn AntiCollisionProtocol + Sync>> {
    vec![
        Box::new(fcat(2)),
        Box::new(fcat(3)),
        Box::new(fcat(4)),
        Box::new(Dfsa::new()),
        Box::new(Edfsa::new()),
        Box::new(Abs::new()),
        Box::new(Aqs::new()),
    ]
}

/// **Table I** — reading throughput (tags/s) for N = 1 000…20 000.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_table1(opts: &ExperimentOptions) -> Result<Table, SimError> {
    let protocols = comparison_protocols();
    let mut columns: Vec<&str> = vec!["N"];
    let names: Vec<String> = protocols.iter().map(|p| p.name().to_owned()).collect();
    columns.extend(names.iter().map(String::as_str));
    let mut table = Table::new("Table I: reading throughput (tags/sec)", &columns);
    for n in opts.table1_populations() {
        let mut row = vec![n.to_string()];
        for protocol in &protocols {
            let agg = run_many(protocol.as_ref(), n, opts.runs, &opts.sim())?;
            row.push(f1(agg.throughput.mean));
        }
        table.push_row(row);
    }
    Ok(table)
}

/// **Table II** — empty/singleton/collision slot counts at N = 10 000.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_table2(opts: &ExperimentOptions) -> Result<Table, SimError> {
    let n = if opts.quick { 2_000 } else { 10_000 };
    let protocols = comparison_protocols();
    let mut columns: Vec<&str> = vec!["slots"];
    let names: Vec<String> = protocols.iter().map(|p| p.name().to_owned()).collect();
    columns.extend(names.iter().map(String::as_str));
    let mut table = Table::new(&format!("Table II: slot-class counts at N = {n}"), &columns);
    let mut aggs = Vec::new();
    for protocol in &protocols {
        aggs.push(run_many(protocol.as_ref(), n, opts.runs, &opts.sim())?);
    }
    for (label, pick) in [
        (
            "empty",
            &(|a: &MultiRunReport| a.empty_slots.mean) as &dyn Fn(&MultiRunReport) -> f64,
        ),
        ("singleton", &|a| a.singleton_slots.mean),
        ("collision", &|a| a.collision_slots.mean),
        ("total", &|a| a.total_slots.mean),
    ] {
        let mut row = vec![label.to_owned()];
        for agg in &aggs {
            row.push(format!("{:.0}", pick(agg)));
        }
        table.push_row(row);
    }
    Ok(table)
}

/// **Table III** — tag IDs resolved from collision slots (FCAT-2/3/4).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_table3(opts: &ExperimentOptions) -> Result<Table, SimError> {
    let mut table = Table::new(
        "Table III: tag IDs resolved from collision slots",
        &["N", "FCAT-2", "FCAT-3", "FCAT-4"],
    );
    for n in opts.table3_populations() {
        let mut row = vec![n.to_string()];
        for lambda in 2..=4 {
            let agg = fcat_run(lambda, n, opts)?;
            row.push(format!("{:.0}", agg.resolved_from_collisions.mean));
        }
        table.push_row(row);
    }
    Ok(table)
}

/// **Table IV** — simulated optimal ω vs the computed `(λ!)^{1/λ}`.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_table4(opts: &ExperimentOptions) -> Result<Table, SimError> {
    let n = if opts.quick { 2_000 } else { 10_000 };
    let mut table = Table::new(
        &format!("Table IV: optimal vs computed omega at N = {n}"),
        &[
            "lambda",
            "optimal w (search)",
            "max throughput",
            "computed w",
            "FCAT throughput",
        ],
    );
    let step = if opts.quick { 0.2 } else { 0.04 };
    for lambda in 2..=4u32 {
        let computed = optimal_omega(lambda);
        let mut best = (0.0f64, f64::MIN);
        let mut w = 0.6;
        while w <= 3.2 {
            let cfg = FcatConfig::default().with_lambda(lambda).with_omega(w);
            let agg = run_many(&Fcat::new(cfg), n, opts.runs, &opts.sim())?;
            if agg.throughput.mean > best.1 {
                best = (w, agg.throughput.mean);
            }
            w += step;
        }
        let fcat_tp = fcat_run(lambda, n, opts)?.throughput.mean;
        table.push_row(vec![
            lambda.to_string(),
            fx(best.0, 2),
            f1(best.1),
            fx(computed, 2),
            f1(fcat_tp),
        ]);
    }
    Ok(table)
}

/// **Fig. 3** — |Bias(N̂/N)| vs N for ω ∈ {1.414, 1.817, 2.213} (analytic,
/// Eq. 16, f = 30).
#[must_use]
pub fn run_fig3(opts: &ExperimentOptions) -> Table {
    let mut table = Table::new(
        "Fig. 3: |bias(N_hat/N)| vs N (f = 30)",
        &["N", "w=1.414", "w=1.817", "w=2.213"],
    );
    let step = if opts.quick { 10_000 } else { 2_500 };
    let mut n = 2_500u64;
    while n <= 40_000 {
        let mut row = vec![n.to_string()];
        for lambda in 2..=4u32 {
            let omega = optimal_omega(lambda);
            row.push(fx(normalized_bias(n, omega, 30).abs(), 4));
        }
        table.push_row(row);
        n += step;
    }
    table
}

/// **Fig. 4** — E(n₀), E(n₁), E(n_c) vs the actual tag count, at the
/// design point p = 1.414/10 000, f = 30 (analytic, Eqs. 7/9/10).
#[must_use]
pub fn run_fig4(opts: &ExperimentOptions) -> Table {
    let mut table = Table::new(
        "Fig. 4: expected slot-class counts per frame (p = 1.414/10000, f = 30)",
        &["N", "E(n0)", "E(n1)", "E(nc)"],
    );
    let p = 1.414 / 10_000.0;
    let step = if opts.quick { 10_000 } else { 2_000 };
    let mut n = 0u64;
    while n <= 40_000 {
        let m = slot_moments(n, p, 30);
        table.push_row(vec![
            n.to_string(),
            fx(m.empty, 2),
            fx(m.singleton, 2),
            fx(m.collision, 2),
        ]);
        n += step;
    }
    table
}

/// **Fig. 5** — FCAT throughput vs ω at N = 10 000 for λ = 2, 3, 4.
///
/// The rows do not run at the ω they name: an `l`-bit threshold realizes
/// `(⌊p·2^l⌋ + 1)/2^l`, so with an exact estimate (p = ω/N) every row runs
/// at the next multiple of N/2^l above ω, 0.153 at N = 10 000 and l = 16.
/// The left end moves most: ω = 0.1 runs at load 0.153, and ω = 0.2 and
/// 0.3 both at 0.305.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_fig5(opts: &ExperimentOptions) -> Result<Table, SimError> {
    let n = if opts.quick { 2_000 } else { 10_000 };
    let mut table = Table::new(
        &format!("Fig. 5: FCAT throughput vs omega (N = {n})"),
        &["omega", "FCAT-2", "FCAT-3", "FCAT-4"],
    );
    let step = if opts.quick { 0.5 } else { 0.1 };
    let mut w = 0.1f64;
    while w <= 3.0 + 1e-9 {
        let mut row = vec![fx(w, 1)];
        for lambda in 2..=4u32 {
            let cfg = FcatConfig::default().with_lambda(lambda).with_omega(w);
            let agg = run_many(&Fcat::new(cfg), n, opts.runs, &opts.sim())?;
            row.push(f1(agg.throughput.mean));
        }
        table.push_row(row);
        w += step;
    }
    Ok(table)
}

/// **Fig. 6** — FCAT throughput vs frame size f at N = 10 000.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_fig6(opts: &ExperimentOptions) -> Result<Table, SimError> {
    let n = if opts.quick { 2_000 } else { 10_000 };
    let mut table = Table::new(
        &format!("Fig. 6: FCAT throughput vs frame size (N = {n})"),
        &["f", "FCAT-2", "FCAT-3", "FCAT-4"],
    );
    let frames: &[u32] = if opts.quick {
        &[2, 10, 30, 100]
    } else {
        &[2, 5, 10, 20, 30, 40, 60, 80, 100, 120, 140, 160, 180, 200]
    };
    for &f in frames {
        let mut row = vec![f.to_string()];
        for lambda in 2..=4u32 {
            let cfg = FcatConfig::default().with_lambda(lambda).with_frame_size(f);
            let agg = run_many(&Fcat::new(cfg), n, opts.runs, &opts.sim())?;
            row.push(f1(agg.throughput.mean));
        }
        table.push_row(row);
    }
    Ok(table)
}

/// **Ablation A** — estimator input: collisions (paper) vs empties vs
/// oracle; also SCAT with its pre-step for context.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_ablation_estimator(opts: &ExperimentOptions) -> Result<Table, SimError> {
    let n = if opts.quick { 2_000 } else { 10_000 };
    let mut table = Table::new(
        &format!("Ablation A: estimator input (N = {n}, FCAT-2)"),
        &["estimator", "throughput", "total slots", "resolved"],
    );
    for (label, input) in [
        ("collisions (paper)", EstimatorInput::Collisions),
        ("empties", EstimatorInput::Empties),
        ("oracle", EstimatorInput::Oracle),
    ] {
        let cfg = FcatConfig::default().with_estimator(input);
        let agg = run_many(&Fcat::new(cfg), n, opts.runs, &opts.sim())?;
        table.push_row(vec![
            label.to_owned(),
            f1(agg.throughput.mean),
            format!("{:.0}", agg.total_slots.mean),
            format!("{:.0}", agg.resolved_from_collisions.mean),
        ]);
    }
    // SCAT variants for context: per-slot advertisements cost throughput.
    for (label, init) in [
        ("SCAT-2 oracle N", rfid_anc::InitialPopulation::Known),
        (
            "SCAT-2 pre-step",
            rfid_anc::InitialPopulation::PreStep {
                frame_size: 32,
                rounds: 8,
            },
        ),
    ] {
        let cfg = ScatConfig::default().with_initial(init);
        let agg = run_many(&Scat::new(cfg), n, opts.runs, &opts.sim())?;
        table.push_row(vec![
            label.to_owned(),
            f1(agg.throughput.mean),
            format!("{:.0}", agg.total_slots.mean),
            format!("{:.0}", agg.resolved_from_collisions.mean),
        ]);
    }
    Ok(table)
}

/// **Ablation B** — signal-level ANC resolvability vs noise (SNR sweep):
/// the measured ground truth behind the slot-level `k ≤ λ` abstraction.
#[must_use]
pub fn run_ablation_snr(opts: &ExperimentOptions) -> Table {
    let mut table = Table::new(
        "Ablation B: signal-level resolution success vs noise (per-component SNR)",
        &["noise_std", "SNR(dB)@a=0.75", "k=2", "k=3", "k=4"],
    );
    let trials = if opts.quick { 40 } else { 200 };
    let msk = MskConfig::default();
    for &noise in &[0.01f64, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6] {
        let model = ChannelModel::default().with_noise_std(noise);
        let mut row = vec![fx(noise, 2), f1(model.snr_db(0.75))];
        for k in 2..=4usize {
            let mut rng = seeded_rng(opts.seed ^ ((k as u64) << 8));
            let mut ok = 0u32;
            for _ in 0..trials {
                // Random IDs: near-identical IDs give near-collinear
                // waveforms that genuinely resist subtraction.
                let ids: Vec<TagId> = rfid_types::population::uniform(&mut rng, k);
                let mixed = anc::transmit_mixed(&ids, &msk, &model, &mut rng);
                if anc::resolve(&mixed, &ids[..k - 1], &msk) == Ok(ids[k - 1]) {
                    ok += 1;
                }
            }
            row.push(format!("{:.0}%", 100.0 * f64::from(ok) / trials as f64));
        }
        table.push_row(row);
    }
    table
}

/// **Ablation C** — throughput under unresolvable-collision probability
/// (§IV-E's noisy-environment degradation).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_ablation_noise(opts: &ExperimentOptions) -> Result<Table, SimError> {
    let n = if opts.quick { 1_000 } else { 5_000 };
    let mut table = Table::new(
        &format!("Ablation C: throughput vs unresolvable-collision probability (N = {n})"),
        &["P(unresolvable)", "FCAT-2", "DFSA"],
    );
    for &p_bad in &[0.0f64, 0.1, 0.25, 0.5, 0.75, 1.0] {
        let config = opts.sim().with_errors(ErrorModel::new(0.0, 0.0, p_bad));
        let fcat_tp = run_many(&fcat(2), n, opts.runs, &config)?.throughput.mean;
        let dfsa_tp = run_many(&Dfsa::new(), n, opts.runs, &config)?
            .throughput
            .mean;
        table.push_row(vec![fx(p_bad, 2), f1(fcat_tp), f1(dfsa_tp)]);
    }
    Ok(table)
}

/// **Extension D** — CRDSA (the satellite collision-resolution protocol
/// the paper cites in §III-C) head-to-head with FCAT and DFSA: two
/// different ways of exploiting collision slots.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_extension_crdsa(opts: &ExperimentOptions) -> Result<Table, SimError> {
    let mut table = Table::new(
        "Extension D: CRDSA vs FCAT-2 vs DFSA (tags/sec)",
        &["N", "FCAT-2", "CRDSA", "DFSA"],
    );
    let populations: Vec<usize> = if opts.quick {
        vec![1_000, 5_000]
    } else {
        vec![1_000, 5_000, 10_000, 20_000]
    };
    for n in populations {
        let fcat_tp = fcat_run(2, n, opts)?.throughput.mean;
        let crdsa_tp = run_many(&rfid_protocols::Crdsa::new(), n, opts.runs, &opts.sim())?
            .throughput
            .mean;
        let dfsa_tp = run_many(&Dfsa::new(), n, opts.runs, &opts.sim())?
            .throughput
            .mean;
        table.push_row(vec![n.to_string(), f1(fcat_tp), f1(crdsa_tp), f1(dfsa_tp)]);
    }
    Ok(table)
}

/// **Extension E** — the closed-form FCAT model of
/// [`rfid_analysis::throughput`] against simulation.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_extension_model(opts: &ExperimentOptions) -> Result<Table, SimError> {
    let n = if opts.quick { 2_000 } else { 10_000 };
    let timing = rfid_types::TimingConfig::philips_icode();
    let mut table = Table::new(
        &format!("Extension E: closed-form model vs simulation (N = {n})"),
        &[
            "lambda",
            "model tags/s",
            "measured tags/s",
            "model resolved %",
            "measured resolved %",
        ],
    );
    for lambda in 2..=4u32 {
        let model = rfid_analysis::fcat_model(&timing, lambda, optimal_omega(lambda), 30);
        let agg = fcat_run(lambda, n, opts)?;
        table.push_row(vec![
            lambda.to_string(),
            f1(model.throughput_tags_per_sec),
            f1(agg.throughput.mean),
            f1(100.0 * model.resolved_fraction),
            f1(100.0 * agg.resolved_from_collisions.mean / n as f64),
        ]);
    }
    Ok(table)
}

/// **Extension F** — periodic reading with churn (§I's workload):
/// throughput per round for warm ABS, warm FCAT, and stateless DFSA under
/// increasing churn.
///
/// A row `(d, A)` makes each present tag leave after a round with
/// probability `d` and `A` tags arrive per round on average: a
/// [`DwellModel::poisson`] schedule with mean dwell `-1/ln(1 - d)`, whose
/// whole-round dwell is geometric with exactly that per-round departure
/// chance (EXPERIMENTS.md, Extension F). Every round is a full inventory.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_extension_rounds(opts: &ExperimentOptions) -> Result<Table, SimError> {
    use rfid_anc::FcatSession;
    use rfid_protocols::{AbsSession, AqsSession};

    let n = if opts.quick { 500 } else { 5_000 };
    let rounds = 6;
    let mut table = Table::new(
        &format!("Extension F: periodic reading, warm-round throughput (N = {n}, {rounds} rounds)"),
        &[
            "churn (dep%, arrivals)",
            "FCAT-2 warm",
            "ABS warm",
            "AQS warm",
            "DFSA stateless",
        ],
    );
    let churns: &[(f64, usize)] = &[(0.0, 0), (0.02, n / 50), (0.10, n / 10), (0.30, n * 3 / 10)];
    for &(dep, arr) in churns {
        let schedule = if dep == 0.0 {
            PopulationSchedule::static_population(n, rounds, opts.seed)
        } else {
            let model = DwellModel::poisson(arr as f64, -1.0 / (1.0 - dep).ln());
            PopulationSchedule::generate(&model, n, rounds, opts.seed)
        };
        let mut row = vec![format!("{:.0}% +{arr}", dep * 100.0)];
        let mut sessions: Vec<Box<dyn MultiRoundSession>> = vec![
            Box::new(FcatSession::new(FcatConfig::default())),
            Box::new(AbsSession::new()),
            Box::new(AqsSession::new()),
            Box::new(StatelessSession::new(Dfsa::new())),
        ];
        for session in &mut sessions {
            let report = run_monitoring(
                session.as_mut(),
                &schedule,
                &MonitorConfig::default(),
                &opts.sim(),
            )?;
            row.push(f1(report.warm_throughput()));
        }
        table.push_row(row);
    }
    Ok(table)
}

/// **Extension G** — full-DSP FCAT vs the slot-level abstraction across
/// population sizes: the end-to-end validation that the paper's
/// simulation model is conservative.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_extension_signal(opts: &ExperimentOptions) -> Result<Table, SimError> {
    use rfid_anc::{Fidelity, SignalLevelConfig};

    let mut table = Table::new(
        "Extension G: slot-level vs signal-level FCAT-2 (tags/sec)",
        &["N", "slot-level", "signal-level", "signal resolved %"],
    );
    let populations: &[usize] = if opts.quick {
        &[50, 150]
    } else {
        &[50, 150, 300, 500]
    };
    let runs = opts.runs.min(5);
    for &n in populations {
        let slot = run_many(&fcat(2), n, runs, &opts.sim())?;
        let cfg = FcatConfig::default().with_fidelity(Fidelity::SignalLevel(SignalLevelConfig {
            msk: MskConfig::default(),
            channel: ChannelModel::new((0.7, 1.0), 0.01),
        }));
        let signal = run_many(&Fcat::new(cfg), n, runs, &opts.sim())?;
        table.push_row(vec![
            n.to_string(),
            f1(slot.throughput.mean),
            f1(signal.throughput.mean),
            f1(100.0 * signal.resolved_from_collisions.mean / n as f64),
        ]);
    }
    Ok(table)
}

/// **SNR sweep** — end-to-end throughput of FCAT-2 with signal-grounded
/// collision resolution vs channel noise, one column per recovery policy,
/// against the best collision-discarding baseline.
///
/// Every cell runs the full protocol: collisions deposit records whose MSK
/// mixtures are synthesized when they are attempted, cascaded subtractions
/// accumulate per-hop residual error, and failed resolutions are handled
/// by the column's [`RecoveryPolicy`].
/// Completeness is structural at any SNR (unresolved tags stay in open
/// contention), so only throughput may fall as noise rises.
///
/// The discarding baselines never attempt resolution, so resolution-model
/// noise cannot touch them: each is evaluated once on the clean slot model
/// and the best is kept as the comparison column.
///
/// Every column here runs the ANC collision-record backend (the
/// `BackendModel::Anc` default); [`run_backend_sweep`] reuses this noise
/// grid to put ANC next to the MPR and compressed-sensing backends.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_snr_sweep(opts: &ExperimentOptions) -> Result<Table, SimError> {
    let n = if opts.quick { 300 } else { 1_500 };
    let runs = if opts.quick { 2 } else { opts.runs.min(5) };
    let grid: &[f64] = if opts.quick {
        &[0.01, 0.2, 0.6]
    } else {
        &[0.01, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6]
    };
    let baselines: Vec<Box<dyn AntiCollisionProtocol + Sync>> = vec![
        Box::new(Dfsa::new()),
        Box::new(Edfsa::new()),
        Box::new(Abs::new()),
        Box::new(Aqs::new()),
    ];
    let mut best_name = String::new();
    let mut best_tp = f64::NEG_INFINITY;
    for protocol in &baselines {
        let agg = run_many(protocol.as_ref(), n, runs, &opts.sim())?;
        if agg.throughput.mean > best_tp {
            best_tp = agg.throughput.mean;
            best_name = protocol.name().to_owned();
        }
    }
    let best_column = format!("best discard ({best_name})");
    let mut table = Table::new(
        &format!("SNR sweep: signal-backed FCAT-2 recovery policies (N = {n})"),
        &[
            "noise_std",
            "SNR(dB)@a=0.75",
            "drop",
            "requery",
            "salvage",
            "requery slots",
            best_column.as_str(),
        ],
    );
    let policies = [
        RecoveryPolicy::DropRecord,
        RecoveryPolicy::requery(),
        RecoveryPolicy::SalvagePartial,
    ];
    for &noise in grid {
        let model = ChannelModel::default().with_noise_std(noise);
        let mut row = vec![fx(noise, 2), f1(model.snr_db(0.75))];
        let mut requery_slots = 0.0;
        for policy in policies {
            let resolution = ResolutionModel::SignalBacked(
                SignalResolutionConfig::default().with_noise_std(noise),
            );
            let cfg = FcatConfig::default()
                .with_lambda(2)
                .with_resolution(resolution)
                .with_recovery(policy);
            let agg = run_many(&Fcat::new(cfg), n, runs, &opts.sim())?;
            row.push(f1(agg.throughput.mean));
            if matches!(policy, RecoveryPolicy::Requery { .. }) {
                requery_slots = agg.requery_slots.mean;
            }
        }
        row.push(f1(requery_slots));
        row.push(f1(best_tp));
        table.push_row(row);
    }
    Ok(table)
}

/// **Backend sweep** — ANC against the wider collision-recovery design
/// space: multi-packet reception (Pudasaini et al., arXiv:1311.7458) and
/// compressed-sensing sparse recovery (Fyhn et al., arXiv:1012.3628),
/// with the slotted-ALOHA bound as the common floor.
///
/// Rows are channel-noise operating points (same grid as `snr-sweep`).
/// Per row:
///
/// * **anc (signal)** — FCAT-2 with signal-grounded resolution at that
///   noise level: the only backend whose recovery degrades with SNR
///   through an actual subtract-and-decode chain.
/// * **mpr m=1/2/4** — FCAT with the MPR backend. MPR is a slot-level
///   capability model with no noise dependence, so its columns are
///   constant across rows: a horizontal line the ANC curve crosses as
///   noise rises. `m = 1` collapses to the slotted-ALOHA baseline —
///   collisions yield nothing and the offered load is `G* = 1`.
/// * **cs** — FCAT with the compressed-sensing backend, its success
///   curve anchored at the row's channel SNR (the one non-ANC column
///   that *does* follow the noise grid).
/// * **aloha** — the independent `SlottedAloha` implementation, which
///   `mpr m=1` must match (asserted by `tests/backends.rs`).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_backend_sweep(opts: &ExperimentOptions) -> Result<Table, SimError> {
    let n = if opts.quick { 300 } else { 1_500 };
    let runs = if opts.quick { 2 } else { opts.runs.min(5) };
    let grid: &[f64] = if opts.quick {
        &[0.01, 0.2, 0.6]
    } else {
        &[0.01, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6]
    };

    // Noise-independent columns, evaluated once: the ALOHA floor and the
    // MPR capability ladder.
    let aloha = run_many(&SlottedAloha::new(), n, runs, &opts.sim())?
        .throughput
        .mean;
    let mut mpr = Vec::new();
    for m in [1u32, 2, 4] {
        let cfg = FcatConfig::default().with_backend(BackendModel::Mpr(Mpr::new(m)));
        mpr.push(
            run_many(&Fcat::new(cfg), n, runs, &opts.sim())?
                .throughput
                .mean,
        );
    }

    let mut table = Table::new(
        &format!("Backend sweep: collision-recovery backends, throughput (N = {n})"),
        &[
            "noise_std",
            "SNR(dB)@a=0.75",
            "anc (signal)",
            "mpr m=1",
            "mpr m=2",
            "mpr m=4",
            "cs",
            "aloha",
        ],
    );
    for &noise in grid {
        let model = ChannelModel::default().with_noise_std(noise);
        let snr_db = model.snr_db(0.75);

        let resolution =
            ResolutionModel::SignalBacked(SignalResolutionConfig::default().with_noise_std(noise));
        let anc_cfg = FcatConfig::default()
            .with_lambda(2)
            .with_resolution(resolution);
        let anc = run_many(&Fcat::new(anc_cfg), n, runs, &opts.sim())?;

        let cs_backend =
            BackendModel::CompressedSensing(CompressedSensing::default().with_snr_db(snr_db));
        let cs_cfg = FcatConfig::default().with_backend(cs_backend);
        let cs = run_many(&Fcat::new(cs_cfg), n, runs, &opts.sim())?;

        table.push_row(vec![
            fx(noise, 2),
            f1(snr_db),
            f1(anc.throughput.mean),
            f1(mpr[0]),
            f1(mpr[1]),
            f1(mpr[2]),
            f1(cs.throughput.mean),
            f1(aloha),
        ]);
    }
    Ok(table)
}

/// **Calibration** — fits the closed-form cascade-residual model against
/// the faithful waveform path.
///
/// The signal-backed resolution tier compresses cascaded subtraction error
/// into one constant: a hop at depth `d` suffers extra noise variance
/// `σ²·((1+r)^(d−1) − 1)` ([`cascade::cascade_noise_std`]). This
/// experiment measures the *actual* decode-failure rate of sequential
/// peeling ([`cascade::peel_sequential`] — each hop's scalar gain fit
/// error rides into the next) over a (noise, depth) grid, re-runs matched
/// trials through the model tier for candidate `r` values, and keeps the
/// `r` minimizing the summed squared failure-rate gap.
///
/// The fitted value is committed as
/// [`rfid_anc::CALIBRATED_RESIDUAL_PER_HOP`] (the default
/// `residual_per_hop` of [`SignalResolutionConfig`]); `tests/fidelity.rs`
/// asserts the two tiers keep agreeing under that constant.
#[must_use]
pub fn run_calibrate(opts: &ExperimentOptions) -> Table {
    let trials: u64 = if opts.quick { 60 } else { 240 };
    let sigmas: &[f64] = if opts.quick {
        &[0.1, 0.15, 0.2]
    } else {
        &[0.05, 0.1, 0.15, 0.2, 0.25]
    };
    let depths: &[u32] = &[2, 3];
    let msk = MskConfig::default();

    // Waveform tier: a (d+1)-mixture with d components peeled one at a
    // time; failure = the last ID does not decode from the residual.
    let mut wave_fail = vec![vec![0.0f64; depths.len()]; sigmas.len()];
    for (si, &sigma) in sigmas.iter().enumerate() {
        let model = ChannelModel::default().with_noise_std(sigma);
        for (di, &depth) in depths.iter().enumerate() {
            let k = depth as usize + 1;
            let mut failures = 0u32;
            for t in 0..trials {
                let mut rng = seeded_rng(opts.seed ^ (((si * 16 + di) as u64) << 32 | t));
                let ids: Vec<TagId> = rfid_types::population::uniform(&mut rng, k);
                let mixed = anc::transmit_mixed(&ids, &msk, &model, &mut rng);
                let attempt = cascade::peel_sequential(&mixed, &ids[..k - 1], &msk, sigma);
                if attempt.recovered != Ok(ids[k - 1]) {
                    failures += 1;
                }
            }
            wave_fail[si][di] = f64::from(failures) / trials as f64;
        }
    }

    // Model tier: 2-mixtures (precomputed once per noise level) resolved
    // with the candidate r's depth-dependent extra noise injected.
    let mixtures: Vec<Vec<(Vec<rfid_signal::Complex>, Vec<TagId>)>> = sigmas
        .iter()
        .enumerate()
        .map(|(si, &sigma)| {
            let model = ChannelModel::default().with_noise_std(sigma);
            (0..trials)
                .map(|t| {
                    let mut rng = seeded_rng(opts.seed ^ 0xCA11 ^ ((si as u64) << 32 | t));
                    let ids: Vec<TagId> = rfid_types::population::uniform(&mut rng, 2);
                    (anc::transmit_mixed(&ids, &msk, &model, &mut rng), ids)
                })
                .collect()
        })
        .collect();
    let model_fail = |r: f64, si: usize, depth: u32| -> f64 {
        let sigma = sigmas[si];
        let extra = cascade::cascade_noise_std(sigma, r, depth);
        let mut failures = 0u32;
        for (t, (mixed, ids)) in mixtures[si].iter().enumerate() {
            // Common random numbers across candidate r values: the same
            // seed per trial keeps the fit deterministic and low-variance.
            let mut rng = seeded_rng(opts.seed ^ 0x0DE1 ^ (u64::from(depth) << 48 | t as u64));
            let attempt = cascade::resolve_cascaded(mixed, &ids[..1], &msk, sigma, extra, &mut rng);
            if attempt.recovered != Ok(ids[1]) {
                failures += 1;
            }
        }
        f64::from(failures) / trials as f64
    };

    let step = if opts.quick { 0.1 } else { 0.05 };
    let mut best = (0.0f64, f64::INFINITY);
    let mut r = step;
    while r <= 1.6 + 1e-9 {
        let mut loss = 0.0;
        for (si, wave_row) in wave_fail.iter().enumerate() {
            for (di, &depth) in depths.iter().enumerate() {
                let gap = model_fail(r, si, depth) - wave_row[di];
                loss += gap * gap;
            }
        }
        if loss < best.1 {
            best = (r, loss);
        }
        r += step;
    }
    let r_fit = best.0;

    let mut table = Table::new(
        &format!("Calibration: waveform-path vs model-tier decode failure (fitted r = {r_fit:.2})"),
        &[
            "noise_std",
            "depth",
            "waveform fail %",
            "model fail %",
            "gap pp",
            "r_fit",
        ],
    );
    for (si, &sigma) in sigmas.iter().enumerate() {
        for (di, &depth) in depths.iter().enumerate() {
            let m = model_fail(r_fit, si, depth);
            let w = wave_fail[si][di];
            table.push_row(vec![
                fx(sigma, 2),
                depth.to_string(),
                f1(100.0 * w),
                f1(100.0 * m),
                f1(100.0 * (m - w).abs()),
                fx(r_fit, 2),
            ]);
        }
    }
    table
}

/// **Lambda sweep** — adaptive λ against every fixed λ across the SNR
/// range of the `snr-sweep` experiment.
///
/// Fixed columns run signal-backed FCAT at λ ∈ {2, 3, 4}; the adaptive
/// column enables [`LambdaPolicy::snr_window`], whose
/// [`rfid_anc::LambdaController`] re-selects λ (and the matching ω*) from
/// the windowed residual-SNR mean at every frame boundary. The `mean λ` /
/// `final λ` columns come from one representative run's λ trajectory,
/// weighted by slots spent at each setting.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_lambda_sweep(opts: &ExperimentOptions) -> Result<Table, SimError> {
    let n = if opts.quick { 300 } else { 1_500 };
    let runs = if opts.quick { 2 } else { opts.runs.min(5) };
    let grid: &[f64] = if opts.quick {
        &[0.01, 0.2, 0.6]
    } else {
        &[0.01, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6]
    };
    let mut table = Table::new(
        &format!("Lambda sweep: adaptive vs fixed lambda, signal-backed FCAT (N = {n})"),
        &[
            "noise_std",
            "SNR(dB)@a=0.75",
            "lambda=2",
            "lambda=3",
            "lambda=4",
            "best fixed",
            "adaptive",
            "mean lambda",
            "final lambda",
        ],
    );
    for &noise in grid {
        let model = ChannelModel::default().with_noise_std(noise);
        let mut row = vec![fx(noise, 2), f1(model.snr_db(0.75))];
        let mut best_fixed = f64::NEG_INFINITY;
        for lambda in 2..=4u32 {
            let cfg = FcatConfig::default()
                .with_lambda(lambda)
                .with_omega(optimal_omega(lambda))
                .with_resolution(ResolutionModel::SignalBacked(
                    SignalResolutionConfig::default().with_noise_std(noise),
                ));
            let agg = run_many(&Fcat::new(cfg), n, runs, &opts.sim())?;
            best_fixed = best_fixed.max(agg.throughput.mean);
            row.push(f1(agg.throughput.mean));
        }
        row.push(f1(best_fixed));

        // The adaptive run starts from the middle of the tabulated λ range
        // (a maximum-entropy prior): one promotion from the top, one
        // demotion-plus-one from the bottom, so the convergence cost is
        // balanced whichever way the channel points.
        let adaptive_cfg = FcatConfig::default()
            .with_lambda(3)
            .with_omega(optimal_omega(3))
            .with_resolution(ResolutionModel::SignalBacked(
                SignalResolutionConfig::default().with_noise_std(noise),
            ));
        let adaptive_sim = opts.sim().with_lambda_policy(LambdaPolicy::snr_window());
        let agg = run_many(&Fcat::new(adaptive_cfg.clone()), n, runs, &adaptive_sim)?;
        row.push(f1(agg.throughput.mean));

        // One representative run for the λ trajectory.
        let tags = rfid_types::population::uniform(&mut seeded_rng(opts.seed ^ 0x5EED), n);
        let report = run_inventory(&Fcat::new(adaptive_cfg), &tags, &adaptive_sim)?;
        let (mean_lambda, final_lambda) = trajectory_stats(&report);
        row.push(fx(mean_lambda, 2));
        row.push(final_lambda.to_string());
        table.push_row(row);
    }
    Ok(table)
}

/// **Interference sweep** — concurrent multi-reader speedup vs the
/// reader-to-reader interference radius, for FCAT-2, SCAT-2 and DFSA.
///
/// A fixed seeded warehouse deployment is swept from a grid of reading
/// positions under [`rfid_sim::multi_site_inventory_scheduled`]: the
/// interference graph (coverage-disk overlap, or separation within the
/// radius) is greedily colored into conflict-free time slices, and each
/// slice pays only its slowest site. At radius 0 only coverage overlaps
/// serialize sites, so the schedule packs many sites per slice; as the
/// radius grows the graph densifies until every site conflicts with every
/// other and the sweep degenerates to the serial visit (speedup exactly
/// 1). Per-site inventories are bit-identical to the serial path at every
/// radius — the `unique` column is invariant by construction and the
/// oracle suite in `tests/multisite_schedule.rs` enforces it.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_interference_sweep(opts: &ExperimentOptions) -> Result<Table, SimError> {
    use rfid_sim::{multi_site_inventory_scheduled, Deployment, InterferenceGraph, Schedule};

    let n = if opts.quick { 600 } else { 3_000 };
    let (width, height) = (120.0, 80.0);
    let spacing = 30.0;
    let range = 20.0;
    let deployment = Deployment::uniform(&mut seeded_rng(opts.seed ^ 0x517E), n, width, height);
    let positions = deployment.grid_positions(spacing);
    let radii: &[f64] = if opts.quick {
        &[0.0, 45.0, 150.0]
    } else {
        &[0.0, 20.0, 35.0, 45.0, 60.0, 80.0, 110.0, 150.0]
    };
    let protocols: Vec<Box<dyn AntiCollisionProtocol + Sync>> = vec![
        Box::new(fcat(2)),
        Box::new(Scat::new(ScatConfig::default())),
        Box::new(Dfsa::new()),
    ];
    let mut columns: Vec<String> = vec!["radius".into(), "edges".into(), "slices".into()];
    for protocol in &protocols {
        columns.push(format!("{} speedup", protocol.name()));
    }
    columns.push("unique".into());
    let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = Table::new(
        &format!(
            "Interference sweep: scheduled multi-reader speedup vs radius \
             (N = {n}, {} sites, range {range} m)",
            positions.len()
        ),
        &column_refs,
    );
    for &radius in radii {
        let graph = InterferenceGraph::build(&positions, range, radius);
        let schedule = Schedule::greedy(&graph);
        let mut row = vec![
            fx(radius, 0),
            graph.edges().to_string(),
            schedule.num_slices().to_string(),
        ];
        let mut unique = None;
        for protocol in &protocols {
            let report = multi_site_inventory_scheduled(
                protocol.as_ref(),
                &deployment,
                &positions,
                range,
                radius,
                &opts.sim(),
            )?;
            row.push(fx(report.speedup_vs_serial(), 2));
            unique = Some(report.unique_tags);
        }
        row.push(unique.unwrap_or(0).to_string());
        table.push_row(row);
    }
    Ok(table)
}

/// **Churn sweep** — unknown-/missing-tag detection latency vs arrival
/// rate under dynamic tag populations (DESIGN.md §16).
///
/// A Poisson-churn [`PopulationSchedule`] (mean dwell 10 rounds) is
/// replayed through the continuous-monitoring driver with Gen2-style
/// session persistence (full audit every 4 rounds, delta-only rounds in
/// between). Every PR 8 collision-recovery backend runs under the *same*
/// ground-truth trajectory: slotted ALOHA as the baseline, FCAT-λ with
/// ANC signal-backed resolution at a fixed SNR, FCAT with MPR (M = 2) and
/// compressed sensing, plus SCAT. Cells are mean unknown-tag detection
/// latency in ms (lower is better); the last column is FCAT-2's mean
/// *missing*-tag latency. Latency is monotone in the arrival rate (more
/// contenders per round ⇒ longer rounds between event and read), and the
/// collision-recovering protocols detect sooner because their rounds are
/// shorter.
///
/// Fairness notes: the ALOHA baseline ([`SlottedAloha::new`]) bootstraps
/// its backlog estimate from the true count, so the FCAT/SCAT cells get
/// the matching oracle prior ([`rfid_anc::InitialPopulation::Known`]),
/// and the framed protocols run short 8-slot frames — monitoring rounds
/// are delta-sized, and a 30-slot frame would waste most of its slots on
/// a 2-tag delta.
///
/// # Errors
///
/// Propagates simulation failures from any cell.
pub fn run_churn_sweep(opts: &ExperimentOptions) -> Result<Table, SimError> {
    let initial = if opts.quick { 80 } else { 200 };
    let rounds = if opts.quick { 8 } else { 16 };
    let mean_dwell = 10.0;
    let rates: &[f64] = if opts.quick {
        &[1.0, 4.0]
    } else {
        &[0.5, 1.0, 2.0, 4.0, 8.0]
    };
    let noise = 0.1;
    let snr_db = ChannelModel::default().with_noise_std(noise).snr_db(0.75);
    let monitor = MonitorConfig::persistent(4);
    let config = opts.sim();

    fn latency_ms(report: &MonitorReport, kind: MonitorDetectionKind) -> f64 {
        report.mean_latency_us(kind).map_or(0.0, |us| us / 1_000.0)
    }

    fn cell<S: MultiRoundSession>(
        mut session: S,
        schedule: &PopulationSchedule,
        monitor: &MonitorConfig,
        config: &SimConfig,
    ) -> Result<MonitorReport, SimError> {
        run_monitoring(&mut session, schedule, monitor, config)
    }

    let signal =
        ResolutionModel::SignalBacked(SignalResolutionConfig::default().with_noise_std(noise));
    let mut table = Table::new(
        &format!(
            "Churn sweep: mean unknown-tag detection latency (ms) at SNR {snr_db:.1} dB \
             (Poisson churn, mean dwell {mean_dwell} rounds, N0 = {initial}, {rounds} rounds, \
             persistence on, audit every {})",
            monitor.audit_every
        ),
        &[
            "rate",
            "arrivals",
            "departures",
            "aloha",
            "fcat2 anc",
            "fcat3 anc",
            "mpr m=2",
            "cs",
            "scat2 anc",
            "fcat2 missing",
        ],
    );

    let fcat_base = || {
        FcatConfig::default()
            .with_frame_size(8)
            .with_initial(rfid_anc::InitialPopulation::Known)
    };

    for &rate in rates {
        let model = DwellModel::poisson(rate, mean_dwell);
        let schedule = PopulationSchedule::generate(&model, initial, rounds, opts.seed);

        let aloha = cell(
            StatelessSession::new(SlottedAloha::new()),
            &schedule,
            &monitor,
            &config,
        )?;
        let fcat2 = cell(
            StatelessSession::new(Fcat::new(
                fcat_base().with_lambda(2).with_resolution(signal.clone()),
            )),
            &schedule,
            &monitor,
            &config,
        )?;
        let fcat3 = cell(
            StatelessSession::new(Fcat::new(
                fcat_base().with_lambda(3).with_resolution(signal.clone()),
            )),
            &schedule,
            &monitor,
            &config,
        )?;
        let mpr = cell(
            StatelessSession::new(Fcat::new(
                fcat_base().with_backend(BackendModel::Mpr(Mpr::new(2))),
            )),
            &schedule,
            &monitor,
            &config,
        )?;
        let cs = cell(
            StatelessSession::new(Fcat::new(fcat_base().with_backend(
                BackendModel::CompressedSensing(CompressedSensing::default().with_snr_db(snr_db)),
            ))),
            &schedule,
            &monitor,
            &config,
        )?;
        let scat = cell(
            StatelessSession::new(Scat::new(
                ScatConfig::default()
                    .with_initial(rfid_anc::InitialPopulation::Known)
                    .with_resolution(signal.clone()),
            )),
            &schedule,
            &monitor,
            &config,
        )?;

        table.push_row(vec![
            fx(rate, 1),
            schedule.arrivals().to_string(),
            schedule.departures().to_string(),
            fx(latency_ms(&aloha, MonitorDetectionKind::UnknownTag), 2),
            fx(latency_ms(&fcat2, MonitorDetectionKind::UnknownTag), 2),
            fx(latency_ms(&fcat3, MonitorDetectionKind::UnknownTag), 2),
            fx(latency_ms(&mpr, MonitorDetectionKind::UnknownTag), 2),
            fx(latency_ms(&cs, MonitorDetectionKind::UnknownTag), 2),
            fx(latency_ms(&scat, MonitorDetectionKind::UnknownTag), 2),
            fx(latency_ms(&fcat2, MonitorDetectionKind::MissingTag), 2),
        ]);
    }
    Ok(table)
}

/// Slot-weighted mean and final λ of a report's λ trajectory. Returns the
/// protocol's fixed configuration as a degenerate trajectory when the
/// adaptive controller was off.
fn trajectory_stats(report: &rfid_sim::InventoryReport) -> (f64, u32) {
    let points = &report.lambda_trajectory;
    let Some(first) = points.first() else {
        return (0.0, 0);
    };
    let total_slots = report.slots.total().max(1);
    let mut weighted = 0.0f64;
    for (i, p) in points.iter().enumerate() {
        let until = points.get(i + 1).map_or(total_slots, |next| next.slot);
        weighted += f64::from(p.lambda) * until.saturating_sub(p.slot) as f64;
    }
    let final_lambda = points.last().map_or(first.lambda, |p| p.lambda);
    (weighted / total_slots as f64, final_lambda)
}

/// Reference throughput ceilings (§I/§VII), for annotating output.
#[must_use]
pub fn run_bounds() -> Table {
    let timing = rfid_types::TimingConfig::philips_icode();
    let mut table = Table::new(
        "Analytical throughput ceilings (I-Code timing)",
        &["bound", "tags/sec"],
    );
    table.push_row(vec![
        "ALOHA 1/(eT)".into(),
        f1(bounds::aloha_throughput_bound(&timing)),
    ]);
    table.push_row(vec![
        "tree 1/(2.88T)".into(),
        f1(bounds::tree_throughput_bound(&timing)),
    ]);
    for lambda in 2..=4 {
        table.push_row(vec![
            format!("collision-aware g(w*)/T, lambda={lambda}"),
            f1(bounds::collision_aware_throughput_bound(&timing, lambda)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentOptions {
        ExperimentOptions {
            runs: 2,
            seed: 7,
            quick: true,
        }
    }

    /// The realized load `N·effective_probability(ω/N, l)` at Fig. 5's
    /// left end, as `run_fig5`'s doc states.
    #[test]
    fn fig5_low_omega_rows_run_at_the_quantized_load() {
        use rfid_types::hash::effective_probability;
        let n = 10_000.0;
        let load = |w: f64| n * effective_probability(w / n, 16);
        assert_eq!(load(0.1), n / 65_536.0);
        assert_eq!(load(0.2), 2.0 * n / 65_536.0);
        assert_eq!(load(0.3), 2.0 * n / 65_536.0);
        assert_eq!(format!("{:.3} {:.3}", load(0.1), load(0.3)), "0.153 0.305");
    }

    #[test]
    fn table1_quick_shape_and_ordering() {
        let t = run_table1(&quick()).unwrap();
        assert_eq!(t.columns.len(), 8);
        assert_eq!(t.rows.len(), 3);
        // FCAT-2 beats DFSA on every row.
        for row in &t.rows {
            let fcat2: f64 = row[1].parse().unwrap();
            let dfsa: f64 = row[4].parse().unwrap();
            assert!(fcat2 > dfsa, "row {row:?}");
        }
    }

    #[test]
    fn table3_quick_resolved_grow_with_lambda() {
        let t = run_table3(&quick()).unwrap();
        for row in &t.rows {
            let r2: f64 = row[1].parse().unwrap();
            let r4: f64 = row[3].parse().unwrap();
            assert!(r4 > r2, "row {row:?}");
        }
    }

    #[test]
    fn fig3_fig4_analytic_shapes() {
        let f3 = run_fig3(&quick());
        assert!(f3.rows.len() >= 3);
        let f4 = run_fig4(&quick());
        // E(nc) increases with N.
        let first: f64 = f4.rows.first().unwrap()[3].parse().unwrap();
        let last: f64 = f4.rows.last().unwrap()[3].parse().unwrap();
        assert!(last > first);
    }

    #[test]
    fn ablation_snr_degrades_with_noise() {
        let t = run_ablation_snr(&quick());
        let first_k2: f64 = t.rows.first().unwrap()[2]
            .trim_end_matches('%')
            .parse()
            .unwrap();
        let last_k2: f64 = t.rows.last().unwrap()[2]
            .trim_end_matches('%')
            .parse()
            .unwrap();
        assert!(first_k2 > 90.0, "clean channel resolves: {first_k2}%");
        assert!(last_k2 < 50.0, "heavy noise fails: {last_k2}%");
    }

    #[test]
    fn churn_sweep_quick_monotone_and_recovery_beats_aloha() {
        let t = run_churn_sweep(&quick()).unwrap();
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.columns.len(), 10);
        // Unknown-tag latency grows with the arrival rate (FCAT-2 column).
        let lo: f64 = t.rows[0][4].parse().unwrap();
        let hi: f64 = t.rows[1][4].parse().unwrap();
        assert!(hi > lo, "latency not monotone in rate: {lo} vs {hi}");
        // Collision recovery detects faster than the ALOHA baseline (the
        // fcat2-vs-aloha crossover needs the full grid's populations; the
        // CS backend wins already at quick scale).
        for row in &t.rows {
            let aloha: f64 = row[3].parse().unwrap();
            let cs: f64 = row[7].parse().unwrap();
            assert!(cs < aloha, "cs {cs} not below aloha {aloha}");
        }
        // Every row saw some churn and detected every arrival's worth of
        // missing-tag exposure on audit rounds.
        for row in &t.rows {
            let missing: f64 = row[9].parse().unwrap();
            assert!(missing > 0.0, "no missing-tag detections: {row:?}");
        }
    }

    #[test]
    fn bounds_table_renders() {
        let t = run_bounds();
        assert_eq!(t.rows.len(), 5);
        assert!(t.render().contains("ALOHA"));
    }
}
