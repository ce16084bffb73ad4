//! FCAT — the Framed Collision-Aware Tag identification protocol (§V), the
//! paper's main protocol.
//!
//! FCAT removes SCAT's three inefficiencies (§V-A):
//!
//! 1. **No pre-step estimator** — the remaining-tag count is re-estimated
//!    after every frame from the frame's collision-slot count via Eq. (12).
//! 2. **One advertisement per frame** — `⟨frame index, p_i⟩` is broadcast
//!    before each frame of `f` slots instead of before every slot.
//! 3. **Index acknowledgements** — a resolved collision record is
//!    acknowledged by its 23-bit slot index; the tag that transmitted in
//!    that slot (and is not yet acknowledged) recognizes the index and
//!    stops, saving 96 − 23 bits per resolved ID.

use crate::backend::{BackendModel, RecoveryBackend as _};
use crate::config::{Fidelity, InitialPopulation, Membership};
use crate::engine::{Engine, SlotOutput};
use crate::lambda::LambdaController;
use crate::resolution::{RecoveryPolicy, ResolutionModel};
use rand::rngs::StdRng;
use rfid_analysis::estimator::{
    estimate_remaining_from_collisions, estimate_remaining_from_empties,
};
use rfid_analysis::omega::optimal_omega;
use rfid_obs::{EstimatorEvent, EventSink, NoopSink};
use rfid_sim::{AntiCollisionProtocol, InventoryReport, ObservableProtocol, SimConfig, SimError};
use rfid_types::{SlotClass, TagId};

/// How resolved collision records are acknowledged over the air.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum AckMode {
    /// Announce the 23-bit slot index of the resolved record (§V-A/§V-B,
    /// the paper's FCAT design).
    #[default]
    SlotIndex,
    /// Broadcast the full 96-bit ID, as SCAT does — kept for the ablation
    /// quantifying how much the index scheme actually saves.
    FullId,
}

/// Which per-frame statistic feeds the embedded estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum EstimatorInput {
    /// Invert the collision count `n_c` (Eq. 12) — the paper's choice.
    #[default]
    Collisions,
    /// Invert the empty count `n₀` (Eq. 7) — mentioned and rejected by the
    /// paper for its larger variance; kept for the estimator ablation.
    Empties,
    /// Oracle: skip estimation and use the true remaining count. Isolates
    /// estimator noise in ablations.
    Oracle,
}

/// Configuration of [`Fcat`].
#[derive(Debug, Clone)]
pub struct FcatConfig {
    lambda: u32,
    omega: f64,
    frame_size: u32,
    initial: InitialPopulation,
    estimator: EstimatorInput,
    ack_mode: AckMode,
    membership: Membership,
    fidelity: Fidelity,
    resolution: ResolutionModel,
    recovery: RecoveryPolicy,
    backend: BackendModel,
}

impl FcatConfig {
    /// The paper's evaluation setting: λ = 2, ω = √2, `f = 30`, collision-
    /// count estimator, a fixed initial guess (no oracle needed), sampled
    /// membership, slot-level fidelity.
    #[must_use]
    pub fn new() -> Self {
        FcatConfig {
            lambda: 2,
            omega: optimal_omega(2),
            frame_size: 30,
            initial: InitialPopulation::Guess(1_024),
            estimator: EstimatorInput::Collisions,
            ack_mode: AckMode::SlotIndex,
            membership: Membership::Sampled,
            fidelity: Fidelity::SlotLevel,
            resolution: ResolutionModel::Ideal,
            recovery: RecoveryPolicy::DropRecord,
            backend: BackendModel::Anc,
        }
    }

    /// Sets λ and resets ω to the matching optimum `(λ!)^{1/λ}`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda < 2` (like every other builder in the workspace,
    /// misconfiguration is a programmer error, not a recoverable state).
    #[must_use]
    pub fn with_lambda(mut self, lambda: u32) -> Self {
        assert!(lambda >= 2, "lambda must be >= 2, got {lambda}");
        self.lambda = lambda;
        self.omega = optimal_omega(lambda);
        self
    }

    /// Overrides ω (for the Fig. 5 sweep and Table IV search).
    ///
    /// # Panics
    ///
    /// Panics if `omega` is not strictly positive and finite.
    #[must_use]
    pub fn with_omega(mut self, omega: f64) -> Self {
        assert!(omega.is_finite() && omega > 0.0, "omega must be positive");
        self.omega = omega;
        self
    }

    /// Sets the frame size `f` (for the Fig. 6 sweep).
    ///
    /// # Panics
    ///
    /// Panics if `frame_size == 0`.
    #[must_use]
    pub fn with_frame_size(mut self, frame_size: u32) -> Self {
        assert!(frame_size > 0, "frame_size must be positive");
        self.frame_size = frame_size;
        self
    }

    /// Sets the initial population bootstrap.
    #[must_use]
    pub fn with_initial(mut self, initial: InitialPopulation) -> Self {
        self.initial = initial;
        self
    }

    /// Sets which statistic the embedded estimator inverts.
    #[must_use]
    pub fn with_estimator(mut self, estimator: EstimatorInput) -> Self {
        self.estimator = estimator;
        self
    }

    /// Sets how resolved records are acknowledged.
    #[must_use]
    pub fn with_ack_mode(mut self, ack_mode: AckMode) -> Self {
        self.ack_mode = ack_mode;
        self
    }

    /// Sets the membership simulation mode.
    #[must_use]
    pub fn with_membership(mut self, membership: Membership) -> Self {
        self.membership = membership;
        self
    }

    /// Sets the fidelity level.
    #[must_use]
    pub fn with_fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Sets the collision-record resolution model (only consulted under
    /// [`Fidelity::SlotLevel`]; signal-level fidelity already runs real
    /// waveforms end to end).
    #[must_use]
    pub fn with_resolution(mut self, resolution: ResolutionModel) -> Self {
        self.resolution = resolution;
        self
    }

    /// Sets the recovery policy applied when a signal-backed resolution
    /// attempt fails.
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Sets the collision-recovery backend (ANC record cascade by
    /// default; see [`BackendModel`]). A non-ANC backend overrides the
    /// λ-derived ω* with its own optimal offered load `G*` and, like the
    /// resolution model, is only consulted under
    /// [`Fidelity::SlotLevel`].
    #[must_use]
    pub fn with_backend(mut self, backend: BackendModel) -> Self {
        self.backend = backend;
        self
    }

    /// Configured λ.
    #[must_use]
    pub fn lambda(&self) -> u32 {
        self.lambda
    }

    /// Configured ω.
    #[must_use]
    pub fn omega(&self) -> f64 {
        self.omega
    }

    /// Configured frame size.
    #[must_use]
    pub fn frame_size(&self) -> u32 {
        self.frame_size
    }

    /// Configured initial-population bootstrap.
    #[must_use]
    pub fn initial(&self) -> InitialPopulation {
        self.initial
    }

    /// Configured estimator input.
    #[must_use]
    pub fn estimator(&self) -> EstimatorInput {
        self.estimator
    }

    /// Configured acknowledgement mode.
    #[must_use]
    pub fn ack_mode(&self) -> AckMode {
        self.ack_mode
    }

    /// Configured resolution model.
    #[must_use]
    pub fn resolution(&self) -> &ResolutionModel {
        &self.resolution
    }

    /// Configured recovery policy.
    #[must_use]
    pub fn recovery(&self) -> RecoveryPolicy {
        self.recovery
    }

    /// Configured collision-recovery backend.
    #[must_use]
    pub fn backend(&self) -> &BackendModel {
        &self.backend
    }
}

impl Default for FcatConfig {
    fn default() -> Self {
        FcatConfig::new()
    }
}

/// The per-frame estimate update shared by the aggregate [`Fcat`] engine
/// and the message-level reader device: inverts the configured frame
/// statistic (Eq. 12 or the n₀ variant), with a doubling fallback when the
/// frame ran degenerate at `p = 1` (where the inversion is undefined).
pub(crate) fn update_estimate(
    input: EstimatorInput,
    previous: f64,
    n0: u32,
    nc: u32,
    frame_size: u32,
    p: f64,
    omega: f64,
) -> f64 {
    if p >= 1.0 {
        return if nc > 0 {
            (previous * 2.0).max(2.0)
        } else {
            0.0
        };
    }
    match input {
        EstimatorInput::Collisions => {
            estimate_remaining_from_collisions(nc.min(frame_size), frame_size, p, omega)
        }
        EstimatorInput::Empties => {
            estimate_remaining_from_empties(n0.min(frame_size), frame_size, p)
        }
        EstimatorInput::Oracle => previous,
    }
}

/// The Framed Collision-Aware Tag identification protocol.
///
/// # Example
///
/// ```
/// use rfid_anc::{Fcat, FcatConfig};
/// use rfid_sim::{run_inventory, SimConfig};
/// use rfid_types::population;
///
/// let tags = population::uniform(&mut rfid_sim::seeded_rng(1), 1_000);
/// // FCAT-3: assumes a future ANC that resolves 3-collisions.
/// let fcat = Fcat::new(FcatConfig::default().with_lambda(3));
/// let report = run_inventory(&fcat, &tags, &SimConfig::default())?;
/// assert_eq!(report.identified, 1_000);
/// # Ok::<(), rfid_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Fcat {
    config: FcatConfig,
    name: String,
}

impl Fcat {
    /// Creates FCAT from a configuration.
    #[must_use]
    pub fn new(config: FcatConfig) -> Self {
        let name = match config.backend.name_suffix() {
            Some(suffix) => format!("FCAT-{}-{suffix}", config.lambda),
            None => format!("FCAT-{}", config.lambda),
        };
        Fcat { config, name }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &FcatConfig {
        &self.config
    }
}

impl AntiCollisionProtocol for Fcat {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(
        &self,
        tags: &[TagId],
        config: &SimConfig,
        rng: &mut StdRng,
    ) -> Result<InventoryReport, SimError> {
        self.run_observed(tags, config, rng, &mut NoopSink)
    }
}

impl ObservableProtocol for Fcat {
    fn run_observed<S: EventSink>(
        &self,
        tags: &[TagId],
        config: &SimConfig,
        rng: &mut StdRng,
        sink: &mut S,
    ) -> Result<InventoryReport, SimError> {
        let cfg = &self.config;

        // Adaptive λ: the controller (if the run's policy asks for one)
        // re-selects λ at frame boundaries from the residual-SNR stream,
        // and ω* follows λ. A fixed policy leaves ω at the configured
        // value for the whole run.
        let ctl = LambdaController::from_policy(config.lambda_policy(), cfg.lambda);
        let mut omega = ctl.as_ref().map_or(cfg.omega, LambdaController::omega);
        // A non-ANC backend replaces the λ-derived ω* with its own optimal
        // offered load G* (λ is an ANC concept; MPR/CS never deposit
        // records, so the collision-record calculus behind ω* is moot).
        let omega_override = cfg.backend.omega_override();
        if let Some(g) = omega_override {
            omega = g;
        }
        // The hash must cover the population at the protocol's optimal
        // load (ω* of the starting λ, or the backend's G*); a configured
        // off-optimum ω, as in Fig. 5's sweep, runs quantized as before.
        let omega_star = omega_override.unwrap_or_else(|| optimal_omega(cfg.lambda));
        config.check_hash_width(tags.len(), omega_star)?;
        let mut engine = Engine::new(
            self.name(),
            tags,
            cfg.lambda,
            cfg.membership,
            &cfg.fidelity,
            &cfg.resolution,
            cfg.recovery,
            cfg.backend,
            config,
            sink,
        );
        engine.set_lambda_controller(ctl);

        let mut estimate = cfg
            .initial
            .bootstrap(tags.len(), config, rng, &mut engine.report);

        let f = cfg.frame_size;
        let mut frame: u64 = 0;
        let frame_adv_us = config.timing().frame_advertisement_us();
        let resolved_ack_us = match cfg.ack_mode {
            AckMode::SlotIndex => config.timing().index_ack_us(),
            AckMode::FullId => config.timing().id_ack_us(),
        };

        let index_ack_us = config.timing().index_ack_us();
        let mut output = SlotOutput::default();
        while engine.remaining() > 0 {
            // Due re-query slots run between frames: each is an addressed
            // command (paid as a 23-bit index announcement, like a record
            // ack) plus one basic slot, charged inside the engine.
            let requeried = engine.drain_requeries(rng, &mut output)?;
            if requeried > 0 {
                engine
                    .report
                    .record_overhead(index_ack_us * f64::from(requeried));
                if !output.resolved.is_empty() {
                    engine
                        .report
                        .record_overhead(resolved_ack_us * output.resolved.len() as f64);
                }
                if engine.remaining() == 0 {
                    break;
                }
            }
            let p = (omega / estimate.max(1.0)).clamp(1e-9, 1.0);
            engine.report.record_overhead(frame_adv_us);

            let mut n0: u32 = 0;
            let mut n1: u32 = 0;
            let mut nc: u32 = 0;
            for _ in 0..f {
                engine.run_slot(p, rng, &mut output)?;
                match output.class {
                    Some(SlotClass::Empty) => n0 += 1,
                    Some(SlotClass::Singleton) => n1 += 1,
                    Some(SlotClass::Collision) => nc += 1,
                    None => {}
                }
                // Resolved records are acknowledged by slot index in this
                // slot's acknowledgement segment.
                if !output.resolved.is_empty() {
                    engine
                        .report
                        .record_overhead(resolved_ack_us * output.resolved.len() as f64);
                }
                if engine.remaining() == 0 {
                    break;
                }
            }

            // Per-frame estimator update (§V-C).
            estimate = match cfg.estimator {
                EstimatorInput::Oracle => engine.remaining() as f64,
                input => update_estimate(input, estimate, n0, nc, f, p, omega),
            };
            if S::ENABLED {
                engine.emit_estimator(EstimatorEvent {
                    slot: engine.slot_index,
                    frame,
                    p,
                    n0,
                    n1,
                    nc,
                    estimate,
                });
            }
            // Frame boundary: the adaptive-λ controller may re-select λ,
            // and the next frame's p follows the new ω*.
            if let Some((_, new_omega)) = engine.maybe_adjust_lambda() {
                omega = omega_override.unwrap_or(new_omega);
            }
            frame += 1;
        }

        // Termination, charged as the reader actually observes it (and as
        // the message-level implementation pays it): one all-empty frame,
        // then a one-slot p = 1 probe — each behind a frame advertisement.
        engine.report.record_overhead(2.0 * frame_adv_us);
        Ok(engine.finish(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SignalLevelConfig;
    use rfid_sim::{run_inventory, run_many, seeded_rng, ErrorModel};
    use rfid_types::population;

    fn fcat(lambda: u32) -> Fcat {
        Fcat::new(FcatConfig::default().with_lambda(lambda))
    }

    #[test]
    fn reads_all_tags_every_lambda() {
        let tags = population::uniform(&mut seeded_rng(1), 1_500);
        for lambda in 2..=4 {
            let report = run_inventory(&fcat(lambda), &tags, &SimConfig::default()).unwrap();
            assert_eq!(report.identified, 1_500, "lambda {lambda}");
            assert!(report.resolved_from_collisions > 300, "lambda {lambda}");
        }
    }

    #[test]
    fn fcat2_throughput_matches_paper_band() {
        // Paper Table I: FCAT-2 at 197.7–201.7 tags/s.
        let agg = run_many(&fcat(2), 5_000, 5, &SimConfig::default()).unwrap();
        assert!(
            (190.0..215.0).contains(&agg.throughput.mean),
            "throughput {}",
            agg.throughput.mean
        );
    }

    #[test]
    fn lambda_ordering_matches_paper() {
        // FCAT-4 > FCAT-3 > FCAT-2 in throughput (Table I).
        let config = SimConfig::default();
        let t2 = run_many(&fcat(2), 3_000, 4, &config)
            .unwrap()
            .throughput
            .mean;
        let t3 = run_many(&fcat(3), 3_000, 4, &config)
            .unwrap()
            .throughput
            .mean;
        let t4 = run_many(&fcat(4), 3_000, 4, &config)
            .unwrap()
            .throughput
            .mean;
        assert!(t3 > t2, "t3 {t3} <= t2 {t2}");
        assert!(t4 > t3, "t4 {t4} <= t3 {t3}");
    }

    #[test]
    fn improvement_over_dfsa_in_paper_range() {
        // Paper: 51.1–55.6 % improvement of FCAT-2 over DFSA.
        let config = SimConfig::default();
        let fcat_tp = run_many(&fcat(2), 5_000, 5, &config)
            .unwrap()
            .throughput
            .mean;
        let dfsa_tp = run_many(&rfid_protocols::Dfsa::new(), 5_000, 5, &config)
            .unwrap()
            .throughput
            .mean;
        let gain = fcat_tp / dfsa_tp - 1.0;
        assert!(
            (0.40..0.75).contains(&gain),
            "gain {gain} (fcat {fcat_tp}, dfsa {dfsa_tp})"
        );
    }

    #[test]
    fn estimator_starts_cold_and_converges() {
        // Wildly wrong initial guess, still completes efficiently.
        let tags = population::uniform(&mut seeded_rng(2), 4_000);
        let cfg = FcatConfig::default().with_initial(InitialPopulation::Guess(16));
        let report = run_inventory(&Fcat::new(cfg), &tags, &SimConfig::default()).unwrap();
        assert_eq!(report.identified, 4_000);
        // Within 2× of the useful-slot optimum (paper: never exceeds 2N).
        assert!(report.slots.total() < 2 * 4_000 * 2);
    }

    #[test]
    fn two_remaining_tags_no_livelock() {
        // Estimate collapse to 1 with >1 tags left forces p = 1 and pure
        // collisions; the saturation fallback must recover.
        let tags = population::uniform(&mut seeded_rng(3), 3);
        let cfg = FcatConfig::default().with_initial(InitialPopulation::Guess(1));
        let report = run_inventory(&Fcat::new(cfg), &tags, &SimConfig::default()).unwrap();
        assert_eq!(report.identified, 3);
    }

    #[test]
    fn oracle_and_empties_estimators_complete() {
        let tags = population::uniform(&mut seeded_rng(4), 2_000);
        for est in [EstimatorInput::Oracle, EstimatorInput::Empties] {
            let cfg = FcatConfig::default().with_estimator(est);
            let report = run_inventory(&Fcat::new(cfg), &tags, &SimConfig::default()).unwrap();
            assert_eq!(report.identified, 2_000, "{est:?}");
        }
    }

    #[test]
    fn hash_membership_close_to_sampled() {
        let config = SimConfig::default();
        let sampled = run_many(&fcat(2), 2_000, 4, &config).unwrap();
        let hash_cfg = FcatConfig::default().with_membership(Membership::Hash);
        let hashed = run_many(&Fcat::new(hash_cfg), 2_000, 4, &config).unwrap();
        let rel =
            (sampled.throughput.mean - hashed.throughput.mean).abs() / sampled.throughput.mean;
        assert!(
            rel < 0.05,
            "sampled {} hash {}",
            sampled.throughput.mean,
            hashed.throughput.mean
        );
    }

    #[test]
    fn signal_level_fidelity_completes_and_resolves() {
        let tags = population::uniform(&mut seeded_rng(5), 150);
        let cfg = FcatConfig::default()
            .with_fidelity(Fidelity::SignalLevel(SignalLevelConfig::default()))
            .with_initial(InitialPopulation::Known);
        let report = run_inventory(&Fcat::new(cfg), &tags, &SimConfig::default()).unwrap();
        assert_eq!(report.identified, 150);
        assert!(report.resolved_from_collisions > 10);
    }

    #[test]
    fn completes_under_heavy_channel_errors() {
        let tags = population::uniform(&mut seeded_rng(6), 500);
        let config = SimConfig::default().with_errors(ErrorModel::new(0.15, 0.1, 0.3));
        let report = run_inventory(&fcat(2), &tags, &config).unwrap();
        assert_eq!(report.identified, 500);
    }

    #[test]
    fn unresolvable_collisions_reduce_but_do_not_break() {
        // §IV-E: with every collision slot spoiled, FCAT degenerates to an
        // ALOHA-like protocol but still reads everything.
        let tags = population::uniform(&mut seeded_rng(7), 400);
        let config = SimConfig::default().with_errors(ErrorModel::new(0.0, 0.0, 1.0));
        let report = run_inventory(&fcat(2), &tags, &config).unwrap();
        assert_eq!(report.identified, 400);
        assert_eq!(report.resolved_from_collisions, 0);
    }

    #[test]
    fn empty_population_only_termination_cost() {
        // One all-empty frame plus the p = 1 probe — identical to what the
        // message-level reader observes (tests in device/protocol.rs).
        let report = run_inventory(&fcat(2), &[], &SimConfig::default()).unwrap();
        assert_eq!(report.slots.total(), 31);
    }

    #[test]
    fn full_id_acks_cost_throughput() {
        // §V-A's third inefficiency, quantified: 96-bit resolution acks
        // instead of 23-bit indices must slow the protocol down, by less
        // than the advertisement redesign does.
        let config = SimConfig::default();
        let index = run_many(&fcat(2), 5_000, 4, &config)
            .unwrap()
            .throughput
            .mean;
        let full = run_many(
            &Fcat::new(FcatConfig::default().with_ack_mode(AckMode::FullId)),
            5_000,
            4,
            &config,
        )
        .unwrap()
        .throughput
        .mean;
        assert!(full < index, "full {full} !< index {index}");
        assert!(full > 0.9 * index, "full {full} implausibly low vs {index}");
    }

    #[test]
    fn trace_records_every_slot() {
        let tags = population::uniform(&mut seeded_rng(8), 300);
        let config = SimConfig::default().with_trace(true);
        let report = run_inventory(&fcat(2), &tags, &config).unwrap();
        assert_eq!(report.trace.len() as u64, report.slots.total());
        let learned: u32 = report.trace.iter().map(|e| e.learned).sum();
        assert_eq!(learned as usize, report.identified);
        // Trace classes agree with the aggregate counters.
        let collisions = report
            .trace
            .iter()
            .filter(|e| e.class == rfid_types::SlotClass::Collision)
            .count() as u64;
        // The termination tail's empty slots are charged via finish() and
        // are not traced, so compare collision counts (tail-free).
        assert_eq!(collisions, report.slots.collision);
        // Ground-truth transmitter counts match classes.
        for event in &report.trace {
            match event.class {
                rfid_types::SlotClass::Empty => assert_eq!(event.transmitters, 0),
                rfid_types::SlotClass::Singleton => assert_eq!(event.transmitters, 1),
                rfid_types::SlotClass::Collision => assert!(event.transmitters >= 1),
            }
        }
    }

    #[test]
    fn capture_boosts_throughput_toward_signal_level() {
        // Extension G showed the full DSP chain outperforms the k <= λ
        // abstraction partly via capture; the slot-level capture knob must
        // reproduce that direction.
        let base = run_many(&fcat(2), 3_000, 4, &SimConfig::default())
            .unwrap()
            .throughput
            .mean;
        let config = SimConfig::default().with_errors(ErrorModel::none().with_capture(0.5));
        let captured = run_many(&fcat(2), 3_000, 4, &config)
            .unwrap()
            .throughput
            .mean;
        assert!(captured > base, "captured {captured} !> base {base}");
    }

    #[test]
    fn no_trace_by_default() {
        let tags = population::uniform(&mut seeded_rng(8), 50);
        let report = run_inventory(&fcat(2), &tags, &SimConfig::default()).unwrap();
        assert!(report.trace.is_empty());
    }

    #[test]
    fn config_accessors() {
        let cfg = FcatConfig::default().with_frame_size(50).with_omega(1.9);
        assert_eq!(cfg.frame_size(), 50);
        assert!((cfg.omega() - 1.9).abs() < 1e-12);
        assert_eq!(cfg.lambda(), 2);
    }

    #[test]
    #[should_panic(expected = "lambda must be >= 2")]
    fn lambda_below_two_panics() {
        let _ = FcatConfig::default().with_lambda(0);
    }
}
