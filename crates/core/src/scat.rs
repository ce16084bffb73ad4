//! SCAT — the Slotted Collision-Aware Tag identification protocol (§IV).
//!
//! Every slot carries its own advertisement `⟨i, p_i⟩`. Tags apply the hash
//! test `H(ID|i) ≤ ⌊p_i·2^l⌋`; the reader records collision slots, resolves
//! them as constituent IDs become known, and broadcasts each resolved **ID
//! in full** in the acknowledgement segment — the two inefficiencies
//! (per-slot advertisements, 96-bit resolution acks) that §V-A motivates
//! FCAT with.
//!
//! The report probability is `p_i = ω*/N_i`, where `ω* = (λ!)^{1/λ}` and
//! `N_i` is the count of not-yet-identified tags, which SCAT derives from
//! an externally supplied population size (oracle or pre-step estimate).

use crate::backend::{BackendModel, RecoveryBackend as _};
use crate::config::{Fidelity, InitialPopulation, Membership};
use crate::engine::{Engine, SlotOutput};
use crate::lambda::LambdaController;
use crate::resolution::{RecoveryPolicy, ResolutionModel};
use rand::rngs::StdRng;
use rfid_analysis::omega::optimal_omega;
use rfid_obs::{EstimatorEvent, EventSink, NoopSink};
use rfid_sim::{AntiCollisionProtocol, InventoryReport, ObservableProtocol, SimConfig, SimError};
use rfid_types::TagId;

/// Configuration of [`Scat`].
#[derive(Debug, Clone)]
pub struct ScatConfig {
    lambda: u32,
    omega: f64,
    initial: InitialPopulation,
    membership: Membership,
    fidelity: Fidelity,
    resolution: ResolutionModel,
    recovery: RecoveryPolicy,
    backend: BackendModel,
    empty_streak: u32,
}

impl ScatConfig {
    /// λ = 2 (today's experimentally demonstrated ANC), ω = √2, oracle
    /// population, sampled membership, slot-level fidelity.
    #[must_use]
    pub fn new() -> Self {
        ScatConfig {
            lambda: 2,
            omega: optimal_omega(2),
            initial: InitialPopulation::Known,
            membership: Membership::Sampled,
            fidelity: Fidelity::SlotLevel,
            resolution: ResolutionModel::Ideal,
            recovery: RecoveryPolicy::DropRecord,
            backend: BackendModel::Anc,
            empty_streak: 5,
        }
    }

    /// Sets λ (how many colliding signals future ANC can disentangle) and
    /// resets ω to the matching optimum `(λ!)^{1/λ}`.
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

    /// Overrides ω (for sweeps like the paper's Fig. 5 / Table IV).
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

    /// Sets how the initial population size is obtained.
    #[must_use]
    pub fn with_initial(mut self, initial: InitialPopulation) -> Self {
        self.initial = initial;
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

    /// Configured collision-recovery backend.
    #[must_use]
    pub fn backend(&self) -> &BackendModel {
        &self.backend
    }
}

impl Default for ScatConfig {
    fn default() -> Self {
        ScatConfig::new()
    }
}

/// The Slotted Collision-Aware Tag identification protocol.
///
/// # Example
///
/// ```
/// use rfid_anc::{Scat, ScatConfig};
/// use rfid_sim::{run_inventory, SimConfig};
/// use rfid_types::population;
///
/// let tags = population::uniform(&mut rfid_sim::seeded_rng(1), 1_000);
/// let scat = Scat::new(ScatConfig::default());
/// let report = run_inventory(&scat, &tags, &SimConfig::default())?;
/// assert_eq!(report.identified, 1_000);
/// # Ok::<(), rfid_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Scat {
    config: ScatConfig,
    name: String,
}

impl Scat {
    /// Creates SCAT from a configuration.
    #[must_use]
    pub fn new(config: ScatConfig) -> Self {
        let name = match config.backend.name_suffix() {
            Some(suffix) => format!("SCAT-{}-{suffix}", config.lambda),
            None => format!("SCAT-{}", config.lambda),
        };
        Scat { config, name }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &ScatConfig {
        &self.config
    }
}

impl AntiCollisionProtocol for Scat {
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

impl ObservableProtocol for Scat {
    fn run_observed<S: EventSink>(
        &self,
        tags: &[TagId],
        config: &SimConfig,
        rng: &mut StdRng,
        sink: &mut S,
    ) -> Result<InventoryReport, SimError> {
        let cfg = &self.config;

        // Adaptive λ: SCAT advertises per slot, so its "round" decision
        // point is every slot — the controller's window gates how often λ
        // can actually move.
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

        // Population bootstrap.
        let mut population = cfg
            .initial
            .bootstrap(tags.len(), config, rng, &mut engine.report);
        // SCAT has no embedded estimator; its revisions are the bootstrap
        // itself plus the empty-streak halvings below, surfaced so traces
        // show where the external estimate was corrected.
        let mut revision: u64 = 0;
        if S::ENABLED {
            engine.emit_estimator(EstimatorEvent {
                slot: engine.slot_index,
                frame: revision,
                p: (omega / population.max(1.0)).min(1.0),
                n0: 0,
                n1: 0,
                nc: 0,
                estimate: population,
            });
        }

        let advertisement_us = config.timing().advertisement_us();
        let id_ack_us = config.timing().id_ack_us();
        // Rivest-style slack so a pessimistic bootstrap cannot livelock the
        // probability at 1 while several tags remain, plus a geometric
        // decay of the excess on long empty streaks so an optimistic
        // bootstrap cannot pin p near 0 (§IV assumes N is known; these two
        // safeguards keep the protocol safe when it is merely estimated).
        const COLLISION_INCREMENT: f64 = 1.0 / (std::f64::consts::E - 2.0);
        let mut slack: f64 = 0.0;
        let mut empty_run: u32 = 0;
        let mut output = SlotOutput::default();

        while engine.remaining() > 0 {
            // Due re-query slots run first: each carries its own addressed
            // advertisement (SCAT advertises every slot) and any resolved
            // IDs it unlocks are re-broadcast in full, as usual.
            let requeried = engine.drain_requeries(rng, &mut output)?;
            if requeried > 0 {
                engine
                    .report
                    .record_overhead(advertisement_us * f64::from(requeried));
                if !output.resolved.is_empty() {
                    engine
                        .report
                        .record_overhead(id_ack_us * output.resolved.len() as f64);
                }
                if engine.remaining() == 0 {
                    break;
                }
            }
            let known = engine.records.known_count() as f64;
            let remaining_est = (population - known).max(slack).max(1.0);
            let p = (omega / remaining_est).min(1.0);

            engine.report.record_overhead(advertisement_us);
            engine.run_slot(p, rng, &mut output)?;
            match output.class {
                Some(rfid_types::SlotClass::Collision) => {
                    slack = (slack + COLLISION_INCREMENT).max(2.0);
                    empty_run = 0;
                }
                Some(rfid_types::SlotClass::Empty) => {
                    slack = (slack - 1.0).max(0.0);
                    empty_run += 1;
                    // At the optimum only ~24 % of slots are empty, so a
                    // run of 8 (~0.001 % chance) means the estimate far
                    // exceeds the true population: halve the excess.
                    if empty_run >= 8 {
                        population = known + (population - known) / 2.0;
                        if S::ENABLED {
                            revision += 1;
                            engine.emit_estimator(EstimatorEvent {
                                slot: engine.slot_index,
                                frame: revision,
                                p,
                                n0: empty_run,
                                n1: 0,
                                nc: 0,
                                estimate: population,
                            });
                        }
                        empty_run = 0;
                    }
                }
                _ => {
                    slack = (slack - 1.0).max(0.0);
                    empty_run = 0;
                }
            }
            // Resolved IDs are re-broadcast in full in the ack segment.
            if !output.resolved.is_empty() {
                engine
                    .report
                    .record_overhead(id_ack_us * output.resolved.len() as f64);
            }
            // Round boundary: the adaptive-λ controller may re-select λ,
            // and the next advertisement follows the new ω*.
            if let Some((_, new_omega)) = engine.maybe_adjust_lambda() {
                omega = omega_override.unwrap_or(new_omega);
            }
        }

        // Termination detection costs empty_streak + 1 slots, each with
        // SCAT's per-slot advertisement.
        engine
            .report
            .record_overhead(advertisement_us * f64::from(cfg.empty_streak + 1));
        Ok(engine.finish(cfg.empty_streak))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_sim::{run_inventory, run_many, seeded_rng, ErrorModel};
    use rfid_types::population;

    #[test]
    fn reads_all_tags() {
        let tags = population::uniform(&mut seeded_rng(1), 1_000);
        let report = run_inventory(
            &Scat::new(ScatConfig::default()),
            &tags,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(report.identified, 1_000);
        assert!(report.resolved_from_collisions > 200);
    }

    #[test]
    fn beats_aloha_bound_despite_per_slot_advertisements() {
        let agg = run_many(
            &Scat::new(ScatConfig::default()),
            5_000,
            5,
            &SimConfig::default(),
        )
        .unwrap();
        let aloha = rfid_analysis::bounds::aloha_throughput_bound(SimConfig::default().timing());
        assert!(
            agg.throughput.mean > aloha,
            "SCAT {} <= ALOHA bound {aloha}",
            agg.throughput.mean
        );
    }

    #[test]
    fn lambda_validation() {
        let cfg = ScatConfig::new().with_lambda(4);
        assert_eq!(cfg.lambda(), 4);
        assert!((cfg.omega() - 2.2134).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "lambda must be >= 2")]
    fn lambda_below_two_panics() {
        let _ = ScatConfig::new().with_lambda(1);
    }

    #[test]
    fn prestep_bootstrap_completes() {
        let tags = population::uniform(&mut seeded_rng(2), 800);
        let cfg = ScatConfig::default().with_initial(InitialPopulation::PreStep {
            frame_size: 32,
            rounds: 8,
        });
        let report = run_inventory(&Scat::new(cfg), &tags, &SimConfig::default()).unwrap();
        assert_eq!(report.identified, 800);
    }

    #[test]
    fn bad_guess_still_completes() {
        let tags = population::uniform(&mut seeded_rng(3), 500);
        let cfg = ScatConfig::default().with_initial(InitialPopulation::Guess(2));
        let report = run_inventory(&Scat::new(cfg), &tags, &SimConfig::default()).unwrap();
        assert_eq!(report.identified, 500);
    }

    #[test]
    fn hash_membership_completes() {
        let tags = population::uniform(&mut seeded_rng(4), 300);
        let cfg = ScatConfig::default().with_membership(Membership::Hash);
        let report = run_inventory(&Scat::new(cfg), &tags, &SimConfig::default()).unwrap();
        assert_eq!(report.identified, 300);
    }

    #[test]
    fn completes_under_channel_errors() {
        let tags = population::uniform(&mut seeded_rng(5), 400);
        let config = SimConfig::default().with_errors(ErrorModel::new(0.1, 0.05, 0.1));
        let report = run_inventory(&Scat::new(ScatConfig::default()), &tags, &config).unwrap();
        assert_eq!(report.identified, 400);
    }

    #[test]
    fn empty_population_only_termination_cost() {
        let report = run_inventory(
            &Scat::new(ScatConfig::default()),
            &[],
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(report.identified, 0);
        assert_eq!(report.slots.total() as u32, 5 + 1);
    }
}
