//! Per-run simulation configuration.

use crate::SimError;
use rand::Rng;
use rfid_types::TimingConfig;

/// Channel-error injection knobs (§IV-E of the paper).
///
/// All probabilities are per-event and independent:
///
/// * `ack_loss` — a reader acknowledgement fails to reach the tag(s) it
///   addresses; the tags keep participating and the reader later discards
///   the duplicate ("the reader may receive an ID more than once and the
///   duplicates will be discarded").
/// * `report_corruption` — the signal received in a report segment is
///   corrupted beyond use: a singleton fails its CRC and a collision
///   record is ruined (recorded but permanently unresolvable).
/// * `unresolvable_collision` — a collision record that *would* be
///   resolvable (k ≤ λ) is spoiled by noise/variation at resolution time
///   ("if the spontaneous noise is too large, a collision slot may not be
///   resolvable. The only impact is that the slot is not useful").
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ErrorModel {
    ack_loss: f64,
    report_corruption: f64,
    unresolvable_collision: f64,
    capture: f64,
}

impl ErrorModel {
    /// A perfectly clean channel (the paper's main evaluation setting).
    #[must_use]
    pub fn none() -> Self {
        ErrorModel {
            ack_loss: 0.0,
            report_corruption: 0.0,
            unresolvable_collision: 0.0,
            capture: 0.0,
        }
    }

    /// Creates an error model; every argument is a probability in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if any argument is outside `[0, 1]`.
    #[must_use]
    pub fn new(ack_loss: f64, report_corruption: f64, unresolvable_collision: f64) -> Self {
        for (name, p) in [
            ("ack_loss", ack_loss),
            ("report_corruption", report_corruption),
            ("unresolvable_collision", unresolvable_collision),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{name} must be a probability, got {p}"
            );
        }
        ErrorModel {
            ack_loss,
            report_corruption,
            unresolvable_collision,
            capture: 0.0,
        }
    }

    /// Returns this model with a *capture* probability: a collision slot
    /// whose strongest component dominates decodes as that component's
    /// singleton (the classic RFID capture effect; the signal-level
    /// fidelity mode exhibits it from physics, this knob models it at slot
    /// level). Supported by the collision-aware protocol family.
    ///
    /// # Panics
    ///
    /// Panics if `capture` is outside `[0, 1]`.
    #[must_use]
    pub fn with_capture(mut self, capture: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&capture),
            "capture must be a probability, got {capture}"
        );
        self.capture = capture;
        self
    }

    /// Probability that a collision slot is captured by one component.
    #[must_use]
    pub fn capture(&self) -> f64 {
        self.capture
    }

    /// Samples whether a collision slot is captured.
    #[must_use]
    pub fn sample_capture<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.capture > 0.0 && rng.gen::<f64>() < self.capture
    }

    /// Probability that an acknowledgement is lost.
    #[must_use]
    pub fn ack_loss(&self) -> f64 {
        self.ack_loss
    }

    /// Probability that a report segment is corrupted.
    #[must_use]
    pub fn report_corruption(&self) -> f64 {
        self.report_corruption
    }

    /// Probability that an otherwise-resolvable collision record is spoiled.
    #[must_use]
    pub fn unresolvable_collision(&self) -> f64 {
        self.unresolvable_collision
    }

    /// True when no error (or capture) can occur (lets hot loops skip RNG
    /// draws).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.ack_loss == 0.0
            && self.report_corruption == 0.0
            && self.unresolvable_collision == 0.0
            && self.capture == 0.0
    }

    /// Samples whether an acknowledgement is lost.
    #[must_use]
    pub fn sample_ack_lost<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.ack_loss > 0.0 && rng.gen::<f64>() < self.ack_loss
    }

    /// Samples whether a report segment is corrupted.
    #[must_use]
    pub fn sample_report_corrupted<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.report_corruption > 0.0 && rng.gen::<f64>() < self.report_corruption
    }

    /// Samples whether a resolvable collision record is spoiled.
    #[must_use]
    pub fn sample_unresolvable<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.unresolvable_collision > 0.0 && rng.gen::<f64>() < self.unresolvable_collision
    }
}

impl Default for ErrorModel {
    fn default() -> Self {
        ErrorModel::none()
    }
}

/// Policy for selecting λ (the maximum resolvable collision size) during a
/// run.
///
/// The paper treats λ as a fixed hardware constant (§IV-C), but the
/// sustainable collision depth is SNR-dependent (Pudasaini et al., Fyhn et
/// al.): at high SNR deeper cascades still decode, at low SNR even λ = 2
/// records fail. This policy is plain data — the control loop that consumes
/// it (`LambdaController` in the collision-aware protocol crate) reads the
/// per-hop residual SNR stream produced by signal-backed resolution and
/// re-selects λ (and thus ω* = (λ!)^{1/λ}) per FCAT frame / SCAT round.
///
/// Under ideal (non-signal-backed) resolution no residual SNR is measured,
/// so an adaptive policy never observes anything and λ stays at the
/// protocol's configured value.
#[derive(Debug, Clone, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum LambdaPolicy {
    /// Keep λ fixed at the protocol's configured value (the paper's
    /// setting).
    #[default]
    Fixed,
    /// Windowed residual-SNR thresholding: collect the last `window`
    /// per-hop residual SNR samples; once the window is full, demote λ when
    /// the mean falls below `demote_below_db`, promote it when the mean
    /// rises above `promote_above_db`, and clear the window after every
    /// adjustment.
    SnrWindow {
        /// Lower bound for λ (inclusive); clamped to ≥ 2.
        min_lambda: u32,
        /// Upper bound for λ (inclusive); clamped to the largest λ with an
        /// ω* table entry (4 today).
        max_lambda: u32,
        /// Number of residual-SNR samples required before a decision.
        window: usize,
        /// Mean residual SNR (dB) below which λ is demoted.
        demote_below_db: f64,
        /// Mean residual SNR (dB) above which λ is promoted.
        promote_above_db: f64,
    },
}

impl LambdaPolicy {
    /// The default windowed-SNR policy: λ ∈ [2, 4], 4-sample window,
    /// demote below 5.5 dB, promote above 6.5 dB. The thresholds straddle
    /// the fixed-λ crossover measured by `results/lambda-sweep.csv`:
    /// λ = 4 wins down to ≈ 8.5 dB channel SNR (σ = 0.2) and λ = 2 wins
    /// from ≈ 5 dB (σ = 0.3) on, so promotion engages above the crossover
    /// and demotion below it. The band is deliberately narrow: windowed
    /// means inside it occur only where adjacent λ settings score within
    /// noise of each other, so an occasional boundary flip is cheap.
    #[must_use]
    pub fn snr_window() -> Self {
        LambdaPolicy::SnrWindow {
            min_lambda: 2,
            max_lambda: 4,
            window: 4,
            demote_below_db: 5.5,
            promote_above_db: 6.5,
        }
    }
}

/// Configuration of one simulated inventory run.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SimConfig {
    seed: u64,
    timing: TimingConfig,
    errors: ErrorModel,
    max_slots: u64,
    trace: bool,
    #[cfg_attr(feature = "serde", serde(default = "default_hash_bits"))]
    hash_bits: u32,
    #[cfg_attr(feature = "serde", serde(default))]
    lambda_policy: LambdaPolicy,
    #[cfg_attr(feature = "serde", serde(default = "default_threads"))]
    threads: usize,
}

// The vendored serde stand-in's derives expand to nothing (vendor/README.md),
// so nothing calls these two defaults in this workspace's builds.
#[cfg(feature = "serde")]
#[allow(dead_code)]
fn default_hash_bits() -> u32 {
    16
}

#[cfg(feature = "serde")]
#[allow(dead_code)]
fn default_threads() -> usize {
    1
}

impl SimConfig {
    /// Default configuration: seed 0, Philips I-Code timing, clean channel,
    /// a 10-million-slot runaway cap, and a 16-bit membership hash.
    #[must_use]
    pub fn new() -> Self {
        SimConfig {
            seed: 0,
            timing: TimingConfig::philips_icode(),
            errors: ErrorModel::none(),
            max_slots: 10_000_000,
            trace: false,
            hash_bits: 16,
            lambda_policy: LambdaPolicy::Fixed,
            threads: 1,
        }
    }

    /// Returns this configuration with a different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns this configuration with a channel-error model.
    #[must_use]
    pub fn with_errors(mut self, errors: ErrorModel) -> Self {
        self.errors = errors;
        self
    }

    /// Returns this configuration with a different slot safety cap.
    ///
    /// # Panics
    ///
    /// Panics if `max_slots == 0`.
    #[must_use]
    pub fn with_max_slots(mut self, max_slots: u64) -> Self {
        assert!(max_slots > 0, "max_slots must be positive");
        self.max_slots = max_slots;
        self
    }

    /// The master seed of this run.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Air-interface timing.
    #[must_use]
    pub fn timing(&self) -> &TimingConfig {
        &self.timing
    }

    /// Channel-error model.
    #[must_use]
    pub fn errors(&self) -> &ErrorModel {
        &self.errors
    }

    /// Maximum number of slots before a run is aborted as non-terminating.
    #[must_use]
    pub fn max_slots(&self) -> u64 {
        self.max_slots
    }

    /// Returns this configuration with per-slot tracing enabled.
    ///
    /// Protocols that support tracing (the collision-aware family) append
    /// a [`crate::TraceEvent`] per slot to the report. Costs memory
    /// proportional to the slot count; off by default.
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Whether per-slot tracing is requested.
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.trace
    }

    /// Returns this configuration with a different advertisement hash width
    /// `l` (§IV-A): probabilities quantize to `⌊p·2^l⌋` and the membership
    /// hash reduces to `l` bits.
    ///
    /// # Panics
    ///
    /// Panics if `hash_bits` is outside `1..=32`.
    #[must_use]
    pub fn with_hash_bits(mut self, hash_bits: u32) -> Self {
        assert!(
            (1..=32).contains(&hash_bits),
            "hash_bits must be in 1..=32, got {hash_bits}"
        );
        self.hash_bits = hash_bits;
        self
    }

    /// The advertisement hash width `l` (default 16, the paper's setting).
    #[must_use]
    pub fn hash_bits(&self) -> u32 {
        self.hash_bits
    }

    /// Checks that `tags` tags can start at report probability `ω/N`,
    /// where `ω` is the protocol's optimal load: the `l`-bit threshold
    /// realizes no probability below one quantum `2^-l`
    /// (`rfid_types::hash::effective_probability`), so above `N = ω·2^l`
    /// every tag transmits more often than the optimum asks and the first
    /// frames run overloaded. Sampled membership quantizes the same way,
    /// so the check holds under both memberships.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::HashWidthExceeded`] when `tags > ⌊ω·2^l⌋`.
    pub fn check_hash_width(&self, tags: usize, omega: f64) -> Result<(), SimError> {
        let max_tags = (omega * (1u64 << self.hash_bits) as f64).floor() as u64;
        if tags as u64 > max_tags {
            return Err(SimError::HashWidthExceeded {
                tags,
                hash_bits: self.hash_bits,
                max_tags,
            });
        }
        Ok(())
    }

    /// Returns this configuration with a worker count. The value is
    /// accepted and validated but has no effect: collision records resolve
    /// on one sequential chain (each learned ID unlocks the next record),
    /// so there is no intra-inventory work to spread. Parallelism lives at
    /// the site and run level (`shard`, `run_many`).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "threads must be positive");
        self.threads = threads;
        self
    }

    /// The configured worker count (default 1; has no effect).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Returns this configuration with a λ-selection policy. Only the
    /// collision-aware protocol family consults it, and only signal-backed
    /// resolution produces the residual-SNR stream an adaptive policy
    /// feeds on.
    #[must_use]
    pub fn with_lambda_policy(mut self, policy: LambdaPolicy) -> Self {
        self.lambda_policy = policy;
        self
    }

    /// The λ-selection policy (default [`LambdaPolicy::Fixed`]).
    #[must_use]
    pub fn lambda_policy(&self) -> &LambdaPolicy {
        &self.lambda_policy
    }

    /// Checks every invariant the builder methods enforce by panicking.
    ///
    /// The builders (`with_threads`, `with_hash_bits`, `with_max_slots`,
    /// …) assert their arguments, which is right for programmatic
    /// construction — but a config assembled from *external input* (a
    /// `repro serve` JSON request, a deserialized snapshot) bypasses them
    /// field by field, and an invalid value would then panic deep inside
    /// the engine. Run entry points call this at start so such configs are
    /// rejected with a structured [`SimError`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] naming the first violated
    /// invariant.
    pub fn validate(&self) -> Result<(), SimError> {
        fn invalid(message: String) -> Result<(), SimError> {
            Err(SimError::InvalidParameter { message })
        }
        if self.max_slots == 0 {
            return invalid("max_slots must be positive".into());
        }
        if !(1..=32).contains(&self.hash_bits) {
            return invalid(format!(
                "hash_bits must be in 1..=32, got {}",
                self.hash_bits
            ));
        }
        if self.threads == 0 {
            return invalid("threads must be positive".into());
        }
        for (name, p) in [
            ("ack_loss", self.errors.ack_loss),
            ("report_corruption", self.errors.report_corruption),
            ("unresolvable_collision", self.errors.unresolvable_collision),
            ("capture", self.errors.capture),
        ] {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return invalid(format!("{name} must be a probability in [0, 1], got {p}"));
            }
        }
        if let LambdaPolicy::SnrWindow {
            min_lambda,
            max_lambda,
            window,
            demote_below_db,
            promote_above_db,
        } = &self.lambda_policy
        {
            if min_lambda > max_lambda {
                return invalid(format!(
                    "lambda bounds inverted: min {min_lambda} > max {max_lambda}"
                ));
            }
            if *window == 0 {
                return invalid("lambda window must be positive".into());
            }
            if !demote_below_db.is_finite() || !promote_above_db.is_finite() {
                return invalid("lambda thresholds must be finite".into());
            }
            if demote_below_db > promote_above_db {
                return invalid(format!(
                    "lambda thresholds inverted: demote_below {demote_below_db} dB > \
                     promote_above {promote_above_db} dB"
                ));
            }
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;

    #[test]
    fn clean_model_never_fires() {
        let m = ErrorModel::none();
        assert!(m.is_clean());
        let mut rng = seeded_rng(1);
        for _ in 0..100 {
            assert!(!m.sample_ack_lost(&mut rng));
            assert!(!m.sample_report_corrupted(&mut rng));
            assert!(!m.sample_unresolvable(&mut rng));
        }
    }

    #[test]
    fn error_rates_match_empirically() {
        let m = ErrorModel::new(0.25, 0.1, 0.5);
        assert!(!m.is_clean());
        let mut rng = seeded_rng(2);
        let n = 40_000;
        let acks = (0..n).filter(|_| m.sample_ack_lost(&mut rng)).count();
        let reps = (0..n)
            .filter(|_| m.sample_report_corrupted(&mut rng))
            .count();
        let unres = (0..n).filter(|_| m.sample_unresolvable(&mut rng)).count();
        assert!((acks as f64 / n as f64 - 0.25).abs() < 0.01);
        assert!((reps as f64 / n as f64 - 0.1).abs() < 0.01);
        assert!((unres as f64 / n as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn capture_probability_sampled() {
        let m = ErrorModel::none().with_capture(0.4);
        assert!(!m.is_clean());
        assert!((m.capture() - 0.4).abs() < f64::EPSILON);
        let mut rng = seeded_rng(9);
        let n = 20_000;
        let hits = (0..n).filter(|_| m.sample_capture(&mut rng)).count();
        assert!((hits as f64 / n as f64 - 0.4).abs() < 0.02);
        assert!(!ErrorModel::none().sample_capture(&mut rng));
    }

    #[test]
    fn certain_error_always_fires() {
        let m = ErrorModel::new(1.0, 1.0, 1.0);
        let mut rng = seeded_rng(3);
        assert!(m.sample_ack_lost(&mut rng));
        assert!(m.sample_report_corrupted(&mut rng));
        assert!(m.sample_unresolvable(&mut rng));
    }

    #[test]
    #[should_panic(expected = "must be a probability")]
    fn invalid_probability_panics() {
        let _ = ErrorModel::new(1.5, 0.0, 0.0);
    }

    #[test]
    fn config_builders() {
        let c = SimConfig::default()
            .with_seed(9)
            .with_max_slots(100)
            .with_errors(ErrorModel::new(0.1, 0.0, 0.0));
        assert_eq!(c.seed(), 9);
        assert_eq!(c.max_slots(), 100);
        assert!((c.errors().ack_loss() - 0.1).abs() < f64::EPSILON);
        assert_eq!(c.timing(), &TimingConfig::philips_icode());
    }

    #[test]
    #[should_panic(expected = "max_slots must be positive")]
    fn zero_max_slots_panics() {
        let _ = SimConfig::default().with_max_slots(0);
    }

    #[test]
    fn hash_bits_default_and_builder() {
        assert_eq!(SimConfig::default().hash_bits(), 16);
        assert_eq!(SimConfig::default().with_hash_bits(8).hash_bits(), 8);
        assert_eq!(SimConfig::default().with_hash_bits(32).hash_bits(), 32);
    }

    #[test]
    fn lambda_policy_default_and_builder() {
        assert_eq!(SimConfig::default().lambda_policy(), &LambdaPolicy::Fixed);
        let adaptive = LambdaPolicy::snr_window();
        let c = SimConfig::default().with_lambda_policy(adaptive.clone());
        assert_eq!(c.lambda_policy(), &adaptive);
    }

    /// Builds a config the way external deserialization does: field by
    /// field, bypassing every builder assertion.
    fn raw_config(threads: usize, hash_bits: u32, max_slots: u64) -> SimConfig {
        SimConfig {
            seed: 0,
            timing: TimingConfig::philips_icode(),
            errors: ErrorModel::none(),
            max_slots,
            trace: false,
            hash_bits,
            lambda_policy: LambdaPolicy::Fixed,
            threads,
        }
    }

    #[test]
    fn validate_accepts_every_builder_product() {
        assert_eq!(SimConfig::default().validate(), Ok(()));
        assert_eq!(
            SimConfig::default()
                .with_threads(8)
                .with_hash_bits(32)
                .with_max_slots(1)
                .with_errors(ErrorModel::new(0.1, 0.2, 0.3).with_capture(0.4))
                .with_lambda_policy(LambdaPolicy::snr_window())
                .validate(),
            Ok(())
        );
    }

    #[test]
    fn validate_rejects_builder_bypassing_configs() {
        // `threads: 0` arriving via deserialization instead of
        // `with_threads` is rejected, not silently accepted.
        let err = raw_config(0, 16, 1000).validate().unwrap_err();
        assert!(err.to_string().contains("threads"), "{err}");
        let err = raw_config(1, 0, 1000).validate().unwrap_err();
        assert!(err.to_string().contains("hash_bits"), "{err}");
        let err = raw_config(1, 33, 1000).validate().unwrap_err();
        assert!(err.to_string().contains("hash_bits"), "{err}");
        let err = raw_config(1, 16, 0).validate().unwrap_err();
        assert!(err.to_string().contains("max_slots"), "{err}");

        let mut bad_errors = raw_config(1, 16, 1000);
        bad_errors.errors.ack_loss = 1.5;
        let err = bad_errors.validate().unwrap_err();
        assert!(err.to_string().contains("ack_loss"), "{err}");
        let mut nan_capture = raw_config(1, 16, 1000);
        nan_capture.errors.capture = f64::NAN;
        assert!(nan_capture.validate().is_err());

        let mut bad_lambda = raw_config(1, 16, 1000);
        bad_lambda.lambda_policy = LambdaPolicy::SnrWindow {
            min_lambda: 4,
            max_lambda: 2,
            window: 4,
            demote_below_db: 5.5,
            promote_above_db: 6.5,
        };
        let err = bad_lambda.validate().unwrap_err();
        assert!(err.to_string().contains("lambda bounds"), "{err}");
        let mut zero_window = raw_config(1, 16, 1000);
        zero_window.lambda_policy = LambdaPolicy::SnrWindow {
            min_lambda: 2,
            max_lambda: 4,
            window: 0,
            demote_below_db: 5.5,
            promote_above_db: 6.5,
        };
        assert!(zero_window.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "hash_bits must be in 1..=32")]
    fn zero_hash_bits_panics() {
        let _ = SimConfig::default().with_hash_bits(0);
    }

    #[test]
    #[should_panic(expected = "hash_bits must be in 1..=32")]
    fn oversized_hash_bits_panics() {
        let _ = SimConfig::default().with_hash_bits(33);
    }
}
