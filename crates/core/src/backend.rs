//! Pluggable collision-recovery backends: ANC, MPR, compressed sensing.
//!
//! The paper's Table I argues ANC's throughput edge against framed-ALOHA
//! baselines; the modern collision-recovery design space is wider. This
//! module decouples *"what does the reader salvage from a collision
//! slot?"* from the FCAT/SCAT engines behind the [`RecoveryBackend`]
//! trait, with three literature-grounded answers:
//!
//! * [`Anc`] — the paper's analog-network-coding cascade: the collision
//!   slot deposits a record; once all but one of its participants are
//!   known, the known signals are subtracted and the last ID recovered
//!   (with [`crate::ResolutionModel`] deciding whether each subtraction
//!   succeeds). This is the default and reproduces the pre-trait engines
//!   **byte-for-byte** — it draws nothing and always routes the slot into
//!   the record store, so the protocol RNG trajectory is untouched.
//! * [`Mpr`] — multi-packet reception: a reader that separates up to `M`
//!   co-slotted replies in place (e.g. by successive interference
//!   cancellation) decodes *all* `k ≤ M` colliders immediately and keeps
//!   nothing otherwise. Frame sizing follows the optimal-load rule of
//!   Pudasaini, Kwon & Shin, *"Towards Optimal Resource Utilization of
//!   Multi-Packet Reception enabled Framed Slotted Aloha"*
//!   (arXiv:1311.7458): advertise `p = G*(M)/N̂` where `G*(M)` maximizes
//!   the expected decoded-tags-per-slot under Poisson load (see
//!   [`optimal_load`]). `M = 1` degenerates to plain slotted ALOHA with
//!   `G* = 1`.
//! * [`CompressedSensing`] — sparse recovery over pseudo-random ALOHA
//!   frames, after Fyhn, Jensen & Larsen, *"Compressive Sensing for
//!   Spread Spectrum Receivers"* / the CS-ALOHA line of work
//!   (arXiv:1012.3628): the reader takes a fixed budget of random
//!   projections per slot and solves for the sparse superposition, so a
//!   `k`-collision decodes *in toto* with a probability that falls off
//!   once `k` approaches `measurements / oversampling` and is capped by
//!   an SNR-dependent ceiling (see
//!   [`CompressedSensing::success_probability`]).
//!
//! # RNG-stream discipline
//!
//! Backends never touch the protocol RNG. [`Anc`] and [`Mpr`] are
//! deterministic given the slot's participant count; the
//! [`CompressedSensing`] draw comes from a dedicated counter stream keyed
//! `(backend_seed, slot)` — the same order-independent
//! [`rfid_sim::CounterRng`] family the signal path uses for noise — so
//! adding or removing a backend draw can never shift any other draw in
//! the run. That discipline is why the ANC golden reports stay
//! byte-identical across the trait refactor (pinned in
//! `tests/backends.rs`).

use rand::Rng as _;
use rfid_sim::{noise_stream_seed, CounterRng};

/// Largest collision size considered by the Poisson sums in
/// [`optimal_load`]; the `e^{-G} G^k / k!` terms below any realistic load
/// are far below float noise at this depth.
const MAX_DECODE_SET: u32 = 64;

/// What one slot's worth of colliding replies turns into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollisionOutcome {
    /// Deposit an ANC collision record; constituent IDs are recovered
    /// later by cascaded subtraction as other participants become known.
    Record,
    /// Decode every co-slotted reply right now (multi-packet reception or
    /// a successful sparse recovery). The slot still classifies as a
    /// collision on the air; the IDs are learned in its acknowledgement
    /// segment.
    DecodeAll,
    /// Nothing is salvaged: the replies are lost and the tags re-contend
    /// in later slots. Completeness never depends on a backend succeeding.
    Lost,
}

/// Everything a backend may condition its decision on.
///
/// Kept as a struct so the trait contract can grow fields without
/// breaking implementors.
#[derive(Debug, Clone, Copy)]
pub struct CollisionContext {
    /// Ground-truth number of co-slotted transmitters (`k ≥ 1`; the
    /// engines also route corrupted singletons here with `k = 1`).
    pub participants: u32,
    /// Whether the channel spoiled the reception (unresolvable-collision
    /// or report-corruption error draws): a spoiled slot can still
    /// deposit an (unusable) ANC record, but can never decode.
    pub spoiled: bool,
    /// Global slot index, the key of the compressed-sensing success draw.
    pub slot: u64,
    /// The run's backend seed (derived from [`rfid_sim::SimConfig`]'s
    /// seed on a reserved stream), master of the per-slot draw streams.
    pub seed: u64,
}

/// Decides, per collision slot, what the reader salvages.
///
/// Implementations must be pure functions of the [`CollisionContext`]
/// (any randomness must come from counter streams keyed off `ctx.seed`,
/// never from shared state), so runs stay reproducible and backends
/// composable with the engines' golden-report guarantees.
pub trait RecoveryBackend {
    /// The outcome of one collision slot.
    fn decide(&self, ctx: &CollisionContext) -> CollisionOutcome;

    /// When `Some(G*)`, the protocols advertise `p = G*/N̂` instead of the
    /// ANC-optimal `p = ω*/N̂` (ω* = `(λ!)^{1/λ}` is meaningless for a
    /// backend that never deposits records).
    fn omega_override(&self) -> Option<f64> {
        None
    }

    /// Short lowercase tag used in protocol names, bench cells, and
    /// observability events (`"anc"`, `"mpr"`, `"cs"`).
    fn label(&self) -> &'static str;
}

/// The paper's ANC collision-record cascade — the default backend.
///
/// Always returns [`CollisionOutcome::Record`]: the engine's behavior is
/// exactly the pre-trait code path, byte for byte.
///
/// # Example
///
/// ```
/// use rfid_anc::{Anc, CollisionContext, CollisionOutcome, RecoveryBackend};
///
/// let ctx = CollisionContext { participants: 3, spoiled: false, slot: 7, seed: 42 };
/// assert_eq!(Anc.decide(&ctx), CollisionOutcome::Record);
/// assert_eq!(Anc.omega_override(), None); // p stays ω*/N̂
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Anc;

impl RecoveryBackend for Anc {
    fn decide(&self, _ctx: &CollisionContext) -> CollisionOutcome {
        CollisionOutcome::Record
    }

    fn label(&self) -> &'static str {
        "anc"
    }
}

/// Multi-packet reception: decode up to `m` co-slotted replies in place.
///
/// Frame sizing follows Pudasaini et al. (arXiv:1311.7458): the expected
/// decoded tags per slot under Poisson offered load `G` is
/// `f(G) = Σ_{k=1}^{m} k·e^{-G}·G^k/k!`, and the advertised probability
/// targets the maximizing load `G*(m)`. `Mpr::new(1)` is plain slotted
/// ALOHA (`G* = 1`, throughput `1/e`).
///
/// # Example
///
/// ```
/// use rfid_anc::{CollisionContext, CollisionOutcome, Mpr, RecoveryBackend};
///
/// let mpr = Mpr::new(4);
/// let ctx = CollisionContext { participants: 3, spoiled: false, slot: 0, seed: 0 };
/// assert_eq!(mpr.decide(&ctx), CollisionOutcome::DecodeAll); // 3 ≤ 4
/// let big = CollisionContext { participants: 5, ..ctx };
/// assert_eq!(mpr.decide(&big), CollisionOutcome::Lost); // 5 > 4
/// // m = 1 is slotted ALOHA: the optimal offered load is G* = 1.
/// assert!((Mpr::new(1).optimal_load() - 1.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mpr {
    /// Maximum number of co-slotted replies the receiver can separate.
    pub m: u32,
}

impl Mpr {
    /// A receiver that separates up to `m` simultaneous replies.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` (a receiver that decodes nothing is a
    /// misconfiguration, not a model).
    #[must_use]
    pub fn new(m: u32) -> Self {
        assert!(m > 0, "MPR capability must be at least 1, got {m}");
        Mpr { m }
    }

    /// The throughput-optimal Poisson offered load `G*(m)` — the
    /// advertised probability becomes `G*(m)/N̂`.
    #[must_use]
    pub fn optimal_load(&self) -> f64 {
        let m = self.m;
        optimal_load(move |k| if k <= m { 1.0 } else { 0.0 })
    }
}

impl RecoveryBackend for Mpr {
    fn decide(&self, ctx: &CollisionContext) -> CollisionOutcome {
        if !ctx.spoiled && ctx.participants <= self.m {
            CollisionOutcome::DecodeAll
        } else {
            CollisionOutcome::Lost
        }
    }

    fn omega_override(&self) -> Option<f64> {
        Some(self.optimal_load())
    }

    fn label(&self) -> &'static str {
        "mpr"
    }
}

/// Sparse recovery of colliding replies over pseudo-random ALOHA frames
/// (Fyhn et al., arXiv:1012.3628).
///
/// The reader takes `measurements` random projections of each slot and
/// solves for the `k`-sparse superposition of tag signatures. Recovery of
/// the whole collision succeeds with probability
/// [`CompressedSensing::success_probability`], which decays once `k`
/// exceeds the measurement budget divided by the `oversampling` factor
/// and is capped by an SNR-dependent ceiling. The success draw is taken
/// from a counter stream keyed `(backend_seed, slot)` so it perturbs no
/// other randomness in the run.
///
/// # Example
///
/// ```
/// use rfid_anc::{CompressedSensing, CollisionContext, CollisionOutcome, RecoveryBackend};
///
/// let cs = CompressedSensing::default().with_snr_db(20.0);
/// // Small collisions sit deep in the recoverable region …
/// assert!(cs.success_probability(2) > 0.9);
/// // … and large ones exhaust the measurement budget.
/// assert!(cs.success_probability(8) < 0.05);
/// let ctx = CollisionContext { participants: 2, spoiled: false, slot: 3, seed: 9 };
/// assert!(matches!(
///     cs.decide(&ctx),
///     CollisionOutcome::DecodeAll | CollisionOutcome::Lost
/// ));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressedSensing {
    /// Random projections the reader takes per slot (the measurement
    /// budget `M`).
    pub measurements: u32,
    /// Measurements needed per recovered component (`c` in the `M ≳ c·k`
    /// sparse-recovery condition; ℓ1 solvers need a constant-factor
    /// oversampling of the sparsity).
    pub oversampling: f64,
    /// Width of the success-probability transition around the
    /// `k = M/c` phase boundary, in units of measurements.
    pub transition_width: f64,
    /// Channel SNR in dB; sets the recovery ceiling (noisy measurements
    /// bound recovery probability away from 1 even for tiny `k`).
    pub snr_db: f64,
}

impl Default for CompressedSensing {
    fn default() -> Self {
        CompressedSensing {
            measurements: 8,
            oversampling: 2.0,
            transition_width: 1.0,
            snr_db: 20.0,
        }
    }
}

impl CompressedSensing {
    /// This model at a different channel SNR (dB).
    #[must_use]
    pub fn with_snr_db(mut self, snr_db: f64) -> Self {
        self.snr_db = snr_db;
        self
    }

    /// Probability that a `k`-collision is recovered in full:
    ///
    /// `p(k) = ceiling(SNR) · σ((M − c·k) / w)`,
    ///
    /// where `σ` is the logistic function, `M` the measurement budget,
    /// `c` the oversampling factor, `w` the transition width, and
    /// `ceiling(SNR) = σ((SNR_dB − 3) / 2)` the noise-limited recovery
    /// ceiling (≈1 above 15 dB, ≈0.18 at 0 dB). `k = 0` returns 0.
    #[must_use]
    pub fn success_probability(&self, k: u32) -> f64 {
        if k == 0 {
            return 0.0;
        }
        let logistic = |x: f64| 1.0 / (1.0 + (-x).exp());
        let margin = (f64::from(self.measurements) - self.oversampling * f64::from(k))
            / self.transition_width.max(1e-9);
        let ceiling = logistic((self.snr_db - 3.0) / 2.0);
        ceiling * logistic(margin)
    }

    /// The offered load `G*` maximizing expected recovered tags per slot,
    /// `Σ_k k·Pois(k; G)·p(k)` — the CS analogue of [`Mpr::optimal_load`].
    #[must_use]
    pub fn optimal_load(&self) -> f64 {
        let model = *self;
        optimal_load(move |k| model.success_probability(k))
    }
}

impl RecoveryBackend for CompressedSensing {
    fn decide(&self, ctx: &CollisionContext) -> CollisionOutcome {
        if ctx.spoiled {
            return CollisionOutcome::Lost;
        }
        let p = self.success_probability(ctx.participants);
        if p <= 0.0 {
            return CollisionOutcome::Lost;
        }
        // Keyed per-slot draw: reproducible, order-independent, and
        // invisible to every other RNG stream in the run.
        let mut rng = CounterRng::new(noise_stream_seed(ctx.seed, ctx.slot, 0));
        if rng.gen_range(0.0..1.0) < p {
            CollisionOutcome::DecodeAll
        } else {
            CollisionOutcome::Lost
        }
    }

    fn omega_override(&self) -> Option<f64> {
        Some(self.optimal_load())
    }

    fn label(&self) -> &'static str {
        "cs"
    }
}

/// Config-level backend selection, stored in `FcatConfig`/`ScatConfig`.
///
/// A plain enum (rather than a boxed trait object) keeps the configs
/// `Clone + Debug` and the engine's dispatch branch-predictable; the
/// variants all implement [`RecoveryBackend`] and the enum forwards to
/// them.
///
/// # Example
///
/// ```
/// use rfid_anc::{BackendModel, Fcat, FcatConfig, Mpr};
/// use rfid_sim::{run_inventory, SimConfig};
/// use rfid_types::population;
///
/// let tags = population::uniform(&mut rfid_sim::seeded_rng(1), 500);
/// let mpr = Fcat::new(FcatConfig::default().with_backend(BackendModel::Mpr(Mpr::new(4))));
/// let report = run_inventory(&mpr, &tags, &SimConfig::default())?;
/// assert_eq!(report.identified, 500);
/// # Ok::<(), rfid_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BackendModel {
    /// The ANC collision-record cascade (the paper; byte-identical to the
    /// pre-trait engines).
    #[default]
    Anc,
    /// Multi-packet reception with optimal frame sizing.
    Mpr(Mpr),
    /// Sparse recovery over pseudo-random ALOHA.
    CompressedSensing(CompressedSensing),
}

impl BackendModel {
    /// Suffix appended to protocol names for non-ANC backends
    /// (`"mpr4"`, `"cs"`), `None` for ANC.
    #[must_use]
    pub fn name_suffix(&self) -> Option<String> {
        match self {
            BackendModel::Anc => None,
            BackendModel::Mpr(mpr) => Some(format!("mpr{}", mpr.m)),
            BackendModel::CompressedSensing(_) => Some("cs".to_owned()),
        }
    }
}

impl RecoveryBackend for BackendModel {
    fn decide(&self, ctx: &CollisionContext) -> CollisionOutcome {
        match self {
            BackendModel::Anc => Anc.decide(ctx),
            BackendModel::Mpr(mpr) => mpr.decide(ctx),
            BackendModel::CompressedSensing(cs) => cs.decide(ctx),
        }
    }

    fn omega_override(&self) -> Option<f64> {
        match self {
            BackendModel::Anc => Anc.omega_override(),
            BackendModel::Mpr(mpr) => mpr.omega_override(),
            BackendModel::CompressedSensing(cs) => cs.omega_override(),
        }
    }

    fn label(&self) -> &'static str {
        match self {
            BackendModel::Anc => Anc.label(),
            BackendModel::Mpr(mpr) => mpr.label(),
            BackendModel::CompressedSensing(cs) => cs.label(),
        }
    }
}

/// The Poisson offered load `G*` maximizing expected decoded tags per
/// slot, `f(G) = Σ_{k≥1} k·e^{-G}·G^k/k!·p(k)`, for a per-collision-size
/// success probability `p(k)` (clamped to `[0, 1]`).
///
/// This single maximizer serves both backends: MPR uses the step function
/// `p(k) = 1 for k ≤ m`, compressed sensing its logistic success curve.
/// A coarse grid scan locates the mode and a ternary search refines it —
/// deterministic, allocation-free, and accurate to well under `1e-3`.
///
/// # Example
///
/// ```
/// use rfid_anc::optimal_load;
///
/// // Slotted ALOHA (decode singletons only): G* = 1 exactly.
/// let g1 = optimal_load(|k| if k == 1 { 1.0 } else { 0.0 });
/// assert!((g1 - 1.0).abs() < 1e-3);
/// // MPR with m = 2: maximizing e^{-G}(G + G²) gives the golden ratio.
/// let g2 = optimal_load(|k| if k <= 2 { 1.0 } else { 0.0 });
/// assert!((g2 - 1.618).abs() < 2e-3);
/// ```
#[must_use]
pub fn optimal_load(success: impl Fn(u32) -> f64) -> f64 {
    let yield_at = |g: f64| -> f64 {
        let mut term = (-g).exp(); // Pois(0; g)
        let mut total = 0.0;
        for k in 1..=MAX_DECODE_SET {
            term *= g / f64::from(k); // Pois(k; g)
            let p = success(k).clamp(0.0, 1.0);
            total += f64::from(k) * term * p;
            if term < 1e-15 && f64::from(k) > g {
                break;
            }
        }
        total
    };
    const STEP: f64 = 0.05;
    let mut best_g = STEP;
    let mut best = yield_at(STEP);
    let mut g = 2.0 * STEP;
    while g <= 50.0 {
        let y = yield_at(g);
        if y > best {
            best = y;
            best_g = g;
        }
        g += STEP;
    }
    let mut lo = (best_g - STEP).max(1e-3);
    let mut hi = best_g + STEP;
    for _ in 0..60 {
        let m1 = lo + (hi - lo) / 3.0;
        let m2 = hi - (hi - lo) / 3.0;
        if yield_at(m1) < yield_at(m2) {
            lo = m1;
        } else {
            hi = m2;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(participants: u32, spoiled: bool) -> CollisionContext {
        CollisionContext {
            participants,
            spoiled,
            slot: 11,
            seed: 77,
        }
    }

    #[test]
    fn anc_always_records() {
        for k in 1..6 {
            for spoiled in [false, true] {
                assert_eq!(Anc.decide(&ctx(k, spoiled)), CollisionOutcome::Record);
            }
        }
        assert_eq!(Anc.omega_override(), None);
        assert_eq!(BackendModel::default(), BackendModel::Anc);
        assert_eq!(BackendModel::Anc.name_suffix(), None);
    }

    #[test]
    fn mpr_gates_on_capability_and_spoilage() {
        let mpr = Mpr::new(3);
        assert_eq!(mpr.decide(&ctx(3, false)), CollisionOutcome::DecodeAll);
        assert_eq!(mpr.decide(&ctx(4, false)), CollisionOutcome::Lost);
        assert_eq!(mpr.decide(&ctx(2, true)), CollisionOutcome::Lost);
        assert_eq!(
            BackendModel::Mpr(mpr).name_suffix().as_deref(),
            Some("mpr3")
        );
    }

    #[test]
    #[should_panic(expected = "MPR capability must be at least 1")]
    fn mpr_zero_panics() {
        let _ = Mpr::new(0);
    }

    #[test]
    fn mpr_optimal_load_known_values() {
        // m = 1: slotted ALOHA, G* = 1. m = 2: e^{-G}(G + G²) peaks at the
        // golden ratio (1 + √5)/2. Monotone in m thereafter.
        assert!((Mpr::new(1).optimal_load() - 1.0).abs() < 1e-3);
        let phi = (1.0 + 5.0f64.sqrt()) / 2.0;
        assert!((Mpr::new(2).optimal_load() - phi).abs() < 2e-3);
        let mut prev = 0.0;
        for m in 1..=8 {
            let g = Mpr::new(m).optimal_load();
            assert!(g > prev, "G*({m}) = {g} not increasing past {prev}");
            prev = g;
        }
    }

    #[test]
    fn cs_success_curve_shape() {
        let cs = CompressedSensing::default();
        assert_eq!(cs.success_probability(0), 0.0);
        // Monotone decreasing in k.
        let mut prev = 1.0;
        for k in 1..12 {
            let p = cs.success_probability(k);
            assert!((0.0..=1.0).contains(&p));
            assert!(p <= prev, "p({k}) = {p} rose past {prev}");
            prev = p;
        }
        // SNR lowers the ceiling without moving the phase boundary.
        let noisy = cs.with_snr_db(0.0);
        assert!(noisy.success_probability(1) < cs.success_probability(1));
        assert!(noisy.success_probability(1) < 0.3);
    }

    #[test]
    fn cs_decide_is_deterministic_per_slot_and_respects_spoilage() {
        let cs = CompressedSensing::default();
        let c = ctx(2, false);
        assert_eq!(cs.decide(&c), cs.decide(&c));
        assert_eq!(cs.decide(&ctx(2, true)), CollisionOutcome::Lost);
        // A dead channel never decodes.
        let dead = CompressedSensing::default().with_snr_db(-100.0);
        for slot in 0..64 {
            let c = CollisionContext {
                participants: 1,
                spoiled: false,
                slot,
                seed: 5,
            };
            assert_eq!(dead.decide(&c), CollisionOutcome::Lost);
        }
    }

    #[test]
    fn cs_decode_rate_tracks_success_probability() {
        let cs = CompressedSensing::default();
        let p = cs.success_probability(3);
        let decoded = (0..4000)
            .filter(|&slot| {
                cs.decide(&CollisionContext {
                    participants: 3,
                    spoiled: false,
                    slot,
                    seed: 123,
                }) == CollisionOutcome::DecodeAll
            })
            .count();
        let rate = decoded as f64 / 4000.0;
        assert!((rate - p).abs() < 0.03, "rate {rate} vs p {p}");
    }

    #[test]
    fn omega_overrides_follow_capability() {
        assert!(Mpr::new(4).omega_override().unwrap() > Mpr::new(2).omega_override().unwrap());
        let g = CompressedSensing::default().omega_override().unwrap();
        // The default CS model recovers up to ~3-collisions reliably, so
        // its optimal load sits between ALOHA's 1 and MPR(4)'s.
        assert!(g > 1.0 && g < Mpr::new(4).optimal_load(), "G* = {g}");
        assert_eq!(BackendModel::default().omega_override(), None);
    }

    #[test]
    fn labels() {
        assert_eq!(Anc.label(), "anc");
        assert_eq!(Mpr::new(2).label(), "mpr");
        assert_eq!(CompressedSensing::default().label(), "cs");
        assert_eq!(BackendModel::Mpr(Mpr::new(2)).label(), "mpr");
    }
}
