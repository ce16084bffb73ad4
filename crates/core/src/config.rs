//! Shared configuration vocabulary for the collision-aware protocols.

use rfid_signal::{ChannelModel, MskConfig};

/// How tag transmission decisions are drawn in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Membership {
    /// Statistically equivalent fast path: the number of transmitters per
    /// slot is drawn `Binomial(remaining, p)` and the transmitter set
    /// uniformly. Because the paper's hash rule `H(ID|i) ≤ ⌊p·2^l⌋` *is*
    /// an independent per-(tag, slot) Bernoulli trial, and the reader's
    /// later membership checks reproduce exactly the transmissions that
    /// happened, this path is distribution-identical to the protocol while
    /// costing `O(transmitters)` per slot instead of `O(remaining)`.
    #[default]
    Sampled,
    /// Faithful path: every remaining tag evaluates the paper's hash test
    /// for every slot. Used by equivalence tests and available for
    /// paranoia; `O(remaining)` per slot.
    Hash,
}

/// Simulation fidelity of slot classification and collision resolution.
#[derive(Debug, Clone, Default)]
pub enum Fidelity {
    /// The paper's evaluation abstraction: slots are classified by
    /// transmitter count, and a `k`-collision record is resolvable iff
    /// `k ≤ λ` (and survives the error model's `unresolvable_collision`
    /// draw).
    #[default]
    SlotLevel,
    /// Full DSP: every transmission is MSK-modulated through an
    /// independently drawn channel; the reader demodulates, CRC-checks,
    /// records mixed signals, and resolves records with the actual ANC
    /// least-squares subtraction. Physics — not λ — decides resolvability
    /// (capture effects and noise failures included), and failed records
    /// are dropped whatever the [`crate::RecoveryPolicy`]. Channel and
    /// noise come from counter streams keyed on the slot index, not from
    /// the protocol RNG, so a record rebuilds its slot's reception exactly
    /// when it is attempted. Use with populations of at most a few
    /// thousand tags.
    SignalLevel(SignalLevelConfig),
}

/// Parameters of the signal-level fidelity mode.
#[derive(Debug, Clone, Default)]
pub struct SignalLevelConfig {
    /// MSK oversampling configuration.
    pub msk: MskConfig,
    /// Channel model (attenuation range, noise, frequency offset).
    pub channel: ChannelModel,
}

/// How a protocol learns the initial population size.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Default)]
pub enum InitialPopulation {
    /// Oracle: the protocol is told the exact population (the paper's
    /// setting for SCAT after its "estimated to an arbitrary accuracy"
    /// pre-step, with the pre-step cost waived).
    #[default]
    Known,
    /// Start from a fixed guess. FCAT's embedded estimator corrects a bad
    /// guess within a few frames; SCAT cannot and will be slow if the
    /// guess is far off.
    Guess(u32),
    /// Run the probabilistic-frame pre-step estimator
    /// ([`rfid_protocols::PreStepEstimator`]) and charge its air time to
    /// the run.
    PreStep {
        /// Measurement frame size.
        frame_size: u32,
        /// Averaged measurement rounds.
        rounds: u32,
    },
}

impl InitialPopulation {
    /// Resolves the bootstrap into a starting population estimate,
    /// charging any pre-step air time to `report`. Shared by FCAT, SCAT
    /// and the message-level protocol so the three account identically.
    pub(crate) fn bootstrap(
        self,
        actual_population: usize,
        config: &rfid_sim::SimConfig,
        rng: &mut rand::rngs::StdRng,
        report: &mut rfid_sim::InventoryReport,
    ) -> f64 {
        match self {
            InitialPopulation::Known => actual_population as f64,
            InitialPopulation::Guess(g) => f64::from(g.max(1)),
            InitialPopulation::PreStep { frame_size, rounds } => {
                let estimator = rfid_protocols::PreStepEstimator::new(frame_size, rounds);
                let outcome = estimator.estimate(actual_population, config, rng);
                report.record_overhead(outcome.elapsed_us);
                outcome.estimate
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        assert_eq!(Membership::default(), Membership::Sampled);
        assert!(matches!(Fidelity::default(), Fidelity::SlotLevel));
        assert_eq!(InitialPopulation::default(), InitialPopulation::Known);
    }
}
