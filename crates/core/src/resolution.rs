//! Pluggable resolution model and failure-recovery policies.
//!
//! The slot-level protocols classify slots by transmitter count and gate
//! resolvability on `k ≤ λ`; whether the ANC subtraction that a resolution
//! *represents* would actually have succeeded is a separate question,
//! answered by the [`ResolutionModel`]:
//!
//! * [`ResolutionModel::Ideal`] — every λ-gated resolution succeeds
//!   (today's behavior, and the paper's §VI evaluation abstraction).
//! * [`ResolutionModel::SignalBacked`] — every resolution runs the real
//!   MSK-mix → channel → least-squares-subtract → CRC chain from
//!   [`rfid_signal`], with per-hop residual accumulation
//!   ([`rfid_signal::cascade`]), so decode failure becomes SNR-dependent.
//!
//! When an attempt fails, the reader applies a [`RecoveryPolicy`].
//! Completeness holds under *every* policy at *any* SNR: a tag whose
//! record is lost stays active and re-contends in later slots; only
//! throughput degrades.

use rfid_signal::{ChannelModel, MskConfig};

/// How collision-record resolutions are decided under
/// [`Fidelity::SlotLevel`](crate::Fidelity::SlotLevel).
///
/// Ignored under [`Fidelity::SignalLevel`](crate::Fidelity::SignalLevel),
/// where the reader classifies every slot from a simulated reception and a
/// record rebuilds its slot's reception from the same counter streams when
/// it is attempted, so physics already decides every resolution.
#[derive(Debug, Clone, Default)]
pub enum ResolutionModel {
    /// Every λ-gated resolution succeeds — reproduces the pre-existing
    /// behavior bit-for-bit (byte-identical reports, identical RNG
    /// trajectory).
    #[default]
    Ideal,
    /// Resolutions run the actual ANC subtract-and-decode chain on a
    /// record's mixture, synthesized when the record is attempted from
    /// counter streams keyed on the record (the protocol-side RNG
    /// trajectory stays untouched).
    SignalBacked(SignalResolutionConfig),
}

/// Per-hop residual growth factor `r` fitted by the `repro calibrate`
/// experiment: the value that best matches the closed-form model tier's
/// decode-failure curve ([`rfid_signal::cascade_noise_std`]) to the
/// actual waveform-path cascade ([`rfid_signal::cascade::peel_sequential`])
/// over a grid of channel noise levels and cascade depths. See
/// `results/calibration.csv` and `tests/fidelity.rs` for the agreement
/// this value is held to.
pub const CALIBRATED_RESIDUAL_PER_HOP: f64 = 0.20;

/// Parameters of [`ResolutionModel::SignalBacked`].
#[derive(Debug, Clone)]
pub struct SignalResolutionConfig {
    /// MSK modulation used to synthesize and decode record waveforms.
    pub msk: MskConfig,
    /// Channel each synthesized component passes through. The model's
    /// `noise_std` is the sweep axis of the `snr-sweep` experiment.
    pub channel: ChannelModel,
    /// Per-hop residual growth factor `r` of
    /// [`rfid_signal::cascade_noise_std`]: a resolution at cascade depth
    /// `d` suffers extra noise variance `noise_std²·((1+r)^(d−1) − 1)`.
    /// Zero disables accumulation.
    pub residual_per_hop: f64,
}

impl Default for SignalResolutionConfig {
    fn default() -> Self {
        SignalResolutionConfig {
            msk: MskConfig::default(),
            channel: ChannelModel::default(),
            residual_per_hop: CALIBRATED_RESIDUAL_PER_HOP,
        }
    }
}

impl SignalResolutionConfig {
    /// This configuration with a different channel noise level.
    #[must_use]
    pub fn with_noise_std(mut self, noise_std: f64) -> Self {
        self.channel = self.channel.with_noise_std(noise_std);
        self
    }
}

/// What the reader does when a signal-backed resolution attempt fails
/// (CRC mismatch or residual defeat).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RecoveryPolicy {
    /// Discard the spent record; the unresolved tag stays active and
    /// re-contends in later slots. The baseline — also the only behavior
    /// failures had before recovery policies existed.
    #[default]
    DropRecord,
    /// Schedule a dedicated re-query slot addressed at the unresolved
    /// remainder: the reader announces the record's slot index, the one
    /// unknown tag retransmits alone, and a clean singleton decode
    /// recovers it. Failed re-queries back off linearly
    /// (`backoff_slots·attempt`) and give up after `max_retries`,
    /// returning the tag to open contention.
    Requery {
        /// Re-query attempts per failed record before giving up.
        max_retries: u32,
        /// Slots of linear backoff between attempts.
        backoff_slots: u32,
    },
    /// Retry a *cascade* failure once at depth 1 — the reader re-runs the
    /// subtraction directly against the stored record instead of chaining
    /// through accumulated residuals, salvaging the partial cascade.
    /// Failures at depth 1 (pure channel noise) still drop.
    SalvagePartial,
}

impl RecoveryPolicy {
    /// The default re-query policy: 3 retries, 4-slot backoff.
    #[must_use]
    pub fn requery() -> Self {
        RecoveryPolicy::Requery {
            max_retries: 3,
            backoff_slots: 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        assert!(matches!(ResolutionModel::default(), ResolutionModel::Ideal));
        assert_eq!(RecoveryPolicy::default(), RecoveryPolicy::DropRecord);
        let cfg = SignalResolutionConfig::default();
        assert!(cfg.residual_per_hop > 0.0);
        let quiet = cfg.with_noise_std(0.0);
        assert_eq!(quiet.channel.noise_std(), 0.0);
    }

    #[test]
    fn requery_shorthand() {
        assert!(matches!(
            RecoveryPolicy::requery(),
            RecoveryPolicy::Requery {
                max_retries: 3,
                backoff_slots: 4
            }
        ));
    }
}
