//! Baseband DSP substrate: MSK modulation, a flat-fading channel, and the
//! analog-network-coding (ANC) collision resolver.
//!
//! The paper builds on Katti et al.'s ANC (SIGCOMM'07), which operates on
//! **MSK** (Minimum Shift Keying) signals: a bit `1` is a phase advance of
//! `+π/2` over one bit interval, a bit `0` a phase retreat of `-π/2` (§II-B).
//! When `k` tags transmit simultaneously the reader records the *sum* of
//! their individually-faded waveforms; once it knows `k-1` of the component
//! IDs it can reconstruct and subtract those components and demodulate the
//! last one, turning the collision slot into a delayed singleton.
//!
//! This crate implements that entire chain on synthetic complex baseband
//! samples:
//!
//! * [`complex::Complex`] — minimal complex arithmetic (kept in-repo so the
//!   DSP layer has no external numeric dependencies).
//! * [`msk`] — modulator/demodulator with configurable oversampling.
//! * [`channel`] — per-tag attenuation + phase rotation + AWGN; reproducible
//!   draws from a seeded RNG.
//! * [`anc`] — the resolver: the μ/σ **energy equations** of §II-B for
//!   two-signal amplitude estimation, joint least-squares estimation of the
//!   complex gains of all known components (exact for any `k`), subtraction,
//!   re-demodulation, and CRC verification.
//! * [`linalg`] — the small complex linear solver behind the joint LS fit.
//!
//! # Relation to the slot-level simulations
//!
//! The paper's protocol evaluation (§VI) is slot-level: a `k`-collision slot
//! is *resolvable* iff `k ≤ λ`. This crate is what justifies that
//! abstraction — the `ablation-snr` experiment in `rfid-bench` measures the
//! SNR region where signal-level resolution of 2/3/4-collisions in fact
//! succeeds, and integration tests assert slot-level and signal-level FCAT
//! agree at high SNR.
//!
//! # Example: resolve a 2-collision
//!
//! ```
//! use rfid_signal::{channel::ChannelModel, msk::MskConfig, anc};
//! use rfid_types::TagId;
//! use rand::SeedableRng;
//!
//! let cfg = MskConfig::default();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let model = ChannelModel::default();
//!
//! let t1 = TagId::from_payload(0xAAAA);
//! let t2 = TagId::from_payload(0x5555);
//! let mixed = anc::transmit_mixed(&[t1, t2], &cfg, &model, &mut rng);
//!
//! // Later the reader learns t1 from a singleton slot; now it can peel t1's
//! // waveform out of the recorded mixture and decode t2.
//! let recovered = anc::resolve(&mixed, &[t1], &cfg).expect("resolvable");
//! assert_eq!(recovered, t2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anc;
pub mod cascade;
pub mod channel;
pub mod complex;
pub mod kernels;
pub mod linalg;
pub mod msk;

pub use anc::{
    resolve, transmit_mixed, transmit_mixed_cached, transmit_mixed_into, AncError, EnergyEstimate,
    MixScratch, ReferenceCache, ResolveScratch,
};
pub use cascade::{
    cascade_noise_std, degrade_into, resolve_cascaded, resolve_cascaded_cached, ResolutionAttempt,
};
pub use channel::{
    fill_standard_normal_into, standard_normal, standard_normal_pair, ChannelModel, ChannelParams,
};
pub use complex::Complex;
pub use msk::{MskConfig, MskDemodulator, MskModulator};
