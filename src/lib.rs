//! # anc-rfid — facade crate
//!
//! One-stop re-export of the ANC-RFID workspace, a full reproduction of
//! *"Using Analog Network Coding to Improve the RFID Reading Throughput"*
//! (Zhang, Li, Chen, Li — ICDCS 2010).
//!
//! The workspace implements, from the bottom up:
//!
//! * [`types`] — tag IDs with CRC-16, the deterministic slot-membership hash
//!   `H(ID|i)`, Philips I-Code air-interface timing, and slot taxonomy.
//! * [`signal`] — an MSK baseband DSP layer with a fading channel and the
//!   analog-network-coding resolver (energy-equation amplitude estimation,
//!   least-squares subtraction, phase-difference demodulation).
//! * [`sim`] — the slot-level simulation engine: the
//!   [`AntiCollisionProtocol`](sim::AntiCollisionProtocol) trait, seeded reproducible runs, channel-error
//!   injection, and a parallel multi-run harness.
//! * [`protocols`] — the paper's baselines: DFSA, EDFSA, ABS, AQS, plus
//!   slotted ALOHA and a basic query tree.
//! * [`anc`] — the paper's contribution: the SCAT and FCAT collision-aware
//!   protocols with cascading ANC collision resolution and the embedded
//!   remaining-tag estimator.
//! * [`analysis`] — closed-form results: optimal report probability
//!   `ω* = (λ!)^{1/λ}`, slot-class moments, estimator bias/variance, and
//!   throughput bounds.
//!
//! # Quickstart
//!
//! ```
//! use anc_rfid::prelude::*;
//!
//! // 500 tags, FCAT with 2-collision resolution (today's ANC), one seeded run.
//! let tags = population::uniform(&mut seeded_rng(1), 500);
//! let fcat = Fcat::new(FcatConfig::default().with_lambda(2));
//! let report = run_inventory(&fcat, &tags, &SimConfig::default().with_seed(42))
//!     .expect("inventory succeeds");
//! assert_eq!(report.identified, 500);
//! assert!(report.throughput_tags_per_sec > 150.0);
//! ```

#![forbid(unsafe_code)]

pub use rfid_analysis as analysis;
pub use rfid_anc as anc;
pub use rfid_protocols as protocols;
pub use rfid_signal as signal;
pub use rfid_sim as sim;
pub use rfid_types as types;

/// Commonly used items, importable with a single `use anc_rfid::prelude::*`.
pub mod prelude {
    pub use rfid_anc::device::MessageLevelFcat;
    pub use rfid_anc::{
        BackendModel, CompressedSensing, Fcat, FcatConfig, FcatSession, LambdaController, Mpr,
        RecoveryBackend, RecoveryPolicy, ResolutionModel, Scat, ScatConfig, ScatSession,
        SignalResolutionConfig, CALIBRATED_RESIDUAL_PER_HOP,
    };
    pub use rfid_protocols::{
        Abs, Aqs, Crdsa, Dfsa, DfsaConfig, Edfsa, EdfsaConfig, QueryTree, SlottedAloha,
    };
    pub use rfid_sim::{
        run_inventory, run_inventory_observed, run_many, run_many_observed, run_monitoring,
        seeded_rng, AntiCollisionProtocol, DwellModel, InventoryReport, LambdaPolicy,
        MonitorConfig, MonitorDetectionKind, MonitorReport, ObservableProtocol, PopulationSchedule,
        SimConfig,
    };
    pub use rfid_types::{population, SlotClass, TagId, TimingConfig};
}
