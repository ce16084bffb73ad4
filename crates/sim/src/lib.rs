//! Slot-level simulation engine for RFID tag-identification protocols.
//!
//! The paper evaluates all protocols with a slot-level simulator (§VI):
//! time advances in reader-synchronized slots, each slot's cost is given by
//! the Philips I-Code timing, and each protocol decides which tags transmit
//! when. This crate provides the shared machinery:
//!
//! * [`AntiCollisionProtocol`] — the trait every protocol (the paper's FCAT
//!   and SCAT in `rfid-anc`, the baselines in `rfid-protocols`) implements.
//! * [`SimConfig`] — seed, air-interface timing, channel-error injection
//!   and safety caps for one inventory run.
//! * [`InventoryReport`] — what a run produces: identified-tag count, slot
//!   breakdown (the paper's Table II), IDs recovered from collision records
//!   (Table III), elapsed air time and reading throughput (Table I).
//! * [`run_inventory`] / [`run_many`] — single seeded runs and the
//!   multi-run mean±stddev harness (the paper averages 100 runs),
//!   parallelized with std scoped threads.
//! * [`ObservableProtocol`] + [`run_inventory_observed`] /
//!   [`run_many_observed`] — the same runs with a slot-level
//!   [`rfid_obs::EventSink`] attached (re-exported as [`obs`]); sinks are
//!   observation-only, so traced and untraced runs return identical
//!   reports.
//!
//! # Example
//!
//! ```
//! use rfid_sim::{AntiCollisionProtocol, InventoryReport, SimConfig, SimError};
//! use rfid_types::{population, SlotClass, TagId, TimingConfig};
//! use rand::rngs::StdRng;
//!
//! /// A toy "protocol" that reads every tag in its own slot, in order.
//! struct RollCall;
//!
//! impl AntiCollisionProtocol for RollCall {
//!     fn name(&self) -> &str { "roll-call" }
//!
//!     fn run(
//!         &self,
//!         tags: &[TagId],
//!         config: &SimConfig,
//!         _rng: &mut StdRng,
//!     ) -> Result<InventoryReport, SimError> {
//!         let mut report = InventoryReport::new(self.name());
//!         for tag in tags {
//!             report.record_slot(SlotClass::Singleton, config.timing().basic_slot_us());
//!             report.record_identified(*tag);
//!         }
//!         Ok(report)
//!     }
//! }
//!
//! let tags = population::uniform(&mut rfid_sim::seeded_rng(7), 100);
//! let report = rfid_sim::run_inventory(&RollCall, &tags, &SimConfig::default()).unwrap();
//! assert_eq!(report.identified, 100);
//! // One ID per ~2.8 ms slot ≈ 358 tags/s: the physical ceiling of §I.
//! assert!(report.throughput_tags_per_sec > 350.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
pub mod multisite;
pub mod population;
mod protocol;
mod report;
mod rng;
pub mod rounds;
mod runner;
pub mod sampling;
pub mod shard;

pub use config::{ErrorModel, LambdaPolicy, SimConfig};
pub use error::SimError;
pub use multisite::{
    multi_site_inventory, Deployment, InterferenceGraph, MultiSiteReport, PlacedTag, Schedule,
    SliceTiming,
};
pub use population::{
    run_monitoring, run_monitoring_observed, Detection, DwellModel, MonitorConfig,
    MonitorDetectionKind, MonitorReport, PopulationSchedule, ScheduledEvent, ScheduledEventKind,
};
pub use protocol::{AntiCollisionProtocol, ObservableProtocol};
pub use report::{
    Aggregate, InventoryReport, LambdaTrajectoryPoint, MultiRunReport, SlotCounts, TraceEvent,
};
pub use rng::{derive_seed, noise_stream_seed, seeded_rng, CounterRng};
pub use runner::{
    run_inventory, run_inventory_observed, run_many, run_many_observed, run_many_with_populations,
};
pub use shard::{
    multi_site_inventory_scheduled, multi_site_inventory_sharded,
    multi_site_inventory_sharded_observed, SliceQueue,
};

/// The observability layer (event types, sinks, metrics, JSONL traces),
/// re-exported so downstream crates need no direct `rfid-obs` dependency.
pub use rfid_obs as obs;
