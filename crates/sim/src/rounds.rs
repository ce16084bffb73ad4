//! Periodic (multi-round) inventory — the paper's motivating workload
//! (§I: "Periodically reading the IDs of the tags is an important function
//! to guard against administration error, vendor fraud and employee
//! theft").
//!
//! A warehouse population changes between rounds (shipments leave, pallets
//! arrive); protocols differ in how much identification work they can
//! carry over. This module provides:
//!
//! * [`MultiRoundSession`] — a protocol instance that keeps state across
//!   rounds (ABS preserves its splitting tree; FCAT warm-starts its
//!   population estimator).
//! * [`StatelessSession`] — adapter running any
//!   [`AntiCollisionProtocol`] fresh every round.
//!
//! [`crate::population`] drives the sessions: a [`PopulationSchedule`]
//! fixes the arrivals and departures, and [`run_monitoring`] replays it
//! round by round.
//!
//! [`PopulationSchedule`]: crate::population::PopulationSchedule
//! [`run_monitoring`]: crate::population::run_monitoring

use crate::{AntiCollisionProtocol, InventoryReport, SimConfig, SimError};
use rand::rngs::StdRng;
use rfid_types::TagId;

/// A protocol session carrying state from one inventory round to the next.
pub trait MultiRoundSession {
    /// Session (protocol) name for reports.
    fn name(&self) -> &str;

    /// Runs one complete inventory round over the current population,
    /// updating internal cross-round state.
    ///
    /// # Errors
    ///
    /// Same contract as [`AntiCollisionProtocol::run`].
    fn run_round(
        &mut self,
        tags: &[TagId],
        config: &SimConfig,
        rng: &mut StdRng,
    ) -> Result<InventoryReport, SimError>;
}

/// Runs any one-shot protocol fresh each round (no carried state) — the
/// baseline against which adaptive sessions are measured.
#[derive(Debug, Clone)]
pub struct StatelessSession<P> {
    protocol: P,
}

impl<P: AntiCollisionProtocol> StatelessSession<P> {
    /// Wraps a protocol.
    #[must_use]
    pub fn new(protocol: P) -> Self {
        StatelessSession { protocol }
    }
}

impl<P: AntiCollisionProtocol> MultiRoundSession for StatelessSession<P> {
    fn name(&self) -> &str {
        self.protocol.name()
    }

    fn run_round(
        &mut self,
        tags: &[TagId],
        config: &SimConfig,
        rng: &mut StdRng,
    ) -> Result<InventoryReport, SimError> {
        self.protocol.run(tags, config, rng)
    }
}
