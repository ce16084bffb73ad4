//! Experiment harness for the ANC-RFID reproduction.
//!
//! Each public `run_*` function regenerates one table or figure of the
//! paper (see DESIGN.md §4 for the experiment index) and returns it as a
//! [`output::Table`], which the `repro` binary prints and writes to CSV.
//! The functions take an [`ExperimentOptions`] so tests can run them at
//! reduced scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod output;
pub mod perf;
pub mod serve;
pub mod trace;

pub use experiments::ExperimentOptions;
pub use rfid_sim::obs::json;
pub use serve::{ServeOptions, Server};
