//! The repository benchmark: straight, branchy and service traffic through
//! an in-process `tp_serve::Server`, end-to-end metrics from an untraced
//! run and per-layer metrics from a separate traced run. See README.md.

#![forbid(unsafe_code)]

pub mod layers;
pub mod micro;
pub mod plan;
pub mod reference;
pub mod report;
pub mod run;
pub mod serve;

pub use plan::{Plan, Workload};
pub use report::Outcome;
