//! The benchmark of the Relax reproduction: three fixed workloads served
//! through the crates' public functions only, every output checked against
//! an independent reference, seven end-to-end metrics with `--trace 0` and
//! the per-layer metrics with `--trace 1`. See `README.md`.
//!
//! It measures each layer from outside — by timing calls into its public
//! functions and reading the counters and spans it already publishes — and
//! changes no layer of the product.

#![forbid(unsafe_code)]

pub mod config;
pub mod e2e;
pub mod host;
pub mod metrics;
pub mod probes;
pub mod reference;
pub mod run;
pub mod solo;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workload;
