//! `kmm-bench`: the repo's one repeatable benchmark — six named workloads,
//! ten end-to-end metrics, a per-layer sheet and a traced run. See
//! `bench/README.md` for the protocol and why each workload and metric
//! was chosen.
//!
//! The package is its own workspace (nothing outside `bench/` knows it
//! exists) and measures every layer from outside, through public API only.

pub mod churn;
pub mod compare;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod osstat;
pub mod probes;
pub mod report;
pub mod spans;
pub mod spec;
pub mod stats;
