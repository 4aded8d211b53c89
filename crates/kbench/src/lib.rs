#![warn(missing_docs)]
//! Experiment harness: workload definitions and result records shared by
//! the `tables` binary (which regenerates every table/figure series of
//! DESIGN.md §4) and the ledger-envelope family tests. Wall-clock numbers
//! come from the stand-alone `bench/` package, not from here.

pub mod chaos;
pub mod contraction;
pub mod dynamic;
pub mod experiments;
pub mod large;
pub mod table;

pub use chaos::ChaosScenario;
pub use dynamic::DynScenario;
pub use experiments::{run_all, run_experiment, ExperimentRecord};
pub use large::LargeScenario;
pub use table::Table;
