//! The carve-mgpu benchmark suite: four workloads that each stress
//! different simulator layers, measured end to end in CPU time with
//! tracing off, plus a separate traced pass that breaks the run down by
//! layer. See `README.md` for the workloads, metrics and A/B method.
//!
//! The benchmark reaches the simulator only through its public API:
//! [`carve_system::try_run_with_profile_mode`],
//! [`carve_system::profile_workload`], and the component types of the
//! `trace`, `runtime`, `gpu`, `dram`, `noc` and `carve` crates.

#![warn(missing_docs)]

pub mod compare;
pub mod grid;
pub mod measure;
pub mod pool;
pub mod probes;
pub mod report;
pub mod spans;
pub mod suite;
