//! The assembled multi-GPU NUMA system and experiment harness.
//!
//! This crate wires every substrate together into the machine the paper
//! evaluates: per-GPU [`carve_gpu::GpuCore`]s and [`carve_dram::DramModel`]s,
//! a routed [`carve_noc::LinkNetwork`] over a [`carve_noc::Topology`]
//! (default: the paper's 4-GPU all-to-all mesh; scalable to 64 GPUs over
//! switch, ring, or hierarchical pod fabrics via
//! [`TopologySpec`](sim_core::TopologySpec)) plus CPU links and system
//! memory, a [`carve_runtime::PageTable`] with the software placement
//! policies, and optionally [`carve::Carve`] (RDC + coherence) at the
//! memory controllers.
//!
//! The eight named configurations of the paper's figures are the
//! [`Design`] enum; [`run`] simulates one workload under one design and
//! returns a [`SimResult`] with the cycle count and every traffic metric
//! the figures plot. The fallible [`try_run_with_profile_mode`] returns
//! [`SimError`](sim_core::SimError) instead of panicking: configurations
//! are validated up front, a watchdog converts engine livelock into a
//! diagnosed `WatchdogStall`, and cycle-cap overruns surface as
//! `ResourceExhausted`. Both are pure functions of their arguments: the
//! `CARVE_*` environment variables are read by binaries, through
//! [`SimSettings::resolve`], never by this library.
//!
//! # Example
//!
//! ```no_run
//! use carve_system::{run, Design, SimConfig};
//! use carve_trace::workloads;
//!
//! let spec = workloads::by_name("Lulesh").unwrap();
//! let baseline = run(&spec, &SimConfig::new(Design::NumaGpu));
//! let carve = run(&spec, &SimConfig::new(Design::CarveHwc));
//! assert!(carve.cycles <= baseline.cycles);
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod design;
pub mod metrics;
mod observe;
mod sanitize;
pub mod settings;
pub mod sim;

pub use chaos::{ChaosFixture, ChaosOutcome, ChaosScenario};
pub use design::{Design, SimConfig};
pub use metrics::SimResult;
pub use settings::SimSettings;
pub use sim::{run, try_run_with_profile_mode, EngineMode};

// Re-exports so experiment binaries need only this crate.
pub use carve_runtime::sharing::{profile_workload, SharingProfile};
pub use carve_trace::workloads;
pub use sim_core::profile::{
    DramChannelProfile, LinkOccupancy, ProfileReport, StallCat, NUM_STALL_CATS,
};
pub use sim_core::telemetry::{
    write_chrome_json, IntervalRecord, Timeline, TraceEvent, TracePhase,
};
pub use sim_core::{FaultKind, FaultPlan, RecoverySnapshot, ScaledConfig, SimError, TopologySpec};
