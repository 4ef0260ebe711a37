//! Engine substrate for the `carve-mgpu` multi-GPU NUMA simulator.
//!
//! This crate holds the pieces every other crate in the workspace leans on:
//!
//! * [`cycle`] — the simulation clock ([`Cycle`]) and time arithmetic,
//! * [`event`] — the [`NextEvent`] horizon trait the skipping engine polls,
//! * [`rng`] — deterministic, splittable pseudo-random streams,
//! * [`stats`] — counters, histograms and summary math (geometric mean),
//! * [`queue`] — bounded FIFO queues used to connect pipeline stages,
//! * [`config`] — the scaled system configuration shared by all components,
//! * [`fault`] — deterministic cycle-stamped fault schedules ([`FaultPlan`])
//!   and recovery accounting for the chaos layer,
//! * [`profile`] — the cycle-accounting stall taxonomy and occupancy
//!   breakdowns ([`ProfileReport`]) behind `carve-sim trace`,
//! * [`units`] — byte-size / bandwidth formatting helpers,
//! * [`telemetry`] — interval sampling ([`Timeline`]) and structured event
//!   tracing ([`TraceEvent`]) for the observability layer.
//!
//! The simulator advances an event-horizon engine over a cycle-accurate
//! model: components implement [`NextEvent`] so the engine can jump `now`
//! straight to the next cycle anything can happen, producing results
//! bit-identical to stepping one cycle at a time. Determinism is a core
//! design goal (two runs with the same seed produce bit-identical results),
//! which is why random streams are derived from explicit seeds rather than
//! OS entropy; experiment campaigns may fan independent simulations across
//! threads, but each `System` instance stays single threaded.
//!
//! # Example
//!
//! ```
//! use sim_core::rng::Stream;
//! use sim_core::stats::geomean;
//!
//! let mut s = Stream::from_parts(&[1, 2, 3]);
//! let x = s.next_u64();
//! let y = Stream::from_parts(&[1, 2, 3]).next_u64();
//! assert_eq!(x, y); // deterministic
//! assert!((geomean([2.0, 8.0].iter().copied()) - 4.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod cycle;
pub mod error;
pub mod event;
pub mod fast;
pub mod fault;
pub mod profile;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod units;
pub mod watchdog;

pub use config::{BaselineConfig, ScaledConfig, TopologySpec};
pub use cycle::Cycle;
pub use error::SimError;
pub use event::NextEvent;
pub use fast::{FastMap, FastSet, Slab, TagTable};
pub use fault::{FaultEvent, FaultKind, FaultPlan, RecoverySnapshot};
pub use profile::{DramChannelProfile, LinkOccupancy, ProfileReport, StallCat, NUM_STALL_CATS};
pub use queue::BoundedQueue;
pub use rng::Stream;
pub use stats::{geomean, Counter, Histogram};
pub use telemetry::{write_chrome_json, IntervalRecord, Timeline, TraceEvent, TracePhase};
pub use watchdog::{Stall, Watchdog, DEFAULT_WATCHDOG_CYCLES};
