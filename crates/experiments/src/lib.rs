//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each evaluation artifact has a binary (`fig02` … `fig14`, `table4`,
//! `table5`) and a library function here, so the `all-figures` campaign
//! runner can share simulation results across figures — most figures slice
//! the same (workload × design) result matrix.
//!
//! Output goes to stdout as aligned tables and to `results/<id>.tsv`.
//!
//! Environment knobs:
//!
//! * `CARVE_QUICK=1` — shrink workloads (fewer kernels/CTAs) for a fast
//!   sanity pass of the whole campaign.
//! * `CARVE_RESULTS_DIR` — where `.tsv` files are written (default
//!   `results/`).
//! * `CARVE_THREADS` — worker threads for parallel campaign fan-out
//!   (default: available parallelism).
//! * `CARVE_STEP=1` — force the legacy cycle-stepping engine instead of
//!   event skipping (see `carve_system::sim`).

#![warn(missing_docs)]

pub mod campaign;
pub mod figures;
pub mod par;
pub mod table;

pub use campaign::{Campaign, PointFailure, PointTiming};
pub use table::Table;

/// Where campaign outputs go: `CARVE_RESULTS_DIR`, default `results/`.
pub fn results_dir() -> std::path::PathBuf {
    std::env::var("CARVE_RESULTS_DIR")
        .unwrap_or_else(|_| "results".into())
        .into()
}
