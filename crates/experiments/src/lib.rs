//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each evaluation artifact has a binary (`fig02` … `fig14`, `table4`,
//! `table5`) and a library function here, so the `all-figures` campaign
//! runner can share simulation results across figures — most figures slice
//! the same (workload × design) result matrix.
//!
//! Output goes to stdout as aligned tables and to `results/<id>.tsv`.
//!
//! The library reads no environment: every binary resolves its
//! [`Settings`] once in `main` and hands them to [`Campaign::new`].
//! Environment knobs the binaries read:
//!
//! * `CARVE_QUICK=1` — shrink workloads (fewer kernels/CTAs) for a fast
//!   sanity pass of the whole campaign.
//! * `CARVE_RESULTS_DIR` — where `.tsv` files are written (default
//!   `results/`).
//! * `CARVE_THREADS` — worker threads for parallel campaign fan-out
//!   (default: available parallelism).
//! * `CARVE_TELEMETRY_INTERVAL` — interval telemetry for every simulated
//!   point (`--timeline` alone samples every 5000 cycles).
//! * `CARVE_STEP=1`, `CARVE_SANITIZE=1`, `CARVE_WATCHDOG_CYCLES` — the
//!   stepping engine, the protocol sanitizer and the watchdog budget (see
//!   [`carve_system::SimSettings`]).
//!
//! Flags: `--timeline` and `--profile` write per-point interval telemetry
//! and stall breakdowns next to the tables.
//!
//! The crate measures no host time: simulator speed is judged by the
//! benchmark in `bench-suite/`.

#![warn(missing_docs)]

pub mod campaign;
pub mod figures;
pub mod par;
pub mod settings;
pub mod table;

pub use campaign::{Campaign, PointFailure};
pub use settings::Settings;
pub use table::Table;

/// The body of a single-figure binary: regenerates `figure` on a
/// campaign journaled as `name`, then writes its table and any timeline
/// or profile sidecars the settings ask for.
pub fn figure_main(name: &str, settings: Settings, figure: fn(&mut Campaign) -> Table) {
    let mut c = Campaign::with_journal(name, settings);
    figure(&mut c).emit(c.results_dir());
    eprintln!("({} simulation runs)", c.cached_runs());
    c.report_sidecars(name);
}
