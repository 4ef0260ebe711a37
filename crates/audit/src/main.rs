//! `carve-audit` — the workspace lint wall.
//!
//! ```text
//! carve-audit lint [--json] [WORKSPACE_ROOT]
//! ```
//!
//! Argument handling lives in [`carve_audit::cli`]. Exit status: 0 clean,
//! 1 findings, 2 usage/IO error.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(carve_audit::cli::run(&args))
}
