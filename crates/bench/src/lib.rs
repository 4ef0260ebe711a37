//! Self-contained benchmark harness for the `carve-mgpu` simulator.
//!
//! Wall-clock microbenchmarks of the core structures (`structures`,
//! `dram_noc`, `tracegen`) and end-to-end simulation throughput per system
//! design (`end_to_end`). The *simulated-cycle* experiments that regenerate
//! the paper's tables and figures live in the `experiments` crate instead
//! (`cargo run -p experiments --bin all-figures`), because a host-time
//! benchmark measures wall time, not simulated time.
//!
//! The harness is first-party (no external crates): each benchmark runs an
//! adaptive calibration loop until it has spent a target wall-time budget,
//! then reports nanoseconds per iteration. Invoke via
//! `cargo bench -p carve-bench` — an optional CLI argument filters
//! benchmarks by substring, e.g. `cargo bench -p carve-bench -- sram`.

#![warn(missing_docs)]

use std::hint::black_box as hint_black_box;
use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting benchmarked
/// work. Thin wrapper over [`std::hint::black_box`].
pub fn black_box<T>(x: T) -> T {
    hint_black_box(x)
}

/// Per-benchmark measurement state handed to the closure registered with
/// [`Runner::bench_function`].
pub struct Bencher {
    /// Wall-time budget for the measurement phase.
    budget: Duration,
    /// Filled in by [`Bencher::iter`].
    result: Option<Measurement>,
}

/// The outcome of one benchmark: total iterations and elapsed time.
struct Measurement {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `f` in an adaptive loop: warm up, then grow the batch size
    /// until the measurement budget is spent, and record ns/iter.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        for _ in 0..8 {
            black_box(f());
        }
        let mut batch: u64 = 16;
        let mut total_iters: u64 = 0;
        let mut total_time = Duration::ZERO;
        while total_time < self.budget {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            total_time += start.elapsed();
            total_iters += batch;
            batch = batch.saturating_mul(2).min(1 << 24);
        }
        self.result = Some(Measurement {
            iters: total_iters,
            elapsed: total_time,
        });
    }
}

/// A named collection of benchmarks sharing a `group/` prefix in output.
pub struct Group<'a> {
    runner: &'a mut Runner,
    name: String,
    budget: Duration,
}

impl Group<'_> {
    /// Lowers the measurement budget for expensive benchmarks; kept for
    /// parity with the criterion-style API the benches were written
    /// against (a smaller "sample size" maps to a smaller time budget).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        if n <= 10 {
            self.budget = Duration::from_millis(200);
        }
        self
    }

    /// Registers and immediately runs one benchmark within the group.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        let full = format!("{}/{}", self.name, name);
        let budget = self.budget;
        self.runner.run_one(&full, budget, f);
        self
    }

    /// Ends the group. No-op; groups flush as they run.
    pub fn finish(&mut self) {}
}

/// Top-level benchmark driver: parses the CLI filter and runs benchmarks,
/// printing one `name ... ns/iter` line each.
pub struct Runner {
    filter: Option<String>,
}

impl Runner {
    /// Builds a runner from the command line after the program name; the
    /// first non-flag argument is a substring filter on benchmark names.
    /// The `--bench` flag cargo passes is ignored.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let filter = args
            .into_iter()
            .find(|a| !a.starts_with('-'))
            .filter(|a| !a.is_empty());
        Runner { filter }
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> Group<'_> {
        Group {
            name: name.to_string(),
            runner: self,
            budget: Duration::from_millis(50),
        }
    }

    /// Registers and immediately runs one ungrouped benchmark.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        self.run_one(name, Duration::from_millis(50), f);
        self
    }

    fn run_one(&mut self, full_name: &str, budget: Duration, mut f: impl FnMut(&mut Bencher)) {
        if let Some(filter) = &self.filter {
            if !full_name.contains(filter.as_str()) {
                return;
            }
        }
        let mut b = Bencher {
            budget,
            result: None,
        };
        f(&mut b);
        match b.result {
            Some(m) if m.iters > 0 => {
                let ns = m.elapsed.as_nanos() as f64 / m.iters as f64;
                println!(
                    "bench {full_name:<44} {ns:>12.1} ns/iter ({} iters)",
                    m.iters
                );
            }
            _ => println!("bench {full_name:<44} (no measurement)"),
        }
    }
}

/// Runs a list of registration functions under a fresh [`Runner`] built
/// from `args`; the entry point every bench binary calls from `main`.
pub fn run_benches(args: impl IntoIterator<Item = String>, benches: &[fn(&mut Runner)]) {
    let mut r = Runner::from_args(args);
    for bench in benches {
        bench(&mut r);
    }
}
