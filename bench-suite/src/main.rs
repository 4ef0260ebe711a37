//! `carve-bench-suite` — the simulator's benchmark.
//!
//! ```text
//! carve-bench-suite [--workload NAME]... [--seed N] [--seconds S | --reps N]
//!                   [--trace 0|1] [--out PATH]
//! carve-bench-suite compare <parent.tsv> <change.tsv>
//! ```
//!
//! The first form sets up, warms up and times the named workloads (all
//! four by default) on two worker threads with tracing off, prints every
//! end-to-end metric with its quartiles and sample count, checks every
//! simulated output, and with `--trace 1` (the default) follows with a
//! traced pass that prints the per-layer table. `--seconds` (default 20)
//! times as many reps as take that long on the reference machine, at
//! least each workload's minimum; `--reps` times exactly that many.
//! `--seed` varies every workload's generated traces. Seed 0 keeps the
//! Table II traces, and its outputs must match the digests recorded in
//! `digests.txt`; `fig02`'s fidelity run at seed 0 is the Figure 2
//! campaign at full scale.
//!
//! It appends one record per metric to `--out` (default
//! `target/bench/suite.tsv`), writes the traced pass's spans to
//! `target/bench/trace-<workload>.json`, and prints as its last line one
//! JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (or the per-layer ones under `--trace 1`).
//!
//! `compare` prints each side's median and quartiles per (workload,
//! metric) of two results files with a verdict — `better`, `worse`,
//! `unresolved` or `within-bound` — against the bounds in
//! `BENCHMARK.json`, and exits 1 when any metric is `worse`.

use std::path::Path;
use std::process::ExitCode;

use carve_bench_suite::compare;
use carve_bench_suite::grid::{self, WORKLOADS};
use carve_bench_suite::measure::{self, machine_facts};
use carve_bench_suite::report::{self, Checks, Metric, Outputs, RECORDED};
use carve_bench_suite::suite::{self, Budget, Traced, WorkloadRun};

const USAGE: &str = "usage: carve-bench-suite [--workload NAME]... [--seed N] \
                     [--seconds S | --reps N] [--trace 0|1] [--out PATH]\n       \
                     carve-bench-suite compare <parent.tsv> <change.tsv>";

/// Where results, traces and digests go, relative to the working directory.
const OUT_DIR: &str = "target/bench";

struct Options {
    workloads: Vec<&'static str>,
    seed: u64,
    budget: Budget,
    trace: bool,
    out: String,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: 0,
        budget: Budget::Seconds(20.0),
        trace: true,
        out: format!("{OUT_DIR}/suite.tsv"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let w = WORKLOADS.iter().find(|w| *w == v).ok_or_else(|| {
                    format!("unknown workload {v} (known: {})", WORKLOADS.join(", "))
                })?;
                o.workloads.push(w);
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {s} is not a duration"));
                }
                o.budget = Budget::Seconds(s);
            }
            "--reps" => {
                let n: usize = value()?.parse().map_err(|e| format!("--reps: {e}"))?;
                if n == 0 {
                    return Err("--reps must be at least 1".into());
                }
                o.budget = Budget::Reps(n);
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out" => o.out = value()?.clone(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.workloads.is_empty() {
        o.workloads = WORKLOADS.to_vec();
    }
    Ok(o)
}

fn main() -> ExitCode {
    // No environment variable may change what is measured.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("CARVE_") {
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => parse(&args).and_then(|o| run_suite(&o)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("carve-bench-suite: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let [parent, change] = args else {
        return Err("compare takes a parent and a change results file".into());
    };
    Ok(!compare::compare(parent, change)?)
}

/// Runs the suite; `Ok(false)` when an output check failed.
fn run_suite(o: &Options) -> Result<bool, String> {
    let io = |e: std::io::Error| format!("cannot measure on this host: {e}");
    measure::try_thread_schedstat().map_err(io)?;
    measure::reset_peak_rss().map_err(io)?;
    measure::peak_rss_mib().map_err(io)?;
    println!("machine at start: {}", machine_facts());

    let mut runs: Vec<WorkloadRun<'_>> = o
        .workloads
        .iter()
        .map(|w| {
            let seed = o.seed;
            let mut r =
                WorkloadRun::set_up(move || grid::grid(w, seed).expect("known workload").prepare());
            r.fidelity = grid::fidelity_grid(w, seed);
            println!(
                "set-up {w}: {} points, {} profiles",
                r.prep.grid.points.len(),
                r.prep.profiles.len()
            );
            r
        })
        .collect();
    suite::measure(&mut runs, o.budget).map_err(io)?;
    if runs.len() > 1 {
        println!("peak_rss_mib is read only when one --workload runs");
    }
    if o.trace {
        for r in &mut runs {
            suite::traced_pass(r);
        }
    }
    println!("machine at end: {}", machine_facts());

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let run_id = format!(
        "{}-{}",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        std::process::id()
    );
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut reported: Vec<(String, Metric)> = Vec::new();
    let mut records = String::new();
    for r in &runs {
        let w = r.prep.grid.name;
        let e2e = report::end_to_end(r);
        println!(
            "\n== {w}: {} points x {} reps, seed {} ==\n{}",
            r.prep.grid.points.len(),
            r.reps.len(),
            o.seed,
            report::table(&e2e)
        );
        let mut checked = vec![(w.to_string(), &r.prep, report::checks(r))];
        if let Some(f) = r.traced.as_ref().and_then(|t| t.fidelity.as_ref()) {
            let c = report::check_runs(&f.prep, &f.rep.runs);
            checked.push((format!("{w}-table-ii"), &f.prep, c));
        }
        for (label, prep, c) in &checked {
            correct &= check_outputs(o.seed, label, prep, c)? && c.correct();
            attempted += c.attempted;
            failed += c.failures.len();
        }
        records += &report::records(&run_id, o.seed, w, &e2e, checked[0].2.digest);
        let shown = match &r.traced {
            Some(traced) => {
                let layers = report::per_layer(r).expect("the traced pass ran");
                println!(
                    "-- {w}: per-layer (traced pass) --\n{}",
                    report::table(&layers)
                );
                print_spans(w, traced)?;
                layers
            }
            None => e2e,
        };
        for m in shown {
            let key = if runs.len() == 1 {
                m.name.clone()
            } else {
                format!("{w}.{}", m.name)
            };
            reported.push((key, m));
        }
    }
    append(&o.out, &records)?;

    println!(
        "{}",
        report::result_line(correct, attempted, failed, &reported)
    );
    Ok(correct)
}

/// Prints the output checks of the grid `label` and, at seed 0, compares
/// its digests with the recorded ones and writes them to `OUT_DIR`.
/// Returns whether the outputs are the recorded ones (always at other
/// seeds, where nothing is recorded).
fn check_outputs(
    seed: u64,
    label: &str,
    prep: &grid::Prepared,
    c: &Checks,
) -> Result<bool, String> {
    let outputs = (seed == 0).then(|| report::outputs(RECORDED, label, prep, c));
    println!(
        "{label}: {} digest={:016x} attempted={} failed={} failed_frac={}",
        outputs
            .as_ref()
            .map_or(format!("outputs=seed-{seed}"), Outputs::to_string),
        c.digest,
        c.attempted,
        c.failures.len(),
        c.failures.len() as f64 / c.attempted as f64
    );
    for f in c.failures.iter().chain(&c.unstable) {
        println!("  FAILED {f}");
    }
    if seed == 0 {
        let path = format!("{OUT_DIR}/digests-{label}.txt");
        std::fs::write(&path, report::digest_lines(label, prep, c))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(outputs.is_none_or(|o| o.ok()))
}

fn print_spans(workload: &str, traced: &Traced) -> Result<(), String> {
    println!(
        "{:<36} {:>6} {:>12} {:>12}",
        "span", "count", "total_s", "self_s"
    );
    for (name, s) in traced.trace.totals() {
        println!(
            "{name:<36} {:>6} {:>12.6} {:>12.6}",
            s.count,
            s.total_ns as f64 / 1e9,
            s.self_ns as f64 / 1e9
        );
    }
    let path = Path::new(OUT_DIR).join(format!("trace-{workload}.json"));
    std::fs::write(&path, traced.trace.chrome_json())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("trace: {}", path.display());
    Ok(())
}

fn append(path: &str, text: &str) -> Result<(), String> {
    use std::io::Write;
    if let Some(dir) = Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(text.as_bytes()))
        .map_err(|e| format!("{path}: {e}"))
}
