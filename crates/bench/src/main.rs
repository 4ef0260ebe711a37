//! `carve-bench` — first-party performance harness for the hot-path
//! datapath.
//!
//! ```text
//! carve-bench hotpath [--quick] [--reps N] [--out PATH] [--measure-only]
//!                     [--merge PATH]... [--baseline PATH]...
//!                     [--skip-components]
//! carve-bench check <json> [--baseline <json>] [--max-regress F]
//! ```
//!
//! `hotpath` runs the fig02 campaign grid (20 Table II workloads × the
//! five fig02 designs) with telemetry off and reports end-to-end
//! throughput in simulated megacycles per wall-clock second (Mcyc/s),
//! plus per-component micro-benchmarks (Mops/s) of every hot lookup
//! structure. Results land in `BENCH_hotpath.json`.
//!
//! A/B methodology: build the harness at the baseline commit, copy the
//! binary aside, then alternate `--reps 1 --measure-only` invocations of
//! the old and new binaries (interleaving absorbs machine drift). Feed
//! the old binary's measure files back via `--baseline` (and this
//! binary's via `--merge`) to produce the final report with
//! `speedup_vs_baseline`.
//!
//! `check` validates a `BENCH_hotpath.json` schema (the CI `perf-smoke`
//! gate) and, given a baseline, fails when grid throughput regressed more
//! than `--max-regress` (default 0.25). It refuses, with exit 2, a
//! baseline that differs in `quick`, `threads` or `engine`: throughput
//! from a different grid, worker count or engine is not comparable.

use std::hint::black_box;
use std::time::Instant;

use carve::directory::Directory;
use carve::imst::Imst;
use carve_cache::mshr::MshrFile;
use carve_gpu::Tlb;
use carve_runtime::page_table::{PageTable, PlacementPolicy};
use carve_system::{Design, SimConfig};
use experiments::{Campaign, Settings};
use sim_core::Cycle;

/// The fig02 design columns (ideal bound + three software mechanisms +
/// full CARVE).
const FIG02_DESIGNS: [Design; 5] = [
    Design::Ideal,
    Design::NumaGpu,
    Design::NumaGpuMigrate,
    Design::NumaGpuRepl,
    Design::CarveHwc,
];

struct HotpathArgs {
    quick: bool,
    reps: usize,
    out: String,
    measure_only: bool,
    merge: Vec<String>,
    baseline: Vec<String>,
    skip_components: bool,
}

#[derive(Debug, Clone, Copy)]
struct Rep {
    wall_seconds: f64,
    total_cycles: u64,
    mcyc_per_s: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("hotpath") => {
            let env = Settings::resolve(|key| std::env::var_os(key), std::iter::empty::<&str>());
            hotpath(&args[1..], env)
        }
        Some("check") => check(&args[1..]),
        _ => {
            eprintln!(
                "usage: carve-bench hotpath [--quick] [--reps N] [--out PATH] \
                 [--measure-only] [--merge PATH]... [--baseline PATH]... \
                 [--skip-components]\n       carve-bench check <json> \
                 [--baseline <json>] [--max-regress F]"
            );
            2
        }
    };
    std::process::exit(code);
}

fn parse_hotpath_args(args: &[String]) -> Result<HotpathArgs, String> {
    let mut out = HotpathArgs {
        quick: false,
        reps: 3,
        out: "BENCH_hotpath.json".into(),
        measure_only: false,
        merge: Vec::new(),
        baseline: Vec::new(),
        skip_components: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--quick" => out.quick = true,
            "--measure-only" => out.measure_only = true,
            "--skip-components" => out.skip_components = true,
            "--reps" => {
                out.reps = value("--reps")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?
            }
            "--out" => out.out = value("--out")?,
            "--merge" => out.merge.push(value("--merge")?),
            "--baseline" => out.baseline.push(value("--baseline")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if out.reps == 0 && out.merge.is_empty() {
        return Err("--reps 0 needs --merge files".into());
    }
    Ok(out)
}

/// Runs `hotpath` under the campaign settings `env` resolved from the
/// environment (threads, retries, engine, `CARVE_QUICK`).
fn hotpath(raw: &[String], env: Settings) -> i32 {
    let args = match parse_hotpath_args(raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("carve-bench: {e}");
            return 2;
        }
    };
    // Telemetry must stay off for throughput numbers; the per-point
    // configs also pin it off below.
    let settings = Settings {
        quick: env.quick || args.quick,
        telemetry_interval: None,
        ..env
    };

    let mut reps: Vec<Rep> = Vec::new();
    for path in &args.merge {
        match read_measure_reps(path) {
            Ok(mut r) => reps.append(&mut r),
            Err(e) => {
                eprintln!("carve-bench: --merge {path}: {e}");
                return 1;
            }
        }
    }
    for rep in 0..args.reps {
        let r = run_grid_once(&settings);
        eprintln!(
            "rep {}/{}: {} Mcyc in {:.2}s = {:.2} Mcyc/s",
            rep + 1,
            args.reps,
            r.total_cycles / 1_000_000,
            r.wall_seconds,
            r.mcyc_per_s
        );
        reps.push(r);
    }
    let grid_mcyc = median(reps.iter().map(|r| r.mcyc_per_s));

    if args.measure_only {
        if let Err(e) = write_measure_json(&args.out, &settings, &reps) {
            eprintln!("carve-bench: write {}: {e}", args.out);
            return 1;
        }
        println!("{}", args.out);
        return 0;
    }

    let components = if args.skip_components {
        Vec::new()
    } else {
        run_component_benches(settings.quick)
    };

    let mut baseline_reps: Vec<Rep> = Vec::new();
    for path in &args.baseline {
        match read_measure_reps(path) {
            Ok(mut r) => baseline_reps.append(&mut r),
            Err(e) => {
                eprintln!("carve-bench: --baseline {path}: {e}");
                return 1;
            }
        }
    }
    let baseline_mcyc =
        (!baseline_reps.is_empty()).then(|| median(baseline_reps.iter().map(|r| r.mcyc_per_s)));

    if let Err(e) = write_hotpath_json(
        &args.out,
        &settings,
        &reps,
        grid_mcyc,
        &components,
        &baseline_reps,
        baseline_mcyc,
    ) {
        eprintln!("carve-bench: write {}: {e}", args.out);
        return 1;
    }
    println!("grid: {grid_mcyc:.2} Mcyc/s over {} rep(s)", reps.len());
    for (name, mops) in &components {
        println!("component {name}: {mops:.2} Mops/s");
    }
    if let Some(base) = baseline_mcyc {
        println!(
            "baseline: {base:.2} Mcyc/s -> speedup {:.3}x",
            grid_mcyc / base
        );
    }
    println!("{}", args.out);
    0
}

/// One full pass over the fig02 grid with a fresh (memoization-free)
/// campaign; returns simulated-cycles-per-wall-second.
fn run_grid_once(settings: &Settings) -> Rep {
    let mut c = Campaign::new(settings.clone());
    let mut points: Vec<(carve_trace::WorkloadSpec, SimConfig)> = Vec::new();
    for spec in c.specs() {
        for design in FIG02_DESIGNS {
            let mut sim = SimConfig::with_cfg(design, c.base_cfg());
            sim.telemetry_interval = Some(0);
            points.push((spec.clone(), sim));
        }
    }
    let started = Instant::now();
    let results = c.run_parallel(&points);
    let wall_seconds = started.elapsed().as_secs_f64();
    let total_cycles: u64 = results.iter().map(|r| r.cycles).sum();
    Rep {
        wall_seconds,
        total_cycles,
        mcyc_per_s: total_cycles as f64 / 1e6 / wall_seconds,
    }
}

/// Times `op` (a batch of `batch_ops` operations) until `min_seconds` of
/// samples accumulate; returns Mops/s.
fn time_mops<F: FnMut()>(batch_ops: u64, min_seconds: f64, mut op: F) -> f64 {
    // Warm-up batch (fills tables, faults pages).
    op();
    let mut ops = 0u64;
    let started = Instant::now();
    loop {
        op();
        ops += batch_ops;
        let s = started.elapsed().as_secs_f64();
        if s >= min_seconds {
            return ops as f64 / 1e6 / s;
        }
    }
}

/// Micro-benchmarks for each hot lookup structure, on deterministic
/// access patterns shaped like the simulator's (line-granular addresses,
/// mixed hit/miss, bounded working sets).
fn run_component_benches(quick: bool) -> Vec<(&'static str, f64)> {
    let min_s = if quick { 0.05 } else { 0.25 };
    let mut out = Vec::new();

    // MSHR: primary + secondary + complete over a rotating line window.
    let mut mshr: MshrFile<u32> = MshrFile::new(256, 32);
    out.push((
        "mshr",
        time_mops(3 * 1024, min_s, || {
            for i in 0u64..1024 {
                let line = (i * 128) & 0x3_FFFF;
                black_box(mshr.allocate(line, 1));
                black_box(mshr.allocate(line, 2));
            }
            for i in 0u64..1024 {
                let line = (i * 128) & 0x3_FFFF;
                black_box(mshr.complete(line));
            }
        }),
    ));

    // TLB: working set 2x capacity so hits and FIFO evictions both occur.
    let mut tlb = Tlb::new(512);
    out.push((
        "tlb",
        time_mops(4096, min_s, || {
            for i in 0u64..4096 {
                black_box(tlb.lookup(i & 1023));
            }
        }),
    ));

    // Page table: 4 GPUs touching a 4K-page footprint (first-touch then
    // steady-state hits).
    let mut pt = PageTable::new(4, 8192, PlacementPolicy::default());
    out.push((
        "page_table",
        time_mops(4096, min_s, || {
            for i in 0u64..4096 {
                let gpu = (i & 3) as usize;
                let va = (i * 31 % 4096) * 8192;
                black_box(pt.access(gpu, va, i & 7 == 0, Cycle(i)));
            }
        }),
    ));

    // IMST: mixed local/remote read/write over a 64K-line footprint.
    let mut imst = Imst::new(7);
    out.push((
        "imst",
        time_mops(8192, min_s, || {
            for i in 0u64..8192 {
                let line = (i * 73 % 65536) * 128;
                black_box(imst.on_access(line, i & 1 == 0, i & 3 == 0));
            }
        }),
    ));

    // Directory: record sharers then write-invalidate them.
    let mut dir = Directory::new();
    out.push((
        "directory",
        time_mops(3 * 2048, min_s, || {
            for i in 0u64..2048 {
                let line = (i % 16384) * 128;
                dir.record_sharer(line, (i % 4) as usize);
                dir.record_sharer(line, ((i + 1) % 4) as usize);
            }
            for i in 0u64..2048 {
                let line = (i % 16384) * 128;
                black_box(dir.on_write(line, (i % 4) as usize));
            }
        }),
    ));

    out
}

fn median<I: Iterator<Item = f64>>(xs: I) -> f64 {
    let mut v: Vec<f64> = xs.collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN throughput"));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

// ---------------------------------------------------------------------
// JSON (hand-rolled — the workspace vendors no serialization crates).

fn write_measure_json(path: &str, settings: &Settings, reps: &[Rep]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::fs::File::create(path)?;
    writeln!(out, "{{")?;
    writeln!(out, "  \"schema\": \"carve-bench-measure-v1\",")?;
    writeln!(out, "  \"quick\": {},", settings.quick)?;
    writeln!(out, "  \"threads\": {},", settings.threads)?;
    write_reps(&mut out, reps, "  ")?;
    writeln!(out, "}}")?;
    Ok(())
}

fn write_reps<W: std::io::Write>(out: &mut W, reps: &[Rep], indent: &str) -> std::io::Result<()> {
    writeln!(out, "{indent}\"reps\": [")?;
    for (i, r) in reps.iter().enumerate() {
        let comma = if i + 1 == reps.len() { "" } else { "," };
        writeln!(
            out,
            "{indent}  {{\"wall_seconds\": {:.4}, \"total_cycles\": {}, \
             \"mcyc_per_s\": {:.4}}}{comma}",
            r.wall_seconds, r.total_cycles, r.mcyc_per_s
        )?;
    }
    writeln!(out, "{indent}]")
}

#[allow(clippy::too_many_arguments)]
fn write_hotpath_json(
    path: &str,
    settings: &Settings,
    reps: &[Rep],
    grid_mcyc: f64,
    components: &[(&'static str, f64)],
    baseline_reps: &[Rep],
    baseline_mcyc: Option<f64>,
) -> std::io::Result<()> {
    use std::io::Write;
    let engine = settings.sim.engine.label();
    let mut out = std::fs::File::create(path)?;
    writeln!(out, "{{")?;
    writeln!(out, "  \"schema\": \"carve-bench-hotpath-v1\",")?;
    writeln!(out, "  \"engine\": \"{engine}\",")?;
    writeln!(out, "  \"threads\": {},", settings.threads)?;
    writeln!(out, "  \"quick\": {},", settings.quick)?;
    writeln!(out, "  \"grid_points\": {},", 5 * 20)?;
    writeln!(out, "  \"grid_mcyc_per_s\": {grid_mcyc:.4},")?;
    writeln!(out, "  \"grid\": {{")?;
    write_reps(&mut out, reps, "    ")?;
    writeln!(out, "  }},")?;
    writeln!(out, "  \"components_mops_per_s\": {{")?;
    for (i, (name, mops)) in components.iter().enumerate() {
        let comma = if i + 1 == components.len() { "" } else { "," };
        writeln!(out, "    \"{name}\": {mops:.4}{comma}")?;
    }
    writeln!(out, "  }},")?;
    match baseline_mcyc {
        Some(base) => {
            writeln!(out, "  \"baseline\": {{")?;
            writeln!(out, "    \"grid_mcyc_per_s\": {base:.4},")?;
            write_reps(&mut out, baseline_reps, "    ")?;
            writeln!(out, "  }},")?;
            writeln!(out, "  \"speedup_vs_baseline\": {:.4}", grid_mcyc / base)?;
        }
        None => writeln!(out, "  \"speedup_vs_baseline\": null")?,
    }
    writeln!(out, "}}")?;
    Ok(())
}

/// Pulls every `"mcyc_per_s": <x>` value out of a measure/hotpath JSON's
/// `reps` arrays (minimal parsing; the files are machine-written).
fn read_measure_reps(path: &str) -> Result<Vec<Rep>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    if !text.contains("carve-bench-measure-v1") && !text.contains("carve-bench-hotpath-v1") {
        return Err("not a carve-bench measure/hotpath file".into());
    }
    let mut reps = Vec::new();
    for line in text.lines() {
        let Some(wall) = json_num(line, "\"wall_seconds\":") else {
            continue;
        };
        let cycles = json_num(line, "\"total_cycles\":").unwrap_or(0.0);
        let Some(mcyc) = json_num(line, "\"mcyc_per_s\":") else {
            continue;
        };
        reps.push(Rep {
            wall_seconds: wall,
            total_cycles: cycles as u64,
            mcyc_per_s: mcyc,
        });
    }
    if reps.is_empty() {
        return Err("no reps found".into());
    }
    Ok(reps)
}

/// Extracts the number following `key` in `text`, if present.
fn json_num(text: &str, key: &str) -> Option<f64> {
    let at = text.find(key)? + key.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

// ---------------------------------------------------------------------
// `check`: CI schema + regression gate.

/// The fields that fix what a hotpath file's throughput measures: the
/// grid size, the worker count and the engine.
const SHAPE_FIELDS: [&str; 3] = ["quick", "threads", "engine"];

/// The raw JSON value of top-level `field` (`"engine": "step"` →
/// `"step"` with its quotes), up to the next comma or line end.
fn json_field<'a>(text: &'a str, field: &str) -> Option<&'a str> {
    let key = format!("\"{field}\":");
    let at = text.find(&key)? + key.len();
    let rest = &text[at..];
    let end = rest.find([',', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// The first [`SHAPE_FIELDS`] entry on which two hotpath files disagree
/// (a field missing from one side counts as a disagreement).
fn shape_mismatch(a: &str, b: &str) -> Option<&'static str> {
    SHAPE_FIELDS
        .into_iter()
        .find(|f| json_field(a, f).is_none() || json_field(a, f) != json_field(b, f))
}

fn check(args: &[String]) -> i32 {
    let mut target: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut max_regress = 0.25f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => baseline = it.next().cloned(),
            "--max-regress" => {
                max_regress = match it.next().and_then(|v| v.parse().ok()) {
                    Some(v) => v,
                    None => {
                        eprintln!("carve-bench: --max-regress needs a number");
                        return 2;
                    }
                }
            }
            other if target.is_none() => target = Some(other.to_string()),
            other => {
                eprintln!("carve-bench: unexpected argument {other}");
                return 2;
            }
        }
    }
    let Some(target) = target else {
        eprintln!("carve-bench: check needs a json file");
        return 2;
    };
    let text = match std::fs::read_to_string(&target) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("carve-bench: read {target}: {e}");
            return 1;
        }
    };
    // Schema validation: every load-bearing field must be present.
    for key in [
        "\"schema\": \"carve-bench-hotpath-v1\"",
        "\"engine\":",
        "\"threads\":",
        "\"quick\":",
        "\"grid_points\":",
        "\"grid_mcyc_per_s\":",
        "\"components_mops_per_s\":",
        "\"speedup_vs_baseline\":",
    ] {
        if !text.contains(key) {
            eprintln!("carve-bench: {target}: schema check failed, missing {key}");
            return 1;
        }
    }
    let Some(got) = json_num(&text, "\"grid_mcyc_per_s\":") else {
        eprintln!("carve-bench: {target}: grid_mcyc_per_s is not a number");
        return 1;
    };
    println!("{target}: schema ok, grid {got:.2} Mcyc/s");
    if let Some(basefile) = baseline {
        let basetext = match std::fs::read_to_string(&basefile) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("carve-bench: read {basefile}: {e}");
                return 1;
            }
        };
        if let Some(field) = shape_mismatch(&text, &basetext) {
            eprintln!(
                "carve-bench: {target} and {basefile} differ in \"{field}\"; \
                 throughput is only comparable between runs of the same shape"
            );
            return 2;
        }
        let Some(want) = json_num(&basetext, "\"grid_mcyc_per_s\":") else {
            eprintln!("carve-bench: {basefile}: grid_mcyc_per_s is not a number");
            return 1;
        };
        let floor = want * (1.0 - max_regress);
        if got < floor {
            eprintln!(
                "carve-bench: PERF REGRESSION: {got:.2} Mcyc/s < {floor:.2} \
                 (baseline {want:.2}, tolerance {:.0}%)",
                max_regress * 100.0
            );
            return 1;
        }
        println!(
            "regression gate ok: {got:.2} >= {floor:.2} Mcyc/s \
             (baseline {want:.2}, tolerance {:.0}%)",
            max_regress * 100.0
        );
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hotpath(quick: bool, threads: usize, engine: &str) -> String {
        format!(
            "{{\n  \"schema\": \"carve-bench-hotpath-v1\",\n  \"engine\": \"{engine}\",\n  \
             \"threads\": {threads},\n  \"quick\": {quick},\n  \"grid_mcyc_per_s\": 1.0,\n}}\n"
        )
    }

    #[test]
    fn same_shape_files_compare() {
        let a = hotpath(false, 1, "event-skip");
        assert_eq!(shape_mismatch(&a, &a), None);
    }

    #[test]
    fn each_shape_field_mismatch_is_named() {
        let base = hotpath(false, 1, "event-skip");
        assert_eq!(
            shape_mismatch(&hotpath(true, 1, "event-skip"), &base),
            Some("quick")
        );
        assert_eq!(
            shape_mismatch(&hotpath(false, 2, "event-skip"), &base),
            Some("threads")
        );
        assert_eq!(
            shape_mismatch(&hotpath(false, 1, "step"), &base),
            Some("engine")
        );
        assert_eq!(
            shape_mismatch("{}", "{}"),
            Some("quick"),
            "missing fields never match"
        );
    }

    #[test]
    fn check_refuses_a_mismatched_baseline_with_exit_2() {
        let dir = std::env::temp_dir().join(format!("carve-bench-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let full = "  \"grid_points\": 100,\n  \"components_mops_per_s\": {},\n  \
                    \"speedup_vs_baseline\": null\n";
        let write = |name: &str, quick: bool| {
            let path = dir.join(name);
            let text = hotpath(quick, 1, "event-skip").replace("}\n", &format!("{full}}}\n"));
            std::fs::write(&path, text).unwrap();
            path.to_string_lossy().into_owned()
        };
        let quick = write("quick.json", true);
        let full_grid = write("full.json", false);
        let args = |a: &str, b: &str| vec![a.to_string(), "--baseline".into(), b.to_string()];
        assert_eq!(check(&args(&quick, &quick)), 0);
        assert_eq!(check(&args(&quick, &full_grid)), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
