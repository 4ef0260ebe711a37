//! `carve-sim` — command-line front end to the multi-GPU NUMA simulator.
//!
//! ```text
//! carve-sim list                          # the 20 workload models
//! carve-sim run <workload> [options]      # simulate one configuration
//! carve-sim trace <workload> [options]    # run with every observation on
//! carve-sim compare <workload>            # all designs side by side
//! carve-sim fuzz [options]                # randomized fault-injection fuzzer
//!
//! options for `run` and `trace`:
//!   --design <1-gpu|numa|numa-migrate|numa-repl|ideal|carve-nc|carve-swc|carve-hwc>
//!   --rdc <bytes-per-gpu>        RDC carve-out override (scaled bytes)
//!   --spill <fraction>           UM cold-page spill fraction (0..1)
//!   --link-gbs <gbs>             inter-GPU link bandwidth, paper-equivalent GB/s
//!   --gpus <n>                   GPU count (default 4, max 64)
//!   --topology <t>               interconnect: all-to-all (default), switch,
//!                                ring, or hier<pod> (e.g. hier4 = DGX-style
//!                                pods of 4 joined by slower inter-pod links)
//!   --predictor                  enable the RDC hit predictor
//!   --directory                  directory coherence instead of broadcast
//!   --sanitize                   enable the protocol sanitizer shadow checker
//!   --profile                    enable the cycle-accounting profiler; the
//!                                stderr summary gains a top-3 stall breakdown
//!   --faults <plan>              inject a fault schedule, e.g.
//!                                "degrade@1000:e3*25,outage@2000:e7,freeze@4000+500"
//!   --fault-seed <n>             inject a random graceful fault plan drawn
//!                                deterministically from seed n
//!
//! options for `fuzz`:
//!   --seed <n>                   base seed (default 1)
//!   --runs <k>                   scenarios to generate (default 16)
//!   --out <dir>                  dump minimized oracle-fired scenarios as
//!                                replayable .chaos fixture files
//!
//! options for `trace` only (`run` rejects them):
//!   --out <dir>                  output directory (default results/trace/<workload>)
//!   --interval <cycles>          sampling interval (default 5000)
//!
//! `trace` runs with interval telemetry, the cycle-accounting profiler and
//! the event trace on. It prints the Figure-4 sharing profile, the run
//! report and a top-down cycle-accounting table, and writes
//! <dir>/timeline.csv (one row per interval and GPU: counters plus the
//! interval's stall breakdown), <dir>/trace.json (Chrome chrome://tracing
//! / Perfetto format; open with https://ui.perfetto.dev) and
//! <dir>/profile.folded (flamegraph folded stacks).
//!
//! environment: `CARVE_STEP` (stepping engine), `CARVE_SANITIZE`
//! (sanitizer on unless set to empty or `0`) and `CARVE_WATCHDOG_CYCLES`
//! (no-progress budget, `0` disables), read once at start-up.
//!
//! exit codes: 0 success, 1 simulation failure (including sanitizer
//! violations), 2 usage error, 3 watchdog stall.
//! ```

use std::process::ExitCode;
// audit:allow(wall-clock) CLI wall-time reporting only; never enters a journal line
use std::time::Instant;

use carve_system::{
    chaos, profile_workload, try_run_with_profile_mode, workloads, write_chrome_json, ChaosFixture,
    ChaosOutcome, ChaosScenario, Design, FaultPlan, SimConfig, SimError, SimResult, SimSettings,
    TopologySpec,
};
use carve_trace::WorkloadSpec;
use sim_core::rng::Stream;

/// Default `trace` sampling interval: fine enough to resolve kernel-scale
/// dynamics on scaled workloads (10^4..10^5-cycle kernels) without
/// ballooning the CSV.
const DEFAULT_TRACE_INTERVAL: u64 = 5_000;

/// Horizon for `--fault-seed` generated plans: inside the runtime of every
/// scaled workload, so the drawn events land while the run is still going.
const FAULT_SEED_HORIZON: u64 = 20_000;

fn parse_design(s: &str) -> Option<Design> {
    Some(match s {
        "1-gpu" | "single" => Design::SingleGpu,
        "numa" => Design::NumaGpu,
        "numa-migrate" => Design::NumaGpuMigrate,
        "numa-repl" => Design::NumaGpuRepl,
        "ideal" => Design::Ideal,
        "carve-nc" => Design::CarveNc,
        "carve-swc" => Design::CarveSwc,
        "carve-hwc" | "carve" => Design::CarveHwc,
        _ => return None,
    })
}

/// Parsed `run`/`trace` options (exposed for unit testing).
#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: String,
    design: Design,
    rdc: Option<u64>,
    spill: f64,
    link_gbs: Option<f64>,
    gpus: Option<usize>,
    topology: Option<TopologySpec>,
    predictor: bool,
    directory: bool,
    /// Enables the protocol sanitizer (see `SimConfig::sanitize`).
    sanitize: bool,
    /// Enables the cycle-accounting profiler (see
    /// `SimConfig::cycle_profile`).
    profile: bool,
    /// Hidden test hook: freeze the system at this cycle so the watchdog
    /// path (exit code 3) can be exercised deterministically.
    stall_inject_at: Option<u64>,
    /// Fault-injection schedule (parsed at flag time so a bad plan is a
    /// usage error, not a simulation failure).
    faults: Option<FaultPlan>,
    /// `trace` only: output directory for the trace artifacts.
    out: Option<String>,
    /// `trace` only: telemetry sampling interval in cycles.
    interval: Option<u64>,
}

/// Parses `run` options, or `trace` options when `trace` is set (only
/// `trace` accepts `--out` and `--interval`).
fn parse_run_args(args: &[String], trace: bool) -> Result<RunArgs, String> {
    let mut it = args.iter();
    let workload = it
        .next()
        .ok_or_else(|| "run: missing <workload>".to_string())?
        .clone();
    let mut out = RunArgs {
        workload,
        design: Design::CarveHwc,
        rdc: None,
        spill: 0.0,
        link_gbs: None,
        gpus: None,
        topology: None,
        predictor: false,
        directory: false,
        sanitize: false,
        profile: false,
        stall_inject_at: None,
        faults: None,
        out: None,
        interval: None,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--design" => {
                let v = it.next().ok_or("--design needs a value")?;
                out.design = parse_design(v).ok_or_else(|| format!("unknown design '{v}'"))?;
            }
            "--rdc" => {
                let v = it.next().ok_or("--rdc needs a value")?;
                out.rdc = Some(v.parse().map_err(|_| format!("bad --rdc '{v}'"))?);
            }
            "--spill" => {
                let v = it.next().ok_or("--spill needs a value")?;
                out.spill = v.parse().map_err(|_| format!("bad --spill '{v}'"))?;
                if !(0.0..=1.0).contains(&out.spill) {
                    return Err(format!("--spill must be in 0..=1, got {}", out.spill));
                }
            }
            "--link-gbs" => {
                let v = it.next().ok_or("--link-gbs needs a value")?;
                out.link_gbs = Some(v.parse().map_err(|_| format!("bad --link-gbs '{v}'"))?);
            }
            "--gpus" => {
                let v = it.next().ok_or("--gpus needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad --gpus '{v}'"))?;
                if !(1..=64).contains(&n) {
                    return Err(format!("--gpus must be 1..=64, got {n}"));
                }
                out.gpus = Some(n);
            }
            "--topology" => {
                let v = it.next().ok_or("--topology needs a value")?;
                out.topology = Some(TopologySpec::from_label(v).ok_or_else(|| {
                    format!("unknown topology '{v}' (try all-to-all, switch, ring, hier<pod>)")
                })?);
            }
            "--predictor" => out.predictor = true,
            "--directory" => out.directory = true,
            "--sanitize" => out.sanitize = true,
            "--profile" => out.profile = true,
            // Undocumented on purpose: only exists so the exit-code
            // integration test can trigger a real WatchdogStall.
            "--stall-inject-at" => {
                let v = it.next().ok_or("--stall-inject-at needs a value")?;
                out.stall_inject_at = Some(
                    v.parse()
                        .map_err(|_| format!("bad --stall-inject-at '{v}'"))?,
                );
            }
            "--faults" => {
                let v = it.next().ok_or("--faults needs a value")?;
                if out.faults.is_some() {
                    return Err("--faults and --fault-seed are mutually exclusive".to_string());
                }
                out.faults = Some(FaultPlan::parse(v)?);
            }
            "--fault-seed" => {
                let v = it.next().ok_or("--fault-seed needs a value")?;
                let seed: u64 = v.parse().map_err(|_| format!("bad --fault-seed '{v}'"))?;
                if out.faults.is_some() {
                    return Err("--faults and --fault-seed are mutually exclusive".to_string());
                }
                // Graceful plans only: a seeded run must always be able to
                // complete or partition cleanly, never lose packets.
                let mut rng = Stream::from_parts(&[seed]);
                out.faults = Some(FaultPlan::random(&mut rng, FAULT_SEED_HORIZON, 0.5, false));
            }
            "--out" | "--interval" if !trace => {
                return Err(format!("{flag} is a `trace` option"));
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a value")?;
                out.out = Some(v.clone());
            }
            "--interval" => {
                let v = it.next().ok_or("--interval needs a value")?;
                let n: u64 = v.parse().map_err(|_| format!("bad --interval '{v}'"))?;
                if n == 0 {
                    return Err("--interval must be > 0".to_string());
                }
                out.interval = Some(n);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(out)
}

/// Parses a `run`/`trace` command line and resolves its workload; a
/// usage error is reported and mapped to its exit code.
fn parse_point(args: &[String], trace: bool) -> Result<(RunArgs, WorkloadSpec), ExitCode> {
    let parsed = parse_run_args(args, trace).map_err(|e| {
        eprintln!("error: {e}");
        ExitCode::from(EXIT_USAGE)
    })?;
    let Some(spec) = workloads::by_name(&parsed.workload) else {
        eprintln!(
            "error: unknown workload '{}' (try `carve-sim list`)",
            parsed.workload
        );
        return Err(ExitCode::from(EXIT_USAGE));
    };
    Ok((parsed, spec))
}

fn sim_config_from(args: &RunArgs) -> SimConfig {
    let mut sim = SimConfig::new(args.design);
    sim.rdc_bytes = args.rdc;
    sim.spill_fraction = args.spill;
    sim.hit_predictor = args.predictor;
    sim.directory_coherence = args.directory;
    if args.sanitize {
        sim.sanitize = Some(true);
    }
    sim.cycle_profile = args.profile;
    sim.stall_inject_at = args.stall_inject_at;
    sim.fault_plan = args.faults.clone();
    if let Some(gbs) = args.link_gbs {
        // Paper-equivalent GB/s, divided by the width scale like the
        // default 64 GB/s is.
        sim.cfg.link_bytes_per_cycle = gbs / sim.cfg.width_scale as f64;
    }
    if let Some(gpus) = args.gpus {
        sim.cfg.num_gpus = gpus;
    }
    if let Some(topo) = args.topology {
        sim.cfg.topology = topo;
    }
    sim
}

/// Runs `sim` with the environment's engine, sanitizer and watchdog
/// settings filling whatever the command line left open.
fn simulate(
    spec: &WorkloadSpec,
    mut sim: SimConfig,
    env: &SimSettings,
) -> Result<SimResult, SimError> {
    env.apply(&mut sim);
    try_run_with_profile_mode(spec, &sim, None, env.engine)
}

/// Prints the Figure-4 sharing profile of `spec` on `sim`'s machine.
fn print_sharing_profile(spec: &WorkloadSpec, sim: &SimConfig) {
    let p = profile_workload(spec, &sim.cfg, sim.cfg.num_gpus);
    let (pp, pro, prw) = p.page_breakdown().fractions();
    let (lp, lro, lrw) = p.line_breakdown().fractions();
    println!(
        "sharing profile of {} on {} GPUs:",
        spec.name, sim.cfg.num_gpus
    );
    println!(
        "  pages: {:5.1}% private {:5.1}% RO-shared {:5.1}% RW-shared",
        100.0 * pp,
        100.0 * pro,
        100.0 * prw
    );
    println!(
        "  lines: {:5.1}% private {:5.1}% RO-shared {:5.1}% RW-shared",
        100.0 * lp,
        100.0 * lro,
        100.0 * lrw
    );
    println!(
        "  shared footprint: {} (x{} paper-equivalent)",
        p.shared_footprint_bytes(),
        sim.cfg.capacity_scale
    );
    println!(
        "  replication multiplier: {:.2}x",
        p.replication_footprint_multiplier()
    );
}

fn print_result(r: &SimResult) {
    println!("workload:           {}", r.workload);
    println!("design:             {}", r.design.label());
    println!("cycles:             {}", r.cycles);
    println!("instructions:       {}", r.instructions);
    println!("ipc:                {:.2}", r.ipc());
    println!("remote accesses:    {:.1}%", 100.0 * r.remote_fraction());
    println!("rdc hit rate:       {:.1}%", 100.0 * r.rdc.hit_rate());
    println!("link bytes:         {}", r.link_bytes);
    println!("cpu link bytes:     {}", r.cpu_link_bytes);
    println!("migrations:         {}", r.migrations);
    println!("coherence bcasts:   {}", r.broadcasts);
    println!(
        "read latency:       mean {:.0} cyc, p50 {}, p99 {}",
        r.read_latency.mean(),
        r.read_latency.percentile(50.0).unwrap_or(0),
        r.read_latency.percentile(99.0).unwrap_or(0)
    );
    if let Some(rec) = &r.recovery {
        println!("recovery:           {}", rec.summary());
    }
    println!("completed:          {}", r.completed);
}

/// One-line end-of-run summary for stderr: the numbers someone watching a
/// terminal actually wants, without scraping the full report.
fn summary_line(r: &SimResult, wall: std::time::Duration) -> String {
    let secs = wall.as_secs_f64();
    let cyc_per_sec = if secs > 0.0 {
        r.cycles as f64 / secs
    } else {
        0.0
    };
    let mut line = format!(
        "summary: {} on {}: ipc={:.2} remote={:.1}% rdc_hit={:.1}% wall={:.2}s sim={:.2}Mcyc/s",
        r.workload,
        r.design.label(),
        r.ipc(),
        100.0 * r.remote_fraction(),
        100.0 * r.rdc.hit_rate(),
        secs,
        cyc_per_sec / 1e6
    );
    // With `--profile` the one-liner gains the top stall categories, e.g.
    // `stalls: remote-link 41% | local-dram 22% | coherence-invalidate 9%`.
    if let Some(p) = &r.profile {
        line.push(' ');
        line.push_str(&p.stall_summary(3));
    }
    line
}

/// Parsed `fuzz` options (exposed for unit testing).
#[derive(Debug, Clone, PartialEq)]
struct FuzzArgs {
    /// Base seed; scenario `i` is `ChaosScenario::random(seed, i)`.
    seed: u64,
    /// Number of scenarios to generate and run.
    runs: u64,
    /// Directory for minimized oracle-fired fixture dumps.
    out: Option<String>,
}

fn parse_fuzz_args(args: &[String]) -> Result<FuzzArgs, String> {
    let mut out = FuzzArgs {
        seed: 1,
        runs: 16,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                out.seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?;
            }
            "--runs" => {
                let v = it.next().ok_or("--runs needs a value")?;
                out.runs = v.parse().map_err(|_| format!("bad --runs '{v}'"))?;
                if out.runs == 0 {
                    return Err("--runs must be > 0".to_string());
                }
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a value")?;
                out.out = Some(v.clone());
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(out)
}

/// The fuzz loop. Each scenario runs under both engines; the contract:
///
/// - engine divergence is always a failure;
/// - a *graceful* plan (no packet loss) must complete or partition
///   cleanly — a watchdog stall or sanitizer violation under one is a
///   simulator bug;
/// - a *lossy* plan is oracle bait: when the watchdog or sanitizer
///   catches the injected misbehaviour, the scenario is minimized and
///   (with `--out`) dumped as a replayable `.chaos` fixture.
fn run_fuzz(args: &FuzzArgs, env: &SimSettings) -> ExitCode {
    let mut completed = 0u64;
    let mut partitioned = 0u64;
    let mut oracle_fired = 0u64;
    let mut failures = 0u64;
    for i in 0..args.runs {
        let scenario = ChaosScenario::random(args.seed, i);
        let outcome = match scenario.run_both_engines() {
            Ok(o) => o,
            Err(divergence) => {
                eprintln!("FAIL run {i}: {divergence}");
                failures += 1;
                continue;
            }
        };
        println!(
            "run {i}: {} -> {}",
            scenario.encode_compact(),
            outcome.encode()
        );
        let graceful = scenario.plan.is_graceful();
        match &outcome {
            ChaosOutcome::Completed => completed += 1,
            ChaosOutcome::Partitioned => partitioned += 1,
            ChaosOutcome::Watchdog | ChaosOutcome::Sanitizer(_) if !graceful => {
                // An oracle caught the injected loss: the finding we fuzz
                // for. Shrink it and keep it as a regression fixture.
                oracle_fired += 1;
                let min = chaos::minimize(&scenario, &outcome, env.engine);
                match min.run_both_engines() {
                    Ok(o) if o == outcome => {
                        println!("  minimized: faults={}", min.plan.encode());
                        if let Some(dir) = &args.out {
                            let fixture = ChaosFixture {
                                scenario: min,
                                expect: outcome.clone(),
                            };
                            let path = format!("{dir}/seed{}-run{i}.chaos", args.seed);
                            if let Err(e) = std::fs::create_dir_all(dir)
                                .and_then(|()| std::fs::write(&path, fixture.encode()))
                            {
                                eprintln!("FAIL run {i}: cannot write '{path}': {e}");
                                failures += 1;
                            } else {
                                println!("  dumped: {path}");
                            }
                        }
                    }
                    Ok(o) => {
                        eprintln!(
                            "FAIL run {i}: minimized scenario changed outcome to {}",
                            o.encode()
                        );
                        failures += 1;
                    }
                    Err(divergence) => {
                        eprintln!("FAIL run {i}: {divergence}");
                        failures += 1;
                    }
                }
            }
            _ => {
                // Graceful plan tripping an oracle, or any plan exhausting
                // the cycle cap / failing some other way: simulator bug.
                eprintln!(
                    "FAIL run {i}: {} plan ended '{}' on {}",
                    if graceful { "graceful" } else { "lossy" },
                    outcome.encode(),
                    scenario.encode_compact()
                );
                failures += 1;
            }
        }
    }
    eprintln!(
        "fuzz: {} runs: {completed} completed, {partitioned} partitioned, \
         {oracle_fired} oracle-fired, {failures} failures",
        args.runs
    );
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Exit code for usage errors (bad flags, unknown subcommand/workload).
const EXIT_USAGE: u8 = 2;
/// Exit code distinguishing an engine watchdog stall from other failures,
/// so campaign scripts can retry stalls without masking real errors.
const EXIT_STALL: u8 = 3;

/// Maps a simulation failure to its process exit code: watchdog stalls
/// get a distinct code, everything else (config errors, resource
/// exhaustion, sanitizer violations) is a generic failure.
fn run_error_code(e: &SimError) -> u8 {
    match e {
        SimError::WatchdogStall { .. } => EXIT_STALL,
        _ => 1,
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: carve-sim <list|run|trace|compare|fuzz> [args]  (see --help in source header)"
    );
    ExitCode::from(EXIT_USAGE)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let env = SimSettings::resolve(|key| std::env::var_os(key));
    match args.first().map(String::as_str) {
        Some("list") => {
            println!(
                "{:<14} {:>6} {:>9} {:>8}  suite",
                "workload", "kernels", "footprint", "instrs"
            );
            for w in workloads::all() {
                println!(
                    "{:<14} {:>6} {:>8}M {:>7}k  {}",
                    w.name,
                    w.shape.kernels,
                    w.paper_footprint >> 20,
                    w.shape.total_instrs() / 1000,
                    w.suite.label()
                );
            }
            ExitCode::SUCCESS
        }
        Some("run") => {
            let (parsed, spec) = match parse_point(&args[1..], false) {
                Ok(p) => p,
                Err(code) => return code,
            };
            let sim = sim_config_from(&parsed);
            // audit:allow(wall-clock) run-duration banner for humans, not simulated time
            let started = Instant::now();
            match simulate(&spec, sim, &env) {
                Ok(r) => {
                    let wall = started.elapsed();
                    print_result(&r);
                    eprintln!("{}", summary_line(&r, wall));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(run_error_code(&e))
                }
            }
        }
        Some("trace") => {
            let (parsed, spec) = match parse_point(&args[1..], true) {
                Ok(p) => p,
                Err(code) => return code,
            };
            let mut sim = sim_config_from(&parsed);
            sim.telemetry_interval = Some(parsed.interval.unwrap_or(DEFAULT_TRACE_INTERVAL));
            sim.cycle_profile = true;
            sim.event_trace = true;
            let out_dir = parsed
                .out
                .clone()
                .unwrap_or_else(|| format!("results/trace/{}", parsed.workload));
            if let Err(e) = std::fs::create_dir_all(&out_dir) {
                eprintln!("error: cannot create '{out_dir}': {e}");
                return ExitCode::FAILURE;
            }
            print_sharing_profile(&spec, &sim);
            // audit:allow(wall-clock) run-duration banner for humans, not simulated time
            let started = Instant::now();
            match simulate(&spec, sim, &env) {
                Ok(r) => {
                    let wall = started.elapsed();
                    let (Some(timeline), Some(report), Some(events)) =
                        (&r.timeline, &r.profile, r.trace.as_deref())
                    else {
                        unreachable!("trace turns on every observation");
                    };
                    let csv_path = format!("{out_dir}/timeline.csv");
                    let json_path = format!("{out_dir}/trace.json");
                    let folded_path = format!("{out_dir}/profile.folded");
                    let mut json = Vec::new();
                    write_chrome_json(events, &mut json).expect("write to Vec cannot fail");
                    let root = format!("{}:{}", r.workload, r.design.label());
                    for (path, contents) in [
                        (&csv_path, timeline.to_csv_string().into_bytes()),
                        (&json_path, json),
                        (&folded_path, report.folded_string(&root).into_bytes()),
                    ] {
                        if let Err(e) = std::fs::write(path, contents) {
                            eprintln!("error: cannot write '{path}': {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                    print_result(&r);
                    println!();
                    print!("{}", report.table_string());
                    println!(
                        "timeline:           {csv_path} ({} intervals)",
                        timeline.num_intervals()
                    );
                    println!(
                        "trace:              {json_path} ({} events; open in ui.perfetto.dev)",
                        events.len()
                    );
                    println!("folded stacks:      {folded_path} (flamegraph.pl-compatible)");
                    eprintln!("{}", summary_line(&r, wall));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(run_error_code(&e))
                }
            }
        }
        Some("compare") => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            let Some(spec) = workloads::by_name(name) else {
                eprintln!("error: unknown workload '{name}'");
                return ExitCode::from(EXIT_USAGE);
            };
            println!(
                "{:<18} {:>10} {:>7} {:>8} {:>9}",
                "design", "cycles", "ipc", "remote", "rdc-hit"
            );
            for design in Design::all() {
                match simulate(&spec, SimConfig::new(design), &env) {
                    Ok(r) => println!(
                        "{:<18} {:>10} {:>7.2} {:>7.1}% {:>8.1}%",
                        design.label(),
                        r.cycles,
                        r.ipc(),
                        100.0 * r.remote_fraction(),
                        100.0 * r.rdc.hit_rate()
                    ),
                    Err(e) => println!("{:<18} failed: {e}", design.label()),
                }
            }
            ExitCode::SUCCESS
        }
        Some("fuzz") => {
            let parsed = match parse_fuzz_args(&args[1..]) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(EXIT_USAGE);
                }
            };
            run_fuzz(&parsed, &env)
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_minimal_run() {
        let a = parse_run_args(&strs(&["Lulesh"]), false).unwrap();
        assert_eq!(a.workload, "Lulesh");
        assert_eq!(a.design, Design::CarveHwc);
        assert_eq!(a.spill, 0.0);
    }

    #[test]
    fn parses_all_options() {
        let a = parse_run_args(
            &strs(&[
                "XSBench",
                "--design",
                "carve-swc",
                "--rdc",
                "1048576",
                "--spill",
                "0.0625",
                "--link-gbs",
                "128",
                "--gpus",
                "8",
                "--topology",
                "hier4",
                "--predictor",
                "--directory",
            ]),
            false,
        )
        .unwrap();
        assert_eq!(a.design, Design::CarveSwc);
        assert_eq!(a.rdc, Some(1048576));
        assert!((a.spill - 0.0625).abs() < 1e-12);
        assert_eq!(a.link_gbs, Some(128.0));
        assert_eq!(a.gpus, Some(8));
        assert_eq!(a.topology, Some(TopologySpec::Hierarchical { pod_size: 4 }));
        assert!(a.predictor && a.directory);
        let sim = sim_config_from(&a);
        assert_eq!(sim.cfg.num_gpus, 8);
        assert_eq!(sim.cfg.topology, TopologySpec::Hierarchical { pod_size: 4 });
    }

    #[test]
    fn parses_topology_labels_and_gpu_range() {
        for (label, topo) in [
            ("all-to-all", TopologySpec::AllToAll),
            ("switch", TopologySpec::Switch),
            ("ring", TopologySpec::Ring),
            ("hier8", TopologySpec::Hierarchical { pod_size: 8 }),
        ] {
            let a = parse_run_args(&strs(&["w", "--topology", label]), false).unwrap();
            assert_eq!(a.topology, Some(topo), "{label}");
        }
        assert!(parse_run_args(&strs(&["w", "--topology", "torus"]), false).is_err());
        assert!(parse_run_args(&strs(&["w", "--topology", "hier0"]), false).is_err());
        let a = parse_run_args(&strs(&["w", "--gpus", "64"]), false).unwrap();
        assert_eq!(a.gpus, Some(64));
        assert!(parse_run_args(&strs(&["w", "--gpus", "65"]), false).is_err());
        // Default stays the paper's all-to-all mesh.
        let b = parse_run_args(&strs(&["w"]), false).unwrap();
        assert_eq!(b.topology, None);
        assert_eq!(sim_config_from(&b).cfg.topology, TopologySpec::AllToAll);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_run_args(&[], false).is_err());
        assert!(parse_run_args(&strs(&["w", "--design", "nope"]), false).is_err());
        assert!(parse_run_args(&strs(&["w", "--spill", "1.5"]), false).is_err());
        assert!(parse_run_args(&strs(&["w", "--gpus", "0"]), false).is_err());
        assert!(parse_run_args(&strs(&["w", "--bogus"]), false).is_err());
    }

    #[test]
    fn parses_trace_options() {
        let a = parse_run_args(
            &strs(&[
                "Lulesh",
                "--out",
                "results/trace/lulesh",
                "--interval",
                "2500",
            ]),
            true,
        )
        .unwrap();
        assert_eq!(a.out.as_deref(), Some("results/trace/lulesh"));
        assert_eq!(a.interval, Some(2500));
        // Both default to None.
        let b = parse_run_args(&strs(&["Lulesh"]), true).unwrap();
        assert_eq!(b.out, None);
        assert_eq!(b.interval, None);
        // `run` rejects them instead of ignoring them.
        assert!(parse_run_args(&strs(&["Lulesh", "--out", "x"]), false).is_err());
        assert!(parse_run_args(&strs(&["Lulesh", "--interval", "7"]), false).is_err());
    }

    #[test]
    fn rejects_zero_interval() {
        assert!(parse_run_args(&strs(&["w", "--interval", "0"]), true).is_err());
        assert!(parse_run_args(&strs(&["w", "--interval", "abc"]), true).is_err());
        assert!(parse_run_args(&strs(&["w", "--out"]), true).is_err());
    }

    #[test]
    fn design_aliases() {
        assert_eq!(parse_design("carve"), Some(Design::CarveHwc));
        assert_eq!(parse_design("single"), Some(Design::SingleGpu));
        assert_eq!(parse_design("x"), None);
    }

    #[test]
    fn parses_sanitize_and_stall_inject() {
        let a = parse_run_args(
            &strs(&["Lulesh", "--sanitize", "--stall-inject-at", "5000"]),
            false,
        )
        .unwrap();
        assert!(a.sanitize);
        assert_eq!(a.stall_inject_at, Some(5000));
        let sim = sim_config_from(&a);
        assert_eq!(sim.sanitize, Some(true));
        assert_eq!(sim.stall_inject_at, Some(5000));
        // Off by default: `None` leaves CARVE_SANITIZE to decide, it does not force-disable.
        let b = parse_run_args(&strs(&["Lulesh"]), false).unwrap();
        assert!(!b.sanitize);
        assert_eq!(sim_config_from(&b).sanitize, None);
        assert!(parse_run_args(&strs(&["w", "--stall-inject-at"]), false).is_err());
        assert!(parse_run_args(&strs(&["w", "--stall-inject-at", "x"]), false).is_err());
    }

    #[test]
    fn parses_fault_flags() {
        let a = parse_run_args(
            &strs(&["Lulesh", "--faults", "degrade@1000:e3*25,freeze@4000+500"]),
            false,
        )
        .unwrap();
        let plan = a.faults.as_ref().expect("plan parsed");
        assert_eq!(plan.len(), 2);
        assert_eq!(
            sim_config_from(&a).fault_plan.as_ref().map(FaultPlan::len),
            Some(2)
        );
        assert!(parse_run_args(&strs(&["w", "--faults", "explode@9"]), false).is_err());
        assert!(parse_run_args(&strs(&["w", "--faults"]), false).is_err());

        let b = parse_run_args(&strs(&["Lulesh", "--fault-seed", "7"]), false).unwrap();
        let seeded = b.faults.as_ref().expect("seeded plan");
        assert!(!seeded.is_empty());
        assert!(seeded.is_graceful(), "seeded plans must never lose packets");
        // Same seed, same plan.
        let b2 = parse_run_args(&strs(&["Lulesh", "--fault-seed", "7"]), false).unwrap();
        assert_eq!(b.faults, b2.faults);
        assert!(parse_run_args(
            &strs(&["w", "--faults", "freeze@10", "--fault-seed", "1"]),
            false
        )
        .is_err());
    }

    #[test]
    fn parses_fuzz_args() {
        let d = parse_fuzz_args(&[]).unwrap();
        assert_eq!(d.seed, 1);
        assert_eq!(d.runs, 16);
        assert_eq!(d.out, None);
        let a = parse_fuzz_args(&strs(&[
            "--seed",
            "42",
            "--runs",
            "3",
            "--out",
            "results/chaos",
        ]))
        .unwrap();
        assert_eq!(a.seed, 42);
        assert_eq!(a.runs, 3);
        assert_eq!(a.out.as_deref(), Some("results/chaos"));
        assert!(parse_fuzz_args(&strs(&["--runs", "0"])).is_err());
        assert!(parse_fuzz_args(&strs(&["--bogus"])).is_err());
    }

    #[test]
    fn watchdog_stall_gets_its_own_exit_code() {
        let stall = SimError::WatchdogStall {
            cycle: 10,
            stalled_since: 1,
            budget: 5,
            diagnostic: String::new(),
        };
        assert_eq!(run_error_code(&stall), EXIT_STALL);
        let other = SimError::ConfigInvalid {
            message: "x".into(),
        };
        assert_eq!(run_error_code(&other), 1);
        let san = SimError::SanitizerViolation {
            invariant: "token-lifecycle".into(),
            cycle: 3,
            detail: String::new(),
        };
        assert_eq!(run_error_code(&san), 1);
    }

    #[test]
    fn link_gbs_scales_with_width() {
        let mut a = parse_run_args(&strs(&["w", "--link-gbs", "64"]), false).unwrap();
        a.workload = "w".into();
        let sim = sim_config_from(&a);
        let default = SimConfig::new(Design::CarveHwc);
        assert!((sim.cfg.link_bytes_per_cycle - default.cfg.link_bytes_per_cycle).abs() < 1e-9);
    }
}
