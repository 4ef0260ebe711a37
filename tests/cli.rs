//! End-to-end tests of the `carve-sim` binary's exit-code contract.
//!
//! Campaign wrappers and CI scripts branch on these codes (0 success,
//! 1 failure, 2 usage, 3 watchdog stall), so they are part of the public
//! interface and are pinned here against the real binary.

use std::process::Command;

/// A `carve-sim` invocation against the workspace-built binary.
fn carve_sim(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_carve-sim"));
    cmd.args(args);
    cmd
}

/// Small-machine overrides so a full `run` finishes in well under a
/// second; mirrors the `quick_cfg` used by the library tests.
const QUICK_GPUS: &str = "2";

#[test]
fn list_succeeds() {
    let out = carve_sim(&["list"]).output().expect("spawn carve-sim");
    assert!(out.status.success(), "list failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("XSBench"), "list output lacks workloads");
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        &["frobnicate"][..],
        &["run"][..],
        &["run", "no-such-workload"][..],
        &["run", "XSBench", "--design", "nope"][..],
        // `--out` and `--interval` belong to `trace`; `run` rejects them.
        &["run", "stream-triad", "--gpus", "2", "--out", "x"][..],
        &["run", "stream-triad", "--gpus", "2", "--interval", "7"][..],
        &["compare"][..],
        // The profiler's artifacts come from `trace`.
        &["profile", "stream-triad"][..],
    ] {
        let out = carve_sim(args).output().expect("spawn carve-sim");
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?} should exit 2, got {:?}\nstderr: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn injected_stall_exits_3_with_diagnostic() {
    let out = carve_sim(&[
        "run",
        "stream-triad",
        "--design",
        "numa",
        "--gpus",
        QUICK_GPUS,
        "--stall-inject-at",
        "2000",
    ])
    // A small no-progress budget so the stall is detected quickly; the
    // hidden flag freezes every component so this cannot false-negative.
    .env("CARVE_WATCHDOG_CYCLES", "20000")
    .output()
    .expect("spawn carve-sim");
    assert_eq!(
        out.status.code(),
        Some(3),
        "stalled run should exit 3, got {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("watchdog") || err.contains("stall"),
        "stderr lacks a stall diagnostic:\n{err}"
    );
}

#[test]
fn sanitized_run_succeeds_and_matches_plain_run() {
    let run = |extra: &[&str]| {
        let mut args = vec!["run", "stream-triad", "--gpus", QUICK_GPUS];
        args.extend_from_slice(extra);
        let out = carve_sim(&args).output().expect("spawn carve-sim");
        assert!(
            out.status.success(),
            "run {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    // The sanitizer is observe-only: the printed report (cycles, traffic,
    // latencies — everything) must be byte-identical with it enabled.
    assert_eq!(run(&[]), run(&["--sanitize"]));
}

#[test]
fn stepping_engine_prints_the_same_report() {
    // `CARVE_STEP` selects the step-by-1 engine, which must agree with
    // event skipping bit for bit, so the printed report is identical.
    let run = |step: bool| {
        let mut cmd = carve_sim(&["run", "Euler", "--design", "numa", "--gpus", QUICK_GPUS]);
        cmd.env_remove("CARVE_STEP");
        if step {
            cmd.env("CARVE_STEP", "1");
        }
        let out = cmd.output().expect("spawn carve-sim");
        assert!(
            out.status.success(),
            "step={step} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn partitioning_outage_exits_1_naming_the_severed_pair() {
    // On a 2-GPU mesh, edge e0 is the only gpu0->gpu1 path, so killing it
    // severs the fabric: a clean FabricPartitioned failure (exit 1), not
    // a hang masked later by the watchdog (exit 3).
    let out = carve_sim(&[
        "run",
        "stream-triad",
        "--design",
        "numa",
        "--gpus",
        QUICK_GPUS,
        "--faults",
        "outage@600:e0",
    ])
    .output()
    .expect("spawn carve-sim");
    assert_eq!(
        out.status.code(),
        Some(1),
        "partitioned run should exit 1, got {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("gpu0") && err.contains("gpu1") && err.contains("partition"),
        "stderr lacks the severed pair:\n{err}"
    );
}

#[test]
fn faulted_run_survives_and_reports_recovery() {
    let out = carve_sim(&[
        "run",
        "stream-triad",
        "--design",
        "numa",
        "--gpus",
        QUICK_GPUS,
        "--sanitize",
        "--faults",
        "degrade@300:e0*25,dramfault@500:g1n3,freeze@700+200,restore@1200:e0",
    ])
    .output()
    .expect("spawn carve-sim");
    assert!(
        out.status.success(),
        "graceful faults should be absorbed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("recovery:")
            && text.contains("faults=4")
            && text.contains("frozen_cycles=200"),
        "report lacks recovery accounting:\n{text}"
    );
    // A malformed plan is a usage error, caught before any simulation.
    let bad = carve_sim(&["run", "stream-triad", "--faults", "explode@99"])
        .output()
        .expect("spawn carve-sim");
    assert_eq!(bad.status.code(), Some(2));
}

#[test]
fn fuzz_smoke_batch_stays_in_contract() {
    // A small fixed-seed batch: every scenario must complete, partition,
    // or be caught by an oracle, under both engines — exit 0. Any panic,
    // hang, or engine divergence fails the batch.
    let out = carve_sim(&["fuzz", "--seed", "1", "--runs", "4"])
        .output()
        .expect("spawn carve-sim");
    assert!(
        out.status.success(),
        "fuzz batch failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("fuzz: 4 runs:") && err.contains("0 failures"),
        "unexpected fuzz summary:\n{err}"
    );
}

#[test]
fn trace_subcommand_writes_wellformed_artifacts() {
    let dir = std::env::temp_dir().join(format!("carve-trace-cli-{}", std::process::id()));
    let out = carve_sim(&[
        "trace",
        "stream-triad",
        "--gpus",
        QUICK_GPUS,
        "--out",
        dir.to_str().expect("utf-8 tempdir"),
    ])
    .output()
    .expect("spawn carve-sim");
    assert!(
        out.status.success(),
        "trace run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("sharing profile") && text.contains("category"),
        "trace output lacks the sharing section or the cycle table:\n{text}"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("stalls:"),
        "stderr summary lacks the top-stall breakdown:\n{err}"
    );
    // Folded stacks: every line is `stack count` with a numeric count.
    let folded = std::fs::read_to_string(dir.join("profile.folded")).expect("profile.folded");
    assert!(!folded.trim().is_empty());
    for line in folded.lines() {
        let mut parts = line.rsplitn(2, ' ');
        let count = parts.next().expect("count field");
        let stack = parts.next().unwrap_or("");
        assert!(
            !stack.is_empty() && count.parse::<u64>().is_ok(),
            "malformed folded line: {line:?}"
        );
    }
    // One interval row: the counters, then the stall columns, filled.
    let csv = std::fs::read_to_string(dir.join("timeline.csv")).expect("timeline.csv");
    let header = csv.lines().next().unwrap_or("");
    assert!(
        header.starts_with("start,end,gpu,") && header.ends_with(",link_queue"),
        "timeline.csv header lacks the stall columns:\n{header}"
    );
    let row = csv.lines().nth(1).expect("at least one interval row");
    assert!(
        !row.ends_with(','),
        "profiled row has empty stall cells: {row}"
    );
    assert!(dir.join("trace.json").exists());
    assert!(!dir.join("stalls.csv").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_subcommand_usage_errors_exit_2() {
    for args in [
        &["trace"][..],
        &["trace", "no-such-workload"][..],
        &["trace", "stream-triad", "--bogus"][..],
        &["trace", "stream-triad", "--interval", "0"][..],
    ] {
        let out = carve_sim(args).output().expect("spawn carve-sim");
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?} should exit 2, got {:?}\nstderr: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn run_with_profile_prints_top_stalls_without_changing_the_report() {
    let run = |extra: &[&str]| {
        let mut args = vec!["run", "stream-triad", "--gpus", QUICK_GPUS];
        args.extend_from_slice(extra);
        let out = carve_sim(&args).output().expect("spawn carve-sim");
        assert!(
            out.status.success(),
            "run {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (plain_out, plain_err) = run(&[]);
    let (prof_out, prof_err) = run(&["--profile"]);
    // The profiler is observe-only: the printed report is byte-identical.
    assert_eq!(plain_out, prof_out);
    assert!(
        !plain_err.contains("stalls:"),
        "unprofiled summary must not carry a stall breakdown:\n{plain_err}"
    );
    assert!(
        prof_err.contains("stalls:"),
        "profiled summary lacks the stall breakdown:\n{prof_err}"
    );
}
