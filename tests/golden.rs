//! Golden bit-identity fixtures for the simulation datapath.
//!
//! Every fixture is the byte-exact [`SimResult::encode_journal_line`]
//! encoding of one (workload × configuration) point, generated at a known
//! commit and checked in under `tests/golden/`. The tests replay each
//! point — under both the event-skip engine and `CARVE_STEP`-style
//! stepping — and assert the journal line is *byte-identical* to the
//! fixture. Any change to lookup structures, iteration order, token
//! encoding, or arithmetic in the hot path that perturbs results by even
//! one count fails here.
//!
//! Two fixture sets:
//!
//! * `all20_carve_hwc.journal` — all 20 Table II workloads under
//!   `CarveHwc` (the design exercising the RDC, IMST, store watch and
//!   probe flows),
//! * `representative.journal` — five representative workloads (streaming,
//!   stencil, graph, MC-lookup, DNN) across a design/knob matrix that
//!   covers migration, replication, spill (CPU reads), the footnote-2
//!   sysmem RDC, directory coherence and the hit predictor.
//!
//! Regenerate (after an *intentional* result change) with:
//!
//! ```text
//! CARVE_GOLDEN_REGEN=1 cargo test --release -p carve-system --test golden
//! ```
//!
//! and audit the diff line by line before committing.

use carve_system::{
    try_run_with_profile_mode, workloads, Design, EngineMode, ScaledConfig, SimConfig, SimResult,
};
use carve_trace::WorkloadSpec;
use std::path::PathBuf;

/// streaming, stencil, graph, MC-lookup, DNN.
const REPRESENTATIVE: [&str; 5] = ["stream-triad", "Lulesh", "SSSP", "XSBench", "AlexNet"];

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

/// A narrow machine and short kernels so the full matrix stays fast in
/// debug builds while still driving every datapath flow.
fn golden_cfg() -> ScaledConfig {
    ScaledConfig {
        sms_per_gpu: 2,
        warps_per_sm: 8,
        ..ScaledConfig::default()
    }
}

fn golden_spec(name: &str) -> WorkloadSpec {
    let mut spec = workloads::by_name(name).expect("known workload");
    spec.shape.kernels = spec.shape.kernels.min(2);
    spec.shape.ctas = 16;
    spec.shape.instrs_per_warp = spec.shape.instrs_per_warp.min(80);
    spec
}

fn sim_of(design: Design) -> SimConfig {
    let mut sim = SimConfig::with_cfg(design, golden_cfg());
    sim.telemetry_interval = Some(0); // aggregates only; independent of env
    sim
}

/// The representative-matrix points: `(fixture key, workload, config)`.
fn representative_points() -> Vec<(String, WorkloadSpec, SimConfig)> {
    let mut points = Vec::new();
    for name in REPRESENTATIVE {
        let spec = golden_spec(name);
        for design in [
            Design::NumaGpu,
            Design::NumaGpuMigrate,
            Design::NumaGpuRepl,
            Design::Ideal,
            Design::CarveHwc,
        ] {
            points.push((
                format!("{name}|{}", design.label()),
                spec.clone(),
                sim_of(design),
            ));
        }
        // UM spill: exercises CPU reads/writes over the CPU links.
        let mut spill = sim_of(Design::NumaGpu);
        spill.spill_fraction = 0.2;
        points.push((format!("{name}|numa-gpu+spill"), spec.clone(), spill));
        // Footnote 2: the RDC also caches system memory (CpuRead fills).
        let mut sysmem = sim_of(Design::CarveHwc);
        sysmem.spill_fraction = 0.2;
        sysmem.rdc_caches_sysmem = true;
        points.push((format!("{name}|carve-hwc+sysrdc"), spec.clone(), sysmem));
        // Directory coherence (Section V-E) instead of broadcast.
        let mut dir = sim_of(Design::CarveHwc);
        dir.directory_coherence = true;
        points.push((format!("{name}|carve-hwc+dir"), spec.clone(), dir));
        // RDC hit predictor (probe bypass on predicted misses).
        let mut pred = sim_of(Design::CarveHwc);
        pred.hit_predictor = true;
        points.push((format!("{name}|carve-hwc+pred"), spec, pred));
    }
    points
}

/// All 20 Table II workloads under the full CARVE design.
fn all20_points() -> Vec<(String, WorkloadSpec, SimConfig)> {
    workloads::all()
        .iter()
        .map(|w| {
            (
                format!("{}|{}", w.name, Design::CarveHwc.label()),
                golden_spec(w.name),
                sim_of(Design::CarveHwc),
            )
        })
        .collect()
}

fn run_mode(spec: &WorkloadSpec, sim: &SimConfig, mode: EngineMode) -> SimResult {
    try_run_with_profile_mode(spec, sim, None, mode)
        .unwrap_or_else(|e| panic!("{} under {}: {e}", spec.name, sim.design.label()))
}

fn encode(points: &[(String, WorkloadSpec, SimConfig)], mode: EngineMode) -> Vec<String> {
    points
        .iter()
        .map(|(key, spec, sim)| {
            let r = run_mode(spec, sim, mode);
            format!("{key}|{}", r.encode_journal_line())
        })
        .collect()
}

/// Compares freshly simulated journal lines against the fixture file, or
/// rewrites the file when `CARVE_GOLDEN_REGEN` is set.
fn check_against_fixture(fixture: &str, lines: Vec<String>) {
    let path = fixture_path(fixture);
    if std::env::var_os("CARVE_GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir");
        std::fs::write(&path, lines.join("\n") + "\n").expect("write fixture");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); generate with CARVE_GOLDEN_REGEN=1",
            path.display()
        )
    });
    let want: Vec<&str> = text.lines().collect();
    assert_eq!(
        want.len(),
        lines.len(),
        "{fixture}: fixture has {} lines, run produced {}",
        want.len(),
        lines.len()
    );
    for (got, want) in lines.iter().zip(&want) {
        assert_eq!(
            got, want,
            "{fixture}: journal line diverged from the golden fixture \
             (datapath change is result-visible)"
        );
    }
}

#[test]
fn all20_event_skip_matches_golden() {
    check_against_fixture(
        "all20_carve_hwc.journal",
        encode(&all20_points(), EngineMode::EventSkip),
    );
}

#[test]
fn all20_step_engine_matches_golden() {
    check_against_fixture(
        "all20_carve_hwc.journal",
        encode(&all20_points(), EngineMode::Step),
    );
}

#[test]
fn representative_event_skip_matches_golden() {
    check_against_fixture(
        "representative.journal",
        encode(&representative_points(), EngineMode::EventSkip),
    );
}

#[test]
fn representative_step_engine_matches_golden() {
    check_against_fixture(
        "representative.journal",
        encode(&representative_points(), EngineMode::Step),
    );
}

/// The full Table II shape of SSSP under NUMA-GPU+Migrate, where remote
/// misses back up on the links and a page migrating home can fill the
/// line a parked L2 bank waits on (DESIGN.md §3, "Back-pressure
/// parking"): both engines must write the same journal line. Too slow for
/// debug builds; CI runs it in release with `--include-ignored`.
#[test]
#[ignore = "full-shape point: run in release with --include-ignored"]
fn full_shape_sssp_migrate_engines_agree() {
    let spec = workloads::by_name("SSSP").expect("known workload");
    let mut sim = SimConfig::new(Design::NumaGpuMigrate);
    sim.telemetry_interval = Some(0);
    let skip = run_mode(&spec, &sim, EngineMode::EventSkip);
    let step = run_mode(&spec, &sim, EngineMode::Step);
    assert!(skip.completed && step.completed, "hit the cycle cap");
    assert_eq!(skip.encode_journal_line(), step.encode_journal_line());
}
