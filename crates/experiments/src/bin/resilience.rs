//! Resilience campaign: graceful degradation under swept fault intensity.
//!
//! A dynamic analogue of the paper's bandwidth-sensitivity study
//! (Figure 14): where fig14 derates link bandwidth *statically* for the
//! whole run, this campaign injects seeded, deterministic fault schedules
//! ([`FaultPlan::random`], graceful kinds only — degraded windows, link
//! outages with rerouting, transient DRAM faults, bounded freezes) at
//! increasing intensity and measures the slowdown each design absorbs.
//! The comparison NUMA-GPU vs CARVE-HWC asks the paper's question under
//! duress: does caching remote data also buy *fault* tolerance? (It
//! should — every link fault taxes remote traffic, and CARVE's whole
//! point is to have less of it.)
//!
//! Points whose random outage pattern happens to sever the fabric fail
//! cleanly with `FabricPartitioned`; they are reported as `partitioned`
//! cells rather than aborting the sweep. Like every campaign binary this
//! one is journaled and resumable (`resilience.journal`); faulted points
//! carry their plan in the journal key, so resumed tables are
//! byte-identical.

use carve_system::{Design, FaultPlan, SimConfig};
use carve_trace::WorkloadSpec;
use experiments::{Campaign, Settings, Table};
use sim_core::geomean;
use sim_core::rng::Stream;

/// Workload subset: the coherence stressors plus a bandwidth-bound
/// streamer, so both remote-latency and remote-bandwidth sensitivity
/// show up in the sweep.
const RESILIENCE_WORKLOADS: [&str; 4] = ["CoMD", "Lulesh", "XSBench", "SSSP"];

/// Designs under duress: the NUMA baseline vs hardware-coherent CARVE.
const DESIGNS: [Design; 2] = [Design::NumaGpu, Design::CarveHwc];

/// The fault-intensity axis (fraction of [`FaultPlan::random`]'s maximum
/// event budget).
const INTENSITIES: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// Root seed of every generated plan; change it and every faulted point
/// re-runs under a fresh draw.
const PLAN_SEED: u64 = 0xCA51;

/// Fault-schedule horizon: early enough that every event lands while
/// even quick-mode runs are still executing.
const PLAN_HORIZON: u64 = 20_000;

/// The deterministic fault schedule of sweep cell (workload, level).
/// Graceful kinds only: packet loss is the fuzzer's oracle bait, not a
/// degradation mode a design can absorb.
fn plan_for(workload_idx: usize, level: usize) -> FaultPlan {
    let mut rng = Stream::from_parts(&[PLAN_SEED, workload_idx as u64, level as u64]);
    FaultPlan::random(&mut rng, PLAN_HORIZON, INTENSITIES[level], false)
}

fn spec_by_name(c: &mut Campaign, name: &str) -> WorkloadSpec {
    c.specs()
        .into_iter()
        .find(|s| s.name == name)
        .expect("known workload")
}

/// Every sweep point: per workload, the fault-free baseline of each
/// design plus one faulted run per intensity level. Both designs in a
/// cell share the same plan, so the comparison is like for like.
fn points(c: &mut Campaign) -> Vec<(WorkloadSpec, SimConfig)> {
    let mut pts = Vec::new();
    for (w, name) in RESILIENCE_WORKLOADS.iter().enumerate() {
        let spec = spec_by_name(c, name);
        for design in DESIGNS {
            pts.push((spec.clone(), SimConfig::new(design)));
            for level in 0..INTENSITIES.len() {
                let mut sim = SimConfig::new(design);
                sim.fault_plan = Some(plan_for(w, level));
                pts.push((spec.clone(), sim));
            }
        }
    }
    pts
}

fn main() {
    let settings = Settings::resolve(|key| std::env::var_os(key), std::env::args().skip(1));
    let mut c = Campaign::with_journal("resilience", settings);
    // Fan the grid out first; partitioned cells are legitimate outcomes
    // of the sweep, so the fault-tolerant entry point is the right one.
    let pts = points(&mut c);
    let _ = c.try_run_parallel(&pts);
    slowdown_table(&mut c).emit(c.results_dir());
    summary_table(&mut c).emit(c.results_dir());
    eprintln!("({} simulation runs)", c.cached_runs());
    for f in c.failures() {
        if !f.error.contains("partitioned") {
            eprintln!("warning: non-partition failure in sweep: {f}");
        }
    }
    c.report_sidecars("resilience");
}

/// Per-cell slowdown relative to the same design's fault-free run.
fn slowdown_table(c: &mut Campaign) -> Table {
    let mut header = vec!["workload".to_string(), "design".to_string()];
    for i in INTENSITIES {
        header.push(format!("x{i:.2}"));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "resilience_slowdown",
        "Resilience: slowdown under seeded graceful fault plans vs fault intensity",
        &header_refs,
    );
    for (w, name) in RESILIENCE_WORKLOADS.iter().enumerate() {
        let spec = spec_by_name(c, name);
        for design in DESIGNS {
            let base = c.result(&spec, &SimConfig::new(design));
            let mut row = vec![name.to_string(), design.label().to_string()];
            for level in 0..INTENSITIES.len() {
                let mut sim = SimConfig::new(design);
                sim.fault_plan = Some(plan_for(w, level));
                row.push(match c.try_result(&spec, &sim) {
                    Ok(r) => format!("{:.3}x", r.cycles as f64 / base.cycles as f64),
                    Err(f) if f.error.contains("partitioned") => "partitioned".to_string(),
                    Err(_) => "failed".to_string(),
                });
            }
            t.push(row);
        }
    }
    t
}

/// Geomean slowdown per design per intensity over the cells that
/// completed — the headline "how much fault tolerance does CARVE buy"
/// number.
fn summary_table(c: &mut Campaign) -> Table {
    let mut t = Table::new(
        "resilience_summary",
        "Resilience: geomean slowdown over completed cells (survivors in parentheses)",
        &["design", "x0.25", "x0.50", "x0.75", "x1.00"],
    );
    for design in DESIGNS {
        let mut row = vec![design.label().to_string()];
        for level in 0..INTENSITIES.len() {
            let mut slowdowns = Vec::new();
            let mut total = 0usize;
            for (w, name) in RESILIENCE_WORKLOADS.iter().enumerate() {
                let spec = spec_by_name(c, name);
                let base = c.result(&spec, &SimConfig::new(design));
                let mut sim = SimConfig::new(design);
                sim.fault_plan = Some(plan_for(w, level));
                total += 1;
                if let Ok(r) = c.try_result(&spec, &sim) {
                    slowdowns.push(r.cycles as f64 / base.cycles as f64);
                }
            }
            row.push(if slowdowns.is_empty() {
                format!("n/a (0/{total})")
            } else {
                format!(
                    "{:.3}x ({}/{total})",
                    geomean(slowdowns.iter().copied()),
                    slowdowns.len()
                )
            });
        }
        t.push(row);
    }
    t
}
