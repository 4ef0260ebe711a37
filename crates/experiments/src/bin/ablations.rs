//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! These are *simulated-cycle* comparisons (not wall-clock benches):
//!
//! 1. Write-through vs write-back RDC (paper: within 1%).
//! 2. IMST write-invalidate filtering vs broadcast-always GPU-VI.
//! 3. The RDC hit predictor on the RandAccess pathology.
//! 4. Kernel-launch overhead sensitivity (Amdahl term of the scaled runs).

use carve::WritePolicy;
use carve_system::{Design, SimConfig};
use carve_trace::WorkloadSpec;
use experiments::{Campaign, Settings, Table};
use sim_core::geomean;

/// Fans every ablation point across worker threads before the tables
/// slice the warm cache (the launch-overhead study bypasses the cache and
/// stays sequential).
fn prefetch(c: &mut Campaign) {
    let base = c.base_cfg();
    let mut points: Vec<(WorkloadSpec, SimConfig)> = Vec::new();
    for spec in c.specs() {
        points.push((
            spec.clone(),
            SimConfig::with_cfg(Design::CarveHwc, base.clone()),
        ));
        let mut dir = SimConfig::with_cfg(Design::CarveHwc, base.clone());
        dir.directory_coherence = true;
        points.push((spec.clone(), dir));
        let mut wb = SimConfig::with_cfg(Design::CarveHwc, base.clone());
        wb.rdc_write_policy = WritePolicy::WriteBack;
        points.push((spec.clone(), wb));
        let mut bcast = SimConfig::with_cfg(Design::CarveHwc, base.clone());
        bcast.gpu_vi_broadcast_always = true;
        points.push((spec.clone(), bcast));
    }
    let find = |name: &str| {
        c.specs()
            .into_iter()
            .find(|s| s.name == name)
            .expect("known workload")
    };
    for name in ["RandAccess", "XSBench", "bfs-road", "Lulesh"] {
        let mut sim = SimConfig::with_cfg(Design::CarveHwc, base.clone());
        sim.hit_predictor = true;
        points.push((find(name), sim));
    }
    for name in ["MCB", "XSBench", "stream-triad", "AMG"] {
        let mut off = SimConfig::with_cfg(Design::CarveHwc, base.clone());
        off.spill_fraction = 0.0625;
        let mut on = off.clone();
        on.rdc_caches_sysmem = true;
        points.push((find(name), off));
        points.push((find(name), on));
    }
    c.run_parallel(&points);
}

fn main() {
    let settings = Settings::resolve(|key| std::env::var_os(key), std::env::args().skip(1));
    let mut c = Campaign::with_journal("ablations", settings);
    prefetch(&mut c);
    write_policy_ablation(&mut c).emit(c.results_dir());
    imst_ablation(&mut c).emit(c.results_dir());
    directory_ablation(&mut c).emit(c.results_dir());
    predictor_ablation(&mut c).emit(c.results_dir());
    sysmem_rdc_ablation(&mut c).emit(c.results_dir());
    launch_overhead_ablation(&mut c).emit(c.results_dir());
    eprintln!("({} simulation runs)", c.cached_runs());
    c.report_sidecars("ablations");
}

/// Section V-E: broadcast GPU-VI vs a sharer directory at the default
/// 4-GPU machine (the scaling binary sweeps node counts).
fn directory_ablation(c: &mut Campaign) -> Table {
    let mut t = Table::new(
        "ablation_directory",
        "Ablation: broadcast vs directory coherence (CARVE-HWC)",
        &[
            "workload",
            "bcast-cycles",
            "dir-cycles",
            "bcast-msgs",
            "dir-msgs",
        ],
    );
    for spec in c.specs() {
        let bcast = c.design_result(&spec, Design::CarveHwc);
        let mut sim = SimConfig::with_cfg(Design::CarveHwc, c.base_cfg());
        sim.directory_coherence = true;
        let dir = c.result(&spec, &sim);
        t.push(vec![
            spec.name.to_string(),
            bcast.cycles.to_string(),
            dir.cycles.to_string(),
            (bcast.broadcasts * 3).to_string(),
            dir.directory_invalidates.to_string(),
        ]);
    }
    t
}

/// Footnote 2: letting the RDC cache system-memory data as well, relevant
/// once cold pages spill to the CPU (Table V(b) scenarios).
fn sysmem_rdc_ablation(c: &mut Campaign) -> Table {
    let mut t = Table::new(
        "ablation_sysmem_rdc",
        "Ablation: RDC caching of system memory under 6.25% UM spill (CARVE-HWC)",
        &["workload", "no-sysmem-rdc", "sysmem-rdc", "speedup"],
    );
    for name in ["MCB", "XSBench", "stream-triad", "AMG"] {
        let spec = c
            .specs()
            .into_iter()
            .find(|s| s.name == name)
            .expect("known workload");
        let mut base = SimConfig::with_cfg(Design::CarveHwc, c.base_cfg());
        base.spill_fraction = 0.0625;
        let off = c.result(&spec, &base);
        let mut on_cfg = base.clone();
        on_cfg.rdc_caches_sysmem = true;
        let on = c.result(&spec, &on_cfg);
        t.push(vec![
            name.to_string(),
            off.cycles.to_string(),
            on.cycles.to_string(),
            format!("{:.3}", off.cycles as f64 / on.cycles as f64),
        ]);
    }
    t
}

/// Paper Section IV-B: "a write-through RDC performs nearly as well
/// (within 1%) as a write-back RDC".
fn write_policy_ablation(c: &mut Campaign) -> Table {
    let mut t = Table::new(
        "ablation_write_policy",
        "Ablation: RDC write-through vs write-back (CARVE-HWC cycles)",
        &["workload", "write-through", "write-back", "WT/WB"],
    );
    let mut ratios = Vec::new();
    for spec in c.specs() {
        let wt = c.design_result(&spec, Design::CarveHwc);
        let mut sim = SimConfig::with_cfg(Design::CarveHwc, c.base_cfg());
        sim.rdc_write_policy = WritePolicy::WriteBack;
        let wb = c.result(&spec, &sim);
        let ratio = wb.cycles as f64 / wt.cycles as f64;
        ratios.push(ratio);
        t.push(vec![
            spec.name.to_string(),
            wt.cycles.to_string(),
            wb.cycles.to_string(),
            format!("{ratio:.3}"),
        ]);
    }
    t.push(vec![
        "geomean".into(),
        String::new(),
        String::new(),
        format!("{:.3}", geomean(ratios.iter().copied())),
    ]);
    t
}

/// Figure 12's point: without the IMST filter, GPU-VI broadcasts on every
/// write and the links carry pure coherence noise.
fn imst_ablation(c: &mut Campaign) -> Table {
    let mut t = Table::new(
        "ablation_imst",
        "Ablation: IMST filtering vs broadcast-always GPU-VI (CARVE-HWC)",
        &[
            "workload",
            "imst-cycles",
            "bcast-cycles",
            "imst-invalidates",
            "bcast-invalidates",
        ],
    );
    for spec in c.specs() {
        let filtered = c.design_result(&spec, Design::CarveHwc);
        let mut sim = SimConfig::with_cfg(Design::CarveHwc, c.base_cfg());
        sim.gpu_vi_broadcast_always = true;
        let raw = c.result(&spec, &sim);
        t.push(vec![
            spec.name.to_string(),
            filtered.cycles.to_string(),
            raw.cycles.to_string(),
            filtered.rdc.invalidations.to_string(),
            raw.rdc.invalidations.to_string(),
        ]);
    }
    t
}

/// Section IV-A: "low-overhead cache hit-predictors can mitigate these
/// performance outliers" — exercised on the workloads CARVE hurts.
fn predictor_ablation(c: &mut Campaign) -> Table {
    let mut t = Table::new(
        "ablation_predictor",
        "Ablation: RDC hit predictor (CARVE-HWC cycles)",
        &["workload", "no-predictor", "predictor", "speedup"],
    );
    for name in ["RandAccess", "XSBench", "bfs-road", "Lulesh"] {
        let spec = c
            .specs()
            .into_iter()
            .find(|s| s.name == name)
            .expect("known workload");
        let base = c.design_result(&spec, Design::CarveHwc);
        let mut sim = SimConfig::with_cfg(Design::CarveHwc, c.base_cfg());
        sim.hit_predictor = true;
        let pred = c.result(&spec, &sim);
        t.push(vec![
            name.to_string(),
            base.cycles.to_string(),
            pred.cycles.to_string(),
            format!("{:.3}", base.cycles as f64 / pred.cycles as f64),
        ]);
    }
    t
}

/// How much of the scaled runs is kernel-launch serial overhead.
fn launch_overhead_ablation(c: &mut Campaign) -> Table {
    let mut t = Table::new(
        "ablation_launch",
        "Ablation: kernel-launch overhead (NUMA-GPU cycles, Lulesh)",
        &["launch-cycles", "total-cycles", "overhead-share"],
    );
    let spec = c
        .specs()
        .into_iter()
        .find(|s| s.name == "Lulesh")
        .expect("known workload");
    for launch in [0u64, 400, 2000, 8000] {
        let mut sim = SimConfig::with_cfg(Design::NumaGpu, c.base_cfg());
        sim.kernel_launch_cycles = launch;
        // Bypass the cache: launch cycles are not part of the cache key,
        // so run directly.
        let r = carve_system::run(&spec, &sim);
        let serial = launch * spec.shape.kernels as u64;
        t.push(vec![
            launch.to_string(),
            r.cycles.to_string(),
            format!("{:.1}%", 100.0 * serial as f64 / r.cycles as f64),
        ]);
    }
    t
}
