//! RDC sizing study: how much GPU memory should be carved out?
//!
//! Sweeps the Remote Data Cache capacity for a table-lookup workload
//! (XSBench) and reports the performance / capacity-loss trade-off the
//! paper's Table V explores: small carve-outs already eliminate most NUMA
//! traffic, while workloads with multi-GB shared working sets keep gaining
//! from larger ones.
//!
//! ```text
//! cargo run --release -p carve-system --example rdc_sizing
//! ```

use carve_system::{
    profile_workload, try_run_with_profile_mode, workloads, Design, EngineMode, SimConfig,
};
use sim_core::units::fmt_bytes;

fn main() {
    let spec = workloads::by_name("XSBench").expect("known workload");
    let base = SimConfig::new(Design::CarveHwc);
    let cfg = &base.cfg;
    let profile = profile_workload(&spec, cfg, cfg.num_gpus);

    // One sharing profile serves every point of the sweep.
    let run = |sim: &SimConfig| {
        try_run_with_profile_mode(&spec, sim, Some(&profile), EngineMode::EventSkip)
            .expect("simulation")
    };
    let baseline = run(&SimConfig::new(Design::NumaGpu));
    println!(
        "XSBench on NUMA-GPU without CARVE: {} cycles, {:.1}% remote\n",
        baseline.cycles,
        100.0 * baseline.remote_fraction()
    );
    println!(
        "{:>14} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "RDC/GPU", "(paper)", "carve-out", "cycles", "speedup", "RDC hits"
    );

    // Paper sizes: 0.5, 1, 2, 4 GB per GPU (scaled to the simulated
    // machine automatically through the capacity scale).
    for paper_gib_halves in [1u64, 2, 4, 8, 16] {
        let paper_bytes = paper_gib_halves << 29;
        let mut sim = SimConfig::new(Design::CarveHwc);
        let rdc = paper_bytes / sim.cfg.capacity_scale;
        sim.rdc_bytes = Some(rdc);
        let r = run(&sim);
        println!(
            "{:>14} {:>10} {:>9.2}% {:>9} {:>8.2}x {:>8.1}%",
            fmt_bytes(rdc),
            fmt_bytes(paper_bytes),
            100.0 * rdc as f64 / sim.cfg.mem_bytes_per_gpu as f64,
            r.cycles,
            baseline.cycles as f64 / r.cycles as f64,
            100.0 * r.rdc.hit_rate(),
        );
    }
    println!("\n(speedup is vs. NUMA-GPU; the paper picks 2 GB = 6.25% of GPU memory)");
}
