//! Bring your own workload: define a custom memory-access model, inspect
//! its NUMA sharing profile, and evaluate whether CARVE would help it.
//!
//! The scenario here is a particle-in-cell style application: a private
//! particle array, a shared field grid updated by scattered deposits, and
//! a read-only interpolation table.
//!
//! ```text
//! cargo run --release -p carve-system --example custom_workload
//! ```

use carve_system::{
    profile_workload, try_run_with_profile_mode, Design, EngineMode, ScaledConfig, SimConfig,
};
use carve_trace::{KernelShape, Pattern, RegionSpec, Sharing, Suite, WorkloadSpec};
use sim_core::units::MIB;

fn main() {
    let spec = WorkloadSpec {
        name: "pic-demo",
        suite: Suite::Hpc,
        paper_footprint: 900 * MIB,
        shape: KernelShape {
            kernels: 12,
            ctas: 128,
            warps_per_cta: 4,
            instrs_per_warp: 160,
        },
        mem_fraction: 0.45,
        regions: vec![
            // Particles: private per CTA, streamed, rewritten each step.
            RegionSpec {
                paper_bytes: 512 * MIB,
                pattern: Pattern::Sequential,
                sharing: Sharing::PrivatePerCta,
                write_prob: 0.4,
                rw_line_permille: 1000,
                weight: 0.5,
            },
            // Field grid: every GPU reads it; scattered deposits make most
            // pages read-write shared (the case software replication
            // cannot handle).
            RegionSpec {
                paper_bytes: 320 * MIB,
                pattern: Pattern::Zipf(0.5),
                sharing: Sharing::SharedAll,
                write_prob: 0.08,
                rw_line_permille: 60,
                weight: 0.4,
            },
            // Interpolation table: shared, strictly read-only.
            RegionSpec {
                paper_bytes: 68 * MIB,
                pattern: Pattern::Zipf(0.8),
                sharing: Sharing::SharedAll,
                write_prob: 0.0,
                rw_line_permille: 0,
                weight: 0.1,
            },
        ],
        remap_ctas_between_kernels: false,
        seed: 0xD340,
    };

    // Step 1: profile the sharing structure (the paper's Figure 4 method).
    let cfg = ScaledConfig::default();
    let profile = profile_workload(&spec, &cfg, cfg.num_gpus);
    let (pp, pro, prw) = profile.page_breakdown().fractions();
    let (lp, lro, lrw) = profile.line_breakdown().fractions();
    println!("sharing profile of {}:", spec.name);
    println!(
        "  page granularity: {:4.1}% private, {:4.1}% RO-shared, {:4.1}% RW-shared",
        100.0 * pp,
        100.0 * pro,
        100.0 * prw
    );
    println!(
        "  line granularity: {:4.1}% private, {:4.1}% RO-shared, {:4.1}% RW-shared",
        100.0 * lp,
        100.0 * lro,
        100.0 * lrw
    );
    println!(
        "  replicating all shared pages would grow the footprint {:.1}x",
        profile.replication_footprint_multiplier()
    );

    // Step 2: would the software fixes be enough, or do we need CARVE?
    let mut results = Vec::new();
    for design in [
        Design::NumaGpu,
        Design::NumaGpuRepl,
        Design::CarveHwc,
        Design::Ideal,
    ] {
        let sim = SimConfig::new(design);
        results.push(
            try_run_with_profile_mode(&spec, &sim, Some(&profile), EngineMode::EventSkip)
                .expect("simulation"),
        );
    }
    let ideal_cycles = results.last().expect("ideal run").cycles;
    println!("\ndesign comparison (relative to ideal):");
    for r in &results {
        println!(
            "  {:18} {:>9} cycles  ({:.2} of ideal, {:4.1}% remote)",
            r.design.label(),
            r.cycles,
            ideal_cycles as f64 / r.cycles as f64,
            100.0 * r.remote_fraction()
        );
    }
}
