//! Coherence design-space study (the paper's Section IV-B).
//!
//! Runs an iterative stencil workload under the three RDC coherence
//! designs and shows *why* software coherence fails for giga-scale DRAM
//! caches: the epoch flush at every kernel boundary destroys the
//! inter-kernel locality the RDC exists to capture, while GPU-VI hardware
//! coherence filtered by the In-Memory Sharing Tracker keeps invalidation
//! traffic negligible.
//!
//! ```text
//! cargo run --release -p carve-system --example coherence_study
//! ```

use carve_system::{
    profile_workload, try_run_with_profile_mode, workloads, Design, EngineMode, SimConfig,
};

fn main() {
    let spec = workloads::by_name("HPGMG").expect("known workload");
    let cfg = SimConfig::new(Design::CarveNc).cfg;
    let profile = profile_workload(&spec, &cfg, cfg.num_gpus);
    // One sharing profile serves every design of the sweep.
    let run = |design| {
        try_run_with_profile_mode(
            &spec,
            &SimConfig::new(design),
            Some(&profile),
            EngineMode::EventSkip,
        )
        .expect("simulation")
    };
    let ideal = run(Design::Ideal);

    println!(
        "{} runs {} kernels; the RDC only pays off if its contents survive\n\
         kernel boundaries.\n",
        spec.name, spec.shape.kernels
    );
    println!(
        "{:>12} {:>9} {:>9} {:>10} {:>12} {:>12} {:>12}",
        "design", "cycles", "vs-ideal", "RDC hits", "stale misses", "invalidates", "broadcasts"
    );
    for design in [Design::CarveSwc, Design::CarveHwc, Design::CarveNc] {
        let r = run(design);
        println!(
            "{:>12} {:>9} {:>9.2} {:>10} {:>12} {:>12} {:>12}",
            r.design.label(),
            r.cycles,
            r.performance_vs(&ideal),
            r.rdc.hits,
            r.rdc.stale_misses,
            r.rdc.invalidations,
            r.broadcasts,
        );
    }
    println!(
        "\nSWC's stale misses are exactly the inter-kernel reuse the epoch\n\
         flush throws away; HWC keeps that reuse and pays only targeted\n\
         write-invalidates on genuinely read-write-shared lines."
    );
}
