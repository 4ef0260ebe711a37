//! End-to-end simulation throughput per system design.
//!
//! Measures host wall-time per full (shrunken) workload simulation — the
//! cost of regenerating one data point of the paper's figures. The
//! simulated-cycle results themselves come from
//! `cargo run -p experiments --bin all-figures`.

use carve_bench::{black_box, run_benches, Runner};
use carve_system::{run, workloads, Design, ScaledConfig, SimConfig};
use carve_trace::WorkloadSpec;

fn tiny(name: &str) -> WorkloadSpec {
    let mut spec = workloads::by_name(name).expect("known workload");
    spec.shape.kernels = 2;
    spec.shape.ctas = 16;
    spec.shape.instrs_per_warp = 40;
    spec
}

fn tiny_sim(design: Design) -> SimConfig {
    let cfg = ScaledConfig {
        sms_per_gpu: 2,
        warps_per_sm: 8,
        ..ScaledConfig::default()
    };
    SimConfig::with_cfg(design, cfg)
}

fn bench_designs(c: &mut Runner) {
    let spec = tiny("Lulesh");
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    for design in [
        Design::SingleGpu,
        Design::NumaGpu,
        Design::NumaGpuRepl,
        Design::Ideal,
        Design::CarveHwc,
    ] {
        g.bench_function(design.label(), |b| {
            let sim = tiny_sim(design);
            b.iter(|| black_box(run(&spec, &sim)));
        });
    }
    g.finish();
}

fn bench_profiling(c: &mut Runner) {
    use carve_system::profile_workload;
    let spec = tiny("Lulesh");
    let cfg = ScaledConfig::default();
    let mut g = c.benchmark_group("profiling");
    g.sample_size(10);
    g.bench_function("profile_workload", |b| {
        b.iter(|| black_box(profile_workload(&spec, &cfg, 4)));
    });
    g.finish();
}

fn main() {
    run_benches(std::env::args().skip(1), &[bench_designs, bench_profiling]);
}
