//! Warp-stream generation throughput for each workload archetype.
//!
//! Every simulated instruction flows through `WarpGen::next_op`, so its
//! cost bounds overall simulation speed.

use carve_bench::{black_box, run_benches, Runner};
use carve_trace::workloads;
use sim_core::ScaledConfig;

fn bench_tracegen(c: &mut Runner) {
    let cfg = ScaledConfig::default();
    let mut g = c.benchmark_group("tracegen");
    for name in [
        "stream-triad", // sequential private
        "Lulesh",       // stencil halo
        "SSSP",         // zipf graph
        "XSBench",      // zipf table
        "RandAccess",   // uniform random
    ] {
        let spec = workloads::by_name(name).expect("known workload");
        g.bench_function(name, |b| {
            let mut gen = spec.warp_gen(&cfg, 0, 0, 0);
            b.iter(|| match gen.next_op() {
                Some(op) => black_box(op),
                None => {
                    gen = spec.warp_gen(&cfg, 0, 0, 0);
                    black_box(carve_trace::Op::Compute(0))
                }
            });
        });
    }
    g.finish();
}

fn bench_profile(c: &mut Runner) {
    use carve_runtime::sharing::SharingProfile;
    use sim_core::rng::Stream;
    c.bench_function("sharing_profile_record", |b| {
        let mut p = SharingProfile::new(8192, 128);
        let mut rng = Stream::from_seed(5);
        b.iter(|| {
            let gpu = (rng.next_u64() % 4) as usize;
            let va = rng.gen_range(0, 1 << 22) * 128;
            p.record(gpu, va, rng.gen_bool(0.2));
        });
    });
}

fn main() {
    run_benches(std::env::args().skip(1), &[bench_tracegen, bench_profile]);
}
