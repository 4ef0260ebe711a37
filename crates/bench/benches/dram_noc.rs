//! Throughput benchmarks of the DRAM timing model and the link fabric.

use carve_bench::{black_box, run_benches, Runner};
use carve_dram::{DramConfig, DramModel, FlatMemory};
use carve_noc::{Link, LinkNetwork, NodeId};
use sim_core::rng::Stream;
use sim_core::Cycle;

fn bench_dram(c: &mut Runner) {
    let mut g = c.benchmark_group("dram");
    g.bench_function("saturated_tick", |b| {
        let mut dram = DramModel::new(DramConfig::default());
        let mut rng = Stream::from_seed(1);
        let mut token = 0u64;
        let mut now = 0u64;
        b.iter(|| {
            // Keep the queues pressurized and advance one cycle.
            for _ in 0..2 {
                let addr = rng.gen_range(0, 1 << 20) * 128;
                if dram.can_accept_read(addr) {
                    token += 1;
                    let _ = dram.try_enqueue_read(token, addr, Cycle(now));
                }
            }
            now += 1;
            black_box(dram.tick(Cycle(now)))
        });
    });
    g.bench_function("idle_tick", |b| {
        let mut dram = DramModel::new(DramConfig::default());
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            black_box(dram.tick(Cycle(now)))
        });
    });
    g.bench_function("flat_memory_enqueue_tick", |b| {
        let mut flat = FlatMemory::new(250, 128.0, 128);
        let mut token = 0u64;
        let mut now = 0u64;
        b.iter(|| {
            token += 1;
            flat.enqueue(token, false, Cycle(now));
            now += 1;
            black_box(flat.tick(Cycle(now)))
        });
    });
    g.finish();
}

fn bench_noc(c: &mut Runner) {
    let mut g = c.benchmark_group("noc");
    g.bench_function("link_send_tick", |b| {
        let mut link = Link::new(8.0, 200).expect("positive bandwidth");
        let mut token = 0u64;
        let mut now = 0u64;
        b.iter(|| {
            token += 1;
            link.send(token, 160, Cycle(now));
            now += 30;
            black_box(link.tick(Cycle(now)))
        });
    });
    g.bench_function("network_tick_4gpu", |b| {
        let mut net = LinkNetwork::new(4, 8.0, 200, 4.0, 500).expect("positive bandwidth");
        let mut token = 0u64;
        let mut now = 0u64;
        b.iter(|| {
            token += 1;
            net.send(NodeId::Gpu(0), NodeId::Gpu(1), token, 160, Cycle(now));
            now += 25;
            black_box(net.tick(Cycle(now)))
        });
    });
    g.finish();
}

fn main() {
    run_benches(std::env::args().skip(1), &[bench_dram, bench_noc]);
}
