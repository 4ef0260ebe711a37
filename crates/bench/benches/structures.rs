//! Microbenchmarks of the core cache/coherence structures on the hot path
//! of every simulated cycle.

use carve::{HitPredictor, Imst, Rdc, RdcConfig};
use carve_bench::{black_box, run_benches, Runner};
use carve_cache::alloy::AlloyCache;
use carve_cache::mshr::MshrFile;
use carve_cache::sram::{AccessKind, SetAssocCache};
use sim_core::rng::Stream;

fn bench_sram(c: &mut Runner) {
    let mut g = c.benchmark_group("sram");
    g.bench_function("probe_hit", |b| {
        let mut cache = SetAssocCache::new(32 * 1024, 16, 128);
        cache.fill(0x1000, false);
        b.iter(|| black_box(cache.probe(black_box(0x1000), AccessKind::Read)));
    });
    g.bench_function("probe_miss", |b| {
        let mut cache = SetAssocCache::new(32 * 1024, 16, 128);
        b.iter(|| black_box(cache.probe(black_box(0xDEAD00), AccessKind::Read)));
    });
    g.bench_function("fill_evict_stream", |b| {
        let mut cache = SetAssocCache::new(32 * 1024, 16, 128);
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_add(128);
            black_box(cache.fill(addr, false))
        });
    });
    g.finish();
}

fn bench_alloy_rdc(c: &mut Runner) {
    let mut g = c.benchmark_group("rdc");
    g.bench_function("alloy_probe", |b| {
        let mut a = AlloyCache::new(8 << 20, 128);
        a.insert(0x8000, 0);
        b.iter(|| black_box(a.probe(black_box(0x8000), 0)));
    });
    g.bench_function("rdc_probe_insert_mix", |b| {
        let mut rdc = Rdc::new(RdcConfig::new(8 << 20, 128));
        let mut rng = Stream::from_seed(7);
        b.iter(|| {
            let addr = rng.gen_range(0, 1 << 24) * 128;
            if !rdc.probe(addr) {
                rdc.insert(addr);
            }
        });
    });
    g.bench_function("epoch_flush", |b| {
        let mut rdc = Rdc::new(RdcConfig::new(1 << 20, 128));
        b.iter(|| black_box(rdc.kernel_boundary_flush()));
    });
    g.finish();
}

fn bench_coherence(c: &mut Runner) {
    let mut g = c.benchmark_group("coherence");
    g.bench_function("imst_private_write", |b| {
        let mut imst = Imst::new(1);
        imst.on_access(0x80, true, false);
        b.iter(|| black_box(imst.on_access(black_box(0x80), true, true)));
    });
    g.bench_function("imst_shared_write_broadcast", |b| {
        let mut imst = Imst::with_downgrade(1, 0.0);
        imst.on_access(0x80, false, false);
        b.iter(|| black_box(imst.on_access(black_box(0x80), true, true)));
    });
    g.bench_function("hit_predictor_predict_update", |b| {
        let mut p = HitPredictor::new(4096);
        let mut rng = Stream::from_seed(3);
        b.iter(|| {
            let addr = rng.gen_range(0, 1 << 20) * 128;
            let pred = p.predict(addr);
            p.update(addr, pred);
        });
    });
    g.finish();
}

fn bench_mshr(c: &mut Runner) {
    c.bench_function("mshr_allocate_complete", |b| {
        let mut m: MshrFile<u32> = MshrFile::new(256, 32);
        b.iter(|| {
            m.allocate(0x80, 1);
            m.allocate(0x80, 2);
            black_box(m.complete(0x80))
        });
    });
}

fn main() {
    run_benches(
        std::env::args().skip(1),
        &[bench_sram, bench_alloy_rdc, bench_coherence, bench_mshr],
    );
}
