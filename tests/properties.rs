//! Property-based tests over core data structures and invariants, using
//! random operation sequences drawn from the simulator's own deterministic
//! PRNG ([`sim_core::rng::Stream`]). Each property samples many random
//! cases per run; seeds are fixed so failures reproduce exactly.

use carve::{Imst, Rdc, RdcConfig, SharingState};
use carve_cache::alloy::{AlloyCache, AlloyProbe};
use carve_cache::mshr::{MshrAllocate, MshrFile};
use carve_cache::sram::{AccessKind, SetAssocCache};
use carve_runtime::page_table::{PageTable, PlacementPolicy, Replication};
use carve_runtime::sched::{cta_range_of_gpu, gpu_of_cta};
use carve_runtime::sharing::SharingProfile;
use carve_system::sim::{try_run_with_profile_mode, EngineMode};
use carve_system::{workloads, Design, ScaledConfig, SimConfig};
use carve_trace::{Op, WorkloadSpec};
use sim_core::rng::Stream;
use sim_core::{BoundedQueue, Cycle, FaultPlan, TopologySpec};

/// Runs `cases` random trials of `prop`, each fed an independent stream
/// derived from `seed` so any failing case is reproducible by index.
fn for_cases(seed: u64, cases: u64, mut prop: impl FnMut(&mut Stream)) {
    for case in 0..cases {
        let mut s = Stream::from_parts(&[seed, case]);
        prop(&mut s);
    }
}

/// A bounded queue never exceeds capacity and preserves FIFO order.
#[test]
fn queue_respects_capacity_and_order() {
    for_cases(0xB0DE, 64, |s| {
        let cap = s.gen_range(1, 32) as usize;
        let n_ops = s.gen_range(1, 200);
        let mut q = BoundedQueue::new(cap);
        let mut model = std::collections::VecDeque::new();
        let mut next = 0u32;
        for _ in 0..n_ops {
            if s.gen_bool(0.5) {
                let accepted = q.try_push(next).is_ok();
                assert_eq!(accepted, model.len() < cap);
                if accepted {
                    model.push_back(next);
                }
                next += 1;
            } else {
                assert_eq!(q.pop(), model.pop_front());
            }
            assert_eq!(q.len(), model.len());
            assert!(q.len() <= cap);
        }
    });
}

/// After any fill sequence, a cache probe for the most recently filled
/// line always hits, and occupancy never exceeds geometry.
#[test]
fn cache_fill_then_probe_hits() {
    for_cases(0xCAFE, 48, |s| {
        let mut c = SetAssocCache::new(8 * 1024, 4, 128);
        for _ in 0..s.gen_range(1, 300) {
            let addr = s.gen_range(0, 1 << 20);
            c.fill(addr, false);
            assert!(c.contains(addr));
        }
        assert!(c.occupancy() <= 64); // 8KB / 128B
    });
}

/// Probing with writes then invalidating reports dirty exactly when a
/// write happened since the fill.
#[test]
fn cache_dirty_tracking() {
    for_cases(0xD1B7, 48, |s| {
        let mut c = SetAssocCache::new(4096, 4, 128);
        for i in 0..s.gen_range(1, 50) {
            let w = s.gen_bool(0.5);
            let addr = i * 128;
            c.fill(addr, false);
            if w {
                c.probe(addr, AccessKind::Write);
            }
            // Same-set fills may have evicted it; only check if present.
            if c.contains(addr) {
                assert_eq!(c.invalidate(addr), Some(w));
            }
        }
    });
}

/// The Alloy array holds at most one line per set and a probe after
/// insert under the same epoch always hits.
#[test]
fn alloy_insert_probe_consistency() {
    for_cases(0xA110, 48, |s| {
        let epoch = s.gen_range(0, 100) as u32;
        let mut a = AlloyCache::new(32 * 128, 128);
        for _ in 0..s.gen_range(1, 200) {
            let addr = s.gen_range(0, 4096) * 128;
            a.insert(addr, epoch);
            assert_eq!(a.probe(addr, epoch), AlloyProbe::Hit);
            assert_ne!(a.probe(addr, epoch + 1), AlloyProbe::Hit);
        }
    });
}

/// MSHR merging: completion returns exactly the allocated waiters.
#[test]
fn mshr_waiters_conserved() {
    for_cases(0x3140, 64, |s| {
        let mut m: MshrFile<u64> = MshrFile::new(64, 64);
        let line = 0x100;
        let mut accepted = Vec::new();
        for _ in 0..s.gen_range(1, 40) {
            let w = s.gen_range(0, 64);
            match m.allocate(line, w) {
                MshrAllocate::Primary | MshrAllocate::Secondary => accepted.push(w),
                MshrAllocate::Full => {}
            }
        }
        let completed = m.complete(line);
        assert_eq!(completed, accepted);
        assert!(m.is_empty());
    });
}

/// IMST: broadcasts happen only on writes, and only when the line was
/// in a shared state.
#[test]
fn imst_broadcast_only_on_shared_writes() {
    for_cases(0x1357, 64, |s| {
        let mut imst = Imst::with_downgrade(1, 0.0);
        let mut prev = SharingState::Uncached;
        for _ in 0..s.gen_range(1, 200) {
            let local = s.gen_bool(0.5);
            let is_write = s.gen_bool(0.5);
            let d = imst.on_access(0x80, local, is_write);
            let was_shared = matches!(
                prev,
                SharingState::ReadShared | SharingState::ReadWriteShared
            );
            assert_eq!(d.broadcast, is_write && was_shared);
            prev = d.state;
        }
    });
}

/// RDC epoch flushes always empty the cache logically; re-inserting
/// restores hits.
#[test]
fn rdc_flush_cycle() {
    for_cases(0xF1A5, 48, |s| {
        let lines: Vec<u64> = (0..s.gen_range(1, 64))
            .map(|_| s.gen_range(0, 256))
            .collect();
        let mut rdc = Rdc::new(RdcConfig::new(64 * 128, 128));
        for l in &lines {
            rdc.insert(l * 128);
        }
        rdc.kernel_boundary_flush();
        for l in &lines {
            assert!(!rdc.probe(l * 128), "line {l} survived the flush");
        }
        for l in &lines {
            rdc.insert(l * 128);
            assert!(rdc.probe(l * 128));
        }
    });
}

/// CTA scheduling: assignment and ranges agree, cover every CTA once.
#[test]
fn scheduling_is_a_partition() {
    for_cases(0x5C4E, 64, |s| {
        let ctas = s.gen_range(1, 300) as usize;
        let gpus = s.gen_range(1, 9) as usize;
        let mut seen = vec![false; ctas];
        for g in 0..gpus {
            let (start, end) = cta_range_of_gpu(g, ctas, gpus);
            for (cta, seen_slot) in seen.iter_mut().enumerate().take(end).skip(start) {
                assert!(!*seen_slot, "cta {cta} assigned twice");
                *seen_slot = true;
                assert_eq!(gpu_of_cta(cta, ctas, gpus), g);
            }
        }
        assert!(seen.into_iter().all(|x| x));
    });
}

/// First-touch: the first accessor owns the page; later accessors see
/// remote exactly when they differ from the owner (no replication).
#[test]
fn first_touch_ownership() {
    for_cases(0xF157, 48, |s| {
        let mut pt = PageTable::new(4, 8192, PlacementPolicy::default());
        let mut owner: std::collections::HashMap<u64, usize> = Default::default();
        for i in 0..s.gen_range(1, 200) {
            let gpu = s.gen_range(0, 4) as usize;
            let page = s.gen_range(0, 64);
            let w = s.gen_bool(0.5);
            let out = pt.access(gpu, page * 8192, w, Cycle(i));
            let own = *owner.entry(page).or_insert(gpu);
            assert_eq!(out.home, carve_runtime::NodeId::Gpu(own));
            assert_eq!(out.remote, own != gpu);
        }
    });
}

/// All-shared replication localizes every access, regardless of order.
#[test]
fn ideal_replication_is_always_local() {
    for_cases(0x1DEA, 48, |s| {
        let mut pt = PageTable::new(
            4,
            8192,
            PlacementPolicy {
                replication: Replication::AllShared,
                ..Default::default()
            },
        );
        pt.set_replicated_pages(0..16u64);
        for i in 0..s.gen_range(1, 100) {
            let gpu = s.gen_range(0, 4) as usize;
            let page = s.gen_range(0, 16);
            let w = s.gen_bool(0.5);
            let out = pt.access(gpu, page * 8192, w, Cycle(i));
            assert!(!out.remote);
        }
    });
}

/// Sharing classification fractions always sum to 1 over any trace.
#[test]
fn sharing_fractions_partition() {
    for_cases(0x54A2, 32, |s| {
        let mut p = SharingProfile::new(8192, 128);
        for _ in 0..s.gen_range(1, 500) {
            let gpu = s.gen_range(0, 4) as usize;
            let line = s.gen_range(0, 2048);
            p.record(gpu, line * 128, s.gen_bool(0.5));
        }
        for b in [p.page_breakdown(), p.line_breakdown()] {
            let (a, r, w) = b.fractions();
            assert!((a + r + w - 1.0).abs() < 1e-9);
            assert_eq!(b.total_accesses(), p.line_breakdown().total_accesses());
        }
    });
}

/// Deterministic PRNG streams: same key, same sequence; keys derived
/// from different parts never collide in their first draws.
#[test]
fn rng_streams_deterministic() {
    for_cases(0x2265, 64, |s| {
        let seed = s.next_u64();
        let k1 = s.next_u64();
        let k2 = s.next_u64();
        let mut a = Stream::from_parts(&[seed, k1]);
        let mut b = Stream::from_parts(&[seed, k1]);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        if k1 != k2 {
            let mut c = Stream::from_parts(&[seed, k2]);
            let differs = (0..4).any(|_| a.next_u64() != c.next_u64());
            assert!(differs);
        }
    });
}

/// Warp streams never escape the workload's address layout and always
/// retire exactly the configured instruction budget — for random
/// (kernel, cta, warp) coordinates of random workloads.
#[test]
fn warp_streams_bounded_and_exact() {
    for_cases(0x3A97, 8, |s| {
        let cfg = ScaledConfig::default();
        let wl = s.gen_range(0, 20) as usize;
        let spec = &workloads::all()[wl];
        let kernel = s.gen_range(0, 4) as usize % spec.shape.kernels;
        let cta = s.gen_range(0, 128) as usize;
        let warp = s.gen_range(0, 4) as usize;
        let layout = spec.layout(&cfg);
        let mut gen = spec.warp_gen(&cfg, kernel, cta, warp);
        let mut total = 0u64;
        while let Some(op) = gen.next_op() {
            match op {
                Op::Compute(n) => total += n as u64,
                Op::Load(va) | Op::Store(va) => {
                    total += 1;
                    assert!(va < layout.total_bytes());
                    assert_eq!(va % cfg.line_size, 0);
                }
            }
        }
        assert_eq!(total, spec.shape.instrs_per_warp as u64);
    });
}

// ---------------------------------------------------------------------------
// Event-skipping engine equivalence.

fn quick_spec(name: &str) -> WorkloadSpec {
    let mut spec = workloads::by_name(name).expect("known workload");
    spec.shape.kernels = spec.shape.kernels.min(3);
    spec.shape.ctas = 16;
    spec.shape.instrs_per_warp = 60;
    spec
}

fn quick_sim(design: Design) -> SimConfig {
    let cfg = ScaledConfig {
        sms_per_gpu: 2,
        warps_per_sm: 8,
        ..ScaledConfig::default()
    };
    SimConfig::with_cfg(design, cfg)
}

/// The event-horizon engine must be cycle-for-cycle identical to the
/// step-by-1 engine: every journaled field, across workloads and designs,
/// and on the machines the golden fixtures (4 GPUs, all-to-all, no
/// faults) leave out. `Step` ticks every component every cycle, so it
/// checks each wake cycle the skipping engine keeps: the single-GPU
/// machine has no links, CARVE-SWC flushes the RDC at every kernel
/// boundary, 16 GPUs on 4-GPU pods forward every remote message across
/// switches into a 16-sharer directory, and the fault plan degrades and
/// restores a link, fails DRAM reads and freezes the machine. On a link
/// cut to a sixteenth of its bandwidth, remote misses back up past the
/// congestion horizon and L2 banks park (DESIGN.md §3, "Back-pressure
/// parking"): those points sample telemetry while banks are parked, and
/// one lands a fault plan on parked banks.
#[test]
fn event_skipping_engine_matches_stepping_engine() {
    let mut points = Vec::new();
    for name in ["Lulesh", "stream-triad", "SSSP"] {
        for design in [
            Design::NumaGpu,
            Design::CarveHwc,
            Design::NumaGpuMigrate,
            Design::SingleGpu,
            Design::CarveSwc,
        ] {
            let ctx = format!("{name} under {}", design.label());
            points.push((ctx, quick_spec(name), quick_sim(design)));
        }
    }
    for design in [Design::NumaGpu, Design::CarveHwc] {
        let mut sim = quick_sim(design);
        sim.cfg.num_gpus = 16;
        sim.cfg.topology = TopologySpec::Hierarchical { pod_size: 4 };
        sim.directory_coherence = true;
        let mut spec = quick_spec("SSSP");
        spec.shape.ctas = 32;
        let ctx = format!("SSSP on 16 GPUs (hier4) under {}+dir", design.label());
        points.push((ctx, spec, sim));
    }
    let plan = "degrade@600:e1*25,dramfault@900:g1n4,freeze@1500+300,restore@4000:e1";
    let mut faulted = quick_sim(Design::CarveHwc);
    faulted.fault_plan = Some(FaultPlan::parse(plan).expect("valid plan"));
    assert!(faulted
        .fault_plan
        .as_ref()
        .is_some_and(FaultPlan::is_graceful));
    points.push((
        format!("Lulesh with faults {plan}"),
        quick_spec("Lulesh"),
        faulted,
    ));

    let congested = |design: Design| {
        let mut sim = quick_sim(design);
        sim.cfg.link_bytes_per_cycle /= 16.0;
        sim.directory_coherence = design == Design::CarveHwc;
        sim.telemetry_interval = Some(500);
        sim
    };
    for design in [Design::NumaGpuMigrate, Design::CarveHwc] {
        let sim = congested(design);
        let ctx = format!("SSSP on a congested link under {}", design.label());
        points.push((ctx, quick_spec("SSSP"), sim));
    }
    let plan = "freeze@6500+500,degrade@9000:e0*50,restore@13000:e0";
    let mut parked_faults = congested(Design::NumaGpuMigrate);
    parked_faults.fault_plan = Some(FaultPlan::parse(plan).expect("valid plan"));
    points.push((
        format!("SSSP on a congested link with faults {plan}"),
        quick_spec("SSSP"),
        parked_faults,
    ));

    for (ctx, spec, sim) in &points {
        let run = |mode| {
            try_run_with_profile_mode(spec, sim, None, mode)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"))
        };
        let (skip, step) = (run(EngineMode::EventSkip), run(EngineMode::Step));
        assert!(step.completed && skip.completed, "{ctx}: hit cycle cap");
        assert_eq!(
            skip.encode_journal_line(),
            step.encode_journal_line(),
            "{ctx}: engines diverge"
        );
        assert_eq!(skip.timeline, step.timeline, "{ctx}: timelines diverge");
        if let Some(plan) = &sim.fault_plan {
            let applied = skip.recovery.map(|r| r.faults_applied);
            assert_eq!(
                applied,
                Some(plan.len() as u64),
                "{ctx}: every fault must fire in-run"
            );
        }
    }
}
