//! Cross-crate integration tests: full system runs exercising every layer
//! (trace generation → runtime placement → GPU cores → DRAM/links → CARVE)
//! and checking end-to-end invariants the figures depend on.

use carve_system::{
    profile_workload, run, try_run_with_profile_mode, workloads, Design, EngineMode, ScaledConfig,
    SimConfig,
};
use carve_trace::WorkloadSpec;

/// A shrunken workload so each test run takes well under a second.
fn tiny(name: &str) -> WorkloadSpec {
    let mut spec = workloads::by_name(name).expect("known workload");
    spec.shape.kernels = spec.shape.kernels.min(3);
    spec.shape.ctas = 16;
    spec.shape.instrs_per_warp = 50;
    spec
}

fn tiny_cfg() -> ScaledConfig {
    ScaledConfig {
        sms_per_gpu: 2,
        warps_per_sm: 8,
        ..ScaledConfig::default()
    }
}

fn tiny_sim(design: Design) -> SimConfig {
    SimConfig::with_cfg(design, tiny_cfg())
}

#[test]
fn every_workload_completes_under_the_baseline() {
    for spec in workloads::all() {
        let mut spec = spec;
        spec.shape.kernels = 2;
        spec.shape.ctas = 16;
        spec.shape.instrs_per_warp = 40;
        let r = run(&spec, &tiny_sim(Design::NumaGpu));
        assert!(r.completed, "{} hit the cycle cap", spec.name);
        assert_eq!(
            r.instructions,
            spec.shape.total_instrs(),
            "{} lost instructions",
            spec.name
        );
    }
}

#[test]
fn all_designs_retire_identical_instruction_counts() {
    let spec = tiny("SSSP");
    let expected = spec.shape.total_instrs();
    for design in Design::all() {
        let r = run(&spec, &tiny_sim(design));
        assert!(r.completed, "{:?}", design);
        assert_eq!(r.instructions, expected, "{:?}", design);
    }
}

#[test]
fn design_performance_ordering_holds() {
    // The paper's central ordering on a NUMA-sensitive stencil workload:
    // ideal >= CARVE-NC >= CARVE-HWC >= CARVE-SWC-ish >= NUMA-GPU,
    // with a little slack for simulation noise.
    let spec = tiny("Euler");
    let base = run(&spec, &tiny_sim(Design::NumaGpu)).cycles as f64;
    let ideal = run(&spec, &tiny_sim(Design::Ideal)).cycles as f64;
    let nc = run(&spec, &tiny_sim(Design::CarveNc)).cycles as f64;
    let hwc = run(&spec, &tiny_sim(Design::CarveHwc)).cycles as f64;
    assert!(ideal <= nc * 1.02, "ideal {ideal} vs NC {nc}");
    assert!(nc <= hwc * 1.05, "NC {nc} vs HWC {hwc}");
    assert!(hwc < base, "CARVE-HWC {hwc} must beat baseline {base}");
    assert!(ideal < base, "ideal {ideal} must beat baseline {base}");
}

#[test]
fn carve_moves_traffic_from_links_to_local_dram() {
    let spec = tiny("Lulesh");
    let base = run(&spec, &tiny_sim(Design::NumaGpu));
    let carve = run(&spec, &tiny_sim(Design::CarveHwc));
    assert!(carve.link_bytes < base.link_bytes);
    assert!(carve.rdc.insertions > 0);
    assert!(carve.remote_fraction() < base.remote_fraction());
}

#[test]
fn software_coherence_flushes_show_up_as_stale_misses() {
    let spec = tiny("Lulesh");
    let swc = run(&spec, &tiny_sim(Design::CarveSwc));
    assert!(swc.rdc.epoch_bumps > 0);
    assert!(
        swc.rdc.stale_misses > 0,
        "flushes never invalidated anything"
    );
    let nc = run(&spec, &tiny_sim(Design::CarveNc));
    assert_eq!(nc.rdc.stale_misses, 0, "NC must never see stale epochs");
}

#[test]
fn hardware_coherence_invalidates_remote_copies() {
    let spec = tiny("SSSP");
    let hwc = run(&spec, &tiny_sim(Design::CarveHwc));
    assert!(hwc.broadcasts > 0, "RW-shared graph updates must broadcast");
    assert!(hwc.rdc.invalidations > 0, "broadcasts must reach RDCs");
    let nc = run(&spec, &tiny_sim(Design::CarveNc));
    assert_eq!(nc.broadcasts, 0);
}

#[test]
fn results_are_bit_deterministic() {
    let spec = tiny("HPGMG");
    let a = run(&spec, &tiny_sim(Design::CarveHwc));
    let b = run(&spec, &tiny_sim(Design::CarveHwc));
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.link_bytes, b.link_bytes);
    assert_eq!(a.rdc.hits, b.rdc.hits);
    assert_eq!(a.broadcasts, b.broadcasts);
    assert_eq!(a.dram.bytes_transferred, b.dram.bytes_transferred);
}

#[test]
fn profile_reuse_matches_internal_profiling() {
    let spec = tiny("AlexNet");
    let cfg = tiny_cfg();
    let profile = profile_workload(&spec, &cfg, cfg.num_gpus);
    let sim = tiny_sim(Design::NumaGpuRepl);
    let a = try_run_with_profile_mode(&spec, &sim, Some(&profile), EngineMode::EventSkip)
        .expect("run with a shared profile");
    let b = run(&spec, &sim);
    assert_eq!(a.cycles, b.cycles);
}

#[test]
fn replication_fixes_read_only_ml_workloads() {
    let spec = tiny("AlexNet");
    let base = run(&spec, &tiny_sim(Design::NumaGpu));
    let repl = run(&spec, &tiny_sim(Design::NumaGpuRepl));
    let ideal = run(&spec, &tiny_sim(Design::Ideal));
    assert!(repl.cycles < base.cycles);
    // RO replication should land essentially on the ideal point.
    let rel = ideal.cycles as f64 / repl.cycles as f64;
    assert!(rel > 0.95, "RO replication only reached {rel:.2} of ideal");
}

#[test]
fn streaming_workloads_have_no_numa_problem() {
    let spec = tiny("stream-triad");
    let base = run(&spec, &tiny_sim(Design::NumaGpu));
    assert!(
        base.remote_fraction() < 0.02,
        "first-touch should localize private streams: {:.3}",
        base.remote_fraction()
    );
    assert_eq!(base.migrations, 0);
}

#[test]
fn migration_charges_link_traffic() {
    let spec = tiny("Lulesh");
    let base = run(&spec, &tiny_sim(Design::NumaGpu));
    let mig = run(&spec, &tiny_sim(Design::NumaGpuMigrate));
    assert!(mig.migrations > 0);
    // Page payloads cross the links on top of regular traffic.
    let page = tiny_cfg().page_size;
    assert!(mig.link_bytes >= base.link_bytes.saturating_sub(mig.migrations * page));
}

#[test]
fn spill_fraction_slows_things_down_monotonically_ish() {
    let spec = tiny("MCB");
    let mut cycles = Vec::new();
    for frac in [0.0, 0.1, 0.3] {
        let mut sim = tiny_sim(Design::NumaGpu);
        sim.spill_fraction = frac;
        let r = run(&spec, &sim);
        assert!(r.completed);
        cycles.push(r.cycles);
    }
    assert!(
        cycles[2] > cycles[0],
        "30% spill must cost something: {cycles:?}"
    );
}

#[test]
fn rdc_capacity_zero_is_rejected_for_carve() {
    let spec = tiny("Lulesh");
    let mut sim = tiny_sim(Design::CarveHwc);
    sim.rdc_bytes = Some(0);
    let result = std::panic::catch_unwind(|| run(&spec, &sim));
    assert!(result.is_err(), "zero RDC must be rejected");
}

#[test]
fn bigger_rdc_never_hurts_a_table_workload() {
    let spec = tiny("XSBench");
    let mut small = tiny_sim(Design::CarveHwc);
    small.rdc_bytes = Some(64 * 1024);
    let mut large = tiny_sim(Design::CarveHwc);
    large.rdc_bytes = Some(16 * 1024 * 1024);
    let rs = run(&spec, &small);
    let rl = run(&spec, &large);
    assert!(
        rl.rdc.hit_rate() >= rs.rdc.hit_rate(),
        "hit rate must not drop with capacity: {} vs {}",
        rl.rdc.hit_rate(),
        rs.rdc.hit_rate()
    );
}

#[test]
fn link_bandwidth_sweep_behaves_like_fig14() {
    let spec = tiny("Lulesh");
    // NUMA-GPU gains with faster links; CARVE is largely insensitive.
    let mut slow_base = tiny_sim(Design::NumaGpu);
    slow_base.cfg.link_bytes_per_cycle /= 2.0;
    let mut fast_base = tiny_sim(Design::NumaGpu);
    fast_base.cfg.link_bytes_per_cycle *= 4.0;
    let slow = run(&spec, &slow_base);
    let fast = run(&spec, &fast_base);
    assert!(fast.cycles < slow.cycles, "faster links must help NUMA-GPU");

    let mut slow_carve = tiny_sim(Design::CarveHwc);
    slow_carve.cfg.link_bytes_per_cycle /= 2.0;
    let mut fast_carve = tiny_sim(Design::CarveHwc);
    fast_carve.cfg.link_bytes_per_cycle *= 4.0;
    let cs = run(&spec, &slow_carve);
    let cf = run(&spec, &fast_carve);
    let carve_sensitivity = cs.cycles as f64 / cf.cycles as f64;
    let base_sensitivity = slow.cycles as f64 / fast.cycles as f64;
    assert!(
        carve_sensitivity < base_sensitivity,
        "CARVE ({carve_sensitivity:.2}) must be less link-sensitive than \
         NUMA-GPU ({base_sensitivity:.2})"
    );
}

#[test]
fn single_gpu_design_is_self_consistent() {
    let spec = tiny("CoMD");
    let r = run(&spec, &tiny_sim(Design::SingleGpu));
    assert!(r.completed);
    assert_eq!(r.remote_serviced, 0);
    assert_eq!(r.link_bytes, 0);
    assert_eq!(r.cpu_link_bytes, 0);
    assert_eq!(r.broadcasts, 0);
}

#[test]
fn directory_coherence_targets_fewer_messages() {
    let spec = tiny("SSSP");
    let bcast = run(&spec, &tiny_sim(Design::CarveHwc));
    let mut sim = tiny_sim(Design::CarveHwc);
    sim.directory_coherence = true;
    let dir = run(&spec, &sim);
    assert!(dir.completed);
    assert!(dir.directory_invalidates > 0, "directory never invalidated");
    // Broadcast fans out to (gpus-1) = 3 messages per decision; the
    // directory sends only to true sharers.
    assert!(
        dir.directory_invalidates < bcast.broadcasts * 3,
        "directory {} must beat broadcast fan-out {}",
        dir.directory_invalidates,
        bcast.broadcasts * 3
    );
    // Same workload completes with the same instruction count.
    assert_eq!(dir.instructions, bcast.instructions);
}

#[test]
fn sysmem_rdc_reduces_cpu_link_traffic() {
    let spec = tiny("MCB");
    let mut base = tiny_sim(Design::CarveHwc);
    base.spill_fraction = 0.3;
    let off = run(&spec, &base);
    let mut sim = base;
    sim.rdc_caches_sysmem = true;
    let on = run(&spec, &sim);
    assert!(on.completed);
    assert!(
        on.cpu_link_bytes < off.cpu_link_bytes,
        "caching sysmem in the RDC must cut CPU traffic: {} vs {}",
        on.cpu_link_bytes,
        off.cpu_link_bytes
    );
}

#[test]
fn eight_gpu_system_runs_and_scales() {
    let spec = tiny("stream-triad");
    let mut cfg = tiny_cfg();
    cfg.num_gpus = 8;
    let single = run(&spec, &SimConfig::with_cfg(Design::SingleGpu, cfg.clone()));
    let eight = run(&spec, &SimConfig::with_cfg(Design::NumaGpu, cfg));
    assert!(eight.completed);
    assert!(
        eight.speedup_over(&single) > 2.0,
        "8 GPUs only {:.2}x on streaming",
        eight.speedup_over(&single)
    );
}

#[test]
fn write_back_rdc_close_to_write_through() {
    let spec = tiny("Euler");
    let wt = run(&spec, &tiny_sim(Design::CarveHwc));
    let mut sim = tiny_sim(Design::CarveHwc);
    sim.rdc_write_policy = carve::WritePolicy::WriteBack;
    let wb = run(&spec, &sim);
    assert!(wb.completed);
    let ratio = wb.cycles as f64 / wt.cycles as f64;
    assert!(
        (0.8..1.25).contains(&ratio),
        "write policies should perform similarly: {ratio:.2}"
    );
}

#[test]
fn broadcast_always_sends_more_invalidates() {
    let spec = tiny("Lulesh");
    let filtered = run(&spec, &tiny_sim(Design::CarveHwc));
    let mut sim = tiny_sim(Design::CarveHwc);
    sim.gpu_vi_broadcast_always = true;
    let raw = run(&spec, &sim);
    assert!(raw.completed);
    assert!(
        raw.rdc.invalidations >= filtered.rdc.invalidations,
        "IMST filter must not increase invalidations"
    );
}

#[test]
fn watchdog_never_false_positives_across_all_workloads() {
    // Budget far below each run's total length but far above any
    // legitimate progress gap (horizon jumps, drain windows, kernel
    // launches): a dead window anywhere in the engine would trip it.
    for spec in workloads::all() {
        let mut spec = spec;
        spec.shape.kernels = 2;
        spec.shape.ctas = 16;
        spec.shape.instrs_per_warp = 40;
        let mut sim = tiny_sim(Design::CarveHwc);
        sim.watchdog_cycles = Some(50_000);
        let r = try_run_with_profile_mode(&spec, &sim, None, EngineMode::EventSkip);
        assert!(
            r.is_ok(),
            "{} tripped the watchdog: {}",
            spec.name,
            r.unwrap_err()
        );
    }
}

#[test]
fn invalid_config_surfaces_as_structured_error() {
    let spec = tiny("Lulesh");
    let mut sim = tiny_sim(Design::CarveHwc);
    sim.rdc_bytes = Some(0);
    match try_run_with_profile_mode(&spec, &sim, None, EngineMode::EventSkip) {
        Err(carve_system::SimError::ConfigInvalid { message }) => {
            assert!(
                message.contains("rdc"),
                "message should name the knob: {message}"
            );
        }
        other => panic!("zero RDC must be ConfigInvalid, got {other:?}"),
    }
}
