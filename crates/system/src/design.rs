//! The named system configurations of the paper's figures.

use carve::{CoherencePolicy, WritePolicy};
use carve_gpu::sm::MAX_WARPS_PER_SM;
use carve_runtime::page_table::{PlacementPolicy, Replication};
use sim_core::{FaultPlan, ScaledConfig, SimError};

/// One of the system designs the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// A single GPU running the whole workload: the speedup baseline of
    /// Figure 13.
    SingleGpu,
    /// Baseline NUMA-GPU (Milic et al.): contiguous CTA batches,
    /// first-touch placement, remote data cached in the (software-coherent)
    /// LLC.
    NumaGpu,
    /// NUMA-GPU plus reactive page migration.
    NumaGpuMigrate,
    /// NUMA-GPU plus software replication of read-only shared pages.
    NumaGpuRepl,
    /// The upper bound: every shared page replicated locally at zero cost.
    Ideal,
    /// NUMA-GPU + CARVE with zero-overhead coherence (upper bound for RDC).
    CarveNc,
    /// NUMA-GPU + CARVE with software coherence: RDC epoch-flushed at every
    /// kernel boundary.
    CarveSwc,
    /// NUMA-GPU + CARVE with hardware coherence (GPU-VI + IMST).
    CarveHwc,
}

impl Design {
    /// All designs in presentation order.
    pub fn all() -> [Design; 8] {
        [
            Design::SingleGpu,
            Design::NumaGpu,
            Design::NumaGpuMigrate,
            Design::NumaGpuRepl,
            Design::Ideal,
            Design::CarveNc,
            Design::CarveSwc,
            Design::CarveHwc,
        ]
    }

    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            Design::SingleGpu => "1-GPU",
            Design::NumaGpu => "NUMA-GPU",
            Design::NumaGpuMigrate => "NUMA-GPU+Migrate",
            Design::NumaGpuRepl => "NUMA-GPU+RO-Repl",
            Design::Ideal => "Ideal",
            Design::CarveNc => "CARVE-NC",
            Design::CarveSwc => "CARVE-SWC",
            Design::CarveHwc => "CARVE-HWC",
        }
    }

    /// Whether the design carves an RDC out of GPU memory.
    pub fn uses_carve(self) -> bool {
        matches!(self, Design::CarveNc | Design::CarveSwc | Design::CarveHwc)
    }

    /// The RDC coherence policy, when CARVE is in use.
    pub fn coherence(self) -> Option<CoherencePolicy> {
        match self {
            Design::CarveNc => Some(CoherencePolicy::NoCoherence),
            Design::CarveSwc => Some(CoherencePolicy::Software),
            Design::CarveHwc => Some(CoherencePolicy::Hardware),
            _ => None,
        }
    }

    /// The software placement policy layered on first-touch.
    pub fn placement_policy(self) -> PlacementPolicy {
        match self {
            Design::NumaGpuMigrate => PlacementPolicy {
                migration: true,
                migration_threshold: 16,
                ..Default::default()
            },
            Design::NumaGpuRepl => PlacementPolicy {
                replication: Replication::ReadOnlyShared,
                ..Default::default()
            },
            Design::Ideal => PlacementPolicy {
                replication: Replication::AllShared,
                ..Default::default()
            },
            _ => PlacementPolicy::default(),
        }
    }

    /// Whether remotely-homed L2 lines are invalidated at kernel
    /// boundaries (software-coherent LLC). Hardware coherence and the
    /// no-coherence upper bound retain the LLC across kernels.
    pub fn flushes_llc_at_boundary(self) -> bool {
        !matches!(self, Design::CarveNc | Design::CarveHwc)
    }

    /// Number of GPUs this design runs on, given a base config.
    pub fn num_gpus(self, cfg: &ScaledConfig) -> usize {
        if self == Design::SingleGpu {
            1
        } else {
            cfg.num_gpus
        }
    }

    /// Inverse of [`Design::label`], used when re-reading campaign
    /// journals.
    pub fn from_label(label: &str) -> Option<Design> {
        Design::all().into_iter().find(|d| d.label() == label)
    }
}

/// A complete simulation request: design + machine + experiment knobs.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Scaled machine parameters.
    pub cfg: ScaledConfig,
    /// System design.
    pub design: Design,
    /// RDC carve-out override in bytes per GPU (defaults to
    /// `cfg.rdc_bytes_per_gpu`).
    pub rdc_bytes: Option<u64>,
    /// Fraction of the touched footprint spilled to system memory
    /// (Table V(b)'s UM experiment). Cold pages are chosen by profile.
    pub spill_fraction: f64,
    /// Enables the RDC hit predictor (probe bypass on predicted misses).
    pub hit_predictor: bool,
    /// RDC write policy (the paper adopts write-through; write-back with a
    /// dirty-map flush is the ablation variant).
    pub rdc_write_policy: WritePolicy,
    /// Disables the IMST filter so every write broadcasts (raw GPU-VI
    /// ablation). Only meaningful for [`Design::CarveHwc`].
    pub gpu_vi_broadcast_always: bool,
    /// Uses a per-home sharer directory instead of broadcast invalidation
    /// (the paper's Section V-E scalability alternative). Only meaningful
    /// for [`Design::CarveHwc`].
    pub directory_coherence: bool,
    /// Lets the RDC also cache system (CPU) memory, per the paper's
    /// footnote 2 — assumes CPU-GPU coherence support (Agarwal et al.,
    /// HPCA'16).
    pub rdc_caches_sysmem: bool,
    /// Hard cycle cap; runs exceeding it report `completed = false`.
    pub max_cycles: u64,
    /// Cycles charged per kernel launch.
    pub kernel_launch_cycles: u64,
    /// Watchdog no-progress budget in cycles (`Some(0)` disables). `None`
    /// means [`sim_core::DEFAULT_WATCHDOG_CYCLES`].
    pub watchdog_cycles: Option<u64>,
    /// Telemetry sampling interval in cycles. `None` or `Some(0)` leaves
    /// sampling off. When enabled, the run's [`crate::SimResult`] carries a
    /// [`sim_core::telemetry::Timeline`] of per-GPU interval records.
    /// Sampling is read-only: aggregates are bit-identical either way.
    pub telemetry_interval: Option<u64>,
    /// Protocol sanitizer (`Some(true)` enables; `None` or `Some(false)`
    /// leaves it off). When enabled, a shadow checker validates coherence/lifecycle/timing
    /// invariants at every event and the run fails with
    /// [`sim_core::SimError::SanitizerViolation`] on the first breach.
    /// Like telemetry, the sanitizer is read-only: aggregates are
    /// bit-identical either way.
    pub sanitize: Option<bool>,
    /// Cycle-accounting profiler (default off). When enabled, every
    /// simulated SM cycle is charged to exactly one stall category and the
    /// run's [`crate::SimResult`] carries a
    /// [`sim_core::profile::ProfileReport`] with per-GPU stall totals plus
    /// DRAM-channel and link occupancy breakdowns. Like telemetry and the
    /// sanitizer, profiling is read-only: aggregates and journal lines are
    /// bit-identical either way.
    pub cycle_profile: bool,
    /// Structured event tracing (default off). When enabled, the run's
    /// [`crate::SimResult::trace`] carries the engine's
    /// [`sim_core::TraceEvent`]s: kernel launch/drain spans per GPU,
    /// coherence broadcasts, epoch invalidations and page migrations.
    /// Read-only like the other observations.
    pub event_trace: bool,
    /// Deterministic fault-injection schedule (see [`sim_core::fault`]).
    /// Events are applied at their exact cycles under both engines, so a
    /// faulted run is still byte-identical across `EventSkip`/`Step`.
    /// Edge/GPU indices in the plan are *hints*, resolved modulo the
    /// machine's actual edge/GPU counts when the run is armed. `None`
    /// (or an empty plan) leaves the fault machinery entirely off.
    pub fault_plan: Option<FaultPlan>,
    /// Test hook: freeze every component (skip all ticks) once the clock
    /// reaches this cycle, simulating a livelocked engine so watchdog
    /// detection can be exercised deterministically. Subsumed by the
    /// fault plan's `freeze@<cycle>` event; kept as a convenience knob.
    #[doc(hidden)]
    pub stall_inject_at: Option<u64>,
}

impl SimConfig {
    /// A default-machine simulation of `design`.
    pub fn new(design: Design) -> SimConfig {
        SimConfig {
            cfg: ScaledConfig::default(),
            design,
            rdc_bytes: None,
            spill_fraction: 0.0,
            hit_predictor: false,
            rdc_write_policy: WritePolicy::WriteThrough,
            gpu_vi_broadcast_always: false,
            directory_coherence: false,
            rdc_caches_sysmem: false,
            max_cycles: 80_000_000,
            // Scaled with kernel runtime: paper kernels run 10^6..10^8
            // cycles against ~microsecond launch overheads; our scaled
            // kernels run 10^4..10^5 cycles.
            kernel_launch_cycles: 400,
            watchdog_cycles: None,
            telemetry_interval: None,
            sanitize: None,
            cycle_profile: false,
            event_trace: false,
            fault_plan: None,
            stall_inject_at: None,
        }
    }

    /// Same, with an explicit machine configuration.
    pub fn with_cfg(design: Design, cfg: ScaledConfig) -> SimConfig {
        SimConfig {
            cfg,
            ..SimConfig::new(design)
        }
    }

    /// Effective RDC capacity per GPU for this run.
    pub fn rdc_capacity(&self) -> u64 {
        self.rdc_bytes.unwrap_or(self.cfg.rdc_bytes_per_gpu)
    }

    /// Rejects configurations that cannot describe a real machine, with a
    /// message naming the offending knob and its value. Called by
    /// `try_run_with_profile_mode` and at campaign start, so a bad design point fails in
    /// microseconds instead of panicking deep inside the simulation.
    pub fn validate(&self) -> Result<(), SimError> {
        let c = &self.cfg;
        let fail = |msg: String| Err(SimError::ConfigInvalid { message: msg });
        if c.num_gpus == 0 {
            return fail("num_gpus is 0; a system needs at least one GPU".into());
        }
        if c.sms_per_gpu == 0 {
            return fail("sms_per_gpu is 0; each GPU needs at least one SM".into());
        }
        if c.warps_per_sm == 0 {
            return fail("warps_per_sm is 0; each SM needs at least one warp slot".into());
        }
        if c.warps_per_sm > MAX_WARPS_PER_SM {
            return fail(format!(
                "warps_per_sm is {}; an SM holds at most {MAX_WARPS_PER_SM} warps \
                 (one bit per slot in its warp-phase masks)",
                c.warps_per_sm
            ));
        }
        if c.line_size == 0 || !c.line_size.is_power_of_two() {
            return fail(format!(
                "line_size is {}; it must be a non-zero power of two",
                c.line_size
            ));
        }
        if !c.page_size.is_power_of_two() {
            return fail(format!(
                "page_size is {}; it must be a non-zero power of two",
                c.page_size
            ));
        }
        if c.page_size < c.line_size {
            return fail(format!(
                "page_size {} is smaller than line_size {}",
                c.page_size, c.line_size
            ));
        }
        if c.l1_bytes_per_sm < c.line_size {
            return fail(format!(
                "l1_bytes_per_sm {} cannot hold one {}-byte line",
                c.l1_bytes_per_sm, c.line_size
            ));
        }
        if c.l2_bytes_per_gpu < c.line_size {
            return fail(format!(
                "l2_bytes_per_gpu {} cannot hold one {}-byte line",
                c.l2_bytes_per_gpu, c.line_size
            ));
        }
        if c.l1_ways == 0 || c.l2_ways == 0 {
            return fail(format!(
                "cache associativity is 0 (l1_ways={}, l2_ways={}); use at least 1 way",
                c.l1_ways, c.l2_ways
            ));
        }
        if !c.l2_banks.is_power_of_two() {
            return fail(format!(
                "l2_banks is {}; it must be a non-zero power of two",
                c.l2_banks
            ));
        }
        if c.link_bytes_per_cycle <= 0.0 || c.cpu_link_bytes_per_cycle <= 0.0 {
            return fail(format!(
                "link bandwidth must be positive (link_bytes_per_cycle={}, \
                 cpu_link_bytes_per_cycle={})",
                c.link_bytes_per_cycle, c.cpu_link_bytes_per_cycle
            ));
        }
        // Dry-build the interconnect graph so an unroutable topology
        // (too many GPUs, pod size not tiling, zero-bandwidth edge) fails
        // here with the generator's actionable message instead of deep
        // inside `System::build`.
        carve_noc::Topology::build(
            c.topology,
            self.design.num_gpus(c),
            c.link_bytes_per_cycle,
            c.link_latency,
            c.cpu_link_bytes_per_cycle,
            c.cpu_link_latency,
        )?;
        if !(c.dram_channels.is_power_of_two() && c.dram_banks_per_channel.is_power_of_two()) {
            return fail(format!(
                "DRAM geometry is degenerate (dram_channels={}, dram_banks_per_channel={}); \
                 both must be non-zero powers of two",
                c.dram_channels, c.dram_banks_per_channel
            ));
        }
        if c.dram_channel_bytes_per_cycle <= 0.0 {
            return fail(format!(
                "dram_channel_bytes_per_cycle is {}; DRAM bandwidth must be positive",
                c.dram_channel_bytes_per_cycle
            ));
        }
        if !(c.dram_write_drain_low < c.dram_write_drain_high
            && c.dram_write_drain_high <= c.dram_queue_depth)
        {
            return fail(format!(
                "DRAM write-drain watermarks out of order: need drain_low < drain_high <= \
                 queue_depth, got {} / {} / {}",
                c.dram_write_drain_low, c.dram_write_drain_high, c.dram_queue_depth
            ));
        }
        if c.mem_bytes_per_gpu == 0 {
            return fail("mem_bytes_per_gpu is 0; each GPU needs memory capacity".into());
        }
        if !(0.0..=1.0).contains(&self.spill_fraction) {
            return fail(format!(
                "spill_fraction is {}; it is a fraction of the footprint and must be in [0, 1]",
                self.spill_fraction
            ));
        }
        if self.design.uses_carve() {
            let rdc = self.rdc_capacity();
            if rdc == 0 {
                return fail(format!(
                    "{} carves an RDC out of GPU memory but the effective RDC capacity is 0; \
                     set rdc_bytes (or cfg.rdc_bytes_per_gpu) to at least one line",
                    self.design.label()
                ));
            }
            if rdc >= c.mem_bytes_per_gpu {
                return fail(format!(
                    "RDC capacity {} would consume the entire {}-byte GPU memory; \
                     the carve-out must leave room for local pages",
                    rdc, c.mem_bytes_per_gpu
                ));
            }
        }
        if self.max_cycles == 0 {
            return fail("max_cycles is 0; no simulation can finish in zero cycles".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = Design::all().iter().map(|d| d.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 8);
    }

    #[test]
    fn carve_designs_have_coherence() {
        for d in Design::all() {
            assert_eq!(d.uses_carve(), d.coherence().is_some());
        }
    }

    #[test]
    fn ideal_replicates_all() {
        let p = Design::Ideal.placement_policy();
        assert_eq!(p.replication, Replication::AllShared);
        assert!(!p.migration);
    }

    #[test]
    fn hwc_retains_llc() {
        assert!(!Design::CarveHwc.flushes_llc_at_boundary());
        assert!(!Design::CarveNc.flushes_llc_at_boundary());
        assert!(Design::NumaGpu.flushes_llc_at_boundary());
        assert!(Design::CarveSwc.flushes_llc_at_boundary());
    }

    #[test]
    fn single_gpu_uses_one_gpu() {
        let cfg = ScaledConfig::default();
        assert_eq!(Design::SingleGpu.num_gpus(&cfg), 1);
        assert_eq!(Design::NumaGpu.num_gpus(&cfg), 4);
    }

    #[test]
    fn rdc_capacity_override() {
        let mut sc = SimConfig::new(Design::CarveHwc);
        assert_eq!(sc.rdc_capacity(), sc.cfg.rdc_bytes_per_gpu);
        sc.rdc_bytes = Some(1 << 20);
        assert_eq!(sc.rdc_capacity(), 1 << 20);
    }

    #[test]
    fn from_label_round_trips() {
        for d in Design::all() {
            assert_eq!(Design::from_label(d.label()), Some(d));
        }
        assert_eq!(Design::from_label("bogus"), None);
    }

    #[test]
    fn default_configs_validate() {
        for d in Design::all() {
            SimConfig::new(d)
                .validate()
                .expect("defaults must be valid");
        }
    }

    #[test]
    fn validate_rejects_degenerate_knobs_with_actionable_messages() {
        let check = |mutate: fn(&mut SimConfig), needle: &str| {
            let mut sc = SimConfig::new(Design::NumaGpu);
            mutate(&mut sc);
            let err = sc.validate().expect_err("must reject");
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
        };
        check(|s| s.cfg.sms_per_gpu = 0, "sms_per_gpu");
        check(|s| s.cfg.num_gpus = 0, "num_gpus");
        check(|s| s.cfg.l2_bytes_per_gpu = 0, "l2_bytes_per_gpu");
        check(|s| s.cfg.l1_bytes_per_sm = 0, "l1_bytes_per_sm");
        check(|s| s.cfg.link_bytes_per_cycle = 0.0, "link bandwidth");
        check(|s| s.cfg.num_gpus = 65, "at most 64");
        check(
            |s| {
                s.cfg.num_gpus = 8;
                s.cfg.topology = sim_core::TopologySpec::Hierarchical { pod_size: 3 };
            },
            "pod_size",
        );
        check(|s| s.cfg.dram_channels = 0, "dram_channels");
        check(|s| s.cfg.warps_per_sm = 65, "warps_per_sm");
        check(|s| s.cfg.page_size = 3 * 4096, "page_size");
        check(|s| s.cfg.l2_banks = 6, "l2_banks");
        check(|s| s.cfg.dram_channels = 6, "dram_channels");
        check(
            |s| s.cfg.dram_banks_per_channel = 12,
            "dram_banks_per_channel",
        );
        check(|s| s.spill_fraction = 1.5, "spill_fraction");
        check(|s| s.spill_fraction = -0.1, "spill_fraction");
        check(|s| s.max_cycles = 0, "max_cycles");
        check(
            |s| s.cfg.dram_write_drain_low = s.cfg.dram_write_drain_high,
            "watermarks",
        );
    }

    #[test]
    fn routed_topologies_validate_across_gpu_counts() {
        use sim_core::TopologySpec;
        for (gpus, topo) in [
            (8, TopologySpec::Switch),
            (16, TopologySpec::Ring),
            (16, TopologySpec::Hierarchical { pod_size: 4 }),
            (64, TopologySpec::Hierarchical { pod_size: 8 }),
        ] {
            let mut sc = SimConfig::new(Design::CarveHwc);
            sc.cfg.num_gpus = gpus;
            sc.cfg.topology = topo;
            sc.validate()
                .unwrap_or_else(|e| panic!("{topo:?} at {gpus} GPUs must validate: {e}"));
        }
    }

    #[test]
    fn validate_rejects_zero_rdc_only_for_carve_designs() {
        let mut sc = SimConfig::new(Design::CarveHwc);
        sc.rdc_bytes = Some(0);
        let msg = sc.validate().expect_err("carve needs an RDC").to_string();
        assert!(msg.contains("RDC"), "{msg:?}");
        let mut sc = SimConfig::new(Design::NumaGpu);
        sc.rdc_bytes = Some(0);
        sc.validate().expect("non-carve designs ignore the RDC");
    }
}
