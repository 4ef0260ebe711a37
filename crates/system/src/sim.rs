//! The multi-GPU system simulation loop.
//!
//! [`run`] builds the machine described by a [`SimConfig`], executes every
//! kernel of the workload, and reports a [`SimResult`]. Time advances with
//! an event-horizon engine: every component implements
//! [`sim_core::NextEvent`], and the loop jumps `now` to the earliest
//! reported event instead of polling every cycle — bit-identical to the
//! step-by-1 engine ([`EngineMode::Step`], which binaries select with the
//! `CARVE_STEP` environment variable), just without the no-op ticks. The
//! system crate owns everything *between* the GPU cores: DRAM, the RDC carve-outs and
//! their coherence, the link fabric, CPU memory, and the runtime page
//! table. All routing happens here, so the per-design differences are
//! concentrated in one file:
//!
//! * remote reads either cross the links directly (NUMA-GPU) or first
//!   probe the local RDC (CARVE),
//! * remote writes are write-through to the home node, where hardware
//!   coherence may broadcast invalidates,
//! * replication/migration/UM-spill act through the page table's
//!   effective-home resolution.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use carve::{Carve, HitPredictor, ProbeKind, RdcConfig, RdcStats};
use carve_dram::{Completion, DramConfig, DramModel, FlatMemory};
use carve_gpu::{CoreReqKind, CoreRequest, Fabric, GpuCore, TranslationOutcome, Translator};
use carve_noc::{msg, Delivery, LinkNetwork, NodeId, Topology};
use carve_runtime::page_table::{PageMigration, PageTable};
use carve_runtime::sched::cta_range_of_gpu;
use carve_runtime::sharing::{profile_workload, SharingProfile};
use carve_trace::WorkloadSpec;
use sim_core::event::{earliest, NextEvent};
use sim_core::fast::{FastSet, Slab, TagTable};
use sim_core::{
    Cycle, FaultEvent, FaultKind, RecoverySnapshot, ScaledConfig, SimError, Watchdog,
    DEFAULT_WATCHDOG_CYCLES,
};

use crate::design::{Design, SimConfig};
use crate::metrics::SimResult;
use crate::observe::Observer;
use crate::sanitize::{Sanitizer, Violation};

/// Base address of the RDC carve-out in each GPU's physical space; far
/// above any workload VA so probe/fill traffic shares DRAM channels with
/// regular accesses without colliding.
const RDC_BASE: u64 = 1 << 45;

/// Link backlog (cycles of serialization) beyond which senders stall.
const CONGESTION_HORIZON: u64 = 1500;

/// Extra stall charged to a migrating page beyond the transfer itself
/// (TLB shootdown, driver bookkeeping).
const MIGRATION_STALL: u64 = 800;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RemotePhase {
    Go,
    AtHome,
    Return,
}

/// Why a remote read crossed the fabric — carried on the pending entry
/// purely so the cycle-accounting profiler can attribute the resulting
/// warp stall (remote-link vs rdc-miss vs epoch-flush vs
/// coherence-invalidate). Never consulted by protocol logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RemoteCause {
    /// Plain remote-home read (no RDC in the design, or predictor bypass
    /// without an attributable miss kind).
    Plain,
    /// Launched after an RDC capacity/conflict miss (or a mispredicted
    /// probe bypass).
    RdcMiss,
    /// Launched after the RDC copy went stale at a software-coherence
    /// epoch flush.
    Epoch,
    /// Re-fetch of a line dropped by a hardware-coherence invalidation.
    Inval,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Pending {
    /// Local DRAM read feeding a core miss.
    LocalRead { gpu: usize, tag: u64 },
    /// Local DRAM read probing the RDC for a remote line.
    RdcProbe {
        gpu: usize,
        tag: u64,
        line: u64,
        home: usize,
    },
    /// Remote read flow: requester → home → (L2/DRAM) → requester.
    RemoteRead {
        requester: usize,
        tag: u64,
        line: u64,
        home: usize,
        phase: RemotePhase,
        cause: RemoteCause,
    },
    /// System-memory read flow over the CPU links.
    CpuRead {
        gpu: usize,
        tag: u64,
        phase: RemotePhase,
    },
    /// Remote write-through arriving at its home node.
    WriteArrive {
        home: usize,
        line: u64,
        writer: usize,
    },
    /// Hardware-coherence invalidate probe in flight.
    Invalidate { target: usize, line: u64 },
}

struct SystemXl<'a> {
    pt: &'a mut PageTable,
    migrations: &'a mut Vec<PageMigration>,
}

impl Translator for SystemXl<'_> {
    fn translate(&mut self, gpu: usize, va: u64, is_write: bool, now: Cycle) -> TranslationOutcome {
        let out = self.pt.access(gpu, va, is_write, now);
        if let Some(m) = out.migration {
            self.migrations.push(m);
        }
        TranslationOutcome {
            home: out.home,
            blocked_until: out.blocked_until,
        }
    }
}

struct NetFabric<'a> {
    net: &'a LinkNetwork,
}

impl Fabric for NetFabric<'_> {
    fn can_send(&self, src: NodeId, dst: NodeId, now: Cycle) -> bool {
        !self.net.congested(src, dst, now, CONGESTION_HORIZON)
    }

    fn send_ready_at(&self, src: NodeId, dst: NodeId, _now: Cycle) -> Cycle {
        self.net.uncongested_at(src, dst, CONGESTION_HORIZON)
    }
}

/// The armed fault schedule and its progress through a run. Hints from
/// the plan are resolved against the real machine at arm time, so every
/// event here names an existing edge/GPU.
struct FaultState {
    /// Resolved schedule, sorted by cycle.
    events: Vec<FaultEvent>,
    /// Index of the next unapplied event; everything before it has fired.
    cursor: usize,
    /// Absolute cycle until which ticks are skipped (`u64::MAX` =
    /// frozen forever, the `--stall-inject-at` behaviour).
    frozen_until: u64,
    /// Cycle at which the impaired-link count last went 0 → >0; open
    /// degradation window closed by the next healthy transition or at
    /// run end.
    impaired_since: Option<u64>,
    /// Accumulated recovery counters (live counters from the NoC/DRAM
    /// models are merged in by [`System::recovery_snapshot`]).
    recovery: RecoverySnapshot,
}

#[derive(Debug, Default)]
pub(crate) struct Traffic {
    local: u64,
    remote: u64,
    cpu: u64,
    rdc_hits: u64,
    pub(crate) migrations: u64,
}

/// The simulated machine. The fields the run observer reads
/// (`crate::observe`) are crate-visible; the observer never mutates them.
pub(crate) struct System {
    cfg: ScaledConfig,
    design: Design,
    num_gpus: usize,
    pub(crate) cores: Vec<GpuCore>,
    pub(crate) drams: Vec<DramModel>,
    pub(crate) net: LinkNetwork,
    cpu_mem: FlatMemory,
    pt: PageTable,
    pub(crate) carve: Option<Carve>,
    predictors: Vec<HitPredictor>,
    /// In-flight system transactions. The slab token *is* the wire token
    /// carried by DRAM/NoC/CPU-memory models, so lookups on completion are
    /// a direct slot index (no hashing). Tokens are unique and strictly
    /// increasing in allocation order — the `delayed` heap's tiebreak
    /// relies on that — and fire-and-forget payloads draw ordered tokens
    /// from the same sequence via `untracked_token`.
    pub(crate) pending: Slab<Pending>,
    /// Home responses keyed by due cycle: a min-heap so each tick pops
    /// only the entries that are due instead of scanning everything.
    delayed: BinaryHeap<Reverse<(u64, u64)>>, // (due cycle, token)
    ext_retry: Vec<VecDeque<(u64, u64)>>, // per home: (token, line)
    dram_retry: Vec<VecDeque<u64>>,       // per gpu: write addresses
    pub(crate) traffic: Traffic,
    migrations_buf: Vec<PageMigration>,
    /// Per requester GPU, keyed by the core's miss tag: issue cycle of the
    /// warp-visible read (latency histogram bookkeeping).
    issue_time: Vec<TagTable<u64>>,
    read_latency: sim_core::Histogram,
    rdc_caches_sysmem: bool,
    /// Per requester GPU, keyed by miss tag: line to fill into the RDC
    /// when a footnote-2 CPU read returns.
    cpu_fill_lines: Vec<TagTable<u64>>,
    /// Scratch for draining cores' completed external reads each tick
    /// without allocating.
    ext_done_scratch: Vec<(u64, Cycle)>,
    /// Scratch for DRAM / CPU-memory completions drained each tick.
    comp_scratch: Vec<Completion>,
    /// Scratch for link deliveries drained each tick.
    deliv_scratch: Vec<Delivery>,
    /// Shadow protocol sanitizer (`None` unless armed): every hook below
    /// is a single `Option` check when off, so sanitized and unsanitized
    /// runs retire identical work.
    san: Option<Box<Sanitizer>>,
    /// Armed fault schedule (`None` for fault-free runs: one `Option`
    /// check per tick keeps the fault-free hot path untouched).
    faults: Option<Box<FaultState>>,
    // EQUIVALENCE: each wake below is a lower bound on the first cycle at
    // which ticking its component could do anything (DESIGN.md §3 lists
    // which input lowers which wake). A component is refreshed from its
    // own `NextEvent` right after it ticks and after every input that
    // can pull its horizon in, so a component skipped because its wake
    // lies in the future would have ticked as a pure no-op under the
    // stepping engine, and everything it does happens at the same cycle
    // in the same order. `EngineMode::Step` never reads these values and
    // ticks every component every cycle, so the Step golden fixtures
    // check this bookkeeping independently.
    /// Per GPU: the cycle its core (L2 banks + SMs) is next due.
    core_wake: Vec<u64>,
    /// Per GPU: the cycle its DRAM is next due.
    dram_wake: Vec<u64>,
    /// The cycle the link network next delivers.
    net_wake: u64,
    /// The cycle CPU memory next completes an access.
    cpu_wake: u64,
    /// Bit `g` marks core `g` as ticked or handed an input this tick; its
    /// wake is recomputed when the tick ends.
    core_dirty: u64,
    /// Bit `g` marks GPU `g`'s `ext_retry` or `dram_retry` queue as
    /// non-empty (both are retried every cycle).
    retry_gpus: u64,
    /// Per-GPU lines dropped by coherence invalidations, tracked only when
    /// the cycle profiler is on (`None` otherwise — one `Option` check on
    /// the invalidate and remote-read paths). Consumed by
    /// [`System::send_remote_read`] to attribute re-fetches; never read by
    /// protocol logic, so profiled runs retire identical work.
    prof_invalidated: Option<Vec<FastSet>>,
}

impl System {
    fn build(spec: &WorkloadSpec, sim: &SimConfig, profile: Option<&SharingProfile>) -> System {
        let mut cfg = sim.cfg.clone();
        cfg.num_gpus = sim.design.num_gpus(&sim.cfg);
        let num_gpus = cfg.num_gpus;
        let mut pt = PageTable::new(num_gpus, cfg.page_size, sim.design.placement_policy());
        if let Some(p) = profile {
            if sim.spill_fraction > 0.0 {
                pt.set_spill_pages(p.coldest_pages(sim.spill_fraction));
            }
            match sim.design {
                Design::NumaGpuRepl => pt.set_replicated_pages(p.read_only_shared_pages()),
                Design::Ideal => pt.set_replicated_pages(p.shared_pages()),
                _ => {}
            }
        }
        let mut cores: Vec<GpuCore> = (0..num_gpus).map(|g| GpuCore::new(&cfg, spec, g)).collect();
        let carve = sim.design.coherence().map(|policy| {
            let mut rdc_cfg = RdcConfig::new(sim.rdc_capacity(), cfg.line_size);
            rdc_cfg.write_policy = sim.rdc_write_policy;
            let mut carve = Carve::new(num_gpus, policy, rdc_cfg);
            carve.set_broadcast_always(sim.gpu_vi_broadcast_always);
            carve.set_directory_mode(sim.directory_coherence);
            carve
        });
        if sim.design == Design::CarveHwc {
            if let Some(p) = profile {
                let watch: Arc<FastSet> = Arc::new(p.rw_shared_line_addrs().into_iter().collect());
                for core in &mut cores {
                    core.set_store_watch(Arc::clone(&watch));
                }
            }
        }
        let drams = (0..num_gpus)
            .map(|_| DramModel::new(DramConfig::from_scaled(&cfg)))
            .collect();
        let topo = Topology::build(
            cfg.topology,
            num_gpus,
            cfg.link_bytes_per_cycle,
            cfg.link_latency,
            cfg.cpu_link_bytes_per_cycle,
            cfg.cpu_link_latency,
        );
        // audit:allow(tick-path-panics) build-time, not tick: SimConfig::validate dry-built this exact topology
        let topo = topo.expect("topology vetted by SimConfig::validate");
        // audit:allow(tick-path-panics) build-time, not tick: a validated topology has only positive-bandwidth edges
        let net = LinkNetwork::from_topology(topo).expect("validated topology");
        let cpu_mem = FlatMemory::new(
            150,
            cfg.cpu_link_bytes_per_cycle * num_gpus as f64,
            cfg.line_size,
        );
        let predictors = if sim.hit_predictor {
            (0..num_gpus).map(|_| HitPredictor::new(4096)).collect()
        } else {
            Vec::new()
        };
        // Arm the fault schedule: plan hints resolve modulo the real
        // machine here, and the legacy `stall_inject_at` hook becomes a
        // forever-freeze event on the same schedule.
        let faults = if sim.fault_plan.is_some() || sim.stall_inject_at.is_some() {
            let mut plan = sim.fault_plan.clone().unwrap_or_default();
            if let Some(at) = sim.stall_inject_at {
                plan.push(at, FaultKind::Freeze { cycles: u64::MAX });
            }
            let num_edges = net.num_edges().max(1) as u64;
            let events = plan
                .events()
                .iter()
                .map(|e| FaultEvent {
                    at: e.at,
                    kind: match e.kind {
                        FaultKind::LinkDegrade { edge, percent } => FaultKind::LinkDegrade {
                            edge: edge % num_edges,
                            percent,
                        },
                        FaultKind::LinkRestore { edge } => FaultKind::LinkRestore {
                            edge: edge % num_edges,
                        },
                        FaultKind::LinkOutage { edge } => FaultKind::LinkOutage {
                            edge: edge % num_edges,
                        },
                        FaultKind::DramTransient { gpu, count } => FaultKind::DramTransient {
                            gpu: gpu % num_gpus as u64,
                            count,
                        },
                        other => other,
                    },
                })
                .collect();
            Some(Box::new(FaultState {
                events,
                cursor: 0,
                frozen_until: 0,
                impaired_since: None,
                recovery: RecoverySnapshot::default(),
            }))
        } else {
            None
        };
        System {
            design: sim.design,
            num_gpus,
            cores,
            drams,
            net,
            cpu_mem,
            pt,
            carve,
            predictors,
            pending: Slab::new(),
            delayed: BinaryHeap::new(),
            ext_retry: (0..num_gpus).map(|_| VecDeque::new()).collect(),
            dram_retry: (0..num_gpus).map(|_| VecDeque::new()).collect(),
            traffic: Traffic::default(),
            migrations_buf: Vec::new(),
            issue_time: (0..num_gpus).map(|_| TagTable::new()).collect(),
            read_latency: sim_core::Histogram::new(),
            rdc_caches_sysmem: sim.rdc_caches_sysmem,
            cpu_fill_lines: (0..num_gpus).map(|_| TagTable::new()).collect(),
            ext_done_scratch: Vec::new(),
            comp_scratch: Vec::new(),
            deliv_scratch: Vec::new(),
            san: None,
            faults,
            cfg,
            core_wake: vec![u64::MAX; num_gpus],
            dram_wake: vec![u64::MAX; num_gpus],
            net_wake: u64::MAX,
            cpu_wake: u64::MAX,
            core_dirty: 0,
            retry_gpus: 0,
            prof_invalidated: None,
        }
    }

    /// Sends a message and pulls the network's wake in to its arrival.
    fn send(&mut self, src: NodeId, dst: NodeId, token: u64, bytes: u64, now: Cycle) {
        self.net.send(src, dst, token, bytes, now);
        self.net_wake = self.net_wake.min(wake_of(self.net.next_event(now)));
    }

    /// Enqueues a DRAM access on GPU `g` and pulls that DRAM's wake in.
    fn enqueue_dram(
        &mut self,
        g: usize,
        is_write: bool,
        token: u64,
        addr: u64,
        now: Cycle,
    ) -> Result<(), u64> {
        let dram = &mut self.drams[g];
        let queued = if is_write {
            dram.try_enqueue_write(token, addr, now)
        } else {
            dram.try_enqueue_read(token, addr, now)
        };
        self.dram_wake[g] = self.dram_wake[g].min(wake_of(dram.next_event(now)));
        queued
    }

    /// Enqueues a CPU-memory access and pulls its wake in.
    fn enqueue_cpu(&mut self, token: u64, is_write: bool, now: Cycle) {
        self.cpu_mem.enqueue(token, is_write, now);
        self.cpu_wake = self.cpu_wake.min(wake_of(self.cpu_mem.next_event(now)));
    }

    /// Queues a remote GPU's read at `home`'s L2. The bank may serve it
    /// this very cycle, so the core is due now (or, once the cores have
    /// ticked, refreshed when the tick ends).
    fn external_read(&mut self, home: usize, token: u64, line: u64, now: Cycle) -> Result<(), u64> {
        self.cores[home].external_read(token, line)?;
        self.core_wake[home] = self.core_wake[home].min(now.0);
        self.touch_core(home);
        Ok(())
    }

    /// Schedules `kernel`'s CTAs on every GPU; every core is due at once.
    fn launch_kernel(&mut self, kernel: usize, ctas: usize) {
        for g in 0..self.num_gpus {
            let (start, end) = cta_range_of_gpu(g, ctas, self.num_gpus);
            self.cores[g].launch_kernel(kernel, start..end);
            self.core_wake[g] = 0;
        }
    }

    /// Arms the profiler's invalidated-line tracking (cause attribution
    /// for coherence-invalidate stalls). Read-only with respect to every
    /// journaled statistic.
    fn enable_profiler_tracking(&mut self) {
        self.prof_invalidated = Some((0..self.num_gpus).map(|_| FastSet::new()).collect());
    }

    /// Arms the shadow protocol sanitizer and the DRAM timing audit.
    fn enable_sanitizer(&mut self) {
        for d in &mut self.drams {
            d.set_timing_audit(true);
        }
        self.san = Some(Box::new(Sanitizer::new(
            self.num_gpus,
            self.carve.as_ref().map(Carve::policy),
            self.carve.as_ref().is_some_and(Carve::directory_mode),
            self.rdc_caches_sysmem,
        )));
    }

    /// One sanitizer step per engine tick: transfers any latched DRAM
    /// timing-audit breach, checks message conservation and the token
    /// census, and converts the first violation into a [`SimError`].
    fn sanitizer_poll(&mut self, now: Cycle) -> Option<SimError> {
        let san = self.san.as_deref_mut()?;
        for (g, d) in self.drams.iter().enumerate() {
            if let Some(msg) = d.timing_violation() {
                san.on_dram_violation(g, msg, now.0);
            }
        }
        let (sent, delivered) = self.net.message_counts();
        san.on_noc_counts(sent, delivered, now.0);
        san.on_hop_counts(self.net.transit_counts(), now.0);
        san.poll_tokens(&self.pending, now.0);
        let v = san.take_violation()?;
        Some(self.sanitizer_error(v, now))
    }

    /// End-of-run sanitizer checks: a quiescent network must have
    /// delivered every message it accepted and forwarded every transit
    /// arrival.
    fn sanitizer_finish(&mut self, now: Cycle) -> Option<SimError> {
        let san = self.san.as_deref_mut()?;
        let (sent, delivered) = self.net.message_counts();
        san.on_run_end(sent, delivered, now.0);
        san.on_hop_run_end(self.net.transit_counts(), now.0);
        san.poll_tokens(&self.pending, now.0);
        let v = san.take_violation()?;
        Some(self.sanitizer_error(v, now))
    }

    fn sanitizer_error(&self, v: Violation, now: Cycle) -> SimError {
        SimError::SanitizerViolation {
            invariant: v.invariant.to_string(),
            cycle: v.cycle,
            detail: format!(
                "{}\ncomponent snapshot at detection (cycle {}):\n{}",
                v.detail,
                now.0,
                self.stall_diagnostic(now)
            ),
        }
    }

    /// Applies every scheduled fault stamped at or before `now`. Called
    /// at the top of the engine loop, before the tick of `now`, so both
    /// engines apply each event at the exact same cycle
    /// ([`System::next_activity`] folds the schedule into the event-skip
    /// horizon). One `Option` check when no plan is armed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FabricPartitioned`] when a link outage leaves
    /// the topology unroutable — the one fault the system cannot degrade
    /// gracefully around.
    fn apply_faults(&mut self, now: Cycle) -> Result<(), SimError> {
        let Some(mut f) = self.faults.take() else {
            return Ok(());
        };
        let result = self.apply_faults_inner(&mut f, now);
        self.faults = Some(f);
        result
    }

    fn apply_faults_inner(&mut self, f: &mut FaultState, now: Cycle) -> Result<(), SimError> {
        while let Some(&FaultEvent { at, kind }) = f.events.get(f.cursor) {
            if at > now.0 {
                break;
            }
            f.cursor += 1;
            f.recovery.faults_applied += 1;
            match kind {
                FaultKind::LinkDegrade { edge, percent } => {
                    self.net.set_link_bandwidth_factor(edge as usize, percent);
                    self.net_wake = now.0;
                }
                FaultKind::LinkRestore { edge } => {
                    self.net.set_link_bandwidth_factor(edge as usize, 100);
                    self.net_wake = now.0;
                }
                FaultKind::LinkOutage { edge } => {
                    f.recovery.reroutes += self.net.fail_link(edge as usize, now)?;
                    f.recovery.outages += 1;
                    self.net_wake = now.0;
                }
                FaultKind::DramTransient { gpu, count } => {
                    self.drams[gpu as usize].inject_transient_faults(count);
                    self.dram_wake[gpu as usize] = now.0;
                }
                FaultKind::PacketDrop { count } => self.net.inject_packet_drops(count),
                FaultKind::ForwardDrop { count } => self.net.inject_forward_drops(count),
                FaultKind::PacketDup { count } => self.net.inject_packet_dups(count),
                FaultKind::Freeze { cycles } => {
                    let end = if cycles == u64::MAX {
                        u64::MAX
                    } else {
                        now.0.saturating_add(cycles)
                    };
                    if end > f.frozen_until {
                        // Overlapping windows: only the extension counts,
                        // so frozen-cycle accounting stays exact.
                        if end != u64::MAX {
                            f.recovery.frozen_cycles += end - now.0.max(f.frozen_until);
                        }
                        f.frozen_until = end;
                    }
                }
            }
            // Parked L2 banks assume an unchanged route and no freeze: settle
            // them and let each attempt again now.
            for g in 0..self.num_gpus {
                if self.cores[g].release_parked(now) {
                    self.core_wake[g] = self.core_wake[g].min(now.0);
                }
            }
            // Degradation-window accounting: transitions only ever happen
            // here, at exact fault cycles, identically under both engines.
            match (f.impaired_since, self.net.impaired_link_count() > 0) {
                (None, true) => f.impaired_since = Some(now.0),
                (Some(t0), false) => {
                    f.recovery.degraded_cycles += now.0 - t0;
                    f.impaired_since = None;
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Whether injected freezes currently suppress ticking.
    fn is_frozen(&self, now: Cycle) -> bool {
        self.faults.as_ref().is_some_and(|f| now.0 < f.frozen_until)
    }

    /// Point-in-time recovery accounting: the accumulated fault-loop
    /// counters merged with the live NoC/DRAM injection counters and any
    /// still-open degradation window. `None` when no plan is armed.
    fn recovery_snapshot(&self, now: Cycle) -> Option<RecoverySnapshot> {
        let f = self.faults.as_deref()?;
        let mut r = f.recovery;
        r.dram_retries = self.drams.iter().map(DramModel::transient_retries).sum();
        r.dropped_packets = self.net.dropped_packet_count();
        r.duplicated_packets = self.net.duplicated_packet_count();
        if let Some(t0) = f.impaired_since {
            r.degraded_cycles += now.0.saturating_sub(t0);
        }
        Some(r)
    }

    /// Completes a warp-visible read miss and records its latency.
    ///
    /// The `issue_time` entry is removed *before* `complete_miss` frees the
    /// core's tag slot, so a recycled slot can never observe a stale entry.
    fn finish_read(&mut self, gpu: usize, tag: u64, now: Cycle) {
        if let Some(t0) = self.issue_time[gpu].remove(tag) {
            self.read_latency.record(now.0.saturating_sub(t0));
        }
        if self.cores[gpu].complete_miss(tag, now) {
            // The fill unparked a bank whose head now hits this cycle.
            self.core_wake[gpu] = self.core_wake[gpu].min(now.0);
        }
        self.touch_core(gpu);
    }

    /// Marks core `g` for a wake refresh (and an outbox drain) when this
    /// tick ends. For every core input but [`System::external_read`],
    /// which also makes the core due at once, that is enough: none of
    /// them queues work the core could act on before `now + 1` (fills
    /// wake warps 10 cycles out and post to the outbox or
    /// `external_done`, which the end of the tick drains).
    fn touch_core(&mut self, g: usize) {
        self.core_dirty |= 1 << g;
    }

    fn rdc_probe_addr(&self, gpu: usize, line: u64) -> u64 {
        // audit:allow(tick-path-panics) rdc_probe_addr is only called from CARVE-design paths
        let carve = self.carve.as_ref().expect("CARVE not configured");
        RDC_BASE + carve.rdc(gpu).backing_offset(line)
    }

    /// Posts a DRAM write, falling back to the retry queue when full.
    fn dram_write_best_effort(&mut self, gpu: usize, addr: u64, now: Cycle) {
        let token = self.pending.untracked_token();
        if self.enqueue_dram(gpu, true, token, addr, now).is_err() {
            self.dram_retry[gpu].push_back(addr);
            self.retry_gpus |= 1 << gpu;
        }
    }

    /// Sends hardware-coherence invalidates from `home` to `targets`.
    fn send_invalidates(&mut self, home: usize, line: u64, targets: Vec<usize>, now: Cycle) {
        for target in targets {
            if let Some(san) = self.san.as_deref_mut() {
                san.on_invalidate_send(home, line, target);
            }
            if target == home {
                // The home's own caches are probed without crossing a link.
                self.apply_invalidate(target, line, now);
                continue;
            }
            let token = self.pending.insert(Pending::Invalidate { target, line });
            self.send(
                NodeId::Gpu(home),
                NodeId::Gpu(target),
                token,
                msg::INVALIDATE_BYTES,
                now,
            );
        }
    }

    fn apply_invalidate(&mut self, target: usize, line: u64, now: Cycle) {
        if let Some(sets) = self.prof_invalidated.as_mut() {
            sets[target].insert(line);
        }
        if let Some(carve) = self.carve.as_mut() {
            carve.rdc_mut(target).invalidate(line);
        }
        if let Some(san) = self.san.as_deref_mut() {
            if let Some(carve) = self.carve.as_ref() {
                san.on_rdc_invalidate(target, line, carve.rdc(target).contains(line), now.0);
            }
        }
        self.cores[target].invalidate_line(line);
        self.touch_core(target);
    }

    /// A remote write has (logically) reached its home node.
    fn write_at_home(&mut self, home: usize, line: u64, writer: usize, now: Cycle) {
        self.cores[home].external_write(line);
        self.touch_core(home);
        self.dram_write_best_effort(home, line, now);
        let Some(carve) = self.carve.as_mut() else {
            return;
        };
        let targets = carve.on_home_write(home, line, writer);
        if let Some(san) = self.san.as_deref_mut() {
            san.on_write(home, line, writer, &targets, now.0);
        }
        self.send_invalidates(home, line, targets, now);
    }

    /// Routes one core request; `false` means "retry next cycle" and the
    /// request must stay at the head of the outbox.
    fn try_route(&mut self, g: usize, req: CoreRequest, now: Cycle) -> bool {
        let me = NodeId::Gpu(g);
        if req.kind == CoreReqKind::ReadMiss {
            // HOL back-pressure may route the same request several times;
            // only the first attempt stamps the issue cycle.
            self.issue_time[g].insert_if_absent(req.tag, now.0);
        }
        match req.kind {
            CoreReqKind::ReadMiss => match req.home {
                NodeId::Gpu(h) if h == g => {
                    if !self.drams[g].can_accept_read(req.line_addr) {
                        return false;
                    }
                    let token = self.pending.insert(Pending::LocalRead {
                        gpu: g,
                        tag: req.tag,
                    });
                    self.enqueue_dram(g, false, token, req.line_addr, now)
                        // audit:allow(tick-path-panics) guarded by can_accept_read in the same branch
                        .expect("capacity checked");
                    if !req.external {
                        self.traffic.local += 1;
                    }
                    true
                }
                NodeId::Gpu(h) => {
                    if self.carve.is_some() {
                        // Optional predictor: predicted misses skip the
                        // serial probe and go remote immediately.
                        if !self.predictors.is_empty() && !self.predictors[g].predict(req.line_addr)
                        {
                            let kind = self
                                .carve
                                .as_mut()
                                // audit:allow(tick-path-panics) inside the carve.is_some() branch
                                .expect("carve checked")
                                .rdc_mut(g)
                                .probe_kind(req.line_addr);
                            let actual = kind.is_hit();
                            if let Some(san) = self.san.as_deref_mut() {
                                san.on_rdc_probe(g, req.line_addr, actual, now.0);
                            }
                            self.predictors[g].update(req.line_addr, actual);
                            // Even on a mispredicted hit we already launched
                            // remotely; count as remote.
                            let cause = match kind {
                                ProbeKind::StaleEpoch => RemoteCause::Epoch,
                                _ => RemoteCause::RdcMiss,
                            };
                            self.send_remote_read(g, h, req.tag, req.line_addr, now, cause);
                            return true;
                        }
                        let probe_addr = self.rdc_probe_addr(g, req.line_addr);
                        if !self.drams[g].can_accept_read(probe_addr) {
                            return false;
                        }
                        let token = self.pending.insert(Pending::RdcProbe {
                            gpu: g,
                            tag: req.tag,
                            line: req.line_addr,
                            home: h,
                        });
                        self.enqueue_dram(g, false, token, probe_addr, now)
                            // audit:allow(tick-path-panics) guarded by can_accept_read in the same branch
                            .expect("capacity checked");
                        true
                    } else {
                        self.send_remote_read(
                            g,
                            h,
                            req.tag,
                            req.line_addr,
                            now,
                            RemoteCause::Plain,
                        );
                        true
                    }
                }
                NodeId::Cpu => {
                    if self.rdc_caches_sysmem && self.carve.is_some() {
                        // Footnote-2 extension: system-memory lines are
                        // eligible for the RDC too.
                        let probe_addr = self.rdc_probe_addr(g, req.line_addr);
                        if !self.drams[g].can_accept_read(probe_addr) {
                            return false;
                        }
                        let token = self.pending.insert(Pending::RdcProbe {
                            gpu: g,
                            tag: req.tag,
                            line: req.line_addr,
                            home: usize::MAX, // sentinel: CPU home
                        });
                        self.enqueue_dram(g, false, token, probe_addr, now)
                            // audit:allow(tick-path-panics) guarded by can_accept_read in the same branch
                            .expect("capacity checked");
                        return true;
                    }
                    let token = self.pending.insert(Pending::CpuRead {
                        gpu: g,
                        tag: req.tag,
                        phase: RemotePhase::Go,
                    });
                    self.send(me, NodeId::Cpu, token, msg::REQ_BYTES, now);
                    self.traffic.remote += 1;
                    self.traffic.cpu += 1;
                    true
                }
            },
            CoreReqKind::WriteThrough => match req.home {
                NodeId::Gpu(h) => {
                    debug_assert_ne!(h, g, "write-through is for non-local homes");
                    if let Some(carve) = self.carve.as_mut() {
                        if carve.rdc_mut(g).store(req.line_addr) {
                            let addr = self.rdc_probe_addr(g, req.line_addr);
                            self.dram_write_best_effort(g, addr, now);
                        }
                    }
                    let token = self.pending.insert(Pending::WriteArrive {
                        home: h,
                        line: req.line_addr,
                        writer: g,
                    });
                    self.send(me, NodeId::Gpu(h), token, msg::WRITE_DATA_BYTES, now);
                    self.traffic.remote += 1;
                    true
                }
                NodeId::Cpu => {
                    let token = self.pending.untracked_token();
                    self.send(me, NodeId::Cpu, token, msg::WRITE_DATA_BYTES, now);
                    self.enqueue_cpu(token, true, now);
                    self.traffic.remote += 1;
                    self.traffic.cpu += 1;
                    true
                }
            },
            CoreReqKind::WriteBack => {
                if !self.drams[g].can_accept_write(req.line_addr) {
                    return false;
                }
                let token = self.pending.untracked_token();
                self.enqueue_dram(g, true, token, req.line_addr, now)
                    // audit:allow(tick-path-panics) guarded by can_accept_write in the same branch
                    .expect("capacity checked");
                self.traffic.local += 1;
                true
            }
            CoreReqKind::SharedStoreNotice => {
                if let Some(carve) = self.carve.as_mut() {
                    let targets = carve.on_home_write(g, req.line_addr, g);
                    if let Some(san) = self.san.as_deref_mut() {
                        san.on_write(g, req.line_addr, g, &targets, now.0);
                    }
                    self.send_invalidates(g, req.line_addr, targets, now);
                }
                true
            }
        }
    }

    fn send_remote_read(
        &mut self,
        g: usize,
        home: usize,
        tag: u64,
        line: u64,
        now: Cycle,
        cause: RemoteCause,
    ) {
        // Profiler attribution only: a re-fetch of a line the coherence
        // protocol invalidated out of this GPU is charged to the
        // invalidation, whatever path launched it.
        let cause = match self.prof_invalidated.as_mut() {
            Some(sets) => {
                if sets[g].remove(line) {
                    RemoteCause::Inval
                } else {
                    cause
                }
            }
            None => cause,
        };
        let token = self.pending.insert(Pending::RemoteRead {
            requester: g,
            tag,
            line,
            home,
            phase: RemotePhase::Go,
            cause,
        });
        self.send(
            NodeId::Gpu(g),
            NodeId::Gpu(home),
            token,
            msg::REQ_BYTES,
            now,
        );
        self.traffic.remote += 1;
    }

    fn handle_dram_completions(&mut self, now: Cycle, mode: EngineMode) {
        let mut comps = std::mem::take(&mut self.comp_scratch);
        for g in 0..self.num_gpus {
            comps.clear();
            match mode {
                EngineMode::Step => self.drams[g].tick_all_into(now, &mut comps),
                EngineMode::EventSkip if self.dram_wake[g] <= now.0 => {
                    self.drams[g].tick_into(now, &mut comps)
                }
                EngineMode::EventSkip => continue,
            }
            self.dram_wake[g] = wake_of(self.drams[g].next_event(now));
            for &comp in &comps {
                if comp.is_write {
                    continue;
                }
                match self.pending.remove(comp.token) {
                    Some(Pending::LocalRead { gpu, tag }) => {
                        self.finish_read(gpu, tag, now);
                    }
                    Some(Pending::RdcProbe {
                        gpu,
                        tag,
                        line,
                        home,
                    }) => {
                        let kind = self
                            .carve
                            .as_mut()
                            // audit:allow(tick-path-panics) RdcProbe tokens are only minted under CARVE designs
                            .expect("RDC probe without CARVE")
                            .rdc_mut(gpu)
                            .probe_kind(line);
                        let hit = kind.is_hit();
                        if let Some(san) = self.san.as_deref_mut() {
                            san.on_rdc_probe(gpu, line, hit, now.0);
                        }
                        if !self.predictors.is_empty() {
                            self.predictors[gpu].update(line, hit);
                        }
                        if hit {
                            self.traffic.local += 1;
                            self.traffic.rdc_hits += 1;
                            self.finish_read(gpu, tag, now);
                        } else if home == usize::MAX {
                            // CPU-homed line (footnote-2 mode): fetch over
                            // the CPU link and fill the RDC on return.
                            let token = self.pending.insert(Pending::CpuRead {
                                gpu,
                                tag,
                                phase: RemotePhase::Go,
                            });
                            self.send(NodeId::Gpu(gpu), NodeId::Cpu, token, msg::REQ_BYTES, now);
                            self.traffic.remote += 1;
                            self.traffic.cpu += 1;
                            self.cpu_fill_lines[gpu].insert_if_absent(tag, line);
                        } else {
                            let cause = match kind {
                                ProbeKind::StaleEpoch => RemoteCause::Epoch,
                                _ => RemoteCause::RdcMiss,
                            };
                            self.send_remote_read(gpu, home, tag, line, now, cause);
                        }
                    }
                    Some(_) => {
                        self.on_stale_delivery(
                            "DRAM read completion in a non-memory phase",
                            comp.token,
                            now,
                        );
                    }
                    None => {
                        // Untracked tokens belong to posted writes; a read
                        // completion landing here is a lifecycle breach.
                        if let Some(san) = self.san.as_deref_mut() {
                            san.on_unknown_token("DRAM read completion", comp.token, now.0);
                        }
                    }
                }
            }
        }
        self.comp_scratch = comps;
    }

    fn handle_cpu_mem(&mut self, now: Cycle, mode: EngineMode) {
        if mode == EngineMode::EventSkip && self.cpu_wake > now.0 {
            return;
        }
        let mut comps = std::mem::take(&mut self.comp_scratch);
        comps.clear();
        self.cpu_mem.tick_into(now, &mut comps);
        self.cpu_wake = wake_of(self.cpu_mem.next_event(now));
        for &comp in &comps {
            if comp.is_write {
                continue;
            }
            if let Some(Pending::CpuRead { gpu, tag, phase }) =
                self.pending.get(comp.token).copied()
            {
                debug_assert_eq!(phase, RemotePhase::AtHome);
                // audit:allow(tick-path-panics) token fetched from self.pending two lines up
                *self.pending.get_mut(comp.token).expect("live CpuRead") = Pending::CpuRead {
                    gpu,
                    tag,
                    phase: RemotePhase::Return,
                };
                self.send(
                    NodeId::Cpu,
                    NodeId::Gpu(gpu),
                    comp.token,
                    msg::RESP_DATA_BYTES,
                    now,
                );
            }
        }
        self.comp_scratch = comps;
    }

    /// A message arrived for a live token whose state machine cannot
    /// accept it. Fault-free, the protocol never re-delivers a consumed
    /// request, so this is a hard bug; under injected packet duplication
    /// it is the duplicate arriving after the original advanced the state
    /// machine. The endpoint discards the stale copy and reports it to
    /// the sanitizer, which flags it as a token-lifecycle breach.
    fn on_stale_delivery(&mut self, kind: &'static str, token: u64, now: Cycle) {
        assert!(
            self.faults.is_some(),
            "protocol bug: {kind} for token {token:#x} at cycle {} with no fault injection armed",
            now.0
        );
        if let Some(san) = self.san.as_deref_mut() {
            san.on_stale_delivery(kind, token, now.0);
        }
    }

    fn handle_deliveries(&mut self, now: Cycle, mode: EngineMode) {
        if mode == EngineMode::EventSkip && self.net_wake > now.0 {
            return;
        }
        let mut ds = std::mem::take(&mut self.deliv_scratch);
        ds.clear();
        match mode {
            EngineMode::Step => self.net.tick_all_into(now, &mut ds),
            EngineMode::EventSkip => self.net.tick_into(now, &mut ds),
        }
        self.net_wake = wake_of(self.net.next_event(now));
        for &d in &ds {
            let Some(p) = self.pending.get(d.token).copied() else {
                // Untracked payloads (migrations, CPU writes) are legal;
                // a tracked token with no entry is a lifecycle breach.
                if let Some(san) = self.san.as_deref_mut() {
                    san.on_unknown_token("link delivery", d.token, now.0);
                }
                continue;
            };
            match p {
                Pending::RemoteRead {
                    requester,
                    tag,
                    line,
                    home,
                    phase: RemotePhase::Go,
                    cause,
                } => {
                    debug_assert_eq!(d.dst, NodeId::Gpu(home));
                    if let Some(carve) = self.carve.as_mut() {
                        carve.on_home_read(home, line, requester);
                    }
                    if let Some(san) = self.san.as_deref_mut() {
                        if let Some(carve) = self.carve.as_ref() {
                            let state = carve.imst(home).state(line);
                            let dir = carve.directory(home).map(|d| d.has_sharer(line, requester));
                            san.on_grant(home, line, requester, state, dir, now.0);
                        }
                    }
                    // audit:allow(tick-path-panics) token fetched from self.pending in the same match
                    *self.pending.get_mut(d.token).expect("live RemoteRead") =
                        Pending::RemoteRead {
                            requester,
                            tag,
                            line,
                            home,
                            phase: RemotePhase::AtHome,
                            cause,
                        };
                    if self.external_read(home, d.token, line, now).is_err() {
                        self.ext_retry[home].push_back((d.token, line));
                        self.retry_gpus |= 1 << home;
                    }
                }
                Pending::RemoteRead {
                    requester,
                    tag,
                    line,
                    home,
                    phase: RemotePhase::Return,
                    ..
                } => {
                    debug_assert_eq!(d.dst, NodeId::Gpu(requester));
                    self.pending.remove(d.token);
                    if self.carve.is_some() {
                        if let Some(san) = self.san.as_deref_mut() {
                            san.on_rdc_insert(requester, line, home, now.0);
                        }
                    }
                    if let Some(carve) = self.carve.as_mut() {
                        if let Some(victim) = carve.rdc_mut(requester).insert(line) {
                            // Write-back RDC ablation: flush the dirty
                            // victim toward its own home.
                            let vpage = victim / self.cfg.page_size;
                            if let Some(NodeId::Gpu(vh)) = self.pt.home_of(vpage) {
                                if vh != requester {
                                    let token = self.pending.insert(Pending::WriteArrive {
                                        home: vh,
                                        line: victim,
                                        writer: requester,
                                    });
                                    self.send(
                                        NodeId::Gpu(requester),
                                        NodeId::Gpu(vh),
                                        token,
                                        msg::WRITE_DATA_BYTES,
                                        now,
                                    );
                                }
                            }
                        }
                        let addr = self.rdc_probe_addr(requester, line);
                        self.dram_write_best_effort(requester, addr, now);
                    }
                    self.finish_read(requester, tag, now);
                }
                Pending::RemoteRead { .. } => {
                    self.on_stale_delivery("link delivery in AtHome phase", d.token, now);
                }
                Pending::CpuRead {
                    gpu,
                    tag,
                    phase: RemotePhase::Go,
                } => {
                    debug_assert_eq!(d.dst, NodeId::Cpu);
                    // audit:allow(tick-path-panics) token fetched from self.pending in the same match
                    *self.pending.get_mut(d.token).expect("live CpuRead") = Pending::CpuRead {
                        gpu,
                        tag,
                        phase: RemotePhase::AtHome,
                    };
                    self.enqueue_cpu(d.token, false, now);
                }
                Pending::CpuRead {
                    gpu,
                    tag,
                    phase: RemotePhase::Return,
                } => {
                    debug_assert_eq!(d.dst, NodeId::Gpu(gpu));
                    self.pending.remove(d.token);
                    if let Some(line) = self.cpu_fill_lines[gpu].remove(tag) {
                        if self.carve.is_some() {
                            if let Some(san) = self.san.as_deref_mut() {
                                san.on_rdc_insert(gpu, line, usize::MAX, now.0);
                            }
                        }
                        if let Some(carve) = self.carve.as_mut() {
                            carve.rdc_mut(gpu).insert(line);
                        }
                        let addr = self.rdc_probe_addr(gpu, line);
                        self.dram_write_best_effort(gpu, addr, now);
                    }
                    self.finish_read(gpu, tag, now);
                }
                Pending::CpuRead { .. } => {
                    self.on_stale_delivery("link delivery mid-CPU-memory", d.token, now);
                }
                Pending::WriteArrive { home, line, writer } => {
                    self.pending.remove(d.token);
                    self.write_at_home(home, line, writer, now);
                }
                Pending::Invalidate { target, line } => {
                    self.pending.remove(d.token);
                    self.apply_invalidate(target, line, now);
                }
                Pending::LocalRead { .. } | Pending::RdcProbe { .. } => {
                    self.on_stale_delivery("link delivery for a DRAM-only flow", d.token, now);
                }
            }
        }
        self.deliv_scratch = ds;
    }

    fn handle_delayed(&mut self, now: Cycle) {
        while let Some(&Reverse((due, token))) = self.delayed.peek() {
            if due > now.0 {
                break;
            }
            self.delayed.pop();
            if let Some(Pending::RemoteRead {
                requester,
                tag,
                line,
                home,
                phase: RemotePhase::AtHome,
                cause,
            }) = self.pending.get(token).copied()
            {
                // audit:allow(tick-path-panics) token fetched from self.pending two lines up
                *self.pending.get_mut(token).expect("live RemoteRead") = Pending::RemoteRead {
                    requester,
                    tag,
                    line,
                    home,
                    phase: RemotePhase::Return,
                    cause,
                };
                self.send(
                    NodeId::Gpu(home),
                    NodeId::Gpu(requester),
                    token,
                    msg::RESP_DATA_BYTES,
                    now,
                );
            }
        }
    }

    fn handle_retries(&mut self, now: Cycle) {
        let mut gpus = self.retry_gpus;
        while gpus != 0 {
            let g = gpus.trailing_zeros() as usize;
            gpus &= gpus - 1;
            while let Some(&(token, line)) = self.ext_retry[g].front() {
                if self.external_read(g, token, line, now).is_ok() {
                    self.ext_retry[g].pop_front();
                } else {
                    break;
                }
            }
            while let Some(&addr) = self.dram_retry[g].front() {
                if self.drams[g].can_accept_write(addr) {
                    let token = self.pending.untracked_token();
                    self.enqueue_dram(g, true, token, addr, now)
                        // audit:allow(tick-path-panics) guarded by can_accept_write in the same branch
                        .expect("capacity checked");
                    self.dram_retry[g].pop_front();
                } else {
                    break;
                }
            }
            if self.ext_retry[g].is_empty() && self.dram_retry[g].is_empty() {
                self.retry_gpus &= !(1 << g);
            }
        }
    }

    fn process_migrations(&mut self, now: Cycle) {
        // Take/restore so the buffer's capacity survives across ticks
        // (translation refills it while the cores tick).
        let mut migrations = std::mem::take(&mut self.migrations_buf);
        for m in migrations.drain(..) {
            let transfer = (self.cfg.page_size as f64 / self.cfg.link_bytes_per_cycle) as u64
                + self.cfg.link_latency;
            self.pt
                .block_page_until(m.page, Cycle(now.0 + transfer + MIGRATION_STALL));
            let token = self.pending.untracked_token(); // untracked payload
            self.send(m.from, NodeId::Gpu(m.to), token, self.cfg.page_size, now);
            for g in 0..self.num_gpus {
                self.cores[g].shootdown(m.page);
                self.touch_core(g);
            }
            self.traffic.migrations += 1;
        }
        self.migrations_buf = migrations;
    }

    /// Advances the machine one cycle. Under [`EngineMode::EventSkip`]
    /// only components whose wake is due tick; [`EngineMode::Step`] ticks
    /// every component (and every SM, DRAM channel and link inside it).
    fn tick(&mut self, now: Cycle, mode: EngineMode) {
        self.handle_dram_completions(now, mode);
        self.handle_cpu_mem(now, mode);
        self.handle_deliveries(now, mode);
        self.handle_delayed(now);
        self.handle_retries(now);
        // GPU cores issue and service.
        let all = mode == EngineMode::Step;
        for g in 0..self.num_gpus {
            if !all && self.core_wake[g] > now.0 {
                continue;
            }
            let mut xl = SystemXl {
                pt: &mut self.pt,
                migrations: &mut self.migrations_buf,
            };
            let fabric = NetFabric { net: &self.net };
            if all {
                self.cores[g].tick_all(now, &mut xl, &fabric);
            } else {
                self.cores[g].tick(now, &mut xl, &fabric);
            }
            self.core_dirty |= 1 << g;
        }
        self.process_migrations(now);
        // Only dirty cores can hold completed external reads or outgoing
        // requests: both are produced by a core's own tick or by a fill,
        // and a core left holding requests is due again next cycle (its
        // `next_event` is `now + 1`), so it ticks and is dirty then too.
        // Home-side external reads that completed in the cores, drained
        // through a reused scratch buffer (the heap is order-insensitive).
        let mut dirty = self.core_dirty;
        while dirty != 0 {
            let g = dirty.trailing_zeros() as usize;
            dirty &= dirty - 1;
            self.cores[g].drain_external_done_into(&mut self.ext_done_scratch);
        }
        for &(token, at) in &self.ext_done_scratch {
            self.delayed.push(Reverse((at.0, token)));
        }
        self.ext_done_scratch.clear();
        // Drain outboxes with head-of-line back-pressure. The dirty mask is
        // re-read per core: routing may hand a later core a fill.
        let mut from = 0u32;
        while let Some(rest) = self.core_dirty.checked_shr(from).filter(|&r| r != 0) {
            let g = (from + rest.trailing_zeros()) as usize;
            from = g as u32 + 1;
            while let Some(&req) = self.cores[g].outbox_front() {
                if self.try_route(g, req, now) {
                    self.cores[g].outbox_pop();
                } else {
                    break;
                }
            }
        }
        self.refresh_core_wakes(now);
    }

    /// Recomputes the wake of every core that ticked or took an input this
    /// tick, now that its outbox and bank queues have settled. Every due
    /// core ticked, so no other core's wake can be stale.
    fn refresh_core_wakes(&mut self, now: Cycle) {
        let mut dirty = std::mem::take(&mut self.core_dirty);
        while dirty != 0 {
            let g = dirty.trailing_zeros() as usize;
            dirty &= dirty - 1;
            self.core_wake[g] = wake_of(self.cores[g].next_event(now));
        }
    }

    fn quiescent(&self) -> bool {
        self.pending.is_empty()
            && self.delayed.is_empty()
            && self.cores.iter().all(GpuCore::is_idle)
            && self.drams.iter().all(DramModel::is_idle)
            && self.net.is_idle()
            && self.cpu_mem.is_idle()
            && self.ext_retry.iter().all(VecDeque::is_empty)
            && self.dram_retry.iter().all(VecDeque::is_empty)
    }

    // EQUIVALENCE: `next_activity` aggregates per-component `NextEvent`
    // horizons, each of which under-approximates its next interesting
    // cycle (retry queues pin the horizon to `now + 1`, preserving the
    // stepping engine's every-cycle retry cadence). Jumping `now` to the
    // aggregate minimum therefore skips only ticks where `tick()` would
    // have been a no-op for every component, so the event-skip engine
    // retires the same work at the same cycles as stepping —
    // `skip_engine_matches_step_engine_on_a_quick_run` and the golden
    // fixtures (both engines) pin this bit-for-bit.
    /// The event-skipping engine's horizon: the earliest future cycle at
    /// which any component can act (see [`NextEvent`]). Returns `None`
    /// only when the system will never act again without a kernel launch.
    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        let floor = now.0 + 1;
        // Retry queues are re-attempted every cycle in the stepping
        // engine; keep that cadence so retries land on the same cycle.
        if self.retry_gpus != 0 {
            return Some(Cycle(floor));
        }
        let mut horizon = match self.component_wake() {
            u64::MAX => None,
            w => Some(Cycle(w.max(floor))),
        };
        if let Some(&Reverse((due, _))) = self.delayed.peek() {
            horizon = earliest(horizon, Some(Cycle(due.max(floor))));
        }
        // Fault schedule: the next unapplied event and the end of any
        // freeze window must be hit at their exact cycles, or the two
        // engines would apply/unfreeze at different times.
        if let Some(f) = self.faults.as_deref() {
            if let Some(&FaultEvent { at, .. }) = f.events.get(f.cursor) {
                horizon = earliest(horizon, Some(Cycle(at.max(floor))));
            }
            if f.frozen_until != u64::MAX && f.frozen_until > now.0 {
                horizon = earliest(horizon, Some(Cycle(f.frozen_until)));
            }
        }
        horizon
    }

    /// The earliest wake over every core, DRAM, the network and CPU
    /// memory (`u64::MAX` when none will act without outside input).
    fn component_wake(&self) -> u64 {
        let cores = self.core_wake.iter().copied().min().unwrap_or(u64::MAX);
        let drams = self.dram_wake.iter().copied().min().unwrap_or(u64::MAX);
        cores.min(drams).min(self.net_wake).min(self.cpu_wake)
    }

    /// Monotonic count of progress events: retired warp instructions,
    /// serviced DRAM accesses, link messages sent and delivered, and CPU
    /// memory accesses. The watchdog compares this across a budget window;
    /// a window with an unchanged signature had zero progress events.
    /// Queue rejections are deliberately excluded — a retry loop bouncing
    /// off a full queue forever must still read as a stall.
    fn progress_signature(&self) -> u64 {
        let mut sig = 0u64;
        for core in &self.cores {
            sig = sig.wrapping_add(core.stats().instructions);
        }
        for d in &self.drams {
            let s = d.stats();
            sig = sig.wrapping_add(s.reads).wrapping_add(s.writes);
        }
        let (sent, delivered) = self.net.message_counts();
        // Transit hops count as progress too: a long multi-hop flight
        // crossing switches must not read as a stalled window.
        let (transit_recv, transit_fwd) = self.net.transit_totals();
        let cpu = self.cpu_mem.stats();
        sig.wrapping_add(sent)
            .wrapping_add(delivered)
            .wrapping_add(transit_recv)
            .wrapping_add(transit_fwd)
            .wrapping_add(cpu.reads)
            .wrapping_add(cpu.writes)
    }

    /// Names every occupied component for a watchdog report: per-SM warp
    /// occupancy, per-DRAM-channel queue depths, per-link backlogs, retry
    /// queues, and the age of the oldest in-flight read.
    fn stall_diagnostic(&self, now: Cycle) -> String {
        let mut lines = Vec::new();
        if let Some(&t0) = self.issue_time.iter().flat_map(TagTable::values).min() {
            lines.push(format!(
                "oldest in-flight read: issued at cycle {t0}, {} cycles ago",
                now.0.saturating_sub(t0)
            ));
        }
        lines.push(format!(
            "pending tokens: {}, delayed home responses: {}",
            self.pending.len(),
            self.delayed.len()
        ));
        for (g, q) in self.ext_retry.iter().enumerate() {
            if !q.is_empty() {
                lines.push(format!("gpu{g} external-read retry backlog: {}", q.len()));
            }
        }
        for (g, q) in self.dram_retry.iter().enumerate() {
            if !q.is_empty() {
                lines.push(format!("gpu{g} dram-write retry backlog: {}", q.len()));
            }
        }
        // One source of truth for occupancy: the same read-only component
        // snapshots the telemetry sampler consumes.
        for (g, core) in self.cores.iter().enumerate() {
            for l in core.snapshot().occupancy_report() {
                lines.push(format!("gpu{g} {l}"));
            }
        }
        for (g, d) in self.drams.iter().enumerate() {
            for l in d.snapshot().occupancy_report() {
                lines.push(format!("gpu{g} dram {l}"));
            }
        }
        lines.extend(self.net.snapshot().occupancy_report());
        if self.cpu_mem.in_flight() > 0 {
            lines.push(format!(
                "cpu memory: {} accesses in service",
                self.cpu_mem.in_flight()
            ));
        }
        if let Some(f) = self.faults.as_deref() {
            lines.push(format!(
                "fault state: {} of {} events applied; {}",
                f.cursor,
                f.events.len(),
                // audit:allow(tick-path-panics) guarded: recovery_snapshot is Some whenever faults is Some
                self.recovery_snapshot(now).expect("faults armed").summary()
            ));
            if f.frozen_until == u64::MAX {
                lines.push("frozen: forever (injected freeze)".into());
            } else if f.frozen_until > now.0 {
                lines.push(format!("frozen until cycle {}", f.frozen_until));
            }
            lines.extend(self.net.fault_report());
        }
        if lines.is_empty() {
            lines.push("no component reports occupancy (engine spinning while idle)".into());
        }
        lines.join("\n")
    }

    fn kernel_boundary(&mut self, now: Cycle) {
        for g in 0..self.num_gpus {
            if self.design.flushes_llc_at_boundary() {
                // Dirty victims appear only when pages migrated here after
                // their lines were cached as remote; flush them to DRAM.
                for line in self.cores[g].software_flush() {
                    self.dram_write_best_effort(g, line, now);
                }
            } else {
                self.cores[g].invalidate_l1s();
            }
        }
        if let Some(carve) = self.carve.as_mut() {
            let dirty_per_gpu = carve.on_kernel_boundary();
            for (g, lines) in dirty_per_gpu.into_iter().enumerate() {
                // Write-back RDC ablation: flush dirty lines to their homes
                // over the links before the next kernel may observe them.
                for line in lines {
                    let page = line / self.cfg.page_size;
                    if let Some(NodeId::Gpu(h)) = self.pt.home_of(page) {
                        if h != g {
                            let token = self.pending.insert(Pending::WriteArrive {
                                home: h,
                                line,
                                writer: g,
                            });
                            self.send(
                                NodeId::Gpu(g),
                                NodeId::Gpu(h),
                                token,
                                msg::WRITE_DATA_BYTES,
                                now,
                            );
                        }
                    }
                }
            }
        }
        if let Some(san) = self.san.as_deref_mut() {
            if let Some(carve) = self.carve.as_ref() {
                san.on_kernel_boundary(carve, now.0);
            }
        }
    }
}

/// A component's wake cycle from its [`NextEvent`] horizon.
fn wake_of(next: Option<Cycle>) -> u64 {
    next.map_or(u64::MAX, |c| c.0)
}

/// How the simulation loop advances time.
///
/// Both modes produce bit-identical results (the event-skipping engine
/// only omits cycles where provably nothing happens); `Step` exists for
/// verification and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Jump `now` to the minimum [`NextEvent`] horizon across components.
    #[default]
    EventSkip,
    /// Advance `now` one cycle at a time and tick every core, SM, DRAM
    /// channel and link on every cycle, reading no wake cycle: the oracle
    /// the event-skipping engine is checked against.
    Step,
}

/// Simulates `spec` under `sim` with the event-skipping engine, computing
/// any needed sharing profile internally.
///
/// # Panics
///
/// Panics on any [`SimError`] — invalid configuration, watchdog stall, or
/// cycle-cap exhaustion. Use [`try_run_with_profile_mode`] for a
/// recoverable error, an explicit engine, or a shared sharing profile.
pub fn run(spec: &WorkloadSpec, sim: &SimConfig) -> SimResult {
    try_run_with_profile_mode(spec, sim, None, EngineMode::EventSkip)
        // audit:allow(tick-path-panics) infallible entry point wraps SimError into a panic by design
        .unwrap_or_else(|e| panic!("simulation failed: {e}"))
}

/// Runs one simulation to completion, or fails fast with a structured
/// [`SimError`]: the configuration is validated before the machine is
/// built, a [`Watchdog`] converts engine livelock into
/// [`SimError::WatchdogStall`] with a component-occupancy dump, and
/// exceeding `max_cycles` reports [`SimError::ResourceExhausted`] instead
/// of a partially-filled result.
///
/// `profile`, when given, must have been collected with the same
/// workload, scaled config and GPU count (as [`profile_workload`]
/// produces); sweeping many designs over one workload can then share it.
/// `mode` picks the engine; both produce bit-identical results. Every
/// observation the config asks for — interval telemetry, the stall
/// profile, the event trace — comes back on the [`SimResult`].
pub fn try_run_with_profile_mode(
    spec: &WorkloadSpec,
    sim: &SimConfig,
    profile: Option<&SharingProfile>,
    mode: EngineMode,
) -> Result<SimResult, SimError> {
    sim.validate()?;
    let num_gpus = sim.design.num_gpus(&sim.cfg);
    let needs_profile = sim.spill_fraction > 0.0
        || matches!(
            sim.design,
            Design::NumaGpuRepl | Design::Ideal | Design::CarveHwc
        );
    let owned;
    let profile = match profile {
        Some(p) => Some(p),
        None if needs_profile => {
            let mut pcfg = sim.cfg.clone();
            pcfg.num_gpus = num_gpus;
            owned = profile_workload(spec, &pcfg, num_gpus);
            Some(&owned)
        }
        None => None,
    };
    let mut sys = System::build(spec, sim, profile);
    let mut now = 0u64;
    let budget = sim.watchdog_cycles.unwrap_or(DEFAULT_WATCHDOG_CYCLES);
    let mut watchdog = Watchdog::with_budget((budget != 0).then_some(budget));
    // Observation (telemetry, cycle profile, event trace) is one optional
    // observer: an unobserved run pays one `Option` check per hook.
    let mut obs = Observer::new(sim, num_gpus, sys.cfg.sms_per_gpu);
    if sim.cycle_profile {
        sys.enable_profiler_tracking();
    }
    if sim.sanitize == Some(true) {
        sys.enable_sanitizer();
    }
    for kernel in 0..spec.shape.kernels {
        let boundary = now;
        if kernel > 0 {
            sys.kernel_boundary(Cycle(now));
        }
        sys.launch_kernel(kernel, spec.shape.ctas);
        now += sim.kernel_launch_cycles;
        // The launch jump crosses cycles no component could act in; reset
        // the no-progress baseline so it is not counted against the budget.
        watchdog.rebase(Cycle(now), sys.progress_signature());
        if let Some(o) = obs.as_mut() {
            o.kernel_start(&sys, kernel, boundary, now);
        }
        loop {
            // Observe *before* ticking at `now`: interval boundaries and
            // skipped cycles below `now` were quiescent.
            if let Some(o) = obs.as_mut() {
                o.before_tick(now, &sys);
            }
            // Fault schedule: every event stamped at or before `now`
            // fires here, before the tick — at the exact same cycle
            // under both engines (`next_activity` folds the schedule
            // into the horizon). An unroutable outage aborts cleanly.
            sys.apply_faults(Cycle(now))?;
            // Freeze windows suppress ticking (time still advances) —
            // indistinguishable from a livelocked engine, which is what
            // the forever-freeze watchdog test hook relies on.
            let frozen = sys.is_frozen(Cycle(now));
            if !frozen {
                sys.tick(Cycle(now), mode);
                if let Some(err) = sys.sanitizer_poll(Cycle(now)) {
                    return Err(err);
                }
                if let Some(o) = obs.as_mut() {
                    o.after_tick(now, &sys);
                }
                if sys.quiescent() {
                    break;
                }
            }
            if let Err(stall) = watchdog.check(Cycle(now), || sys.progress_signature()) {
                return Err(SimError::WatchdogStall {
                    cycle: stall.cycle,
                    stalled_since: stall.stalled_since,
                    budget: stall.budget,
                    diagnostic: sys.stall_diagnostic(Cycle(now)),
                });
            }
            let prev = now;
            now = match mode {
                EngineMode::Step => now + 1,
                EngineMode::EventSkip => sys
                    .next_activity(Cycle(now))
                    .map(|c| c.0)
                    .unwrap_or(now + 1),
            };
            debug_assert!(now > prev, "time must advance");
            if now >= sim.max_cycles {
                return Err(SimError::ResourceExhausted {
                    what: format!(
                        "simulated cycles for {} on {} (kernel {} of {} still running)",
                        spec.name,
                        sim.design.label(),
                        kernel + 1,
                        spec.shape.kernels
                    ),
                    limit: sim.max_cycles,
                });
            }
        }
        if let Some(o) = obs.as_mut() {
            o.kernel_end(now);
        }
    }
    if let Some(err) = sys.sanitizer_finish(Cycle(now)) {
        return Err(err);
    }
    let (timeline, cycle_profile, trace) = match obs {
        Some(o) => o.finish(&sys, now),
        None => (None, None, None),
    };

    let mut rdc = RdcStats::default();
    let mut broadcasts = 0;
    let mut directory_invalidates = 0;
    if let Some(carve) = &sys.carve {
        broadcasts = carve.total_broadcasts();
        directory_invalidates = carve.total_directory_invalidates();
        for g in 0..num_gpus {
            let s = carve.rdc(g).stats();
            rdc.hits += s.hits;
            rdc.misses += s.misses;
            rdc.stale_misses += s.stale_misses;
            rdc.insertions += s.insertions;
            rdc.store_updates += s.store_updates;
            rdc.invalidations += s.invalidations;
            rdc.epoch_bumps += s.epoch_bumps;
            rdc.rollover_resets += s.rollover_resets;
        }
    }
    let mut instructions = 0;
    let mut l2_hits = 0;
    let mut l2_misses = 0;
    let mut l1_hits = 0;
    let mut l1_misses = 0;
    let mut replays = 0;
    let mut mshr_merges = 0;
    for core in &sys.cores {
        let s = core.stats();
        instructions += s.instructions;
        l2_hits += s.l2_hits;
        l2_misses += s.l2_misses;
        l1_hits += s.l1_hits;
        l1_misses += s.l1_misses;
        replays += s.replays;
        mshr_merges += s.mshr_merges;
    }
    let mut dram = carve_dram::DramStats::default();
    for d in &sys.drams {
        let s = d.stats();
        dram.reads += s.reads;
        dram.writes += s.writes;
        dram.row_hits += s.row_hits;
        dram.row_misses += s.row_misses;
        dram.bytes_transferred += s.bytes_transferred;
        dram.queue_rejections += s.queue_rejections;
    }
    let result = SimResult {
        workload: spec.name.to_string(),
        design: sim.design,
        cycles: now,
        instructions,
        kernels: spec.shape.kernels,
        local_serviced: sys.traffic.local,
        remote_serviced: sys.traffic.remote,
        cpu_serviced: sys.traffic.cpu,
        rdc_hits_serviced: sys.traffic.rdc_hits,
        rdc,
        link_bytes: sys.net.gpu_bytes_sent(),
        cpu_link_bytes: sys.net.cpu_bytes_sent(),
        migrations: sys.traffic.migrations,
        broadcasts,
        directory_invalidates,
        dram,
        l2_hits,
        l2_misses,
        l1_hits,
        l1_misses,
        replays,
        mshr_merges,
        read_latency: std::mem::take(&mut sys.read_latency),
        completed: true,
        timeline,
        profile: cycle_profile,
        trace,
        recovery: sys.recovery_snapshot(Cycle(now)),
    };
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use carve_trace::workloads;

    fn quick_cfg() -> ScaledConfig {
        // A narrower machine so unit tests run fast.
        ScaledConfig {
            sms_per_gpu: 2,
            warps_per_sm: 8,
            ..ScaledConfig::default()
        }
    }

    fn quick_spec(name: &str) -> WorkloadSpec {
        let mut spec = workloads::by_name(name).unwrap();
        spec.shape.kernels = spec.shape.kernels.min(3);
        spec.shape.ctas = 16;
        spec.shape.instrs_per_warp = 60;
        spec
    }

    fn quick_run(name: &str, design: Design) -> SimResult {
        let spec = quick_spec(name);
        let sim = SimConfig::with_cfg(design, quick_cfg());
        run(&spec, &sim)
    }

    fn try_run(spec: &WorkloadSpec, sim: &SimConfig) -> Result<SimResult, SimError> {
        try_run_with_profile_mode(spec, sim, None, EngineMode::EventSkip)
    }

    #[test]
    fn telemetry_sampling_is_invisible_to_aggregates() {
        let spec = quick_spec("Lulesh");
        let mut plain = SimConfig::with_cfg(Design::CarveHwc, quick_cfg());
        plain.telemetry_interval = Some(0); // force off regardless of env
        let base = try_run_with_profile_mode(&spec, &plain, None, EngineMode::EventSkip)
            .expect("baseline run");
        assert!(base.timeline.is_none());
        let mut sampled_cfg = plain;
        sampled_cfg.telemetry_interval = Some(500);
        let sampled = try_run_with_profile_mode(&spec, &sampled_cfg, None, EngineMode::EventSkip)
            .expect("sampled run");
        // Bit-identical aggregates: the sampler is read-only.
        assert_eq!(base.encode_journal_line(), sampled.encode_journal_line());
        let tl = sampled.timeline.expect("sampling was enabled");
        assert_eq!(tl.interval, 500);
        assert!(!tl.records.is_empty());
        // The acceptance contract: per-interval instruction counts sum to
        // the run total exactly (final partial interval included).
        assert_eq!(tl.total_instructions(), sampled.instructions);
        // Records are well-formed: ordered boundaries, all GPUs present.
        let num_gpus = sampled_cfg.design.num_gpus(&sampled_cfg.cfg);
        assert_eq!(tl.records.len() % num_gpus, 0);
        for r in &tl.records {
            assert!(r.start <= r.end);
            assert!((r.gpu as usize) < num_gpus);
        }
    }

    #[test]
    fn hierarchical_16_gpu_run_passes_per_hop_conservation() {
        // Satellite acceptance: a routed multi-hop topology at scale runs
        // clean under the sanitizer's per-hop conservation invariant, and
        // both engines agree bit-for-bit on the routed fabric.
        let spec = quick_spec("Lulesh");
        let mut cfg = quick_cfg();
        cfg.num_gpus = 16;
        cfg.topology = sim_core::TopologySpec::Hierarchical { pod_size: 4 };
        let mut sim = SimConfig::with_cfg(Design::CarveHwc, cfg);
        sim.sanitize = Some(true);
        sim.telemetry_interval = Some(0);
        let skip = try_run_with_profile_mode(&spec, &sim, None, EngineMode::EventSkip)
            .expect("sanitized hierarchical 16-GPU run must pass per-hop conservation");
        assert!(skip.completed);
        let step = try_run_with_profile_mode(&spec, &sim, None, EngineMode::Step)
            .expect("step engine agrees");
        assert_eq!(skip.encode_journal_line(), step.encode_journal_line());
    }

    #[test]
    fn routed_topologies_change_timing_but_not_work() {
        // Switching the fabric reshapes latency/bandwidth, never the
        // amount of work: instructions and remote services must match the
        // all-to-all run; cycles may differ.
        let spec = quick_spec("CoMD");
        let mut base_cfg = quick_cfg();
        base_cfg.num_gpus = 8;
        let base = run(
            &spec,
            &SimConfig::with_cfg(Design::CarveHwc, base_cfg.clone()),
        );
        for topo in [
            sim_core::TopologySpec::Switch,
            sim_core::TopologySpec::Ring,
            sim_core::TopologySpec::Hierarchical { pod_size: 4 },
        ] {
            let mut cfg = base_cfg.clone();
            cfg.topology = topo;
            let r = run(&spec, &SimConfig::with_cfg(Design::CarveHwc, cfg));
            assert_eq!(r.instructions, base.instructions, "{topo:?}");
            assert!(r.completed, "{topo:?}");
        }
    }

    #[test]
    fn sanitizer_is_invisible_and_clean_on_all_workloads() {
        // Tentpole acceptance: every workload runs clean under the shadow
        // sanitizer, and a sanitized run's aggregates are bit-identical
        // to a sanitizer-off run's (the checker is read-only).
        for mut spec in workloads::all() {
            spec.shape.kernels = spec.shape.kernels.min(2);
            spec.shape.ctas = 16;
            spec.shape.instrs_per_warp = 40;
            let mut off = SimConfig::with_cfg(Design::CarveHwc, quick_cfg());
            off.telemetry_interval = Some(0);
            off.sanitize = Some(false);
            let mut on = off.clone();
            on.sanitize = Some(true);
            let base = try_run_with_profile_mode(&spec, &off, None, EngineMode::EventSkip)
                .unwrap_or_else(|e| panic!("{}: baseline failed: {e}", spec.name));
            let checked = try_run_with_profile_mode(&spec, &on, None, EngineMode::EventSkip)
                .unwrap_or_else(|e| panic!("{}: sanitizer flagged: {e}", spec.name));
            assert_eq!(
                base.encode_journal_line(),
                checked.encode_journal_line(),
                "{}: sanitizer perturbed the aggregates",
                spec.name
            );
        }
    }

    #[test]
    fn sanitizer_is_clean_across_designs_and_engines() {
        let spec = quick_spec("Lulesh");
        for design in Design::all() {
            let mut sim = SimConfig::with_cfg(design, quick_cfg());
            sim.telemetry_interval = Some(0);
            sim.sanitize = Some(true);
            for mode in [EngineMode::EventSkip, EngineMode::Step] {
                try_run_with_profile_mode(&spec, &sim, None, mode)
                    .unwrap_or_else(|e| panic!("{} under {mode:?}: {e}", design.label()));
            }
        }
    }

    #[test]
    fn sanitizer_is_clean_on_hwc_ablation_variants() {
        // The checker understands every coherence configuration, not just
        // the paper's defaults: directory mode, raw broadcast, write-back
        // RDC, the hit predictor and footnote-2 system-memory caching.
        let spec = quick_spec("XSBench");
        type Variant = (&'static str, fn(&mut SimConfig));
        let variants: [Variant; 5] = [
            ("directory", |s| s.directory_coherence = true),
            ("broadcast-always", |s| s.gpu_vi_broadcast_always = true),
            ("write-back", |s| {
                s.rdc_write_policy = carve::WritePolicy::WriteBack
            }),
            ("predictor", |s| s.hit_predictor = true),
            ("sysmem-rdc", |s| {
                s.rdc_caches_sysmem = true;
                s.spill_fraction = 0.2;
            }),
        ];
        for (name, tweak) in variants {
            let mut sim = SimConfig::with_cfg(Design::CarveHwc, quick_cfg());
            sim.telemetry_interval = Some(0);
            sim.sanitize = Some(true);
            tweak(&mut sim);
            try_run_with_profile_mode(&spec, &sim, None, EngineMode::EventSkip)
                .unwrap_or_else(|e| panic!("variant {name}: {e}"));
        }
    }

    #[test]
    fn timeline_is_identical_across_engine_modes() {
        let spec = quick_spec("XSBench");
        let mut sim = SimConfig::with_cfg(Design::NumaGpu, quick_cfg());
        sim.telemetry_interval = Some(700);
        let skip = try_run_with_profile_mode(&spec, &sim, None, EngineMode::EventSkip).unwrap();
        let step = try_run_with_profile_mode(&spec, &sim, None, EngineMode::Step).unwrap();
        assert_eq!(skip.encode_journal_line(), step.encode_journal_line());
        let csv_skip = skip.timeline.expect("sampled").to_csv_string();
        let csv_step = step.timeline.expect("sampled").to_csv_string();
        assert_eq!(csv_skip, csv_step, "event skipping changed the timeline");
    }

    #[test]
    fn profiler_accounts_every_sm_cycle_on_all_workloads() {
        // Tentpole acceptance: on every workload the exclusive stall
        // taxonomy sums exactly to cycles × SMs per GPU, and a profiled
        // run's journal line is byte-identical to an unprofiled run's
        // (the profiler is read-only).
        for mut spec in workloads::all() {
            spec.shape.kernels = spec.shape.kernels.min(2);
            spec.shape.ctas = 16;
            spec.shape.instrs_per_warp = 40;
            let mut off = SimConfig::with_cfg(Design::CarveHwc, quick_cfg());
            off.telemetry_interval = Some(0);
            let mut on = off.clone();
            on.cycle_profile = true;
            let base = try_run_with_profile_mode(&spec, &off, None, EngineMode::EventSkip)
                .unwrap_or_else(|e| panic!("{}: baseline failed: {e}", spec.name));
            let profiled = try_run_with_profile_mode(&spec, &on, None, EngineMode::EventSkip)
                .unwrap_or_else(|e| panic!("{}: profiled run failed: {e}", spec.name));
            assert_eq!(
                base.encode_journal_line(),
                profiled.encode_journal_line(),
                "{}: profiling perturbed the aggregates",
                spec.name
            );
            assert!(base.profile.is_none());
            let report = profiled.profile.expect("profiled run carries a report");
            let want = report.cycles * report.sms_per_gpu as u64;
            for (g, cats) in report.gpus.iter().enumerate() {
                assert_eq!(
                    cats.iter().sum::<u64>(),
                    want,
                    "{}: GPU {g} categories must sum to cycles × SMs",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn profile_is_identical_across_engine_modes_and_designs() {
        // The event-skip engine charges skipped (provably quiescent)
        // spans with the class captured after the previous tick; stepping
        // through those cycles must produce the same report, bit for bit,
        // and the journal must stay byte-identical with profiling on.
        let spec = quick_spec("XSBench");
        for design in Design::all() {
            let mut sim = SimConfig::with_cfg(design, quick_cfg());
            sim.telemetry_interval = Some(700);
            sim.cycle_profile = true;
            let skip = try_run_with_profile_mode(&spec, &sim, None, EngineMode::EventSkip).unwrap();
            let step = try_run_with_profile_mode(&spec, &sim, None, EngineMode::Step).unwrap();
            assert_eq!(skip.encode_journal_line(), step.encode_journal_line());
            let a = skip.profile.expect("profiled");
            let b = step.profile.expect("profiled");
            assert_eq!(
                a.encode_compact(),
                b.encode_compact(),
                "{}: engine changed the stall totals",
                design.label()
            );
            let rows_a = skip.timeline.expect("sampled").to_csv_string();
            let rows_b = step.timeline.expect("sampled").to_csv_string();
            assert_eq!(
                rows_a,
                rows_b,
                "{}: engine changed the interval rows",
                design.label()
            );
        }
    }

    #[test]
    fn profile_interval_rows_partition_the_run() {
        let spec = quick_spec("Lulesh");
        let mut sim = SimConfig::with_cfg(Design::CarveSwc, quick_cfg());
        sim.telemetry_interval = Some(300);
        sim.cycle_profile = true;
        let r = try_run_with_profile_mode(&spec, &sim, None, EngineMode::EventSkip).unwrap();
        let report = r.profile.expect("profiled");
        let rows = r.timeline.expect("sampled").records;
        let sms = report.sms_per_gpu as u64;
        assert!(!rows.is_empty());
        // Rows tile [0, cycles) per GPU with no gaps or overlaps, and each
        // row's categories sum to its width × SMs. Only the final row may
        // be empty (the last tick landed on a boundary); its stalls are
        // zero.
        let num_gpus = report.gpus.len();
        let mut expect_start = vec![0u64; num_gpus];
        let mut sum = vec![[0u64; sim_core::NUM_STALL_CATS]; num_gpus];
        for row in &rows {
            let g = row.gpu as usize;
            assert_eq!(row.start, expect_start[g], "gap or overlap at gpu {g}");
            assert!(row.end > row.start || row.end == report.cycles);
            let stalls = row.stalls.expect("profiled rows carry stalls");
            assert_eq!(stalls.iter().sum::<u64>(), (row.end - row.start) * sms);
            for (acc, v) in sum[g].iter_mut().zip(stalls) {
                *acc += v;
            }
            expect_start[g] = row.end;
        }
        for (g, e) in expect_start.iter().enumerate() {
            assert_eq!(*e, report.cycles, "gpu {g} rows must cover the whole run");
        }
        // And the rows sum back to the per-GPU totals.
        assert_eq!(sum, report.gpus, "interval rows vs totals");
    }

    #[test]
    fn profile_survives_faults_and_multi_kernel_gaps() {
        // Freeze windows and kernel-launch jumps are charged with the
        // quiescent span class; the invariant must hold through both.
        let spec = quick_spec("MiniAMR");
        let mut sim = SimConfig::with_cfg(Design::CarveHwc, quick_cfg());
        sim.telemetry_interval = Some(0);
        sim.cycle_profile = true;
        sim.fault_plan = Some(
            sim_core::FaultPlan::parse("degrade@300:e0*25,freeze@700+200,restore@1500:e0")
                .expect("valid"),
        );
        let r = try_run_with_profile_mode(&spec, &sim, None, EngineMode::EventSkip).unwrap();
        let report = r.profile.expect("profiled");
        let want = report.cycles * report.sms_per_gpu as u64;
        for (g, cats) in report.gpus.iter().enumerate() {
            assert_eq!(cats.iter().sum::<u64>(), want, "gpu {g}");
        }
    }

    #[test]
    fn event_trace_has_balanced_spans_without_changing_results() {
        let spec = quick_spec("Lulesh");
        let mut sim = SimConfig::with_cfg(Design::CarveSwc, quick_cfg());
        sim.telemetry_interval = Some(0);
        let untraced = try_run_with_profile_mode(&spec, &sim, None, EngineMode::EventSkip).unwrap();
        assert!(untraced.trace.is_none());
        sim.event_trace = true;
        let traced = try_run_with_profile_mode(&spec, &sim, None, EngineMode::EventSkip).unwrap();
        assert_eq!(untraced.encode_journal_line(), traced.encode_journal_line());
        let events = traced.trace.expect("tracing was enabled");
        assert!(!events.is_empty());
        let begins = events
            .iter()
            .filter(|e| e.phase == sim_core::TracePhase::Begin)
            .count();
        let ends = events
            .iter()
            .filter(|e| e.phase == sim_core::TracePhase::End)
            .count();
        assert_eq!(begins, ends, "unbalanced spans break Chrome tracing");
        // Every kernel opens one span per GPU.
        let num_gpus = sim.design.num_gpus(&sim.cfg);
        assert!(begins >= spec.shape.kernels * num_gpus);
        // SWC with multiple kernels must log epoch invalidations.
        assert!(
            spec.shape.kernels < 2 || events.iter().any(|e| e.name == "epoch invalidation"),
            "software coherence must trace epoch invalidations"
        );
        // Timestamps are monotone non-decreasing in record order.
        assert!(events.windows(2).all(|w| w[0].cycle <= w[1].cycle));
    }

    #[test]
    fn numa_gpu_completes_and_counts_instructions() {
        let spec = quick_spec("Lulesh");
        let r = quick_run("Lulesh", Design::NumaGpu);
        assert!(r.completed, "run hit the cycle cap");
        assert_eq!(r.instructions, spec.shape.total_instrs());
        assert!(r.cycles > 0);
        assert!(r.remote_serviced > 0, "stencil must produce remote traffic");
    }

    #[test]
    fn single_gpu_has_no_remote_traffic() {
        let r = quick_run("Lulesh", Design::SingleGpu);
        assert!(r.completed);
        assert_eq!(r.remote_serviced, 0);
        assert_eq!(r.link_bytes, 0);
    }

    #[test]
    fn ideal_localizes_shared_traffic() {
        let base = quick_run("Lulesh", Design::NumaGpu);
        let ideal = quick_run("Lulesh", Design::Ideal);
        assert!(ideal.completed);
        assert!(
            ideal.remote_fraction() < base.remote_fraction(),
            "ideal {:.3} !< base {:.3}",
            ideal.remote_fraction(),
            base.remote_fraction()
        );
        assert!(ideal.cycles <= base.cycles);
    }

    #[test]
    fn carve_reduces_remote_fraction() {
        let base = quick_run("Lulesh", Design::NumaGpu);
        let carve = quick_run("Lulesh", Design::CarveNc);
        assert!(carve.completed);
        assert!(carve.rdc.insertions > 0, "RDC never filled");
        assert!(carve.rdc_hits_serviced > 0, "RDC never hit");
        assert!(
            carve.remote_fraction() < base.remote_fraction(),
            "carve {:.3} !< base {:.3}",
            carve.remote_fraction(),
            base.remote_fraction()
        );
    }

    #[test]
    fn swc_flushes_hurt_rdc_hits() {
        let nc = quick_run("Lulesh", Design::CarveNc);
        let swc = quick_run("Lulesh", Design::CarveSwc);
        assert!(swc.completed);
        assert!(swc.rdc.epoch_bumps > 0);
        assert!(
            swc.rdc.hits <= nc.rdc.hits,
            "swc hits {} > nc hits {}",
            swc.rdc.hits,
            nc.rdc.hits
        );
    }

    #[test]
    fn hwc_generates_broadcasts_on_rw_sharing() {
        let r = quick_run("Lulesh", Design::CarveHwc);
        assert!(r.completed);
        assert!(r.broadcasts > 0, "stencil RW sharing must broadcast");
    }

    #[test]
    fn migration_design_migrates() {
        let r = quick_run("Lulesh", Design::NumaGpuMigrate);
        assert!(r.completed);
        assert!(r.migrations > 0);
    }

    #[test]
    fn spill_produces_cpu_traffic() {
        let spec = quick_spec("stream-triad");
        let mut sim = SimConfig::with_cfg(Design::NumaGpu, quick_cfg());
        sim.spill_fraction = 0.2;
        let r = run(&spec, &sim);
        assert!(r.completed);
        assert!(r.cpu_serviced > 0, "spilled pages must hit CPU memory");
        assert!(r.cpu_link_bytes > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = quick_run("SSSP", Design::CarveHwc);
        let b = quick_run("SSSP", Design::CarveHwc);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.remote_serviced, b.remote_serviced);
        assert_eq!(a.rdc.hits, b.rdc.hits);
    }

    #[test]
    fn rdc_probe_addresses_stay_in_carve_out() {
        let spec = quick_spec("Lulesh");
        let sim = SimConfig::with_cfg(Design::CarveHwc, quick_cfg());
        let sys = System::build(&spec, &sim, None);
        for gpu in 0..sys.num_gpus {
            for line in [0u64, 0x80, 0xFFF80, 1 << 30] {
                let addr = sys.rdc_probe_addr(gpu, line);
                assert!(addr >= RDC_BASE);
                assert!(addr < RDC_BASE + sim.rdc_capacity());
            }
        }
    }

    #[test]
    fn tokens_are_unique_and_allocation_ordered() {
        // The delayed-response heap breaks due-cycle ties on the token, so
        // tokens must be unique and strictly increasing in allocation
        // order — for tracked and untracked mints alike.
        let spec = quick_spec("Lulesh");
        let sim = SimConfig::with_cfg(Design::NumaGpu, quick_cfg());
        let mut sys = System::build(&spec, &sim, None);
        let mut last = 0u64;
        for i in 0..1000 {
            let token = if i % 3 == 0 {
                sys.pending.untracked_token()
            } else {
                sys.pending
                    .insert(Pending::Invalidate { target: 0, line: 0 })
            };
            assert!(token > last, "tokens must be allocation-ordered");
            last = token;
        }
    }

    #[test]
    fn skip_engine_matches_step_engine_on_a_quick_run() {
        let spec = quick_spec("Lulesh");
        let sim = SimConfig::with_cfg(Design::CarveHwc, quick_cfg());
        let skip = try_run_with_profile_mode(&spec, &sim, None, EngineMode::EventSkip).unwrap();
        let step = try_run_with_profile_mode(&spec, &sim, None, EngineMode::Step).unwrap();
        assert_eq!(skip.cycles, step.cycles);
        assert_eq!(skip.instructions, step.instructions);
        assert_eq!(skip.remote_serviced, step.remote_serviced);
        assert_eq!(skip.rdc.hits, step.rdc.hits);
        assert_eq!(skip.read_latency.count(), step.read_latency.count());
    }

    #[test]
    fn fabric_reports_congestion_after_saturation() {
        let mut net = LinkNetwork::new(2, 1.0, 0, 1.0, 0).expect("valid config");
        let fabric_ok = NetFabric { net: &net };
        assert!(fabric_ok.can_send(NodeId::Gpu(0), NodeId::Gpu(1), Cycle(0)));
        for i in 0..100 {
            net.send(NodeId::Gpu(0), NodeId::Gpu(1), i, 160, Cycle(0));
        }
        let fabric = NetFabric { net: &net };
        assert!(!fabric.can_send(NodeId::Gpu(0), NodeId::Gpu(1), Cycle(0)));
        // The reverse direction is unaffected.
        assert!(fabric.can_send(NodeId::Gpu(1), NodeId::Gpu(0), Cycle(0)));
    }

    #[test]
    fn read_latency_histogram_is_populated() {
        let r = quick_run("Lulesh", Design::NumaGpu);
        assert!(r.read_latency.count() > 0);
        // Local DRAM floor: fixed latency + timing.
        assert!(r.read_latency.min().unwrap() >= 200);
    }

    #[test]
    fn injected_stall_trips_watchdog_with_component_diagnostic() {
        let spec = quick_spec("Lulesh");
        let mut sim = SimConfig::with_cfg(Design::NumaGpu, quick_cfg());
        sim.watchdog_cycles = Some(20_000);
        sim.stall_inject_at = Some(2_000); // freeze mid-kernel
        let err = try_run(&spec, &sim).expect_err("frozen engine must trip the watchdog");
        match err {
            SimError::WatchdogStall {
                cycle,
                stalled_since,
                budget,
                diagnostic,
            } => {
                assert_eq!(budget, 20_000);
                assert!(stalled_since <= cycle);
                // Detection within two budget windows of the freeze.
                assert!(
                    cycle <= 2_000 + 2 * 20_000,
                    "detected at {cycle}, too far past the freeze"
                );
                // The dump must name concrete stuck components: mid-kernel
                // at cycle 2000 some SM holds warps and reads are in
                // flight.
                assert!(
                    diagnostic.contains("sm") || diagnostic.contains("in-flight"),
                    "diagnostic lacks component detail:\n{diagnostic}"
                );
            }
            other => panic!("expected WatchdogStall, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_does_not_false_positive_on_a_tight_budget() {
        // A budget far below the default but far above any modeled blocking
        // interval: a healthy run must never trip it.
        let spec = quick_spec("Lulesh");
        let mut sim = SimConfig::with_cfg(Design::CarveHwc, quick_cfg());
        sim.watchdog_cycles = Some(50_000);
        let r = try_run(&spec, &sim).expect("healthy run must not trip the watchdog");
        assert_eq!(r.instructions, spec.shape.total_instrs());
    }

    #[test]
    fn watchdog_can_be_disabled_per_run() {
        let spec = quick_spec("stream-triad");
        let mut sim = SimConfig::with_cfg(Design::SingleGpu, quick_cfg());
        sim.watchdog_cycles = Some(0); // disabled: stall rides to the cap
        sim.stall_inject_at = Some(1_000);
        sim.max_cycles = 40_000;
        let err = try_run(&spec, &sim).expect_err("frozen run must hit the cap");
        assert!(
            matches!(err, SimError::ResourceExhausted { limit: 40_000, .. }),
            "expected ResourceExhausted, got {err:?}"
        );
    }

    #[test]
    fn invalid_config_is_rejected_before_the_machine_is_built() {
        let spec = quick_spec("Lulesh");
        let mut sim = SimConfig::with_cfg(Design::NumaGpu, quick_cfg());
        sim.cfg.sms_per_gpu = 0;
        let err = try_run(&spec, &sim).expect_err("zero SMs must be rejected");
        assert!(matches!(err, SimError::ConfigInvalid { .. }));
    }

    #[test]
    fn faulted_runs_are_byte_identical_across_engines() {
        // Tentpole acceptance: with a graceful fault plan armed, the same
        // seed/config produces byte-identical journals under event-skip
        // and stepping — fault events fire at exact cycles in both.
        let spec = quick_spec("Lulesh");
        let mut sim = SimConfig::with_cfg(Design::CarveHwc, quick_cfg());
        sim.telemetry_interval = Some(0);
        sim.fault_plan = Some(
            sim_core::FaultPlan::parse(
                "degrade@300:e0*25,dramfault@500:g1n3,freeze@700+200,outage@900:e1,\
                 restore@1200:e0",
            )
            .expect("valid plan"),
        );
        let skip = try_run_with_profile_mode(&spec, &sim, None, EngineMode::EventSkip)
            .expect("graceful plan must complete");
        let step = try_run_with_profile_mode(&spec, &sim, None, EngineMode::Step)
            .expect("step engine agrees");
        assert_eq!(skip.encode_journal_line(), step.encode_journal_line());
        let (rs, rt) = (skip.recovery.expect("armed"), step.recovery.expect("armed"));
        assert_eq!(rs, rt, "recovery accounting diverged between engines");
        assert_eq!(rs.faults_applied, 5);
        assert_eq!(rs.outages, 1);
        assert!(rs.reroutes > 0, "outage must rewrite routes");
        assert!(rs.dram_retries > 0, "transients must force retransmission");
        assert_eq!(rs.frozen_cycles, 200);
        assert!(rs.degraded_cycles > 0);
    }

    #[test]
    fn outage_on_routable_topology_degrades_gracefully() {
        // Kill g0->g1 on the 4-GPU all-to-all: traffic re-routes through
        // a peer and the run completes with the same retired work.
        let spec = quick_spec("Lulesh");
        let mut sim = SimConfig::with_cfg(Design::NumaGpu, quick_cfg());
        sim.telemetry_interval = Some(0);
        let base = try_run(&spec, &sim).expect("fault-free baseline");
        assert!(base.recovery.is_none(), "no plan armed");
        sim.fault_plan = Some(sim_core::FaultPlan::parse("outage@800:e0").expect("valid"));
        let r = try_run(&spec, &sim).expect("routable outage must complete");
        assert!(r.completed);
        assert_eq!(r.instructions, base.instructions, "work must be preserved");
        let rec = r.recovery.expect("plan armed");
        assert_eq!(rec.outages, 1);
        assert!(rec.reroutes > 0);
        assert!(rec.degraded_cycles > 0, "dead link counts as degraded");
        assert!(
            r.cycles >= base.cycles,
            "losing a link cannot speed things up"
        );
    }

    #[test]
    fn partitioning_outage_fails_cleanly_not_hanging() {
        // On a 2-GPU all-to-all the CPU never forwards, so killing
        // g0->g1 severs the pair: clean FabricPartitioned, never a hang.
        let spec = quick_spec("Lulesh");
        let mut cfg = quick_cfg();
        cfg.num_gpus = 2;
        let mut sim = SimConfig::with_cfg(Design::NumaGpu, cfg);
        sim.fault_plan = Some(sim_core::FaultPlan::parse("outage@600:e0").expect("valid"));
        let err = try_run(&spec, &sim).expect_err("partition must abort");
        match err {
            SimError::FabricPartitioned { from, to, cycle } => {
                assert_eq!((from.as_str(), to.as_str()), ("gpu0", "gpu1"));
                assert_eq!(cycle, 600);
            }
            other => panic!("expected FabricPartitioned, got {other}"),
        }
    }

    #[test]
    fn throttled_link_does_not_false_positive_the_watchdog() {
        // Satellite acceptance: a declared degradation window slows the
        // run but never reads as a stall — progress continues throughout.
        let spec = quick_spec("Lulesh");
        let mut sim = SimConfig::with_cfg(Design::NumaGpu, quick_cfg());
        sim.telemetry_interval = Some(0);
        sim.watchdog_cycles = Some(50_000);
        let base = try_run(&spec, &sim).expect("baseline");
        sim.fault_plan = Some(sim_core::FaultPlan::parse("degrade@200:e0*5").expect("valid"));
        let r = try_run(&spec, &sim).expect("throttled run must not trip the watchdog");
        assert_eq!(r.instructions, base.instructions);
        let rec = r.recovery.expect("plan armed");
        assert!(rec.degraded_cycles > 0, "window stayed open to run end");
        assert_eq!(rec.faults_applied, 1);
    }

    #[test]
    fn stall_diagnostic_reports_active_fault_state() {
        // Satellite acceptance: a freeze injected via the fault plan
        // trips the watchdog, and the diagnostic names the fault state.
        let spec = quick_spec("Lulesh");
        let mut sim = SimConfig::with_cfg(Design::NumaGpu, quick_cfg());
        sim.watchdog_cycles = Some(20_000);
        sim.fault_plan = Some(sim_core::FaultPlan::parse("freeze@2000").expect("valid"));
        let err = try_run(&spec, &sim).expect_err("forever freeze must trip the watchdog");
        match err {
            SimError::WatchdogStall { diagnostic, .. } => {
                assert!(
                    diagnostic.contains("fault state: 1 of 1 events applied"),
                    "diagnostic lacks fault state:\n{diagnostic}"
                );
                assert!(
                    diagnostic.contains("frozen: forever"),
                    "diagnostic lacks freeze state:\n{diagnostic}"
                );
            }
            other => panic!("expected WatchdogStall, got {other:?}"),
        }
    }

    #[test]
    fn bounded_freeze_delays_but_completes() {
        let spec = quick_spec("stream-triad");
        let mut sim = SimConfig::with_cfg(Design::NumaGpu, quick_cfg());
        sim.telemetry_interval = Some(0);
        sim.watchdog_cycles = Some(50_000);
        let base = try_run(&spec, &sim).expect("baseline");
        sim.fault_plan = Some(sim_core::FaultPlan::parse("freeze@1000+3000").expect("valid"));
        let r = try_run(&spec, &sim).expect("bounded freeze must complete");
        assert_eq!(r.instructions, base.instructions);
        assert_eq!(r.recovery.expect("armed").frozen_cycles, 3_000);
        // The freeze overlaps with already-scheduled memory latency
        // (in-flight completions deliver at unfreeze), so the wall-clock
        // stretch is positive but may be less than the window itself.
        assert!(
            r.cycles > base.cycles,
            "freeze did not stretch the run: {} -> {}",
            base.cycles,
            r.cycles
        );
    }

    #[test]
    fn multi_gpu_beats_single_gpu() {
        let single = quick_run("stream-triad", Design::SingleGpu);
        let multi = quick_run("stream-triad", Design::NumaGpu);
        assert!(
            multi.speedup_over(&single) > 1.5,
            "4 GPUs only {:.2}x faster on a private streaming workload",
            multi.speedup_over(&single)
        );
    }
}
