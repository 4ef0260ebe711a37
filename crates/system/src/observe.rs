//! The run observer (DESIGN.md §9, §14): interval telemetry, cycle
//! accounting and the event trace behind one set of loop hooks and one
//! interval clock.
//!
//! The simulation loop holds an `Option<Observer>` — `None` unless the
//! configuration asks for a timeline, a stall profile or an event trace —
//! and calls [`Observer::kernel_start`], [`Observer::before_tick`],
//! [`Observer::after_tick`], [`Observer::kernel_end`] and
//! [`Observer::finish`]. Every hook is read-only over the [`System`], so
//! an observed run's journal line is bit-identical to an unobserved one
//! under both engines.
//!
//! Correct under event skipping: [`Observer::before_tick`] runs before the
//! tick at `now`, and every cycle between the previous tick and `now` was
//! provably quiescent but for parked L2 banks' skipped probes. So the
//! cumulative counters at each crossed interval boundary equal the
//! counters observed now with those probes credited up to the boundary
//! ([`carve_gpu::GpuCore::stats_before`]), and every skipped (or frozen)
//! cycle carries the stall class captured after the previous tick.

use carve::CoherencePolicy;
use carve_dram::DramStats;
use carve_gpu::{CoreStats, GpuCore};
use sim_core::profile::{ProfileReport, StallCat, NUM_STALL_CATS};
use sim_core::telemetry::{IntervalRecord, Timeline, TraceEvent};
use sim_core::Cycle;

use crate::design::SimConfig;
use crate::sim::{Pending, RemoteCause, System};

/// Everything a run observes, each part present only when asked for.
pub(crate) struct Observer {
    /// Interval telemetry and its clock (`None`: no timeline).
    sampler: Option<Sampler>,
    /// Cycle accounting (`None`: no stall profile).
    stalls: Option<StallAccounts>,
    /// Event trace (`None`: no event is ever built).
    trace: Option<Trace>,
}

impl Observer {
    /// The observer `sim` asks for, or `None` when it asks for nothing.
    /// A telemetry interval of `Some(0)` leaves sampling off.
    pub(crate) fn new(sim: &SimConfig, num_gpus: usize, sms_per_gpu: usize) -> Option<Observer> {
        let interval = sim.telemetry_interval.filter(|&n| n != 0);
        if interval.is_none() && !sim.cycle_profile && !sim.event_trace {
            return None;
        }
        Some(Observer {
            sampler: interval.map(|i| Sampler::new(i, num_gpus)),
            stalls: sim
                .cycle_profile
                .then(|| StallAccounts::new(num_gpus, sms_per_gpu)),
            trace: sim.event_trace.then(|| Trace {
                drained: vec![false; num_gpus],
                ..Trace::default()
            }),
        })
    }

    /// Kernel `kernel` was launched: its launch boundary was at cycle
    /// `boundary` and its first tick is at `start`.
    pub(crate) fn kernel_start(&mut self, sys: &System, kernel: usize, boundary: u64, start: u64) {
        let Some(t) = &mut self.trace else { return };
        if kernel > 0 {
            t.events.push(
                TraceEvent::instant("kernel boundary", TraceEvent::SYSTEM_TRACK, boundary)
                    .arg("kernel", kernel as u64),
            );
            if sys
                .carve
                .as_ref()
                .is_some_and(|c| c.policy() == CoherencePolicy::Software)
            {
                t.events.push(TraceEvent::instant(
                    "epoch invalidation",
                    TraceEvent::SYSTEM_TRACK,
                    boundary,
                ));
            }
        }
        t.kernel = kernel;
        t.drained.fill(false);
        for g in 0..t.drained.len() {
            t.events.push(TraceEvent::begin(
                format!("kernel {kernel}"),
                g as u32,
                start,
            ));
        }
    }

    /// Samples every interval boundary at or below `now` and charges the
    /// cycles skipped since the previous tick. Runs before the tick at
    /// `now`.
    pub(crate) fn before_tick(&mut self, now: u64, sys: &System) {
        if let Some(s) = &mut self.sampler {
            while s.next_at <= now {
                let end = s.next_at;
                if let Some(st) = &mut self.stalls {
                    st.charge_to(end);
                }
                s.emit(sys, end, self.stalls.as_ref());
                s.next_at += s.interval;
            }
        }
        if let Some(st) = &mut self.stalls {
            st.charge_to(now);
        }
    }

    /// Charges the cycle just ticked at `now` and records the trace
    /// events it produced.
    pub(crate) fn after_tick(&mut self, now: u64, sys: &System) {
        if let Some(st) = &mut self.stalls {
            st.on_tick(now, sys);
        }
        if let Some(t) = &mut self.trace {
            t.after_tick(now, sys);
        }
    }

    /// The running kernel fully drained at `now`: closes its spans,
    /// `drain` for GPUs that finished their SM work earlier, `kernel` for
    /// any that ran to the end.
    pub(crate) fn kernel_end(&mut self, now: u64) {
        let Some(t) = &mut self.trace else { return };
        let kernel = t.kernel;
        for (g, drained) in t.drained.iter().enumerate() {
            let span = if *drained { "drain" } else { "kernel" };
            t.events
                .push(TraceEvent::end(format!("{span} {kernel}"), g as u32, now));
        }
    }

    /// Closes the run at `end_cycle` (its `SimResult::cycles`) and returns
    /// the timeline, the stall profile and the event trace, each `Some`
    /// when it was asked for.
    pub(crate) fn finish(
        self,
        sys: &System,
        end_cycle: u64,
    ) -> (
        Option<Timeline>,
        Option<ProfileReport>,
        Option<Vec<TraceEvent>>,
    ) {
        let mut stalls = self.stalls;
        if let Some(st) = &mut stalls {
            st.retract_final_tick(end_cycle);
        }
        let timeline = self
            .sampler
            .map(|s| s.finish(sys, end_cycle, stalls.as_ref()));
        let profile = stalls.map(|st| st.report(sys, end_cycle));
        (timeline, profile, self.trace.map(|t| t.events))
    }
}

/// Per-GPU cumulative counters captured at the previous sample boundary;
/// interval records are the difference between two of these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct GpuCum {
    core: CoreStats,
    dram: DramStats,
    link_bytes: u64,
    rdc_hits: u64,
    rdc_misses: u64,
    rdc_insertions: u64,
    rdc_invalidations: u64,
    /// SM-cycles charged per stall category (zero when unprofiled).
    stalls: [u64; NUM_STALL_CATS],
}

impl GpuCum {
    /// GPU `g`'s counters as stepping reads them just before the tick at
    /// `end`, with the stall totals charged below `end`.
    fn of(sys: &System, g: usize, end: u64, stalls: Option<&StallAccounts>) -> GpuCum {
        let (rdc_hits, rdc_misses, rdc_insertions, rdc_invalidations) = match &sys.carve {
            Some(c) => {
                let s = c.rdc(g).stats();
                (
                    s.hits,
                    s.misses + s.stale_misses,
                    s.insertions,
                    s.invalidations,
                )
            }
            None => (0, 0, 0, 0),
        };
        GpuCum {
            core: sys.cores[g].stats_before(Cycle(end)),
            dram: sys.drams[g].stats(),
            link_bytes: sys.net.gpu_outbound_bytes(g),
            rdc_hits,
            rdc_misses,
            rdc_insertions,
            rdc_invalidations,
            stalls: stalls.map_or([0; NUM_STALL_CATS], |st| st.gpus[g]),
        }
    }
}

/// Interval telemetry: the run's one interval clock plus the cumulative
/// baseline each record is differenced against.
struct Sampler {
    interval: u64,
    /// Next boundary to sample.
    next_at: u64,
    /// Start of the open interval.
    last_boundary: u64,
    prev: Vec<GpuCum>,
    timeline: Timeline,
}

impl Sampler {
    fn new(interval: u64, num_gpus: usize) -> Sampler {
        Sampler {
            interval,
            next_at: interval,
            last_boundary: 0,
            prev: vec![GpuCum::default(); num_gpus],
            timeline: Timeline::new(interval),
        }
    }

    /// Emits one record per GPU for the open interval, closing it at
    /// `end`, and rolls the cumulative baseline forward. `stalls` must
    /// have been charged up to `end`.
    fn emit(&mut self, sys: &System, end: u64, stalls: Option<&StallAccounts>) {
        let start = self.last_boundary;
        for (g, prev) in self.prev.iter_mut().enumerate() {
            let cum = GpuCum::of(sys, g, end, stalls);
            let snap = sys.cores[g].snapshot();
            self.timeline.records.push(IntervalRecord {
                start,
                end,
                gpu: g as u32,
                instructions: cum.core.instructions - prev.core.instructions,
                active_warps: snap.active_warps() as u64,
                waiting_mem_warps: snap.waiting_mem_warps() as u64,
                l1_hits: cum.core.l1_hits - prev.core.l1_hits,
                l1_misses: cum.core.l1_misses - prev.core.l1_misses,
                l2_hits: cum.core.l2_hits - prev.core.l2_hits,
                l2_misses: cum.core.l2_misses - prev.core.l2_misses,
                mshr_outstanding: snap.mshr_outstanding as u64,
                outbox_backlog: snap.outbox_backlog as u64,
                dram_reads: cum.dram.reads - prev.dram.reads,
                dram_writes: cum.dram.writes - prev.dram.writes,
                dram_row_hits: cum.dram.row_hits - prev.dram.row_hits,
                dram_row_misses: cum.dram.row_misses - prev.dram.row_misses,
                dram_bytes: cum.dram.bytes_transferred - prev.dram.bytes_transferred,
                link_bytes_out: cum.link_bytes - prev.link_bytes,
                link_in_flight: sys.net.gpu_outbound_in_flight(g) as u64,
                rdc_hits: cum.rdc_hits - prev.rdc_hits,
                rdc_misses: cum.rdc_misses - prev.rdc_misses,
                rdc_insertions: cum.rdc_insertions - prev.rdc_insertions,
                rdc_invalidations: cum.rdc_invalidations - prev.rdc_invalidations,
                stalls: stalls.map(|_| std::array::from_fn(|i| cum.stalls[i] - prev.stalls[i])),
            });
            *prev = cum;
        }
        self.last_boundary = end;
    }

    /// Closes the final (possibly partial, possibly zero-length) interval
    /// at the run's last cycle, so per-interval instruction counts sum to
    /// the run total exactly.
    fn finish(mut self, sys: &System, end_cycle: u64, stalls: Option<&StallAccounts>) -> Timeline {
        let residual = self
            .prev
            .iter()
            .enumerate()
            .any(|(g, prev)| GpuCum::of(sys, g, end_cycle, stalls) != *prev);
        if end_cycle > self.last_boundary || residual {
            self.emit(sys, end_cycle, stalls);
        }
        self.timeline
    }
}

/// Per-GPU summary of what in-flight protocol traffic is waiting on,
/// rebuilt by one pending-slab scan per profiled tick.
#[derive(Debug, Clone, Copy, Default)]
struct GpuWaitFlags {
    epoch: bool,
    inval: bool,
    rdc: bool,
    remote: bool,
    local: bool,
}

/// Cycle accounting (DESIGN.md §14): every simulated SM cycle is charged
/// to exactly one [`StallCat`].
///
/// [`StallAccounts::on_tick`] charges the cycle being ticked from
/// post-tick state, and [`StallAccounts::charge_to`] charges the cycles
/// the event-skip engine jumped over (or a fault froze) with the class
/// captured after the previous tick — sound because a skipped span is
/// provably quiescent, so the stall state cannot change inside it. The
/// loop ticks through the final cycle inclusive while `SimResult::cycles`
/// counts it exclusive, so [`StallAccounts::retract_final_tick`] takes the
/// last tick's charge back; per-GPU totals then sum to `cycles × SMs`
/// exactly (the tested invariant).
struct StallAccounts {
    sms_per_gpu: usize,
    /// Per-GPU cumulative SM-cycles per category, indexed by
    /// [`StallCat::index`].
    gpus: Vec<[u64; NUM_STALL_CATS]>,
    /// Next unaccounted cycle: everything below it has been charged.
    last: u64,
    /// Per-(gpu, sm) class for quiescent skipped/frozen cycles, flattened
    /// `gpu * sms_per_gpu + sm`; the post-tick stall state.
    span_class: Vec<StallCat>,
    /// Per-(gpu, sm) class charged at the most recent tick.
    tick_class: Vec<StallCat>,
    /// Per-(gpu, sm) cumulative instruction count at the previous tick;
    /// a delta marks the cycle as issuing.
    prev_instr: Vec<u64>,
    /// Scratch for the per-tick pending-slab census.
    flags: Vec<GpuWaitFlags>,
}

impl StallAccounts {
    fn new(num_gpus: usize, sms_per_gpu: usize) -> StallAccounts {
        let slots = num_gpus * sms_per_gpu;
        StallAccounts {
            sms_per_gpu,
            gpus: vec![[0; NUM_STALL_CATS]; num_gpus],
            last: 0,
            span_class: vec![StallCat::Idle; slots],
            tick_class: vec![StallCat::Idle; slots],
            prev_instr: vec![0; slots],
            flags: vec![GpuWaitFlags::default(); num_gpus],
        }
    }

    /// Charges every cycle in `[last, to)` with the span classes.
    fn charge_to(&mut self, to: u64) {
        if to <= self.last {
            return;
        }
        let n = to - self.last;
        for (totals, classes) in self
            .gpus
            .iter_mut()
            .zip(self.span_class.chunks_exact(self.sms_per_gpu))
        {
            for cls in classes {
                totals[cls.index()] += n;
            }
        }
        self.last = to;
    }

    /// Exclusive classification of a memory-stalled SM on GPU `g`: the
    /// farthest-downstream cause in flight wins, structural stalls first.
    fn classify_mem(core: &GpuCore, f: GpuWaitFlags) -> StallCat {
        if core.mshr_is_full() {
            StallCat::MshrFull
        } else if core.outbox_is_full() {
            StallCat::LinkQueue
        } else if f.epoch {
            StallCat::EpochFlush
        } else if f.inval {
            StallCat::CoherenceInvalidate
        } else if f.rdc {
            StallCat::RdcMiss
        } else if f.remote {
            StallCat::RemoteLink
        } else if f.local {
            StallCat::LocalDram
        } else if core.mshr_outstanding() > 0 {
            StallCat::L2Miss
        } else {
            // Warps waiting on memory with nothing past the L1/bank
            // pipeline in flight: the miss is still inside the L1.
            StallCat::L1Miss
        }
    }

    /// Charges the cycle that was just ticked at `now` from post-tick
    /// state, and refreshes the span classes for any skip that follows.
    /// Every cycle below `now` is already charged by `charge_to`.
    fn on_tick(&mut self, now: u64, sys: &System) {
        for f in &mut self.flags {
            *f = GpuWaitFlags::default();
        }
        let flags = &mut self.flags;
        // determinism: every arm only ORs `true` into a per-GPU flag, and
        // boolean OR commutes, so slab order cannot change the result.
        sys.pending.for_each(|_, p| match *p {
            Pending::LocalRead { gpu, .. } => flags[gpu].local = true,
            Pending::RdcProbe { gpu, .. } => flags[gpu].rdc = true,
            Pending::RemoteRead {
                requester, cause, ..
            } => match cause {
                RemoteCause::Plain => flags[requester].remote = true,
                RemoteCause::RdcMiss => flags[requester].rdc = true,
                RemoteCause::Epoch => flags[requester].epoch = true,
                RemoteCause::Inval => flags[requester].inval = true,
            },
            Pending::CpuRead { gpu, .. } => flags[gpu].remote = true,
            Pending::WriteArrive { .. } | Pending::Invalidate { .. } => {}
        });
        for (g, core) in sys.cores.iter().enumerate() {
            let mem_class = Self::classify_mem(core, self.flags[g]);
            for (s, sm) in core.sms().iter().enumerate() {
                let i = g * self.sms_per_gpu + s;
                let instr = sm.stats().instructions;
                let stall = if sm.is_idle() {
                    StallCat::Idle
                } else if sm.warps_waiting_mem() > 0 {
                    mem_class
                } else {
                    // Warps resident but none waiting on memory: the
                    // pipeline is occupied by in-flight compute, which we
                    // count as issuing rather than inventing a category
                    // the taxonomy doesn't have.
                    StallCat::Issuing
                };
                let cls = if instr > self.prev_instr[i] {
                    StallCat::Issuing
                } else {
                    stall
                };
                self.prev_instr[i] = instr;
                self.gpus[g][cls.index()] += 1;
                self.tick_class[i] = cls;
                self.span_class[i] = stall;
            }
        }
        self.last = now + 1;
    }

    /// Takes back the charge of the final tick at `end_cycle`, which the
    /// loop ticks inclusive while `SimResult::cycles` counts it exclusive.
    fn retract_final_tick(&mut self, end_cycle: u64) {
        // A successful run always ends right after a tick at `end_cycle`.
        debug_assert_eq!(self.last, end_cycle + 1, "profiler missed cycles");
        if self.last > end_cycle {
            for (totals, classes) in self
                .gpus
                .iter_mut()
                .zip(self.tick_class.chunks_exact(self.sms_per_gpu))
            {
                for cls in classes {
                    totals[cls.index()] -= 1;
                }
            }
        }
    }

    /// Assembles the run's report from the totals and the DRAM and link
    /// occupancy models.
    fn report(self, sys: &System, end_cycle: u64) -> ProfileReport {
        let mut dram = Vec::new();
        for (g, d) in sys.drams.iter().enumerate() {
            for mut p in d.channel_profiles() {
                p.gpu = g;
                dram.push(p);
            }
        }
        let report = ProfileReport {
            cycles: end_cycle,
            sms_per_gpu: self.sms_per_gpu,
            gpus: self.gpus,
            dram,
            links: sys.net.link_occupancies(),
        };
        debug_assert!(
            report
                .gpus
                .iter()
                .all(|g| g.iter().sum::<u64>() == end_cycle * self.sms_per_gpu as u64),
            "stall categories must sum to cycles × SMs per GPU"
        );
        report
    }
}

/// The event trace: events in order, plus the counter baselines the
/// per-tick instants are differenced against.
#[derive(Default)]
struct Trace {
    events: Vec<TraceEvent>,
    /// The kernel whose spans are open.
    kernel: usize,
    /// Per GPU: whether the open kernel's SM work has finished (its
    /// `kernel` span closed and its `drain` span open).
    drained: Vec<bool>,
    broadcasts: u64,
    dir_invals: u64,
    migrations: u64,
}

impl Trace {
    fn after_tick(&mut self, now: u64, sys: &System) {
        let kernel = self.kernel;
        for (g, drained) in self.drained.iter_mut().enumerate() {
            if !*drained && sys.cores[g].sms_done() {
                *drained = true;
                self.events
                    .push(TraceEvent::end(format!("kernel {kernel}"), g as u32, now));
                self.events
                    .push(TraceEvent::begin(format!("drain {kernel}"), g as u32, now));
            }
        }
        if let Some(c) = &sys.carve {
            let b = c.total_broadcasts();
            if b > self.broadcasts {
                self.events.push(
                    TraceEvent::instant("coherence broadcast", TraceEvent::SYSTEM_TRACK, now)
                        .arg("count", b - self.broadcasts),
                );
                self.broadcasts = b;
            }
            let d = c.total_directory_invalidates();
            if d > self.dir_invals {
                self.events.push(
                    TraceEvent::instant("directory invalidate", TraceEvent::SYSTEM_TRACK, now)
                        .arg("count", d - self.dir_invals),
                );
                self.dir_invals = d;
            }
        }
        let m = sys.traffic.migrations;
        if m > self.migrations {
            self.events.push(
                TraceEvent::instant("page migration", TraceEvent::SYSTEM_TRACK, now)
                    .arg("count", m - self.migrations),
            );
            self.migrations = m;
        }
    }
}
