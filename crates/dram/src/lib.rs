//! HBM-style DRAM model for the `carve-mgpu` simulator.
//!
//! Models the paper's per-GPU memory system (Section III): multiple
//! channels, 16 banks per channel with open-page row buffers, 128-entry
//! read/write queues per channel, FR-FCFS scheduling that prioritizes reads,
//! batched write drains triggered by a high-watermark, and a line-interleaved
//! ("minimalist"-style) address mapping that spreads consecutive cache lines
//! across channels.
//!
//! Two models are provided:
//!
//! * [`DramModel`] — the detailed channel/bank/row timing model used by all
//!   headline experiments.
//! * [`FlatMemory`] — a flat bandwidth-latency alternative used by the
//!   memory-model ablation bench (and by anyone who wants a faster, less
//!   detailed simulation).
//!
//! # Example
//!
//! ```
//! use carve_dram::{DramConfig, DramModel};
//! use sim_core::Cycle;
//!
//! let mut dram = DramModel::new(DramConfig::default());
//! dram.try_enqueue_read(1, 0x1000, Cycle(0)).unwrap();
//! let mut done = Vec::new();
//! for c in 0..10_000u64 {
//!     done.extend(dram.tick(Cycle(c)));
//!     if !done.is_empty() { break; }
//! }
//! assert_eq!(done[0].token, 1);
//! ```

#![warn(missing_docs)]

use sim_core::event::NextEvent;
use sim_core::{BoundedQueue, Cycle, DramChannelProfile, ScaledConfig};

/// Geometry and timing of one GPU's DRAM subsystem.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Number of channels.
    pub channels: usize,
    /// Banks per channel.
    pub banks_per_channel: usize,
    /// Data-bus bandwidth per channel in bytes/cycle.
    pub bytes_per_cycle: f64,
    /// Row activate latency (tRCD).
    pub t_rcd: u64,
    /// Precharge latency (tRP).
    pub t_rp: u64,
    /// Column access latency (tCL).
    pub t_cl: u64,
    /// Fixed controller/PHY pipeline latency added to every access.
    pub fixed_latency: u64,
    /// Read and write queue depth per channel.
    pub queue_depth: usize,
    /// Write-queue occupancy that starts a drain batch.
    pub drain_high: usize,
    /// Write-queue occupancy that ends a drain batch.
    pub drain_low: usize,
    /// Row-buffer size in bytes.
    pub row_bytes: u64,
    /// Cache line (transfer) size in bytes.
    pub line_size: u64,
}

impl Default for DramConfig {
    fn default() -> DramConfig {
        DramConfig::from_scaled(&ScaledConfig::default())
    }
}

impl DramConfig {
    /// Extracts the DRAM parameters from a system configuration.
    pub fn from_scaled(cfg: &ScaledConfig) -> DramConfig {
        DramConfig {
            channels: cfg.dram_channels,
            banks_per_channel: cfg.dram_banks_per_channel,
            bytes_per_cycle: cfg.dram_channel_bytes_per_cycle,
            t_rcd: cfg.dram_t_rcd,
            t_rp: cfg.dram_t_rp,
            t_cl: cfg.dram_t_cl,
            fixed_latency: cfg.dram_fixed_latency,
            queue_depth: cfg.dram_queue_depth,
            drain_high: cfg.dram_write_drain_high,
            drain_low: cfg.dram_write_drain_low,
            row_bytes: cfg.dram_row_bytes,
            line_size: cfg.line_size,
        }
    }

    /// Aggregate bandwidth across channels in bytes/cycle.
    pub fn total_bytes_per_cycle(&self) -> f64 {
        self.bytes_per_cycle * self.channels as f64
    }
}

/// A finished DRAM access, reported by [`DramModel::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Caller-supplied token identifying the request.
    pub token: u64,
    /// Cycle at which data is available (read) or committed (write).
    pub at: Cycle,
    /// Whether this was a write.
    pub is_write: bool,
}

#[derive(Debug, Clone, Copy)]
struct DramRequest {
    token: u64,
    /// Row-line index, decoded once at enqueue: the bank is its low
    /// `log2(banks)` bits and the row the rest (see [`Geometry`]).
    row_line: u64,
    arrival: Cycle,
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    ready_at: u64,
}

/// Address decoding constants, derived once from the power-of-two
/// channel and bank counts so the hot path shifts and masks.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    line_shift: u32,
    channel_mask: u64,
    channel_shift: u32,
    lines_per_row: u64,
    bank_mask: u64,
    bank_shift: u32,
    /// Data-bus occupancy of one line, in cycles.
    burst: f64,
}

impl Geometry {
    fn new(cfg: &DramConfig) -> Geometry {
        Geometry {
            line_shift: cfg.line_size.trailing_zeros(),
            channel_mask: cfg.channels as u64 - 1,
            channel_shift: cfg.channels.trailing_zeros(),
            lines_per_row: (cfg.row_bytes / cfg.line_size).max(1),
            bank_mask: cfg.banks_per_channel as u64 - 1,
            bank_shift: cfg.banks_per_channel.trailing_zeros(),
            burst: cfg.line_size as f64 / cfg.bytes_per_cycle,
        }
    }

    fn channel_of(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) & self.channel_mask) as usize
    }

    /// The row-line index of `addr`: consecutive lines of one channel
    /// fill a row, then consecutive rows stripe across banks.
    fn row_line(&self, addr: u64) -> u64 {
        ((addr >> self.line_shift) >> self.channel_shift) / self.lines_per_row
    }

    fn bank(&self, row_line: u64) -> usize {
        (row_line & self.bank_mask) as usize
    }

    fn row(&self, row_line: u64) -> u64 {
        row_line >> self.bank_shift
    }
}

#[derive(Debug)]
struct Channel {
    banks: Vec<Bank>,
    read_q: BoundedQueue<DramRequest>,
    write_q: BoundedQueue<DramRequest>,
    in_service: Vec<(Completion, u64)>, // (completion, finish cycle)
    // EQUIVALENCE: a channel is visited only once its wake — the minimum
    // of `min_finish`, `issue_floor` and `hysteresis_at` — is due. The
    // first two only ever *under*-approximate the next delivery / issue,
    // and every mutation that could create earlier work (enqueue, issue,
    // completion drain) re-tightens them in the same call, so a skipped
    // visit is one where a full delivery scan and FR-FCFS scan would have
    // found nothing. The write-drain hysteresis is the one piece of state
    // a visit rewrites even when nothing issues; `hysteresis_at` keeps it
    // exact (see its doc). Completions, bank timings and stats are
    // therefore bit-identical between the event-skip and step engines
    // (`next_event_reproduces_stepped_completions`,
    // `hysteresis_is_evaluated_before_a_late_enqueue`, the golden tests).
    /// Earliest in-service finish cycle (`u64::MAX` when none): lets the
    /// per-tick delivery scan and the event horizon skip the list
    /// entirely until something is actually due.
    min_finish: u64,
    /// Underestimate of the earliest cycle an issue can succeed
    /// (`u64::MAX` when both queues are empty): `max(bus ready, min bank
    /// ready over queued requests)`, kept exact at every mutation so the
    /// FR-FCFS scan is skipped on the many ticks where it would find
    /// nothing.
    issue_floor: u64,
    /// The cycle at which the write-drain hysteresis must be re-evaluated
    /// (`u64::MAX` when it need not be). The stepping engine evaluates it
    /// every cycle, before that cycle's enqueues; the evaluation can only
    /// change the outcome when a visit leaves the channel draining with
    /// `write_q <= drain_low` (issues shrank the queue after this visit's
    /// evaluation). Enqueues at `now` and later may push the queue back
    /// above `drain_low`, so that channel must be visited at `now + 1`.
    hysteresis_at: u64,
    bus_free_at: f64,
    draining: bool,
    /// Occupancy accounting for the cycle-accounting profiler: bank-time
    /// spent on row-hit vs row-miss accesses and serialized bus time.
    /// Always-on plain additions at the issue site (no journal impact —
    /// these never feed `DramStats`).
    row_hit_cycles: u64,
    row_miss_cycles: u64,
    bus_cycles: f64,
}

impl Channel {
    /// The earliest cycle a visit to this channel can do anything.
    fn wake(&self) -> u64 {
        self.min_finish
            .min(self.issue_floor)
            .min(self.hysteresis_at)
    }

    fn bus_ready(&self) -> u64 {
        (self.bus_free_at - 1.0).ceil().max(0.0) as u64
    }

    /// Recomputes [`Channel::issue_floor`] from scratch (both queues).
    fn recompute_issue_floor(&mut self, geo: &Geometry) {
        if self.read_q.is_empty() && self.write_q.is_empty() {
            self.issue_floor = u64::MAX;
            return;
        }
        let min_bank_ready = self
            .read_q
            .iter()
            .chain(self.write_q.iter())
            .map(|req| self.banks[geo.bank(req.row_line)].ready_at)
            .min()
            .unwrap_or(0);
        self.issue_floor = self.bus_ready().max(min_bank_ready);
    }

    /// Lowers [`Channel::issue_floor`] for one newly queued request.
    fn note_enqueue(&mut self, row_line: u64, geo: &Geometry) {
        let bank_ready = self.banks[geo.bank(row_line)].ready_at;
        self.issue_floor = self.issue_floor.min(self.bus_ready().max(bank_ready));
    }
}

/// Per-GPU DRAM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Reads serviced.
    pub reads: u64,
    /// Writes serviced.
    pub writes: u64,
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Accesses that needed activate (and possibly precharge).
    pub row_misses: u64,
    /// Total bytes moved over the data buses.
    pub bytes_transferred: u64,
    /// Enqueue attempts rejected because a queue was full.
    pub queue_rejections: u64,
}

impl DramStats {
    /// Row-buffer hit rate over all serviced accesses.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// Shadow checker for DRAM timing legality, used by the protocol
/// sanitizer (`CARVE_SANITIZE=1`).
///
/// It keeps its *own* copy of per-channel bus occupancy and per-bank
/// ready/open-row state, updated only from issued accesses, and checks
/// every new issue against that shadow: the data bus must not overlap a
/// previous burst, a bank must not be re-accessed inside its busy window
/// (the tRP/tRCD/tRC recovery modelled by `ready_at`), a claimed row hit
/// must match the shadow's open row, and the completion must respect the
/// CAS-latency floor. Because the shadow is maintained independently of
/// the model's own `Bank`/`Channel` state, a future refactor that forgets
/// to update either side trips a violation instead of silently bending
/// timing. Only the first violation is kept.
#[derive(Debug, Default)]
pub struct TimingAudit {
    channels: Vec<AuditChannel>,
    violation: Option<String>,
}

#[derive(Debug, Default, Clone)]
struct AuditChannel {
    bus_busy_until: f64,
    banks: Vec<AuditBank>,
}

#[derive(Debug, Default, Clone, Copy)]
struct AuditBank {
    ready_at: u64,
    open_row: Option<u64>,
}

/// Slack for comparing the model's f64 bus arithmetic against the shadow.
const AUDIT_EPS: f64 = 1e-6;

impl TimingAudit {
    /// Creates an empty audit; channel/bank shadows grow on first use.
    pub fn new() -> TimingAudit {
        TimingAudit::default()
    }

    fn bank(&mut self, channel: usize, bank: usize) -> &mut AuditBank {
        if self.channels.len() <= channel {
            self.channels.resize(channel + 1, AuditChannel::default());
        }
        let ch = &mut self.channels[channel];
        if ch.banks.len() <= bank {
            ch.banks.resize(bank + 1, AuditBank::default());
        }
        &mut ch.banks[bank]
    }

    fn fail(&mut self, msg: String) {
        if self.violation.is_none() {
            self.violation = Some(msg);
        }
    }

    /// Validates one issued access against the shadow state, then rolls
    /// the shadow forward. Arguments mirror the model's issue math:
    /// `start` is the bus start time, `burst` the bus occupancy,
    /// `bank_ready` the cycle the bank recovers, `finish` the completion
    /// cycle, `row_hit` whether the model charged open-row timing.
    #[allow(clippy::too_many_arguments)]
    pub fn observe_issue(
        &mut self,
        channel: usize,
        bank: usize,
        row: u64,
        start: f64,
        burst: f64,
        bank_ready: u64,
        finish: u64,
        row_hit: bool,
        t_cl: u64,
    ) {
        if self.violation.is_some() {
            return;
        }
        let shadow_bus = self
            .channels
            .get(channel)
            .map(|c| c.bus_busy_until)
            .unwrap_or(0.0);
        if start + AUDIT_EPS < shadow_bus {
            self.fail(format!(
                "dram channel {channel}: burst starts at {start} while the data bus \
                 is busy until {shadow_bus} (overlapping serialization)"
            ));
            return;
        }
        let b = *self.bank(channel, bank);
        if start + AUDIT_EPS < b.ready_at as f64 {
            self.fail(format!(
                "dram channel {channel} bank {bank}: access starts at {start} inside \
                 the bank's recovery window (ready at {})",
                b.ready_at
            ));
            return;
        }
        if row_hit && b.open_row != Some(row) {
            self.fail(format!(
                "dram channel {channel} bank {bank}: row-hit timing charged for row \
                 {row} but the shadow open row is {:?}",
                b.open_row
            ));
            return;
        }
        if (finish as f64) + AUDIT_EPS < start + t_cl as f64 {
            self.fail(format!(
                "dram channel {channel} bank {bank}: completion at {finish} beats the \
                 CAS-latency floor (start {start} + tCL {t_cl})"
            ));
            return;
        }
        let bank_state = self.bank(channel, bank);
        bank_state.ready_at = bank_ready;
        bank_state.open_row = Some(row);
        self.channels[channel].bus_busy_until = start + burst;
    }

    /// The first violation found, if any.
    pub fn violation(&self) -> Option<&str> {
        self.violation.as_deref()
    }
}

/// Detailed multi-channel DRAM timing model.
#[derive(Debug)]
pub struct DramModel {
    cfg: DramConfig,
    geo: Geometry,
    channels: Vec<Channel>,
    /// Minimum [`Channel::wake`] over all channels: the model's own event
    /// horizon, so [`NextEvent::next_event`] costs O(1).
    wake: u64,
    stats: DramStats,
    /// Timing-legality shadow checker; `None` (the default) costs one
    /// pointer check per issued access.
    audit: Option<Box<TimingAudit>>,
    /// Armed transient faults (fault injection): each one forces the next
    /// read completion to fail at delivery and retransmit after a full
    /// re-access penalty. Zero in fault-free runs.
    pending_transients: u32,
    /// Read completions retransmitted after an injected transient fault.
    transient_retries: u64,
}

impl DramModel {
    /// Creates the DRAM subsystem described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configuration (channel, bank or line counts
    /// that are not powers of two, zero bandwidth, or drain watermarks
    /// out of order).
    pub fn new(cfg: DramConfig) -> DramModel {
        assert!(cfg.channels.is_power_of_two() && cfg.banks_per_channel.is_power_of_two());
        assert!(cfg.line_size.is_power_of_two());
        assert!(cfg.bytes_per_cycle > 0.0);
        assert!(cfg.drain_low < cfg.drain_high && cfg.drain_high <= cfg.queue_depth);
        let channels = (0..cfg.channels)
            .map(|_| Channel {
                banks: vec![Bank::default(); cfg.banks_per_channel],
                read_q: BoundedQueue::new(cfg.queue_depth),
                write_q: BoundedQueue::new(cfg.queue_depth),
                in_service: Vec::new(),
                min_finish: u64::MAX,
                issue_floor: u64::MAX,
                hysteresis_at: u64::MAX,
                bus_free_at: 0.0,
                draining: false,
                row_hit_cycles: 0,
                row_miss_cycles: 0,
                bus_cycles: 0.0,
            })
            .collect();
        DramModel {
            geo: Geometry::new(&cfg),
            cfg,
            channels,
            wake: u64::MAX,
            stats: DramStats::default(),
            audit: None,
            pending_transients: 0,
            transient_retries: 0,
        }
    }

    /// Arms `n` transient faults (fault injection): each forces one read
    /// completion, at the moment it would deliver, to retransmit after a
    /// full re-access penalty (precharge + activate + CAS + burst +
    /// controller pipeline). Bounded by construction — a faulted read
    /// retries once per armed fault and then delivers.
    pub fn inject_transient_faults(&mut self, n: u32) {
        self.pending_transients = self.pending_transients.saturating_add(n);
    }

    /// Read completions retransmitted after an injected transient fault.
    pub fn transient_retries(&self) -> u64 {
        self.transient_retries
    }

    /// Enables (or disables) the [`TimingAudit`] shadow checker. Enabling
    /// mid-run starts the shadow from an empty state, which is safe: the
    /// shadow only ever *under*-approximates bus/bank occupancy, so it can
    /// miss violations in already-in-flight work but never invent one.
    pub fn set_timing_audit(&mut self, enabled: bool) {
        self.audit = enabled.then(|| Box::new(TimingAudit::new()));
    }

    /// The first timing violation the audit found, if auditing is on.
    pub fn timing_violation(&self) -> Option<&str> {
        self.audit.as_ref().and_then(|a| a.violation())
    }

    #[inline]
    fn channel_of(&self, addr: u64) -> usize {
        self.geo.channel_of(addr)
    }

    /// Enqueues a read. On a full queue the request is rejected and the
    /// caller must retry (back-pressure).
    pub fn try_enqueue_read(&mut self, token: u64, addr: u64, now: Cycle) -> Result<(), u64> {
        self.enqueue(token, addr, now, false)
    }

    /// Enqueues a write (posted; the completion is for stats/ordering).
    pub fn try_enqueue_write(&mut self, token: u64, addr: u64, now: Cycle) -> Result<(), u64> {
        self.enqueue(token, addr, now, true)
    }

    fn enqueue(&mut self, token: u64, addr: u64, now: Cycle, is_write: bool) -> Result<(), u64> {
        let row_line = self.geo.row_line(addr);
        let req = DramRequest {
            token,
            row_line,
            arrival: now,
        };
        let ch = &mut self.channels[self.geo.channel_of(addr)];
        let queue = if is_write {
            &mut ch.write_q
        } else {
            &mut ch.read_q
        };
        match queue.try_push(req) {
            Ok(()) => {
                ch.note_enqueue(row_line, &self.geo);
                self.wake = self.wake.min(ch.wake());
                Ok(())
            }
            Err(r) => {
                self.stats.queue_rejections += 1;
                Err(r.token)
            }
        }
    }

    /// Whether the read queue owning `addr` has space.
    pub fn can_accept_read(&self, addr: u64) -> bool {
        !self.channels[self.channel_of(addr)].read_q.is_full()
    }

    /// Whether the write queue owning `addr` has space.
    pub fn can_accept_write(&self, addr: u64) -> bool {
        !self.channels[self.channel_of(addr)].write_q.is_full()
    }

    /// Advances every channel one cycle and returns completions due at or
    /// before `now`.
    pub fn tick(&mut self, now: Cycle) -> Vec<Completion> {
        let mut done = Vec::new();
        self.tick_into(now, &mut done);
        done
    }

    /// Advances the model one cycle, appending completions due at or
    /// before `now` to `done` (allocation-free variant of
    /// [`DramModel::tick`]; `done` is NOT cleared). Only channels whose
    /// wake is due are visited.
    pub fn tick_into(&mut self, now: Cycle, done: &mut Vec<Completion>) {
        self.tick_channels(now, done, false);
    }

    /// [`DramModel::tick_into`] that visits every channel and runs every
    /// scan, due or not: the stepping engine's oracle, which consults no
    /// wake cycle.
    pub fn tick_all_into(&mut self, now: Cycle, done: &mut Vec<Completion>) {
        self.tick_channels(now, done, true);
    }

    fn tick_channels(&mut self, now: Cycle, done: &mut Vec<Completion>, all: bool) {
        let DramModel {
            cfg,
            geo,
            channels,
            wake,
            stats,
            audit,
            pending_transients,
            transient_retries,
        } = self;
        let now = now.0;
        let mut next_wake = u64::MAX;
        for (ci, ch) in channels.iter_mut().enumerate() {
            if !all && ch.wake() > now {
                next_wake = next_wake.min(ch.wake());
                continue;
            }
            // 1. Deliver finished accesses (skip the scan until something
            // is due).
            if all || ch.min_finish <= now {
                let mut i = 0;
                let mut min = u64::MAX;
                while i < ch.in_service.len() {
                    if ch.in_service[i].1 <= now {
                        let (comp, _) = ch.in_service.swap_remove(i);
                        if !comp.is_write && *pending_transients != 0 {
                            // Injected transient fault: the data failed at
                            // delivery; retransmit after a full re-access
                            // penalty. Strictly future, so the event
                            // horizon and both engines see it identically.
                            *pending_transients -= 1;
                            *transient_retries += 1;
                            let burst = geo.burst.ceil() as u64;
                            let penalty =
                                (cfg.t_rp + cfg.t_rcd + cfg.t_cl + burst + cfg.fixed_latency)
                                    .max(1);
                            let refinish = now + penalty;
                            ch.in_service.push((
                                Completion {
                                    token: comp.token,
                                    at: Cycle(refinish),
                                    is_write: false,
                                },
                                refinish,
                            ));
                            min = min.min(refinish);
                            continue;
                        }
                        done.push(comp);
                    } else {
                        min = min.min(ch.in_service[i].1);
                        i += 1;
                    }
                }
                ch.min_finish = min;
            }
            // 2. Write-drain hysteresis.
            if ch.write_q.len() >= cfg.drain_high {
                ch.draining = true;
            } else if ch.write_q.len() <= cfg.drain_low {
                ch.draining = false;
            }
            ch.hysteresis_at = u64::MAX;
            // 3. Issue while the data bus has room this cycle. Skipped
            // outright while `issue_floor` (an underestimate of the
            // earliest successful issue) is in the future: the scan below
            // is read-only when nothing can issue, so this is exact.
            if all || now >= ch.issue_floor {
                Self::issue(ch, ci, now, cfg, geo, stats, audit.as_deref_mut());
                ch.recompute_issue_floor(geo);
                if ch.draining && ch.write_q.len() <= cfg.drain_low {
                    ch.hysteresis_at = now + 1;
                }
            }
            next_wake = next_wake.min(ch.wake());
        }
        *wake = next_wake;
    }

    /// FR-FCFS issue on one channel at `now`, while the data bus has room.
    fn issue(
        ch: &mut Channel,
        ci: usize,
        now: u64,
        cfg: &DramConfig,
        geo: &Geometry,
        stats: &mut DramStats,
        mut audit: Option<&mut TimingAudit>,
    ) {
        while ch.bus_free_at <= now as f64 + 1.0 {
            // FR-FCFS with read priority: prefer row-hit reads, then
            // oldest read; during a drain (or when no reads) serve
            // writes the same way.
            let serve_writes = ch.draining || ch.read_q.is_empty();
            let (queue, is_write) = if serve_writes && !ch.write_q.is_empty() {
                (&mut ch.write_q, true)
            } else if !ch.read_q.is_empty() {
                (&mut ch.read_q, false)
            } else {
                break;
            };
            // Find a row-hit request on a ready bank; else oldest on a
            // ready bank; else give up this cycle.
            let mut hit_idx: Option<usize> = None;
            let mut ready_idx: Option<usize> = None;
            for (i, req) in queue.iter().enumerate() {
                let bank = &ch.banks[geo.bank(req.row_line)];
                if bank.ready_at <= now {
                    if bank.open_row == Some(geo.row(req.row_line)) {
                        hit_idx = Some(i);
                        break;
                    }
                    if ready_idx.is_none() {
                        ready_idx = Some(i);
                    }
                }
            }
            let Some(idx) = hit_idx.or(ready_idx) else {
                break;
            };
            let mut taken = 0usize;
            let req = queue
                .pop_first_matching(|_| {
                    let found = taken == idx;
                    taken += 1;
                    found
                })
                // audit:allow(tick-path-panics) idx was computed from this queue two lines up; a miss is memory corruption, not a recoverable SimError
                .expect("picked index must exist");
            // Timing.
            let (bank_idx, row) = (geo.bank(req.row_line), geo.row(req.row_line));
            let bank = &mut ch.banks[bank_idx];
            let start = (now as f64).max(ch.bus_free_at).max(bank.ready_at as f64);
            let row_hit = bank.open_row == Some(row);
            let access_lat = match bank.open_row {
                Some(r) if r == row => {
                    stats.row_hits += 1;
                    cfg.t_cl
                }
                Some(_) => {
                    stats.row_misses += 1;
                    cfg.t_rp + cfg.t_rcd + cfg.t_cl
                }
                None => {
                    stats.row_misses += 1;
                    cfg.t_rcd + cfg.t_cl
                }
            };
            let burst = geo.burst;
            // The bank is occupied for the DRAM timing only; the fixed
            // controller/PHY pipeline latency delays the *completion*
            // without blocking the bank.
            let bank_ready = start + access_lat as f64 + burst;
            let finish = bank_ready + cfg.fixed_latency as f64;
            bank.open_row = Some(row);
            bank.ready_at = bank_ready as u64;
            ch.bus_free_at = start + burst;
            if row_hit {
                ch.row_hit_cycles += access_lat;
            } else {
                ch.row_miss_cycles += access_lat;
            }
            ch.bus_cycles += burst;
            stats.bytes_transferred += cfg.line_size;
            if is_write {
                stats.writes += 1;
            } else {
                stats.reads += 1;
            }
            let finish = finish.ceil() as u64;
            if let Some(audit) = audit.as_deref_mut() {
                audit.observe_issue(
                    ci,
                    bank_idx,
                    row,
                    start,
                    burst,
                    bank_ready as u64,
                    finish,
                    row_hit,
                    cfg.t_cl,
                );
            }
            ch.in_service.push((
                Completion {
                    token: req.token,
                    at: Cycle(finish),
                    is_write,
                },
                finish,
            ));
            ch.min_finish = ch.min_finish.min(finish);
        }
    }

    /// Whether any queue or bank still has work in flight.
    pub fn is_idle(&self) -> bool {
        self.channels
            .iter()
            .all(|c| c.read_q.is_empty() && c.write_q.is_empty() && c.in_service.is_empty())
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Per-channel occupancy breakdowns for the cycle-accounting profiler.
    /// The caller owns the GPU index ([`DramChannelProfile::gpu`] is left
    /// 0 here); row-hit/row-miss are bank-time (banks overlap, so their
    /// sum can exceed wall-clock), bus is serialized channel time, and
    /// refresh is always 0 because refresh is not modeled.
    pub fn channel_profiles(&self) -> Vec<DramChannelProfile> {
        self.channels
            .iter()
            .enumerate()
            .map(|(i, ch)| DramChannelProfile {
                gpu: 0,
                channel: i,
                row_hit_cycles: ch.row_hit_cycles,
                row_miss_cycles: ch.row_miss_cycles,
                bus_cycles: ch.bus_cycles,
                refresh_cycles: 0,
            })
            .collect()
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// One diagnostic line per channel with queued or in-service work:
    /// queue depths, drain state, and the oldest queued request's arrival
    /// cycle. Empty when the subsystem is idle.
    pub fn occupancy_report(&self) -> Vec<String> {
        self.snapshot().occupancy_report()
    }

    /// Point-in-time occupancy of every channel. Read-only; the single
    /// source behind [`DramModel::occupancy_report`] and the telemetry
    /// sampler.
    pub fn snapshot(&self) -> DramSnapshot {
        DramSnapshot {
            channels: self
                .channels
                .iter()
                .map(|ch| ChannelSnapshot {
                    read_q: ch.read_q.len(),
                    write_q: ch.write_q.len(),
                    in_service: ch.in_service.len(),
                    draining: ch.draining,
                    oldest_arrival: ch
                        .read_q
                        .iter()
                        .chain(ch.write_q.iter())
                        .map(|r| r.arrival.0)
                        .min(),
                })
                .collect(),
        }
    }
}

/// Point-in-time occupancy of one DRAM channel (see [`DramSnapshot`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelSnapshot {
    /// Queued reads.
    pub read_q: usize,
    /// Queued writes.
    pub write_q: usize,
    /// Requests past arbitration, waiting on bank/bus timing.
    pub in_service: usize,
    /// Whether the channel is in a write-drain batch.
    pub draining: bool,
    /// Arrival cycle of the oldest queued request, if any.
    pub oldest_arrival: Option<u64>,
}

impl ChannelSnapshot {
    /// Whether the channel has any queued or in-service work.
    pub fn is_busy(&self) -> bool {
        self.read_q > 0 || self.write_q > 0 || self.in_service > 0
    }
}

/// Point-in-time occupancy snapshot of a whole DRAM subsystem.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DramSnapshot {
    /// Per-channel occupancy, in channel order.
    pub channels: Vec<ChannelSnapshot>,
}

impl DramSnapshot {
    /// Human-readable lines naming every busy channel (empty when idle).
    /// Used verbatim in watchdog stall reports.
    pub fn occupancy_report(&self) -> Vec<String> {
        self.channels
            .iter()
            .enumerate()
            .filter(|(_, ch)| ch.is_busy())
            .map(|(i, ch)| {
                format!(
                    "channel {}: read_q={} write_q={} in_service={} draining={}{}",
                    i,
                    ch.read_q,
                    ch.write_q,
                    ch.in_service,
                    ch.draining,
                    ch.oldest_arrival
                        .map_or(String::new(), |a| format!(" oldest_arrival={a}")),
                )
            })
            .collect()
    }
}

impl NextEvent for DramModel {
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        (self.wake != u64::MAX).then(|| Cycle(self.wake.max(now.0 + 1)))
    }
}

/// Flat bandwidth-latency memory model (ablation alternative).
///
/// Every access completes after `latency` plus queueing delay imposed by an
/// aggregate bytes/cycle budget. No banks, rows or scheduling.
#[derive(Debug)]
pub struct FlatMemory {
    latency: u64,
    bytes_per_cycle: f64,
    line_size: u64,
    next_slot: f64,
    in_service: Vec<(Completion, u64)>,
    /// Earliest in-service finish (`u64::MAX` when none), exact after
    /// every enqueue and tick, so idle ticks and the horizon cost O(1).
    min_finish: u64,
    stats: DramStats,
    pending_transients: u32,
    transient_retries: u64,
}

impl FlatMemory {
    /// Creates a flat model with fixed `latency` and aggregate bandwidth.
    pub fn new(latency: u64, bytes_per_cycle: f64, line_size: u64) -> FlatMemory {
        assert!(bytes_per_cycle > 0.0 && line_size > 0);
        FlatMemory {
            latency,
            bytes_per_cycle,
            line_size,
            next_slot: 0.0,
            in_service: Vec::new(),
            min_finish: u64::MAX,
            stats: DramStats::default(),
            pending_transients: 0,
            transient_retries: 0,
        }
    }

    /// Arms `n` transient faults: each forces one read completion to
    /// retransmit after a full latency + burst penalty (the flat-model
    /// analogue of [`DramModel::inject_transient_faults`]).
    pub fn inject_transient_faults(&mut self, n: u32) {
        self.pending_transients = self.pending_transients.saturating_add(n);
    }

    /// Read completions retransmitted after an injected transient fault.
    pub fn transient_retries(&self) -> u64 {
        self.transient_retries
    }

    /// Enqueues an access; flat model never rejects.
    pub fn enqueue(&mut self, token: u64, is_write: bool, now: Cycle) {
        let start = (now.0 as f64).max(self.next_slot);
        let burst = self.line_size as f64 / self.bytes_per_cycle;
        self.next_slot = start + burst;
        let finish = (start + self.latency as f64 + burst).ceil() as u64;
        self.stats.bytes_transferred += self.line_size;
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        self.in_service.push((
            Completion {
                token,
                at: Cycle(finish),
                is_write,
            },
            finish,
        ));
        self.min_finish = self.min_finish.min(finish);
    }

    /// Returns completions due at or before `now`.
    pub fn tick(&mut self, now: Cycle) -> Vec<Completion> {
        let mut done = Vec::new();
        self.tick_into(now, &mut done);
        done
    }

    /// Appends completions due at or before `now` to `done`
    /// (allocation-free variant of [`FlatMemory::tick`]).
    pub fn tick_into(&mut self, now: Cycle, done: &mut Vec<Completion>) {
        if self.min_finish > now.0 {
            return;
        }
        let mut min = u64::MAX;
        let mut i = 0;
        while i < self.in_service.len() {
            if self.in_service[i].1 <= now.0 {
                let (comp, _) = self.in_service.swap_remove(i);
                if !comp.is_write && self.pending_transients != 0 {
                    // Injected transient fault: retransmit strictly in
                    // the future (see DramModel::tick_into).
                    self.pending_transients -= 1;
                    self.transient_retries += 1;
                    let burst = (self.line_size as f64 / self.bytes_per_cycle).ceil() as u64;
                    let refinish = now.0 + (self.latency + burst).max(1);
                    self.in_service.push((
                        Completion {
                            token: comp.token,
                            at: Cycle(refinish),
                            is_write: false,
                        },
                        refinish,
                    ));
                    min = min.min(refinish);
                    continue;
                }
                done.push(comp);
            } else {
                min = min.min(self.in_service[i].1);
                i += 1;
            }
        }
        self.min_finish = min;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Whether nothing is in flight.
    pub fn is_idle(&self) -> bool {
        self.in_service.is_empty()
    }

    /// Accesses currently in service.
    pub fn in_flight(&self) -> usize {
        self.in_service.len()
    }
}

impl NextEvent for FlatMemory {
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        (self.min_finish != u64::MAX).then(|| Cycle(self.min_finish.max(now.0 + 1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> DramConfig {
        DramConfig {
            channels: 2,
            banks_per_channel: 4,
            bytes_per_cycle: 16.0,
            t_rcd: 14,
            t_rp: 14,
            t_cl: 14,
            fixed_latency: 0,
            queue_depth: 8,
            drain_high: 6,
            drain_low: 2,
            row_bytes: 2048,
            line_size: 128,
        }
    }

    fn run_until_done(dram: &mut DramModel, limit: u64) -> Vec<Completion> {
        let mut out = Vec::new();
        for c in 0..limit {
            out.extend(dram.tick(Cycle(c)));
            if dram.is_idle() {
                break;
            }
        }
        out
    }

    #[test]
    fn timing_audit_passes_a_legal_sequence() {
        let mut a = TimingAudit::new();
        // Closed bank: activate + CAS, burst of 8 cycles on the bus.
        a.observe_issue(0, 0, 5, 0.0, 8.0, 36, 36, false, 14);
        // Row hit on the now-open row, after the bus frees.
        a.observe_issue(0, 0, 5, 36.0, 8.0, 58, 58, true, 14);
        // A different channel has its own bus: overlapping is fine.
        a.observe_issue(1, 0, 5, 0.0, 8.0, 36, 36, false, 14);
        assert_eq!(a.violation(), None);
    }

    #[test]
    fn timing_audit_catches_bus_overlap() {
        let mut a = TimingAudit::new();
        a.observe_issue(0, 0, 5, 0.0, 8.0, 36, 36, false, 14);
        // Second burst starts while the first still owns the data bus.
        a.observe_issue(0, 1, 9, 4.0, 8.0, 40, 40, false, 14);
        let v = a.violation().expect("violation latched");
        assert!(v.contains("bus"), "names the bus: {v}");
    }

    #[test]
    fn timing_audit_catches_bank_recovery_breach() {
        let mut a = TimingAudit::new();
        a.observe_issue(0, 0, 5, 0.0, 8.0, 36, 36, false, 14);
        // Same bank re-issued at cycle 10 < ready_at 36 (bus is free by
        // claiming a start after the burst but inside recovery).
        a.observe_issue(0, 0, 5, 10.0, 8.0, 60, 60, true, 14);
        let v = a.violation().expect("violation latched");
        assert!(v.contains("recovery"), "names the window: {v}");
    }

    #[test]
    fn timing_audit_catches_false_row_hit() {
        let mut a = TimingAudit::new();
        a.observe_issue(0, 0, 5, 0.0, 8.0, 36, 36, false, 14);
        // Row-hit timing charged for a different row than the open one.
        a.observe_issue(0, 0, 6, 40.0, 8.0, 62, 62, true, 14);
        let v = a.violation().expect("violation latched");
        assert!(v.contains("row"), "names the row: {v}");
    }

    #[test]
    fn timing_audit_catches_cas_floor_breach() {
        let mut a = TimingAudit::new();
        // Completion before start + tCL is physically impossible.
        a.observe_issue(0, 0, 5, 0.0, 8.0, 10, 10, false, 14);
        let v = a.violation().expect("violation latched");
        assert!(v.contains("CAS"), "names the floor: {v}");
    }

    #[test]
    fn timing_audit_keeps_first_violation() {
        let mut a = TimingAudit::new();
        a.observe_issue(0, 0, 5, 0.0, 8.0, 10, 10, false, 14); // CAS breach
        a.observe_issue(0, 0, 6, 0.0, 8.0, 36, 36, true, 14); // would be row breach
        assert!(a.violation().unwrap().contains("CAS"));
    }

    #[test]
    fn audited_model_runs_clean_and_costs_nothing_when_off() {
        let mut plain = DramModel::new(small_cfg());
        let mut audited = DramModel::new(small_cfg());
        audited.set_timing_audit(true);
        for (i, addr) in (0..32u64).map(|i| (i, i * 128)).collect::<Vec<_>>() {
            plain.try_enqueue_read(i, addr, Cycle(0)).ok();
            audited.try_enqueue_read(i, addr, Cycle(0)).ok();
        }
        let a = run_until_done(&mut plain, 10_000);
        let b = run_until_done(&mut audited, 10_000);
        assert_eq!(audited.timing_violation(), None);
        // The audit is read-only: completions are bit-identical.
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.token, x.at, x.is_write), (y.token, y.at, y.is_write));
        }
    }

    #[test]
    fn single_read_completes_with_activate_latency() {
        let mut dram = DramModel::new(small_cfg());
        dram.try_enqueue_read(7, 0, Cycle(0)).unwrap();
        let done = run_until_done(&mut dram, 1000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].token, 7);
        assert!(!done[0].is_write);
        // tRCD + tCL + burst(128/16=8) = 36
        assert_eq!(done[0].at, Cycle(36));
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let cfg = small_cfg();
        let mut dram = DramModel::new(cfg);
        // Two lines in the same row (consecutive lines on channel 0:
        // addresses 0 and 256 with 2 channels).
        dram.try_enqueue_read(1, 0, Cycle(0)).unwrap();
        dram.try_enqueue_read(2, 256, Cycle(0)).unwrap();
        let done = run_until_done(&mut dram, 1000);
        assert_eq!(done.len(), 2);
        assert_eq!(dram.stats().row_hits, 1);
        assert_eq!(dram.stats().row_misses, 1);
    }

    #[test]
    fn channel_interleaving_spreads_lines() {
        let dram = DramModel::new(small_cfg());
        assert_ne!(dram.channel_of(0), dram.channel_of(128));
        assert_eq!(dram.channel_of(0), dram.channel_of(256));
    }

    #[test]
    fn queue_depth_is_enforced() {
        let mut dram = DramModel::new(small_cfg());
        for i in 0..8 {
            // all map to channel 0
            dram.try_enqueue_read(i, i * 256, Cycle(0)).unwrap();
        }
        assert!(dram.try_enqueue_read(99, 9 * 256, Cycle(0)).is_err());
        assert!(dram.can_accept_read(128)); // other channel still open
        assert_eq!(dram.stats().queue_rejections, 1);
    }

    #[test]
    fn reads_prioritized_over_writes_until_drain() {
        let mut dram = DramModel::new(small_cfg());
        for i in 0..4 {
            dram.try_enqueue_write(100 + i, i * 256, Cycle(0)).unwrap();
        }
        dram.try_enqueue_read(1, 0x10000, Cycle(0)).unwrap();
        let done = run_until_done(&mut dram, 5000);
        let first_read_pos = done.iter().position(|c| !c.is_write).unwrap();
        // The read finishes before at least the later writes despite
        // arriving last (write queue below drain_high, reads priority).
        assert!(first_read_pos < done.len() - 1);
        assert_eq!(done.len(), 5);
    }

    #[test]
    fn write_drain_kicks_in_at_high_watermark() {
        let mut dram = DramModel::new(small_cfg());
        for i in 0..6 {
            dram.try_enqueue_write(i, i * 256, Cycle(0)).unwrap();
        }
        let done = run_until_done(&mut dram, 5000);
        assert_eq!(done.len(), 6);
        assert_eq!(dram.stats().writes, 6);
    }

    #[test]
    fn bandwidth_bounds_throughput() {
        let cfg = small_cfg(); // 2ch x 16 B/cyc = 32 B/cyc aggregate
        let mut dram = DramModel::new(cfg);
        // Saturate: 64 sequential lines.
        let mut issued = 0u64;
        let mut completed = 0usize;
        let mut last = 0u64;
        for c in 0..100_000u64 {
            while issued < 64 {
                if dram
                    .try_enqueue_read(issued, issued * 128, Cycle(c))
                    .is_ok()
                {
                    issued += 1;
                } else {
                    break;
                }
            }
            let done = dram.tick(Cycle(c));
            completed += done.len();
            if completed == 64 {
                last = c;
                break;
            }
        }
        assert_eq!(completed, 64);
        // 64 lines * 128B = 8KB at 32 B/cyc = 256 cycles minimum.
        assert!(last >= 256, "finished unrealistically fast: {last}");
        assert!(last < 1000, "took unreasonably long: {last}");
    }

    #[test]
    fn flat_memory_latency_and_order() {
        let mut m = FlatMemory::new(100, 16.0, 128);
        m.enqueue(1, false, Cycle(0));
        m.enqueue(2, false, Cycle(0));
        let mut done = Vec::new();
        for c in 0..500u64 {
            done.extend(m.tick(Cycle(c)));
        }
        assert_eq!(done.len(), 2);
        // First: 100 + 8 = 108; second starts at bus slot 8: 8+100+8=116.
        assert_eq!(done[0].at, Cycle(108));
        assert_eq!(done[1].at, Cycle(116));
        assert!(m.is_idle());
    }

    #[test]
    #[should_panic]
    fn bad_drain_watermarks_panic() {
        let mut cfg = small_cfg();
        cfg.drain_low = cfg.drain_high;
        let _ = DramModel::new(cfg);
    }

    /// Drives `dram` with the event-skipping discipline and returns every
    /// (cycle, token) completion.
    fn run_skipping(dram: &mut DramModel, limit: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut now = 0u64;
        while now < limit {
            for c in dram.tick(Cycle(now)) {
                out.push((now, c.token));
            }
            match dram.next_event(Cycle(now)) {
                Some(next) => now = next.0,
                None => break,
            }
        }
        out
    }

    #[test]
    fn next_event_reproduces_stepped_completions() {
        let mk = || {
            let mut dram = DramModel::new(small_cfg());
            // A mix of row hits, misses, both channels, and writes.
            for (i, addr) in [0u64, 256, 128, 0x10000, 384, 0x20080]
                .into_iter()
                .enumerate()
            {
                dram.try_enqueue_read(i as u64, addr, Cycle(0)).unwrap();
            }
            dram.try_enqueue_write(100, 512, Cycle(0)).unwrap();
            dram
        };
        let mut stepped = mk();
        let mut by_step = Vec::new();
        for c in 0..5000u64 {
            for done in stepped.tick(Cycle(c)) {
                by_step.push((c, done.token));
            }
        }
        let mut skipped = mk();
        let by_skip = run_skipping(&mut skipped, 5000);
        assert_eq!(by_skip, by_step);
        assert_eq!(skipped.stats(), stepped.stats());
        assert!(skipped.is_idle());
    }

    /// Feeds `arrivals` (`(cycle, is_write, addr)`, token = index) to a
    /// fresh model and returns every `(cycle, token)` completion. With
    /// `step` the model ticks every cycle; otherwise it ticks only when
    /// its own horizon is due, as under the system's event-skipping
    /// engine. Either way each arrival is enqueued at its cycle after that
    /// cycle's tick (if any), and a rejected one retries the next cycle.
    fn run_arrivals(arrivals: &[(u64, bool, u64)], step: bool) -> (Vec<(u64, u64)>, DramStats) {
        let mut dram = DramModel::new(small_cfg());
        let mut queue: std::collections::VecDeque<(u64, usize)> =
            arrivals.iter().enumerate().map(|(i, a)| (a.0, i)).collect();
        let mut out = Vec::new();
        let mut done = Vec::new();
        let mut wake = u64::MAX;
        let mut now = 0u64;
        loop {
            if step || wake <= now {
                dram.tick_into(Cycle(now), &mut done);
                out.extend(done.drain(..).map(|c| (now, c.token)));
                wake = dram.next_event(Cycle(now)).map_or(u64::MAX, |c| c.0);
            }
            let mut rejected = Vec::new();
            while queue.front().is_some_and(|&(at, _)| at <= now) {
                let (_, i) = queue.pop_front().unwrap();
                let (_, is_write, addr) = arrivals[i];
                let sent = if is_write {
                    dram.try_enqueue_write(i as u64, addr, Cycle(now))
                } else {
                    dram.try_enqueue_read(i as u64, addr, Cycle(now))
                };
                if sent.is_err() {
                    rejected.push(i);
                }
            }
            for &i in rejected.iter().rev() {
                queue.push_front((now + 1, i));
            }
            wake = wake.min(dram.next_event(Cycle(now)).map_or(u64::MAX, |c| c.0));
            let next_arrival = queue.front().map_or(u64::MAX, |&(at, _)| at);
            now = match (step, wake.min(next_arrival)) {
                (_, u64::MAX) => break,
                (true, _) => now + 1,
                (false, next) => next,
            };
            assert!(now < 1_000_000, "arrivals never drained");
        }
        (out, dram.stats())
    }

    /// DESIGN.md §10's hysteresis hazard: an issue drops the write queue
    /// to `drain_low` while draining, so stepping ends the drain on the
    /// very next cycle. A write that arrives a few idle cycles later
    /// refills the queue above `drain_low`; if the model were not visited
    /// in between it would still be draining and would serve the write
    /// ahead of the read that stepping serves first.
    #[test]
    fn hysteresis_is_evaluated_before_a_late_enqueue() {
        // Channel 0 lines 4 KiB apart step one bank per row-line
        // (small_cfg: 2 channels, 4 banks, 16 lines per row).
        let row_line = |k: u64| k * 4096;
        let mut arrivals: Vec<(u64, bool, u64)> = (0..6).map(|k| (0, true, row_line(k))).collect();
        // Six writes reach drain_high; the fourth issue (cycle 23) leaves
        // two queued, at drain_low. Seven cycles later, with the model
        // idle until bank 0 frees at cycle 36, a read and a write arrive.
        arrivals.push((30, false, row_line(8)));
        arrivals.push((30, true, row_line(9)));
        let (stepped, step_stats) = run_arrivals(&arrivals, true);
        let (skipped, skip_stats) = run_arrivals(&arrivals, false);
        assert_eq!(skipped, stepped);
        assert_eq!(skip_stats, step_stats);
        // The drain really ended: the late read (token 6) beats the
        // queued write to the same bank (token 4).
        let pos = |t: u64| stepped.iter().position(|&(_, tok)| tok == t).unwrap();
        assert!(pos(6) < pos(4), "{stepped:?}");
    }

    /// Random read/write streams with idle gaps: the horizon-driven model
    /// completes exactly what the stepped model completes, at the same
    /// cycles.
    #[test]
    fn horizon_driven_ticks_match_stepping_on_random_arrivals() {
        for seed in 0..64u64 {
            let mut s = sim_core::rng::Stream::from_parts(&[0xD7A1, seed]);
            let mut at = 0u64;
            let arrivals: Vec<(u64, bool, u64)> = (0..s.gen_range(20, 120))
                .map(|_| {
                    if s.gen_bool(0.2) {
                        at += s.gen_range(1, 60);
                    }
                    (at, s.gen_bool(0.5), s.gen_range(0, 64) * 128 * 7)
                })
                .collect();
            let stepped = run_arrivals(&arrivals, true);
            let skipped = run_arrivals(&arrivals, false);
            assert_eq!(skipped, stepped, "seed {seed}");
            assert_eq!(stepped.0.len(), arrivals.len(), "seed {seed}");
        }
    }

    #[test]
    fn next_event_is_none_when_idle_and_future_otherwise() {
        let mut dram = DramModel::new(small_cfg());
        assert_eq!(dram.next_event(Cycle(0)), None);
        dram.try_enqueue_read(1, 0, Cycle(0)).unwrap();
        let ev = dram.next_event(Cycle(0)).expect("queued work has an event");
        assert!(ev.0 >= 1);
    }

    #[test]
    fn flat_memory_next_event_matches_completion() {
        let mut m = FlatMemory::new(100, 16.0, 128);
        assert_eq!(m.next_event(Cycle(0)), None);
        m.enqueue(1, false, Cycle(0));
        let ev = m.next_event(Cycle(0)).unwrap();
        assert!(m.tick(Cycle(ev.0 - 1)).is_empty());
        assert_eq!(m.tick(ev).len(), 1);
    }

    #[test]
    fn occupancy_report_names_busy_channels_only() {
        let mut dram = DramModel::new(small_cfg());
        assert!(dram.occupancy_report().is_empty());
        dram.try_enqueue_read(1, 0, Cycle(5)).unwrap(); // channel 0
        dram.try_enqueue_write(2, 0, Cycle(7)).unwrap();
        let report = dram.occupancy_report();
        assert_eq!(report.len(), 1);
        assert!(report[0].contains("channel 0"));
        assert!(report[0].contains("read_q=1"));
        assert!(report[0].contains("write_q=1"));
        assert!(report[0].contains("oldest_arrival=5"));
        run_until_done(&mut dram, 5000);
        assert!(dram.occupancy_report().is_empty());
    }

    #[test]
    fn transient_fault_delays_one_read_by_a_full_reaccess() {
        let mut dram = DramModel::new(small_cfg());
        dram.inject_transient_faults(1);
        dram.try_enqueue_read(7, 0, Cycle(0)).unwrap();
        let done = run_until_done(&mut dram, 5000);
        assert_eq!(done.len(), 1, "bounded: the retry still delivers");
        assert_eq!(done[0].token, 7);
        // Clean finish would be 36 (tRCD+tCL+burst); the retransmission
        // adds tRP+tRCD+tCL+burst = 14+14+14+8 = 50 on top.
        assert_eq!(done[0].at, Cycle(86));
        assert_eq!(dram.transient_retries(), 1);
        // Subsequent reads are unaffected once the fault is consumed.
        dram.try_enqueue_read(8, 0x40000, Cycle(1000)).unwrap();
        let done = run_until_done(&mut dram, 5000);
        assert_eq!(done.len(), 1);
        assert_eq!(dram.transient_retries(), 1);
    }

    #[test]
    fn transient_fault_skips_writes_and_keeps_event_horizon_exact() {
        let mut dram = DramModel::new(small_cfg());
        dram.inject_transient_faults(1);
        dram.try_enqueue_write(1, 0, Cycle(0)).unwrap();
        dram.try_enqueue_read(2, 0x10000, Cycle(0)).unwrap();
        // Event-skip discipline must see the retried completion too.
        let by_skip = run_skipping(&mut dram, 10_000);
        assert_eq!(by_skip.len(), 2);
        assert_eq!(dram.transient_retries(), 1, "only the read was faulted");
        assert!(dram.is_idle());
        // Stepping reproduces the same (cycle, token) stream.
        let mut stepped = DramModel::new(small_cfg());
        stepped.inject_transient_faults(1);
        stepped.try_enqueue_write(1, 0, Cycle(0)).unwrap();
        stepped.try_enqueue_read(2, 0x10000, Cycle(0)).unwrap();
        let mut by_step = Vec::new();
        for c in 0..10_000u64 {
            for done in stepped.tick(Cycle(c)) {
                by_step.push((c, done.token));
            }
        }
        assert_eq!(by_skip, by_step);
    }

    #[test]
    fn flat_memory_transient_fault_retries_reads() {
        let mut m = FlatMemory::new(100, 16.0, 128);
        m.inject_transient_faults(1);
        m.enqueue(1, false, Cycle(0));
        let mut done = Vec::new();
        for c in 0..1000u64 {
            done.extend(m.tick(Cycle(c)));
        }
        // Clean: 108. Faulted at delivery, retransmit = +100+8.
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].at, Cycle(216));
        assert_eq!(m.transient_retries(), 1);
    }

    #[test]
    fn stats_row_hit_rate() {
        let mut s = DramStats::default();
        assert_eq!(s.row_hit_rate(), 0.0);
        s.row_hits = 3;
        s.row_misses = 1;
        assert!((s.row_hit_rate() - 0.75).abs() < 1e-12);
    }
}
