//! The GPU core: SM cluster + shared TLB + banked memory-side L2.

use std::collections::VecDeque;
use std::sync::Arc;

use carve_cache::mshr::{MshrAllocate, MshrFile};
use carve_cache::sram::{AccessKind, SetAssocCache};
use carve_noc::NodeId;
use carve_trace::WorkloadSpec;
use sim_core::event::{earliest, NextEvent};
use sim_core::fast::{FastSet, Slab};
use sim_core::{BoundedQueue, Cycle, ScaledConfig};

use crate::sm::{L2Req, Sm, SmParams, SmStats};
use crate::tlb::Tlb;
use crate::types::{CoreReqKind, CoreRequest, Fabric, ReqSource, Translator, Waiter};

#[derive(Debug)]
struct Bank {
    queue: BoundedQueue<L2Req>,
    /// First cycle the head may be attempted: after a serviced request,
    /// when the bank is free again; while parked, when the link may accept.
    busy_until: u64,
    /// Cycle of the head's last attempt while it is parked on a congested
    /// link ([`NOT_PARKED`] otherwise): the attempts skipped since are
    /// credited when it next attempts.
    parked_since: u64,
}

/// [`Bank::parked_since`] of a bank with no skipped attempts to credit.
const NOT_PARKED: u64 = u64::MAX;

/// Bookkeeping for one outstanding ReadMiss tag.
#[derive(Debug, Clone, Copy)]
struct MissMeta {
    line: u64,
    home: NodeId,
    /// For an external (remote GPU) read serviced at this home node: the
    /// system token to answer. External reads bypass the MSHR entirely —
    /// merging them into a warp miss whose page migrated away would chain
    /// this node's memory onto another node's in-flight fill and can
    /// deadlock two nodes against each other.
    external_bypass: Option<u64>,
}

/// Aggregate counters for one GPU core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Warp instructions retired.
    pub instructions: u64,
    /// Loads issued by warps.
    pub loads: u64,
    /// Stores issued by warps.
    pub stores: u64,
    /// L1 hits across SMs.
    pub l1_hits: u64,
    /// L1 misses across SMs.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Issue replays due to back-pressure.
    pub replays: u64,
    /// Secondary misses merged in the L2 MSHRs.
    pub mshr_merges: u64,
}

/// Point-in-time warp occupancy of one SM (see [`CoreSnapshot`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmOccupancy {
    /// SM index within its GPU.
    pub id: usize,
    /// Occupied (non-vacant) warp slots.
    pub active_warps: usize,
    /// Warps parked waiting for a memory response.
    pub waiting_mem: usize,
    /// CTAs queued but not yet resident.
    pub pending_ctas: usize,
    /// No resident or pending work.
    pub is_idle: bool,
}

/// Point-in-time occupancy snapshot of a whole GPU core: the single
/// source of truth behind both the watchdog's stall diagnostics and the
/// telemetry sampler.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreSnapshot {
    /// Per-SM warp occupancy, in SM order.
    pub sms: Vec<SmOccupancy>,
    /// Requests queued across all L2 bank queues.
    pub bank_queued: usize,
    /// Outstanding MSHR fills.
    pub mshr_outstanding: usize,
    /// Requests backed up in the outbox.
    pub outbox_backlog: usize,
    /// External-read completions not yet delivered to the system.
    pub undelivered_completions: usize,
}

impl CoreSnapshot {
    /// Occupied warp slots across all SMs.
    pub fn active_warps(&self) -> usize {
        self.sms.iter().map(|s| s.active_warps).sum()
    }

    /// Warps waiting on memory across all SMs.
    pub fn waiting_mem_warps(&self) -> usize {
        self.sms.iter().map(|s| s.waiting_mem).sum()
    }

    /// Human-readable lines naming every occupied structure (empty when
    /// the core is fully idle). Used verbatim in watchdog stall reports.
    pub fn occupancy_report(&self) -> Vec<String> {
        let mut out = Vec::new();
        for sm in &self.sms {
            if !sm.is_idle || sm.waiting_mem > 0 {
                out.push(format!(
                    "sm{}: active_warps={} waiting_mem={} pending_ctas={}",
                    sm.id, sm.active_warps, sm.waiting_mem, sm.pending_ctas,
                ));
            }
        }
        if self.bank_queued > 0 {
            out.push(format!("l2 bank queues: {} queued", self.bank_queued));
        }
        if self.mshr_outstanding > 0 {
            out.push(format!("mshr: {} outstanding fills", self.mshr_outstanding));
        }
        if self.outbox_backlog > 0 {
            out.push(format!(
                "outbox: {} requests backed up",
                self.outbox_backlog
            ));
        }
        if self.undelivered_completions > 0 {
            out.push(format!(
                "external_done: {} completions undelivered",
                self.undelivered_completions
            ));
        }
        out
    }
}

/// One GPU node's compute and cache hierarchy.
///
/// See the crate docs for the system boundary. Construction fixes the
/// workload (warp streams are created internally as CTAs are scheduled).
#[derive(Debug)]
pub struct GpuCore {
    gpu_id: usize,
    spec: WorkloadSpec,
    cfg: ScaledConfig,
    sms: Vec<Sm>,
    l2: SetAssocCache,
    banks: Vec<Bank>,
    mshr: MshrFile<Waiter>,
    /// In-flight ReadMiss state. The slab token *is* the request tag: the
    /// GPU id rides in the top byte (disjoint tag ranges across cores) and
    /// the slot bits make `complete_miss` a direct index — no hashing.
    miss_meta: Slab<MissMeta>,
    outbox: VecDeque<CoreRequest>,
    outbox_cap: usize,
    external_done: Vec<(u64, Cycle)>,
    l2_tlb: Tlb,
    /// `log2(line_size)`: line address → bank select without a division.
    line_shift: u32,
    store_watch: Option<Arc<FastSet>>,
    // EQUIVALENCE: `sm_wake[s]` is SM `s`'s `Sm::horizon`, re-read after
    // every call that can move it: `step` and `fail_l2` in `tick`,
    // `enqueue_cta` in `launch_kernel`, and `wake_warp` on every fill.
    // Nothing else changes a warp's phase or the CTA queue, so an SM
    // whose entry lies in the future would step as a no-op; `tick` skips
    // it and `next_event` folds the entries instead of asking each SM.
    /// Per-SM [`Sm::horizon`]: the cycle each SM may next act on its own
    /// (0 = now, `u64::MAX` = only a fill can wake it). [`GpuCore::tick`]
    /// steps just the SMs whose entry is due.
    sm_wake: Vec<u64>,
    /// SMs with resident or queued work, so [`GpuCore::sms_done`] is O(1).
    busy_sms: usize,
}

impl GpuCore {
    /// Builds GPU `gpu_id` for `spec` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (zero SMs, a bank count or
    /// line size that is not a power of two).
    pub fn new(cfg: &ScaledConfig, spec: &WorkloadSpec, gpu_id: usize) -> GpuCore {
        assert!(cfg.sms_per_gpu > 0 && cfg.l2_banks.is_power_of_two());
        assert!(cfg.line_size.is_power_of_two());
        let mut params = SmParams::from_config(cfg);
        params.warps_per_cta = spec.shape.warps_per_cta;
        assert!(
            params.warps >= params.warps_per_cta,
            "SM must fit at least one CTA ({} warps)",
            params.warps_per_cta
        );
        let sms = (0..cfg.sms_per_gpu)
            .map(|i| Sm::new(i, params.clone()))
            .collect();
        let banks = (0..cfg.l2_banks)
            .map(|_| Bank {
                queue: BoundedQueue::new(16),
                busy_until: 0,
                parked_since: NOT_PARKED,
            })
            .collect();
        GpuCore {
            gpu_id,
            spec: spec.clone(),
            cfg: cfg.clone(),
            sms,
            l2: SetAssocCache::new(cfg.l2_bytes_per_gpu, cfg.l2_ways, cfg.line_size),
            banks,
            mshr: MshrFile::new(cfg.l2_mshrs_per_bank * cfg.l2_banks, 32),
            miss_meta: Slab::with_base((gpu_id as u64) << 56),
            outbox: VecDeque::new(),
            outbox_cap: 64,
            external_done: Vec::new(),
            l2_tlb: Tlb::new(cfg.l2_tlb_entries),
            line_shift: cfg.line_size.trailing_zeros(),
            store_watch: None,
            sm_wake: vec![u64::MAX; cfg.sms_per_gpu],
            busy_sms: 0,
        }
    }

    /// The L2 bank owning `line_addr`.
    fn bank_of(&self, line_addr: u64) -> usize {
        bank_index(line_addr, self.line_shift, self.banks.len())
    }

    /// Wakes warp `warp` of SM `sm` at `at` and pulls that SM's wake in.
    fn wake_warp(&mut self, sm: usize, warp: usize, at: Cycle) {
        self.sms[sm].wake_warp(warp, at);
        self.sm_wake[sm] = self.sm_wake[sm].min(at.0);
    }

    /// Installs the coherence watch list: line addresses whose *local*
    /// stores must be announced via [`CoreReqKind::SharedStoreNotice`]
    /// (hardware coherence only — lines that may be cached remotely).
    pub fn set_store_watch(&mut self, watch: Arc<FastSet>) {
        self.store_watch = Some(watch);
    }

    /// This GPU's node id.
    pub fn node(&self) -> NodeId {
        NodeId::Gpu(self.gpu_id)
    }

    /// Schedules kernel `kernel`'s CTAs `range` onto this GPU's SMs
    /// (round-robin across SMs; each SM runs its CTAs in waves).
    pub fn launch_kernel(&mut self, kernel: usize, range: std::ops::Range<usize>) {
        let n = self.sms.len();
        for (i, cta) in range.enumerate() {
            let s = i % n;
            if self.sms[s].is_idle() {
                self.busy_sms += 1;
            }
            self.sms[s].enqueue_cta(kernel, cta);
            self.sm_wake[s] = self.sms[s].horizon();
        }
    }

    /// Advances the core one cycle: L2 banks service their queues, then
    /// each SM whose wake is due may issue one instruction. Skipping the
    /// other SMs is exact: stepping an SM before its horizon does
    /// nothing observable. A bank whose head stalls on a congested link
    /// parks until [`Fabric::send_ready_at`] (see [`GpuCore::next_event`]),
    /// so callers must tick every cycle or follow `next_event`.
    pub fn tick<T: Translator, F: Fabric>(&mut self, now: Cycle, xl: &mut T, fabric: &F) {
        self.tick_sms(now, xl, fabric, false);
    }

    /// [`GpuCore::tick`] that steps every SM, due or not, and never parks
    /// a bank: the stepping engine's oracle, which consults no wake cycle.
    pub fn tick_all<T: Translator, F: Fabric>(&mut self, now: Cycle, xl: &mut T, fabric: &F) {
        self.tick_sms(now, xl, fabric, true);
    }

    fn tick_sms<T: Translator, F: Fabric>(
        &mut self,
        now: Cycle,
        xl: &mut T,
        fabric: &F,
        all: bool,
    ) {
        for b in 0..self.banks.len() {
            self.process_bank(b, now, fabric, !all);
        }
        for s in 0..self.sms.len() {
            if !all && self.sm_wake[s] > now.0 {
                continue;
            }
            let was_idle = self.sms[s].is_idle();
            let (banks, line_shift) = (&self.banks, self.line_shift);
            let req = self.sms[s].step(
                now,
                self.gpu_id,
                &self.spec,
                &self.cfg,
                xl,
                &mut self.l2_tlb,
                |line| {
                    banks[bank_index(line, line_shift, banks.len())]
                        .queue
                        .is_full()
                },
            );
            if let Some(req) = req {
                let bank = self.bank_of(req.line_addr);
                if let Err(rejected) = self.banks[bank].queue.try_push(req) {
                    self.sms[s].fail_l2(rejected);
                }
            }
            if !was_idle && self.sms[s].is_idle() {
                self.busy_sms -= 1;
            }
            self.sm_wake[s] = self.sms[s].horizon();
        }
    }

    /// Serves bank `b`'s head request at `now`. With `park`, a head that
    /// stalls on a congested link parks its bank instead of re-attempting
    /// every cycle (see the `EQUIVALENCE` note on [`GpuCore::next_event`]).
    fn process_bank<F: Fabric>(&mut self, b: usize, now: Cycle, fabric: &F, park: bool) {
        let bank = &self.banks[b];
        if bank.busy_until > now.0 {
            return;
        }
        let Some(&req) = bank.queue.front() else {
            return;
        };
        if bank.parked_since != NOT_PARKED {
            self.settle_parked(b, now.0);
        }
        let me = NodeId::Gpu(self.gpu_id);
        let local = req.home == me;
        if req.is_store {
            if self.outbox.len() >= self.outbox_cap {
                return; // stall: outbox full
            }
            if local {
                // Coalesced full-line store: allocate + dirty without a
                // memory fetch (write-back local policy).
                if !self.l2.probe(req.line_addr, AccessKind::Write) {
                    if let Some(ev) = self.l2.fill(req.line_addr, false) {
                        self.outbox.push_back(CoreRequest {
                            tag: 0,
                            line_addr: ev.addr,
                            home: me,
                            kind: CoreReqKind::WriteBack,
                            external: false,
                        });
                    }
                    self.l2.mark_dirty(req.line_addr);
                }
                // Announce local writes to potentially-shared lines so the
                // system's IMST can invalidate remote copies.
                if let Some(watch) = &self.store_watch {
                    if watch.contains(req.line_addr) {
                        self.outbox.push_back(CoreRequest {
                            tag: 0,
                            line_addr: req.line_addr,
                            home: me,
                            kind: CoreReqKind::SharedStoreNotice,
                            external: false,
                        });
                    }
                }
            } else {
                if !fabric.can_send(me, req.home, now) {
                    // stall: link congested
                    if park {
                        self.park(b, now, fabric.send_ready_at(me, req.home, now));
                    }
                    return;
                }
                // Refresh any cached copy (stays clean: write-through).
                self.l2.probe(req.line_addr, AccessKind::Read);
                self.outbox.push_back(CoreRequest {
                    tag: 0,
                    line_addr: req.line_addr,
                    home: req.home,
                    kind: CoreReqKind::WriteThrough,
                    external: false,
                });
            }
            self.banks[b].queue.pop();
            self.banks[b].busy_until = now.0 + 2;
            return;
        }

        // Load path (warp or external).
        let waiter = match req.source {
            ReqSource::Warp { sm, warp } => Waiter::Warp { sm, warp },
            ReqSource::External { token } => Waiter::External { token },
            ReqSource::Store { .. } => unreachable!("stores handled above"),
        };
        if self.l2.probe(req.line_addr, AccessKind::Read) {
            let at = Cycle(now.0 + self.cfg.l2_hit_latency);
            match waiter {
                Waiter::Warp { sm, warp } => {
                    self.sms[sm].fill_l1(req.line_addr, !local);
                    self.wake_warp(sm, warp, at);
                }
                Waiter::External { token } => self.external_done.push((token, at)),
            }
            self.banks[b].queue.pop();
            self.banks[b].busy_until = now.0 + 2;
            return;
        }
        // External reads always read this node's memory directly (see
        // MissMeta::external_bypass).
        if let Waiter::External { token } = waiter {
            if self.outbox.len() >= self.outbox_cap {
                return;
            }
            let tag = self.miss_meta.insert(MissMeta {
                line: req.line_addr,
                home: me,
                external_bypass: Some(token),
            });
            self.outbox.push_back(CoreRequest {
                tag,
                line_addr: req.line_addr,
                home: me,
                kind: CoreReqKind::ReadMiss,
                external: true,
            });
            self.banks[b].queue.pop();
            self.banks[b].busy_until = now.0 + 2;
            return;
        }
        // Miss: merge into an in-flight fill when possible.
        if self.mshr.contains(req.line_addr) {
            match self.mshr.allocate(req.line_addr, waiter) {
                MshrAllocate::Secondary => {
                    self.banks[b].queue.pop();
                    self.banks[b].busy_until = now.0 + 1;
                }
                MshrAllocate::Full => {} // waiter list full: stall
                MshrAllocate::Primary => unreachable!("contains() said in-flight"),
            }
            return;
        }
        // Primary miss: needs outbox space and (for remote homes) link room.
        if self.outbox.len() >= self.outbox_cap {
            return;
        }
        if !local && !fabric.can_send(me, req.home, now) {
            if park {
                self.park(b, now, fabric.send_ready_at(me, req.home, now));
            }
            return;
        }
        match self.mshr.allocate(req.line_addr, waiter) {
            MshrAllocate::Full => {} // no MSHR: stall
            MshrAllocate::Secondary => unreachable!("checked not in flight"),
            MshrAllocate::Primary => {
                let tag = self.miss_meta.insert(MissMeta {
                    line: req.line_addr,
                    home: req.home,
                    external_bypass: None,
                });
                self.outbox.push_back(CoreRequest {
                    tag,
                    line_addr: req.line_addr,
                    home: req.home,
                    kind: CoreReqKind::ReadMiss,
                    external: false,
                });
                self.banks[b].queue.pop();
                self.banks[b].busy_until = now.0 + 2;
            }
        }
    }

    /// Parks bank `b`, whose head just stalled at `now` on a link that
    /// stays congested before `ready_at`.
    fn park(&mut self, b: usize, now: Cycle, ready_at: Cycle) {
        let bank = &mut self.banks[b];
        bank.parked_since = now.0;
        bank.busy_until = ready_at.0.max(now.0 + 1);
    }

    /// Credits the attempts parked bank `b` skipped at the cycles strictly
    /// between its last attempt and `until` (each was a load probe that
    /// missed the L2; a store stalls before probing) and unparks it.
    fn settle_parked(&mut self, b: usize, until: u64) {
        let bank = &mut self.banks[b];
        let since = std::mem::replace(&mut bank.parked_since, NOT_PARKED);
        if bank.queue.front().is_some_and(|r| !r.is_store) {
            self.l2.credit_misses(until - since - 1);
        }
    }

    /// Settles and unparks every parked bank so each attempts again at
    /// `now`. The system calls this on every applied fault event: a fault
    /// can reroute or freeze the fabric, and skipped attempts must not
    /// span a freeze. Returns whether any bank was parked, in which case
    /// the core is due at `now`.
    pub fn release_parked(&mut self, now: Cycle) -> bool {
        let mut any = false;
        for b in 0..self.banks.len() {
            if self.banks[b].parked_since != NOT_PARKED {
                self.settle_parked(b, now.0);
                self.banks[b].busy_until = 0;
                any = true;
            }
        }
        any
    }

    /// Delivers data for an outstanding [`CoreReqKind::ReadMiss`]: fills the
    /// L2 (and waiters' L1s), wakes warps and completes external reads.
    ///
    /// Returns `true` when the fill lands on the line of a parked bank's
    /// head, which now hits: the bank attempts again on the next tick, and
    /// the caller must tick the core at `now` if it has not yet this cycle.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is unknown (a response the core never asked for).
    pub fn complete_miss(&mut self, tag: u64, now: Cycle) -> bool {
        let MissMeta {
            line,
            home,
            external_bypass,
        } = self
            .miss_meta
            .remove(tag)
            .expect("complete_miss: unknown tag");
        let me = NodeId::Gpu(self.gpu_id);
        let remote = home != me;
        if let Some(ev) = self.l2.fill(line, remote) {
            self.outbox.push_back(CoreRequest {
                tag: 0,
                line_addr: ev.addr,
                home: me,
                kind: CoreReqKind::WriteBack,
                external: false,
            });
        }
        let bank = self.bank_of(line);
        let bank = &mut self.banks[bank];
        let released = bank.parked_since != NOT_PARKED
            && bank.busy_until > now.0
            && bank.queue.front().is_some_and(|r| r.line_addr == line);
        if released {
            bank.busy_until = 0;
        }
        if let Some(token) = external_bypass {
            // Bypassed external read: answer it without touching the MSHR
            // (a demand fill for the same line may still be in flight).
            self.external_done.push((token, Cycle(now.0 + 2)));
            return released;
        }
        for waiter in self.mshr.complete(line) {
            match waiter {
                Waiter::Warp { sm, warp } => {
                    self.sms[sm].fill_l1(line, remote);
                    self.wake_warp(sm, warp, Cycle(now.0 + 10));
                }
                Waiter::External { token } => {
                    self.external_done.push((token, Cycle(now.0 + 2)));
                }
            }
        }
        released
    }

    /// Enqueues a read arriving from a remote GPU into an L2 bank. Returns
    /// `Err(token)` when the bank queue is full (retry next cycle).
    pub fn external_read(&mut self, token: u64, line_addr: u64) -> Result<(), u64> {
        let bank = self.bank_of(line_addr);
        self.banks[bank]
            .queue
            .try_push(L2Req {
                line_addr,
                is_store: false,
                home: NodeId::Gpu(self.gpu_id),
                source: ReqSource::External { token },
            })
            .map_err(|_| token)
    }

    /// Applies a write arriving from a remote GPU: refreshes any cached
    /// copy (the system separately writes DRAM — memory stays
    /// authoritative).
    pub fn external_write(&mut self, line_addr: u64) {
        if self.l2.contains(line_addr) {
            self.l2.probe(line_addr, AccessKind::Read);
        }
    }

    /// Hardware-coherence invalidate probe: drops the line from L2 and all
    /// L1s. Returns how many copies were dropped.
    pub fn invalidate_line(&mut self, line_addr: u64) -> usize {
        let mut n = 0;
        if self.l2.invalidate(line_addr).is_some() {
            n += 1;
        }
        for sm in &mut self.sms {
            if sm.invalidate_line(line_addr) {
                n += 1;
            }
        }
        n
    }

    /// Software coherence at a kernel boundary: invalidate all L1s and all
    /// remotely-homed L2 lines (NUMA-GPU's LLC extension). Returns the
    /// dirty lines dropped, which the caller must write back. Remote lines
    /// are write-through and normally clean; dirt appears only when a page
    /// *migrated here* after its lines were cached as remote.
    pub fn software_flush(&mut self) -> Vec<u64> {
        for sm in &mut self.sms {
            sm.invalidate_l1();
        }
        self.l2
            .invalidate_remote()
            .into_iter()
            .map(|ev| ev.addr)
            .collect()
    }

    /// Invalidates only the per-SM L1s (every design does this at kernel
    /// boundaries; hardware-coherent designs keep the L2). Returns lines
    /// dropped.
    pub fn invalidate_l1s(&mut self) -> usize {
        self.sms.iter_mut().map(Sm::invalidate_l1).sum()
    }

    /// TLB shootdown across the shared L2 TLB and every SM (page migrated).
    pub fn shootdown(&mut self, page: u64) {
        self.l2_tlb.shootdown(page);
        for sm in &mut self.sms {
            sm.shootdown(page);
        }
    }

    /// Oldest pending outgoing request, if any.
    pub fn outbox_front(&self) -> Option<&CoreRequest> {
        self.outbox.front()
    }

    /// Removes and returns the oldest outgoing request.
    pub fn outbox_pop(&mut self) -> Option<CoreRequest> {
        self.outbox.pop_front()
    }

    /// Takes all completed external reads `(token, ready_at)`.
    pub fn drain_external_done(&mut self) -> Vec<(u64, Cycle)> {
        std::mem::take(&mut self.external_done)
    }

    /// Moves all completed external reads into `out`, preserving both
    /// vectors' capacity (hot-path variant of [`Self::drain_external_done`]).
    pub fn drain_external_done_into(&mut self, out: &mut Vec<(u64, Cycle)>) {
        out.append(&mut self.external_done);
    }

    /// True when every SM is drained, no fills are outstanding and the
    /// outbox is empty.
    pub fn is_idle(&self) -> bool {
        self.busy_sms == 0
            && self.mshr.is_empty()
            && self.banks.iter().all(|b| b.queue.is_empty())
            && self.outbox.is_empty()
            && self.external_done.is_empty()
    }

    /// True when SMs have no work but fills may still be in flight.
    pub fn sms_done(&self) -> bool {
        self.busy_sms == 0
    }

    /// [`GpuCore::stats`] as the stepping engine reads them just before
    /// the tick at `end`: parked banks' skipped probes at the cycles below
    /// `end` count as L2 misses. `end` must lie after every tick so far.
    pub fn stats_before(&self, end: Cycle) -> CoreStats {
        let mut s = self.stats();
        for bank in &self.banks {
            if bank.parked_since != NOT_PARKED && bank.queue.front().is_some_and(|r| !r.is_store) {
                s.l2_misses += end.0.saturating_sub(bank.parked_since + 1);
            }
        }
        s
    }

    /// Aggregated statistics. A parked bank's skipped probes are counted
    /// when it attempts again or is released (see
    /// [`GpuCore::stats_before`]); an idle core has none outstanding.
    pub fn stats(&self) -> CoreStats {
        let mut s = CoreStats {
            l2_hits: self.l2.hits(),
            l2_misses: self.l2.misses(),
            mshr_merges: self.mshr.merged(),
            ..Default::default()
        };
        for sm in &self.sms {
            let SmStats {
                instructions,
                loads,
                stores,
                replays,
            } = sm.stats();
            s.instructions += instructions;
            s.loads += loads;
            s.stores += stores;
            s.replays += replays;
            s.l1_hits += sm.l1_hits();
            s.l1_misses += sm.l1_misses();
        }
        s
    }

    /// GPU index of this core.
    pub fn gpu_id(&self) -> usize {
        self.gpu_id
    }

    /// Read-only view of the SMs (profiler classification).
    pub fn sms(&self) -> &[Sm] {
        &self.sms
    }

    /// True when the L2 MSHR file has no free entry: the next primary miss
    /// is a structural stall.
    pub fn mshr_is_full(&self) -> bool {
        self.mshr.is_full()
    }

    /// Number of outstanding L2 fills.
    pub fn mshr_outstanding(&self) -> usize {
        self.mshr.len()
    }

    /// True when the outbox to the fabric is at capacity (back-pressure).
    pub fn outbox_is_full(&self) -> bool {
        self.outbox.len() >= self.outbox_cap
    }

    /// Total requests queued at the L2 banks.
    pub fn bank_queued(&self) -> usize {
        self.banks.iter().map(|b| b.queue.len()).sum()
    }

    /// Diagnostic lines describing everything still occupied in this core:
    /// busy SMs (active/memory-waiting warps, queued CTAs), L2 bank queue
    /// depths, outstanding MSHR fills, outbox backlog, and undelivered
    /// external completions. Empty when the core is idle.
    pub fn occupancy_report(&self) -> Vec<String> {
        self.snapshot().occupancy_report()
    }

    /// Point-in-time occupancy of every structure in the core: per-SM
    /// warp states, L2 bank queues, MSHRs, outbox, undelivered external
    /// completions. Read-only; shared by the watchdog diagnostics and the
    /// telemetry sampler.
    pub fn snapshot(&self) -> CoreSnapshot {
        CoreSnapshot {
            sms: self
                .sms
                .iter()
                .map(|sm| SmOccupancy {
                    id: sm.id(),
                    active_warps: sm.active_warps(),
                    waiting_mem: sm.warps_waiting_mem(),
                    pending_ctas: sm.pending_ctas(),
                    is_idle: sm.is_idle(),
                })
                .collect(),
            bank_queued: self.banks.iter().map(|b| b.queue.len()).sum(),
            mshr_outstanding: self.mshr.len(),
            outbox_backlog: self.outbox.len(),
            undelivered_completions: self.external_done.len(),
        }
    }
}

/// The bank of `line_addr` among `banks` (a power of two): lines
/// interleave across banks.
fn bank_index(line_addr: u64, line_shift: u32, banks: usize) -> usize {
    ((line_addr >> line_shift) as usize) & (banks - 1)
}

// EQUIVALENCE: back-pressure parking. A bank head that stalls because
// `Fabric::can_send` refuses its link (a remote primary miss or a remote
// store) parks its bank until `Fabric::send_ready_at`, a lower bound on
// the first cycle the link can accept (a link's next free slot only
// grows). Until then every attempt stepping would make stalls the same
// way: only a fill can bring the head's line into the L2, and it releases
// the bank (`complete_miss`); only this bank can put the line in the MSHR
// file; and an outbox that fills up meanwhile stalls the head with the
// same side effects. So each
// skipped attempt is worth one L2 miss and one LRU-clock tick for a load
// (stores stall before probing), credited in one step when the bank next
// attempts (`settle_parked`). Deferring clock ticks keeps every LRU
// stamp in the same order, so victims do not change. The credit assumes
// stepping attempted at every cycle in the window, which only a freeze
// breaks; the system releases all parked banks, settling the credit, at
// every applied fault event, since a fault can also reroute the link. A
// fill of the head's line makes the core due at once (the head hits on
// that cycle), and mid-window readers of the miss count use
// `stats_before`. `tick_all` never parks, so the stepping engine checks
// all of this.
impl NextEvent for GpuCore {
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let floor = now.0 + 1;
        // Pending outgoing traffic and completed external reads are drained
        // by the system every tick — make that tick happen promptly.
        if !self.outbox.is_empty() || !self.external_done.is_empty() {
            return Some(Cycle(floor));
        }
        let mut horizon: Option<Cycle> = None;
        for bank in &self.banks {
            // A non-empty bank queue must be ticked every cycle once its
            // busy window ends: each attempt whose head misses the L2
            // moves the LRU clock and the miss counter even when the head
            // then stalls. A bank parked on a congested link counts as
            // busy until the link may accept (see the note above).
            if !bank.queue.is_empty() {
                let at = bank.busy_until.max(floor);
                if at == floor {
                    return Some(Cycle(floor));
                }
                horizon = earliest(horizon, Some(Cycle(at)));
            }
        }
        let sm_min = self.sm_wake.iter().copied().min().unwrap_or(u64::MAX);
        if sm_min != u64::MAX {
            horizon = earliest(horizon, Some(Cycle(sm_min.max(floor))));
        }
        horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{TranslationOutcome, UnboundedFabric};
    use carve_trace::workloads;

    struct LocalXl;
    impl Translator for LocalXl {
        fn translate(&mut self, gpu: usize, _va: u64, _w: bool, _now: Cycle) -> TranslationOutcome {
            TranslationOutcome {
                home: NodeId::Gpu(gpu),
                blocked_until: None,
            }
        }
    }

    /// Runs a core standalone, answering every outbox read after `lat`
    /// cycles — a minimal stand-in for the system model.
    fn run_core(core: &mut GpuCore, lat: u64, limit: u64) -> u64 {
        let mut xl = LocalXl;
        let fabric = UnboundedFabric;
        let mut pending: Vec<(u64, u64)> = Vec::new();
        let mut c = 0u64;
        while c < limit {
            core.tick(Cycle(c), &mut xl, &fabric);
            while let Some(req) = core.outbox_front().copied() {
                core.outbox_pop();
                if req.kind == CoreReqKind::ReadMiss {
                    pending.push((req.tag, c + lat));
                }
            }
            let mut i = 0;
            while i < pending.len() {
                if pending[i].1 <= c {
                    let (tag, _) = pending.swap_remove(i);
                    core.complete_miss(tag, Cycle(c));
                } else {
                    i += 1;
                }
            }
            if core.is_idle() {
                break;
            }
            c += 1;
        }
        c
    }

    #[test]
    fn core_runs_one_kernel_to_completion() {
        let cfg = ScaledConfig::default();
        let spec = workloads::by_name("Bitcoin").unwrap();
        let mut core = GpuCore::new(&cfg, &spec, 0);
        core.launch_kernel(0, 0..8);
        let cycles = run_core(&mut core, 100, 10_000_000);
        assert!(core.is_idle(), "core did not drain");
        let expected = 8 * spec.shape.warps_per_cta as u64 * spec.shape.instrs_per_warp as u64;
        assert_eq!(core.stats().instructions, expected);
        assert!(cycles > 0);
    }

    #[test]
    fn instructions_exact_for_all_ctas() {
        let cfg = ScaledConfig::default();
        let spec = workloads::by_name("stream-triad").unwrap();
        let mut core = GpuCore::new(&cfg, &spec, 0);
        core.launch_kernel(0, 0..32);
        run_core(&mut core, 60, 20_000_000);
        assert!(core.is_idle());
        let expected = 32 * spec.shape.warps_per_cta as u64 * spec.shape.instrs_per_warp as u64;
        assert_eq!(core.stats().instructions, expected);
    }

    #[test]
    fn l1_and_l2_filter_accesses() {
        let cfg = ScaledConfig::default();
        let spec = workloads::by_name("stream-triad").unwrap();
        let mut core = GpuCore::new(&cfg, &spec, 0);
        core.launch_kernel(0, 0..8);
        run_core(&mut core, 60, 20_000_000);
        let s = core.stats();
        assert!(s.loads > 0);
        assert!(s.l1_hits + s.l1_misses >= s.loads);
    }

    #[test]
    fn external_read_hits_after_fill() {
        let cfg = ScaledConfig::default();
        let spec = workloads::by_name("Bitcoin").unwrap();
        let mut core = GpuCore::new(&cfg, &spec, 1);
        // Pre-fill a line via an external read that misses, completing it.
        core.external_read(77, 0x4000).unwrap();
        let mut xl = LocalXl;
        let fabric = UnboundedFabric;
        let mut tag = None;
        for c in 0..100u64 {
            core.tick(Cycle(c), &mut xl, &fabric);
            if let Some(req) = core.outbox_front().copied() {
                core.outbox_pop();
                assert_eq!(req.kind, CoreReqKind::ReadMiss);
                tag = Some(req.tag);
                break;
            }
        }
        core.complete_miss(tag.expect("miss must escape"), Cycle(50));
        let done = core.drain_external_done();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, 77);
        // Second external read now hits in L2.
        core.external_read(78, 0x4000).unwrap();
        for c in 51..80u64 {
            core.tick(Cycle(c), &mut xl, &fabric);
        }
        let done = core.drain_external_done();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, 78);
    }

    #[test]
    fn invalidate_line_drops_copies() {
        let cfg = ScaledConfig::default();
        let spec = workloads::by_name("Bitcoin").unwrap();
        let mut core = GpuCore::new(&cfg, &spec, 0);
        core.external_read(1, 0x8000).unwrap();
        let mut xl = LocalXl;
        let fabric = UnboundedFabric;
        for c in 0..50u64 {
            core.tick(Cycle(c), &mut xl, &fabric);
        }
        if let Some(req) = core.outbox_pop() {
            core.complete_miss(req.tag, Cycle(60));
        }
        assert!(core.invalidate_line(0x8000) > 0);
        assert_eq!(core.invalidate_line(0x8000), 0);
    }

    /// Homes loads on GPU 3 and stores locally, so load misses queue at
    /// the bank heads.
    struct RemoteLoadsXl;
    impl Translator for RemoteLoadsXl {
        fn translate(&mut self, gpu: usize, _va: u64, w: bool, _now: Cycle) -> TranslationOutcome {
            TranslationOutcome {
                home: NodeId::Gpu(if w { gpu } else { 3 }),
                blocked_until: None,
            }
        }
    }

    /// A fabric whose links all stay congested before cycle `.0`.
    struct CongestedUntil(u64);
    impl Fabric for CongestedUntil {
        fn can_send(&self, _src: NodeId, _dst: NodeId, now: Cycle) -> bool {
            now.0 >= self.0
        }
        fn send_ready_at(&self, _src: NodeId, _dst: NodeId, _now: Cycle) -> Cycle {
            Cycle(self.0)
        }
    }

    const CONGESTED_UNTIL: u64 = 20_000;

    /// GPU 0 running one CTA that loads from GPU 3.
    fn remote_core() -> GpuCore {
        let cfg = ScaledConfig::default();
        let spec = workloads::by_name("stream-triad").unwrap();
        let mut core = GpuCore::new(&cfg, &spec, 0);
        core.launch_kernel(0, 0..1);
        core
    }

    /// The first bank parked with a load at its head, if any.
    fn parked_load_bank(core: &GpuCore) -> Option<usize> {
        core.banks.iter().position(|b| {
            b.parked_since != NOT_PARKED && b.queue.front().is_some_and(|r| !r.is_store)
        })
    }

    /// Drives `core` the way the event-skipping engine does, ticking only
    /// at the cycles `next_event` names, from `from` until the next tick
    /// would pass `until`. Outgoing requests are logged with their cycle
    /// and never answered. Returns the cycle of the next tick.
    fn tick_by_events(
        core: &mut GpuCore,
        from: u64,
        until: u64,
        log: &mut Vec<(u64, CoreRequest)>,
    ) -> u64 {
        let fabric = CongestedUntil(CONGESTED_UNTIL);
        let mut c = from;
        while c <= until {
            core.tick(Cycle(c), &mut RemoteLoadsXl, &fabric);
            while let Some(req) = core.outbox_pop() {
                log.push((c, req));
            }
            c = core.next_event(Cycle(c)).map_or(u64::MAX, |n| n.0);
        }
        c
    }

    /// [`tick_by_events`] for the stepping engine: every cycle, `tick_all`.
    fn tick_every_cycle(
        core: &mut GpuCore,
        from: u64,
        until: u64,
        log: &mut Vec<(u64, CoreRequest)>,
    ) {
        let fabric = CongestedUntil(CONGESTED_UNTIL);
        for c in from..=until {
            core.tick_all(Cycle(c), &mut RemoteLoadsXl, &fabric);
            while let Some(req) = core.outbox_pop() {
                log.push((c, req));
            }
        }
    }

    #[test]
    fn stalled_remote_miss_parks_its_bank_until_the_link_frees() {
        let mid = CONGESTED_UNTIL / 2;
        let end = CONGESTED_UNTIL + 2_000;
        let (mut skip, mut step) = (remote_core(), remote_core());
        let (mut skip_log, mut step_log) = (Vec::new(), Vec::new());
        // Every warp soon waits on a remote load, and the bank heads park:
        // the core's next event is the cycle the link frees.
        let next = tick_by_events(&mut skip, 0, mid, &mut skip_log);
        assert_eq!(
            next, CONGESTED_UNTIL,
            "parked core must sleep to the link's free cycle"
        );
        assert!(
            parked_load_bank(&skip).is_some(),
            "a remote miss head must park"
        );
        // Mid-window, the settled miss count is what stepping has counted.
        tick_every_cycle(&mut step, 0, mid - 1, &mut step_log);
        assert_eq!(skip.stats_before(Cycle(mid)), step.stats());
        assert!(skip.stats().l2_misses < step.stats().l2_misses);
        // After the link frees, both engines agree on every count and on
        // every request and the cycle it left.
        tick_by_events(&mut skip, next, end, &mut skip_log);
        tick_every_cycle(&mut step, mid, end, &mut step_log);
        assert!(skip.banks.iter().all(|b| b.parked_since == NOT_PARKED));
        assert_eq!(skip.stats(), step.stats());
        assert_eq!(skip_log, step_log);
        assert!(skip_log.iter().any(|&(c, _)| c >= CONGESTED_UNTIL));
    }

    #[test]
    fn fill_of_a_parked_heads_line_makes_it_hit_that_cycle() {
        // Learn the line a parked head waits on.
        let mut probe = remote_core();
        tick_by_events(&mut probe, 0, 1_000, &mut Vec::new());
        let b = parked_load_bank(&probe).expect("a remote miss head must park");
        let line = probe.banks[b].queue.front().unwrap().line_addr;

        // Both engines: an external read of that line misses first (an
        // L2 bypass toward this GPU's memory), then the same CTA runs.
        let cfg = ScaledConfig::default();
        let spec = workloads::by_name("stream-triad").unwrap();
        let mut cores = [GpuCore::new(&cfg, &spec, 0), GpuCore::new(&cfg, &spec, 0)];
        let mut tags = [0; 2];
        for (core, tag) in cores.iter_mut().zip(&mut tags) {
            core.external_read(77, line).unwrap();
            core.tick_all(
                Cycle(0),
                &mut RemoteLoadsXl,
                &CongestedUntil(CONGESTED_UNTIL),
            );
            let req = core.outbox_pop().expect("external read must miss");
            assert!(req.external && req.line_addr == line);
            *tag = req.tag;
            core.launch_kernel(0, 0..1);
        }
        let [mut skip, mut step] = cores;
        let (mut skip_log, mut step_log) = (Vec::new(), Vec::new());
        let fill_at = 5_000;
        let next = tick_by_events(&mut skip, 1, fill_at - 1, &mut skip_log);
        assert!(next > fill_at, "the core must be asleep at the fill");
        assert_eq!(skip.banks[b].queue.front().unwrap().line_addr, line);
        tick_every_cycle(&mut step, 1, fill_at - 1, &mut step_log);

        // The bypass fill lands on the parked head's line: the core is due
        // at once, and the head hits on this very cycle under both engines.
        assert!(skip.complete_miss(tags[0], Cycle(fill_at)));
        assert!(!step.complete_miss(tags[1], Cycle(fill_at)));
        let hits = step.stats().l2_hits;
        tick_by_events(&mut skip, fill_at, fill_at, &mut skip_log);
        tick_every_cycle(&mut step, fill_at, fill_at, &mut step_log);
        assert_eq!(step.stats().l2_hits, hits + 1, "the head must hit");
        assert_eq!(skip.stats(), step.stats());
        assert_ne!(skip.banks[b].queue.front().map(|r| r.line_addr), Some(line));

        let end = CONGESTED_UNTIL + 2_000;
        let next = skip.next_event(Cycle(fill_at)).unwrap().0;
        tick_by_events(&mut skip, next, end, &mut skip_log);
        tick_every_cycle(&mut step, fill_at + 1, end, &mut step_log);
        assert_eq!(skip.stats(), step.stats());
        assert_eq!(skip_log, step_log);
    }

    #[test]
    fn software_flush_clears_remote_l2_lines() {
        let cfg = ScaledConfig::default();
        let spec = workloads::by_name("Bitcoin").unwrap();
        struct RemoteXl;
        impl Translator for RemoteXl {
            fn translate(
                &mut self,
                _gpu: usize,
                _va: u64,
                _w: bool,
                _now: Cycle,
            ) -> TranslationOutcome {
                TranslationOutcome {
                    home: NodeId::Gpu(3),
                    blocked_until: None,
                }
            }
        }
        let mut core = GpuCore::new(&cfg, &spec, 0);
        core.launch_kernel(0, 0..4);
        let mut xl = RemoteXl;
        let fabric = UnboundedFabric;
        let mut filled = 0;
        for c in 0..200_000u64 {
            core.tick(Cycle(c), &mut xl, &fabric);
            while let Some(req) = core.outbox_front().copied() {
                core.outbox_pop();
                if req.kind == CoreReqKind::ReadMiss {
                    core.complete_miss(req.tag, Cycle(c));
                    filled += 1;
                }
            }
            if filled > 32 {
                break;
            }
        }
        assert!(filled > 0);
        let dirty = core.software_flush();
        assert!(dirty.is_empty(), "write-through remote lines must be clean");
    }
}
