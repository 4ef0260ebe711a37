//! Streaming Multiprocessor model.
//!
//! Each SM holds a fixed number of warp slots, filled CTA-by-CTA from a
//! pending queue. Every cycle the SM issues at most one warp instruction
//! from a ready warp (round-robin): compute runs simply occupy the warp for
//! their length; loads translate (TLB latency), probe the per-SM
//! write-through L1 and either complete locally or escalate to the L2;
//! stores are posted write-throughs that do not block the warp. Latency is
//! hidden exactly the way real GPUs hide it — by switching among many
//! resident warps.

use std::collections::VecDeque;

use carve_cache::sram::{AccessKind, SetAssocCache};
use carve_noc::NodeId;
use carve_trace::{Op, WarpGen, WorkloadSpec};
use sim_core::{Cycle, ScaledConfig};

use crate::tlb::Tlb;
use crate::types::{ReqSource, Translator};

/// Geometry and latency parameters of one SM.
#[derive(Debug, Clone, PartialEq)]
pub struct SmParams {
    /// Warp slots (max resident warps).
    pub warps: usize,
    /// Warps per CTA (CTAs are placed whole).
    pub warps_per_cta: usize,
    /// L1 data cache capacity in bytes.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: usize,
    /// Cache line size in bytes.
    pub line_size: u64,
    /// Page size in bytes (for TLB indexing).
    pub page_size: u64,
    /// Latency of an L1 hit in cycles.
    pub l1_hit_latency: u64,
    /// Wake-up delay after an L2/memory fill reaches the SM.
    pub l1_fill_latency: u64,
    /// L1 TLB entries.
    pub l1_tlb_entries: usize,
    /// Added latency when the L1 TLB misses but the shared L2 TLB hits.
    pub l2_tlb_latency: u64,
    /// Added latency of a full page walk.
    pub walk_latency: u64,
}

impl SmParams {
    /// Derives SM parameters from the system configuration.
    pub fn from_config(cfg: &ScaledConfig) -> SmParams {
        SmParams {
            warps: cfg.warps_per_sm,
            warps_per_cta: 4,
            l1_bytes: cfg.l1_bytes_per_sm,
            l1_ways: cfg.l1_ways,
            line_size: cfg.line_size,
            page_size: cfg.page_size,
            l1_hit_latency: cfg.l1_hit_latency,
            l1_fill_latency: 10,
            l1_tlb_entries: cfg.l1_tlb_entries,
            l2_tlb_latency: 20,
            walk_latency: cfg.walk_latency,
        }
    }
}

/// A request escalated from the SM to an L2 bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Req {
    /// Line-aligned address.
    pub line_addr: u64,
    /// Whether this is a (posted) store.
    pub is_store: bool,
    /// Home node resolved at translation time.
    pub home: NodeId,
    /// Originating warp or external token.
    pub source: ReqSource,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplayStage {
    /// Translation done; L1 not yet probed (TLB/migration delay elapsed).
    PreL1,
    /// L1 probed and missed; the L2 queue rejected the request.
    PostL1,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Replay {
    va: u64,
    is_store: bool,
    home: NodeId,
    stage: ReplayStage,
}

/// The cold per-slot payload. A slot's phase lives in the [`Sm`] bitmasks.
#[derive(Debug)]
struct Slot {
    gen: Option<WarpGen>,
    replay: Option<Replay>,
}

/// Per-SM activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmStats {
    /// Warp instructions retired (compute + memory).
    pub instructions: u64,
    /// Loads issued.
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
    /// Issue attempts replayed due to downstream back-pressure.
    pub replays: u64,
}

/// Most warp slots one SM may hold: the width of the phase bitmasks.
pub const MAX_WARPS_PER_SM: usize = 64;

/// One Streaming Multiprocessor.
///
/// Each warp slot is in exactly one phase, kept as one bit in one of
/// three masks: `ready` (may issue now), `blocked` (may issue at
/// `wake_at[slot]`) or `waiting` (parked on a memory fill; only
/// [`Sm::wake_warp`] moves it on). A slot in none of them is vacant.
#[derive(Debug)]
pub struct Sm {
    id: usize,
    params: SmParams,
    l1: SetAssocCache,
    tlb: Tlb,
    slots: Vec<Slot>,
    ready: u64,
    blocked: u64,
    waiting: u64,
    /// Cycle at which each `blocked` slot may issue again.
    wake_at: Vec<u64>,
    /// Every slot bit (`warps` low bits set).
    all: u64,
    pending: VecDeque<(usize, usize)>,
    rr: usize,
    stats: SmStats,
    page_shift: u32,
    line_mask: u64,
}

impl Sm {
    /// Creates SM `id` with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `warps` is 0 or above [`MAX_WARPS_PER_SM`], or if the page
    /// or line size is not a power of two (`SimConfig::validate` rejects
    /// such machines first).
    pub fn new(id: usize, params: SmParams) -> Sm {
        assert!(
            (1..=MAX_WARPS_PER_SM).contains(&params.warps),
            "an SM holds 1..={MAX_WARPS_PER_SM} warps, got {}",
            params.warps
        );
        assert!(params.page_size.is_power_of_two() && params.line_size.is_power_of_two());
        let slots = (0..params.warps)
            .map(|_| Slot {
                gen: None,
                replay: None,
            })
            .collect();
        Sm {
            id,
            l1: SetAssocCache::new(params.l1_bytes, params.l1_ways, params.line_size),
            tlb: Tlb::new(params.l1_tlb_entries),
            slots,
            ready: 0,
            blocked: 0,
            waiting: 0,
            wake_at: vec![0; params.warps],
            all: u64::MAX >> (MAX_WARPS_PER_SM - params.warps),
            pending: VecDeque::new(),
            rr: 0,
            page_shift: params.page_size.trailing_zeros(),
            line_mask: !(params.line_size - 1),
            params,
            stats: SmStats::default(),
        }
    }

    /// Queues a CTA of the given kernel for execution on this SM.
    pub fn enqueue_cta(&mut self, kernel: usize, cta: usize) {
        self.pending.push_back((kernel, cta));
    }

    fn vacant(&self) -> u64 {
        self.all & !(self.ready | self.blocked | self.waiting)
    }

    fn set_ready(&mut self, idx: usize) {
        let bit = 1u64 << idx;
        self.blocked &= !bit;
        self.waiting &= !bit;
        self.ready |= bit;
    }

    fn set_blocked(&mut self, idx: usize, until: u64) {
        let bit = 1u64 << idx;
        self.ready &= !bit;
        self.waiting &= !bit;
        self.blocked |= bit;
        self.wake_at[idx] = until;
    }

    fn set_waiting(&mut self, idx: usize) {
        let bit = 1u64 << idx;
        self.ready &= !bit;
        self.blocked &= !bit;
        self.waiting |= bit;
    }

    fn set_vacant(&mut self, idx: usize) {
        let bit = !(1u64 << idx);
        self.ready &= bit;
        self.blocked &= bit;
        self.waiting &= bit;
    }

    /// Whether a queued CTA fits in the vacant slots right now.
    fn can_fill(&self) -> bool {
        !self.pending.is_empty() && self.vacant().count_ones() as usize >= self.params.warps_per_cta
    }

    // EQUIVALENCE: `step` changes state only through a fillable CTA, a
    // ready warp, or a blocked warp whose `wake_at` has passed (expired
    // blocks join `ready` there). `horizon` is the minimum over exactly
    // those three, so stepping before it is a pure no-op, and callers
    // that skip such cycles retire the same warps in the same order as
    // one that steps every cycle. The only outside inputs that move a
    // slot's phase are `wake_warp` and `fail_l2`, and a caller caching
    // the horizon re-reads it after each (see `GpuCore::wake_warp`).
    /// The earliest cycle at which this SM can act on its own, with
    /// "immediately" represented as 0 (callers clamp to `now + 1`), or
    /// `u64::MAX` when only a memory fill can wake it.
    pub(crate) fn horizon(&self) -> u64 {
        if self.ready != 0 || self.can_fill() {
            return 0;
        }
        let mut min = u64::MAX;
        let mut b = self.blocked;
        while b != 0 {
            min = min.min(self.wake_at[b.trailing_zeros() as usize]);
            b &= b - 1;
        }
        min
    }

    fn try_fill_slots(&mut self, spec: &WorkloadSpec, cfg: &ScaledConfig) {
        while self.can_fill() {
            // audit:allow(tick-path-panics) can_fill checked the queue is non-empty
            let (kernel, cta) = self.pending.pop_front().expect("checked non-empty");
            // Whole CTAs take the lowest vacant slots, in slot order.
            let mut free = self.vacant();
            for warp in 0..self.params.warps_per_cta {
                let idx = free.trailing_zeros() as usize;
                free &= free - 1;
                self.slots[idx].gen = Some(spec.warp_gen(cfg, kernel, cta, warp));
                self.slots[idx].replay = None;
                self.set_ready(idx);
            }
        }
    }

    /// Advances the SM one cycle, possibly escalating one request to L2.
    ///
    /// The caller must deliver the returned request to an L2 bank queue; if
    /// the queue rejects it, call [`Sm::fail_l2`] to restore the warp.
    /// `bank_full(line)` says whether the queue of `line`'s bank is full
    /// right now: a replay of a rejected request into a full queue is
    /// counted and kept here instead of being re-emitted. Stepping an SM
    /// before the earliest cycle it could act on its own (a ready warp, a
    /// fillable CTA, or an expired block) does nothing observable, so
    /// callers may skip such cycles.
    #[allow(clippy::too_many_arguments)]
    pub fn step<T: Translator>(
        &mut self,
        now: Cycle,
        gpu: usize,
        spec: &WorkloadSpec,
        cfg: &ScaledConfig,
        xl: &mut T,
        l2_tlb: &mut Tlb,
        bank_full: impl Fn(u64) -> bool,
    ) -> Option<L2Req> {
        self.try_fill_slots(spec, cfg);
        // Lazy wake: a warp whose block has expired is indistinguishable
        // from `Ready` to every observer (horizons clamp expired times to
        // the floor), so expired warps join the ready set here, where the
        // pick needs them.
        let mut b = self.blocked;
        while b != 0 {
            let idx = b.trailing_zeros() as usize;
            b &= b - 1;
            if self.wake_at[idx] <= now.0 {
                self.set_ready(idx);
            }
        }
        if self.ready == 0 {
            return None;
        }
        // Round-robin: the first ready slot at or after `rr`, else the
        // first ready slot overall.
        let from_rr = self.ready & (u64::MAX << self.rr);
        let idx = if from_rr != 0 {
            from_rr.trailing_zeros()
        } else {
            self.ready.trailing_zeros()
        } as usize;
        self.rr = if idx + 1 == self.params.warps {
            0
        } else {
            idx + 1
        };

        // Replayed op first.
        if let Some(replay) = self.slots[idx].replay.take() {
            return match replay.stage {
                ReplayStage::PreL1 => {
                    self.l1_access(idx, replay.va, replay.is_store, replay.home, now)
                }
                ReplayStage::PostL1 => {
                    // Re-emit the previously rejected L2 request.
                    let line = replay.va; // already line-aligned
                    if bank_full(line) {
                        // Re-emitting it, the rejection and `fail_l2` would
                        // leave exactly this behind: the warp ready, its
                        // replay kept, one more replay counted.
                        self.slots[idx].replay = Some(replay);
                        self.stats.replays += 1;
                        None
                    } else if replay.is_store {
                        Some(L2Req {
                            line_addr: line,
                            is_store: true,
                            home: replay.home,
                            source: ReqSource::Store {
                                sm: self.id,
                                warp: idx,
                            },
                        })
                    } else {
                        self.set_waiting(idx);
                        Some(L2Req {
                            line_addr: line,
                            is_store: false,
                            home: replay.home,
                            source: ReqSource::Warp {
                                sm: self.id,
                                warp: idx,
                            },
                        })
                    }
                }
            };
        }

        // Fresh instruction.
        let op = {
            let gen = self.slots[idx]
                .gen
                .as_mut()
                // audit:allow(tick-path-panics) Ready phase implies a live generator; breaking that is a slot-machine bug, not a run error
                .expect("ready warp has a stream");
            gen.next_op()
        };
        match op {
            None => {
                self.slots[idx].gen = None;
                self.set_vacant(idx);
                None
            }
            Some(Op::Compute(k)) => {
                self.stats.instructions += k as u64;
                // 1 IPC issue: the warp occupies its slot for k cycles.
                self.set_blocked(idx, now.0 + k as u64);
                None
            }
            Some(Op::Load(va)) | Some(Op::Store(va)) => {
                let is_store = matches!(op, Some(Op::Store(_)));
                self.stats.instructions += 1;
                let page = va >> self.page_shift;
                let penalty = if self.tlb.lookup(page) {
                    0
                } else if l2_tlb.lookup(page) {
                    self.params.l2_tlb_latency
                } else {
                    self.params.walk_latency
                };
                let out = xl.translate(gpu, va, is_store, now);
                let mut ready_at = now.0 + penalty;
                if let Some(b) = out.blocked_until {
                    ready_at = ready_at.max(b.0);
                }
                let line = va & self.line_mask;
                if ready_at > now.0 {
                    self.set_blocked(idx, ready_at);
                    self.slots[idx].replay = Some(Replay {
                        va: line,
                        is_store,
                        home: out.home,
                        stage: ReplayStage::PreL1,
                    });
                    return None;
                }
                self.l1_access(idx, line, is_store, out.home, now)
            }
        }
    }

    fn l1_access(
        &mut self,
        idx: usize,
        line: u64,
        is_store: bool,
        home: NodeId,
        now: Cycle,
    ) -> Option<L2Req> {
        let hit = self.l1.probe(line, AccessKind::Read);
        if is_store {
            // Write-through, no-allocate, posted: the warp keeps running.
            self.stats.stores += 1;
            self.set_ready(idx);
            return Some(L2Req {
                line_addr: line,
                is_store: true,
                home,
                source: ReqSource::Store {
                    sm: self.id,
                    warp: idx,
                },
            });
        }
        self.stats.loads += 1;
        if hit {
            self.set_blocked(idx, now.0 + self.params.l1_hit_latency);
            None
        } else {
            self.set_waiting(idx);
            Some(L2Req {
                line_addr: line,
                is_store: false,
                home,
                source: ReqSource::Warp {
                    sm: self.id,
                    warp: idx,
                },
            })
        }
    }

    /// Restores the warp behind a rejected L2 request so it retries.
    ///
    /// # Panics
    ///
    /// Panics if the request did not originate from this SM.
    pub fn fail_l2(&mut self, req: L2Req) {
        let warp = match req.source {
            ReqSource::Warp { sm, warp } | ReqSource::Store { sm, warp } => {
                assert_eq!(sm, self.id, "request belongs to another SM");
                warp
            }
            // audit:allow(tick-path-panics) documented caller-contract panic (see the doc comment above)
            ReqSource::External { .. } => panic!("external requests do not replay via SMs"),
        };
        self.stats.replays += 1;
        self.slots[warp].replay = Some(Replay {
            va: req.line_addr,
            is_store: req.is_store,
            home: req.home,
            stage: ReplayStage::PostL1,
        });
        self.set_ready(warp);
    }

    /// Wakes a memory-blocked warp at `at` (its data has been filled).
    pub fn wake_warp(&mut self, warp: usize, at: Cycle) {
        debug_assert!(
            self.waiting & (1 << warp) != 0,
            "warp {warp} is not waiting"
        );
        self.set_blocked(warp, at.0);
    }

    /// Installs a line in the L1 (L2/memory fill on the return path).
    pub fn fill_l1(&mut self, line_addr: u64, remote: bool) {
        // Write-through L1: evictions are always clean.
        let _ = self.l1.fill(line_addr, remote);
    }

    /// Invalidates the entire L1 (software coherence at kernel boundary).
    pub fn invalidate_l1(&mut self) -> usize {
        self.l1.invalidate_all()
    }

    /// Invalidates one line if present (hardware-coherence probe).
    pub fn invalidate_line(&mut self, line_addr: u64) -> bool {
        self.l1.invalidate(line_addr).is_some()
    }

    /// TLB shootdown for a migrated page.
    pub fn shootdown(&mut self, page: u64) {
        self.tlb.shootdown(page);
    }

    /// Occupied (non-vacant) warp slots.
    pub fn active_warps(&self) -> usize {
        (self.ready | self.blocked | self.waiting).count_ones() as usize
    }

    /// Warps parked waiting for a memory response.
    pub fn warps_waiting_mem(&self) -> usize {
        self.waiting.count_ones() as usize
    }

    /// CTAs queued but not yet resident.
    pub fn pending_ctas(&self) -> usize {
        self.pending.len()
    }

    /// No resident or pending work. Warps waiting on memory keep the SM
    /// non-idle until their fills arrive.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && (self.ready | self.blocked | self.waiting) == 0
    }

    /// Activity counters.
    pub fn stats(&self) -> SmStats {
        self.stats
    }

    /// L1 hit count.
    pub fn l1_hits(&self) -> u64 {
        self.l1.hits()
    }

    /// L1 miss count.
    pub fn l1_misses(&self) -> u64 {
        self.l1.misses()
    }

    /// This SM's index within its GPU.
    pub fn id(&self) -> usize {
        self.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TranslationOutcome;
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

    fn setup() -> (Sm, Tlb, WorkloadSpec, ScaledConfig) {
        let cfg = ScaledConfig::default();
        let spec = workloads::by_name("stream-triad").unwrap();
        let mut sm = Sm::new(0, SmParams::from_config(&cfg));
        sm.enqueue_cta(0, 0);
        (sm, Tlb::new(512), spec, cfg)
    }

    #[test]
    fn sm_issues_and_escalates_misses() {
        let (mut sm, mut l2_tlb, spec, cfg) = setup();
        let mut xl = LocalXl;
        let mut reqs = 0;
        for c in 0..20_000u64 {
            if sm
                .step(Cycle(c), 0, &spec, &cfg, &mut xl, &mut l2_tlb, |_| false)
                .is_some()
            {
                reqs += 1;
            }
        }
        assert!(reqs > 0, "no requests escaped the SM");
        assert!(sm.stats().instructions > 0);
    }

    #[test]
    fn warp_blocks_on_load_until_woken() {
        let (mut sm, mut l2_tlb, spec, cfg) = setup();
        let mut xl = LocalXl;
        // Run until a load miss escapes.
        let mut pending: Option<L2Req> = None;
        let mut cycle = 0u64;
        while pending.is_none() && cycle < 100_000 {
            if let Some(r) = sm.step(Cycle(cycle), 0, &spec, &cfg, &mut xl, &mut l2_tlb, |_| {
                false
            }) {
                if !r.is_store {
                    pending = Some(r);
                }
            }
            cycle += 1;
        }
        let req = pending.expect("expected a load miss");
        let ReqSource::Warp { warp, .. } = req.source else {
            panic!("load source must be a warp")
        };
        sm.fill_l1(req.line_addr, false);
        sm.wake_warp(warp, Cycle(cycle + 5));
        // After wakeup the warp issues again eventually.
        let before = sm.stats().instructions;
        for c in cycle..cycle + 5000 {
            sm.step(Cycle(c), 0, &spec, &cfg, &mut xl, &mut l2_tlb, |_| false);
        }
        assert!(sm.stats().instructions > before);
    }

    #[test]
    fn fail_l2_replays_the_same_line() {
        let (mut sm, mut l2_tlb, spec, cfg) = setup();
        let mut xl = LocalXl;
        let mut first: Option<L2Req> = None;
        let mut cycle = 0u64;
        while first.is_none() && cycle < 100_000 {
            first = sm.step(Cycle(cycle), 0, &spec, &cfg, &mut xl, &mut l2_tlb, |_| {
                false
            });
            cycle += 1;
        }
        let req = first.expect("expected a request");
        sm.fail_l2(req);
        // The next issue from *that warp* re-emits the same line (other
        // warps may issue their own requests in between).
        let source_warp = |s: ReqSource| match s {
            ReqSource::Warp { warp, .. } | ReqSource::Store { warp, .. } => warp,
            ReqSource::External { .. } => usize::MAX,
        };
        let want = source_warp(req.source);
        let mut again = None;
        for c in cycle..cycle + 1000 {
            if let Some(r) = sm.step(Cycle(c), 0, &spec, &cfg, &mut xl, &mut l2_tlb, |_| false) {
                if source_warp(r.source) == want {
                    again = Some(r);
                    break;
                }
            }
        }
        let r2 = again.expect("replay never re-issued");
        assert_eq!(r2.line_addr, req.line_addr);
        assert_eq!(r2.is_store, req.is_store);
        assert_eq!(sm.stats().replays, 1);
    }

    /// One cycle of an SM behind an L2 bank that is full whenever
    /// `c % 4 != 0`: a rejected request goes back through `fail_l2`, an
    /// accepted load is filled 20 cycles later. `short_circuit` chooses
    /// whether `step` is told the bank is full. Returns whether `step`
    /// emitted a request.
    fn step_behind_full_bank(
        (sm, l2_tlb, spec, cfg): &mut (Sm, Tlb, WorkloadSpec, ScaledConfig),
        c: u64,
        short_circuit: bool,
        fills: &mut Vec<(usize, u64)>,
    ) -> bool {
        let full = !c.is_multiple_of(4);
        let req = sm.step(Cycle(c), 0, spec, cfg, &mut LocalXl, l2_tlb, |_| {
            short_circuit && full
        });
        let emitted = req.is_some();
        if let Some(r) = req {
            if full {
                sm.fail_l2(r);
            } else if let ReqSource::Warp { warp, .. } = r.source {
                sm.fill_l1(r.line_addr, false);
                fills.push((warp, c + 20));
            }
        }
        fills.retain(|&(warp, at)| {
            if at == c {
                sm.wake_warp(warp, Cycle(at));
            }
            at > c
        });
        emitted
    }

    #[test]
    fn full_bank_replay_short_circuit_matches_the_reject_path() {
        let (mut fast, mut slow) = (setup(), setup());
        let (mut fast_fills, mut slow_fills) = (Vec::new(), Vec::new());
        let mut short_circuits = 0;
        for c in 0..20_000u64 {
            let fast_out = step_behind_full_bank(&mut fast, c, true, &mut fast_fills);
            let slow_out = step_behind_full_bank(&mut slow, c, false, &mut slow_fills);
            let (fast, slow) = (&fast.0, &slow.0);
            if slow_out && !fast_out {
                short_circuits += 1;
            }
            assert_eq!(fast.rr, slow.rr, "cycle {c}: pick sequence diverged");
            assert_eq!(fast.stats(), slow.stats(), "cycle {c}: counters diverged");
            assert_eq!(
                (fast.ready, fast.blocked, fast.waiting),
                (slow.ready, slow.blocked, slow.waiting),
                "cycle {c}: warp phases diverged"
            );
            for (i, (f, s)) in fast.slots.iter().zip(&slow.slots).enumerate() {
                assert_eq!(f.replay, s.replay, "cycle {c}: slot {i} replay diverged");
            }
        }
        assert!(short_circuits > 100, "only {short_circuits} short-circuits");
        assert!(fast.0.stats().replays > 0 && fast.0.stats().instructions > 0);
    }

    #[test]
    fn sm_drains_to_idle_when_memory_always_hits() {
        let cfg = ScaledConfig::default();
        let spec = workloads::by_name("Bitcoin").unwrap();
        let mut sm = Sm::new(0, SmParams::from_config(&cfg));
        sm.enqueue_cta(0, 0);
        let mut l2_tlb = Tlb::new(512);
        let mut xl = LocalXl;
        let mut waiting: Vec<(usize, u64)> = Vec::new();
        let mut c = 0u64;
        while !sm.is_idle() && c < 3_000_000 {
            if let Some(req) = sm.step(Cycle(c), 0, &spec, &cfg, &mut xl, &mut l2_tlb, |_| false) {
                if let ReqSource::Warp { warp, .. } = req.source {
                    sm.fill_l1(req.line_addr, false);
                    waiting.push((warp, c + 50));
                }
            }
            waiting.retain(|&(warp, at)| {
                if at <= c {
                    sm.wake_warp(warp, Cycle(at));
                    false
                } else {
                    true
                }
            });
            c += 1;
        }
        assert!(sm.is_idle(), "SM failed to drain");
        // One CTA of Bitcoin: 4 warps x 500 instrs.
        let expected = spec.shape.warps_per_cta as u64 * spec.shape.instrs_per_warp as u64;
        assert_eq!(sm.stats().instructions, expected);
    }

    #[test]
    fn cta_fills_whole_warp_groups() {
        let (mut sm, mut l2_tlb, spec, cfg) = setup();
        let mut xl = LocalXl;
        sm.step(Cycle(0), 0, &spec, &cfg, &mut xl, &mut l2_tlb, |_| false);
        assert!(!sm.is_idle());
    }
}
