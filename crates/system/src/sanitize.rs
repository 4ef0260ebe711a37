//! Shadow protocol sanitizer — a "TSan for GPU-VI/SWC".
//!
//! When enabled ([`crate::design::SimConfig::sanitize`], which binaries
//! set from `CARVE_SANITIZE=1`), the engine mirrors every coherence-relevant event
//! into the [`Sanitizer`], which maintains an independent shadow of what
//! the protocol *promised* (granted remote copies, directory membership,
//! RDC residency supersets, epoch counters, token lifecycle, message
//! conservation) and cross-checks the models against it. The first breach
//! is latched and surfaced as
//! [`SimError::SanitizerViolation`](sim_core::SimError::SanitizerViolation).
//!
//! The sanitizer is strictly read-only over model state — like interval
//! telemetry, a sanitized run's aggregates are bit-identical to an
//! unsanitized run's, and the cost when off is one `Option` check per
//! event.
//!
//! Invariants checked (names appear in diagnostics):
//!
//! * `gpu-vi-single-writer` — a hardware-coherence write's invalidate
//!   targets must cover every granted remote copy (minus the writer).
//! * `imst-agreement` — a remote-read grant must leave the home IMST in a
//!   shared state (`ReadShared`/`ReadWriteShared`).
//! * `directory-agreement` — under directory mode the home directory must
//!   record each grantee, and write targets must equal the granted set
//!   exactly (evictions are never reported, so neither side shrinks).
//! * `swc-epoch-monotonic` / `swc-invalidate-complete` — RDC epochs bump
//!   by exactly one (or roll over to zero from `EPOCH_MAX`) only at
//!   software-coherence kernel boundaries, after which no previously
//!   inserted line may remain resident.
//! * `rdc-inclusion` / `rdc-exclusion` / `rdc-invalidate-incomplete` —
//!   an RDC probe hit implies the line was inserted (silent evictions
//!   only shrink the cache, so the shadow insert set is a superset of
//!   residency); only remote (or, in footnote-2 mode, system-memory)
//!   lines may be inserted; an invalidate probe must leave the line
//!   non-resident.
//! * `token-lifecycle` — slab tokens are minted strictly increasing and
//!   never resurrected; a completion or delivery for a token with no
//!   live slab entry must carry the untracked sentinel slot.
//! * `noc-conservation` — deliveries never exceed sends, counts are
//!   monotonic, and a finished run has delivered every sent message.
//! * `noc-hop-conservation` — per transit node (switches, and GPUs on a
//!   ring), forwarded messages never exceed those received, the counters
//!   are monotonic, and a finished run has forwarded every transit
//!   arrival (nothing dropped inside the fabric).
//! * `dram-timing` — forwarded from [`carve_dram::TimingAudit`] (bus
//!   overlap, bank recovery, row-hit legality, CAS floor).

use std::collections::{HashMap, HashSet};

use carve::{Carve, CoherencePolicy, SharingState, EPOCH_MAX};
use sim_core::fast::{Slab, SLOT_MASK, UNTRACKED_SLOT};

/// A latched invariant breach (first one wins; later events are ignored
/// so the diagnostic names the root cause, not knock-on effects).
#[derive(Debug)]
pub(crate) struct Violation {
    pub invariant: &'static str,
    pub cycle: u64,
    pub detail: String,
}

/// The shadow checker. One instance per run, fed by hooks in
/// `crate::sim`; owns no model state and never mutates any.
pub(crate) struct Sanitizer {
    num_gpus: usize,
    policy: Option<CoherencePolicy>,
    directory_mode: bool,
    rdc_caches_sysmem: bool,
    /// Per home node: line -> bitmask of GPUs granted a remote copy
    /// (64 bits, matching [`carve_noc::MAX_GPUS`]). An overapproximation
    /// of true copies (in-flight invalidates may already have killed
    /// one), which is the safe direction for the write-target coverage
    /// check.
    granted: Vec<HashMap<u64, u64>>,
    /// Per GPU: every line inserted into the RDC since its last epoch
    /// clear — a superset of residency, since conflict evictions are
    /// silent and only shrink the cache.
    rdc_inserted: Vec<HashSet<u64>>,
    /// Per GPU: shadow of the RDC epoch counter.
    epochs: Vec<u32>,
    /// Live slab tokens observed at the previous poll.
    prev_live: HashSet<u64>,
    /// Highest token ever observed live.
    max_token: u64,
    prev_sent: u64,
    prev_delivered: u64,
    /// Per transit node: `(received, forwarded)` as of the previous poll.
    prev_hops: Vec<(u64, u64)>,
    violation: Option<Violation>,
}

impl Sanitizer {
    pub(crate) fn new(
        num_gpus: usize,
        policy: Option<CoherencePolicy>,
        directory_mode: bool,
        rdc_caches_sysmem: bool,
    ) -> Sanitizer {
        Sanitizer {
            num_gpus,
            policy,
            directory_mode,
            rdc_caches_sysmem,
            granted: (0..num_gpus).map(|_| HashMap::new()).collect(),
            rdc_inserted: (0..num_gpus).map(|_| HashSet::new()).collect(),
            epochs: vec![0; num_gpus],
            prev_live: HashSet::new(),
            max_token: 0,
            prev_sent: 0,
            prev_delivered: 0,
            prev_hops: Vec::new(),
            violation: None,
        }
    }

    fn fail(&mut self, invariant: &'static str, cycle: u64, detail: String) {
        if self.violation.is_none() {
            self.violation = Some(Violation {
                invariant,
                cycle,
                detail,
            });
        }
    }

    /// Takes the latched violation, if any.
    pub(crate) fn take_violation(&mut self) -> Option<Violation> {
        self.violation.take()
    }

    fn hardware(&self) -> bool {
        self.policy == Some(CoherencePolicy::Hardware)
    }

    // -----------------------------------------------------------------
    // GPU-VI / IMST / directory shadow

    /// A remote read reached its home node and was granted a copy
    /// (`carve::Carve::on_home_read` just ran). `state` is the home
    /// IMST's post-grant state; `dir_has` is whether the home directory
    /// now records the requester (None outside directory mode).
    pub(crate) fn on_grant(
        &mut self,
        home: usize,
        line: u64,
        requester: usize,
        state: SharingState,
        dir_has: Option<bool>,
        cycle: u64,
    ) {
        if self.violation.is_some() || !self.hardware() || requester == home {
            return;
        }
        if !matches!(
            state,
            SharingState::ReadShared | SharingState::ReadWriteShared
        ) {
            self.fail(
                "imst-agreement",
                cycle,
                format!(
                    "home {home} granted line {line:#x} to gpu {requester} but its IMST \
                     reports {state:?} (expected ReadShared or ReadWriteShared)"
                ),
            );
            return;
        }
        if self.directory_mode && dir_has != Some(true) {
            self.fail(
                "directory-agreement",
                cycle,
                format!(
                    "home {home} granted line {line:#x} to gpu {requester} but its \
                     directory does not record the sharer"
                ),
            );
            return;
        }
        *self.granted[home].entry(line).or_insert(0) |= 1 << requester;
    }

    /// An invalidate for `line` was sent (or locally applied) from `home`
    /// toward `target`: the granted copy, if any, is revoked.
    pub(crate) fn on_invalidate_send(&mut self, home: usize, line: u64, target: usize) {
        if self.violation.is_some() || !self.hardware() {
            return;
        }
        if let Some(mask) = self.granted[home].get_mut(&line) {
            *mask &= !(1 << target);
            if *mask == 0 {
                self.granted[home].remove(&line);
            }
        }
    }

    /// A write reached `home` and coherence decided on `targets`. Under
    /// broadcast GPU-VI the targets must *cover* every granted remote
    /// copy; under directory mode they must *equal* it.
    pub(crate) fn on_write(
        &mut self,
        home: usize,
        line: u64,
        writer: usize,
        targets: &[usize],
        cycle: u64,
    ) {
        if self.violation.is_some() || !self.hardware() {
            return;
        }
        let granted = self.granted[home].get(&line).copied().unwrap_or(0);
        let expected = granted & !(1u64 << writer);
        let mut tmask = 0u64;
        for &t in targets {
            tmask |= 1 << t;
        }
        if self.directory_mode {
            if tmask != expected {
                self.fail(
                    "directory-agreement",
                    cycle,
                    format!(
                        "write by gpu {writer} to line {line:#x} at home {home}: directory \
                         targeted mask {tmask:#06b} but granted copies are {expected:#06b}"
                    ),
                );
            }
        } else if tmask & expected != expected {
            self.fail(
                "gpu-vi-single-writer",
                cycle,
                format!(
                    "write by gpu {writer} to line {line:#x} at home {home}: invalidate \
                     targets mask {tmask:#06b} misses granted copies {expected:#06b}"
                ),
            );
        }
    }

    // -----------------------------------------------------------------
    // RDC shadow

    /// An RDC probe completed with outcome `hit`.
    pub(crate) fn on_rdc_probe(&mut self, gpu: usize, line: u64, hit: bool, cycle: u64) {
        if self.violation.is_some() {
            return;
        }
        if hit && !self.rdc_inserted[gpu].contains(&line) {
            self.fail(
                "rdc-inclusion",
                cycle,
                format!(
                    "gpu {gpu} RDC probe hit line {line:#x} that was never inserted \
                     this epoch"
                ),
            );
        }
    }

    /// A line was inserted into `gpu`'s RDC; `home` is its home node
    /// (`usize::MAX` for system memory).
    pub(crate) fn on_rdc_insert(&mut self, gpu: usize, line: u64, home: usize, cycle: u64) {
        if self.violation.is_some() {
            return;
        }
        if home == gpu {
            self.fail(
                "rdc-exclusion",
                cycle,
                format!("gpu {gpu} inserted locally-homed line {line:#x} into its RDC"),
            );
            return;
        }
        if home == usize::MAX && !self.rdc_caches_sysmem {
            self.fail(
                "rdc-exclusion",
                cycle,
                format!(
                    "gpu {gpu} inserted system-memory line {line:#x} into its RDC \
                     without rdc_caches_sysmem"
                ),
            );
            return;
        }
        self.rdc_inserted[gpu].insert(line);
    }

    /// An invalidate probe was applied to `gpu`'s RDC;
    /// `resident_after` is whether the line is still resident.
    pub(crate) fn on_rdc_invalidate(
        &mut self,
        gpu: usize,
        line: u64,
        resident_after: bool,
        cycle: u64,
    ) {
        if self.violation.is_some() {
            return;
        }
        if resident_after {
            self.fail(
                "rdc-invalidate-incomplete",
                cycle,
                format!("gpu {gpu} RDC still holds line {line:#x} after an invalidate probe"),
            );
            return;
        }
        self.rdc_inserted[gpu].remove(&line);
    }

    /// A kernel boundary just ran (`Carve::on_kernel_boundary` included):
    /// check epoch transitions and, under software coherence, that the
    /// instant invalidation actually emptied every RDC.
    pub(crate) fn on_kernel_boundary(&mut self, carve: &Carve, cycle: u64) {
        if self.violation.is_some() {
            return;
        }
        let software = self.policy == Some(CoherencePolicy::Software);
        for g in 0..self.num_gpus {
            let old = self.epochs[g];
            let new = carve.rdc(g).epoch();
            if software {
                let expected = if old == EPOCH_MAX { 0 } else { old + 1 };
                if new != expected {
                    self.fail(
                        "swc-epoch-monotonic",
                        cycle,
                        format!(
                            "gpu {g} RDC epoch went {old} -> {new} across a boundary \
                             (expected {expected})"
                        ),
                    );
                    return;
                }
                for &line in &self.rdc_inserted[g] {
                    if carve.rdc(g).contains(line) {
                        self.fail(
                            "swc-invalidate-complete",
                            cycle,
                            format!(
                                "gpu {g} RDC line {line:#x} survived the software-coherence \
                                 boundary (epoch {new})"
                            ),
                        );
                        return;
                    }
                }
                self.rdc_inserted[g].clear();
            } else if new != old {
                self.fail(
                    "swc-epoch-monotonic",
                    cycle,
                    format!(
                        "gpu {g} RDC epoch changed {old} -> {new} under {:?} (epochs \
                         only move at software-coherence boundaries)",
                        self.policy
                    ),
                );
                return;
            }
            self.epochs[g] = new;
        }
    }

    // -----------------------------------------------------------------
    // Token lifecycle

    /// Census of live slab tokens, called once per engine tick. New
    /// tokens must exceed every token ever seen (the slab's strictly
    /// increasing mint order); an old token reappearing means a slot was
    /// resurrected.
    pub(crate) fn poll_tokens<T>(&mut self, pending: &Slab<T>, cycle: u64) {
        if self.violation.is_some() {
            return;
        }
        let mut cur = HashSet::with_capacity(pending.len());
        pending.for_each(|t, _| {
            cur.insert(t);
        });
        let floor = self.max_token;
        let mut fresh_max = floor;
        for &t in &cur {
            if !self.prev_live.contains(&t) {
                if t <= floor {
                    self.fail(
                        "token-lifecycle",
                        cycle,
                        format!(
                            "token {t:#x} appeared out of mint order (max ever seen \
                             {floor:#x}): slot resurrection or duplicate insert"
                        ),
                    );
                    return;
                }
                fresh_max = fresh_max.max(t);
            }
        }
        self.max_token = fresh_max;
        self.prev_live = cur;
    }

    /// A completion or delivery carried a token with no live slab entry.
    /// That is legal only for fire-and-forget traffic minted with the
    /// untracked sentinel slot; a *tracked* token here was consumed
    /// twice or outlived its generation.
    pub(crate) fn on_unknown_token(&mut self, kind: &'static str, token: u64, cycle: u64) {
        if self.violation.is_some() {
            return;
        }
        if token & SLOT_MASK != UNTRACKED_SLOT {
            self.fail(
                "token-lifecycle",
                cycle,
                format!(
                    "{kind} for tracked token {token:#x} with no live slab entry \
                     (double consume or stale generation)"
                ),
            );
        }
    }

    /// A delivery reached a *live* token whose state machine had already
    /// consumed the message it was waiting for. Only injected packet
    /// duplication can produce this (the endpoint discards the stale
    /// copy); it is still a token-lifecycle breach the oracle must flag.
    pub(crate) fn on_stale_delivery(&mut self, kind: &'static str, token: u64, cycle: u64) {
        if self.violation.is_some() {
            return;
        }
        self.fail(
            "token-lifecycle",
            cycle,
            format!(
                "{kind} for live token {token:#x} whose state machine already \
                 consumed its message (duplicated packet)"
            ),
        );
    }

    // -----------------------------------------------------------------
    // NoC conservation and DRAM timing

    /// Per-tick message conservation: counts are monotonic and no
    /// message is delivered before (or without) being sent.
    pub(crate) fn on_noc_counts(&mut self, sent: u64, delivered: u64, cycle: u64) {
        if self.violation.is_some() {
            return;
        }
        if delivered > sent {
            self.fail(
                "noc-conservation",
                cycle,
                format!("{delivered} messages delivered but only {sent} sent"),
            );
            return;
        }
        if sent < self.prev_sent || delivered < self.prev_delivered {
            self.fail(
                "noc-conservation",
                cycle,
                format!(
                    "message counters regressed: sent {} -> {sent}, delivered {} -> \
                     {delivered}",
                    self.prev_sent, self.prev_delivered
                ),
            );
            return;
        }
        self.prev_sent = sent;
        self.prev_delivered = delivered;
    }

    /// End-of-run conservation: a quiescent network has delivered every
    /// message it accepted.
    pub(crate) fn on_run_end(&mut self, sent: u64, delivered: u64, cycle: u64) {
        if self.violation.is_some() {
            return;
        }
        if sent != delivered {
            self.fail(
                "noc-conservation",
                cycle,
                format!("run ended with {sent} messages sent but {delivered} delivered"),
            );
        }
    }

    /// Per-tick, per-hop conservation over the network's transit
    /// counters (`hops[node] = (received, forwarded)`): a conservative
    /// fabric never forwards a message it has not received, and both
    /// columns only grow.
    pub(crate) fn on_hop_counts(&mut self, hops: &[(u64, u64)], cycle: u64) {
        if self.violation.is_some() {
            return;
        }
        if self.prev_hops.len() != hops.len() {
            self.prev_hops = vec![(0, 0); hops.len()];
        }
        for (node, &(recv, fwd)) in hops.iter().enumerate() {
            let prev = self.prev_hops[node];
            if fwd > recv {
                self.fail(
                    "noc-hop-conservation",
                    cycle,
                    format!(
                        "node {node} forwarded {fwd} transit messages but received only \
                         {recv} (duplicated forward)"
                    ),
                );
                return;
            }
            if recv < prev.0 || fwd < prev.1 {
                self.fail(
                    "noc-hop-conservation",
                    cycle,
                    format!(
                        "node {node} transit counters regressed: received {} -> {recv}, \
                         forwarded {} -> {fwd}",
                        prev.0, prev.1
                    ),
                );
                return;
            }
            self.prev_hops[node] = (recv, fwd);
        }
    }

    /// End-of-run per-hop conservation: a drained fabric has forwarded
    /// every transit message it received — anything less is a packet
    /// dropped inside a switch.
    pub(crate) fn on_hop_run_end(&mut self, hops: &[(u64, u64)], cycle: u64) {
        if self.violation.is_some() {
            return;
        }
        for (node, &(recv, fwd)) in hops.iter().enumerate() {
            if recv != fwd {
                self.fail(
                    "noc-hop-conservation",
                    cycle,
                    format!(
                        "run ended with node {node} holding {} transit messages it never \
                         forwarded ({recv} received, {fwd} forwarded): packet dropped at \
                         a switch",
                        recv - fwd
                    ),
                );
                return;
            }
        }
    }

    /// Forwards a latched DRAM timing-audit breach.
    pub(crate) fn on_dram_violation(&mut self, gpu: usize, msg: &str, cycle: u64) {
        if self.violation.is_some() {
            return;
        }
        self.fail("dram-timing", cycle, format!("gpu {gpu} DRAM: {msg}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carve::RdcConfig;

    fn hwc_sanitizer(directory: bool) -> Sanitizer {
        Sanitizer::new(4, Some(CoherencePolicy::Hardware), directory, false)
    }

    fn invariant(san: &mut Sanitizer) -> &'static str {
        san.take_violation().expect("violation latched").invariant
    }

    #[test]
    fn clean_grant_write_invalidate_cycle_passes() {
        let mut san = hwc_sanitizer(false);
        san.on_grant(0, 0x80, 2, SharingState::ReadShared, None, 10);
        // Broadcast covers the granted copy: clean.
        san.on_write(0, 0x80, 0, &[1, 2, 3], 20);
        for t in [1, 2, 3] {
            san.on_invalidate_send(0, 0x80, t);
        }
        // After revocation a silent write is also clean.
        san.on_write(0, 0x80, 0, &[], 30);
        assert!(san.take_violation().is_none());
    }

    #[test]
    fn uncovered_granted_copy_breaks_single_writer() {
        let mut san = hwc_sanitizer(false);
        san.on_grant(0, 0x80, 2, SharingState::ReadWriteShared, None, 10);
        san.on_write(0, 0x80, 0, &[], 420);
        let v = san.take_violation().expect("violation latched");
        assert_eq!(v.invariant, "gpu-vi-single-writer");
        assert_eq!(v.cycle, 420);
        assert!(
            v.detail.contains("0x80"),
            "detail names the line: {}",
            v.detail
        );
    }

    #[test]
    fn grant_with_private_imst_state_breaks_agreement() {
        let mut san = hwc_sanitizer(false);
        san.on_grant(1, 0x100, 3, SharingState::Private, None, 5);
        assert_eq!(invariant(&mut san), "imst-agreement");
    }

    #[test]
    fn directory_must_record_the_grantee() {
        let mut san = hwc_sanitizer(true);
        san.on_grant(0, 0x80, 2, SharingState::ReadShared, Some(false), 5);
        assert_eq!(invariant(&mut san), "directory-agreement");
    }

    #[test]
    fn directory_write_targets_must_match_exactly() {
        let mut san = hwc_sanitizer(true);
        san.on_grant(0, 0x80, 2, SharingState::ReadShared, Some(true), 5);
        // Directory over-invalidates gpu 3 which never held a copy.
        san.on_write(0, 0x80, 1, &[2, 3], 6);
        assert_eq!(invariant(&mut san), "directory-agreement");
    }

    #[test]
    fn non_hardware_policies_skip_coherence_checks() {
        let mut san = Sanitizer::new(4, Some(CoherencePolicy::Software), false, false);
        san.on_grant(0, 0x80, 2, SharingState::Uncached, None, 1);
        san.on_write(0, 0x80, 0, &[], 2);
        assert!(san.take_violation().is_none());
    }

    #[test]
    fn rdc_hit_without_insert_breaks_inclusion() {
        let mut san = hwc_sanitizer(false);
        san.on_rdc_probe(1, 0x80, true, 9);
        assert_eq!(invariant(&mut san), "rdc-inclusion");
    }

    #[test]
    fn rdc_insert_then_hit_is_clean_and_misses_never_fire() {
        let mut san = hwc_sanitizer(false);
        san.on_rdc_probe(1, 0x80, false, 8);
        san.on_rdc_insert(1, 0x80, 0, 9);
        san.on_rdc_probe(1, 0x80, true, 10);
        assert!(san.take_violation().is_none());
    }

    #[test]
    fn local_line_in_rdc_breaks_exclusion() {
        let mut san = hwc_sanitizer(false);
        san.on_rdc_insert(2, 0x80, 2, 9);
        assert_eq!(invariant(&mut san), "rdc-exclusion");
    }

    #[test]
    fn sysmem_line_needs_footnote2_mode() {
        let mut san = hwc_sanitizer(false);
        san.on_rdc_insert(2, 0x80, usize::MAX, 9);
        assert_eq!(invariant(&mut san), "rdc-exclusion");
        let mut san = Sanitizer::new(4, Some(CoherencePolicy::Hardware), false, true);
        san.on_rdc_insert(2, 0x80, usize::MAX, 9);
        assert!(san.take_violation().is_none());
    }

    #[test]
    fn surviving_invalidate_is_reported() {
        let mut san = hwc_sanitizer(false);
        san.on_rdc_invalidate(0, 0x80, true, 11);
        assert_eq!(invariant(&mut san), "rdc-invalidate-incomplete");
    }

    #[test]
    fn swc_boundary_epoch_and_emptiness_checked() {
        let mut san = Sanitizer::new(2, Some(CoherencePolicy::Software), false, false);
        let mut carve = Carve::new(2, CoherencePolicy::Software, RdcConfig::new(64 * 128, 128));
        san.on_rdc_insert(0, 0x80, 1, 1);
        carve.rdc_mut(0).insert(0x80);
        carve.on_kernel_boundary();
        san.on_kernel_boundary(&carve, 2);
        assert!(san.take_violation().is_none(), "clean boundary passes");
        // A second sanitizer that missed the bump sees a non-monotonic
        // epoch (0 -> 1 expected, but shadow thinks it is still at 0 and
        // the model reports 1 after *two* boundaries => mismatch).
        let mut stale = Sanitizer::new(2, Some(CoherencePolicy::Software), false, false);
        carve.on_kernel_boundary();
        stale.on_kernel_boundary(&carve, 3); // model epoch 2, shadow expected 1
        assert_eq!(invariant(&mut stale), "swc-epoch-monotonic");
    }

    #[test]
    fn swc_boundary_detects_surviving_line() {
        let mut san = Sanitizer::new(2, Some(CoherencePolicy::Software), false, false);
        let mut carve = Carve::new(2, CoherencePolicy::Software, RdcConfig::new(64 * 128, 128));
        san.on_rdc_insert(0, 0x80, 1, 1);
        carve.on_kernel_boundary();
        // Re-insert behind the boundary: the line is resident under the
        // new epoch while the shadow still attributes it to the old one.
        carve.rdc_mut(0).insert(0x80);
        san.on_kernel_boundary(&carve, 2);
        assert_eq!(invariant(&mut san), "swc-invalidate-complete");
    }

    #[test]
    fn hwc_epoch_must_not_move() {
        let mut san = hwc_sanitizer(false);
        let mut carve = Carve::new(4, CoherencePolicy::Software, RdcConfig::new(64 * 128, 128));
        carve.on_kernel_boundary(); // bumps epochs to 1
        san.on_kernel_boundary(&carve, 7);
        assert_eq!(invariant(&mut san), "swc-epoch-monotonic");
    }

    #[test]
    fn swc_epoch_rollover_to_zero_is_legal() {
        let mut san = Sanitizer::new(1, Some(CoherencePolicy::Software), false, false);
        san.epochs[0] = EPOCH_MAX;
        let mut carve = Carve::new(1, CoherencePolicy::Software, RdcConfig::new(64 * 128, 128));
        // Drive the model's epoch to the same edge, then across it.
        for _ in 0..=EPOCH_MAX {
            carve.on_kernel_boundary();
        }
        assert_eq!(carve.rdc(0).epoch(), 0, "model rolled over");
        san.on_kernel_boundary(&carve, 5);
        assert!(san.take_violation().is_none(), "rollover to 0 is legal");
    }

    #[test]
    fn token_census_accepts_monotonic_mints() {
        let mut san = hwc_sanitizer(false);
        let mut slab: Slab<u8> = Slab::new();
        let a = slab.insert(1);
        san.poll_tokens(&slab, 1);
        slab.insert(2);
        slab.remove(a);
        san.poll_tokens(&slab, 2);
        assert!(san.take_violation().is_none());
    }

    #[test]
    fn token_resurrection_is_reported() {
        let mut san = hwc_sanitizer(false);
        let mut slab: Slab<u8> = Slab::new();
        let a = slab.insert(1);
        let b = slab.insert(2);
        san.poll_tokens(&slab, 1);
        slab.remove(a);
        slab.remove(b);
        san.poll_tokens(&slab, 2);
        // A fresh slab re-minting lower token values models a slot
        // resurrection (same token bits observed live again).
        let mut reborn: Slab<u8> = Slab::new();
        reborn.insert(9);
        san.poll_tokens(&reborn, 3);
        assert_eq!(invariant(&mut san), "token-lifecycle");
    }

    #[test]
    fn tracked_token_without_entry_is_a_double_consume() {
        let mut san = hwc_sanitizer(false);
        let mut slab: Slab<u8> = Slab::new();
        let t = slab.insert(1);
        slab.remove(t);
        san.on_unknown_token("delivery", t, 4);
        assert_eq!(invariant(&mut san), "token-lifecycle");
    }

    #[test]
    fn untracked_tokens_are_fire_and_forget() {
        let mut san = hwc_sanitizer(false);
        let mut slab: Slab<u8> = Slab::new();
        let u = slab.untracked_token();
        san.on_unknown_token("delivery", u, 4);
        assert!(san.take_violation().is_none());
    }

    #[test]
    fn delivering_more_than_sent_breaks_conservation() {
        let mut san = hwc_sanitizer(false);
        san.on_noc_counts(5, 3, 1);
        san.on_noc_counts(5, 6, 2);
        assert_eq!(invariant(&mut san), "noc-conservation");
    }

    #[test]
    fn regressed_counters_break_conservation() {
        let mut san = hwc_sanitizer(false);
        san.on_noc_counts(5, 3, 1);
        san.on_noc_counts(4, 3, 2);
        assert_eq!(invariant(&mut san), "noc-conservation");
    }

    #[test]
    fn undelivered_messages_at_run_end_are_reported() {
        let mut san = hwc_sanitizer(false);
        san.on_run_end(10, 9, 99);
        assert_eq!(invariant(&mut san), "noc-conservation");
    }

    #[test]
    fn duplicated_forward_breaks_hop_conservation() {
        let mut san = hwc_sanitizer(false);
        // Node 5 (a switch) forwards two messages having received one:
        // a duplicated forward inside the fabric.
        san.on_hop_counts(&[(0, 0), (1, 1), (0, 0), (0, 0), (0, 0), (1, 2)], 7);
        let v = san.take_violation().expect("violation latched");
        assert_eq!(v.invariant, "noc-hop-conservation");
        assert!(v.detail.contains("node 5"), "{}", v.detail);
        assert!(v.detail.contains("duplicated forward"), "{}", v.detail);
    }

    #[test]
    fn regressed_hop_counters_break_hop_conservation() {
        let mut san = hwc_sanitizer(false);
        san.on_hop_counts(&[(3, 3)], 1);
        san.on_hop_counts(&[(2, 2)], 2);
        assert_eq!(invariant(&mut san), "noc-hop-conservation");
    }

    #[test]
    fn dropped_packet_at_switch_is_reported_at_run_end() {
        let mut san = hwc_sanitizer(false);
        // In-flight imbalance is fine mid-run (forwarded <= received)...
        san.on_hop_counts(&[(0, 0), (4, 3)], 50);
        assert!(san.violation.is_none());
        // ...but a drained run must have forwarded everything.
        san.on_hop_run_end(&[(0, 0), (4, 3)], 99);
        let v = san.take_violation().expect("violation latched");
        assert_eq!(v.invariant, "noc-hop-conservation");
        assert!(v.detail.contains("node 1"), "{}", v.detail);
        assert!(v.detail.contains("dropped"), "{}", v.detail);
    }

    #[test]
    fn balanced_hop_counters_pass_clean() {
        let mut san = hwc_sanitizer(false);
        san.on_hop_counts(&[(1, 1), (2, 1)], 10);
        san.on_hop_counts(&[(2, 2), (2, 2)], 20);
        san.on_hop_run_end(&[(2, 2), (2, 2)], 30);
        assert!(san.take_violation().is_none());
    }

    #[test]
    fn sharer_masks_cover_64_gpus() {
        // Granted-copy tracking must hold a bit for gpu 63.
        let mut san = Sanitizer::new(64, Some(CoherencePolicy::Hardware), false, false);
        san.on_grant(0, 0x80, 63, SharingState::ReadShared, None, 1);
        san.on_write(0, 0x80, 0, &[], 2);
        assert_eq!(invariant(&mut san), "gpu-vi-single-writer");
    }

    #[test]
    fn dram_violation_is_forwarded() {
        let mut san = hwc_sanitizer(false);
        san.on_dram_violation(2, "bus overlap on channel 0", 12);
        let v = san.take_violation().expect("violation latched");
        assert_eq!(v.invariant, "dram-timing");
        assert!(v.detail.contains("gpu 2"));
    }

    #[test]
    fn first_violation_wins() {
        let mut san = hwc_sanitizer(false);
        san.on_rdc_probe(1, 0x80, true, 9);
        san.on_noc_counts(0, 5, 10);
        let v = san.take_violation().expect("violation latched");
        assert_eq!(v.invariant, "rdc-inclusion");
        assert_eq!(v.cycle, 9);
    }
}
