//! Interface types between the GPU core and the system model.

use carve_noc::NodeId;
use sim_core::Cycle;

/// What a [`CoreRequest`] asks the system to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreReqKind {
    /// Fetch a line; the system must eventually call
    /// [`crate::GpuCore::complete_miss`] with the same tag.
    ReadMiss,
    /// Posted write-through toward the line's home (remote GPU, CPU
    /// memory, or — for write-through RDC dirty data — local DRAM).
    WriteThrough,
    /// Posted write-back of a dirty local L2 victim to local DRAM.
    WriteBack,
    /// Zero-data notification that a *local* store hit a line on the
    /// coherence watch list (see [`crate::GpuCore::set_store_watch`]).
    /// The system consults the home IMST and broadcasts invalidates if the
    /// line is genuinely shared. Models the IMST-entry-in-L2 consult of
    /// the paper's hardware-coherence design.
    SharedStoreNotice,
}

/// A memory request leaving the GPU core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreRequest {
    /// Core-unique tag (only meaningful for [`CoreReqKind::ReadMiss`]).
    pub tag: u64,
    /// Line-aligned address.
    pub line_addr: u64,
    /// Home node of the line as resolved at issue time.
    pub home: NodeId,
    /// Request flavour.
    pub kind: CoreReqKind,
    /// True when the primary waiter is a remote GPU's read (home-side leg
    /// of a remote flow); the system excludes these from the requester-side
    /// local/remote traffic accounting to avoid double counting.
    pub external: bool,
}

/// Who is waiting on an L2 fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Waiter {
    /// A warp of a local SM.
    Warp {
        /// SM index within this GPU.
        sm: usize,
        /// Warp slot within the SM.
        warp: usize,
    },
    /// A remote GPU's read, identified by the system's token.
    External {
        /// System-level token to answer with.
        token: u64,
    },
}

/// Origin of an L2 request inside the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqSource {
    /// A warp load that blocks until data returns.
    Warp {
        /// SM index.
        sm: usize,
        /// Warp slot.
        warp: usize,
    },
    /// A posted store issued by a warp (the warp does not block, but the
    /// slot is recorded so back-pressure can replay the op).
    Store {
        /// SM index.
        sm: usize,
        /// Warp slot.
        warp: usize,
    },
    /// A read arriving from a remote GPU.
    External {
        /// System-level token to answer with.
        token: u64,
    },
}

/// Result of resolving a virtual address through the runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranslationOutcome {
    /// Effective home node of the page for this access.
    pub home: NodeId,
    /// If the page is temporarily unusable (mid-migration), when it frees.
    pub blocked_until: Option<Cycle>,
}

/// The runtime page-table service the core translates through.
///
/// Implemented by the system model around
/// [`carve_runtime::PageTable`]; test doubles implement it directly.
pub trait Translator {
    /// Resolves `va` accessed by `gpu`, recording the access (first-touch
    /// allocation, sharing masks, migration triggers happen here).
    fn translate(&mut self, gpu: usize, va: u64, is_write: bool, now: Cycle) -> TranslationOutcome;
}

/// Capacity probe for the link fabric, used by L2 banks to stall rather
/// than emit traffic the links cannot absorb.
pub trait Fabric {
    /// Whether `src` may currently send a message toward `dst`.
    fn can_send(&self, src: NodeId, dst: NodeId, now: Cycle) -> bool;

    /// For a pair that [`Fabric::can_send`] refuses at `now`: a lower
    /// bound on the first cycle at which it may accept again, valid
    /// until the fabric's routes or rates change. The default, `now + 1`,
    /// claims nothing.
    fn send_ready_at(&self, _src: NodeId, _dst: NodeId, now: Cycle) -> Cycle {
        Cycle(now.0 + 1)
    }
}

/// A fabric with unlimited capacity (single-GPU runs, unit tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct UnboundedFabric;

impl Fabric for UnboundedFabric {
    fn can_send(&self, _src: NodeId, _dst: NodeId, _now: Cycle) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_fabric_always_sends() {
        let f = UnboundedFabric;
        assert!(f.can_send(NodeId::Gpu(0), NodeId::Gpu(1), Cycle(0)));
        assert!(f.can_send(NodeId::Gpu(3), NodeId::Cpu, Cycle(99)));
    }

    #[test]
    fn request_types_are_comparable() {
        let a = CoreRequest {
            tag: 1,
            line_addr: 0x80,
            home: NodeId::Gpu(0),
            kind: CoreReqKind::ReadMiss,
            external: false,
        };
        assert_eq!(a, a);
        assert_ne!(
            Waiter::Warp { sm: 0, warp: 1 },
            Waiter::External { token: 9 }
        );
    }
}
