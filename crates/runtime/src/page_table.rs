//! First-touch page placement, migration, replication and UM spill.
//!
//! The [`PageTable`] is the software runtime's view of memory. Every
//! simulated memory access consults it to resolve the *effective home* of
//! the page: the local GPU (first-touch private data or a replica), a
//! remote GPU, or system memory behind the CPU link (UM spill). The
//! optional policies layered on first-touch are exactly the software
//! mechanisms the paper combines and finds insufficient:
//!
//! * **page migration** — a page repeatedly accessed from one remote GPU is
//!   moved there (paying a page transfer and a stall); shared pages
//!   ping-pong, which is why the paper measures a 49% slowdown,
//! * **read-only page replication** — profile-identified read-only shared
//!   pages get a local copy on every reader (the software can not afford to
//!   collapse writable replicas, so read-write pages are excluded),
//! * **ideal replication** — the paper's upper bound: *all* shared pages
//!   are replicated with zero coherence cost,
//! * **UM spill** — a designated cold-page set lives in system memory
//!   (Table V(b)'s capacity-loss experiment).

use crate::sharing::GpuMask;
use carve_noc::NodeId;
use sim_core::fast::FastSet;
use sim_core::Cycle;

/// Pages per leaf of the two-level entry array. Workload layouts place
/// regions contiguously from VA 0 (see `carve_trace::spec`), so page
/// numbers are dense and direct indexing beats hashing; leaves keep the
/// table cheap for sparse tails (one 40 KiB leaf covers 8 MiB of VA at
/// the default 8 KiB pages).
const LEAF_PAGES: usize = 1024;

type Leaf = [Option<Entry>; LEAF_PAGES];

/// Out-of-line so the ~56 KiB array literal never lands in a hot caller's
/// stack frame (a frame that size costs a stack probe on every call).
#[cold]
#[inline(never)]
fn new_leaf() -> Box<Leaf> {
    Box::new([None; LEAF_PAGES])
}

/// Software page-replication flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Replication {
    /// No replication (plain NUMA-GPU).
    #[default]
    None,
    /// Replicate profile-identified read-only shared pages.
    ReadOnlyShared,
    /// Replicate every shared page with zero cost: the ideal NUMA-GPU
    /// upper bound of Figures 2, 9, 11 and 13.
    AllShared,
}

/// The placement policy knobs of one simulated configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementPolicy {
    /// Replication flavour.
    pub replication: Replication,
    /// Enables reactive page migration.
    pub migration: bool,
    /// Remote accesses to a page before it migrates.
    pub migration_threshold: u32,
    /// Minimum cycles between successive migrations of the same page
    /// (rate limiting, as in Carrefour-style runtimes). Without it, pages
    /// hot on several GPUs ping-pong on every handful of accesses and the
    /// system live-locks into migration traffic.
    pub migration_cooldown: u64,
}

impl Default for PlacementPolicy {
    fn default() -> PlacementPolicy {
        PlacementPolicy {
            replication: Replication::None,
            migration: false,
            migration_threshold: 64,
            migration_cooldown: 5_000,
        }
    }
}

/// A page-migration decision, to be costed by the system model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageMigration {
    /// Page number (VA / page size).
    pub page: u64,
    /// Previous home.
    pub from: NodeId,
    /// New home GPU.
    pub to: usize,
}

/// The result of resolving one access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessOutcome {
    /// Effective home for this access (after replication).
    pub home: NodeId,
    /// Whether the access must leave the requesting GPU.
    pub remote: bool,
    /// A migration triggered by this access, if any.
    pub migration: Option<PageMigration>,
    /// If the page is mid-migration, the cycle it becomes usable.
    pub blocked_until: Option<Cycle>,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    home: NodeId,
    readers: GpuMask,
    writers: GpuMask,
    remote_streak: u32,
    last_remote_gpu: u8,
    blocked_until: u64,
    last_migration: u64,
}

/// Counter snapshot of page-table activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageTableStats {
    /// Pages allocated by first touch on a GPU.
    pub first_touches: u64,
    /// Pages resolved to system memory (UM spill).
    pub cpu_homed_pages: u64,
    /// Migrations performed.
    pub migrations: u64,
    /// Accesses serviced from a replica.
    pub replica_hits: u64,
    /// Writes that hit a page marked replicated (RO replication would have
    /// to collapse here; counted to verify the profile kept these at zero).
    pub replica_write_violations: u64,
}

/// The runtime page table.
#[derive(Debug)]
pub struct PageTable {
    num_gpus: usize,
    page_size: u64,
    /// `log2(page_size)`: address → page number without a division.
    page_shift: u32,
    policy: PlacementPolicy,
    leaves: Vec<Option<Box<Leaf>>>,
    touched: usize,
    spill: FastSet,
    replicated: FastSet,
    pages_per_gpu: Vec<u64>,
    stats: PageTableStats,
}

impl PageTable {
    /// Creates an empty table for `num_gpus` GPUs with `page_size` pages.
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus` is 0 or > 64 or `page_size` is not a power of
    /// two.
    pub fn new(num_gpus: usize, page_size: u64, policy: PlacementPolicy) -> PageTable {
        assert!(num_gpus > 0 && num_gpus <= 64);
        assert!(page_size.is_power_of_two());
        PageTable {
            num_gpus,
            page_size,
            page_shift: page_size.trailing_zeros(),
            policy,
            leaves: Vec::new(),
            touched: 0,
            spill: FastSet::new(),
            replicated: FastSet::new(),
            pages_per_gpu: vec![0; num_gpus],
            stats: PageTableStats::default(),
        }
    }

    #[inline]
    fn entry(&self, page: u64) -> Option<&Entry> {
        let page = page as usize;
        self.leaves.get(page / LEAF_PAGES)?.as_ref()?[page % LEAF_PAGES].as_ref()
    }

    #[inline]
    fn entry_mut(&mut self, page: u64) -> Option<&mut Entry> {
        let page = page as usize;
        self.leaves.get_mut(page / LEAF_PAGES)?.as_mut()?[page % LEAF_PAGES].as_mut()
    }

    /// Designates pages that live in system memory (UM cold-page spill).
    /// Must be called before the pages are first touched.
    pub fn set_spill_pages<I: IntoIterator<Item = u64>>(&mut self, pages: I) {
        for p in pages {
            self.spill.insert(p);
        }
    }

    /// Designates pages serviced from local replicas, per the configured
    /// [`Replication`] flavour. The caller derives the set from a
    /// [`crate::sharing::SharingProfile`].
    pub fn set_replicated_pages<I: IntoIterator<Item = u64>>(&mut self, pages: I) {
        for p in pages {
            self.replicated.insert(p);
        }
    }

    /// Resolves one access from `gpu` to `va` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `gpu` is out of range.
    pub fn access(&mut self, gpu: usize, va: u64, is_write: bool, now: Cycle) -> AccessOutcome {
        assert!(gpu < self.num_gpus, "gpu {gpu} out of range");
        let page = va >> self.page_shift;
        let (li, off) = (page as usize / LEAF_PAGES, page as usize % LEAF_PAGES);
        if li >= self.leaves.len() {
            self.leaves.resize_with(li + 1, || None);
        }
        let leaf = self.leaves[li].get_or_insert_with(new_leaf);
        if leaf[off].is_none() {
            // First touch.
            let home = if self.spill.contains(page) {
                self.stats.cpu_homed_pages += 1;
                NodeId::Cpu
            } else {
                self.stats.first_touches += 1;
                self.pages_per_gpu[gpu] += 1;
                NodeId::Gpu(gpu)
            };
            leaf[off] = Some(Entry {
                home,
                readers: GpuMask::default(),
                writers: GpuMask::default(),
                remote_streak: 0,
                last_remote_gpu: 0,
                blocked_until: 0,
                last_migration: 0,
            });
            self.touched += 1;
        }
        let entry = leaf[off].as_mut().expect("entry materialized");
        if is_write {
            entry.writers.set(gpu);
        } else {
            entry.readers.set(gpu);
        }

        // Replica service path.
        if self.replicated.contains(page) {
            match self.policy.replication {
                Replication::AllShared => {
                    self.stats.replica_hits += 1;
                    return AccessOutcome {
                        home: NodeId::Gpu(gpu),
                        remote: false,
                        migration: None,
                        blocked_until: None,
                    };
                }
                Replication::ReadOnlyShared => {
                    if is_write {
                        // The profile should have excluded writable pages;
                        // fall through to the true home and count it.
                        self.stats.replica_write_violations += 1;
                    } else {
                        self.stats.replica_hits += 1;
                        return AccessOutcome {
                            home: NodeId::Gpu(gpu),
                            remote: false,
                            migration: None,
                            blocked_until: None,
                        };
                    }
                }
                Replication::None => {}
            }
        }

        let home = entry.home;
        let remote = home != NodeId::Gpu(gpu);
        let blocked_until = (entry.blocked_until > now.0).then_some(Cycle(entry.blocked_until));

        // Reactive migration (GPU homes only).
        let mut migration = None;
        if self.policy.migration && remote {
            if let NodeId::Gpu(_) = home {
                if entry.last_remote_gpu == gpu as u8 {
                    entry.remote_streak += 1;
                } else {
                    entry.last_remote_gpu = gpu as u8;
                    entry.remote_streak = 1;
                }
                let cooled = now.0 >= entry.last_migration + self.policy.migration_cooldown
                    || entry.last_migration == 0;
                if entry.remote_streak >= self.policy.migration_threshold && cooled {
                    migration = Some(PageMigration {
                        page,
                        from: home,
                        to: gpu,
                    });
                    if let NodeId::Gpu(old) = home {
                        self.pages_per_gpu[old] = self.pages_per_gpu[old].saturating_sub(1);
                    }
                    self.pages_per_gpu[gpu] += 1;
                    entry.home = NodeId::Gpu(gpu);
                    entry.remote_streak = 0;
                    entry.last_migration = now.0.max(1);
                    self.stats.migrations += 1;
                }
            }
        }

        AccessOutcome {
            home,
            remote,
            migration,
            blocked_until,
        }
    }

    /// Marks `page` unusable until `until` (migration in progress). The
    /// system model calls this after costing a migration transfer.
    pub fn block_page_until(&mut self, page: u64, until: Cycle) {
        if let Some(e) = self.entry_mut(page) {
            e.blocked_until = e.blocked_until.max(until.0);
        }
    }

    /// Current home of `page`, if touched.
    pub fn home_of(&self, page: u64) -> Option<NodeId> {
        self.entry(page).map(|e| e.home)
    }

    /// Pages first-touch allocated on each GPU.
    pub fn pages_per_gpu(&self) -> &[u64] {
        &self.pages_per_gpu
    }

    /// Activity counters.
    pub fn stats(&self) -> PageTableStats {
        self.stats
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Number of distinct pages touched.
    pub fn touched_pages(&self) -> usize {
        self.touched
    }

    /// The policy this table enforces.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(policy: PlacementPolicy) -> PageTable {
        PageTable::new(4, 8192, policy)
    }

    #[test]
    fn first_touch_homes_locally() {
        let mut pt = table(PlacementPolicy::default());
        let out = pt.access(1, 0x2000, false, Cycle(0));
        assert_eq!(out.home, NodeId::Gpu(1));
        assert!(!out.remote);
        assert_eq!(pt.home_of(1), Some(NodeId::Gpu(1)));
        assert_eq!(pt.pages_per_gpu(), &[0, 1, 0, 0]);
    }

    #[test]
    fn second_gpu_sees_remote() {
        let mut pt = table(PlacementPolicy::default());
        pt.access(1, 0x2000, false, Cycle(0));
        let out = pt.access(0, 0x2000, false, Cycle(1));
        assert_eq!(out.home, NodeId::Gpu(1));
        assert!(out.remote);
    }

    #[test]
    fn spilled_pages_home_to_cpu() {
        let mut pt = table(PlacementPolicy::default());
        pt.set_spill_pages([1u64]);
        let out = pt.access(0, 0x2000, false, Cycle(0));
        assert_eq!(out.home, NodeId::Cpu);
        assert!(out.remote);
        assert_eq!(pt.stats().cpu_homed_pages, 1);
    }

    #[test]
    fn ro_replication_localizes_reads_only() {
        let mut pt = table(PlacementPolicy {
            replication: Replication::ReadOnlyShared,
            ..Default::default()
        });
        pt.set_replicated_pages([1u64]);
        pt.access(1, 0x2000, false, Cycle(0)); // first touch by GPU 1
        let read = pt.access(0, 0x2000, false, Cycle(1));
        assert!(!read.remote, "replicated read must be local");
        let write = pt.access(0, 0x2000, true, Cycle(2));
        assert!(write.remote, "write bypasses the RO replica");
        assert_eq!(pt.stats().replica_write_violations, 1);
        // Both the first-toucher's read and GPU 0's read count as replica
        // service.
        assert_eq!(pt.stats().replica_hits, 2);
    }

    #[test]
    fn all_shared_replication_localizes_everything() {
        let mut pt = table(PlacementPolicy {
            replication: Replication::AllShared,
            ..Default::default()
        });
        pt.set_replicated_pages([1u64]);
        pt.access(1, 0x2000, true, Cycle(0));
        let w = pt.access(3, 0x2000, true, Cycle(1));
        assert!(!w.remote);
        assert_eq!(w.home, NodeId::Gpu(3));
    }

    #[test]
    fn migration_triggers_after_threshold() {
        let mut pt = table(PlacementPolicy {
            migration: true,
            migration_threshold: 4,
            ..Default::default()
        });
        pt.access(1, 0x2000, false, Cycle(0));
        let mut migrated = None;
        for i in 0..4 {
            let out = pt.access(0, 0x2000, false, Cycle(i + 1));
            if out.migration.is_some() {
                migrated = out.migration;
            }
        }
        let m = migrated.expect("page should migrate after 4 remote accesses");
        assert_eq!(m.from, NodeId::Gpu(1));
        assert_eq!(m.to, 0);
        assert_eq!(pt.home_of(1), Some(NodeId::Gpu(0)));
        assert_eq!(pt.stats().migrations, 1);
        // Subsequent access from GPU 0 is now local.
        assert!(!pt.access(0, 0x2000, false, Cycle(10)).remote);
    }

    #[test]
    fn migration_streak_resets_on_different_gpu() {
        let mut pt = table(PlacementPolicy {
            migration: true,
            migration_threshold: 3,
            ..Default::default()
        });
        pt.access(1, 0x2000, false, Cycle(0));
        pt.access(0, 0x2000, false, Cycle(1));
        pt.access(0, 0x2000, false, Cycle(2));
        pt.access(2, 0x2000, false, Cycle(3)); // breaks GPU 0's streak
        let out = pt.access(0, 0x2000, false, Cycle(4));
        assert!(out.migration.is_none());
        assert_eq!(pt.stats().migrations, 0);
    }

    #[test]
    fn blocked_pages_report_block() {
        let mut pt = table(PlacementPolicy::default());
        pt.access(0, 0x2000, false, Cycle(0));
        pt.block_page_until(1, Cycle(100));
        let out = pt.access(0, 0x2000, false, Cycle(50));
        assert_eq!(out.blocked_until, Some(Cycle(100)));
        let out = pt.access(0, 0x2000, false, Cycle(100));
        assert_eq!(out.blocked_until, None);
    }

    #[test]
    fn migration_ping_pong_on_shared_page() {
        // A page two GPUs fight over migrates repeatedly: the pathology
        // behind the paper's 49% migration slowdown.
        let mut pt = table(PlacementPolicy {
            migration: true,
            migration_threshold: 2,
            migration_cooldown: 0,
            ..Default::default()
        });
        pt.access(0, 0x2000, false, Cycle(0));
        let mut t = 1;
        for _ in 0..4 {
            for g in [1usize, 0] {
                for _ in 0..2 {
                    pt.access(g, 0x2000, false, Cycle(t));
                    t += 1;
                }
            }
        }
        assert!(pt.stats().migrations >= 4, "{:?}", pt.stats());
    }

    #[test]
    fn cooldown_rate_limits_migrations() {
        let mut pt = table(PlacementPolicy {
            migration: true,
            migration_threshold: 2,
            migration_cooldown: 1_000_000,
            ..Default::default()
        });
        pt.access(0, 0x2000, false, Cycle(0));
        let mut t = 1;
        for _ in 0..8 {
            for g in [1usize, 0] {
                for _ in 0..2 {
                    pt.access(g, 0x2000, false, Cycle(t));
                    t += 1;
                }
            }
        }
        // The first migration is free; the cooldown blocks all repeats
        // within the window.
        assert_eq!(pt.stats().migrations, 1, "{:?}", pt.stats());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_gpu_panics() {
        let mut pt = table(PlacementPolicy::default());
        pt.access(4, 0, false, Cycle(0));
    }
}
