//! Cycle-accounting profile types (DESIGN.md §14).
//!
//! The profiler classifies every simulated SM cycle into exactly one
//! [`StallCat`]: the categories are *exclusive* and *exhaustive*, so for
//! each GPU the per-category cycle counts sum to `cycles × SMs` — the
//! invariant the system tests pin on all 20 workloads. The types here are
//! engine-agnostic bookkeeping: the `carve-system` crate's run observer
//! owns the classification rules (what state maps to which category) and
//! the per-GPU totals; DRAM channels and NoC links contribute their own
//! occupancy breakdowns ([`DramChannelProfile`], [`LinkOccupancy`]). The
//! per-interval breakdown rides on the telemetry timeline
//! ([`crate::IntervalRecord::stalls`]).
//!
//! Like interval sampling, profiling is read-only: a run with the
//! profiler on produces byte-identical journal lines to the same run with
//! it off, under both engines.

use crate::stats::percent;

/// Number of exclusive stall categories.
pub const NUM_STALL_CATS: usize = 11;

/// Exclusive classification of one SM-cycle.
///
/// Priority when several conditions hold is fixed by the classifier in
/// `carve-system` (structural stalls first, then the farthest-downstream
/// cause in flight); every cycle lands in exactly one bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum StallCat {
    /// The SM issued an instruction this cycle, or its warps were occupied
    /// by in-flight compute (pipeline busy, not stalled on memory).
    Issuing = 0,
    /// No resident or queued work (kernel launch gaps, load imbalance).
    Idle = 1,
    /// Warps waiting on a miss still inside the L1/bank pipeline.
    L1Miss = 2,
    /// Warps waiting on an L2 fill with no downstream request in flight.
    L2Miss = 3,
    /// Warps waiting on local DRAM reads.
    LocalDram = 4,
    /// Warps waiting on plain remote-home reads crossing the fabric.
    RemoteLink = 5,
    /// Warps waiting on a re-fetch of a line dropped by a hardware
    /// coherence invalidation.
    CoherenceInvalidate = 6,
    /// Warps waiting on a re-fetch after a software-coherence epoch flush
    /// made the RDC copy stale.
    EpochFlush = 7,
    /// Warps waiting on a remote fetch caused by an RDC capacity miss
    /// (including the probe itself).
    RdcMiss = 8,
    /// Structural: every L2 MSHR entry occupied; no new miss can issue.
    MshrFull = 9,
    /// Structural: the outbox to the fabric is full (link back-pressure).
    LinkQueue = 10,
}

impl StallCat {
    /// All categories, in index order.
    pub const ALL: [StallCat; NUM_STALL_CATS] = [
        StallCat::Issuing,
        StallCat::Idle,
        StallCat::L1Miss,
        StallCat::L2Miss,
        StallCat::LocalDram,
        StallCat::RemoteLink,
        StallCat::CoherenceInvalidate,
        StallCat::EpochFlush,
        StallCat::RdcMiss,
        StallCat::MshrFull,
        StallCat::LinkQueue,
    ];

    /// Kebab-case label used in tables, folded stacks and CSV headers.
    pub fn label(self) -> &'static str {
        match self {
            StallCat::Issuing => "issuing",
            StallCat::Idle => "idle",
            StallCat::L1Miss => "l1-miss",
            StallCat::L2Miss => "l2-miss",
            StallCat::LocalDram => "local-dram",
            StallCat::RemoteLink => "remote-link",
            StallCat::CoherenceInvalidate => "coherence-invalidate",
            StallCat::EpochFlush => "epoch-flush",
            StallCat::RdcMiss => "rdc-miss",
            StallCat::MshrFull => "mshr-full",
            StallCat::LinkQueue => "link-queue",
        }
    }

    /// Array index of this category.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`StallCat::index`].
    pub fn from_index(i: usize) -> Option<StallCat> {
        StallCat::ALL.get(i).copied()
    }
}

/// Occupancy breakdown of one DRAM channel.
///
/// Row-hit/row-miss cycles are *bank-time* (banks within a channel overlap,
/// so their sum can exceed wall-clock cycles); bus cycles are serialized
/// channel time. Refresh is not modeled and always reads 0 — the field
/// exists so the taxonomy matches real-HBM breakdowns.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DramChannelProfile {
    /// Owning GPU.
    pub gpu: usize,
    /// Channel index within the GPU.
    pub channel: usize,
    /// Bank-cycles spent on row-buffer-hit accesses (CAS only).
    pub row_hit_cycles: u64,
    /// Bank-cycles spent on row-buffer-miss accesses (precharge + activate
    /// + CAS).
    pub row_miss_cycles: u64,
    /// Channel-cycles spent bursting data on the bus.
    pub bus_cycles: f64,
    /// Refresh cycles (always 0: refresh is not modeled).
    pub refresh_cycles: u64,
}

impl DramChannelProfile {
    /// Idle channel-cycles over a run of `total` cycles (bus-occupancy
    /// complement; saturating because bank-time overlaps).
    pub fn idle_cycles(&self, total: u64) -> f64 {
        (total as f64 - self.bus_cycles).max(0.0)
    }
}

/// Occupancy breakdown of one NoC link.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkOccupancy {
    /// Human-readable endpoint label (e.g. `gpu0->gpu1`).
    pub label: String,
    /// Cycles spent serializing packets at *nominal* bandwidth.
    pub ser_cycles: f64,
    /// Cycles packets spent queued behind earlier traffic.
    pub queue_cycles: f64,
    /// Extra serialization cycles caused by fault-degraded bandwidth
    /// (actual minus nominal serialization time).
    pub degraded_cycles: f64,
}

impl LinkOccupancy {
    /// Busy fraction of the link over `total` cycles (serialization time,
    /// including degradation, over wall-clock).
    pub fn utilization(&self, total: u64) -> f64 {
        if total == 0 {
            0.0
        } else {
            (self.ser_cycles + self.degraded_cycles) / total as f64
        }
    }
}

/// The complete cycle-accounting report of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// Simulated cycles of the run.
    pub cycles: u64,
    /// SMs per GPU (the invariant divisor).
    pub sms_per_gpu: usize,
    /// Per-GPU category totals, indexed by [`StallCat::index`]. Each row
    /// sums to `cycles × sms_per_gpu` exactly.
    pub gpus: Vec<[u64; NUM_STALL_CATS]>,
    /// Per-DRAM-channel occupancy, in (GPU, channel) order.
    pub dram: Vec<DramChannelProfile>,
    /// Per-link occupancy, in topology edge order.
    pub links: Vec<LinkOccupancy>,
}

impl ProfileReport {
    /// Category totals across all GPUs.
    pub fn totals(&self) -> [u64; NUM_STALL_CATS] {
        let mut t = [0u64; NUM_STALL_CATS];
        for gpu in &self.gpus {
            for (i, v) in gpu.iter().enumerate() {
                t[i] += v;
            }
        }
        t
    }

    /// Total SM-cycles accounted (should equal `cycles × sms_per_gpu ×
    /// gpus.len()`).
    pub fn accounted(&self) -> u64 {
        self.totals().iter().sum()
    }

    /// The stall categories (everything but [`StallCat::Issuing`]) sorted
    /// by descending share of total SM-cycles, zero-cycle categories
    /// dropped.
    pub fn top_stalls(&self) -> Vec<(StallCat, f64)> {
        let totals = self.totals();
        let all: u64 = totals.iter().sum();
        if all == 0 {
            return Vec::new();
        }
        let mut v: Vec<(StallCat, f64)> = StallCat::ALL
            .into_iter()
            .filter(|&c| c != StallCat::Issuing && totals[c.index()] > 0)
            .map(|c| (c, totals[c.index()] as f64 / all as f64))
            .collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        v
    }

    /// `stalls: remote-link 41% | local-dram 22% | idle 9%` — the top-`n`
    /// stall summary appended to the run one-liner. Empty string when
    /// nothing stalled.
    pub fn stall_summary(&self, n: usize) -> String {
        let top = self.top_stalls();
        if top.is_empty() {
            return String::new();
        }
        let parts: Vec<String> = top
            .iter()
            .take(n)
            .map(|(c, f)| format!("{} {:.0}%", c.label(), 100.0 * f))
            .collect();
        format!("stalls: {}", parts.join(" | "))
    }

    /// Top-down breakdown table: one row per category with total
    /// SM-cycles, overall share, and per-GPU shares (first eight GPUs).
    pub fn table_string(&self) -> String {
        let mut out = String::new();
        let totals = self.totals();
        let all: u64 = totals.iter().sum();
        let shown = self.gpus.len().min(8);
        out.push_str(&format!(
            "{:<22} {:>14} {:>7}",
            "category", "sm-cycles", "share"
        ));
        for g in 0..shown {
            out.push_str(&format!(" {:>7}", format!("gpu{g}")));
        }
        out.push('\n');
        for cat in StallCat::ALL {
            let i = cat.index();
            out.push_str(&format!(
                "{:<22} {:>14} {:>6.1}%",
                cat.label(),
                totals[i],
                percent(totals[i], all)
            ));
            for gpu in self.gpus.iter().take(shown) {
                let gpu_all: u64 = gpu.iter().sum();
                out.push_str(&format!(" {:>6.1}%", percent(gpu[i], gpu_all)));
            }
            out.push('\n');
        }
        out
    }

    /// Folded-stacks flamegraph output: one `root;gpuN;category count`
    /// line per non-zero (GPU, category) cell, plus `root;dram;...` and
    /// `root;link;...` stacks for the channel and link breakdowns.
    pub fn folded_string(&self, root: &str) -> String {
        let mut out = String::new();
        for (g, gpu) in self.gpus.iter().enumerate() {
            for cat in StallCat::ALL {
                let v = gpu[cat.index()];
                if v > 0 {
                    out.push_str(&format!("{root};gpu{g};{} {v}\n", cat.label()));
                }
            }
        }
        for d in &self.dram {
            for (leaf, v) in [
                ("row-hit", d.row_hit_cycles),
                ("row-miss", d.row_miss_cycles),
                ("bus", d.bus_cycles.round() as u64),
                ("refresh", d.refresh_cycles),
            ] {
                if v > 0 {
                    out.push_str(&format!(
                        "{root};dram;gpu{};ch{};{leaf} {v}\n",
                        d.gpu, d.channel
                    ));
                }
            }
        }
        for l in &self.links {
            for (leaf, v) in [
                ("serialization", l.ser_cycles.round() as u64),
                ("queueing", l.queue_cycles.round() as u64),
                ("fault-degraded", l.degraded_cycles.round() as u64),
            ] {
                if v > 0 {
                    out.push_str(&format!("{root};link;{};{leaf} {v}\n", l.label));
                }
            }
        }
        out
    }

    /// One-line compact encoding for campaign profile sidecars. Only
    /// totals are encoded (per-interval breakdowns live in the timeline);
    /// DRAM and link occupancy are aggregated to machine-wide totals.
    pub fn encode_compact(&self) -> String {
        let mut out = format!("cycles={}|sms={}", self.cycles, self.sms_per_gpu);
        for (g, gpu) in self.gpus.iter().enumerate() {
            let cells: Vec<String> = gpu.iter().map(u64::to_string).collect();
            out.push_str(&format!("|gpu{g}={}", cells.join(",")));
        }
        let (mut hit, mut miss, mut bus) = (0u64, 0u64, 0f64);
        for d in &self.dram {
            hit += d.row_hit_cycles;
            miss += d.row_miss_cycles;
            bus += d.bus_cycles;
        }
        out.push_str(&format!("|dram={hit},{miss},{bus:.1}"));
        let (mut ser, mut queue, mut deg) = (0f64, 0f64, 0f64);
        for l in &self.links {
            ser += l.ser_cycles;
            queue += l.queue_cycles;
            deg += l.degraded_cycles;
        }
        out.push_str(&format!("|links={ser:.1},{queue:.1},{deg:.1}"));
        out
    }

    /// Inverse of [`ProfileReport::encode_compact`]. The per-GPU stall
    /// totals round-trip exactly; DRAM and link occupancy come back as a
    /// single machine-wide aggregate entry each.
    pub fn decode_compact(s: &str) -> Option<ProfileReport> {
        let mut r = ProfileReport::default();
        for field in s.split('|') {
            let (key, val) = field.split_once('=')?;
            match key {
                "cycles" => r.cycles = val.parse().ok()?,
                "sms" => r.sms_per_gpu = val.parse().ok()?,
                "dram" => {
                    let mut it = val.split(',');
                    r.dram.push(DramChannelProfile {
                        gpu: 0,
                        channel: 0,
                        row_hit_cycles: it.next()?.parse().ok()?,
                        row_miss_cycles: it.next()?.parse().ok()?,
                        bus_cycles: it.next()?.parse().ok()?,
                        refresh_cycles: 0,
                    });
                }
                "links" => {
                    let mut it = val.split(',');
                    r.links.push(LinkOccupancy {
                        label: "all".into(),
                        ser_cycles: it.next()?.parse().ok()?,
                        queue_cycles: it.next()?.parse().ok()?,
                        degraded_cycles: it.next()?.parse().ok()?,
                    });
                }
                _ => {
                    let g: usize = key.strip_prefix("gpu")?.parse().ok()?;
                    if g != r.gpus.len() {
                        return None; // GPUs must appear in order
                    }
                    let mut cells = [0u64; NUM_STALL_CATS];
                    let mut it = val.split(',');
                    for cell in cells.iter_mut() {
                        *cell = it.next()?.parse().ok()?;
                    }
                    if it.next().is_some() {
                        return None;
                    }
                    r.gpus.push(cells);
                }
            }
        }
        Some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_indices_round_trip() {
        let mut labels: Vec<&str> = StallCat::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), NUM_STALL_CATS);
        for (i, cat) in StallCat::ALL.into_iter().enumerate() {
            assert_eq!(cat.index(), i);
            assert_eq!(StallCat::from_index(i), Some(cat));
        }
        assert_eq!(StallCat::from_index(NUM_STALL_CATS), None);
    }

    fn sample_report() -> ProfileReport {
        let mut gpus = vec![[0u64; NUM_STALL_CATS]; 2];
        gpus[0][StallCat::Issuing.index()] = 50;
        gpus[0][StallCat::RemoteLink.index()] = 30;
        gpus[0][StallCat::Idle.index()] = 20;
        gpus[1][StallCat::Issuing.index()] = 60;
        gpus[1][StallCat::LocalDram.index()] = 40;
        ProfileReport {
            cycles: 50,
            sms_per_gpu: 2,
            gpus,
            dram: vec![DramChannelProfile {
                gpu: 0,
                channel: 1,
                row_hit_cycles: 7,
                row_miss_cycles: 3,
                bus_cycles: 2.5,
                refresh_cycles: 0,
            }],
            links: vec![LinkOccupancy {
                label: "gpu0->gpu1".into(),
                ser_cycles: 12.0,
                queue_cycles: 5.0,
                degraded_cycles: 1.0,
            }],
        }
    }

    #[test]
    fn top_stalls_sorts_and_excludes_issuing() {
        let r = sample_report();
        let top = r.top_stalls();
        assert_eq!(top[0].0, StallCat::LocalDram);
        assert_eq!(top[1].0, StallCat::RemoteLink);
        assert!(top.iter().all(|(c, _)| *c != StallCat::Issuing));
        let s = r.stall_summary(3);
        assert!(
            s.starts_with("stalls: local-dram 20% | remote-link 15%"),
            "{s}"
        );
    }

    #[test]
    fn stall_summary_empty_when_all_issuing() {
        let mut gpus = vec![[0u64; NUM_STALL_CATS]];
        gpus[0][StallCat::Issuing.index()] = 10;
        let r = ProfileReport {
            cycles: 10,
            sms_per_gpu: 1,
            gpus,
            ..Default::default()
        };
        assert_eq!(r.stall_summary(3), "");
        assert_eq!(ProfileReport::default().stall_summary(3), "");
    }

    #[test]
    fn folded_lines_are_well_formed() {
        let r = sample_report();
        let folded = r.folded_string("NUMA-GPU");
        assert!(!folded.is_empty());
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("stack count");
            assert!(stack.contains(';'), "{line}");
            assert!(!stack.contains(' '), "{line}");
            count.parse::<u64>().expect("count is integer");
        }
        assert!(folded.contains("NUMA-GPU;gpu0;remote-link 30\n"));
        assert!(folded.contains("NUMA-GPU;dram;gpu0;ch1;row-hit 7\n"));
        assert!(folded.contains("NUMA-GPU;link;gpu0->gpu1;serialization 12\n"));
    }

    #[test]
    fn table_lists_every_category() {
        let r = sample_report();
        let table = r.table_string();
        for cat in StallCat::ALL {
            assert!(table.contains(cat.label()), "table lacks {}", cat.label());
        }
        assert!(table.contains("gpu0") && table.contains("gpu1"));
    }

    #[test]
    fn compact_encoding_round_trips_stall_totals() {
        let r = sample_report();
        let enc = r.encode_compact();
        assert!(!enc.contains('\t') && !enc.contains('\n'));
        let back = ProfileReport::decode_compact(&enc).expect("decodes");
        assert_eq!(back.cycles, r.cycles);
        assert_eq!(back.sms_per_gpu, r.sms_per_gpu);
        assert_eq!(back.gpus, r.gpus);
        assert_eq!(back.dram.len(), 1);
        assert_eq!(back.dram[0].row_hit_cycles, 7);
        assert_eq!(back.links.len(), 1);
        assert!((back.links[0].queue_cycles - 5.0).abs() < 1e-9);
        assert_eq!(ProfileReport::decode_compact("garbage"), None);
        assert_eq!(ProfileReport::decode_compact("cycles=1|gpu1=0"), None);
    }

    #[test]
    fn link_and_dram_derived_metrics() {
        let r = sample_report();
        assert!((r.links[0].utilization(100) - 0.13).abs() < 1e-9);
        assert_eq!(LinkOccupancy::default().utilization(0), 0.0);
        assert!((r.dram[0].idle_cycles(50) - 47.5).abs() < 1e-9);
        assert_eq!(r.dram[0].idle_cycles(1), 0.0);
    }

    #[test]
    fn accounted_sums_every_cell() {
        let r = sample_report();
        assert_eq!(r.accounted(), 200);
        assert_eq!(r.totals()[StallCat::Issuing.index()], 110);
    }
}
