//! Results of one simulation run.

use crate::design::Design;
use carve::RdcStats;
use carve_dram::DramStats;
use sim_core::profile::ProfileReport;
use sim_core::telemetry::{Timeline, TraceEvent};
use sim_core::{Histogram, RecoverySnapshot};

/// Everything measured by one [`crate::run`] invocation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Workload name.
    pub workload: String,
    /// The simulated design.
    pub design: Design,
    /// Total simulated cycles (including kernel launch gaps).
    pub cycles: u64,
    /// Warp instructions retired across all GPUs.
    pub instructions: u64,
    /// Kernels executed.
    pub kernels: usize,
    /// Memory requests serviced from local GPU memory (including RDC hits).
    pub local_serviced: u64,
    /// Memory requests serviced remotely (peer GPU memory or system
    /// memory over the links).
    pub remote_serviced: u64,
    /// Of the remote requests, those answered by system (CPU) memory.
    pub cpu_serviced: u64,
    /// Requests answered by an RDC hit (subset of `local_serviced`).
    pub rdc_hits_serviced: u64,
    /// Aggregated RDC statistics (zero for non-CARVE designs).
    pub rdc: RdcStats,
    /// Bytes moved over inter-GPU links.
    pub link_bytes: u64,
    /// Bytes moved over CPU links.
    pub cpu_link_bytes: u64,
    /// Page migrations performed.
    pub migrations: u64,
    /// Hardware-coherence write-invalidate broadcasts (IMST decisions).
    pub broadcasts: u64,
    /// Targeted invalidate messages under directory coherence.
    pub directory_invalidates: u64,
    /// Aggregated DRAM statistics across GPUs.
    pub dram: DramStats,
    /// L2 hits across GPUs.
    pub l2_hits: u64,
    /// L2 misses across GPUs.
    pub l2_misses: u64,
    /// L1 hits across GPUs.
    pub l1_hits: u64,
    /// L1 misses across GPUs.
    pub l1_misses: u64,
    /// Issue replays due to back-pressure.
    pub replays: u64,
    /// Secondary misses merged in MSHRs.
    pub mshr_merges: u64,
    /// Latency distribution of warp-visible read misses (cycles from L2
    /// miss to fill).
    pub read_latency: Histogram,
    /// Whether the run drained before `max_cycles`.
    pub completed: bool,
    /// Interval telemetry samples, present when sampling was enabled
    /// (`SimConfig::telemetry_interval`).
    /// Deliberately excluded from the campaign journal: the journal's
    /// 36-field line format is a stable resume contract, and timelines can
    /// be arbitrarily large. Results decoded from a journal carry `None`.
    pub timeline: Option<Timeline>,
    /// Cycle-accounting stall breakdown, present when profiling was
    /// enabled (`SimConfig::cycle_profile` / `--profile`). Like the
    /// timeline it is excluded from the 36-field journal encoding —
    /// campaigns that want per-point breakdowns journal a compact
    /// sidecar instead — so results decoded from a journal carry `None`.
    pub profile: Option<ProfileReport>,
    /// Structured engine events in record order, present when tracing was
    /// enabled (`SimConfig::event_trace`); render them with
    /// [`sim_core::write_chrome_json`]. Excluded from the journal encoding
    /// like the timeline, so results decoded from a journal carry `None`.
    pub trace: Option<Vec<TraceEvent>>,
    /// Recovery accounting, present when a fault plan was armed
    /// (`SimConfig::fault_plan` / `--faults`). Like the timeline it is
    /// excluded from the 36-field journal encoding — the faulted-ness of
    /// a campaign point lives in its *key*, not its result line — so
    /// results decoded from a journal carry `None`.
    pub recovery: Option<RecoverySnapshot>,
}

impl SimResult {
    /// Warp instructions per cycle across the whole system.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Fraction of post-LLC memory requests serviced remotely (Figure 8).
    /// RDC hits count as local — that is CARVE's whole point.
    pub fn remote_fraction(&self) -> f64 {
        let total = self.local_serviced + self.remote_serviced;
        if total == 0 {
            0.0
        } else {
            self.remote_serviced as f64 / total as f64
        }
    }

    /// Speedup of this run relative to `baseline` (same workload).
    ///
    /// # Panics
    ///
    /// Debug builds panic if the runs simulate different workloads (a
    /// cross-workload cycle ratio is always a harness bug); release
    /// builds fall back to 0.0 so one malformed grid cell cannot take
    /// down a whole campaign. Use [`SimResult::try_speedup_over`] to
    /// handle the mismatch explicitly.
    pub fn speedup_over(&self, baseline: &SimResult) -> f64 {
        debug_assert_eq!(
            self.workload, baseline.workload,
            "speedup comparisons must share a workload"
        );
        self.try_speedup_over(baseline).unwrap_or(0.0)
    }

    /// Speedup of this run relative to `baseline`, or `None` when the
    /// runs simulate different workloads (the non-panicking form of
    /// [`SimResult::speedup_over`]).
    pub fn try_speedup_over(&self, baseline: &SimResult) -> Option<f64> {
        if self.workload != baseline.workload {
            return None;
        }
        if self.cycles == 0 {
            return Some(0.0);
        }
        Some(baseline.cycles as f64 / self.cycles as f64)
    }

    /// Performance relative to `reference` expressed as reference-cycles /
    /// own-cycles (1.0 = parity, <1 = slower than the reference).
    ///
    /// # Panics
    ///
    /// Debug builds panic on a cross-workload comparison (see
    /// [`SimResult::speedup_over`]); release builds fall back to 0.0. Use
    /// [`SimResult::try_performance_vs`] to handle the mismatch
    /// explicitly.
    pub fn performance_vs(&self, reference: &SimResult) -> f64 {
        debug_assert_eq!(
            self.workload, reference.workload,
            "performance comparisons must share a workload"
        );
        self.try_performance_vs(reference).unwrap_or(0.0)
    }

    /// Performance relative to `reference`, or `None` when the runs
    /// simulate different workloads (the non-panicking form of
    /// [`SimResult::performance_vs`]).
    pub fn try_performance_vs(&self, reference: &SimResult) -> Option<f64> {
        self.try_speedup_over(reference)
    }

    /// Serializes every field into one tab-separated journal line (no
    /// trailing newline). [`SimResult::decode_journal_line`] restores the
    /// exact value, so campaign tables rebuilt from a journal are
    /// byte-identical to tables from live runs.
    ///
    /// # Panics
    ///
    /// Panics if the workload name contains a tab or newline (no real
    /// workload does; this guards the journal's framing).
    pub fn encode_journal_line(&self) -> String {
        assert!(
            !self.workload.contains(['\t', '\n']),
            "workload name {:?} would break journal framing",
            self.workload
        );
        let f: Vec<String> = vec![
            self.workload.clone(),
            self.design.label().to_string(),
            self.cycles.to_string(),
            self.instructions.to_string(),
            self.kernels.to_string(),
            self.local_serviced.to_string(),
            self.remote_serviced.to_string(),
            self.cpu_serviced.to_string(),
            self.rdc_hits_serviced.to_string(),
            self.rdc.hits.to_string(),
            self.rdc.misses.to_string(),
            self.rdc.stale_misses.to_string(),
            self.rdc.insertions.to_string(),
            self.rdc.store_updates.to_string(),
            self.rdc.invalidations.to_string(),
            self.rdc.epoch_bumps.to_string(),
            self.rdc.rollover_resets.to_string(),
            self.link_bytes.to_string(),
            self.cpu_link_bytes.to_string(),
            self.migrations.to_string(),
            self.broadcasts.to_string(),
            self.directory_invalidates.to_string(),
            self.dram.reads.to_string(),
            self.dram.writes.to_string(),
            self.dram.row_hits.to_string(),
            self.dram.row_misses.to_string(),
            self.dram.bytes_transferred.to_string(),
            self.dram.queue_rejections.to_string(),
            self.l2_hits.to_string(),
            self.l2_misses.to_string(),
            self.l1_hits.to_string(),
            self.l1_misses.to_string(),
            self.replays.to_string(),
            self.mshr_merges.to_string(),
            self.read_latency.encode(),
            self.completed.to_string(),
        ];
        f.join("\t")
    }

    /// Parses a line produced by [`SimResult::encode_journal_line`].
    /// Returns `None` on any malformed or truncated input (a partially
    /// written trailing line after a crash must not poison the resume).
    pub fn decode_journal_line(line: &str) -> Option<SimResult> {
        let mut f = line.split('\t');
        let u = |f: &mut std::str::Split<'_, char>| f.next()?.parse::<u64>().ok();
        let workload = f.next()?.to_string();
        let design = Design::from_label(f.next()?)?;
        let cycles = u(&mut f)?;
        let instructions = u(&mut f)?;
        let kernels = f.next()?.parse::<usize>().ok()?;
        let local_serviced = u(&mut f)?;
        let remote_serviced = u(&mut f)?;
        let cpu_serviced = u(&mut f)?;
        let rdc_hits_serviced = u(&mut f)?;
        let rdc = RdcStats {
            hits: u(&mut f)?,
            misses: u(&mut f)?,
            stale_misses: u(&mut f)?,
            insertions: u(&mut f)?,
            store_updates: u(&mut f)?,
            invalidations: u(&mut f)?,
            epoch_bumps: u(&mut f)?,
            rollover_resets: u(&mut f)?,
        };
        let link_bytes = u(&mut f)?;
        let cpu_link_bytes = u(&mut f)?;
        let migrations = u(&mut f)?;
        let broadcasts = u(&mut f)?;
        let directory_invalidates = u(&mut f)?;
        let dram = DramStats {
            reads: u(&mut f)?,
            writes: u(&mut f)?,
            row_hits: u(&mut f)?,
            row_misses: u(&mut f)?,
            bytes_transferred: u(&mut f)?,
            queue_rejections: u(&mut f)?,
        };
        let l2_hits = u(&mut f)?;
        let l2_misses = u(&mut f)?;
        let l1_hits = u(&mut f)?;
        let l1_misses = u(&mut f)?;
        let replays = u(&mut f)?;
        let mshr_merges = u(&mut f)?;
        let read_latency = Histogram::decode(f.next()?)?;
        let completed = match f.next()? {
            "true" => true,
            "false" => false,
            _ => return None,
        };
        if f.next().is_some() {
            return None; // trailing garbage: treat as corrupt
        }
        Some(SimResult {
            workload,
            design,
            cycles,
            instructions,
            kernels,
            local_serviced,
            remote_serviced,
            cpu_serviced,
            rdc_hits_serviced,
            rdc,
            link_bytes,
            cpu_link_bytes,
            migrations,
            broadcasts,
            directory_invalidates,
            dram,
            l2_hits,
            l2_misses,
            l1_hits,
            l1_misses,
            replays,
            mshr_merges,
            read_latency,
            completed,
            timeline: None,
            profile: None,
            trace: None,
            recovery: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(workload: &str, cycles: u64) -> SimResult {
        SimResult {
            workload: workload.to_string(),
            design: Design::NumaGpu,
            cycles,
            instructions: 1000,
            kernels: 1,
            local_serviced: 60,
            remote_serviced: 40,
            cpu_serviced: 0,
            rdc_hits_serviced: 0,
            rdc: RdcStats::default(),
            link_bytes: 0,
            cpu_link_bytes: 0,
            migrations: 0,
            broadcasts: 0,
            directory_invalidates: 0,
            dram: DramStats::default(),
            l2_hits: 0,
            l2_misses: 0,
            l1_hits: 0,
            l1_misses: 0,
            replays: 0,
            mshr_merges: 0,
            read_latency: Histogram::new(),
            completed: true,
            timeline: None,
            profile: None,
            trace: None,
            recovery: None,
        }
    }

    #[test]
    fn remote_fraction_and_ipc() {
        let r = result("w", 500);
        assert!((r.remote_fraction() - 0.4).abs() < 1e-12);
        assert!((r.ipc() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_is_cycle_ratio() {
        let fast = result("w", 100);
        let slow = result("w", 400);
        assert!((fast.speedup_over(&slow) - 4.0).abs() < 1e-12);
        assert!((slow.performance_vs(&fast) - 0.25).abs() < 1e-12);
    }

    // The check is a `debug_assert!`: release builds do not panic.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "share a workload")]
    fn cross_workload_speedup_panics() {
        let a = result("a", 100);
        let b = result("b", 100);
        let _ = a.speedup_over(&b);
    }

    #[test]
    fn try_speedup_over_reports_mismatch_without_panicking() {
        let a = result("a", 100);
        let b = result("b", 100);
        assert_eq!(a.try_speedup_over(&b), None);
        let c = result("a", 400);
        assert_eq!(a.try_speedup_over(&c), Some(4.0));
        let idle = result("a", 0);
        assert_eq!(idle.try_speedup_over(&c), Some(0.0));
    }

    #[test]
    fn journal_line_excludes_timeline_and_decodes_to_none() {
        let mut r = result("w", 10);
        let without = r.encode_journal_line();
        r.timeline = Some(Timeline::new(100));
        r.profile = Some(ProfileReport {
            cycles: 10,
            sms_per_gpu: 2,
            gpus: vec![[1u64; sim_core::NUM_STALL_CATS]],
            dram: Vec::new(),
            links: Vec::new(),
        });
        r.recovery = Some(RecoverySnapshot {
            faults_applied: 3,
            reroutes: 2,
            ..RecoverySnapshot::default()
        });
        let with = r.encode_journal_line();
        // Neither the timeline, the stall profile, nor the recovery
        // accounting may leak into the stable 36-field journal format.
        assert_eq!(with, without);
        let back = SimResult::decode_journal_line(&with).expect("well-formed");
        assert!(back.timeline.is_none());
        assert!(back.profile.is_none());
        assert!(back.recovery.is_none());
    }

    #[test]
    fn journal_line_round_trips_every_field() {
        let mut r = result("Lulesh", 12345);
        r.design = Design::CarveHwc;
        r.rdc = RdcStats {
            hits: 1,
            misses: 2,
            stale_misses: 3,
            insertions: 4,
            store_updates: 5,
            invalidations: 6,
            epoch_bumps: 7,
            rollover_resets: 8,
        };
        r.dram = DramStats {
            reads: 11,
            writes: 12,
            row_hits: 13,
            row_misses: 14,
            bytes_transferred: 15,
            queue_rejections: 16,
        };
        r.read_latency.record(100);
        r.read_latency.record(9000);
        let line = r.encode_journal_line();
        assert!(!line.contains('\n'));
        let back = SimResult::decode_journal_line(&line).expect("well-formed");
        assert_eq!(back.workload, r.workload);
        assert_eq!(back.design, r.design);
        assert_eq!(back.cycles, r.cycles);
        assert_eq!(back.rdc, r.rdc);
        assert_eq!(back.dram, r.dram);
        assert_eq!(back.read_latency, r.read_latency);
        assert_eq!(back.completed, r.completed);
        // And the re-encoding is byte-identical (resume determinism).
        assert_eq!(back.encode_journal_line(), line);
    }

    #[test]
    fn truncated_journal_line_is_rejected_not_misparsed() {
        let line = result("w", 10).encode_journal_line();
        for cut in [1, line.len() / 2, line.len() - 1] {
            assert!(
                SimResult::decode_journal_line(&line[..cut]).is_none(),
                "accepted a truncated line cut at {cut}"
            );
        }
        assert!(SimResult::decode_journal_line(&format!("{line}\textra")).is_none());
        assert!(SimResult::decode_journal_line("").is_none());
    }
}
