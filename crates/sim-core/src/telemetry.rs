//! Time-sliced telemetry and structured event tracing.
//!
//! Two complementary observability surfaces, both **off by default** and
//! free on the hot path when disabled:
//!
//! * **Interval sampling** — every `SimConfig::telemetry_interval` cycles
//!   the engine's observer snapshots per-GPU component counters into a
//!   fixed-size [`IntervalRecord`] (instruction/hit-rate deltas for
//!   cumulative counters, point-in-time occupancy for queues, and — when
//!   the cycle profiler is on too — the SM-cycles charged to each stall
//!   category). The records form a [`Timeline`] that rides along on the
//!   run result and serializes to CSV. Per-interval instruction counts sum
//!   to the run's total instruction count exactly: the observer closes a
//!   final partial interval at end of run.
//! * **Event tracing** — the engine records structured [`TraceEvent`]s
//!   (kernel launch/drain spans per GPU, coherence broadcast and
//!   epoch-invalidation instants, page migrations) on the run result;
//!   [`write_chrome_json`] renders them as Chrome `chrome://tracing` /
//!   Perfetto-compatible JSON. With tracing off the engine constructs no
//!   event at all.
//!
//! Telemetry is *read-only*: sampling never mutates component state, so a
//! run with sampling enabled produces bit-identical aggregates to one
//! without (this is tested at the system layer).

use std::io::{self, Write};

use crate::profile::NUM_STALL_CATS;

/// One fixed-size telemetry sample: activity of a single GPU over the
/// half-open cycle interval `[start, end)` (the final record of a run is
/// closed at the run's last cycle). Counter fields are deltas over the
/// interval; occupancy fields (`active_warps`, `waiting_mem_warps`,
/// `mshr_outstanding`, `outbox_backlog`, `link_in_flight`) are
/// point-in-time values observed at the interval boundary; `stalls` is
/// the interval's cycle-accounting breakdown when the run was profiled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntervalRecord {
    /// First cycle covered by this record.
    pub start: u64,
    /// End of the interval (exclusive, except for the final flush record).
    pub end: u64,
    /// GPU index this record describes.
    pub gpu: u32,
    /// Warp instructions retired in the interval.
    pub instructions: u64,
    /// Occupied warp slots across the GPU's SMs at the boundary.
    pub active_warps: u64,
    /// Warps parked waiting on memory at the boundary.
    pub waiting_mem_warps: u64,
    /// L1 hits in the interval (all SMs).
    pub l1_hits: u64,
    /// L1 misses in the interval (all SMs).
    pub l1_misses: u64,
    /// L2 hits in the interval.
    pub l2_hits: u64,
    /// L2 misses in the interval.
    pub l2_misses: u64,
    /// Outstanding MSHR fills at the boundary.
    pub mshr_outstanding: u64,
    /// Requests backed up in the core's outbox at the boundary.
    pub outbox_backlog: u64,
    /// DRAM reads serviced in the interval (all channels).
    pub dram_reads: u64,
    /// DRAM writes serviced in the interval (all channels).
    pub dram_writes: u64,
    /// DRAM row-buffer hits in the interval.
    pub dram_row_hits: u64,
    /// DRAM row-buffer misses in the interval.
    pub dram_row_misses: u64,
    /// Bytes moved by the GPU's DRAM channels in the interval.
    pub dram_bytes: u64,
    /// Bytes sent on the GPU's outbound links (to peers + CPU) in the
    /// interval.
    pub link_bytes_out: u64,
    /// Messages in flight on the GPU's outbound links at the boundary.
    pub link_in_flight: u64,
    /// RDC probe hits in the interval (0 for designs without CARVE).
    pub rdc_hits: u64,
    /// RDC probe misses (tag/empty + stale-epoch) in the interval.
    pub rdc_misses: u64,
    /// RDC line insertions in the interval.
    pub rdc_insertions: u64,
    /// RDC invalidation drops in the interval.
    pub rdc_invalidations: u64,
    /// SM-cycles charged to each stall category inside the interval,
    /// indexed by [`crate::StallCat::index`]; sums to `(end - start) × SMs`.
    /// `None` unless the cycle profiler was on.
    pub stalls: Option<[u64; NUM_STALL_CATS]>,
}

impl IntervalRecord {
    /// Instructions per cycle over the interval (0 on an empty interval).
    pub fn ipc(&self) -> f64 {
        let cycles = self.end.saturating_sub(self.start);
        if cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / cycles as f64
        }
    }

    /// L1 hit rate over the interval (0 when no accesses).
    pub fn l1_hit_rate(&self) -> f64 {
        rate(self.l1_hits, self.l1_misses)
    }

    /// L2 hit rate over the interval (0 when no accesses).
    pub fn l2_hit_rate(&self) -> f64 {
        rate(self.l2_hits, self.l2_misses)
    }

    /// DRAM row-buffer hit rate over the interval (0 when no accesses).
    pub fn dram_row_hit_rate(&self) -> f64 {
        rate(self.dram_row_hits, self.dram_row_misses)
    }

    /// RDC hit rate over the interval (0 when no probes).
    pub fn rdc_hit_rate(&self) -> f64 {
        rate(self.rdc_hits, self.rdc_misses)
    }

    /// Outbound link bandwidth over the interval, in bytes per cycle.
    pub fn link_bytes_per_cycle(&self) -> f64 {
        let cycles = self.end.saturating_sub(self.start);
        if cycles == 0 {
            0.0
        } else {
            self.link_bytes_out as f64 / cycles as f64
        }
    }

    /// The record as one CSV line (no trailing newline), columns matching
    /// [`Timeline::CSV_HEADER`]. The stall columns are empty when the run
    /// was not profiled.
    pub fn csv_line(&self) -> String {
        let mut line = format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.start,
            self.end,
            self.gpu,
            self.instructions,
            self.active_warps,
            self.waiting_mem_warps,
            self.l1_hits,
            self.l1_misses,
            self.l2_hits,
            self.l2_misses,
            self.mshr_outstanding,
            self.outbox_backlog,
            self.dram_reads,
            self.dram_writes,
            self.dram_row_hits,
            self.dram_row_misses,
            self.dram_bytes,
            self.link_bytes_out,
            self.link_in_flight,
            self.rdc_hits,
            self.rdc_misses,
            self.rdc_insertions,
            self.rdc_invalidations,
        );
        for i in 0..NUM_STALL_CATS {
            line.push(',');
            if let Some(stalls) = &self.stalls {
                line.push_str(&stalls[i].to_string());
            }
        }
        line
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// A run's interval samples: one [`IntervalRecord`] per (interval × GPU),
/// in cycle order (GPU-major within each interval).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    /// Sampling interval in cycles.
    pub interval: u64,
    /// The samples, ordered by interval start, then GPU index.
    pub records: Vec<IntervalRecord>,
}

impl Timeline {
    /// CSV header line matching [`IntervalRecord::csv_line`]: the
    /// counters, then one column per stall category in
    /// [`crate::StallCat::ALL`] order. The trace-smoke CI job asserts this
    /// exact schema; widening it is fine, but bump the docs and CI check
    /// together.
    pub const CSV_HEADER: &'static str = "start,end,gpu,instructions,active_warps,\
         waiting_mem_warps,l1_hits,l1_misses,l2_hits,l2_misses,mshr_outstanding,\
         outbox_backlog,dram_reads,dram_writes,dram_row_hits,dram_row_misses,\
         dram_bytes,link_bytes_out,link_in_flight,rdc_hits,rdc_misses,\
         rdc_insertions,rdc_invalidations,issuing,idle,l1_miss,l2_miss,local_dram,\
         remote_link,coherence_invalidate,epoch_flush,rdc_miss,mshr_full,link_queue";

    /// Number of columns in the CSV schema.
    pub const CSV_COLUMNS: usize = 34;

    /// Creates an empty timeline with the given sampling interval.
    pub fn new(interval: u64) -> Timeline {
        Timeline {
            interval,
            records: Vec::new(),
        }
    }

    /// Sum of per-interval retired instructions across all records. The
    /// engine guarantees this equals the run's total instruction count.
    pub fn total_instructions(&self) -> u64 {
        self.records.iter().map(|r| r.instructions).sum()
    }

    /// Number of distinct sampled intervals (records ÷ GPUs).
    pub fn num_intervals(&self) -> usize {
        self.records
            .iter()
            .map(|r| (r.start, r.end))
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    }

    /// Writes header + records as CSV.
    pub fn write_csv<W: Write>(&self, w: &mut W) -> io::Result<()> {
        writeln!(w, "{}", Self::CSV_HEADER)?;
        for r in &self.records {
            writeln!(w, "{}", r.csv_line())?;
        }
        Ok(())
    }

    /// The full CSV document as a string.
    pub fn to_csv_string(&self) -> String {
        let mut buf = Vec::new();
        self.write_csv(&mut buf).expect("write to Vec cannot fail");
        String::from_utf8(buf).expect("CSV is ASCII")
    }
}

/// Chrome-tracing event phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// Span begin (`"B"`). Must nest properly with [`TracePhase::End`] on
    /// the same track.
    Begin,
    /// Span end (`"E"`).
    End,
    /// Instantaneous event (`"i"`).
    Instant,
}

impl TracePhase {
    /// The single-character Chrome-tracing phase code.
    pub fn code(&self) -> &'static str {
        match self {
            TracePhase::Begin => "B",
            TracePhase::End => "E",
            TracePhase::Instant => "i",
        }
    }
}

/// One structured engine event. `track` maps to the Chrome-tracing `tid`
/// (per-GPU events use the GPU index; system-wide events use
/// [`TraceEvent::SYSTEM_TRACK`]); the cycle count maps to `ts`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (e.g. `"kernel 3"`, `"page migration"`).
    pub name: String,
    /// Begin / end / instant.
    pub phase: TracePhase,
    /// Track (GPU index, or [`TraceEvent::SYSTEM_TRACK`]).
    pub track: u32,
    /// Simulated cycle at which the event occurred.
    pub cycle: u64,
    /// Optional numeric arguments rendered into the Chrome `args` object.
    pub args: Vec<(&'static str, u64)>,
}

impl TraceEvent {
    /// Track id for events that belong to the whole system rather than
    /// one GPU (coherence broadcasts, migrations, kernel boundaries).
    pub const SYSTEM_TRACK: u32 = u32::MAX;

    /// An instantaneous event with no arguments.
    pub fn instant(name: impl Into<String>, track: u32, cycle: u64) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            phase: TracePhase::Instant,
            track,
            cycle,
            args: Vec::new(),
        }
    }

    /// A span-begin event.
    pub fn begin(name: impl Into<String>, track: u32, cycle: u64) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            phase: TracePhase::Begin,
            track,
            cycle,
            args: Vec::new(),
        }
    }

    /// A span-end event (name must match the open span on the track).
    pub fn end(name: impl Into<String>, track: u32, cycle: u64) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            phase: TracePhase::End,
            track,
            cycle,
            args: Vec::new(),
        }
    }

    /// Attaches a numeric argument (builder-style).
    pub fn arg(mut self, key: &'static str, value: u64) -> TraceEvent {
        self.args.push((key, value));
        self
    }
}

/// Writes `events` as a Chrome `chrome://tracing` / Perfetto-compatible
/// JSON document (`{"traceEvents": [...]}`); `ts` is the simulated cycle
/// (shown as microseconds by the viewers — at the nominal 1 GHz clock,
/// 1 displayed µs = 1000 cycles).
pub fn write_chrome_json<W: Write>(events: &[TraceEvent], w: &mut W) -> io::Result<()> {
    writeln!(w, "{{\"traceEvents\":[")?;
    for (i, ev) in events.iter().enumerate() {
        let tid = if ev.track == TraceEvent::SYSTEM_TRACK {
            // Perfetto sorts tracks by tid; park system-wide events on
            // a small dedicated track below the per-GPU ones.
            0
        } else {
            ev.track as u64 + 1
        };
        write!(
            w,
            "{{\"name\":{},\"ph\":\"{}\",\"ts\":{},\"pid\":0,\"tid\":{}",
            json_string(&ev.name),
            ev.phase.code(),
            ev.cycle,
            tid,
        )?;
        if ev.phase == TracePhase::Instant {
            // Thread-scoped instants render as small arrows on the track.
            write!(w, ",\"s\":\"t\"")?;
        }
        if !ev.args.is_empty() {
            write!(w, ",\"args\":{{")?;
            for (j, (k, v)) in ev.args.iter().enumerate() {
                if j > 0 {
                    write!(w, ",")?;
                }
                write!(w, "{}:{}", json_string(k), v)?;
            }
            write!(w, "}}")?;
        }
        write!(w, "}}")?;
        if i + 1 < events.len() {
            writeln!(w, ",")?;
        } else {
            writeln!(w)?;
        }
    }
    writeln!(w, "]}}")
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(start: u64, end: u64, gpu: u32, instrs: u64) -> IntervalRecord {
        IntervalRecord {
            start,
            end,
            gpu,
            instructions: instrs,
            ..IntervalRecord::default()
        }
    }

    #[test]
    fn csv_header_matches_line_column_count() {
        let header_cols = Timeline::CSV_HEADER.split(',').count();
        assert_eq!(header_cols, Timeline::CSV_COLUMNS);
        let mut rec = record(0, 100, 0, 42);
        let line = rec.csv_line();
        assert_eq!(line.split(',').count(), Timeline::CSV_COLUMNS);
        // One schema: an unprofiled row leaves the stall columns empty.
        assert!(line.ends_with(&",".repeat(NUM_STALL_CATS)), "{line}");
        rec.stalls = Some([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        let line = rec.csv_line();
        assert_eq!(line.split(',').count(), Timeline::CSV_COLUMNS);
        assert!(line.ends_with(",0,0,0,0,1,2,3,4,5,6,7,8,9,10,11"), "{line}");
        // The stall columns follow the category order, one per category.
        let header: Vec<&str> = Timeline::CSV_HEADER.split(',').collect();
        let stall_cols = &header[header.len() - NUM_STALL_CATS..];
        for (col, cat) in stall_cols.iter().zip(crate::StallCat::ALL) {
            assert_eq!(*col, cat.label().replace('-', "_"));
        }
        // The continuation-escaped header must not leak stray whitespace.
        assert!(!Timeline::CSV_HEADER.contains(' '));
    }

    #[test]
    fn timeline_sums_instructions_and_counts_intervals() {
        let mut t = Timeline::new(100);
        t.records.push(record(0, 100, 0, 10));
        t.records.push(record(0, 100, 1, 20));
        t.records.push(record(100, 200, 0, 30));
        t.records.push(record(100, 200, 1, 40));
        assert_eq!(t.total_instructions(), 100);
        assert_eq!(t.num_intervals(), 2);
        let csv = t.to_csv_string();
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.starts_with("start,end,gpu,"));
    }

    #[test]
    fn interval_rates_handle_empty_intervals() {
        let r = record(50, 50, 0, 0);
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.l1_hit_rate(), 0.0);
        assert_eq!(r.dram_row_hit_rate(), 0.0);
        assert_eq!(r.link_bytes_per_cycle(), 0.0);
        let mut busy = record(0, 100, 0, 250);
        busy.l1_hits = 3;
        busy.l1_misses = 1;
        busy.link_bytes_out = 800;
        assert_eq!(busy.ipc(), 2.5);
        assert_eq!(busy.l1_hit_rate(), 0.75);
        assert_eq!(busy.link_bytes_per_cycle(), 8.0);
    }

    #[test]
    fn chrome_json_renders_spans_and_instants() {
        let events = [
            TraceEvent::begin("kernel 0", 1, 400),
            TraceEvent::end("kernel 0", 1, 900),
            TraceEvent::instant("page migration", TraceEvent::SYSTEM_TRACK, 950).arg("count", 100),
        ];
        let mut buf = Vec::new();
        write_chrome_json(&events, &mut buf).expect("write to Vec cannot fail");
        let json = String::from_utf8(buf).expect("trace JSON is UTF-8");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"args\":{\"count\":100}"));
        // System-track events land on tid 0; GPU 1 lands on tid 2.
        assert!(json.contains("\"tid\":0"));
        assert!(json.contains("\"tid\":2"));
    }

    #[test]
    fn json_escaping_covers_quotes_and_control_chars() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\ny\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
