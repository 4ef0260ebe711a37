//! Spans of the traced pass: one per call the benchmark makes into the
//! simulator (the workload, each `profile_workload`, each point, each
//! probe), kept in memory and written out as a Chrome trace at exit.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called (`workload`, `profile_workload`, `point`, `probe.<layer>`).
    pub name: String,
    /// Start, ns since the trace origin.
    pub start_ns: u64,
    /// End, ns since the trace origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Thread lane: 0 for the main thread, 1.. for the pool workers.
    pub lane: usize,
    /// The workload the call belongs to.
    pub workload: String,
    /// The point's design slug, when the span is a point.
    pub design: Option<&'static str>,
}

/// Host time spent under one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: usize,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns: duration minus the part its children cover.
    pub self_ns: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// ns since the trace origin at instant `t` (0 before the origin).
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Runs `f` inside a main-thread span named `name` under `parent`.
    pub fn time<R>(
        &mut self,
        name: &str,
        workload: &str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Trace, usize) -> R,
    ) -> R {
        let idx = self.push(Span {
            name: name.to_string(),
            start_ns: self.at(Instant::now()),
            end_ns: 0,
            parent,
            lane: 0,
            workload: workload.to_string(),
            design: None,
        });
        let r = f(self, idx);
        self.spans[idx].end_ns = self.at(Instant::now());
        r
    }

    /// Totals and self time per span name.
    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(covered(kids, s.start_ns, s.end_ns));
        }
        out
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let design = s
                .design
                .map_or(String::new(), |d| format!(", \"design\": \"{d}\""));
            out += &format!(
                "  {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \
                 \"workload\": \"{}\"{design}}}}}{sep}\n",
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.workload,
            );
        }
        out + "]}\n"
    }
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::new()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`. Children on
/// two worker threads overlap, so their durations cannot simply be summed.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            lane: 0,
            workload: "w".into(),
            design: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let mut t = Trace::new();
        let root = t.push(span("workload", 0, 100, None));
        t.push(span("point", 10, 50, Some(root)));
        t.push(span("point", 30, 70, Some(root)));
        t.push(span("point", 90, 120, Some(root)));
        let totals = t.totals();
        // Children cover [10, 70) and [90, 100) of the root.
        assert_eq!(totals["workload"].self_ns, 30);
        assert_eq!(totals["point"].count, 3);
        assert_eq!(totals["point"].total_ns, 40 + 40 + 30);
        assert_eq!(totals["point"].self_ns, 110);
    }

    #[test]
    fn chrome_trace_lists_every_span_with_its_parent() {
        let mut t = Trace::new();
        t.time("workload", "w", None, |t, root| {
            t.time("probe.dram", "w", Some(root), |_, _| ());
        });
        let text = t.chrome_json();
        assert!(text.starts_with("{\"traceEvents\": ["));
        assert_eq!(text.matches("\"ph\": \"X\"").count(), 2);
        assert!(text.contains("\"parent\": 0"));
    }
}
