//! The metrics of a run, the output checks, and how both are printed.

use std::collections::BTreeMap;

use carve_system::{SimResult, StallCat};
use sim_core::geomean;

use crate::grid::{Prepared, DESIGN_SLUGS, FIG02_PAPER};
use crate::measure::{quantile, summarize, Summary};
use crate::pool::{fnv1a, point_digest, PointRun, Rep, WORKERS};
use crate::probes::Rates;
use crate::suite::WorkloadRun;

/// A metric's name, unit and direction.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
}

fn def(name: &str, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        higher_is_better,
    }
}

/// The end-to-end metrics, measured with tracing off.
pub fn end_to_end_defs() -> Vec<MetricDef> {
    vec![
        def("minst_per_cpu_s", "Minst/cpu-s", true),
        def("mcyc_per_cpu_s", "Mcyc/cpu-s", true),
        def("wall_s", "s", false),
        def("point_cpu_s_p50", "cpu-s", false),
        def("point_cpu_s_tail", "cpu-s", false),
        def("setup_s", "s", false),
        def("peak_rss_mib", "MiB", false),
    ]
}

/// The stall-ledger category behind each per-layer stall share.
const STALLS: [(StallCat, &str); 11] = [
    (StallCat::Issuing, "gpu.stall.issuing"),
    (StallCat::Idle, "gpu.stall.idle"),
    (StallCat::L1Miss, "gpu.stall.l1_miss"),
    (StallCat::L2Miss, "gpu.stall.l2_miss"),
    (StallCat::MshrFull, "gpu.stall.mshr_full"),
    (StallCat::LocalDram, "dram.stall.local_dram"),
    (StallCat::RemoteLink, "noc.stall.remote_link"),
    (StallCat::LinkQueue, "noc.stall.link_queue"),
    (StallCat::RdcMiss, "carve.stall.rdc_miss"),
    (
        StallCat::CoherenceInvalidate,
        "carve.stall.coherence_invalidate",
    ),
    (StallCat::EpochFlush, "carve.stall.epoch_flush"),
];

/// The per-layer metrics of the traced pass, grouped by layer.
pub fn per_layer_defs() -> Vec<MetricDef> {
    let stall = |cat: StallCat| {
        let (_, name) = STALLS
            .iter()
            .find(|(c, _)| *c == cat)
            .expect("every category has a metric");
        def(name, "fraction", cat == StallCat::Issuing)
    };
    let mut d = vec![
        def("trace.gen_ns_per_op", "ns", false),
        def("runtime.profile_s", "s", false),
        def("runtime.page_table_ns_per_access", "ns", false),
        def("runtime.migrations", "count", false),
        def("runtime.remote_fraction", "fraction", false),
        def("gpu.core_ns_per_cycle", "ns", false),
        def("gpu.core_ns_per_instr", "ns", false),
        def("gpu.l1_hit_rate", "fraction", true),
        def("gpu.l2_hit_rate", "fraction", true),
        def("gpu.replays", "count", false),
        def("gpu.mshr_merges", "count", true),
        stall(StallCat::Issuing),
        stall(StallCat::Idle),
        stall(StallCat::L1Miss),
        stall(StallCat::L2Miss),
        stall(StallCat::MshrFull),
        def("dram.ns_per_request", "ns", false),
        def("dram.requests", "count", false),
        def("dram.row_hit_rate", "fraction", true),
        stall(StallCat::LocalDram),
        def("noc.ns_per_message", "ns", false),
        def("noc.link_gb", "GB", false),
        def("noc.cpu_link_gb", "GB", false),
        stall(StallCat::RemoteLink),
        stall(StallCat::LinkQueue),
        def("carve.rdc_ns_per_access", "ns", false),
        def("carve.imst_ns_per_access", "ns", false),
        def("carve.directory_ns_per_op", "ns", false),
        def("carve.rdc_hit_rate", "fraction", true),
        def("carve.broadcasts", "count", false),
        def("carve.directory_invalidates", "count", false),
        stall(StallCat::RdcMiss),
        stall(StallCat::CoherenceInvalidate),
        stall(StallCat::EpochFlush),
        def("system.sim_cycles", "count", false),
    ];
    for slug in DESIGN_SLUGS {
        d.push(def(&format!("system.ns_per_sim_cycle.{slug}"), "ns", false));
    }
    for (slug, _) in FIG02_PAPER {
        d.push(def(
            &format!("system.geomean_vs_ideal.{slug}"),
            "ratio",
            true,
        ));
    }
    d.extend([
        def("system.fidelity_err", "abs", false),
        def("experiments.imbalance", "ratio", false),
        def("experiments.runq_wait_s", "s", false),
        def("experiments.tracing_overhead", "fraction", false),
    ]);
    d
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The reported value: the median of the samples, or the statistic
    /// named in `note`.
    pub value: f64,
    /// Spread of the samples the value comes from.
    pub summary: Summary,
    /// How the value was taken, when not a plain median.
    pub note: String,
}

fn metric(d: &MetricDef, samples: &[f64], value: f64, note: String) -> Metric {
    Metric {
        name: d.name.clone(),
        unit: d.unit,
        value,
        summary: summarize(samples),
        note,
    }
}

/// Successful results of a rep, with each point's GPU count.
fn results<'a>(
    prep: &'a Prepared,
    rep: &'a Rep,
) -> impl Iterator<Item = (&'a SimResult, usize)> + 'a {
    rep.runs.iter().filter_map(move |r| {
        let gpus = prep.grid.points[r.index].num_gpus();
        r.outcome.as_ref().ok().map(|res| (res, gpus))
    })
}

/// `(instructions, cycles, cpu ns, run-queue ns)` summed over a rep.
fn rep_totals(rep: &Rep) -> (u64, u64, u64, u64) {
    rep.runs.iter().fold((0, 0, 0, 0), |(i, c, cpu, w), r| {
        let (ri, rc) = r
            .outcome
            .as_ref()
            .map_or((0, 0), |s| (s.instructions, s.cycles));
        (i + ri, c + rc, cpu + r.cpu_ns, w + r.wait_ns)
    })
}

fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Each point's successful executions over the timed reps as `(CPU ns,
/// result)`, fastest first.
fn executions<'r>(run: &'r WorkloadRun<'_>) -> Vec<Vec<(u64, &'r SimResult)>> {
    let mut by_point: Vec<Vec<(u64, &SimResult)>> = vec![Vec::new(); run.prep.grid.points.len()];
    for p in run.reps.iter().flat_map(|r| &r.runs) {
        if let Ok(res) = &p.outcome {
            by_point[p.index].push((p.cpu_ns, res));
        }
    }
    for e in &mut by_point {
        e.sort_by_key(|(ns, _)| *ns);
    }
    by_point
}

/// The end-to-end metrics of `run`, in [`end_to_end_defs`] order, less
/// `peak_rss_mib` when the reps did not read it (several workloads ran).
///
/// Host contention on a shared machine only ever adds time, and comes in
/// bursts that can slow a whole rep by 30% or more. So host-time metrics
/// are taken from the best of the repeats: a point's CPU time is its
/// fastest execution, the makespan the fastest rep's, and the point-time
/// percentiles pool each point's faster half of executions. The per-rep
/// values (or pooled samples) give the quartiles. Peak RSS is the median
/// rep's: the highest rep's depends on whether the grid's two largest
/// points happened to run at once.
pub fn end_to_end(run: &WorkloadRun<'_>) -> Vec<Metric> {
    let per_rep = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { run.reps.iter().map(f).collect() };
    let reps = run.reps.len();
    let executions = executions(run);
    let best = executions.iter().filter_map(|e| e.first());
    let (instrs, cycles, best_ns) = best.fold((0, 0, 0), |(i, c, ns), (cpu, r)| {
        (i + r.instructions, c + r.cycles, ns + cpu)
    });
    let best_note = format!("best of {reps} reps per point");
    let quiet: Vec<f64> = executions
        .iter()
        .flat_map(|e| {
            e[..e.len().div_ceil(2)]
                .iter()
                .map(|(ns, _)| *ns as f64 / 1e9)
        })
        .collect();
    let tail = run.prep.grid.tail_pct;
    let tail_value = quantile(&quiet, tail);
    let beyond = quiet.iter().filter(|&&p| p > tail_value).count();
    let wall = per_rep(&|r| r.wall_s);
    let rss: Vec<f64> = run.reps.iter().filter_map(|r| r.rss_mib).collect();
    let defs = end_to_end_defs();
    let rate = |count: u64| count as f64 * 1e3 / best_ns as f64;
    let best_wall = wall.iter().copied().fold(f64::INFINITY, f64::min);
    let mut out = vec![
        metric(
            &defs[0],
            &per_rep(&|r| rate_of(r, |i, _| i)),
            rate(instrs),
            best_note.clone(),
        ),
        metric(
            &defs[1],
            &per_rep(&|r| rate_of(r, |_, c| c)),
            rate(cycles),
            best_note,
        ),
        metric(&defs[2], &wall, best_wall, format!("best of {reps} reps")),
        metric(
            &defs[3],
            &quiet,
            median(&quiet),
            "faster half of each point's reps".into(),
        ),
        metric(
            &defs[4],
            &quiet,
            tail_value,
            format!("p{:.0} of the same, {beyond} samples beyond", tail * 100.0),
        ),
        metric(&defs[5], &run.setup_s, median(&run.setup_s), String::new()),
    ];
    if !rss.is_empty() {
        out.push(metric(&defs[6], &rss, median(&rss), String::new()));
    }
    out
}

/// Millions of `count(instructions, cycles)` per CPU second of one rep.
fn rate_of(rep: &Rep, count: impl Fn(u64, u64) -> u64) -> f64 {
    let (instrs, cycles, cpu_ns, _) = rep_totals(rep);
    count(instrs, cycles) as f64 * 1e3 / cpu_ns as f64
}

/// DRAM and link rates of a rep, for the probes.
pub(crate) fn rates(prep: &Prepared, rep: &Rep) -> Rates {
    let (mut dram, mut gpu_cycles, mut link, mut cycles) = (0u64, 0u64, 0u64, 0u64);
    for (r, gpus) in results(prep, rep) {
        dram += r.dram.reads + r.dram.writes;
        gpu_cycles += r.cycles * gpus as u64;
        link += r.link_bytes;
        cycles += r.cycles;
    }
    Rates {
        dram_per_gpu_cycle: ratio(dram, gpu_cycles),
        link_bytes_per_cycle: ratio(link, cycles),
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Geomean over the grid's workloads of Ideal cycles / `slug` cycles;
/// zero when the grid has no Ideal or no `slug` column.
fn geomean_vs_ideal(prep: &Prepared, rep: &Rep, slug: &str) -> f64 {
    let mut by_spec: BTreeMap<&str, (Option<u64>, Option<u64>)> = BTreeMap::new();
    for r in rep.runs.iter() {
        let (Ok(res), p) = (&r.outcome, &prep.grid.points[r.index]) else {
            continue;
        };
        let e = by_spec.entry(p.spec.name).or_default();
        if p.design == "ideal" {
            e.0 = Some(res.cycles);
        }
        if p.design == slug {
            e.1 = Some(res.cycles);
        }
    }
    let perf: Vec<f64> = by_spec
        .values()
        .filter_map(|&(ideal, d)| Some(ideal? as f64 / d? as f64))
        .collect();
    if perf.is_empty() {
        0.0
    } else {
        geomean(perf.iter().copied())
    }
}

/// The per-layer metrics of `run`'s traced pass, in [`per_layer_defs`]
/// order; `None` without a traced pass. Simulated counts are summed over
/// the pass's points; stall shares are fractions of SM-cycles. The
/// fidelity metrics come from the fidelity run, and read 0 without one.
pub fn per_layer(run: &WorkloadRun<'_>) -> Option<Vec<Metric>> {
    let traced = run.traced.as_ref()?;
    let (prep, rep) = (&run.prep, &traced.rep);
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, x: f64| {
        v.insert(name.to_string(), x);
    };
    let sum =
        |f: &dyn Fn(&SimResult) -> u64| -> u64 { results(prep, rep).map(|(r, _)| f(r)).sum() };

    for (name, x) in &traced.probes {
        put(name, *x);
    }
    put("runtime.profile_s", median(&traced.profile_s));
    put("runtime.migrations", sum(&|r| r.migrations) as f64);
    put(
        "runtime.remote_fraction",
        ratio(
            sum(&|r| r.remote_serviced),
            sum(&|r| r.local_serviced + r.remote_serviced),
        ),
    );
    put(
        "gpu.l1_hit_rate",
        ratio(sum(&|r| r.l1_hits), sum(&|r| r.l1_hits + r.l1_misses)),
    );
    put(
        "gpu.l2_hit_rate",
        ratio(sum(&|r| r.l2_hits), sum(&|r| r.l2_hits + r.l2_misses)),
    );
    put("gpu.replays", sum(&|r| r.replays) as f64);
    put("gpu.mshr_merges", sum(&|r| r.mshr_merges) as f64);
    put(
        "dram.requests",
        sum(&|r| r.dram.reads + r.dram.writes) as f64,
    );
    put(
        "dram.row_hit_rate",
        ratio(
            sum(&|r| r.dram.row_hits),
            sum(&|r| r.dram.row_hits + r.dram.row_misses),
        ),
    );
    put("noc.link_gb", sum(&|r| r.link_bytes) as f64 / 1e9);
    put("noc.cpu_link_gb", sum(&|r| r.cpu_link_bytes) as f64 / 1e9);
    put(
        "carve.rdc_hit_rate",
        ratio(
            sum(&|r| r.rdc.hits),
            sum(&|r| r.rdc.hits + r.rdc.misses + r.rdc.stale_misses),
        ),
    );
    put("carve.broadcasts", sum(&|r| r.broadcasts) as f64);
    put(
        "carve.directory_invalidates",
        sum(&|r| r.directory_invalidates) as f64,
    );
    put("system.sim_cycles", sum(&|r| r.cycles) as f64);

    let mut stalls = [0u64; carve_system::NUM_STALL_CATS];
    for (r, _) in results(prep, rep) {
        if let Some(p) = &r.profile {
            for (s, t) in stalls.iter_mut().zip(p.totals()) {
                *s += t;
            }
        }
    }
    let accounted: u64 = stalls.iter().sum();
    for (cat, name) in STALLS {
        put(name, ratio(stalls[cat.index()], accounted));
    }

    for slug in DESIGN_SLUGS {
        let (mut cpu, mut cycles) = (0u64, 0u64);
        for p in run.reps.iter().flat_map(|r| &r.runs) {
            if let (Ok(res), true) = (&p.outcome, prep.grid.points[p.index].design == slug) {
                cpu += p.cpu_ns;
                cycles += res.cycles;
            }
        }
        put(
            &format!("system.ns_per_sim_cycle.{slug}"),
            ratio(cpu, cycles),
        );
    }
    let mut err = Vec::new();
    for (slug, paper) in FIG02_PAPER {
        let g = traced
            .fidelity
            .as_ref()
            .map_or(0.0, |f| geomean_vs_ideal(&f.prep, &f.rep, slug));
        put(&format!("system.geomean_vs_ideal.{slug}"), g);
        if g > 0.0 {
            err.push((g - paper).abs());
        }
    }
    let fidelity = if err.len() == FIG02_PAPER.len() {
        err.iter().sum::<f64>() / err.len() as f64
    } else {
        0.0
    };
    put("system.fidelity_err", fidelity);

    let imbalance: Vec<f64> = run
        .reps
        .iter()
        .map(|r| r.wall_s * WORKERS as f64 * 1e9 / rep_totals(r).2 as f64)
        .collect();
    put("experiments.imbalance", median(&imbalance));
    let runq: Vec<f64> = run
        .reps
        .iter()
        .map(|r| rep_totals(r).3 as f64 / 1e9)
        .collect();
    put("experiments.runq_wait_s", median(&runq));
    let untraced: Vec<f64> = run.reps.iter().map(|r| rate_of(r, |i, _| i)).collect();
    put(
        "experiments.tracing_overhead",
        1.0 - rate_of(rep, |i, _| i) / median(&untraced),
    );

    let fidelity_note = match &traced.fidelity {
        Some(f) => format!("{} points at the Table II shape", f.rep.runs.len()),
        None => String::new(),
    };
    Some(
        per_layer_defs()
            .iter()
            .map(|d| {
                let x = *v.get(&d.name).expect("every per-layer metric is computed");
                let fidelity = d.name.starts_with("system.geomean_vs_ideal.")
                    || d.name == "system.fidelity_err";
                let note = if fidelity {
                    fidelity_note.clone()
                } else {
                    String::new()
                };
                metric(d, &[x], x, note)
            })
            .collect(),
    )
}

/// What the output checks found for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Checks {
    /// Point executions: warm-up, timed reps and traced pass.
    pub attempted: usize,
    /// `<workload>/<design>: <why>` for every failed execution.
    pub failures: Vec<String>,
    /// Points whose statistics differed between executions.
    pub unstable: Vec<String>,
    /// Digest of each point's statistics, in grid order.
    pub point_digests: Vec<Option<u64>>,
    /// FNV-1a of every point's journal line, in grid order.
    pub digest: u64,
}

impl Checks {
    /// No point failed and every point repeated its statistics exactly,
    /// with the stall ledger on or off.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.unstable.is_empty()
    }
}

fn point_label(prep: &Prepared, index: usize) -> String {
    let p = &prep.grid.points[index];
    format!("{}/{}", p.spec.name, p.design)
}

/// Checks every execution of `run`'s grid points: warm-up, timed reps
/// and traced rep.
pub fn checks(run: &WorkloadRun<'_>) -> Checks {
    let traced = run.traced.iter().map(|t| &t.rep);
    let all = run
        .warmup
        .iter()
        .chain(run.reps.iter().chain(traced).flat_map(|r| &r.runs));
    check_runs(&run.prep, all)
}

/// Checks executions `all` of `prep`'s points: each must succeed, and
/// every execution of a point must give the same statistics.
pub fn check_runs<'r>(prep: &Prepared, all: impl IntoIterator<Item = &'r PointRun>) -> Checks {
    let n = prep.grid.points.len();
    let mut first: Vec<Option<&SimResult>> = vec![None; n];
    let mut failures = Vec::new();
    let mut unstable = Vec::new();
    let mut attempted = 0;
    for pr in all {
        attempted += 1;
        match &pr.outcome {
            Err(e) => failures.push(format!("{}: {e}", point_label(prep, pr.index))),
            Ok(r) => match first[pr.index] {
                None => first[pr.index] = Some(r),
                Some(f) => {
                    let label = point_label(prep, pr.index);
                    if f.encode_journal_line() != r.encode_journal_line()
                        && !unstable.contains(&label)
                    {
                        unstable.push(label);
                    }
                }
            },
        }
    }
    let lines: Vec<String> = first
        .iter()
        .flatten()
        .map(|r| r.encode_journal_line())
        .collect();
    Checks {
        attempted,
        failures,
        unstable,
        point_digests: first.iter().map(|r| r.map(point_digest)).collect(),
        digest: fnv1a(lines.join("\n").as_bytes()),
    }
}

/// Seed-0 digests recorded per point: `label index spec design hex`.
pub const RECORDED: &str = include_str!("../digests.txt");

/// How a run's seed-0 outputs compare with the recorded ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outputs {
    /// Every point's statistics are the recorded ones.
    Match,
    /// These points' statistics differ from the recorded ones.
    Differs(Vec<String>),
    /// Nothing is recorded for this grid, or for a grid of another size.
    Unrecorded,
}

impl Outputs {
    /// Whether the outputs are the recorded ones.
    pub fn ok(&self) -> bool {
        *self == Outputs::Match
    }
}

impl std::fmt::Display for Outputs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Outputs::Match => write!(f, "outputs=match"),
            Outputs::Unrecorded => write!(f, "outputs=unrecorded"),
            Outputs::Differs(d) if d.len() <= 10 => {
                write!(f, "outputs=differs({} points: {})", d.len(), d.join(", "))
            }
            Outputs::Differs(d) => write!(
                f,
                "outputs=differs({} points: {}, ...)",
                d.len(),
                d[..10].join(", ")
            ),
        }
    }
}

/// Compares `checks`' per-point digests with the lines of `recorded` (in
/// the format of [`digest_lines`]) labelled `label`.
pub fn outputs(recorded: &str, label: &str, prep: &Prepared, checks: &Checks) -> Outputs {
    let recorded: Vec<(usize, Option<u64>)> = recorded
        .lines()
        .filter_map(|l| match l.split('\t').collect::<Vec<_>>().as_slice() {
            [w, i, _, _, hex] if *w == label => {
                Some((i.parse().ok()?, u64::from_str_radix(hex, 16).ok()))
            }
            _ => None,
        })
        .collect();
    if recorded.len() != checks.point_digests.len() {
        return Outputs::Unrecorded;
    }
    let differ: Vec<String> = recorded
        .iter()
        .filter(|(i, d)| d.is_none() || checks.point_digests.get(*i).copied().flatten() != *d)
        .map(|(i, _)| point_label(prep, *i))
        .collect();
    if differ.is_empty() {
        Outputs::Match
    } else {
        Outputs::Differs(differ)
    }
}

/// Lines in the format of `digests.txt` recording `checks`' per-point
/// digests under `label`.
pub fn digest_lines(label: &str, prep: &Prepared, checks: &Checks) -> String {
    let mut out = String::new();
    for (i, (p, d)) in prep
        .grid
        .points
        .iter()
        .zip(&checks.point_digests)
        .enumerate()
    {
        if let Some(d) = d {
            out += &format!("{label}\t{i}\t{}\t{}\t{d:016x}\n", p.spec.name, p.design);
        }
    }
    out
}

/// A fixed-width table of `metrics`: value, quartiles and sample count.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = format!(
        "{:<36} {:>14} {:>12} {:>12} {:>4}  {:<12} {}\n",
        "metric", "value", "q1", "q3", "n", "unit", "note"
    );
    for m in metrics {
        out += &format!(
            "{:<36} {:>14.6} {:>12.6} {:>12.6} {:>4}  {:<12} {}\n",
            m.name, m.value, m.summary.q1, m.summary.q3, m.summary.n, m.unit, m.note
        );
    }
    out
}

/// JSON string literal of `s` (the names printed here never need more
/// than quote and backslash escapes).
fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Results-file lines for `compare`, tab-separated: one per metric,
/// `metric run seed workload name unit value q1 q3 n`, and one with the
/// workload's digest, `digest run seed workload hex`.
pub fn records(run_id: &str, seed: u64, workload: &str, metrics: &[Metric], digest: u64) -> String {
    let mut out = String::new();
    for m in metrics {
        let s = &m.summary;
        out += &format!(
            "metric\t{run_id}\t{seed}\t{workload}\t{}\t{}\t{:?}\t{:?}\t{:?}\t{}\n",
            m.name, m.unit, m.value, s.q1, s.q3, s.n
        );
    }
    out + &format!("digest\t{run_id}\t{seed}\t{workload}\t{digest:016x}\n")
}

/// The result line: whether every output checked out, how many point
/// executions were attempted and failed, and `metrics` under their keys.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, Metric)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(k),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON number with every digit Rust keeps; non-finite values (which
/// JSON cannot hold) become `null`.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}
