//! `compare`: parent vs change, one row per (workload, metric), with a
//! verdict that refuses to call a delta inside the noise band.

use std::collections::BTreeMap;

use crate::measure::{summarize, Summary};
use crate::report::end_to_end_defs;

/// The outcome for one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least 9 in 10 pairs and its median beats the
    /// parent's by more than the parent's interquartile range.
    Better,
    /// The change's median is worse than the parent's by more than the
    /// metric's bound.
    Worse,
    /// The spread of either side is wider than the bound, and neither
    /// side beats the other on every run.
    Unresolved,
    /// None of the above.
    WithinBound,
}

impl Verdict {
    /// The word printed for the verdict.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::WithinBound => "within-bound",
        }
    }
}

/// Judges `change` against `parent` (runs in the order they were made,
/// paired by position). `bound` is the share of the parent's median by
/// which the metric may worsen.
pub fn verdict(parent: &[f64], change: &[f64], bound: f64, higher_is_better: bool) -> Verdict {
    let sign = if higher_is_better { 1.0 } else { -1.0 };
    // Positive when `c` is better than `p`.
    let gain = |c: f64, p: f64| sign * (c - p);
    let (sp, sc) = (summarize(parent), summarize(change));
    let spread = |s: &Summary| (s.q3 - s.q1) / s.median.abs();
    let beats_all = |a: &[f64], b: &[f64]| a.iter().all(|&x| b.iter().all(|&y| gain(x, y) > 0.0));
    let separated = beats_all(change, parent) || beats_all(parent, change);
    if (spread(&sp) > bound || spread(&sc) > bound) && !separated {
        return Verdict::Unresolved;
    }
    let delta = gain(sc.median, sp.median);
    if delta < -bound * sp.median.abs() {
        return Verdict::Worse;
    }
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| gain(c, p) > 0.0)
        .count();
    if pairs > 0 && wins * 10 >= pairs * 9 && delta > sp.q3 - sp.q1 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// The benchmark definition this build was compiled with.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `bound` of end-to-end metric `name` in `benchmark`, found in its
/// one-line entry `{"name": "<name>", ..., "bound": <x>}`.
pub fn bound(benchmark: &str, name: &str) -> Option<f64> {
    let entry = benchmark
        .lines()
        .find(|l| l.contains(&format!("\"name\": \"{name}\"")))?;
    let rest = &entry[entry.find("\"bound\":")? + "\"bound\":".len()..];
    rest[..rest.find('}')?].trim().parse().ok()
}

/// Samples per (workload, metric) and digests per (workload, seed) read
/// from a suite results file (see [`crate::report::records`]).
#[derive(Debug, Default)]
struct Runs {
    samples: BTreeMap<(String, String), Vec<f64>>,
    digests: BTreeMap<(String, u64), Vec<String>>,
}

fn read_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::default();
    for (n, line) in text.lines().enumerate() {
        let bad = || format!("{path}:{}: not a suite record", n + 1);
        match line.split('\t').collect::<Vec<_>>().as_slice() {
            ["metric", _, _, w, metric, _, value, ..] => runs
                .samples
                .entry((w.to_string(), metric.to_string()))
                .or_default()
                .push(value.parse().map_err(|_| bad())?),
            ["digest", _, seed, w, hex] => runs
                .digests
                .entry((w.to_string(), seed.parse().map_err(|_| bad())?))
                .or_default()
                .push(hex.to_string()),
            [""] => {}
            _ => return Err(bad()),
        }
    }
    Ok(runs)
}

fn cell(v: &[f64]) -> String {
    let s = summarize(v);
    format!("{:.6} [{:.6}, {:.6}] n={}", s.median, s.q1, s.q3, s.n)
}

/// Prints the comparison of two results files against the bounds in
/// `BENCHMARK.json`. Returns whether any metric came out `worse`.
pub fn compare(parent: &str, change: &str) -> Result<bool, String> {
    let (p, c) = (read_runs(parent)?, read_runs(change)?);
    let mut workloads: Vec<&String> = p.samples.keys().map(|(w, _)| w).collect();
    workloads.dedup();
    let mut any_worse = false;
    println!(
        "{:<11} {:<17} {:<52} {:<52} {:>8}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta"
    );
    for w in workloads {
        for m in end_to_end_defs() {
            let key = (w.clone(), m.name.clone());
            let (Some(ps), Some(cs)) = (p.samples.get(&key), c.samples.get(&key)) else {
                continue;
            };
            let bound = bound(BENCHMARK_JSON, &m.name)
                .ok_or_else(|| format!("BENCHMARK.json gives {} no bound", m.name))?;
            let v = verdict(ps, cs, bound, m.higher_is_better);
            any_worse |= v == Verdict::Worse;
            let delta = summarize(cs).median / summarize(ps).median - 1.0;
            println!(
                "{w:<11} {:<17} {:<52} {:<52} {:>+7.2}%  {}",
                m.name,
                cell(ps),
                cell(cs),
                delta * 100.0,
                v.label()
            );
        }
    }
    let mut outputs: BTreeMap<&str, (usize, Vec<u64>)> = BTreeMap::new();
    for ((w, seed), pd) in &p.digests {
        if let Some(cd) = c.digests.get(&(w.clone(), *seed)) {
            let o = outputs.entry(w).or_default();
            o.0 += 1;
            if pd.iter().chain(cd).any(|d| *d != pd[0]) {
                o.1.push(*seed);
            }
        }
    }
    for (w, (seeds, differ)) in outputs {
        match differ.as_slice() {
            [] => println!("outputs {w}: identical on all {seeds} shared seeds"),
            d => println!("outputs {w}: differ on seeds {d:?} of {seeds}"),
        }
    }
    Ok(any_worse)
}
