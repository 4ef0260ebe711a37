//! One benchmark run: set-up, warm-up, timed reps with tracing off, and
//! the separate traced pass.

use std::hint::black_box;
use std::io;

use carve_system::profile_workload;

use crate::grid::{Grid, Prepared};
use crate::measure::{cpu_seconds, peak_rss_mib, reset_peak_rss};
use crate::pool::{run_points, run_rep, PointRun, Rep};
use crate::probes;
use crate::report;
use crate::spans::{Span, Trace};

/// Points of each workload run untimed before the first rep.
const WARMUP_POINTS: usize = 2;

/// How many reps to time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Exactly this many reps of every workload.
    Reps(usize),
    /// As many reps as take this many seconds on the reference machine
    /// (see [`Grid::rep_s`]), but at least each workload's minimum.
    Seconds(f64),
}

impl Budget {
    /// Reps of every workload in `runs`. Fixed before the first one runs,
    /// so a faster build does not get more samples than a slower one.
    pub fn reps(self, runs: &[WorkloadRun<'_>]) -> usize {
        match self {
            Budget::Reps(n) => n.max(1),
            Budget::Seconds(s) => {
                let grids = runs.iter().map(|r| &r.prep.grid);
                let round_s: f64 = grids.clone().map(|g| g.rep_s).sum();
                let least = grids.map(|g| g.min_reps).max().unwrap_or(1);
                ((s / round_s) as usize).max(least)
            }
        }
    }
}

/// The fidelity run: a grid with an Ideal column at full scale, run once.
#[derive(Debug)]
pub struct Fidelity {
    /// The grid and its profiles.
    pub prep: Prepared,
    /// Its one pass.
    pub rep: Rep,
}

/// The traced pass of one workload.
#[derive(Debug)]
pub struct Traced {
    /// One rep with the stall ledger on.
    pub rep: Rep,
    /// CPU seconds of each `profile_workload` call.
    pub profile_s: Vec<f64>,
    /// Host-time probe results, `(metric, value)`.
    pub probes: Vec<(&'static str, f64)>,
    /// The fidelity run, for a workload that has one.
    pub fidelity: Option<Fidelity>,
    /// Every span of the pass.
    pub trace: Trace,
}

/// Everything one workload measured.
pub struct WorkloadRun<'a> {
    /// Builds the grid and its profiles: the benchmark's set-up.
    set_up: Box<dyn Fn() -> Prepared + Send + 'a>,
    /// The grid and its profiles.
    pub prep: Prepared,
    /// The grid the traced pass runs once, untimed, for the fidelity
    /// metrics (see [`crate::grid::fidelity_grid`]).
    pub fidelity: Option<Grid>,
    /// CPU seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// The untimed warm-up points.
    pub warmup: Vec<PointRun>,
    /// Timed reps, tracing off.
    pub reps: Vec<Rep>,
    /// The traced pass, when one ran.
    pub traced: Option<Traced>,
}

impl<'a> WorkloadRun<'a> {
    /// Runs the set-up `make`, timed in CPU time. [`measure`] repeats it
    /// after every rep, so the median set-up time samples the whole run,
    /// not just the machine's state in its first second.
    pub fn set_up(make: impl Fn() -> Prepared + Send + 'a) -> WorkloadRun<'a> {
        let (s, prep) = cpu_seconds(&make);
        WorkloadRun {
            set_up: Box::new(make),
            prep,
            fidelity: None,
            setup_s: vec![s],
            warmup: Vec::new(),
            reps: Vec::new(),
            traced: None,
        }
    }
}

/// Warms up every workload, then times `budget`'s reps, rotating the
/// workload order each round so machine drift hits every workload alike.
/// Peak RSS is read only when `runs` holds one workload: with several,
/// the others' data would count in it.
pub fn measure(runs: &mut [WorkloadRun<'_>], budget: Budget) -> io::Result<()> {
    for r in runs.iter_mut() {
        let first: Vec<usize> = (0..r.prep.grid.points.len().min(WARMUP_POINTS)).collect();
        r.warmup = run_points(&r.prep, &first, false);
    }
    let rounds = budget.reps(runs);
    let rss = runs.len() == 1;
    for round in 0..rounds {
        for k in 0..runs.len() {
            let r = &mut runs[(round + k) % runs.len()];
            if rss {
                reset_peak_rss()?;
            }
            let mut rep = run_rep(&r.prep, false);
            if rss {
                rep.rss_mib = Some(peak_rss_mib()?);
            }
            r.reps.push(rep);
            let (s, again) = cpu_seconds(&r.set_up);
            black_box(again);
            r.setup_s.push(s);
        }
    }
    Ok(())
}

/// The traced pass: one rep with the stall ledger on, every
/// `profile_workload` call once, every layer probe, and the fidelity run,
/// each in a span.
pub fn traced_pass(run: &mut WorkloadRun<'_>) {
    let mut trace = Trace::new();
    let prep = &run.prep;
    let w = prep.grid.name;
    let (rep, profile_s, probes, fidelity) = trace.time("workload", w, None, |trace, root| {
        let rep = run_rep(prep, true);
        push_points(trace, root, prep, &rep);
        let mut profile_s = Vec::new();
        for (spec, cfg, gpus) in prep.machines() {
            let (s, p) = trace.time("profile_workload", w, Some(root), |_, _| {
                cpu_seconds(|| profile_workload(spec, cfg, gpus))
            });
            black_box(p);
            profile_s.push(s);
        }
        let probes = probes::run_all(prep, report::rates(prep, &rep), trace, root);
        let fidelity = run.fidelity.clone().map(|g| {
            trace.time("fidelity", w, Some(root), |trace, at| {
                let prep = g.prepare();
                let rep = run_rep(&prep, false);
                push_points(trace, at, &prep, &rep);
                Fidelity { prep, rep }
            })
        });
        (rep, profile_s, probes, fidelity)
    });
    run.traced = Some(Traced {
        rep,
        profile_s,
        probes,
        fidelity,
        trace,
    });
}

/// Records a span for every point of `rep` under `parent`.
fn push_points(trace: &mut Trace, parent: usize, prep: &Prepared, rep: &Rep) {
    for pr in &rep.runs {
        trace.push(Span {
            name: "point".into(),
            start_ns: trace.at(pr.start),
            end_ns: trace.at(pr.end),
            parent: Some(parent),
            lane: pr.lane,
            workload: prep.grid.name.into(),
            design: Some(prep.grid.points[pr.index].design),
        });
    }
}
