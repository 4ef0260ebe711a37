//! The closed-loop worker pool: two threads take grid points one at a
//! time, each timing its own points in CPU time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use carve_system::{try_run_with_profile_mode, EngineMode, SimConfig, SimResult};

use crate::grid::{Point, Prepared};
use crate::measure::{thread_cpu_ns, thread_runq_wait_ns};

/// Worker threads. Fixed at the 2 cores the benchmark machine has, and
/// not read from the environment, so every run loads the host alike.
pub const WORKERS: usize = 2;

/// One execution of one grid point.
#[derive(Debug)]
pub struct PointRun {
    /// Index of the point in the grid.
    pub index: usize,
    /// Worker that ran it, 1-based.
    pub lane: usize,
    /// Wall-clock start.
    pub start: Instant,
    /// Wall-clock end.
    pub end: Instant,
    /// ns the worker thread was on a CPU during the run.
    pub cpu_ns: u64,
    /// ns the worker thread waited on the run queue during the run.
    pub wait_ns: u64,
    /// The checked result, or why the point failed.
    pub outcome: Result<SimResult, String>,
}

/// One pass over a whole grid.
#[derive(Debug)]
pub struct Rep {
    /// Every point, in grid order.
    pub runs: Vec<PointRun>,
    /// Makespan on the [`WORKERS`] threads, s.
    pub wall_s: f64,
    /// Peak RSS during the pass, MiB, when the process held no other
    /// workload's data.
    pub rss_mib: Option<f64>,
}

/// A result is valid when the run drained and retired exactly the
/// instructions its shape issues (every design retires the same count).
fn check(p: &Point, r: SimResult) -> Result<SimResult, String> {
    let want = p.spec.shape.total_instrs();
    if !r.completed {
        Err("run did not complete".into())
    } else if r.instructions != want {
        Err(format!("retired {} of {want} instructions", r.instructions))
    } else {
        Ok(r)
    }
}

fn run_point(prep: &Prepared, index: usize, lane: usize, cycle_profile: bool) -> PointRun {
    let p = &prep.grid.points[index];
    let sim = SimConfig {
        cycle_profile,
        ..p.sim.clone()
    };
    let profile = &prep.profiles[p.profile];
    let start = Instant::now();
    let (cpu0, wait0) = (thread_cpu_ns(), thread_runq_wait_ns());
    let result = catch_unwind(AssertUnwindSafe(|| {
        try_run_with_profile_mode(&p.spec, &sim, Some(profile), EngineMode::EventSkip)
    }));
    let (cpu1, wait1) = (thread_cpu_ns(), thread_runq_wait_ns());
    let end = Instant::now();
    let outcome = match result {
        Ok(Ok(r)) => check(p, r),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(match payload.downcast_ref::<&str>() {
            Some(s) => format!("panic: {s}"),
            None => match payload.downcast_ref::<String>() {
                Some(s) => format!("panic: {s}"),
                None => "panic".into(),
            },
        }),
    };
    PointRun {
        index,
        lane,
        start,
        end,
        cpu_ns: cpu1 - cpu0,
        wait_ns: wait1 - wait0,
        outcome,
    }
}

/// Runs the points `indices` of `prep` on the pool, each worker taking
/// the next point when its current one finishes. Returns the runs in the
/// order of `indices`. `cycle_profile` turns on the stall ledger.
pub fn run_points(prep: &Prepared, indices: &[usize], cycle_profile: bool) -> Vec<PointRun> {
    let next = AtomicUsize::new(0);
    let mut runs: Vec<(usize, PointRun)> = std::thread::scope(|s| {
        let workers: Vec<_> = (1..=WORKERS)
            .map(|lane| {
                let next = &next;
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out slots.
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&index) = indices.get(k) else {
                            break out;
                        };
                        out.push((k, run_point(prep, index, lane, cycle_profile)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("point panics are caught inside the worker"))
            .collect()
    });
    runs.sort_by_key(|(k, _)| *k);
    runs.into_iter().map(|(_, r)| r).collect()
}

/// One timed pass over the whole grid.
pub fn run_rep(prep: &Prepared, cycle_profile: bool) -> Rep {
    let all: Vec<usize> = (0..prep.grid.points.len()).collect();
    let started = Instant::now();
    let runs = run_points(prep, &all, cycle_profile);
    Rep {
        runs,
        wall_s: started.elapsed().as_secs_f64(),
        rss_mib: None,
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of one point's simulated statistics.
pub fn point_digest(r: &SimResult) -> u64 {
    fnv1a(r.encode_journal_line().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
