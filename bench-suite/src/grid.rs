//! The four benchmark workloads: which (workload × design × machine)
//! points each one simulates, and why.

use carve_system::{profile_workload, workloads, Design, SharingProfile, SimConfig};
use carve_trace::{KernelShape, WorkloadSpec};
use sim_core::rng::Stream;
use sim_core::{ScaledConfig, TopologySpec};

/// Workload names, in the order a full suite runs them first.
pub const WORKLOADS: [&str; 4] = ["fig02", "single-gpu", "coherence", "scale16"];

/// The paper's Figure 2 geomeans (performance relative to Ideal) for the
/// four non-ideal fig02 columns.
pub const FIG02_PAPER: [(&str, f64); 4] = [
    ("numa", 0.53),
    ("numa-migrate", 0.51),
    ("numa-repl", 0.53),
    ("carve-hwc", 0.94),
];

/// Every design slug any workload uses, for the per-design metrics.
pub const DESIGN_SLUGS: [&str; 8] = [
    "1-gpu",
    "ideal",
    "numa",
    "numa-migrate",
    "numa-repl",
    "carve-swc",
    "carve-hwc",
    "carve-hwc-dir",
];

/// One simulation the grid runs.
#[derive(Debug, Clone)]
pub struct Point {
    /// The generated workload (seeded and shaped).
    pub spec: WorkloadSpec,
    /// The pinned run configuration.
    pub sim: SimConfig,
    /// Design slug (one of [`DESIGN_SLUGS`]).
    pub design: &'static str,
    /// Index into [`Prepared::profiles`] of this point's sharing profile.
    pub profile: usize,
}

impl Point {
    /// The GPU count the point runs on.
    pub fn num_gpus(&self) -> usize {
        self.sim.design.num_gpus(&self.sim.cfg)
    }
}

/// One workload's points, before set-up computes their profiles.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Workload name (one of [`WORKLOADS`]).
    pub name: &'static str,
    /// Points in grid order; digests and reports follow this order.
    pub points: Vec<Point>,
    /// Percentile reported as `point_cpu_s_tail`.
    pub tail_pct: f64,
    /// Fewest reps: three for the best-of-reps estimates, more where the
    /// faster halves of the points' reps must put ten samples beyond
    /// `tail_pct`.
    pub min_reps: usize,
    /// Wall seconds of one rep plus its set-up repeat on the reference
    /// machine (a 2-vCPU Xeon VM). Turns `--seconds` into a rep count that
    /// does not depend on how fast the build under test is, so both sides
    /// of an A/B take the same number of samples for their best-of-reps
    /// estimates.
    pub rep_s: f64,
}

/// A grid ready to run: the points plus the sharing profiles they share,
/// computed once per (workload spec, GPU count).
#[derive(Debug)]
pub struct Prepared {
    /// The grid.
    pub grid: Grid,
    /// Sharing profiles, indexed by [`Point::profile`].
    pub profiles: Vec<SharingProfile>,
}

impl Prepared {
    /// The distinct workload specs of the grid with the machine config
    /// and GPU count they run on, in first-use order.
    pub fn machines(&self) -> Vec<(&WorkloadSpec, &ScaledConfig, usize)> {
        let mut out: Vec<(&WorkloadSpec, &ScaledConfig, usize)> = Vec::new();
        for p in &self.grid.points {
            if !out.iter().any(|(s, _, _)| s.name == p.spec.name) {
                out.push((&p.spec, &p.sim.cfg, p.num_gpus()));
            }
        }
        out
    }
}

/// The value XORed into every Table II seed: zero for seed 0, so the
/// default run generates the Table II traces (cut to the bench shape; the
/// fidelity run of `fig02` runs them whole).
fn seed_mix(seed: u64) -> u64 {
    if seed == 0 {
        0
    } else {
        Stream::from_seed(seed).next_u64()
    }
}

/// Each kernel runs this share of the Table II per-warp instruction
/// budget: about 40 instructions per warp.
const KERNEL_SHARE: usize = 48;

/// The Table II shape cut to at most `kernels` kernels of a 48th of the
/// per-warp budget each. Every CTA stays, so occupancy and sharing match
/// the full run. Small enough that every point repeats many times in a
/// run, which the best-of-reps estimates need on a noisy host. Too short
/// for the fidelity numbers, though: with no reuse across kernels the
/// designs do not rank as at full scale, so those come from
/// [`fidelity_grid`].
fn bench_shape(shape: KernelShape, kernels: usize) -> KernelShape {
    KernelShape {
        kernels: shape.kernels.min(kernels),
        instrs_per_warp: (shape.kernels * shape.instrs_per_warp / KERNEL_SHARE).max(1),
        ..shape
    }
}

fn spec(name: &str, mix: u64, kernels: usize) -> WorkloadSpec {
    let mut s = workloads::by_name(name).expect("Table II workload");
    s.seed ^= mix;
    s.shape = bench_shape(s.shape, kernels);
    s
}

/// A run configuration with every environment-dependent knob pinned.
fn sim(design: Design, cfg: &ScaledConfig) -> SimConfig {
    let mut sim = SimConfig::with_cfg(design, cfg.clone());
    sim.telemetry_interval = Some(0);
    sim.sanitize = Some(false);
    sim.watchdog_cycles = Some(sim_core::DEFAULT_WATCHDOG_CYCLES);
    sim
}

fn hwc_directory(cfg: &ScaledConfig) -> SimConfig {
    let mut s = sim(Design::CarveHwc, cfg);
    s.directory_coherence = true;
    s
}

/// Workload `name`'s points under `seed`, or `None` for an unknown name.
pub fn grid(name: &str, seed: u64) -> Option<Grid> {
    let name = *WORKLOADS.iter().find(|w| **w == name)?;
    let mix = seed_mix(seed);
    let base = ScaledConfig::default();
    let mut pts = Vec::new();
    let mut push = |spec: &WorkloadSpec, sim: SimConfig, design: &'static str| {
        pts.push(Point {
            spec: spec.clone(),
            sim,
            design,
            profile: 0,
        })
    };
    let (tail_pct, min_reps, rep_s) = match name {
        // The paper's headline campaign: every layer under the mix users
        // run, and the only grid with Ideal, so the only one that measures
        // fidelity. The grid of `BENCH_hotpath.json`.
        "fig02" => {
            for w in workloads::names() {
                let s = spec(w, mix, 2);
                push(&s, sim(Design::Ideal, &base), "ideal");
                push(&s, sim(Design::NumaGpu, &base), "numa");
                push(&s, sim(Design::NumaGpuMigrate, &base), "numa-migrate");
                push(&s, sim(Design::NumaGpuRepl, &base), "numa-repl");
                push(&s, sim(Design::CarveHwc, &base), "carve-hwc");
            }
            (0.90, 3, 1.6)
        }
        // No fabric, no CARVE, no remote traffic: the gpu, dram and trace
        // layers do the work. The bypass case for any NoC or CARVE change.
        "single-gpu" => {
            for w in workloads::names() {
                push(&spec(w, mix, 2), sim(Design::SingleGpu, &base), "1-gpu");
            }
            (0.90, 9, 0.36)
        }
        // Writes beside reads: three workloads remap CTAs between kernels
        // (private data turns RW-shared) and AMG writes a shared region, so
        // invalidations, epoch flushes, directory traffic and migration
        // ping-pong all run. Four kernels: the remap cycles through three
        // CTA shifts and then repeats, which is the reuse CARVE-HWC keeps
        // and CARVE-SWC flushes.
        "coherence" => {
            for w in ["HPGMG", "HPGMG-amry", "MiniAMR", "AMG"] {
                let s = spec(w, mix, 4);
                push(&s, sim(Design::CarveSwc, &base), "carve-swc");
                push(&s, hwc_directory(&base), "carve-hwc-dir");
                push(&s, sim(Design::NumaGpuMigrate, &base), "numa-migrate");
            }
            (0.75, 7, 0.72)
        }
        // Multi-hop routing (the single-hop fast path is skipped) and a
        // 16-sharer directory; few long points, so load imbalance on two
        // workers shows in `wall_s`.
        "scale16" => {
            let cfg = ScaledConfig {
                num_gpus: 16,
                topology: TopologySpec::Hierarchical { pod_size: 4 },
                ..base
            };
            for w in ["SSSP", "XSBench", "Lulesh", "RandAccess"] {
                let s = spec(w, mix, 2);
                push(&s, sim(Design::NumaGpu, &cfg), "numa");
                push(&s, hwc_directory(&cfg), "carve-hwc-dir");
            }
            (0.75, 9, 0.78)
        }
        _ => unreachable!("name is one of WORKLOADS"),
    };
    Some(Grid {
        name,
        points: pts,
        tail_pct,
        min_reps,
        rep_s,
    })
}

/// The grid whose Ideal column gives workload `name`'s fidelity numbers:
/// `fig02`'s points at the full Table II shape. At seed 0 these are the
/// Figure 2 campaign's runs. `None` for the workloads without Ideal.
pub fn fidelity_grid(name: &str, seed: u64) -> Option<Grid> {
    let mut g = grid(name, seed)?;
    if !g.points.iter().any(|p| p.design == "ideal") {
        return None;
    }
    for p in &mut g.points {
        p.spec.shape = workloads::by_name(p.spec.name)
            .expect("Table II workload")
            .shape;
    }
    Some(g)
}

impl Grid {
    /// Computes one sharing profile per (spec, GPU count) and links each
    /// point to its own: the profiling half of the benchmark's set-up.
    pub fn prepare(mut self) -> Prepared {
        let mut keys: Vec<(&'static str, usize)> = Vec::new();
        let mut profiles = Vec::new();
        for p in &mut self.points {
            let key = (p.spec.name, p.num_gpus());
            p.profile = match keys.iter().position(|k| *k == key) {
                Some(i) => i,
                None => {
                    keys.push(key);
                    profiles.push(profile_workload(&p.spec, &p.sim.cfg, key.1));
                    profiles.len() - 1
                }
            };
        }
        Prepared {
            grid: self,
            profiles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_kernels_run_a_48th_of_the_budget_with_every_cta() {
        let s = bench_shape(
            KernelShape {
                kernels: 16,
                ctas: 128,
                warps_per_cta: 4,
                instrs_per_warp: 120,
            },
            4,
        );
        assert_eq!(
            (s.kernels, s.instrs_per_warp, s.ctas, s.warps_per_cta),
            (4, 40, 128, 4)
        );
        let s = bench_shape(
            KernelShape {
                kernels: 2,
                ctas: 128,
                warps_per_cta: 4,
                instrs_per_warp: 1000,
            },
            4,
        );
        assert_eq!((s.kernels, s.instrs_per_warp), (2, 41));
    }

    #[test]
    fn grids_have_the_documented_sizes() {
        for (name, n) in [
            ("fig02", 100),
            ("single-gpu", 20),
            ("coherence", 12),
            ("scale16", 8),
        ] {
            let g = grid(name, 0).expect("known workload");
            assert_eq!(g.points.len(), n, "{name}");
            // Ten samples beyond the tail percentile at the minimum reps.
            let beyond = (n * g.min_reps.div_ceil(2)) as f64 * (1.0 - g.tail_pct);
            assert!(beyond >= 10.0 - 1e-9, "{name}: {beyond}");
        }
        assert!(grid("nope", 0).is_none());
    }

    #[test]
    fn seed_zero_keeps_table_ii_seeds() {
        let p = &grid("fig02", 0).unwrap().points[0];
        assert_eq!(p.spec.seed, workloads::by_name(p.spec.name).unwrap().seed);
        let p = &grid("fig02", 1).unwrap().points[0];
        assert_ne!(p.spec.seed, workloads::by_name(p.spec.name).unwrap().seed);
    }

    #[test]
    fn only_fig02_has_a_fidelity_grid_at_the_table_ii_shape() {
        let g = fidelity_grid("fig02", 0).expect("fig02 has Ideal");
        assert_eq!(g.points.len(), 100);
        for p in &g.points {
            assert_eq!(p.spec, workloads::by_name(p.spec.name).unwrap());
        }
        for w in ["single-gpu", "coherence", "scale16"] {
            assert!(fidelity_grid(w, 0).is_none(), "{w}");
        }
    }
}
