//! Runs the entire experiment campaign, sharing simulation results across
//! figures, and writes every table to `results/*.tsv`.
//!
//! The full (workload × design) matrix — including the figure-14 bandwidth
//! sweep and the Table V RDC-size/spill sweeps — is fanned across worker
//! threads up front via [`Campaign::run_parallel`]; the figure functions
//! then slice the warm cache. Pass `--timeline` to journal interval
//! telemetry for every freshly simulated point to
//! `results/all-figures.timeline.csv`. The closing stderr line reports the
//! campaign's wall time; per-point and per-layer host time are measured by
//! the benchmark in `bench-suite/`.

use carve_system::{Design, SimConfig};
use carve_trace::WorkloadSpec;
use experiments::{figures, Campaign, Settings};

/// Every campaign point the figure functions will request, so the parallel
/// prefetch covers the whole matrix and the figures only read the cache.
fn prefetch_points(c: &Campaign) -> Vec<(WorkloadSpec, SimConfig)> {
    let base = c.base_cfg();
    let mut points = Vec::new();
    for spec in c.specs() {
        // Figures 2/8/9/11/13 and the Table V baseline: all designs at the
        // default machine.
        for design in Design::all() {
            points.push((spec.clone(), SimConfig::with_cfg(design, base.clone())));
        }
        // Figure 14: inter-GPU link bandwidth sweep (factor 1.0 is the
        // default machine, already covered above).
        for factor in [0.5, 2.0, 4.0] {
            for design in [
                Design::NumaGpu,
                Design::NumaGpuRepl,
                Design::CarveHwc,
                Design::Ideal,
            ] {
                let mut sim = SimConfig::with_cfg(design, base.clone());
                sim.cfg.link_bytes_per_cycle = base.link_bytes_per_cycle * factor;
                points.push((spec.clone(), sim));
            }
        }
        // Table V: RDC carve-out sizes (a) and matching spill fractions (b).
        for paper_gib_halves in [1u64, 2, 4, 8] {
            let paper_bytes = paper_gib_halves * (1 << 29);
            let rdc_bytes = paper_bytes / base.capacity_scale;
            let carve_frac = rdc_bytes as f64 / base.mem_bytes_per_gpu as f64;
            let mut sim = SimConfig::with_cfg(Design::CarveHwc, base.clone());
            sim.rdc_bytes = Some(rdc_bytes);
            points.push((spec.clone(), sim));
            let mut spill_sim = SimConfig::with_cfg(Design::NumaGpu, base.clone());
            spill_sim.spill_fraction = carve_frac;
            points.push((spec.clone(), spill_sim));
        }
    }
    points
}

fn main() {
    let settings = Settings::resolve(|key| std::env::var_os(key), std::env::args().skip(1));
    if settings.quick {
        eprintln!("CARVE_QUICK set: running shrunken workloads");
    }
    let t0 = std::time::Instant::now();
    let mut c = Campaign::with_journal("all-figures", settings);
    let points = prefetch_points(&c);
    c.run_parallel(&points);
    eprintln!(
        "prefetched {} campaign points in {:.0}s",
        c.cached_runs(),
        t0.elapsed().as_secs_f64()
    );
    figures::table4().emit(c.results_dir());
    figures::fig04(&mut c).emit(c.results_dir());
    figures::fig05(&mut c).emit(c.results_dir());
    figures::fig02(&mut c).emit(c.results_dir());
    figures::fig08(&mut c).emit(c.results_dir());
    figures::fig09(&mut c).emit(c.results_dir());
    figures::fig11(&mut c).emit(c.results_dir());
    figures::fig13(&mut c).emit(c.results_dir());
    figures::table5(&mut c).emit(c.results_dir());
    figures::fig14(&mut c).emit(c.results_dir());
    c.report_sidecars("all-figures");
    eprintln!(
        "campaign complete: {} simulation runs in {:.0}s",
        c.cached_runs(),
        t0.elapsed().as_secs_f64()
    );
}
