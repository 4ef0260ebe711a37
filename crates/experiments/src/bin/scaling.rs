//! Node-count scalability study (the paper's Section V-E), on the routed
//! interconnect.
//!
//! "NUMA-GPU problems exacerbate as the number of nodes in a multi-GPU
//! system increase. In such situations, CARVE can scale to arbitrary node
//! counts... increasing node counts require an efficient hardware
//! coherence mechanism \[and\] a directory-based hardware coherence
//! mechanism may be more efficient."
//!
//! This campaign sweeps the real machine-size grid the routed NoC
//! unlocked: 4/8/16/32/64 GPUs × fabric topology (all-to-all crossbar
//! wiring, single switch, ring, hierarchical pods) × {RDC sizing, IMST
//! filtering vs sharer directory}. Like every other binary it is
//! journaled and resumable (`scaling.journal`) and honours `--timeline`.

use carve_system::{Design, ScaledConfig, SimConfig, TopologySpec};
use carve_trace::WorkloadSpec;
use experiments::{Campaign, Settings, Table};
use sim_core::geomean;

/// The GPU-count axis. 4 is the paper's machine; 64 is the routed
/// fabric's ceiling ([`carve_noc::MAX_GPUS`]).
const GPU_COUNTS: [usize; 5] = [4, 8, 16, 32, 64];

/// Representative workload subset for the full grid (the per-workload
/// figures keep using the whole suite at 4 GPUs). Mixes latency- and
/// bandwidth-bound kernels with the RW-sharing coherence stressors.
const SCALING_WORKLOADS: [&str; 6] = ["CoMD", "Lulesh", "HPGMG", "SSSP", "XSBench", "MCB"];

/// RW-sharing workloads whose invalidate traffic separates broadcast
/// GPU-VI from the sharer directory.
const COHERENCE_WORKLOADS: [&str; 3] = ["SSSP", "HPGMG", "Lulesh"];

fn cfg_with(base: &ScaledConfig, gpus: usize, topology: TopologySpec) -> ScaledConfig {
    let mut cfg = base.clone();
    cfg.num_gpus = gpus;
    cfg.topology = topology;
    cfg
}

/// Fabrics swept at a given machine size. Hierarchical pods only make
/// sense once there is more than one pod's worth of GPUs.
fn topologies(gpus: usize) -> Vec<TopologySpec> {
    let mut t = vec![
        TopologySpec::AllToAll,
        TopologySpec::Switch,
        TopologySpec::Ring,
    ];
    if gpus >= 8 {
        t.push(TopologySpec::Hierarchical { pod_size: 4 });
    }
    t
}

fn spec_by_name(c: &mut Campaign, name: &str) -> WorkloadSpec {
    c.specs()
        .into_iter()
        .find(|s| s.name == name)
        .expect("known workload")
}

/// The hierarchical fabric for a machine size, falling back to
/// all-to-all below one pod.
fn preferred_topology(gpus: usize) -> TopologySpec {
    if gpus >= 8 {
        TopologySpec::Hierarchical { pod_size: 4 }
    } else {
        TopologySpec::AllToAll
    }
}

/// Fans the whole grid across worker threads before the tables slice
/// the warm cache.
fn prefetch(c: &mut Campaign) {
    let base = c.base_cfg();
    let mut points: Vec<(WorkloadSpec, SimConfig)> = Vec::new();
    for gpus in GPU_COUNTS {
        // Single-GPU baselines are topology-independent; pin them to the
        // default fabric so each machine size pays for exactly one.
        let baseline_cfg = cfg_with(&base, gpus, TopologySpec::AllToAll);
        for name in SCALING_WORKLOADS {
            let spec = spec_by_name(c, name);
            points.push((
                spec.clone(),
                SimConfig::with_cfg(Design::SingleGpu, baseline_cfg.clone()),
            ));
            for topology in topologies(gpus) {
                let cfg = cfg_with(&base, gpus, topology);
                for design in [Design::NumaGpu, Design::CarveHwc] {
                    points.push((spec.clone(), SimConfig::with_cfg(design, cfg.clone())));
                }
            }
            // RDC sizing points ride on the preferred fabric.
            let cfg = cfg_with(&base, gpus, preferred_topology(gpus));
            for factor in [1u64, 2, 4] {
                let mut sim = SimConfig::with_cfg(Design::CarveHwc, cfg.clone());
                sim.rdc_bytes = Some(cfg.rdc_bytes_per_gpu / factor);
                points.push((spec.clone(), sim));
            }
        }
        // IMST-vs-directory points on the preferred fabric.
        let cfg = cfg_with(&base, gpus, preferred_topology(gpus));
        for name in COHERENCE_WORKLOADS {
            let spec = spec_by_name(c, name);
            let mut dir_sim = SimConfig::with_cfg(Design::CarveHwc, cfg.clone());
            dir_sim.directory_coherence = true;
            points.push((spec.clone(), dir_sim));
            let mut bcast_sim = SimConfig::with_cfg(Design::CarveHwc, cfg.clone());
            bcast_sim.gpu_vi_broadcast_always = true;
            points.push((spec, bcast_sim));
        }
    }
    c.run_parallel(&points);
}

fn main() {
    let settings = Settings::resolve(|key| std::env::var_os(key), std::env::args().skip(1));
    let mut c = Campaign::with_journal("scaling", settings);
    prefetch(&mut c);
    speedup_scaling(&mut c).emit(c.results_dir());
    rdc_sizing(&mut c).emit(c.results_dir());
    coherence_scaling(&mut c).emit(c.results_dir());
    eprintln!("({} simulation runs)", c.cached_runs());
    c.report_sidecars("scaling");
}

/// Geomean CARVE-HWC speedup over one GPU, per machine size × fabric.
fn speedup_scaling(c: &mut Campaign) -> Table {
    let base = c.base_cfg();
    let mut t = Table::new(
        "scaling_speedup",
        "Scaling: geomean speedup over 1 GPU vs node count and fabric (NUMA-GPU / CARVE-HWC)",
        &["GPUs", "fabric", "NUMA-GPU", "CARVE-HWC"],
    );
    for gpus in GPU_COUNTS {
        let baseline_cfg = cfg_with(&base, gpus, TopologySpec::AllToAll);
        for topology in topologies(gpus) {
            let cfg = cfg_with(&base, gpus, topology);
            let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 2];
            for name in SCALING_WORKLOADS {
                let spec = spec_by_name(c, name);
                let single = c.result(
                    &spec,
                    &SimConfig::with_cfg(Design::SingleGpu, baseline_cfg.clone()),
                );
                for (i, design) in [Design::NumaGpu, Design::CarveHwc].into_iter().enumerate() {
                    let sim = SimConfig::with_cfg(design, cfg.clone());
                    cols[i].push(c.result(&spec, &sim).speedup_over(&single));
                }
            }
            let mut row = vec![gpus.to_string(), topology.label()];
            row.extend(
                cols.iter()
                    .map(|col| format!("{:.2}x", geomean(col.iter().copied()))),
            );
            t.push(row);
        }
    }
    t
}

/// RDC capacity sensitivity across machine sizes: as more GPUs carve,
/// the per-GPU carve a workload needs shrinks.
fn rdc_sizing(c: &mut Campaign) -> Table {
    let base = c.base_cfg();
    let mut t = Table::new(
        "scaling_rdc_sizing",
        "Scaling: geomean CARVE-HWC speedup over 1 GPU vs RDC carve size (preferred fabric)",
        &["GPUs", "fabric", "full RDC", "1/2 RDC", "1/4 RDC"],
    );
    for gpus in GPU_COUNTS {
        let baseline_cfg = cfg_with(&base, gpus, TopologySpec::AllToAll);
        let topology = preferred_topology(gpus);
        let cfg = cfg_with(&base, gpus, topology);
        let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 3];
        for name in SCALING_WORKLOADS {
            let spec = spec_by_name(c, name);
            let single = c.result(
                &spec,
                &SimConfig::with_cfg(Design::SingleGpu, baseline_cfg.clone()),
            );
            for (i, factor) in [1u64, 2, 4].into_iter().enumerate() {
                let mut sim = SimConfig::with_cfg(Design::CarveHwc, cfg.clone());
                sim.rdc_bytes = Some(cfg.rdc_bytes_per_gpu / factor);
                cols[i].push(c.result(&spec, &sim).speedup_over(&single));
            }
        }
        let mut row = vec![gpus.to_string(), topology.label()];
        row.extend(
            cols.iter()
                .map(|col| format!("{:.2}x", geomean(col.iter().copied()))),
        );
        t.push(row);
    }
    t
}

/// Invalidate traffic: IMST-filtered broadcast vs broadcast-always vs
/// sharer directory, across machine sizes.
fn coherence_scaling(c: &mut Campaign) -> Table {
    let base = c.base_cfg();
    let mut t = Table::new(
        "scaling_coherence",
        "Scaling: invalidate messages, broadcast GPU-VI (IMST on/off) vs sharer directory (CARVE-HWC, preferred fabric)",
        &["GPUs", "workload", "imst msgs", "no-imst msgs", "directory msgs", "dir reduction"],
    );
    for gpus in GPU_COUNTS {
        let cfg = cfg_with(&base, gpus, preferred_topology(gpus));
        for name in COHERENCE_WORKLOADS {
            let spec = spec_by_name(c, name);
            let imst_sim = SimConfig::with_cfg(Design::CarveHwc, cfg.clone());
            // Broadcast decisions fan out to (gpus - 1) messages each.
            let fanout = gpus as u64 - 1;
            let imst_msgs = c.result(&spec, &imst_sim).broadcasts * fanout;
            let mut raw_sim = SimConfig::with_cfg(Design::CarveHwc, cfg.clone());
            raw_sim.gpu_vi_broadcast_always = true;
            let raw_msgs = c.result(&spec, &raw_sim).broadcasts * fanout;
            let mut dir_sim = SimConfig::with_cfg(Design::CarveHwc, cfg.clone());
            dir_sim.directory_coherence = true;
            let dir_msgs = c.result(&spec, &dir_sim).directory_invalidates;
            t.push(vec![
                gpus.to_string(),
                name.to_string(),
                imst_msgs.to_string(),
                raw_msgs.to_string(),
                dir_msgs.to_string(),
                if imst_msgs > 0 {
                    format!("{:.1}x", imst_msgs as f64 / dir_msgs.max(1) as f64)
                } else {
                    "-".into()
                },
            ]);
        }
    }
    t
}
