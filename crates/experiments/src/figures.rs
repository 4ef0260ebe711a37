//! One function per table/figure of the paper's evaluation.

use carve::coherence_delay_model;
use carve_system::{Design, SimConfig};
use sim_core::{geomean, units};

use crate::campaign::Campaign;
use crate::table::{pct, ratio, Table};

/// Figure 2: performance of NUMA-GPU (and +migration, +read-only
/// replication) relative to the ideal system that replicates all shared
/// pages. Also backs the intro claim (migration 49% / replication 47% /
/// CARVE 6% slowdown vs ideal).
pub fn fig02(c: &mut Campaign) -> Table {
    let mut t = Table::new(
        "fig02",
        "Fig 2: performance relative to ideal (replicate-all) NUMA-GPU",
        &["workload", "NUMA-GPU", "+Migrate", "+RO-Repl", "CARVE-HWC"],
    )
    .with_chart(4);
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for spec in c.specs() {
        let ideal = c.design_result(&spec, Design::Ideal);
        let vals = [
            c.design_result(&spec, Design::NumaGpu)
                .performance_vs(&ideal),
            c.design_result(&spec, Design::NumaGpuMigrate)
                .performance_vs(&ideal),
            c.design_result(&spec, Design::NumaGpuRepl)
                .performance_vs(&ideal),
            c.design_result(&spec, Design::CarveHwc)
                .performance_vs(&ideal),
        ];
        for (col, v) in cols.iter_mut().zip(vals) {
            col.push(v);
        }
        let mut row = vec![spec.name.to_string()];
        row.extend(vals.iter().map(|&v| ratio(v)));
        t.push(row);
    }
    let mut row = vec!["geomean".to_string()];
    row.extend(cols.iter().map(|col| ratio(geomean(col.iter().copied()))));
    t.push(row);
    t
}

/// Figure 4: distribution of memory accesses to private / read-only shared
/// / read-write shared data, at page and at cache-line granularity.
pub fn fig04(c: &mut Campaign) -> Table {
    let mut t = Table::new(
        "fig04",
        "Fig 4: access distribution by sharing class (page vs 128B line granularity)",
        &[
            "workload", "pg-priv", "pg-ro", "pg-rw", "ln-priv", "ln-ro", "ln-rw",
        ],
    );
    for spec in c.specs() {
        let p = c.profile(&spec);
        let (pp, pro, prw) = p.page_breakdown().fractions();
        let (lp, lro, lrw) = p.line_breakdown().fractions();
        t.push(vec![
            spec.name.to_string(),
            pct(pp),
            pct(pro),
            pct(prw),
            pct(lp),
            pct(lro),
            pct(lrw),
        ]);
    }
    t
}

/// Figure 5: shared memory footprint vs the aggregate system LLC capacity.
pub fn fig05(c: &mut Campaign) -> Table {
    let cfg = c.base_cfg();
    let total_llc = cfg.total_l2_bytes();
    let scale = cfg.capacity_scale;
    let mut t = Table::new(
        "fig05",
        "Fig 5: shared memory footprint vs aggregate LLC capacity",
        &[
            "workload",
            "shared(scaled)",
            "shared(paper-equiv)",
            "x system LLC",
        ],
    );
    for spec in c.specs() {
        let p = c.profile(&spec);
        let shared = p.shared_footprint_bytes();
        t.push(vec![
            spec.name.to_string(),
            units::fmt_bytes(shared),
            units::fmt_bytes(shared * scale),
            format!("{:.1}x", shared as f64 / total_llc as f64),
        ]);
    }
    t
}

/// Figure 8: fraction of memory requests serviced remotely, NUMA-GPU vs
/// CARVE (RDC hits count as local).
pub fn fig08(c: &mut Campaign) -> Table {
    let mut t = Table::new(
        "fig08",
        "Fig 8: fraction of remote memory accesses",
        &["workload", "NUMA-GPU", "CARVE"],
    );
    let mut base = Vec::new();
    let mut carve = Vec::new();
    for spec in c.specs() {
        let b = c.design_result(&spec, Design::NumaGpu).remote_fraction();
        let v = c.design_result(&spec, Design::CarveHwc).remote_fraction();
        base.push(b);
        carve.push(v);
        t.push(vec![spec.name.to_string(), pct(b), pct(v)]);
    }
    t.push(vec![
        "mean".to_string(),
        pct(base.iter().sum::<f64>() / base.len() as f64),
        pct(carve.iter().sum::<f64>() / carve.len() as f64),
    ]);
    t
}

/// Figure 9: CARVE with zero-overhead coherence vs the software schemes,
/// relative to ideal.
pub fn fig09(c: &mut Campaign) -> Table {
    let mut t = Table::new(
        "fig09",
        "Fig 9: CARVE-No-Coherence performance relative to ideal",
        &["workload", "NUMA-GPU", "+RO-Repl", "CARVE-NC"],
    )
    .with_chart(3);
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for spec in c.specs() {
        let ideal = c.design_result(&spec, Design::Ideal);
        let vals = [
            c.design_result(&spec, Design::NumaGpu)
                .performance_vs(&ideal),
            c.design_result(&spec, Design::NumaGpuRepl)
                .performance_vs(&ideal),
            c.design_result(&spec, Design::CarveNc)
                .performance_vs(&ideal),
        ];
        for (col, v) in cols.iter_mut().zip(vals) {
            col.push(v);
        }
        let mut row = vec![spec.name.to_string()];
        row.extend(vals.iter().map(|&v| ratio(v)));
        t.push(row);
    }
    let mut row = vec!["geomean".to_string()];
    row.extend(cols.iter().map(|col| ratio(geomean(col.iter().copied()))));
    t.push(row);
    t
}

/// Figure 11: the coherence design space — software coherence destroys the
/// RDC's inter-kernel locality; hardware coherence preserves it.
pub fn fig11(c: &mut Campaign) -> Table {
    let mut t = Table::new(
        "fig11",
        "Fig 11: CARVE coherence designs relative to ideal",
        &[
            "workload",
            "CARVE-SWC",
            "CARVE-HWC",
            "CARVE-NC",
            "rdc-hit-swc",
            "rdc-hit-hwc",
        ],
    );
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for spec in c.specs() {
        let ideal = c.design_result(&spec, Design::Ideal);
        let swc = c.design_result(&spec, Design::CarveSwc);
        let hwc = c.design_result(&spec, Design::CarveHwc);
        let nc = c.design_result(&spec, Design::CarveNc);
        let vals = [
            swc.performance_vs(&ideal),
            hwc.performance_vs(&ideal),
            nc.performance_vs(&ideal),
        ];
        for (col, v) in cols.iter_mut().zip(vals) {
            col.push(v);
        }
        t.push(vec![
            spec.name.to_string(),
            ratio(vals[0]),
            ratio(vals[1]),
            ratio(vals[2]),
            pct(swc.rdc.hit_rate()),
            pct(hwc.rdc.hit_rate()),
        ]);
    }
    t.push(vec![
        "geomean".to_string(),
        ratio(geomean(cols[0].iter().copied())),
        ratio(geomean(cols[1].iter().copied())),
        ratio(geomean(cols[2].iter().copied())),
        String::new(),
        String::new(),
    ]);
    t
}

/// Figure 13: speedup over a single GPU for the four headline systems.
pub fn fig13(c: &mut Campaign) -> Table {
    let mut t = Table::new(
        "fig13",
        "Fig 13: speedup over 1 GPU",
        &["workload", "NUMA-GPU", "+RO-Repl", "CARVE", "Ideal"],
    )
    .with_chart(3);
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for spec in c.specs() {
        let single = c.design_result(&spec, Design::SingleGpu);
        let vals = [
            c.design_result(&spec, Design::NumaGpu)
                .speedup_over(&single),
            c.design_result(&spec, Design::NumaGpuRepl)
                .speedup_over(&single),
            c.design_result(&spec, Design::CarveHwc)
                .speedup_over(&single),
            c.design_result(&spec, Design::Ideal).speedup_over(&single),
        ];
        for (col, v) in cols.iter_mut().zip(vals) {
            col.push(v);
        }
        let mut row = vec![spec.name.to_string()];
        row.extend(vals.iter().map(|&v| format!("{v:.2}x")));
        t.push(row);
    }
    let mut row = vec!["geomean".to_string()];
    row.extend(
        cols.iter()
            .map(|col| format!("{:.2}x", geomean(col.iter().copied()))),
    );
    t.push(row);
    t
}

/// Figure 14: geomean speedup over 1 GPU as the inter-GPU link bandwidth
/// sweeps 32..256 GB/s (paper-equivalent; scaled with machine width).
pub fn fig14(c: &mut Campaign) -> Table {
    let base_cfg = c.base_cfg();
    let mut t = Table::new(
        "fig14",
        "Fig 14: geomean speedup over 1 GPU vs inter-GPU link bandwidth",
        &["link-BW", "NUMA-GPU", "+RO-Repl", "CARVE", "Ideal"],
    );
    for factor in [0.5, 1.0, 2.0, 4.0] {
        let paper_gbs = 64.0 * factor;
        let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 4];
        for spec in c.specs() {
            let single = c.design_result(&spec, Design::SingleGpu);
            for (i, design) in [
                Design::NumaGpu,
                Design::NumaGpuRepl,
                Design::CarveHwc,
                Design::Ideal,
            ]
            .into_iter()
            .enumerate()
            {
                let mut sim = SimConfig::new(design);
                sim.cfg = base_cfg.clone();
                sim.cfg.link_bytes_per_cycle = base_cfg.link_bytes_per_cycle * factor;
                let r = c.result(&spec, &sim);
                cols[i].push(r.speedup_over(&single));
            }
        }
        let mut row = vec![format!("{paper_gbs:.0} GB/s")];
        row.extend(
            cols.iter()
                .map(|col| format!("{:.2}x", geomean(col.iter().copied()))),
        );
        t.push(row);
    }
    t
}

/// Table IV: worst-case kernel-launch delay under software coherence, at
/// paper-machine scale (8 MB L2, 2 GB RDC, 1 TB/s HBM, 64 GB/s link).
pub fn table4() -> Table {
    let d = coherence_delay_model(8 << 20, 2 << 30, 128, 16, 1.0, 1000.0, 64.0);
    let mut t = Table::new(
        "table4",
        "Table IV: kernel-launch delay under software coherence",
        &[
            "action",
            "L2 (8MB)",
            "RDC (2GB) naive",
            "RDC with CARVE support",
        ],
    );
    t.push(vec![
        "invalidate".into(),
        format!("{:.1} us", d.l2_invalidate_ns / 1e3),
        format!("{:.1} ms", d.rdc_invalidate_naive_ns / 1e6),
        format!("{:.0} ms (epoch ctr)", d.rdc_invalidate_epoch_ns / 1e6),
    ]);
    t.push(vec![
        "flush dirty".into(),
        format!("{:.0} us", d.l2_flush_worst_ns / 1e3),
        format!("{:.0} ms", d.rdc_flush_naive_ns / 1e6),
        format!(
            "{:.0} ms (write-through)",
            d.rdc_flush_writethrough_ns / 1e6
        ),
    ]);
    t
}

/// Table V: sensitivity to the RDC carve-out — (a) NUMA speedup per RDC
/// size and (b) slowdown when the matching fraction of the footprint
/// spills to system memory.
pub fn table5(c: &mut Campaign) -> Table {
    let base_cfg = c.base_cfg();
    let mut t = Table::new(
        "table5",
        "Table V: sensitivity to RDC size (a) and carve-out capacity loss (b)",
        &["config", "carve-out", "(a) NUMA speedup", "(b) slowdown"],
    );
    // Baseline NUMA-GPU row.
    let mut base_speed = Vec::new();
    for spec in c.specs() {
        let single = c.design_result(&spec, Design::SingleGpu);
        base_speed.push(
            c.design_result(&spec, Design::NumaGpu)
                .speedup_over(&single),
        );
    }
    t.push(vec![
        "NUMA-GPU".into(),
        "0.00%".into(),
        format!("{:.2}x", geomean(base_speed.iter().copied())),
        "1.00x".into(),
    ]);
    // Paper sizes 0.5/1/2/4 GB per GPU, scaled.
    for paper_gib_halves in [1u64, 2, 4, 8] {
        let paper_bytes = paper_gib_halves * (1 << 29);
        let rdc_bytes = paper_bytes / base_cfg.capacity_scale;
        let carve_frac = rdc_bytes as f64 / base_cfg.mem_bytes_per_gpu as f64;
        let mut speed = Vec::new();
        let mut slow = Vec::new();
        for spec in c.specs() {
            let single = c.design_result(&spec, Design::SingleGpu);
            let mut sim = SimConfig::new(Design::CarveHwc);
            sim.cfg = base_cfg.clone();
            sim.rdc_bytes = Some(rdc_bytes);
            speed.push(c.result(&spec, &sim).speedup_over(&single));
            // (b) capacity loss in isolation: NUMA-GPU with the matching
            // fraction of the *touched footprint* spilled to system memory.
            let no_spill = c.design_result(&spec, Design::NumaGpu);
            let mut spill_sim = SimConfig::new(Design::NumaGpu);
            spill_sim.cfg = base_cfg.clone();
            spill_sim.spill_fraction = carve_frac;
            slow.push(c.result(&spec, &spill_sim).performance_vs(&no_spill));
        }
        t.push(vec![
            format!("CARVE-{:.1}GB", paper_bytes as f64 / (1u64 << 30) as f64),
            format!("{:.2}%", 100.0 * carve_frac),
            format!("{:.2}x", geomean(speed.iter().copied())),
            format!("{:.2}x", geomean(slow.iter().copied())),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_campaign() -> Campaign {
        let mut c = Campaign::new(crate::Settings::default());
        for spec in &mut c.specs {
            spec.shape.kernels = 2;
            spec.shape.ctas = 16;
            spec.shape.instrs_per_warp = 30;
        }
        c
    }

    #[test]
    fn table4_reproduces_paper_orders_of_magnitude() {
        let t = table4();
        assert_eq!(t.rows.len(), 2);
        let rendered = t.render();
        assert!(rendered.contains("us"), "L2 costs are microseconds");
        assert!(rendered.contains("ms"), "RDC costs are milliseconds");
    }

    #[test]
    fn fig04_covers_all_workloads_and_partitions() {
        let mut c = tiny_campaign();
        let t = fig04(&mut c);
        assert_eq!(t.rows.len(), 20);
        for row in &t.rows {
            let sum: f64 = row[1..4]
                .iter()
                .map(|s| s.trim_end_matches('%').parse::<f64>().unwrap())
                .sum();
            assert!((sum - 100.0).abs() < 0.5, "{row:?}");
        }
    }

    #[test]
    fn fig05_shared_footprints_exceed_llc_for_table_workloads() {
        let mut c = tiny_campaign();
        let t = fig05(&mut c);
        let xs = t
            .rows
            .iter()
            .find(|r| r[0] == "XSBench")
            .expect("XSBench row");
        let ratio: f64 = xs[3].trim_end_matches('x').parse().unwrap();
        assert!(ratio > 10.0, "XSBench shared footprint must dwarf the LLC");
    }

    #[test]
    fn fig08_carve_column_below_baseline_on_average() {
        let mut c = tiny_campaign();
        let t = fig08(&mut c);
        let mean = t.rows.last().expect("mean row");
        let base: f64 = mean[1].trim_end_matches('%').parse().unwrap();
        let carve: f64 = mean[2].trim_end_matches('%').parse().unwrap();
        assert!(carve < base, "CARVE {carve}% !< baseline {base}%");
    }
}
