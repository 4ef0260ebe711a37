//! The suite on tiny shapes: every metric of `BENCHMARK.json` is reported
//! with its unit, outputs repeat exactly per seed and move with the seed,
//! a changed output fails the check, no point fails, and the `compare`
//! verdicts follow their rules.

use carve_bench_suite::compare::{bound, verdict, Verdict};
use carve_bench_suite::grid::{grid, Grid, WORKLOADS};
use carve_bench_suite::measure::parse_schedstat;
use carve_bench_suite::report::{self, MetricDef, Outputs};
use carve_bench_suite::suite::{self, Budget, WorkloadRun};
use carve_trace::KernelShape;

const TINY: KernelShape = KernelShape {
    kernels: 2,
    ctas: 16,
    warps_per_cta: 4,
    instrs_per_warp: 40,
};

/// Workload `name` cut to the points of its first two specs (every design
/// stays) at the tiny shape.
fn tiny_grid(name: &str, seed: u64) -> Grid {
    let mut g = grid(name, seed).expect("known workload");
    let mut keep: Vec<&str> = g.points.iter().map(|p| p.spec.name).collect();
    keep.dedup();
    keep.truncate(2);
    g.points.retain(|p| keep.contains(&p.spec.name));
    for p in &mut g.points {
        p.spec.shape = TINY;
    }
    g
}

fn tiny(name: &str, seed: u64) -> WorkloadRun<'_> {
    WorkloadRun::set_up(move || tiny_grid(name, seed).prepare())
}

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `BENCHMARK.json`'s entry for `d`, up to its bound.
fn entry(d: &MetricDef) -> String {
    let better = if d.higher_is_better {
        "higher"
    } else {
        "lower"
    };
    format!(
        "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
        d.name, d.unit
    )
}

#[test]
fn every_listed_metric_is_reported_with_its_unit_on_every_workload() {
    let e2e_defs = report::end_to_end_defs();
    let layer_defs = report::per_layer_defs();
    for d in e2e_defs.iter().chain(&layer_defs) {
        assert!(BENCHMARK_JSON.contains(&entry(d)), "{} not listed", d.name);
    }
    for w in WORKLOADS {
        assert!(BENCHMARK_JSON.contains(&format!("{{\"name\": \"{w}\", \"why\": ")));
    }
    let listed = BENCHMARK_JSON.matches("{\"name\": ").count();
    assert_eq!(listed, e2e_defs.len() + layer_defs.len() + WORKLOADS.len());

    // One workload per measurement, as peak RSS is read only then.
    let mut runs: Vec<WorkloadRun<'_>> = WORKLOADS.iter().map(|w| tiny(w, 0)).collect();
    for r in &mut runs {
        suite::measure(std::slice::from_mut(r), Budget::Reps(1)).expect("measurable host");
    }
    // Exercise the fidelity run on fig02's own tiny grid.
    runs[0].fidelity = Some(tiny_grid("fig02", 0));
    // The probes run on the calling thread: trace the workloads side by side.
    std::thread::scope(|s| {
        for r in &mut runs {
            s.spawn(|| suite::traced_pass(r));
        }
    });
    for r in &runs {
        let w = r.prep.grid.name;
        let checks = report::checks(r);
        assert!(
            checks.correct(),
            "{w}: {:?} {:?}",
            checks.failures,
            checks.unstable
        );
        assert!(checks.failures.is_empty(), "{w}: failed_frac must be 0");
        let layers = report::per_layer(r).expect("traced pass ran");
        for (defs, metrics) in [(&e2e_defs, report::end_to_end(r)), (&layer_defs, layers)] {
            let table = report::table(&metrics);
            let keyed: Vec<(String, report::Metric)> = metrics
                .iter()
                .map(|m| (m.name.clone(), m.clone()))
                .collect();
            let line = report::result_line(true, 1, 0, &keyed);
            for (d, m) in defs.iter().zip(&metrics) {
                assert_eq!(d.name, m.name, "{w}");
                assert!(m.value.is_finite(), "{w}: {} = {}", m.name, m.value);
                let row = table
                    .lines()
                    .find(|l| l.starts_with(&format!("{} ", d.name)));
                assert!(
                    row.is_some_and(|row| row.contains(d.unit)),
                    "{w}: {} row",
                    d.name
                );
                let entry = format!("\"{}\": {{\"value\": ", d.name);
                let unit = format!("\"unit\": \"{}\"}}", d.unit);
                let at = line
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{w}: {} missing", d.name));
                assert!(line[at..].starts_with(&entry) && line[at..].contains(&unit));
            }
        }
    }
    let fig02 = report::per_layer(&runs[0]).expect("traced");
    let err = fig02.iter().find(|m| m.name == "system.fidelity_err");
    assert!(err.is_some_and(|m| m.value > 0.0 && m.note.contains("Table II")));
    // The bypass workload bypasses: no fabric or CARVE traffic at all.
    let single = report::per_layer(&runs[1]).expect("traced");
    for m in &single {
        let counts = [
            "noc.link_gb",
            "noc.cpu_link_gb",
            "carve.broadcasts",
            "carve.directory_invalidates",
        ];
        if counts.contains(&m.name.as_str())
            || m.name.starts_with("noc.stall")
            || m.name.starts_with("carve.stall")
        {
            assert_eq!(m.value, 0.0, "single-gpu {}", m.name);
        }
    }
}

#[test]
fn outputs_repeat_for_a_seed_and_change_with_it() {
    let digests = |seed| {
        let mut runs = [tiny("coherence", seed)];
        suite::measure(&mut runs, Budget::Reps(2)).expect("measurable host");
        let c = report::checks(&runs[0]);
        assert!(c.correct(), "{:?} {:?}", c.failures, c.unstable);
        (c.digest, c.point_digests)
    };
    let (a, points_a) = digests(0);
    let (b, points_b) = digests(0);
    assert_eq!((a, &points_a), (b, &points_b));
    let (c, _) = digests(1);
    assert_ne!(a, c);
}

#[test]
fn a_changed_output_fails_the_check() {
    let mut runs = [tiny("single-gpu", 0)];
    suite::measure(&mut runs, Budget::Reps(1)).expect("measurable host");
    let (prep, c) = (&runs[0].prep, report::checks(&runs[0]));
    let recorded = report::digest_lines("tiny", prep, &c);
    assert_eq!(report::outputs(&recorded, "tiny", prep, &c), Outputs::Match);
    assert_eq!(
        report::outputs(&recorded, "other", prep, &c),
        Outputs::Unrecorded
    );
    // Corrupt the second point's recorded digest.
    let mut lines: Vec<String> = recorded.lines().map(str::to_string).collect();
    let hex = lines[1]
        .rsplit('\t')
        .next()
        .expect("digest field")
        .to_string();
    let flipped = format!("{:016x}", u64::from_str_radix(&hex, 16).unwrap() ^ 1);
    lines[1] = lines[1].replace(&hex, &flipped);
    let outputs = report::outputs(&lines.join("\n"), "tiny", prep, &c);
    let label = format!("{}/1-gpu", prep.grid.points[1].spec.name);
    assert_eq!(outputs, Outputs::Differs(vec![label]));
    assert!(!outputs.ok());
    assert!(outputs
        .to_string()
        .starts_with("outputs=differs(1 points: "));
}

#[test]
fn bounds_are_read_from_the_benchmark_definition() {
    let text = r#"  {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.08},"#;
    assert_eq!(bound(text, "wall_s"), Some(0.08));
    assert_eq!(bound(text, "setup_s"), None);
    for d in report::end_to_end_defs() {
        let b = bound(BENCHMARK_JSON, &d.name).expect("every end-to-end metric has a bound");
        assert!(b > 0.0 && b <= 0.25, "{}: {b}", d.name);
    }
}

const PARENT: [f64; 10] = [
    100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
];

fn shifted(by: f64) -> Vec<f64> {
    PARENT.iter().map(|x| x + by).collect()
}

#[test]
fn a_clear_win_is_better() {
    assert_eq!(verdict(&PARENT, &shifted(3.0), 0.05, true), Verdict::Better);
    assert_eq!(
        verdict(&PARENT, &shifted(-3.0), 0.05, false),
        Verdict::Better
    );
}

#[test]
fn a_loss_beyond_the_bound_is_worse() {
    assert_eq!(verdict(&PARENT, &shifted(-8.0), 0.05, true), Verdict::Worse);
    assert_eq!(verdict(&PARENT, &shifted(8.0), 0.05, false), Verdict::Worse);
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved() {
    let noisy = [
        80.0, 120.0, 95.0, 110.0, 90.0, 115.0, 85.0, 105.0, 100.0, 125.0,
    ];
    assert_eq!(verdict(&PARENT, &noisy, 0.05, true), Verdict::Unresolved);
    // ...unless every run of one side beats every run of the other.
    let far: Vec<f64> = noisy.iter().map(|x| x + 100.0).collect();
    assert_eq!(verdict(&PARENT, &far, 0.05, true), Verdict::Better);
}

#[test]
fn a_small_delta_is_within_bound() {
    assert_eq!(
        verdict(&PARENT, &shifted(0.1), 0.05, true),
        Verdict::WithinBound
    );
    assert_eq!(verdict(&PARENT, &PARENT, 0.05, true), Verdict::WithinBound);
    // Wins every pair, but by less than the parent's interquartile range.
    assert_eq!(
        verdict(&PARENT, &shifted(-0.3), 0.05, false),
        Verdict::WithinBound
    );
}

#[test]
fn schedstat_fixture_line_parses() {
    assert_eq!(
        parse_schedstat("586444788 8820285 34\n"),
        Some((586_444_788, 8_820_285))
    );
    assert_eq!(parse_schedstat("1 2"), None);
    assert_eq!(parse_schedstat("1 2 3 4"), None);
    assert_eq!(parse_schedstat("x 2 3"), None);
}
