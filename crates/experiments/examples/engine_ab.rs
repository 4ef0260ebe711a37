//! A/B wall-clock comparison of the event-skip and stepping engines on a
//! single campaign point, at full workload scale.
//!
//! ```text
//! cargo run --release -p experiments --example engine_ab [workload] [design-label]
//! ```
//!
//! Defaults to Lulesh under CARVE-HWC. Asserts that both engines produce
//! identical counters before reporting the speedup.

use carve_system::{
    try_run_with_profile_mode, workloads, Design, EngineMode, ScaledConfig, SimConfig,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = args.first().map(String::as_str).unwrap_or("Lulesh");
    let label = args.get(1).map(String::as_str).unwrap_or("CARVE-HWC");
    let Some(spec) = workloads::by_name(workload) else {
        eprintln!("error: unknown workload '{workload}' (try `carve-sim list`)");
        std::process::exit(2);
    };
    let Some(design) = Design::all().into_iter().find(|d| d.label() == label) else {
        let labels: Vec<&str> = Design::all().iter().map(|d| d.label()).collect();
        eprintln!(
            "error: unknown design '{label}' (one of: {})",
            labels.join(", ")
        );
        std::process::exit(2);
    };
    let sim = SimConfig::with_cfg(design, ScaledConfig::default());

    let t0 = std::time::Instant::now();
    let skip = try_run_with_profile_mode(&spec, &sim, None, EngineMode::EventSkip)
        .expect("event-skip run");
    let skip_s = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    let step =
        try_run_with_profile_mode(&spec, &sim, None, EngineMode::Step).expect("stepping run");
    let step_s = t1.elapsed().as_secs_f64();

    assert_eq!(skip.cycles, step.cycles, "engines disagree on cycles");
    assert_eq!(skip.instructions, step.instructions);
    assert_eq!(skip.remote_serviced, step.remote_serviced);
    assert_eq!(skip.rdc.hits, step.rdc.hits);
    println!(
        "{workload} under {label}: {} cycles, {} instrs",
        skip.cycles, skip.instructions
    );
    println!("  event-skip: {skip_s:7.2}s");
    println!("  stepping:   {step_s:7.2}s");
    println!("  speedup:    {:7.2}x", step_s / skip_s);
}
