//! End-to-end tests of the `carve-audit` binary's exit-code contract
//! (0 clean, 1 findings, 2 usage/IO) and its machine-readable output.
//!
//! Each fixture test builds a throwaway miniature workspace under a temp
//! dir so its verdict does not depend on the state of the real tree; one
//! guard scans the real workspace.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn carve_audit(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_carve-audit"));
    cmd.args(args);
    cmd
}

/// Creates `<tmp>/<name>/crates/system/src/sim.rs` holding `sim_src`
/// and returns the workspace root.
fn mini_workspace(name: &str, sim_src: &str) -> PathBuf {
    let root = std::env::temp_dir()
        .join("carve-audit-bin-tests")
        .join(format!("{name}-{}", std::process::id()));
    let src = root.join("crates/system/src");
    if root.exists() {
        fs::remove_dir_all(&root).expect("clear stale workspace");
    }
    fs::create_dir_all(&src).expect("mkdir workspace");
    fs::write(src.join("sim.rs"), sim_src).expect("write sim.rs");
    root
}

const CLEAN_SIM: &str = "\
struct System {
    pending: Slab<Pending>,
    total: u64,
}
impl System {
    pub fn tick(&mut self) {
        let total = &mut self.total;
        // determinism: summation commutes, so slab order cannot matter
        self.pending.for_each(|_, p| *total += p.bytes);
    }
}
";

/// The same walk without its determinism argument, plus a panic on the
/// tick path.
const VIOLATING_SIM: &str = "\
struct System {
    pending: Slab<Pending>,
    total: u64,
}
impl System {
    pub fn tick(&mut self) {
        let total = &mut self.total;
        self.pending.for_each(|_, p| *total += p.bytes);
        self.pending.get(0).unwrap();
    }
}
";

#[test]
fn lint_clean_workspace_exits_0() {
    let root = mini_workspace("clean", CLEAN_SIM);
    let out = carve_audit(&["lint", root.to_str().unwrap()])
        .output()
        .expect("spawn carve-audit");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("clean"));
}

#[test]
fn lint_violating_workspace_exits_1() {
    let root = mini_workspace("violation", VIOLATING_SIM);
    let out = carve_audit(&["lint", root.to_str().unwrap()])
        .output()
        .expect("spawn carve-audit");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("order-sensitive-iteration"), "stdout: {text}");
    assert!(text.contains("`pending`"), "stdout: {text}");
    assert!(text.contains("tick-path-panics"), "stdout: {text}");
}

#[test]
fn lint_json_is_machine_readable_and_sorted() {
    let root = mini_workspace("json", VIOLATING_SIM);
    let out = carve_audit(&["lint", "--json", root.to_str().unwrap()])
        .output()
        .expect("spawn carve-audit");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"files_scanned\": 1"), "{text}");
    assert!(
        text.contains("\"rule\": \"order-sensitive-iteration\""),
        "{text}"
    );
    assert!(text.contains("\"rule\": \"tick-path-panics\""), "{text}");
    assert!(
        text.contains("\"file\": \"crates/system/src/sim.rs\""),
        "{text}"
    );
    // Findings are sorted by (path, line, rule): lines must be
    // non-decreasing in document order.
    let lines: Vec<u32> = text
        .match_indices("\"line\": ")
        .map(|(i, _)| {
            text[i + "\"line\": ".len()..]
                .split(|c: char| !c.is_ascii_digit())
                .next()
                .unwrap()
                .parse()
                .unwrap()
        })
        .collect();
    assert!(!lines.is_empty());
    assert!(lines.windows(2).all(|w| w[0] <= w[1]), "{lines:?}");
}

#[test]
fn usage_errors_exit_2() {
    let no_workspace = std::env::temp_dir().join("carve-audit-definitely-not-a-workspace");
    let cases: Vec<Vec<&str>> = vec![
        vec!["frobnicate"],
        vec![],
        vec!["lint", "--bogus-flag"],
        vec!["lint", no_workspace.to_str().unwrap()],
        vec!["effects"],
    ];
    for args in &cases {
        let out = carve_audit(args).output().expect("spawn carve-audit");
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?}: stderr {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn help_exits_0() {
    let out = carve_audit(&["--help"])
        .output()
        .expect("spawn carve-audit");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("lint"));
}

/// The real workspace scans clean, and the clean tree still produces the
/// document shape wrappers parse.
#[test]
fn lint_real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")) // crates/audit
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let out = carve_audit(&["lint", "--json", root.to_str().unwrap()])
        .output()
        .expect("spawn carve-audit");
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "findings: {text}");
    assert!(text.contains("\"findings\": []"), "{text}");
    assert!(text.contains("\"files_scanned\": "), "{text}");
}
