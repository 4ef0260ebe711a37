//! Command-line front end of the `carve-audit` binary.
//!
//! ```text
//! lint [--json] [ROOT]   run every rule; exit 1 on findings
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

use std::path::{Path, PathBuf};

use crate::{analyze, load_workspace, Analysis};

const USAGE: &str = "\
usage: carve-audit <command> [options]

commands:
  lint [--json] [ROOT]   run all audit rules over the workspace
                         (--json: machine-readable findings, sorted
                         by (path, line, rule))

ROOT defaults to the enclosing workspace of the current directory.
exit codes: 0 clean, 1 findings, 2 usage/io error";

/// Walks upward from `start` to the first directory containing
/// `crates/`.
fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn resolve_root(explicit: Option<&str>) -> Result<PathBuf, String> {
    match explicit {
        Some(p) => {
            let path = PathBuf::from(p);
            if path.join("crates").is_dir() {
                Ok(path)
            } else {
                Err(format!("{p} has no crates/ directory"))
            }
        }
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            find_root(&cwd)
                .ok_or_else(|| "no workspace root found above the current directory".to_string())
        }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders an [`Analysis`] as the machine-readable findings document.
pub fn findings_json(analysis: &Analysis) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"files_scanned\": {},\n  \"findings\": [",
        analysis.files_scanned
    ));
    for (i, d) in analysis.diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&d.file),
            d.line,
            d.rule.name(),
            json_escape(&d.message)
        ));
    }
    if analysis.diags.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

fn run_lint(args: &[String]) -> u8 {
    let mut json = false;
    let mut root_arg: Option<&str> = None;
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            s if s.starts_with('-') => {
                eprintln!("carve-audit: unknown lint option {s}\n{USAGE}");
                return 2;
            }
            s if root_arg.is_none() => root_arg = Some(s),
            s => {
                eprintln!("carve-audit: unexpected argument {s}\n{USAGE}");
                return 2;
            }
        }
    }
    let root = match resolve_root(root_arg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("carve-audit: {e}");
            return 2;
        }
    };
    let files = match load_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("carve-audit: {e}");
            return 2;
        }
    };
    let analysis = analyze(&files);
    if json {
        print!("{}", findings_json(&analysis));
    } else {
        for d in &analysis.diags {
            println!("{d}");
        }
        if analysis.diags.is_empty() {
            println!(
                "carve-audit: clean ({} files, {} rules)",
                analysis.files_scanned,
                crate::Rule::all().len()
            );
        } else {
            eprintln!("carve-audit: {} finding(s)", analysis.diags.len());
        }
    }
    u8::from(!analysis.diags.is_empty())
}

/// The entry point. Returns the process exit code.
pub fn run(args: &[String]) -> u8 {
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("--help") | Some("-h") | Some("help") => {
            println!("{USAGE}");
            0
        }
        Some(other) => {
            eprintln!("carve-audit: unknown command {other}\n{USAGE}");
            2
        }
        None => {
            eprintln!("{USAGE}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Diagnostic, Rule};

    #[test]
    fn json_is_escaped_and_shaped() {
        let analysis = Analysis {
            diags: vec![Diagnostic {
                file: "crates/a/src/lib.rs".into(),
                line: 3,
                rule: Rule::WallClock,
                message: "say \"no\" to\nwall clocks".into(),
            }],
            files_scanned: 7,
        };
        let j = findings_json(&analysis);
        assert!(j.contains("\"files_scanned\": 7"));
        assert!(j.contains("\\\"no\\\" to\\nwall"));
        assert!(j.contains("\"rule\": \"wall-clock\""));
    }

    #[test]
    fn empty_findings_render_as_empty_array() {
        let analysis = Analysis {
            diags: Vec::new(),
            files_scanned: 2,
        };
        let j = findings_json(&analysis);
        assert!(j.contains("\"findings\": []"), "{j}");
    }
}
