//! First-party static-analysis rules for the carve-mgpu workspace.
//!
//! This is a deliberately dependency-free, line-oriented source scanner —
//! no `syn`, no `dylint`, nothing that needs a network or a nightly
//! toolchain. It enforces simulator-specific invariants that `rustc` and
//! `clippy` cannot express because they are about *which module* code
//! lives in, not whether it is well-typed:
//!
//! * [`tick-path-collections`] — the per-cycle datapath (`system::sim`,
//!   `gpu::sm`, `dram`, `noc`, `cache::mshr`, `carve::*`) must use
//!   `sim_core::fast` lookup structures. `HashMap`/`HashSet`/`BTreeMap`/
//!   `BTreeSet` carry SipHash cost and (for the hash maps) nondeterministic
//!   iteration order that would poison the bit-identical journals.
//!   `VecDeque`/`BinaryHeap` are deterministic and stay allowed.
//! * [`wall-clock`] — crates whose state feeds journal lines must not read
//!   `SystemTime`/`Instant` or OS randomness (`thread_rng`): simulated
//!   time comes from [`Cycle`]s and randomness from the seeded splitmix
//!   RNG, or replays stop being replays.
//! * [`tick-path-panics`] — non-test tick-path code must not
//!   `unwrap`/`expect`/`panic!` — nor `unreachable!`/`todo!`/
//!   `unimplemented!`, which fault injection turns from "can't happen"
//!   into crashes; fallible paths route through `SimError` (or the
//!   sanitizer, for protocol-impossible deliveries) so campaigns journal
//!   the failure instead of losing the worker.
//! * [`lossy-cast`] — no silent-truncating `as` casts on cycle/address/
//!   token-typed values; 20-bit epoch counters taught us how those bite.
//! * [`equivalence-doc`] — every module carrying an event-horizon
//!   fast-path cache (`min_finish`, `min_arrival`, `next_event`,
//!   `next_activity`) must contain an `// EQUIVALENCE:` comment block
//!   arguing why skipping is bit-identical to stepping.
//! * [`order-sensitive-iteration`] — in tick-path code, `.for_each(` or
//!   `.values(` on a field declared in the same file as a `FastMap`/
//!   `FastSet`/`Slab`/`TagTable`, whose arguments write something, needs
//!   a `// determinism: <reason>` argument that the visiting order
//!   cannot reach the result. The argument sits on the call's line, the
//!   line before it, or earlier in an enclosing block (it then covers the
//!   rest of that block).
//! * [`env-read`] — library code must not read or write process state
//!   through `std::env::{var, var_os, vars, args, set_var, remove_var}`
//!   (or their `_os` twins): configuration is resolved once in a binary's
//!   `main` (`src/bin/*`, `main.rs`) and passed in, so no environment
//!   variable can silently change a run. Test modules are exempt.
//! * [`stale-allow`] — an allow-comment that suppresses nothing.
//!
//! Any finding can be suppressed in place with an allow-comment on the
//! same or the immediately preceding line:
//!
//! ```text
//! // audit:allow(wall-clock) CLI progress timer, never enters a journal
//! let started = Instant::now();
//! ```
//!
//! The rule name must match and the reason must be non-empty, otherwise
//! the finding still fires. Run the scanner with `carve-audit lint`; it
//! exits non-zero and prints `file:line: rule: message` diagnostics on any
//! finding.
//!
//! [`tick-path-collections`]: Rule::TickPathCollections
//! [`wall-clock`]: Rule::WallClock
//! [`tick-path-panics`]: Rule::TickPathPanics
//! [`lossy-cast`]: Rule::LossyCast
//! [`equivalence-doc`]: Rule::EquivalenceDoc
//! [`order-sensitive-iteration`]: Rule::OrderSensitiveIteration
//! [`env-read`]: Rule::EnvRead
//! [`stale-allow`]: Rule::StaleAllow
//! [`Cycle`]: https://docs.rs/ (sim-core::Cycle)

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod cli;
pub mod lex;

use lex::{Tok, Token};

/// The rules the scanner knows, with their allow-comment names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Hash/btree collections in tick-path modules.
    TickPathCollections,
    /// Wall-clock time or OS randomness in journal-feeding crates.
    WallClock,
    /// `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!`
    /// in non-test tick-path code.
    TickPathPanics,
    /// Truncating `as` casts on cycle/address-typed values.
    LossyCast,
    /// Event-cache module missing its `// EQUIVALENCE:` block.
    EquivalenceDoc,
    /// `for_each`/`values` iteration over an order-carrying container
    /// with writes in its body and no `// determinism:` argument.
    OrderSensitiveIteration,
    /// `std::env` process-state access in library code.
    EnvRead,
    /// An `audit:allow(...)` comment that no longer suppresses any
    /// finding.
    StaleAllow,
}

impl Rule {
    /// The name used in diagnostics and `audit:allow(...)` comments.
    pub fn name(self) -> &'static str {
        match self {
            Rule::TickPathCollections => "tick-path-collections",
            Rule::WallClock => "wall-clock",
            Rule::TickPathPanics => "tick-path-panics",
            Rule::LossyCast => "lossy-cast",
            Rule::EquivalenceDoc => "equivalence-doc",
            Rule::OrderSensitiveIteration => "order-sensitive-iteration",
            Rule::EnvRead => "env-read",
            Rule::StaleAllow => "stale-allow",
        }
    }

    /// All rules, for `--list` style output.
    pub fn all() -> [Rule; 8] {
        [
            Rule::TickPathCollections,
            Rule::WallClock,
            Rule::TickPathPanics,
            Rule::LossyCast,
            Rule::EquivalenceDoc,
            Rule::OrderSensitiveIteration,
            Rule::EnvRead,
            Rule::StaleAllow,
        ]
    }
}

/// One finding, pointing at a workspace-relative file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// What was found and what to do instead.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Whether `rel` (workspace-relative, `/`-separated) is a tick-path
/// module: code executed every simulated cycle, where lookup structure
/// and panic discipline are load-bearing.
fn is_tick_path(rel: &str) -> bool {
    rel == "crates/system/src/sim.rs"
        || rel == "crates/system/src/observe.rs"
        || rel == "crates/gpu/src/sm.rs"
        || rel == "crates/dram/src/lib.rs"
        || rel == "crates/noc/src/lib.rs"
        || rel == "crates/cache/src/mshr.rs"
        || rel.starts_with("crates/carve/src/")
}

/// Crates whose state can end up encoded in a journal line.
/// `experiments` times wall-clock on purpose (its binaries report a
/// campaign's wall time) and is out of scope.
const JOURNAL_FEEDING_CRATES: [&str; 9] = [
    "sim-core", "system", "carve", "cache", "dram", "gpu", "noc", "trace", "runtime",
];

fn is_journal_feeding(rel: &str) -> bool {
    JOURNAL_FEEDING_CRATES
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")))
}

/// Whether `rel` is library source: under a crate's `src/` but outside
/// the binary edges (`src/bin/`, `main.rs`) where configuration is read.
fn is_library_source(rel: &str) -> bool {
    rel.starts_with("crates/")
        && rel.contains("/src/")
        && !rel.contains("/src/bin/")
        && !rel.ends_with("/main.rs")
}

/// `std::env` functions that read or write process state.
const ENV_FNS: [&str; 8] = [
    "var",
    "var_os",
    "vars",
    "vars_os",
    "args",
    "args_os",
    "set_var",
    "remove_var",
];

/// The process-state `env::` function `code` names, if any.
fn env_access(code: &str) -> Option<&'static str> {
    let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0;
    while let Some(pos) = code[from..].find("env::") {
        let at = from + pos;
        from = at + "env::".len();
        if at > 0 && ident(code.as_bytes()[at - 1]) {
            continue;
        }
        let rest = &code[from..];
        let name = &rest[..rest.bytes().position(|b| !ident(b)).unwrap_or(rest.len())];
        if let Some(f) = ENV_FNS.iter().find(|f| **f == name) {
            return Some(f);
        }
    }
    None
}

/// Splits a source line into (code, comment) at the first `//` that is
/// not inside a string literal (tracked naively over `"` with `\"`
/// escapes — good enough for this codebase's style).
fn split_comment(line: &str) -> (&str, &str) {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1, // skip the escaped byte
            b'"' => in_str = !in_str,
            b'/' if !in_str && i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                return (&line[..i], &line[i..]);
            }
            _ => {}
        }
        i += 1;
    }
    (line, "")
}

/// Parses `audit:allow(rule) reason` out of a comment fragment. Returns
/// `Some((rule_name, reason))` when the syntax is present (reason may be
/// empty — the caller decides whether that suppresses).
fn parse_allow(comment: &str) -> Option<(&str, &str)> {
    let idx = comment.find("audit:allow(")?;
    let rest = &comment[idx + "audit:allow(".len()..];
    let close = rest.find(')')?;
    let rule = rest[..close].trim();
    let reason = rest[close + 1..].trim();
    Some((rule, reason))
}

/// Whether a finding of `rule` on this line is suppressed by an
/// allow-comment on the same line or the immediately preceding one.
/// A matching allow with an empty reason does *not* suppress: reasons
/// are the whole point of the mechanism. Returns the line the allow sits
/// on, so `stale-allow` can mark it used.
fn allowed(
    rule: Rule,
    same_line_comment: &str,
    line_no: usize,
    prev_line: &str,
    prev_no: usize,
) -> Option<usize> {
    for (comment, no) in [(same_line_comment, line_no), (prev_line, prev_no)] {
        if let Some((name, reason)) = parse_allow(comment) {
            if name == rule.name() && !reason.is_empty() {
                return Some(no);
            }
        }
    }
    None
}

/// Identifier-ish characters for the cast-operand walk-back.
fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'.'
}

/// Finds truncating casts whose operand names a cycle/address/token
/// quantity. Widening casts (`as u64`) and index casts (`g as u32`) are
/// fine; `now as u32` or `line_addr as u32` are not.
fn lossy_cast_operand(code: &str) -> Option<String> {
    const TARGETS: [&str; 6] = [
        " as u8", " as u16", " as u32", " as i8", " as i16", " as i32",
    ];
    const SUSPECT: [&str; 8] = [
        "cycle",
        "addr",
        "token",
        "tag",
        "now",
        "epoch",
        "line_addr",
        "clock",
    ];
    for t in TARGETS {
        let mut from = 0;
        while let Some(pos) = code[from..].find(t) {
            let at = from + pos;
            // The cast target must end the expression or be followed by a
            // non-identifier character (so " as u32" doesn't match
            // " as u32x4" or similar).
            let after = at + t.len();
            if code
                .as_bytes()
                .get(after)
                .copied()
                .is_some_and(is_ident_char)
            {
                from = after;
                continue;
            }
            // Walk back over the operand's identifier path.
            let bytes = code.as_bytes();
            let mut start = at;
            while start > 0 && is_ident_char(bytes[start - 1]) {
                start -= 1;
            }
            let operand = &code[start..at];
            let lower = operand.to_ascii_lowercase();
            if SUSPECT.iter().any(|s| lower.contains(s)) {
                return Some(operand.to_string());
            }
            from = after;
        }
    }
    None
}

/// Substrings whose presence marks an event-horizon fast-path cache.
const EVENT_CACHE_MARKERS: [&str; 4] = [
    "min_finish",
    "min_arrival",
    "fn next_event",
    "fn next_activity",
];

/// One `audit:allow` site found outside test modules, for `stale-allow`
/// tracking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowSite {
    pub line: usize,
    pub rule: String,
}

/// Line-scanner output with the bookkeeping `stale-allow` needs.
#[derive(Debug, Default)]
pub struct FileScan {
    pub diags: Vec<Diagnostic>,
    pub allow_sites: Vec<AllowSite>,
    /// Lines whose allow-comment suppressed a finding.
    pub used_allows: BTreeSet<usize>,
}

/// A logical source line: grouped `use` imports wrapped by rustfmt
/// (`use std::collections::{\n  HashMap,\n};`) are joined into one line
/// attributed to the `use` keyword, so line rules can't be dodged by
/// wrapping and one allow-comment governs the whole group.
struct Logical {
    no: usize,
    raw: String,
    code: String,
    comment: String,
}

fn logical_lines(content: &str) -> Vec<Logical> {
    let mut out = Vec::new();
    let mut lines = content.lines().enumerate();
    while let Some((idx, raw)) = lines.next() {
        let (code, comment) = split_comment(raw);
        let trimmed = code.trim_start();
        let is_use = trimmed.starts_with("use ") || trimmed.starts_with("pub use ");
        if is_use && !code.contains(';') {
            let mut jcode = code.to_string();
            let mut jcomment = comment.to_string();
            for (_, raw2) in lines.by_ref() {
                let (code2, comment2) = split_comment(raw2);
                jcode.push(' ');
                jcode.push_str(code2.trim());
                if !comment2.is_empty() {
                    jcomment.push(' ');
                    jcomment.push_str(comment2);
                }
                if code2.contains(';') {
                    break;
                }
            }
            out.push(Logical {
                no: idx + 1,
                raw: raw.to_string(),
                code: jcode,
                comment: jcomment,
            });
        } else {
            out.push(Logical {
                no: idx + 1,
                raw: raw.to_string(),
                code: code.to_string(),
                comment: comment.to_string(),
            });
        }
    }
    out
}

/// Scans one file's content. `rel` is the workspace-relative path with
/// `/` separators; it selects which rules apply.
pub fn scan_file(rel: &str, content: &str) -> Vec<Diagnostic> {
    scan_file_tracked(rel, content).diags
}

/// [`scan_file`] plus allow-site bookkeeping for `stale-allow`.
pub fn scan_file_tracked(rel: &str, content: &str) -> FileScan {
    let tick_path = is_tick_path(rel);
    let journal_feeding = is_journal_feeding(rel);
    let library = is_library_source(rel);
    if !tick_path && !journal_feeding && !library {
        return FileScan::default();
    }

    let mut out = FileScan::default();
    let diags = &mut out.diags;
    let mut prev_line = String::new();
    let mut prev_no = 0usize;
    // Test-module skipping: a `#[cfg(test)]` attribute arms the skipper;
    // the next `mod ... {` enters it; brace depth tracks the exit.
    let mut test_pending = false;
    let mut test_depth: i64 = 0;
    let mut has_equivalence = false;
    // (line, marker, allow-comment line suppressing the finding)
    let mut first_marker: Option<(usize, &str, Option<usize>)> = None;

    for line in logical_lines(content) {
        let line_no = line.no;
        let code = line.code.as_str();
        let comment = line.comment.as_str();
        let trimmed = line.raw.trim_start();

        if comment.contains("EQUIVALENCE:") || trimmed.starts_with("//! EQUIVALENCE:") {
            has_equivalence = true;
        }

        // The item after `#[cfg(test)]` is skipped: a `mod … {` until its
        // braces close, anything else (a lone fn or use) for just its
        // first line, conservatively.
        let arms = trimmed.starts_with("#[cfg(test)]");
        let armed_item = test_pending && !arms && !trimmed.is_empty() && !trimmed.starts_with("//");
        if test_depth > 0 || arms || armed_item {
            if test_depth == 0 {
                test_pending = arms;
            }
            if test_depth > 0 || (armed_item && trimmed.starts_with("mod")) {
                for b in code.bytes() {
                    match b {
                        b'{' => test_depth += 1,
                        b'}' => test_depth -= 1,
                        _ => {}
                    }
                }
            }
            prev_line = line.raw;
            prev_no = line_no;
            continue;
        }

        // Record well-formed allow-comments outside test modules so
        // `stale-allow` can later flag the ones nothing uses. Doc
        // comments (`///`, `//!`) only describe the syntax.
        let doc = comment.starts_with("///") || comment.starts_with("//!");
        if let Some((rule, reason)) = parse_allow(comment).filter(|_| !doc) {
            if !reason.is_empty() {
                out.allow_sites.push(AllowSite {
                    line: line_no,
                    rule: rule.to_string(),
                });
            }
        }

        // Whole-line comments only ever feed the equivalence rule and
        // the allow-site table.
        if trimmed.starts_with("//") {
            prev_line = line.raw;
            prev_no = line_no;
            continue;
        }

        if tick_path {
            if first_marker.is_none() {
                for m in EVENT_CACHE_MARKERS {
                    if code.contains(m) {
                        let allow =
                            allowed(Rule::EquivalenceDoc, comment, line_no, &prev_line, prev_no);
                        first_marker = Some((line_no, m, allow));
                        break;
                    }
                }
            }
            for ty in ["HashMap", "HashSet", "BTreeMap", "BTreeSet"] {
                if code.contains(ty) {
                    match allowed(
                        Rule::TickPathCollections,
                        comment,
                        line_no,
                        &prev_line,
                        prev_no,
                    ) {
                        Some(l) => {
                            out.used_allows.insert(l);
                        }
                        None => diags.push(Diagnostic {
                            file: rel.to_string(),
                            line: line_no,
                            rule: Rule::TickPathCollections,
                            message: format!(
                                "`{ty}` in a tick-path module; use `sim_core::fast` \
                                 (FastMap/FastSet/Slab/TagTable) so lookups stay \
                                 allocation-free and iteration-order deterministic"
                            ),
                        }),
                    }
                    break;
                }
            }
            // `unreachable!`/`todo!`/`unimplemented!` are panics too — and
            // the fault-injection layer makes "can't happen" deliveries
            // happen (a duplicated packet reaching a token whose state
            // machine already moved on). Such arms must discard-and-report
            // through the sanitizer, not abort the worker.
            for pat in [
                ".unwrap()",
                ".expect(",
                "panic!(",
                "unreachable!(",
                "todo!(",
                "unimplemented!(",
            ] {
                if code.contains(pat) {
                    match allowed(Rule::TickPathPanics, comment, line_no, &prev_line, prev_no) {
                        Some(l) => {
                            out.used_allows.insert(l);
                        }
                        None => diags.push(Diagnostic {
                            file: rel.to_string(),
                            line: line_no,
                            rule: Rule::TickPathPanics,
                            message: format!(
                                "`{}` in non-test tick-path code; route the failure \
                                 through `SimError` so campaigns journal it instead \
                                 of losing the worker",
                                pat.trim_start_matches('.')
                            ),
                        }),
                    }
                    break;
                }
            }
            if let Some(op) = lossy_cast_operand(code) {
                match allowed(Rule::LossyCast, comment, line_no, &prev_line, prev_no) {
                    Some(l) => {
                        out.used_allows.insert(l);
                    }
                    None => diags.push(Diagnostic {
                        file: rel.to_string(),
                        line: line_no,
                        rule: Rule::LossyCast,
                        message: format!(
                            "truncating `as` cast on `{op}` (cycle/address-typed); \
                             use `try_into` or widen the destination"
                        ),
                    }),
                }
            }
        }

        if journal_feeding {
            let wall = code.contains("SystemTime")
                || code.contains("Instant::now")
                || code.contains("std::time::Instant")
                || (code.contains("std::time::{") && code.contains("Instant"))
                || code.contains("thread_rng")
                || code.contains("rand::random");
            if wall {
                match allowed(Rule::WallClock, comment, line_no, &prev_line, prev_no) {
                    Some(l) => {
                        out.used_allows.insert(l);
                    }
                    None => diags.push(Diagnostic {
                        file: rel.to_string(),
                        line: line_no,
                        rule: Rule::WallClock,
                        message: "wall-clock time or OS randomness in a journal-feeding \
                                  crate; simulated time comes from `Cycle`, randomness \
                                  from the seeded `sim_core::rng`"
                            .to_string(),
                    }),
                }
            }
        }

        if let Some(f) = env_access(code).filter(|_| library) {
            match allowed(Rule::EnvRead, comment, line_no, &prev_line, prev_no) {
                Some(l) => {
                    out.used_allows.insert(l);
                }
                None => diags.push(Diagnostic {
                    file: rel.to_string(),
                    line: line_no,
                    rule: Rule::EnvRead,
                    message: format!(
                        "`env::{f}` in library code; resolve configuration once in \
                         the binary's `main` (`src/bin/*`, `main.rs`) and pass it in"
                    ),
                }),
            }
        }

        prev_line = line.raw;
        prev_no = line_no;
    }

    if tick_path && !has_equivalence {
        if let Some((_, _, Some(allow))) = first_marker {
            out.used_allows.insert(allow);
        } else if let Some((line, marker, None)) = first_marker {
            diags.push(Diagnostic {
                file: rel.to_string(),
                line,
                rule: Rule::EquivalenceDoc,
                message: format!(
                    "module carries an event-horizon fast path (`{marker}`) but no \
                     `// EQUIVALENCE:` block arguing bit-identity with stepping"
                ),
            });
        }
    }

    if tick_path {
        order_sensitive_iteration(rel, content, &mut out);
    }
    out.diags
        .sort_by(|a, b| (a.line, a.rule.name()).cmp(&(b.line, b.rule.name())));
    out
}

/// Container types whose `for_each`/`values` order is an implementation
/// detail (slot or hash order) that a determinism argument must cover.
const ORDERED_TYPES: [&str; 4] = ["FastMap", "FastSet", "Slab", "TagTable"];

/// Methods that mutate their receiver, on the `std` and `sim_core` types
/// the tick path uses.
const MUT_METHODS: &str = "insert insert_if_absent remove push push_back push_front pop \
    pop_back pop_front clear drain record take replace untracked_token extend append truncate \
    retain get_mut iter_mut resize fill sort sort_unstable set add";

/// Index one past the group that opens at `toks[open]` (`(`, `[` or `{`).
fn group_end(toks: &[Token], open: usize) -> usize {
    let Tok::Punct(o) = toks[open].tok else {
        return open + 1;
    };
    let c = match o {
        '(' => ')',
        '[' => ']',
        _ => '}',
    };
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
    }
    toks.len()
}

/// Names of struct fields declared in `toks` whose type mentions one of
/// [`ORDERED_TYPES`] (`pending: Slab<Pending>`, `issue_time:
/// Vec<TagTable<u64>>`).
fn ordered_fields(toks: &[Token]) -> BTreeSet<&str> {
    let mut out = BTreeSet::new();
    for s in (0..toks.len()).filter(|&s| toks[s].ident() == Some("struct")) {
        // Tuple and unit structs reach a `;` before any `{`.
        let Some(open) = (s..toks.len())
            .find(|&j| toks[j].is_punct('{') || toks[j].is_punct(';'))
            .filter(|&j| toks[j].is_punct('{'))
        else {
            continue;
        };
        let mut depth = 0i32;
        let mut field: Option<&str> = None;
        for j in open + 1..group_end(toks, open) - 1 {
            match &toks[j].tok {
                Tok::Punct('(' | '[' | '{' | '<') => depth += 1,
                // `->` in a fn-pointer type closes nothing.
                Tok::Punct('>') if j > 0 && toks[j - 1].is_punct('-') => {}
                Tok::Punct(')' | ']' | '}' | '>') => depth -= 1,
                Tok::Punct(',') if depth == 0 => field = None,
                Tok::Ident(name) if depth == 0 && field.is_none() => {
                    let colon = toks.get(j + 1).is_some_and(|t| t.is_punct(':'));
                    if colon && !toks.get(j + 2).is_some_and(|t| t.is_punct(':')) {
                        field = Some(name);
                    }
                }
                Tok::Ident(ty) if ORDERED_TYPES.contains(&ty.as_str()) => {
                    if let Some(f) = field {
                        out.insert(f);
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// Whether iteration-closure argument tokens write anything: an
/// assignment or compound assignment (not a comparison, `=>` or `let`
/// binding), or a call to one of [`MUT_METHODS`].
fn args_write(toks: &[Token]) -> bool {
    toks.iter().enumerate().any(|(i, t)| match &t.tok {
        Tok::Punct('=') => {
            let next_eq_or_arrow = toks
                .get(i + 1)
                .is_some_and(|t| t.is_punct('=') || t.is_punct('>'));
            // `+=`-style compounds put an operator before the '='; of
            // those, only `==`, `!=`, `<=`, `>=` are comparisons (`<<=`
            // and `>>=` are shifts).
            let prev = |k: usize| i.checked_sub(k).map(|p| &toks[p].tok);
            let shift = matches!(
                (prev(2), prev(1)),
                (Some(Tok::Punct('<')), Some(Tok::Punct('<')))
                    | (Some(Tok::Punct('>')), Some(Tok::Punct('>')))
            );
            let prev_cmp = !shift && matches!(prev(1), Some(Tok::Punct('=' | '!' | '<' | '>')));
            let is_let_binding = toks[..i]
                .iter()
                .rev()
                .take_while(|t| !t.is_punct(';') && !t.is_punct('{') && !t.is_punct('|'))
                .any(|t| t.ident() == Some("let"));
            !next_eq_or_arrow && !prev_cmp && !is_let_binding
        }
        Tok::Ident(name) => {
            i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                && MUT_METHODS.split_whitespace().any(|m| m == name)
        }
        _ => false,
    })
}

/// Whether a comment carries `determinism: <non-empty reason>`.
fn determinism_reason(comment: &str) -> bool {
    comment
        .split("determinism:")
        .nth(1)
        .is_some_and(|rest| !rest.trim().is_empty())
}

/// `order-sensitive-iteration` over one tick-path file's tokens: a
/// `<recv>.for_each(` / `<recv>.values(` call whose receiver ends in an
/// [`ordered_fields`] name and whose arguments write, with no
/// determinism argument or allow-comment in reach.
fn order_sensitive_iteration(rel: &str, content: &str, out: &mut FileScan) {
    let toks = lex::lex(content);
    let fields = ordered_fields(&toks);
    if fields.is_empty() {
        return;
    }
    // Comments on `line` or the line before, with their line numbers.
    let near = |line: usize| {
        toks.iter()
            .filter(move |t| t.line == line || t.line + 1 == line)
            .filter_map(|t| t.comment().map(|c| (t.line, c)))
    };
    // Brace depths of the blocks a `// determinism:` argument covers.
    let mut scopes: Vec<usize> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        match &t.tok {
            Tok::Comment(c) if depth > 0 && determinism_reason(c) => scopes.push(depth),
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                scopes.retain(|&d| d <= depth);
            }
            // `#[cfg(test)] mod … { … }`: test code is out of scope.
            Tok::Punct('#')
                if toks.get(i + 2).and_then(Token::ident) == Some("cfg")
                    && toks.get(i + 4).and_then(Token::ident) == Some("test")
                    && toks.get(i + 7).and_then(Token::ident) == Some("mod") =>
            {
                let body =
                    (i..toks.len()).find(|&j| toks[j].is_punct('{') || toks[j].is_punct(';'));
                if let Some(open) = body.filter(|&j| toks[j].is_punct('{')) {
                    i = group_end(&toks, open);
                    continue;
                }
            }
            Tok::Ident(m)
                if (m == "for_each" || m == "values")
                    && i >= 2
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) =>
            {
                // The receiver's last identifier, looking through one
                // index expression (`issue_time[g].for_each(`).
                let mut r = i - 2;
                if toks[r].is_punct(']') {
                    let open = (0..r)
                        .rev()
                        .find(|&j| toks[j].is_punct('[') && group_end(&toks, j) == r + 1);
                    r = open.map_or(0, |j| j.saturating_sub(1));
                }
                let field = toks[r].ident().filter(|f| fields.contains(f));
                let args = &toks[i + 2..group_end(&toks, i + 1).saturating_sub(1)];
                if let Some(field) = field.filter(|_| args_write(args)) {
                    let argued =
                        !scopes.is_empty() || near(t.line).any(|(_, c)| determinism_reason(c));
                    let allow = || {
                        near(t.line).find(|(_, c)| {
                            parse_allow(c).is_some_and(|(name, reason)| {
                                name == Rule::OrderSensitiveIteration.name() && !reason.is_empty()
                            })
                        })
                    };
                    if argued {
                        // An allow beside an argument stays unused: stale.
                    } else if let Some((l, _)) = allow() {
                        out.used_allows.insert(l);
                    } else {
                        out.diags.push(Diagnostic {
                            file: rel.to_string(),
                            line: t.line,
                            rule: Rule::OrderSensitiveIteration,
                            message: format!(
                                "`.{m}()` over `{field}` (an order-carrying container) \
                                 writes in its body; argue that the visiting order cannot \
                                 reach the result with `// determinism: <reason>`"
                            ),
                        });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Recursively collects `.rs` files under `dir` into `out`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Loads every `crates/*/src/**/*.rs` under `root` (the workspace root)
/// as `(workspace-relative path, contents)`, sorted by path.
pub fn load_workspace(root: &Path) -> io::Result<Vec<(String, String)>> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "{} has no crates/ directory; pass the workspace root",
                root.display()
            ),
        ));
    }
    let mut files = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        out.push((rel, fs::read_to_string(&path)?));
    }
    Ok(out)
}

/// Combined result of every rule plus `stale-allow` reconciliation.
#[derive(Debug, Default)]
pub struct Analysis {
    /// All findings, sorted by (file, line, rule, message).
    pub diags: Vec<Diagnostic>,
    pub files_scanned: usize,
}

/// Runs every rule over in-memory file contents
/// (`(workspace-relative path, contents)` pairs).
pub fn analyze(files: &[(String, String)]) -> Analysis {
    let mut diags = Vec::new();
    let mut sites: Vec<(String, usize, String)> = Vec::new();
    let mut used: BTreeSet<(String, usize)> = BTreeSet::new();
    for (rel, content) in files {
        let scan = scan_file_tracked(rel, content);
        diags.extend(scan.diags);
        for s in scan.allow_sites {
            sites.push((rel.clone(), s.line, s.rule));
        }
        used.extend(scan.used_allows.into_iter().map(|l| (rel.clone(), l)));
    }
    for (file, line, rule) in sites {
        if !used.contains(&(file.clone(), line)) {
            diags.push(Diagnostic {
                file,
                line,
                rule: Rule::StaleAllow,
                message: format!(
                    "`audit:allow({rule})` suppresses nothing here; remove the \
                     comment, or fix the rule name if it was meant to match"
                ),
            });
        }
    }
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.name(), a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule.name(),
            b.message.as_str(),
        ))
    });
    Analysis {
        diags,
        files_scanned: files.len(),
    }
}

/// Scans every `crates/*/src/**/*.rs` under `root` (the workspace root)
/// with all rules. Returns the findings plus the number of files
/// scanned.
pub fn scan_workspace(root: &Path) -> io::Result<(Vec<Diagnostic>, usize)> {
    let files = load_workspace(root)?;
    let analysis = analyze(&files);
    Ok((analysis.diags, analysis.files_scanned))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: &str = "crates/carve/src/rdc.rs";

    fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule.name()).collect()
    }

    #[test]
    fn collections_flagged_in_tick_path_with_line() {
        let src = "use std::collections::HashMap;\nfn f() {}\n";
        let d = scan_file(TICK, src);
        assert_eq!(rules_of(&d), ["tick-path-collections"]);
        assert_eq!(d[0].line, 1);
        assert_eq!(d[0].file, TICK);
    }

    #[test]
    fn collections_ignored_outside_tick_path() {
        let src = "use std::collections::HashMap;\n";
        assert!(scan_file("crates/runtime/src/sharing.rs", src).is_empty());
    }

    #[test]
    fn deterministic_collections_stay_allowed() {
        let src = "use std::collections::{BinaryHeap, VecDeque};\n";
        assert!(scan_file(TICK, src).is_empty());
    }

    #[test]
    fn allow_comment_with_reason_suppresses() {
        let src = "// audit:allow(tick-path-collections) cold path, sized once at build\n\
                   use std::collections::HashMap;\n";
        assert!(scan_file(TICK, src).is_empty());
        let same_line =
            "use std::collections::HashMap; // audit:allow(tick-path-collections) cold path\n";
        assert!(scan_file(TICK, same_line).is_empty());
    }

    #[test]
    fn allow_comment_without_reason_does_not_suppress() {
        let src = "// audit:allow(tick-path-collections)\nuse std::collections::HashMap;\n";
        assert_eq!(rules_of(&scan_file(TICK, src)), ["tick-path-collections"]);
    }

    #[test]
    fn allow_comment_for_wrong_rule_does_not_suppress() {
        let src = "// audit:allow(wall-clock) wrong rule\nuse std::collections::HashMap;\n";
        assert_eq!(rules_of(&scan_file(TICK, src)), ["tick-path-collections"]);
    }

    #[test]
    fn wall_clock_flagged_in_journal_feeding_crate() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        let d = scan_file("crates/system/src/metrics.rs", src);
        assert_eq!(rules_of(&d), ["wall-clock", "wall-clock"]);
        assert_eq!(d[0].line, 1);
        let braced = "use std::time::{Duration, Instant};\n";
        assert_eq!(
            rules_of(&scan_file("crates/sim-core/src/stats.rs", braced)),
            ["wall-clock"]
        );
        let rng = "let x = rand::thread_rng().gen::<u64>();\n";
        assert_eq!(
            rules_of(&scan_file("crates/gpu/src/core.rs", rng)),
            ["wall-clock"]
        );
    }

    #[test]
    fn trace_phase_instant_is_not_wall_clock() {
        let src =
            "let p = TracePhase::Instant;\nmatch p { TracePhase::Instant => \"i\", _ => \"x\" };\n";
        assert!(scan_file("crates/sim-core/src/telemetry.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_ignored_in_bench_and_experiments() {
        let src = "use std::time::Instant;\n";
        assert!(scan_file("crates/report/src/lib.rs", src).is_empty());
        assert!(scan_file("crates/experiments/src/campaign.rs", src).is_empty());
    }

    #[test]
    fn env_access_is_flagged_only_in_library_code() {
        let src = "use std::env;\nfn f() -> Vec<String> { env::args().collect() }\n\
                   fn g() { std::env::set_var(\"K\", \"1\"); }\n\
                   fn h() -> std::path::PathBuf { std::env::temp_dir() }\n\
                   #[cfg(test)]\n\
                   mod tests {\n    fn t() { std::env::var(\"K\").ok(); }\n}\n";
        let lib = scan_file("crates/report/src/lib.rs", src);
        assert_eq!(rules_of(&lib), ["env-read", "env-read"]);
        assert_eq!((lib[0].line, lib[1].line), (2, 3));
        for edge in [
            "crates/report/src/main.rs",
            "crates/experiments/src/bin/fig02.rs",
        ] {
            assert!(scan_file(edge, src).is_empty(), "{edge}");
        }
        assert_eq!(env_access("let v = myenv::var(x);"), None);
        assert_eq!(env_access("std::env::var_os(k)"), Some("var_os"));
    }

    #[test]
    fn panics_flagged_only_outside_test_modules() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn g(x: Option<u32>) -> u32 { x.unwrap() }\n\
                       fn h() { panic!(\"boom\"); }\n\
                   }\n";
        let d = scan_file(TICK, src);
        assert_eq!(rules_of(&d), ["tick-path-panics"]);
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn expect_and_panic_flagged() {
        let src = "fn f(x: Option<u32>) { x.expect(\"set\"); }\nfn g() { panic!(\"no\"); }\n";
        let d = scan_file(TICK, src);
        assert_eq!(rules_of(&d), ["tick-path-panics", "tick-path-panics"]);
    }

    #[test]
    fn unreachable_and_friends_flagged_as_panics() {
        // Fault injection turns "can't happen" deliveries into things that
        // happen; every aborting macro in the tick path is a fuzz crash
        // waiting to be found.
        let src = "fn f(x: u8) { match x { 0 => {} _ => unreachable!(\"only zero\") } }\n\
                   fn g() { todo!(\"later\") }\n\
                   fn h() { unimplemented!() }\n";
        let d = scan_file(TICK, src);
        assert_eq!(
            rules_of(&d),
            ["tick-path-panics", "tick-path-panics", "tick-path-panics"]
        );
        assert!(d[0].message.contains("unreachable!("), "{:?}", d[0].message);
        // An allow-comment with a reason still suppresses it.
        let allowed = "// audit:allow(tick-path-panics) arm proven dead by the token slab\n\
                       fn f() { unreachable!() }\n";
        assert!(scan_file(TICK, allowed).is_empty());
    }

    #[test]
    fn lossy_cast_on_cycle_operand_flagged() {
        let src = "fn f(now: u64) -> u32 { now as u32 }\n";
        let d = scan_file(TICK, src);
        assert_eq!(rules_of(&d), ["lossy-cast"]);
        assert!(d[0].message.contains("now"));
        let addr = "let x = line_addr as u16;\n";
        assert_eq!(rules_of(&scan_file(TICK, addr)), ["lossy-cast"]);
    }

    #[test]
    fn widening_and_index_casts_stay_allowed() {
        let src = "let a = now as u64;\nlet b = g as u32;\nlet c = count as u32;\n";
        assert!(scan_file(TICK, src).is_empty());
    }

    #[test]
    fn equivalence_marker_required_for_event_caches() {
        let src = "struct Ch { min_finish: u64 }\n";
        let d = scan_file(TICK, src);
        assert_eq!(rules_of(&d), ["equivalence-doc"]);
        assert_eq!(d[0].line, 1);
        let documented = "// EQUIVALENCE: the cache only ever under-approximates the horizon.\n\
                          struct Ch { min_finish: u64 }\n";
        assert!(scan_file(TICK, documented).is_empty());
    }

    #[test]
    fn comment_mentions_do_not_fire_code_rules() {
        let src = "// HashMap would be wrong here; Instant::now too.\nfn f() {}\n";
        assert!(scan_file("crates/system/src/sim.rs", src).is_empty());
    }

    #[test]
    fn diagnostic_display_is_file_line_rule_message() {
        let d = Diagnostic {
            file: "crates/noc/src/lib.rs".into(),
            line: 42,
            rule: Rule::WallClock,
            message: "nope".into(),
        };
        assert_eq!(d.to_string(), "crates/noc/src/lib.rs:42: wall-clock: nope");
    }

    #[test]
    fn scan_workspace_rejects_non_workspace_roots() {
        let err = scan_workspace(Path::new("/nonexistent-root")).unwrap_err();
        assert!(err.to_string().contains("crates/"));
    }

    #[test]
    fn multiline_grouped_use_cannot_dodge_collections_rule() {
        // rustfmt-wrapped grouped import: the `HashMap` lands on its own
        // physical line, but the logical `use` line still fires.
        let src = "use std::collections::{\n    HashMap,\n    VecDeque,\n};\nfn f() {}\n";
        let d = scan_file(TICK, src);
        assert_eq!(rules_of(&d), ["tick-path-collections"]);
        assert_eq!(d[0].line, 1, "finding anchors on the `use` line");
    }

    #[test]
    fn multiline_grouped_use_cannot_dodge_wall_clock_rule() {
        let src = "use std::time::{\n    Duration,\n    Instant,\n};\n";
        let d = scan_file("crates/sim-core/src/stats.rs", src);
        assert_eq!(rules_of(&d), ["wall-clock"]);
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn allow_on_use_line_governs_whole_group() {
        let src = "// audit:allow(tick-path-collections) build-time table, sized once\n\
                   use std::collections::{\n    HashMap,\n    HashSet,\n};\n";
        assert!(scan_file(TICK, src).is_empty());
    }

    #[test]
    fn stale_allow_is_flagged_and_live_allow_is_not() {
        let live = "// audit:allow(tick-path-collections) cold path, sized once\n\
                    use std::collections::HashMap;\n";
        let stale = "// audit:allow(tick-path-collections) nothing below uses one\n\
                     fn f() {}\n";
        let files = [
            (TICK.to_string(), live.to_string()),
            ("crates/carve/src/epoch.rs".to_string(), stale.to_string()),
        ];
        let analysis = analyze(&files);
        let stale_diags: Vec<_> = analysis
            .diags
            .iter()
            .filter(|d| d.rule == Rule::StaleAllow)
            .collect();
        assert_eq!(stale_diags.len(), 1, "{:?}", analysis.diags);
        assert_eq!(stale_diags[0].file, "crates/carve/src/epoch.rs");
        assert_eq!(stale_diags[0].line, 1);
    }

    #[test]
    fn misspelled_allow_rule_name_is_stale() {
        let src = "// audit:allow(tick-path-collection) typo: missing the final s\n\
                   use std::collections::HashMap;\n";
        let files = [(TICK.to_string(), src.to_string())];
        let analysis = analyze(&files);
        let rules: Vec<_> = analysis.diags.iter().map(|d| d.rule.name()).collect();
        // The finding still fires AND the typo'd allow is reported stale.
        assert!(rules.contains(&"tick-path-collections"), "{rules:?}");
        assert!(rules.contains(&"stale-allow"), "{rules:?}");
    }

    #[test]
    fn allow_inside_test_module_is_not_stale_tracked() {
        let src = "fn f() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       // audit:allow(tick-path-panics) test helper may unwrap\n\
                       fn g(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   }\n";
        let files = [(TICK.to_string(), src.to_string())];
        let analysis = analyze(&files);
        assert!(analysis.diags.is_empty(), "{:?}", analysis.diags);
    }

    /// One seeded violation per rule as `(file, fires, silenced)`, where
    /// `silenced` is the same code under a reasoned allow. The `match`
    /// has no wildcard arm, so a new rule cannot compile without a
    /// fixture. `stale-allow` is silenced by putting its allow to use.
    fn fixture(rule: Rule) -> (&'static str, String, String) {
        let (file, fires) = match rule {
            Rule::TickPathCollections => (TICK, "use std::collections::HashMap;\n"),
            Rule::WallClock => ("crates/system/src/metrics.rs", "let t = Instant::now();\n"),
            Rule::TickPathPanics => (TICK, "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n"),
            Rule::LossyCast => (TICK, "fn f(now: u64) -> u32 { now as u32 }\n"),
            Rule::EquivalenceDoc => (TICK, "struct Ch { min_finish: u64 }\n"),
            Rule::EnvRead => (
                "crates/experiments/src/lib.rs",
                "fn quick() -> bool { std::env::var_os(\"CARVE_QUICK\").is_some() }\n",
            ),
            Rule::OrderSensitiveIteration => {
                let allow = "// audit:allow(order-sensitive-iteration) summation commutes";
                let call = "        self.pending";
                let silenced = SLAB_SUM.replace(call, &format!("        {allow}\n{call}"));
                return (TICK, SLAB_SUM.to_string(), silenced);
            }
            Rule::StaleAllow => {
                let (_, cast, cast_allowed) = fixture(Rule::LossyCast);
                return (
                    TICK,
                    cast_allowed.replace(&cast, "fn f() {}\n"),
                    cast_allowed,
                );
            }
        };
        let silenced = format!("// audit:allow({}) reason given\n{fires}", rule.name());
        (file, fires.to_string(), silenced)
    }

    #[test]
    fn every_rule_has_a_fixture_that_fires_and_an_allow_that_silences() {
        for rule in Rule::all() {
            let (file, fires, silenced) = fixture(rule);
            let run = |src: &str| analyze(&[(file.to_string(), src.to_string())]).diags;
            assert_eq!(rules_of(&run(&fires)), [rule.name()], "{rule:?} fixture");
            assert!(run(&silenced).is_empty(), "{rule:?}: {:?}", run(&silenced));
        }
    }

    const SLAB_SUM: &str = "\
struct System {
    pending: Slab<Pending>,
    total: u64,
}
impl System {
    fn tick(&mut self) {
        let total = &mut self.total;
        self.pending.for_each(|_, p| *total += p.bytes);
    }
}
";

    #[test]
    fn order_sensitive_iteration_fires_on_writing_slab_walk() {
        let d = scan_file(TICK, SLAB_SUM);
        assert_eq!(rules_of(&d), ["order-sensitive-iteration"]);
        assert_eq!(d[0].line, 8);
        assert!(d[0].message.contains("`pending`"), "{}", d[0].message);
        // A shift-assign is a write, not a comparison.
        let shift = SLAB_SUM.replace("*total += p.bytes", "*total <<= p.bytes");
        assert_eq!(
            rules_of(&scan_file(TICK, &shift)),
            ["order-sensitive-iteration"]
        );
        // Through an index into a per-GPU table, via a mutating call, past
        // a tuple struct.
        let indexed = "struct Id(u64);\nstruct S { seen: Vec<TagTable<u64>>, out: Vec<u64> }\n\
                       fn f(s: &mut S, g: usize) { s.seen[g].for_each(|_, v| s.out.push(*v)); }\n";
        assert_eq!(
            rules_of(&scan_file(TICK, indexed)),
            ["order-sensitive-iteration"]
        );
    }

    #[test]
    fn determinism_argument_silences_order_sensitive_iteration() {
        let preceding = SLAB_SUM.replace(
            "        self.pending",
            "        // determinism: summation commutes\n        self.pending",
        );
        assert!(scan_file(TICK, &preceding).is_empty());
        let same_line =
            SLAB_SUM.replace("p.bytes);", "p.bytes); // determinism: summation commutes");
        assert!(scan_file(TICK, &same_line).is_empty());
        let block = SLAB_SUM.replace(
            "fn tick(&mut self) {",
            "fn tick(&mut self) {\n        // determinism: summation commutes\n",
        );
        assert!(scan_file(TICK, &block).is_empty());
        // An argument without a reason, or in a block that has closed,
        // covers nothing.
        let bare = preceding.replace("summation commutes", "");
        assert_eq!(
            rules_of(&scan_file(TICK, &bare)),
            ["order-sensitive-iteration"]
        );
        let closed = SLAB_SUM.replace(
            "impl System {",
            "fn g() {\n    // determinism: unrelated\n}\nimpl System {",
        );
        assert_eq!(
            rules_of(&scan_file(TICK, &closed)),
            ["order-sensitive-iteration"]
        );
    }

    #[test]
    fn order_sensitive_iteration_ignores_non_field_and_read_only_walks() {
        // A local `Vec` reset in place (the `noc` distance-table shape).
        let local = "struct T { seen: FastSet }\n\
                     fn f(n: usize) { let mut dist = vec![0u32; n]; \
                     dist.iter_mut().for_each(|d| *d = u32::MAX); }\n";
        assert!(scan_file(TICK, local).is_empty());
        // `TagTable::values` used as a path, folded with `.min()`.
        let path = "struct S { issue_time: Vec<TagTable<u64>> }\n\
                    fn f(s: &S) -> Option<u64> { s.issue_time.iter().flat_map(TagTable::values).min().copied() }\n";
        assert!(scan_file(TICK, path).is_empty());
        // Read-only body: comparisons and `=>` are not writes.
        let read_only = SLAB_SUM.replace("*total += p.bytes", "if p.bytes == 0 { () } else { () }");
        assert!(scan_file(TICK, &read_only).is_empty());
        // The same writing walk outside the tick path.
        assert!(scan_file("crates/runtime/src/sharing.rs", SLAB_SUM).is_empty());
    }

    #[test]
    fn analysis_sorts_by_file_line_rule() {
        let files = [
            (
                "crates/system/src/zz.rs".to_string(),
                "fn f() { let t = std::time::Instant::now(); }\n".to_string(),
            ),
            (
                "crates/carve/src/rdc.rs".to_string(),
                "use std::collections::HashMap;\nfn g(x: Option<u8>) { x.unwrap(); }\n".to_string(),
            ),
        ];
        let analysis = analyze(&files);
        let keys: Vec<_> = analysis
            .diags
            .iter()
            .map(|d| (d.file.clone(), d.line, d.rule.name()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
