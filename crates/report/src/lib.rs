//! Campaign-journal → static HTML dashboard rendering (DESIGN.md §14).
//!
//! The `carve-report` binary reads a campaign checkpoint journal
//! (`results/<name>.journal`, written by [`experiments`'s `Campaign`])
//! plus its optional sidecars — `<name>.timeline.csv` (interval
//! telemetry) and `<name>.profile.tsv` (compact stall breakdowns) — and
//! renders one self-contained HTML file. Self-contained is the design
//! constraint: the page must open from a `file://` URL on an air-gapped
//! machine, so every chart is hand-rolled inline SVG and the only
//! stylesheet is an inline `<style>` block. No scripts, no fonts, no CDN.
//!
//! The dashboard always contains five sections, each with a stable
//! element id that CI greps for:
//!
//! * `#speedup`  — per-workload speedup bars, one bar per design,
//!   normalized to the NUMA-GPU (else 1-GPU) point of the same group;
//! * `#stalls`   — stacked stall-category bars per design, from the
//!   profile sidecar;
//! * `#heatmap`  — per-GPU × interval IPC heatmaps, from the timeline
//!   sidecar;
//! * `#links`    — link-occupancy bars (profile sidecar) and per-point
//!   fabric traffic (journal), the scaling campaign's topology view;
//! * `#chaos`    — fault-injected points and journaled failures with
//!   their diagnostics.
//!
//! Sections degrade gracefully: a missing sidecar renders an explanatory
//! paragraph under the same anchor rather than dropping the section.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

use carve_system::{ProfileReport, SimResult, StallCat, NUM_STALL_CATS};

/// One completed point parsed back out of a journal.
#[derive(Debug, Clone)]
pub struct JournalPoint {
    /// The campaign config key (design label plus every knob, `|`-joined).
    pub config: String,
    /// The decoded result line (timeline/profile/recovery are `None` —
    /// those live in sidecars, not the 36-field journal contract).
    pub result: SimResult,
}

/// One `fail` record parsed back out of a journal.
#[derive(Debug, Clone)]
pub struct JournalFailure {
    /// Workload name.
    pub workload: String,
    /// The campaign config key.
    pub config: String,
    /// Runs the campaign made of the point: 1, except in journals written
    /// when campaigns still retried failed points.
    pub attempts: u32,
    /// The (unescaped, possibly multi-line) error diagnostic.
    pub error: String,
}

/// A parsed campaign journal.
#[derive(Debug, Clone, Default)]
pub struct CampaignJournal {
    /// Completed points, in journal (commit) order.
    pub points: Vec<JournalPoint>,
    /// Failed points, in journal order.
    pub failures: Vec<JournalFailure>,
    /// Whether the `#carve-journal` header carried `quick=true`.
    pub quick: bool,
    /// Lines that were neither header, `ok`, nor `fail` records.
    pub skipped_lines: usize,
}

impl CampaignJournal {
    /// Parses journal text. Unrecognized or truncated lines are counted
    /// in [`CampaignJournal::skipped_lines`] rather than failing the
    /// whole render: a journal's tail may be a torn write from a killed
    /// campaign, and the dashboard should still show everything before
    /// it.
    pub fn parse(text: &str) -> CampaignJournal {
        let mut j = CampaignJournal::default();
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            if line.starts_with("#carve-journal") {
                j.quick = line.contains("quick=true");
                continue;
            }
            if let Some(rest) = line.strip_prefix("ok\t") {
                if let Some((config, payload)) = rest.split_once('\t') {
                    if let Some(result) = SimResult::decode_journal_line(payload) {
                        j.points.push(JournalPoint {
                            config: config.to_string(),
                            result,
                        });
                        continue;
                    }
                }
            } else if let Some(rest) = line.strip_prefix("fail\t") {
                let mut f = rest.splitn(4, '\t');
                if let (Some(workload), Some(config), Some(attempts), Some(error)) =
                    (f.next(), f.next(), f.next(), f.next())
                {
                    if let Ok(attempts) = attempts.parse() {
                        j.failures.push(JournalFailure {
                            workload: workload.to_string(),
                            config: config.to_string(),
                            attempts,
                            error: unescape_field(error),
                        });
                        continue;
                    }
                }
            }
            j.skipped_lines += 1;
        }
        j
    }
}

/// Inverse of the campaign journal's error-field escaping (`\t`, `\n`,
/// `\r`, `\\`).
fn unescape_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// One (point × interval × GPU) row of a campaign timeline CSV. Only
/// the columns the dashboard plots are kept.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineRow {
    /// Workload name (first CSV column).
    pub workload: String,
    /// Campaign config key (second CSV column).
    pub config: String,
    /// First cycle of the interval (inclusive).
    pub start: u64,
    /// Last cycle of the interval (exclusive).
    pub end: u64,
    /// GPU index.
    pub gpu: usize,
    /// Warp instructions retired by this GPU inside the interval.
    pub instructions: u64,
}

/// Parses a campaign timeline CSV (`workload,config,<Timeline columns>`).
/// The header row and malformed rows are skipped.
pub fn parse_timeline_csv(text: &str) -> Vec<TimelineRow> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let cols: Vec<&str> = line.split(',').collect();
        if cols.len() < 6 || cols[0] == "workload" {
            continue;
        }
        let (Ok(start), Ok(end), Ok(gpu), Ok(instructions)) = (
            cols[2].parse(),
            cols[3].parse(),
            cols[4].parse(),
            cols[5].parse(),
        ) else {
            continue;
        };
        rows.push(TimelineRow {
            workload: cols[0].to_string(),
            config: cols[1].to_string(),
            start,
            end,
            gpu,
            instructions,
        });
    }
    rows
}

/// One line of a campaign profile sidecar: a point key plus its compact
/// stall breakdown.
#[derive(Debug, Clone)]
pub struct ProfileRow {
    /// Workload name.
    pub workload: String,
    /// Campaign config key.
    pub config: String,
    /// The decoded breakdown (per-GPU stall totals exact; DRAM/link
    /// occupancy as machine-wide aggregates).
    pub report: ProfileReport,
}

/// Parses a campaign profile sidecar (`workload\tconfig\t<compact>` per
/// line). Malformed lines are skipped.
pub fn parse_profile_tsv(text: &str) -> Vec<ProfileRow> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let mut f = line.splitn(3, '\t');
        let (Some(workload), Some(config), Some(compact)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        let Some(report) = ProfileReport::decode_compact(compact) else {
            continue;
        };
        rows.push(ProfileRow {
            workload: workload.to_string(),
            config: config.to_string(),
            report,
        });
    }
    rows
}

/// Escapes text for HTML body and attribute positions.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            c => out.push(c),
        }
    }
    out
}

/// The design label of a config key (everything before the first `|`).
fn design_of(config: &str) -> &str {
    config.split('|').next().unwrap_or(config)
}

/// Looks up one `|key=value` field of a config key.
fn cfg_field<'a>(config: &'a str, key: &str) -> Option<&'a str> {
    config
        .split('|')
        .skip(1)
        .find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
}

/// Fixed fill color per design label; unknown labels hash onto the
/// fallback palette so new designs still get stable, distinct bars.
fn design_color(label: &str) -> &'static str {
    match label {
        "1-GPU" => "#9e9e9e",
        "NUMA-GPU" => "#c62828",
        "NUMA-GPU+Migrate" => "#ef6c00",
        "NUMA-GPU+RO-Repl" => "#f9a825",
        "CARVE-NC" => "#9575cd",
        "CARVE-SWC" => "#42a5f5",
        "CARVE-HWC" => "#1565c0",
        "Ideal" => "#2e7d32",
        _ => {
            const FALLBACK: [&str; 4] = ["#00897b", "#6d4c41", "#d81b60", "#5e35b1"];
            let h: usize = label.bytes().map(usize::from).sum();
            FALLBACK[h % FALLBACK.len()]
        }
    }
}

/// Fill colors for the eleven stall categories, indexed by
/// [`StallCat::index`]. Issuing is green, idle gray, memory-hierarchy
/// stalls cool colors, NUMA/coherence stalls warm colors, structural
/// stalls purple — so the paper's story (remote and coherence stalls
/// shrink under CARVE) is visible at a glance.
const STALL_COLORS: [&str; NUM_STALL_CATS] = [
    "#66bb6a", // issuing
    "#e0e0e0", // idle
    "#b3e5fc", // l1-miss
    "#4fc3f7", // l2-miss
    "#0288d1", // local-dram
    "#e53935", // remote-link
    "#ff7043", // coherence-invalidate
    "#ffb300", // epoch-flush
    "#f06292", // rdc-miss
    "#8e24aa", // mshr-full
    "#5e35b1", // link-queue
];

/// A speedup bar group: one workload at one machine point, bars ordered
/// as journaled.
struct SpeedupGroup {
    title: String,
    bars: Vec<(String, f64)>, // (design label, speedup)
}

/// Groups journal points into speedup bar groups. Fault-injected points
/// are excluded (they live in `#chaos`); each group is normalized to its
/// NUMA-GPU point, else its 1-GPU point, else its first point.
fn speedup_groups(journal: &CampaignJournal) -> Vec<SpeedupGroup> {
    // Key: workload + every non-design knob that splits a figure into
    // separate x positions (machine size, fabric, link bandwidth).
    let mut groups: BTreeMap<(String, String), Vec<&JournalPoint>> = BTreeMap::new();
    for p in &journal.points {
        if cfg_field(&p.config, "faults").is_some() {
            continue;
        }
        let qualifier = ["gpus", "topo", "bw"]
            .iter()
            .filter_map(|k| Some(format!("{k}={}", cfg_field(&p.config, k)?)))
            .collect::<Vec<_>>()
            .join(" ");
        groups
            .entry((p.result.workload.clone(), qualifier))
            .or_default()
            .push(p);
    }
    let mut out = Vec::new();
    for ((workload, qualifier), points) in groups {
        let baseline = points
            .iter()
            .find(|p| design_of(&p.config) == "NUMA-GPU")
            .or_else(|| points.iter().find(|p| design_of(&p.config) == "1-GPU"))
            .unwrap_or(&points[0]);
        let base_cycles = baseline.result.cycles;
        let mut bars = Vec::new();
        for p in &points {
            let speedup = if p.result.cycles == 0 {
                0.0
            } else {
                base_cycles as f64 / p.result.cycles as f64
            };
            bars.push((design_of(&p.config).to_string(), speedup));
        }
        out.push(SpeedupGroup {
            title: format!("{workload} ({qualifier})"),
            bars,
        });
    }
    out
}

/// Renders the `#speedup` section: grouped vertical bars.
fn render_speedup(journal: &CampaignJournal, html: &mut String) {
    html.push_str("<section id=\"speedup\"><h2>Speedup</h2>\n");
    let groups = speedup_groups(journal);
    if groups.is_empty() {
        html.push_str("<p class=\"empty\">No completed points in this journal.</p>\n");
        html.push_str("</section>\n");
        return;
    }
    const MAX_GROUPS: usize = 40;
    let shown = &groups[..groups.len().min(MAX_GROUPS)];
    html.push_str(
        "<p>Bars are speedup over the group's NUMA-GPU point (else its \
         1-GPU point); taller is better. Hover a bar for the exact value.</p>\n",
    );
    // Legend over every design label that appears.
    let mut labels: Vec<&str> = Vec::new();
    for g in shown {
        for (label, _) in &g.bars {
            if !labels.contains(&label.as_str()) {
                labels.push(label);
            }
        }
    }
    html.push_str("<p class=\"legend\">");
    for label in &labels {
        let _ = write!(
            html,
            "<span class=\"chip\" style=\"background:{}\"></span>{} ",
            design_color(label),
            esc(label)
        );
    }
    html.push_str("</p>\n");
    let max_speedup = shown
        .iter()
        .flat_map(|g| g.bars.iter().map(|(_, s)| *s))
        .fold(1.0f64, f64::max);
    const BAR_W: f64 = 14.0;
    const GAP: f64 = 24.0;
    const PLOT_H: f64 = 180.0;
    const LABEL_H: f64 = 120.0;
    let mut x = GAP;
    let mut bars_svg = String::new();
    for g in shown {
        let x0 = x;
        for (label, speedup) in &g.bars {
            let h = (speedup / max_speedup) * PLOT_H;
            let _ = write!(
                bars_svg,
                "<rect x=\"{x:.1}\" y=\"{:.1}\" width=\"{BAR_W}\" height=\"{h:.1}\" \
                 fill=\"{}\"><title>{}: {speedup:.3}×</title></rect>",
                PLOT_H - h,
                design_color(label),
                esc(&format!("{} {label}", g.title)),
            );
            x += BAR_W + 2.0;
        }
        let cx = (x0 + x - 2.0) / 2.0;
        let _ = write!(
            bars_svg,
            "<text x=\"{cx:.1}\" y=\"{:.1}\" class=\"xlabel\" \
             transform=\"rotate(45 {cx:.1} {:.1})\">{}</text>",
            PLOT_H + 14.0,
            PLOT_H + 14.0,
            esc(&g.title),
        );
        x += GAP;
    }
    // 1.0× reference line.
    let ref_y = PLOT_H - (1.0 / max_speedup) * PLOT_H;
    let _ = writeln!(
        html,
        "<svg viewBox=\"0 0 {:.0} {:.0}\" width=\"{:.0}\" height=\"{:.0}\" \
         role=\"img\" aria-label=\"speedup bars\">\
         <line x1=\"0\" y1=\"{ref_y:.1}\" x2=\"{x:.1}\" y2=\"{ref_y:.1}\" class=\"refline\"/>\
         {bars_svg}</svg>",
        x,
        PLOT_H + LABEL_H,
        x,
        PLOT_H + LABEL_H,
    );
    if groups.len() > MAX_GROUPS {
        let _ = writeln!(
            html,
            "<p class=\"empty\">…and {} more groups not shown.</p>",
            groups.len() - MAX_GROUPS
        );
    }
    html.push_str("</section>\n");
}

/// Renders the `#stalls` section: one horizontal 100%-stacked bar per
/// design, aggregated across every profiled point of that design.
fn render_stalls(profiles: &[ProfileRow], html: &mut String) {
    html.push_str("<section id=\"stalls\"><h2>Stall breakdown</h2>\n");
    if profiles.is_empty() {
        html.push_str(
            "<p class=\"empty\">No profile sidecar: rerun the campaign with \
             <code>--profile</code> to collect per-point stall breakdowns.</p>\n</section>\n",
        );
        return;
    }
    let mut by_design: BTreeMap<&str, [u64; NUM_STALL_CATS]> = BTreeMap::new();
    for row in profiles {
        let acc = by_design
            .entry(design_of(&row.config))
            .or_insert([0; NUM_STALL_CATS]);
        for (a, v) in acc.iter_mut().zip(row.report.totals()) {
            *a += v;
        }
    }
    html.push_str(
        "<p>Where every SM-cycle went, per design, aggregated over all \
         profiled points. Categories are exclusive and sum to 100%.</p>\n<p class=\"legend\">",
    );
    for cat in StallCat::ALL {
        let _ = write!(
            html,
            "<span class=\"chip\" style=\"background:{}\"></span>{} ",
            STALL_COLORS[cat.index()],
            cat.label()
        );
    }
    html.push_str("</p>\n");
    const ROW_H: f64 = 26.0;
    const BAR_X: f64 = 170.0;
    const BAR_W: f64 = 640.0;
    let height = by_design.len() as f64 * ROW_H;
    let _ = write!(
        html,
        "<svg viewBox=\"0 0 {:.0} {height:.0}\" width=\"{:.0}\" height=\"{height:.0}\" \
         role=\"img\" aria-label=\"stall breakdown\">",
        BAR_X + BAR_W + 10.0,
        BAR_X + BAR_W + 10.0,
    );
    for (i, (design, totals)) in by_design.iter().enumerate() {
        let y = i as f64 * ROW_H;
        let sum: u64 = totals.iter().sum();
        let _ = write!(
            html,
            "<text x=\"{:.1}\" y=\"{:.1}\" class=\"ylabel\">{}</text>",
            BAR_X - 8.0,
            y + ROW_H * 0.65,
            esc(design)
        );
        if sum == 0 {
            continue;
        }
        let mut x = BAR_X;
        for cat in StallCat::ALL {
            let frac = totals[cat.index()] as f64 / sum as f64;
            let w = frac * BAR_W;
            if w < 0.05 {
                continue;
            }
            let _ = write!(
                html,
                "<rect x=\"{x:.1}\" y=\"{:.1}\" width=\"{w:.1}\" height=\"{:.1}\" \
                 fill=\"{}\"><title>{} {}: {:.1}%</title></rect>",
                y + 3.0,
                ROW_H - 6.0,
                STALL_COLORS[cat.index()],
                esc(design),
                cat.label(),
                frac * 100.0,
            );
            x += w;
        }
    }
    html.push_str("</svg>\n</section>\n");
}

/// Renders the `#heatmap` section: per-GPU × interval IPC heatmaps for
/// the first few timeline points.
fn render_heatmap(timelines: &[TimelineRow], html: &mut String) {
    html.push_str("<section id=\"heatmap\"><h2>Per-GPU activity heatmap</h2>\n");
    if timelines.is_empty() {
        html.push_str(
            "<p class=\"empty\">No timeline sidecar: rerun the campaign with \
             <code>--timeline</code> to collect interval telemetry.</p>\n</section>\n",
        );
        return;
    }
    // Group rows by point, preserving journal order.
    let mut order: Vec<(String, String)> = Vec::new();
    let mut grouped: BTreeMap<(String, String), Vec<&TimelineRow>> = BTreeMap::new();
    for row in timelines {
        let key = (row.workload.clone(), row.config.clone());
        if !grouped.contains_key(&key) {
            order.push(key.clone());
        }
        grouped.entry(key).or_default().push(row);
    }
    const MAX_POINTS: usize = 4;
    const MAX_COLS: usize = 240;
    html.push_str(
        "<p>Each cell is one GPU over one telemetry interval; darker is \
         higher IPC. Launch gaps and load imbalance show up as light bands.</p>\n",
    );
    for key in order.iter().take(MAX_POINTS) {
        let rows = &grouped[key];
        let gpus = rows.iter().map(|r| r.gpu).max().unwrap_or(0) + 1;
        // Column index by interval start, in first-seen order (rows for
        // all GPUs of one interval are adjacent in the CSV).
        let mut starts: Vec<u64> = rows.iter().map(|r| r.start).collect();
        starts.sort_unstable();
        starts.dedup();
        let truncated = starts.len() > MAX_COLS;
        starts.truncate(MAX_COLS);
        let max_ipc = rows
            .iter()
            .map(|r| r.instructions as f64 / (r.end - r.start).max(1) as f64)
            .fold(0.0f64, f64::max)
            .max(1e-9);
        const CELL_W: f64 = 5.0;
        const CELL_H: f64 = 13.0;
        let _ = write!(
            html,
            "<h3>{} — {}</h3>\n<svg viewBox=\"0 0 {:.0} {:.0}\" width=\"{:.0}\" \
             height=\"{:.0}\" role=\"img\" aria-label=\"gpu interval heatmap\">",
            esc(&key.0),
            esc(&key.1),
            starts.len() as f64 * CELL_W + 40.0,
            gpus as f64 * CELL_H,
            starts.len() as f64 * CELL_W + 40.0,
            gpus as f64 * CELL_H,
        );
        for g in 0..gpus {
            let _ = write!(
                html,
                "<text x=\"0\" y=\"{:.1}\" class=\"cell-label\">g{g}</text>",
                g as f64 * CELL_H + CELL_H * 0.75
            );
        }
        for row in rows {
            let Ok(col) = starts.binary_search(&row.start) else {
                continue; // beyond the displayed window
            };
            let ipc = row.instructions as f64 / (row.end - row.start).max(1) as f64;
            let shade = ipc / max_ipc;
            // White → deep blue ramp.
            let r = (247.0 - shade * 239.0) as u32;
            let gch = (251.0 - shade * 170.0) as u32;
            let b = 255.0 as u32;
            let _ = write!(
                html,
                "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{CELL_W}\" height=\"{CELL_H}\" \
                 fill=\"rgb({r},{gch},{b})\"><title>gpu{} [{}, {}): ipc {ipc:.2}</title></rect>",
                30.0 + col as f64 * CELL_W,
                row.gpu as f64 * CELL_H,
                row.gpu,
                row.start,
                row.end,
            );
        }
        html.push_str("</svg>\n");
        if truncated {
            let _ = writeln!(
                html,
                "<p class=\"empty\">First {MAX_COLS} intervals shown.</p>"
            );
        }
    }
    if order.len() > MAX_POINTS {
        let _ = writeln!(
            html,
            "<p class=\"empty\">…and {} more timeline points not shown.</p>",
            order.len() - MAX_POINTS
        );
    }
    html.push_str("</section>\n");
}

/// Renders the `#links` section: per-point link-occupancy stacks from
/// the profile sidecar, plus journal-derived fabric traffic per machine
/// point (the scaling campaign's topology view).
fn render_links(journal: &CampaignJournal, profiles: &[ProfileRow], html: &mut String) {
    html.push_str("<section id=\"links\"><h2>Link utilization</h2>\n");
    const ROW_H: f64 = 22.0;
    const BAR_X: f64 = 330.0;
    const BAR_W: f64 = 480.0;
    if !profiles.is_empty() {
        const MAX_ROWS: usize = 24;
        html.push_str(
            "<p>Fabric-cycle occupancy per profiled point: serialization \
             (payload on the wire), queueing (waiting for the wire), and \
             fault-degraded transfer.</p>\n<p class=\"legend\">\
             <span class=\"chip\" style=\"background:#1565c0\"></span>serialization \
             <span class=\"chip\" style=\"background:#ffb300\"></span>queueing \
             <span class=\"chip\" style=\"background:#e53935\"></span>fault-degraded</p>\n",
        );
        let shown = &profiles[..profiles.len().min(MAX_ROWS)];
        let height = shown.len() as f64 * ROW_H;
        let max_cycles = shown
            .iter()
            .flat_map(|p| &p.report.links)
            .map(|l| l.ser_cycles + l.queue_cycles + l.degraded_cycles)
            .fold(0.0f64, f64::max)
            .max(1e-9);
        let _ = write!(
            html,
            "<svg viewBox=\"0 0 {:.0} {height:.0}\" width=\"{:.0}\" height=\"{height:.0}\" \
             role=\"img\" aria-label=\"link occupancy\">",
            BAR_X + BAR_W + 10.0,
            BAR_X + BAR_W + 10.0,
        );
        for (i, row) in shown.iter().enumerate() {
            let y = i as f64 * ROW_H;
            let _ = write!(
                html,
                "<text x=\"{:.1}\" y=\"{:.1}\" class=\"ylabel\">{}</text>",
                BAR_X - 8.0,
                y + ROW_H * 0.65,
                esc(&format!("{} {}", row.workload, design_of(&row.config))),
            );
            let mut x = BAR_X;
            for l in &row.report.links {
                for (v, color, leaf) in [
                    (l.ser_cycles, "#1565c0", "serialization"),
                    (l.queue_cycles, "#ffb300", "queueing"),
                    (l.degraded_cycles, "#e53935", "fault-degraded"),
                ] {
                    let w = v / max_cycles * BAR_W;
                    if w < 0.05 {
                        continue;
                    }
                    let _ = write!(
                        html,
                        "<rect x=\"{x:.1}\" y=\"{:.1}\" width=\"{w:.1}\" height=\"{:.1}\" \
                         fill=\"{color}\"><title>{} {leaf}: {v:.0} cycles</title></rect>",
                        y + 3.0,
                        ROW_H - 6.0,
                        esc(&l.label),
                    );
                    x += w;
                }
            }
        }
        html.push_str("</svg>\n");
        if profiles.len() > MAX_ROWS {
            let _ = writeln!(
                html,
                "<p class=\"empty\">…and {} more profiled points not shown.</p>",
                profiles.len() - MAX_ROWS
            );
        }
    } else {
        html.push_str(
            "<p class=\"empty\">No profile sidecar: rerun the campaign with \
             <code>--profile</code> for cycle-level link occupancy.</p>\n",
        );
    }
    // Journal-derived traffic: bytes per cycle over the fabric, per
    // machine point — meaningful even without sidecars.
    let mut traffic: Vec<(String, f64)> = journal
        .points
        .iter()
        .filter(|p| p.result.cycles > 0 && p.result.link_bytes > 0)
        .map(|p| {
            let mut label = format!("{} {}", p.result.workload, design_of(&p.config));
            for k in ["gpus", "topo"] {
                if let Some(v) = cfg_field(&p.config, k) {
                    let _ = write!(label, " {k}={v}");
                }
            }
            (label, p.result.link_bytes as f64 / p.result.cycles as f64)
        })
        .collect();
    traffic.sort_by(|a, b| b.1.total_cmp(&a.1));
    if !traffic.is_empty() {
        const MAX_ROWS: usize = 24;
        traffic.truncate(MAX_ROWS);
        let max_bpc = traffic.first().map(|t| t.1).unwrap_or(1.0).max(1e-9);
        html.push_str("<p>Inter-GPU traffic from the journal (bytes/cycle, busiest first).</p>\n");
        let height = traffic.len() as f64 * ROW_H;
        let _ = write!(
            html,
            "<svg viewBox=\"0 0 {:.0} {height:.0}\" width=\"{:.0}\" height=\"{height:.0}\" \
             role=\"img\" aria-label=\"fabric traffic\">",
            BAR_X + BAR_W + 10.0,
            BAR_X + BAR_W + 10.0,
        );
        for (i, (label, bpc)) in traffic.iter().enumerate() {
            let y = i as f64 * ROW_H;
            let w = bpc / max_bpc * BAR_W;
            let _ = write!(
                html,
                "<text x=\"{:.1}\" y=\"{:.1}\" class=\"ylabel\">{}</text>\
                 <rect x=\"{BAR_X}\" y=\"{:.1}\" width=\"{w:.1}\" height=\"{:.1}\" \
                 fill=\"#1565c0\"><title>{}: {bpc:.2} B/cycle</title></rect>",
                BAR_X - 8.0,
                y + ROW_H * 0.65,
                esc(label),
                y + 3.0,
                ROW_H - 6.0,
                esc(label),
            );
        }
        html.push_str("</svg>\n");
    }
    html.push_str("</section>\n");
}

/// Renders the `#chaos` section: fault-injected points and journaled
/// failures.
fn render_chaos(journal: &CampaignJournal, html: &mut String) {
    html.push_str("<section id=\"chaos\"><h2>Faults &amp; failures</h2>\n");
    let faulted: Vec<&JournalPoint> = journal
        .points
        .iter()
        .filter(|p| cfg_field(&p.config, "faults").is_some())
        .collect();
    if faulted.is_empty() && journal.failures.is_empty() {
        html.push_str(
            "<p class=\"empty\">No fault-injected points and no failures \
             in this journal.</p>\n</section>\n",
        );
        return;
    }
    html.push_str(
        "<table><tr><th>status</th><th>workload</th><th>config</th>\
         <th>outcome</th></tr>\n",
    );
    for p in &faulted {
        let _ = writeln!(
            html,
            "<tr><td class=\"ok\">survived</td><td>{}</td><td><code>{}</code></td>\
             <td>{} cycles{}</td></tr>",
            esc(&p.result.workload),
            esc(&p.config),
            p.result.cycles,
            if p.result.completed {
                ""
            } else {
                " (cycle-capped)"
            },
        );
    }
    for f in &journal.failures {
        let first_line = f.error.lines().next().unwrap_or("");
        let _ = writeln!(
            html,
            "<tr><td class=\"fail\">failed ×{}</td><td>{}</td><td><code>{}</code></td>\
             <td><code title=\"{}\">{}</code></td></tr>",
            f.attempts,
            esc(&f.workload),
            esc(&f.config),
            esc(&f.error),
            esc(first_line),
        );
    }
    html.push_str("</table>\n</section>\n");
}

/// Renders the complete dashboard: one self-contained HTML document with
/// the five fixed sections (`#speedup`, `#stalls`, `#heatmap`, `#links`,
/// `#chaos`). `title` names the campaign in the header.
pub fn render(
    title: &str,
    journal: &CampaignJournal,
    timelines: &[TimelineRow],
    profiles: &[ProfileRow],
) -> String {
    let mut html = String::with_capacity(64 * 1024);
    html.push_str("<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n");
    let _ = writeln!(html, "<title>{} — carve-report</title>", esc(title));
    html.push_str(
        "<style>\n\
         body{font-family:system-ui,sans-serif;margin:2rem auto;max-width:70rem;\
         padding:0 1rem;color:#212121}\n\
         h1{border-bottom:2px solid #1565c0;padding-bottom:.3rem}\n\
         section{margin-bottom:2.5rem}\n\
         svg{display:block;max-width:100%;height:auto}\n\
         .xlabel{font-size:9px;text-anchor:start}\n\
         .ylabel{font-size:10px;text-anchor:end}\n\
         .cell-label{font-size:9px}\n\
         .refline{stroke:#9e9e9e;stroke-dasharray:3 3}\n\
         .chip{display:inline-block;width:.8em;height:.8em;margin:0 .25em 0 .8em;\
         border:1px solid #757575}\n\
         .legend{font-size:.85rem}\n\
         .empty{color:#757575;font-style:italic}\n\
         table{border-collapse:collapse;font-size:.85rem}\n\
         td,th{border:1px solid #bdbdbd;padding:.25rem .5rem;text-align:left}\n\
         td.ok{color:#2e7d32}td.fail{color:#c62828}\n\
         code{font-size:.8rem;word-break:break-all}\n\
         </style></head><body>\n",
    );
    let _ = writeln!(html, "<h1>{}</h1>", esc(title));
    let workloads: std::collections::BTreeSet<&str> = journal
        .points
        .iter()
        .map(|p| p.result.workload.as_str())
        .collect();
    let designs: std::collections::BTreeSet<&str> = journal
        .points
        .iter()
        .map(|p| design_of(&p.config))
        .collect();
    let _ = writeln!(
        html,
        "<p>{} completed points · {} workloads · {} designs · {} failures\
         {}{}</p>",
        journal.points.len(),
        workloads.len(),
        designs.len(),
        journal.failures.len(),
        if journal.quick {
            " · <strong>quick-mode journal</strong> (shrunken workloads)"
        } else {
            ""
        },
        if journal.skipped_lines > 0 {
            " · some journal lines were unparsable and skipped"
        } else {
            ""
        },
    );
    render_speedup(journal, &mut html);
    render_stalls(profiles, &mut html);
    render_heatmap(timelines, &mut html);
    render_links(journal, profiles, &mut html);
    render_chaos(journal, &mut html);
    html.push_str("</body></html>\n");
    html
}

#[cfg(test)]
mod tests {
    use super::*;
    use carve_system::{Design, SimConfig};

    /// A real (tiny) simulation result, so journal round-trips exercise
    /// the production encoder.
    fn tiny_result(design: Design) -> SimResult {
        let mut spec = carve_system::workloads::by_name("stream-triad").expect("workload");
        spec.shape.kernels = 1;
        spec.shape.ctas = 8;
        spec.shape.instrs_per_warp = 20;
        let mut sim = SimConfig::new(design);
        sim.cfg.num_gpus = 2;
        sim.cfg.sms_per_gpu = 2;
        sim.cfg.warps_per_sm = 8;
        carve_system::run(&spec, &sim)
    }

    fn sample_journal() -> CampaignJournal {
        let base = tiny_result(Design::NumaGpu);
        let carve = tiny_result(Design::CarveHwc);
        let text = format!(
            "#carve-journal v1 quick=true\n\
             ok\tNUMA-GPU|rdc=0|gpus=2\t{}\n\
             ok\tCARVE-HWC|rdc=128|gpus=2\t{}\n\
             ok\tNUMA-GPU|rdc=0|gpus=2|faults=degrade@300:e0*25\t{}\n\
             fail\tLulesh\tNUMA-GPU|rdc=0|gpus=2|faults=outage@600:e0\t2\t\
             fabric partitioned: gpu0 <-> gpu1\\nsecond <line>\n\
             torn trailing line without a record tag",
            base.encode_journal_line(),
            carve.encode_journal_line(),
            base.encode_journal_line(),
        );
        CampaignJournal::parse(&text)
    }

    #[test]
    fn journal_parses_ok_fail_and_skips_torn_lines() {
        let j = sample_journal();
        assert!(j.quick);
        assert_eq!(j.points.len(), 3);
        assert_eq!(j.failures.len(), 1);
        assert_eq!(j.skipped_lines, 1);
        assert_eq!(j.points[0].result.workload, "stream-triad");
        assert_eq!(design_of(&j.points[1].config), "CARVE-HWC");
        // The escaped multi-line error round-trips.
        assert_eq!(
            j.failures[0].error,
            "fabric partitioned: gpu0 <-> gpu1\nsecond <line>"
        );
        assert_eq!(j.failures[0].attempts, 2);
    }

    #[test]
    fn sidecar_parsers_skip_headers_and_malformed_rows() {
        let csv = "workload,config,start,end,gpu,instructions,rest\n\
                   stream-triad,NUMA-GPU|gpus=2,0,500,0,1234,x\n\
                   stream-triad,NUMA-GPU|gpus=2,0,500,1,999,x\n\
                   bad,row,not,numeric,at,all,x\n";
        let rows = parse_timeline_csv(csv);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].gpu, 1);
        assert_eq!(rows[1].instructions, 999);

        let report = ProfileReport {
            cycles: 100,
            sms_per_gpu: 2,
            gpus: vec![[10u64; NUM_STALL_CATS], [10u64; NUM_STALL_CATS]],
            ..ProfileReport::default()
        };
        let tsv = format!(
            "stream-triad\tCARVE-HWC|gpus=2\t{}\nnot a profile line\n",
            report.encode_compact()
        );
        let rows = parse_profile_tsv(&tsv);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].report.gpus.len(), 2);
        assert_eq!(rows[0].report.totals(), report.totals());
    }

    #[test]
    fn dashboard_is_self_contained_with_every_section_anchor() {
        let j = sample_journal();
        let timelines = parse_timeline_csv(
            "workload,config,start,end,gpu,instructions\n\
             stream-triad,NUMA-GPU|rdc=0|gpus=2,0,500,0,800\n\
             stream-triad,NUMA-GPU|rdc=0|gpus=2,0,500,1,400\n\
             stream-triad,NUMA-GPU|rdc=0|gpus=2,500,1000,0,900\n\
             stream-triad,NUMA-GPU|rdc=0|gpus=2,500,1000,1,100\n",
        );
        let report = ProfileReport {
            cycles: 1000,
            sms_per_gpu: 2,
            gpus: vec![[100u64; NUM_STALL_CATS], [100u64; NUM_STALL_CATS]],
            links: vec![carve_system::LinkOccupancy {
                label: "e0 g0->g1".into(),
                ser_cycles: 300.0,
                queue_cycles: 120.0,
                degraded_cycles: 5.0,
            }],
            ..ProfileReport::default()
        };
        let profiles = vec![ProfileRow {
            workload: "stream-triad".into(),
            config: "CARVE-HWC|rdc=128|gpus=2".into(),
            report,
        }];
        let html = render("fig02", &j, &timelines, &profiles);
        for anchor in [
            "id=\"speedup\"",
            "id=\"stalls\"",
            "id=\"heatmap\"",
            "id=\"links\"",
            "id=\"chaos\"",
        ] {
            assert!(html.contains(anchor), "missing {anchor}");
        }
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<svg"));
        // Self-contained: no external fetches of any kind.
        for forbidden in ["http://", "https://", "<script", "<link", "@import", "url("] {
            assert!(!html.contains(forbidden), "external reference: {forbidden}");
        }
        // Fault-injected point and failure both land in #chaos.
        assert!(html.contains("survived"));
        assert!(html.contains("failed ×2"));
        // The multi-line failure diagnostic is escaped, not interpreted.
        assert!(html.contains("&lt;line&gt;"));
    }

    #[test]
    fn sections_degrade_gracefully_without_sidecars() {
        let j = sample_journal();
        let html = render("fig02", &j, &[], &[]);
        for anchor in [
            "id=\"speedup\"",
            "id=\"stalls\"",
            "id=\"heatmap\"",
            "id=\"links\"",
            "id=\"chaos\"",
        ] {
            assert!(html.contains(anchor), "missing {anchor}");
        }
        assert!(html.contains("--profile"));
        assert!(html.contains("--timeline"));
    }

    #[test]
    fn speedup_groups_normalize_to_numa_gpu_and_exclude_faulted_points() {
        let j = sample_journal();
        let groups = speedup_groups(&j);
        // One workload at one machine point; the faulted NUMA-GPU run is
        // excluded, leaving the two clean points in one group.
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].bars.len(), 2);
        let numa = groups[0].bars.iter().find(|b| b.0 == "NUMA-GPU").unwrap();
        assert!((numa.1 - 1.0).abs() < 1e-12, "baseline must be 1.0×");
        let carve = groups[0].bars.iter().find(|b| b.0 == "CARVE-HWC").unwrap();
        assert!(carve.1 > 0.0);
    }
}
