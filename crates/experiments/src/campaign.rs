//! Shared simulation cache for the experiment campaign, with an on-disk
//! checkpoint journal so a killed campaign resumes where it stopped.
//!
//! # Journal format
//!
//! One TSV file per campaign (`results/<name>.journal` via
//! [`Campaign::set_journal`]). The first line is a fingerprint header
//! (`#carve-journal v1 quick=<bool>`); every later line is a record:
//!
//! * `ok\t<config-key>\t<SimResult journal line>` — a completed point
//!   ([`SimResult::encode_journal_line`] round-trips byte-exactly, so
//!   tables rebuilt from a journal are identical to tables from live
//!   runs).
//! * `fail\t<workload>\t<config-key>\t<attempts>\t<escaped error>` — a
//!   point that panicked or returned a `SimError`.
//!
//! Records stream to the file as each point completes (workers append
//! under a mutex and flush), so killing the process mid-grid loses at
//! most in-flight points. On [`Campaign::set_journal`] the file is
//! parsed truncation-tolerantly — a partially written trailing line is
//! dropped with a warning — and rewritten clean before appending resumes.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use carve_system::{
    profile_workload, try_run_with_profile_mode, Design, EngineMode, ProfileReport, ScaledConfig,
    SharingProfile, SimConfig, SimError, SimResult, Timeline,
};
use carve_trace::{workloads, WorkloadSpec};

use crate::par;
use crate::settings::Settings;

/// One campaign point that did not produce a result: its run either
/// panicked or returned a [`SimError`]. Failures are memoized (and
/// journaled) like results, so a resumed campaign reproduces the same
/// failed cells without re-running them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointFailure {
    /// Workload name of the failed point.
    pub workload: String,
    /// Derived configuration key of the failed point.
    pub config: String,
    /// How many runs were made: always 1 for a point failed by this
    /// process. Journals written when campaigns still retried may record
    /// more, and keep resuming.
    pub attempts: usize,
    /// The run's error: a `SimError` rendering or a panic message
    /// prefixed with `panic: `.
    pub error: String,
}

impl std::fmt::Display for PointFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} under {} failed after {} attempt(s): {}",
            self.workload, self.config, self.attempts, self.error
        )
    }
}

/// Streaming append handle to the campaign's checkpoint file.
struct Journal {
    path: PathBuf,
    file: Mutex<std::fs::File>,
}

impl Journal {
    /// Appends one record and flushes so a kill right after loses nothing.
    /// IO errors degrade to a stderr warning — checkpointing is advisory
    /// and must never take down a healthy campaign.
    fn append(&self, line: &str) {
        let mut f = self.file.lock().unwrap_or_else(|e| e.into_inner());
        if let Err(e) = writeln!(f, "{line}").and_then(|()| f.flush()) {
            eprintln!(
                "warning: could not append to journal {}: {e}",
                self.path.display()
            );
        }
    }
}

/// A record parsed back out of a journal file (`SimResult` boxed: it
/// dwarfs the failure variant).
enum LoadedRecord {
    Done(String, Box<SimResult>),
    Failed(PointFailure),
}

fn ok_line(config: &str, r: &SimResult) -> String {
    format!("ok\t{config}\t{}", r.encode_journal_line())
}

fn record_line(config: &str, outcome: &Result<SimResult, PointFailure>) -> String {
    match outcome {
        Ok(r) => ok_line(config, r),
        Err(f) => fail_line(f),
    }
}

fn fail_line(f: &PointFailure) -> String {
    format!(
        "fail\t{}\t{}\t{}\t{}",
        f.workload,
        f.config,
        f.attempts,
        escape_field(&f.error)
    )
}

fn parse_record(line: &str) -> Option<LoadedRecord> {
    if let Some(rest) = line.strip_prefix("ok\t") {
        let (config, payload) = rest.split_once('\t')?;
        let r = SimResult::decode_journal_line(payload)?;
        Some(LoadedRecord::Done(config.to_string(), Box::new(r)))
    } else if let Some(rest) = line.strip_prefix("fail\t") {
        let mut f = rest.splitn(4, '\t');
        let workload = f.next()?.to_string();
        let config = f.next()?.to_string();
        let attempts = f.next()?.parse().ok()?;
        let error = unescape_field(f.next()?);
        Some(LoadedRecord::Failed(PointFailure {
            workload,
            config,
            attempts,
            error,
        }))
    } else {
        None
    }
}

/// Escapes an error message into a single tab-free journal field
/// (watchdog diagnostics are multi-line).
fn escape_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match it.next() {
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

/// Runs simulations on demand and memoizes them, so figures sharing the
/// same (workload × configuration) points do not re-simulate.
pub struct Campaign {
    pub(crate) specs: Vec<WorkloadSpec>,
    /// Sharing profiles, keyed by (workload, GPU count): the same
    /// workload splits differently across 4 and 64 GPUs, so a scaling
    /// sweep must not reuse the 4-GPU profile at other machine sizes.
    profiles: HashMap<(String, usize), Arc<SharingProfile>>,
    cache: HashMap<(String, String), SimResult>,
    failed: HashMap<(String, String), PointFailure>,
    base_cfg: ScaledConfig,
    /// The binary's resolved configuration. Its per-run knobs (telemetry,
    /// profiler, sanitizer, watchdog) are deliberately absent from
    /// [`key_of`]: they are read-only or only decide whether a run
    /// fails, so they must not split the cache or the journal.
    settings: Settings,
    journal: Option<Journal>,
    /// One entry per point this process simulated to a result, in
    /// point-commit order (which is the deduplicated input order of the
    /// grids — deterministic across `CARVE_THREADS`), with whatever
    /// timeline and stall breakdown it produced. Journal-resumed and
    /// cache-hit points contribute nothing here.
    observations: Vec<Observation>,
}

/// What one freshly simulated point observed, keyed like the journal.
#[derive(Debug, Clone, PartialEq)]
struct Observation {
    workload: String,
    config: String,
    timeline: Option<Timeline>,
    profile: Option<ProfileReport>,
}

/// The memoization key of a campaign point: every knob that changes the
/// simulated machine must appear here, or distinct configurations would
/// alias in the cache (and in the journal, which uses the same key).
/// The topology component is appended only for non-default fabrics so
/// journals written before the routed interconnect landed keep resuming.
fn key_of(spec: &WorkloadSpec, sim: &SimConfig) -> (String, String) {
    let mut config = format!(
        "{}|rdc={}|spill={:.4}|bw={:.3}|pred={}|wp={:?}|bcast={}|dir={}|sysrdc={}|gpus={}",
        sim.design.label(),
        sim.rdc_capacity(),
        sim.spill_fraction,
        sim.cfg.link_bytes_per_cycle,
        sim.hit_predictor,
        sim.rdc_write_policy,
        sim.gpu_vi_broadcast_always,
        sim.directory_coherence,
        sim.rdc_caches_sysmem,
        sim.cfg.num_gpus,
    );
    if sim.cfg.topology != sim_core::TopologySpec::AllToAll {
        config.push_str(&format!("|topo={}", sim.cfg.topology.label()));
    }
    // Fault plans change the simulated run, so a faulted point must not
    // alias its fault-free twin. Appended only when armed, so journals
    // written before fault injection existed keep resuming.
    if let Some(plan) = &sim.fault_plan {
        if !plan.is_empty() {
            config.push_str(&format!("|faults={}", plan.encode()));
        }
    }
    (spec.name.to_string(), config)
}

/// Runs one point: `try_run_with_profile_mode` on `engine` under
/// `catch_unwind`, so a panicking point becomes a failed cell instead of
/// aborting the grid. A failed point is not retried: the simulator is
/// deterministic and its watchdog counts simulated cycles, so a second
/// run would reproduce the same error byte for byte.
fn run_point(
    spec: &WorkloadSpec,
    sim: &SimConfig,
    profile: &SharingProfile,
    engine: EngineMode,
) -> Result<SimResult, PointFailure> {
    let error = match catch_unwind(AssertUnwindSafe(|| {
        try_run_with_profile_mode(spec, sim, Some(profile), engine)
    })) {
        Ok(Ok(r)) => return Ok(r),
        Ok(Err(e)) => e.to_string(),
        Err(payload) => format!("panic: {}", par::panic_message(payload.as_ref())),
    };
    let (workload, config) = key_of(spec, sim);
    Err(PointFailure {
        workload,
        config,
        attempts: 1,
        error,
    })
}

impl Campaign {
    /// Creates a campaign over all 20 workloads under `settings`, shrunk
    /// when `settings.quick` is set.
    pub fn new(settings: Settings) -> Campaign {
        let mut specs = workloads::all();
        if settings.quick {
            for spec in &mut specs {
                spec.shape.kernels = spec.shape.kernels.min(4);
                spec.shape.ctas = 32;
                spec.shape.instrs_per_warp = spec.shape.instrs_per_warp.min(120);
            }
        }
        Campaign {
            specs,
            profiles: HashMap::new(),
            cache: HashMap::new(),
            failed: HashMap::new(),
            base_cfg: ScaledConfig::default(),
            settings,
            journal: None,
            observations: Vec::new(),
        }
    }

    /// [`Campaign::new`] with the checkpoint journal
    /// `<results_dir>/<name>.journal` attached, resuming any points
    /// already on disk. A journal that cannot be opened degrades to an
    /// in-memory campaign with a warning — checkpointing is advisory and
    /// must never block the science.
    pub fn with_journal(name: &str, settings: Settings) -> Campaign {
        let mut c = Campaign::new(settings);
        match c.set_journal(name) {
            Ok(0) => {}
            Ok(n) => eprintln!(
                "resumed {n} campaign point(s) from {}",
                c.journal_path().expect("journal attached").display()
            ),
            Err(e) => eprintln!("warning: running without checkpoint journal: {e}"),
        }
        c
    }

    /// Where this campaign writes tables, journals and sidecars.
    pub fn results_dir(&self) -> &Path {
        &self.settings.results_dir
    }

    /// The configuration a point actually runs with: the caller's `sim`
    /// plus this campaign's per-run settings wherever the point leaves
    /// them open. Never consulted by [`key_of`].
    fn sim_for_run(&self, sim: &SimConfig) -> SimConfig {
        let mut run = sim.clone();
        self.settings.sim.apply(&mut run);
        run.telemetry_interval = run.telemetry_interval.or(self.settings.telemetry_interval);
        run.cycle_profile |= self.settings.profile;
        run
    }

    /// Memoizes the outcome of a point simulated this process and, for a
    /// result, records its observation.
    fn commit(&mut self, key: (String, String), outcome: Result<SimResult, PointFailure>) {
        match outcome {
            Ok(r) => {
                self.observations.push(Observation {
                    workload: key.0.clone(),
                    config: key.1.clone(),
                    timeline: r.timeline.clone(),
                    profile: r.profile.clone(),
                });
                self.cache.insert(key, r);
            }
            Err(f) => {
                self.failed.insert(key, f);
            }
        }
    }

    /// Writes the sidecars of the points simulated this process next to
    /// the tables, rows in point-commit order (deterministic across thread
    /// counts):
    ///
    /// * `<name>.timeline.csv` when any point sampled a timeline: one row
    ///   per (point, interval, GPU), prefixed with the workload and
    ///   config-key columns so rows from different points stay
    ///   distinguishable;
    /// * `<name>.profile.tsv` when any point was profiled: one
    ///   `workload\tconfig\t<compact profile>` line per point, keyed
    ///   exactly like the journal so `carve-report` can join the two.
    ///
    /// Returns what was written, as `("timeline" | "profile", path)`.
    pub fn write_sidecars(&self, name: &str) -> std::io::Result<Vec<(&'static str, PathBuf)>> {
        let dir = self.results_dir();
        let mut written = Vec::new();
        if self.observations.iter().any(|o| o.timeline.is_some()) {
            std::fs::create_dir_all(dir)?;
            let path = dir.join(format!("{name}.timeline.csv"));
            let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
            writeln!(out, "workload,config,{}", Timeline::CSV_HEADER)?;
            for o in &self.observations {
                for rec in o.timeline.iter().flat_map(|tl| &tl.records) {
                    writeln!(out, "{},{},{}", o.workload, o.config, rec.csv_line())?;
                }
            }
            out.flush()?;
            written.push(("timeline", path));
        }
        if self.observations.iter().any(|o| o.profile.is_some()) {
            std::fs::create_dir_all(dir)?;
            let path = dir.join(format!("{name}.profile.tsv"));
            let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
            for o in &self.observations {
                if let Some(p) = &o.profile {
                    writeln!(out, "{}\t{}\t{}", o.workload, o.config, p.encode_compact())?;
                }
            }
            out.flush()?;
            written.push(("profile", path));
        }
        Ok(written)
    }

    /// [`Campaign::write_sidecars`] for binaries: reports the paths (or
    /// the error) on stderr and never fails the campaign.
    pub fn report_sidecars(&self, name: &str) {
        match self.write_sidecars(name) {
            Ok(written) => {
                for (what, path) in &written {
                    eprintln!("{what}: {}", path.display());
                }
                let asked = self.settings.telemetry_interval.is_some() || self.settings.profile;
                if written.is_empty() && asked {
                    eprintln!(
                        "sidecars: no points simulated this run (journal-resumed \
                         points carry no timeline or breakdown)"
                    );
                }
            }
            Err(e) => eprintln!("warning: could not write sidecars: {e}"),
        }
    }

    /// The workload list in Table II order.
    pub fn specs(&self) -> Vec<WorkloadSpec> {
        self.specs.clone()
    }

    /// The base machine configuration.
    pub fn base_cfg(&self) -> ScaledConfig {
        self.base_cfg.clone()
    }

    /// Attaches the checkpoint journal `<results_dir>/<name>.journal`,
    /// resuming from any records already on disk. Returns the number of
    /// points resumed.
    pub fn set_journal(&mut self, name: &str) -> Result<usize, SimError> {
        self.set_journal_path(&self.results_dir().join(format!("{name}.journal")))
    }

    /// [`Campaign::set_journal`] with an explicit file path.
    ///
    /// Loads every well-formed record whose header fingerprint matches
    /// this campaign (a quick-mode journal must not seed a full run),
    /// drops malformed lines (crash mid-append) with a warning, then
    /// rewrites the file clean and keeps it open for streaming appends.
    pub fn set_journal_path(&mut self, path: &Path) -> Result<usize, SimError> {
        let io = |e: &std::io::Error| SimError::checkpoint(path.display().to_string(), e);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| io(&e))?;
        }
        let header = format!("#carve-journal v1 quick={}", self.settings.quick);
        let mut records: Vec<LoadedRecord> = Vec::new();
        let mut malformed = 0usize;
        // Read as bytes, not a string: a crash (or disk corruption) can
        // tear a trailing line mid-UTF-8-sequence, and a journal holding
        // hours of completed points must not be discarded because its
        // last line is garbage. Each line is validated independently;
        // corrupt ones are dropped (and re-run) like truncated ones.
        match std::fs::read(path) {
            Ok(bytes) => {
                let mut lines = bytes
                    .split(|&b| b == b'\n')
                    .map(|raw| std::str::from_utf8(raw.strip_suffix(b"\r").unwrap_or(raw)));
                match lines.next() {
                    None => {}
                    Some(Ok(h)) if h == header => {
                        for line in lines {
                            match line {
                                Ok("") => {}
                                Ok(line) => match parse_record(line) {
                                    Some(r) => records.push(r),
                                    None => malformed += 1,
                                },
                                Err(_) => malformed += 1,
                            }
                        }
                    }
                    Some(Ok(h)) => eprintln!(
                        "warning: journal {} has fingerprint {h:?} but this campaign \
                         is {header:?}; ignoring its contents",
                        path.display()
                    ),
                    Some(Err(_)) => eprintln!(
                        "warning: journal {} header is not valid UTF-8; \
                         ignoring its contents",
                        path.display()
                    ),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io(&e)),
        }
        if malformed > 0 {
            eprintln!(
                "warning: dropping {malformed} malformed or corrupt line(s) from \
                 journal {} (crash mid-append?)",
                path.display()
            );
        }
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io(&e))?;
        writeln!(file, "{header}").map_err(|e| io(&e))?;
        let mut resumed = 0usize;
        for rec in records {
            let (key, line) = match &rec {
                LoadedRecord::Done(config, r) => {
                    ((r.workload.clone(), config.clone()), ok_line(config, r))
                }
                LoadedRecord::Failed(f) => ((f.workload.clone(), f.config.clone()), fail_line(f)),
            };
            if self.cache.contains_key(&key) || self.failed.contains_key(&key) {
                continue; // duplicate record: first occurrence wins
            }
            writeln!(file, "{line}").map_err(|e| io(&e))?;
            match rec {
                LoadedRecord::Done(_, r) => {
                    self.cache.insert(key, *r);
                }
                LoadedRecord::Failed(f) => {
                    self.failed.insert(key, f);
                }
            }
            resumed += 1;
        }
        file.flush().map_err(|e| io(&e))?;
        self.journal = Some(Journal {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        });
        Ok(resumed)
    }

    /// Path of the attached journal, if any.
    pub fn journal_path(&self) -> Option<&Path> {
        self.journal.as_ref().map(|j| j.path.as_path())
    }

    /// Every failed point recorded so far, sorted by (workload, config)
    /// for deterministic reporting.
    pub fn failures(&self) -> Vec<&PointFailure> {
        let mut v: Vec<&PointFailure> = self.failed.values().collect();
        v.sort_by(|a, b| (&a.workload, &a.config).cmp(&(&b.workload, &b.config)));
        v
    }

    /// The base-machine sharing profile of a workload (memoized).
    pub fn profile(&mut self, spec: &WorkloadSpec) -> &SharingProfile {
        let num_gpus = self.base_cfg.num_gpus;
        self.profile_arc(spec, num_gpus);
        self.profiles
            .get(&(spec.name.to_string(), num_gpus))
            .expect("just inserted")
    }

    fn profile_arc(&mut self, spec: &WorkloadSpec, num_gpus: usize) -> Arc<SharingProfile> {
        let key = (spec.name.to_string(), num_gpus);
        if let Some(p) = self.profiles.get(&key) {
            return Arc::clone(p);
        }
        let p = Arc::new(profile_workload(spec, &self.base_cfg, num_gpus));
        self.profiles.insert(key, Arc::clone(&p));
        p
    }

    /// Simulates `spec` under `sim` (memoized by a derived key).
    ///
    /// # Panics
    ///
    /// Panics if the point fails (config rejected, watchdog stall, cycle
    /// cap, or worker panic). Use
    /// [`Campaign::try_result`] to keep the failure instead.
    pub fn result(&mut self, spec: &WorkloadSpec, sim: &SimConfig) -> SimResult {
        self.try_result(spec, sim).unwrap_or_else(|f| panic!("{f}"))
    }

    /// Simulates `spec` under `sim` (memoized), reporting a failed point
    /// as a [`PointFailure`] cell instead of panicking. Both outcomes are
    /// journaled, so a resumed campaign reproduces failures verbatim.
    pub fn try_result(
        &mut self,
        spec: &WorkloadSpec,
        sim: &SimConfig,
    ) -> Result<SimResult, PointFailure> {
        let key = key_of(spec, sim);
        if !self.cache.contains_key(&key) && !self.failed.contains_key(&key) {
            // Profiles are keyed to the machine size the point runs on;
            // single-GPU runs use no profile-driven policy.
            let profile = self.profile_arc(spec, sim.design.num_gpus(&sim.cfg));
            let run_sim = self.sim_for_run(sim);
            let outcome = run_point(spec, &run_sim, &profile, self.settings.sim.engine);
            if let Some(j) = &self.journal {
                j.append(&record_line(&key.1, &outcome));
            }
            self.commit(key.clone(), outcome);
        }
        match self.cache.get(&key) {
            Some(r) => Ok(r.clone()),
            None => Err(self.failed[&key].clone()),
        }
    }

    /// Simulates every (workload × configuration) point, fanning uncached
    /// points across `settings.threads` worker threads, and returns
    /// the results **in input order**. Each point is an independent
    /// `System`, so concurrency cannot change any result.
    ///
    /// # Panics
    ///
    /// If any point fails, the rest of the grid still completes (and is
    /// journaled), then this panics with a summary naming every failed
    /// cell. Use [`Campaign::try_run_parallel`] to keep failed cells.
    pub fn run_parallel(&mut self, points: &[(WorkloadSpec, SimConfig)]) -> Vec<SimResult> {
        let outcomes = self.try_run_parallel(points);
        let mut failed: Vec<&PointFailure> = Vec::new();
        for f in outcomes.iter().filter_map(|r| r.as_ref().err()) {
            if !failed.contains(&f) {
                failed.push(f);
            }
        }
        if !failed.is_empty() {
            let lines: Vec<String> = failed.iter().map(|f| format!("  {f}")).collect();
            panic!(
                "{} campaign point(s) failed:\n{}",
                failed.len(),
                lines.join("\n")
            );
        }
        outcomes
            .into_iter()
            .map(|r| r.expect("no failures recorded"))
            .collect()
    }

    /// Panic-isolated [`Campaign::run_parallel`]: one poisoned point is
    /// reported as an `Err` cell while every other point completes.
    /// Completed and failed points stream to the journal as workers
    /// finish, so a killed grid resumes with only the unfinished points
    /// re-run — producing byte-identical tables whether run straight
    /// through, killed-and-resumed, or run with a different thread count.
    pub fn try_run_parallel(
        &mut self,
        points: &[(WorkloadSpec, SimConfig)],
    ) -> Vec<Result<SimResult, PointFailure>> {
        // Sharing profiles are shared across points; memoize them up front
        // so workers only read them (through `Arc`). Specs are borrowed
        // from `points`; each config carries the campaign's per-run
        // settings.
        let mut jobs: Vec<(&WorkloadSpec, SimConfig, Arc<SharingProfile>)> = Vec::new();
        let mut claimed: HashSet<(String, String)> = HashSet::new();
        for (spec, sim) in points {
            let key = key_of(spec, sim);
            if self.cache.contains_key(&key)
                || self.failed.contains_key(&key)
                || !claimed.insert(key)
            {
                continue;
            }
            let profile = self.profile_arc(spec, sim.design.num_gpus(&sim.cfg));
            jobs.push((spec, self.sim_for_run(sim), profile));
        }
        let journal = self.journal.as_ref();
        let engine = self.settings.sim.engine;
        // run_point catches panics, so no cell can abort the grid.
        let outcomes = par::ordered_map(&jobs, self.settings.threads, |(spec, sim, profile)| {
            let key = key_of(spec, sim);
            let outcome = run_point(spec, sim, profile, engine);
            // Stream the finished point so a killed campaign resumes here.
            if let Some(j) = journal {
                j.append(&record_line(&key.1, &outcome));
            }
            (key, outcome)
        });
        for (key, outcome) in outcomes {
            self.commit(key, outcome);
        }
        points
            .iter()
            .map(|(spec, sim)| self.try_result(spec, sim))
            .collect()
    }

    /// Convenience: default-machine result for a design.
    pub fn design_result(&mut self, spec: &WorkloadSpec, design: Design) -> SimResult {
        let mut sim = SimConfig::new(design);
        sim.cfg = self.base_cfg.clone();
        self.result(spec, &sim)
    }

    /// Number of memoized simulation results.
    pub fn cached_runs(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_campaign() -> Campaign {
        let mut c = Campaign::new(Settings::default());
        // Tiny shapes keep the tests fast.
        for spec in &mut c.specs {
            spec.shape.kernels = 2;
            spec.shape.ctas = 16;
            spec.shape.instrs_per_warp = 40;
        }
        c
    }

    /// A grid cell rendering used by the resume tests: byte-identical
    /// tables are the acceptance bar for checkpoint/resume.
    fn table_of(cells: &[Result<SimResult, PointFailure>]) -> String {
        cells
            .iter()
            .map(|c| match c {
                Ok(r) => r.encode_journal_line(),
                Err(f) => format!("FAILED\t{}\t{}\t{}", f.workload, f.config, f.error),
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("carve-campaign-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn results_are_memoized() {
        let mut c = quick_campaign();
        let spec = c.specs()[3].clone(); // Lulesh
        let a = c.design_result(&spec, Design::NumaGpu);
        assert_eq!(c.cached_runs(), 1);
        let b = c.design_result(&spec, Design::NumaGpu);
        assert_eq!(c.cached_runs(), 1);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn distinct_configs_get_distinct_entries() {
        let mut c = quick_campaign();
        let spec = c.specs()[3].clone();
        c.design_result(&spec, Design::NumaGpu);
        let mut sim = SimConfig::new(Design::CarveHwc);
        sim.rdc_bytes = Some(1 << 20);
        c.result(&spec, &sim);
        assert_eq!(c.cached_runs(), 2);
    }

    #[test]
    fn twenty_specs_by_default() {
        let c = Campaign::new(Settings::default());
        assert_eq!(c.specs().len(), 20);
    }

    #[test]
    fn run_parallel_matches_sequential_results() {
        // The fan-out must be invisible: same counters, same cache state,
        // results in input order, duplicates served from cache.
        let mut seq = quick_campaign();
        let mut par_c = quick_campaign();
        let specs = seq.specs();
        let mut points: Vec<(WorkloadSpec, SimConfig)> = Vec::new();
        for spec in specs.iter().take(3) {
            for design in [Design::NumaGpu, Design::CarveHwc] {
                points.push((spec.clone(), SimConfig::new(design)));
            }
        }
        points.push(points[0].clone()); // duplicate point
        let fanned = par_c.run_parallel(&points);
        assert_eq!(fanned.len(), points.len());
        assert_eq!(par_c.cached_runs(), points.len() - 1);
        for (i, (spec, sim)) in points.iter().enumerate() {
            let expect = seq.result(spec, sim);
            assert_eq!(fanned[i].cycles, expect.cycles, "{} point {i}", spec.name);
            assert_eq!(fanned[i].instructions, expect.instructions);
            assert_eq!(fanned[i].remote_serviced, expect.remote_serviced);
        }
        assert_eq!(fanned[0].cycles, fanned[points.len() - 1].cycles);
    }

    #[test]
    fn forced_panic_point_is_a_failed_cell_and_the_rest_complete() {
        let dir = test_dir("poison");
        let path = dir.join("grid.journal");
        let mut c = quick_campaign();
        c.set_journal_path(&path).expect("attach journal");
        let specs = c.specs();
        // A CTA wider than the SM's warp slots trips the assert in
        // GpuCore::new — a deterministic mid-construction panic.
        let mut poisoned = specs[1].clone();
        poisoned.shape.warps_per_cta = 10_000;
        let points = vec![
            (specs[0].clone(), SimConfig::new(Design::NumaGpu)),
            (poisoned, SimConfig::new(Design::NumaGpu)),
            (specs[2].clone(), SimConfig::new(Design::CarveHwc)),
        ];
        let cells = c.try_run_parallel(&points);
        assert!(cells[0].is_ok() && cells[2].is_ok(), "healthy points ran");
        let fail = cells[1].as_ref().expect_err("poisoned point must fail");
        assert_eq!(fail.attempts, 1);
        assert!(
            fail.error.contains("panic:") && fail.error.contains("SM must fit"),
            "failure must carry the panic message, got {:?}",
            fail.error
        );
        assert_eq!(c.failures().len(), 1);
        let table = table_of(&cells);

        // A fresh campaign resuming from the journal reproduces the same
        // table byte-for-byte — including the failed cell — without
        // re-running anything.
        let mut resumed = quick_campaign();
        let n = resumed.set_journal_path(&path).expect("resume journal");
        assert_eq!(n, 3, "two ok records and one fail record resumed");
        let cells2 = resumed.try_run_parallel(&points);
        assert_eq!(table_of(&cells2), table);
        assert!(resumed.observations.is_empty(), "no point re-simulated");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_journal_resumes_to_byte_identical_tables() {
        let dir = test_dir("resume");
        let path = dir.join("grid.journal");
        let specs = quick_campaign().specs();
        let mut points: Vec<(WorkloadSpec, SimConfig)> = Vec::new();
        for spec in specs.iter().take(2) {
            for design in [Design::NumaGpu, Design::CarveHwc] {
                points.push((spec.clone(), SimConfig::new(design)));
            }
        }

        // Straight-through run, journaled.
        let mut a = quick_campaign();
        a.set_journal_path(&path).expect("attach journal");
        let table_a = table_of(&a.try_run_parallel(&points));

        // Simulate a kill mid-grid: keep the header, two complete records,
        // and a torn half of the third.
        let text = std::fs::read_to_string(&path).expect("journal written");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.len(),
            1 + points.len(),
            "header plus one line per point"
        );
        let torn = &lines[3][..lines[3].len() / 2];
        std::fs::write(
            &path,
            format!("{}\n{}\n{}\n{torn}", lines[0], lines[1], lines[2]),
        )
        .expect("truncate journal");

        // Resume: the two intact points load, the torn one and the lost
        // one re-run, and the final table is byte-identical.
        let mut b = quick_campaign();
        let n = b.set_journal_path(&path).expect("resume journal");
        assert_eq!(n, 2, "only intact records resume");
        let table_b = table_of(&b.try_run_parallel(&points));
        assert_eq!(table_b, table_a);
        assert_eq!(b.observations.len(), 2, "exactly the missing points re-ran");

        // After the resumed run the journal is whole again: a third
        // campaign resumes all four points without simulating.
        let mut c = quick_campaign();
        assert_eq!(c.set_journal_path(&path).expect("reload"), points.len());
        let table_c = table_of(&c.try_run_parallel(&points));
        assert_eq!(table_c, table_a);
        assert!(c.observations.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_trailing_line_resumes_to_byte_identical_tables() {
        let dir = test_dir("corrupt");
        let path = dir.join("grid.journal");
        let specs = quick_campaign().specs();
        let points = vec![
            (specs[0].clone(), SimConfig::new(Design::NumaGpu)),
            (specs[1].clone(), SimConfig::new(Design::CarveHwc)),
        ];
        let mut a = quick_campaign();
        a.set_journal_path(&path).expect("attach journal");
        let table_a = table_of(&a.try_run_parallel(&points));

        // Corrupt the trailing record with invalid UTF-8 mid-line — a
        // torn write crossing a multi-byte boundary, not a clean cut.
        let mut bytes = std::fs::read(&path).expect("journal written");
        let keep = bytes
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .map(|(i, _)| i)
            .nth(1)
            .expect("header + first record")
            + 1;
        bytes.truncate(keep + 20);
        bytes.extend_from_slice(&[0xFF, 0xFE, 0x80, b'g', b'a', b'r', 0xC0]);
        std::fs::write(&path, &bytes).expect("corrupt journal");

        // Resume: the intact record loads, the corrupt one is dropped
        // with a warning and re-runs, and the table is byte-identical.
        let mut b = quick_campaign();
        let n = b
            .set_journal_path(&path)
            .expect("resume despite corruption");
        assert_eq!(n, 1, "only the intact record resumes");
        let table_b = table_of(&b.try_run_parallel(&points));
        assert_eq!(table_b, table_a);
        assert_eq!(b.observations.len(), 1, "exactly the corrupt point re-ran");

        // A journal whose *header* is corrupt degrades to an empty resume
        // (never an abort): all points re-run, and the rewritten file is
        // clean again.
        std::fs::write(&path, [0xFF, 0xFE, b'\n', b'o', b'k', b'\t']).expect("smash header");
        let mut c = quick_campaign();
        assert_eq!(c.set_journal_path(&path).expect("attach over garbage"), 0);
        let table_c = table_of(&c.try_run_parallel(&points));
        assert_eq!(table_c, table_a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_points_make_one_attempt_and_fail_identically() {
        // An invalid link (rejected before the run; the broken knob must
        // not disturb the sharing profile, which is computed first) and an
        // injected stall (tripped by the cycle-counting watchdog).
        let mut bad = SimConfig::new(Design::NumaGpu);
        bad.cfg.link_bytes_per_cycle = -1.0;
        let mut stall = SimConfig::new(Design::NumaGpu);
        stall.stall_inject_at = Some(500);
        stall.watchdog_cycles = Some(5_000);
        for (sim, needle) in [(bad, "link"), (stall, "watchdog")] {
            // Two fresh campaigns fail the point with the same bytes: a
            // second run could only reproduce the error, so none is made.
            let [a, b] = [(); 2].map(|()| {
                let mut c = quick_campaign();
                let spec = c.specs()[0].clone();
                c.try_result(&spec, &sim).expect_err("point fails")
            });
            assert_eq!(a.attempts, 1, "{a}");
            assert!(a.error.contains(needle), "{}", a.error);
            assert_eq!(a, b, "failure must be deterministic");
        }
    }

    #[test]
    fn faulted_points_get_their_own_cache_and_journal_keys() {
        let spec = quick_campaign().specs()[0].clone();
        let plain = SimConfig::new(Design::NumaGpu);
        let mut faulted = plain.clone();
        faulted.fault_plan =
            Some(carve_system::FaultPlan::parse("degrade@300:e0*50").expect("plan"));
        let (_, key_plain) = key_of(&spec, &plain);
        let (_, key_faulted) = key_of(&spec, &faulted);
        assert_ne!(key_plain, key_faulted);
        assert!(key_faulted.ends_with("|faults=degrade@300:e0*50"));
        // An empty plan keys like no plan at all, so pre-fault journals
        // keep resuming.
        let mut empty = plain;
        empty.fault_plan = Some(carve_system::FaultPlan::new());
        assert_eq!(key_of(&spec, &empty).1, key_plain);
    }

    #[test]
    fn journal_with_foreign_fingerprint_is_ignored() {
        let dir = test_dir("fingerprint");
        let path = dir.join("grid.journal");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(&path, "#carve-journal v0 quick=maybe\nok\tgarbage\n").expect("seed");
        let mut c = quick_campaign();
        assert_eq!(c.set_journal_path(&path).expect("attach"), 0);
        assert_eq!(c.cached_runs(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failure_error_text_survives_escaping_round_trip() {
        let f = PointFailure {
            workload: "w".into(),
            config: "cfg|x=1".into(),
            attempts: 2,
            error: "line one\n\tline two \\ end".into(),
        };
        let line = fail_line(&f);
        assert!(!line.contains('\n'));
        match parse_record(&line) {
            Some(LoadedRecord::Failed(back)) => assert_eq!(back, f),
            _ => panic!("fail record must parse back"),
        }
    }

    #[test]
    fn sanitizer_violation_journals_like_any_point_failure() {
        // Sanitizer violations carry multi-line component snapshots with
        // tabs and pipes; a checkpointed campaign must journal them and
        // reload byte-identically like any other failed point.
        let err = sim_core::SimError::SanitizerViolation {
            invariant: "gpu-vi-single-writer".into(),
            cycle: 123_456,
            detail: "line 0xdead0 granted to {1, 3}\ncomponent snapshot at \
                     detection (cycle 123500):\n\tgpu0 | sm0: 4 warps"
                .into(),
        };
        let f = PointFailure {
            workload: "XSBench".into(),
            config: "design=CARVE-HWC|sanitize=on".into(),
            attempts: 1,
            error: err.to_string(),
        };
        let line = fail_line(&f);
        assert!(!line.contains('\n'), "journal records are single lines");
        match parse_record(&line) {
            Some(LoadedRecord::Failed(back)) => {
                assert_eq!(back, f);
                assert!(back.error.contains("gpu-vi-single-writer"));
                assert!(back.error.contains("cycle 123456"));
            }
            _ => panic!("sanitizer failure record must parse back"),
        }
    }

    /// The timelines collected so far, in point-commit order.
    fn timelines(c: &Campaign) -> Vec<(&str, &Timeline)> {
        c.observations
            .iter()
            .filter_map(|o| Some((o.workload.as_str(), o.timeline.as_ref()?)))
            .collect()
    }

    /// Two workloads × {NUMA-GPU, CARVE-HWC}.
    fn small_grid(c: &Campaign) -> Vec<(WorkloadSpec, SimConfig)> {
        let mut points = Vec::new();
        for spec in c.specs().iter().take(2) {
            for design in [Design::NumaGpu, Design::CarveHwc] {
                points.push((spec.clone(), SimConfig::new(design)));
            }
        }
        points
    }

    #[test]
    fn timelines_collect_in_input_order_without_perturbing_results() {
        let mut plain = quick_campaign();
        let mut seq = quick_campaign();
        seq.settings.telemetry_interval = Some(700);
        let mut par_c = quick_campaign();
        par_c.settings.telemetry_interval = Some(700);
        let points = small_grid(&plain);
        let fanned = par_c.try_run_parallel(&points);
        for (i, (spec, sim)) in points.iter().enumerate() {
            let expect = plain.result(spec, sim);
            let sampled = seq.result(spec, sim);
            let got = fanned[i].as_ref().expect("point ran");
            // Sampling must be invisible to every journaled aggregate.
            assert_eq!(got.encode_journal_line(), expect.encode_journal_line());
            assert_eq!(sampled.encode_journal_line(), expect.encode_journal_line());
        }
        // Fan-out and sequential execution collect the same rows in the
        // same order — the timeline CSV is thread-count-independent.
        assert_eq!(par_c.observations, seq.observations);
        assert_eq!(timelines(&par_c).len(), points.len());
        for ((w, tl), (spec, sim)) in timelines(&par_c).into_iter().zip(&points) {
            assert_eq!(w, spec.name);
            assert_eq!(tl.interval, 700);
            assert_eq!(
                tl.total_instructions(),
                plain.result(spec, sim).instructions,
                "interval instruction sums must equal the aggregate exactly"
            );
        }
        // The CSV renders one row per record plus the header; unprofiled
        // points write no profile sidecar.
        let dir = test_dir("timeline-csv");
        par_c.settings.results_dir = dir.clone();
        let written = par_c.write_sidecars("grid").expect("write sidecars");
        assert_eq!(written, vec![("timeline", dir.join("grid.timeline.csv"))]);
        let text = std::fs::read_to_string(&written[0].1).expect("read back");
        let rows: usize = timelines(&par_c)
            .iter()
            .map(|(_, tl)| tl.records.len())
            .sum();
        assert_eq!(text.lines().count(), 1 + rows);
        assert!(text.starts_with(&format!("workload,config,{}", Timeline::CSV_HEADER)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profiles_collect_per_point_without_perturbing_results() {
        let mut plain = quick_campaign();
        let mut prof = quick_campaign();
        prof.settings.profile = true;
        let points = small_grid(&plain);
        let fanned = prof.try_run_parallel(&points);
        for (i, (spec, sim)) in points.iter().enumerate() {
            let expect = plain.result(spec, sim);
            let got = fanned[i].as_ref().expect("point ran");
            // Profiling is observe-only: journal lines are bit-identical.
            assert_eq!(got.encode_journal_line(), expect.encode_journal_line());
        }
        // One breakdown per point, keyed like the journal, each obeying
        // the exclusivity invariant (categories sum to cycles × SMs).
        assert_eq!(prof.observations.len(), points.len());
        for (o, (spec, sim)) in prof.observations.iter().zip(&points) {
            assert_eq!(o.workload, spec.name);
            assert_eq!(o.config, key_of(spec, sim).1);
            assert!(o.timeline.is_none());
            let p = o.profile.as_ref().expect("profiled");
            let expect = plain.result(spec, sim);
            let per_gpu = expect.cycles * sim.cfg.sms_per_gpu as u64;
            for gpu in &p.gpus {
                assert_eq!(gpu.iter().sum::<u64>(), per_gpu);
            }
            // The TSV round-trips through the compact encoding.
            let back = ProfileReport::decode_compact(&p.encode_compact()).expect("decode");
            assert_eq!(back.encode_compact(), p.encode_compact());
        }
        let dir = test_dir("profile-tsv");
        prof.settings.results_dir = dir.clone();
        let written = prof.write_sidecars("grid").expect("write sidecars");
        assert_eq!(written, vec![("profile", dir.join("grid.profile.tsv"))]);
        let text = std::fs::read_to_string(&written[0].1).expect("read back");
        assert_eq!(text.lines().count(), points.len());
        for line in text.lines() {
            let mut f = line.splitn(3, '\t');
            let (_w, _k, compact) = (f.next().unwrap(), f.next().unwrap(), f.next().unwrap());
            assert!(ProfileReport::decode_compact(compact).is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timeline_stall_columns_sum_to_profile_totals() {
        let mut c = quick_campaign();
        c.settings.telemetry_interval = Some(700);
        c.settings.profile = true;
        let points = small_grid(&c);
        c.try_run_parallel(&points);
        let dir = test_dir("sidecar-join");
        c.settings.results_dir = dir.clone();
        let written = c.write_sidecars("grid").expect("write sidecars");
        assert_eq!(written.len(), 2);
        let csv = std::fs::read_to_string(dir.join("grid.timeline.csv")).expect("timeline");
        let tsv = std::fs::read_to_string(dir.join("grid.profile.tsv")).expect("profile");
        // Sum each point's stall columns per GPU, keyed like the journal.
        let cats = sim_core::NUM_STALL_CATS;
        let mut sums: HashMap<(String, String), Vec<Vec<u64>>> = HashMap::new();
        for line in csv.lines().skip(1) {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!(cols.len(), 2 + Timeline::CSV_COLUMNS, "{line}");
            let gpu: usize = cols[4].parse().expect("gpu column");
            let per_gpu = sums
                .entry((cols[0].to_string(), cols[1].to_string()))
                .or_default();
            if per_gpu.len() <= gpu {
                per_gpu.resize(gpu + 1, vec![0; cats]);
            }
            for (i, cell) in cols[cols.len() - cats..].iter().enumerate() {
                per_gpu[gpu][i] += cell.parse::<u64>().expect("profiled stall cell");
            }
        }
        assert_eq!(sums.len(), points.len());
        for line in tsv.lines() {
            let mut f = line.splitn(3, '\t');
            let key = (f.next().unwrap().to_string(), f.next().unwrap().to_string());
            let report = ProfileReport::decode_compact(f.next().unwrap()).expect("decode");
            let from_timeline: Vec<Vec<u64>> = sums.remove(&key).expect("point in both sidecars");
            let totals: Vec<Vec<u64>> = report.gpus.iter().map(|g| g.to_vec()).collect();
            assert_eq!(
                from_timeline, totals,
                "{key:?}: timeline stalls vs profile.tsv"
            );
        }
        assert!(sums.is_empty(), "timeline points missing from profile.tsv");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_resumed_points_carry_no_timeline() {
        let dir = test_dir("timeline-resume");
        let path = dir.join("grid.journal");
        let mut a = quick_campaign();
        a.settings.telemetry_interval = Some(900);
        a.set_journal_path(&path).expect("attach journal");
        let specs = a.specs();
        let points = vec![
            (specs[0].clone(), SimConfig::new(Design::NumaGpu)),
            (specs[1].clone(), SimConfig::new(Design::CarveHwc)),
        ];
        let table_a = table_of(&a.try_run_parallel(&points));
        assert_eq!(timelines(&a).len(), 2);

        // A fresh campaign resuming from the journal reproduces the same
        // table but simulates nothing, so it collects no timelines.
        let mut b = quick_campaign();
        b.settings.telemetry_interval = Some(900);
        b.settings.results_dir = dir.clone();
        b.set_journal_path(&path).expect("resume journal");
        let table_b = table_of(&b.try_run_parallel(&points));
        assert_eq!(table_b, table_a);
        assert!(b.observations.is_empty());
        assert!(b.write_sidecars("never-used").expect("no-op").is_empty());
        assert!(!dir.join("never-used.timeline.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
