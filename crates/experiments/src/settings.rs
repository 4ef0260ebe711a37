//! Everything a campaign binary takes from its environment and command
//! line, resolved once in `main` and handed to [`crate::Campaign::new`].

use std::ffi::OsString;
use std::path::PathBuf;

use carve_system::settings::env_number;
use carve_system::SimSettings;

/// Sampling interval `--timeline` uses when `CARVE_TELEMETRY_INTERVAL`
/// is unset.
const DEFAULT_TIMELINE_INTERVAL: u64 = 5_000;

/// A campaign's resolved configuration. The default is an empty
/// environment and no flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Settings {
    /// `CARVE_QUICK` set: shrink every workload for a fast sanity pass.
    pub quick: bool,
    /// `CARVE_THREADS` (min 1): worker threads for the parallel fan-out;
    /// default the machine's available parallelism.
    pub threads: usize,
    /// `CARVE_RESULTS_DIR`: where tables, journals and sidecars go
    /// (default `results`).
    pub results_dir: PathBuf,
    /// Interval telemetry for every simulated point, in cycles:
    /// `CARVE_TELEMETRY_INTERVAL`, or 5000 under `--timeline` when the
    /// variable is unset (`0` counts as unset).
    pub telemetry_interval: Option<u64>,
    /// `--profile`: the cycle-accounting profiler for every simulated
    /// point.
    pub profile: bool,
    /// Engine, sanitizer and watchdog (`CARVE_STEP`, `CARVE_SANITIZE`,
    /// `CARVE_WATCHDOG_CYCLES`).
    pub sim: SimSettings,
}

impl Default for Settings {
    fn default() -> Settings {
        Settings::resolve(|_| None, std::iter::empty::<&str>())
    }
}

impl Settings {
    /// Resolves the settings from `lookup`, a view of the process
    /// environment, and `args`, the command line after the program name.
    /// Arguments other than `--timeline` and `--profile` are ignored. An unparsable number warns on stderr and keeps its
    /// default.
    pub fn resolve<I>(lookup: impl Fn(&str) -> Option<OsString>, args: I) -> Settings
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let (mut timeline, mut profile) = (false, false);
        for arg in args {
            match arg.as_ref() {
                "--timeline" => timeline = true,
                "--profile" => profile = true,
                _ => {}
            }
        }
        let threads = env_number::<usize>(&lookup, "CARVE_THREADS")
            .unwrap_or_else(|v| {
                eprintln!(
                    "warning: CARVE_THREADS={v:?} is not a thread count; \
                     falling back to available parallelism"
                );
                None
            })
            .map_or_else(
                || std::thread::available_parallelism().map_or(1, |n| n.get()),
                |n| n.max(1),
            );
        let interval = env_number(&lookup, "CARVE_TELEMETRY_INTERVAL")
            .unwrap_or_else(|v| {
                eprintln!(
                    "warning: CARVE_TELEMETRY_INTERVAL={v:?} is not a cycle count; \
                     telemetry stays disabled"
                );
                None
            })
            .filter(|&n| n != 0);
        Settings {
            quick: lookup("CARVE_QUICK").is_some(),
            threads,
            results_dir: lookup("CARVE_RESULTS_DIR")
                .map_or_else(|| "results".into(), PathBuf::from),
            telemetry_interval: match interval {
                None if timeline => Some(DEFAULT_TIMELINE_INTERVAL),
                interval => interval,
            },
            profile,
            sim: SimSettings::resolve(&lookup),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carve_system::EngineMode;

    const NO_ARGS: [&str; 0] = [];

    fn env(vars: &'static [(&'static str, &'static str)]) -> impl Fn(&str) -> Option<OsString> {
        move |key| {
            vars.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| OsString::from(v))
        }
    }

    #[test]
    fn empty_environment_gives_the_defaults() {
        let s = Settings::resolve(env(&[]), ["--unrelated"]);
        assert!(!s.quick && !s.profile);
        assert!(s.threads >= 1);
        assert_eq!(s.results_dir, PathBuf::from("results"));
        assert_eq!(s.telemetry_interval, None);
        assert_eq!(s.sim, SimSettings::default());
        assert_eq!(s, Settings::default());
    }

    #[test]
    fn each_variable_and_flag_is_honoured() {
        let s = Settings::resolve(
            env(&[
                ("CARVE_QUICK", ""),
                ("CARVE_THREADS", "3"),
                ("CARVE_RESULTS_DIR", "campaign-out"),
                ("CARVE_TELEMETRY_INTERVAL", "700"),
                ("CARVE_STEP", "1"),
            ]),
            ["--timeline", "--profile"],
        );
        assert!(s.quick && s.profile);
        assert_eq!(s.threads, 3);
        assert_eq!(s.results_dir, PathBuf::from("campaign-out"));
        assert_eq!(s.telemetry_interval, Some(700));
        assert_eq!(s.sim.engine, EngineMode::Step);
        // `--timeline` alone samples at the default interval; the
        // variable alone samples without the flag.
        let flag = Settings::resolve(env(&[]), ["--timeline"]);
        assert_eq!(flag.telemetry_interval, Some(DEFAULT_TIMELINE_INTERVAL));
        let var = Settings::resolve(env(&[("CARVE_TELEMETRY_INTERVAL", "900")]), NO_ARGS);
        assert_eq!(var.telemetry_interval, Some(900));
        let zero = Settings::resolve(env(&[("CARVE_TELEMETRY_INTERVAL", "0")]), NO_ARGS);
        assert_eq!(zero.telemetry_interval, None);
        assert_eq!(
            Settings::resolve(env(&[("CARVE_THREADS", "0")]), NO_ARGS).threads,
            1
        );
    }

    #[test]
    fn unparsable_values_warn_and_keep_their_defaults() {
        let defaults = Settings::default();
        let s = Settings::resolve(
            env(&[
                ("CARVE_THREADS", "many"),
                ("CARVE_TELEMETRY_INTERVAL", "often"),
                ("CARVE_WATCHDOG_CYCLES", "never"),
            ]),
            ["--timeline"],
        );
        assert_eq!(s.threads, defaults.threads);
        assert_eq!(s.telemetry_interval, Some(DEFAULT_TIMELINE_INTERVAL));
        assert_eq!(s.sim.watchdog_cycles, None);
    }
}
