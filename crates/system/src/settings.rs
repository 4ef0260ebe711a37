//! The simulator knobs a binary takes from its environment, resolved once
//! in `main`.
//!
//! Library code reads no environment variable: a run is a pure function
//! of its [`SimConfig`] and [`EngineMode`]. A binary calls
//! [`SimSettings::resolve`] with `std::env::var_os` as the lookup and
//! applies the result to each run it starts; tests pass a fixed table.

use std::ffi::OsString;
use std::str::FromStr;

use sim_core::DEFAULT_WATCHDOG_CYCLES;

use crate::design::SimConfig;
use crate::sim::EngineMode;

/// Engine, sanitizer and watchdog settings from `CARVE_STEP`,
/// `CARVE_SANITIZE` and `CARVE_WATCHDOG_CYCLES`. The default is an empty
/// environment: event skipping, sanitizer off, default watchdog budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimSettings {
    /// [`EngineMode::Step`] when `CARVE_STEP` is set to anything.
    pub engine: EngineMode,
    /// `CARVE_SANITIZE` set to anything but empty or `0`.
    pub sanitize: bool,
    /// `CARVE_WATCHDOG_CYCLES` (`Some(0)` disables the watchdog); `None`
    /// keeps [`DEFAULT_WATCHDOG_CYCLES`].
    pub watchdog_cycles: Option<u64>,
}

impl SimSettings {
    /// Resolves the settings from `lookup`, a view of the process
    /// environment. An unparsable `CARVE_WATCHDOG_CYCLES` warns on stderr
    /// and keeps the default budget.
    pub fn resolve(lookup: impl Fn(&str) -> Option<OsString>) -> SimSettings {
        let watchdog_cycles = env_number(&lookup, "CARVE_WATCHDOG_CYCLES").unwrap_or_else(|raw| {
            eprintln!(
                "warning: CARVE_WATCHDOG_CYCLES={raw:?} is not a cycle count; \
                     using default {DEFAULT_WATCHDOG_CYCLES}"
            );
            None
        });
        SimSettings {
            engine: match lookup("CARVE_STEP") {
                Some(_) => EngineMode::Step,
                None => EngineMode::EventSkip,
            },
            sanitize: lookup("CARVE_SANITIZE").is_some_and(|v| !v.is_empty() && v != "0"),
            watchdog_cycles,
        }
    }

    /// Fills the knobs `sim` leaves at their defaults (`None`); a value
    /// the config pins is kept.
    pub fn apply(&self, sim: &mut SimConfig) {
        if self.sanitize && sim.sanitize.is_none() {
            sim.sanitize = Some(true);
        }
        sim.watchdog_cycles = sim.watchdog_cycles.or(self.watchdog_cycles);
    }
}

/// Reads variable `name` through `lookup` as a number: `Ok(None)` when
/// unset, `Err(value)` when set to something that does not parse.
pub fn env_number<T: FromStr>(
    lookup: impl Fn(&str) -> Option<OsString>,
    name: &str,
) -> Result<Option<T>, String> {
    match lookup(name) {
        None => Ok(None),
        Some(raw) => match raw.to_str().map(|v| v.trim().parse()) {
            Some(Ok(n)) => Ok(Some(n)),
            _ => Err(raw.to_string_lossy().into_owned()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Design;

    fn env(vars: &'static [(&'static str, &'static str)]) -> impl Fn(&str) -> Option<OsString> {
        move |key| {
            vars.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| OsString::from(v))
        }
    }

    #[test]
    fn empty_environment_gives_the_defaults() {
        assert_eq!(SimSettings::resolve(env(&[])), SimSettings::default());
        let mut sim = SimConfig::new(Design::NumaGpu);
        SimSettings::default().apply(&mut sim);
        assert_eq!((sim.sanitize, sim.watchdog_cycles), (None, None));
    }

    #[test]
    fn each_variable_is_honoured() {
        let s = SimSettings::resolve(env(&[
            ("CARVE_STEP", ""),
            ("CARVE_SANITIZE", "1"),
            ("CARVE_WATCHDOG_CYCLES", " 5000 "),
        ]));
        assert_eq!(s.engine, EngineMode::Step);
        assert!(s.sanitize);
        assert_eq!(s.watchdog_cycles, Some(5000));
        assert_eq!(
            SimSettings::resolve(env(&[("CARVE_WATCHDOG_CYCLES", "0")])).watchdog_cycles,
            Some(0),
            "0 disables the watchdog"
        );
        assert!(!SimSettings::resolve(env(&[("CARVE_SANITIZE", "")])).sanitize);
        assert!(!SimSettings::resolve(env(&[("CARVE_SANITIZE", "0")])).sanitize);
    }

    #[test]
    fn unparsable_watchdog_budget_warns_and_keeps_the_default() {
        let s = SimSettings::resolve(env(&[("CARVE_WATCHDOG_CYCLES", "soon")]));
        assert_eq!(s.watchdog_cycles, None);
        assert_eq!(
            env_number::<u64>(env(&[("X", "12x")]), "X"),
            Err("12x".to_string())
        );
        assert_eq!(env_number::<u64>(env(&[]), "X"), Ok(None));
    }

    #[test]
    fn apply_fills_only_what_the_config_leaves_open() {
        let s = SimSettings {
            engine: EngineMode::EventSkip,
            sanitize: true,
            watchdog_cycles: Some(7),
        };
        let mut open = SimConfig::new(Design::NumaGpu);
        s.apply(&mut open);
        assert_eq!((open.sanitize, open.watchdog_cycles), (Some(true), Some(7)));
        let mut pinned = SimConfig::new(Design::NumaGpu);
        pinned.sanitize = Some(false);
        pinned.watchdog_cycles = Some(0);
        s.apply(&mut pinned);
        assert_eq!(
            (pinned.sanitize, pinned.watchdog_cycles),
            (Some(false), Some(0))
        );
    }
}
