//! Structured simulation errors.
//!
//! [`SimError`] is the single error type flowing through the fallible
//! simulation APIs (`carve_system::try_run_with_profile_mode`, campaign journals). Each
//! variant carries enough context to act on: invalid configurations name
//! the offending knob and its value, watchdog stalls carry a
//! component-level diagnostic dump, and checkpoint I/O failures name the
//! file. The infallible entry points wrap these into panics with the same
//! message, so nothing is lost for callers that prefer the old behaviour.

use std::fmt;

/// An error produced by a simulation run or campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The requested configuration cannot describe a real machine. The
    /// message names the offending field, its value, and what would fix it.
    ConfigInvalid {
        /// Actionable description (field, value, remedy).
        message: String,
    },
    /// The engine's watchdog saw no forward progress (no retired warp
    /// instruction and no drained queue entry) for a full cycle budget.
    WatchdogStall {
        /// Cycle at which the stall was detected.
        cycle: u64,
        /// Last cycle at which progress was observed.
        stalled_since: u64,
        /// The configured no-progress budget in cycles.
        budget: u64,
        /// Component-level occupancy dump naming the stuck parts.
        diagnostic: String,
    },
    /// A bounded resource ran out before the run could finish (e.g. the
    /// hard cycle cap).
    ResourceExhausted {
        /// What ran out.
        what: String,
        /// The configured limit that was hit.
        limit: u64,
    },
    /// Reading or writing a campaign checkpoint/journal failed.
    CheckpointIo {
        /// The journal path involved.
        path: String,
        /// The underlying I/O error, stringified.
        message: String,
    },
    /// An injected link outage (fault plan) severed the fabric: some
    /// endpoint pair no longer has any route, so the run cannot degrade
    /// gracefully and terminates cleanly instead of hanging.
    FabricPartitioned {
        /// Label of the source node of the first unroutable pair
        /// (e.g. `gpu0`, `cpu`).
        from: String,
        /// Label of the destination node of the first unroutable pair.
        to: String,
        /// Cycle at which the partitioning outage was applied.
        cycle: u64,
    },
    /// The protocol sanitizer (`CARVE_SANITIZE=1` / `SimConfig::sanitize`)
    /// caught a coherence, lifecycle, or timing invariant being broken.
    /// Only the *first* violation of a run is reported: later checks may
    /// be cascading damage from the first.
    SanitizerViolation {
        /// Short machine-stable name of the broken invariant
        /// (e.g. `gpu-vi-single-writer`, `noc-conservation`).
        invariant: String,
        /// Cycle at which the violation was detected.
        cycle: u64,
        /// What was expected vs. observed, plus the component snapshot
        /// dump at detection time.
        detail: String,
    },
}

impl SimError {
    /// Convenience constructor for [`SimError::ConfigInvalid`].
    pub fn config(message: impl Into<String>) -> SimError {
        SimError::ConfigInvalid {
            message: message.into(),
        }
    }

    /// Convenience constructor for [`SimError::CheckpointIo`].
    pub fn checkpoint(path: impl Into<String>, err: &std::io::Error) -> SimError {
        SimError::CheckpointIo {
            path: path.into(),
            message: err.to_string(),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ConfigInvalid { message } => {
                write!(f, "invalid configuration: {message}")
            }
            SimError::WatchdogStall {
                cycle,
                stalled_since,
                budget,
                diagnostic,
            } => {
                write!(
                    f,
                    "watchdog: no forward progress between cycle {stalled_since} and cycle \
                     {cycle} (budget {budget}); stuck components:\n{diagnostic}"
                )
            }
            SimError::ResourceExhausted { what, limit } => {
                write!(f, "resource exhausted: {what} (limit {limit})")
            }
            SimError::CheckpointIo { path, message } => {
                write!(f, "checkpoint I/O failed for {path}: {message}")
            }
            SimError::FabricPartitioned { from, to, cycle } => {
                write!(
                    f,
                    "fabric partitioned: injected link outage at cycle {cycle} left no route \
                     from {from} to {to}"
                )
            }
            SimError::SanitizerViolation {
                invariant,
                cycle,
                detail,
            } => {
                write!(
                    f,
                    "sanitizer: invariant `{invariant}` violated at cycle {cycle}: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_variant_context() {
        let e = SimError::config("sms_per_gpu is 0; set it to at least 1");
        assert!(e.to_string().contains("sms_per_gpu"));
        let e = SimError::WatchdogStall {
            cycle: 5000,
            stalled_since: 1000,
            budget: 4000,
            diagnostic: "gpu0: outbox=3".into(),
        };
        let s = e.to_string();
        assert!(s.contains("cycle 1000"));
        assert!(s.contains("budget 4000"));
        assert!(s.contains("outbox=3"));
        let e = SimError::ResourceExhausted {
            what: "simulated cycles".into(),
            limit: 80,
        };
        assert!(e.to_string().contains("limit 80"));
        let e = SimError::CheckpointIo {
            path: "results/x.journal".into(),
            message: "permission denied".into(),
        };
        assert!(e.to_string().contains("x.journal"));
        let e = SimError::SanitizerViolation {
            invariant: "gpu-vi-single-writer".into(),
            cycle: 420,
            detail: "line 0x80 written at home 0 with sharer gpu1 still granted".into(),
        };
        let s = e.to_string();
        assert!(s.contains("gpu-vi-single-writer"));
        assert!(s.contains("cycle 420"));
        assert!(s.contains("0x80"));
        let e = SimError::FabricPartitioned {
            from: "gpu0".into(),
            to: "gpu3".into(),
            cycle: 777,
        };
        let s = e.to_string();
        assert!(s.contains("gpu0"));
        assert!(s.contains("gpu3"));
        assert!(s.contains("cycle 777"));
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&SimError::config("x"));
    }
}
