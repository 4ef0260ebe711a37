//! Livelock/stall detection for the engine loop.
//!
//! A mis-modeled component can leave the simulation ticking forever
//! without retiring a single instruction — the event-horizon engine keeps
//! finding "next events" that never make progress. The [`Watchdog`] turns
//! that silent spin into a hard error: the engine feeds it a monotonic
//! *progress signature* (a sum of retired instructions and drained queue
//! entries), and if the signature is unchanged across a full cycle budget
//! the watchdog reports a stall.
//!
//! The check is amortized O(1): the signature closure is only evaluated
//! once per budget window, not per tick. Because the signature is a
//! monotonic counter, "unchanged between two checkpoints a budget apart"
//! is exactly "zero progress events in the whole window" — there are no
//! missed intermediate transitions.
//!
//! The budget comes from `SimConfig::watchdog_cycles`: unset means
//! [`DEFAULT_WATCHDOG_CYCLES`], `0` disables the watchdog, any other value
//! sets the budget in cycles.

use crate::Cycle;

/// Default no-progress budget in cycles. Generous: a window this long with
/// zero retired instructions and zero drained queue entries has no
/// legitimate cause in any modeled machine (the longest modeled blocking
/// intervals — migration stalls, link backlogs, DRAM service — are
/// thousands of cycles, not millions).
pub const DEFAULT_WATCHDOG_CYCLES: u64 = 2_000_000;

/// A detected stall, reported by [`Watchdog::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stall {
    /// Cycle at which the stall was detected.
    pub cycle: u64,
    /// Last cycle at which progress was observed.
    pub stalled_since: u64,
    /// The configured budget that was exceeded.
    pub budget: u64,
}

/// Detects absence of forward progress over a configurable cycle budget.
#[derive(Debug, Clone)]
pub struct Watchdog {
    /// `None` = disabled.
    budget: Option<u64>,
    last_signature: u64,
    last_progress_cycle: u64,
    next_check: u64,
}

impl Watchdog {
    /// Creates a watchdog with an explicit budget; `None` disables it.
    pub fn with_budget(budget: Option<u64>) -> Watchdog {
        Watchdog {
            budget,
            last_signature: 0,
            last_progress_cycle: 0,
            next_check: budget.unwrap_or(0),
        }
    }

    /// The configured budget, if enabled.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Checks for progress at `now`. `signature` is evaluated only when a
    /// budget window has elapsed; it must return a monotonically
    /// non-decreasing counter of progress events.
    #[inline]
    pub fn check<F: FnOnce() -> u64>(&mut self, now: Cycle, signature: F) -> Result<(), Stall> {
        let Some(budget) = self.budget else {
            return Ok(());
        };
        if now.0 < self.next_check {
            return Ok(());
        }
        let sig = signature();
        if sig != self.last_signature {
            self.last_signature = sig;
            self.last_progress_cycle = now.0;
            self.next_check = now.0 + budget;
            return Ok(());
        }
        Err(Stall {
            cycle: now.0,
            stalled_since: self.last_progress_cycle,
            budget,
        })
    }

    /// Resets the progress baseline (e.g. at a kernel boundary, where the
    /// clock may jump over launch overhead without any component activity).
    pub fn rebase(&mut self, now: Cycle, signature: u64) {
        self.last_signature = signature;
        self.last_progress_cycle = now.0;
        if let Some(budget) = self.budget {
            self.next_check = now.0 + budget;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NextEvent;

    #[test]
    fn disabled_watchdog_never_trips() {
        let mut w = Watchdog::with_budget(None);
        for c in 0..1_000_000u64 {
            assert!(w.check(Cycle(c), || 0).is_ok());
        }
    }

    #[test]
    fn steady_progress_never_trips() {
        let mut w = Watchdog::with_budget(Some(100));
        for c in 0..10_000u64 {
            // The signature changes every cycle: progress never stops.
            assert!(w.check(Cycle(c), || c + 1).is_ok());
        }
    }

    #[test]
    fn stall_is_detected_within_two_budgets() {
        let mut w = Watchdog::with_budget(Some(100));
        let mut sig = 0u64;
        let mut tripped_at = None;
        for c in 0..1_000u64 {
            if c < 250 {
                sig += 1; // progress stops at cycle 250
            }
            if let Err(stall) = w.check(Cycle(c), || sig) {
                tripped_at = Some((c, stall));
                break;
            }
        }
        let (c, stall) = tripped_at.expect("watchdog must trip after progress stops");
        // Detection lands within two budget windows of the stall onset: one
        // window to pass the last good checkpoint, one to confirm.
        assert!(c <= 250 + 2 * 100, "tripped too late: {c}");
        // `stalled_since` is checkpoint-granular: it may trail the true
        // onset by up to one budget window, never more.
        assert!(stall.stalled_since <= 250 + 100);
        assert_eq!(stall.budget, 100);
    }

    #[test]
    fn signature_is_only_evaluated_at_checkpoints() {
        let mut w = Watchdog::with_budget(Some(1000));
        let mut evals = 0u32;
        for c in 0..10_000u64 {
            let _ = w.check(Cycle(c), || {
                evals += 1;
                u64::from(evals) // always changing: never trips
            });
        }
        assert!(
            evals <= 11,
            "signature evaluated {evals} times for 10k ticks"
        );
    }

    /// A component that reports an event every cycle but never does
    /// anything — the livelock shape the watchdog exists to catch.
    struct LivelockedComponent;

    impl NextEvent for LivelockedComponent {
        fn next_event(&self, now: Cycle) -> Option<Cycle> {
            Some(Cycle(now.0 + 1)) // "I will act next cycle" — it never does.
        }
    }

    impl LivelockedComponent {
        fn tick(&mut self, _now: Cycle) {}
        fn progress_events(&self) -> u64 {
            0 // no retired instructions, no drained entries, ever
        }
    }

    #[test]
    fn synthetic_non_progressing_component_trips_within_budget() {
        // Drive the same loop shape the engine uses: tick, check watchdog,
        // jump to the component's horizon.
        let budget = 5_000u64;
        let mut component = LivelockedComponent;
        let mut w = Watchdog::with_budget(Some(budget));
        let mut now = Cycle(0);
        let mut stall = None;
        for _ in 0..3 * budget {
            component.tick(now);
            if let Err(s) = w.check(now, || component.progress_events()) {
                stall = Some(s);
                break;
            }
            now = component.next_event(now).expect("component reports events");
        }
        let stall = stall.expect("livelocked component must trip the watchdog");
        assert!(
            stall.cycle <= 2 * budget,
            "detected at {} > 2x budget",
            stall.cycle
        );
        assert_eq!(stall.stalled_since, 0, "no progress was ever observed");
    }

    #[test]
    fn rebase_forgives_a_clock_jump() {
        let mut w = Watchdog::with_budget(Some(100));
        assert!(w.check(Cycle(50), || 7).is_ok());
        // A kernel boundary jumps the clock far ahead with no activity.
        w.rebase(Cycle(10_000), 7);
        assert!(w.check(Cycle(10_050), || 7).is_ok());
        assert!(w.check(Cycle(10_100), || 7).is_err());
    }
}
