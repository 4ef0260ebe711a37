//! Deterministic parallel map for fanning independent simulations across
//! threads.
//!
//! Every `System` is fully self-contained (no globals, no shared RNG), so
//! campaign points can run concurrently; determinism is preserved because
//! results are returned in input order regardless of which thread finishes
//! first. The map is first-party (`std::thread::scope` + an atomic work
//! index) since the workspace vendors no external crates. It does not
//! catch panics: a caller that must survive a failing item catches inside
//! `f`, as the campaign's point runner does, with [`panic_message`] and
//! [`backoff_delay`] for its retry loop.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item across up to `threads` threads and returns
/// the results **in input order** — byte-for-byte what a sequential map
/// would produce, independent of scheduling.
pub fn ordered_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.min(n);
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(&items[i]);
                *results[i].lock().expect("result slot never poisoned") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot never poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// Base delay of the first retry; each further retry doubles it.
const BACKOFF_BASE_MS: u64 = 50;
/// Ceiling on any single retry delay.
const BACKOFF_CAP_MS: u64 = 2_000;

/// Delay before retry `attempt` (0-based) of the work item identified by
/// `seed`: exponential (50ms, 100ms, … capped at 2s) with *deterministic*
/// equal-jitter — the random half is drawn from a `Stream` keyed on
/// (seed, attempt), so a re-run of the same campaign sleeps the same
/// schedule. Jitter de-synchronizes retries across worker threads (a grid
/// whose points all fail at once must not retry in lockstep) without
/// introducing wall-clock randomness into an otherwise reproducible run.
pub fn backoff_delay(attempt: usize, seed: u64) -> std::time::Duration {
    let exp = u32::try_from(attempt.min(10)).expect("bounded above");
    let full = BACKOFF_BASE_MS
        .saturating_mul(1u64 << exp)
        .min(BACKOFF_CAP_MS);
    let half = full / 2;
    let jitter = sim_core::rng::Stream::from_parts(&[seed, attempt as u64, 0x042a_c0ff])
        .gen_range(0, half + 1);
    std::time::Duration::from_millis(half + jitter)
}

/// Renders a `catch_unwind` payload as the panic message it carried.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = ordered_map(&items, 4, |x| x * x);
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(ordered_map(&[] as &[u64], 4, |&x| x), Vec::<u64>::new());
        assert_eq!(ordered_map(&[7u64], 4, |x| x + 1), vec![8]);
    }

    #[test]
    fn matches_sequential_under_forced_thread_counts() {
        // The map must be scheduling-independent; exercise the sequential
        // fallback path and the threaded path on the same input.
        let items: Vec<u64> = (0..64).map(|i| i * 3 + 1).collect();
        let f = |&x: &u64| x.wrapping_mul(x) ^ 0xA5;
        let seq: Vec<u64> = items.iter().map(f).collect();
        for threads in [1, 2, 8] {
            assert_eq!(ordered_map(&items, threads, f), seq, "{threads} threads");
        }
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_growing() {
        // Same (attempt, seed) → same delay, every run.
        assert_eq!(backoff_delay(2, 7), backoff_delay(2, 7));
        // Different seeds de-synchronize within the same attempt window.
        let spread: std::collections::BTreeSet<_> =
            (0..32).map(|seed| backoff_delay(3, seed)).collect();
        assert!(spread.len() > 1, "jitter must vary across seeds");
        for attempt in 0..12 {
            let d = backoff_delay(attempt, 1).as_millis() as u64;
            let full = (BACKOFF_BASE_MS << attempt.min(10)).min(BACKOFF_CAP_MS);
            // Equal-jitter envelope: [full/2, full].
            assert!(d >= full / 2 && d <= full, "attempt {attempt}: {d}ms");
        }
        // The cap holds even for absurd attempt counts.
        assert!(backoff_delay(usize::MAX, 0).as_millis() as u64 <= BACKOFF_CAP_MS);
    }

    #[test]
    fn panic_message_extracts_both_payload_shapes() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(s.as_ref()), "static str");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(s.as_ref()), "owned");
        let s: Box<dyn std::any::Any + Send> = Box::new(42u8);
        assert_eq!(panic_message(s.as_ref()), "non-string panic payload");
    }
}
