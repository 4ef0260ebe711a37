//! Deterministic parallel map for fanning independent simulations across
//! threads.
//!
//! Every `System` is fully self-contained (no globals, no shared RNG), so
//! campaign points can run concurrently; determinism is preserved because
//! results are returned in input order regardless of which thread finishes
//! first. The map is first-party (`std::thread::scope` + an atomic work
//! index) since the workspace vendors no external crates. It does not
//! catch panics: a caller that must survive a failing item catches inside
//! `f`, as the campaign's point runner does with [`panic_message`].

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
    fn panic_message_extracts_both_payload_shapes() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(s.as_ref()), "static str");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(s.as_ref()), "owned");
        let s: Box<dyn std::any::Any + Send> = Box::new(42u8);
        assert_eq!(panic_message(s.as_ref()), "non-string panic payload");
    }
}
