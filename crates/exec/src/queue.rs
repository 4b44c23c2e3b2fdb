//! The scoped work queue underneath
//! [`par_map_contained`](crate::par_map_contained).
//!
//! Work items are claimed by index from a shared atomic counter, so the
//! queue itself is just an integer: workers race on `fetch_add` and each
//! index is handed out exactly once. Results land in a slot vector keyed
//! by the same index, which is what makes the output independent of
//! completion order.
//!
//! **Containment policy**: a panicking item poisons only its own slot.
//! The panic is caught, rendered, and recorded as that slot's
//! [`ItemPanic`]; every other item still runs. The serial (`jobs <= 1`)
//! path catches panics the same way, so a campaign's failure report is
//! byte-identical at any job count.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A caught panic from one work item: the item's index plus the unwind
/// payload rendered as text (`&str` or `String` payloads verbatim).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ItemPanic {
    /// Index of the work item whose closure panicked.
    pub index: usize,
    /// The unwind payload as text.
    pub message: String,
}

/// Renders an unwind payload as text, the way `ItemPanic` stores it.
pub fn render_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `f(i)` for every `i < n` on `jobs` scoped worker threads and
/// returns the per-item outcomes ordered by index. A panicking item
/// becomes `Err(ItemPanic)` in its own slot; the other items are
/// unaffected and still execute.
pub(crate) fn run<T, F>(jobs: usize, n: usize, f: F) -> Vec<Result<T, ItemPanic>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let run_one = |i: usize| -> Result<T, ItemPanic> {
        match panic::catch_unwind(AssertUnwindSafe(|| {
            if inject::faultpoint!("exec.worker_panic") {
                panic!("injected worker panic");
            }
            f(i)
        })) {
            Ok(v) => Ok(v),
            Err(payload) => Err(ItemPanic {
                index: i,
                message: render_payload(payload.as_ref()),
            }),
        }
    };

    if n == 0 {
        return Vec::new();
    }
    let jobs = jobs.clamp(1, n);
    if jobs == 1 {
        // Serial fast path: no threads, but the same per-item
        // containment — the reference behavior the parallel path must
        // be identical to, including which slots fail.
        return (0..n).map(run_one).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Result<T, ItemPanic>>>> =
        Mutex::new((0..n).map(|_| None).collect());

    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let out = run_one(i);
                // A panic while a lock was held cannot happen here (the
                // item closure runs outside all locks), but recover from
                // poisoning anyway rather than double-panicking.
                let mut slots = slots.lock().unwrap_or_else(|p| p.into_inner());
                slots[i] = Some(out);
            });
        }
    });

    slots
        .into_inner()
        .unwrap_or_else(|p| p.into_inner())
        .into_iter()
        .map(|v| v.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_index_ordered() {
        let out: Vec<usize> = run(4, 100, |i| i * i)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn zero_items_is_empty() {
        let out: Vec<Result<u32, _>> = run(8, 0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn panics_poison_only_their_own_slot() {
        let out = run(4, 50, |i| {
            if i % 10 == 3 {
                panic!("boom at {i}");
            }
            i
        });
        for (i, r) in out.iter().enumerate() {
            if i % 10 == 3 {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.index, i);
                assert_eq!(e.message, format!("boom at {i}"));
            } else {
                assert_eq!(*r.as_ref().unwrap(), i, "healthy item lost");
            }
        }
    }

    #[test]
    fn serial_and_parallel_failures_are_identical() {
        let work = |i: usize| {
            if i % 7 == 2 {
                panic!("deterministic failure {i}");
            }
            i * 3
        };
        let serial = run(1, 30, work);
        for jobs in [2, 4, 8] {
            let par = run(jobs, 30, work);
            assert_eq!(par, serial, "jobs={jobs} diverged");
        }
    }
}
