#![warn(missing_docs)]
//! Parallel experiment engine: a scoped thread pool on the standard library.
//!
//! The container this repo builds in has no network, so there is no
//! `rayon`; this crate hand-rolls the 10% of it the harness needs on
//! `std::thread::scope` plus an atomic work queue. The one entry point
//! that matters is [`par_map_contained`]: map a function over a slice on
//! N worker threads with three guarantees the experiments rely on —
//!
//! 1. **Determinism**: work items are claimed by index from a shared
//!    atomic counter and results land in a slot vector keyed by the same
//!    index, never by completion order, so `par_map_contained(n, ..)` is
//!    byte-identical to `par_map_contained(1, ..)` for any pure `f`.
//! 2. **Panic containment**: a panicking item poisons only its own
//!    result slot — the worker catches it and stores a structured
//!    [`ItemFailure`] carrying the item's label and the captured
//!    payload, and every other item still runs. The serial path contains
//!    panics identically, so failure reports are byte-equal at any job
//!    count.
//! 3. **No oversubscription surprises**: `jobs` is clamped to the item
//!    count, and `jobs <= 1` runs inline with no threads at all.
//!
//! The only dependency is `inject`, for the `exec.worker_panic` fault
//! point.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The number of hardware threads, with a fallback of 1 when the OS
/// cannot say.
pub fn available() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parses a `--jobs` argument: a positive integer.
///
/// # Errors
///
/// Returns a human-readable message for zero or non-numeric input.
pub fn parse_jobs(s: &str) -> Result<usize, String> {
    match s.parse::<usize>() {
        Ok(0) => Err("--jobs must be at least 1".to_string()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("--jobs needs a positive integer, got `{s}`")),
    }
}

/// One contained work-item failure: the item's index, its human-readable
/// label (kernel/variant/CCM size), and the captured panic payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ItemFailure {
    /// Index of the failed item in the input slice.
    pub index: usize,
    /// The caller-supplied label for the item.
    pub label: String,
    /// The panic payload rendered as text.
    pub message: String,
}

impl std::fmt::Display for ItemFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: worker panic: {}", self.label, self.message)
    }
}

/// Renders an unwind payload as text, the way [`ItemFailure`] stores it
/// (`&str` or `String` payloads verbatim).
pub fn render_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Maps `f` over `items` on up to `jobs` scoped worker threads with the
/// containment policy: a panicking item becomes `Err(ItemFailure)` in
/// its own result slot and every other item still runs. Results are in
/// item order and independent of `jobs`, including which slots failed.
pub fn par_map_contained<I, T, F, L>(
    jobs: usize,
    items: &[I],
    label: L,
    f: F,
) -> Vec<Result<T, ItemFailure>>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
    L: Fn(&I) -> String + Sync,
{
    let run_one = |i: usize| -> Result<T, ItemFailure> {
        panic::catch_unwind(AssertUnwindSafe(|| {
            if inject::faultpoint!("exec.worker_panic") {
                panic!("injected worker panic");
            }
            f(&items[i])
        }))
        .map_err(|payload| ItemFailure {
            index: i,
            label: label(&items[i]),
            message: render_payload(payload.as_ref()),
        })
    };

    let n = items.len();
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
    let slots: Mutex<Vec<Option<Result<T, ItemFailure>>>> =
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

/// A stopwatch for the binaries' per-stage timing lines.
pub struct Stage {
    name: String,
    jobs: usize,
    start: std::time::Instant,
}

impl Stage {
    /// Starts timing a named stage that runs on `jobs` workers.
    pub fn start(name: impl Into<String>, jobs: usize) -> Self {
        Stage {
            name: name.into(),
            jobs,
            start: std::time::Instant::now(),
        }
    }

    /// Finishes the stage, returning the `"<name>: 1.23s (jobs=N)"`
    /// timing line the binaries print to stderr.
    pub fn line(self) -> String {
        format!(
            "{}: {:.2}s (jobs={})",
            self.name,
            self.start.elapsed().as_secs_f64(),
            self.jobs
        )
    }
}

/// Times `f` on `jobs` workers, printing `prog: stage: 1.23s (jobs=N)`
/// to stderr.
pub fn timed<T>(prog: &str, stage: &str, jobs: usize, f: impl FnOnce() -> T) -> T {
    let s = Stage::start(stage, jobs);
    let out = f();
    eprintln!("{prog}: {}", s.line());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_serial_for_any_jobs() {
        let items: Vec<u64> = (0..257).collect();
        let map = |jobs| par_map_contained(jobs, &items, |i| i.to_string(), |&i| i * 31 + 7);
        let serial = map(1);
        assert!(serial.iter().all(Result::is_ok));
        for jobs in [2, 3, 8, 64] {
            assert_eq!(map(jobs), serial, "jobs={jobs} diverged");
        }
    }

    #[test]
    fn contained_failures_keep_healthy_results_and_labels() {
        let items: Vec<u64> = (0..20).collect();
        let work = |&i: &u64| {
            if i % 5 == 2 {
                panic!("injected at {i}");
            }
            i * 2
        };
        let serial = par_map_contained(1, &items, |i| format!("item {i}"), work);
        for jobs in [2, 4] {
            let par = par_map_contained(jobs, &items, |i| format!("item {i}"), work);
            assert_eq!(par, serial, "jobs={jobs} failure report diverged");
        }
        for (i, r) in serial.iter().enumerate() {
            if i % 5 == 2 {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.label, format!("item {i}"));
                assert!(e.to_string().contains(&format!("injected at {i}")));
            } else {
                assert_eq!(*r.as_ref().unwrap(), (i as u64) * 2);
            }
        }
    }

    #[test]
    fn results_are_index_ordered() {
        let items: Vec<usize> = (0..100).collect();
        let out: Vec<usize> = par_map_contained(4, &items, |i| i.to_string(), |&i| i * i)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn zero_items_is_empty() {
        let out: Vec<Result<u32, _>> =
            par_map_contained(8, &[] as &[usize], |_| unreachable!(), |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn panics_poison_only_their_own_slot() {
        let items: Vec<usize> = (0..50).collect();
        let out = par_map_contained(
            4,
            &items,
            |i| i.to_string(),
            |&i| {
                if i % 10 == 3 {
                    panic!("boom at {i}");
                }
                i
            },
        );
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
        let items: Vec<usize> = (0..30).collect();
        let work = |&i: &usize| {
            if i % 7 == 2 {
                panic!("deterministic failure {i}");
            }
            i * 3
        };
        let serial = par_map_contained(1, &items, |i| i.to_string(), work);
        for jobs in [2, 4, 8] {
            let par = par_map_contained(jobs, &items, |i| i.to_string(), work);
            assert_eq!(par, serial, "jobs={jobs} diverged");
        }
    }

    #[test]
    fn parse_jobs_accepts_positive_rejects_rest() {
        assert_eq!(parse_jobs("4"), Ok(4));
        assert!(parse_jobs("0").is_err());
        assert!(parse_jobs("lots").is_err());
    }
}
