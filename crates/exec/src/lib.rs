#![warn(missing_docs)]
//! Parallel experiment engine: a dependency-free scoped thread pool.
//!
//! The container this repo builds in has no network, so there is no
//! `rayon`; this crate hand-rolls the 10% of it the harness needs on
//! `std::thread::scope` plus an atomic work queue. The one entry point
//! that matters is [`par_map_contained`]: map a function over a slice on
//! N worker threads with three guarantees the experiments rely on —
//!
//! 1. **Determinism**: results are collected *by item index*, never by
//!    completion order, so `par_map_contained(n, ..)` is byte-identical
//!    to `par_map_contained(1, ..)` for any pure `f`.
//! 2. **Panic containment**: a panicking item poisons only its own
//!    result slot — it comes back as a structured [`ItemFailure`]
//!    carrying the item's label and the captured payload, and every
//!    other item still runs. The serial path contains panics
//!    identically, so failure reports are byte-equal at any job count.
//! 3. **No oversubscription surprises**: `jobs` is clamped to the item
//!    count, and `jobs <= 1` runs inline with no threads at all.

mod queue;

pub use queue::render_payload;

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
    queue::run(jobs, items.len(), |i| f(&items[i]))
        .into_iter()
        .map(|r| {
            r.map_err(|p| ItemFailure {
                label: label(&items[p.index]),
                index: p.index,
                message: p.message,
            })
        })
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
    fn parse_jobs_accepts_positive_rejects_rest() {
        assert_eq!(parse_jobs("4"), Ok(4));
        assert!(parse_jobs("0").is_err());
        assert!(parse_jobs("lots").is_err());
    }
}
