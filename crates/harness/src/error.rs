//! The structured error spine of the compile-and-measure pipeline.
//!
//! Every stage failure — a parse error, an allocator panic, a checker
//! rejection, a simulator trap, a contained worker panic — becomes a
//! [`PipelineError`] carrying its stage provenance and the (unit,
//! variant, CCM) coordinates of the measurement that failed. Experiment
//! drivers *record* errors into their [`Run`]'s failure sink
//! ([`Run::record`]) and keep going: a row is reported only when every
//! measurement it is built from succeeded ([`Run::par_rows`] for a row
//! summed over cells), every remaining experiment still runs, and
//! `repro` drains the sink at the end of the run into an aggregated
//! report (text on stderr, JSON with `--errors-json`), exiting nonzero
//! only then.
//!
//! The sink is drained in sorted order ([`Run::drain`]), so the
//! end-of-run report is byte-identical at any `--jobs` count even though
//! workers record concurrently.

use std::fmt;

use ccm::Variant;

use crate::pipeline::Run;

/// Which pipeline stage a failure came from.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Stage {
    /// Reading or parsing ILOC input.
    Parse,
    /// Building or optimizing a suite unit.
    Opt,
    /// Register allocation / CCM promotion.
    Alloc,
    /// The post-allocation static checker rejected the module.
    Checker,
    /// The simulator trapped (unknown global, bounds, step limit, …).
    Sim,
    /// The parallel engine contained a worker panic.
    Exec,
}

impl Stage {
    /// The lowercase name used in reports (`stage=alloc`).
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Opt => "opt",
            Stage::Alloc => "alloc",
            Stage::Checker => "checker",
            Stage::Sim => "sim",
            Stage::Exec => "exec",
        }
    }
}

/// One structured pipeline failure: the stage it came from, the
/// coordinates of the measurement, and a human-readable detail line.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct PipelineError {
    /// Suite unit (kernel/program), file, or experiment item that failed.
    pub unit: String,
    /// The allocation variant being measured, when one was in play.
    pub variant: Option<&'static str>,
    /// The CCM capacity being measured, when one was in play.
    pub ccm: Option<u32>,
    /// Stage provenance.
    pub stage: Stage,
    /// What happened (panic payload, trap, first checker error, …).
    pub detail: String,
}

impl PipelineError {
    /// A failure with no variant/CCM coordinates.
    pub fn new(stage: Stage, unit: impl Into<String>, detail: impl Into<String>) -> PipelineError {
        PipelineError {
            stage,
            unit: unit.into(),
            variant: None,
            ccm: None,
            detail: detail.into(),
        }
    }

    /// Attaches the (variant, CCM size) coordinates of a measurement.
    pub fn at(mut self, variant: Variant, ccm: u32) -> PipelineError {
        self.variant = Some(variant.short());
        self.ccm = Some(ccm);
        self
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[stage={}] {}", self.stage.name(), self.unit)?;
        if let Some(v) = self.variant {
            write!(f, "/{v}")?;
        }
        if let Some(c) = self.ccm {
            write!(f, " @{c}B")?;
        }
        write!(f, ": {}", self.detail)
    }
}

impl Run {
    /// Records a failure into this run's end-of-run report.
    pub fn record(&self, e: PipelineError) {
        self.failures
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(e);
    }

    /// Drains every recorded failure, sorted (unit, variant, ccm, stage,
    /// detail) so the report is independent of worker scheduling.
    /// Duplicate records (the same failure hit via several experiments)
    /// are collapsed.
    pub fn drain(&self) -> Vec<PipelineError> {
        let mut v = std::mem::take(&mut *self.failures.lock().unwrap_or_else(|p| p.into_inner()));
        v.sort();
        v.dedup();
        v
    }

    /// Fans `items` out over the parallel engine on this run's `jobs`
    /// workers with full containment: an item whose closure returns
    /// `Err` has its [`PipelineError`] [recorded](Run::record), and an
    /// item whose worker *panics* past the closure's own containment is
    /// recorded as a `stage=exec` failure. Either way the item's slot is
    /// `None` and every other item still completes, in index order,
    /// independent of `jobs`. The calling thread's spare interference
    /// matrix is freed at the end ([`regalloc::release_spare_matrix`]):
    /// when the engine ran the items inline (one job or one item), it
    /// holds the largest matrix they built, as a worker does until it
    /// exits with the stage.
    pub fn par_contained<T, U, L, F>(&self, items: &[U], label: L, f: F) -> Vec<Option<T>>
    where
        T: Send,
        U: Sync,
        L: Fn(&U) -> String + Sync,
        F: Fn(&U) -> Result<T, PipelineError> + Sync,
    {
        let results = exec::par_map_contained(self.jobs, items, label, f);
        regalloc::release_spare_matrix();
        results
            .into_iter()
            .map(|r| match r {
                Ok(Ok(v)) => Some(v),
                Ok(Err(e)) => {
                    self.record(e);
                    None
                }
                Err(fail) => {
                    self.record(PipelineError::new(
                        Stage::Exec,
                        fail.label.clone(),
                        format!("worker panic: {}", fail.message),
                    ));
                    None
                }
            })
            .collect()
    }

    /// Fans every cell of a `rows` × `cols` grid out through
    /// [`Run::par_contained`], so each failed cell is recorded once. A
    /// row is `Some`, its cells in column order, only when every cell in
    /// it succeeded: a study that sums a row never sums part of it.
    pub fn par_rows<R, C, T, L, F>(
        &self,
        rows: &[R],
        cols: &[C],
        label: L,
        cell: F,
    ) -> Vec<Option<Vec<T>>>
    where
        R: Sync,
        C: Sync,
        T: Send,
        L: Fn(&R, &C) -> String + Sync,
        F: Fn(&R, &C) -> Result<T, PipelineError> + Sync,
    {
        let items: Vec<(&R, &C)> = rows
            .iter()
            .flat_map(|r| cols.iter().map(move |c| (r, c)))
            .collect();
        let mut cells = self
            .par_contained(&items, |(r, c)| label(r, c), |(r, c)| cell(r, c))
            .into_iter();
        // Take each whole row before folding it: collecting into `Option`
        // stops at the first failed cell.
        let mut row = || cells.by_ref().take(cols.len()).collect::<Vec<_>>();
        rows.iter().map(|_| row().into_iter().collect()).collect()
    }
}

/// Renders the end-of-run failure report as text.
pub fn render_text(errors: &[PipelineError]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "pipeline failures: {}", errors.len());
    for e in errors {
        let _ = writeln!(s, "  {e}");
    }
    s
}

/// Renders the failure report as a JSON array (`--errors-json`).
pub fn render_json(errors: &[PipelineError]) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("[");
    for (i, e) in errors.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\n{{\"stage\":\"{}\",\"unit\":", e.stage.name());
        checker::json_string(&e.unit, &mut s);
        s.push_str(",\"variant\":");
        match e.variant {
            Some(v) => checker::json_string(v, &mut s),
            None => s.push_str("null"),
        }
        s.push_str(",\"ccm\":");
        match e.ccm {
            Some(c) => {
                let _ = write!(s, "{c}");
            }
            None => s.push_str("null"),
        }
        s.push_str(",\"detail\":");
        checker::json_string(&e.detail, &mut s);
        s.push('}');
    }
    s.push_str("\n]\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_all_coordinates() {
        let e = PipelineError::new(Stage::Alloc, "radf5", "injected allocator panic")
            .at(Variant::PostPassCallGraph, 512);
        let s = e.to_string();
        assert!(s.contains("stage=alloc") && s.contains("radf5"));
        assert!(s.contains("Post-Pass w/ Call Graph") || s.contains("@512B"));
    }

    #[test]
    fn sink_drains_sorted_and_deduped() {
        let run = Run::default();
        run.record(PipelineError::new(Stage::Sim, "zzz", "b"));
        run.record(PipelineError::new(Stage::Sim, "aaa", "a"));
        run.record(PipelineError::new(Stage::Sim, "aaa", "a"));
        let got = run.drain();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].unit, "aaa");
        assert!(run.drain().is_empty());
    }

    #[test]
    fn par_rows_drops_exactly_the_rows_with_a_failed_cell() {
        for jobs in [1, 2] {
            let run = Run::new(jobs, sim::DEFAULT_MAX_STEPS);
            let rows = run.par_rows(
                &[0u32, 1, 2],
                &[10u32, 20, 30],
                |r, c| format!("cell {r}/{c}"),
                |&r, &c| {
                    if (r, c) == (1, 20) {
                        Err(PipelineError::new(Stage::Sim, "cell 1/20", "failed"))
                    } else {
                        Ok(r + c)
                    }
                },
            );
            assert_eq!(
                rows,
                [Some(vec![10, 20, 30]), None, Some(vec![12, 22, 32])],
                "jobs={jobs}"
            );
            // The raw sink, not `drain`, which would hide a duplicate.
            let failures = run.failures.lock().unwrap();
            assert_eq!(failures.len(), 1, "jobs={jobs}: {failures:?}");
            assert_eq!(failures[0].unit, "cell 1/20");
        }
    }

    #[test]
    fn a_worker_panic_is_recorded_once_as_stage_exec() {
        for jobs in [1, 2] {
            let run = Run::new(jobs, sim::DEFAULT_MAX_STEPS);
            let cell = |&r: &u32, &c: &u32| {
                if (r, c) == (1, 20) {
                    panic!("cell {r}/{c} blew up");
                }
                Ok(r + c)
            };
            let flat = run.par_contained(
                &[0u32, 1, 2],
                |r| format!("item {r}"),
                |r| cell(r, if *r == 1 { &20 } else { &10 }),
            );
            assert_eq!(flat, [Some(10), None, Some(12)], "jobs={jobs}");
            let rows = run.par_rows(
                &[0u32, 1, 2],
                &[10u32, 20, 30],
                |r, c| format!("cell {r}/{c}"),
                cell,
            );
            assert_eq!(
                rows,
                [Some(vec![10, 20, 30]), None, Some(vec![12, 22, 32])],
                "jobs={jobs}"
            );
            // The raw sink, not `drain`, which would hide a duplicate.
            let failures = run.failures.lock().unwrap();
            let got: Vec<(Stage, &str, &str)> = failures
                .iter()
                .map(|e| (e.stage, e.unit.as_str(), e.detail.as_str()))
                .collect();
            assert_eq!(
                got,
                [
                    (Stage::Exec, "item 1", "worker panic: cell 1/20 blew up"),
                    (Stage::Exec, "cell 1/20", "worker panic: cell 1/20 blew up"),
                ],
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn json_escapes_and_renders_nulls() {
        let e = PipelineError::new(Stage::Checker, "k\"1", "line1\nline2");
        let json = render_json(&[e]);
        assert!(json.contains("\"stage\":\"checker\""));
        assert!(json.contains("k\\\"1"));
        assert!(json.contains("line1\\nline2"));
        assert!(json.contains("\"variant\":null"));
    }
}
