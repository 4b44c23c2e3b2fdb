//! The structured error spine of the compile-and-measure pipeline.
//!
//! Every stage failure — a parse error, an allocator panic, a checker
//! rejection, a simulator trap, a corrupt cache entry, a contained
//! worker panic — becomes a [`PipelineError`] carrying its stage
//! provenance and the (unit, variant, CCM) coordinates of the
//! measurement that failed. Experiment drivers *record* errors into the
//! process-wide [`record`] sink and keep going: the failing row is
//! dropped from the table, every remaining experiment still runs, and
//! `repro` drains the sink at the end of the run into an aggregated
//! report (text on stderr, JSON with `--errors-json`), exiting nonzero
//! only then.
//!
//! The sink is drained in sorted order ([`drain`]), so the end-of-run
//! report is byte-identical at any `--jobs` count even though workers
//! record concurrently.

use std::fmt;
use std::sync::Mutex;

use ccm::Variant;

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
    /// The memoization layer detected a corrupt entry.
    Cache,
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
            Stage::Cache => "cache",
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

fn sink() -> &'static Mutex<Vec<PipelineError>> {
    static SINK: Mutex<Vec<PipelineError>> = Mutex::new(Vec::new());
    &SINK
}

/// Records a failure into the end-of-run report and returns it back (so
/// `record(e)` composes with `.map_err(record)` chains).
pub fn record(e: PipelineError) -> PipelineError {
    sink()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .push(e.clone());
    e
}

/// Drains every recorded failure, sorted (unit, variant, ccm, stage,
/// detail) so the report is independent of worker scheduling. Duplicate
/// records (the same failure hit via several experiments) are collapsed.
pub fn drain() -> Vec<PipelineError> {
    let mut v = std::mem::take(&mut *sink().lock().unwrap_or_else(|p| p.into_inner()));
    v.sort();
    v.dedup();
    v
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

/// Fans `items` out over the parallel engine with full containment:
/// an item whose closure returns `Err` has its [`PipelineError`]
/// [`record`]ed, and an item whose worker *panics* past the closure's
/// own containment is recorded as a `stage=exec` failure. Either way
/// the item's slot is `None` and every other item still completes, in
/// index order, independent of `jobs`.
pub fn par_contained<T, U, L, F>(jobs: usize, items: &[U], label: L, f: F) -> Vec<Option<T>>
where
    T: Send,
    U: Sync,
    L: Fn(&U) -> String + Sync,
    F: Fn(&U) -> Result<T, PipelineError> + Sync,
{
    exec::par_map_contained(jobs, items, label, f)
        .into_iter()
        .map(|r| match r {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                record(e);
                None
            }
            Err(fail) => {
                record(PipelineError::new(
                    Stage::Exec,
                    fail.label.clone(),
                    format!("worker panic: {}", fail.message),
                ));
                None
            }
        })
        .collect()
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
        // The sink is process-global; drain whatever other tests left.
        drain();
        record(PipelineError::new(Stage::Sim, "zzz", "b"));
        record(PipelineError::new(Stage::Sim, "aaa", "a"));
        record(PipelineError::new(Stage::Sim, "aaa", "a"));
        let got = drain();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].unit, "aaa");
        assert!(drain().is_empty());
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
