#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
//! Experiment harness: regenerates every table and figure of the paper.
//!
//! * [`experiments::table1`] — spill-memory compaction (Table 1);
//! * [`experiments::speedup_rows_multi`] — per-routine speedups (Tables 2/3);
//! * [`experiments::table4_from`] — weighted averages (Table 4);
//! * [`experiments::figure`] — whole-program results (Figures 3/4);
//! * [`experiments::ablation`] — §4.3 memory-hierarchy ablation;
//! * [`extensions::ccm_sweep`] / [`extensions::design_ablation`] —
//!   extension studies (CCM sizing curve, design-choice ablations);
//! * [`experiments::check_suite`] — the post-allocation static checker
//!   run across the whole suite (`repro --check`).
//!
//! The `repro` binary prints them: `cargo run --release -p harness -- --all`.
//!
//! Every experiment takes the run as a [`Run`]: the worker count
//! (`--jobs N`, default: available parallelism), the simulator's step
//! budget (`--sim-budget N`), the run's memo ([`cache`]) and its failure
//! sink ([`error`]). Sweep-shaped experiments fan out over the parallel
//! engine in the `exec` crate and read every build, allocation, check
//! and simulation through the memo, which keeps builds and allocations
//! per (unit, [`Setup`]): `repro --all` builds and allocates each unit
//! once per setup instead of once per table, and checks and simulates
//! each distinct module once. Results are collected by
//! work item index, never by completion order: any `--jobs` value
//! produces byte-identical output to `--jobs 1`.

pub mod cache;
pub mod csv;
pub mod error;
pub mod experiments;
pub mod extensions;
pub mod inject_sweep;
pub mod pipeline;
pub mod report;

pub use ccm::Variant;
pub use csv::export_all;
pub use error::{PipelineError, Stage};
pub use experiments::{
    ablation, check_suite, figure, improved_names, speedup_rows_multi, table1, table3, table4_from,
    AblationRow, CheckRow, CompactionRow, SpeedupRow, Table4Cell,
};
pub use extensions::{
    ccm_sweep, design_ablation, multitask_study, render_design, render_multitask, render_sched,
    render_sweep, scheduling_study, DesignRow, MultitaskRow, SchedRow, SweepPoint, SWEEP_SIZES,
};
pub use pipeline::{Measurement, Run, Setup};
