#!/usr/bin/env bash
# Local CI: formatting, lints, then the tier-1 build-and-test gate.
# `./ci.sh lines` runs no gate: it prints the non-test Rust line count
# (scripts/lines.sh) that changes report, parent against change.
set -euo pipefail
cd "$(dirname "$0")"

if [ "${1:-}" = lines ]; then
    exec scripts/lines.sh
fi

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (workspace, warnings are errors)"
# Catches doc comments that link to items which no longer exist.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== tier-1: cargo build --release"
cargo build --release

echo "== perfbench: cargo build --release --locked"
# The benchmark helper is its own Cargo package outside the workspace and
# calls the crates' public API (checker::check_module, sim::run_module,
# ...), so no other stage compiles it. Of ccm it calls exactly the three
# in-place shims kept for it: postpass_promote with PostpassConfig (reading
# the FnPromotion counts it returns), allocate_module_integrated and
# compact_module. The separate target dir leaves perfbench/ untouched,
# and --locked fails rather than rewrite its lockfile. That lockfile also
# records each workspace crate's own dependency list (exec = [inject],
# ...), so any [dependencies] edit to a crate perfbench reaches, directly
# or through another crate, fails this stage until perfbench/Cargo.lock
# is regenerated.
CARGO_TARGET_DIR=target/perfbench cargo build --release --offline --locked \
    --manifest-path perfbench/Cargo.toml

echo "== examples: cargo run --release -q --example NAME"
# Each example asserts that the CCM configurations it builds return what
# the baseline returns; the stages above only compile them.
for example in quickstart spill_promotion from_text cache_pollution; do
    cargo run --release -q --example "$example" > /dev/null
done

echo "== tier-1: cargo test -q"
cargo test -q

echo "== workspace: cargo test -q --workspace"
# Every crate's unit and integration tests, not only the root package's:
# allocator regressions, golden-output snapshots, CLI exit codes, and
# the exec, checker and sim unit tests.
cargo test -q --workspace

echo "== allocators, dataflow, IR and fuzz oracle: cargo test -q --release -p regalloc -p ccm -p iloc -p checker -p analysis -p fuzz"
# The register and CCM allocators', the dataflow core's, the IR's, the
# checker's and the fuzz oracle's unit tests again with optimizations
# on: overflow checks and debug_assert! are off here, so the bit
# matrix's row indexing and
# block transpose, a reused matrix against the per-edge reference build
# (large, small, large on one thread), the flat gen/kill rows of `live`
# and `must` against their per-block reference solvers, the equivalence
# tests against the quadratic reference coloring and the HashSet graph
# model, the sorted first-fit slot search against its offset-by-offset
# reference, the packed register's class and index bits and order, and
# the parser's out-of-range register error must hold without them, and
# so must the fuzz oracle's placement-keyed memo against its reference
# oracle (memo_matches_the_reference_oracle), its run count
# (runs_count_distinct_modules), its caught mutations
# (mutations_are_caught_on_spilling_modules) and the placement key
# against module equality. The checker's negative tests (one report per
# bad register and instruction among them) and the dataflow core's
# allocation bound (a fixed number of heap allocations per solve at 8,
# 64 and 512 blocks) are the root package's, so they run here by name.
cargo test -q --release -p regalloc -p ccm -p iloc -p checker -p analysis -p fuzz
cargo test -q --release --test checker_negative
cargo test -q --release --test dataflow_allocs

echo "== allocation golden: cargo test -q --release --test alloc_golden"
# One digest per allocated unit (64 kernels and 128 fuzz modules, each
# under the default configuration, tiny(3), tiny(5) and the default with
# rematerialization) over the module text and its AllocStats, plus one
# per CCM derivation of each kernel's default allocation (post-pass,
# post-pass with call graph and integrated at 512 and 1024 B, and
# spill-memory compaction) and of each fuzz module's (the three methods
# at 64, 256 and 1024 B): every coloring, spill choice, coalesce and
# CCM or compacted offset, pinned in release mode, where the tables only
# pin aggregates.
cargo test -q --release --test alloc_golden

echo "== engine determinism: cargo test -q --release --test parallel_engine"
# Table 2 and Figure 3 rows at jobs=1 and jobs=4, each side in its own
# harness::Run, so the parallel side computes every build, allocation
# and measurement itself rather than reading the serial side's memo;
# here with optimizations on, as repro runs.
cargo test -q --release --test parallel_engine

echo "== check-and-simulate memo: cargo test -q --release --test memo_reference"
# harness::Run checks and simulates each distinct (module, CCM key) of a
# unit once; this compares every Measurement field and check_suite
# diagnostic of the 64 kernels and 13 programs (four variants, 512 and
# 1024 B) with a reference that checks and simulates every
# configuration itself, with optimizations on, as repro runs.
cargo test -q --release --test memo_reference

echo "== optimizer golden: cargo test -q --release --test opt_golden"
# One digest per optimized unit (64 kernels under their suite options and
# again with LICM, the 13 linked programs, and 128 fuzz modules through
# opt::optimize_module) over the module text and every OptStats field:
# every fold, redundancy and deletion of the scalar pipeline, pinned in
# release mode, where the tables only show what reaches the allocator.
# Each unit is also simulated before and after optimization and must
# return the same values (floats by bits) or trap alike.
cargo test -q --release --test opt_golden

echo "== ALU semantics: cargo test -q --release --test alu_semantics"
# Every integer, float, compare and conversion op on an edge-case grid
# (32-bit bounds, shift counts around 32, immediates past 32 bits, NaN,
# signed zeros, infinities), built so SCCP folds it, peephole rewrites
# it, and LICM may hoist it out of a guarded loop path: the raw and the
# optimized module (default options and LICM) must return the same
# values or trap alike, here with the host's float and integer code
# compiled as repro runs it.
cargo test -q --release --test alu_semantics

echo "== simulator: cargo test -q --release -p sim"
# Every simulator unit test again with overflow checks and debug_assert!
# off. Among them, the block-slice interpreter against its
# per-instruction reference path (`Machine::step_by_step`, compiled only
# into the sim crate's tests): every kernel's baseline allocation and the
# fuzz modules fuzz::case_seed(1, 0..128), raw and allocated, under step
# budgets that end at, just past and inside block slices and inside
# callees, on the default, pipelined-load and cache models, must return
# equal values, full Metrics and traps. The traps, wrapped addresses and
# the main-memory image a dropped machine returns (all zero, the untouched
# gap never cleared) must hold here too.
cargo test -q --release -p sim

echo "== release smoke: repro --table1 --check --jobs 2"
# Exercises the parallel engine end to end in release mode (the unit
# tests above run debug-mode): a table that fills the run's memo with
# every kernel's build and baseline allocation, the full 616-config
# checker sweep deriving each configuration from that allocation once
# (Run::allocated keeps it per unit, setup, variant and CCM size) through
# Run::par_contained, and the strict argument parser, all under a small
# worker count.
cargo run --release -q -p harness --bin repro -- --table1 --check --jobs 2 > /dev/null

echo "== kernels output: repro --table1 --table2 --table3 --table4 --jobs 2"
# The benchmark's kernels workload in release mode: its stdout must
# match the committed expected file byte for byte (the golden tests
# above run a subset of the tables in debug mode). The file is only
# read here.
cargo run --release -q -p harness --bin repro -- --table1 --table2 --table3 --table4 --jobs 2 \
    | diff - perfbench/expected/kernels.out

echo "== programs output: repro --figure3 --figure4 --jobs 2"
# The benchmark's programs workload in release mode: Figures 3 and 4
# over the 13 linked programs must match the committed expected file
# byte for byte (the golden tests cover Figure 3 only). The file is only
# read here.
cargo run --release -q -p harness --bin repro -- --figure3 --figure4 --jobs 2 \
    | diff - perfbench/expected/programs.out

echo "== fuzz output: repro --fuzz 512 --seed 1 --jobs 2"
# The benchmark's fuzz workload in release mode: the 512-case campaign's
# stdout must match the committed expected file byte for byte. The file
# is only read here.
cargo run --release -q -p harness --bin repro -- --fuzz 512 --seed 1 --jobs 2 \
    | diff - perfbench/expected/fuzz-seed1.out

echo "== fuzz output: repro --fuzz 512 --seed 1 --jobs 1"
# The same campaign on one worker: the oracle's per-case memo of
# check+sim runs must leave the report independent of the job count at
# full scale, not only on the 8-case unit test.
cargo run --release -q -p harness --bin repro -- --fuzz 512 --seed 1 --jobs 1 \
    | diff - perfbench/expected/fuzz-seed1.out

echo "== every stage: repro --all at --jobs 1 and --jobs 2"
# crates/harness/tests/golden/extensions.txt pins the ablation, sweep,
# design, scheduling and multitask output (golden_output.rs, debug
# build); no file pins the check output. Racing workers fill the run's
# memos of builds, allocations, derived configurations, checks and
# simulations in any order: the full run's stdout must still be
# byte-identical on one worker and on two.
cargo run --release -q -p harness --bin repro -- --all --jobs 1 > target/repro-all-jobs1.out
cargo run --release -q -p harness --bin repro -- --all --jobs 2 \
    | diff target/repro-all-jobs1.out -

echo "== failure report: repro --all --sim-budget 20000 --errors-json at --jobs 1 and --jobs 2"
# A step budget that many simulations exceed: every stage still runs,
# every failed measurement is recorded, a failed unit drops its table
# row, and a summed study (ablation, sweep, design, scheduling) drops
# each row with a failed cell instead of printing a partial sum. The
# run exits 1 only at the end, after appending the sorted failure report
# to stdout as JSON. Workers record failures in any order, so the whole
# stdout must still be byte-identical on one worker and on two.
for jobs in 1 2; do
    status=0
    cargo run --release -q -p harness --bin repro -- --all --sim-budget 20000 --errors-json \
        --jobs "$jobs" > "target/repro-errors-jobs$jobs.out" \
        2> "target/repro-errors-jobs$jobs.err" || status=$?
    if [ "$status" -ne 1 ]; then
        echo "repro --sim-budget 20000 --jobs $jobs: expected exit 1, got $status" \
            "(stderr in target/repro-errors-jobs$jobs.err)" >&2
        exit 1
    fi
done
diff target/repro-errors-jobs1.out target/repro-errors-jobs2.out

echo "== fuzz smoke: repro --fuzz 64 --seed 1 --jobs 2"
# Fixed-seed differential fuzzing campaign: every generated module must
# produce bit-identical checksums under all allocation variants, pass
# the post-allocation checker, and never run slower than baseline. The
# fixed seed keeps CI deterministic; exit 1 means a minimized
# reproducer was printed — file it under tests/corpus/.
cargo run --release -q -p harness --bin repro -- --fuzz 64 --seed 1 --jobs 2

echo "== inject smoke: repro --inject-sweep --jobs 2"
# Fault-injection sweep in release mode: arm each of the six registered
# fault points in turn and assert the pipeline survives with the
# expected structured failure (degradation with identical output,
# contained allocator and worker panics, checker and simulator errors).
# Exit 1 means a failure path regressed.
cargo run --release -q -p harness --bin repro -- --inject-sweep --jobs 2

echo "== panic containment: fault_injection tests (release)"
# Includes the fixed-seed exec containment test: a deterministic subset
# of work items panics and the failure report must be byte-identical at
# jobs=1, jobs=4, and jobs=9 (the same suite runs debug-mode under
# `cargo test` above).
cargo test -q --release --test fault_injection > /dev/null

echo "== corpus replay"
# Re-run every archived fuzzer finding through the full oracle (the
# same test runs in debug mode under `cargo test` above; this one uses
# the release-built deps for speed and as a second optimization level).
cargo test -q --release --test corpus_replay > /dev/null

echo "CI green."
