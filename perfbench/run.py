#!/usr/bin/env python3
"""Benchmark of the CCM reproduction: `repro` end to end, plus a traced
per-layer replay.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kernels|programs|fuzz \
        --seed N --seconds S --trace 0|1

The script builds `repro` and the `perfbench` replay helper from source
(into $CARGO_TARGET_DIR, default `.bench_build`), then:

* `--trace 0` times the input set-up (the median of several passes) and
  runs `repro --jobs 2` as a fresh process, timed from outside, until
  `--seconds` have passed (at least once). It reports the medians of wall
  clock, CPU seconds and peak RSS, and the set-up time.
* `--trace 1` runs `repro` once (for the parallel efficiency) and then a
  traced single-threaded replay of the same layer calls, and reports the
  per-layer metrics. Spans go to `.bench_out/spans-<workload>.jsonl`.

Either way the outputs are checked: `repro`'s stdout against the expected
files (or, for a fuzz seed without one, its own failure count and the
generated-instruction count), and in the replay every allocated
configuration against the unit's pre-allocation reference run, the
checker, the work-list size and the numbers `repro` printed. The last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. See perfbench/README.md.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".bench_out")

JOBS = 2
FUZZ_CASES = 512
# The fuzz seed whose full report is committed in expected/.
FUZZ_GOLDEN_SEED = 1
# Suite sizes and the fuzz oracle's CCM sizes x variants: the work list
# `repro` runs. The replay's own counts are checked against these.
KERNELS = 64
PROGRAMS = 13
FUZZ_CONFIGS_PER_CASE = 3 * 4
# Seconds a run may take after the build; every process started after the
# build is killed when they are used up, so a broken build (say, one whose
# fuzz campaign minimizes hundreds of failures) still ends in time.
RUN_BUDGET_S = 165
DEADLINE = None  # set in main() once the build is done

WORKLOADS = {
    "kernels": ["--table1", "--table2", "--table3", "--table4"],
    "programs": ["--figure3", "--figure4"],
    "fuzz": ["--fuzz", str(FUZZ_CASES)],  # plus --seed from the command line
}


def remaining():
    """Seconds left of the run budget (at least one)."""
    return max(1.0, DEADLINE - time.perf_counter())


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


def run_quiet(cmd, **kw):
    """Runs a build step with its output on stderr; exits on failure."""
    r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, **kw)
    if r.returncode != 0:
        fail(f"`{' '.join(cmd)}` failed with exit code {r.returncode}", 1)


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    run_quiet(["cargo", "build", "--release", "--offline", "-p", "harness", "--bin", "repro"], env=env)
    run_quiet(
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        env=env,
    )
    return os.path.join(target, "release", "repro"), os.path.join(target, "release", "perfbench")


def timed_process(cmd, tag):
    """Runs `cmd` with stdout/stderr in files; returns (wall, rusage, exit
    code, stdout bytes, stderr text). rusage comes from wait4, so it is
    this process's alone (the builds are children too)."""
    out_path = os.path.join(OUT, f"{tag}.stdout")
    err_path = os.path.join(OUT, f"{tag}.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=err)
        watchdog = threading.Timer(remaining(), p.kill)
        watchdog.start()
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - start
        watchdog.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        stdout = f.read()
    with open(err_path, "rb") as f:
        stderr = f.read().decode(errors="replace")
    return wall, ru, p.returncode, stdout, stderr


# ---------------------------------------------------------------- checks


def expected_path(workload, seed):
    if workload == "fuzz":
        if seed != FUZZ_GOLDEN_SEED:
            return None
        return os.path.join(HERE, "expected", f"fuzz-seed{seed}.out")
    return os.path.join(HERE, "expected", f"{workload}.out")


def table_rows(text, title):
    """Rows of one table section of `repro --table*` output: name -> cells."""
    rows = {}
    lines = text.splitlines()
    try:
        start = next(i for i, l in enumerate(lines) if l.startswith(title))
    except StopIteration:
        return rows
    for line in lines[start + 2 :]:
        if not line.strip() or line.startswith("(") or line.startswith("TOTAL"):
            break
        cells = line.split()
        rows[cells[0]] = cells[1:]
    return rows


def attempted_configs(workload):
    """Allocation configurations `repro` runs for the workload: one per
    (unit, variant, CCM size) it measures, plus Table 1's allocations.
    `repro` measures the CCM variants only for kernels whose baseline
    spills, so the kernel count depends on the (fixed) spilling set."""
    if workload == "kernels":
        with open(expected_path("kernels", None), encoding="utf-8") as f:
            spilling = len(table_rows(f.read(), "Table 2:"))
        return KERNELS + 2 * KERNELS + 2 * 3 * spilling
    if workload == "programs":
        return PROGRAMS * 4 * 2
    return FUZZ_CASES * FUZZ_CONFIGS_PER_CASE


def check_repro(workload, seed, code, stdout, stderr, setup_instrs, attempted):
    """Failed configurations of one `repro` run, with reasons."""
    failed, why = 0, []
    if code != 0:
        why.append(f"repro exited with {code}")
    m = re.search(r"pipeline failures: (\d+)", stderr)
    if m:
        failed += int(m.group(1))
        why.append(f"pipeline failures: {m.group(1)}")
    text = stdout.decode(errors="replace")
    if workload == "fuzz":
        head = re.search(r"fuzz: (\d+) cases, seed (\d+): (\d+) failure\(s\)", text)
        stats = re.search(r"; (\d+) instrs generated", text)
        if not head or int(head.group(1)) != FUZZ_CASES or int(head.group(2)) != seed:
            return attempted, why + ["fuzz report header missing or wrong"]
        if int(head.group(3)):
            failed += FUZZ_CONFIGS_PER_CASE * int(head.group(3))
            why.append(f"{head.group(3)} fuzz failure(s)")
        if not stats or int(stats.group(1)) != setup_instrs:
            failed += FUZZ_CONFIGS_PER_CASE
            why.append(f"instrs generated != {setup_instrs} built in set-up")
    path = expected_path(workload, seed)
    if path is not None:
        with open(path, "rb") as f:
            want = f.read()
        if stdout != want:
            got_lines, want_lines = stdout.splitlines(), want.splitlines()
            if len(got_lines) != len(want_lines):
                return attempted, why + ["stdout differs from the expected file in length"]
            # Each differing line is a table row or figure line: charge it
            # the four variants of its unit.
            diff = sum(a != b for a, b in zip(got_lines, want_lines))
            failed += 4 * diff
            why.append(f"{diff} stdout line(s) differ from {os.path.relpath(path, ROOT)}")
    if code != 0 and failed == 0:
        failed = attempted
    return min(failed, attempted), why


def check_facts(workload, text, facts, setup_instrs):
    """Compares the replay's own numbers with what `repro` printed.
    Returns (failed configurations, reasons)."""
    failed, why = 0, []

    def mismatch(what, n):
        nonlocal failed
        failed += n
        why.append(what)

    if workload == "kernels":
        t1 = table_rows(text, "Table 1:")
        compacted = {k: v for k, v in facts["table1"].items() if v[1] < v[0]}
        if set(t1) != set(compacted):
            mismatch("Table 1 routines differ from the replay's compactions", 4)
        for name, (before, after) in compacted.items():
            if t1.get(name, [])[:2] != [str(before), str(after)]:
                mismatch(f"Table 1 {name}: repro {t1.get(name)} vs replay {before} {after}", 1)
        m = re.search(r"\((\d+) of (\d+) spilling routines compacted", text)
        if not m or int(m.group(2)) != len(facts["table1"]):
            mismatch("Table 1 spilling-routine count differs from the replay", 4)
        for title, size in (("Table 2:", 512), ("Table 3:", 1024)):
            rows = table_rows(text, title)
            base = facts[f"base{size}"]
            if size == 512 and set(rows) != set(base):
                mismatch("Table 2 routines differ from the replay's spilling set", 4)
            for name, cells in rows.items():
                c = base.get(name)
                if c is None or cells[0] != f"{c[0]}({c[1]})":
                    mismatch(f"{title} {name}: repro {cells[0]} vs replay {c}", 4)
    elif workload == "programs":
        # The figures list only the programs some CCM variant speeds up by
        # at least 0.5%, with their baseline cycles.
        for title, size in (("Figure 3:", 512), ("Figure 4:", 1024)):
            section = text.split(title, 1)[1].split("Figure ", 1)[0] if title in text else ""
            printed = dict(re.findall(r"^(\S+) \(baseline (\d+) cycles\)", section, re.M))
            count = re.search(r"^\d+ of (\d+) programs improved", section, re.M)
            base = facts[f"base{size}"]
            improved = {n for n, c in base.items() if c[2] / max(c[0], 1) < 0.995}
            if not count or int(count.group(1)) != len(base):
                mismatch(f"{title} program count differs from the replay's {len(base)}", 4)
            if set(printed) != improved:
                mismatch(f"{title} improved programs {sorted(printed)} vs replay {sorted(improved)}", 4)
            for name, cycles in printed.items():
                if name in base and cycles != str(base[name][0]):
                    mismatch(f"{title} {name}: repro {cycles} vs replay {base[name][0]}", 4)
    else:
        m = re.search(
            r"baseline spills: (\d+)/\d+ cases; ccm traffic: (\d+)/\d+ cases; (\d+) instrs", text
        )
        got = tuple(map(int, m.groups())) if m else None
        want = (facts["spilling"], facts["ccm_active"], setup_instrs)
        if got != want:
            mismatch(f"fuzz report {got} vs replay (spills, ccm traffic, instrs) {want}", 12)
        if facts["ccm_sizes"] * 4 != FUZZ_CONFIGS_PER_CASE:
            mismatch(f"fuzz oracle runs {facts['ccm_sizes']} CCM sizes, expected 3", 12)
    return failed, why


# ---------------------------------------------------------------- runs


def helper_run(helper, mode, args):
    try:
        return subprocess.run(
            [helper, mode] + args, cwd=ROOT, capture_output=True, text=True, timeout=remaining()
        )
    except subprocess.TimeoutExpired:
        fail(f"`perfbench {mode}` ran out of time", 1)


def helper_args(workload, seed):
    return ["--workload", workload, "--seed", str(seed), "--cases", str(FUZZ_CASES)]


def setup_samples(helper, workload, seed):
    """Seconds of several set-up passes, and the inputs' total instruction
    count."""
    r = helper_run(helper, "setup", helper_args(workload, seed))
    if r.returncode != 0:
        fail(f"set-up failed:\n{r.stderr}", 1)
    s = json.loads(r.stdout)
    return s["samples"], s["instrs"]


def repro_cmd(repro, workload, seed):
    args = list(WORKLOADS[workload])
    if workload == "fuzz":
        args += ["--seed", str(seed)]
    return [repro] + args + ["--jobs", str(JOBS)]


def end_to_end(repro, workload, seed, seconds, setup_instrs, attempted):
    """Runs `repro` until `seconds` have passed (at least once)."""
    walls, cpus, rss, failed, why = [], [], [], 0, []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, ru, code, stdout, stderr = timed_process(repro_cmd(repro, workload, seed), workload)
        walls.append(wall)
        cpus.append(ru.ru_utime + ru.ru_stime)
        rss.append(ru.ru_maxrss / 1024.0)  # KiB on Linux
        f, w = check_repro(workload, seed, code, stdout, stderr, setup_instrs, attempted)
        failed, why = max(failed, f), why + w
    log(f"repro: {len(walls)} run(s), wall {['%.2f' % w for w in walls]} s")
    return walls, cpus, rss, failed, why, stdout.decode(errors="replace")


def layer_summary(m, spans):
    """Logs each (layer, op)'s busy time and share of the replay, its span
    count, median span and the highest percentile with at least ten spans
    beyond it."""
    wall = m["replay.wall_s"]
    log(f"traced replay: {wall:.2f} s, {int(m['trace.spans'])} spans, coverage {m['trace.coverage']:.3f}")
    durs = {}
    with open(spans) as f:
        for line in f:
            s = json.loads(line)
            durs.setdefault(f"{s['layer']}.{s['op']}", []).append(s["dur_ns"] / 1e6)
    for name, d in sorted(durs.items(), key=lambda kv: -sum(kv[1])):
        d.sort()
        n = len(d)
        tail = ""
        top = next((p for p in (99.9, 99, 90) if n * (100 - p) / 100 >= 10), None)
        if top is not None:
            tail = f", p{top:g} {d[int(n * top / 100)]:.3f} ms"
        busy = sum(d) / 1e3
        log(
            f"  {name:<38} {busy:8.3f} s {100 * busy / wall:5.1f}%  "
            f"n={n}, p50 {statistics.median(d):.3f} ms{tail}"
        )


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()

    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if a.workload not in WORKLOADS or a.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload `{a.workload}`")
    for need in ("Cargo.toml", "crates/harness", "crates/suite"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"`{need}` not found: run from the root of a full checkout")
    os.makedirs(OUT, exist_ok=True)

    repro, helper = build()
    global DEADLINE
    DEADLINE = time.perf_counter() + RUN_BUDGET_S
    attempted = attempted_configs(a.workload)

    setup, setup_instrs = setup_samples(helper, a.workload, a.seed)
    if a.trace == 0:
        walls, cpus, rss, failed, why, _ = end_to_end(
            repro, a.workload, a.seed, a.seconds, setup_instrs, attempted
        )
        # A second set-up window after `repro`: the machine's speed drifts
        # over seconds, and one short window would follow that drift.
        setup += setup_samples(helper, a.workload, a.seed)[0]
        log(f"set-up: median of {len(setup)} passes in 2 windows, {setup_instrs} instrs")
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": statistics.median(rss),
        }
        section = "end_to_end"
    else:
        walls, cpus, _, failed, why, text = end_to_end(
            repro, a.workload, a.seed, 0, setup_instrs, attempted
        )
        spans = os.path.join(OUT, f"spans-{a.workload}.jsonl")
        r = helper_run(helper, "trace", helper_args(a.workload, a.seed) + ["--spans", spans])
        if r.returncode != 0:
            fail(f"traced replay failed:\n{r.stderr}", 1)
        rep = json.loads(r.stdout)
        metrics = rep["metrics"]
        layer_summary(metrics, spans)
        replay_failed = rep["failed"]
        why += rep["failures"]
        if rep["configs"] != attempted:
            replay_failed += max(1, abs(rep["configs"] - attempted))
            why.append(f"replay issued {rep['configs']} configurations, repro runs {attempted}")
        f, w = check_facts(a.workload, text, rep["facts"], setup_instrs)
        failed = min(attempted, failed + replay_failed + f)
        why += w
        metrics["exec.parallel_eff"] = cpus[0] / (walls[0] * JOBS)
        metrics["fail_frac"] = failed / attempted
        section = "per_layer"

    for w in why:
        log(f"check failed: {w}")
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(units) != set(metrics):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json", 1)
    result = {
        "correct": failed == 0 and not why,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
