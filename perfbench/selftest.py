#!/usr/bin/env python3
"""Self-tests of the benchmark definition.

    python3 perfbench/selftest.py          # static checks of BENCHMARK.json
    python3 perfbench/selftest.py --run    # also run every workload, both modes

Static checks: the key set of BENCHMARK.json, name and unit syntax, names
unique across workloads and metrics, bounds, the `setup_s` metric, that
run.py knows exactly the workloads BENCHMARK.json lists, and that in a
directory holding only BENCHMARK.json and perfbench/ the benchmark exits
non-zero without printing a result. With `--run`, each workload is run
once with `--trace 0` and once with `--trace 1`, and its last stdout line
must carry `correct: true` and every metric of the matching section with
its unit (about four minutes on two cores).
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark itself)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def static_checks(spec):
    errors = []

    def want(cond, msg):
        if not cond:
            errors.append(msg)

    want(
        set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        f"BENCHMARK.json keys: {sorted(spec)}",
    )
    want(spec["command"][:2] == ["python3", "perfbench/run.py"], "command must run perfbench/run.py")
    want(spec["paths"] == ["perfbench"], "paths must be [perfbench]")
    want(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    want(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    names = []
    for w in spec["workloads"]:
        want(set(w) == {"name", "why"}, f"workload keys {sorted(w)}")
        want(len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']}")
        names.append(w["name"])
    want(set(names) == set(run.WORKLOADS), f"run.py workloads {sorted(run.WORKLOADS)} vs {names}")
    for section, keys in (
        ("end_to_end", {"name", "unit", "better", "bound"}),
        ("per_layer", {"name", "unit", "better"}),
    ):
        for m in spec[section]:
            want(set(m) == keys, f"{section} {m.get('name')}: keys {sorted(m)}")
            want(UNIT.match(m["unit"]) is not None, f"unit `{m['unit']}` of {m['name']}")
            want(m["better"] in ("higher", "lower"), f"better of {m['name']}")
            if "bound" in m:
                want(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
            names.append(m["name"])
    for n in names:
        want(NAME.match(n) is not None, f"name `{n}` is not [A-Za-z0-9_.-], <= 64, leading alnum")
    want(len(names) == len(set(names)), f"duplicate names: {sorted({n for n in names if names.count(n) > 1})}")
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    want(
        e2e.get("setup_s", {}).get("unit") == "s" and e2e["setup_s"]["better"] == "lower",
        "setup_s must be an end-to-end metric in s, lower is better",
    )
    want(
        e2e["setup_s"]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
        "setup_s must have the largest bound",
    )
    return errors


def bare_checkout_check(spec):
    """Outside a full checkout (only BENCHMARK.json and perfbench/), the
    benchmark must fail fast without printing a result."""
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    cmd = spec["command"] + [
        "--workload", spec["workloads"][0]["name"], "--seed", "1",
        "--seconds", "1", "--trace", "0",
    ]
    r = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if r.returncode == 0 or r.stdout.strip():
        return [f"bare checkout: exit {r.returncode}, stdout {r.stdout!r}"]
    return []


def run_checks(spec):
    errors = []
    for w in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = spec["command"] + [
                "--workload", w["name"], "--seed", "1",
                "--seconds", "1", "--trace", str(trace),
            ]
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            tag = f"{w['name']} --trace {trace}"
            if r.returncode != 0:
                errors.append(f"{tag}: exit {r.returncode}\n{r.stderr[-2000:]}")
                continue
            res = json.loads(r.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            if got != want:
                errors.append(f"{tag}: metrics/units {got} != {want}")
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{tag}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                errors.append(f"{tag}: {res['attempted']} attempted, {res['failed']} failed")
            print(f"ok {tag}: {len(got)} metrics", file=sys.stderr)
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = static_checks(spec) or bare_checkout_check(spec)
    if not errors and "--run" in sys.argv[1:]:
        errors = run_checks(spec)
    for e in errors:
        print(f"selftest: {e}", file=sys.stderr)
    print("selftest: FAILED" if errors else "selftest: ok", file=sys.stderr)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
