#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at the tiny problem size.

    python3 perfbench/smoke_test.py

For every workload it makes one untraced and one traced run of run.py at
--size tiny and checks that
  * the result line holds every end-to-end (untraced) or per-layer (traced)
    metric of BENCHMARK.json, by name, with the unit BENCHMARK.json gives;
  * the table prints each of those metrics with its sample count, and
    failed_share;
  * every correctness check of the workload ran on every repeat (and the
    trace_dropped check in traced runs), and none failed.
Exits nonzero on the first run that breaks one of these.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (CHECKS: the checks each workload must run)


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def smoke(spec, workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900,
    )
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        fail("%s exited %d: %s" % (where, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (where, sorted(result)))
    detail = None
    for line in lines:
        if line.startswith("perfbench-detail "):
            detail = json.loads(line[len("perfbench-detail "):])
    if detail is None:
        fail("%s: no detail line" % where)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        fail("%s: metrics %s differ from BENCHMARK.json" % (where, sorted(result["metrics"])))
    for m in wanted:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            fail("%s: %s reads %s" % (where, m["name"], got))
        d = detail["metrics"][m["name"]]
        if d["n"] < 1 or not all(k in d for k in ("q1", "q3", "value")):
            fail("%s: %s has no quartiles or sample count" % (where, m["name"]))
        row = [l.split() for l in lines if l.split()[:1] == [m["name"]]]
        if not row or row[0][1] != m["unit"] or int(row[0][-1]) != d["n"]:
            fail("%s: table row for %s missing or without its sample count" % (where, m["name"]))
    if not any(l.split()[:1] == ["failed_share"] for l in lines):
        fail("%s: failed_share not printed" % where)

    expected = list(run.CHECKS[workload]) + (["trace_dropped"] if trace else [])
    repeats = detail["repeats"]
    for name in expected:
        c = detail["checks"].get(name)
        want = 1 if name == "trace_dropped" else repeats
        if c is None or c["attempted"] != want:
            fail("%s: check %s ran %s times, expected %d" % (where, name, c and c["attempted"], want))
        if c["failed"]:
            fail("%s: check %s failed: %s" % (where, name, c["detail"]))
    if not result["correct"] or result["failed"] != 0:
        fail("%s: result not correct" % where)
    print("ok   %-18s trace=%d  %d repeats, %d checks" % (workload, trace, repeats, result["attempted"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if tuple(names) != run.WORKLOADS:
        fail("BENCHMARK.json workloads %s differ from run.py %s" % (names, run.WORKLOADS))
    for workload in names:
        for trace in (0, 1):
            smoke(spec, workload, trace)
    print("smoke test passed")


if __name__ == "__main__":
    main()
