#!/usr/bin/env python3
"""Benchmark for the two mini-apps: build, run one workload, check, report.

    python3 perfbench/run.py --workload clamr_amr_l4 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35      # every workload

Run from the repository root. The first call builds the libraries and the
driver with CMake into $CARGO_TARGET_DIR (default .bench_build). The driver
repeats the workload for --seconds and prints one JSON line per repeat;
this script turns those into medians and quartiles, runs the correctness
checks on every repeat, prints a table, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (from traced repeats, alternated with untraced ones).
See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("clamr_amr_l4", "clamr_dist_512", "self_bubble_ckpt")
# Whole runs must finish inside this many seconds (build excluded).
RUN_LIMIT_S = 170.0

# Correctness bounds, by storage precision. Conservation: relative drift of
# the conserved integral over one solve. Line-cut: relative L2 distance to
# the committed reference, sqrt(machine epsilon) of the storage type, so a
# reordering that keeps accuracy passes and a real loss of digits does not.
CONSERVATION_BOUND = {"float": 1e-5, "double": 1e-12}
LINECUT_TOL = {"float": math.sqrt(2.0 ** -23), "double": math.sqrt(2.0 ** -52)}
CHECKS = {
    "clamr_amr_l4": ("conservation", "linecut"),
    "clamr_dist_512": ("conservation", "linecut", "comm_drained"),
    "self_bubble_ckpt": ("conservation", "linecut", "restart"),
}

E2E = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("step_p50_ms", "ms"),
    ("step_p95_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("checkpoint_mib", "MiB"),
    ("mass_drift_rel", "1"),
)

# Per-layer metrics: every traced run prints all of them; a layer that does
# no work on a workload reads 0 there (see README.md, "Layer map").
LAYERS = (
    ("shallow.plain_step_ms", "ms"),
    ("shallow.flux_sweep_s", "s"),
    ("shallow.finite_diff_s", "s"),
    ("shallow.cfl_s", "s"),
    ("shallow.finite_diff_gbs", "GB/s"),
    ("shallow.finite_diff_gflops", "GFLOP/s"),
    ("shallow.finite_diff_triad_share", "1"),
    ("shallow.flop_per_byte", "flop/B"),
    ("shallow.cells_mean", "count"),
    ("mesh.rezone_step_ms", "ms"),
    ("mesh.rezone_extra_ms", "ms"),
    ("mesh.rezone_flags_s", "s"),
    ("mesh.rezone_adapt_s", "s"),
    ("mesh.rezone_remap_s", "s"),
    ("mesh.rezone_cache_s", "s"),
    ("mesh.resolved_share", "1"),
    ("mesh.cells_touched", "count"),
    ("par.step_ms", "ms"),
    ("par.post_s", "s"),
    ("par.precompute_s", "s"),
    ("par.interior_s", "s"),
    ("par.wait_s", "s"),
    ("par.boundary_s", "s"),
    ("par.imbalance_share", "1"),
    ("par.halo_mib", "MiB"),
    ("par.dist_update_gbs", "GB/s"),
    ("par.dist_update_gflops", "GFLOP/s"),
    ("par.dist_update_triad_share", "1"),
    ("sem.volume_s", "s"),
    ("sem.surface_s", "s"),
    ("sem.filter_s", "s"),
    ("sem.rk_s", "s"),
    ("sem.cfl_s", "s"),
    ("sem.volume_gbs", "GB/s"),
    ("sem.volume_gflops", "GFLOP/s"),
    ("sem.volume_triad_share", "1"),
    # Side by side: the stall counter misses what a background write costs
    # the steps it overlaps.
    ("sem.clean_step_ms", "ms"),
    ("io.overlap_step_ms", "ms"),
    ("io.stall_s", "s"),
    ("io.checkpoint_call_ms", "ms"),
    ("io.writer_busy_s", "s"),
    ("io.drain_s", "s"),
    ("io.restart_read_s", "s"),
    ("compress.ratio", "1"),
    ("obs.trace_overhead_share", "1"),
    ("obs.trace_dropped", "count"),
    ("host.triad_gbs", "GB/s"),
    ("host.triad_array_mib", "MiB"),
    ("host.llc_mib", "MiB"),
    ("layer_s", "s"),
    ("traced_wall_s", "s"),
    ("residual_share", "1"),
)
# Computed kernel rates divided by the host triad ceiling.
TRIAD_SHARES = (
    ("shallow.finite_diff_triad_share", "shallow.finite_diff_gbs"),
    ("par.dist_update_triad_share", "par.dist_update_gbs"),
    ("sem.volume_triad_share", "sem.volume_gbs"),
)


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return target


def build():
    """Configure (once) and build the driver; return its path."""
    bdir = os.path.join(build_dir(), "perfbench")
    os.makedirs(bdir, exist_ok=True)
    build_log = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(build_log, "a") as out:
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                shutil.rmtree(os.path.join(bdir, "CMakeFiles"), ignore_errors=True)
                cache = os.path.join(bdir, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                raise BenchError("cmake configure failed; see " + build_log)
        cmd = ["cmake", "--build", bdir, "--target", "perfbench_driver", "-j", jobs]
        if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
            raise BenchError("build failed; see " + build_log)
    exe = os.path.join(bdir, "perfbench_driver")
    if not os.path.exists(exe):
        raise BenchError("driver missing after build: " + exe)
    return exe


# ---------------------------------------------------------------------------
# Running


def run_driver(exe, args, timeout):
    try:
        proc = subprocess.run(
            [exe] + args,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("driver timed out: " + " ".join(args))
    if proc.returncode != 0:
        raise BenchError(
            "driver failed (%d): %s" % (proc.returncode, proc.stderr.strip())
        )
    records = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    if not records:
        raise BenchError("driver printed no records")
    return records


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def stat(values):
    q1, med, q3 = quartiles(values)
    return {
        "value": med,
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def load_reference(workload, size):
    path = os.path.join(HERE, "reference", "%s.%s.txt" % (workload, size))
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return [float(line) for line in f if line.strip()]


def rel_l2(cut, ref):
    num = sum((a - b) ** 2 for a, b in zip(cut, ref))
    den = sum(b * b for b in ref)
    return math.sqrt(num / den) if den > 0 else math.inf


def check_repeat(workload, rec, ref):
    """Every correctness check of one repeat: name -> (ok, detail)."""
    out = {}
    storage = rec["storage"]
    drift = rec["mass_drift_rel"]
    bound = CONSERVATION_BOUND[storage]
    out["conservation"] = (
        drift is not None and drift <= bound,
        "drift %.3g, bound %.3g" % (drift if drift is not None else math.nan, bound),
    )
    if ref is None:
        out["linecut"] = (False, "no committed reference")
    elif len(ref) != len(rec["cut"]):
        out["linecut"] = (False, "reference has %d points, cut %d" % (len(ref), len(rec["cut"])))
    else:
        err = rel_l2(rec["cut"], ref)
        tol = LINECUT_TOL[storage]
        out["linecut"] = (err <= tol, "rel L2 %.3g, tolerance %.3g" % (err, tol))
    raw = rec.get("checks", {})
    if "comm_drained" in raw:
        out["comm_drained"] = (raw["comm_drained"] is True, "comm_drained() = %s" % raw["comm_drained"])
    if "restart" in raw:
        r = raw["restart"]
        ok = r["same_step"] and all(
            e is not None and e <= b for e, b in zip(r["max_abs_err"], r["bound"])
        )
        worst = max(
            (e / b if b > 0 else math.inf) if e is not None else math.inf
            for e, b in zip(r["max_abs_err"], r["bound"])
        )
        out["restart"] = (ok, "max err/bound %.3g" % worst)
    for name in CHECKS[workload]:
        if name not in out:
            out[name] = (False, "did not run")
    return out


def measure(exe, workload, seconds, trace, size, deadline):
    out_dir = os.path.join(build_dir(), "perfbench-out", workload)
    os.makedirs(out_dir, exist_ok=True)
    triad = None
    if trace:
        triad = run_driver(exe, ["--triad"], max(10.0, deadline - time.time()))[-1]
    records = run_driver(
        exe,
        ["--workload", workload, "--seconds", repr(seconds), "--trace",
         "1" if trace else "0", "--size", size, "--out", out_dir],
        max(10.0, deadline - time.time()),
    )
    repeats = [r for r in records if r.get("type") == "repeat"]
    final = [r for r in records if r.get("type") == "final"]
    if not repeats or not final:
        raise BenchError("driver output incomplete")
    final = final[-1]

    ref = load_reference(workload, size)
    checks = {}
    for rec in repeats:
        for name, (ok, detail) in check_repeat(workload, rec, ref).items():
            c = checks.setdefault(name, {"attempted": 0, "failed": 0, "detail": ""})
            c["attempted"] += 1
            if not ok:
                c["failed"] += 1
                c["detail"] = detail
            elif not c["detail"]:
                c["detail"] = detail
    if trace:
        dropped = final["trace_dropped"]
        checks["trace_dropped"] = {
            "attempted": 1,
            "failed": 0 if dropped == 0 else 1,
            "detail": "%d events dropped" % dropped,
        }

    if trace:
        metrics = layer_metrics(repeats, final, triad)
    else:
        metrics = e2e_metrics(repeats, final)
    return metrics, checks, repeats


def e2e_metrics(repeats, final):
    # Step percentiles are taken within each repeat (every full-size repeat
    # has at least 200 steps, so at least ten lie beyond its p95) and the
    # run reports their median over repeats, like every other timing: a
    # few repeats hit by a noisy neighbour then cannot drag the figure.
    p50 = [percentile(r["step_ms"], 50) for r in repeats]
    p95 = [percentile(r["step_ms"], 95) for r in repeats]
    steps = sum(len(r["step_ms"]) for r in repeats)
    return {
        "wall_s": stat([r["wall_s"] for r in repeats]),
        "setup_s": stat([r["setup_s"] for r in repeats]),
        "step_p50_ms": dict(stat(p50), steps=steps),
        "step_p95_ms": dict(stat(p95), steps=steps),
        "peak_rss_mib": stat([final["peak_rss_mib"]]),
        "checkpoint_mib": stat([r["checkpoint_mib"] for r in repeats]),
        "mass_drift_rel": stat([r["mass_drift_rel"] for r in repeats]),
    }


def percentile(values, p):
    """Linear-interpolation percentile (statistics.quantiles, inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def layer_metrics(repeats, final, triad):
    traced = [r for r in repeats if r["traced"]]
    untraced = [r for r in repeats if not r["traced"]]
    names = {name for name, _ in LAYERS}
    m = {}
    for name in names:
        vals = [r["layers"].get(name) for r in traced if name in r["layers"]]
        if vals:
            m[name] = stat(vals)
    traced_wall = [r["wall_s"] for r in traced]
    m["traced_wall_s"] = stat(traced_wall)
    m["residual_share"] = stat([1.0 - r["layers"]["layer_s"] / r["wall_s"] for r in traced])
    m["obs.trace_overhead_share"] = stat(
        [t["wall_s"] / u["wall_s"] - 1.0 for u, t in zip(untraced, traced)]
    )
    m["obs.trace_dropped"] = stat([final["trace_dropped"]])
    m["host.triad_gbs"] = stat([triad["triad_gbs"]])
    m["host.triad_array_mib"] = stat([triad["array_mib"]])
    m["host.llc_mib"] = stat([triad["llc_mib"]])
    for share, rate in TRIAD_SHARES:
        if rate in m:
            m[share] = stat([r["layers"][rate] / triad["triad_gbs"] for r in traced])
    for name in names:
        # The layer does no work on this workload.
        m.setdefault(name, {"value": 0.0, "q1": 0.0, "q3": 0.0, "n": len(traced)})
    return m


# ---------------------------------------------------------------------------
# Output


def print_table(workload, trace, metrics, checks, units):
    kind = "per-layer (traced)" if trace else "end-to-end"
    print("== %s: %s metrics ==" % (workload, kind))
    print("%-34s %-8s %14s %14s %14s %7s" % ("metric", "unit", "median", "q1", "q3", "n"))
    for name, unit in units:
        s = metrics[name]
        print("%-34s %-8s %14.6g %14.6g %14.6g %7d" % (name, unit, s["value"], s["q1"], s["q3"], s["n"]))
    if trace:
        print("(*_gbs and *_gflops are computed from the ledger's array-size "
              "byte and flop counts; every working set fits in the LLC)")
    attempted = sum(c["attempted"] for c in checks.values())
    failed = sum(c["failed"] for c in checks.values())
    print("%-34s %-8s %14.6g %14s %14s %7d" % (
        "failed_share", "1", failed / attempted if attempted else 1.0, "", "", attempted))
    for name, c in sorted(checks.items()):
        print("check %-20s %3d/%-3d passed  %s" % (
            name, c["attempted"] - c["failed"], c["attempted"], c["detail"]))


def one(exe, args, workload, deadline):
    trace = args.trace == 1
    metrics, checks, repeats = measure(exe, workload, args.seconds, trace, args.size, deadline)
    units = LAYERS if trace else E2E
    print_table(workload, trace, metrics, checks, units)
    attempted = sum(c["attempted"] for c in checks.values())
    failed = sum(c["failed"] for c in checks.values())
    detail = {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "repeats": len(repeats),
        "metrics": {n: dict(metrics[n], unit=u) for n, u in units},
        "checks": checks,
        "failed_share": failed / attempted if attempted else 1.0,
    }
    print("perfbench-detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n]["value"], "unit": u} for n, u in units},
    }
    return result


def write_reference(exe, workload, size, deadline):
    out_dir = os.path.join(build_dir(), "perfbench-out", workload)
    os.makedirs(out_dir, exist_ok=True)
    records = run_driver(
        exe,
        ["--workload", workload, "--seconds", "0.001", "--trace", "0",
         "--size", size, "--out", out_dir],
        max(10.0, deadline - time.time()),
    )
    cut = records[0]["cut"]
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    path = os.path.join(HERE, "reference", "%s.%s.txt" % (workload, size))
    with open(path, "w") as f:
        for v in cut:
            f.write("%r\n" % v)
    log("wrote %s (%d points)" % (path, len(cut)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1,
                    help="echoed in the detail line; the workloads are fixed "
                         "scenarios with no random inputs")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is the smoke-test size")
    ap.add_argument("--write-reference", action="store_true",
                    help="regenerate the committed line-cut reference")
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    try:
        exe = build()
        deadline = time.time() + RUN_LIMIT_S
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        if args.write_reference:
            for w in workloads:
                write_reference(exe, w, args.size, deadline)
            return 0
        results = []
        for w in workloads:
            limit = deadline if len(workloads) == 1 else time.time() + RUN_LIMIT_S
            results.append(one(exe, args, w, limit))
    except BenchError as e:
        log("perfbench: " + str(e))
        return 1
    if len(results) == 1:
        result = results[0]
    else:
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                "%s/%s" % (w, n): v
                for w, r in zip(workloads, results)
                for n, v in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
