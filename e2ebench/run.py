#!/usr/bin/env python3
"""End-to-end benchmark of the VersaSlot simulator.

    python3 e2ebench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]

--seconds defaults to BENCHMARK.json's run_seconds and --trace to 0.

Builds the driver (e2ebench/CMakeLists.txt, over ../src) into
.bench_build/e2ebench, then runs the named workload again and again for
--seconds, each run in its own child process, and prints one JSON object as
the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
taken from untraced runs; with --trace 1 they are the per-layer metrics,
taken from traced runs interleaved with untraced ones. Every run passes the
correctness gate (conservation, phase sums, determinism, reference digests
and, on paper_grid, the committed Fig 5 means) or counts as failed.
See e2ebench/README.md for the workloads and the metric map.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
OUT = ROOT / ".bench_build" / "e2ebench-out"
DRIVER = BUILD / "vs_e2e"
WORKLOADS = ("paper_grid", "serve_fleet", "cluster_chaos", "long_steady")
CHILD_TIMEOUT_S = 30
RUN_DEADLINE_S = 90    # stop starting runs after this, whatever --seconds says
MIN_REPS = 3           # untraced runs per invocation, at least
MIN_TRACED_REPS = 2    # traced runs per --trace 1 invocation, at least


class SetupError(Exception):
    """The benchmark cannot run here (missing sources, failed build)."""


def parse_args(argv):
    p = argparse.ArgumentParser(
        description="VersaSlot simulator end-to-end benchmark",
        allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be a non-negative integer")
    if args.seconds is not None and not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def load_references():
    with open(HERE / "reference_digests.json") as f:
        return json.load(f)


def build(log):
    """Configures (once) and builds the driver; build output goes to `log`."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SetupError(f"simulator sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise SetupError("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            raise SetupError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", str(BUILD), "-j", jobs],
                       stdout=log, stderr=log) != 0:
        raise SetupError("build failed")


def run_child(args, log):
    """Runs the driver once in its own process. Returns (record, error)."""
    proc = subprocess.Popen([str(DRIVER)] + args, stdout=subprocess.PIPE,
                            stderr=log, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "timed out"
    if proc.returncode != 0:
        how = (f"killed by signal {-proc.returncode}" if proc.returncode < 0
               else f"exit code {proc.returncode}")
        return None, how
    try:
        record = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, "no result line"
    if record.get("gate_errors"):
        return record, "; ".join(record["gate_errors"])
    return record, None


def median(values):
    return statistics.median(values) if values else 0.0


def run_benchmark(workload, seed, seconds, trace, tiny=False,
                  references=None, min_reps=MIN_REPS, log=None):
    """Runs one benchmark invocation; returns the result object."""
    spec = load_spec()
    if references is None:
        # Reference digests are for the full-size inputs.
        references = {} if tiny else load_references()
    OUT.mkdir(parents=True, exist_ok=True)
    if log is None:
        log = open(OUT / f"{workload}.log", "w")
    build(log)

    base = ["--workload", workload, "--seed", str(seed),
            "--out", str(OUT / workload)] + (["--tiny"] if tiny else [])
    expected = references.get(workload, {}).get(str(seed))
    attempted = failed = 0
    errors = []
    plain, traced = [], []
    digest = None

    def fail(what):
        nonlocal failed
        failed += 1
        errors.append(what)

    if workload == "paper_grid" and not tiny:
        attempted += 1
        _, err = run_child(["--fig5-check",
                            str(ROOT / "fig5_response_time.csv")], log)
        if err:
            fail(f"fig5 subset: {err}")

    start = time.monotonic()
    i = 0
    while True:
        want_trace = trace and i % 2 == 1
        i += 1
        attempted += 1
        record, err = run_child(base + (["--trace"] if want_trace else []),
                                log)
        if err is None:
            if expected is not None and record["digest"] != expected:
                err = (f"digest {record['digest']} != reference "
                       f"{expected} for seed {seed}")
            elif digest is not None and record["digest"] != digest:
                err = f"digest {record['digest']} != earlier run {digest}"
        if err is not None:
            fail(("traced " if want_trace else "") + err)
        else:
            digest = digest or record["digest"]
            (traced if want_trace else plain).append(record)
        enough = len(plain) >= min_reps and (
            not trace or len(traced) >= MIN_TRACED_REPS)
        elapsed = time.monotonic() - start
        if (elapsed >= seconds and (enough or i >= 2 * min_reps)) or \
                elapsed >= RUN_DEADLINE_S:
            break

    if trace:
        metrics = per_layer_metrics(spec, plain, traced, errors)
    else:
        metrics = end_to_end_metrics(spec, plain, attempted, failed)
    for e in errors:
        print(f"[{workload}] failed run: {e}", file=sys.stderr)
    return {"correct": failed == 0 and not errors, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def end_to_end_metrics(spec, plain, attempted, failed):
    first = plain[0] if plain else {}
    values = {
        "wall_s": median([r["wall_s"] for r in plain]),
        "cpu_s": median([r["cpu_s"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        "setup_s": median([r["setup_s"] for r in plain]),
        "sim_response_mean_ms": first.get("response_mean_ms", 0.0),
        "sim_response_p99_ms": first.get("response_p99_ms", 0.0),
        "ok_run_frac": (attempted - failed) / attempted,
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def per_layer_metrics(spec, plain, traced, errors):
    names = [m["name"] for m in spec["per_layer"]]
    driver_names = set(traced[0]["layers"]) if traced else set()
    if traced and driver_names != set(names) - {"bench.trace_overhead_frac"}:
        errors.append("driver layer metrics differ from BENCHMARK.json: "
                      + ", ".join(sorted(driver_names ^ set(names))))
    values = {n: median([r["layers"][n] for r in traced if n in r["layers"]])
              for n in names}
    untraced_wall = median([r["wall_s"] for r in plain])
    traced_wall = median([r["wall_s"] for r in traced])
    values["bench.trace_overhead_frac"] = (
        traced_wall / untraced_wall - 1 if untraced_wall > 0 else 0.0)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]}


def main(argv):
    args = parse_args(argv)
    try:
        seconds = args.seconds or load_spec()["run_seconds"]
        result = run_benchmark(args.workload, args.seed, seconds,
                               bool(args.trace))
    except (SetupError, OSError, ValueError) as e:
        print(f"e2ebench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
