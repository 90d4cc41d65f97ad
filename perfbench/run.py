"""Run one workload of the edwards1d benchmark and print its metrics.

    python3 perfbench/run.py --workload rate-table --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout: it imports the package from ./src.
Each run starts fresh interpreters (worker.py), one client issuing one op
at a time (a closed loop).  SETUP_PROBES of them only set up, which times
set-up several times; one more sets up and runs the workload.  Every process
gets an empty private constants cache and one BLAS/OpenMP thread.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json, or
with ``--trace 1`` its per-layer metrics).  The line before it holds the
run's details.  Exits 2 without a result when it cannot run.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("rate-table", "spectral", "mc-validate")
SETUP_PROBES = 4  # set-up only runs; with the workload's own set-up, 5 samples
DEADLINE_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
COVERAGE_GAP_MAX = 0.02  # share of traced wall time no layer or benchmark span covers
SCRATCH = ".perfbench_run"


class RunError(Exception):
    pass


def tail_latency(lat):
    """Latency at the highest percentile with at least 10 ops beyond it.

    With fewer than 11 ops no percentile has 10 beyond it; the slowest op
    is reported, at percentile 100.
    """
    xs = sorted(lat)
    n = len(xs)
    if n >= 11:
        return xs[n - 11], 100.0 * (n - 10) / n
    return xs[-1], 100.0


def worker_env(root, run_dir):
    env = {k: v for k, v in os.environ.items() if not k.startswith("EDWARDS1D_")}
    env.update({v: "1" for v in THREAD_VARS})
    env.update(PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0", XDG_CACHE_HOME=run_dir)
    return env


def launch(root, run_dir, tag, extra, deadline):
    env = worker_env(root, run_dir)
    env["EDWARDS1D_CONSTANTS_CACHE"] = os.path.join(run_dir, f"{tag}-constants.csv")
    out = os.path.join(run_dir, f"{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--out", out] + extra
    budget = deadline - time.monotonic()
    if budget <= 0:
        raise RunError("out of time before " + tag)
    t0 = time.monotonic()
    try:
        subprocess.run(cmd, env=env, cwd=run_dir, stdout=sys.stderr,
                       timeout=budget, check=True)
    except subprocess.TimeoutExpired:
        raise RunError(f"{tag} did not finish within the {DEADLINE_S:g} s deadline")
    except subprocess.CalledProcessError as exc:
        raise RunError(f"{tag} exited with status {exc.returncode}")
    with open(out) as fh:
        res = json.load(fh)
    src = os.path.join(root, "src") + os.sep
    if not res["package"].startswith(src):
        raise RunError(f"imported {res['package']}, not the checkout's {src}")
    res["setup_s"] = res["setup_end"] - t0
    return res


def measure(args, root):
    os.makedirs(os.path.join(root, SCRATCH), exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, SCRATCH))
    deadline = time.monotonic() + DEADLINE_S
    try:
        def probe(i):
            return launch(root, run_dir, f"probe{i}", ["--setup-only"], deadline)["setup_s"]

        # half the set-up probes before the workload and half after, so the
        # samples straddle the run rather than one stretch of machine load
        setups = [probe(i) for i in range(SETUP_PROBES // 2)]
        extra = ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            out_dir = os.path.join(root, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            extra += ["--spans", os.path.join(
                out_dir, f"spans-{args.workload}-seed{args.seed}.json")]
        res = launch(root, run_dir, "run", extra, deadline)
        setups += [probe(i) for i in range(SETUP_PROBES // 2, SETUP_PROBES)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    res["setup_samples_s"] = setups + [res["setup_s"]]
    return res


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    needed = [os.path.join(root, "src", "edwards1d", "__init__.py"),
              os.path.join(root, "BENCHMARK.json"),
              os.path.join(HERE, "reference.json")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    try:
        res = measure(args, root)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    lat = res["latencies_s"]
    tail_s, tail_pct = tail_latency(lat)
    failures = list(res["failures"])
    if args.trace:
        gap = res["layers"]["trace.gap_frac"]
        if gap > COVERAGE_GAP_MAX:
            failures.append(f"coverage: {gap:.2%} of traced wall time is in no "
                            f"layer span (allowed {COVERAGE_GAP_MAX:.0%})")
        values = res["layers"]
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(res["setup_samples_s"]),
            "wall_s": res["wall_s"],
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_tail_ms": 1e3 * tail_s,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    for f in failures:
        print(f"perfbench: FAILED {f}", file=sys.stderr)

    by_kind = {}
    for kind, dt in zip(res["kinds"], lat):
        by_kind.setdefault(kind, []).append(1e3 * dt)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": len(lat), "op_tail_pct": tail_pct,
        "kind_ms": {k: sorted(v) for k, v in by_kind.items()},
        "setup_samples_s": res["setup_samples_s"],
        "fail_frac": len(res["failures"]) / res["attempted"],
        "ess_per_s": res["ess_per_s"], "failures": failures[:20],
        "threads": {v: "1" for v in THREAD_VARS}, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": res["numpy"],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
