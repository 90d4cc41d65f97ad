"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/baseline.py --runs 10 [--workloads rate-table ...]
                                  [--first-seed 1] [--trace] [--write]

Run from the root of a checkout.  Runs run.py once per seed and workload
(untraced), then prints, for every end-to-end metric, the median, the
quartiles and the spread (q3 - q1) / median next to a third of the
metric's bound.  --trace adds one traced run per workload and reports the
tracing overhead (traced wall_s minus the untraced median).  --write
stores everything, with the machine's description, in
perfbench/baseline.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    worst = 0.0
    for w in args.workloads:
        runs = [run_once(w, args.first_seed + i, seconds, 0) for i in range(args.runs)]
        bad = [d["failures"] for r, d in runs if not r["correct"]]
        entry = {"seeds": [args.first_seed, args.first_seed + args.runs - 1],
                 "end_to_end": {}, "incorrect_runs": len(bad),
                 "ops": runs[0][1]["ops"], "op_tail_pct": runs[0][1]["op_tail_pct"],
                 "threads": runs[0][1]["threads"]}
        ess = [d["ess_per_s"] for _, d in runs if d["ess_per_s"]]
        if ess:
            entry["ess_per_s"] = summarise(ess)
        print(f"{w}: {len(runs)} runs, {len(bad)} incorrect {bad[:2]}")
        for name, bound in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r, _ in runs])
            entry["end_to_end"][name] = s
            if name != "setup_s":
                worst = max(worst, s["spread"] / bound)
            flag = "" if s["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"  {name:12s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  "
                  f"q3 {s['q3']:10.4f}  spread {s['spread']:.4f} (bound/3 "
                  f"{bound / 3:.4f}){flag}\n    " + " ".join(f"{v:.4g}" for v in s["values"]))
        if args.trace:
            traced, detail = run_once(w, args.first_seed, seconds, 1)
            layers = {k: v["value"] for k, v in traced["metrics"].items()}
            wall = entry["end_to_end"]["wall_s"]["median"]
            entry["traced"] = {"seed": args.first_seed, "correct": traced["correct"],
                               "per_layer": layers,
                               "tracing_overhead_s": layers["trace.wall_s"] - wall}
            print(f"  traced: correct {traced['correct']}, gap "
                  f"{layers['trace.gap_frac']:.4f}, overhead "
                  f"{layers['trace.wall_s'] - wall:+.3f} s")
        report["workloads"][w] = entry
    print(f"largest spread / bound, setup_s aside: {worst:.3f}")
    if args.write:
        with open(os.path.join(HERE, "baseline.json"), "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
