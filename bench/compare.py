"""Paired before/after runs of the edwards1d benchmark, written as BENCH_<topic>.json.

    python3 bench/compare.py --before DIR --after DIR --topic airy
        [--first-seed 101] [--workload mc-validate]

DIR is the root of a checkout (for "before", e.g. one made with
``git archive <commit> | tar -x -C DIR``).  First each checkout's ``src/``,
``perfbench/``, ``BENCHMARK.json`` and ``pyproject.toml`` are copied, without
``__pycache__``, ``.perfbench_run`` or ``.perfbench_out``, into two sibling
directories of one temporary directory, and the runs use those copies: the
two sides then always run from the same kind of location, also with
``--after .`` (run in place, the working checkout read a few percent slower
than the same tree elsewhere).  Every workload of BENCHMARK.json (or the one
named by --workload) runs at its run_seconds for ten consecutive seeds from
--first-seed (101; a claim is re-checked on seeds no earlier comparison
used): the two copies run ``perfbench/run.py``
back to back, untraced, alternating which goes first; then each makes one
traced run at the first seed.  Every run must report ``correct: true``.

The JSON holds, per workload and metric, both sides' values, medians and
quartiles; per kind of operation, the median and quartiles over the runs of
each run's median latency (``kind_ms``); the number of pairs in which "after"
is better, and ``resolved``: whether "after" is better in at least nine of ten pairs and its median is
better than "before"'s by more than "before"'s quartile gap.  From the traced
runs it holds the per-layer metrics.
"""

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile

STAGED = ("src", "perfbench", "BENCHMARK.json", "pyproject.toml")
UNSTAGED = shutil.ignore_patterns("__pycache__", ".perfbench_run", ".perfbench_out")


def stage(root, dest):
    """Copy what a benchmark run uses from checkout ``root`` into ``dest``."""
    os.makedirs(dest)
    for name in STAGED:
        path = os.path.join(root, name)
        if os.path.isdir(path):
            shutil.copytree(path, os.path.join(dest, name), ignore=UNSTAGED)
        else:
            shutil.copy2(path, dest)
    return dest


def load_baseline(side, root):
    """The baseline module of a checkout; its run_once runs that checkout."""
    spec = importlib.util.spec_from_file_location(
        f"baseline_{side}", os.path.join(root, "perfbench", "baseline.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def run(root, baseline, workload, seed, seconds, trace):
    os.chdir(root)  # run.py imports the package from ./src
    res, detail = baseline.run_once(workload, seed, seconds, trace)
    if not res["correct"]:
        raise SystemExit(f"{workload} seed {seed} in {root} is not correct: "
                         f"{detail['failures']}")
    return ({k: v["value"] for k, v in res["metrics"].items()},
            {k: statistics.median(v) for k, v in detail["kind_ms"].items()})


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--before", required=True)
    ap.add_argument("--after", required=True)
    ap.add_argument("--topic", required=True)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workload")
    args = ap.parse_args(argv)
    seeds = list(range(args.first_seed, args.first_seed + 10))
    out_path = os.path.abspath(f"BENCH_{args.topic}.json")
    with tempfile.TemporaryDirectory(prefix="edwards1d-compare-") as tmp:
        roots = {side: stage(os.path.abspath(getattr(args, side)), os.path.join(tmp, side))
                 for side in ("before", "after")}
        out = compare(roots, seeds, args.workload)
        os.chdir(os.path.dirname(out_path))  # leave the copies before they go
    with open(out_path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out_path}", file=sys.stderr)


def compare(roots, seeds, only=None):
    """Paired runs of both staged checkouts; the BENCH_<topic>.json content."""
    with open(os.path.join(roots["after"], "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    baselines = {side: load_baseline(side, root) for side, root in roots.items()}

    out = {"machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "platform": platform.platform()},
           "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for wl in (w["name"] for w in spec["workloads"] if only in (None, w["name"])):
        runs = {"before": [], "after": []}
        kinds = {"before": [], "after": []}
        for i, seed in enumerate(seeds):
            order = ("before", "after") if i % 2 == 0 else ("after", "before")
            for side in order:
                metrics, kind_ms = run(roots[side], baselines[side], wl, seed, seconds, 0)
                runs[side].append(metrics)
                kinds[side].append(kind_ms)
                print(wl, seed, side, metrics, file=sys.stderr)
        entry = {side: {m: summarise([r[m] for r in runs[side]]) for m in lower_is_better}
                 for side in runs}
        entry["kind_ms"] = {side: {k: summarise([r[k] for r in kinds[side]])
                                   for k in kinds[side][0]} for side in kinds}
        entry["after_better_pairs"] = {}
        entry["resolved"] = {}
        for m, lower in lower_is_better.items():
            sign = 1.0 if lower else -1.0
            pairs = sum(sign * (a[m] - b[m]) < 0.0
                        for a, b in zip(runs["after"], runs["before"]))
            b, a = entry["before"][m], entry["after"][m]
            entry["after_better_pairs"][m] = pairs
            entry["resolved"][m] = bool(
                pairs >= 9 and sign * (b["median"] - a["median"]) > b["q3"] - b["q1"])
        entry["traced"] = {side: run(roots[side], baselines[side], wl, seeds[0], seconds, 1)[0]
                           for side in roots}
        out["workloads"][wl] = entry
    return out


if __name__ == "__main__":
    main()
