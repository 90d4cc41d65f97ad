"""Paired before/after runs of the edwards1d benchmark, written as BENCH_<topic>.json.

    python3 bench/compare.py --before DIR --after DIR --topic airy

DIR is the root of a checkout (for "before", e.g. one made with
``git archive <commit> | tar -x -C DIR``).  Every workload of the after
checkout's BENCHMARK.json runs at its run_seconds for the ten seeds SEEDS:
the two checkouts run ``perfbench/run.py`` back to back, untraced,
alternating which goes first; then each makes one traced run at the first
seed.  Every run must report ``correct: true``.

The JSON holds, per workload and metric, both sides' values, medians and
quartiles, the number of pairs in which "after" is better, and ``resolved``:
whether "after" is better in at least nine of ten pairs and its median is
better than "before"'s by more than "before"'s quartile gap.  From the traced
runs it holds the per-layer metrics.
"""

import argparse
import importlib.util
import json
import os
import platform
import statistics
import sys

SEEDS = list(range(101, 111))


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
    return {k: v["value"] for k, v in res["metrics"].items()}


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--before", required=True)
    ap.add_argument("--after", required=True)
    ap.add_argument("--topic", required=True)
    args = ap.parse_args(argv)
    out_path = os.path.abspath(f"BENCH_{args.topic}.json")
    roots = {"before": os.path.abspath(args.before), "after": os.path.abspath(args.after)}
    with open(os.path.join(roots["after"], "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    baselines = {side: load_baseline(side, root) for side, root in roots.items()}

    out = {"machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "platform": platform.platform()},
           "run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for wl in (w["name"] for w in spec["workloads"]):
        runs = {"before": [], "after": []}
        for i, seed in enumerate(SEEDS):
            order = ("before", "after") if i % 2 == 0 else ("after", "before")
            for side in order:
                runs[side].append(run(roots[side], baselines[side], wl, seed, seconds, 0))
                print(wl, seed, side, runs[side][-1], file=sys.stderr)
        entry = {side: {m: summarise([r[m] for r in runs[side]]) for m in lower_is_better}
                 for side in runs}
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
        entry["traced"] = {side: run(roots[side], baselines[side], wl, SEEDS[0], seconds, 1)
                           for side in roots}
        out["workloads"][wl] = entry

    with open(out_path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out_path}", file=sys.stderr)


if __name__ == "__main__":
    main()
