"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Run from the root of a checkout.  Evaluates the package from ./src on
every grid point the workloads draw inputs from, and runs each Monte
Carlo op MC_RUNS times as the benchmark issues it, on seeds the benchmark
never uses.  A Monte Carlo reference is the mean of those runs, with the
standard error of that mean and the spread of one run's value; its own
error is a small fraction of one run's, so the benchmark's |z| gate is not
shifted by an unlucky reference.
Each run's estimates go to stderr as JSON lines.  Writes
perfbench/reference.json.  The values belong to the commit
that defined the benchmark; re-recording them on a later commit would
hide a change in the outputs.
"""

import json
import math
import os
import shutil
import sys
import tempfile

from run import THREAD_VARS  # the script's directory is on sys.path

# the benchmark's own run conditions; the thread counts must be set before
# numpy is imported
for _v in THREAD_VARS:
    os.environ[_v] = "1"
os.environ.pop("EDWARDS1D_SEED", None)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from edwards1d import airy, cli, constants, rate, spectral  # noqa: E402

import workloads as wl  # noqa: E402

# above every seed the benchmark derives, (seed % 10**9) * 1000 + a few hundred
REF_SEED = 10 ** 13
MC_RUNS = 48


def record_deterministic():
    consts = constants.compute_constants(use_cache=False)
    ref = {"constants": consts.as_dict()}
    ref["rate"] = {
        "I": [rate.rate_I_scaled(b, 1.0, consts=consts) for b in wl.B_GRID],
        "dI": [rate.rate_derivative(b, consts=consts) for b in wl.B_GRID],
        "lambda_plus": [rate.lambda_plus(mu, consts=consts) for mu in wl.MU_GRID],
    }
    tab = airy.airy_zeros(wl.ZEROS_K)
    ref["spectral"] = {
        "zeros": tab.zeros.tolist(),
        "aip": tab.aip_at_zeros.tolist(),
        "basis_c": [e.c for e in airy.eigenbasis(wl.GRAM_K)],
        "w": [spectral.w_eval(wl.H161, t).tolist() for t in wl.T_GRID],
        "y": [spectral.y_kernel(wl.H161, a).tolist() for a in wl.A_GRID],
    }
    return ref


def _summary(draws):
    values = [v for v, _ in draws]
    k = len(values)
    mean = sum(values) / k
    se = math.sqrt(sum(se ** 2 for _, se in draws)) / k
    spread = math.sqrt(sum((v - mean) ** 2 for v in values) / (k - 1)) if k > 1 else 0.0
    return [mean, se, spread]


def record_mc():
    out = {}
    for k, (label, argv, pairs) in enumerate(wl.MC_OPS):
        runs = []
        for j in range(MC_RUNS if pairs else 1):
            full = argv + ["--seed", str(REF_SEED + 1000 * j + k)]
            rc, text = wl.run_cli(cli, full)
            if rc not in wl.exit_ok(label):
                raise SystemExit(f"reference run {' '.join(full)} exited {rc}")
            rows = [[[float(r[v]), float(r[se])] for v, se in pairs]
                    for r in wl.parse_csv(text)]
            print(json.dumps({"op": label, "run": j, "rows": rows}), file=sys.stderr)
            runs.append(rows)
        # per (value, se) pair: the mean over the runs, the mean's se and
        # the spread of one run's value
        out[label] = [[_summary([r[i][p] for r in runs]) for p in range(len(pairs))]
                      for i in range(len(runs[0]))]
    return out


def main():
    # a private empty constants cache, as in every benchmark process
    os.makedirs(".perfbench_run", exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="reference-", dir=".perfbench_run")
    os.environ["EDWARDS1D_CONSTANTS_CACHE"] = os.path.join(cache_dir, "constants.csv")
    try:
        ref = record_deterministic()
        ref["mc"] = record_mc()
        ref["mc_runs"] = MC_RUNS
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w") as fh:
        json.dump(ref, fh)


if __name__ == "__main__":
    main()
