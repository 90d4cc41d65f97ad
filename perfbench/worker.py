"""One benchmark process: set-up, then (unless --setup-only) one workload.

Launched by run.py in a fresh interpreter whose environment points
PYTHONPATH at the checkout's src/, the constants cache at an empty private
file and the BLAS/OpenMP pools at one thread.  Set-up is what every user
of the package pays first: importing it and computing the critical
constants cold.  Writes its measurements as JSON to --out.
"""

import argparse
import json
import os
import resource
import sys
import time

LAYER_MODULES = ("airy", "sturm", "constants", "rate", "spectral", "besselsim",
                 "edwardsmc", "cli")
CONST_TOL = 1e-7  # test_constants: pinned values


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="write the traced spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import importlib
    ed = {m: importlib.import_module(f"edwards1d.{m}") for m in LAYER_MODULES}
    tracer = None
    if args.trace:
        import spans as tr  # the script's directory is on sys.path
        tracer = tr.Tracer()
        tr.install(tracer)
        setup_root = tracer.open("setup", "bench")
    consts = ed["constants"].compute_constants()
    setup_end = time.monotonic()
    if tracer:
        tracer.close(setup_root)
    out = {"setup_end": setup_end, "package": ed["constants"].__file__}
    if args.setup_only:
        _write(args.out, out)
        return 0

    import numpy as np
    import workloads as wl

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "reference.json")) as fh:
        ref = json.load(fh)
    failures = []
    got = consts.as_dict()
    bad = {k: (float(got[k]), v) for k, v in ref["constants"].items()
           if not abs(float(got[k]) - v) <= CONST_TOL}
    if bad:
        failures.append(f"constants differ from reference: {bad}")

    scale = args.seconds / wl.NOMINAL_SECONDS
    ops = wl.build(args.workload, ed, ref, consts, args.seed, scale)

    t_body = time.perf_counter()
    body_root = tracer.open("body", tr.BENCH) if tracer else None
    lat, op_failures, ess_per_s = wl.run_ops(ops, tracer)
    if tracer:
        tracer.close(body_root)
    wall = time.perf_counter() - t_body
    failures += op_failures

    out.update({
        "wall_s": wall,
        "latencies_s": lat,
        "kinds": [op.kind for op in ops],
        "attempted": len(ops) + 1,  # the set-up constants are one checked output
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ess_per_s": ess_per_s,
        "numpy": np.__version__,
    })
    if tracer:
        m = tr.layer_metrics(tracer, setup_root, body_root)
        m["edwardsmc.ess_per_s"] = ess_per_s or 0.0
        m["fail_frac"] = len(failures) / out["attempted"]
        out["layers"] = m
        if args.spans:
            tracer.dump(args.spans)
    _write(args.out, out)
    return 0


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main())
