"""Peak resident memory of Monte Carlo CLI runs, in the caller and in its workers.

    python3 bench/worker_rss.py [--root DIR] [--runs 3]

Runs each command of COMMANDS in a fresh interpreter with ``DIR/src`` on the
path (DIR defaults to the checkout holding this script) and prints, per
command, the peak resident set of that interpreter (``RUSAGE_SELF``) and of
its largest forked worker (``RUSAGE_CHILDREN``, the peak of the largest
reaped child), both in MB, as the median over the runs, and the same
command's peak under ``taskset -c 0``, where every job runs in the calling
process.  The constants are computed once, into a cache file of a temporary
directory, before the timed runs.  The benchmark's ``peak_rss_mb`` reads
``RUSAGE_SELF`` only, so it does not see the workers.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

COMMANDS = [
    ["polymer", "--T", "1", "--mu", "1"],
    ["rayknight", "--T", "2", "--quintuples", "8", "--n", "8000"],
    ["polymer", "--T", "8", "--n", "40000"],
]

PROBE = """
import contextlib, io, json, resource, sys
from edwards1d import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[1:])
mb = lambda who: resource.getrusage(who).ru_maxrss / 1024.0
print(json.dumps([mb(resource.RUSAGE_SELF), mb(resource.RUSAGE_CHILDREN)]))
"""


def peaks(argv, env, pin):
    cmd = [sys.executable, "-c", PROBE, *argv]
    if pin:
        cmd = ["taskset", "-c", "0", *cmd]
    out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--runs", type=int, default=3)
    args = ap.parse_args(argv)
    tmp = tempfile.mkdtemp(prefix="edwards1d-rss-")
    try:
        env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(args.root), "src"),
                   EDWARDS1D_CONSTANTS_CACHE=os.path.join(tmp, "constants.csv"),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        subprocess.run([sys.executable, "-c",
                        "from edwards1d.constants import compute_constants; "
                        "compute_constants()"], env=env, check=True)
        for command in COMMANDS:
            runs = [peaks(command, env, False) for _ in range(args.runs)]
            pinned = [peaks(command, env, True)[0] for _ in range(args.runs)]
            caller = statistics.median(r[0] for r in runs)
            worker = statistics.median(r[1] for r in runs)
            print(f"{' '.join(command):45s} caller {caller:6.1f} MB  largest worker "
                  f"{worker:6.1f} MB  one process (taskset -c 0) "
                  f"{statistics.median(pinned):6.1f} MB")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
