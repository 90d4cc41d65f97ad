"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Issues a handful of cheap ops through
the same loop the benchmark uses, once as they are and once with one
output perturbed beyond its tolerance, and checks that exactly the
perturbed op is counted as failed.  Does the same for Monte Carlo ops
from recorded output: a value moved by many standard errors, a nonzero
exit status, and the Ray-Knight op's own rules (exit status 1 allowed,
composite_mean gated on the reference runs' spread).  Exits 1 on the
first mismatch.
"""

import json
import os
import random
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from edwards1d import airy, cli, constants, rate, spectral  # noqa: E402

import workloads as wl  # noqa: E402  (the script's directory is on sys.path)


def expect(cond, what):
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        raise SystemExit(1)


def check_outputs():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "reference.json")) as fh:
        ref = json.load(fh)
    ed = {"airy": airy, "rate": rate, "spectral": spectral, "cli": cli}
    consts = constants.compute_constants()
    rng = random.Random(0)
    cheap = ("y_kernel", "green_apply", "heat_evolve")
    ops = [op for op in wl.spectral(ed, ref, consts, rng, 0.2) if op.kind in cheap]
    ops += [op for op in wl.rate_table(ed, ref, consts, rng, 0.2)
            if op.kind == "mgf-curve"][:2]

    _, failures, _ = wl.run_ops(ops)
    expect(not failures, f"{len(ops)} unperturbed ops pass ({failures})")

    victim = ops[len(ops) // 2]
    call = victim.call
    victim.call = lambda: call() * (1.0 + 1e-3) + 1e-3
    _, failures, _ = wl.run_ops(ops)
    expect(len(failures) == 1 and failures[0].startswith(f"{victim.kind} {victim.label}:"),
           f"one perturbed {victim.kind} output counted as one failure: {failures}")

    # Monte Carlo: replay recorded output through the real besq-y op
    label, _, _ = wl.MC_OPS[1]
    ref_rows = ref["mc"][label]
    mc_op = next(op for op in wl.mc_validate(ed, ref, consts, rng, 0.2, 0)
                 if op.kind == label)

    def csv_text(shift):
        lines = ["check,value,target,se,z"]
        for k, ((v, se, _),) in enumerate(ref_rows):
            lines.append(f"r{k},{v + shift * se},0,{se},0")
        return "\n".join(lines) + "\n"

    for rc, shift, bad in ((0, 0.5, False), (0, 12.0, True), (1, 0.0, True)):
        mc_op.call = lambda rc=rc, shift=shift: (rc, csv_text(shift))
        _, failures, _ = wl.run_ops([mc_op])
        expect(len(failures) == int(bad),
               f"MC output {shift} standard errors off, exit status {rc}: "
               f"{'one failure' if bad else 'passes'} ({failures})")

    # Ray-Knight: exit status 1 (its own z gate) passes, 2 does not, and
    # composite_mean is gated on the reference runs' spread
    (direct, composite), = ref["mc"]["rayknight"]
    rk_op = next(op for op in wl.mc_validate(ed, ref, consts, rng, 0.2, 0)
                 if op.kind == "rayknight")

    def rk_text(shift):
        return ("direct_mean,direct_se,composite_mean,composite_se\n"
                f"{direct[0]},{direct[2]},{composite[0] + shift * composite[2]},1e-9\n")

    for rc, shift, bad in ((1, 1.0, False), (2, 0.0, True), (0, 6.0, True)):
        rk_op.call = lambda rc=rc, shift=shift: (rc, rk_text(shift))
        _, failures, _ = wl.run_ops([rk_op])
        expect(len(failures) == int(bad),
               f"Ray-Knight composite {shift} spreads off, exit status {rc}: "
               f"{'one failure' if bad else 'passes'} ({failures})")


def main():
    # a private empty constants cache: the user's own is neither read nor written
    os.makedirs(".perfbench_run", exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="selftest-", dir=".perfbench_run")
    os.environ["EDWARDS1D_CONSTANTS_CACHE"] = os.path.join(cache_dir, "constants.csv")
    try:
        check_outputs()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
