"""Bit-for-bit comparison of the Monte Carlo and rate-layer outputs of two checkouts.

    python3 bench/mc_identity.py --before DIR --after DIR

DIR is the root of a checkout (for "before", e.g. one made with
``git archive <commit> | tar -x -C DIR``).  Each checkout computes every
case of cases() in a fresh interpreter with its own ``src`` on the path, and
the two sets of results are compared exactly: arrays by ``array_equal``
(NaN equal to NaN), dataclasses field by field, CLI runs by their stdout
and exit status.  Prints one line per case and exits 1 if any case
differs.  A case that differs is printed with the largest relative
difference, |x - y| / max(|x|, |y|), over its floats, its arrays and the
numeric fields of its CLI output, or with "structure" when the two results
differ in anything but the values of those numbers.  The cases are the
pinned configurations of the Monte Carlo tests (``scaling_collapse`` and
``rate_vs_horizon`` among them), the Monte Carlo CLI defaults and the
benchmark's Ray-Knight op, with that op's swap check alone
(``rk_swap_only``, the one selection whose acceptance comes from the
plain composite run), plus the rate layer: ``constants``, ``rate-curve``
and ``mgf-curve`` at their defaults and ``legendre_check`` at the
benchmark's b = 1.25, 1.5 and 2.0, and the deterministic solvers:
``principal_eigen`` at a = -1e4, -3, 0, 2 and 60, ``rho_derivative(2.0)``,
``compute_constants(use_cache=False)`` and ``eigen --a 1``, and the
functions whose tolerances are module constants: ``w_eval`` on the
benchmark's 161-point grid at t = 0.5 and its 6,001-point grid at t = 2,
``min_time(200)``, ``laplace_reconstruct(1.25, 1.0)``,
``lambda_from_rate(1.0)`` and the message of ``lambda_from_rate(13.0)``'s
DomainError.  Each side computes its constants cold, into a cache file of
its own.  Each side takes about 6 minutes on a 2-vCPU Xeon virtual machine.
"""

import argparse
import contextlib
import dataclasses
import io
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile

import numpy as np


def _plain(value):
    """Results as builtins and numpy arrays, so either side can unpickle them."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def cases():
    """name -> zero-argument callable; imported lazily from the checkout."""
    from edwards1d import cli
    from edwards1d.besselsim import (SimConfig, equilibrium_sampler, estimate_w,
                                     estimate_y, simulate_besq, simulate_tilted)
    from edwards1d.constants import compute_constants
    from edwards1d.edwardsmc import (CHUNK, PolymerConfig, _ensemble, _rng,
                                     local_time_histogram, rate_vs_horizon,
                                     rayknight_consistency, sample_polymer,
                                     sample_polymer_sequential, scaling_collapse,
                                     tilted_mgf)
    from edwards1d.errors import DomainError, HorizonError
    from edwards1d.rate import lambda_from_rate, legendre_check
    from edwards1d.spectral import laplace_reconstruct, min_time, w_eval
    from edwards1d.sturm import principal_eigen, rho_derivative

    sim = SimConfig

    def poly(T, n, seed, dt=0.004, bin=0.1, beta=1.0):
        return PolymerConfig(T=T, beta=beta, dt=dt, bin=bin, n_paths=n, seed=seed)

    def run_cli(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def eigen(a):
        # the fields by name, so a checkout whose EigenSolution carries
        # more of them (such as the old interval count n) still compares
        sol = principal_eigen(a)
        return {f: getattr(sol, f)
                for f in ("a", "rho", "rho1", "h", "x", "weights", "h_max")}

    def raised(error, fn, *args):
        try:
            fn(*args)
        except error as exc:
            return f"{type(exc).__name__}: {exc}"
        return "no error"

    n_odd = 2 * CHUNK + 37
    edges = np.concatenate([np.linspace(0.0, 6.0, 25), [8.0, 12.0]])
    lt_cfg = PolymerConfig(T=2.0, beta=1.0, dt=1.0 / 256, bin=1.0 / 16,
                           n_paths=4, seed=11)
    lt_big = poly(1.0, n_odd, 12)
    rk_cfg = poly(2.0, 30_000, 19)
    rk_all = ("unconditional", "swap", "bookkeeping")
    c = {
        "rk_swap_only": lambda: rayknight_consistency(
            1.0, poly(2.0, 8000, 0), n_quintuples=8, checks=("swap",)),
        "besq_dim0": lambda: simulate_besq(
            0, 1.0, 0.5, sim(dt=1e-3, n_paths=n_odd, seed=3)),
        "besq_dim2": lambda: simulate_besq(
            2, 1.0, 0.5, sim(dt=1e-3, n_paths=n_odd, seed=3)),
        "besq_dim0_from_0": lambda: simulate_besq(
            0, 0.0, 0.3, sim(dt=1e-2, n_paths=500, seed=4)),
        "besq_dim0_short_last_step": lambda: simulate_besq(
            0, 0.7, 0.1234, sim(dt=1e-2, n_paths=3000, seed=6)),
        "besq_dim2_short_last_step": lambda: simulate_besq(
            2, 0.7, 0.1234, sim(dt=1e-2, n_paths=3000, seed=6)),
        "y_dt0.08": lambda: estimate_y(
            0.0, 1.0, sim(dt=0.08, n_paths=400_000, seed=31)),
        "y_dt0.04": lambda: estimate_y(
            0.0, 1.0, sim(dt=0.04, n_paths=400_000, seed=31)),
        "y_a0.5": lambda: estimate_y(
            0.5, 1.0, sim(dt=5e-3, n_paths=20_000, seed=77)),
        "y_a2": lambda: estimate_y(
            2.0, 0.5, sim(dt=1e-3, n_paths=20_000, seed=15)),
        "y_dt0.0016": lambda: estimate_y(
            0.0, 1.0, sim(dt=0.0016, n_paths=10_000, seed=2)),
        "y_dt0.003": lambda: estimate_y(
            1.0, 1.5, sim(dt=0.003, n_paths=n_odd, seed=2)),
        "y_dt0.07": lambda: estimate_y(
            0.0, 2.0, sim(dt=0.07, n_paths=10_000, seed=8)),
        "w_edges": lambda: estimate_w(
            1.0, edges, sim(dt=2e-3, n_paths=50_000, seed=44)),
        "w_dt0.003": lambda: estimate_w(
            0.7, [0.1, 0.3, 0.9], sim(dt=0.003, n_paths=9000, seed=5)),
        "y_horizon": lambda: raised(
            HorizonError, estimate_y, 0.0, 1.0, sim(dt=1e-6, n_paths=100, seed=0)),
        "w_horizon": lambda: raised(
            HorizonError, estimate_w, 1.0, [0.2, 0.4], sim(dt=1e-6, n_paths=100, seed=0)),
        "tilted_h1": lambda: simulate_tilted(
            2.0, 1.0, 1.0, sim(dt=1e-3, n_paths=n_odd, seed=22),
            record_times=[0.25, 0.5, 1.0]),
        "tilted_equilibrium": lambda: simulate_tilted(
            2.0, "equilibrium", 1.0, sim(dt=2e-3, n_paths=n_odd, seed=23)),
        "tilted_short_last_step": lambda: simulate_tilted(
            1.0, 1.0, 0.777, sim(dt=1e-2, n_paths=2000, seed=9),
            record_times=[0.5, 0.777]),
        "equilibrium_draw": lambda: equilibrium_sampler(2.0)[0](_rng(5, 0), 1000),
        "ensemble_drift": lambda: _ensemble(poly(1.0, n_odd, 7), drift=0.6),
        "polymer_T2": lambda: sample_polymer(poly(2.0, 20_000, 0)),
        "polymer_T8": lambda: sample_polymer(poly(8.0, 40_000, 5)),
        "mgf_0.5": lambda: tilted_mgf(0.5, poly(6.0, 60_000, 9)),
        "collapse_T5": lambda: scaling_collapse((0.5, 1.0, 2.0), poly(5.0, 40_000, 17)),
        "rate_vs_horizon": lambda: rate_vs_horizon(poly(4.0, 40_000, 5), (4.0, 6.0, 8.0)),
        "sequential_T4": lambda: sample_polymer_sequential(poly(4.0, 2 * CHUNK, 5)),
        "local_time": lambda: [local_time_histogram(lt_cfg, i) for i in range(4)],
        "local_time_chunk2": lambda: [local_time_histogram(lt_big, i)
                                      for i in (0, CHUNK - 1, CHUNK, n_odd - 1)],
        "rk_RK_CFG": lambda: rayknight_consistency(
            1.0, rk_cfg, n_quintuples=100, checks=rk_all),
        "rk_bench": lambda: rayknight_consistency(
            1.0, poly(2.0, 8000, 0), n_quintuples=8, checks=rk_all),
        "rk_bookkeeping_fine": lambda: rayknight_consistency(
            1.0, poly(3.0, 100_000, 23, dt=0.0016, bin=0.04),
            checks=("bookkeeping",)),
        "cli_besq_validate": lambda: run_cli("besq-validate", "--suite", "all"),
        "cli_polymer": lambda: run_cli("polymer"),
        "cli_polymer_mu": lambda: run_cli("polymer", "--T", "1", "--mu", "0.5"),
        "cli_collapse": lambda: run_cli("collapse"),
        "cli_rayknight": lambda: run_cli("rayknight"),
        "cli_rayknight_bench": lambda: run_cli(
            "rayknight", "--T", "2", "--quintuples", "8", "--n", "8000"),
        "cli_constants": lambda: run_cli("constants"),
        "cli_rate_curve": lambda: run_cli("rate-curve"),
        "cli_mgf_curve": lambda: run_cli("mgf-curve"),
        "legendre_1.25": lambda: legendre_check(1.25),
        "legendre_1.5": lambda: legendre_check(1.5),
        "legendre_2.0": lambda: legendre_check(2.0),
        **{f"eigen_{a:g}": lambda a=a: eigen(a) for a in (-1e4, -3.0, 0.0, 2.0, 60.0)},
        "rho_derivative_2": lambda: rho_derivative(2.0),
        "constants_cold": lambda: compute_constants(use_cache=False),
        "cli_eigen_a1": lambda: run_cli("eigen", "--a", "1"),
        "w_eval_161_t0.5": lambda: w_eval(np.linspace(0.0, 8.0, 161), 0.5),
        "w_eval_6001_t2": lambda: w_eval(np.linspace(0.0, 30.0, 6001), 2.0),
        "min_time_200": lambda: min_time(200),
        "laplace_1.25_a1": lambda: laplace_reconstruct(1.25, 1.0),
        "lambda_from_rate_1": lambda: lambda_from_rate(1.0),
        "lambda_from_rate_13_message": lambda: raised(
            DomainError, lambda_from_rate, 13.0),
    }
    return c


def dump(path):
    out = {}
    for name, fn in cases().items():
        out[name] = _plain(fn())
        print(name, file=sys.stderr, flush=True)
    with open(path, "wb") as fh:
        pickle.dump(out, fh)


def same(a, b):
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and np.array_equal(
            a, b, equal_nan=a.dtype.kind == "f")
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (a != a and b != b)
    return type(a) is type(b) and a == b


def _rel(x, y):
    if x == y or (x != x and y != y):
        return 0.0
    d = abs(x - y) / max(abs(x), abs(y))
    return d if d == d else math.inf  # a NaN against a number, or inf - inf


def max_rel(a, b):
    """Largest relative difference between the numbers of a and b.

    None when a and b differ in anything but the values of their floats,
    arrays and the numeric fields of strings (CLI output).
    """
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return None
        return max_rel(list(a.values()), list(b.values()))
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        worst = 0.0
        for x, y in zip(a, b):
            d = max_rel(x, y)
            if d is None:
                return None
            worst = max(worst, d)
        return worst
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape or a.dtype.kind not in "iuf" or b.dtype.kind not in "iuf":
            return 0.0 if np.array_equal(a, b) else None
        return max_rel([float(x) for x in a.ravel()], [float(y) for y in b.ravel()])
    if isinstance(a, str) and isinstance(b, str):
        ta, tb = re.split(r"[\s,=]+", a), re.split(r"[\s,=]+", b)
        if len(ta) != len(tb):
            return None
        pairs = []
        for x, y in zip(ta, tb):
            try:
                pairs.append((float(x), float(y)))
            except ValueError:
                if x != y:
                    return None
        return max_rel([x for x, _ in pairs], [y for _, y in pairs])
    if (isinstance(a, (int, float)) and isinstance(b, (int, float))
            and not isinstance(a, bool) and not isinstance(b, bool)):
        return _rel(float(a), float(b))
    return 0.0 if type(a) is type(b) and a == b else None


def compute(root, out_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               EDWARDS1D_CONSTANTS_CACHE=out_path + ".constants.csv",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, os.path.abspath(__file__), "--dump", out_path],
                   env=env, check=True)
    with open(out_path, "rb") as fh:
        return pickle.load(fh)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--before")
    p.add_argument("--after")
    p.add_argument("--dump", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.dump:
        dump(args.dump)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        before = compute(args.before, os.path.join(tmp, "before.pkl"))
        after = compute(args.after, os.path.join(tmp, "after.pkl"))
    bad = 0
    for name in before:
        ok = name in after and same(before[name], after[name])
        bad += not ok
        if ok:
            print(f"same     {name}")
            continue
        d = max_rel(before[name], after.get(name))
        print(f"DIFFERS  {name}  " + ("structure" if d is None
                                      else f"max rel diff {d:.3g}"))
    print(f"{len(before) - bad} of {len(before)} cases bit-identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
