"""The three workloads: seeded inputs, one public call per op, output checks.

Every workload draws its inputs from the fixed grids that
``record_reference.py`` evaluated, so each op's output has a reference.
The seed picks grid points, stratified so that the work in a run hardly
depends on the seed; the program only ever sees the generated inputs.
A check returns None when the output is correct and a short reason when
it is not.

``scale`` is ``--seconds`` divided by NOMINAL_SECONDS: it multiplies the
number of repeated ops, so a run takes about ``--seconds`` at the commit
that defined the benchmark and does the same work on every later commit.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import time

import numpy as np
from scipy.special import airy as scipy_airy

NOMINAL_SECONDS = 25.0
CBRT2 = 2.0 ** (1.0 / 3.0)

# input grids; record_reference.py evaluates the program on all of them
B_GRID = [0.05 * i for i in range(201)]              # rate-curve b in [0, 10]
MU_GRID = [-1.0 + 0.05 * i for i in range(101)]      # mgf-curve mu in [-1, 4]
LEGENDRE_B = [1.25, 1.5, 2.0]  # legendre_check b; these three cost about the same
T_GRID = [0.5 + 0.1 * i for i in range(16)]          # w_eval t
A_GRID = [-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5]  # y_kernel a < a**
H161 = np.linspace(0.0, 8.0, 161)                    # reference h grid
W_GRIDS = {  # w_eval grid size -> (h_max, stride onto H161's points)
    161: (8.0, 1), 1201: (30.0, 2), 6001: (30.0, 10)}
LAPLACE_H = [1.0, 1.25, 1.5, 1.75]                  # all on H161
ZEROS_K = 200
GRAM_K = 50
GREEN_K = 5  # green_apply acts on e_0 .. e_4; heat_evolve on e_0, as tested
GREEN_H = np.linspace(0.0, 30.0, 6001)
HEAT_H = np.linspace(0.0, 25.0, 4001)
HEAT_TAU = [0.1, 0.2, 0.3, 0.4]  # keeps heat_evolve at its 64-step floor

# tolerances the tests state for each quantity
TOL_RATE_I = 1e-6        # test_rate: rate_I(b*) = a*, rate_I_scaled
TOL_RATE_DI = 1e-4       # test_rate: finite-difference slope
TOL_LAMBDA = 1e-7        # test_rate: lambda_plus(0) = -a*
TOL_LEGENDRE = 1e-5      # criterion 5: dual gap
TOL_ZERO_REL = 1e-12     # test_airy: zeros
TOL_AIP = 1e-11          # test_airy: Ai' at the zeros
TOL_BASIS_C = 1e-9       # eigenbasis quadrature contract
TOL_GRAM = 1e-6          # criterion 6: Gram off-identity
TOL_W = 1e-8             # w_eval truncation contract (tol default)
TOL_Y_REL, TOL_Y_ABS = 2e-12, 1e-14  # Airy contract, for a ratio of two values
TOL_LAPLACE = 1e-3       # criterion 6: Laplace reconstruction
TOL_GREEN = 1e-4         # criterion 6: inverse on the basis
TOL_HEAT = 1e-4          # test_spectral: eigenfunction decay
Z_GATE = 4.0             # the CLI's own |z| gate, for MC against reference


class Op:
    __slots__ = ("kind", "label", "call", "check")

    def __init__(self, kind, label, call, check):
        self.kind = kind
        self.label = label
        self.call = call
        self.check = check


def count(n, scale):
    return max(1, round(n * scale))


def sweep(rng, n_grid, n):
    """n evenly spaced grid indices in increasing order, seeded offset."""
    step = max(1, n_grid // n)
    off = rng.randrange(step)
    return [min(n_grid - 1, off + k * step) for k in range(n)]


def scattered(rng, n_grid, n):
    """One seeded index in each of n equal strata, in seeded order."""
    idx = []
    for k in range(n):
        lo, hi = k * n_grid // n, (k + 1) * n_grid // n
        idx.append(lo + rng.randrange(max(1, hi - lo)))
    rng.shuffle(idx)
    return idx


def interleave(rng, *seqs):
    """Merge the sequences in a seeded order that keeps each one's own order.

    Spreading every kind of op over the whole run makes its latencies
    sample the run's whole time span rather than one stretch of it.
    """
    seqs = [list(q) for q in seqs if q]
    out = []
    while seqs:
        r = rng.randrange(sum(len(q) for q in seqs))
        for q in seqs:
            if r < len(q):
                out.append(q.pop(0))
                break
            r -= len(q)
        seqs = [q for q in seqs if q]
    return out


def _abs_err(got, want, tol, what):
    err = abs(got - want)
    return None if err <= tol else f"{what}: |{got!r} - {want!r}| = {err:.3g} > {tol:g}"


def _first(*reasons):
    return next((r for r in reasons if r), None)


# ---------------------------------------------------------------------------
# rate-table

def rate_table(ed, ref, consts, rng, scale):
    rate = ed["rate"]
    r = ref["rate"]

    def curve_row(i):
        b = B_GRID[i]
        call = lambda: (rate.rate_I_scaled(b, 1.0, consts=consts),
                        rate.rate_derivative(b, consts=consts))
        check = lambda out: _first(
            _abs_err(out[0], r["I"][i], TOL_RATE_I, f"I({b:g})"),
            _abs_err(out[1], r["dI"][i], TOL_RATE_DI, f"dI({b:g})"))
        return Op("rate-curve", f"b={b:g}", call, check)

    def mgf_row(i):
        mu = MU_GRID[i]
        call = lambda: rate.lambda_plus(mu, consts=consts)
        check = lambda out: _abs_err(out, r["lambda_plus"][i], TOL_LAMBDA,
                                     f"lambda_plus({mu:g})")
        return Op("mgf-curve", f"mu={mu:g}", call, check)

    def legendre(b):
        i = round(b / 0.05)
        b = B_GRID[i]
        call = lambda: rate.legendre_check(b, consts=consts)
        check = lambda rep: _first(
            None if rep.gap <= TOL_LEGENDRE else f"legendre gap {rep.gap:.3g} at b={b:g}",
            _abs_err(rep.direct, r["I"][i], TOL_RATE_I, f"I({b:g})"))
        return Op("legendre", f"b={b:g}", call, check)

    # the sweeps stay sorted, the order the CLI issues them in; the scattered
    # rows and legendre_check fall between them in seeded order
    n = count(12, scale)
    scattered_rows = ([curve_row(i) for i in scattered(rng, len(B_GRID), n)]
                      + [mgf_row(i) for i in scattered(rng, len(MU_GRID), n)])
    rng.shuffle(scattered_rows)
    return interleave(
        rng,
        [curve_row(i) for i in sweep(rng, len(B_GRID), n)],
        [mgf_row(i) for i in sweep(rng, len(MU_GRID), n)],
        *[[op] for op in scattered_rows],
        *[[legendre(rng.choice(LEGENDRE_B))] for _ in range(round(scale))])


# ---------------------------------------------------------------------------
# spectral

def basis_function(ref, k, h):
    """e_k on h from the recorded zero and normalisation (scipy's Ai)."""
    zero = ref["spectral"]["zeros"][k]
    c = ref["spectral"]["basis_c"][k]
    return c * scipy_airy(h / CBRT2 + zero)[0], CBRT2 * zero


def _rel_norm(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def spectral(ed, ref, consts, rng, scale):
    airy, spec = ed["airy"], ed["spectral"]
    s = ref["spectral"]
    state = {}

    def zeros_op():
        def check(tab):
            z = np.asarray(tab.zeros)
            rel = float(np.max(np.abs(z - s["zeros"]) / np.abs(s["zeros"])))
            aip = float(np.max(np.abs(np.asarray(tab.aip_at_zeros) - s["aip"])))
            return _first(
                None if rel <= TOL_ZERO_REL else f"zeros rel err {rel:.3g}",
                None if aip <= TOL_AIP else f"Ai' at zeros err {aip:.3g}")
        return Op("airy_zeros", f"k={ZEROS_K}", lambda: airy.airy_zeros(ZEROS_K), check)

    def basis_op():
        def call():
            state["basis"] = airy.eigenbasis(GRAM_K)
            return state["basis"]

        def check(els):
            c = np.array([e.c for e in els])
            rel = float(np.max(np.abs(c - s["basis_c"]) / s["basis_c"]))
            return None if rel <= TOL_BASIS_C else f"basis c rel err {rel:.3g}"
        return Op("eigenbasis", f"K={GRAM_K}", call, check)

    def gram_op():
        def check(g):
            off = float(np.max(np.abs(g - np.eye(GRAM_K))))
            return None if off <= TOL_GRAM else f"gram off-identity {off:.3g}"
        return Op("basis_gram", f"K={GRAM_K}",
                  lambda: airy.basis_gram(state["basis"]), check)

    def w_op(npts):
        t_i = rng.randrange(len(T_GRID))
        t = T_GRID[t_i]
        h_max, stride = W_GRIDS[npts]
        h = np.linspace(0.0, h_max, npts)
        want = np.asarray(s["w"][t_i])

        def check(w):
            got = np.asarray(w)[::stride][:len(H161)]
            err = float(np.max(np.abs(got - want)))
            return None if err <= TOL_W else f"w(t={t:g}) err {err:.3g}"
        return Op("w_eval", f"n={npts},t={t:g}", lambda: spec.w_eval(h, t), check)

    def laplace_op(h):
        a_i = rng.randrange(len(A_GRID))
        a = A_GRID[a_i]
        y = s["y"][a_i][int(round(h / 0.05))]

        def check(rec):
            rel = abs(rec - y) / y
            return None if rel <= TOL_LAPLACE else f"laplace({h:g},{a:g}) rel {rel:.3g}"
        return Op("laplace_reconstruct", f"h={h:g},a={a:g}",
                  lambda: spec.laplace_reconstruct(h, a, K=ZEROS_K), check)

    def y_op():
        a_i = rng.randrange(len(A_GRID))
        a = A_GRID[a_i]
        want = np.asarray(s["y"][a_i])

        def check(y):
            excess = np.abs(np.asarray(y) - want) - (TOL_Y_REL * np.abs(want) + TOL_Y_ABS)
            return None if np.all(excess <= 0.0) else f"y_kernel(a={a:g}) off by {np.max(excess):.3g}"
        return Op("y_kernel", f"a={a:g}", lambda: spec.y_kernel(H161, a), check)

    def green_op():
        k = rng.randrange(GREEN_K)
        f, lam = basis_function(ref, k, GREEN_H)

        def check(out):
            err = _rel_norm(out, f / lam)
            return None if err <= TOL_GREEN else f"green on e_{k} rel {err:.3g}"
        return Op("green_apply", f"k={k}", lambda: spec.green_apply(f, GREEN_H), check)

    def heat_op():
        k = 0
        tau = rng.choice(HEAT_TAU)
        u0, lam = basis_function(ref, k, HEAT_H)
        u0[0] = u0[-1] = 0.0

        def check(out):
            err = _rel_norm(out, math.exp(lam * tau) * u0)
            return None if err <= TOL_HEAT else f"heat on e_{k} rel {err:.3g}"
        return Op("heat_evolve", f"k={k},tau={tau:g}",
                  lambda: spec.heat_evolve(u0, HEAT_H, tau), check)

    # the first w_eval is always a 6001-point one, so the one-off cost of the
    # K=200 basis behind w_eval lands on the same kind of op in every run;
    # basis_gram reads the basis the eigenbasis op made
    w_rest = [w_op(npts) for npts, n in ((6001, 2), (1201, 16), (161, 2))
              for _ in range(count(n, scale) - (npts == 6001))]
    rng.shuffle(w_rest)
    w_ops = [w_op(6001)] + w_rest
    # the 1201-point w_eval ops (0.4 s of batched Airy work each, the
    # steadiest kind of op here) are the middle of the latency ranking, so
    # op_p50_ms and op_tail_ms both fall among them
    hs = LAPLACE_H * max(1, round(scale))
    singles = ([zeros_op()] + [laplace_op(h) for h in hs]
               + [y_op() for _ in range(count(2, scale))]
               + [green_op() for _ in range(count(2, scale))]
               + [heat_op() for _ in range(count(2, scale))])
    return interleave(rng, [basis_op(), gram_op()], w_ops, *[[op] for op in singles])


# ---------------------------------------------------------------------------
# mc-validate

# (label, argv without --seed, (value, se) column pairs checked per row)
MU_GRID_MC = [0.25 * i for i in range(1, 9)]  # polymer --mu at T=1
MC_OPS = [
    ("besq-absorption", ["besq-validate", "--suite", "absorption", "--n", "20000"],
     [("value", "se")]),
    ("besq-y", ["besq-validate", "--suite", "y", "--n", "20000"], [("value", "se")]),
    ("besq-w", ["besq-validate", "--suite", "w", "--n", "20000"], [("value", "se")]),
    ("besq-tilted", ["besq-validate", "--suite", "tilted", "--n", "20000"],
     [("value", "se")]),
    # criterion 8d's configuration (its endpoint-location gate is known red
    # and is not checked here)
    ("polymer-T8", ["polymer", "--T", "8", "--n", "40000", "--dt", "0.004",
                    "--bin", "0.1", "--beta", "1"],
     [("logZ", "logZ_se"), ("endpoint_mean", "endpoint_mean_se"),
      ("signed_mean", "signed_se")]),
    ("collapse", ["collapse", "--T", "2", "--betas", "0.5,1,2"], []),
    ("rayknight", ["rayknight", "--T", "2", "--quintuples", "8", "--n", "8000"],
     [("direct_mean", "direct_se"), ("composite_mean", "composite_se")]),
] + [(f"polymer-mu{mu:g}", ["polymer", "--T", "1", "--mu", f"{mu:g}"],
      [("log_mgf", "se")]) for mu in MU_GRID_MC]
# Values whose reported standard error is itself too noisy to gate on: over
# the reference runs it varies by 14-38% from run to run (against 2% or less
# for every other value), and a run that misses the rare heavy paths reports
# both a low value and a small standard error.  These are the T=8 polymer
# (importance weights with an ESS near 1% of the paths) and the Ray-Knight
# composite (the spread of 8 right-skewed quintuple samples).  They are gated
# on the spread of one run's value over the reference runs instead.
SPREAD_GATED = {"polymer-T8": ("logZ", "endpoint_mean", "signed_mean"),
                "rayknight": ("composite_mean",)}
# For the same reason the Ray-Knight CLI's own |z| gate, built on
# composite_se, can exit 1 on correct output at 8 quintuples (the program's
# tests allow exit status 1 for small Ray-Knight runs).
EXIT_OK = {"rayknight": (0, 1)}


def exit_ok(label):
    return EXIT_OK.get(label, (0,))


# the short polymer --mu ops run twice each: the many short ops that carry
# op_p50_ms and op_tail_ms on this workload
MC_REPEATS = {label: 2 for label, _, _ in MC_OPS if label.startswith("polymer-mu")}
ESS_OP = "polymer-T8"


def run_cli(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def mc_check(label, pairs, rows, ref_rows):
    """Each checked value within Z_GATE combined standard errors of the reference.

    A reference is (mean over the reference runs, its standard error, the
    spread of one run's value); the spread stands in for a run's own
    standard error where that is not reliable (SPREAD_GATED).
    """
    if len(rows) != len(ref_rows):
        return f"{label}: {len(rows)} rows, reference has {len(ref_rows)}"
    for row, want in zip(rows, ref_rows):
        for (vcol, secol), (rv, rse, spread) in zip(pairs, want):
            v = float(row[vcol])
            se = spread if vcol in SPREAD_GATED.get(label, ()) else float(row[secol])
            z = (v - rv) / math.hypot(se, rse)
            if not abs(z) <= Z_GATE:
                return f"{label}: {vcol} = {v:.6g} vs reference {rv:.6g}, z = {z:.2f}"
    return None


def mc_validate(ed, ref, consts, rng, scale, seed):
    cli = ed["cli"]
    ops = []
    for k, (label, argv, pairs) in enumerate(MC_OPS):
        for rep in range(max(1, round(scale)) * MC_REPEATS.get(label, 1)):
            mc_seed = (seed % 10 ** 9) * 1000 + 50 * rep + k
            full = argv + ["--seed", str(mc_seed)]
            ref_rows = ref["mc"][label]

            def check(out, label=label, pairs=pairs, ref_rows=ref_rows):
                rc, text = out
                if rc not in exit_ok(label):
                    return f"{label}: exit status {rc}"
                return mc_check(label, pairs, parse_csv(text), ref_rows)
            ops.append(Op(label, " ".join(full),
                          lambda full=full: run_cli(cli, full), check))
    # the long-horizon polymer op runs first, on the heap set-up leaves, so
    # the run's peak memory does not depend on the seeded order of the rest
    rng.shuffle(ops)
    ops.sort(key=lambda op: op.kind != ESS_OP)
    return ops


def run_ops(ops, tracer=None):
    """Issue the ops one at a time; returns (latencies, failures, ess_per_s).

    An op fails when its call raises or its check rejects the output.
    ess_per_s is the ESS of the long-horizon polymer op over its seconds.
    """
    lat, failures, ess_per_s = [], [], None
    for i, op in enumerate(ops):
        if tracer:
            tracer.op = i
            span = tracer.open(op.kind, "op")
        t0 = time.perf_counter()
        try:
            result, err = op.call(), None
        except Exception as exc:  # any error the program raises fails the op
            result, err = None, f"{op.kind} {op.label}: {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        lat.append(dt)
        if tracer:
            tracer.close(span)
            span = tracer.open("check", "bench")
        if err is None:
            try:
                reason = op.check(result)
                if reason is None and op.kind == ESS_OP and ess_per_s is None:
                    ess_per_s = float(parse_csv(result[1])[0]["ess"]) / dt
            except Exception as exc:  # output of an unexpected shape or type
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
            err = reason and f"{op.kind} {op.label}: {reason}"
        if tracer:
            tracer.close(span)
            tracer.op = None
        if err:
            failures.append(err)
    return lat, failures, ess_per_s


def build(workload, ed, ref, consts, seed, scale):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "rate-table":
        return rate_table(ed, ref, consts, rng, scale)
    if workload == "spectral":
        return spectral(ed, ref, consts, rng, scale)
    return mc_validate(ed, ref, consts, rng, scale, seed)
