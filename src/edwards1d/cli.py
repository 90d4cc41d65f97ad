"""Command line front end.

One executable with subcommands for the deterministic tables (critical
constants, Airy zeros, eigenvalue data, rate and generating-function
curves, spectral profiles) and the two Monte Carlo validation suites
(squared-Bessel oracles and the polymer consistency checks).  Output is
CSV with a leading header row, or JSON records with ``--format json``.

Exit status: 0 on success, 1 when a validation suite reports a breach
(any |z| > 4), 2 on usage or configuration errors.  Diagnostics go to
the error stream only, so captured output stays machine-parseable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__, airy, besselsim, constants, edwardsmc, rate, spectral, sturm
from .errors import (
    ConditioningError,
    DegeneracyError,
    DomainError,
    EdwardsError,
)

ENV_SEED = "EDWARDS1D_SEED"

Z_GATE = 4.0

# the most points a curve or profile grid may have: a mistyped --step or
# --npts is refused rather than exhausting memory.  w-profile holds an Airy
# matrix of points x terms, about 36 KB per point at K = 200 and t = 0.2,
# so 10^4 points peak near 0.4 GB; rate-curve takes about 2.5 ms per point
MAX_GRID_POINTS = 10 ** 4


def _jsonable(v):
    return v.item() if isinstance(v, np.generic) else v


def _fmt(v) -> str:
    v = _jsonable(v)
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _render(header, rows, fmt: str) -> str:
    if fmt == "json":
        recs = [{k: _jsonable(v) for k, v in zip(header, row)} for row in rows]
        return json.dumps(recs, indent=2) + "\n"
    lines = [",".join(header)] + [",".join(map(_fmt, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _write(text: str, path):
    """Emit to stdout, or atomically to a file (temp then rename)."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _version_text() -> str:
    # the constants cache is keyed on the package's source, so both are one hash
    fp = constants.fingerprint()
    return f"edwards1d {__version__} artifact={fp} constants={fp}"


# ---------------------------------------------------------------------------
# configuration file and environment plumbing

def _parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; ``#`` starts a comment."""
    try:
        with open(path) as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise DomainError(f"cannot read config file {path!r}: {exc}")
    table = {}
    for lineno, raw in enumerate(raw_lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected 'key = value'")
        key, val = line.split("=", 1)
        key = key.strip()
        if not key:
            raise DomainError(f"{path}:{lineno}: empty key")
        table[key] = val.strip()
    return table


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _source_tokens(args, actions) -> list:
    """Environment, then config-file values as ``--flag=value`` tokens.

    Parsed again right after the subcommand name, they lose to any later
    flag (argparse keeps the last value), so flags > config > environment
    > defaults holds for every spelling of a flag, and each value gets its
    flag's type and choices checks; ``=`` keeps a value like ``-1`` a value.
    """
    tokens = []
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None and "seed" in actions:
        try:
            int(env_seed)
        except ValueError:
            raise DomainError(f"{ENV_SEED} must be an integer, got {env_seed!r}")
        tokens.append(f"--seed={env_seed}")
    if args.config:
        for key, raw in _parse_config_file(args.config).items():
            act = actions.get(key.replace("-", "_"))
            if act is None or act.dest == "config":
                raise DomainError(f"unknown config key {key!r} for "
                                  f"subcommand {args.command!r}")
            flag = act.option_strings[0]
            if act.nargs != 0:
                tokens.append(f"{flag}={raw}")
            elif raw.lower() in _TRUE:
                tokens.append(flag)
            elif raw.lower() not in _FALSE:
                raise DomainError(f"config key {key!r}: expected a boolean, "
                                  f"got {raw!r}")
    return tokens


# ---------------------------------------------------------------------------
# subcommand bodies; each returns (header, rows, failed)

_CONST_FIELDS = ("a_star", "b_star", "c_star", "a_2star", "b_2star", "rho_2star")


def _cmd_constants(args):
    c = constants.compute_constants()
    return list(_CONST_FIELDS), [[getattr(c, k) for k in _CONST_FIELDS]], False


def _cmd_airy_zeros(args):
    if args.k_max < 1:
        raise DomainError("--k-max must be at least 1")
    tab = airy.airy_zeros(args.k_max)
    rows = [[k, tab.zeros[k], tab.aip_at_zeros[k]] for k in range(args.k_max)]
    return ["k", "a_k", "aip_k"], rows, False


def _cmd_eigen(args):
    sol = sturm.principal_eigen(args.a)
    if args.dump_eigenfunction:
        return ["h", "x"], [[h, x] for h, x in zip(sol.h, sol.x)], False
    rho1, rho2 = sturm.rho_derivative(args.a)
    res = sturm.eigen_residual(sol)
    header = ["a", "rho", "rho_prime", "rho_second", "residual"]
    return header, [[args.a, sol.rho, rho1, rho2, res]], False


def _check_points(points):
    """Refuse a grid of more than MAX_GRID_POINTS points before it is built."""
    if points > MAX_GRID_POINTS:
        raise DomainError(f"the grid would have {points:,.0f} points; "
                          f"at most {MAX_GRID_POINTS:,} are allowed")


def _grid(lo: float, hi: float, step: float):
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise DomainError("grid bounds and step must be finite")
    if step <= 0.0 or hi < lo:
        raise DomainError("need step > 0 and max >= min")
    count = (hi - lo) / step  # inf when a tiny step overflows it
    if count < MAX_GRID_POINTS:
        count = int(round(count))
    _check_points(count + 1)
    return [lo + i * step for i in range(count + 1)]


def _cmd_rate_curve(args):
    grid = _grid(args.bmin, args.bmax, args.step)
    beta = args.beta
    if beta <= 0.0 or not math.isfinite(beta):
        raise DomainError("--beta must be positive and finite")
    consts = constants.compute_constants()
    scale = beta ** (1.0 / 3.0)
    rows = []
    for b in grid:
        b_unit = b / scale
        val = rate.rate_I_scaled(b, beta, consts=consts)
        slope = scale * rate.rate_derivative(b_unit, consts=consts)
        branch = "linear" if b_unit <= consts.b_2star else "convex"
        rows.append([b, val, slope, branch])
    return ["b", "I", "dI", "branch"], rows, False


def _cmd_mgf_curve(args):
    grid = _grid(args.mumin, args.mumax, args.step)
    consts = constants.compute_constants()
    rows = []
    for mu in grid:
        val = rate.lambda_plus(mu, consts=consts)
        branch = "boundary" if mu <= -consts.rho_2star else "interior"
        rows.append([mu, val, branch])
    return ["mu", "lambda_plus", "branch"], rows, False


def _cmd_w_profile(args):
    if args.npts < 2:
        raise DomainError("--npts must be at least 2")
    _check_points(args.npts)
    hs = np.linspace(0.0, args.hmax, args.npts)
    ws = spectral.w_eval(hs, args.t, K=args.K)
    return ["h", "w"], [[h, w] for h, w in zip(hs, ws)], False


def _cmd_w_coeffs(args):
    ex = spectral.w_coefficients(args.K)
    rows = [[k, ex.gamma[k], ex.eigenvalues[k], ex.zeros[k], ex.c[k]]
            for k in range(ex.K)]
    return ["k", "gamma_k", "a_scaled_k", "a_k", "c_k"], rows, False


_BESQ_SUITES = ("absorption", "y", "w", "tilted")


def _cmd_besq_validate(args):
    names = _BESQ_SUITES if args.suite == "all" else tuple(
        s.strip() for s in args.suite.split(","))
    for s in names:
        if s not in _BESQ_SUITES:
            raise DomainError(f"unknown suite {s!r}; choose from "
                              f"{', '.join(_BESQ_SUITES)} or all")
    cfg = besselsim.SimConfig(dt=args.dt, n_paths=args.n, seed=args.seed)
    rows = []

    def add(name, value, target, se):
        z = (value - target) / se if se > 0.0 else math.inf
        rows.append([name, value, target, se, z])

    if "absorption" in names:
        # fraction of dimension-zero paths absorbed by d is e^{-h/2d}
        h0, d = 1.0, 2.0
        batch = besselsim.simulate_besq(0, h0, d, cfg)
        frac = float(np.mean(~np.isnan(batch.absorbed_at)))
        target = math.exp(-h0 / (2.0 * d))
        se = math.sqrt(max(target * (1.0 - target), 1e-300) / cfg.n_paths)
        add("absorption", frac, target, se)
    if "y" in names:
        for a, h0 in ((0.0, 1.0), (2.0, 0.5)):
            est = besselsim.estimate_y(a, h0, cfg)
            target = float(spectral.y_kernel(h0, a))
            add(f"y_a{a:g}_h{h0:g}", est.mean, target, est.se)
    if "w" in names:
        # the first edge stays clear of t -> 0, where the Euler scheme's
        # absorption bias is strongest relative to the density; targets are
        # bin averages, matching the estimator, not midpoint values
        edges = np.array([0.2, 0.4, 0.6, 0.8, 1.0, 1.2])
        wb = besselsim.estimate_w(1.0, edges, cfg)
        for i in range(len(edges) - 1):
            ts = np.linspace(edges[i], edges[i + 1], 41)
            target = float(np.trapezoid([spectral.w_eval(1.0, float(t))
                                         for t in ts], ts)
                           / (edges[i + 1] - edges[i]))
            add(f"w_bin{i}", float(wb.density[i]), target, float(wb.se[i]))
    if "tilted" in names:
        tb = besselsim.simulate_tilted(2.0, 1.0, 1.0, cfg)
        d = np.exp(tb.log_weight[:, -1])
        add("tilted_mean_one", float(np.mean(d)), 1.0,
            float(np.std(d) / math.sqrt(len(d))))
    failed = any(abs(r[4]) > Z_GATE for r in rows)
    return ["check", "value", "target", "se", "z"], rows, failed


def _polymer_cfg(args) -> edwardsmc.PolymerConfig:
    return edwardsmc.PolymerConfig(T=args.T, beta=args.beta, dt=args.dt,
                                   bin=args.bin, n_paths=args.n,
                                   seed=args.seed)


def _cmd_polymer(args):
    cfg = _polymer_cfg(args)
    if args.mu is not None:
        est = edwardsmc.tilted_mgf(args.mu, cfg)
        header = ["mu", "log_mgf", "se", "n", "seed"]
        return header, [[args.mu, est.mean, est.se, est.n, est.seed]], False
    est = edwardsmc.sample_polymer(cfg)
    header = list(est.__dataclass_fields__)
    return header, [[getattr(est, k) for k in header]], False


def _cmd_collapse(args):
    try:
        betas = [float(tok) for tok in args.betas.split(",") if tok.strip()]
    except ValueError:
        raise DomainError(f"--betas must be a comma list of numbers, "
                          f"got {args.betas!r}")
    rep = edwardsmc.scaling_collapse(betas, _polymer_cfg(args))
    rows = [[b, z_logZ, z_end, r, rep.exponent, rep.max_z]
            for b, z_logZ, z_end, r in zip(rep.betas, rep.z_logZ,
                                            rep.z_endpoint, rep.rates)]
    header = ["beta", "z_logZ", "z_endpoint", "rate", "exponent", "max_z"]
    return header, rows, bool(rep.max_z > Z_GATE)


def _cmd_rayknight(args):
    checks = tuple(s.strip() for s in args.checks.split(",") if s.strip())
    rep = edwardsmc.rayknight_consistency(args.a, _polymer_cfg(args),
                                          n_quintuples=args.quintuples,
                                          checks=checks)
    header = list(rep.__dataclass_fields__)
    # checks that were not run report nan
    zs = (rep.z_unconditional, rep.z_swap_mean, rep.z_swap_var,
          rep.z_bookkeeping)
    failed = any(math.isfinite(z) and abs(z) > Z_GATE for z in zs)
    return header, [[getattr(rep, k) for k in header]], failed


# ---------------------------------------------------------------------------
# parser assembly

def _build_parser():
    top = argparse.ArgumentParser(
        prog="edwards1d",
        description="Numerical tables, curves, and Monte Carlo validation "
                    "for the one-dimensional self-repellent polymer.")
    top.add_argument("--version", action="version", version=_version_text())
    sub = top.add_subparsers(dest="command", required=True, metavar="command")
    registry = {}

    def command(name, run, help_text):
        sp = sub.add_parser(name, help=help_text, description=help_text)
        sp.set_defaults(run=run)
        actions = registry[name] = {}

        def arg(*flags, **kw):
            act = sp.add_argument(*flags, **kw)
            actions[act.dest] = act

        arg("--output", "-o", default=None, metavar="PATH",
            help="write here (temp then rename) instead of stdout")
        arg("--format", choices=("csv", "json"), default="csv",
            help="output encoding (default csv)")
        arg("--config", default=None, metavar="FILE",
            help="flat 'key = value' file; flags take precedence")
        return arg

    command("constants", _cmd_constants, "six critical constants, one row")

    arg = command("airy-zeros", _cmd_airy_zeros, "Airy zero table")
    arg("--k-max", type=int, default=10, help="number of zeros (default 10)")

    arg = command("eigen", _cmd_eigen,
                  "principal eigenvalue data at one parameter")
    arg("--a", type=float, default=1.0, help="operator parameter (default 1)")
    arg("--dump-eigenfunction", action="store_true",
        help="emit the (h, x) grid instead of the summary row")

    arg = command("rate-curve", _cmd_rate_curve,
                  "rate function on a grid of endpoint slopes")
    arg("--bmin", type=float, default=0.0)
    arg("--bmax", type=float, default=3.0)
    arg("--step", type=float, default=0.01)
    arg("--beta", type=float, default=1.0,
        help="coupling; curves rescale by beta^(2/3) (default 1)")

    arg = command("mgf-curve", _cmd_mgf_curve,
                  "positive-part generating function on a grid")
    arg("--mumin", type=float, default=0.0)
    arg("--mumax", type=float, default=2.0)
    arg("--step", type=float, default=0.01)

    arg = command("w-profile", _cmd_w_profile,
                  "overshoot density profile in h at fixed t")
    arg("--t", type=float, required=True, help="time argument")
    arg("--K", type=int, default=200, help="expansion terms (default 200)")
    arg("--hmax", type=float, default=8.0, help="grid end (default 8)")
    arg("--npts", type=int, default=161, help="grid size (default 161)")

    arg = command("w-coeffs", _cmd_w_coeffs,
                  "expansion coefficients of the overshoot density")
    arg("--K", type=int, default=50, help="number of terms (default 50)")

    arg = command("besq-validate", _cmd_besq_validate,
                  "squared-Bessel oracle suite; exit 1 on breach")
    arg("--suite", default="all",
        help="comma list from absorption,y,w,tilted (default all)")
    arg("--n", type=int, default=40000, help="paths per check (default 40000)")
    arg("--dt", type=float, default=0.001, help="step size (default 0.001)")
    arg("--seed", type=int, default=1, help="seed (default 1)")

    def polymer_args(arg, mu=False):
        arg("--T", type=float, default=4.0, help="horizon (default 4)")
        arg("--beta", type=float, default=1.0, help="coupling (default 1)")
        arg("--dt", type=float, default=0.004, help="step size (default 0.004)")
        arg("--bin", type=float, default=0.1, help="spatial bin (default 0.1)")
        arg("--n", type=int, default=20000, help="paths (default 20000)")
        arg("--seed", type=int, default=0, help="seed (default 0)")
        if mu:
            arg("--mu", type=float, default=None,
                help="tilt; when given, emit the generating-function row")

    arg = command("polymer", _cmd_polymer,
                  "one weighted-ensemble estimate row")
    polymer_args(arg, mu=True)

    arg = command("collapse", _cmd_collapse,
                  "coupling-rescaling z-scores; exit 1 on breach")
    arg("--betas", default="0.5,1,2",
        help="comma list of couplings (default 0.5,1,2)")
    polymer_args(arg)

    arg = command("rayknight", _cmd_rayknight,
                  "profile-decomposition suite; exit 1 on breach")
    arg("--a", type=float, default=1.0, help="tilt parameter (default 1)")
    arg("--checks", default="unconditional,swap",
        help="comma list from unconditional,swap,bookkeeping")
    arg("--quintuples", type=int, default=100,
        help="decomposition draws for the unconditional and swap checks, "
             "at least 3 (default 100)")
    polymer_args(arg)

    return top, registry


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, registry = _build_parser()
    try:
        # the first parse only finds the subcommand and its --config, so it
        # leaves required options to the second, which sees the config values
        required = [act for acts in registry.values() for act in acts.values()
                    if act.required]
        for act in required:
            act.required = False
        args = parser.parse_args(argv)
        for act in required:
            act.required = True
        tokens = _source_tokens(args, registry[args.command])
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + tokens + argv[at:])
        header, rows, failed = args.run(args)
        _write(_render(header, rows, args.format), args.output)
        return 1 if failed else 0
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except (ConditioningError, DegeneracyError) as exc:
        print(f"edwards1d: validation failure: {exc}", file=sys.stderr)
        return 1
    except EdwardsError as exc:
        print(f"edwards1d: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
