"""Critical constants of the one-dimensional self-repellent polymer model.

Six numbers parametrize the large-deviation rate function and moment
generating function downstream:

    a_star   : the root of rho(a) = 0,
    b_star   : 1 / rho'(a_star), the location of the rate-function minimum,
    c_star   : sqrt(rho''(a_star)) / rho'(a_star)^{3/2}, the curvature scale,
    a_2star  : 2^{1/3} times the negated first zero of Ai, the flat level
               of the MGF and the rate at zero displacement,
    b_2star  : 1 / rho'(a_2star), where the rate function stops being linear,
    rho_2star: rho(a_2star), the linear-segment slope parameter.

All six are deterministic given the eigenvalue solver configuration, so the
computed values are memoized in a small CSV cache keyed by a fingerprint of
the solver parameters.  Writes are atomic (temp file then rename).
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import tempfile
from dataclasses import dataclass, fields

from scipy.optimize import brentq

from .airy import a_2star as _airy_a_2star
from .errors import NumericError, SolverError
from .sturm import SolverConfig, principal_eigen, rho_derivative

_FORMULA_VERSION = 2


@dataclass(frozen=True)
class ModelConstants:
    a_star: float
    b_star: float
    c_star: float
    a_2star: float
    b_2star: float
    rho_2star: float

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _cache_path() -> str:
    env = os.environ.get("EDWARDS1D_CONSTANTS_CACHE")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return os.path.join(base, "edwards1d", "constants.csv")


def fingerprint(cfg: SolverConfig | None = None) -> str:
    """Short hash identifying solver parameters and formula version."""
    if cfg is None:
        cfg = SolverConfig()
    blob = f"v{_FORMULA_VERSION}|n={cfg.n}|h_max={cfg.h_max}|tol={cfg.tol}|levels={cfg.refine_levels}"
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _read_cache(path: str, fp: str) -> ModelConstants | None:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, csv.Error):
        return None
    vals: dict[str, float] = {}
    got_fp = None
    for row in rows:
        if len(row) != 2:
            return None
        key, val = row
        if key == "fingerprint":
            got_fp = val
        else:
            try:
                vals[key] = float(val)
            except ValueError:
                return None
    if got_fp != fp:
        return None
    names = {f.name for f in fields(ModelConstants)}
    if set(vals) != names:
        return None
    return ModelConstants(**vals)


def _write_cache(path: str, fp: str, consts: ModelConstants) -> None:
    d = os.path.dirname(path)
    if d:
        os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["fingerprint", fp])
            for key, val in consts.as_dict().items():
                w.writerow([key, format(val, ".17g")])
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _find_a_star(cfg: SolverConfig) -> float:
    lo, hi = 1.0, 3.0
    f = lambda a: principal_eigen(a, cfg).rho
    flo, fhi = f(lo), f(hi)
    # expand the bracket if the default one does not straddle the root
    grow = 0
    while flo > 0.0 and grow < 8:
        lo -= 2.0 ** grow
        flo = f(lo)
        grow += 1
    grow = 0
    while fhi < 0.0 and grow < 8:
        hi += 2.0 ** grow
        fhi = f(hi)
        grow += 1
    if flo > 0.0 or fhi < 0.0:
        raise SolverError(f"could not bracket the root of rho: rho({lo})={flo}, rho({hi})={fhi}")
    return brentq(f, lo, hi, xtol=1e-10, rtol=8.9e-16)


def compute_constants(cfg: SolverConfig | None = None, use_cache: bool = True) -> ModelConstants:
    """Compute (or load from cache) the six critical constants."""
    if cfg is None:
        cfg = SolverConfig()
    fp = fingerprint(cfg)
    path = _cache_path()
    if use_cache:
        hit = _read_cache(path, fp)
        if hit is not None:
            return hit

    a_star = _find_a_star(cfg)
    if abs(principal_eigen(a_star, cfg).rho) > 1e-6:
        raise NumericError(f"root refinement failed: rho({a_star}) != 0")
    r1_star, r2_star = rho_derivative(a_star, cfg)
    b_star = 1.0 / r1_star
    c_star = math.sqrt(r2_star) / r1_star ** 1.5

    a_2star = _airy_a_2star()
    r1_2star, _ = rho_derivative(a_2star, cfg)
    b_2star = 1.0 / r1_2star
    rho_2star = principal_eigen(a_2star, cfg).rho

    # internal consistency: c_star^2 rho'(a*)^3 must reproduce rho''(a*)
    resid = abs(c_star ** 2 * r1_star ** 3 - r2_star)
    if resid > 1e-8 * max(abs(r2_star), 1.0):
        raise NumericError(f"constant identity violated, residual {resid:g}")

    consts = ModelConstants(
        a_star=a_star, b_star=b_star, c_star=c_star,
        a_2star=a_2star, b_2star=b_2star, rho_2star=rho_2star,
    )
    if use_cache:
        _write_cache(path, fp, consts)
    return consts
