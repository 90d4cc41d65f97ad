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

a_star, b_star and c_star come from the finite-volume principal_eigen and
rho_derivative (c_star's rho'' is a difference of rho', and its pin sits
in that differencing); b_2star and rho_2star come from sturm.eigenvalue,
the Laguerre-Galerkin solve behind the rate layer.

All six are fixed by the package's code, so the computed values are
memoized in a small CSV cache keyed by a fingerprint of the package's
source files.  Writes are atomic (temp file then rename).
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import tempfile
from dataclasses import dataclass, fields
from functools import lru_cache

from .airy import a_2star as _airy_a_2star
from .errors import NumericError, SolverError
from .sturm import _brentq, eigenvalue, principal_eigen, rho_derivative


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


@lru_cache(maxsize=None)
def fingerprint() -> str:
    """Short sha256 of the package's .py files, computed once per process."""
    root = os.path.dirname(os.path.abspath(__file__))
    dig = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            dig.update(name.encode())
            with open(os.path.join(root, name), "rb") as fh:
                dig.update(fh.read())
    return dig.hexdigest()[:16]


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


def _find_a_star() -> float:
    f = lambda a: principal_eigen(a).rho
    if f(1.0) > 0.0 or f(3.0) < 0.0:
        raise SolverError("the root of rho is not bracketed by [1, 3]")
    return _brentq(f, 1.0, 3.0, xtol=1e-10, rtol=8.9e-16)


def compute_constants(use_cache: bool = True) -> ModelConstants:
    """Compute (or load from cache) the six critical constants."""
    fp = fingerprint()
    path = _cache_path()
    if use_cache:
        hit = _read_cache(path, fp)
        if hit is not None:
            return hit

    a_star = _find_a_star()
    if abs(principal_eigen(a_star).rho) > 1e-6:
        raise NumericError(f"root refinement failed: rho({a_star}) != 0")
    r1_star, r2_star = rho_derivative(a_star)
    b_star = 1.0 / r1_star
    c_star = math.sqrt(r2_star) / r1_star ** 1.5

    a_2star = _airy_a_2star()
    # from the solve the rate layer uses, so its kink sits on its envelope
    rho_2star, rho1_2star = eigenvalue(a_2star)
    b_2star = 1.0 / rho1_2star

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
