"""Large-deviation rate function and moment generating functions.

The scaled cumulant generating function of the endpoint displacement is
built from the principal eigenvalue rho(a) of the tilted operator:

    lambda_plus(mu) = -rho^{-1}(-mu)   for mu > -rho(a_2star),
    lambda_plus(mu) = -a_2star         otherwise (flat segment),

and the full (two-sided) version is even in mu.  The rate function I(b)
is the Legendre transform: for b above b_2star it is evaluated on the
envelope

    I(b) = a_b - b rho(a_b),   rho'(a_b) = 1/b,

and on [0, b_2star] it is the linear segment a_2star - b rho(a_2star).
Both branches meet at b_2star with matching value and slope.

rho(a) and rho'(a) come from sturm.eigenvalue (Laguerre-Galerkin), and
b_2star and rho_2star from the same solve through compute_constants.

The two duality checks take their discrete suprema (grid, then golden
section) over a, one eigensolve per point.  `legendre_check` computes
sup_mu (b mu - lambda_plus(mu)) as sup_{a <= a_2star} (a - b rho(a)),
since mu = -rho(a) increases in a and lambda_plus(-rho(a)) = -a; it never
uses rho'(a_b) = 1/b, so it is a route to I independent of `rate_I`.
`lambda_from_rate` computes sup_{b <= 12} (mu b - I(b)) with I on the
envelope as the curve b = 1/rho'(a), I = a - b rho(a); it raises
DomainError when the supremum lies beyond b = 12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ModelConstants, compute_constants
from .errors import DomainError, SolverError
from .sturm import _brentq, eigenvalue


def _rho(a: float) -> float:
    return eigenvalue(a)[0]


def _resolve(consts: ModelConstants | None) -> ModelConstants:
    return compute_constants() if consts is None else consts


def _solve_a(k: int, target: float, lo: float, consts: ModelConstants) -> float:
    """Solve eigenvalue(a)[k] = target on [lo, a_2star]: rho for k = 0, rho' for 1.

    Both rho and rho' increase in a, and every caller's target lies below
    the value at a_2star; SolverError when it also lies below the value
    at lo.
    """
    f = lambda a: eigenvalue(a)[k] - target
    if f(lo) > 0.0:
        raise SolverError(f"could not bracket {('rho', 'rho1')[k]} = {target:g} "
                          f"above a = {lo:g}")
    return _brentq(f, lo, consts.a_2star, xtol=1e-11, rtol=8.9e-16)


def _a_of_b(b: float, consts: ModelConstants) -> float:
    """Solve rho'(a) = 1/b for b > b_2star."""
    return _solve_a(1, 1.0 / b, min(-1.0, -(b * b) / 2.0 * 1.5 - 4.0), consts)


def lambda_plus(mu: float, consts: ModelConstants | None = None) -> float:
    """One-sided scaled cumulant generating function."""
    mu = float(mu)
    if not math.isfinite(mu):
        raise DomainError(f"mu must be finite, got {mu!r}")
    consts = _resolve(consts)
    if mu <= -consts.rho_2star:
        return -consts.a_2star
    # deep-negative asymptote rho ~ -sqrt(2)(-a)^{1/2} guides the lower end
    return -_solve_a(0, -mu, min(-1.0, -(mu * mu) / 2.0 - 2.0), consts)


def lambda_full(mu: float, consts: ModelConstants | None = None) -> float:
    """Two-sided version, even in mu."""
    mu = float(mu)
    if not math.isfinite(mu):
        raise DomainError(f"mu must be finite, got {mu!r}")
    return lambda_plus(abs(mu), consts)


def rate_I(b: float, consts: ModelConstants | None = None) -> float:
    """Rate function of the scaled endpoint displacement, b >= 0."""
    b = float(b)
    if not math.isfinite(b) or b < 0.0:
        raise DomainError(f"rate_I requires b >= 0, got {b!r}")
    consts = _resolve(consts)
    if b <= consts.b_2star:
        return consts.a_2star - b * consts.rho_2star
    a_b = _a_of_b(b, consts)
    return a_b - b * _rho(a_b)


def rate_derivative(b: float, consts: ModelConstants | None = None) -> float:
    """dI/db; on the envelope branch this is -rho(a_b) (a_b is stationary)."""
    b = float(b)
    if not math.isfinite(b) or b < 0.0:
        raise DomainError(f"rate_derivative requires b >= 0, got {b!r}")
    consts = _resolve(consts)
    if b <= consts.b_2star:
        return -consts.rho_2star
    a_b = _a_of_b(b, consts)
    return -_rho(a_b)


@dataclass(frozen=True)
class LegendreReport:
    b: float
    direct: float
    dual: float
    gap: float
    mu_argmax: float


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_N_GRID = 25  # coarse scan of the duality checks before the golden search
_B_HI = 12.0  # lambda_from_rate's upper end of b, far above b_2star = 0.858


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
    return (0.5 * (lo + hi), max(f1, f2))


def legendre_check(b: float, consts: ModelConstants | None = None) -> LegendreReport:
    """Recompute I(b) as sup_mu (mu b - lambda_plus(mu)) and report the gap.

    The supremum runs over a as sup_{a <= a_2star} (a - b rho(a)) with the
    kink a = a_2star as an explicit endpoint; it never invokes the envelope
    relation.  Raises SolverError when the grid maximum is its left end.
    """
    b = float(b)
    if not math.isfinite(b) or b < 0.0:
        raise DomainError(f"legendre_check requires b >= 0, got {b!r}")
    consts = _resolve(consts)
    direct = rate_I(b, consts=consts)
    kink = -consts.rho_2star
    # the argmax lies at mu = -rho(a_b) >= kink; cover mu <= mu_hi with margin,
    # as rho(a) < -sqrt(-2a) puts a = -mu_hi^2/2 - 2 at mu > mu_hi.  The
    # first term grows like 0.75 b, the argmax like b (it is below b on
    # (b_2star, 12]), so b + 0.5 takes over from b = 6.33 on
    mu_hi = max(2.0, 1.5 * (direct / max(b, 0.25)) + 2.0, b + 0.5)
    f = lambda a: a - b * _rho(a)
    grid = np.linspace(-(mu_hi * mu_hi) / 2.0 - 2.0, consts.a_2star, _N_GRID)
    vals = np.array([f(a) for a in grid])
    i = int(np.argmax(vals))
    if i == 0:
        raise SolverError(f"legendre_check: supremum not bracketed at b = {b:g}")
    a_best, dual = _golden_max(f, grid[i - 1], grid[min(i + 1, _N_GRID - 1)], 1e-4)
    mu_best = -_rho(a_best)
    # for b <= b_2star the supremum is the kink itself
    kink_val = b * kink + consts.a_2star
    if kink_val > dual:
        mu_best, dual = kink, kink_val
    return LegendreReport(b=b, direct=direct, dual=dual,
                          gap=abs(direct - dual), mu_argmax=mu_best)


def lambda_from_rate(mu: float, consts: ModelConstants | None = None) -> float:
    """Involution partner: recompute lambda_plus as sup_{b <= 12} (mu b - I(b)).

    The linear segment is maximised in closed form and the envelope over a
    in [a(12), a_2star], where mu b - I = (mu + rho(a)) / rho'(a) - a.
    Raises DomainError when mu > -rho(a(12)), where the supremum lies
    past b = 12 (mu above 11.986).
    """
    mu = float(mu)
    if not math.isfinite(mu):
        raise DomainError(f"mu must be finite, got {mu!r}")
    consts = _resolve(consts)
    a_2s = consts.a_2star
    linear = max(-a_2s, consts.b_2star * (mu + consts.rho_2star) - a_2s)
    a_lo = _a_of_b(_B_HI, consts)
    mu_max = -_rho(a_lo)
    if mu > mu_max:
        raise DomainError(f"lambda_from_rate with b_hi = {_B_HI:g} requires "
                          f"mu <= {mu_max:.9g}, got {mu!r}")
    def g(a):
        rho, rho1 = eigenvalue(a)
        return (mu + rho) / rho1 - a
    grid = np.linspace(a_lo, a_2s, _N_GRID)
    vals = np.array([g(a) for a in grid])
    i = int(np.argmax(vals))
    _, best = _golden_max(g, grid[max(i - 1, 0)], grid[min(i + 1, _N_GRID - 1)], 1e-4)
    return max(best, linear)


def rate_I_scaled(b: float, beta: float, consts: ModelConstants | None = None) -> float:
    """Rate function at repulsion strength beta via the scaling relation

        I_beta(b) = beta^{2/3} I(beta^{-1/3} b).
    """
    beta = float(beta)
    if not math.isfinite(beta) or beta <= 0.0:
        raise DomainError(f"beta must be positive, got {beta!r}")
    s = beta ** (1.0 / 3.0)
    return s * s * rate_I(float(b) / s, consts)


def lambda_scaled(mu: float, beta: float, consts: ModelConstants | None = None) -> float:
    """MGF at repulsion strength beta: beta^{2/3} lambda(beta^{-1/3} mu)."""
    beta = float(beta)
    if not math.isfinite(beta) or beta <= 0.0:
        raise DomainError(f"beta must be positive, got {beta!r}")
    s = beta ** (1.0 / 3.0)
    return s * s * lambda_full(float(mu) / s, consts)
