"""Tests for the rate function and moment generating functions.

The dual routes (envelope formula vs discrete Legendre supremum) act as
oracles for each other; additional pins come from closed-form values at
the critical constants and the quadratic upper bound mu^2/2.
"""

import math

import numpy as np
import pytest

from edwards1d import rate, sturm
from edwards1d.constants import compute_constants
from edwards1d.errors import DomainError, SolverError
from edwards1d.rate import (
    lambda_plus,
    lambda_full,
    lambda_from_rate,
    lambda_scaled,
    legendre_check,
    rate_I,
    rate_I_scaled,
    rate_derivative,
)

C = compute_constants()


def test_lambda_at_zero():
    assert abs(lambda_plus(0.0, consts=C) + C.a_star) < 1e-7


def test_lambda_flat_segment():
    kink = -C.rho_2star
    assert lambda_plus(kink - 0.3, consts=C) == -C.a_2star
    assert lambda_plus(kink - 5.0, consts=C) == -C.a_2star
    # continuity across the kink
    assert abs(lambda_plus(kink + 1e-9, consts=C) + C.a_2star) < 1e-7


def test_lambda_monotone_convex():
    mus = np.linspace(-1.5, 3.0, 19)
    vals = np.array([lambda_plus(m, consts=C) for m in mus])
    d1 = np.diff(vals)
    assert np.all(d1 >= -1e-12)
    # strictly increasing right of the kink
    right = mus[:-1] > -C.rho_2star
    assert np.all(d1[right] > 0.0)
    assert np.all(np.diff(vals, 2) > -1e-7)


def test_lambda_quadratic_bound():
    # lambda_plus(mu) <= mu^2/2 with a gap that shrinks as mu grows
    gaps = []
    for mu in (10.0, 30.0, 50.0):
        val = lambda_plus(mu, consts=C)
        gap = mu * mu / 2.0 - val
        assert gap > 0.0
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2]
    assert abs(lambda_plus(50.0, consts=C) - 1250.0) < 1.0


def test_lambda_full_even():
    for mu in (0.4, 1.7):
        assert lambda_full(-mu, consts=C) == lambda_full(mu, consts=C)


def test_rate_closed_form_points():
    assert abs(rate_I(C.b_star, consts=C) - C.a_star) < 1e-6
    assert rate_I(0.0, consts=C) == C.a_2star


def test_rate_linear_segment():
    # exactly linear below b_2star
    b1, b2, b3 = 0.2, 0.45, 0.7
    v1, v2, v3 = (rate_I(b, consts=C) for b in (b1, b2, b3))
    assert abs((v2 - v1) / (b2 - b1) - (v3 - v2) / (b3 - b2)) < 1e-12
    assert abs(rate_derivative(0.5, consts=C) + C.rho_2star) < 1e-12


def test_rate_slope_envelope_vs_fd():
    for b0 in (C.b_2star + 1e-3, 1.5):
        d = 2e-4
        fd = (rate_I(b0 + d, consts=C) - rate_I(b0 - d, consts=C)) / (2 * d)
        assert abs(fd - rate_derivative(b0, consts=C)) < 1e-4


def test_rate_curvature_at_minimum():
    d = 0.02
    i2 = (rate_I(C.b_star + d, consts=C) - 2 * rate_I(C.b_star, consts=C)
          + rate_I(C.b_star - d, consts=C)) / d**2
    assert abs(i2 * C.c_star**2 - 1.0) < 0.02


def test_rate_far_field():
    v = rate_I(10.0, consts=C)
    assert abs(v - 50.0) <= 0.2
    # regression pin on the computed value
    assert abs(v - 50.19990) < 5e-4


def test_rate_convex_with_interior_minimum():
    bs = np.linspace(0.0, 3.0, 13)
    vals = np.array([rate_I(b, consts=C) for b in bs])
    d1 = np.diff(vals)
    # decreasing up to the minimum at b_star, increasing after
    assert np.all(d1[bs[1:] <= C.b_star] < 0.0)
    assert np.all(d1[bs[:-1] >= C.b_star] > 0.0)
    assert np.all(np.diff(vals, 2) > -1e-12)
    assert np.min(vals) >= C.a_star - 1e-9


def test_legendre_gap():
    # from b = 6.33 on the grid's mu_hi is b + 0.5
    for b in (0.2, 1.5, 9.0, 10.0, 12.0):
        rep = legendre_check(b, consts=C)
        assert rep.gap < 1e-5
        assert abs(rep.direct - rate_I(b, consts=C)) < 1e-12


def test_involution():
    for mu in (-1.0, 0.3):
        back = lambda_from_rate(mu, consts=C)
        assert abs(back - lambda_plus(mu, consts=C)) < 1e-5


def test_duality_checks_cost_one_solve_per_point(monkeypatch):
    # one eigenvalue call per point of either supremum; searching over
    # mu and over b made about 750 and 850
    calls = []
    real = rate.eigenvalue
    monkeypatch.setattr(rate, "eigenvalue", lambda a: calls.append(a) or real(a))
    for fn, arg in ((legendre_check, 1.5), (lambda_from_rate, 0.3)):
        calls.clear()
        fn(arg, consts=C)
        assert len(calls) <= 100, fn.__name__


def test_rate_values_pinned():
    # exact values, so a change to the duality checks cannot move them
    assert rate_I(0.3, consts=C) == 2.7127381963041564
    assert rate_I(1.5, consts=C) == 2.3560424683748353
    assert rate_I(3.0, consts=C) == 5.156047903597402
    assert rate_derivative(1.5, consts=C) == 0.8062842357795363
    assert rate_derivative(3.0, consts=C) == 2.790598914610098
    assert lambda_plus(-1.0, consts=C) == -2.945830743353453
    assert lambda_plus(0.3, consts=C) == -1.8372146414963593
    assert lambda_plus(2.0, consts=C) == 1.1129582302750711


def test_involution_fails_past_b_hi():
    # the supremum at mu = 13 lies beyond b_hi = 12; clipping it there
    # returned 83.83 against lambda_plus(13) = 84.35
    with pytest.raises(DomainError, match="mu <="):
        lambda_from_rate(13.0, consts=C)


def test_legendre_check_fails_when_unbracketed(monkeypatch):
    # with rho(a) = a, a - b rho(a) falls in a for b > 1, so its grid
    # maximum is the left end
    monkeypatch.setattr(rate, "_rho", lambda a: a)
    with pytest.raises(SolverError, match="not bracketed"):
        legendre_check(5.0, consts=C)


def test_rate_derivative_reuses_the_rate_row_solves(lapack_solves):
    # a rate-curve row: rate_derivative repeats rate_I's brentq iterates,
    # all of them cache hits
    rate_I_scaled(3.0, 1.0, consts=C)
    assert lapack_solves
    lapack_solves.clear()
    rate_derivative(3.0, consts=C)
    assert lapack_solves == []


def test_lambda_plus_solves_each_iterate_once(monkeypatch, lapack_solves):
    # the bracket check and brentq both evaluate the lower end; each
    # distinct a costs one Ritz pair at N and one at N + 16
    iterates = []
    real = rate.eigenvalue
    monkeypatch.setattr(rate, "eigenvalue", lambda a: iterates.append(a) or real(a))
    lambda_plus(2.0, consts=C)
    assert len(set(iterates)) < len(iterates)
    assert len(lapack_solves) == 2 * len(set(iterates))
    assert lapack_solves.count(sturm._N) == lapack_solves.count(sturm._N_CHECK)


def test_scaling_relations():
    # beta = 1 is the identity
    assert rate_I_scaled(1.3, 1.0, consts=C) == rate_I(1.3, consts=C)
    # beta = 8: scale factors are exactly 4 and 1/2
    assert abs(rate_I_scaled(2.0 * C.b_star, 8.0, consts=C) - 4.0 * C.a_star) < 1e-6
    assert abs(lambda_scaled(0.0, 8.0, consts=C) + 4.0 * C.a_star) < 1e-6


def test_domain_errors():
    with pytest.raises(DomainError):
        rate_I(-0.1, consts=C)
    with pytest.raises(DomainError):
        lambda_plus(float("nan"), consts=C)
    with pytest.raises(DomainError):
        rate_I_scaled(1.0, 0.0, consts=C)
    with pytest.raises(DomainError):
        rate_derivative(float("inf"), consts=C)


def _against_scipy(monkeypatch, module):
    """Route module._brentq through the port and scipy's brentq; record both."""
    from scipy.optimize import brentq

    pairs = []

    def both(f, lo, hi, xtol, rtol):
        pairs.append((sturm._brentq(f, lo, hi, xtol=xtol, rtol=rtol),
                      brentq(f, lo, hi, xtol=xtol, rtol=rtol)))
        return pairs[-1][0]

    monkeypatch.setattr(module, "_brentq", both)
    return pairs


def test_brentq_port_equals_scipy_on_rate_brackets(monkeypatch):
    pairs = _against_scipy(monkeypatch, rate)
    rng = np.random.default_rng(11)
    for b in rng.uniform(C.b_2star * 1.001, 12.0, 30):
        rate_I(float(b), consts=C)
    for mu in rng.uniform(-C.rho_2star + 1e-3, 10.0, 30):
        lambda_plus(float(mu), consts=C)
    assert len(pairs) == 60
    assert all(port == ref for port, ref in pairs)


def test_brentq_port_equals_scipy_on_a_star(monkeypatch):
    from edwards1d import constants

    pairs = _against_scipy(monkeypatch, constants)
    assert constants._find_a_star() == C.a_star
    assert len(pairs) == 1 and pairs[0][0] == pairs[0][1]


SYNTHETIC = [
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: math.exp(x) - 10.0, -5.0, 5.0),
    (lambda x: math.atan(x - 0.3) * 1e-8, -20.0, 40.0),
    (lambda x: (x - 1.0) ** 5, 0.0, 3.7),
    (lambda x: math.tanh(50.0 * (x - 0.123)), -1.0, 1.0),
    (lambda x: x * x - 2.0, 0.0, 2.0),
    (lambda x: 1.0 if x > 0.2 else -1.0, -1.0, 1.0),
]


def _outcome(solver, *args, **kw):
    try:
        return solver(*args, **kw)
    except (ValueError, RuntimeError):  # the port's errors are RuntimeErrors
        return "raises"


@pytest.mark.parametrize("k", range(len(SYNTHETIC)))
@pytest.mark.parametrize("xtol, rtol", [(2e-12, 8.9e-16), (1e-4, 1e-10)])
def test_brentq_port_equals_scipy_on_synthetic(k, xtol, rtol):
    # the same root to the bit, or both raise ((x - 1)^5 does not converge
    # in 100 steps at the tight tolerance)
    from scipy.optimize import brentq

    f, lo, hi = SYNTHETIC[k]
    assert (_outcome(sturm._brentq, f, lo, hi, xtol=xtol, rtol=rtol)
            == _outcome(brentq, f, lo, hi, xtol=xtol, rtol=rtol))


@pytest.mark.parametrize("f, lo, hi, maxiter", [
    (lambda x: x * x + 1.0, -1.0, 1.0, 100),           # no sign change
    (lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, 100),
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0, 2),  # too few steps
])
def test_brentq_port_raises_where_scipy_raises(f, lo, hi, maxiter):
    from scipy.optimize import brentq

    assert _outcome(brentq, f, lo, hi, xtol=2e-12, rtol=8.9e-16,
                    maxiter=maxiter) == "raises"
    with pytest.raises((SolverError, sturm.NumericError)):
        sturm._brentq(f, lo, hi, xtol=2e-12, rtol=8.9e-16, maxiter=maxiter)
