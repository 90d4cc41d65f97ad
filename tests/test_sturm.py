"""Tests for the Sturm-Liouville principal eigenvalue solver.

Oracles used here:
  * finite differences of rho(a) against the Hellmann-Feynman first
    derivative returned by the solver,
  * the variational lower bound rho(a) >= -sqrt(2)(-a)^{1/2} - J/(-a),
  * frozen regression pins computed by this solver at high resolution
    and cross-validated through the critical-constant chain in
    test_constants.py,
  * structural invariants (positivity, normalization, tail decay law),
  * the Laguerre-Galerkin solve `eigenvalue` and the finite-volume
    `principal_eigen` as oracles for each other, plus the min-max
    properties of the Ritz values.
"""

import math

import numpy as np
import pytest
import scipy.linalg as sla

import edwards1d.sturm as sturm
from edwards1d.airy import a_2star
from edwards1d.errors import DomainError, SolverError
from edwards1d.sturm import (
    EigenSolution,
    eigenvalue,
    principal_eigen,
    eigen_residual,
    rho_derivative,
    rayleigh_lower_bound,
    clear_cache,
)

SQRT2 = math.sqrt(2.0)
TAIL_TARGET = -SQRT2 / 3.0

# Regression pins (computed at n=2500 with two refinement levels and
# Richardson extrapolation; stable to ~1e-8 under further refinement).
RHO_AT_0 = -1.4771497538
RHO_AT_2 = -0.1651653281
RHO2_AT_2 = 0.2644698


def test_positivity_and_normalization():
    for a in (-2.0, 0.0, 2.5):
        sol = principal_eigen(a)
        assert sol.x.min() > -1e-8 * sol.x.max()
        assert abs(np.sum(sol.weights * sol.x**2) - 1.0) < 1e-10
        # far endpoint is pinned to zero
        assert sol.x[-1] == 0.0


def test_eigen_residual_small():
    for a in (0.0, 2.0):
        sol = principal_eigen(a)
        assert eigen_residual(sol) < 1e-6


def test_known_values_regression():
    assert abs(principal_eigen(0.0).rho - RHO_AT_0) < 2e-6
    assert abs(principal_eigen(2.0).rho - RHO_AT_2) < 2e-6


def test_rho_negative_at_zero():
    assert principal_eigen(0.0).rho < 0.0


def test_tail_decay_default_box():
    # log x(h) / h^{3/2} approaches -sqrt(2)/3; at the default box the
    # subleading (a/sqrt(2)) h^{1/2} term is small only for moderate a >= 0,
    # so the 10% check is asserted where it genuinely holds.
    for a in (0.0, 1.0):
        sol = principal_eigen(a)
        idx = np.searchsorted(sol.h, 0.9 * sol.h_max)
        idx = min(idx, len(sol.h) - 2)
        ratio = np.log(sol.x[idx]) / sol.h[idx] ** 1.5
        assert abs(ratio - TAIL_TARGET) < 0.1 * abs(TAIL_TARGET)


def test_tail_decay_large_box():
    _, _, h, x, _ = sturm._solve_level(2.0, 30.0, 16000)
    idx = np.searchsorted(h, 27.0)
    idx = min(idx, len(h) - 2)
    ratio = np.log(x[idx]) / h[idx] ** 1.5
    assert abs(ratio - TAIL_TARGET) < 0.1 * abs(TAIL_TARGET)


def test_tail_exponent_structure():
    # the decay exponent is 3/2: a fit of log(-log x) against log h over the
    # outer half of the box must sit well away from exponents 1 and 2.
    for a in (-2.0, 0.0, 2.0):
        sol = principal_eigen(a)
        m = (sol.h > 0.55 * sol.h_max) & (sol.h < 0.95 * sol.h_max) & (sol.x > 0)
        slope = np.polyfit(np.log(sol.h[m]), np.log(-np.log(sol.x[m])), 1)[0]
        assert 1.2 < slope < 1.75


def test_config_validation():
    with pytest.raises(DomainError):
        principal_eigen(float("nan"))
    with pytest.raises(DomainError):
        principal_eigen(2.0, h_max=0.0)


def test_rho_monotone_and_convex():
    a_grid = np.arange(-5.0, 6.0 + 1e-9, 0.25)
    rho = np.array([principal_eigen(a).rho for a in a_grid])
    d1 = np.diff(rho)
    assert np.all(d1 > 0.0)
    d2 = np.diff(rho, 2)
    assert np.all(d2 > -1e-6)


def test_hellmann_feynman_consistency():
    # rho'(a) from the eigenvector must match a centered difference of
    # rho(a) on the same box to 1e-5 relative.
    for a in (-2.0, 0.0, 2.0, 3.0):
        sol = principal_eigen(a)
        d = 1e-3
        fd = (principal_eigen(a + d, sol.h_max).rho
              - principal_eigen(a - d, sol.h_max).rho) / (2 * d)
        assert abs(fd - sol.rho1) < 1e-5 * abs(sol.rho1)


def test_refinement_order():
    # successive mesh doubling reduces the rho error at order >= 1.8
    hm = 13.0
    vals = [sturm._solve_level(2.0, hm, n)[0] for n in (1500, 3000, 6000)]
    r = (vals[0] - vals[1]) / (vals[1] - vals[2])
    order = math.log2(abs(r))
    assert order > 1.8


def test_rho_derivative_values():
    r1, r2 = rho_derivative(2.0)
    sol = principal_eigen(2.0)
    assert abs(r1 - sol.rho1) < 1e-6 * abs(sol.rho1)
    assert r2 > 0.0
    assert abs(r2 - RHO2_AT_2) < 2e-3


def test_rayleigh_bound_domain():
    with pytest.raises(DomainError):
        rayleigh_lower_bound(0.0)
    with pytest.raises(DomainError):
        rayleigh_lower_bound(1.5)
    with pytest.raises(DomainError):
        rayleigh_lower_bound(float("inf"))


def test_rayleigh_bound_deep_asymptote():
    a = -1e6
    bound = rayleigh_lower_bound(a)
    assert abs(bound / math.sqrt(-a) + SQRT2) < 1e-3 * SQRT2


def test_rayleigh_bound_ordering():
    # rho(a) sits above the bound; the bound-to-rho gap is O(1/|a|) so the
    # check is run where the solver accuracy beats the gap comfortably.
    for a in (-5.0, -20.0, -100.0):
        assert principal_eigen(a).rho >= rayleigh_lower_bound(a)


def test_rayleigh_gap_scaling():
    # the 1/(-a) term of the bound matches the true subleading term of rho,
    # so the residual gap decays like (-a)^{-5/2}: halving a scales the gap
    # by about 2^{-5/2} ~ 0.177.
    gap = {a: principal_eigen(a).rho - rayleigh_lower_bound(a) for a in (-20.0, -40.0)}
    ratio = gap[-40.0] / gap[-20.0]
    assert 0.12 < ratio < 0.25


def test_rayleigh_bound_is_true_rayleigh_quotient():
    # the closed form must equal the Rayleigh quotient of e^{-ch} with
    # c = sqrt(-a/2), computed here by independent quadrature.
    from scipy.integrate import quad

    for a in (-5.0, -50.0):
        c = math.sqrt(-a / 2.0)
        num = quad(lambda h: -2 * h * c * c * np.exp(-2 * c * h)
                   + (a * h - h * h) * np.exp(-2 * c * h), 0, 60 / c, limit=200)[0]
        den = quad(lambda h: np.exp(-2 * c * h), 0, 60 / c, limit=200)[0]
        assert abs(num / den - rayleigh_lower_bound(a)) < 1e-9 * abs(num / den)


def test_deep_negative_asymptote():
    sol = principal_eigen(-1e4)
    target = -SQRT2 * 100.0
    assert abs(sol.rho - target) < 1e-3 * abs(target)


def test_boundary_row_selects_flux_free_extension():
    # h=0 is in the limit-circle case: the flux-free (natural) first row and
    # a hard Dirichlet row give genuinely different self-adjoint problems.
    # This pins the natural choice; the Dirichlet variant sits far below.
    a = 0.0
    h = sturm._grid(12.0, 4000)
    w = sturm._trapezoid_weights(h)
    dh = np.diff(h)
    c = (h[:-1] + h[1:]) / dh
    q = a * h - h * h
    n = len(h)
    diag = np.empty(n - 1)
    diag[0] = q[0] - c[0] / w[0]
    diag[1:] = q[1:-1] - (c[:-1] + c[1:])[: n - 2] / w[1:-1]
    off = c[: n - 2] / np.sqrt(w[:-2] * w[1:-1])
    rho_nat = sla.eigh_tridiagonal(
        diag, off, select="i", select_range=(n - 2, n - 2), eigvals_only=True)[0]
    rho_dir = sla.eigh_tridiagonal(
        diag[1:], off[1:], select="i", select_range=(n - 3, n - 3), eigvals_only=True)[0]
    assert abs(rho_nat - RHO_AT_0) < 1e-4
    assert rho_dir < rho_nat - 0.1


def test_cache_returns_same_object():
    clear_cache()
    s1 = principal_eigen(1.23)
    s2 = principal_eigen(1.23)
    assert s1 is s2
    clear_cache()


def test_solution_fields():
    sol = principal_eigen(0.5)
    assert isinstance(sol, EigenSolution)
    assert sol.h.shape == sol.x.shape == sol.weights.shape
    assert sol.h[0] == 0.0
    assert sol.h[-1] == sol.h_max


def test_galerkin_matrices_match_their_definitions():
    # sturm builds D X D^T and X^2 in closed form; here they are the
    # products they stand for, with X from N + 1 terms and
    # D = -I/2 - strict lower ones (every entry exact in binary)
    n = sturm._N_CHECK
    k = np.arange(n + 1.0)
    x_ext = np.diag(2 * k + 1) - np.diag(k[:-1] + 1, 1) - np.diag(k[:-1] + 1, -1)
    d = -0.5 * np.eye(n) - np.tril(np.ones((n, n)), -1)
    assert np.array_equal(sturm._X, x_ext[:n, :n])
    assert np.array_equal(sturm._DXD, d @ x_ext[:n, :n] @ d.T)
    assert np.array_equal(sturm._X2, (x_ext @ x_ext)[:n, :n])


def test_galerkin_matches_finite_volumes():
    # the two solvers share no code; largest measured gaps over this grid
    # are 1.65e-8 in rho and 8.3e-11 in rho'
    for a in np.linspace(-100.0, a_2star(), 120):
        rho, rho1 = eigenvalue(a)
        sol = principal_eigen(a)
        assert abs(rho - sol.rho) < 3e-8, a
        assert abs(rho1 - sol.rho1) < 2e-10, a


def test_galerkin_truncation_converged():
    # from a = -1000 (s = 63) to a** (s = 4), N = 48 and N + 16 agree to
    # rounding (measured 4e-13 in rho, 1e-17 in rho')
    for a in (-1000.0, -72.0, 0.0, a_2star()):
        rho, rho1 = sturm._ritz(a, sturm._N)
        ref, ref1 = sturm._ritz(a, sturm._N_CHECK)
        assert abs(rho - ref) < 1e-12, a
        assert abs(rho1 - ref1) < 1e-12, a


def test_ritz_values_rise_with_n():
    # min-max: each added basis function can only raise the top Ritz value;
    # the slack is the eigensolver's backward error, n eps |A|
    for a in (-1000.0, -72.0, -5.0, 0.0, a_2star()):
        A, _ = sturm._form(a, sturm._N_CHECK)
        slack = sturm._N_CHECK * np.finfo(float).eps * np.linalg.norm(A, 2)
        vals = [sturm._ritz(a, n)[0] for n in range(1, sturm._N_CHECK + 1)]
        assert np.all(np.diff(vals) >= -slack), a


def test_galerkin_above_rayleigh_bound():
    # rho - bound decays like (-a)^{-5/2} (test_rayleigh_gap_scaling); at
    # a = -1e4 it is 1.6e-10, past that it falls below the solve's rounding
    for a in (-1e4, -1000.0, -100.0, -72.0, -20.0, -5.0, -1.0, -0.1):
        assert eigenvalue(a)[0] >= rayleigh_lower_bound(a), a


def test_eigenvalue_rejects_non_finite_a():
    for a in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(DomainError):
            eigenvalue(a)


def test_eigenvalue_gate_raises_on_truncation_gap(monkeypatch):
    real = sturm._ritz
    for shift in ((1e-6, 0.0), (0.0, 1e-6)):
        monkeypatch.setattr(
            sturm, "_ritz",
            lambda a, n, d=shift: real(a, n) if n == sturm._N
            else (real(a, n)[0] + d[0], real(a, n)[1] + d[1]))
        with pytest.raises(SolverError, match="not converged"):
            eigenvalue(1.0)
    monkeypatch.undo()
    # without a patch the gate fires where s = 4 is too wide for x_a
    with pytest.raises(SolverError, match="not converged"):
        eigenvalue(60.0)


def test_ritz_matches_eigh_route():
    # _ritz calls dsyevr with the arguments eigh(A, subset_by_index=[n-1,
    # n-1]) passes it; the two must agree to the bit, whatever scipy and
    # LAPACK are installed
    for a in map(float, np.linspace(-1000.0, 2.2, 37)):
        for n in range(1, sturm._N_CHECK + 1):
            A, s = sturm._form(a, n)
            w, v = sla.eigh(A, subset_by_index=[n - 1, n - 1])
            v = v[:, 0]
            ref = (float(w[0]), float(v @ sturm._X[:n, :n] @ v) / s)
            assert sturm._ritz.__wrapped__(a, n) == ref, (a, n)


def test_eigenvalue_cache_hit_equals_cold_solve(lapack_solves):
    for a in (-250.0, -3.7, 0.0, 1.9):
        first = eigenvalue(a)
        assert len(lapack_solves) == 2
        hit = eigenvalue(a)
        assert len(lapack_solves) == 2  # both truncations came from the cache
        clear_cache()
        assert eigenvalue(a) == hit == first, a
        assert len(lapack_solves) == 4
        clear_cache()
        lapack_solves.clear()


def test_clear_cache_empties_both_caches():
    eigenvalue(0.7)
    principal_eigen(0.7)
    assert sturm._ritz.cache_info().currsize >= 2
    assert sturm._principal_eigen.cache_info().currsize >= 1
    clear_cache()
    assert sturm._ritz.cache_info().currsize == 0
    assert sturm._principal_eigen.cache_info().currsize == 0


def test_eigenvalue_gate_runs_on_cache_hits(monkeypatch):
    # both Ritz pairs of a = 1.0 are cached before the patch, so the gate
    # compares cached values; it must still reject the shifted N + 16 pair
    eigenvalue(1.0)
    real = sturm._ritz
    monkeypatch.setattr(
        sturm, "_ritz",
        lambda a, n: real(a, n) if n == sturm._N
        else (real(a, n)[0] + 1e-6, real(a, n)[1]))
    with pytest.raises(SolverError, match="not converged"):
        eigenvalue(1.0)
