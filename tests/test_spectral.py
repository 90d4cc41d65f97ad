"""Tests for the Airy spectral expansion: boundary kernel, w series,
Laplace consistency, heat flow, Green kernel.

The expansion coefficients gamma_k enter everything downstream, so they
are checked first against a brute-force oracle that knows nothing about
the closed form: the residues of the meromorphic ratio
Ai(2^{-1/3}(h - a)) / Ai(-2^{-1/3} a) at its poles in a, extracted by
Richardson-extrapolated pole subtraction.
"""

import math

import numpy as np
import pytest

from edwards1d import airy, spectral
from edwards1d.airy import airy_batch, airy_zeros, eigenbasis
from edwards1d.errors import AccuracyError, DomainError
from edwards1d.spectral import (
    CBRT2,
    INV_CBRT2,
    green_apply,
    green_kernel,
    heat_evolve,
    laplace_reconstruct,
    min_time,
    w_coefficients,
    w_eval,
    w_tail_bound,
    y_kernel,
)

SQRT2 = math.sqrt(2.0)
A2S = CBRT2 * (-airy_zeros(1).zeros[0])  # first pole of the boundary kernel
# the benchmark's w_eval times and boundary-kernel parameters
T_GRID = [0.5 + 0.1 * i for i in range(16)]
A_GRID = [-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5]


def _raw_ratio(h: float, a: float) -> float:
    """The boundary kernel as a bare Airy ratio, no domain gating.

    Meromorphic in a with simple poles where the denominator vanishes;
    used to probe residues at poles beyond the first.
    """
    num = airy_batch(np.array([INV_CBRT2 * (h - a)]))[0][0]
    den = airy_batch(np.array([-INV_CBRT2 * a]))[0][0]
    return num / den


def _basis_value(k: int, h: float) -> float:
    el = eigenbasis(k + 1)[k]
    return el.c * airy_batch(np.array([INV_CBRT2 * h + el.zero]))[0][0]


def _pole(k: int) -> float:
    return CBRT2 * (-airy_zeros(k + 1).zeros[k])


class TestGammaOracle:
    def test_residues_match_expansion_products(self):
        # residue of the raw ratio at its k-th pole equals gamma_k e_k(h);
        # extract it by pole subtraction with Richardson in the offset
        exp = w_coefficients(8)
        for k in (0, 1, 2, 3):
            p = _pole(k)
            for h in (0.5, 1.5):
                d = 1e-4
                r1 = d * _raw_ratio(h, p - d)
                r2 = (d / 2) * _raw_ratio(h, p - d / 2)
                resid = 2.0 * r2 - r1
                product = exp.gamma[k] * _basis_value(k, h)
                assert resid == pytest.approx(product, rel=2e-6), (k, h)

    def test_gamma_closed_form_values(self):
        # gamma_k = 2^{1/3} / (c_k Ai'(a_k)) = sqrt(2) (-1)^k for the L^2-normalized basis
        gam = w_coefficients(60).gamma
        signs = (-1.0) ** np.arange(60)
        assert np.max(np.abs(gam - SQRT2 * signs)) < 1e-11

    def test_gamma_leading_positive(self):
        exp = w_coefficients(5)
        assert exp.gamma[0] > 0.0
        assert exp.gamma[0] * _basis_value(0, 1.0) > 0.0

    def test_expansion_container(self):
        exp = w_coefficients(50)
        assert exp.K == 50
        assert len(exp.zeros) == len(exp.eigenvalues) == len(exp.gamma) == 50
        assert np.array_equal(exp.eigenvalues, CBRT2 * exp.zeros)
        # zeros decrease, eigenvalues decrease, all negative
        assert np.all(np.diff(exp.zeros) < 0.0)
        assert np.all(exp.eigenvalues < 0.0)


class TestYKernel:
    def test_unit_at_origin(self):
        for a in (-1.0, 0.0, 2.0):
            assert y_kernel(0.0, a) == pytest.approx(1.0, abs=1e-14)

    def test_positive_and_decreasing_in_h(self):
        h = np.linspace(0.0, 12.0, 200)
        # strict decrease from h = 0 needs the numerator argument to start
        # right of the Airy maximum at -1.0188, i.e. a <= 2^{1/3} * 1.0188
        for a in (-2.0, 0.0, 1.0):
            y = y_kernel(h, a)
            assert np.all(y > 0.0)
            assert np.all(np.diff(y) < 0.0)
        # larger a overshoots first, then decays
        y = y_kernel(h, 2.5)
        assert np.all(y > 0.0)
        assert y.max() > y[0]
        tail = y[h >= 2.0]
        assert np.all(np.diff(tail) < 0.0)

    def test_blowup_near_threshold(self):
        assert y_kernel(1.0, A2S - 1e-4) > 1e3

    def test_far_field_decay_rate(self):
        # -log y_0(h) ~ (sqrt(2)/3) h^{3/2} for large h
        h = 40.0
        rate = -math.log(y_kernel(h, 0.0)) / h ** 1.5
        assert rate == pytest.approx(SQRT2 / 3.0, rel=0.05)

    def test_domain_errors(self):
        for a in (A2S, A2S + 1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                y_kernel(1.0, a)
        with pytest.raises(DomainError) as exc:
            y_kernel(1.0, 5.0)
        assert "2.945" in str(exc.value)
        with pytest.raises(DomainError):
            y_kernel(-0.5, 0.0)
        with pytest.raises(DomainError):
            y_kernel(math.nan, 0.0)


class TestLaplaceConsistency:
    def test_reconstruction_matches_kernel(self):
        # termwise Laplace transform of the w series against the closed form
        for a in (0.0, 1.0, 2.0):
            for h in (0.5, 1.0, 2.0):
                y = y_kernel(h, a)
                rec = laplace_reconstruct(h, a, K=200)
                assert abs(rec - y) / y < 1e-3, (a, h, rec, y)

    def test_reconstruction_small_h(self):
        y = y_kernel(0.3, 0.0)
        rec = laplace_reconstruct(0.3, 0.0, K=200)
        assert abs(rec - y) / y < 1e-3

    def test_abel_tail_error_bound(self):
        # the docstring's bound on the evaluation error of the asymptotic
        # tail, against the criterion-6 gate of 1e-3 relative
        for h in (1.0, 1.25, 1.5, 1.75):
            for a in A_GRID:
                bound = _abel_tail_error_bound(h, a)
                assert 0.0 < bound < 1e-9 * y_kernel(h, a), (h, a, bound)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            laplace_reconstruct(1.0, A2S)
        with pytest.raises(DomainError):
            laplace_reconstruct(0.0, 0.0)
        with pytest.raises(DomainError):
            laplace_reconstruct(-1.0, 0.0)


def _abel_tail_error_bound(h: float, a: float, K: int = 200) -> float:
    """The laplace_reconstruct docstring's bound on its tail's evaluation
    error, summed over the same terms as the tail itself."""
    eps = h * h / 88.0
    total, k = 0.0, K
    while True:
        z = -airy._zero_guess(np.arange(k, k + 20000, dtype=float))
        lam = -CBRT2 * z
        zeta = (2.0 / 3.0) * z ** 1.5
        damp = np.exp((a + lam) * eps)
        total += np.sum(CBRT2 * damp * 12.0 * np.finfo(float).eps * (1.0 + zeta)
                        / (np.abs(a + lam) * ((z - INV_CBRT2 * h) * z) ** 0.25))
        if damp[-1] < 1e-16:
            return total
        k += 20000


class TestWEval:
    def test_vanishes_at_origin(self):
        for t in (0.5, 3.0):
            assert abs(w_eval(0.0, t)) < 1e-12

    def test_positive_and_eventually_decreasing(self):
        assert w_eval(1.0, 3.0) > 0.0
        vals = [w_eval(1.0, t) for t in (2.0, 3.0, 4.0, 5.0, 6.0)]
        assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))

    def test_vector_h(self):
        h = np.array([0.0, 0.5, 1.0, 2.0])
        v = w_eval(h, 2.0)
        assert v.shape == h.shape
        assert abs(v[0]) < 1e-12 and np.all(v[1:] > 0.0)

    def test_truncation_gate(self):
        t_ok = min_time(200)
        with pytest.raises(AccuracyError) as exc:
            w_eval(1.0, 0.9 * t_ok)
        assert exc.value.bound > 1e-8
        # passes just above the documented minimum
        w_eval(1.0, 1.01 * t_ok)

    def test_min_time_shrinks_with_k(self):
        assert min_time(320) < min_time(200) < 0.2

    def test_tail_bound_monotone(self):
        assert w_tail_bound(200, 0.3) > w_tail_bound(200, 0.6)
        assert w_tail_bound(400, 0.3) < w_tail_bound(200, 0.3)
        assert w_tail_bound(200, min_time(200) * 1.01) < 1e-8

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            w_eval(1.0, -0.5)
        with pytest.raises(DomainError):
            w_eval(-1.0, 2.0)

    def test_long_time_asymptote(self):
        # w(h, t) e^{a2s t} -> gamma_0 e_0(h)
        lead = SQRT2 * _basis_value(0, 1.0)
        val = w_eval(1.0, 6.0) * math.exp(A2S * 6.0)
        assert val == pytest.approx(lead, rel=0.01)

    def test_spectral_gap_dominance(self):
        gap = CBRT2 * (airy_zeros(2).zeros[0] - airy_zeros(2).zeros[1])
        assert gap > 0.0
        for t in (4.0, 5.0):
            bound = math.exp(-(A2S + gap / 2.0) * t)
            for h in (0.5, 1.0, 2.0):
                lead = SQRT2 * _basis_value(0, h) * math.exp(-A2S * t)
                assert abs(w_eval(h, t) - lead) <= bound


def _terms_kept(t: float, K: int = 200) -> int:
    """K', the fewest terms whose tail bound at t is at most 1e-17 (K if none)."""
    return next((k for k in range(1, K) if w_tail_bound(k, t) <= 1e-17), K)


class TestWTruncation:
    """w_eval sums the K-term series only as far as its tail bound matters."""

    H = np.linspace(0.0, 30.0, 1201)

    def test_zero_lower_bound(self):
        # |a_k| >= 0.999 (3 pi (4k+3)/8)^{2/3}, which w_tail_bound rests on
        k = np.arange(200)
        asym = (3.0 * math.pi * (4.0 * k + 3.0) / 8.0) ** (2.0 / 3.0)
        assert np.all(np.abs(airy_zeros(200).zeros) >= 0.999 * asym)

    def test_term_magnitudes_below_one(self):
        # max_h |gamma_k e_k(h)| <= 1, the other fact behind w_tail_bound;
        # the grid reaches past the last hump of every e_k, k < 200
        exp = w_coefficients(200)
        h = np.linspace(0.0, 75.0, 3751)
        ai = airy_batch(INV_CBRT2 * h[:, None] + exp.zeros)[0]
        assert np.max(np.abs(ai * (exp.gamma * exp.c))) <= 1.0

    def test_tail_bound_covers_the_term_sum(self):
        # the closed form bounds the sum of the per-term bounds it replaces,
        # and by at most a small factor
        for K in (0, 13, 110, 200, 400):
            for t in (0.01, 0.1, 0.5, 2.0, 8.0):
                k = np.arange(K, K + 400_000)
                terms = np.exp(-spectral._decay_rate_bound(k) * t)
                direct = float(np.sum(terms[::-1]))
                if direct > 1e-300:
                    assert direct <= w_tail_bound(K, t) <= 1.3 * direct, (K, t)

    def test_matches_full_sum(self):
        exp = w_coefficients(200)
        ai = airy_batch(INV_CBRT2 * self.H[:, None] + exp.zeros)[0]
        for t in T_GRID:
            full = ai @ (exp.gamma * exp.c * np.exp(exp.eigenvalues * t))
            kept = _terms_kept(t)
            err = np.max(np.abs(w_eval(self.H, t) - full))
            assert err <= w_tail_bound(kept, t) + 1e-15, (t, kept, err)

    def test_cap_does_not_change_result(self):
        for t in T_GRID:
            if _terms_kept(t) < 200:
                assert np.array_equal(w_eval(self.H, t, K=400), w_eval(self.H, t, K=200)), t

    def test_airy_points_at_t2(self, monkeypatch):
        w_eval(self.H, 2.0)  # fill the basis cache first
        seen = []
        real = spectral.airy_batch

        def counting(x):
            seen.append(np.size(x))
            return real(x)

        monkeypatch.setattr(spectral, "airy_batch", counting)
        w_eval(self.H, 2.0)
        assert 0 < sum(seen) <= 13 * self.H.size


def _w_time_batch(h: float, ts: np.ndarray, K: int) -> np.ndarray:
    """w(h, t) for many t at once: one Airy evaluation, then matrix algebra."""
    exp = w_coefficients(K)
    ai = airy_batch(INV_CBRT2 * h + exp.zeros)[0]
    coef = exp.gamma * exp.c * ai
    return np.exp(np.outer(ts, exp.eigenvalues)) @ coef


def _integrate_w(h: float, t0: float, t1: float, K: int,
                 panels: int = 60) -> float:
    """Gauss-Legendre quadrature of w(h, .) on geometric panels of [t0, t1]."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = t0 * (t1 / t0) ** (np.arange(panels + 1) / panels)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        ts = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        total += 0.5 * (b - a) * np.dot(weights, _w_time_batch(h, ts, K))
    return total


def _series_tail_integral(h: float, t0: float, K: int) -> float:
    """int_{t0}^inf w(h, t) dt summed termwise (geometric, exact)."""
    exp = w_coefficients(K)
    ai = airy_batch(INV_CBRT2 * h + exp.zeros)[0]
    coef = exp.gamma * exp.c * ai
    return float(np.sum(coef * np.exp(exp.eigenvalues * t0) / (-exp.eigenvalues)))


class TestTimeIntegral:
    def test_integral_matches_kernel_at_h3(self):
        # int_0^inf w(3, t) dt = y_0(3); at h = 3 the mass below the
        # truncation floor t0 is bounded by erfc(3 / sqrt(8 t0)) ~ 3e-5
        K = 320
        t0 = min_time(K)
        total = _integrate_w(3.0, t0, 12.0, K) + _series_tail_integral(3.0, 12.0, K)
        y = y_kernel(3.0, 0.0)
        assert abs(total - y) / y < 1e-3

    def test_quadrature_matches_termwise_at_h1(self):
        # at h = 1 the sub-t0 mass is percent-level, so the quadrature is
        # checked against the termwise integral anchored at the same t0;
        # the identity with y_0(1) itself is covered by the Abel-summed
        # reconstruction above
        K = 200
        t0 = 0.2
        quad = _integrate_w(1.0, t0, 12.0, K) + _series_tail_integral(1.0, 12.0, K)
        term = _series_tail_integral(1.0, t0, K)
        assert quad == pytest.approx(term, rel=1e-6)


class TestHeatEvolve:
    def _grid(self, h_max=25.0, n=4001):
        return np.linspace(0.0, h_max, n)

    def test_eigenfunction_decay(self):
        h = self._grid()
        el = eigenbasis(1)[0]
        u0 = el.c * airy_batch(INV_CBRT2 * h + el.zero)[0]
        u0[0] = u0[-1] = 0.0
        tau = 0.5
        out = heat_evolve(u0, h, tau)
        expect = math.exp(el.eigenvalue * tau) * u0
        err = np.linalg.norm(out - expect) / np.linalg.norm(expect)
        assert err < 1e-4

    def test_semigroup_against_w(self):
        h = self._grid()
        u1 = w_eval(h, 1.0)
        u1[0] = u1[-1] = 0.0
        out = heat_evolve(u1, h, 1.0)
        u2 = w_eval(h, 2.0)
        err = np.linalg.norm(out - u2) / np.linalg.norm(u2)
        assert err < 1e-3

    def test_positivity_and_boundaries(self):
        h = self._grid(20.0, 2001)
        u0 = np.exp(-((h - 3.0) ** 2))
        u0[0] = u0[-1] = 0.0
        out = heat_evolve(u0, h, 0.8)
        assert out[0] == 0.0 and out[-1] == 0.0
        assert out.min() > -1e-10
        # killing at rate h makes total mass strictly decrease
        assert np.trapezoid(out, h) < np.trapezoid(u0, h)

    def test_tau_zero_is_copy(self):
        h = self._grid(10.0, 101)
        u0 = np.sin(h)
        out = heat_evolve(u0, h, 0.0)
        assert np.array_equal(out, u0) and out is not u0

    def test_domain_errors(self):
        h = np.geomspace(0.1, 10.0, 101)
        with pytest.raises(DomainError):
            heat_evolve(np.ones(101), h, 1.0)
        u = np.linspace(0.0, 10.0, 101)
        with pytest.raises(DomainError):
            heat_evolve(np.ones(101), u, -1.0)
        with pytest.raises(DomainError):
            heat_evolve(np.ones(50), u, 1.0)


class TestGreen:
    def _grid(self, h_max=30.0, n=6001):
        return np.linspace(0.0, h_max, n)

    def test_inverts_eigenfunctions(self):
        h = self._grid()
        for k in range(3):
            el = eigenbasis(3)[k]
            e = el.c * airy_batch(INV_CBRT2 * h + el.zero)[0]
            out = green_apply(e, h)
            expect = e / el.eigenvalue
            err = np.linalg.norm(out - expect) / np.linalg.norm(expect)
            assert err < 1e-4, k

    def test_endpoint_and_sign(self):
        h = self._grid(20.0, 2001)
        f = np.exp(-((h - 2.0) ** 2))
        out = green_apply(f, h)
        assert abs(out[0]) < 1e-12
        # L is negative definite, so applying its inverse flips sign
        assert np.all(out[1:] < 0.0)

    def test_self_adjoint(self):
        h = self._grid(20.0, 2001)
        w = np.empty_like(h)
        w[0] = 0.5 * (h[1] - h[0])
        w[-1] = 0.5 * (h[-1] - h[-2])
        w[1:-1] = 0.5 * (h[2:] - h[:-2])
        f = np.exp(-((h - 2.0) ** 2))
        g = np.exp(-((h - 5.0) ** 2) / 2.0)
        lhs = np.sum(w * g * green_apply(f, h))
        rhs = np.sum(w * f * green_apply(g, h))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_kernel_symmetry_and_sign(self):
        assert green_kernel(1.0, 2.0) == green_kernel(2.0, 1.0)
        assert green_kernel(1.0, 2.0) < 0.0
        assert abs(green_kernel(0.0, 2.0)) < 1e-12

    def test_delta_jump_normalization(self):
        # 2 d^2G/du^2 = delta at u = v, so the flux 2 dG/du must jump by
        # exactly 1 across the diagonal; this pins the kernel constant
        # independently of the eigenbasis
        d = 1e-5
        for v in (0.7, 2.0):
            up = (green_kernel(v + d, v) - green_kernel(v, v)) / d
            dn = (green_kernel(v, v) - green_kernel(v - d, v)) / d
            assert 2.0 * (up - dn) == pytest.approx(1.0, abs=1e-4)

    def test_off_diagonal_ode(self):
        # away from the diagonal, 2 G'' = u G
        d = 1e-3
        for u, v in ((0.5, 2.0), (2.5, 1.0)):
            g2 = (green_kernel(u + d, v) - 2.0 * green_kernel(u, v)
                  + green_kernel(u - d, v)) / d ** 2
            assert 2.0 * g2 == pytest.approx(u * green_kernel(u, v), rel=1e-5)

    def test_hilbert_schmidt_norm_stable(self):
        # G(u, v) = K y1(min) y2(max) is separable, so the double integral
        # of G^2 collapses to cumulative sums over the 1-d grid
        def hs_norm(n):
            h = np.linspace(0.0, 30.0, n)
            w = np.full(n, h[1] - h[0])
            w[0] *= 0.5
            w[-1] *= 0.5
            y1, y2 = spectral._green_pair(h)
            a = w * y1 * y1
            b = w * y2 * y2
            below = np.concatenate(([0.0], np.cumsum(a)[:-1]))
            off = 2.0 * np.sum(b * below)
            diag = np.sum(w * w * y1 * y1 * y2 * y2)
            return abs(spectral.GREEN_K) * math.sqrt(off + diag)

        a, b = hs_norm(1500), hs_norm(3000)
        assert abs(a - b) / b < 0.01
        # spot-check the separable formula against the direct kernel
        assert green_kernel(1.2, 3.4) == pytest.approx(
            spectral.GREEN_K * spectral._green_pair(np.array([1.2]))[0][0]
            * spectral._green_pair(np.array([3.4]))[1][0], rel=1e-12)

    def test_domain_errors(self):
        h = np.linspace(0.0, 10.0, 101)
        with pytest.raises(DomainError):
            green_apply(np.ones(50), h)
        with pytest.raises(DomainError):
            green_apply(np.ones(101), h[::-1])
