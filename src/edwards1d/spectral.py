"""Spectral expansion machinery built on the Airy eigenbasis.

Everything here concerns the operator L = 2 d^2/dh^2 - h on [0, inf)
with a Dirichlet condition at 0.  Its spectrum is lam_k = 2^{1/3} a_k
(a_k the zeros of Ai) with eigenfunctions e_k(h) = c_k Ai(2^{-1/3} h + a_k).

Three representations of the same object are exposed and cross-checked:

  * y_kernel(h, a): the boundary kernel Ai(2^{-1/3}(h-a)) / Ai(-2^{-1/3} a),
    defined for a below the threshold a_2star where the denominator has
    its first zero;
  * w_eval(h, t): the time-domain expansion
        w(h, t) = sum_k gamma_k e^{lam_k t} e_k(h),
    whose Laplace transform in t reproduces y_kernel;
  * laplace_reconstruct(h, a): the termwise-integrated Laplace transform
        sum_k gamma_k e_k(h) / (-(a + lam_k)),
    which must agree with y_kernel directly.

heat_evolve applies e^{tau L} on a grid (Crank-Nicolson with Rannacher
startup), green_apply applies L^{-1} through its closed-form kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import gammaincc

from .airy import (CBRT2, INV_CBRT2, _asym_neg, _zero_guess, a_2star, airy_batch,
                   eigenbasis)
from .errors import AccuracyError, DomainError

# Green kernel normalization: G(u,v) = GREEN_K * y1(min) * y2(max) where
# y1, y2 solve 2y'' = u y with y1(0) = 0 and y2 bounded; the Wronskian of
# the pair below is -2^{-1/3}/pi and the delta jump 2[dG/du] = 1 fixes
# GREEN_K = 1/(2W) = -2^{1/3} pi / 2.
GREEN_K = -CBRT2 * math.pi / 2.0


# w_eval's truncation gate: AccuracyError when the tail bound of its K
# terms exceeds this
W_TOL = 1e-8

# w_eval leaves out the terms whose summed tail bound is below this; it is
# far below W_TOL and at the rounding level of w = O(1).
W_TERM_FLOOR = 1e-17

_GAMMA_3_2 = math.sqrt(math.pi) / 2.0  # Gamma(3/2)


@lru_cache(maxsize=8)
def _basis_arrays(K: int):
    """a_k, lam_k, c_k, Ai'(a_k) and gamma_k for k < K, computed once per K.

    The arrays are shared by every caller, so they are made read-only.
    """
    els = eigenbasis(K)
    zeros = np.array([e.zero for e in els])
    lams = np.array([e.eigenvalue for e in els])
    cs = np.array([e.c for e in els])
    aip = airy_batch(zeros)[1]
    gam = CBRT2 / (cs * aip)
    for arr in (zeros, lams, cs, aip, gam):
        arr.flags.writeable = False
    return zeros, lams, cs, aip, gam


@dataclass(frozen=True)
class WExpansion:
    """Truncated eigenexpansion data for the time-domain kernel."""
    K: int
    zeros: np.ndarray        # a_k, the Ai zeros
    eigenvalues: np.ndarray  # 2^{1/3} a_k
    gamma: np.ndarray
    c: np.ndarray            # normalization constants of e_k


def w_coefficients(K: int) -> WExpansion:
    """Expansion coefficients gamma_k of the time-domain kernel.

    gamma_k = 2^{1/3} / (c_k Ai'(a_k)); with the closed-form normalization
    c_k = 2^{-1/6} / |Ai'(a_k)| this is sqrt(2) (-1)^k up to rounding.
    """
    zeros, lams, cs, _, gam = _basis_arrays(K)
    return WExpansion(K=K, zeros=zeros, eigenvalues=lams, gamma=gam, c=cs)


def y_kernel(h, a: float):
    """Boundary kernel y_a(h) = Ai(2^{-1/3}(h - a)) / Ai(-2^{-1/3} a).

    Positive and finite for a < a_2star = 2^{1/3} |a_0|; above that the
    denominator Ai(-2^{-1/3} a) hits its first zero and the formula stops
    defining the object.
    """
    a = float(a)
    a_2s = a_2star()
    if not math.isfinite(a) or a >= a_2s - 1e-9:
        raise DomainError(
            f"y_kernel requires a < a_2star = {a_2s:.9f}, got {a!r}")
    h_arr = np.atleast_1d(np.asarray(h, dtype=float))
    if np.any(h_arr < 0.0) or not np.all(np.isfinite(h_arr)):
        raise DomainError("y_kernel requires finite h >= 0")
    num = airy_batch(INV_CBRT2 * (h_arr - a))[0]
    den = airy_batch(np.array([-INV_CBRT2 * a]))[0][0]
    out = num / den
    return out if np.ndim(h) else float(out[0])


def _decay_rate_bound(k):
    """2^{1/3} 0.999 (3 pi (4k+3)/8)^{2/3} <= -lam_k, for an int or an array k."""
    return CBRT2 * 0.999 * (3.0 * math.pi * (4 * k + 3) / 8.0) ** (2.0 / 3.0)


def w_tail_bound(K: int, t: float) -> float:
    """Upper bound on the w series tail sum_{k >= K} |gamma_k e_k| e^{lam_k t}.

    Each term is below e^{lam_k t} (the coefficient magnitudes are < 1),
    and |a_k| >= (3 pi (4k+3)/8)^{2/3} * 0.999 for every k, so the tail is
    at most sum_{k >= K} e^{-c t (4k+3)^{2/3}}, c = 2^{1/3} 0.999
    (3 pi/8)^{2/3}.  Its terms decrease in k, so the sum is at most the
    k = K term plus the integral from K, which in s = c t (4k+3)^{2/3} is
    (3/8) (c t)^{-3/2} Gamma(3/2, c t (4K+3)^{2/3}).
    """
    if t <= 0.0:
        return math.inf
    s0 = _decay_rate_bound(K) * t
    ct = CBRT2 * 0.999 * (3.0 * math.pi / 8.0) ** (2.0 / 3.0) * t
    return math.exp(-s0) + 0.375 * ct ** -1.5 * _GAMMA_3_2 * float(gammaincc(1.5, s0))


def _terms_needed(K: int, t: float, bound: float) -> int:
    """Smallest K' <= K whose tail bound is at most W_TERM_FLOOR, at least 1.

    The tail bound of K' is `bound` = w_tail_bound(K, t) plus the per-term
    bounds of w_tail_bound for k = K' .. K-1, found for every K' at once by
    a reverse cumulative sum.  One term is always kept, so that w stays
    positive at long times instead of becoming 0.
    """
    terms = np.exp(-_decay_rate_bound(np.arange(K)) * t)
    tails = bound + np.cumsum(terms[::-1])[::-1]
    return max(1, int(np.count_nonzero(tails > W_TERM_FLOOR)))


def min_time(K: int) -> float:
    """Smallest t at which the K-term truncation tail is at most W_TOL."""
    lo, hi = 1e-4, 50.0
    if w_tail_bound(K, hi) > W_TOL:
        raise AccuracyError(f"tol {W_TOL:g} unreachable with K={K}", bound=w_tail_bound(K, hi))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if w_tail_bound(K, mid) > W_TOL:
            lo = mid
        else:
            hi = mid
    return hi


def w_eval(h, t: float, K: int = 200):
    """Time-domain kernel w(h, t) by truncated eigenexpansion.

    K is the cap on the number of terms.  Raises AccuracyError (carrying
    the bound w_tail_bound(K, t)) when the truncation tail at this t
    exceeds W_TOL = 1e-8, that is for t below min_time(K).  Of the K
    terms only the first K' are summed: the terms beyond K' are left out
    once their tail bound is below W_TERM_FLOOR = 1e-17, which at
    t >= 0.5 is most of them (K' = 110 at t = 0.5, 13 at t = 2).
    """
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise DomainError(f"w_eval requires t > 0, got {t!r}")
    bound = w_tail_bound(K, t)
    if bound > W_TOL:
        raise AccuracyError(
            f"truncation tail {bound:.3g} exceeds tol {W_TOL:g} at t={t:g}; "
            f"increase K or t", bound=bound)
    zeros, lams, cs, _, gam = _basis_arrays(K)
    h_arr = np.atleast_1d(np.asarray(h, dtype=float))
    if np.any(h_arr < 0.0) or not np.all(np.isfinite(h_arr)):
        raise DomainError("w_eval requires finite h >= 0")
    n = _terms_needed(K, t, bound)
    args = INV_CBRT2 * h_arr[:, None] + zeros[None, :n]
    ai = airy_batch(args.ravel())[0].reshape(args.shape)
    out = ai @ (gam[:n] * cs[:n] * np.exp(lams[:n] * t))
    return out if np.ndim(h) else float(out[0])


def laplace_reconstruct(h, a: float, K: int = 200):
    """Termwise Laplace transform of the w expansion:

        int_0^inf e^{a t} w(h, t) dt = sum_k gamma_k e_k(h) / (-(a + lam_k)),

    which the tests compare against y_kernel(h, a).

    Because gamma_k e_k(h) = 2^{1/3} Ai(2^{-1/3} h + a_k) / Ai'(a_k), the
    normalization constants cancel and the k-th term decays only like
    k^{-1} with a slowly rotating phase: raw partial sums converge like
    K^{-1/3} and cannot reach 1e-3 at any practical K.  The series is
    therefore evaluated as its Abel sum: every term is damped by
    e^{lam_k eps}, which turns the sum into int_eps^inf e^{at} w dt, a
    geometrically convergent series.  The damped tail beyond the K exact
    basis terms is summed from asymptotic zeros and the asymptotic
    oscillatory form of Ai.  The bias is the mass of w on [0, eps], below
    e^{a eps} erfc(h / sqrt(8 eps)) since w(h, .) is dominated by the
    level-h first-passage density; eps = h^2/88 makes that bound about
    5e-6 relative to y_a(h) = O(1).

    Tolerance of the tail.  Its k-th term is 2^{1/3} Ai(x_k) / Ai'(a_k)
    times e^{(a + lam_k) eps} / -(a + lam_k), with x_k = a_k + 2^{-1/3} h.
    The airy module bounds the error of each asymptotic value by
    4 eps_m (1 + zeta) env (eps_m = 2^{-52}, zeta = (2/3)|x|^{3/2});
    applied to Ai(x_k) and to Ai'(a_k), and once more for the rounding of
    the asymptotic zero (within 2.3 eps_m relative of mpmath's, which
    moves the phase of Ai(x_k) by less than 4 eps_m zeta_k), this bounds
    the ratio's error by 12 eps_m (1 + zeta_k) (|x_k| |a_k|)^{-1/4},
    zeta_k = (2/3)|a_k|^{3/2}.  Summed over the tail,

        |tail error| <= sum_{k >= K} 2^{1/3} e^{(a + lam_k) eps}
                        12 eps_m (1 + zeta_k) / (|a + lam_k| (|x_k| |a_k|)^{1/4}),

    at most 3.4e-13 relative to y_a(h) for h in [1, 1.75] and a in
    [-1, 2.5], against the 1e-3 reconstruction gate.  Against mpmath,
    sampled terms k = 200 .. 30000 at h = 1 were off by at most 0.27 of
    their share of the bound.
    """
    a = float(a)
    a_2s = a_2star()
    if not math.isfinite(a) or a >= a_2s - 1e-9:
        raise DomainError(
            f"laplace_reconstruct requires a < a_2star = {a_2s:.9f}, got {a!r}")
    h_arr = np.atleast_1d(np.asarray(h, dtype=float))
    if np.any(h_arr <= 0.0) or not np.all(np.isfinite(h_arr)):
        raise DomainError("laplace_reconstruct requires finite h > 0")
    zeros, lams, _, aip, _ = _basis_arrays(K)
    out = np.empty(h_arr.shape)
    for i, hv in enumerate(h_arr):
        ev = (hv * hv) / 88.0
        # exact part: the first K basis terms, Abel-damped
        args = INV_CBRT2 * hv + zeros
        ai = airy_batch(args)[0]
        damp = np.exp((a + lams) * ev)
        total = np.sum(CBRT2 * ai / aip / (-(a + lams)) * damp)
        # asymptotic tail: zeros from their asymptotic series (relative
        # error < 1e-14 at k >= 200), Airy values from the oscillatory
        # asymptotic form, summed until damping kills the terms
        k = K
        block = 20000
        while True:
            ks = np.arange(k, k + block, dtype=float)
            zk = _zero_guess(ks)
            lk = CBRT2 * zk
            ai_t = _asym_neg(zk + INV_CBRT2 * hv)[0]
            aip_t = _asym_neg(zk)[1]
            dmp = np.exp((a + lk) * ev)
            total += np.sum(CBRT2 * ai_t / aip_t / (-(a + lk)) * dmp)
            if dmp[-1] < 1e-16:
                break
            k += block
            if k > 4_000_000:
                raise AccuracyError(
                    f"Abel tail did not converge at eps={ev:g}", bound=float(dmp[-1]))
        out[i] = total
    return out if np.ndim(h) else float(out[0])


def _green_pair(u: np.ndarray):
    """Homogeneous solutions of 2y'' = u y used by the Green kernel:
    y1 vanishes at 0, y2 decays at infinity."""
    z = INV_CBRT2 * u
    ai, _, bi, _ = airy_batch(z)
    r = math.sqrt(3.0)  # Bi(0)/Ai(0)
    y1 = bi - r * ai
    y2 = ai
    return y1, y2


def green_kernel(u, v):
    """Closed-form kernel of L^{-1} with Dirichlet condition at 0."""
    u_arr = np.asarray(u, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    lo = np.minimum(u_arr, v_arr)
    hi = np.maximum(u_arr, v_arr)
    y1_lo, _ = _green_pair(np.atleast_1d(lo).ravel())
    _, y2_hi = _green_pair(np.atleast_1d(hi).ravel())
    out = GREEN_K * (y1_lo * y2_hi).reshape(np.shape(lo))
    return out if out.shape else float(out)


def green_apply(f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Apply L^{-1} to samples f on the grid h by trapezoid quadrature."""
    f = np.asarray(f, dtype=float)
    h = np.asarray(h, dtype=float)
    if f.shape != h.shape or f.ndim != 1 or len(h) < 3:
        raise DomainError("green_apply needs matching 1-d arrays, length >= 3")
    if np.any(np.diff(h) <= 0.0) or h[0] < 0.0:
        raise DomainError("h grid must be increasing and nonnegative")
    w = np.empty_like(h)
    w[0] = 0.5 * (h[1] - h[0])
    w[-1] = 0.5 * (h[-1] - h[-2])
    w[1:-1] = 0.5 * (h[2:] - h[:-2])
    y1, y2 = _green_pair(h)
    # G f (u_i) = K [ y2_i * sum_{j<=i} w_j y1_j f_j + y1_i * sum_{j>i} w_j y2_j f_j ]
    a = np.cumsum(w * y1 * f)
    b_rev = np.cumsum((w * y2 * f)[::-1])[::-1]
    b = np.empty_like(h)
    b[:-1] = b_rev[1:]
    b[-1] = 0.0
    return GREEN_K * (y2 * a + y1 * b)


def heat_evolve(u0: np.ndarray, h: np.ndarray, tau: float) -> np.ndarray:
    """Evolve u0 by e^{tau L} on a uniform grid with Dirichlet endpoints.

    Crank-Nicolson in time; the first two steps are implicit-Euler
    half-steps, which damps any rough components of u0 without changing
    the second-order accuracy of the remainder.
    """
    u0 = np.asarray(u0, dtype=float)
    h = np.asarray(h, dtype=float)
    if u0.shape != h.shape or u0.ndim != 1 or len(h) < 8:
        raise DomainError("heat_evolve needs matching 1-d arrays, length >= 8")
    dh = np.diff(h)
    if not np.allclose(dh, dh[0], rtol=1e-12, atol=0.0):
        raise DomainError("heat_evolve requires a uniform grid")
    tau = float(tau)
    if not math.isfinite(tau) or tau < 0.0:
        raise DomainError(f"tau must be >= 0, got {tau!r}")
    if tau == 0.0:
        return u0.copy()
    d = dh[0]
    n = len(h)
    # keep the time step comparable to the grid spacing
    n_steps = max(64, int(math.ceil(tau / d)))
    dt = tau / n_steps

    main = -4.0 / d**2 - h[1:-1]
    off = 2.0 / d**2 * np.ones(n - 3)
    L = sp.diags([off, main, off], [-1, 0, 1], format="csc")
    ident = sp.identity(n - 2, format="csc")

    u = u0[1:-1].copy()
    # Rannacher startup: two implicit-Euler half-steps
    # (the half-step matrix is also the Crank-Nicolson left-hand side)
    lhs = spla.splu((ident - 0.5 * dt * L).tocsc())
    u = lhs.solve(u)
    u = lhs.solve(u)
    rhs = ident + 0.5 * dt * L
    for _ in range(n_steps - 1):
        u = lhs.solve(rhs @ u)
    out = np.zeros_like(u0)
    out[1:-1] = u
    return out
