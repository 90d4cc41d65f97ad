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

from .airy import CBRT2, INV_CBRT2, a_2star, airy_batch, eigenbasis
from .errors import AccuracyError, DomainError

# Green kernel normalization: G(u,v) = GREEN_K * y1(min) * y2(max) where
# y1, y2 solve 2y'' = u y with y1(0) = 0 and y2 bounded; the Wronskian of
# the pair below is -2^{-1/3}/pi and the delta jump 2[dG/du] = 1 fixes
# GREEN_K = 1/(2W) = -2^{1/3} pi / 2.
GREEN_K = -CBRT2 * math.pi / 2.0


@lru_cache(maxsize=8)
def _basis_arrays(K: int):
    els = eigenbasis(K)
    zeros = np.array([e.zero for e in els])
    lams = np.array([e.eigenvalue for e in els])
    cs = np.array([e.c for e in els])
    return zeros, lams, cs


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

    gamma_k = 2^{1/3} / (c_k Ai'(a_k)); with the normalization quadrature
    this evaluates to sqrt(2) (-1)^k, which tests pin independently.
    """
    zeros, lams, cs = _basis_arrays(K)
    aip = airy_batch(zeros)[1]
    gam = CBRT2 / (cs * aip)
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


def w_tail_bound(K: int, t: float) -> float:
    """Upper bound on the w series tail sum_{k >= K} |gamma_k e_k| e^{lam_k t}.

    Each term is below e^{lam_k t} (the coefficient magnitudes are < 1),
    and |a_k| >= (3 pi (4k+3)/8)^{2/3} * 0.999 for every k, so the tail is
    summed from the conservative asymptotic eigenvalues.
    """
    if t <= 0.0:
        return math.inf
    total = 0.0
    k = K
    while k < K + 200000:
        tk = 3.0 * math.pi * (4 * k + 3) / 8.0
        lam = -CBRT2 * 0.999 * tk ** (2.0 / 3.0)
        term = math.exp(lam * t)
        total += term
        if term < 1e-30 * max(total, 1e-300):
            break
        k += 1
    return total


def min_time(K: int, tol: float = 1e-8) -> float:
    """Smallest t at which the K-term truncation meets `tol`."""
    lo, hi = 1e-4, 50.0
    if w_tail_bound(K, hi) > tol:
        raise AccuracyError(f"tol {tol:g} unreachable with K={K}", bound=w_tail_bound(K, hi))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if w_tail_bound(K, mid) > tol:
            lo = mid
        else:
            hi = mid
    return hi


def w_eval(h, t: float, K: int = 200, tol: float = 1e-8):
    """Time-domain kernel w(h, t) by truncated eigenexpansion.

    Raises AccuracyError (carrying the bound) when the truncation tail
    at this t exceeds `tol`.
    """
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise DomainError(f"w_eval requires t > 0, got {t!r}")
    bound = w_tail_bound(K, t)
    if bound > tol:
        raise AccuracyError(
            f"truncation tail {bound:.3g} exceeds tol {tol:g} at t={t:g}; "
            f"increase K or t", bound=bound)
    zeros, lams, cs = _basis_arrays(K)
    gam = w_coefficients(K).gamma
    h_arr = np.atleast_1d(np.asarray(h, dtype=float))
    if np.any(h_arr < 0.0) or not np.all(np.isfinite(h_arr)):
        raise DomainError("w_eval requires finite h >= 0")
    args = INV_CBRT2 * h_arr[:, None] + zeros[None, :]
    ai = airy_batch(args.ravel())[0].reshape(args.shape)
    out = ai @ (gam * cs * np.exp(lams * t))
    return out if np.ndim(h) else float(out[0])


def laplace_reconstruct(h, a: float, K: int = 200, eps: float | None = None):
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
    level-h first-passage density; eps defaults to h^2/88, making that
    bound about 5e-6 relative to y_a(h) = O(1).
    """
    a = float(a)
    a_2s = a_2star()
    if not math.isfinite(a) or a >= a_2s - 1e-9:
        raise DomainError(
            f"laplace_reconstruct requires a < a_2star = {a_2s:.9f}, got {a!r}")
    h_arr = np.atleast_1d(np.asarray(h, dtype=float))
    if np.any(h_arr <= 0.0) or not np.all(np.isfinite(h_arr)):
        raise DomainError("laplace_reconstruct requires finite h > 0")
    zeros, lams, _ = _basis_arrays(K)
    out = np.empty(h_arr.shape)
    for i, hv in enumerate(h_arr):
        ev = (hv * hv) / 88.0 if eps is None else float(eps)
        # exact part: the first K basis terms, Abel-damped
        args = INV_CBRT2 * hv + zeros
        ai = airy_batch(args)[0]
        aip = airy_batch(zeros)[1]
        damp = np.exp((a + lams) * ev)
        total = np.sum(CBRT2 * ai / aip / (-(a + lams)) * damp)
        # asymptotic tail: zeros from their asymptotic series (relative
        # error < 1e-14 at k >= 200), Airy values from the oscillatory
        # asymptotic form, summed until damping kills the terms
        k = K
        block = 20000
        while True:
            ks = np.arange(k, k + block, dtype=float)
            zk = _airy_zero_guess(ks)
            lk = -CBRT2 * zk
            ai_t = _asym_neg_ai(zk - INV_CBRT2 * hv)
            aip_t = _asym_neg_aip(zk)
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


def _airy_zero_guess(k: np.ndarray) -> np.ndarray:
    """Magnitude of the k-th Ai zero from its asymptotic series (0-indexed)."""
    from .airy import _zero_guess
    return -_zero_guess(k)


def _asym_neg_ai(z: np.ndarray) -> np.ndarray:
    """Ai(-z) for large positive z via the uncapped asymptotic form."""
    from .airy import _asym_neg
    return _asym_neg(-z)[0]


def _asym_neg_aip(z: np.ndarray) -> np.ndarray:
    """Ai'(-z) for large positive z via the uncapped asymptotic form."""
    from .airy import _asym_neg
    return _asym_neg(-z)[1]


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


def heat_evolve(u0: np.ndarray, h: np.ndarray, tau: float,
                n_steps: int | None = None) -> np.ndarray:
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
    if n_steps is None:
        # keep the time step comparable to the grid spacing
        n_steps = max(64, int(math.ceil(tau / d)))
    dt = tau / n_steps

    main = -4.0 / d**2 - h[1:-1]
    off = 2.0 / d**2 * np.ones(n - 3)
    L = sp.diags([off, main, off], [-1, 0, 1], format="csc")
    ident = sp.identity(n - 2, format="csc")

    u = u0[1:-1].copy()
    # Rannacher startup: two implicit-Euler half-steps
    half = spla.splu((ident - 0.5 * dt * L).tocsc())
    u = half.solve(u)
    u = half.solve(u)
    if n_steps > 1:
        lhs = spla.splu((ident - 0.5 * dt * L).tocsc())
        rhs = ident + 0.5 * dt * L
        for _ in range(n_steps - 1):
            u = lhs.solve(rhs @ u)
    out = np.zeros_like(u0)
    out[1:-1] = u
    return out
