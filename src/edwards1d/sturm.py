"""Principal eigenvalue rho(a) of the singular Sturm-Liouville family.

The operator acts on [0, inf) as

    (K_a x)(h) = 2 h x''(h) + 2 x'(h) + (a h - h^2) x(h)
               = (2 h x')'(h) + (a h - h^2) x(h),

self-adjoint in plain L^2 without a weight.  rho(a) is the top of its
spectrum; the principal eigenfunction x_a is strictly positive with tail
log x_a(h) ~ -(sqrt(2)/3) h^{3/2}.

Discretization: conservative control volumes on a graded grid h_i =
h_max (i/n)^2 (dense near the singular endpoint).  The flux coefficient
2h vanishes at h = 0, so the first control volume has no left flux and the
h = 0 row reads (2/h_1)(x_1 - x_0) = rho x_0, the discrete form of the
operator's boundary value 2 x'(0) = rho x(0).  This selects the bounded
(principal) solution at the limit-circle endpoint; a Dirichlet row there
would pick a different self-adjoint extension with a different rho.  At
h_max the eigenfunction is far below machine precision and a Dirichlet cut
is exact for our purposes.

The generalized symmetric problem (S + W Q) x = rho W x (W = control-volume
widths) is folded to an ordinary symmetric tridiagonal one and the top
eigenpair extracted by LAPACK bisection + inverse iteration.  rho converges
at second order in the mesh, so a Richardson pass over n = 2500, 5000 and
10000 is used, and h_max doubles until rho is insensitive to it.

Hellmann-Feynman gives rho'(a) = int h x_a(h)^2 dh exactly for each discrete
level (the matrix depends linearly on a), so rho' is extrapolated alongside
rho.  rho'' comes from adaptive central differencing of rho'.

`eigenvalue` gives (rho, rho') without an eigenfunction, by Rayleigh-Ritz
on the Laguerre functions phi_k(s h), phi_k(x) = e^{-x/2} L_k(x).  In that
basis multiplication by x is the tridiagonal X (diagonal 2k+1, off-diagonal
-(k+1)) and phi_k' = -phi_k/2 - sum_{j<k} phi_j, i.e. D = -I/2 - (strict
lower ones), so the quadratic form int -2h y'^2 + (a h - h^2) y^2 is exactly

    A = -2 s D X D^T + (a/s) X - X^2/s^2,

X^2 taken from the one-term-longer X.  rho is the top eigenvalue of A and
rho' = v^T X v / s.  The basis carries the natural boundary behaviour at
h = 0, and every truncation is a lower bound on rho rising with N
(min-max).  See Shen, Tang & Wang, Spectral Methods (2011), ch. 7, and
Boyd, Chebyshev and Fourier Spectral Methods (2001), ch. 17.

Both solvers cache by exact argument, least recently used first out:
principal_eigen per (a, h_max), 512 entries, and eigenvalue per Ritz pair
(a, N), both truncations of 512 distinct a.  eigenvalue runs its N against
N + 16 check on cache hits too; clear_cache() empties both caches.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal, get_lapack_funcs

from .errors import DegeneracyError, DomainError, SolverError

SQRT2 = math.sqrt(2.0)

_GRADING = 2.0  # grid exponent; quadratic grading resolves the h = 0 region
_DECAY_BUDGET = 34.0  # -log of the eigenfunction-squared tail kept on grid
_LEVELS = (2500, 5000, 10000)  # interval counts of the Richardson levels
_N_PROBE = 1024  # interval count of the h_max doubling probe
_H_MAX_TOL = 1e-10  # rho change allowed when the box doubles


@dataclass(frozen=True)
class EigenSolution:
    """Principal eigenpair on the finest grid, L^2-normalized.

    weights are the control-volume / trapezoid quadrature weights of the
    grid; sum(weights * x**2) == 1 to rounding.
    """

    a: float
    rho: float
    rho1: float  # Hellmann-Feynman integral int h x^2
    h: np.ndarray
    x: np.ndarray
    weights: np.ndarray
    h_max: float


def clear_cache() -> None:
    """Empty both caches: principal_eigen's solves and eigenvalue's Ritz pairs."""
    _principal_eigen.cache_clear()
    _ritz.cache_clear()


def _grid(h_max: float, n: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, n + 1)
    return h_max * t**_GRADING


def _trapezoid_weights(h: np.ndarray) -> np.ndarray:
    w = np.empty_like(h)
    w[0] = 0.5 * (h[1] - h[0])
    w[-1] = 0.5 * (h[-1] - h[-2])
    w[1:-1] = 0.5 * (h[2:] - h[:-2])
    return w


def _solve_on_grid(a: float, h: np.ndarray):
    """One control-volume eigensolve on an explicit grid (h[0] must be 0)."""
    n = h.size - 1
    dh = np.diff(h)
    c = (h[:-1] + h[1:]) / dh  # flux coefficients p(h_{i+1/2}) / dh_i
    w_full = _trapezoid_weights(h)
    w = w_full[:n]
    q = a * h[:n] - h[:n] ** 2
    diag = q.copy()
    diag[0] -= c[0] / w[0]
    diag[1:] -= (c[:-1] + c[1:]) / w[1:]
    off = c[: n - 1] / np.sqrt(w[: n - 1] * w[1:])
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(n - 1, n - 1))
    rho = float(vals[0])
    y = vecs[:, 0]
    x = y / np.sqrt(w)
    if x[np.argmax(np.abs(x))] < 0.0:
        x = -x
    # discrete Perron root: the principal eigenvector is positive up to
    # rounding noise in the far tail
    scale = float(np.max(np.abs(x)))
    if np.min(x) < -1e-8 * scale:
        raise DegeneracyError(
            f"principal eigenvector not positive at a={a:g} (min {np.min(x):.3e})")
    norm = math.sqrt(float(np.sum(w * x * x)))
    x = x / norm
    rho1 = float(np.sum(w * h[:n] * x * x))
    x_full = np.concatenate([x, [0.0]])
    return rho, rho1, h, x_full, w_full


def _solve_level(a: float, h_max: float, n: int):
    return _solve_on_grid(a, _grid(h_max, n))


def _h_max_auto(a: float) -> float:
    # WKB majorant of -log x_a(h)^2: (2 sqrt(2)/3)((h-a)^{3/2} - max(-a,0)^{3/2})
    target = _DECAY_BUDGET * 3.0 / (2.0 * SQRT2)
    h = a + (target + max(-a, 0.0) ** 1.5) ** (2.0 / 3.0)
    if a >= 0.0:
        h = max(h, 12.0)
    return h


def _resolve_h_max(a: float) -> float:
    hm = _h_max_auto(a)
    n_ext = _N_PROBE // 8
    for _ in range(6):
        base = _grid(hm, _N_PROBE)
        # extend the SAME grid out to 2 h_max so the comparison isolates the
        # truncation effect instead of re-discretizing everything
        ext = base[-1] + np.cumsum(np.full(n_ext, max(base[-1] - base[-2], hm / n_ext)))
        extended = np.concatenate([base, ext[ext > base[-1]]])
        rho_base = _solve_on_grid(a, base)[0]
        rho_next = _solve_on_grid(a, extended)[0]
        if abs(rho_next - rho_base) < _H_MAX_TOL:
            return hm
        hm *= 2.0
    raise SolverError(
        f"h_max doubling did not stabilize rho at a={a:g}: last iterates "
        f"{rho_base!r}, {rho_next!r}")


def principal_eigen(a: float, h_max: float | None = None) -> EigenSolution:
    """Top eigenpair of K_a with Richardson-extrapolated rho and rho'.

    h_max None picks the box from the decay law plus a doubling test; a
    given h_max must be positive.  The 512 most recently used (a, h_max)
    pairs are cached; a hit returns the same object.
    """
    a = float(a)
    if not math.isfinite(a):
        raise DomainError(f"a must be finite, got {a!r}")
    if h_max is not None:
        h_max = float(h_max)
        if not h_max > 0.0:
            raise DomainError(f"h_max must be positive, got {h_max!r}")
    return _principal_eigen(a, h_max)


@lru_cache(maxsize=512)
def _principal_eigen(a: float, h_max: float | None) -> EigenSolution:
    if h_max is None:
        h_max = _resolve_h_max(a)
    r0, p0, *_ = _solve_level(a, h_max, _LEVELS[0])
    r1, p1, *_ = _solve_level(a, h_max, _LEVELS[1])
    r2, p2, h, x, w = _solve_level(a, h_max, _LEVELS[2])
    if abs(r2 - r1) > 4.0 * abs(r1 - r0):
        raise SolverError(f"refinement diverging at a={a:g}: iterates {r1!r}, {r2!r}")
    # second-order Richardson over the three levels (mesh ratio 2, orders 2, 3)
    rho = (8.0 * ((4.0 * r2 - r1) / 3.0) - (4.0 * r1 - r0) / 3.0) / 7.0
    rho1 = (8.0 * ((4.0 * p2 - p1) / 3.0) - (4.0 * p1 - p0) / 3.0) / 7.0
    return EigenSolution(a=a, rho=rho, rho1=rho1, h=h, x=x, weights=w, h_max=h_max)


def eigen_residual(sol: EigenSolution) -> float:
    """Relative L^2 residual of 2hx'' + 2x' + (ah - h^2)x - rho x.

    Uses direct nonuniform 3-point stencils, independent of the
    divergence-form matrix the eigenpair was computed from.
    """
    h, x = sol.h, sol.x
    d1 = h[1:-1] - h[:-2]
    d2 = h[2:] - h[1:-1]
    denom = d1 * d2 * (d1 + d2)
    xp = (x[2:] * d1**2 - x[:-2] * d2**2 + x[1:-1] * (d2**2 - d1**2)) / denom
    xpp = 2.0 * (x[:-2] * d2 + x[2:] * d1 - x[1:-1] * (d1 + d2)) / denom
    hi = h[1:-1]
    r = 2.0 * hi * xpp + 2.0 * xp + (sol.a * hi - hi * hi) * x[1:-1] - sol.rho * x[1:-1]
    w = sol.weights[1:-1]
    return math.sqrt(float(np.sum(w * r * r)))


def rho_derivative(a: float) -> tuple[float, float]:
    """(rho'(a), rho''(a)).

    rho' is the Hellmann-Feynman integral from principal_eigen.  rho'' is a
    central difference of rho', step starting at 1e-3 and halving until two
    passes agree to 1e-5 relative; the finite-difference solves share the
    center's h_max so the difference sees one fixed discretization.
    """
    center = principal_eigen(a)

    def rho1_at(aa: float) -> float:
        return principal_eigen(aa, center.h_max).rho1

    step = 1e-3
    prev = (rho1_at(a + step) - rho1_at(a - step)) / (2.0 * step)
    for _ in range(8):
        step *= 0.5
        cur = (rho1_at(a + step) - rho1_at(a - step)) / (2.0 * step)
        if abs(cur - prev) <= 1e-5 * max(abs(cur), 1e-12):
            return center.rho1, cur
        prev = cur
    raise SolverError(
        f"rho'' differencing did not stabilize at a={a:g}: last value {prev:.10g}")


_N = 48  # Laguerre functions behind the reported Ritz pair
_N_CHECK = _N + 16  # and behind the truncation check
_GALERKIN_TOL = 1e-10  # relative N vs N_CHECK gap allowed in rho and rho'


def _symmetric(diag, *upper):
    """Symmetric matrix from its diagonal and its first few superdiagonals."""
    out = np.diag(diag)
    for j, band in enumerate(upper, 1):
        out += np.diag(band, j) + np.diag(band, -j)
    return out


# the a-independent parts of A in closed form: D X D^T is tridiagonal with
# diagonal (2k+1)/4 and off-diagonal +(k+1)/4, and X^2 (from the one-term-
# longer X) is pentadiagonal
_K = np.arange(_N_CHECK, dtype=float)
_X = _symmetric(2.0 * _K + 1.0, -(_K[:-1] + 1.0))
_DXD = _symmetric(2.0 * _K + 1.0, _K[:-1] + 1.0) / 4.0
_X2 = _symmetric(_K**2 + (2.0 * _K + 1.0) ** 2 + (_K + 1.0) ** 2,
                 -4.0 * (_K[:-1] + 1.0) ** 2, (_K[:-2] + 1.0) * (_K[:-2] + 2.0))


def _form(a: float, n: int) -> tuple[np.ndarray, float]:
    """Quadratic form of K_a on the first n functions phi_k(s h), and s.

    s = max(4, 2 sqrt(-a)) grows with the decay rate sqrt(-a/2) of x_a at
    deep negative a, so phi_0(s h) = e^{-s h / 2} keeps to that scale.
    """
    s = max(4.0, 2.0 * math.sqrt(max(-a, 0.0)))
    return (-2.0 * s) * _DXD[:n, :n] + (a / s) * _X[:n, :n] - _X2[:n, :n] / (s * s), s


@lru_cache(maxsize=None)
def _syevr(n: int):
    """LAPACK dsyevr and the lwork, liwork that scipy's eigh queries for order n."""
    drv, query = get_lapack_funcs(("syevr", "syevr_lwork"), dtype=np.float64)
    lwork, liwork, info = query(n, lower=1)
    if info != 0:
        raise SolverError(f"dsyevr workspace query failed for n={n}: info={info}")
    return drv, int(lwork), liwork


@lru_cache(maxsize=2 * 512)  # both truncations of 512 distinct a
def _ritz(a: float, n: int) -> tuple[float, float]:
    """Top Ritz pair (rho, rho') of K_a on the first n Laguerre functions.

    The top eigenpair comes straight from LAPACK dsyevr (range 'I'), the
    driver and arguments of eigh(A, subset_by_index=[n-1, n-1]) without
    its wrapper, so the pair is the same to the bit.
    """
    A, s = _form(a, n)
    drv, lwork, liwork = _syevr(n)
    w, v, m, _, info = drv(A, range="I", lower=1, il=n, iu=n,
                           lwork=lwork, liwork=liwork)
    if info != 0 or m != 1:
        raise SolverError(f"dsyevr failed at a={a:g}, n={n}: info={info}, m={m}")
    v = v[:, 0]
    return float(w[0]), float(v @ _X[:n, :n] @ v) / s


def eigenvalue(a: float) -> tuple[float, float]:
    """(rho(a), rho'(a)) by Laguerre-Galerkin Rayleigh-Ritz at N = 48.

    Each solve is checked against N + 16 and raises SolverError when rho or
    rho' moves by more than 1e-10 relative; that happens for a above about
    50, where the basis scale s = 4 is too wide.  Over a in [-100, a**] it
    agrees with principal_eigen to 2e-8 in rho and 1e-10 in rho'.

    The two Ritz pairs are cached per exact a (512 distinct a), so a
    repeated a costs no eigensolve; the check still runs on every call,
    hits included, and a hit returns the same numbers as a cold solve.
    """
    a = float(a)
    if not math.isfinite(a):
        raise DomainError(f"a must be finite, got {a!r}")
    rho, rho1 = _ritz(a, _N)
    ref, ref1 = _ritz(a, _N_CHECK)
    if (abs(rho - ref) > _GALERKIN_TOL * max(1.0, abs(ref))
            or abs(rho1 - ref1) > _GALERKIN_TOL * max(1.0, abs(ref1))):
        raise SolverError(
            f"Laguerre truncation not converged at a={a:g}: N={_N} gives "
            f"({rho!r}, {rho1!r}), N={_N_CHECK} gives ({ref!r}, {ref1!r})")
    return rho, rho1


def rayleigh_lower_bound(a: float) -> float:
    """Variational lower bound for rho(a), a < 0.

    The quadratic form of the operator on L^2(dh) is

        Q(y) = int_0^inf [ -2 h y'(h)^2 + (a h - h^2) y(h)^2 ] dh,

    and rho(a) = sup Q(y)/|y|^2.  The exponential trial y(h) = e^{-ch}
    has Q(y)/|y|^2 = -c + a/(2c) - 1/(2c^2); taking c = sqrt(-a/2)
    (optimal for the first two terms) gives the exact value

        rho(a) >= -sqrt(2) (-a)^{1/2} - (-a)^{-1}.

    The 1/(-a) term turns out to match the true subleading behaviour of
    rho, so the remaining gap decays faster than 1/(-a).
    """
    a = float(a)
    if not math.isfinite(a) or a >= 0.0:
        raise DomainError(f"rayleigh_lower_bound requires a < 0, got {a!r}")
    return -SQRT2 * math.sqrt(-a) - 1.0 / (-a)
