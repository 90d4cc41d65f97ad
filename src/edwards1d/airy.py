"""Airy functions, zeros of Ai, and the orthonormal eigenbasis.

Evaluation strategy
-------------------
Inside the crossover radius X_SWITCH = 9.0, Ai, Ai', Bi, Bi' come from
scipy.special.airy, which for |x| <= 10 calls the Cephes routine (Moshier,
Methods and Programs for Mathematical Functions, 1989).  Against mpmath its
worst error on [-9, 9] is below a third of the tests' 1e-12 relative /
1e-14 absolute bound.

Beyond X_SWITCH the classical asymptotic expansions take over (Poincare
series in xi = (2/3)|x|^{3/2}; oscillatory sin/cos(xi - pi/4) forms on the
negative axis).  At xi = (2/3)*27 = 18 their smallest term is ~2e-16
relative, so both branches agree at the switch to ~3e-14 relative.  scipy
is not used there: past |x| = 10 it goes through AMOS, which is slower than
these series on both sides (about three times on the long negative-axis
batches of the spectral kernels; on their x > 9 batches, 1.9% of the
arguments, 0.37 s against 0.21 s per benchmark run), and which returns NaN
for Bi, Bi' past x ~ 104 instead of inf.

Accuracy of the asymptotic branch.  On the positive axis it keeps full
float64 relative accuracy.  On the negative axis the phase zeta - pi/4,
zeta = (2/3)|x|^{3/2}, is formed in float64 with an absolute error of a few
eps * zeta, and the functions inherit it: the error is bounded by
4 eps (1 + zeta) env, with env = |x|^{-1/4}/sqrt(pi) for Ai, Bi and
|x|^{1/4}/sqrt(pi) for Ai', Bi'.  It grows like zeta * eps, so the plain
1e-12 relative / 1e-14 absolute contract holds near the switch but not far
out: on a 400-point grid over [-200, -9] it is missed by up to 26x (Ai'
near x = -135; zeta ~ 1900 at x = -200).

Saturation: Bi overflows float64 for x >~ 104.3 (returned as inf) and Ai
underflows to 0 for x >~ 108; both are outside every quantitative contract
in this package but inside the documented |x| <= 200 evaluation range.

The zeros of Ai are polished all at once by Newton's method from their
asymptotic locations; every zero comes out within 2 ulps of the exact
value for k < 201.

The eigenbasis is e_k(h) = c_k Ai(2^{-1/3} h + a_k) on [0, inf), where a_k is
the k-th zero of Ai (a_0 ~ -2.338) and c_k normalizes e_k in L^2.  These are
the eigenfunctions of x -> 2 x'' - h x with Dirichlet data at 0 and
eigenvalues 2^{1/3} a_k.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import airy as _scipy_airy

from .errors import DomainError, NumericError, RangeError, SolverError

X_MAX = 200.0  # documented evaluation range
X_SWITCH = 9.0  # scipy / asymptotics crossover radius

CBRT2 = 2.0 ** (1.0 / 3.0)
INV_CBRT2 = 2.0 ** (-1.0 / 3.0)

_NEWTON_MAX_ITER = 20
_NEWTON_RTOL = 1e-15

# Coefficients u_k, v_k of the Poincare expansions (u_0 = v_0 = 1,
# u_k = u_{k-1} (6k-1)(6k-5)/(72k), v_k = -u_k (6k+1)/(6k-1)).
_ASYM_TERMS = 40
_U = np.ones(_ASYM_TERMS)
_V = np.ones(_ASYM_TERMS)
for _k in range(1, _ASYM_TERMS):
    _U[_k] = _U[_k - 1] * (6 * _k - 1) * (6 * _k - 5) / (72.0 * _k)
    _V[_k] = -_U[_k] * (6 * _k + 1) / (6 * _k - 1)


@dataclass(frozen=True)
class AiryValue:
    """Ai, Ai', Bi, Bi' at a single point."""

    x: float
    ai: float
    aip: float
    bi: float
    bip: float


@dataclass(frozen=True)
class AiryZeroTable:
    """First k_max zeros of Ai (descending) with Ai' evaluated there."""

    k_max: int
    zeros: np.ndarray
    aip_at_zeros: np.ndarray


@dataclass(frozen=True)
class EigenBasisElement:
    k: int
    zero: float  # a_k
    eigenvalue: float  # 2^{1/3} a_k, the eigenvalue of 2 d^2/dh^2 - h
    c: float  # L^2 normalization of e_k(h) = c Ai(2^{-1/3} h + a_k)


def _asym_sum(coef: np.ndarray, inv_xi: np.ndarray, signs: bool) -> np.ndarray:
    """Sum coef_k * (+-1)^k * inv_xi^k, truncating each lane at its smallest term."""
    total = np.full_like(inv_xi, coef[0])
    term = np.ones_like(inv_xi)
    prev = np.full_like(inv_xi, np.inf)
    active = np.ones_like(inv_xi, dtype=bool)
    for k in range(1, coef.size):
        term = term * inv_xi
        mag = np.abs(coef[k]) * term
        active &= mag < prev
        contrib = coef[k] * term
        if signs and (k % 2 == 1):
            contrib = -contrib
        total = np.where(active, total + contrib, total)
        prev = mag
        if not active.any():
            break
    return total


def _asym_pos(x: np.ndarray):
    xi = (2.0 / 3.0) * x ** 1.5
    inv = 1.0 / xi
    su = _asym_sum(_U, inv, signs=True)
    sv = _asym_sum(_V, inv, signs=True)
    su_p = _asym_sum(_U, inv, signs=False)
    sv_p = _asym_sum(_V, inv, signs=False)
    root = x ** 0.25
    sq = math.sqrt(math.pi)
    with np.errstate(over="ignore", under="ignore"):
        down = np.exp(-xi)
        up = np.exp(xi)
        ai = down / (2.0 * sq * root) * su
        aip = -root * down / (2.0 * sq) * sv
        bi = up / (sq * root) * su_p
        bip = root * up / sq * sv_p
    return ai, aip, bi, bip


def _asym_neg(x: np.ndarray):
    z = -x
    zeta = (2.0 / 3.0) * z ** 1.5
    inv2 = 1.0 / (zeta * zeta)
    # even/odd split: P = sum (-1)^k c_{2k} zeta^{-2k}, Q = sum (-1)^k c_{2k+1} zeta^{-2k-1}
    pu = _asym_sum(_U[0::2], inv2, signs=True)
    qu = _asym_sum(_U[1::2], inv2, signs=True) / zeta
    pv = _asym_sum(_V[0::2], inv2, signs=True)
    qv = _asym_sum(_V[1::2], inv2, signs=True) / zeta
    w = zeta - 0.25 * math.pi
    cw, sw = np.cos(w), np.sin(w)
    root = z ** 0.25
    sq = math.sqrt(math.pi)
    ai = (cw * pu + sw * qu) / (sq * root)
    aip = root / sq * (sw * pv - cw * qv)
    bi = (-sw * pu + cw * qu) / (sq * root)
    bip = root / sq * (cw * pv + sw * qv)
    return ai, aip, bi, bip


def airy_batch(x: np.ndarray):
    """Vectorized (ai, aip, bi, bip) without range checks; internal workhorse."""
    x = np.asarray(x, dtype=np.float64)
    shape = x.shape
    flat = x.ravel()
    ai, aip, bi, bip = (np.full_like(flat, np.nan) for _ in range(4))  # NaN stays NaN
    mid = np.abs(flat) <= X_SWITCH
    pos = flat > X_SWITCH
    neg = flat < -X_SWITCH
    if mid.any():
        ai[mid], aip[mid], bi[mid], bip[mid] = _scipy_airy(flat[mid])
    if pos.any():
        ai[pos], aip[pos], bi[pos], bip[pos] = _asym_pos(flat[pos])
    if neg.any():
        ai[neg], aip[neg], bi[neg], bip[neg] = _asym_neg(flat[neg])
    return ai.reshape(shape), aip.reshape(shape), bi.reshape(shape), bip.reshape(shape)


def airy_eval(x: float) -> AiryValue:
    """Evaluate Ai, Ai', Bi, Bi' at a point of the documented range |x| <= 200."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"airy_eval requires a finite argument, got {x!r}")
    if abs(x) > X_MAX:
        raise RangeError(f"airy_eval documented range is |x| <= {X_MAX:g}, got {x:g}")
    ai, aip, bi, bip = airy_batch(np.array([x]))
    return AiryValue(x, float(ai[0]), float(aip[0]), float(bi[0]), float(bip[0]))


def _zero_guess(k: np.ndarray) -> np.ndarray:
    """Asymptotic location of the k-th zero (0-indexed)."""
    t = 3.0 * math.pi * (4.0 * k + 3.0) / 8.0
    t2 = t ** (-2.0)
    return -(t ** (2.0 / 3.0)) * (1.0 + (5.0 / 48.0) * t2 - (5.0 / 36.0) * t2 ** 2
                                  + (77125.0 / 82944.0) * t2 ** 3)


def airy_zeros(k_max: int) -> AiryZeroTable:
    """First ``k_max`` zeros of Ai by vectorised Newton from asymptotic guesses.

    Raises SolverError if Newton has not converged within its iteration cap,
    or if two guesses ended on the same zero (the zeros must decrease
    strictly and Ai' must alternate in sign, starting positive).
    """
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")
    zeros = _zero_guess(np.arange(k_max, dtype=np.float64))
    for _ in range(_NEWTON_MAX_ITER):
        ai, aip, _, _ = airy_batch(zeros)
        step = ai / aip
        zeros = zeros - step
        if np.all(np.abs(step) <= _NEWTON_RTOL * np.abs(zeros)):
            break
    else:
        raise SolverError(
            f"airy_zeros: Newton did not converge in {_NEWTON_MAX_ITER} steps")
    _, aips, _, _ = airy_batch(zeros)
    signs = (-1.0) ** np.arange(k_max)
    if np.any(np.diff(zeros) >= 0.0) or np.any(aips * signs <= 0.0):
        raise SolverError("airy_zeros: Newton guesses converged to the wrong zeros")
    return AiryZeroTable(k_max=k_max, zeros=zeros, aip_at_zeros=aips)


@lru_cache(maxsize=1)
def a_2star() -> float:
    """2^{1/3} |a_0|, where Ai(-2^{-1/3} a) first vanishes as a grows."""
    return float(CBRT2 * -airy_zeros(1).zeros[0])


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_AI_SQ_CUT = 9.5  # Ai(9.5)^2 ~ 2.8e-19: below the 1e-18 truncation threshold


def _gl_panels(edges: np.ndarray):
    """Gauss-Legendre nodes/weights for consecutive panels given by ``edges``."""
    lo = edges[:-1]
    hi = edges[1:]
    mid = 0.5 * (lo + hi)
    rad = 0.5 * (hi - lo)
    nodes = (mid[:, None] + rad[:, None] * _GL_NODES[None, :]).ravel()
    weights = (rad[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def _ai_sq_integrals(zeros: np.ndarray, panels_per_interval: int) -> np.ndarray:
    """I_k = integral of Ai^2 over [a_k, _AI_SQ_CUT] for every listed zero.

    Split as sum of per-interval integrals [a_k, a_{k-1}] (each exactly one
    phase half-period pi, integrated in the phase variable psi = (2/3)(-u)^{3/2})
    plus the base integral over [a_0, _AI_SQ_CUT].
    """
    k_max = zeros.size
    base_edges = np.concatenate([
        np.linspace(zeros[0], 0.0, 5),
        np.linspace(0.0, _AI_SQ_CUT, 2 * panels_per_interval + 1)[1:],
    ])
    nodes, weights = _gl_panels(base_edges)
    ai, _, _, _ = airy_batch(nodes)
    base = float(np.sum(weights * ai * ai))
    if k_max == 1:
        return np.array([base])

    psi = (2.0 / 3.0) * (-zeros) ** 1.5  # increasing in k
    # panel edges uniform in psi inside every interval [psi_{k-1}, psi_k]
    frac = np.linspace(0.0, 1.0, panels_per_interval + 1)
    psi_edges = psi[:-1, None] + (psi[1:] - psi[:-1])[:, None] * frac[None, :]
    all_nodes = []
    all_weights = []
    for i in range(k_max - 1):
        pn, pw = _gl_panels(psi_edges[i])
        all_nodes.append(pn)
        all_weights.append(pw)
    pn = np.concatenate(all_nodes)
    pw = np.concatenate(all_weights)
    u = -((1.5 * pn) ** (2.0 / 3.0))
    dudpsi = (1.5 * pn) ** (-1.0 / 3.0)
    ai, _, _, _ = airy_batch(u)
    contrib = (pw * ai * ai * dudpsi).reshape(k_max - 1, -1).sum(axis=1)
    integrals = np.empty(k_max)
    integrals[0] = base
    integrals[1:] = base + np.cumsum(contrib)
    return integrals


def eigenbasis(K: int) -> list[EigenBasisElement]:
    """Orthonormal elements e_k(h) = c_k Ai(2^{-1/3} h + a_k), k = 0..K-1.

    c_k comes from adaptive quadrature of Ai^2 (phase-graded Gauss-Legendre,
    refined until successive passes agree to 1e-9 relative, integrand
    truncated below 1e-18).
    """
    if K < 1:
        raise DomainError(f"K must be >= 1, got {K}")
    table = airy_zeros(K)
    coarse = _ai_sq_integrals(table.zeros, panels_per_interval=4)
    fine = _ai_sq_integrals(table.zeros, panels_per_interval=8)
    rel = np.max(np.abs(fine - coarse) / fine)
    if rel > 1e-9:
        coarse, fine = fine, _ai_sq_integrals(table.zeros, panels_per_interval=16)
        rel = np.max(np.abs(fine - coarse) / fine)
        if rel > 1e-9:
            raise NumericError(
                f"eigenbasis quadrature did not converge: achieved {rel:.3e} relative")
    c = (CBRT2 * fine) ** -0.5
    return [
        EigenBasisElement(k=k, zero=float(table.zeros[k]),
                          eigenvalue=float(CBRT2 * table.zeros[k]), c=float(c[k]))
        for k in range(K)
    ]


def basis_eval(element: EigenBasisElement, h: np.ndarray) -> np.ndarray:
    """e_k on a grid of h >= 0 (vectorized)."""
    h = np.asarray(h, dtype=np.float64)
    ai, _, _, _ = airy_batch(INV_CBRT2 * h + element.zero)
    return element.c * ai


def basis_gram(elements: list[EigenBasisElement]) -> np.ndarray:
    """Gram matrix of the basis by shared phase-graded quadrature over h.

    Exposed so the orthonormality of the quadrature pipeline can be verified;
    analytically the matrix is the identity.
    """
    a_last = elements[-1].zero
    h_turn = CBRT2 * (-a_last)
    h_cut = CBRT2 * (_AI_SQ_CUT - a_last)
    # phase of the fastest product pair ~ 2 * (2/3)|u|^{3/2}; edges uniform in it
    psi_max = (4.0 / 3.0) * (-a_last) ** 1.5
    n_osc_panels = max(8, int(math.ceil(psi_max / (0.5 * math.pi))))
    fr = np.linspace(0.0, 1.0, n_osc_panels + 1)
    psi = psi_max * fr
    u = -((0.75 * (psi_max - psi)) ** (2.0 / 3.0))
    edges_osc = np.sort(CBRT2 * (u - a_last))
    edges_tail = np.linspace(h_turn, h_cut, 9)[1:]
    edges = np.unique(np.concatenate([edges_osc, edges_tail]))
    nodes, weights = _gl_panels(edges)
    mat = np.empty((len(elements), nodes.size))
    for i, el in enumerate(elements):
        mat[i] = basis_eval(el, nodes)
    return (mat * weights) @ mat.T
