"""Monte Carlo for squared Bessel processes and their additive functionals.

Simulates BESQ0 (dX = 2 sqrt(X) dW, absorbed at 0) and BESQ2
(dX = 2 sqrt(X) dW + 2 dt, entrance boundary at 0) together with the
additive functionals A(t) = int X dv and Q(t) = int X^2 dv, and provides
estimators that cross-validate the deterministic machinery:

  * estimate_y:  E_h exp(int [a X - X^2] dv) over the BESQ0 lifetime,
                 which must reproduce the Airy ratio y_kernel(h, a);
  * estimate_w:  the weight e^{-Q} binned by the terminal value of A,
                 which must reproduce the spectral density w_eval(h, t);
  * simulate_tilted: BESQ2 paths carrying the eigenfunction martingale
                 weight, realizing the transformed diffusion and its
                 equilibrium law x_a(h)^2 dh;
  * first_passage_density: the closed-form law of A(infinity) under BESQ0.

Randomness is counter-based (Philox) keyed by (seed, chunk index) over
fixed chunks of 4096 paths, and every reduction runs in chunk order, so
results are bit-identical regardless of how chunks are scheduled.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .airy import a_2star
from .errors import DegeneracyError, DomainError, HorizonError, NumericError
from .sturm import SolverConfig, principal_eigen

CHUNK = 4096

_SCHEMES = ("euler_abs", "exact_besq0")


@dataclass(frozen=True)
class SimConfig:
    """Knobs shared by every simulator in this module."""
    dt: float = 1e-3
    n_paths: int = 10000
    seed: int = 0
    scheme: str = "euler_abs"

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise DomainError(f"dt must be positive, got {self.dt!r}")
        if self.n_paths < 1:
            raise DomainError(f"n_paths must be >= 1, got {self.n_paths!r}")
        if not (0 <= int(self.seed) < 2 ** 63):
            raise DomainError("seed must fit in 63 bits")
        if self.scheme not in _SCHEMES:
            raise DomainError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    se: float
    n: int
    seed: int


@dataclass(frozen=True)
class PathFunctionalSample:
    """One path's terminal state and accumulated functionals."""
    terminal: float
    additive: float
    quad: float
    absorbed_at: float | None


@dataclass(frozen=True)
class PathFunctionalBatch:
    """Vectorized stream of path functionals; iterate for scalar samples.

    absorbed_at is nan for paths never absorbed (and for the exact
    terminal-law scheme, which does not resolve absorption times).
    """
    terminal: np.ndarray
    additive: np.ndarray
    quad: np.ndarray
    absorbed_at: np.ndarray
    dt: float
    t_end: float
    seed: int

    def __len__(self) -> int:
        return len(self.terminal)

    def __iter__(self):
        for i in range(len(self.terminal)):
            t_abs = self.absorbed_at[i]
            yield PathFunctionalSample(
                terminal=float(self.terminal[i]),
                additive=float(self.additive[i]),
                quad=float(self.quad[i]),
                absorbed_at=None if math.isnan(t_abs) else float(t_abs),
            )


def _rng(seed: int, chunk: int) -> np.random.Generator:
    key = np.array([seed, chunk], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunk_sizes(n: int):
    sizes = [CHUNK] * (n // CHUNK)
    if n % CHUNK:
        sizes.append(n % CHUNK)
    return sizes


def simulate_besq(dim: int, h0: float, t_end: float, cfg: SimConfig) -> PathFunctionalBatch:
    """Simulate BESQ paths of dimension 0 or 2 up to t_end.

    Euler-Maruyama with full truncation (sqrt of the positive part).
    Dimension 0 treats 0 as absorbing: once a step lands at or below 0
    the path is held there and its absorption time recorded at grid
    resolution.  Dimension 2 clamps at 0 (entrance boundary, never
    absorbed).  The functionals A = int X dv and Q = int X^2 dv
    accumulate by the trapezoid rule.

    With scheme exact_besq0 and dim 0 the terminal value is drawn from
    the exact transition law (Poisson number of Gamma summands plus an
    atom at 0); functionals and absorption times are nan in that case.
    """
    if dim not in (0, 2):
        raise DomainError(f"dim must be 0 or 2, got {dim!r}")
    h0 = float(h0)
    if not (math.isfinite(h0) and h0 >= 0.0):
        raise DomainError(f"h0 must be finite and >= 0, got {h0!r}")
    t_end = float(t_end)
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise DomainError(f"t_end must be positive, got {t_end!r}")

    n = cfg.n_paths
    if cfg.scheme == "exact_besq0":
        if dim != 0:
            raise DomainError("scheme exact_besq0 requires dim 0")
        terminal = np.empty(n)
        pos = 0
        for ci, m in enumerate(_chunk_sizes(n)):
            g = _rng(cfg.seed, ci)
            counts = g.poisson(h0 / (2.0 * t_end), size=m)
            vals = np.zeros(m)
            hit = counts > 0
            if np.any(hit):
                vals[hit] = g.gamma(counts[hit].astype(float)) * 2.0 * t_end
            terminal[pos:pos + m] = vals
            pos += m
        nanarr = np.full(n, np.nan)
        return PathFunctionalBatch(terminal=terminal, additive=nanarr.copy(),
                                   quad=nanarr.copy(), absorbed_at=nanarr,
                                   dt=cfg.dt, t_end=t_end, seed=cfg.seed)

    terminal = np.empty(n)
    additive = np.empty(n)
    quad = np.empty(n)
    absorbed = np.empty(n)
    pos = 0
    n_steps = int(math.ceil(t_end / cfg.dt - 1e-12))
    for ci, m in enumerate(_chunk_sizes(n)):
        g = _rng(cfg.seed, ci)
        x = np.full(m, h0)
        a_acc = np.zeros(m)
        q_acc = np.zeros(m)
        t_abs = np.full(m, np.nan)
        t = 0.0
        for step in range(n_steps):
            dt = min(cfg.dt, t_end - t)
            dw = g.standard_normal(m) * math.sqrt(dt)
            xn = x + 2.0 * np.sqrt(np.maximum(x, 0.0)) * dw
            if dim == 2:
                xn += 2.0 * dt
                np.maximum(xn, 0.0, out=xn)
            else:
                dead = ~np.isnan(t_abs)
                newly = (xn <= 0.0) & ~dead
                t_abs[newly] = t + dt
                xn[newly | dead] = 0.0
            if not np.all(np.isfinite(xn)):
                raise NumericError(f"non-finite state at step {step}")
            a_acc += 0.5 * (x + xn) * dt
            q_acc += 0.5 * (x * x + xn * xn) * dt
            x = xn
            t += dt
        terminal[pos:pos + m] = x
        additive[pos:pos + m] = a_acc
        quad[pos:pos + m] = q_acc
        absorbed[pos:pos + m] = t_abs
        pos += m
    return PathFunctionalBatch(terminal=terminal, additive=additive, quad=quad,
                               absorbed_at=absorbed, dt=cfg.dt, t_end=t_end,
                               seed=cfg.seed)


def _run_to_absorption(h0: float, cfg: SimConfig, max_steps: int = 10_000):
    """BESQ0 until (almost) every path is absorbed.

    Runs in stages whose horizon and time step both double, so the
    straggler tail (unabsorbed fraction decays like h0/2t) is brought
    below 1e-4 within the step budget.  Returns per-path (additive,
    quad, absorbed_time, alive_mask).  Stragglers keep their partial
    functionals; callers weight them by e^{-quad}, which is far below
    double-precision resolution for the high excursions that survive,
    so the truncation does not bias weighted estimates.
    """
    n = cfg.n_paths
    additive = np.empty(n)
    quad = np.empty(n)
    absorbed = np.empty(n)
    alive_out = np.zeros(n, dtype=bool)
    pos = 0
    for ci, m in enumerate(_chunk_sizes(n)):
        g = _rng(cfg.seed, ci)
        x = np.full(m, h0)
        a_acc = np.zeros(m)
        q_acc = np.zeros(m)
        t_abs = np.full(m, np.nan)
        alive = np.ones(m, dtype=bool)
        t = 0.0
        dt = cfg.dt
        horizon = max(1.0, 32.0 * cfg.dt)
        steps = 0
        while steps < max_steps and np.any(alive):
            n_stage = int(round((horizon - t) / dt))
            idx = np.flatnonzero(alive)
            xa = x[idx]
            aa = a_acc[idx]
            qa = q_acc[idx]
            ta = np.full(len(idx), np.nan)
            for _ in range(n_stage):
                steps += 1
                live = np.isnan(ta)
                dw = g.standard_normal(len(idx)) * math.sqrt(dt)
                xn = xa + 2.0 * np.sqrt(np.maximum(xa, 0.0)) * dw
                xn[~live] = 0.0
                newly = (xn <= 0.0) & live
                ta[newly] = t + dt
                xn[newly] = 0.0
                aa += 0.5 * (xa + xn) * dt
                qa += 0.5 * (xa * xa + xn * xn) * dt
                xa = xn
                t += dt
                if steps >= max_steps:
                    break
            x[idx] = xa
            a_acc[idx] = aa
            q_acc[idx] = qa
            t_abs[idx] = ta
            alive = np.isnan(t_abs)
            if np.count_nonzero(alive) < 1e-4 * m:
                break
            horizon *= 2.0
            dt *= 2.0
        additive[pos:pos + m] = a_acc
        quad[pos:pos + m] = q_acc
        absorbed[pos:pos + m] = t_abs
        alive_out[pos:pos + m] = alive
        pos += m
    return additive, quad, absorbed, alive_out


def estimate_y(a: float, h0: float, cfg: SimConfig) -> McEstimate:
    """Monte Carlo estimate of y_a(h0) = E exp(int [a X - X^2] dv) (BESQ0).

    The integrand vanishes after absorption, so each path contributes
    exp(a A - Q) with A, Q read at its absorption time.
    """
    a = float(a)
    a_2s = a_2star()  # 2^{1/3} |a_0|, the threshold for y
    if not math.isfinite(a) or a >= a_2s:
        raise DomainError(f"estimate_y requires a < {a_2s:.9f}, got {a!r}")
    if a_2s - a < 0.2:
        warnings.warn("a is within 0.2 of the threshold; weights are heavy-tailed",
                      RuntimeWarning, stacklevel=2)
    h0 = float(h0)
    if not (math.isfinite(h0) and h0 >= 0.0):
        raise DomainError(f"h0 must be finite and >= 0, got {h0!r}")
    if h0 == 0.0:
        return McEstimate(mean=1.0, se=0.0, n=cfg.n_paths, seed=cfg.seed)
    additive, quad, _, alive = _run_to_absorption(h0, cfg)
    frac = np.count_nonzero(alive) / cfg.n_paths
    if frac > 0.01:
        raise HorizonError(
            f"{frac:.1%} of paths unabsorbed at the step cap; increase dt or budget")
    w = np.exp(a * additive - quad)
    mean = float(np.mean(w))
    se = float(np.std(w) / math.sqrt(cfg.n_paths))
    return McEstimate(mean=mean, se=se, n=cfg.n_paths, seed=cfg.seed)


@dataclass(frozen=True)
class WBinnedEstimate:
    """Per-bin density estimates of the weighted absorption-functional law."""
    edges: np.ndarray
    density: np.ndarray
    se: np.ndarray
    total_mass: float
    total_se: float
    n: int
    seed: int


def estimate_w(h0: float, t_bins, cfg: SimConfig) -> WBinnedEstimate:
    """Bin the weight e^{-Q} by the terminal additive functional A.

    Per-bin weighted frequency divided by bin width estimates the
    density t -> w(h0, t); the bin integral of the density estimates
    int w dt = y_0(h0).  Mass outside the bins is still counted in
    total_mass (the bins must cover the bulk for per-bin use).
    """
    h0 = float(h0)
    if not (math.isfinite(h0) and h0 >= 0.0):
        raise DomainError(f"h0 must be finite and >= 0, got {h0!r}")
    edges = np.asarray(t_bins, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0.0) \
            or edges[0] < 0.0 or not np.all(np.isfinite(edges)):
        raise DomainError("t_bins must be increasing, nonnegative, finite edges")
    widths = np.diff(edges)
    if h0 == 0.0:
        zeros = np.zeros(len(widths))
        return WBinnedEstimate(edges=edges, density=zeros, se=zeros.copy(),
                               total_mass=1.0, total_se=0.0,
                               n=cfg.n_paths, seed=cfg.seed)
    additive, quad, _, alive = _run_to_absorption(h0, cfg)
    frac = np.count_nonzero(alive) / cfg.n_paths
    if frac > 0.01:
        raise HorizonError(
            f"{frac:.1%} of paths unabsorbed at the step cap; increase dt or budget")
    w = np.exp(-quad)
    n = cfg.n_paths
    which = np.digitize(additive, edges) - 1
    density = np.zeros(len(widths))
    se = np.zeros(len(widths))
    for j in range(len(widths)):
        wj = w * (which == j)
        density[j] = np.sum(wj) / n / widths[j]
        se[j] = np.std(wj) / math.sqrt(n) / widths[j]
    total = float(np.mean(w))
    total_se = float(np.std(w) / math.sqrt(n))
    return WBinnedEstimate(edges=edges, density=density, se=se,
                           total_mass=total, total_se=total_se, n=n, seed=cfg.seed)


@dataclass(frozen=True)
class TiltedBatch:
    """Weighted BESQ2 paths realizing the eigenfunction-transformed law.

    x has one row per path and one column per recorded time; log_weight
    holds the Girsanov log-density at each recorded time.  Expectations
    under the transformed law are weighted averages with e^{log_weight}.
    """
    times: np.ndarray
    x: np.ndarray
    x0: np.ndarray
    log_weight: np.ndarray
    ess: float
    seed: int

    def weighted_mean(self, values: np.ndarray, col: int = -1) -> float:
        lw = self.log_weight[:, col]
        w = np.exp(lw - lw.max())
        return float(np.sum(w * values) / np.sum(w))


def equilibrium_sampler(a: float, cfg: SolverConfig | None = None):
    """Inverse-CDF sampler for the equilibrium density x_a(h)^2 dh.

    Returns (draw, sol) where draw(generator, size) samples starting
    points and sol is the eigenfunction solution used for evaluation.
    """
    sol = principal_eigen(a, cfg)
    mass = sol.weights * sol.x ** 2
    cdf = np.cumsum(mass)
    cdf = cdf / cdf[-1]

    def draw(g: np.random.Generator, size: int) -> np.ndarray:
        u = g.random(size)
        return np.interp(u, cdf, sol.h)

    return draw, sol


def simulate_tilted(a: float, h0, t_end: float, cfg: SimConfig,
                    record_times=None) -> TiltedBatch:
    """BESQ2 paths weighted by the eigenfunction change of measure.

    The weight at time t is

        D_t = e^{-rho(a) t} (x_a(X_t) / x_a(X_0)) exp(int_0^t [a X - X^2] dv),

    a mean-one martingale; weighted averages of path functionals give
    expectations under the transformed diffusion.  h0 may be a number
    or "equilibrium", which draws X_0 from x_a(h)^2 dh so the weighted
    law is stationary.  Log-weights are accumulated throughout.

    Raises DegeneracyError when the effective sample size at the final
    recorded time drops below 1% of n_paths.
    """
    a = float(a)
    if not math.isfinite(a):
        raise DomainError(f"a must be finite, got {a!r}")
    t_end = float(t_end)
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise DomainError(f"t_end must be positive, got {t_end!r}")
    if record_times is None:
        record_times = [t_end]
    times = np.asarray(sorted(float(t) for t in record_times))
    if len(times) == 0 or times[0] <= 0.0 or times[-1] > t_end + 1e-12:
        raise DomainError("record_times must lie in (0, t_end]")

    draw, sol = equilibrium_sampler(a)
    equil = isinstance(h0, str)
    if equil:
        if h0 != "equilibrium":
            raise DomainError(f"h0 must be a number or 'equilibrium', got {h0!r}")
    else:
        h0 = float(h0)
        if not (math.isfinite(h0) and h0 >= 0.0):
            raise DomainError(f"h0 must be finite and >= 0, got {h0!r}")

    n = cfg.n_paths
    n_steps = int(math.ceil(t_end / cfg.dt - 1e-12))
    rec_steps = np.minimum(np.round(times / cfg.dt).astype(int), n_steps)
    x_out = np.empty((n, len(times)))
    lw_out = np.empty((n, len(times)))
    x0_out = np.empty(n)
    pos = 0
    for ci, m in enumerate(_chunk_sizes(n)):
        g = _rng(cfg.seed, ci)
        x = draw(g, m) if equil else np.full(m, h0)
        x0 = x.copy()
        log_x0 = np.log(np.interp(x0, sol.h, sol.x))
        # beyond the solver box x_a is below double precision; flooring the
        # interpolation keeps the log finite (such paths carry no weight)
        floor = 1e-300
        acc = np.zeros(m)  # int (a X - X^2) dv, trapezoid
        t = 0.0
        rec_i = 0
        for step in range(1, n_steps + 1):
            dt = min(cfg.dt, t_end - t)
            dw = g.standard_normal(m) * math.sqrt(dt)
            xn = x + 2.0 * np.sqrt(np.maximum(x, 0.0)) * dw + 2.0 * dt
            np.maximum(xn, 0.0, out=xn)
            if not np.all(np.isfinite(xn)):
                raise NumericError(f"non-finite state at step {step}")
            f_old = a * x - x * x
            f_new = a * xn - xn * xn
            acc += 0.5 * (f_old + f_new) * dt
            x = xn
            t += dt
            while rec_i < len(times) and rec_steps[rec_i] == step:
                lw = (acc - sol.rho * t
                      + np.log(np.maximum(np.interp(x, sol.h, sol.x), floor))
                      - log_x0)
                x_out[pos:pos + m, rec_i] = x
                lw_out[pos:pos + m, rec_i] = lw
                rec_i += 1
        x0_out[pos:pos + m] = x0
        pos += m
    lw_final = lw_out[:, -1]
    shifted = np.exp(lw_final - lw_final.max())
    ess = float(np.sum(shifted) ** 2 / np.sum(shifted ** 2))
    if ess < 0.01 * n:
        raise DegeneracyError(
            f"effective sample size {ess:.1f} below 1% of n={n}")
    return TiltedBatch(times=times, x=x_out, x0=x0_out, log_weight=lw_out,
                       ess=ess, seed=cfg.seed)


def first_passage_density(h, t):
    """Density of A(infinity) under BESQ0 from h:

        phi_h(t) = (8 pi)^{-1/2} t^{-3/2} h exp(-h^2 / 8t),

    which is also the first-passage density of level 0 for a standard
    Brownian motion started at h/2 (the Ray-Knight picture of the area
    under a BESQ0 path).
    """
    h_arr = np.asarray(h, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    if np.any(h_arr <= 0.0) or np.any(t_arr <= 0.0) \
            or not (np.all(np.isfinite(h_arr)) and np.all(np.isfinite(t_arr))):
        raise DomainError("first_passage_density requires h > 0 and t > 0")
    out = (8.0 * math.pi) ** -0.5 * t_arr ** -1.5 * h_arr * np.exp(
        -h_arr * h_arr / (8.0 * t_arr))
    if np.ndim(h) == 0 and np.ndim(t) == 0:
        return float(out)
    return out
