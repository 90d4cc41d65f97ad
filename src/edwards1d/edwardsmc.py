"""Direct Monte Carlo for the self-repellent polymer measure.

Brownian paths are discretized with Gaussian increments, their local
time is collected into spatial bins of width `bin`, and

    H_T = sum_bins (occupation / bin)^2 * bin = sum_bins occupation^2 / bin

is the Riemann form of the squared-local-time integral.  The polymer
law reweights Wiener measure by e^{-beta H_T}, so every estimator here
is a weighted average over paths: independent ones (plain importance
sampling from Wiener measure, no Markov chain), or, in
sample_polymer_sequential, paths grown in time and resampled on their
effective sample size, which stays usable at long horizons.

The module also houses the desk-scale consistency check between the
direct polymer quantities and the squared-Bessel representation of the
local-time profile (three independent pieces: two absorbed-at-zero
profiles beyond the endpoints, one two-dimensional bridge profile in
between), exercised both unconditionally and through the weighted
boundary-kernel bookkeeping identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .besselsim import (
    CHUNK,
    McEstimate,
    _absorbed_run,
    _besq_step,
    _chunk_runs,
    _chunk_sizes,
    _equilibrium_draw,
    _map,
    _rng,
)
from .errors import ConditioningError, DegeneracyError, DomainError, NumericError
from .sturm import principal_eigen


@dataclass(frozen=True)
class PolymerConfig:
    """Discretization and sampling knobs for the polymer estimators."""
    T: float
    beta: float
    dt: float
    bin: float
    n_paths: int
    seed: int

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise DomainError(f"T must be positive, got {self.T!r}")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise DomainError(f"beta must be >= 0, got {self.beta!r}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise DomainError(f"dt must be positive, got {self.dt!r}")
        if not (math.isfinite(self.bin) and self.bin > 0.0):
            raise DomainError(f"bin must be positive, got {self.bin!r}")
        if self.dt > self.bin ** 2 * (1.0 + 1e-9):
            raise DomainError(
                f"dt = {self.dt} exceeds bin^2 = {self.bin ** 2}; local-time "
                "bins cannot resolve single steps")
        n_steps = self.T / self.dt
        if abs(n_steps - round(n_steps)) > 1e-9 * max(1.0, n_steps):
            raise DomainError(f"T/dt = {n_steps} is not an integer")
        if self.n_paths < 1:
            raise DomainError(f"n_paths must be >= 1, got {self.n_paths!r}")
        if not (0 <= int(self.seed) < 2 ** 63) or int(self.seed) != self.seed:
            raise DomainError(f"seed must be an integer in [0, 2**63), got {self.seed!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))


@dataclass(frozen=True)
class LocalTimeHistogram:
    """Occupation time per spatial bin for one path."""
    bins: dict
    bin_width: float

    @property
    def total(self) -> float:
        return sum(self.bins.values())

    def h_value(self) -> float:
        """The squared-profile functional sum occ^2 / bin_width."""
        return sum(v * v for v in self.bins.values()) / self.bin_width


@dataclass(frozen=True)
class PolymerEstimate:
    logZ: float
    logZ_se: float
    rate_at_T: float
    rate_se: float
    endpoint_mean: float
    endpoint_mean_se: float
    endpoint_sd: float
    signed_mean: float
    signed_se: float
    skew: float
    skew_se: float
    window_variance: float
    ess: float
    n: int
    seed: int


def _positions(g: np.random.Generator, m: int, cfg: PolymerConfig,
               drift: float = 0.0, out=None) -> np.ndarray:
    """Positions of m paths with drift after each of cfg's time steps.

    Row i is path i; the first k rows are the same at any m >= k.  Given
    out, a C-contiguous m x T/dt float array, the positions are written
    there.
    """
    pos = g.standard_normal((m, cfg.n_steps), out=out)
    pos *= math.sqrt(cfg.dt)
    if drift:
        pos += drift * cfg.dt
    return np.cumsum(pos, axis=1, out=pos)


def _bin_index(pos, width: float, out=None):
    """Index k of the spatial bin [k width, (k + 1) width) holding pos.

    The indices go to out, an int64 array of pos's shape, when given.
    """
    if out is None:
        out = np.empty(np.shape(pos), dtype=np.int64)
    return np.floor(pos / width, out=out, casting="unsafe")


ROWS = 256  # paths drawn and binned per block of a polymer chunk


def _chunk_paths(g: np.random.Generator, m: int, cfg: PolymerConfig,
                 drift: float = 0.0):
    """Simulate one chunk of m paths: returns (H values, endpoints).

    The paths are drawn and binned ROWS at a time in buffers allocated
    once per chunk, so a chunk holds three ROWS x T/dt arrays at its
    peak (positions, their quotient by bin, bin indices), not m x T/dt
    as an unblocked chunk would.  The blocks take g's normals in
    row order, so the paths are those of _positions(g, m, cfg, drift).
    H is dt^2 / bin times the sum of each path's squared bin counts, a
    sum of integers.
    """
    rows = min(ROWS, m)
    pos = np.empty((rows, cfg.n_steps))
    idx = np.empty((rows, cfg.n_steps), dtype=np.int64)
    sq = np.empty(m, dtype=np.int64)
    endp = np.empty(m)
    for r in range(0, m, rows):
        k = min(rows, m - r)
        block = _positions(g, k, cfg, drift, out=pos[:k])
        endp[r:r + k] = block[:, -1]
        b = _bin_index(block, cfg.bin, out=idx[:k])
        lo = b.min()
        width = int(b.max() - lo + 1)
        # row i's bins to [i width, (i + 1) width): one bincount per block
        b -= lo - np.arange(k)[:, None] * width
        counts = np.bincount(b.ravel(), minlength=k * width)
        sq[r:r + k] = np.sum((counts * counts).reshape(k, width), axis=1)
    return sq * cfg.dt ** 2 / cfg.bin, endp


def _ensembles(cfgs, drift: float = 0.0, calls=()):
    """(H values, endpoints) of each config's paths; one _map for all chunks.

    calls are run in the same map, as in besselsim._chunk_runs, and their
    results follow the ensembles'.
    """
    return _chunk_runs([(c.n_paths, c.seed,
                         lambda g, m, c=c: _chunk_paths(g, m, c, drift))
                        for c in cfgs], calls)


def _ensemble(cfg: PolymerConfig, drift: float = 0.0):
    return _ensembles([cfg], drift)[0]


def local_time_histogram(cfg: PolymerConfig, path_index: int = 0) -> LocalTimeHistogram:
    """The binned local-time profile of one path of the ensemble."""
    if not (0 <= path_index < cfg.n_paths):
        raise DomainError(f"path_index out of range: {path_index!r}")
    ci, within = divmod(path_index, CHUNK)
    path = _positions(_rng(cfg.seed, ci), within + 1, cfg)[within]
    vals, counts = np.unique(_bin_index(path, cfg.bin), return_counts=True)
    bins = {int(k): float(c * cfg.dt) for k, c in zip(vals, counts)}
    return LocalTimeHistogram(bins=bins, bin_width=cfg.bin)


def _weighted_stats(w: np.ndarray, v: np.ndarray):
    wm = w / np.sum(w)
    mean = float(np.sum(wm * v))
    var = float(np.sum(wm * (v - mean) ** 2))
    se = math.sqrt(float(np.sum(wm ** 2 * (v - mean) ** 2)))
    return mean, var, se


def _endpoint_stats(w: np.ndarray, endp: np.ndarray, T: float):
    """Weighted endpoint summary shared by the polymer estimators.

    Returns (mean |B_T|/T, its importance-sampling se, sd(|B_T|)/sqrt(T),
    signed mean, its importance-sampling se, skew, window variance); the
    weights need not be normalised.
    """
    speed = np.abs(endp) / T
    ep_mean, ep_var, ep_se = _weighted_stats(w, speed)
    sd_bt = math.sqrt(ep_var) * T / math.sqrt(T)  # sd(|B_T|)/sqrt(T)
    sg_mean, sg_var, sg_se = _weighted_stats(w, endp)
    wm = w / np.sum(w)
    skew = float(np.sum(wm * (endp - sg_mean) ** 3)) / max(sg_var, 1e-300) ** 1.5
    b_hat = ep_mean
    c_hat = max(sd_bt, 1e-300)
    dev = np.abs(endp) - b_hat * T
    inside = np.abs(dev) <= T ** 0.75
    ww = w * inside
    if np.sum(ww) > 0:
        std_dev = dev / (c_hat * math.sqrt(T))
        wv = float(np.sum(ww * std_dev ** 2) / np.sum(ww)
                   - (np.sum(ww * std_dev) / np.sum(ww)) ** 2)
    else:
        wv = math.nan
    return ep_mean, ep_se, sd_bt, sg_mean, sg_se, skew, wv


def sample_polymer(cfg: PolymerConfig) -> PolymerEstimate:
    """Estimate log Z, the finite-horizon rate, and endpoint statistics.

    log Z by log-mean-exp of -beta H over paths (weights never exceed 1,
    so the plain mean is safe); its standard error by the delta method.
    Endpoint statistics are weighted by the same e^{-beta H}.

    window_variance is a bulk-shape diagnostic: the weighted variance of
    (|B_T| - b_hat T)/(c_hat sqrt(T)) restricted to the window
    |B_T - b_hat T| <= T^{3/4}, with b_hat and c_hat the full-sample
    weighted center and scale.  For a Gaussian bulk this sits near the
    ~2-sigma truncation value (around 0.8), so values far from 1 flag a
    non-Gaussian endpoint law.

    The effective sample size roughly halves with each unit of T at
    beta = 1; past T of about 10 use sample_polymer_sequential.
    """
    return _polymer_estimate(cfg, *_ensemble(cfg))


def _polymer_estimate(cfg: PolymerConfig, h: np.ndarray,
                      endp: np.ndarray) -> PolymerEstimate:
    """sample_polymer's estimates from the ensemble (H values, endpoints)."""
    n = cfg.n_paths
    w = np.exp(-cfg.beta * h)
    mean_w = float(np.mean(w))
    se_w = float(np.std(w) / math.sqrt(n))
    with np.errstate(divide="ignore", invalid="ignore"):
        ess = float(np.sum(w) ** 2 / np.sum(w * w))
    # not >=, so that a nan (every weight, or its square, underflowed) fails
    if not ess >= 1e-3 * n:
        raise DegeneracyError(
            f"effective sample size {ess:.1f} below 0.1% of n = {n}; "
            "reduce T or beta, or use sample_polymer_sequential")
    logz = math.log(mean_w)
    logz_se = se_w / mean_w
    ep_mean, ep_se, sd_bt, sg_mean, sg_se, skew, wv = _endpoint_stats(
        w, endp, cfg.T)
    return PolymerEstimate(
        logZ=logz, logZ_se=logz_se,
        rate_at_T=-logz / cfg.T, rate_se=logz_se / cfg.T,
        endpoint_mean=ep_mean, endpoint_mean_se=ep_se, endpoint_sd=sd_bt,
        signed_mean=sg_mean, signed_se=sg_se, skew=skew,
        skew_se=math.sqrt(6.0 / ess),
        window_variance=wv, ess=ess, n=n, seed=cfg.seed)


def _estimates(cfgs) -> dict:
    """sample_polymer of each distinct config, all chunks in one _map."""
    cfgs = list(dict.fromkeys(cfgs))
    return {c: _polymer_estimate(c, *ens)
            for c, ens in zip(cfgs, _ensembles(cfgs))}


@dataclass(frozen=True)
class SequentialEstimate(PolymerEstimate):
    """A PolymerEstimate from the sequential sampler, with its resampling count."""
    resamplings: int


SMC_BLOCK = 256  # time steps of Gaussian increments drawn per generator call


def _window_half_bins(cfg: PolymerConfig) -> int:
    """Half-width, in bins, of the sequential sampler's occupancy window.

    The polymer is ballistic at speed b* beta^{1/3} (b* ~ 1.11) with
    O(sqrt(T)) spread; twice that speed plus eight free-path standard
    deviations leaves room no path is expected to use.
    """
    reach = 2.0 * cfg.beta ** (1.0 / 3.0) * cfg.T + 8.0 * math.sqrt(cfg.T)
    return int(math.ceil(reach / cfg.bin)) + 1


def _smc_island(cfg: PolymerConfig, ci: int, m: int):
    """Run one island of m particles through the whole horizon.

    Each step adds a Gaussian increment, counts the new position into its
    bin and multiplies the weight by e^{-beta (2c + 1) dt^2 / bin}, c the
    bin's count before the step: the product over the path is exactly
    e^{-beta H_T} with the binning of _chunk_paths.  When the effective
    sample size drops below m/2 the island resamples systematically and
    folds the mean weight into its log Z estimate.  Returns (log Z_hat,
    final weights summing to 1, endpoints, final ESS, resamplings).
    """
    g = _rng(cfg.seed, ci)
    half = _window_half_bins(cfg)
    width = 2 * half
    if m * width * 4 > 2 ** 30:
        raise DomainError(
            f"occupancy window of {width} bins needs {m * width * 4 / 2 ** 30:.1f}"
            " GiB per chunk (limit 1 GiB); reduce T or beta, or widen bin")
    occ = np.zeros(m * width, dtype=np.int32)  # m x width, row-major
    base = np.arange(m) * width + half
    x = np.zeros(m)
    lw = np.zeros(m)
    k = cfg.beta * cfg.dt ** 2 / cfg.bin
    logz = 0.0
    resamplings = 0
    for start in range(0, cfg.n_steps, SMC_BLOCK):
        block = min(SMC_BLOCK, cfg.n_steps - start)
        for dw in g.standard_normal((block, m)) * math.sqrt(cfg.dt):
            x += dw
            b = _bin_index(x, cfg.bin)
            if b.min() < -half or b.max() >= half:
                raise NumericError(
                    f"a path left the occupancy window |x| < {half * cfg.bin:g} "
                    f"in chunk {ci}")
            flat = base + b
            c = occ[flat]
            occ[flat] = c + 1
            lw -= k * (2 * c + 1)
            top = lw.max()
            lw -= top
            logz += top
            w = np.exp(lw)
            ess = float(np.sum(w) ** 2 / np.dot(w, w))
            if not ess >= 1e-3 * m:
                raise DegeneracyError(
                    f"effective sample size {ess:.1f} below 0.1% of the "
                    f"{m} particles of chunk {ci} after one step; reduce "
                    "beta or dt")
            if ess < 0.5 * m:
                logz += math.log(np.mean(w))
                cdf = np.cumsum(w)
                u = (g.random() + np.arange(m)) * (cdf[-1] / m)
                anc = np.minimum(np.searchsorted(cdf, u, side="right"), m - 1)
                occ = occ.reshape(m, width)[anc].ravel()
                x = x[anc]
                lw[:] = 0.0
                resamplings += 1
    w = np.exp(lw)
    logz += math.log(np.mean(w))
    ess = float(np.sum(w) ** 2 / np.dot(w, w))
    return logz, w / np.sum(w), x, ess, resamplings


def _pool_islands(islands, T: float):
    """log Z and endpoint statistics of islands combined by their Z_hat."""
    logz = np.array([isl[0] for isl in islands])
    sizes = np.array([len(isl[2]) for isl in islands], dtype=float)
    top = logz.max()
    mass = sizes * np.exp(logz - top)
    w = np.concatenate([mk * isl[1] for mk, isl in zip(mass, islands)])
    endp = np.concatenate([isl[2] for isl in islands])
    pooled_logz = float(top + math.log(np.sum(mass) / np.sum(sizes)))
    return (pooled_logz,) + _endpoint_stats(w, endp, T)


def sample_polymer_sequential(cfg: PolymerConfig) -> SequentialEstimate:
    """The estimates of sample_polymer by sequential Monte Carlo.

    Same discrete law as sample_polymer (same steps, bins and H), but
    the paths are grown in time with the weight updated step by step and
    resampled whenever the effective sample size falls below half the
    particles (Feynman-Kac SMC), so the estimates stay usable at
    horizons where plain importance sampling degenerates.  Each
    _chunk_sizes chunk is an island that resamples only within itself
    and draws from its own (seed, chunk) stream, so the islands run in
    parallel (besselsim._map); they are combined by their Z_hat.
    Standard errors are delete-one-island jackknife errors, so at least
    two islands (n_paths > CHUNK) are required.
    ess is the sum of the islands' final effective sample sizes.
    Memory is one chunk x window occupancy array, not chunk x T/dt.
    """
    sizes = _chunk_sizes(cfg.n_paths)
    if len(sizes) < 2:
        raise DomainError(
            f"n_paths must exceed {CHUNK} so that standard errors can come "
            f"from the spread across islands, got {cfg.n_paths}")
    islands = _map(lambda ci, m: _smc_island(cfg, ci, m), enumerate(sizes))
    (logz, ep_mean, _, sd_bt, sg_mean, _, skew, wv) = _pool_islands(
        islands, cfg.T)
    k = len(islands)
    loo = np.array([_pool_islands(islands[:i] + islands[i + 1:], cfg.T)
                    for i in range(k)])
    se = np.sqrt((k - 1) / k * np.sum((loo - loo.mean(axis=0)) ** 2, axis=0))
    logz_se, ep_se, _, _, sg_se, _, skew_se, _ = (float(v) for v in se)
    return SequentialEstimate(
        logZ=logz, logZ_se=logz_se,
        rate_at_T=-logz / cfg.T, rate_se=logz_se / cfg.T,
        endpoint_mean=ep_mean, endpoint_mean_se=ep_se,
        endpoint_sd=sd_bt, signed_mean=sg_mean, signed_se=sg_se,
        skew=skew, skew_se=skew_se, window_variance=wv,
        ess=float(sum(isl[3] for isl in islands)), n=cfg.n_paths,
        seed=cfg.seed,
        resamplings=sum(isl[4] for isl in islands))


def tilted_mgf(mu: float, cfg: PolymerConfig):
    """Finite-horizon estimate of the one-sided generating function:

        (1/T) log E[ e^{-beta H_T + mu B_T} 1{B_T >= 0} ].

    For mu > 0 the paths are sampled with a drift matched to the
    velocity the tilt selects (quadratic rate geometry: b* + c*^2 mu),
    and the estimate carries the exact change-of-measure correction
    e^{-theta B_T + theta^2 T / 2}; without this the tilted mass sits
    on endpoints plain sampling essentially never reaches.  Returns a
    McEstimate (besselsim's container) to keep field conventions
    uniform.
    """
    from .constants import compute_constants
    mu = float(mu)
    if not math.isfinite(mu):
        raise DomainError(f"mu must be finite, got {mu!r}")
    if mu > 0:
        consts = compute_constants()
        theta = consts.b_star + consts.c_star ** 2 * mu
    else:
        theta = 0.0
    h, endp = _ensemble(cfg, drift=theta)
    n = cfg.n_paths
    lw = (-cfg.beta * h + (mu - theta) * endp
          + 0.5 * theta * theta * cfg.T)
    lw = np.where(endp >= 0.0, lw, -np.inf)
    peak = lw.max()
    if not math.isfinite(peak):
        raise NumericError("all paths ended below zero")
    w = np.exp(lw - peak)
    ess = float(np.sum(w) ** 2 / np.sum(w * w))
    if ess < 1e-3 * n:
        raise DegeneracyError(
            f"effective sample size {ess:.1f} below 0.1% of n = {n}")
    mean = float(np.mean(w))
    se = float(np.std(w) / math.sqrt(n))
    est = (peak + math.log(mean)) / cfg.T
    return McEstimate(mean=est, se=se / mean / cfg.T, n=n, seed=cfg.seed)


@dataclass(frozen=True)
class CollapseReport:
    """Scaling-collapse comparison against beta = 1 reference runs."""
    betas: tuple
    z_logZ: tuple
    z_endpoint: tuple
    max_z: float
    exponent: float
    rates: tuple


def scaling_collapse(betas, cfg: PolymerConfig) -> CollapseReport:
    """Compare each beta run against the beta = 1 run at the scaled horizon.

    The polymer at (beta, T) has the law of the beta = 1 polymer at
    horizon beta^{2/3} T with space scaled back by beta^{-1/3}:
    partition functions agree exactly and endpoints match after
    scaling.  The reference run uses the matched discretization
    (dt' = beta^{2/3} dt, bin' = beta^{1/3} bin, the images of the
    direct grid under the path scaling), which keeps dt'/bin'^2 equal
    to dt/bin^2 and makes the discrete weights equal in law, not just
    in the continuum limit.  For beta = 1 the reference is the
    identical run (z = 0 exactly); otherwise it uses an independent
    seed so the z-scores test the law identity rather than shared
    noise, and being the direct run it is simulated once.  Also fits the
    growth exponent of -logZ/T against beta.  The chunks of all the runs
    go through one process map, so the workers share out the whole
    collapse rather than one run at a time.
    """
    betas = tuple(float(b) for b in betas)
    if not betas:
        raise DomainError("betas must name at least one coupling")
    if any(not (math.isfinite(b) and b > 0.0) for b in betas):
        raise DomainError("betas must be positive and finite")
    pairs = []
    for k, b in enumerate(betas):
        direct_cfg = PolymerConfig(T=cfg.T, beta=b, dt=cfg.dt, bin=cfg.bin,
                                   n_paths=cfg.n_paths, seed=cfg.seed)
        s = b ** (2.0 / 3.0)
        ref_seed = cfg.seed if b == 1.0 else cfg.seed + 1000003 * (k + 1)
        ref_cfg = PolymerConfig(T=s * cfg.T, beta=1.0, dt=s * cfg.dt,
                                bin=cfg.bin * b ** (1.0 / 3.0),
                                n_paths=cfg.n_paths, seed=ref_seed)
        pairs.append((direct_cfg, ref_cfg))
    est = _estimates([c for pair in pairs for c in pair])
    z_logz = []
    z_end = []
    rates = []
    for b, (direct_cfg, ref_cfg) in zip(betas, pairs):
        direct, ref = est[direct_cfg], est[ref_cfg]
        dz = (direct.logZ - ref.logZ) / math.hypot(direct.logZ_se, ref.logZ_se)
        # endpoint speeds: |B_T|/T vs beta^{-1/3} |B_T'|/T' * (T'/T) scaling:
        # mean |B| matches after multiplying the reference by beta^{-1/3}
        d_end = direct.endpoint_mean * direct_cfg.T
        r_end = ref.endpoint_mean * ref_cfg.T / b ** (1.0 / 3.0)
        d_se = direct.endpoint_mean_se * direct_cfg.T
        r_se = ref.endpoint_mean_se * ref_cfg.T / b ** (1.0 / 3.0)
        ez = (d_end - r_end) / math.hypot(d_se, r_se)
        z_logz.append(float(dz))
        z_end.append(float(ez))
        rates.append(direct.rate_at_T)
    lb = np.log(np.array(betas))
    lr = np.log(np.array(rates))
    if len(betas) >= 2:
        exponent = float(np.polyfit(lb, lr, 1)[0])
    else:
        exponent = math.nan
    zs = [abs(z) for z in z_logz + z_end]
    return CollapseReport(betas=betas, z_logZ=tuple(z_logz),
                          z_endpoint=tuple(z_end), max_z=float(max(zs)),
                          exponent=exponent, rates=tuple(rates))


@dataclass(frozen=True)
class HorizonFit:
    """Finite-horizon rates and their linear extrapolation in 1/T."""
    horizons: tuple
    rates: tuple
    ses: tuple
    extrapolated: float


def rate_vs_horizon(cfg: PolymerConfig, horizons) -> HorizonFit:
    """Fit rate_at_T = a_inf + kappa / T over the given horizons.

    Each horizon's rate is sample_polymer's; the chunks of all the
    horizons go through one process map.  Raises DomainError for fewer
    than two distinct horizons, which leave the line undetermined.
    """
    horizons = tuple(float(t) for t in horizons)
    if len(set(horizons)) < 2:
        raise DomainError(f"the fit needs at least two distinct horizons, "
                          f"got {horizons!r}")
    cfgs = [PolymerConfig(T=t, beta=cfg.beta, dt=cfg.dt, bin=cfg.bin,
                          n_paths=cfg.n_paths, seed=cfg.seed) for t in horizons]
    est = _estimates(cfgs)
    rates = [est[c].rate_at_T for c in cfgs]
    ses = [est[c].rate_se for c in cfgs]
    inv = 1.0 / np.array(horizons)
    coef = np.polyfit(inv, np.array(rates), 1)
    return HorizonFit(horizons=horizons, rates=tuple(rates), ses=tuple(ses),
                      extrapolated=float(coef[1]))


# ---------------------------------------------------------------------------
# squared-Bessel representation checks


def _flip_to_positive(pos: np.ndarray):
    """Reflect each path so its endpoint is nonnegative (symmetry)."""
    sign = np.where(pos[:, -1] >= 0.0, 1.0, -1.0)
    return pos * sign[:, None]


def _quintuple(pos: np.ndarray, cfg: PolymerConfig):
    """Per-path (y, h1, h2, t1, t2) read from the binned profile:

    y the (flipped) endpoint, h1 and h2 the local-time levels at the
    endpoint and the origin, t1 the time spent above y, t2 below 0.
    """
    y = pos[:, -1]
    t1 = np.sum(pos > y[:, None], axis=1) * cfg.dt
    t2 = np.sum(pos < 0.0, axis=1) * cfg.dt
    idx = _bin_index(pos, cfg.bin)
    h1 = np.sum(idx == idx[:, -1:], axis=1) * cfg.dt / cfg.bin
    h2 = np.sum(idx == 0, axis=1) * cfg.dt / cfg.bin
    return y, h1, h2, t1, t2


def _coarsening_stages(dt: float):
    """The Ray-Knight pieces' schedule for _absorbed_run.

    One-step stages, so absorbed paths leave the working set at once;
    the step doubles every 1000 steps so stragglers do not dominate, and
    the run stops after 4000 steps.
    """
    return ((1, dt * 2.0 ** (k // 1000)) for k in range(4000))


def _besq2_profiles(g: np.random.Generator, h_start: np.ndarray,
                    y_arr: np.ndarray, dt: float, n_rep: int):
    """Row-vectorized BESQ2 profiles: row i runs n_rep paths on [0, y_i].

    Returns (X_y, A_y, Q_y) each of shape (len(y_arr), n_rep).  Rows are
    advanced together, longest first, so the working set shrinks as
    shorter profiles finish.
    """
    nq = len(y_arr)
    n_steps = np.maximum(2, np.round(np.asarray(y_arr) / dt).astype(int))
    order = np.argsort(-n_steps)
    steps_sorted = n_steps[order]
    x = np.repeat(np.asarray(h_start, dtype=float)[order, None], n_rep, axis=1)
    a = np.zeros((nq, n_rep))
    q = np.zeros((nq, n_rep))
    m = nq
    k = 0
    while m > 0:
        x[:m] = _besq_step(g, x[:m], dt, 2.0, a[:m], q[:m])
        k += 1
        # rows from here on have finished and keep their last state in x
        m = int(np.searchsorted(-steps_sorted, -k, side="left"))
    inv = np.argsort(order)
    return x[inv], a[inv], q[inv]


@dataclass(frozen=True)
class RayKnightReport:
    """Results of the profile-representation consistency checks.

    The fields of a check that was not selected keep their default, nan.
    """
    direct_mean: float = math.nan
    direct_se: float = math.nan
    composite_mean: float = math.nan
    composite_se: float = math.nan
    z_unconditional: float = math.nan
    z_swap_mean: float = math.nan
    z_swap_var: float = math.nan
    lhs: float = math.nan
    lhs_se: float = math.nan
    rhs: float = math.nan
    rhs_se: float = math.nan
    z_bookkeeping: float = math.nan
    acceptance: float = math.nan


def _composite_h(g: np.random.Generator, quintuples, cfg: PolymerConfig,
                 swap: bool, rel_window: float = 0.3, n_rep: int = 3000):
    """Mean H for each quintuple from the three-piece representation.

    quintuples holds one (y, h1, h2, t1, t2) row per draw, as an (n, 5)
    array or a sequence of 5-tuples; rows with y <= 0 or no time left for
    the middle piece are skipped.  Pieces are conditioned by rejection into windows around the recorded
    values: the outer profiles on their terminal areas, the bridge on
    its terminal level and area.  Returns per-quintuple estimates and
    the overall acceptance rate.  All quintuples are simulated in one
    batch per piece kind.
    """
    y, h1, h2, t1, t2 = np.asarray(quintuples, dtype=float).reshape(-1, 5).T
    if swap:
        h1, h2, t1, t2 = h2, h1, t2, t1
    s_mid = cfg.T - t1 - t2
    keep = (s_mid > 0.0) & (y > 0.0)
    if not keep.any():
        return np.array([]), 0.0
    y, h1, h2, t1, t2, s_mid = (v[keep] for v in (y, h1, h2, t1, t2, s_mid))
    nq = len(y)

    # outer pieces for all quintuples in a single absorbed batch
    h_starts = np.concatenate([np.repeat(h1, n_rep), np.repeat(h2, n_rep)])
    a, q, alive = _absorbed_run(g, h_starts, _coarsening_stages(cfg.dt))
    a = a.reshape(2, nq, n_rep)
    q = q.reshape(2, nq, n_rep)
    alive = alive.reshape(2, nq, n_rep)
    targets = np.stack([t1, t2])
    win = rel_window * (targets + 0.1)
    acc_outer = (~alive) & (np.abs(a - targets[:, :, None]) <= win[:, :, None])
    counts_outer = acc_outer.sum(axis=2)
    sums_outer = np.sum(q * acc_outer, axis=2)

    # bridge pieces, row-batched
    xy, ab, qb = _besq2_profiles(g, h1, y, cfg.dt, n_rep)
    acc_b = ((np.abs(xy - h2[:, None]) <= rel_window * (h2[:, None] + 0.5))
             & (np.abs(ab - s_mid[:, None]) <= rel_window * (s_mid[:, None] + 0.1)))
    counts_b = acc_b.sum(axis=1)
    sums_b = np.sum(qb * acc_b, axis=1)

    ok = (counts_outer[0] >= 10) & (counts_outer[1] >= 10) & (counts_b >= 10)
    out = (sums_outer[0, ok] / counts_outer[0, ok]
           + sums_outer[1, ok] / counts_outer[1, ok]
           + sums_b[ok] / counts_b[ok])
    n_acc = int(np.count_nonzero(acc_outer) + np.count_nonzero(acc_b))
    acc = n_acc / (3 * nq * n_rep)
    if acc < 1e-4:
        raise ConditioningError(
            f"acceptance rate {acc:.2e} below 1e-4; widen the bins")
    return out, acc


def rayknight_consistency(a: float, cfg: PolymerConfig,
                          n_quintuples: int = 100,
                          checks: tuple = ("unconditional", "swap",
                                           "bookkeeping")) -> RayKnightReport:
    """Desk-scale consistency of the profile representation.

    Three checks (selectable, unselected fields come back nan):

    1. unconditional: E[H_T] from direct paths against the mean of the
       three-piece composite averaged over quintuples drawn from the
       direct ensemble (rejection-conditioned into wide windows);
    2. swap symmetry: exchanging the two outer pieces leaves the
       composite mean and variance unchanged;
    3. weighted bookkeeping at the given a: the direct estimate of
       e^{aT} E[e^{-H_T} e^{-rho(a) B_T} 1{B_T >= 0}] against the
       boundary-kernel decomposition evaluated by simulation (piece
       areas as the kernel arguments, the middle piece under the
       eigenfunction-weighted law).

    The direct ensemble's chunks, the composite runs and the simulated
    right-hand side of the bookkeeping identity each draw from their own
    stream and run as jobs of one process map.

    Raises DomainError for an empty or unknown check list or an
    unconditional or swap check with fewer than 3 quintuples, and
    ConditioningError when fewer than 3 composite samples (paired, for the
    swap check) survive the acceptance windows.
    """
    a = float(a)
    if not checks:
        raise DomainError("no checks selected; choose from unconditional, "
                          "swap, bookkeeping")
    unknown = set(checks) - {"unconditional", "swap", "bookkeeping"}
    if unknown:
        raise DomainError(f"unknown checks: {sorted(unknown)!r}; choose from "
                          f"unconditional, swap, bookkeeping")
    need_quint = {"unconditional", "swap"} & set(checks)
    if need_quint and n_quintuples < 3:
        raise DomainError(f"the unconditional and swap checks need "
                          f"n_quintuples >= 3, got {n_quintuples!r}")
    sol = principal_eigen(a)
    rep = {}

    if need_quint:
        qcfg = PolymerConfig(T=cfg.T, beta=cfg.beta, dt=cfg.dt, bin=cfg.bin,
                             n_paths=n_quintuples, seed=cfg.seed + 1)
        pos = _flip_to_positive(_positions(_rng(qcfg.seed, 0), n_quintuples, qcfg))
        quintuples = np.stack(_quintuple(pos, qcfg), axis=1)

    # every stream is one job of a single process map: the right-hand
    # side of the bookkeeping identity (the longest job), the composite
    # runs, each on its own stream, then the direct ensemble's chunks
    calls = {}
    if "bookkeeping" in checks:
        calls["bookkeeping"] = lambda: _bookkeeping_rhs(a, sol, cfg)
    streams = {}
    if "unconditional" in checks:
        streams["unconditional"] = (1_000_003, False)
    if "swap" in checks:
        streams["plain"] = (4_000_037, False)
        streams["swapped"] = (2_000_003, True)
    for name, (stream, swap) in streams.items():
        calls[name] = (lambda stream=stream, swap=swap: _composite_h(
            _rng(cfg.seed, stream), quintuples, cfg, swap=swap))
    direct = [cfg] if {"unconditional", "bookkeeping"} & set(checks) else []
    out = _ensembles(direct, calls=list(calls.values()))
    comps = dict(zip(calls, out[len(direct):]))
    if direct:
        h_all, endp = out[0]
        rep["direct_mean"] = float(np.mean(h_all))
        rep["direct_se"] = float(np.std(h_all) / math.sqrt(len(h_all)))

    if "unconditional" in checks:
        comp, rep["acceptance"] = comps["unconditional"]
        # one sample has no spread: its se of 0 would make any gap a breach
        if len(comp) < 3:
            raise ConditioningError(f"the unconditional check kept {len(comp)} "
                                    f"composite samples; it needs at least 3")
        mean, se = float(np.mean(comp)), float(np.std(comp) / math.sqrt(len(comp)))
        rep.update(composite_mean=mean, composite_se=se,
                   z_unconditional=(rep["direct_mean"] - mean)
                   / math.hypot(rep["direct_se"], se))

    if "swap" in checks:
        comp_a, acc_a = comps["plain"]
        comp_sw, _ = comps["swapped"]
        rep.setdefault("acceptance", acc_a)
        k = min(len(comp_a), len(comp_sw))
        # two samples have equal squared deviations: no variance error
        if k < 3:
            raise ConditioningError(f"the swap check kept {k} paired composite "
                                    f"samples; it needs at least 3")
        za = comp_a[:k]
        zb = comp_sw[:k]
        se_m = math.hypot(float(np.std(za)), float(np.std(zb))) / math.sqrt(k)
        rep["z_swap_mean"] = float((np.mean(za) - np.mean(zb)) / se_m)
        va, vb = float(np.var(za)), float(np.var(zb))
        se_v = math.hypot(float(np.std((za - za.mean()) ** 2)),
                          float(np.std((zb - zb.mean()) ** 2))) / math.sqrt(k)
        rep["z_swap_var"] = (va - vb) / se_v

    if "bookkeeping" in checks:
        # e^{aT} E[e^{-H_T} e^{-rho(a) B_T}; B_T >= 0] from the direct paths
        w = np.exp(a * cfg.T - h_all - sol.rho * endp)
        w[endp < 0.0] = 0.0
        lhs, lhs_se = float(np.mean(w)), float(np.std(w) / math.sqrt(len(w)))
        rhs, rhs_se = comps["bookkeeping"]
        rep.update(lhs=lhs, lhs_se=lhs_se, rhs=rhs, rhs_se=rhs_se,
                   z_bookkeeping=(lhs - rhs) / math.hypot(lhs_se, rhs_se))

    return RayKnightReport(**rep)


def _bookkeeping_rhs(a: float, sol, cfg: PolymerConfig):
    """Right side of the weighted boundary identity at tilt a, and its se.

    The expectation over (equilibrium start X0, absorbed profile from X0
    with area t1, eigenfunction-weighted middle profile read at matched
    areas, absorbed profile from the read level with area t2), with the
    t2 integral discretized into bins, simulated on stream 3_000_017.
    The left side comes from the direct ensemble in rayknight_consistency.
    """
    T = cfg.T
    n = 8000  # right-hand-side samples
    g = _rng(cfg.seed, 3_000_017)
    x0 = _equilibrium_draw(sol)(g, n)
    xa0 = np.interp(x0, sol.h, sol.x)

    # piece 1: absorbed profile from x0
    a1, q1, alive1 = _absorbed_run(g, x0, _coarsening_stages(cfg.dt))
    t1 = a1

    # middle: weighted two-dimensional profile from the same x0,
    # read at the space points where its area hits T - t1 - t2c; one row
    # per bin, so the per-step readout runs along the paths
    n_bins = max(8, int(math.ceil(T / 0.25)))
    width = T / n_bins
    t2c = (np.arange(n_bins) + 0.5) * width
    s_targets = T - t1 - t2c[:, None]
    valid = (s_targets > 0.0) & ~alive1

    # the exponential reweighting is absorbed into the dynamics: evolve the
    # eigenfunction-tilted diffusion (drift 2 + 4h d/dh log x_a, diffusion
    # 2 sqrt(h)), whose readout at matched areas carries weight one
    pos = np.flatnonzero(sol.x > 1e-8)
    hv = sol.h[pos]
    vv = np.gradient(np.log(sol.x[pos]), hv)

    x = x0
    area = np.zeros(n)
    u = 0.0
    y_read = np.zeros((n_bins, n))
    got = np.zeros((n_bins, n), dtype=bool)
    max_u = 80.0
    while u < max_u:
        drift = np.clip(2.0 + 4.0 * x * np.interp(x, hv, vv), -200.0, 50.0)
        x = _besq_step(g, x, cfg.dt, drift, area)
        u += cfg.dt
        # area never decreases: read each (path, bin) at its first crossing
        hit = (area >= s_targets) & ~got
        np.copyto(y_read, x, where=hit)
        got |= hit
        if got.all():
            break
    # piece 2 per (path, bin): absorbed profile from the read level,
    # keeping only draws whose area lands in the bin
    contrib = np.zeros(n)
    for j in range(n_bins):
        ok = valid[j] & got[j] & (y_read[j] > 0.0)
        if not np.any(ok):
            continue
        rows = np.flatnonzero(ok)
        y_lvl = y_read[j, rows]
        a2, q2, alive2 = _absorbed_run(g, y_lvl, _coarsening_stages(cfg.dt))
        hit = ((~alive2) & (np.abs(a2 - t2c[j]) <= width / 2.0)
               & (t1[rows] + a2 <= T))
        xa_y = np.maximum(np.interp(y_lvl, sol.h, sol.x), 1e-300)
        # the time change ds = X dy turns the area-crossing readout into a
        # density with one extra power of the read level, so the kernel at
        # the far piece is divided by Y_s as well as by x_a(Y_s)
        term = np.where(
            hit,
            np.exp(a * (t1[rows] + a2) - q1[rows] - q2)
            / (xa0[rows] * xa_y * y_lvl),
            0.0)
        contrib[rows] += term
    return float(np.mean(contrib)), float(np.std(contrib) / math.sqrt(n))
