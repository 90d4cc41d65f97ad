"""Monte Carlo cross-validation of the squared-Bessel simulators.

Stochastic assertions use fixed seeds and 3-sigma windows against
closed-form or spectral oracles; determinism tests require bit equality.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from edwards1d.besselsim import (
    CHUNK,
    McEstimate,
    PathFunctionalSample,
    SimConfig,
    _besq_step,
    _rng,
    equilibrium_sampler,
    estimate_w,
    estimate_y,
    first_passage_density,
    simulate_besq,
    simulate_tilted,
)
from edwards1d.errors import DegeneracyError, DomainError, HorizonError
from edwards1d.spectral import w_eval, y_kernel


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            SimConfig(dt=0.0)
        with pytest.raises(DomainError):
            SimConfig(dt=math.nan)
        with pytest.raises(DomainError):
            SimConfig(n_paths=0)
        with pytest.raises(DomainError):
            SimConfig(seed=-1)
        with pytest.raises(DomainError):
            SimConfig(scheme="milstein")


class TestChunkIndependence:
    """The first CHUNK paths of a run are the same paths at any larger n."""

    N = 2 * CHUNK + 37

    @pytest.mark.parametrize("dim, scheme", [(0, "euler_abs"), (2, "euler_abs"),
                                             (0, "exact_besq0")])
    def test_simulate_besq(self, dim, scheme):
        def run(n):
            cfg = SimConfig(dt=1e-3, n_paths=n, seed=8, scheme=scheme)
            return simulate_besq(dim, 0.3, 0.05, cfg)
        big, one = run(self.N), run(CHUNK)
        assert len(big) == self.N
        for field in ("terminal", "additive", "quad", "absorbed_at"):
            assert np.array_equal(getattr(big, field)[:CHUNK],
                                  getattr(one, field), equal_nan=True), field

    def test_simulate_tilted(self):
        def run(n):
            cfg = SimConfig(dt=1e-3, n_paths=n, seed=8)
            return simulate_tilted(2.0, "equilibrium", 0.05, cfg,
                                   record_times=[0.02, 0.05])
        big, one = run(self.N), run(CHUNK)
        assert big.x.shape == (self.N, 2)
        for field in ("x", "x0", "log_weight"):
            assert np.array_equal(getattr(big, field)[:CHUNK],
                                  getattr(one, field)), field


class TestBesqStep:
    """The buffered step rounds every value as the plain expression does."""

    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("drift", [None, "two", "array"])
    @pytest.mark.parametrize("m, dt", [(1, 1e-3), (37, 0.0016), (4096, 1 / 3),
                                       (5000, 0.0123)])
    def test_equals_the_unbuffered_expression(self, m, dt, drift, buffered):
        rng = np.random.default_rng(m)
        x = rng.exponential(1.0, m)
        x[::7] = 0.0
        d = {None: None, "two": 2.0, "array": rng.normal(size=m)}[drift]
        area0, quad0 = rng.random(m), rng.random(m)
        area, quad = area0.copy(), quad0.copy()
        bufs = dict(out=np.empty(m), work=np.empty((2, m))) if buffered else {}
        got = _besq_step(_rng(11, m), x, dt, d, area, quad, **bufs)

        n = _rng(11, m).standard_normal(m)
        want = x + 2.0 * np.sqrt(np.maximum(x, 0.0)) * (n * math.sqrt(dt))
        if d is not None:
            want = want + d * dt
        want = np.maximum(want, 0.0)
        assert np.array_equal(got, want)
        assert np.array_equal(area, area0 + (x + want) * 0.5 * dt)
        assert np.array_equal(quad, quad0 + (x * x + want * want) * 0.5 * dt)


class TestSimulateBesq:
    def test_dim2_drift(self):
        # generator applied to the identity gives constant drift 2
        cfg = SimConfig(dt=1e-3, n_paths=100_000, seed=11)
        b = simulate_besq(2, 1.0, 2.0, cfg)
        se = b.terminal.std() / math.sqrt(len(b))
        assert abs(b.terminal.mean() - 5.0) < 3.0 * se
        assert np.all(b.additive >= 0.0) and np.all(b.quad >= 0.0)

    def test_dim2_never_absorbed(self):
        cfg = SimConfig(dt=1e-3, n_paths=20_000, seed=16)
        b = simulate_besq(2, 1.0, 5.0, cfg)
        assert np.all(np.isnan(b.absorbed_at))
        # clamping can park single steps at 0 but paths are not absorbed
        assert np.all(b.terminal >= 0.0)
        assert np.mean(b.terminal == 0.0) < 1e-3

    def test_dim0_absorption_law(self):
        # fraction absorbed by time d is exp(-h/2d)
        cfg = SimConfig(dt=1e-3, n_paths=100_000, seed=12)
        b = simulate_besq(0, 1.0, 0.5, cfg)
        frac = np.mean(~np.isnan(b.absorbed_at))
        target = math.exp(-1.0)
        se = math.sqrt(target * (1.0 - target) / len(b))
        assert abs(frac - target) < 3.0 * se
        # absorbed paths sit at zero
        assert np.all(b.terminal[~np.isnan(b.absorbed_at)] == 0.0)

    def test_dim0_from_zero_is_trivial(self):
        cfg = SimConfig(dt=1e-3, n_paths=100, seed=1)
        b = simulate_besq(0, 0.0, 1.0, cfg)
        assert np.all(b.terminal == 0.0)
        assert np.all(b.additive == 0.0) and np.all(b.quad == 0.0)
        assert np.all(~np.isnan(b.absorbed_at))

    def test_exact_scheme_terminal_law(self):
        cfg = SimConfig(dt=1e-3, n_paths=100_000, seed=13, scheme="exact_besq0")
        b = simulate_besq(0, 1.0, 0.5, cfg)
        atom = np.mean(b.terminal == 0.0)
        target = math.exp(-1.0)
        se = math.sqrt(target * (1.0 - target) / len(b))
        assert abs(atom - target) < 3.0 * se
        # BESQ0 is a martingale, so the terminal mean stays at h0
        se_m = b.terminal.std() / math.sqrt(len(b))
        assert abs(b.terminal.mean() - 1.0) < 3.0 * se_m
        assert np.all(np.isnan(b.additive)) and np.all(np.isnan(b.absorbed_at))
        with pytest.raises(DomainError):
            simulate_besq(2, 1.0, 0.5, cfg)

    def test_sample_iteration(self):
        cfg = SimConfig(dt=1e-2, n_paths=8, seed=3)
        b = simulate_besq(2, 1.0, 0.5, cfg)
        samples = list(b)
        assert len(samples) == 8
        assert all(isinstance(s, PathFunctionalSample) for s in samples)
        assert all(s.absorbed_at is None for s in samples)

    def test_domain_errors(self):
        cfg = SimConfig(dt=1e-2, n_paths=4, seed=0)
        with pytest.raises(DomainError):
            simulate_besq(1, 1.0, 1.0, cfg)
        with pytest.raises(DomainError):
            simulate_besq(0, -1.0, 1.0, cfg)
        with pytest.raises(DomainError):
            simulate_besq(0, 1.0, 0.0, cfg)


class TestEstimateY:
    def test_instant_absorption_at_zero(self):
        est = estimate_y(0.0, 0.0, SimConfig(dt=1e-3, n_paths=50, seed=0))
        assert est == McEstimate(mean=1.0, se=0.0, n=50, seed=0)

    def test_matches_kernel_at_origin_tilt(self):
        est = estimate_y(0.0, 1.0, SimConfig(dt=1e-3, n_paths=100_000, seed=14))
        assert abs(est.mean - y_kernel(1.0, 0.0)) < 3.0 * est.se

    def test_matches_kernel_positive_tilt(self):
        est = estimate_y(2.0, 0.5, SimConfig(dt=1e-3, n_paths=100_000, seed=15))
        assert abs(est.mean - y_kernel(0.5, 2.0)) < 3.0 * est.se

    def test_bias_halves_with_dt(self):
        # Euler weak order one: the discretization bias scales like dt
        y = y_kernel(1.0, 0.0)
        coarse = estimate_y(0.0, 1.0, SimConfig(dt=0.08, n_paths=400_000, seed=31))
        fine = estimate_y(0.0, 1.0, SimConfig(dt=0.04, n_paths=400_000, seed=31))
        ratio = (fine.mean - y) / (coarse.mean - y)
        assert abs(coarse.mean - y) > 10.0 * coarse.se  # bias resolved
        assert 0.25 < ratio < 0.75

    def test_determinism(self):
        cfg = SimConfig(dt=5e-3, n_paths=20_000, seed=77)
        a = estimate_y(0.5, 1.0, cfg)
        b = estimate_y(0.5, 1.0, cfg)
        assert a.mean == b.mean and a.se == b.se

    def test_step_cap_raises_horizon_error(self):
        # at dt = 1e-6 the 10,000-step cap ends the run at t = 0.01, long
        # before paths from h0 = 1 are absorbed
        cfg = SimConfig(dt=1e-6, n_paths=100, seed=0)
        with pytest.raises(HorizonError,
                           match="unabsorbed at the step cap; increase dt$"):
            estimate_y(0.0, 1.0, cfg)
        with pytest.raises(HorizonError, match="increase dt$"):
            estimate_w(1.0, [0.2, 0.4], cfg)

    def test_threshold_and_warning(self):
        cfg = SimConfig(dt=1e-2, n_paths=2000, seed=5)
        with pytest.raises(DomainError):
            estimate_y(3.0, 1.0, cfg)
        with pytest.warns(RuntimeWarning):
            estimate_y(2.8, 0.2, cfg)


class TestEstimateW:
    EDGES = np.concatenate([np.linspace(0.0, 6.0, 25), [8.0, 12.0]])

    def test_total_mass_and_bin_density(self):
        cfg = SimConfig(dt=1e-3, n_paths=200_000, seed=21)
        wb = estimate_w(1.0, self.EDGES, cfg)
        assert wb.total_mass <= 1.0
        y = y_kernel(1.0, 0.0)
        assert abs(wb.total_mass - y) < 3.0 * wb.total_se
        # bin covering t = 3 against the bin average of the spectral density
        j = np.searchsorted(wb.edges, 3.0) - 1
        lo, hi = wb.edges[j], wb.edges[j + 1]
        nodes, weights = np.polynomial.legendre.leggauss(5)
        ts = 0.5 * (hi - lo) * nodes + 0.5 * (lo + hi)
        # bin average of the density (GL weights sum to 2)
        target = 0.5 * np.dot(weights, [w_eval(1.0, t) for t in ts])
        assert abs(wb.density[j] - target) < 3.0 * wb.se[j]

    def test_degenerate_start(self):
        wb = estimate_w(0.0, self.EDGES, SimConfig(dt=1e-3, n_paths=100, seed=2))
        assert wb.total_mass == 1.0 and wb.total_se == 0.0
        assert np.all(wb.density == 0.0)

    def test_consistency_with_estimate_y(self):
        # at a = 0 the two estimators average the same weights, so with a
        # shared seed the totals agree exactly
        cfg = SimConfig(dt=2e-3, n_paths=50_000, seed=44)
        ey = estimate_y(0.0, 1.0, cfg)
        wb = estimate_w(1.0, self.EDGES, cfg)
        assert wb.total_mass == ey.mean

    def test_edge_validation(self):
        cfg = SimConfig(dt=1e-2, n_paths=10, seed=0)
        for bad in ([1.0], [0.0, 0.0, 1.0], [-1.0, 1.0], [0.0, math.inf]):
            with pytest.raises(DomainError):
                estimate_w(1.0, bad, cfg)


class TestSimulateTilted:
    def test_martingale_mean_one(self):
        tb = simulate_tilted(2.0, 1.0, 1.0, SimConfig(dt=1e-3, n_paths=50_000, seed=22))
        d = np.exp(tb.log_weight[:, -1])
        se = d.std() / math.sqrt(len(d))
        assert abs(d.mean() - 1.0) < 3.0 * se
        assert tb.ess > 0.01 * 50_000

    def test_equilibrium_is_stationary(self):
        tb = simulate_tilted(2.0, "equilibrium", 1.0,
                             SimConfig(dt=1e-3, n_paths=50_000, seed=23))
        _, sol = equilibrium_sampler(2.0)
        target = float(np.sum(sol.weights * sol.h * sol.x ** 2))
        lw = tb.log_weight[:, -1]
        w = np.exp(lw - lw.max())
        w /= w.sum()
        mean = float(np.sum(w * tb.x[:, -1]))
        se = math.sqrt(float(np.sum(w ** 2 * (tb.x[:, -1] - mean) ** 2)))
        assert abs(mean - target) < 3.0 * se
        # the draw itself starts on target
        se0 = tb.x0.std() / math.sqrt(len(tb.x0))
        assert abs(tb.x0.mean() - target) < 4.0 * se0

    def test_equilibrium_decorrelation(self):
        # indicator correlation between start and s = 5 under the tilted law
        tb = simulate_tilted(2.0, "equilibrium", 5.0,
                             SimConfig(dt=2e-3, n_paths=150_000, seed=32))
        lw = tb.log_weight[:, -1]
        w = np.exp(lw - lw.max())
        w /= w.sum()
        f0 = (tb.x0 <= 1.0).astype(float)
        g5 = (tb.x[:, -1] <= 1.0).astype(float)
        mf, mg = np.sum(w * f0), np.sum(w * g5)
        cov = np.sum(w * (f0 - mf) * (g5 - mg))
        corr = cov / math.sqrt(np.sum(w * (f0 - mf) ** 2)
                               * np.sum(w * (g5 - mg) ** 2))
        assert abs(corr) < 0.05

    def test_record_times_grid(self):
        tb = simulate_tilted(1.0, 1.0, 1.0,
                             SimConfig(dt=1e-2, n_paths=2000, seed=9),
                             record_times=[0.5, 1.0])
        assert tb.x.shape == (2000, 2)
        assert np.array_equal(tb.times, [0.5, 1.0])

    def test_degeneracy_error(self):
        with pytest.raises(DegeneracyError):
            simulate_tilted(-5.0, 8.0, 1.0,
                            SimConfig(dt=5e-3, n_paths=5000, seed=41))

    def test_domain_errors(self):
        cfg = SimConfig(dt=1e-2, n_paths=10, seed=0)
        with pytest.raises(DomainError):
            simulate_tilted(1.0, "equilibrum", 1.0, cfg)
        with pytest.raises(DomainError):
            simulate_tilted(1.0, -1.0, 1.0, cfg)
        with pytest.raises(DomainError):
            simulate_tilted(1.0, 1.0, 1.0, cfg, record_times=[2.0])
        with pytest.raises(DomainError):
            simulate_tilted(math.nan, 1.0, 1.0, cfg)


class TestFirstPassage:
    def test_normalized(self):
        total, err = quad(lambda t: first_passage_density(1.0, t), 0.0, np.inf)
        assert abs(total - 1.0) < 1e-8

    def test_mode(self):
        res = minimize_scalar(lambda t: -first_passage_density(1.0, t),
                              bounds=(1e-3, 1.0), method="bounded",
                              options={"xatol": 1e-10})
        assert abs(res.x - 1.0 / 12.0) < 1e-6

    def test_matches_brownian_simulation(self):
        # fraction of Brownian paths from h/2 first hitting 0 inside a bin,
        # with Brownian-bridge crossing correction between grid points
        n, dt, h = 200_000, 1e-3, 1.0
        rng = np.random.Generator(np.random.Philox(key=np.array([99, 0],
                                                                dtype=np.uint64)))
        x = np.full(n, h / 2.0)
        hit = np.full(n, np.nan)
        t = 0.0
        while t < 0.3:
            xn = x + rng.standard_normal(n) * math.sqrt(dt)
            alive = np.isnan(hit)
            crossed = alive & (xn <= 0.0)
            pos = alive & (xn > 0.0) & (x > 0.0)
            pb = np.exp(-2.0 * x[pos] * xn[pos] / dt)
            bridged = np.zeros(n, dtype=bool)
            bridged[np.flatnonzero(pos)[rng.random(pos.sum()) < pb]] = True
            hit[crossed | bridged] = t + dt
            x = np.where(np.isnan(hit), xn, 0.0)
            t += dt
        frac = np.mean((hit >= 0.2) & (hit <= 0.3))
        se = math.sqrt(frac * (1.0 - frac) / n)
        target, _ = quad(lambda s: first_passage_density(h, s), 0.2, 0.3)
        assert abs(frac - target) < 3.0 * se

    def test_array_evaluation(self):
        ts = np.array([0.1, 0.5, 2.0])
        vals = first_passage_density(1.0, ts)
        assert vals.shape == ts.shape
        assert np.all(vals > 0.0)

    def test_domain_errors(self):
        for h, t in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, math.nan)):
            with pytest.raises(DomainError):
                first_passage_density(h, t)
