"""Weighted polymer ensemble tests.

Monte Carlo assertions run at fixed seeds against closed-form anchors,
scaling identities, or independently simulated decompositions; 3-sigma
windows unless the quantity is exact by construction.  The documented
bands on slow-horizon quantities (endpoint location, fit exponent) are
seed-pinned regressions, not claims about the T -> infinity limits.
"""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from edwards1d import besselsim, edwardsmc
from edwards1d.constants import compute_constants
from edwards1d.edwardsmc import (
    CHUNK,
    CollapseReport,
    LocalTimeHistogram,
    PolymerConfig,
    PolymerEstimate,
    ROWS,
    SequentialEstimate,
    _chunk_paths,
    _composite_h,
    _ensemble,
    _positions,
    _rng,
    local_time_histogram,
    rate_vs_horizon,
    rayknight_consistency,
    sample_polymer,
    sample_polymer_sequential,
    scaling_collapse,
    tilted_mgf,
)
from edwards1d.errors import (
    ConditioningError,
    DegeneracyError,
    DomainError,
    NumericError,
)

CONSTS = compute_constants()


class TestPolymerConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            PolymerConfig(T=0.0, beta=1.0, dt=0.004, bin=0.1, n_paths=10, seed=0)
        with pytest.raises(DomainError):
            PolymerConfig(T=2.0, beta=-1.0, dt=0.004, bin=0.1, n_paths=10, seed=0)
        with pytest.raises(DomainError):
            PolymerConfig(T=2.0, beta=1.0, dt=0.0, bin=0.1, n_paths=10, seed=0)
        with pytest.raises(DomainError):
            PolymerConfig(T=2.0, beta=1.0, dt=0.004, bin=0.1, n_paths=0, seed=0)
        with pytest.raises(DomainError):
            PolymerConfig(T=2.0, beta=1.0, dt=0.004, bin=0.1, n_paths=10, seed=-1)
        with pytest.raises(DomainError):
            PolymerConfig(T=2.0, beta=1.0, dt=0.004, bin=0.1, n_paths=10, seed=2.7)

    def test_step_must_resolve_bin(self):
        # dt <= bin^2 keeps the per-step displacement below the bin scale
        with pytest.raises(DomainError):
            PolymerConfig(T=2.0, beta=1.0, dt=0.02, bin=0.1, n_paths=10, seed=0)
        PolymerConfig(T=2.0, beta=1.0, dt=0.01, bin=0.1, n_paths=10, seed=0)

    def test_horizon_must_be_step_multiple(self):
        with pytest.raises(DomainError):
            PolymerConfig(T=1.0, beta=1.0, dt=0.0031, bin=0.1, n_paths=10, seed=0)

    def test_n_steps(self):
        cfg = PolymerConfig(T=2.0, beta=1.0, dt=0.004, bin=0.1, n_paths=10, seed=0)
        assert cfg.n_steps == 500

    def test_frozen(self):
        cfg = PolymerConfig(T=2.0, beta=1.0, dt=0.004, bin=0.1, n_paths=10, seed=0)
        with pytest.raises(AttributeError):
            cfg.T = 3.0


class TestLocalTimeHistogram:
    # dt = 1/256 and bin = 1/16 are binary-representable, so the bin
    # masses are exact dyadic multiples and the total has no float slack
    CFG = PolymerConfig(T=2.0, beta=1.0, dt=1.0 / 256, bin=1.0 / 16,
                        n_paths=4, seed=11)

    def test_total_is_elapsed_time_exactly(self):
        lt = local_time_histogram(self.CFG, path_index=1)
        assert lt.total == 2.0

    def test_h_value_matches_manual_sum(self):
        lt = local_time_histogram(self.CFG, path_index=1)
        manual = sum(v * v for v in lt.bins.values()) / lt.bin_width
        assert math.isclose(lt.h_value(), manual, rel_tol=1e-12)

    def test_deterministic(self):
        a = local_time_histogram(self.CFG, path_index=2)
        b = local_time_histogram(self.CFG, path_index=2)
        assert a.bins == b.bins and a.bin_width == b.bin_width

    def test_path_index_range(self):
        with pytest.raises(DomainError):
            local_time_histogram(self.CFG, path_index=4)

    def test_h_value_matches_ensemble(self):
        # one path generator and one binning: the histogram of path i is
        # the profile behind the ensemble's H for that path; on this dyadic
        # grid the two sums of squares are exact, so they agree bit for bit
        h, _ = _ensemble(self.CFG)
        for i in range(self.CFG.n_paths):
            assert local_time_histogram(self.CFG, path_index=i).h_value() == h[i]


class TestFreeCase:
    """beta = 0 removes the weight entirely: logZ must be exactly zero."""

    CFG = PolymerConfig(T=4.0, beta=0.0, dt=0.004, bin=0.1,
                        n_paths=20_000, seed=3)

    @pytest.fixture
    def est(self, mc_runs):
        return mc_runs(sample_polymer, self.CFG)

    def test_logz_exactly_zero(self, est):
        assert est.logZ == 0.0
        assert est.ess == float(self.CFG.n_paths)

    def test_endpoint_symmetry(self, est):
        assert abs(est.signed_mean) <= 3.0 * est.signed_se

    def test_skew_vanishes(self, est):
        assert abs(est.skew) <= 3.0 * est.skew_se


T8_CFG = PolymerConfig(T=8.0, beta=1.0, dt=0.004, bin=0.1,
                       n_paths=40_000, seed=5)


@pytest.fixture(scope="module")
def est(mc_runs):
    return mc_runs(sample_polymer, T8_CFG)


class TestSamplePolymer:
    CFG = T8_CFG

    def test_partition_bounds(self, est):
        # e^{-beta H} in (0, 1] path by path, so logZ <= 0 and ess <= n
        assert est.logZ <= 0.0
        assert 0.0 < est.ess <= est.n

    def test_endpoint_location_band(self, est):
        # seed-pinned regression; the T -> infinity location is b* but at
        # T = 8 the weighted mean/T still sits well below it (ledger)
        assert 0.82 <= est.endpoint_mean <= 0.92

    def test_endpoint_symmetry(self, est):
        assert abs(est.signed_mean) <= 3.0 * est.signed_se

    def test_window_variance_band(self, est):
        # late-window spread of |B|/sqrt(c^2 T) against the folded-normal
        # reference; wide band, guards against estimator regressions
        assert 0.65 <= est.window_variance <= 0.88

    def test_deterministic(self, est):
        again = sample_polymer(self.CFG)
        assert again == est

    def test_seed_moves_the_estimate(self, est):
        other = sample_polymer(PolymerConfig(T=8.0, beta=1.0, dt=0.004,
                                             bin=0.1, n_paths=40_000, seed=6))
        assert other.logZ != est.logZ

    def test_free_energy_density_monotone_in_T(self):
        # -logZ/T grows toward a* as T rises (finite-size always below)
        vals = []
        for T in (2.0, 4.0):
            cfg = PolymerConfig(T=T, beta=1.0, dt=0.004, bin=0.1,
                                n_paths=20_000, seed=5)
            vals.append(-sample_polymer(cfg).logZ / T)
        assert vals[0] < vals[1] < CONSTS.a_star


class TestSequential:
    """The sequential sampler targets the same discrete law as sample_polymer."""

    def test_agrees_with_importance_sampling_at_T8(self, est):
        seq = sample_polymer_sequential(T8_CFG)
        assert isinstance(seq, SequentialEstimate) and seq.resamplings > 0
        for field in ("endpoint_mean", "logZ"):
            gap = abs(getattr(seq, field) - getattr(est, field))
            se = math.hypot(getattr(seq, field + "_se"),
                            getattr(est, field + "_se"))
            assert gap <= 3.0 * se, field

    def test_free_case_is_exact(self):
        cfg = TestFreeCase.CFG
        seq = sample_polymer_sequential(cfg)
        assert seq.logZ == 0.0
        assert seq.resamplings == 0
        assert seq.ess == float(cfg.n_paths)

    def test_deterministic(self):
        cfg = PolymerConfig(T=4.0, beta=1.0, dt=0.004, bin=0.1,
                            n_paths=2 * CHUNK, seed=5)
        assert sample_polymer_sequential(cfg) == sample_polymer_sequential(cfg)

    def test_needs_two_islands(self):
        cfg = PolymerConfig(T=1.0, beta=1.0, dt=0.004, bin=0.1,
                            n_paths=CHUNK, seed=5)
        with pytest.raises(DomainError):
            sample_polymer_sequential(cfg)

    def test_leaving_the_window_raises(self, monkeypatch):
        # a window of +-2 bins is left within the first unit of time
        monkeypatch.setattr(edwardsmc, "_window_half_bins", lambda cfg: 2)
        cfg = PolymerConfig(T=1.0, beta=1.0, dt=0.004, bin=0.1,
                            n_paths=2 * CHUNK, seed=5)
        with pytest.raises(NumericError):
            sample_polymer_sequential(cfg)

    def test_one_step_degeneracy_raises(self, monkeypatch):
        # every particle but the first stays in bin 0, the first takes a
        # fresh bin each step: at step 2 the others pay e^{-2 beta dt^2 / bin}
        # = e^{-20} against it, so the ESS falls from 4096 to about 1 in
        # one step
        cfg = PolymerConfig(T=2.0, beta=10.0, dt=1.0, bin=1.0,
                            n_paths=2 * CHUNK, seed=5)
        assert sample_polymer_sequential(cfg).ess > 0.5 * CHUNK
        fresh = itertools.count(1)

        def bins(pos, width):
            b = np.zeros(pos.shape, dtype=np.int64)
            b[0] = next(fresh)
            return b

        monkeypatch.setattr(edwardsmc, "_bin_index", bins)
        with pytest.raises(DegeneracyError, match="after one step"):
            sample_polymer_sequential(cfg)


class TestDegeneracy:
    def test_strong_coupling_trips_the_gate(self):
        cfg = PolymerConfig(T=4.0, beta=50.0, dt=0.004, bin=0.1,
                            n_paths=4096, seed=7)
        with pytest.raises(DegeneracyError):
            sample_polymer(cfg)

    def test_moderate_coupling_also_trips_at_this_size(self):
        cfg = PolymerConfig(T=4.0, beta=20.0, dt=0.004, bin=0.1,
                            n_paths=4096, seed=7)
        with pytest.raises(DegeneracyError):
            sample_polymer(cfg)

    @pytest.mark.parametrize("beta", [1000.0, 2000.0])
    def test_underflowed_weights_trip_the_gate(self, beta):
        # at beta = 1000 the squared weights underflow and the ESS is nan;
        # at 2000 every weight does, and log Z would be log(0); neither
        # prints a numpy warning before the error
        cfg = PolymerConfig(T=1.0, beta=beta, dt=1e-4, bin=0.01,
                            n_paths=200, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DegeneracyError):
                sample_polymer(cfg)


class TestChunkIndependence:
    def test_first_chunk_rows_do_not_depend_on_n(self):
        def run(n):
            return _ensemble(PolymerConfig(T=0.5, beta=1.0, dt=0.004, bin=0.1,
                                           n_paths=n, seed=8), drift=0.3)
        (h_big, end_big), (h_one, end_one) = run(2 * CHUNK + 37), run(CHUNK)
        assert len(h_big) == 2 * CHUNK + 37
        assert np.array_equal(h_big[:CHUNK], h_one)
        assert np.array_equal(end_big[:CHUNK], end_one)


class TestChunkContract:
    """_chunk_paths draws and bins ROWS paths at a time.

    Its paths must be _positions' paths bit for bit, and its integer H
    must match a per-path bincount of the same paths.
    """

    CFG = PolymerConfig(T=1.0, beta=1.0, dt=0.004, bin=0.1,
                        n_paths=2 * CHUNK + 37, seed=8)

    # (chunk, paths): less than, exactly and just over one block, a full
    # chunk, and the short last chunk of 2 * CHUNK + 37 paths
    @pytest.mark.parametrize("ci, m", [(0, 1), (0, ROWS - 1), (0, ROWS),
                                       (0, ROWS + 1), (0, CHUNK), (2, 37)])
    def test_matches_unblocked_paths(self, ci, m):
        cfg = self.CFG
        h, endp = _chunk_paths(_rng(cfg.seed, ci), m, cfg, drift=0.3)
        pos = _positions(_rng(cfg.seed, ci), m, cfg, drift=0.3)
        assert np.array_equal(endp, pos[:, -1])
        oracle = np.empty(m)
        for i, row in enumerate(np.floor(pos / cfg.bin).astype(np.int64)):
            occ = np.bincount(row - row.min()) * cfg.dt
            oracle[i] = np.sum(occ * occ) / cfg.bin
        # an exact integer sum of squares against a float one: the two
        # differ by a few ulp (at most 6.7e-16 relative over
        # four full chunks measured, T = 1 to 8, with and without drift)
        assert np.max(np.abs(h / oracle - 1.0)) <= 1e-15

    def test_short_last_chunk_in_ensemble(self):
        cfg = self.CFG
        h, endp = _ensemble(cfg)
        last = _chunk_paths(_rng(cfg.seed, 2), 37, cfg)
        assert np.array_equal(h[2 * CHUNK:], last[0])
        assert np.array_equal(endp[2 * CHUNK:], last[1])

    def test_peak_memory_is_one_block(self):
        # one T = 8, dt = 0.004 chunk measured 12,812,870 bytes at its peak:
        # three ROWS x T/dt arrays of 8 bytes (positions, bin indices and
        # the quotient pos / bin, 12.29 MB) and a few per-path arrays.  The
        # bound of four such arrays leaves a 28% margin; the unblocked
        # chunk peaked at 196.6 MB
        cfg = PolymerConfig(T=8.0, beta=1.0, dt=0.004, bin=0.1,
                            n_paths=CHUNK, seed=5)
        tracemalloc.start()
        try:
            _chunk_paths(_rng(cfg.seed, 0), CHUNK, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * ROWS * cfg.n_steps * 8


class TestOneMapPerEstimator:
    """scaling_collapse and rate_vs_horizon put every chunk in one _map.

    Their results must equal those built from sample_polymer run once
    per configuration.
    """

    CFG = PolymerConfig(T=1.0, beta=1.0, dt=0.004, bin=0.1,
                        n_paths=CHUNK + 37, seed=21)

    @staticmethod
    def _count_maps(monkeypatch):
        maps = []
        real = besselsim._map

        def counting(fn, jobs):
            jobs = list(jobs)
            maps.append(len(jobs))
            return real(fn, jobs)

        monkeypatch.setattr(besselsim, "_map", counting)
        return maps

    @staticmethod
    def _one_by_one(monkeypatch):
        cfgs = []

        def estimates(configs):
            cfgs.extend(configs)
            return {c: sample_polymer(c) for c in configs}

        monkeypatch.setattr(edwardsmc, "_estimates", estimates)
        return cfgs

    def test_scaling_collapse(self, monkeypatch):
        maps = self._count_maps(monkeypatch)
        merged = scaling_collapse((0.5, 1.0, 2.0), self.CFG)
        # five distinct configurations (the beta = 1 reference is the
        # direct run itself), two chunks each
        assert maps == [10]
        cfgs = self._one_by_one(monkeypatch)
        assert scaling_collapse((0.5, 1.0, 2.0), self.CFG) == merged
        assert len(cfgs) == 6 and len(set(cfgs)) == 5

    def test_rate_vs_horizon(self, monkeypatch):
        maps = self._count_maps(monkeypatch)
        merged = rate_vs_horizon(self.CFG, (1.0, 1.5, 2.0))
        assert maps == [6]
        cfgs = self._one_by_one(monkeypatch)
        assert rate_vs_horizon(self.CFG, (1.0, 1.5, 2.0)) == merged
        assert [c.T for c in cfgs] == [1.0, 1.5, 2.0]


class TestBinnedRefinement:
    def test_occupation_functional_stable_under_refinement(self):
        # halving both dt and bin moves the mean weight exponent < 2%
        coarse = PolymerConfig(T=2.0, beta=1.0, dt=0.0016, bin=0.06,
                               n_paths=60_000, seed=13)
        fine = PolymerConfig(T=2.0, beta=1.0, dt=0.0008, bin=0.03,
                             n_paths=60_000, seed=13)
        h_c, _ = _ensemble(coarse)
        h_f, _ = _ensemble(fine)
        rel = abs(h_c.mean() - h_f.mean()) / h_f.mean()
        assert rel < 0.02


HORIZON_CFG = PolymerConfig(T=4.0, beta=1.0, dt=0.004, bin=0.1,
                            n_paths=40_000, seed=5)


@pytest.fixture(scope="module")
def fit(mc_runs):
    return mc_runs(rate_vs_horizon, HORIZON_CFG, (4.0, 6.0, 8.0))


class TestRateVsHorizon:
    CFG = HORIZON_CFG

    def test_extrapolates_to_growth_constant(self, fit):
        assert abs(fit.extrapolated - CONSTS.a_star) < 0.3

    def test_rates_increase_with_horizon(self, fit):
        assert fit.rates[0] < fit.rates[1] < fit.rates[2]
        assert all(r < CONSTS.a_star for r in fit.rates)

    def test_shape(self, fit):
        assert tuple(fit.horizons) == (4.0, 6.0, 8.0)
        assert len(fit.rates) == len(fit.ses) == 3

    def test_deterministic(self, fit):
        assert rate_vs_horizon(self.CFG, (4.0, 6.0, 8.0)) == fit

    @pytest.mark.parametrize("horizons", [(2.0,), (2.0, 2.0)])
    def test_needs_two_distinct_horizons(self, horizons):
        # one distinct horizon leaves the slope free: polyfit split the
        # single rate between slope and intercept and returned half of it
        with pytest.raises(DomainError, match="two distinct horizons"):
            rate_vs_horizon(self.CFG, horizons)


MGF_CFG = PolymerConfig(T=6.0, beta=1.0, dt=0.004, bin=0.1,
                        n_paths=60_000, seed=9)


@pytest.fixture(scope="module")
def curve():
    return {mu: tilted_mgf(mu, MGF_CFG) for mu in (0.0, 0.5, 1.0)}


class TestTiltedMgf:
    CFG = MGF_CFG

    def test_monotone_in_tilt(self, curve):
        assert curve[0.0].mean < curve[0.5].mean < curve[1.0].mean

    def test_chord_slope_in_endpoint_range(self, curve):
        # the slope of the limiting curve at these tilts lies between the
        # kink location b** and the linear-regime value b* + c*^2 mu
        slope = (curve[1.0].mean - curve[0.5].mean) / 0.5
        assert CONSTS.b_2star < slope < 2.0

    def test_zero_tilt_tracks_free_energy(self):
        cfg = PolymerConfig(T=8.0, beta=1.0, dt=0.004, bin=0.1,
                            n_paths=60_000, seed=9)
        est = tilted_mgf(0.0, cfg)
        assert abs(est.mean - (-CONSTS.a_star)) < 0.35

    def test_deterministic(self, curve):
        assert tilted_mgf(0.5, self.CFG) == curve[0.5]

    def test_rejects_bad_tilt(self):
        with pytest.raises(DomainError):
            tilted_mgf(math.nan, self.CFG)
        with pytest.raises(DomainError):
            tilted_mgf(math.inf, self.CFG)


COLLAPSE_CFG = PolymerConfig(T=5.0, beta=1.0, dt=0.004, bin=0.1,
                             n_paths=40_000, seed=17)


@pytest.fixture(scope="module")
def report(mc_runs):
    return mc_runs(scaling_collapse, (0.5, 1.0, 2.0), COLLAPSE_CFG)


class TestScalingCollapse:
    CFG = COLLAPSE_CFG

    def test_zscores_within_three_sigma(self, report):
        assert report.max_z <= 3.0

    def test_reference_coupling_collapses_exactly(self):
        rep = scaling_collapse([1.0], self.CFG)
        assert rep.z_logZ == (0.0,)
        assert rep.z_endpoint == (0.0,)

    def test_exponent_near_two_thirds(self, report):
        assert abs(report.exponent - 2.0 / 3.0) <= 0.15

    def test_shape_and_determinism(self, report):
        assert isinstance(report, CollapseReport)
        assert len(report.z_logZ) == len(report.betas) == 3
        assert scaling_collapse((0.5, 1.0, 2.0), self.CFG) == report

    def test_rejects_bad_couplings(self):
        with pytest.raises(DomainError):
            scaling_collapse((0.5, -1.0), self.CFG)
        with pytest.raises(DomainError):
            scaling_collapse((), self.CFG)


RK_CFG = PolymerConfig(T=2.0, beta=1.0, dt=0.004, bin=0.1,
                       n_paths=30_000, seed=19)


@pytest.fixture(scope="module")
def rk_report():
    return rayknight_consistency(1.0, RK_CFG, n_quintuples=100,
                                 checks=("unconditional", "swap"))


class TestRayKnight:
    """Profile-decomposition consistency at tilt a = 1.

    The unconditional and swap checks compare a direct weighted ensemble
    against profiles reassembled from absorbed and recurrent pieces; the
    bookkeeping check balances the boundary identity, with its far factor
    divided by the read level (area-to-time Jacobian) as derived in the
    notes.  Both sides are simulated; neither uses the other's machinery.
    """

    CFG = RK_CFG

    def test_unconditional_within_three_sigma(self, rk_report):
        assert abs(rk_report.z_unconditional) <= 3.0

    def test_swap_moments_within_three_sigma(self, rk_report):
        assert abs(rk_report.z_swap_mean) <= 3.0
        assert abs(rk_report.z_swap_var) <= 3.0

    def test_acceptance_is_healthy(self, rk_report):
        assert rk_report.acceptance > 0.01

    def test_unselected_checks_read_nan(self, rk_report):
        # the CLI leaves a non-finite z out of its verdict
        assert math.isnan(rk_report.lhs)
        assert math.isnan(rk_report.rhs)
        assert math.isnan(rk_report.z_bookkeeping)

    def test_bookkeeping_identity_balances(self):
        cfg = PolymerConfig(T=3.0, beta=1.0, dt=0.0016, bin=0.04,
                            n_paths=100_000, seed=23)
        rep = rayknight_consistency(1.0, cfg, checks=("bookkeeping",))
        assert abs(rep.z_bookkeeping) <= 3.0
        # both sides separately near the T -> infinity plateau
        assert 1.3 < rep.lhs < 1.9
        assert 1.3 < rep.rhs < 1.9
        # the unselected checks read nan
        assert math.isnan(rep.composite_mean)
        assert math.isnan(rep.z_swap_mean)
        assert math.isnan(rep.acceptance)

    def test_unknown_check_rejected(self):
        with pytest.raises(DomainError):
            rayknight_consistency(1.0, self.CFG, checks=("unconditonal",))

    def test_empty_check_list_rejected(self):
        # a suite that runs no check must not report success
        with pytest.raises(DomainError, match="no checks"):
            rayknight_consistency(1.0, self.CFG, checks=())

    def test_swap_check_needs_three_paired_samples(self, monkeypatch):
        # two surviving samples have equal squared deviations, so the
        # variance z would divide by zero
        monkeypatch.setattr(edwardsmc, "_composite_h",
                            lambda g, q, cfg, swap: (np.array([1.0, 2.0]), 0.5))
        with pytest.raises(ConditioningError, match="paired"):
            rayknight_consistency(1.0, self.CFG, n_quintuples=3,
                                  checks=("swap",))

    @pytest.mark.parametrize("n_quintuples", [1, 2])
    def test_unconditional_check_needs_three_quintuples(self, n_quintuples):
        # one quintuple gave a composite se of 0, and the check then
        # reported a breach (|z| from 6.9 to 68 over eight seeds)
        with pytest.raises(DomainError, match="n_quintuples >= 3"):
            rayknight_consistency(1.0, self.CFG, n_quintuples=n_quintuples,
                                  checks=("unconditional",))

    @pytest.mark.parametrize("kept", [0, 1, 2])
    def test_unconditional_check_needs_three_samples(self, monkeypatch, kept):
        # no surviving sample gave a nan composite mean, and the check passed
        monkeypatch.setattr(edwardsmc, "_composite_h",
                            lambda g, q, cfg, swap: (np.arange(1.0, kept + 1), 0.5))
        cfg = PolymerConfig(T=1.0, beta=1.0, dt=0.004, bin=0.1,
                            n_paths=200, seed=19)
        with pytest.raises(ConditioningError, match="unconditional check kept"):
            rayknight_consistency(1.0, cfg, n_quintuples=3,
                                  checks=("unconditional",))

    def test_vanishing_window_raises_conditioning_error(self):
        g = _rng(0, 1)
        quintuples = [(0.5, 0.4, 0.4, 0.3, 0.3)] * 8
        with pytest.raises(ConditioningError):
            _composite_h(g, quintuples, self.CFG, swap=False,
                         rel_window=1e-9, n_rep=50)
