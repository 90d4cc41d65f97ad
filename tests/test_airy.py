import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edwards1d.airy import (
    CBRT2,
    INV_CBRT2,
    X_MAX,
    X_SWITCH,
    airy_batch,
    airy_eval,
    airy_zeros,
    basis_eval,
    basis_gram,
    eigenbasis,
)
from edwards1d.errors import DomainError, RangeError, SolverError

from _oracles import airy_ref, airy_zero_ref

# Frozen oracle values (mpmath at 30 digits; see tests/_oracles.py).
# Columns: x, ai, aip, bi, bip.
FROZEN = [
    (0.0, 0.3550280538878172393, -0.2588194037928067984,
     0.6149266274460007352, 0.4482883573538263579),
    (1.0, 0.1352924163128814155, -0.1591474412967932128,
     1.207423594952871259, 0.932435933392775633),
    (-1.0, 0.5355608832923521188, -0.0101605671166452094,
     0.1039973894969446119, 0.5923756264227923508),
    (0.37, 0.2618624324916281516, -0.2388148069181803793,
     0.7866943860859458442, 0.4981074109255024406),
    (5.0, 1.083444281360744173e-04, -2.47413890868462476e-04,
     657.7920441711711824, 1435.819080217982519),
    (5.5, 3.368531190859981443e-05, -8.046339130556514338e-05,
     2016.580038659531394, 4632.55373313904242),
    (-5.5, 0.0177815412765749756, 0.8641972177713983908,
     -0.3678134539157119911, 0.02511158307363092599),
    (9.5, 5.330263704617491627e-10, -1.656639459374066626e-09,
     96892265.58045109283, 296034763.8680050387),
    (-9.5, 0.3191032477191282014, -0.108095318811871239,
     0.03778543248946650227, 0.9847140700021197039),
    (10.0, 1.104753255289868593e-10, -3.520633676738923637e-10,
     455641153.548225141, 1429236134.482865776),
    (-10.0, 0.04024123848644319069, 0.9962650441327900559,
     -0.3146798296438386332, 0.1194141133999092383),
    (25.0, 8.116026824691386684e-38, -4.066089337243281005e-37,
     3.922030778041381774e+35, 1.957073508323330897e+36),
    (-25.0, 0.1635265788304294695, 0.96237885138769741,
     -0.1921468156903780238, 0.8157197157546058579),
]

# First zeros of Ai with Ai' there (mpmath).
FROZEN_ZEROS = [
    (-2.338107410459767038, 0.7012108227206913625),
    (-4.087949444130970617, -0.8031113696548639636),
    (-5.520559828095551059, 0.8652040258941519308),
    (-6.786708090071758999, -0.9108507370496018031),
    (-7.944133587120853123, 0.9473357094415677656),
    (-9.02265085334098038, -0.977922808569498611),
]


def _check_quad(val, ref, rel=1e-12, tiny=1e-14):
    # relative accuracy, relaxed to absolute for the exponentially small branch
    assert abs(val - ref) <= max(rel * abs(ref), tiny)


@pytest.mark.parametrize("x,ai,aip,bi,bip", FROZEN)
def test_frozen_values(x, ai, aip, bi, bip):
    v = airy_eval(x)
    _check_quad(v.ai, ai)
    _check_quad(v.aip, aip)
    _check_quad(v.bi, bi)
    _check_quad(v.bip, bip)


def test_accuracy_sweep_against_mpmath():
    xs = np.linspace(-10.0, 10.0, 161)
    ai, aip, bi, bip = airy_batch(xs)
    for j, x in enumerate(xs):
        r_ai, r_aip, r_bi, r_bip = airy_ref(float(x))
        _check_quad(ai[j], r_ai)
        _check_quad(aip[j], r_aip)
        _check_quad(bi[j], r_bi)
        _check_quad(bip[j], r_bip)


def test_crossover_is_seamless():
    # scipy (inside the switch) and the asymptotics (outside) must agree at
    # the switch radius itself
    from scipy.special import airy

    from edwards1d.airy import _asym_neg, _asym_pos

    x = np.array([X_SWITCH])
    for inner, asym in ((airy(x), _asym_pos(x)),
                        (airy(-x), _asym_neg(-x))):
        for a, b in zip(inner, asym):
            assert abs(a[0] - b[0]) <= 1e-11 * max(abs(float(a[0])), 1e-13)


@pytest.mark.parametrize("xs", [np.linspace(-200.0, -X_SWITCH, 400),
                                -np.geomspace(200.0, 1e4, 60)],
                         ids=["to-200", "to-1e4"])
def test_asymptotic_branch_against_mpmath(xs):
    # The phase zeta - pi/4 carries an absolute error of a few eps * zeta, so
    # the error is bounded relative to the envelope, not to the value.
    eps = np.finfo(np.float64).eps
    z = -xs
    zeta = (2.0 / 3.0) * z**1.5
    envs = (z**-0.25, z**0.25, z**-0.25, z**0.25)  # Ai, Ai', Bi, Bi'
    got = airy_batch(xs)
    ref = np.array([airy_ref(float(x)) for x in xs]).T
    for val, r, env in zip(got, ref, envs):
        bound = 4.0 * eps * (1.0 + zeta) * env / math.sqrt(math.pi)
        assert np.all(np.abs(val - r) <= bound)


def test_positive_axis_saturation():
    # Bi overflows to inf and Ai underflows to 0 inside the documented range;
    # neither may come back as NaN
    xs = np.linspace(X_SWITCH, X_MAX, 2000)
    vals = airy_batch(xs)
    assert not any(np.isnan(v).any() for v in vals)
    ai, aip, bi, bip = airy_batch(np.array([110.0, 150.0, X_MAX]))
    assert np.all(ai == 0.0) and np.all(aip == 0.0)
    assert np.all(bi == np.inf) and np.all(bip == np.inf)


def test_wronskian_grid():
    xs = np.linspace(-10.0, 10.0, 401)
    ai, aip, bi, bip = airy_batch(xs)
    w = ai * bip - aip * bi
    assert np.max(np.abs(w - 1.0 / math.pi)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-30.0, max_value=30.0, allow_nan=False))
def test_wronskian_property(x):
    v = airy_eval(x)
    w = v.ai * v.bip - v.aip * v.bi
    assert abs(w - 1.0 / math.pi) <= 1e-11


def test_ode_residual_order():
    # second differences of Ai must satisfy y'' = x y at order >= 1.9
    xs = np.linspace(-15.0, 10.0, 400)

    def sup_residual(d):
        up, _, _, _ = airy_batch(xs + d)
        mid, _, _, _ = airy_batch(xs)
        dn, _, _, _ = airy_batch(xs - d)
        return np.max(np.abs((up - 2.0 * mid + dn) / d**2 - xs * mid))

    r1 = sup_residual(0.05)
    r2 = sup_residual(0.025)
    order = math.log2(r1 / r2)
    assert order >= 1.9


def test_domain_and_range_errors():
    with pytest.raises(DomainError):
        airy_eval(float("nan"))
    with pytest.raises(DomainError):
        airy_eval(float("inf"))
    with pytest.raises(RangeError):
        airy_eval(X_MAX + 0.5)
    with pytest.raises(RangeError):
        airy_eval(-X_MAX - 0.5)
    airy_eval(X_MAX)  # boundary included
    airy_eval(-X_MAX)


def test_zero_table_against_oracle():
    tab = airy_zeros(6)
    for k, (z, aip) in enumerate(FROZEN_ZEROS):
        assert abs(tab.zeros[k] - z) <= 1e-12 * abs(z)
        assert abs(tab.aip_at_zeros[k] - aip) <= 1e-11
    # a couple of deep zeros straight from the oracle
    tab = airy_zeros(151)
    for k in (50, 150):
        assert abs(tab.zeros[k] - airy_zero_ref(k)) <= 1e-10 * abs(tab.zeros[k])


def test_zero_residuals_and_ordering():
    tab = airy_zeros(201)
    ai, aip, _, _ = airy_batch(tab.zeros)
    assert np.max(np.abs(ai)) <= 1e-10
    assert np.all(np.diff(tab.zeros) < 0.0)  # strictly decreasing
    # Ai' alternates sign at consecutive zeros, so zeros of Ai' interlace
    assert np.all(aip[::2] > 0.0)
    assert np.all(aip[1::2] < 0.0)


def test_zeros_within_two_ulps():
    tab = airy_zeros(201)
    for k in range(tab.k_max):
        ref = airy_zero_ref(k)
        assert abs(tab.zeros[k] - ref) <= 2.0 * np.spacing(abs(ref)), k


def test_zero_finder_fails_loudly(monkeypatch):
    import edwards1d.airy as airy_mod

    guess = airy_mod._zero_guess
    bad_guesses = (
        lambda k: guess(k // 2),  # two guesses on the same zero
        lambda k: guess(k[[0, 3, 2, 1]]),  # out of order, signs of Ai' still fit
        lambda k: guess(k + 1),  # decreasing, but shifted by one zero
    )
    for bad in bad_guesses:
        monkeypatch.setattr(airy_mod, "_zero_guess", bad)
        with pytest.raises(SolverError, match="wrong zeros"):
            airy_zeros(4)
    # a guess Newton cannot polish
    monkeypatch.setattr(airy_mod, "_zero_guess", lambda k: np.full_like(k, np.nan))
    with pytest.raises(SolverError, match="converge"):
        airy_zeros(3)


def test_interlacing_with_aip_zeros():
    tab = airy_zeros(30)
    for k in range(29):
        lo, hi = tab.zeros[k + 1], tab.zeros[k]
        f = lambda x: airy_eval(x).aip
        flo, fhi = f(lo), f(hi)
        assert flo * fhi < 0.0  # one zero of Ai' strictly between
        for _ in range(60):
            m = 0.5 * (lo + hi)
            fm = f(m)
            if flo * fm <= 0.0:
                hi, fhi = m, fm
            else:
                lo, flo = m, fm
        assert tab.zeros[k + 1] < 0.5 * (lo + hi) < tab.zeros[k]


def test_zero_asymptotic_fits():
    # fitted growth/gap exponents over k = 10..200
    tab = airy_zeros(201)
    k = np.arange(10, 201)
    z = -tab.zeros[10:201]
    slope = np.polyfit(np.log(k), np.log(z), 1)[0]
    assert 0.64 <= slope <= 0.70
    gaps = -np.diff(tab.zeros)[10:200]
    gslope = np.polyfit(np.log(np.arange(10, 200)), np.log(gaps), 1)[0]
    assert -0.38 <= gslope <= -0.28
    # prefactor-free local-slope moments of the same exponents
    w = np.diff(np.log(z)) / np.diff(np.log(k))
    assert abs(np.mean(w) - 2.0 / 3.0) <= 0.06
    gw = np.diff(np.log(gaps)) / np.diff(np.log(np.arange(10, 200)))
    assert abs(np.mean(gw) + 1.0 / 3.0) <= 0.06


def test_decay_rate_at_25():
    # The raw ratio -log Ai(25)/25^{3/2} sits 2.48% above 2/3 because of the
    # log(2 sqrt(pi) x^{1/4}) prefactor (same for the exact function), so the
    # clean 2% check is applied to the prefactor-cancelling increment ratio.
    v25, v16 = airy_eval(25.0), airy_eval(16.0)
    inc = -(math.log(v25.ai) - math.log(v16.ai)) / (25.0**1.5 - 16.0**1.5)
    assert abs(inc - 2.0 / 3.0) <= 0.02 * (2.0 / 3.0)
    raw = -math.log(v25.ai) / 25.0**1.5
    assert abs(raw - 2.0 / 3.0) <= 0.03 * (2.0 / 3.0)


def test_asymptotic_prefactor_sqrt_pi():
    # Ai(h) = exp(-(2/3)h^{3/2}) / (2 sqrt(pi) h^{1/4}) (1 + O(h^{-3/2}))
    h = 25.0
    v = airy_eval(h)
    lead = math.exp(-(2.0 / 3.0) * h**1.5) / (2.0 * math.sqrt(math.pi) * h**0.25)
    assert abs(v.ai / lead - 1.0) <= 0.01
    # the same expression with pi instead of sqrt(pi) is off by ~77%
    wrong = math.exp(-(2.0 / 3.0) * h**1.5) / (2.0 * math.pi * h**0.25)
    assert abs(v.ai / wrong - 1.0) > 0.5


def test_eigenbasis_normalization_closed_form():
    # Oracle: scipy's quad of Ai^2 from a_k to inf, split at the zeros of
    # scipy's own table (its Ai is Cephes/AMOS, not this module's series).
    # The e_k normalization is int_0^inf Ai(2^{-1/3} h + a_k)^2 dh = 1,
    # i.e. c_k = (2^{1/3} int_{a_k}^inf Ai^2)^{-1/2}.
    from scipy.integrate import quad
    from scipy.special import ai_zeros
    from scipy.special import airy as sp_airy

    ks = (0, 1, 10, 50, 119)
    els = eigenbasis(max(ks) + 1)
    ref_zeros = ai_zeros(max(ks) + 1)[0]

    def ai_sq(x):
        return sp_airy(x)[0] ** 2

    tail = quad(ai_sq, ref_zeros[0], 5.0, epsabs=0.0, epsrel=1e-13)[0]
    tail += quad(ai_sq, 5.0, np.inf, epsabs=0.0, epsrel=1e-13)[0]
    halves = [quad(ai_sq, lo, hi, epsabs=0.0, epsrel=1e-13)[0]
              for lo, hi in zip(ref_zeros[1:], ref_zeros[:-1])]
    integrals = tail + np.concatenate([[0.0], np.cumsum(halves)])
    for k in ks:
        oracle = (CBRT2 * integrals[k]) ** -0.5
        assert abs(els[k].c - oracle) / oracle <= 1e-9, k


def test_eigenbasis_fields_and_growth():
    els = eigenbasis(201)
    for e in els[:5]:
        assert abs(e.eigenvalue - CBRT2 * e.zero) <= 1e-14
    cinv2 = np.array([e.c for e in els]) ** -2.0
    k = np.arange(10, 201)
    slope = np.polyfit(np.log(k), np.log(cinv2[10:201]), 1)[0]
    assert 0.28 <= slope <= 0.38


def test_gram_matrix_orthonormal():
    els = eigenbasis(50)
    g = basis_gram(els)
    assert np.max(np.abs(g - np.eye(50))) <= 1e-6


def test_basis_eval_boundary_and_scale():
    els = eigenbasis(3)
    h = np.linspace(0.0, 30.0, 500)
    for e in els:
        vals = basis_eval(e, h)
        assert abs(vals[0]) <= 1e-10 * abs(e.c)  # Dirichlet at 0
        # eigen relation 2 e'' - h e = lambda e, via the Airy ODE
        hh = np.array([1.0, 3.7])
        ai, _, _, _ = airy_batch(INV_CBRT2 * hh + e.zero)
        lhs = 2.0 * (INV_CBRT2**2) * (INV_CBRT2 * hh + e.zero) * ai * e.c - hh * e.c * ai
        rhs = e.eigenvalue * e.c * ai
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_batch_matches_scalar():
    xs = np.array([-7.3, -0.5, 0.0, 3.3, 12.0])
    ai, aip, bi, bip = airy_batch(xs)
    for j, x in enumerate(xs):
        v = airy_eval(float(x))
        assert v.ai == ai[j] and v.aip == aip[j]
        assert v.bi == bi[j] and v.bip == bip[j]
