"""Tests for the critical-constant computation and its cache."""

import math
import os

import pytest

from edwards1d.airy import airy_zeros
from edwards1d.constants import ModelConstants, compute_constants, fingerprint
from edwards1d.sturm import SolverConfig, principal_eigen, rho_derivative

# published targets for the six constants, all to +-0.01
TARGETS = {
    "a_star": 2.19,
    "b_star": 1.11,
    "c_star": 0.63,
    "a_2star": 2.95,
    "b_2star": 0.85,
    "rho_2star": 0.78,
}

# high-resolution regression pins from this solver
PINS = {
    "a_star": 2.1887572621291138,
    "b_star": 1.1091107025691687,
    "c_star": 0.62999701397035368,
    "a_2star": 2.9458307433534547,
    "b_2star": 0.85766192429765964,
    "rho_2star": 0.77697515899900316,
}


@pytest.fixture()
def consts(tmp_path, monkeypatch):
    monkeypatch.setenv("EDWARDS1D_CONSTANTS_CACHE", str(tmp_path / "c.csv"))
    return compute_constants()


def test_targets(consts):
    for name, target in TARGETS.items():
        assert abs(getattr(consts, name) - target) < 0.011, name


def test_regression_pins(consts):
    for name, pin in PINS.items():
        assert abs(getattr(consts, name) - pin) < 1e-7, name


def test_a_2star_closed_form(consts):
    zeros = airy_zeros(1)
    assert abs(consts.a_2star - 2.0 ** (1.0 / 3.0) * (-zeros.zeros[0])) < 1e-13


def test_besselsim_threshold_is_a_2star(consts):
    # h0 = 0 returns right after the domain check, so no path is simulated
    from edwards1d.besselsim import SimConfig, estimate_y
    from edwards1d.errors import DomainError

    with pytest.raises(DomainError):
        estimate_y(consts.a_2star, 0.0, SimConfig())
    with pytest.warns(RuntimeWarning):
        below = estimate_y(math.nextafter(consts.a_2star, 0.0), 0.0, SimConfig())
    assert below.mean == 1.0


def test_root_property(consts):
    assert abs(principal_eigen(consts.a_star).rho) < 1e-7


def test_derivative_identities(consts):
    r1, r2 = rho_derivative(consts.a_star)
    assert abs(consts.b_star * r1 - 1.0) < 1e-7
    assert abs(consts.c_star**2 * r1**3 - r2) < 1e-8
    r1s, _ = rho_derivative(consts.a_2star)
    assert abs(consts.b_2star * r1s - 1.0) < 1e-7
    assert abs(principal_eigen(consts.a_2star).rho - consts.rho_2star) < 1e-12


def test_orderings(consts):
    assert consts.a_star < consts.a_2star
    assert consts.b_2star < consts.b_star
    assert consts.rho_2star > 0.0


def test_cache_roundtrip(tmp_path, monkeypatch):
    path = tmp_path / "cache.csv"
    monkeypatch.setenv("EDWARDS1D_CONSTANTS_CACHE", str(path))
    first = compute_constants()
    assert path.exists()
    again = compute_constants()
    assert again == first


def test_cache_fingerprint_mismatch(tmp_path, monkeypatch):
    path = tmp_path / "cache.csv"
    monkeypatch.setenv("EDWARDS1D_CONSTANTS_CACHE", str(path))
    first = compute_constants()
    # corrupt the fingerprint: the loader must ignore the file and recompute
    text = path.read_text().replace(fingerprint(), "deadbeef0000")
    path.write_text(text)
    again = compute_constants()
    assert again == first
    # and the file is healed with the correct fingerprint
    assert fingerprint() in path.read_text()


def test_cache_garbage_ignored(tmp_path, monkeypatch):
    path = tmp_path / "cache.csv"
    monkeypatch.setenv("EDWARDS1D_CONSTANTS_CACHE", str(path))
    path.write_text("this,is\nnot,a,valid,cache\n")
    c = compute_constants()
    assert abs(c.a_star - PINS["a_star"]) < 1e-7


def test_fingerprint_depends_on_config():
    assert fingerprint(SolverConfig()) != fingerprint(SolverConfig(n=3000))


def test_as_dict(consts):
    d = consts.as_dict()
    assert set(d) == set(TARGETS)
    assert d["a_star"] == consts.a_star
    assert isinstance(consts, ModelConstants)
