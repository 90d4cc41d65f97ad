"""Tests for the critical-constant computation and its cache."""

import math
import os
import shutil
import subprocess
import sys

import pytest

import edwards1d
from edwards1d import cli
from edwards1d.airy import airy_zeros
from edwards1d.constants import ModelConstants, compute_constants, fingerprint
from edwards1d.sturm import eigenvalue, principal_eigen, rho_derivative

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
    assert abs(eigenvalue(consts.a_2star)[0] - consts.rho_2star) < 1e-12


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


def test_stale_cache_ignored(tmp_path, monkeypatch):
    # the pins were cached under a key that outlived a change of the code
    # behind them (a_2star moved by 1.7e-15); a cache keyed on the source
    # must not return them
    path = tmp_path / "cache.csv"
    monkeypatch.setenv("EDWARDS1D_CONSTANTS_CACHE", str(path))
    rows = [("fingerprint", "ff782fac1f05")]
    rows += [(name, format(val, ".17g")) for name, val in PINS.items()]
    path.write_text("".join(f"{k},{v}\n" for k, v in rows))
    assert compute_constants() == compute_constants(use_cache=False)


@pytest.mark.parametrize("var", ["EDWARDS1D_CONSTANTS_CACHE", "XDG_CACHE_HOME"])
def test_unwritable_cache_is_skipped(tmp_path, monkeypatch, capsys, var):
    # a cache location under a regular file can be neither read nor
    # written; the constants are still computed and reported
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.delenv("EDWARDS1D_CONSTANTS_CACHE")
    target = blocker / "c.csv" if var == "EDWARDS1D_CONSTANTS_CACHE" else blocker
    monkeypatch.setenv(var, str(target))
    assert compute_constants() == compute_constants(use_cache=False)
    assert cli.main(["constants"]) == 0
    assert "a_star" in capsys.readouterr().out
    assert blocker.read_text() == ""


def test_fingerprint_follows_the_source(tmp_path):
    # the cache key changes when any of the package's files does
    src = os.path.dirname(os.path.dirname(edwards1d.__file__))
    pkg = tmp_path / "edwards1d"
    shutil.copytree(os.path.join(src, "edwards1d"), pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    probe = "from edwards1d.constants import fingerprint; print(fingerprint())"

    def key():
        env = dict(os.environ, PYTHONPATH=str(tmp_path))
        return subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                              capture_output=True, text=True).stdout.strip()

    before = key()
    assert before == fingerprint()
    with open(pkg / "rate.py", "a") as fh:
        fh.write("# edited\n")
    assert key() != before


def test_as_dict(consts):
    d = consts.as_dict()
    assert set(d) == set(TARGETS)
    assert d["a_star"] == consts.a_star
    assert isinstance(consts, ModelConstants)
