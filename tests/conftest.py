"""Session set-up shared by every test module.

compute_constants() reads and writes a CSV cache, by default under the
user's ~/.cache.  The test session points it at a file of its own
temporary directory instead (inherited by the CLI subprocesses), so a test
run neither reads constants left by another checkout nor leaves any behind.

Several modules test the same Monte Carlo runs; `mc_runs` computes each of
them once per session.
"""

import os
import shutil
import tempfile

import pytest

_ENV = "EDWARDS1D_CONSTANTS_CACHE"
_SAVED = pytest.StashKey[tuple]()  # (temporary directory, previous value)


def pytest_configure(config):
    tmp = tempfile.mkdtemp(prefix="edwards1d-constants-")
    config.stash[_SAVED] = (tmp, os.environ.get(_ENV))
    os.environ[_ENV] = os.path.join(tmp, "constants.csv")


def pytest_unconfigure(config):
    tmp, previous = config.stash[_SAVED]
    if previous is None:
        os.environ.pop(_ENV, None)
    else:
        os.environ[_ENV] = previous
    shutil.rmtree(tmp, ignore_errors=True)


@pytest.fixture
def lapack_solves(monkeypatch):
    """Orders n of the dsyevr solves behind sturm.eigenvalue, caches emptied.

    The count sits at the LAPACK call itself, below eigenvalue's cache, so
    a cache hit adds nothing and a fresh Ritz pair adds one entry.
    """
    from edwards1d import sturm

    sturm.clear_cache()
    solves = []
    real = sturm._syevr

    def counted(n):
        drv, lwork, liwork = real(n)
        return (lambda *args, **kw: solves.append(n) or drv(*args, **kw)), lwork, liwork

    monkeypatch.setattr(sturm, "_syevr", counted)
    yield solves
    sturm.clear_cache()


@pytest.fixture(scope="session")
def mc_runs():
    """fn(*args) computed once per session for each distinct (fn, args).

    For the estimators several test modules share (sample_polymer,
    scaling_collapse, rate_vs_horizon at fixed configurations and seeds).
    Every argument must be hashable.  A test that checks determinism calls
    the estimator itself for its second run.
    """
    memo = {}

    def run(fn, *args):
        key = (fn, *args)
        if key not in memo:
            memo[key] = fn(*args)
        return memo[key]

    return run
