"""Session set-up shared by every test module.

compute_constants() reads and writes a CSV cache, by default under the
user's ~/.cache.  The test session points it at a file of its own
temporary directory instead (inherited by the CLI subprocesses), so a test
run neither reads constants left by another checkout nor leaves any behind.
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
