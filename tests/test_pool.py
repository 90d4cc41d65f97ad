"""The ordered process map: results independent of the worker count.

Every case runs once inline (one worker) and once over two forked
workers, and the two results must be bit-identical; after each pooled
call no child process may be left running.  Errors must cross the pipe
with their type, message and attributes.
"""

import dataclasses
import inspect
import multiprocessing
import pickle

import numpy as np
import pytest

from edwards1d import besselsim, edwardsmc, errors
from edwards1d.besselsim import (
    CHUNK,
    SimConfig,
    estimate_w,
    estimate_y,
    simulate_besq,
    simulate_tilted,
)
from edwards1d.edwardsmc import (
    PolymerConfig,
    rate_vs_horizon,
    rayknight_consistency,
    sample_polymer,
    sample_polymer_sequential,
    scaling_collapse,
    tilted_mgf,
)

N = 2 * CHUNK + 37  # three chunks, the last one short


def _poly(T, n, seed, beta=1.0):
    return PolymerConfig(T=T, beta=beta, dt=0.004, bin=0.1, n_paths=n, seed=seed)


def _same(a, b):
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b, equal_nan=np.asarray(a).dtype.kind == "f")


def _with_workers(monkeypatch, k, fn):
    monkeypatch.setattr(besselsim, "_workers", lambda n_jobs: min(k, n_jobs))
    out = fn()
    assert multiprocessing.active_children() == []
    return out


CASES = {
    "simulate_besq": lambda: simulate_besq(
        0, 1.0, 0.2, SimConfig(dt=1e-2, n_paths=N, seed=3)),
    "sample_polymer": lambda: sample_polymer(_poly(1.0, N, 4)),
    "tilted_mgf": lambda: tilted_mgf(0.5, _poly(1.0, N, 9)),
    "estimate_y": lambda: estimate_y(
        1.0, 1.5, SimConfig(dt=1e-2, n_paths=N, seed=2)),
    "estimate_w": lambda: estimate_w(
        0.7, [0.1, 0.3, 0.9], SimConfig(dt=1e-2, n_paths=N, seed=5)),
    "simulate_tilted": lambda: simulate_tilted(
        2.0, "equilibrium", 0.2, SimConfig(dt=1e-2, n_paths=N, seed=23),
        record_times=[0.1, 0.2]),
    "sample_polymer_sequential": lambda: sample_polymer_sequential(
        _poly(1.0, 2 * CHUNK, 5)),
    "scaling_collapse": lambda: scaling_collapse(
        (0.5, 1.0, 2.0), _poly(1.0, CHUNK + 37, 6)),
    "rate_vs_horizon": lambda: rate_vs_horizon(
        _poly(1.0, CHUNK + 37, 7), (1.0, 1.5, 2.0)),
    "rayknight_consistency": lambda: rayknight_consistency(
        1.0, _poly(1.0, CHUNK + 1, 19), n_quintuples=8,
        checks=("unconditional", "swap", "bookkeeping")),
}


@pytest.mark.parametrize("name", CASES)
def test_pooled_equals_inline(name, monkeypatch):
    inline = _with_workers(monkeypatch, 1, CASES[name])
    pooled = _with_workers(monkeypatch, 2, CASES[name])
    assert _same(inline, pooled)


def test_workers_follow_the_jobs():
    assert besselsim._workers(0) == 1
    assert besselsim._workers(1) == 1
    assert 1 <= besselsim._workers(64) <= 64


def _edwards_errors():
    return [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
            if issubclass(cls, errors.EdwardsError)]


@pytest.mark.parametrize("cls", _edwards_errors(), ids=lambda c: c.__name__)
def test_errors_survive_pickling(cls):
    exc = (cls("no bound", bound=3.5e-9) if cls is errors.AccuracyError
           else cls("what went wrong"))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)


def _fail_second(i):
    if i == 1:
        raise errors.AccuracyError("job 1 cannot meet its contract", bound=0.25)
    return i


def test_job_error_reaches_caller(monkeypatch):
    with pytest.raises(errors.AccuracyError) as exc:
        _with_workers(monkeypatch, 2,
                      lambda: besselsim._map(_fail_second, [(0,), (1,), (2,)]))
    assert str(exc.value) == "job 1 cannot meet its contract"
    assert exc.value.bound == 0.25
    assert multiprocessing.active_children() == []


def test_island_error_reaches_caller(monkeypatch):
    # a window of +-2 bins is left within the first unit of time, inside
    # the islands, which run in the pool's workers
    monkeypatch.setattr(edwardsmc, "_window_half_bins", lambda cfg: 2)
    cfg = _poly(1.0, 2 * CHUNK, 5)
    raised = []
    for k in (1, 2):
        with pytest.raises(errors.NumericError) as exc:
            _with_workers(monkeypatch, k, lambda: sample_polymer_sequential(cfg))
        raised.append(exc.value)
    assert type(raised[0]) is type(raised[1])
    assert str(raised[0]) == str(raised[1])
    assert "left the occupancy window" in str(raised[1])
