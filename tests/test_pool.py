"""The ordered process map: results independent of the worker count.

Every case runs once inline (one worker) and over two, three and five
forked workers, and the results must be bit-identical; after each pooled
call no child process may be left, running or unreaped.  Errors must
cross a worker's channel with their type, message and attributes, and a
failed job, a dead worker (also one that dies in the middle of an
answer) or an interrupt must leave no child behind.
"""

import dataclasses
import inspect
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import struct
import time

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


def _no_children():
    # multiprocessing.active_children() sees only its own processes; a
    # plain fork that is still running or unreaped shows in waitpid
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _with_workers(monkeypatch, k, fn):
    monkeypatch.setattr(besselsim, "_workers", lambda n_jobs: min(k, n_jobs))
    out = fn()
    _no_children()
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


_INLINE = {}  # each case's inline result, computed once


def _inline(name, monkeypatch):
    if name not in _INLINE:
        _INLINE[name] = _with_workers(monkeypatch, 1, CASES[name])
    return _INLINE[name]


@pytest.mark.parametrize("name", CASES)
def test_pooled_equals_inline(name, monkeypatch):
    pooled = _with_workers(monkeypatch, 2, CASES[name])
    assert _same(_inline(name, monkeypatch), pooled)


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("name", CASES)
def test_pooled_equals_inline_at_more_workers(name, k, monkeypatch):
    pooled = _with_workers(monkeypatch, k, CASES[name])
    assert _same(_inline(name, monkeypatch), pooled)


def test_workers_follow_the_jobs():
    assert besselsim._workers(0) == 1
    assert besselsim._workers(1) == 1
    assert 1 <= besselsim._workers(64) <= 64


@pytest.mark.parametrize("n_jobs, workers", [(1, 1), (5, 5), (6, 2), (64, 2)])
def test_workers_rule_on_two_cpus(n_jobs, workers, monkeypatch):
    # one process per job up to 2 C + 1 jobs, then one per CPU
    monkeypatch.setattr(besselsim, "_CPUS", 2)
    assert besselsim._workers(n_jobs) == workers


@pytest.mark.parametrize("n_jobs", [1, 2, 5, 64])
def test_one_cpu_runs_inline(n_jobs, monkeypatch):
    monkeypatch.setattr(besselsim, "_CPUS", 1)
    assert besselsim._workers(n_jobs) == 1


def _pids(i):
    """This worker's pid and the pids that run a map it issues."""
    return os.getpid(), besselsim._map(os.getpid, [(), (), ()])


def test_map_inside_a_worker_runs_inline(monkeypatch):
    monkeypatch.setattr(besselsim, "_CPUS", 2)
    out = besselsim._map(_pids, [(0,), (1,)])
    _no_children()
    workers = {pid for pid, _ in out}
    assert len(workers) == 2 and os.getpid() not in workers
    assert all(inner == [pid] * 3 for pid, inner in out)


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
    _no_children()


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


def _exit_second(i):
    if i == 1:
        os._exit(3)  # leaves without answering, as a crashed worker would
    return i


@pytest.mark.parametrize("k", [2, 3])
def test_dead_worker_raises(k, monkeypatch):
    with pytest.raises(ChildProcessError, match="status 3"):
        _with_workers(monkeypatch, k,
                      lambda: besselsim._map(_exit_second, [(i,) for i in range(4)]))
    _no_children()


def _sleep(i):
    time.sleep(60.0)


def test_interrupt_kills_the_workers(monkeypatch):
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    t0 = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            _with_workers(monkeypatch, 3,
                          lambda: besselsim._map(_sleep, [(i,) for i in range(3)]))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - t0 < 30.0
    _no_children()


def _two_failures(i):
    if i == 1:
        time.sleep(0.5)  # fails after job 3 has failed
        raise errors.DomainError("job 1 failed")
    if i == 3:
        raise errors.DomainError("job 3 failed")
    return i


def test_first_failing_job_in_job_order_is_raised(monkeypatch):
    # as in the inline loop, whichever failure reaches the parent first
    with pytest.raises(errors.DomainError, match="job 1 failed"):
        _with_workers(monkeypatch, 5,
                      lambda: besselsim._map(_two_failures, [(i,) for i in range(5)]))
    _no_children()


def _unpicklable(i):
    return lambda: i


def test_unpicklable_answer_raises(monkeypatch):
    # the pickling error takes the result's place
    with pytest.raises((pickle.PicklingError, AttributeError), match="pickle"):
        _with_workers(monkeypatch, 2,
                      lambda: besselsim._map(_unpicklable, [(0,), (1,)]))
    _no_children()


def test_worker_dying_mid_answer_raises(monkeypatch):
    # a worker writes the header and half of its answer's frame, then exits
    send_bytes = multiprocessing.connection.Connection._send_bytes

    def half_then_exit(self, buf):
        if not besselsim._in_worker:
            return send_bytes(self, buf)
        self._send(struct.pack("!i", len(buf)) + bytes(buf[:len(buf) // 2]))
        os._exit(7)

    monkeypatch.setattr(multiprocessing.connection.Connection, "_send_bytes",
                        half_then_exit)
    with pytest.raises(ChildProcessError, match="status 7"):
        _with_workers(monkeypatch, 2,
                      lambda: besselsim._map(abs, [(-i,) for i in range(4)]))
    _no_children()
