"""Monte Carlo for squared Bessel processes and their additive functionals.

Simulates BESQ0 (dX = 2 sqrt(X) dW, absorbed at 0) and BESQ2
(dX = 2 sqrt(X) dW + 2 dt, entrance boundary at 0) together with the
additive functionals A(t) = int X dv and Q(t) = int X^2 dv, and provides
estimators that cross-validate the deterministic machinery:

  * estimate_y:  E_h exp(int [a X - X^2] dv) over the BESQ0 lifetime,
                 which must reproduce the Airy ratio y_kernel(h, a);
  * estimate_w:  the weight e^{-Q} binned by the terminal value of A,
                 which must reproduce the spectral density w_eval(h, t);
  * simulate_tilted: BESQ2 paths carrying the eigenfunction martingale
                 weight, realizing the transformed diffusion and its
                 equilibrium law x_a(h)^2 dh;
  * first_passage_density: the closed-form law of A(infinity) under BESQ0.

Randomness is counter-based (Philox) keyed by (seed, chunk index) over
fixed chunks of CHUNK (4096) paths, and every reduction runs in chunk
order, so results are bit-identical regardless of how chunks are
scheduled, and the first k chunks of a run are the same paths at any
larger n_paths.  The chunks run in parallel in forked processes (_map):
one per chunk for maps of up to 2 C + 1 jobs on the C CPUs of the
process's affinity mask, one per CPU for longer maps.  Each worker has
one duplex multiprocessing.connection channel to the parent: job indices
go out on it, and each job's pickled result or exception comes back.
Under ``taskset -c 0`` they run in the calling process, with the same
results.

The private Monte Carlo core here is shared with edwardsmc: the ordered
process map _map and the chunk drivers _chunks and _chunk_runs (several
runs' chunks, and further jobs, in one map), the Euler step _besq_step
(drift 0, 2 or the eigenfunction drift, trapezoid A and Q), the
absorbed-run integrator _absorbed_run with its stage schedule as input,
and the equilibrium draw _equilibrium_draw.
"""

from __future__ import annotations

import contextlib
import math
import os
import signal
import warnings
from dataclasses import dataclass

import numpy as np

from .airy import a_2star
from .errors import DegeneracyError, DomainError, HorizonError, NumericError
from .sturm import principal_eigen

CHUNK = 4096

_SCHEMES = ("euler_abs", "exact_besq0")


@dataclass(frozen=True)
class SimConfig:
    """Knobs shared by every simulator in this module."""
    dt: float = 1e-3
    n_paths: int = 10000
    seed: int = 0
    scheme: str = "euler_abs"

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise DomainError(f"dt must be positive, got {self.dt!r}")
        if self.n_paths < 1:
            raise DomainError(f"n_paths must be >= 1, got {self.n_paths!r}")
        if not (0 <= int(self.seed) < 2 ** 63):
            raise DomainError("seed must fit in 63 bits")
        if self.scheme not in _SCHEMES:
            raise DomainError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    se: float
    n: int
    seed: int


@dataclass(frozen=True)
class PathFunctionalSample:
    """One path's terminal state and accumulated functionals."""
    terminal: float
    additive: float
    quad: float
    absorbed_at: float | None


@dataclass(frozen=True)
class PathFunctionalBatch:
    """Vectorized stream of path functionals; iterate for scalar samples.

    absorbed_at is nan for paths never absorbed (and for the exact
    terminal-law scheme, which does not resolve absorption times).
    """
    terminal: np.ndarray
    additive: np.ndarray
    quad: np.ndarray
    absorbed_at: np.ndarray
    dt: float
    t_end: float
    seed: int

    def __len__(self) -> int:
        return len(self.terminal)

    def __iter__(self):
        for i in range(len(self.terminal)):
            t_abs = self.absorbed_at[i]
            yield PathFunctionalSample(
                terminal=float(self.terminal[i]),
                additive=float(self.additive[i]),
                quad=float(self.quad[i]),
                absorbed_at=None if math.isnan(t_abs) else float(t_abs),
            )


def _rng(seed: int, chunk: int) -> np.random.Generator:
    key = np.array([seed, chunk], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunk_sizes(n: int):
    sizes = [CHUNK] * (n // CHUNK)
    if n % CHUNK:
        sizes.append(n % CHUNK)
    return sizes


# CPUs in the affinity mask of the importing process; 1 without the mask
# or without fork, so that every map runs inline
_CPUS = (len(os.sched_getaffinity(0))
         if hasattr(os, "sched_getaffinity") and hasattr(os, "fork") else 1)
_in_worker = False  # set in every forked worker, so maps never nest


def _workers(n_jobs: int) -> int:
    """Processes _map starts for n_jobs jobs; 1 means inline.

    Maps of at most 2 C + 1 jobs on C = _CPUS CPUs start one process per
    job and leave the sharing of the CPUs to the OS, so they end after
    their total work / C rather than after ceil(n_jobs / C) rounds of
    one job per CPU.  Longer maps start one process per CPU: the rounds
    then cost little, and every further process its fork.  Inline for a
    single job, inside a worker and on a single CPU (``taskset -c 0``).
    """
    if n_jobs < 2 or _CPUS < 2 or _in_worker:
        return 1
    return n_jobs if n_jobs <= 2 * _CPUS + 1 else _CPUS


def _map(fn, jobs):
    """[fn(*args) for args in jobs], the jobs spread over _workers processes.

    The jobs must be independent (each draws from its own stream), so
    the results, returned in job order, do not depend on the worker
    count.  Workers are plain forks, so fn may be a closure: it is
    inherited, and only job indices and answers cross the channels.
    Each worker has one duplex multiprocessing.connection channel, which
    frames and pickles every message and reports a closed peer.  The
    parent sends a worker the next job index whenever it answers, and
    None when no job is left or a job has failed.

    Raises what the inline loop would raise: the error of the first
    failing job in job order, with its type, message and attributes, or
    ChildProcessError for a worker that exits without answering its job,
    also in the middle of an answer.  Once a job fails no later job is
    started.  However _map returns or raises, an interrupt included,
    every worker has been reaped, and those still running have been
    killed.
    """
    jobs = list(jobs)
    workers = _workers(len(jobs))
    if workers < 2:
        return [fn(*args) for args in jobs]
    # imported here, not with the module: the deterministic layers never
    # fork, and their set-up should not pay for multiprocessing.connection
    from multiprocessing.connection import Pipe, wait
    results, errors = {}, {}
    todo = list(range(len(jobs)))[::-1]
    live = {}  # the parent's end of a worker's channel -> [pid, its job or None]

    def hand_out(conn):
        """Send the worker on conn the next job, or None when none is left.

        Job i is given only after jobs 0 .. i-1, so once a job has failed
        every job left is a later one, and none is started.
        """
        live[conn][1] = todo.pop() if todo and not errors else None
        with contextlib.suppress(BrokenPipeError):  # its end reports it
            conn.send(live[conn][1])

    try:
        for _ in range(workers):
            ours, theirs = Pipe()
            try:
                pid = os.fork()
            except OSError:
                ours.close()
                theirs.close()
                raise
            if pid == 0:
                # keep only its own end, so that a worker sees the end of
                # its channel when the parent has gone
                for conn in [ours, *live]:
                    conn.close()
                _serve(fn, jobs, theirs)  # never returns
            theirs.close()
            live[ours] = [pid, None]
            hand_out(ours)
        first = len(jobs)  # the first failing job so far
        # wait for every worker to leave, or, once a job has failed, for
        # the jobs before it
        while any(not errors or (i is not None and i < first)
                  for _, i in live.values()):
            for conn in wait(list(live)):
                try:
                    ok, value = conn.recv()
                except (EOFError, OSError):  # the worker has left, maybe mid-answer
                    pid, i = live.pop(conn)
                    conn.close()
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    if i is not None:
                        errors[i] = ChildProcessError(
                            f"a Monte Carlo worker exited with status {code} "
                            f"before answering job {i}")
                    continue
                (results if ok else errors)[live[conn][1]] = value
                hand_out(conn)
            first = min(errors, default=first)
        if errors:
            raise errors[first]
        return [results[i] for i in range(len(jobs))]
    finally:
        for conn, (pid, _) in live.items():
            conn.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _serve(fn, jobs, conn):
    """A worker: answer each job index received on conn, until None.

    An answer is (True, result) or (False, the job's exception).
    Connection.send pickles the whole answer before it writes any of it,
    so a result that cannot be pickled is answered with the pickling
    error.  The worker leaves through os._exit, so none of the parent's
    clean-up runs here: with status 0 after None, 1 when it cannot
    answer (an error that cannot be pickled either, or a parent that
    has gone).
    """
    global _in_worker
    _in_worker = True
    code = 1
    try:
        while (i := conn.recv()) is not None:
            try:
                answer = (True, fn(*jobs[i]))
            except BaseException as exc:
                answer = (False, exc)
            try:
                conn.send(answer)
            except Exception as exc:  # the answer cannot be pickled
                conn.send((False, exc))
        code = 0
    finally:
        os._exit(code)


def _chunks(n: int, seed: int, fn):
    """Run fn(generator, m) on each chunk of n paths and join the results.

    Chunk ci holds m = _chunk_sizes(n)[ci] paths and draws from its own
    (seed, ci) stream; the chunks go through _map.  fn returns a tuple
    of arrays with one row per path; the rows are concatenated in chunk
    order.
    """
    return _chunk_runs([(n, seed, fn)])[0]


def _chunk_runs(runs, calls=()):
    """_chunks(n, seed, fn) for each (n, seed, fn) of runs, in one _map.

    All the runs' chunks are jobs of a single process map, so a caller
    that needs several independent runs starts one pool, not one per
    run.  calls, zero-argument callables that each draw from a stream of
    their own, are further jobs of the same map, issued ahead of the
    chunks (the longest should come first); their results follow the
    runs' in the returned list.
    """
    jobs = [(i, None, 0) for i in range(len(calls))]
    jobs += [(r, ci, m) for r, (n, _, _) in enumerate(runs)
             for ci, m in enumerate(_chunk_sizes(n))]

    def job(r, ci, m):
        if ci is None:
            return calls[r]()
        _, seed, fn = runs[r]
        return fn(_rng(seed, ci), m)

    parts = _map(job, jobs)
    joined = [[] for _ in runs]
    for (r, ci, _), part in zip(jobs[len(calls):], parts[len(calls):]):
        joined[r].append(part)
    return ([tuple(np.concatenate(col) for col in zip(*p)) for p in joined]
            + parts[:len(calls)])


def _besq_step(g: np.random.Generator, x: np.ndarray, dt: float, drift=None,
               area=None, quad=None, out=None, work=None) -> np.ndarray:
    """One full-truncation Euler step of dX = 2 sqrt(X) dW + drift dt.

    Draws one increment per entry of x from g and floors the new state at
    0.  drift is None (dimension 0), a number (2 for dimension 2) or an
    array (the eigenfunction drift).  When given, area and quad receive
    the trapezoid increments of int X dv and int X^2 dv in place.  The
    new state is written to out, which must not overlap x, and work is a
    (2, *x.shape) scratch array; either is allocated when not given.
    Every value is rounded as in the expression
    ``x + 2 sqrt(max(x, 0)) * (N sqrt(dt))``, so the buffers do not change
    a bit of the result.
    """
    if out is None:
        out = np.empty_like(x)
    if work is None:
        work = np.empty((2,) + x.shape)
    dw, tmp = work
    g.standard_normal(out=dw)
    # the factors 2 and 0.5 are powers of two, so moving them between
    # products is exact: (2 s) (N c) == s (N (2 c)) and (y 0.5) dt == y (0.5 dt)
    dw *= 2.0 * math.sqrt(dt)
    np.maximum(x, 0.0, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp *= dw
    np.add(x, tmp, out=out)
    if drift is not None:
        out += np.multiply(drift, dt, out=tmp) if np.ndim(drift) else drift * dt
    np.maximum(out, 0.0, out=out)
    if area is not None:
        np.add(x, out, out=tmp)
        tmp *= 0.5 * dt
        area += tmp
    if quad is not None:
        np.multiply(x, x, out=tmp)
        tmp += np.multiply(out, out, out=dw)
        tmp *= 0.5 * dt
        quad += tmp
    return out


def simulate_besq(dim: int, h0: float, t_end: float, cfg: SimConfig) -> PathFunctionalBatch:
    """Simulate BESQ paths of dimension 0 or 2 up to t_end.

    Euler-Maruyama with full truncation (sqrt of the positive part).
    Dimension 0 treats 0 as absorbing: once a step lands at or below 0
    the path is held there and its absorption time recorded at grid
    resolution.  Dimension 2 clamps at 0 (entrance boundary, never
    absorbed).  The functionals A = int X dv and Q = int X^2 dv
    accumulate by the trapezoid rule.

    With scheme exact_besq0 and dim 0 the terminal value is drawn from
    the exact transition law (Poisson number of Gamma summands plus an
    atom at 0); functionals and absorption times are nan in that case.
    """
    if dim not in (0, 2):
        raise DomainError(f"dim must be 0 or 2, got {dim!r}")
    h0 = float(h0)
    if not (math.isfinite(h0) and h0 >= 0.0):
        raise DomainError(f"h0 must be finite and >= 0, got {h0!r}")
    t_end = float(t_end)
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise DomainError(f"t_end must be positive, got {t_end!r}")

    n = cfg.n_paths
    if cfg.scheme == "exact_besq0":
        if dim != 0:
            raise DomainError("scheme exact_besq0 requires dim 0")

        def exact_chunk(g, m):
            counts = g.poisson(h0 / (2.0 * t_end), size=m)
            vals = np.zeros(m)
            hit = counts > 0
            if np.any(hit):
                vals[hit] = g.gamma(counts[hit].astype(float)) * 2.0 * t_end
            return (vals,)

        terminal, = _chunks(n, cfg.seed, exact_chunk)
        nanarr = np.full(n, np.nan)
        return PathFunctionalBatch(terminal=terminal, additive=nanarr.copy(),
                                   quad=nanarr.copy(), absorbed_at=nanarr,
                                   dt=cfg.dt, t_end=t_end, seed=cfg.seed)

    n_steps = int(math.ceil(t_end / cfg.dt - 1e-12))

    def euler_chunk(g, m):
        x = np.full(m, h0)
        a_acc = np.zeros(m)
        q_acc = np.zeros(m)
        t_abs = np.full(m, np.nan)
        t = 0.0
        for step in range(n_steps):
            dt = min(cfg.dt, t_end - t)
            x = _besq_step(g, x, dt, 2.0 if dim == 2 else None, a_acc, q_acc)
            if not np.all(np.isfinite(x)):
                raise NumericError(f"non-finite state at step {step}")
            if dim == 0:
                t_abs[(x <= 0.0) & np.isnan(t_abs)] = t + dt
            t += dt
        return x, a_acc, q_acc, t_abs

    terminal, additive, quad, absorbed = _chunks(n, cfg.seed, euler_chunk)
    return PathFunctionalBatch(terminal=terminal, additive=additive, quad=quad,
                               absorbed_at=absorbed, dt=cfg.dt, t_end=t_end,
                               seed=cfg.seed)


def _absorbed_run(g: np.random.Generator, h0: np.ndarray, stages):
    """BESQ0 from the starts h0 until every path is absorbed at 0.

    stages yields (n_steps, dt): each stage runs the paths alive at its
    start for n_steps steps of size dt, and the paths absorbed during the
    stage are dropped at its end, so later stages draw for the survivors
    only.  Stops when no path is alive or the stages run out.  Returns
    per-path (A, Q, alive): A = int X dv and Q = int X^2 dv up to
    absorption, or up to the end of the last stage for the paths still
    alive.

    The state and both functionals of the live paths are kept compacted
    together: at the end of a stage the absorbed paths' functionals are
    written to their rows, and one mask drops them from all three.
    """
    m = len(h0)
    area = np.zeros(m)
    quad = np.zeros(m)
    idx = np.flatnonzero(h0 > 0.0)
    x = h0[idx].astype(float)
    a_live = np.zeros(len(idx))
    q_live = np.zeros(len(idx))
    buf = np.empty((4, len(idx)))  # two states in turn, and the step's scratch
    turn = 0
    for n_steps, dt in stages:
        k = len(idx)
        if not k:
            break
        for _ in range(n_steps):
            turn ^= 1
            x = _besq_step(g, x, dt, area=a_live, quad=q_live,
                           out=buf[turn, :k], work=buf[2:, :k])
        live = x > 0.0
        if not live.all():
            dead = ~live
            area[idx[dead]] = a_live[dead]
            quad[idx[dead]] = q_live[dead]
            idx, x, a_live, q_live = idx[live], x[live], a_live[live], q_live[live]
    area[idx] = a_live
    quad[idx] = q_live
    alive = np.zeros(m, dtype=bool)
    alive[idx] = True
    return area, quad, alive


def _doubling_stages(dt: float):
    """The estimators' schedule for _absorbed_run.

    The first stage runs to horizon max(1, 32 dt); then horizon and time
    step both double, so the straggler tail (the unabsorbed fraction
    decays like h0/2t) is brought down within 10,000 steps in all.  A
    chunk holds at most CHUNK < 10^4 paths, so stopping when no path is
    alive is the rule "below 1e-4 of the chunk unabsorbed".
    """
    t = 0.0
    horizon = max(1.0, 32.0 * dt)
    left = 10_000
    while left:
        n_stage = min(int(round((horizon - t) / dt)), left)
        yield n_stage, dt
        left -= n_stage
        # t is summed step by step: the next stage's (horizon - t) / dt can
        # land next to a half-integer (312.4999999999962 at dt = 0.0016),
        # where the stage length depends on the last bits of t
        for _ in range(n_stage):
            t += dt
        horizon *= 2.0
        dt *= 2.0


def _absorbed_functionals(h0: float, cfg: SimConfig):
    """Per-path (A, Q) of cfg.n_paths BESQ0 paths from h0 up to absorption.

    Stragglers keep their partial functionals; callers weight them by
    e^{-quad}, which is far below double-precision resolution for the
    high excursions that survive, so the truncation does not bias
    weighted estimates.  Raises HorizonError when more than 1% of the
    paths are unabsorbed at the step cap.
    """
    additive, quad, alive = _chunks(
        cfg.n_paths, cfg.seed,
        lambda g, m: _absorbed_run(g, np.full(m, h0), _doubling_stages(cfg.dt)))
    frac = np.count_nonzero(alive) / cfg.n_paths
    if frac > 0.01:
        raise HorizonError(
            f"{frac:.1%} of paths unabsorbed at the step cap; increase dt")
    return additive, quad


def estimate_y(a: float, h0: float, cfg: SimConfig) -> McEstimate:
    """Monte Carlo estimate of y_a(h0) = E exp(int [a X - X^2] dv) (BESQ0).

    The integrand vanishes after absorption, so each path contributes
    exp(a A - Q) with A, Q read at its absorption time.
    """
    a = float(a)
    a_2s = a_2star()  # 2^{1/3} |a_0|, the threshold for y
    if not math.isfinite(a) or a >= a_2s:
        raise DomainError(f"estimate_y requires a < {a_2s:.9f}, got {a!r}")
    if a_2s - a < 0.2:
        warnings.warn("a is within 0.2 of the threshold; weights are heavy-tailed",
                      RuntimeWarning, stacklevel=2)
    h0 = float(h0)
    if not (math.isfinite(h0) and h0 >= 0.0):
        raise DomainError(f"h0 must be finite and >= 0, got {h0!r}")
    if h0 == 0.0:
        return McEstimate(mean=1.0, se=0.0, n=cfg.n_paths, seed=cfg.seed)
    additive, quad = _absorbed_functionals(h0, cfg)
    w = np.exp(a * additive - quad)
    mean = float(np.mean(w))
    se = float(np.std(w) / math.sqrt(cfg.n_paths))
    return McEstimate(mean=mean, se=se, n=cfg.n_paths, seed=cfg.seed)


@dataclass(frozen=True)
class WBinnedEstimate:
    """Per-bin density estimates of the weighted absorption-functional law."""
    edges: np.ndarray
    density: np.ndarray
    se: np.ndarray
    total_mass: float
    total_se: float
    n: int
    seed: int


def estimate_w(h0: float, t_bins, cfg: SimConfig) -> WBinnedEstimate:
    """Bin the weight e^{-Q} by the terminal additive functional A.

    Per-bin weighted frequency divided by bin width estimates the
    density t -> w(h0, t); the bin integral of the density estimates
    int w dt = y_0(h0).  Mass outside the bins is still counted in
    total_mass (the bins must cover the bulk for per-bin use).
    """
    h0 = float(h0)
    if not (math.isfinite(h0) and h0 >= 0.0):
        raise DomainError(f"h0 must be finite and >= 0, got {h0!r}")
    edges = np.asarray(t_bins, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0.0) \
            or edges[0] < 0.0 or not np.all(np.isfinite(edges)):
        raise DomainError("t_bins must be increasing, nonnegative, finite edges")
    widths = np.diff(edges)
    if h0 == 0.0:
        zeros = np.zeros(len(widths))
        return WBinnedEstimate(edges=edges, density=zeros, se=zeros.copy(),
                               total_mass=1.0, total_se=0.0,
                               n=cfg.n_paths, seed=cfg.seed)
    additive, quad = _absorbed_functionals(h0, cfg)
    w = np.exp(-quad)
    n = cfg.n_paths
    which = np.digitize(additive, edges) - 1
    density = np.zeros(len(widths))
    se = np.zeros(len(widths))
    for j in range(len(widths)):
        wj = w * (which == j)
        density[j] = np.sum(wj) / n / widths[j]
        se[j] = np.std(wj) / math.sqrt(n) / widths[j]
    total = float(np.mean(w))
    total_se = float(np.std(w) / math.sqrt(n))
    return WBinnedEstimate(edges=edges, density=density, se=se,
                           total_mass=total, total_se=total_se, n=n, seed=cfg.seed)


@dataclass(frozen=True)
class TiltedBatch:
    """Weighted BESQ2 paths realizing the eigenfunction-transformed law.

    x has one row per path and one column per recorded time; log_weight
    holds the Girsanov log-density at each recorded time.  Expectations
    under the transformed law are weighted averages with e^{log_weight}.
    """
    times: np.ndarray
    x: np.ndarray
    x0: np.ndarray
    log_weight: np.ndarray
    ess: float
    seed: int


def _equilibrium_draw(sol):
    """Inverse-CDF draws from x_a(h)^2 dh on the grid of the solution sol."""
    cdf = np.cumsum(sol.weights * sol.x ** 2)
    cdf = cdf / cdf[-1]

    def draw(g: np.random.Generator, size: int) -> np.ndarray:
        return np.interp(g.random(size), cdf, sol.h)

    return draw


def equilibrium_sampler(a: float):
    """Inverse-CDF sampler for the equilibrium density x_a(h)^2 dh.

    Returns (draw, sol) where draw(generator, size) samples starting
    points and sol is the eigenfunction solution used for evaluation.
    """
    sol = principal_eigen(a)
    return _equilibrium_draw(sol), sol


def simulate_tilted(a: float, h0, t_end: float, cfg: SimConfig,
                    record_times=None) -> TiltedBatch:
    """BESQ2 paths weighted by the eigenfunction change of measure.

    The weight at time t is

        D_t = e^{-rho(a) t} (x_a(X_t) / x_a(X_0)) exp(int_0^t [a X - X^2] dv),

    a mean-one martingale; weighted averages of path functionals give
    expectations under the transformed diffusion.  h0 may be a number
    or "equilibrium", which draws X_0 from x_a(h)^2 dh so the weighted
    law is stationary.  Log-weights are accumulated throughout.

    Raises DegeneracyError when the effective sample size at the final
    recorded time drops below 1% of n_paths.
    """
    a = float(a)
    if not math.isfinite(a):
        raise DomainError(f"a must be finite, got {a!r}")
    t_end = float(t_end)
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise DomainError(f"t_end must be positive, got {t_end!r}")
    if record_times is None:
        record_times = [t_end]
    times = np.asarray(sorted(float(t) for t in record_times))
    if len(times) == 0 or times[0] <= 0.0 or times[-1] > t_end + 1e-12:
        raise DomainError("record_times must lie in (0, t_end]")

    draw, sol = equilibrium_sampler(a)
    equil = isinstance(h0, str)
    if equil:
        if h0 != "equilibrium":
            raise DomainError(f"h0 must be a number or 'equilibrium', got {h0!r}")
    else:
        h0 = float(h0)
        if not (math.isfinite(h0) and h0 >= 0.0):
            raise DomainError(f"h0 must be finite and >= 0, got {h0!r}")

    n_steps = int(math.ceil(t_end / cfg.dt - 1e-12))
    rec_steps = np.minimum(np.round(times / cfg.dt).astype(int), n_steps)
    # beyond the solver box x_a is below double precision; flooring the
    # interpolation keeps the log finite (such paths carry no weight)
    floor = 1e-300

    def chunk(g, m):
        x0 = draw(g, m) if equil else np.full(m, h0)
        log_x0 = np.log(np.interp(x0, sol.h, sol.x))
        x_rec = np.empty((m, len(times)))
        lw_rec = np.empty((m, len(times)))
        x = x0
        acc = np.zeros(m)  # int (a X - X^2) dv, trapezoid
        t = 0.0
        rec_i = 0
        for step in range(1, n_steps + 1):
            dt = min(cfg.dt, t_end - t)
            xn = _besq_step(g, x, dt, 2.0)
            if not np.all(np.isfinite(xn)):
                raise NumericError(f"non-finite state at step {step}")
            f_old = a * x - x * x
            f_new = a * xn - xn * xn
            acc += 0.5 * (f_old + f_new) * dt
            x = xn
            t += dt
            while rec_i < len(times) and rec_steps[rec_i] == step:
                x_rec[:, rec_i] = x
                lw_rec[:, rec_i] = (
                    acc - sol.rho * t
                    + np.log(np.maximum(np.interp(x, sol.h, sol.x), floor))
                    - log_x0)
                rec_i += 1
        return x_rec, lw_rec, x0

    n = cfg.n_paths
    x_out, lw_out, x0_out = _chunks(n, cfg.seed, chunk)
    lw_final = lw_out[:, -1]
    shifted = np.exp(lw_final - lw_final.max())
    ess = float(np.sum(shifted) ** 2 / np.sum(shifted ** 2))
    if ess < 0.01 * n:
        raise DegeneracyError(
            f"effective sample size {ess:.1f} below 1% of n={n}")
    return TiltedBatch(times=times, x=x_out, x0=x0_out, log_weight=lw_out,
                       ess=ess, seed=cfg.seed)


def first_passage_density(h, t):
    """Density of A(infinity) under BESQ0 from h:

        phi_h(t) = (8 pi)^{-1/2} t^{-3/2} h exp(-h^2 / 8t),

    which is also the first-passage density of level 0 for a standard
    Brownian motion started at h/2 (the Ray-Knight picture of the area
    under a BESQ0 path).
    """
    h_arr = np.asarray(h, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    if np.any(h_arr <= 0.0) or np.any(t_arr <= 0.0) \
            or not (np.all(np.isfinite(h_arr)) and np.all(np.isfinite(t_arr))):
        raise DomainError("first_passage_density requires h > 0 and t > 0")
    out = (8.0 * math.pi) ** -0.5 * t_arr ** -1.5 * h_arr * np.exp(
        -h_arr * h_arr / (8.0 * t_arr))
    if np.ndim(h) == 0 and np.ndim(t) == 0:
        return float(out)
    return out
