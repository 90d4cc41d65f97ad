"""Spans around every call into the package's public functions.

The tracer replaces each public function of a layer module with a wrapper
that records one span (name, layer, start, end, parent, op id).  Modules
import names directly (``from .sturm import principal_eigen``), so the
wrapper is installed at every module that binds the function, not only
where it is defined.  Spans stay in memory; ``layer_metrics`` reduces
them when the run ends and ``dump`` writes them out.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

import numpy as np

LAYERS = ("airy", "sturm", "constants", "rate", "spectral", "besselsim",
          "edwardsmc", "cli")
# private Airy helpers that spectral.laplace_reconstruct calls directly for
# its asymptotic tail; without them that Airy work would count as spectral
PRIVATE = {"airy": ("_asym_neg", "_zero_guess")}
BENCH = "bench"
CHUNK_PATHS = 4096  # paths per polymer chunk, for the computed chunk size

# span fields
NAME, LAYER, START, END, PARENT, OP, INFO = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None

    def open(self, name, layer):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent,
                           self.op, None])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()

    def note(self, idx, **info):
        if self.spans[idx][INFO] is None:
            self.spans[idx][INFO] = {}
        self.spans[idx][INFO].update(info)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent",
                                  "op", "info"], "spans": self.spans}, fh)


def _bound_args(fn, args, kwargs):
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except TypeError:
        return {}
    bound.apply_defaults()
    return bound.arguments


def _observe(layer, name, fn, args, kwargs, result):
    """Counts read from a call's arguments and result, by function."""
    if layer == "airy" and name == "airy_batch":
        return {"points": int(np.size(args[0] if args else kwargs["x"]))}
    if layer == "sturm" and name == "principal_eigen":
        a = _bound_args(fn, args, kwargs)
        return {"key": repr((float(a.get("a", float("nan"))), a.get("cfg")))}
    if layer == "besselsim":
        a = _bound_args(fn, args, kwargs)
        cfg = a.get("cfg")
        info = {}
        if hasattr(cfg, "n_paths"):
            info["paths"] = int(cfg.n_paths)
        if name == "simulate_tilted" and hasattr(result, "ess"):
            info["ess_frac"] = float(result.ess) / cfg.n_paths
        return info
    if layer == "edwardsmc":
        a = _bound_args(fn, args, kwargs)
        cfg = a.get("cfg")
        if name in ("sample_polymer", "tilted_mgf"):
            info = {"path_steps": cfg.n_paths * cfg.n_steps,
                    "chunk_bytes": min(CHUNK_PATHS, cfg.n_paths) * cfg.n_steps * 8,
                    "T": float(cfg.T)}
            if hasattr(result, "ess"):
                info["ess_frac"] = float(result.ess) / cfg.n_paths
            return info
        if name == "rayknight_consistency":
            checks = set(a.get("checks", ()))
            steps = a["n_quintuples"] * cfg.n_steps
            if checks & {"unconditional", "bookkeeping"}:
                steps += cfg.n_paths * cfg.n_steps
            return {"path_steps": steps, "acceptance": float(result.acceptance)}
    return None


def _wrap(tracer, layer, name, fn):
    def wrapper(*args, **kwargs):
        idx = tracer.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.note(idx, error=True)
            raise
        finally:
            tracer.close(idx)
        try:
            info = _observe(layer, name, fn, args, kwargs, result)
        except (AttributeError, KeyError, TypeError, ValueError):
            info = {"observe_error": True}
        if info:
            tracer.note(idx, **info)
        return result

    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer):
    """Wrap every public function of each layer at every module binding it."""
    mods = {layer: importlib.import_module(f"edwards1d.{layer}")
            for layer in LAYERS}
    wrappers = {}
    for layer, mod in mods.items():
        for attr, val in vars(mod).items():
            if (inspect.isfunction(val) and val.__module__ == mod.__name__
                    and (not attr.startswith("_")
                         or attr in PRIVATE.get(layer, ()))):
                wrappers[val] = _wrap(tracer, layer, attr, val)
    for mod in mods.values():
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrappers:
                setattr(mod, attr, wrappers[val])


def _subtree(spans, root):
    """Indices of the spans under ``root`` (spans are stored in open order)."""
    out = []
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][PARENT] in inside:
            inside.add(i)
            out.append(i)
    return out


def _self_times(spans, idxs):
    child = {}
    for i in idxs:
        s = spans[i]
        child[s[PARENT]] = child.get(s[PARENT], 0.0) + (s[END] - s[START])
    return {i: spans[i][END] - spans[i][START] - child.get(i, 0.0)
            for i in idxs}


def _ancestors(spans, i, stop):
    p = spans[i][PARENT]
    while p != stop and p != -1:
        yield p
        p = spans[p][PARENT]


def _mean(xs):
    return float(sum(xs) / len(xs)) if xs else 0.0


def layer_metrics(tracer, setup_root, body_root):
    """Per-layer metrics of the body, plus set-up self times and coverage.

    Counts are public calls seen by the wrappers; ``*.self_s`` are seconds.
    """
    spans = tracer.spans
    m = {}

    idxs = _subtree(spans, body_root)
    selfs = _self_times(spans, idxs + [body_root])
    wall = spans[body_root][END] - spans[body_root][START]
    per_layer = {}
    for i in idxs:
        lay = spans[i][LAYER]
        per_layer[lay] = per_layer.get(lay, 0.0) + selfs[i]
    for lay in LAYERS:
        if lay != "edwardsmc":
            m[f"{lay}.self_s"] = per_layer.get(lay, 0.0)
    # the benchmark's own time: its root and its named spans (checks, output
    # parsing); op spans are the benchmark's boundary around one public call,
    # so their self time is program time no wrapper saw
    bench = selfs[body_root] + sum(selfs[i] for i in idxs
                                   if spans[i][LAYER] == BENCH)
    layers = sum(v for k, v in per_layer.items() if k in LAYERS)
    gap = wall - layers - bench
    m["trace.wall_s"] = wall
    m["trace.gap_frac"] = gap / wall if wall > 0 else 0.0
    m["trace.spans"] = len(spans)

    eig_under = {}
    eig_keys = set()
    errors = {lay: 0 for lay in LAYERS}
    for i in idxs:
        s = spans[i]
        info = s[INFO] or {}
        if info.get("error") and s[LAYER] in errors:
            errors[s[LAYER]] += 1
        if s[LAYER] == "sturm" and s[NAME] == "principal_eigen":
            eig_keys.add(info.get("key"))
            for p in _ancestors(spans, i, body_root):
                eig_under[p] = eig_under.get(p, 0) + 1

    def top(layer):
        return [i for i in idxs if spans[i][LAYER] == layer
                and spans[spans[i][PARENT]][LAYER] != layer]

    def named(layer, name):
        return [i for i in idxs if spans[i][LAYER] == layer
                and spans[i][NAME] == name]

    def in_legendre(i):
        return any(spans[p][NAME] == "legendre_check"
                   for p in _ancestors(spans, i, body_root))

    def info_of(i, key, default=0):
        return (spans[i][INFO] or {}).get(key, default)

    airy_batches = named("airy", "airy_batch")
    m["airy.points"] = sum(info_of(i, "points") for i in airy_batches)
    m["airy.zeros_calls"] = len(named("airy", "airy_zeros"))

    m["sturm.eigen_calls"] = len(named("sturm", "principal_eigen"))
    m["sturm.eigen_distinct"] = len(eig_keys)

    rate_top = top("rate")
    queries = [i for i in rate_top if spans[i][NAME] != "legendre_check"]
    m["rate.queries"] = len(rate_top)
    m["rate.eigen_per_query"] = _mean([eig_under.get(i, 0) for i in queries])
    m["rate.legendre_eigen_calls"] = _mean(
        [eig_under.get(i, 0) for i in named("rate", "legendre_check")])
    for name in ("rate_I", "lambda_plus"):
        m[f"rate.{name}_eigen_calls"] = _mean(
            [eig_under.get(i, 0) for i in named("rate", name)
             if not in_legendre(i)])

    m["spectral.calls"] = len(top("spectral"))

    bs_top = top("besselsim")
    m["besselsim.paths"] = sum(info_of(i, "paths") for i in bs_top)
    m["besselsim.tilted_ess_frac"] = _mean(
        [info_of(i, "ess_frac") for i in named("besselsim", "simulate_tilted")])

    em = [i for i in idxs if spans[i][LAYER] == "edwardsmc"]
    rk = named("edwardsmc", "rayknight_consistency")
    m["edwardsmc.polymer.self_s"] = sum(selfs[i] for i in em if i not in rk)
    m["edwardsmc.rayknight.self_s"] = sum(selfs[i] for i in rk)
    m["edwardsmc.path_steps"] = sum(info_of(i, "path_steps") for i in em)
    t_max = max((info_of(i, "T") for i in em), default=0)
    m["edwardsmc.chunk_bytes"] = max(
        (info_of(i, "chunk_bytes") for i in em if info_of(i, "T") == t_max), default=0)
    m["edwardsmc.ess_frac"] = _mean(
        [info_of(i, "ess_frac") for i in named("edwardsmc", "sample_polymer")
         if info_of(i, "T") == t_max])
    m["edwardsmc.rayknight.acceptance"] = _mean(
        [info_of(i, "acceptance") for i in rk])

    m["cli.calls"] = len(named("cli", "main"))
    for lay in LAYERS:
        m[f"{lay}.errors"] = errors[lay]

    s_idxs = _subtree(spans, setup_root)
    s_selfs = _self_times(spans, s_idxs)
    for lay in ("airy", "sturm", "constants"):
        m[f"setup.{lay}.self_s"] = sum(
            s_selfs[i] for i in s_idxs if spans[i][LAYER] == lay)
    # the cold compute_constants: its principal_eigen calls
    m["constants.eigen_calls"] = sum(
        1 for j in s_idxs if spans[j][NAME] == "principal_eigen"
        and any(spans[p][NAME] == "compute_constants"
                for p in _ancestors(spans, j, setup_root)))
    return m
