"""Spans around the public functions of each foulim layer.

The tracer wraps every listed function at each name it is looked up
under (``foulim.streams.stream`` is also ``foulim.harness.stream``,
``foulim.fou.stream``, ...), so calls are seen whichever module makes
them.  Spans stay in memory: name, start, end, parent, operation index,
whether the call raised, and counts computed from the call's arguments
or result.  Nothing in the package is edited; ``restore`` undoes the
wrapping.  A function a later version no longer has is skipped and
reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _fgn_counts(fn, args, kwargs, result):
    n = _bound(fn, args, kwargs)["n"]
    rows = len(result)
    # circulant embedding: 2n standard normals and a 2n-point FFT per row
    return {"increments": rows * n, "normals": rows * 2 * n, "fft_points": rows * 2 * n}


def _fou_counts(fn, args, kwargs, result):
    return {"delivered_steps": result.shape[0] * (result.shape[1] - 1)}


def _rho_counts(fn, args, kwargs, result):
    import numpy as np

    return {"lags": int(np.size(_bound(fn, args, kwargs)["s"]))}


def _hermite_counts(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    spec = a["spec"]
    return {"projection_flops": a["n_replicas"] * a["grid"].n_steps * spec.n_xi * spec.m}


# (module, qualified name, counts hook); the layer is the module name
TARGETS = (
    ("streams", "stream", None),
    ("fgn", "sample_fgn_batch", _fgn_counts),
    ("fou", "sample_fou_ensemble", _fou_counts),
    ("fou", "rho", _rho_counts),
    ("fou", "rho_power_integral", None),
    ("chaos", "ChaosFunction.__call__", None),
    ("chaos", "c_constant", None),
    ("chaos", "limit_covariance_A", None),
    ("chaos", "K_normalizer", None),
    ("hermite", "hermite_ensemble", _hermite_counts),
    ("hermite", "ghat", None),
    ("harness", "run_replicated", None),
    ("harness", "functional_values", None),
    ("harness", "fit_loglog_slope", None),
    ("harness", "clt_diagnostics", None),
    ("harness", "variance_scan", None),
    ("harness", "l2_convergence_hermite", None),
    ("solvers", "solve_slow_fast_endpoints", None),
    ("solvers", "solve_limit_stratonovich", None),
    ("solvers", "flow_map_1d", None),
    ("solvers", "kinetic_error_scan", None),
    ("cli", "main", None),
    ("output", "write_csv", None),
    ("output", "write_json", None),
)

SPAN_NAMES = tuple(f"{mod}.{qual}" for mod, qual, _ in TARGETS)
PACKAGE = "foulim"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    raised: bool = False
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans of wrapped functions; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[Span] = []  # open spans; traced runs are single-threaded
        self._patched: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- wrapping

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = Span(len(tracer.spans), name, 0.0, 0.0,
                        stack[-1].id if stack else None, tracer.op)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    span.counts = hook(fn, args, kwargs, result)
                except (TypeError, KeyError, AttributeError, IndexError):
                    pass  # a changed signature loses the count, not the call
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, qual, hook in TARGETS:
            try:
                owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                continue
            *cls_path, attr = qual.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{qual}", fn, hook)
            if cls_path:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -------------------------------------------------------------- results

    def to_records(self) -> list[dict]:
        return [vars(s) for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out


def _has_ancestor(span: Span, name: str, by_id: dict[int, Span]) -> bool:
    p = span.parent
    while p is not None:
        if by_id[p].name == name:
            return True
        p = by_id[p].parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """calls, self_s and failed per span name, plus the computed counts."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    m: dict[str, float] = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = 0
        m[f"{name}.self_s"] = 0.0
        m[f"{name}.failed"] = 0
    counts = defaultdict(int)
    for s in spans:
        m[f"{s.name}.calls"] += 1
        m[f"{s.name}.self_s"] += selfs[s.id]
        m[f"{s.name}.failed"] += int(s.raised)
        for k, v in s.counts.items():
            counts[f"{s.name}:{k}"] += v
        if s.name == "fgn.sample_fgn_batch" and _has_ancestor(s, "fou.sample_fou_ensemble", by_id):
            counts["fou:increments_drawn"] += s.counts.get("increments", 0)
    m["fgn.normals_drawn"] = counts["fgn.sample_fgn_batch:normals"]
    m["fgn.fft_points"] = counts["fgn.sample_fgn_batch:fft_points"]
    drawn = counts["fou:increments_drawn"]
    delivered = counts["fou.sample_fou_ensemble:delivered_steps"]
    m["fou.useful_step_ratio"] = delivered / drawn if drawn else 0.0
    m["fou.rho.lags"] = counts["fou.rho:lags"]
    m["hermite.projection_flops"] = counts["hermite.hermite_ensemble:projection_flops"]
    return m
