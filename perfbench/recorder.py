"""Outside-in span recorder for the groupframes layers.

The recorder replaces public functions of the package modules with timing
wrappers at their module attributes, including every module that imported
the function by name (``coherence.materialize``, ``cli.analyze``,
``sl2.cluster_complex`` and the package re-exports).  One span is kept per
call: name, start, end, parent span, operation id, and counts measured on
the call's arguments or result.  Spans stay in memory until the run writes
them out.  Outside ``operation()`` the wrappers only forward the call, so
output checks made between operations leave no spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

MIB = float(2 ** 20)


def _shape(frame):
    data = frame.exps if hasattr(frame, "exps") else frame.entries
    return data.shape


def _field_tables(args, kwargs, ctx):
    nbytes = sum(v.nbytes for v in vars(ctx).values()
                 if isinstance(v, np.ndarray))
    return {"table_mb": nbytes / MIB}


def _frame_cells(args, kwargs, frame):
    m, n = _shape(frame)
    return {"cells": m * n}


def _complex_mb(args, kwargs, cf):
    m, n = _shape(cf)
    return {"mb": m * n * 16 / MIB}


def _bytes_written(args, kwargs, _):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"mb": os.path.getsize(path) / MIB}


def _tightness_gflop(args, kwargs, _):
    m, n = _shape(args[0])
    return {"gflop": 8.0 * m * m * n / 1e9}


def _gram_gflop(args, kwargs, _):
    m, n = _shape(args[0])
    return {"gflop": 8.0 * n * n * m / 1e9}


def _cluster_values(args, kwargs, _):
    return {"values": int(np.size(args[0]))}


def _subcommand(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else ""


# span name -> (defining module, function names, counts measured per call)
TARGETS = {
    "gf.build_field": ("gf", ("build_field",), _field_tables),
    "frames.build": ("frames", ("build_field_frame", "build_hadamard_frame",
                                "build_harmonic_frame",
                                "build_random_exponent_frame",
                                "build_random_hadamard_frame"),
                     _frame_cells),
    "frames.materialize": ("frames", ("materialize",), _complex_mb),
    "frames.save": ("frames", ("save_exponent_csv", "save_sign_csv",
                               "save_complex_csv"), _bytes_written),
    "frames.load_frame": ("frames", ("load_frame",), None),
    "coherence.tightness_residual": ("coherence", ("tightness_residual",),
                                     _tightness_gflop),
    "coherence.average_coherence": ("coherence", ("average_coherence",),
                                    None),
    "coherence.coset_sums": ("coherence", ("coset_sums",), None),
    "coherence.multiplier_sums": ("coherence", ("multiplier_sums",), None),
    "coherence.coherence_bruteforce": ("coherence",
                                       ("coherence_bruteforce",),
                                       _gram_gflop),
    "coherence.cluster_complex": ("coherence", ("cluster_complex",),
                                  _cluster_values),
    "coherence.analyze": ("coherence", ("analyze",), None),
    "sl2.sl2_report": ("sl2", ("sl2_report",), None),
    "cli.main": ("cli", ("main",), None),
}
# span name -> label taken from the arguments when the call starts, so that
# a call that raises is labelled too
LABELS = {"cli.main": _subcommand}

# inclusive time of these spans inside analyze is its dense share
DENSE = ("frames.materialize", "coherence.tightness_residual",
         "coherence.average_coherence", "coherence.coherence_bruteforce")


class Recorder:
    """Records spans for calls made inside ``operation()``."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []
        self._op: str | None = None
        self._t0 = time.perf_counter()

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [mod for name, mod in sys.modules.items()
                   if name == "groupframes"
                   or name.startswith("groupframes.")]
        for span_name, (home, funcs, measure) in TARGETS.items():
            home_mod = sys.modules[f"groupframes.{home}"]
            for func in funcs:
                original = getattr(home_mod, func)
                wrapper = self._wrap(span_name, original, measure)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    @contextmanager
    def operation(self, op_id: str):
        self._op = op_id
        try:
            yield
        finally:
            self._op = None

    def _wrap(self, name, fn, measure):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1]["id"] if self._stack else None
            span = {"id": len(self.spans), "name": name, "parent": parent,
                    "op": self._op, "start": time.perf_counter() - self._t0}
            if name in LABELS:
                span["label"] = LABELS[name](args, kwargs)
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["end"] = time.perf_counter() - self._t0
                span["error"] = type(exc).__name__
                raise
            finally:
                self._stack.pop()
            span["end"] = time.perf_counter() - self._t0
            if measure is not None:
                span.update(measure(args, kwargs, result))
            return result
        return wrapper

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-run sums of the per-layer metrics over a list of spans.

    Self time is a span's duration minus the time its child spans cover.
    Calls, cells and failures of ``frames.build`` count only outermost
    builds, since a Hadamard build wraps a field build.
    """
    by_id = {s["id"]: s for s in spans}
    child_ms: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_ms[s["parent"]] = (child_ms.get(s["parent"], 0.0)
                                     + _dur_ms(s))

    def outermost(s):
        parent = by_id.get(s["parent"])
        return parent is None or parent["name"] != s["name"]

    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for name in TARGETS:
        add(f"{name}.self_ms", 0.0)
        add(f"{name}.calls", 0)
        add(f"{name}.failed", 0)
    for s in spans:
        name = s["name"]
        self_ms = _dur_ms(s) - child_ms.get(s["id"], 0.0)
        add(f"{name}.self_ms", self_ms)
        if "label" in s:
            add(f"{name}.{s['label']}.self_ms", self_ms)
        if not outermost(s):
            continue
        add(f"{name}.calls", 1)
        add(f"{name}.failed", 1 if "error" in s else 0)
        for key in ("table_mb", "cells", "mb", "gflop", "values"):
            if key in s:
                add(f"{name}.{key}", s[key])

    analyze_ms = sum(_dur_ms(s) for s in spans
                     if s["name"] == "coherence.analyze")
    dense_ms = sum(_dur_ms(s) for s in spans
                   if s["name"] in DENSE and _inside(s, by_id,
                                                     "coherence.analyze"))
    out["coherence.analyze.total_ms"] = analyze_ms
    out["coherence.analyze.dense_share"] = (dense_ms / analyze_ms
                                            if analyze_ms else 0.0)
    return out


def _dur_ms(span) -> float:
    return (span["end"] - span["start"]) * 1e3


def _inside(span, by_id, name) -> bool:
    parent = by_id.get(span["parent"])
    while parent is not None:
        if parent["name"] == name:
            return True
        parent = by_id.get(parent["parent"])
    return False
