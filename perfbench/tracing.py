"""Spans and counters for the traced run.

The wrappers are installed from the benchmark's side, around public
functions and methods of each spindex module, only in a traced worker
process.  A span records name, start, end, parent span and operation id.
Very frequent calls (Gaussian-rational arithmetic, multivector products,
symbol and clutching evaluations) are folded into per-name totals instead of
being stored one by one, so the span list stays small.

Self time of a call is its duration minus the time covered by the wrapped
calls made inside it.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import time
from collections import defaultdict
from typing import Dict, List, Optional

import numpy as np

from spindex import clifford as cl
from spindex import exactnum
from spindex import spin_groups as sg
from spindex import spinors as sp
from spindex import symbols as sy
from spindex import torus_index as ti

# Each per-layer metric, with the end-to-end metric and workload it should
# move.  Units are declared in BENCHMARK.json.  A name ending in ".calls",
# ".s" (inclusive time) or ".self_s" reads the totals of the span named by
# the rest of it; any other name reads a counter of its own.
LAYER_METRICS = {
    "exactnum.calls": "ops_per_s on exact-sparse and spin-cover; torus-index should not move",
    "exactnum.self_s": "ops_per_s on exact-sparse and spin-cover; torus-index should not move",
    "clifford.mul.calls": "ops_per_s and op_p50_ms on exact-sparse",
    "clifford.mul.self_s": "ops_per_s and op_p50_ms on exact-sparse",
    "clifford.mul.term_pairs": "ops_per_s and op_p50_ms on exact-sparse",
    "clifford.inverse.calls": "op_tail_ms on spin-cover",
    "clifford.inverse.s": "op_tail_ms on spin-cover",
    "spin_groups.certify.calls": "ops_per_s on spin-cover",
    "spin_groups.certify.s": "ops_per_s on spin-cover",
    "spin_groups.reject.calls": "op_tail_ms on spin-cover",
    "spin_groups.reject.s": "op_tail_ms on spin-cover",
    "clifford.classify.s": "ops_per_s on modules-symbols",
    "spinors.gamma.s": "ops_per_s on modules-symbols",
    "spinors.decompose.calls": "ops_per_s on modules-symbols",
    "spinors.decompose.s": "ops_per_s on modules-symbols",
    "spinors.grading_switch.s": "ops_per_s on modules-symbols",
    "symbols.abs_group.s": "ops_per_s and op_tail_ms on modules-symbols",
    "symbols.winding.s": "ops_per_s and op_tail_ms on modules-symbols",
    "symbols.winding.clutch_evals": "ops_per_s and op_tail_ms on modules-symbols",
    "symbols.elliptic.s": "ops_per_s and op_tail_ms on modules-symbols",
    "symbols.elliptic.symbol_evals": "ops_per_s and op_tail_ms on modules-symbols",
    "torus_index.assemble.s": "op_p50_ms on torus-index",
    "torus_index.hw_eigh.s": "ops_per_s and op_tail_ms on torus-index",
    "torus_index.kernel_svd.calls": "ops_per_s and op_tail_ms on torus-index",
    "torus_index.kernel_svd.s": "ops_per_s and op_tail_ms on torus-index",
    "torus_index.chirality.s": "ops_per_s and op_tail_ms on torus-index",
    "torus_index.index.self_s": "ops_per_s and op_tail_ms on torus-index",
    "torus_index.dense_n3": "ops_per_s, op_tail_ms and peak_rss_mb on torus-index",
    "torus_index.spectral_flow.s": "ops_per_s on torus-index",
    "torus_index.spectral_flow.eigs": "ops_per_s on torus-index",
    "torus_index.typed_errors": "failed_share on torus-index",
    "trace.overhead_pct": "none: traced run time over plain run time of the same operations, minus 1",
}


class Tracer:
    def __init__(self):
        self.spans: List[list] = []   # [name, start, end, parent index, op id]
        self.stack: List[list] = []   # [name, start, child time, span index]
        self.totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, s, self_s
        self.counts: Dict[str, int] = defaultdict(int)
        self.op_id: Optional[int] = None
        self.patches: List[tuple] = []  # (owner, attribute, original, replacement)

    def push(self, name: str, record: bool = True) -> list:
        index = None
        if record:
            parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op_id])
        frame = [name, time.perf_counter(), 0.0, index]
        self.stack.append(frame)
        return frame

    def pop(self, frame: list, name: Optional[str] = None) -> None:
        end = time.perf_counter()
        self.stack.pop()
        name = name or frame[0]
        duration = end - frame[1]
        total = self.totals[name]
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame[2]
        if self.stack:
            self.stack[-1][2] += duration
        if frame[3] is not None:
            self.spans[frame[3]][:3] = [name, frame[1], end]

    def inside(self, prefix: str) -> bool:
        return any(f[0].startswith(prefix) for f in self.stack)

    def replace(self, owner, attr: str, replacement) -> None:
        self.patches.append((owner, attr, getattr(owner, attr), replacement))
        setattr(owner, attr, replacement)

    def enable(self) -> None:
        for owner, attr, _, replacement in self.patches:
            setattr(owner, attr, replacement)

    def disable(self) -> None:
        for owner, attr, original, _ in reversed(self.patches):
            setattr(owner, attr, original)

    def wrap(self, owner, attr: str, name: str, record: bool = True, on_exit=None) -> None:
        """Replace owner.attr by a traced version; ``on_exit(result, error)``
        may rename the span from its outcome."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.push(name, record)
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                self.pop(frame, on_exit(result, error) if on_exit else None)

        self.replace(owner, attr, traced)

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**extra, "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__", "conjugate")


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer."""
    for attr in _ARITHMETIC:
        tracer.wrap(exactnum.GaussianRational, attr, "exactnum", record=False)

    mul = cl.Multivector.__mul__

    def traced_mul(x, y):
        if isinstance(y, cl.Multivector):
            tracer.counts["clifford.mul.term_pairs"] += len(x.terms()) * len(y.terms())
        frame = tracer.push("clifford.mul", record=False)
        try:
            return mul(x, y)
        finally:
            tracer.pop(frame)

    tracer.replace(cl.Multivector, "__mul__", traced_mul)
    tracer.wrap(cl.Multivector, "inverse", "clifford.inverse")
    tracer.wrap(cl, "classify_real", "clifford.classify")
    tracer.wrap(cl, "classify_complex", "clifford.classify")

    tracer.wrap(sg.SpinElement, "__init__", "spin_groups.certify",
                on_exit=lambda res, err: "spin_groups.reject" if err else None)
    tracer.wrap(sg, "is_in_spin", "spin_groups.certify",
                on_exit=lambda cert, err: "spin_groups.reject" if err or not cert.ok else None)

    tracer.wrap(sp, "gamma_matrices", "spinors.gamma")
    tracer.wrap(sp, "decompose_module", "spinors.decompose")
    tracer.wrap(sp, "graded_to_ungraded", "spinors.grading_switch")
    tracer.wrap(sp, "ungraded_to_graded", "spinors.grading_switch")

    tracer.wrap(sy, "abs_group", "symbols.abs_group")
    tracer.wrap(sy, "is_elliptic", "symbols.elliptic")
    _count_calls(tracer, sy.SymbolPolynomial, "evaluate", "symbols.elliptic.symbol_evals")
    winding = sy.winding_number

    def counted_winding(sc, *args, **kwargs):
        clutch = sc.clutching

        def counted(v):
            tracer.counts["symbols.winding.clutch_evals"] += 1
            return clutch(v)

        sc = copy.copy(sc)
        object.__setattr__(sc, "clutching", counted)
        return winding(sc, *args, **kwargs)

    tracer.replace(sy, "winding_number", counted_winding)
    tracer.wrap(sy, "winding_number", "symbols.winding")

    tracer.wrap(ti, "build_torus_dirac", "torus_index.assemble")
    tracer.wrap(ti, "gauge_transform", "torus_index.assemble")
    tracer.wrap(ti.LatticeOperator, "overlap", "torus_index.hw_eigh")
    tracer.wrap(ti, "kernel_dimension", "torus_index.kernel_svd")
    # the overlap class is private; its chirality method is the stage to time
    tracer.wrap(ti._Overlap, "zero_mode_chiralities", "torus_index.chirality")
    tracer.wrap(ti, "index", "torus_index.index")
    tracer.wrap(ti, "disjoint_union_index", "torus_index.disjoint_union")
    flow = ti.spectral_flow

    def counted_flow(fam):
        build = fam.builder

        def counted(t):
            tracer.counts["torus_index.spectral_flow.eigs"] += 1
            return build(t)

        return flow(dataclasses.replace(fam, builder=counted))

    tracer.replace(ti, "spectral_flow", counted_flow)
    tracer.wrap(ti, "spectral_flow", "torus_index.spectral_flow")

    for attr, cube in (("eigh", _square_cube), ("eigvalsh", _square_cube),
                       ("svd", _svd_cube)):
        _count_dense(tracer, attr, cube)


def _square_cube(a) -> int:
    shape = np.shape(a)
    return int(np.prod(shape[:-2], dtype=np.int64)) * shape[-1] ** 3


def _svd_cube(a) -> int:
    *batch, m, n = np.shape(a)
    return int(np.prod(batch, dtype=np.int64)) * m * n * min(m, n)


def _count_dense(tracer: Tracer, attr: str, cube) -> None:
    """Add n^3 of every dense decomposition made inside a torus_index call."""
    fn = getattr(np.linalg, attr)

    @functools.wraps(fn)
    def counted(a, *args, **kwargs):
        if tracer.inside("torus_index."):
            tracer.counts["torus_index.dense_n3"] += cube(a)
        return fn(a, *args, **kwargs)

    tracer.replace(np.linalg, attr, counted)


def _count_calls(tracer: Tracer, owner, attr: str, name: str) -> None:
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.counts[name] += 1
        return fn(*args, **kwargs)

    tracer.replace(owner, attr, counted)


_TOTAL_FIELDS = {"calls": 0, "s": 1, "self_s": 2}   # index into Tracer.totals


def layer_metrics(tracer: Tracer, given: Dict[str, float]) -> Dict[str, float]:
    """Every LAYER_METRICS value: from ``given``, else read off its name."""
    values = {}
    for name in LAYER_METRICS:
        span, _, field = name.rpartition(".")
        if name in given:
            values[name] = given[name]
        elif field in _TOTAL_FIELDS:
            values[name] = tracer.totals[span][_TOTAL_FIELDS[field]]
        else:
            values[name] = tracer.counts[name]
    return values
