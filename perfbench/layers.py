"""Per-layer tracing from outside the placer.

A traced run wraps the public entry point of each layer in a span
recorder, runs the operation, and restores the originals.  Each name
is patched in every ``repro`` module that holds it (a module that did
``from repro.qp import solve_qp`` looks the name up in its own
namespace, so patching only the defining module would miss that
caller).  Spans stay in memory with their parent and are written once,
at the end of the run.

A span's self time is its wall time minus the wall time of the spans
nested directly in it.  The operation's dark time is its wall time not
covered by any wrapped call.  Counter metrics are the change in the
public ``get_tracer().counters`` across a wrapped call.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs import get_tracer

#: layer -> (owning module, attribute or Class.method, counters read
#: across each call).  The layer name prefixes the metric names below.
WRAPPED: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "flows.solve": ("repro.fbp.model", "FBPModel.solve",
                    ("mcf.pivots", "ns.degenerate_pivots")),
    "fbp.build": ("repro.fbp.model", "build_fbp_model", ()),
    "fbp.realize": ("repro.fbp.realization", "realize_flow",
                    ("realize.windows", "realize.trivial_windows")),
    "qp.solve": ("repro.qp.solver", "solve_qp", ("qp.cg_iters",)),
    "partitioning.repartition": ("repro.partitioning.repartition",
                                 "repartition_pass", ()),
    "partitioning.enforce": ("repro.partitioning.repartition",
                             "enforce_blocks", ()),
    "partitioning.transport": ("repro.partitioning.transport",
                               "partition_cells",
                               ("transport.solves", "transport.infeasible")),
    "legalize.region": ("repro.legalize.region",
                        "legalize_with_movebounds", ()),
    "legalize.abacus": ("repro.legalize.abacus", "abacus_legalize", ()),
    "legalize.detailed": ("repro.legalize.detailed", "detailed_place", ()),
    "feasibility.check": ("repro.feasibility.check", "check_feasibility", ()),
    "legalize.check": ("repro.legalize.checks", "check_legality", ()),
    "eco.journal": ("repro.eco.journal", "DeltaJournal.commit", ()),
}

#: counters read across the whole operation (place or apply)
OP_COUNTERS = ("cache.hit", "cache.miss", "eco.fallbacks",
               "eco.transactions")

OP = "op"


@dataclass
class Span:
    layer: str
    parent: Optional[int]
    wall_s: float = 0.0
    child_s: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)


class Recorder:
    """Span store of one traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def call(self, layer: str, counters: Tuple[str, ...],
             fn: Callable, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        span = Span(layer, parent)
        self.spans.append(span)
        self._stack.append(sid)
        ctr = get_tracer().counters
        before = [ctr.get(c, 0.0) for c in counters]
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.wall_s = time.perf_counter() - t0
            ctr = get_tracer().counters
            span.counters = {
                c: ctr.get(c, 0.0) - b for c, b in zip(counters, before)
            }
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += span.wall_s

    def op(self, fn: Callable, *args, **kwargs):
        """Run one benchmark operation as a root span."""
        return self.call(OP, OP_COUNTERS, fn, *args, **kwargs)

    def to_json(self) -> List[dict]:
        return [
            {"id": i, "parent": s.parent, "layer": s.layer,
             "wall_s": s.wall_s, "self_s": s.wall_s - s.child_s,
             "counters": s.counters}
            for i, s in enumerate(self.spans)
        ]


def _resolve(module: str, attr: str) -> Tuple[object, str, Callable]:
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr, getattr(owner, attr)


def _repro_modules() -> List[object]:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


@contextmanager
def traced(recorder: Recorder) -> Iterator[Recorder]:
    """Patch every wrapped layer for the duration of the block."""
    swaps: List[Tuple[object, str, Callable]] = []
    for layer, (module, attr, counters) in WRAPPED.items():
        owner, name, orig = _resolve(module, attr)

        def wrapper(*args, _layer=layer, _counters=counters, _fn=orig,
                    **kwargs):
            return recorder.call(_layer, _counters, _fn, *args, **kwargs)

        if isinstance(owner, type):
            swaps.append((owner, name, orig))
            setattr(owner, name, wrapper)
            continue
        for mod in _repro_modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    swaps.append((mod, key, orig))
                    setattr(mod, key, wrapper)
    try:
        yield recorder
    finally:
        for owner, name, orig in reversed(swaps):
            setattr(owner, name, orig)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
@dataclass
class OpStats:
    """One traced operation, folded from its span subtree."""

    wall_s: float
    dark_s: float
    self_s: Dict[str, float]
    calls: Dict[str, int]
    counters: Dict[str, float]  # "layer:counter" and "op:counter"


def fold_ops(recorder: Recorder) -> List[OpStats]:
    """Per-operation totals.  A counter is summed only over calls that
    are not nested in a call of the same layer, so a re-entrant layer
    is not counted twice."""
    spans = recorder.spans
    ops: List[OpStats] = []
    owner: Dict[int, OpStats] = {}
    for sid, s in enumerate(spans):
        if s.layer == OP:
            st = OpStats(s.wall_s, s.wall_s - s.child_s, {}, {},
                         {f"{OP}:{k}": v for k, v in s.counters.items()})
            ops.append(st)
            owner[sid] = st
            continue
        st = owner[s.parent]
        owner[sid] = st
        st.self_s[s.layer] = st.self_s.get(s.layer, 0.0) + s.wall_s - s.child_s
        st.calls[s.layer] = st.calls.get(s.layer, 0) + 1
        p = s.parent
        while spans[p].layer != OP and spans[p].layer != s.layer:
            p = spans[p].parent
        if spans[p].layer == s.layer:
            continue
        for k, v in s.counters.items():
            key = f"{s.layer}:{k}"
            st.counters[key] = st.counters.get(key, 0.0) + v
    return ops


def _med(ops: List[OpStats], get: Callable[[OpStats], float]) -> float:
    return statistics.median(get(o) for o in ops)


def _share(ops: List[OpStats], num: str, den: Tuple[str, ...]) -> float:
    n = sum(o.counters.get(num, 0.0) for o in ops)
    d = sum(o.counters.get(k, 0.0) for o in ops for k in den)
    return n / d if d else 0.0


def _self(layer: str):
    return lambda ops: _med(ops, lambda o: o.self_s.get(layer, 0.0))


def _count(key: str):
    return lambda ops: _med(ops, lambda o: o.counters.get(key, 0.0))


def _calls(layer: str):
    return lambda ops: _med(ops, lambda o: float(o.calls.get(layer, 0)))


@dataclass(frozen=True)
class LayerMetric:
    name: str
    compute: Callable[[List[OpStats]], float]
    #: the end-to-end metric this layer should move, and on which
    #: workloads; "none on X" is a predicted no-change
    moves: str
    on: str


# ``op_ref_s`` is one full place on place-mb and one
# EcoEngine.apply on eco-mb.
LAYER_METRICS: List[LayerMetric] = [
    LayerMetric("flows.solve_s", _self("flows.solve"), "op_ref_s",
                "place-mb; none on eco-mb"),
    LayerMetric("flows.pivots", _count("flows.solve:mcf.pivots"), "op_ref_s",
                "place-mb; none on eco-mb"),
    LayerMetric("flows.degenerate_share",
                lambda ops: _share(ops, "flows.solve:ns.degenerate_pivots",
                                   ("flows.solve:mcf.pivots",)),
                "op_ref_s", "place-mb"),
    LayerMetric("fbp.build_s", _self("fbp.build"), "op_ref_s, peak_rss_mb",
                "place-mb"),
    LayerMetric("fbp.realize_s", _self("fbp.realize"), "op_ref_s",
                "place-mb"),
    LayerMetric("fbp.trivial_share",
                lambda ops: _share(ops, "fbp.realize:realize.trivial_windows",
                                   ("fbp.realize:realize.windows",)),
                "op_ref_s", "place-mb"),
    LayerMetric("qp.solve_s", _self("qp.solve"), "op_ref_s",
                "all"),
    LayerMetric("qp.cg_iters", _count("qp.solve:qp.cg_iters"), "op_ref_s",
                "all"),
    LayerMetric("qp.solve_calls", _calls("qp.solve"), "op_ref_s",
                "all"),
    LayerMetric("partitioning.repartition_s",
                _self("partitioning.repartition"), "op_ref_s",
                "place-mb"),
    LayerMetric("partitioning.enforce_s", _self("partitioning.enforce"),
                "op_ref_s", "eco-mb"),
    LayerMetric("partitioning.transport_s",
                _self("partitioning.transport"), "op_ref_s",
                "eco-mb, place-mb"),
    LayerMetric("partitioning.transport_solves",
                _count("partitioning.transport:transport.solves"), "op_ref_s",
                "eco-mb, place-mb"),
    LayerMetric("partitioning.infeasible_share",
                lambda ops: _share(
                    ops, "partitioning.transport:transport.infeasible",
                    ("partitioning.transport:transport.solves",)),
                "op_ref_s", "eco-mb, place-mb"),
    LayerMetric("legalize.region_s", _self("legalize.region"), "op_ref_s",
                "all"),
    LayerMetric("legalize.abacus_s", _self("legalize.abacus"), "op_ref_s",
                "all"),
    LayerMetric("legalize.abacus_calls", _calls("legalize.abacus"), "op_ref_s",
                "all"),
    LayerMetric("legalize.detailed_s", _self("legalize.detailed"), "op_ref_s",
                "all"),
    LayerMetric("legalize.detailed_calls", _calls("legalize.detailed"),
                "op_ref_s", "all"),
    LayerMetric("feasibility.check_s", _self("feasibility.check"), "op_ref_s",
                "all"),
    LayerMetric("legalize.check_s", _self("legalize.check"), "op_ref_s", "all"),
    LayerMetric("geometry.cache_hit_share",
                lambda ops: _share(ops, "op:cache.hit",
                                   ("op:cache.hit", "op:cache.miss")),
                "op_ref_s", "place-mb"),
    LayerMetric("eco.journal_s", _self("eco.journal"), "op_ref_s", "eco-mb"),
    LayerMetric("eco.fallback_share",
                lambda ops: _share(ops, "op:eco.fallbacks",
                                   ("op:eco.transactions",)),
                "op_ref_s", "eco-mb"),
    LayerMetric("place.dark_s", lambda ops: _med(ops, lambda o: o.dark_s),
                "every timing", "all"),
    LayerMetric("place.dark_share",
                lambda ops: sum(o.dark_s for o in ops)
                / sum(o.wall_s for o in ops),
                "every timing", "all"),
]
