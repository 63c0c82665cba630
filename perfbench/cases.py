"""The benchmark's workloads: inputs made from the seed, and one
operation at a time run on them with its correctness gate.

Every workload holds a fixed set of episodes.  An episode starts from
a pristine copy of its input and runs one operation:

* place-mb — one episode per movebound instance: a full
  ``BonnPlaceFBP.place`` from netlist in to legal placement out;
* eco-mb — one episode per (placed base instance, seeded delta): a
  fresh ``EcoEngine`` on a copy of the base applies the delta.

Because each episode starts from the same state, every repeat of an
operation must give the same position hash.
"""

from __future__ import annotations

import copy
import gc
import os
import random
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.eco import EcoEngine, PlacementDelta
from repro.eco.journal import placement_sha
from repro.geometry import cache as geometry_cache
from repro.legalize import check_legality
from repro.place.bonnplace import BonnPlaceFBP
from repro.workloads import movebound_instance

from layers import Recorder, traced

CHIP = "Erik"
#: REPRO_SCALE of the place-mb instances: Erik is 890 cells at 0.25,
#: and one place takes about 1.8 s on a 2-core machine.  The timer
#: noise of one run is set by how many places it holds: nine places
#: at 0.5 (1.8k cells, 4-6 s each) spread 0.07-0.14 over ten seeds,
#: eighteen at 0.25 spread 0.05
PLACE_SCALE = "0.25"
#: distinct instances placed per run; op_ref_s is their median and hpwl
#: their mean, which damps the seed-to-seed spread of one instance
PLACE_INSTANCES = 20
#: rounds of set-up timed for setup_s (instance generation on
#: place-mb, base generation and placement on eco-mb)
SETUP_ROUNDS = 3
#: REPRO_SCALE of the eco-mb bases: Erik is 1.8k cells at 0.5, and one
#: delta takes about a second.  At 0.25 the incremental solve of one
#: delta of seed 1 failed to legalize and the engine fell back to the
#: full solve, which this gate counts as a failure
ECO_SCALE = "0.5"
ECO_BASES = 2
ECO_DELTAS = 10
ECO_CELLS_PER_DELTA = 5


@dataclass
class OpResult:
    key: str
    seconds: float
    sha: str
    hpwl: float
    error: str = ""
    #: seconds scaled to the reference machine speed (run.py)
    ref_seconds: float = 0.0


def _cold_geometry_cache() -> None:
    # A `repro place` process starts with an empty geometry cache; the
    # module-level store would otherwise carry one episode's geometry
    # into the next repeat of the same instance.
    geometry_cache._stores.clear()


def _timed(recorder: Optional[Recorder], fn: Callable, *args):
    # the copy that set up this episode left garbage; collect it here
    # so that no operation pays for a collection of it
    gc.collect()
    if recorder is None:
        t0 = time.perf_counter()
        out = fn(*args)
        return out, time.perf_counter() - t0
    with traced(recorder):
        t0 = time.perf_counter()
        out = recorder.op(fn, *args)
        return out, time.perf_counter() - t0


class PlaceWorkload:
    """Full placements of PLACE_INSTANCES movebound instances."""

    def __init__(self) -> None:
        self.instances: list = []

    @property
    def episodes(self) -> int:
        return len(self.instances)

    def setup(self, seed: int, scale: Callable[[float], float]) -> List[float]:
        """Make the instances; returns the time of each generation,
        passed through ``scale`` as soon as it is measured."""
        os.environ["REPRO_SCALE"] = PLACE_SCALE
        times = []
        for _ in range(SETUP_ROUNDS):
            self.instances = []
            for i in range(PLACE_INSTANCES):
                t0 = time.perf_counter()
                inst = movebound_instance(CHIP, seed=seed * PLACE_INSTANCES + i)
                times.append(scale(time.perf_counter() - t0))
                self.instances.append(inst)
        return times

    def episode(self, i: int, recorder: Optional[Recorder]) -> OpResult:
        inst = self.instances[i]
        netlist, bounds = copy.deepcopy((inst.netlist, inst.bounds))
        _cold_geometry_cache()
        key = f"instance{i}"
        try:
            result, seconds = _timed(recorder, BonnPlaceFBP().place,
                                     netlist, bounds)
        except Exception as exc:  # counted as a failed operation
            return OpResult(key, 0.0, "", 0.0, f"{type(exc).__name__}: {exc}")
        error = ""
        if not (result.legality.is_legal
                and check_legality(netlist, bounds).is_legal):
            error = "illegal placement"
        return OpResult(key, seconds, placement_sha(netlist),
                        netlist.hpwl(), error)


def _make_deltas(rng: random.Random, netlist) -> List[PlacementDelta]:
    """Movebound deltas in the style of ``bench_incremental._mk_delta``:
    each adds one bound, a fifth of the die wide and high at one of 16
    grid offsets, and moves a few cells into it.  The seed picks the
    offsets and the cells.

    The bound's edges are snapped to rows and sites, as a real
    movebound's are.  A bound whose edge cuts a row in half can leave
    row segments no cell fits in, and then the full re-solve fails to
    legalize as well and the delta is rolled back."""
    die = netlist.die
    w, h = die.x_hi - die.x_lo, die.y_hi - die.y_lo

    def x(frac: float) -> float:
        return die.x_lo + round(frac * w / netlist.site_width) * netlist.site_width

    def y(frac: float) -> float:
        return die.y_lo + round(frac * h / netlist.row_height) * netlist.row_height

    movable = [c.name for c in netlist.cells if not c.fixed]
    deltas = []
    for j in range(ECO_DELTAS):
        k = rng.randrange(16)
        fx, fy = 0.05 + 0.20 * (k % 4), 0.05 + 0.20 * (k // 4)
        rect = [x(fx), y(fy), x(fx + 0.20), y(fy + 0.20)]
        deltas.append(PlacementDelta.from_dict(
            {"movebounds": [{"name": f"eco_mb{j}", "rects": [rect],
                             "cells": rng.sample(movable, ECO_CELLS_PER_DELTA)}]}))
    return deltas


class EcoWorkload:
    """Seeded movebound deltas, each applied through a fresh EcoEngine
    to a copy of a placed movebound instance.

    The bases are the same instances for every seed; the seed picks
    the deltas.  A delta's cost is set mostly by the full legalization
    of its base: the same deltas took 30% longer on one seeded base
    than on another, so with seeded bases op_ref_s would follow the
    two bases a run happened to get.

    Deltas are applied one per engine, not accumulated: in a sequence
    each added bound makes the next delta slower, and after a few
    overlapping bounds the incremental solve falls back to a full
    re-solve."""

    def __init__(self, journal_root: str) -> None:
        self.journal_root = journal_root
        self.bases: list = []
        self.deltas: list = []

    @property
    def episodes(self) -> int:
        return len(self.bases) * ECO_DELTAS

    def setup(self, seed: int, scale: Callable[[float], float]) -> List[float]:
        """Make and place the bases, SETUP_ROUNDS times over; returns
        the time of each, passed through ``scale`` as soon as it is
        measured."""
        os.environ["REPRO_SCALE"] = ECO_SCALE
        times = []
        for _ in range(SETUP_ROUNDS):
            self.bases = []
            for b in range(ECO_BASES):
                t0 = time.perf_counter()
                inst = movebound_instance(CHIP, seed=b)
                placer = BonnPlaceFBP()
                result = placer.place(inst.netlist, inst.bounds)
                times.append(scale(time.perf_counter() - t0))
                if not result.legality.is_legal:
                    raise RuntimeError(f"base {b} placement is illegal")
                self.bases.append((inst.netlist, inst.bounds, placer))
        self.deltas = [_make_deltas(random.Random(seed * ECO_BASES + b),
                                    netlist)
                       for b, (netlist, _, _) in enumerate(self.bases)]
        return times

    def episode(self, e: int, recorder: Optional[Recorder]) -> OpResult:
        b, j = divmod(e, ECO_DELTAS)
        netlist, bounds, placer = copy.deepcopy(self.bases[b])
        _cold_geometry_cache()
        key = f"base{b}/delta{j}"
        with tempfile.TemporaryDirectory(dir=self.journal_root) as run_dir:
            engine = EcoEngine(netlist, bounds, placer=placer,
                               run_dir=run_dir)
            try:
                eco, seconds = _timed(recorder, engine.apply,
                                      self.deltas[b][j])
            except Exception as exc:  # counted as a failed operation
                return OpResult(key, 0.0, "", 0.0,
                                f"{type(exc).__name__}: {exc}")
        error = ""
        if eco.mode != "eco":
            error = f"mode {eco.mode}: {eco.fallback_reason}"
        elif not (eco.placement.legality.is_legal
                  and check_legality(netlist, engine.bounds).is_legal):
            error = "illegal placement"
        return OpResult(key, seconds, placement_sha(netlist),
                        netlist.hpwl(), error)


def make_workload(name: str, journal_root: str):
    if name == "eco-mb":
        return EcoWorkload(journal_root)
    return PlaceWorkload()
