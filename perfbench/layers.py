"""Per-layer attribution for the traced run, installed from outside.

Nothing under ``src/`` is edited: the benchmark patches wrappers onto
the layer entry points below for the traced round only and removes
them afterwards.  Each wrapper records a span (name, start, end,
parent) in memory and counts calls; a layer's self time is its span
time minus the time its child spans cover.  Generator entry points
(DES processes) are driven through a proxy that records one span per
resumption, so a span never covers simulated waiting.

A separate cProfile round rolls self time up from modules to the
``repro`` packages, which gives every layer a share even where no
wrapper exists.
"""

from __future__ import annotations

import contextlib
import cProfile
import os
import pstats
import time
from array import array

import numpy as np

from repro.cluster import traffic as cluster_traffic
from repro.cluster.gateway import Gateway
from repro.ebpf.interp import Interpreter
from repro.metrics.registry import Histogram
from repro.mm.address_space import AddressSpace
from repro.mm.frames import FrameAllocator
from repro.mm.page_cache import PageCache
from repro.snapstore.store import SnapStore

clock = time.perf_counter

#: Span probes: (span name, owner, attribute, is_generator).  The span
#: name's prefix is the layer.
SPANS = (
    ("ebpf.run", Interpreter, "run", False),
    ("mm.ra_unbounded", PageCache, "page_cache_ra_unbounded", False),
    ("mm.handle_fault", AddressSpace, "handle_fault", True),
    ("snapstore.stage", SnapStore, "stage", True),
    ("cluster.route", Gateway, "route", False),
    ("cluster.handle", cluster_traffic.TrafficNode, "handle", True),
    ("cluster.calibrate", cluster_traffic, "calibrate_service_times", False),
)

#: Counting-only probes: (counter name, owner, attribute).
COUNTS = (
    ("mm.frame_allocs", FrameAllocator, "alloc"),
    ("metrics.observes", Histogram, "observe"),
)

#: Layers that get a ``<layer>.self_share`` from the profile round, in
#: report order.  ``other`` takes the rest (faults, trace, serve, units,
#: and standard-library time whose caller is not in ``repro``).
SHARE_LAYERS = ("sim", "ebpf", "core", "mm", "kvm", "guest", "storage",
                "snapstore", "baselines", "vmm", "platform", "cluster",
                "workloads", "metrics", "harness", "other")


class SpanRecorder:
    """Spans in flat arrays: cheap to append, written once at the end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def intern(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(clock())
        self.end.append(0.0)
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = clock()
        self.stack.pop()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total and self seconds."""
        n = len(self.start)
        dur = (np.frombuffer(self.end, dtype=np.float64, count=n)
               - np.frombuffer(self.start, dtype=np.float64, count=n))
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        names = np.frombuffer(self.name, dtype=np.int32, count=n)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for name_id, name in enumerate(self.names):
            mask = names == name_id
            out[name] = {"count": int(mask.sum()),
                         "total_s": float(dur[mask].sum()),
                         "self_s": float(self_time[mask].sum())}
        return out

    def write(self, path: str) -> None:
        n = len(self.start)
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32, count=n),
                 parent=np.frombuffer(self.parent, dtype=np.int32, count=n),
                 start=np.frombuffer(self.start, dtype=np.float64, count=n),
                 end=np.frombuffer(self.end, dtype=np.float64, count=n))


def _span_call(rec: SpanRecorder, name: str, fn):
    name_id = rec.intern(name)

    def wrapper(*args, **kwargs):
        index = rec.open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(index)
    return wrapper


def _span_run(rec: SpanRecorder, fn):
    """``Interpreter.run``: a span plus instructions retired."""
    name_id = rec.intern("ebpf.run")
    counts = rec.counts

    def wrapper(*args, **kwargs):
        index = rec.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        counts["ebpf.insns"] = (counts.get("ebpf.insns", 0)
                                + result.insn_count)
        return result
    return wrapper


def _drive(rec: SpanRecorder, name_id: int, gen):
    """Proxy generator: one span per resumption of ``gen``."""
    value = None
    error = None
    while True:
        index = rec.open(name_id)
        try:
            yielded = gen.send(value) if error is None else gen.throw(error)
        except StopIteration as stop:
            rec.close(index)
            return stop.value
        except BaseException:
            rec.close(index)
            raise
        rec.close(index)
        value = error = None
        try:
            value = yield yielded
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # delivered into gen on resumption
            error = exc


def _span_generator(rec: SpanRecorder, name: str, fn):
    name_id = rec.intern(name)

    def wrapper(*args, **kwargs):
        return _drive(rec, name_id, fn(*args, **kwargs))
    return wrapper


def _count_call(counts: dict, name: str, fn):
    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


@contextlib.contextmanager
def _patched(patches):
    """Set ``(owner, attr, value)`` triples; restore them on exit."""
    saved = [(owner, attr, owner.__dict__[attr])
             for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


@contextlib.contextmanager
def traced(rec: SpanRecorder):
    """Install every span and counting probe for the ``with`` body."""
    patches = []
    for name, owner, attr, is_gen in SPANS:
        fn = getattr(owner, attr)
        if name == "ebpf.run":
            wrapper = _span_run(rec, fn)
        elif is_gen:
            wrapper = _span_generator(rec, name, fn)
        else:
            wrapper = _span_call(rec, name, fn)
        patches.append((owner, attr, wrapper))
    for name, owner, attr in COUNTS:
        patches.append((owner, attr,
                        _count_call(rec.counts, name, getattr(owner, attr))))
    with _patched(patches):
        yield


@contextlib.contextmanager
def ebpf_delay(seconds: float):
    """Sensitivity check: busy-wait ``seconds`` after every
    ``Interpreter.run``, inside the ``ebpf.run`` span when traced."""
    run = Interpreter.run

    def delayed_run(*args, **kwargs):
        result = run(*args, **kwargs)
        deadline = clock() + seconds
        while clock() < deadline:
            pass
        return result

    with _patched([(Interpreter, "run", delayed_run)]):
        yield


def _layer_of(func, repro_dir: str) -> str | None:
    filename, _, funcname = func
    if filename.startswith("<bpf:"):
        return "ebpf"
    if filename == __file__:
        # The sensitivity check's delay stands for time eBPF spends.
        return "ebpf" if funcname == "delayed_run" else None
    if filename.startswith(repro_dir):
        rel = filename[len(repro_dir):].split(os.sep)
        return rel[0] if len(rel) > 1 else "other"
    return None


def layer_shares(profile: cProfile.Profile, repro_dir: str) -> dict:
    """Self time per layer as shares summing to 1.

    Time in a function outside ``repro`` (the standard library,
    builtins) goes to the layer of the caller that spent it, so a
    ``heapq.heappush`` made by the engine counts as ``sim``.
    """
    repro_dir = repro_dir.rstrip(os.sep) + os.sep
    stats = pstats.Stats(profile).stats
    seconds = dict.fromkeys(SHARE_LAYERS, 0.0)
    for func, (_, _, self_time, _, callers) in stats.items():
        layer = _layer_of(func, repro_dir)
        if layer is not None:
            seconds[layer if layer in seconds else "other"] += self_time
            continue
        attributed = 0.0
        for caller, edge in callers.items():
            caller_layer = _layer_of(caller, repro_dir)
            if caller_layer in seconds:
                seconds[caller_layer] += edge[2]
                attributed += edge[2]
        seconds["other"] += self_time - attributed
    total = sum(seconds.values())
    return {layer: (value / total if total else 0.0)
            for layer, value in seconds.items()}
