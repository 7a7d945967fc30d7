"""Regeneration of every table and figure in the paper's evaluation.

Each figure is one :class:`Figure` record in :data:`FIGURE_MATRIX`: the
approaches it compares, the axes it sweeps, the builder that turns one
cell into a :class:`~repro.harness.spec.ScenarioSpec`, and the values it
reads from each result.  :func:`figure_specs` enumerates a figure's
cells for a parallel sweep and :func:`build_figure` reads the very same
cells back into a :class:`FigureData`, so the two can never disagree.
A shared :class:`~repro.harness.experiment.ResultCache` lets Figure 3b
and 3c reuse the same concurrent runs, exactly as the paper measures
latency and memory from one experiment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.baselines.base import approach_registry
from repro.cluster.spec import ClusterSpec
from repro.harness.experiment import ResultCache
from repro.snapstore.spec import SnapStoreSpec
from repro.workloads.traffic import TrafficSpec
from repro.harness.spec import ScenarioSpec
from repro.units import GIB, MIB, PAGE_SIZE
from repro.workloads.profile import FUNCTIONS, FunctionProfile, profile_by_name

# Ensure all approaches (incl. repro.core's) are registered on import.
import repro.baselines  # noqa: F401
import repro.core  # noqa: F401

#: Number of concurrent instances in the Figure 3b/3c experiments.
CONCURRENT_INSTANCES = 10


def cluster_cell_spec(profile: FunctionProfile, approach: str,
                      policy: str, n_nodes: int,
                      **cluster_kwargs) -> ScenarioSpec:
    """The canonical spec for one cluster-figure cell."""
    return ScenarioSpec(
        function=profile, approach=approach,
        cluster=ClusterSpec(n_nodes=n_nodes, policy=policy,
                            **cluster_kwargs))


#: The committed traffic-figure workload and fleet shape: 10k
#: functions, ~1.3M total invocations across the 4 approaches x 2
#: keep-alive cells, slots sized so the slowest approach, linux-ra cold
#: starts, fits below capacity outside bursts.  Keyed by ``quick``: the
#: ``True`` entry is a CI-sized shrink of the same shape.
TRAFFIC_WORKLOADS: dict[bool, dict] = {
    False: dict(traffic=TrafficSpec(
        n_functions=10_000, n_tenants=8, total_rps=2500.0, duration=60.0,
        diurnal_period=40.0, n_bursts=6, burst_multiplier=3.0,
        burst_duration=5.0), n_nodes=48, overflow_inflight=32),
    True: dict(traffic=TrafficSpec(
        n_functions=400, n_tenants=4, total_rps=80.0, duration=10.0,
        diurnal_period=8.0, n_bursts=2, burst_multiplier=3.0,
        burst_duration=2.0), n_nodes=3, overflow_inflight=8),
}


def traffic_cell_spec(profile: FunctionProfile, approach: str,
                      keepalive: str,
                      traffic: TrafficSpec | None = None,
                      quick: bool = False,
                      **cluster_kwargs) -> ScenarioSpec:
    """The canonical spec for one traffic-figure cell."""
    kwargs = {**TRAFFIC_WORKLOADS[quick], **cluster_kwargs}
    if traffic is not None:
        kwargs["traffic"] = traffic
    return ScenarioSpec(
        function=profile, approach=approach,
        cluster=ClusterSpec(keepalive=keepalive, **kwargs))

#: The storage figure's tier axis: snapstore configurations swept
#: against the flat-file baseline.  ``local`` is the identity
#: configuration (results byte-identical to ``flat``); ``tiered`` caps
#: the local tier so demotion to the HDD tier actually happens.
STORAGE_TIERS: dict[str, SnapStoreSpec | None] = {
    "flat": None,
    "local": SnapStoreSpec(),
    "base-local": SnapStoreSpec(placement="base-local"),
    "tiered": SnapStoreSpec(placement="base-local", hdd_tier=True,
                            local_capacity_bytes=256 * MIB),
    "remote": SnapStoreSpec(placement="remote"),
}

STORAGE_NODE_COUNT = 4


def storage_cell_spec(profile: FunctionProfile, approach: str,
                      tier: str, policy: str,
                      n_nodes: int = STORAGE_NODE_COUNT,
                      **cluster_kwargs) -> ScenarioSpec:
    """The canonical spec for one storage-figure cell."""
    if tier not in STORAGE_TIERS:
        raise ValueError(f"unknown tier config {tier!r}; choose from "
                         f"{list(STORAGE_TIERS)}")
    return ScenarioSpec(
        function=profile, approach=approach,
        snapstore=STORAGE_TIERS[tier],
        cluster=ClusterSpec(n_nodes=n_nodes, policy=policy,
                            **cluster_kwargs))


#: Approaches whose restore installs private anonymous frames via
#: userfaultfd (per-VM, unreclaimable) rather than shared page-cache
#: pages.  Used to compose the memory-pressure figure and to size pools.
UFFD_APPROACHES = ("reap", "faast")

#: Frame-pool headroom factors for the memory-pressure figure: 1.0
#: leaves the full reclaimable set resident, 0.25 forces the kernel to
#: shed three quarters of it.  REAP's pool is sized by the same formula
#: but its reclaimable set is empty — its frames are pinned anonymous.
MEM_HEADROOMS = (1.0, 0.25)


def pressure_ram_bytes(profile: FunctionProfile, approach: str,
                       n_instances: int, headroom: float) -> int:
    """Frame-pool size that leaves ``headroom`` of the run's reclaimable
    pages worth of room above its unreclaimable footprint.

    The unreclaimable floor is composed per approach: userfaultfd
    restores pin ``n x (ws + alloc)`` anonymous frames; page-cache
    restores pin ``n x (alloc + written)`` anonymous frames (runtime
    allocations plus CoW copies of written pages) plus the still-mapped
    ``ws - written`` file pages shared by all instances.  The reclaimable
    set is the file pages whose last mapping went away (CoW-released
    written pages) — or, for uffd, the spent record-phase cache fill.
    """
    ws = profile.ws_pages
    alloc = profile.alloc_pages
    written = int(ws * profile.write_frac)
    if approach in UFFD_APPROACHES:
        anon = n_instances * (ws + alloc)
        pinned_file = 0
        reclaimable = ws
    else:
        anon = n_instances * (alloc + written)
        pinned_file = ws - written
        reclaimable = written
    slack = 256  # allocator churn: in-flight fills, transient CoW pairs
    return (anon + pinned_file + int(reclaimable * headroom)
            + slack) * PAGE_SIZE


def host_cell_spec(profile: FunctionProfile, approach: str,
                   n_instances: int = 1,
                   headroom: float | None = None) -> ScenarioSpec:
    """The canonical spec for one single-host cell; ``headroom`` sizes a
    pressured frame pool with :func:`pressure_ram_bytes`."""
    ram_bytes = (None if headroom is None else
                 pressure_ram_bytes(profile, approach, n_instances, headroom))
    return ScenarioSpec(function=profile, approach=approach,
                        n_instances=n_instances, ram_bytes=ram_bytes)


@dataclass
class FigureData:
    """One regenerated figure: functions x series -> value."""

    figure: str
    ylabel: str
    functions: list[str]
    series: dict[str, list[float]] = field(default_factory=dict)
    notes: str = ""

    def value(self, function: str, series: str) -> float:
        return self.series[series][self.functions.index(function)]

    def as_rows(self) -> list[list[str]]:
        header = ["function"] + list(self.series)
        rows = [header]
        for i, function in enumerate(self.functions):
            rows.append([function] + [f"{self.series[s][i]:.3f}"
                                      for s in self.series])
        return rows


@dataclass(frozen=True)
class Axis:
    """One swept axis beyond function x approach: the cell-builder
    keyword it feeds, its default values, and its label format."""

    name: str
    values: tuple
    label: str = "{}"
    #: The label names the series instead of the row.
    column: bool = False

    def parse(self, text: str) -> tuple:
        """Comma-separated values, typed like the defaults."""
        kind = type(self.values[0])
        try:
            return tuple(kind(value) for value in text.split(","))
        except ValueError:
            raise ValueError(f"{self.name} takes comma-separated "
                             f"{kind.__name__} values, got {text!r}") from None


@dataclass(frozen=True)
class Metric:
    """One value read from each cell: ``read(spec, result)``."""

    read: Callable
    label: str = ""


def _extra(key: str, label: str = "", scale: float = 1.0) -> Metric:
    """A ``ScenarioResult.extra`` value; 0.0 where a cell does not
    report it (flat-file cells carry no snapstore keys)."""
    return Metric(lambda _spec, result: result.extra.get(key, 0.0) * scale,
                  label)


class Cell(NamedTuple):
    """One scenario cell of a figure; ``index`` is the profile's
    position, so a repeated function keeps its own rows."""

    index: int
    profile: FunctionProfile
    approach: str
    values: tuple
    spec: ScenarioSpec


@dataclass(frozen=True)
class Figure:
    """One figure: the cells it runs and the values it plots.

    Cells are every function x approach x axis value, built by
    ``cell(profile, approach, **axis values, **settings)``.  Rows are
    functions x row axes (x metrics when there are several); series are
    approaches x column axes, or the metrics with ``metric_series``.
    """

    approaches: tuple[str, ...]
    ylabel: str
    metrics: tuple[Metric, ...]
    cell: Callable[..., ScenarioSpec] = host_cell_spec
    #: Builder keywords every cell gets, e.g. ``n_instances``; a plane
    #: command's flags add to and override them.
    settings: dict = field(default_factory=dict)
    axes: tuple[Axis, ...] = ()
    #: Every series is divided, row by row, by this approach's series.
    normalize: str | None = None
    notes: str = ""
    #: Default base functions (``None``: all of :data:`FUNCTIONS`).
    functions: tuple[str, ...] | None = None
    #: The metrics, not the approaches, name the series.
    metric_series: bool = False
    approach_label: Callable[[str], str] = str
    #: Builder keywords of the plane command's ``--quick`` workload.
    quick: dict = field(default_factory=dict)
    #: ``summary(spec, result)``: the text after ``fn/approach [axis
    #: values]: `` in the plane command's per-cell summary block.
    summary: Callable | None = None

    def axis(self, name: str) -> Axis:
        return next(axis for axis in self.axes if axis.name == name)

    def cells(self, functions=None, approaches=None, **axes) -> list[Cell]:
        """Every cell in sweep order.  A keyword naming an axis replaces
        its values; any other keyword goes to the cell builder."""
        values = [axes.pop(axis.name, axis.values) for axis in self.axes]
        names = [axis.name for axis in self.axes]
        settings = {**self.settings, **axes}
        profiles = _profiles(self.functions if functions is None
                             else functions)
        return [Cell(i, profile, approach, combo,
                     self.cell(profile, approach, **dict(zip(names, combo)),
                               **settings))
                for i, profile in enumerate(profiles)
                for approach in (approaches or self.approaches)
                for combo in itertools.product(*values)]

    def _labels(self, cell: Cell, metric: Metric) -> tuple[str, str]:
        row, series = [cell.profile.name], [self.approach_label(cell.approach)]
        for axis, value in zip(self.axes, cell.values):
            (series if axis.column else row).append(axis.label.format(value))
        if self.metric_series:
            series = [metric.label]
        elif len(self.metrics) > 1:
            row.append(metric.label)
        return " ".join(row), " ".join(series)

    def build(self, name: str, cache: ResultCache, functions=None,
              **axes) -> FigureData:
        """Read every cell from ``cache`` once, in :meth:`cells` order."""
        rows: dict[tuple, str] = {}
        table: dict[str, dict[tuple, float]] = {}
        for cell in self.cells(functions, **axes):
            result = cache.get(cell.spec)
            for metric in self.metrics:
                row, series = self._labels(cell, metric)
                rows.setdefault((cell.index, row), row)
                table.setdefault(series, {})[cell.index, row] = (
                    metric.read(cell.spec, result))
        if self.normalize:
            base = table[self.normalize]
            table = {series: {key: value / base[key]
                              for key, value in column.items()}
                     for series, column in table.items()}
        return FigureData(
            figure=name, ylabel=self.ylabel, functions=list(rows.values()),
            series={series: [column[key] for key in rows]
                    for series, column in table.items()},
            notes=self.notes)

    def summarize(self, cache: ResultCache, functions=None,
                  **axes) -> list[str]:
        """The plane command's per-cell summary block (empty when the
        figure has none)."""
        if self.summary is None:
            return []
        return [f"{cell.profile.name}/{cell.approach} "
                f"[{' '.join(map(str, cell.values))}]: "
                f"{self.summary(cell.spec, cache.get(cell.spec))}"
                for cell in self.cells(functions, **axes)]


def _profiles(functions) -> list[FunctionProfile]:
    if functions is None:
        return list(FUNCTIONS)
    return [p if isinstance(p, FunctionProfile) else profile_by_name(p)
            for p in functions]


_E2E = Metric(lambda _spec, result: result.mean_e2e)


def _map_load(result) -> float:
    return result.extra.get("map_load_seconds", 0.0)


def _footprint(spec: ScenarioSpec, result) -> float:
    """Per-VM anonymous footprint for uffd approaches (pinned), shared
    file-backed footprint for page-cache approaches (reclaimable)."""
    if spec.approach in UFFD_APPROACHES:
        return result.end_anon_bytes / spec.n_instances / GIB
    return result.end_file_bytes / GIB


def _traffic_summary(spec: ScenarioSpec, result) -> str:
    """Cell headline plus the per-tenant SLO table."""
    extra = result.extra
    lines = [f"{extra['traffic_invocations']:.0f} invocations, cold ratio "
             f"{extra['traffic_cold_ratio']:.4f}, p99.9 E2E "
             f"{extra['traffic_p999_e2e'] * 1e3:.1f} ms",
             "  tenant   requests  cold-ratio   p99 e2e p99.9 e2e  p99 cold"]
    for tenant in range(spec.cluster.traffic.n_tenants):
        row = {key: extra[f"slo_t{tenant}_{key}"]
               for key in ("requests", "cold_ratio", "p99_e2e", "p999_e2e",
                           "p99_cold")}
        lines.append(f"  t{tenant:<7d} {row['requests']:8.0f}  "
                     f"{row['cold_ratio']:10.4f} "
                     f"{row['p99_e2e'] * 1e3:8.1f}ms "
                     f"{row['p999_e2e'] * 1e3:8.1f}ms "
                     f"{row['p99_cold'] * 1e3:8.1f}ms")
    return "\n".join(lines)


def _storage_summary(_spec: ScenarioSpec, result) -> str:
    """Dedup factor and bytes per tier of one cell."""
    extra = result.extra
    dedup = extra.get("snapstore_dedup_factor")
    if dedup is None:
        return "flat files (no snapstore)"
    fetched = extra.get("snapstore_remote_fetch_bytes", 0.0)
    return (f"dedup {dedup:.2f}x, unique "
            f"{extra['snapstore_unique_bytes'] / MIB:.0f} MiB, local "
            f"{extra['snapstore_local_bytes'] / MIB:.0f} MiB, "
            f"remote fetched {fetched / MIB:.0f} MiB")


_CLUSTER_APPROACHES = ("linux-ra", "reap", "faasnap", "snapbpf")
_CONCURRENT = {"n_instances": CONCURRENT_INSTANCES}

#: Every figure, by name.  The cluster planes default to ONE base
#: function (their cells are whole fleet simulations -- 13 base
#: functions x 32 cells would dwarf every other figure combined); pass
#: ``functions=...`` to widen them.
FIGURE_MATRIX: dict[str, Figure] = {
    "3a": Figure(
        ("reap", "faasnap", "snapbpf"), "E2E latency (s)", (_E2E,)),
    "3b": Figure(
        ("linux-nora", "linux-ra", "reap", "snapbpf"),
        "E2E latency (normalized to Linux-NoRA)", (_E2E,),
        settings=_CONCURRENT, normalize="linux-nora",
        notes=f"{CONCURRENT_INSTANCES} concurrent instances, "
              f"identical inputs"),
    "3c": Figure(
        ("linux-nora", "linux-ra", "reap", "snapbpf"),
        "Memory consumption (GiB)",
        (Metric(lambda _spec, result: result.peak_memory_bytes / GIB),),
        settings=_CONCURRENT,
        notes=f"{CONCURRENT_INSTANCES} concurrent instances"),
    # Breakdown: Linux-RA (baseline), PV PTE marking alone, and full
    # SnapBPF (PV + eBPF prefetch).
    "4": Figure(
        ("linux-ra", "pv-ptes", "snapbpf"),
        "Normalized E2E latency (Linux-RA = 1.0)", (_E2E,),
        normalize="linux-ra", notes="single instance; lower is better"),
    # Section 4 'SnapBPF Overheads': offset-load (eBPF map) latency,
    # absolute and as a fraction of E2E latency.
    "overheads": Figure(
        ("snapbpf",), "offset-load latency",
        (Metric(lambda _spec, result: _map_load(result) * 1e3,
                "map_load_ms"),
         Metric(lambda _spec, result: (_map_load(result) / result.mean_e2e
                                       if result.mean_e2e else 0.0),
                "fraction_of_e2e")),
        metric_series=True,
        notes="map-load ms and fraction of E2E; paper: ~1-2 ms, <1%"),
    # Memory-pressure elasticity (paper Fig. 3c's dynamic claim): under
    # a shrinking frame pool, page-cache approaches deflate their file
    # footprint via reclaim; REAP's per-VM anonymous frames cannot be
    # shed at all, so its series stay flat across g.
    "mem": Figure(
        ("linux-ra", "reap", "snapbpf"), "End-of-run footprint (GiB)",
        (Metric(_footprint),), settings=_CONCURRENT,
        axes=(Axis("headroom", MEM_HEADROOMS, "g={}", column=True),),
        approach_label=lambda approach: approach + (
            " anon/vm" if approach in UFFD_APPROACHES else " file"),
        notes=f"{CONCURRENT_INSTANCES} concurrent instances; g = headroom "
              f"over the unreclaimable floor; file series deflate under "
              f"pressure, anon/vm series stay pinned"),
    # Snapshot-locality routing cuts the cold-start ratio versus random
    # spraying for every restore approach.
    "cluster": Figure(
        _CLUSTER_APPROACHES, "cold-start ratio",
        (_extra("cluster_cold_ratio"),), cell=cluster_cell_spec,
        axes=(Axis("policy", ("random", "round-robin", "least-loaded",
                              "snapshot-locality")),
              Axis("n_nodes", (2, 4), "n={}")),
        functions=("json",),
        notes="snapshot-locality keeps each function's snapshot pages "
              "hot on one node; random pays a cold cache per re-route"),
    # Production-shaped load (Zipf popularity, diurnal + burst arrivals,
    # multi-tenant mixes) through the cluster plane.
    "traffic": Figure(
        _CLUSTER_APPROACHES, "cold-start ratio / p99.9 E2E (s)",
        (_extra("traffic_cold_ratio", "cold-ratio"),
         _extra("traffic_p999_e2e", "p99.9-e2e")),
        cell=traffic_cell_spec,
        axes=(Axis("keepalive", ("fixed", "histogram")),),
        functions=("json",), quick={"quick": True},
        summary=_traffic_summary,
        notes="histogram keep-alive learns per-function idle times; "
              "fixed parks every sandbox for the same TTL"),
    # Snapshot tiering: the locality-vs-random margin is the point (a
    # locality miss now costs real staged remote fetches).
    "storage": Figure(
        ("linux-ra", "reap", "snapbpf"),
        "cold-ratio / p99 E2E (s) / dedup / tier bytes (GiB)",
        (_extra("cluster_cold_ratio", "cold-ratio"),
         _extra("cluster_p99_latency", "p99-e2e"),
         _extra("snapstore_dedup_factor", "dedup"),
         _extra("snapstore_local_bytes", "local-GiB", 1.0 / GIB),
         _extra("snapstore_hdd_bytes", "hdd-GiB", 1.0 / GIB),
         _extra("snapstore_remote_bytes", "remote-GiB", 1.0 / GIB)),
        cell=storage_cell_spec,
        axes=(Axis("tier", tuple(STORAGE_TIERS)),
              Axis("policy", ("random", "snapshot-locality"))),
        functions=("json",),
        quick=dict(n_functions=2, duration=3.0, n_nodes=2),
        summary=_storage_summary,
        notes="local = identity config (byte-identical to flat); "
              "colder placements stage chunks through the shared remote "
              "object store, so a locality miss costs real fetches"),
}

FIGURES: tuple[str, ...] = tuple(FIGURE_MATRIX)


def figure_specs(figure: str, functions=None, **axes) -> list[ScenarioSpec]:
    """Every scenario cell one figure needs, as sweepable specs (see
    :meth:`Figure.cells` for the keywords)."""
    return [cell.spec
            for cell in FIGURE_MATRIX[figure].cells(functions, **axes)]


def matrix_specs(figures=None, functions=None,
                 **axes) -> list[ScenarioSpec]:
    """The union of several figures' cells, deduplicated in first-seen
    order (3b and 3c share every run, 3a and 4 share snapbpf x1)."""
    specs: list[ScenarioSpec] = []
    seen: set[ScenarioSpec] = set()
    for figure in (figures if figures is not None else FIGURES):
        for spec in figure_specs(figure, functions, **axes):
            if spec not in seen:
                seen.add(spec)
                specs.append(spec)
    return specs


def build_figure(figure: str, cache: ResultCache | None = None,
                 functions=None, **axes) -> FigureData:
    """Build one figure by name against a (possibly pre-warmed) cache,
    reading exactly the cells :func:`figure_specs` enumerates."""
    return FIGURE_MATRIX[figure].build(figure, cache or ResultCache(),
                                       functions, **axes)


def table_1() -> list[dict[str, str]]:
    """Table 1: the mechanism comparison, generated from the approach
    implementations themselves."""
    registry = approach_registry()
    rows = []
    for name in ("reap", "faast", "faasnap", "snapbpf"):
        rows.append(registry[name].table1_row())
    return rows
