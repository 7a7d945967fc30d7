"""The benchmark's three workloads, built only from the public API.

A workload is an ordered list of cells.  One *round* runs every cell of
the workload once; the benchmark times rounds.  Each cell is one
``ScenarioSpec`` and its result is checked two ways: a sha256 over
``ScenarioResult.to_json()`` (the simulated outputs, byte for byte) and
a set of exact work counters read from the result.

Why each workload exists (see README.md for the metric -> layer map):

* ``burst`` -- Fig. 3b-style cold starts: SnapBPF restores 10 concurrent
  instances of small-working-set shapes from flat snapshot files on the
  SSD model, default (unpressured) pool.  eBPF does the most work here:
  the capture program fires on every page-cache insert and the prefetch
  kfunc drives ``page_cache_ra_unbounded``.  Reclaim evicts nothing;
  snapstore and cluster are idle.
* ``pressure`` -- restores that must make room or fetch: ``mem``-figure
  cells at headroom 0.25 (linux-ra, reap, snapbpf on json x10, pool
  sized by ``pressure_ram_bytes``; kswapd, direct reclaim and the
  eviction hook live), REAP's userfaultfd/anonymous-frame path, and a
  SnapBPF restore whose chunks start ``remote`` in the snapstore.  mm
  runs the other way round here: evictions, LRU rotation and staged
  fetches next to inserts.
* ``fleet`` -- the traffic plane replays a Zipf-ranked, diurnal, bursty
  catalog of 10k functions over 8 tenants on a 24-node fleet with
  histogram keep-alive, pre-warm and snapshot-locality routing.  The
  approach is ``reap`` so calibration runs no eBPF; the control plane
  dominates and page-level optimisations should not move it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro import ScenarioSpec, make_kernel, profile_by_name
from repro.harness import figures
from repro.units import GIB, MIB
from repro.workloads.traffic import TrafficSpec

#: Concurrent instances per single-host cell (the paper's Fig. 3b/3c).
INSTANCES = figures.CONCURRENT_INSTANCES

#: burst: small-working-set shapes (6k-8.7k pages), the traffic
#: plane's default shapes.
BURST_SHAPES = ("json", "html", "pyaes")

#: pressure: the mem figure's tight headroom and its three approaches.
PRESSURE_HEADROOM = 0.25
PRESSURE_APPROACHES = ("linux-ra", "reap", "snapbpf")
#: pressure: instances of the remote-placement SnapBPF restore.
REMOTE_INSTANCES = 2

#: fleet: fleet shape and keep-alive.  ``keepalive_max_ttl`` caps the
#: learned TTL below typical idle gaps of mid-popularity functions, so
#: the histogram policy pre-warms instead of only parking.
FLEET_NODES = 24
FLEET_CLUSTER = dict(n_nodes=FLEET_NODES, overflow_inflight=32,
                     policy="snapshot-locality", keepalive_max_ttl=2.0)


def fleet_traffic(seed: int) -> TrafficSpec:
    """~3.5e4 invocations per replay (varies a few percent by seed)."""
    return TrafficSpec(n_functions=10_000, n_tenants=8, total_rps=1000.0,
                       duration=30.0, diurnal_period=20.0, n_bursts=4,
                       burst_multiplier=3.0, burst_duration=3.0, seed=seed)


@dataclass(frozen=True)
class Cell:
    """One timed scenario of a workload."""

    name: str
    spec: ScenarioSpec

    @property
    def fleet(self) -> bool:
        return self.spec.cluster is not None


def build_cells(workload: str, seed: int) -> list[Cell]:
    """The workload's cells; ``seed`` is the cells' input seed (for
    ``pressure``, the remote cell's only)."""
    if workload == "burst":
        return [Cell(f"{shape}/snapbpf-x{INSTANCES}",
                     ScenarioSpec(shape, "snapbpf", n_instances=INSTANCES,
                                  input_seed=seed))
                for shape in BURST_SHAPES]
    if workload == "pressure":
        json = profile_by_name("json")
        # The mem figure's own cells, input seed 0 as the figure runs
        # them: with other input seeds the pool pressure_ram_bytes sizes
        # is too small for some traces (seeds 4, 6 and 7 thrash reclaim
        # or raise OutOfMemory; see README.md), so only the remote cell
        # takes the benchmark seed.
        cells = [Cell(f"json/{approach}-x{INSTANCES}-g{PRESSURE_HEADROOM}",
                      ScenarioSpec(json, approach, n_instances=INSTANCES,
                                   ram_bytes=figures.pressure_ram_bytes(
                                       json, approach, INSTANCES,
                                       PRESSURE_HEADROOM)))
                 for approach in PRESSURE_APPROACHES]
        cells.append(Cell(
            f"json/snapbpf-x{REMOTE_INSTANCES}-remote",
            ScenarioSpec(json, "snapbpf", n_instances=REMOTE_INSTANCES,
                         input_seed=seed,
                         snapstore=figures.STORAGE_TIERS["remote"])))
        return cells
    if workload == "fleet":
        json = profile_by_name("json")
        spec = figures.traffic_cell_spec(json, "reap", "histogram",
                                         traffic=fleet_traffic(seed),
                                         **FLEET_CLUSTER)
        return [Cell(f"traffic/reap-x{FLEET_NODES}", spec)]
    raise ValueError(f"unknown workload {workload!r}")


def kernel_for(spec: ScenarioSpec):
    """A host built the way ``run_scenario`` builds its own, so the
    run's ``Environment.events_processed`` stays visible.  The result
    digest, compared with a run through ``run_scenario``'s own
    construction, proves the mirror."""
    kernel = make_kernel(spec.device_kind, costs=spec.costs,
                         ram_bytes=(spec.ram_bytes if spec.ram_bytes
                                    is not None else 256 * GIB))
    if spec.ram_bytes is not None:
        kernel.reclaim.enable_watermarks()
    return kernel


def digest(result) -> str:
    return hashlib.sha256(result.to_json().encode("utf-8")).hexdigest()


def invocations(cell: Cell, result) -> int:
    """Simulated sandbox invocations the cell completed."""
    if cell.fleet:
        return int(result.extra["traffic_invocations"])
    return len(result.invocations)


def check(cell: Cell, result) -> list[str]:
    """Output checks beyond the digest: what must hold for any seed."""
    problems = []
    if cell.fleet:
        extra = result.extra
        if extra["traffic_failures"] or extra["traffic_timeouts"]:
            problems.append(f"{extra['traffic_failures']:.0f} failed, "
                            f"{extra['traffic_timeouts']:.0f} timed out")
        if extra["traffic_completed"] != extra["traffic_invocations"]:
            problems.append("not every invocation completed")
        if (extra["traffic_cold_starts"] + extra["traffic_warm_starts"]
                != extra["traffic_invocations"]):
            problems.append("cold + warm starts != invocations")
        if extra["traffic_invocations"] < 1:
            problems.append("no invocations replayed")
    else:
        if len(result.invocations) != cell.spec.n_instances:
            problems.append(f"{len(result.invocations)} of "
                            f"{cell.spec.n_instances} instances finished")
        if any(inv.e2e_seconds <= 0 for inv in result.invocations):
            problems.append("non-positive E2E latency")
        degraded = [key for key in ("capture_attach_failures",
                                    "prefetch_fallbacks", "prefetch_aborts",
                                    "demand_retries",
                                    "demand_fetch_failures")
                    if key in result.extra]
        if degraded:
            problems.append("degraded: " + ", ".join(degraded))
    return problems


def counters(cell: Cell, result, events: int | None) -> dict[str, float]:
    """Exact work counters of one cell, all read from the result.

    ``events`` is the run's DES event count when the kernel was built
    by the benchmark (None when ``run_scenario`` built its own).  For
    the fleet cell it is the replay engine's count, which excludes the
    calibration mini-runs.
    """
    invs = result.invocations
    metrics = result.metrics
    extra = result.extra
    out = {
        "mm.cache_adds": result.cache_adds,
        "mm.faults_major": sum(i.major_faults for i in invs),
        "mm.faults_minor": sum(i.minor_faults for i in invs),
        "mm.uffd_faults": sum(i.uffd_faults for i in invs),
        "mm.cow_faults": sum(i.cow_faults for i in invs),
        "mm.sim_peak_mib": result.peak_memory_bytes / MIB,
        "mm.reclaim_scanned": metrics.get("reclaim_scanned_total", 0),
        "mm.reclaim_reclaimed": metrics.get("reclaim_reclaimed_total", 0),
        "mm.kswapd_wakeups": metrics.get("reclaim_kswapd_wakeups_total", 0),
        "mm.reclaim_direct": metrics.get("reclaim_direct_total", 0),
        "core.captured_pages": extra.get("captured_pages", 0),
        "kvm.nested_faults": sum(i.nested_faults for i in invs),
        "kvm.pv_faults": sum(i.pv_faults for i in invs),
        "storage.requests": result.device_requests,
        "storage.bytes_read": result.device_bytes_read,
        "storage.busy_sim_s": metrics.get("device_busy_seconds_total", 0),
        "snapstore.remote_fetches": metrics.get(
            "snapstore_remote_fetches_total", 0),
        "snapstore.remote_fetch_bytes": metrics.get(
            "snapstore_remote_fetch_bytes_total", 0),
        "snapstore.staged_chunks": metrics.get(
            "snapstore_staged_chunks_total", 0),
        "vmm.sim_stall_s": sum(i.stall_seconds for i in invs),
        "cluster.invocations": extra.get("traffic_invocations", 0),
        "cluster.cold_starts": extra.get("traffic_cold_starts", 0),
        "cluster.prewarms": extra.get("traffic_prewarms", 0),
    }
    if cell.fleet:
        events = int(extra["traffic_events_processed"])
    if events is not None:
        out["sim.events"] = events
    return out


def combine(per_cell: list[dict[str, float]]) -> dict[str, float]:
    """A round's counters: sums over cells, except peak memory (max)."""
    out: dict[str, float] = {}
    for counts in per_cell:
        for key, value in counts.items():
            if key == "mm.sim_peak_mib":
                out[key] = max(out.get(key, 0.0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out
