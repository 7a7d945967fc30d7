#!/usr/bin/env python3
"""The repo benchmark: host cost of fixed simulated work.

Usage (from the repository root)::

    python3 perfbench/run.py --workload burst --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # table of all three

The simulator is deterministic, so its outputs are checked, not scored:
every cell's ``ScenarioResult`` is hashed and must match the run's own
reference round and, for recorded seeds, ``reference.json``.  What is
scored is host time and memory per fixed simulated work.

``--trace 0`` runs every cell once through ``run_scenario``'s own host
construction (round 0, the run's warm-up and reference), then the cells
in turn with the host built by ``make_kernel`` (so the DES event count
is visible) while the next cell still ends within ``--seconds``, and
until each cell has one such timing.  ``wall_s`` is the sum over cells
of each cell's median time, round 0 left out, scaled to a reference host
speed by ``calibrate()`` (see ``CALIBRATION_REF_S``).  ``--trace 1`` runs
round 0, one round with span and counting wrappers on the layer entry
points, and one cProfile round, and prints the per-layer metrics.  The
last stdout line is one JSON object; run records go to
``perfbench/out/``.  The exit status is 1 when a cell run failed.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import cProfile  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("burst", "pressure", "fleet")

#: Timings per cell in a ``--trace 0`` run after round 0, however long
#: the cells take.  Round 0 goes through ``run_scenario``'s own host
#: construction and the rest through ``make_kernel``, so every run checks
#: that the two agree; round 0 is the warm-up and stays out of ``wall_s``.
MIN_SAMPLES = 1

#: Host seconds one ``calibrate()`` takes at the reference host speed.
#: A timed run scales its cells' and its set-ups' host seconds by this
#: over the median calibration time measured next to them, so ``wall_s``
#: and ``setup_s`` read in seconds at that speed.
CALIBRATION_REF_S = 0.3

#: Extra fresh processes that repeat the set-up; ``setup_s`` is the
#: median of these and the run's own set-up, scaled like ``wall_s``.
SETUP_PROBES = 4

END_TO_END = (("wall_s", "s"), ("invocations_per_s", "1/s"),
              ("peak_rss_mib", "MiB"), ("setup_s", "s"))

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "sim.events": "count",
    "ebpf.runs": "count",
    "ebpf.insns": "count",
    "ebpf.run_host_s": "host_s",
    "core.captured_pages": "count",
    "mm.cache_adds": "count",
    "mm.ra_unbounded_calls": "count",
    "mm.frame_allocs": "count",
    "mm.faults_major": "count",
    "mm.faults_minor": "count",
    "mm.uffd_faults": "count",
    "mm.cow_faults": "count",
    "mm.sim_peak_mib": "MiB",
    "mm.handle_fault_host_s": "host_s",
    "mm.reclaim_scanned": "count",
    "mm.reclaim_reclaimed": "count",
    "mm.kswapd_wakeups": "count",
    "mm.reclaim_direct": "count",
    "kvm.nested_faults": "count",
    "kvm.pv_faults": "count",
    "storage.requests": "count",
    "storage.bytes_read": "B",
    "storage.busy_sim_s": "sim_s",
    "snapstore.remote_fetches": "count",
    "snapstore.remote_fetch_bytes": "B",
    "snapstore.staged_chunks": "count",
    "snapstore.stage_host_s": "host_s",
    "vmm.sim_stall_s": "sim_s",
    "cluster.invocations": "count",
    "cluster.cold_starts": "count",
    "cluster.prewarms": "count",
    "cluster.route_host_s": "host_s",
    "cluster.handle_host_s": "host_s",
    "cluster.calibrate_host_s": "host_s",
    "metrics.observes": "count",
    "bench.trace_overhead_s": "host_s",
}

#: Span name -> per-layer metric holding its self time.
SPAN_SELF = {"ebpf.run": "ebpf.run_host_s",
             "mm.handle_fault": "mm.handle_fault_host_s",
             "snapstore.stage": "snapstore.stage_host_s",
             "cluster.route": "cluster.route_host_s",
             "cluster.handle": "cluster.handle_host_s",
             "cluster.calibrate": "cluster.calibrate_host_s"}

#: Span name -> per-layer metric holding its call count.
SPAN_COUNT = {"ebpf.run": "ebpf.runs",
              "mm.ra_unbounded": "mm.ra_unbounded_calls"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="time budget for the timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="program tree to import repro from")
    parser.add_argument("--out", help="run record path "
                        "(default perfbench/out/<workload>-seed<n>.json)")
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests and counters in "
                        "reference.json for its seed")
    parser.add_argument("--ebpf-delay-us", type=float, default=0.0,
                        help="sensitivity check: busy-wait this long "
                        "after every eBPF program run")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_program(src: str):
    """Import ``repro`` from ``src`` and nowhere else."""
    package = os.path.join(os.path.abspath(src), "repro")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        fail(f"no repro package under {src!r}")
    sys.path.insert(0, os.path.abspath(src))
    import repro
    if os.path.dirname(os.path.abspath(repro.__file__)) != package:
        fail(f"imported repro from {repro.__file__}, not {package}")
    return package


def setup(args):
    """Imports, lazily-imported layers, and the workload's cells."""
    package = import_program(args.src)
    import cells
    import layers  # imports every layer the probes patch
    return package, cells, layers, cells.build_cells(args.workload,
                                                     args.seed)


def run_cell(cells, cell, use_kernel: bool, profiler=None) -> dict:
    """Run one cell; only the host build and ``run_scenario`` are timed."""
    from repro import run_scenario
    record = {"cell": cell.name,
              "built_by": "make_kernel" if use_kernel else "run_scenario"}
    try:
        start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        kernel = (cells.kernel_for(cell.spec)
                  if use_kernel and not cell.fleet else None)
        result = run_scenario(cell.spec, kernel=kernel)
        if profiler is not None:
            profiler.disable()
        record["seconds"] = time.perf_counter() - start
    except Exception:  # a failed cell counts in error_rate
        if profiler is not None:
            profiler.disable()
        traceback.print_exc()
        record["problems"] = ["raised " + traceback.format_exc(
            limit=1).strip().splitlines()[-1]]
        return record
    record["digest"] = cells.digest(result)
    record["invocations"] = cells.invocations(cell, result)
    record["counters"] = cells.counters(
        cell, result, kernel.env.events_processed if kernel else None)
    record["problems"] = cells.check(cell, result)
    return record


def run_round(cells, workload_cells, use_kernel: bool, profiler=None):
    return [run_cell(cells, cell, use_kernel, profiler)
            for cell in workload_cells]


def calibrate() -> float:
    """Host seconds of a fixed pure-Python job that shares no code with
    the program: dict lookups and inserts, slotted objects and a heap,
    the operations the simulator's hot paths are made of.

    The shared host runs in slow and fast phases a minute or more long
    that slow every process alike (see README.md, "Noise"); timing this
    job next to each cell measures the phase a run fell in.
    """
    rng = random.Random(1)
    table: dict[int, list[int]] = {}
    heap: list[tuple[int, int]] = []
    start = time.perf_counter()
    for i in range(120_000):
        key = rng.randrange(30_000)
        entry = table.get(key)
        if entry is None:
            table[key] = [i, key]
        else:
            entry[0] += 1
        heapq.heappush(heap, (key, i))
        if len(heap) > 4000:
            heapq.heappop(heap)
    return time.perf_counter() - start


def timed_runs(cells, workload_cells, budget: float, min_samples: int):
    """Round 0 through ``run_scenario``'s own host construction, then
    cells in turn through ``make_kernel`` while the next cell, taking as
    long as its last run, still ends within ``budget`` seconds, and
    until every cell has ``min_samples`` timings after round 0.  Each
    timed cell is followed by one ``calibrate()``, kept in its record."""
    begun = time.perf_counter()
    attempts = run_round(cells, workload_cells, use_kernel=False)
    while True:
        last = attempts[-len(workload_cells)]
        ends = time.perf_counter() - begun + last.get("seconds", 0.0)
        if (len(attempts) >= (1 + min_samples) * len(workload_cells)
                and ends > budget):
            return attempts
        cell = workload_cells[len(attempts) % len(workload_cells)]
        attempts.append(run_cell(cells, cell, True))
        attempts[-1]["calibration_s"] = calibrate()


def median_wall(attempts, built_by: str = "make_kernel") -> float:
    """Sum over cells of each cell's median time: one round's worth.

    Only the attempts built by ``built_by`` count, so round 0 (built by
    ``run_scenario``) stays out of a timed run's figure.
    """
    samples: dict[str, list[float]] = {}
    for record in attempts:
        if "seconds" in record and record["built_by"] == built_by:
            samples.setdefault(record["cell"], []).append(record["seconds"])
    return sum(statistics.median(values) for values in samples.values())


def judge(attempts, ref_cells) -> tuple[int, int, list[str]]:
    """(attempted, failed, behaviour changes) over every cell attempt.

    A cell attempt fails when it raised, failed an output check, or its
    digest differs from the cell's first attempt or from the recorded
    reference.  Counters that differ from the reference while the
    digest matches (the event count) are a behaviour change, not a
    failure.
    """
    first: dict[str, str] = {}
    attempted = failed = 0
    changes: list[str] = []
    for index, record in enumerate(attempts):
        attempted += 1
        name = record["cell"]
        problems = record["problems"]
        digest = record.get("digest")
        if digest is not None and first.setdefault(name, digest) != digest:
            problems.append(f"digest differs from the first run "
                            f"(attempt {index})")
        ref = ref_cells.get(name) if ref_cells else None
        if ref is not None and digest is not None:
            if digest != ref["digest"]:
                problems.append("digest differs from reference.json")
            for key, value in record["counters"].items():
                want = ref["counters"].get(key)
                if want is not None and want != value:
                    changes.append(f"{name}: {key} {want} -> {value} "
                                   f"(attempt {index})")
        if problems:
            failed += 1
            print(f"FAIL {name} attempt {index}: " + "; ".join(problems),
                  file=sys.stderr)
    return attempted, failed, changes


def setup_probes(args) -> list[dict]:
    """Set-up and calibration times of fresh processes running the same
    set-up code."""
    return [spawn(args.workload, args.seed, 0, 0, "--src", args.src,
                  "--setup-probe")
            for _ in range(SETUP_PROBES)]


def traced_metrics(cells, layers, package, workload_cells, plain_wall,
                   spans_path):
    """One span-traced round and one profiled round."""
    rec = layers.SpanRecorder()
    with layers.traced(rec):
        traced = run_round(cells, workload_cells, use_kernel=True)
    profiler = cProfile.Profile()
    profiled = run_round(cells, workload_cells, use_kernel=True,
                         profiler=profiler)
    shares = layers.layer_shares(profiler, package)
    spans = rec.summary()
    rec.write(spans_path)

    metrics = dict(cells.combine([r["counters"] for r in traced
                                  if "counters" in r]))
    for name, key in SPAN_SELF.items():
        metrics[key] = spans.get(name, {}).get("self_s", 0.0)
    for name, key in SPAN_COUNT.items():
        metrics[key] = spans.get(name, {}).get("count", 0)
    for key in ("ebpf.insns", "mm.frame_allocs", "metrics.observes"):
        metrics[key] = rec.counts.get(key, 0)
    metrics["bench.trace_overhead_s"] = median_wall(traced) - plain_wall
    out = {name: {"value": metrics[name], "unit": unit}
           for name, unit in PER_LAYER.items()}
    for layer, share in shares.items():
        out[f"{layer}.self_share"] = {"value": share, "unit": "share"}
    return out, traced + profiled, spans


def load_reference() -> dict:
    try:
        with open(REFERENCE) as fp:
            return json.load(fp)
    except FileNotFoundError:
        return {}


def record_reference(workload: str, seed: int, attempts) -> None:
    """Store each cell's digest and counters from its first
    ``make_kernel``-built attempt (the one with an event count)."""
    reference = load_reference()
    cells = {}
    for r in attempts:
        if r["built_by"] == "make_kernel" and r["cell"] not in cells:
            cells[r["cell"]] = {"digest": r["digest"],
                                "counters": r["counters"]}
    reference.setdefault(workload, {})[str(seed)] = cells
    with open(REFERENCE, "w") as fp:
        json.dump(reference, fp, indent=1, sort_keys=True)
        fp.write("\n")


def run_workload(args) -> int:
    package, cells, layers, workload_cells = setup(args)
    setup_s = time.perf_counter() - STARTED
    # Each set-up is timed next to a calibration, as each cell is.
    own_setup = {"setup_s": setup_s, "calibration_s": calibrate()}
    if args.setup_probe:
        print(json.dumps(own_setup))
        return 0
    delay = (layers.ebpf_delay(args.ebpf_delay_us * 1e-6)
             if args.ebpf_delay_us > 0 else contextlib.nullcontext())
    os.makedirs(OUT_DIR, exist_ok=True)
    with delay:
        if args.trace:
            attempts = run_round(cells, workload_cells, use_kernel=False)
            wall_s = median_wall(attempts, built_by="run_scenario")
            spans_path = os.path.join(
                OUT_DIR, f"{args.workload}-seed{args.seed}-spans.npz")
            metrics, traced, spans = traced_metrics(
                cells, layers, package, workload_cells, wall_s, spans_path)
            attempts += traced
        else:
            attempts = timed_runs(cells, workload_cells, args.seconds,
                                  MIN_SAMPLES)
            host_wall_s = median_wall(attempts)
            speed = CALIBRATION_REF_S / statistics.median(
                r["calibration_s"] for r in attempts
                if "calibration_s" in r)
            wall_s = host_wall_s * speed

    reference = {} if args.record else load_reference()
    ref_cells = reference.get(args.workload, {}).get(str(args.seed))
    attempted, failed, changes = judge(attempts, ref_cells)
    invocations = sum(r.get("invocations", 0)
                      for r in attempts[:len(workload_cells)])
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "src": os.path.abspath(args.src),
              "ebpf_delay_us": args.ebpf_delay_us,
              "reference_checked": ref_cells is not None,
              "behaviour_changes": changes, "attempts": attempts}
    if args.trace:
        record["spans"] = spans
    else:
        setup_samples = [own_setup] + setup_probes(args)
        setup_speed = CALIBRATION_REF_S / statistics.median(
            p["calibration_s"] for p in setup_samples)
        setup_median = statistics.median(p["setup_s"] for p in setup_samples)
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "invocations_per_s": {"value": (invocations / wall_s
                                            if wall_s else 0.0),
                                  "unit": "1/s"},
            "peak_rss_mib": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
            "setup_s": {"value": setup_median * setup_speed, "unit": "s"},
        }
        record["setup_samples"] = setup_samples
        record["host_wall_s"] = host_wall_s
        record["speed_scale"] = speed
        record["setup_speed_scale"] = setup_speed
    record["metrics"] = metrics
    record["error_rate"] = failed / attempted

    out = args.out or os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}"
        f"{'-trace' if args.trace else ''}.json")
    with open(out, "w") as fp:
        json.dump(record, fp, indent=1, sort_keys=True)
        fp.write("\n")
    if args.record:
        if failed:
            print("not recorded: the run had failures", file=sys.stderr)
        else:
            record_reference(args.workload, args.seed, attempts)

    for change in changes:
        print(f"behaviour change: {change}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {attempted} cell runs of "
          f"{len(workload_cells)} cells ({invocations} invocations per "
          f"round); reference "
          f"{'checked' if ref_cells else 'not recorded for this seed'}")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'error_rate':28s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} cell runs failed)")
    if not args.trace:
        print(f"  wall_s is {record['host_wall_s']:.6g} host seconds x "
              f"{record['speed_scale']:.4g} (reference / measured "
              f"calibration time)")
    return report(attempted, failed, metrics)


def report(attempted: int, failed: int, metrics: dict) -> int:
    """Print the result line; the exit status (1 when a cell run failed)."""
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


def spawn(workload: str, seed: int, seconds: float, trace: int,
          *extra: str) -> dict:
    """Run one workload in a fresh process; its parsed result line.

    A run whose cells failed exits 1 with a result line that says so;
    that line is returned like any other.  Any other failure raises.
    """
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode == 0 or (proc.returncode == 1
                                and isinstance(result, dict)
                                and result.get("correct") is False):
        return result
    sys.stderr.write(proc.stderr)
    raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")


def run_all(args) -> int:
    """Each workload in a process of its own; one table."""
    extra = ["--src", args.src]
    if args.ebpf_delay_us:
        extra += ["--ebpf-delay-us", str(args.ebpf_delay_us)]
    results = {w: spawn(w, args.seed, args.seconds, args.trace, *extra)
               for w in WORKLOADS}
    first = results[WORKLOADS[0]]["metrics"]
    print(f"{'metric':30s} {'unit':8s}"
          + "".join(f"{w:>16s}" for w in WORKLOADS))
    for name, metric in first.items():
        print(f"{name:30s} {metric['unit']:8s}" + "".join(
            f"{results[w]['metrics'][name]['value']:>16.6g}"
            for w in WORKLOADS))
    print(f"{'error_rate':30s} {'ratio':8s}" + "".join(
        f"{results[w]['failed'] / results[w]['attempted']:>16.6g}"
        for w in WORKLOADS))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
