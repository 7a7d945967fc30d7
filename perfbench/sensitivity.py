#!/usr/bin/env python3
"""Sensitivity self-check: the benchmark sees a deliberately slowed layer.

Usage (from the repository root)::

    python3 perfbench/sensitivity.py [--seed 0]

Adds a fixed host delay of ``DELAY_US`` after every ``Interpreter.run``
(from the benchmark's own files, ``run.py --ebpf-delay-us``) and checks
three predictions against plain runs of the same seed, ``RUNS`` runs
per side of ``SECONDS`` each:

* ``burst`` ``wall_s`` gets worse by more than its bound (eBPF runs on
  every page-cache insert there);
* ``fleet`` ``wall_s`` stays within its bound (no eBPF program runs);
* the traced ``burst`` run puts the added time in the ``ebpf`` layer:
  ``ebpf.run_host_s`` grows by at least 80% of runs x delay, and
  ``ebpf.self_share`` grows more than any other layer's share.

Exits 0 when all three hold.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Host delay added after every eBPF program run, in microseconds.
DELAY_US = 25.0
#: Time budget of each run, and runs per side for the ``wall_s``
#: comparisons (the traced comparison is one run per side).
SECONDS = 10.0
RUNS = 2


def measure(workload: str, seed: int, trace: int, delay_us: float,
            tag: str) -> dict:
    out_dir = os.path.join(HERE, "out", "sensitivity")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, f"{workload}-{tag}.json")
    result = run.spawn(workload, seed, SECONDS, trace,
                       "--ebpf-delay-us", str(delay_us), "--out", out)
    if not result["correct"]:
        raise SystemExit(f"{workload} {tag}: outputs incorrect")
    return {name: m["value"] for name, m in result["metrics"].items()}


def check(seed: int):
    """(all predictions hold, report lines)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        bound = {m["name"]: m["bound"]
                 for m in json.load(fp)["end_to_end"]}["wall_s"]
    lines, ok = [], True
    for workload, should_move in (("burst", True), ("fleet", False)):
        walls = {0.0: [], DELAY_US: []}
        for i in range(RUNS):
            order = (0.0, DELAY_US) if i % 2 == 0 else (DELAY_US, 0.0)
            for delay in order:
                walls[delay].append(measure(
                    workload, seed, 0, delay,
                    f"d{delay:g}-{i}")["wall_s"])
        plain = statistics.median(walls[0.0])
        slowed = statistics.median(walls[DELAY_US])
        change = slowed / plain - 1.0
        held = change > bound if should_move else abs(change) <= bound
        ok &= held
        lines.append(
            f"{workload}: wall_s {plain:.3f} s -> {slowed:.3f} s "
            f"({change:+.1%}); predicted "
            f"{'beyond' if should_move else 'within'} the {bound:.0%} "
            f"bound: {'holds' if held else 'FAILS'}")

    plain = measure("burst", seed, 1, 0.0, "trace-plain")
    slowed = measure("burst", seed, 1, DELAY_US, "trace-delay")
    added = slowed["ebpf.run_host_s"] - plain["ebpf.run_host_s"]
    expected = slowed["ebpf.runs"] * DELAY_US * 1e-6
    growth = {name[:-len(".self_share")]: slowed[name] - plain[name]
              for name in plain if name.endswith(".self_share")}
    top = max(growth, key=growth.get)
    held = added >= 0.8 * expected and top == "ebpf"
    ok &= held
    lines.append(
        f"burst traced: ebpf.run_host_s +{added:.3f} s for "
        f"{slowed['ebpf.runs']:.0f} runs x {DELAY_US:g} us = "
        f"{expected:.3f} s added; largest share growth: {top} "
        f"({growth[top]:+.3f}); attributed to ebpf: "
        f"{'holds' if held else 'FAILS'}")
    return ok, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    ok, lines = check(args.seed)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
