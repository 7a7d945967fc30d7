#!/usr/bin/env python3
"""Same-host A/B of the working tree against a git ref.

Usage (from the repository root)::

    python3 perfbench/ab.py REF [--seed 100]

REF's ``src/`` is extracted with ``git archive`` (no network) under
``perfbench/out/``.  Both trees are then measured with *this* checkout's
benchmark code, alternately, for ``MIN_PAIRS`` pairs on every workload
of ``BENCHMARK.json``.  Every run measures for its ``run_seconds`` with
the workload seed ``--seed`` (in ``pressure`` only the remote cell
varies with it), and each pair swaps which side runs first.  For each
end-to-end metric and workload the report gives each side's median and
quartiles, the fraction of pairs the working tree wins (ties count for
neither), and whether the medians differ by more than REF's own spread
(the distance between its quartiles).  A gain needs both: at least nine
tenths of pairs won and a difference beyond that spread.

With the same inputs on every run, work counters must repeat exactly
within a side; a difference there is a behaviour change, kept apart
from timing noise.  Across the sides, any result digest that differs
means the change altered simulated results, and work counters that
differ (for example ``sim.events``) are listed as work changes.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile

import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: A gain needs at least this many pairs, and the change winning at
#: least ``WIN_SHARE`` of them.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def extract(ref: str, dest_root: str) -> tuple[str, str]:
    """``git archive`` REF's ``src`` into ``dest_root``; (sha, src dir)."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"],
                         cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout.strip()
    dest = os.path.join(dest_root, f"ab-{sha[:12]}")
    src = os.path.join(dest, "src")
    if not os.path.isdir(src):
        tar = subprocess.run(["git", "archive", "--format=tar", sha, "src"],
                             cwd=ROOT, capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            archive.extractall(dest, filter="data")
    return sha, src


def run_side(workload: str, seed: int, seconds: float, src: str,
             out: str) -> dict:
    summary = run.spawn(workload, seed, seconds, 0, "--src", src,
                        "--out", out)
    with open(out) as fp:
        summary["record"] = json.load(fp)
    return summary


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(base: list[float], head: list[float], better: str,
            bound: float) -> dict:
    """Paired comparison of one metric; pairs are index-aligned."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    spread = bq3 - bq1
    exceeds = abs(hmed - bmed) > spread
    worse_by = sign * (bmed - hmed) / bmed if bmed else 0.0
    # Every run of the change better than every run of REF.
    separated = (min(head) > max(base) if sign > 0
                 else max(head) < min(base))
    if (len(base) >= MIN_PAIRS and wins >= WIN_SHARE * len(base)
            and exceeds and sign * (hmed - bmed) > 0):
        verdict = "gain"
    elif bmed and spread / abs(bmed) > bound and not separated:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    else:
        verdict = "within bound"
    return {"base": [bq1, bmed, bq3], "head": [hq1, hmed, hq3],
            "wins": wins, "pairs": len(base), "exceeds_spread": exceeds,
            "worse_by": worse_by, "verdict": verdict}


def changed(a: dict, b: dict, key: str) -> list[str]:
    """What differs between two runs' cell digests (key "digest": the
    cells) or work counters (key "counters": the counter names), each
    cell taken from its first make_kernel-built run."""
    def cells(summary):
        out: dict = {}
        for r in summary["record"]["attempts"]:
            if r["built_by"] == "make_kernel":
                out.setdefault(r["cell"], r.get(key))
        return out
    first, second = cells(a), cells(b)
    if key == "digest":
        return sorted(c for c in first if first[c] != second.get(c))
    return sorted({name for c, counts in first.items()
                   for name, value in counts.items()
                   if second.get(c, {}).get(name) != value})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("ref")
    parser.add_argument("--seed", type=int, default=100,
                        help="workload seed of every run (in pressure "
                        "only the remote cell varies with it)")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    seconds = spec["run_seconds"]
    out_root = os.path.join(HERE, "out")
    sha, base_src = extract(args.ref, out_root)
    runs_dir = os.path.join(out_root, f"ab-{sha[:12]}", "runs")
    os.makedirs(runs_dir, exist_ok=True)
    sides = {"base": base_src, "head": os.path.join(ROOT, "src")}
    workloads = [w["name"] for w in spec["workloads"]]

    runs = {w: {"base": [], "head": []} for w in workloads}
    for pair in range(MIN_PAIRS):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for workload in workloads:
            for side in order:
                out = os.path.join(runs_dir, f"{side}-{workload}-{pair}.json")
                runs[workload][side].append(run_side(
                    workload, args.seed, seconds, sides[side], out))
                print(f"pair {pair} {workload} {side} done", file=sys.stderr)

    report = {"ref": args.ref, "sha": sha, "pairs": MIN_PAIRS,
              "seed": args.seed, "seconds": seconds, "workloads": {}}
    print(f"A/B: working tree (head) vs {args.ref} = {sha[:12]} (base); "
          f"{MIN_PAIRS} pairs, seed {args.seed}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        print(f"\n{name} [{metric['unit']}, {metric['better']} is better, "
              f"bound {metric['bound']:.0%}]")
        print(f"{'workload':10s} {'base q1/med/q3':>32s} "
              f"{'head q1/med/q3':>32s} {'wins':>6s} {'>spread':>8s} verdict")
        for workload in workloads:
            base, head = ([r["metrics"][name]["value"]
                           for r in runs[workload][side]]
                          for side in ("base", "head"))
            row = compare(base, head, metric["better"], metric["bound"])
            report["workloads"].setdefault(workload, {})[name] = row
            fmt = "/".join(f"{v:.4g}" for v in row["base"])
            hfmt = "/".join(f"{v:.4g}" for v in row["head"])
            print(f"{workload:10s} {fmt:>32s} {hfmt:>32s} "
                  f"{row['wins']:>3d}/{row['pairs']:<2d} "
                  f"{str(row['exceeds_spread']):>8s} {row['verdict']}")

    print()
    status = 0
    for workload in workloads:
        base_runs, head_runs = runs[workload]["base"], runs[workload]["head"]
        row = report["workloads"][workload]
        row["correct"] = all(r["correct"] for r in base_runs + head_runs)
        # Same inputs on every run: counters must repeat within a side.
        row["behaviour_changes"] = {
            side: sorted({name for r in side_runs[1:]
                          for name in changed(side_runs[0], r, "counters")})
            for side, side_runs in (("base", base_runs), ("head", head_runs))}
        row["results_differ"] = changed(base_runs[0], head_runs[0], "digest")
        row["work_changes"] = changed(base_runs[0], head_runs[0], "counters")
        print(f"{workload}: every run correct: {row['correct']}; "
              f"result digests differ in: "
              f"{', '.join(row['results_differ']) or 'none'}; "
              f"work counters changed: "
              f"{', '.join(row['work_changes']) or 'none'}")
        for side, changes in row["behaviour_changes"].items():
            if changes:
                print(f"  behaviour change within {side}: {changes}")
        if row["results_differ"] or not row["correct"] or any(
                row["behaviour_changes"].values()):
            status = 1
    path = os.path.join(out_root, f"ab-{sha[:12]}", "report.json")
    with open(path, "w") as fp:
        json.dump(report, fp, indent=1, sort_keys=True)
        fp.write("\n")
    print(f"\nreport: {os.path.relpath(path, ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
