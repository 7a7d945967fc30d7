"""§4 "SnapBPF Overheads": loading the grouped offsets into the kernel
via the eBPF map costs ~1-2 ms — under 1% of E2E latency on average."""

import statistics

from repro.harness.figures import build_figure
from repro.harness.report import render_figure


def test_overheads(benchmark, cache, functions, record):
    data = benchmark.pedantic(
        lambda: build_figure("overheads", cache, functions=functions),
        rounds=1, iterations=1)
    record("overheads", render_figure(data))

    fractions = data.series["fraction_of_e2e"]
    load_ms = data.series["map_load_ms"]
    assert statistics.fmean(fractions) < 0.01, "mean offset-load > 1% of E2E"
    assert all(ms < 5.0 for ms in load_ms), "offset load above ms scale"
    assert all(ms > 0.0 for ms in load_ms)
