"""Figure 3a: E2E latency for a single function instance.

Paper shape: SnapBPF outperforms REAP (no userspace-to-kernel copies via
userfaultfd) and matches — in some cases outperforms — FaaSnap.
"""

from repro.harness.figures import build_figure
from repro.harness.report import render_figure


def test_fig3a(benchmark, cache, functions, record):
    data = benchmark.pedantic(
        lambda: build_figure("3a", cache, functions=functions),
        rounds=1, iterations=1)
    record("fig3a", render_figure(data))

    for function in data.functions:
        snapbpf = data.value(function, "snapbpf")
        reap = data.value(function, "reap")
        faasnap = data.value(function, "faasnap")
        # SnapBPF at least matches REAP (within measurement slack) ...
        assert snapbpf < 1.10 * reap, (
            f"{function}: snapbpf {snapbpf:.3f}s vs reap {reap:.3f}s")
        # ... and matches FaaSnap.
        assert snapbpf < 1.15 * faasnap, (
            f"{function}: snapbpf {snapbpf:.3f}s vs faasnap {faasnap:.3f}s")

    # On large-working-set functions SnapBPF strictly wins against REAP.
    for function in ("recognition", "rnn", "bfs", "bert"):
        if function in data.functions:
            assert (data.value(function, "snapbpf")
                    < data.value(function, "reap"))
