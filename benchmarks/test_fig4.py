"""Figure 4: breakdown of the two SnapBPF mechanisms.

Paper shape: PV PTE marking alone gives large wins for allocation-heavy
functions (image: >2x) and little for functions dominated by initialized
state (rnn, bert); eBPF prefetching supplies the rest.
"""

from repro.harness.figures import build_figure
from repro.harness.report import render_figure


def test_fig4(benchmark, cache, functions, record):
    data = benchmark.pedantic(
        lambda: build_figure("4", cache, functions=functions),
        rounds=1, iterations=1)
    record("fig4", render_figure(data))

    for function in data.functions:
        assert data.value(function, "linux-ra") == 1.0
        # Each mechanism only ever helps.
        assert data.value(function, "pv-ptes") <= 1.02
        assert (data.value(function, "snapbpf")
                <= data.value(function, "pv-ptes") + 0.02)

    # Allocation-heavy: PV alone improves image by more than 2x.
    if "image" in data.functions:
        assert data.value("image", "pv-ptes") < 0.55

    # Model-serving functions benefit only minimally from PV alone...
    for function in ("rnn", "bert"):
        if function in data.functions:
            assert data.value(function, "pv-ptes") > 0.85
            # ...there, optimized prefetching is the dominant factor.
            assert data.value(function, "snapbpf") < 0.6
