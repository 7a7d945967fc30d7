"""Figure builders on small profiles (full-size runs live in benchmarks/)."""

from collections import defaultdict
from types import SimpleNamespace

import pytest

from repro.harness.experiment import ResultCache
from repro.harness.figures import FIGURES, build_figure, figure_specs, table_1
from repro.harness.report import render_figure, render_table, render_table1


@pytest.fixture(scope="module")
def cache():
    return ResultCache()


@pytest.fixture(scope="module")
def small(tiny_profile_module):
    return [tiny_profile_module]


@pytest.fixture(scope="module")
def tiny_profile_module():
    from repro.units import MIB
    from repro.workloads.profile import FunctionProfile
    return FunctionProfile(
        name="tiny", mem_bytes=64 * MIB, ws_bytes=6 * MIB,
        alloc_bytes=3 * MIB, compute_seconds=0.02, write_frac=0.15,
        run_len_mean=8.0, seed=42)


def test_figure_3a_series(cache, small):
    data = build_figure("3a", cache, functions=small)
    assert set(data.series) == {"reap", "faasnap", "snapbpf"}
    assert data.functions == ["tiny"]
    assert all(v > 0 for series in data.series.values() for v in series)


def test_figure_3b_normalized(cache, small):
    data = build_figure("3b", cache, functions=small)
    assert set(data.series) == {"linux-nora", "linux-ra", "reap", "snapbpf"}
    assert data.series["linux-nora"] == [1.0]
    assert data.value("tiny", "snapbpf") < 1.0


def test_figure_3c_memory(cache, small):
    data = build_figure("3c", cache, functions=small)
    assert data.value("tiny", "reap") > data.value("tiny", "snapbpf")


def test_figure_3b_and_3c_share_runs(cache, small):
    build_figure("3b", cache, functions=small)
    mid = len(cache)
    build_figure("3c", cache, functions=small)
    assert len(cache) == mid  # 3c added no new scenario runs


def test_figure_4_breakdown(cache, small):
    data = build_figure("4", cache, functions=small)
    assert data.series["linux-ra"] == [1.0]
    assert data.value("tiny", "snapbpf") <= data.value("tiny", "pv-ptes")


def test_overheads(cache, small):
    data = build_figure("overheads", cache, functions=small)
    assert 0 < data.value("tiny", "fraction_of_e2e") < 0.05


def test_table_1_matches_paper():
    rows = {row["approach"]: row for row in table_1()}
    assert rows["reap"]["in_memory_ws_dedup"] == "No"
    assert rows["faasnap"]["in_memory_ws_dedup"] == "Yes"
    assert rows["snapbpf"]["on_disk_ws_serialization"] == "No"
    assert rows["snapbpf"]["space"] == "Kernel-space"
    assert all(rows[a]["on_disk_ws_serialization"] == "Yes"
               for a in ("reap", "faast", "faasnap"))


def test_renderers_produce_text(cache, small):
    data = build_figure("3a", cache, functions=small)
    text = render_figure(data)
    assert "Figure 3a" in text and "tiny" in text
    table1 = render_table1(table_1())
    assert "snapbpf" in table1 and "Kernel-space" in table1
    assert render_table([["h1", "h2"], ["a", "b"]]).count("\n") == 2


def test_value_accessor(cache, small):
    data = build_figure("3a", cache, functions=small)
    assert data.value("tiny", "reap") == data.series["reap"][0]
    rows = data.as_rows()
    assert rows[0][0] == "function"


class _RecordingCache:
    """Stands in for ResultCache: records each spec read and returns a
    placeholder result, so no simulation runs."""

    def __init__(self):
        self.reads = []

    def get(self, spec):
        self.reads.append(spec)
        return SimpleNamespace(
            mean_e2e=1.0, peak_memory_bytes=1, end_anon_bytes=1,
            end_file_bytes=1, extra=defaultdict(lambda: 1.0))


@pytest.mark.parametrize("name", FIGURES)
def test_build_reads_exactly_the_enumerated_specs(name):
    """A sweep over figure_specs(name) followed by build_figure(name)
    can never run an extra cell: the build reads the same specs, in the
    same order."""
    cache = _RecordingCache()
    build_figure(name, cache)
    assert cache.reads == figure_specs(name)


def test_repeated_function_keeps_its_rows():
    data = build_figure("3a", _RecordingCache(), functions=["json", "json"])
    assert data.functions == ["json", "json"]
    assert data.series["snapbpf"] == [1.0, 1.0]
