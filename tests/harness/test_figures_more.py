"""Figure-builder details not covered by the main figure tests."""

import pytest

from repro.harness.figures import FigureData, _profiles
from repro.units import MIB
from repro.workloads.profile import FUNCTIONS, FunctionProfile


@pytest.fixture(scope="module")
def tiny():
    return FunctionProfile(name="tiny2", mem_bytes=48 * MIB,
                           ws_bytes=4 * MIB, alloc_bytes=2 * MIB,
                           compute_seconds=0.02, seed=71)


def test_profiles_resolution_by_name_and_object(tiny):
    assert _profiles(None) == list(FUNCTIONS)
    assert _profiles(["bert"])[0].name == "bert"
    assert _profiles([tiny])[0] is tiny


def test_figure_data_unknown_lookup_raises():
    data = FigureData(figure="x", ylabel="y", functions=["f"],
                      series={"s": [1.0]})
    with pytest.raises(ValueError):
        data.value("ghost", "s")
    with pytest.raises(KeyError):
        data.value("f", "ghost")
