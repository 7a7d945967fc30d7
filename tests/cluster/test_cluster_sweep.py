"""Cluster scenarios through the harness: dispatch, store, figure."""

import pytest

from repro.cluster import ClusterSpec
from repro.harness.experiment import ResultCache, run_scenario
from repro.harness.figures import build_figure, cluster_cell_spec
from repro.harness.spec import ScenarioSpec
from repro.harness.sweep import ResultStore, SweepRunner
from repro.metrics.results import ScenarioResult
from repro.units import MIB
from repro.workloads.profile import FunctionProfile


def tiny_profile(name="tiny", seed=31):
    return FunctionProfile(name=name, mem_bytes=48 * MIB, ws_bytes=4 * MIB,
                           alloc_bytes=2 * MIB, compute_seconds=0.02,
                           run_len_mean=8.0, seed=seed)


#: Cluster knobs shared by direct specs and figure cells (n_nodes is a
#: figure axis, so it stays out of this dict).
TINY_CLUSTER = dict(n_functions=2, rate_per_function=2.0,
                    duration=1.5, warm_pool_ttl=1.0)


def tiny_spec(policy="snapshot-locality", approach="snapbpf"):
    return ScenarioSpec(function=tiny_profile(), approach=approach,
                        cluster=ClusterSpec(policy=policy, n_nodes=2,
                                            **TINY_CLUSTER))


def test_run_scenario_dispatches_cluster_specs():
    result = run_scenario(tiny_spec())
    assert isinstance(result, ScenarioResult)
    assert result.invocations == []
    assert result.extra["cluster_requests"] > 0
    assert result.extra["cluster_completed"] == result.extra[
        "cluster_requests"]
    assert 0.0 <= result.extra["cluster_cold_ratio"] <= 1.0
    assert result.metrics["cluster_requests_total"] == result.extra[
        "cluster_requests"]


def test_run_scenario_rejects_kernel_override_for_clusters():
    from repro.harness.experiment import make_kernel
    with pytest.raises(TypeError, match="kernel"):
        run_scenario(tiny_spec(), kernel=make_kernel())


def test_result_json_round_trip_exactly():
    result = run_scenario(tiny_spec())
    clone = ScenarioResult.from_json(result.to_json())
    assert clone == result
    assert clone.to_json() == result.to_json()


def test_store_replay_skips_execution(tmp_path):
    specs = [tiny_spec("random"), tiny_spec("snapshot-locality")]
    cold = SweepRunner(ResultCache(store=ResultStore(tmp_path)))
    first = cold.run(specs)
    assert cold.last_stats.executed == 2

    warm = SweepRunner(ResultCache(store=ResultStore(tmp_path)))
    second = warm.run(specs)
    assert warm.last_stats.executed == 0
    assert warm.last_stats.disk_hits == 2
    for spec in specs:
        assert second[spec] == first[spec]
        assert second[spec].to_json() == first[spec].to_json()


def test_serial_and_parallel_sweeps_agree(tmp_path):
    specs = [tiny_spec("random"), tiny_spec("least-loaded")]
    serial = SweepRunner(ResultCache(store=ResultStore(tmp_path / "s")),
                         jobs=1).run(specs)
    parallel = SweepRunner(ResultCache(store=ResultStore(tmp_path / "p")),
                           jobs=2).run(specs)
    for spec in specs:
        assert serial[spec].to_json() == parallel[spec].to_json()


def test_cluster_figure_data_shape():
    profile = tiny_profile()
    cache = ResultCache()
    data = build_figure("cluster", cache, [profile], approaches=("snapbpf",),
                        policy=("random", "snapshot-locality"),
                        n_nodes=(2,), **TINY_CLUSTER)
    assert data.ylabel == "cold-start ratio"
    assert data.functions == ["tiny random n=2",
                              "tiny snapshot-locality n=2"]
    random_ratio = data.series["snapbpf"][0]
    locality_ratio = data.series["snapbpf"][1]
    assert locality_ratio <= random_ratio


def test_cluster_cell_spec_is_cacheable():
    profile = tiny_profile()
    a = cluster_cell_spec(profile, "snapbpf", "random", 2, **TINY_CLUSTER)
    b = cluster_cell_spec(profile, "snapbpf", "random", 2, **TINY_CLUSTER)
    assert a == b and a.stable_hash() == b.stable_hash()
    assert a.cluster.policy == "random" and a.cluster.n_nodes == 2
