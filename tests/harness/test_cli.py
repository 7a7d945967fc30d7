"""CLI entry point (`python -m repro`)."""

import json

import pytest

from repro.__main__ import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "bert" in out and "snapbpf" in out
    assert out.count("MiB") >= 13 * 3


def test_run(capsys):
    assert main(["run", "json", "linux-nora"]) == 0
    out = capsys.readouterr().out
    assert "mean E2E" in out and "peak memory" in out


def test_run_unknown_function(capsys):
    assert main(["run", "nosuch", "snapbpf"]) == 2
    assert "error" in capsys.readouterr().err


def test_run_with_instances_and_device(capsys):
    assert main(["run", "json", "linux-nora", "-n", "2",
                 "--device", "hdd"]) == 0
    assert "x2 [hdd]" in capsys.readouterr().out


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Kernel-space" in out


def test_fig_with_subset(capsys):
    assert main(["fig", "4", "--functions", "json"]) == 0
    out = capsys.readouterr().out
    assert "Figure 4" in out and "json" in out


def test_fig_requires_figure_or_all(capsys):
    assert main(["fig"]) == 2
    assert "error" in capsys.readouterr().err


def test_fig_reports_sweep_stats(capsys):
    assert main(["fig", "4", "--functions", "json"]) == 0
    captured = capsys.readouterr()
    assert "Figure 4" in captured.out
    assert "sweep: requested=3 unique=3 executed=3" in captured.err


def test_fig_parallel_warm_cache(tmp_path, capsys):
    """The acceptance loop: --jobs N is byte-identical to serial, and a
    warm-cache rerun executes zero simulations."""
    args = ["fig", "4", "--functions", "json",
            "--cache-dir", str(tmp_path), "--jobs", "2"]
    assert main(args) == 0
    cold = capsys.readouterr()
    assert "executed=3" in cold.err

    assert main(args) == 0
    warm = capsys.readouterr()
    assert "executed=0" in warm.err
    assert "disk_hits=3" in warm.err
    assert warm.out == cold.out, "warm tables must be byte-identical"

    assert main(["fig", "4", "--functions", "json"]) == 0
    fresh = capsys.readouterr()
    assert fresh.out == cold.out, "parallel must match serial"


def test_fig_no_cache_ignores_store(tmp_path, capsys):
    args = ["fig", "4", "--functions", "json",
            "--cache-dir", str(tmp_path), "--no-cache"]
    assert main(args) == 0
    capsys.readouterr()
    assert list(tmp_path.glob("*.json")) == []


def test_run_with_cache_dir(tmp_path, capsys):
    args = ["run", "json", "linux-nora", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    first = capsys.readouterr()
    assert "cache: simulated, stored" in first.err

    assert main(args) == 0
    second = capsys.readouterr()
    assert "cache: hit" in second.err
    assert second.out == first.out


def test_bad_approach_rejected():
    with pytest.raises(SystemExit):
        main(["run", "json", "warpdrive"])


def test_chaos(capsys):
    assert main(["chaos", "json", "linux-nora", "-n", "2",
                 "--fault-seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "Chaos scenario (fault seed 4)" in out
    assert "linux-nora" in out


def test_chaos_attach_failure_override(capsys):
    assert main(["chaos", "json", "snapbpf", "-n", "2",
                 "--media-error-rate", "0",
                 "--attach-failure-rate", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "prefetch_fallbacks=2" in out


def test_chaos_parallel_matches_serial(capsys):
    args = ["chaos", "json", "linux-nora", "snapbpf", "-n", "2",
            "--fault-seed", "4"]
    assert main(args) == 0
    serial = capsys.readouterr().out
    assert main(args + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial


def test_chaos_warm_cache(tmp_path, capsys):
    args = ["chaos", "json", "linux-nora", "-n", "2",
            "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert len(list(tmp_path.glob("*.json"))) == 1
    assert main(args) == 0
    assert capsys.readouterr().out == cold


def test_chaos_unknown_function(capsys):
    assert main(["chaos", "nosuch"]) == 2
    assert "error" in capsys.readouterr().err


def test_chaos_unknown_approach(capsys):
    assert main(["chaos", "json", "warpdrive"]) == 2
    assert "warpdrive" in capsys.readouterr().err


def test_chaos_out_of_range_rate(capsys):
    assert main(["chaos", "json", "linux-nora",
                 "--media-error-rate", "2.0"]) == 2
    assert "media_error_rate" in capsys.readouterr().err


def test_cluster_single_run(capsys):
    assert main(["cluster", "json", "snapbpf", "--duration", "1",
                 "--cluster-functions", "2"]) == 0
    out = capsys.readouterr().out
    assert "json/snapbpf cluster" in out
    assert "cold starts" in out and "served/node" in out


def test_cluster_default_approach_is_snapbpf(capsys):
    assert main(["cluster", "json", "--duration", "1",
                 "--cluster-functions", "2", "--policy", "random"]) == 0
    assert "json/snapbpf cluster: random x2" in capsys.readouterr().out


def test_cluster_unknown_function(capsys):
    assert main(["cluster", "nosuch"]) == 2
    assert "error" in capsys.readouterr().err


def test_cluster_bad_policy(capsys):
    assert main(["cluster", "json", "--policy", "sticky",
                 "--duration", "1"]) == 2
    assert "policy" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cluster", "json", "--fig", "--policies", "random,bogus"],
    ["cluster", "json", "--fig", "--node-counts", "2,x"],
    ["cluster", "json", "--fig", "--node-counts", "0"],
    ["cluster", "json", "--fig", "--duration", "0"],
    ["traffic", "--quick", "--nodes", "0"],
    ["traffic", "--quick", "--slots", "0"],
    ["traffic", "--quick", "--keepalives", "fixed,bogus"],
    ["storage", "--quick", "--nodes", "0"],
    ["storage", "--quick", "--tiers", "flat,bogus"],
    ["fig", "4", "--functions", "nosuch"],
], ids=" ".join)
def test_figure_commands_reject_bad_axis_input(argv, capsys):
    """Bad axis input fails before any cell runs: one error line on
    stderr, exit 2, no traceback."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_cluster_fig_smoke(capsys):
    assert main(["cluster", "json", "snapbpf", "--fig",
                 "--policies", "random,snapshot-locality",
                 "--node-counts", "2", "--duration", "1",
                 "--cluster-functions", "2"]) == 0
    captured = capsys.readouterr()
    assert "cold-start ratio" in captured.out
    assert "snapshot-locality" in captured.out
    assert "sweep:" in captured.err


def test_fig_chaos_sweep_byte_identical(tmp_path, capsys):
    """The headline acceptance loop: every worker SIGKILLed on first
    attempt, every store write torn — yet the figure is byte-identical
    to a clean serial run and the failure manifest is empty."""
    assert main(["fig", "4", "--functions", "json"]) == 0
    reference = capsys.readouterr().out

    manifest = tmp_path / "artifacts" / "sweep_failures.json"
    assert main(["fig", "4", "--functions", "json", "--jobs", "2",
                 "--cache-dir", str(tmp_path / "store"),
                 "--sweep-kill-rate", "1.0", "--sweep-tear-rate", "1.0",
                 "--sweep-fault-seed", "7", "--max-retries", "3",
                 "--failure-manifest", str(manifest)]) == 0
    chaotic = capsys.readouterr()
    assert chaotic.out == reference
    assert "worker_crashes=" in chaotic.err
    assert "worker_crashes=0" not in chaotic.err
    payload = json.loads(manifest.read_text())
    assert payload["kind"] == "sweep-failures"
    assert payload["failures"] == []


def test_run_accepts_supervision_flags(capsys):
    assert main(["run", "json", "linux-nora", "--timeout", "120",
                 "--max-retries", "1", "--keep-going"]) == 0
    assert "json" in capsys.readouterr().out


def test_fig_bad_sweep_rate_rejected(capsys):
    assert main(["fig", "4", "--functions", "json",
                 "--sweep-kill-rate", "1.5"]) == 2
    assert "rate" in capsys.readouterr().err.lower()
