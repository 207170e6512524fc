"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

They run reduced passes (fewer stop-d4 markets than a benchmark run),
which still cover every op kind and every traced entry point.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from worker import ROOT, import_library, run_pass, timed, warm_up  # noqa: E402

import_library()

import horizonrisk  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "s4-cli": lambda seed, workdir: workloads.build_s4_cli(seed, workdir),
    "stop-d4": lambda seed, workdir: workloads.build_stop_d4(seed, workdir, markets=4),
}

# the workload each traced entry point must be called on
MOSTLY_ON = {
    "tree.conditional_expectation": ("s4-cli", "stop-d4"),
    "tree.build_tree": ("s4-cli",),
    "expectations.evaluate": ("s4-cli", "stop-d4"),
    "expectations.axioms_check": ("s4-cli",),
    "market.wealth_process": ("stop-d4",),
    "market.stopping_time_space": ("stop-d4",),
    "market.enumerate_stopping_times": ("stop-d4",),
    "market.PolicySpace": ("stop-d4",),
    "market.truncate": ("stop-d4",),
    "market.conditional_space": ("stop-d4",),
    "horizon._maximize": ("stop-d4",),
    "horizon._selection_keys": ("stop-d4",),
    "horizon.feasible_set": ("stop-d4",),
    "horizon.run_policy_choice": ("stop-d4",),
    "consistency.intertemporal_monotonicity": ("stop-d4",),
    "consistency.check_time_consistency": ("stop-d4",),
    "consistency.check_dependability": ("stop-d4",),
    "consistency.acceptability_check": ("stop-d4",),
    "files.load_market": ("s4-cli",),
    "files.load_space": ("s4-cli",),
    "cli.main": ("s4-cli",),
    "instances.builtin_example": ("s4-cli",),
}


@pytest.fixture(scope="module")
def traced_passes(tmp_path_factory):
    """One untraced and one traced pass of each reduced workload."""
    out = {}
    for name, build in SMALL.items():
        workload = build(workloads.DEFAULT_SEED, tmp_path_factory.mktemp(name))
        plain = run_pass(workload)
        tracer = tracing.Tracer(keep_spans=1000)
        tracer.install()
        try:
            with_trace = run_pass(workload, tracer)
        finally:
            tracer.uninstall()
        out[name] = plain, with_trace, tracer
    return out


@pytest.mark.parametrize("name", list(SMALL))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    dirs = [tmp_path / d for d in "abc"]
    for d in dirs:
        d.mkdir()
    a, b, c = (SMALL[name](seed, d) for seed, d in zip((7, 7, 8), dirs))
    assert a.inputs == b.inputs
    assert a.inputs != c.inputs
    written = sorted(p.name for p in dirs[0].iterdir())
    assert written == sorted(p.name for p in dirs[1].iterdir())
    for f in written:
        assert (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes()


def test_stop_d4_workers_draw_their_own_markets(tmp_path):
    a, b, c = (workloads.build_stop_d4(7, tmp_path / d, worker, markets=4)
               for d, worker in (("a", 0), ("b", 0), ("c", 1)))
    assert a.inputs == b.inputs
    assert a.inputs != c.inputs
    assert [op.key for op in a.ops] != [op.key for op in c.ops]


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_outputs_equal_untraced_outputs(name, traced_passes):
    plain, with_trace, _ = traced_passes[name]
    assert [op.key for op, *_ in plain] == [op.key for op, *_ in with_trace]
    for (op, _, summary, reason), (_, _, summary_t, reason_t) in zip(plain, with_trace):
        assert reason is None and reason_t is None, (reason, reason_t)
        assert summary == summary_t, op.key


def test_every_traced_entry_point_is_called_on_its_workload(traced_passes):
    traced_names = {f"{module}.{attr}" for module, attr, *_ in tracing.SPANS}
    traced_names.add("market.PolicySpace")
    assert traced_names == set(MOSTLY_ON)
    for layer, names in MOSTLY_ON.items():
        for name in names:
            assert traced_passes[name][2].calls[layer] > 0, (layer, name)
    assert traced_passes["s4-cli"][2].counts["files.bytes_read"] > 0
    assert traced_passes["stop-d4"][2].counts["member_value.non_bellman"] > 0


def test_traced_modules_are_restored(traced_passes):
    for name, module in list(sys.modules.items()):
        if name == "horizonrisk" or name.startswith("horizonrisk."):
            for attr, value in vars(module).items():
                assert "<locals>" not in getattr(value, "__qualname__", ""), (name, attr)
    assert "<locals>" not in horizonrisk.market.PolicySpace.__post_init__.__qualname__


def test_layer_metrics_cover_the_declared_list(traced_passes):
    values = traced_passes["stop-d4"][2].layer_metrics(1, 0.1)
    assert list(values) == [name for name, _, _ in tracing.LAYER_METRICS]
    assert 0.0 < values["horizon.wealth_cache.hit_ratio"] < 1.0
    assert values["market.stopping_time_space.members"] == 4 * 677


def _perturbed_acceptability(real):
    def wrong(*args, **kwargs):
        report = real(*args, **kwargs)
        return dataclasses.replace(report, realized_value=report.realized_value + 1e-6)

    return wrong


def test_wrong_output_counts_in_ops_failed_frac(tmp_path, monkeypatch):
    workload = workloads.build_stop_d4(workloads.DEFAULT_SEED, tmp_path, markets=1)
    monkeypatch.setattr(
        horizonrisk, "acceptability_check", _perturbed_acceptability(horizonrisk.acceptability_check)
    )
    result = timed(workload, budget=0.0)
    assert result["failed"] == 1
    assert "m0:acceptability" in result["reasons"][0]
    result.update(peak_rss_mb=1.0, ops_per_pass=len(workload.ops))
    _, extra = run.end_to_end([result], [1.0])
    assert extra["ops_failed_frac"] == pytest.approx(1 / 6)


def test_pass_scaling_cancels_the_machine_speed():
    probe = run.PROBE_NOMINAL_S
    fast = [("run_simple", 0.004, probe), ("acceptability", 0.010, probe)]
    slow = [(kind, 1.6 * seconds, 1.6 * probe) for kind, seconds, probe in fast]
    scaled = run.scaled_samples({"samples": fast + slow, "ops_per_pass": len(fast)})
    assert [kind for kind, _ in scaled] == ["run_simple", "acceptability"] * 2
    assert [ms for _, ms in scaled] == pytest.approx([4.0, 10.0, 4.0, 10.0])


def test_op_raising_in_warm_up_counts_in_ops_failed_frac(tmp_path, monkeypatch):
    workload = workloads.build_stop_d4(workloads.DEFAULT_SEED, tmp_path, markets=1)

    def broken(*args, **kwargs):
        raise ArithmeticError("broken")

    monkeypatch.setattr(horizonrisk, "acceptability_check", broken)
    warm_up(workload)
    result = timed(workload, budget=0.0)
    assert result["failed"] == 1
    assert result["reasons"][0].startswith("m0:acceptability@")
    assert ": ArithmeticError: broken" in result["reasons"][0]


def test_wrong_cli_bytes_count_as_failures(tmp_path, monkeypatch):
    workload = workloads.build_s4_cli(workloads.DEFAULT_SEED, tmp_path)
    monkeypatch.setattr(horizonrisk.cli, "SCHEMA_VERSION", 2)
    result = timed(workload, budget=0.0)
    assert result["failed"] == len(workload.ops)


def test_other_seeds_check_invariants_without_reference(tmp_path):
    workload = workloads.build_stop_d4(11, tmp_path, markets=4)
    assert workload.reference == {}
    assert all(reason is None for *_, reason in run_pass(workload))


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.BY_NAME)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.LAYER_METRICS


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "s4-cli", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
