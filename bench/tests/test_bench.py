"""Tests of the benchmark itself: workload configs, output digests and the
self-time arithmetic of the tracer.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import rep  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = 0.01
ALL = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", ALL)
def test_workload_config_parses_and_completes_at_tiny_size(workload):
    smosim = rep.import_smosim()
    config = smosim.config_from_dict(workloads.build(workload, workloads.DEFAULT_SEED, TINY))
    assert config.seed == workloads.derived_seeds(workloads.DEFAULT_SEED)["config"]
    out = rep.run_once(workload, workloads.DEFAULT_SEED, t0=0.0, scale=TINY)
    assert out["errors"] == []
    assert out["events"] > 0


@pytest.mark.parametrize("workload", ALL)
def test_two_tiny_runs_give_equal_digests(workload):
    first = rep.run_once(workload, 5, t0=0.0, scale=TINY)
    second = rep.run_once(workload, 5, t0=0.0, scale=TINY)
    other_seed = rep.run_once(workload, 6, t0=0.0, scale=TINY)
    assert first["digest"] == second["digest"]
    assert other_seed["digest"] != first["digest"]


def test_workload_seed_regenerates_config_split_and_poison_seeds():
    one, two = workloads.build("batch-ingest", 1), workloads.build("batch-ingest", 2)
    seeds = workloads.derived_seeds(1)
    assert one["seed"] == seeds["config"]
    assert one["pipeline"]["split"]["seed"] == seeds["split"]
    assert one["harness"]["poison"]["seed"] == seeds["poison"]
    for pick in (lambda d: d["seed"], lambda d: d["pipeline"]["split"]["seed"],
                 lambda d: d["harness"]["poison"]["seed"]):
        assert pick(one) != pick(two)
    assert workloads.build("batch-ingest", 1) == one


def test_self_times_on_nested_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("child", 1.0, 4.0, 0),
        ("grandchild", 2.0, 3.0, 1),
        ("second child", 5.0, 6.0, 0),
        ("sibling root", 11.0, 12.5, -1),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([10.0 - 3.0 - 1.0, 3.0 - 1.0, 1.0, 1.0, 1.5])
    # self times partition the time the root spans cover
    assert sum(own) == pytest.approx(10.0 + 1.5)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [("parent", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("b", 3.0, 6.0, 0),
             ("late", 9.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_traced_run_is_transparent_and_accounts_for_run_time():
    smosim = rep.import_smosim()
    original = smosim.scenarios.aggregate
    plain = rep.run_once("federated-rounds", 2, t0=0.0, scale=TINY)
    traced = rep.run_once("federated-rounds", 2, t0=0.0, trace=True, scale=TINY)
    assert smosim.scenarios.aggregate is original  # wrappers removed again
    assert traced["digest"] == plain["digest"]
    layers = traced["layers"]
    assert layers["trace.layer_self_s"] <= layers["trace.run_s"]
    assert sum(layers[f"{layer}.share"] for layer in tracing.LAYERS) <= 1.0
    assert layers["scenarios.aggregate.calls"] == 2
    assert layers["learn.train.sgd_steps"] > 0


def test_benchmark_json_names_only_computed_metrics_with_their_units():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    traced = rep.run_once("stream-monitor", 1, t0=0.0, trace=True, scale=TINY)
    computed = set(traced["layers"]) | {"trace.overhead_ratio"}
    for metric in spec["per_layer"]:
        assert metric["name"] in computed
        assert metric["unit"] == tracing.unit_of(metric["name"])
