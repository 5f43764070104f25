"""Config parsing: field-table defaults, strict types, error paths, CLI seed override."""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smosim import cli
from smosim.config import (
    CollectionSpec,
    CostTable,
    DeploySpec,
    EmissionSpec,
    HarnessSpec,
    ModelSpec,
    MonitorSpec,
    PipelineSpec,
    SizeTable,
    TopologyCounts,
    config_from_dict,
)
from smosim.errors import ConfigError, MissingKey, SimulationError, ZeroCapacity
from smosim.learn import sample_random

from conftest import scenario_b_dict


def _with(data: dict, path: tuple, value) -> dict:
    """A deep copy of ``data`` with ``value`` at ``path``; missing dicts on the way are made."""
    out = copy.deepcopy(data)
    node = out
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(key, str) else node[key]
    node[path[-1]] = value
    return out


# (JSON path, bad value, error raised, field path it names)
MALFORMED = [
    (("monitor", "window"), "abc", ConfigError, "monitor.window"),
    (("monitor",), [], ConfigError, "monitor"),
    (("seed",), "x", ConfigError, "seed"),
    (("seed",), -1, ConfigError, "seed"),
    (("sources", 0, "emission"), "x", ConfigError, "sources[0].emission"),
    (("harness", "filter"), {"k": "x"}, ConfigError, "harness.filter.k"),
    (("interfaces",), {"R1": 5}, ConfigError, "interfaces.R1"),
    (("interfaces",), {"R1": {"latency": -1}}, ConfigError, "interfaces.R1.latency"),
    (("harness", "scheduler"), {"budget": 4, "classes": [{"demand": "x"}]}, ConfigError,
     "harness.scheduler.classes[0].demand"),
    (("model", "hyperparams", "epochs"), 2.9, ConfigError, "model.hyperparams.epochs"),
    (("model", "hyperparams", "epochs"), True, ConfigError, "model.hyperparams.epochs"),
    (("model", "hyperparams", "stump_depth"), 1, ConfigError, "model.hyperparams.stump_depth"),
    (("monitor", "rouns"), 3, ConfigError, "monitor.rouns"),
    (("monitor", "batch"), -5, ConfigError, "monitor.batch"),
    (("monitor", "max_refinements"), -1, ConfigError, "monitor.max_refinements"),
    (("search",), {"grid": {"lrate": [0.1]}}, ConfigError, "search.grid.lrate"),
    (("search",), {"grid": {"batch_size": [16, 0]}}, ConfigError, "search.grid.batch_size[1]"),
    (("search",), {"grid": {"stump_depth": [2]}}, ConfigError, "search.grid.stump_depth"),
    (("search",), {"grid": {"epochs": [1.5]}}, ConfigError, "search.grid.epochs[0]"),
    (("search",), {"mode": "random", "budget": 2, "ranges": {"learning_rate": [0.1]}},
     ConfigError, "search.ranges.learning_rate"),
    (("search",), {"mode": "random", "budget": 2, "ranges": {"epochs": [5, 2]}},
     ConfigError, "search.ranges.epochs"),
    (("search",), {"mode": "random", "budget": 2, "ranges": {"learning_rate": [0.0, 0.1]}},
     ConfigError, "search.ranges.learning_rate[0]"),
    (("search", "seed"), -3, ConfigError, "search.seed"),
    (("pipeline", "split", "seed"), -1, ConfigError, "pipeline.split.seed"),
    (("sources", 0, "coefficients", 0), float("nan"), ConfigError, "sources[0].coefficients[0]"),
    (("costs", "train_tick_per_record"), -1, ConfigError, "costs.train_tick_per_record"),
    (("sizes", "record_bytes"), -5, ConfigError, "sizes.record_bytes"),
    (("harness", "scheduler"), {"budget": 0}, ZeroCapacity, "harness.scheduler.budget"),
    (("harness", "privacy"), {"key": ""}, MissingKey, "harness.privacy.key"),
    (("harness", "privacy"), {"inflation": 1.1}, MissingKey, "harness.privacy.key"),
]


def _case_id(case) -> str:
    path, value = case[0], case[1]
    return ".".join(map(str, path)) + "=" + json.dumps(value)


class TestMalformed:
    @pytest.mark.parametrize("case", MALFORMED, ids=_case_id)
    def test_config_from_dict_names_the_field(self, case):
        path, value, error, field = case
        with pytest.raises(error) as info:
            config_from_dict(_with(scenario_b_dict(), path, value))
        assert str(info.value).startswith(f"{field}: ")
        if error is ConfigError:
            assert info.value.field == field

    @pytest.mark.parametrize("case", MALFORMED, ids=_case_id)
    def test_validate_exits_2_with_the_field(self, case, tmp_path, capsys):
        path, value, _, field = case
        config = tmp_path / "config.json"
        config.write_text(json.dumps(_with(scenario_b_dict(), path, value)))
        assert cli.main(["validate", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    @pytest.mark.parametrize("path", [
        ("sead",), ("scenario", "kindd"), ("sources", 0, "owners"), ("topology", "nsmf"),
        ("sources", 0, "schema", 0, "rnage"), ("sources", 0, "emission", "sise"),
        ("harness", "poison", "fractoin"), ("interfaces", "R1", "latncy"), ("raw",),
        ("kind",), ("model", "hyperparam"),
    ], ids=lambda p: ".".join(map(str, p)))
    def test_unknown_key_is_rejected_at_its_path(self, path):
        with pytest.raises(ConfigError) as info:
            config_from_dict(_with(scenario_b_dict(), path, 1))
        expected = ".".join(map(str, path)).replace(".0", "[0]")
        assert info.value.field == expected
        assert "unknown key" in str(info.value)


class TestDefaults:
    def test_minimal_b_config_equals_the_dataclass_defaults(self):
        config = config_from_dict({
            "scenario": {"kind": "B"},
            "topology": {"nssmf": 1},
            "sources": [{"owner": "NSSMF#0", "schema": [{"name": "x"}], "coefficients": [1.0]}],
        })
        assert (config.seed, config.mode, config.rounds) == (0, None, 1)
        assert (config.aggregation, config.online_training) == ("uniform", False)
        assert config.topology == TopologyCounts(nssmf=1)
        assert config.interfaces == {}
        assert config.sizes == SizeTable() and config.costs == CostTable()
        assert config.collection == CollectionSpec() and config.pipeline == PipelineSpec()
        assert config.model == ModelSpec() and config.deploy == DeploySpec()
        assert config.monitor == MonitorSpec() and config.harness == HarnessSpec()
        assert config.search is None and config.external is None
        source = config.sources[0]
        assert source.emission == EmissionSpec() == EmissionSpec("batch", 100, 0)
        assert source.schema[0].valid_range == (0.0, 1.0)
        assert (source.bias, source.noise_sigma, source.error_factor) == (0.0, 0.0, 10.0)
        assert source.rename == {}

    def test_empty_or_null_optional_sections_are_absent(self):
        harness = {"poison": {}, "filter": None, "privacy": {}, "failure": None,
                   "scheduler": {}, "drift_shift": None}
        config = config_from_dict(scenario_b_dict(harness=harness, search={}, external=None))
        assert config.harness == HarnessSpec()
        assert config.search is None and config.external is None
        assert config_from_dict(scenario_b_dict(search=None)).search is None

    def test_scheduler_classes_without_a_name_are_numbered(self):
        scheduler = {"budget": 4, "classes": [{"demand": 1}, {"name": "nf", "demand": 2}]}
        config = config_from_dict(scenario_b_dict(harness={"scheduler": scheduler}))
        assert [c.name for c in config.harness.scheduler.classes] == ["job0", "nf"]

    def test_search_values_take_their_hyperparameter_types(self):
        search = {"mode": "random", "budget": 6, "seed": 4,
                  "grid": {"batch_size": [8.0], "learning_rate": [1]},
                  "ranges": {"epochs": [2.0, 4], "learning_rate": [1, 2]}}
        spec = config_from_dict(scenario_b_dict(search=search)).search
        assert spec.grid == {"batch_size": (8,), "learning_rate": (1.0,)}
        assert type(spec.grid["batch_size"][0]) is int
        assert type(spec.grid["learning_rate"][0]) is float
        assert spec.ranges == {"epochs": (2, 4), "learning_rate": (1.0, 2.0)}
        for combo in sample_random(spec):
            assert type(combo["epochs"]) is int and 2 <= combo["epochs"] <= 4
            assert type(combo["learning_rate"]) is float


# -- one random leaf of a valid config dropped, added or replaced ------------------------

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6)


def _rich_b_dict() -> dict:
    """scenario_b_dict with every optional section set, so mutations reach each parser."""
    data = scenario_b_dict(n_per_source=20)
    data["topology"].update({"aiml_instances": 2, "extra_links": [
        {"src": "NSSMF#0", "dst": "NonRtRic#0", "interface": "NSSMF_NonRTRIC"}]})
    data["interfaces"] = {"R1": {"latency": 2, "overhead_bytes": 30}}
    data["sources"][0]["rename"] = {"cpu": "cpu"}
    data["pipeline"]["derived"] = [{"op": "product", "a": "cpu", "b": "mem"}]
    data["search"] = {"mode": "grid", "grid": {"learning_rate": [0.05], "epochs": [5]}}
    data["monitor"] = {"rounds": 2, "batch": 5, "refit": "full"}
    data["harness"] = {
        "poison": {"fraction": 0.1, "attack": "target_offset", "delta": 1.0,
                   "sources": ["NSSMF#0"]},
        "filter": {"k": 3.0},
        "privacy": {"key": "k", "inflation": 1.1},
        "failure": {"target": "AimlFunction#0", "fail_tick": 10,
                    "replicas": [{"kind": "AimlFunction", "index": 1}]},
        "scheduler": {"budget": 4, "classes": [{"name": "nf", "priority": 1, "demand": 2}]},
        "drift_shift": {"at_round": 1, "coefficients": [1.0, 0.0, 0.0, 0.0], "bias": 0.5},
    }
    return data


def _nodes(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _nodes(value, prefix + (key,))


def _at(data, path):
    for key in path:
        data = data[key]
    return data


def test_rich_base_config_is_valid():
    config = config_from_dict(_rich_b_dict())
    assert config.harness.failure.replicas[0].index == 1


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_one_mutated_leaf_raises_only_simulation_errors(data):
    config = _rich_b_dict()
    op = data.draw(st.sampled_from(["drop", "add", "replace"]))
    if op == "add":
        containers = [()] + [p for p in _nodes(config)
                             if isinstance(_at(config, p), (dict, list))]
        parent = _at(config, data.draw(st.sampled_from(containers)))
        value = data.draw(JSON)
        if isinstance(parent, dict):
            parent[data.draw(st.text(max_size=8))] = value
        else:
            parent.append(value)
    else:
        path = data.draw(st.sampled_from(list(_nodes(config))))
        parent = _at(config, path[:-1])
        if op == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JSON)
    try:
        config_from_dict(config)
    except SimulationError:
        pass


# -- the CLI ------------------------------------------------------------------------------

class TestCli:
    def _config(self, tmp_path) -> str:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(scenario_b_dict(n_per_source=40)))
        return str(path)

    def test_malformed_config_exits_2_for_run(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario_b_dict(monitor={"window": "abc"})))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: monitor.window: ")

    def test_non_integer_env_seed_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SMO_SIM_SEED", "abc")
        argv = ["run", "--config", self._config(tmp_path), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: SMO_SIM_SEED: ")

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SMO_SIM_SEED", raising=False)
        argv = ["run", "--config", self._config(tmp_path), "--seed", "-1",
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: seed: ")

    def test_seed_override_enters_the_config_hash(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SMO_SIM_SEED", raising=False)
        config = self._config(tmp_path)
        reports = {}
        for seed in (5, 6):
            out = tmp_path / f"out{seed}"
            assert cli.main(["run", "--config", config, "--seed", str(seed),
                             "--out", str(out)]) == 0
            reports[seed] = json.loads((out / "report.json").read_text())
        assert (reports[5]["seed"], reports[6]["seed"]) == (5, 6)
        assert reports[5]["config_hash"] != reports[6]["config_hash"]

    def test_env_seed_overrides_the_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SMO_SIM_SEED", "9")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", self._config(tmp_path), "--seed", "5",
                         "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["seed"] == 9
