"""Config parsing: field-table defaults, strict types, error paths, CLI seed override."""

from __future__ import annotations

import copy
import json
import math
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smosim import cli, learn
from smosim.config import (
    CollectionSpec,
    CostTable,
    DeploySpec,
    EmissionSpec,
    HarnessSpec,
    MAX_BYTES,
    MAX_COMPONENTS,
    MAX_INFLATION,
    MAX_JOB_CLASSES,
    MAX_MISSED_BEATS,
    MAX_RECORDS,
    MAX_ROUNDS,
    MAX_SEARCH_TRIALS,
    MAX_TICK,
    MAX_WIDTH,
    ModelSpec,
    MonitorSpec,
    PipelineSpec,
    SizeTable,
    TopologyCounts,
    config_from_dict,
)
from smosim.errors import ConfigError, MissingKey, SimulationError, ZeroCapacity
from smosim.harness import schedule
from smosim.learn import sample_random

from conftest import scenario_b_dict
from golden.cases import CASES, golden_path
from invariants import checked_run


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
    (("model", "hyperparams", "epochs"), 696367.0, ConfigError, "model.hyperparams.epochs"),
    (("model", "hyperparams", "stump_depth"), 1, ConfigError, "model.hyperparams.stump_depth"),
    (("monitor", "rouns"), 3, ConfigError, "monitor.rouns"),
    (("monitor", "batch"), -5, ConfigError, "monitor.batch"),
    (("monitor", "max_refinements"), -1, ConfigError, "monitor.max_refinements"),
    (("search",), {"grid": {"lrate": [0.1]}}, ConfigError, "search.grid.lrate"),
    (("search",), {"grid": {"batch_size": [16, 0]}}, ConfigError, "search.grid.batch_size[1]"),
    (("search",), {"grid": {"stump_depth": [2]}}, ConfigError, "search.grid.stump_depth"),
    (("search",), {"grid": {"epochs": [1.5]}}, ConfigError, "search.grid.epochs[0]"),
    (("search",), {"grid": {"epochs": [10, 1000000]}}, ConfigError, "search.grid.epochs[1]"),
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
    (("sizes", "record_bytes"), MAX_BYTES + 1, ConfigError, "sizes.record_bytes"),
    (("sources", 0, "schema"), [{"name": "cell", "type": "categorical",
                                 "vocab": [str(i) for i in range(MAX_WIDTH + 1)]}],
     ConfigError, "sources[0].schema"),
    (("pipeline", "derived"), [{"op": "product", "a": "cpu", "b": "mem"}] * (MAX_WIDTH - 3),
     ConfigError, "pipeline.derived"),
    (("sizes", "artifact_entry_bytes"), 10**30, ConfigError, "sizes.artifact_entry_bytes"),
    (("interfaces",), {"R1": {"overhead_bytes": MAX_BYTES + 1}}, ConfigError,
     "interfaces.R1.overhead_bytes"),
    (("deploy", "package_inflation"), 1e308, ConfigError, "deploy.package_inflation"),
    (("harness", "privacy"), {"key": "k", "inflation": MAX_INFLATION * 2}, ConfigError,
     "harness.privacy.inflation"),
    (("harness", "scheduler"), {"budget": 0}, ZeroCapacity, "harness.scheduler.budget"),
    (("harness", "privacy"), {"key": ""}, MissingKey, "harness.privacy.key"),
    (("harness", "privacy"), {"inflation": 1.1}, MissingKey, "harness.privacy.key"),
    (("harness", "failure"), {"target": "AimlFunction#0", "fail_tick": -1}, ConfigError,
     "harness.failure.fail_tick"),
    (("harness", "failure"), {"target": "AimlFunction#0",
                              "missed_to_declare": MAX_MISSED_BEATS + 1}, ConfigError,
     "harness.failure.missed_to_declare"),
    (("harness", "failure"), {"target": "AimlFunction#0", "replicas": ["AimlFunction#-1"]},
     ConfigError, "harness.failure.replicas[0]"),
    (("harness", "failure"), {"target": "AimlFunction#0", "replicas": ["AimlFunction#0"]},
     ConfigError, "harness.failure.replicas[0]"),
    (("harness", "scheduler"), {"budget": 4, "classes": [{"name": "a", "work": -3}]},
     ConfigError, "harness.scheduler.classes[0].work"),
    (("harness", "scheduler"), {"budget": 4, "classes": [{"name": "a"}, {"name": "a"}]},
     ConfigError, "harness.scheduler.classes[1].name"),
    (("harness", "scheduler"), {"budget": 4, "classes": [{"name": "job1"}, {"work": 3}]},
     ConfigError, "harness.scheduler.classes[1].name"),
    (("topology",), {"nssmf": 1, "nfvo": 0, "mda_3gpp": 1, "vnfm": 1}, ConfigError,
     "topology.nfvo"),
    (("harness", "scheduler"), {"budget": 4, "classes": []}, ConfigError,
     "harness.scheduler.classes"),
    (("harness", "scheduler"), {"budget": 4, "classes": [{}] * (MAX_JOB_CLASSES + 1)},
     ConfigError, "harness.scheduler.classes"),
    (("harness", "drift_shift"), {"at_round": 1, "coefficients": [1.0, 0.0]}, ConfigError,
     "harness.drift_shift.coefficients"),
    (("pipeline", "derived"), [{"op": "product", "a": "x", "b": "cpu"}], ConfigError,
     "pipeline.derived[0].a"),
    (("pipeline", "derived"), [{"op": "product", "a": "slice", "b": "cpu"}], ConfigError,
     "pipeline.derived[0].a"),
    (("pipeline", "derived"), [{"op": "ratio", "a": "cpu", "b": "slice"}], ConfigError,
     "pipeline.derived[0].b"),
    (("topology", "rapps"), -3, ConfigError, "topology.rapps"),
    (("sources", 0, "emission", "size"), 10**13, ConfigError, "sources[0].emission.size"),
    (("sources", 0, "emission", "size"), MAX_RECORDS + 1, ConfigError,
     "sources[0].emission.size"),
    (("collection",), {"requests": MAX_RECORDS // 200 + 1}, ConfigError,
     "sources[0].emission.size"),
    (("sources", 1, "emission"), {"mode": "streaming", "size": MAX_RECORDS // 10 + 1,
                                  "interval": 1}, ConfigError, "sources[1].emission.size"),
    (("monitor",), {"rounds": MAX_RECORDS // 20 + 1, "batch": 20}, ConfigError,
     "monitor.rounds"),
    (("monitor", "window"), MAX_RECORDS + 1, ConfigError, "monitor.window"),
    (("model", "hyperparams", "batch_size"), MAX_RECORDS + 1, ConfigError,
     "model.hyperparams.batch_size"),
    (("search",), {"grid": {"batch_size": [8, 10**30]}}, ConfigError,
     "search.grid.batch_size[1]"),
    (("search",), {"mode": "random", "budget": 2, "ranges": {"batch_size": [8, 10**30]}},
     ConfigError, "search.ranges.batch_size[1]"),
    (("search",), {"mode": "random", "budget": 10**9, "ranges": {"learning_rate": [0.01, 0.1]}},
     ConfigError, "search.budget"),
    (("search",), {"mode": "random", "budget": MAX_SEARCH_TRIALS + 1,
                   "ranges": {"learning_rate": [0.01, 0.1]}}, ConfigError, "search.budget"),
    (("search",), {"grid": {"learning_rate": [0.01 * (i + 1) for i in range(300)],
                            "batch_size": list(range(1, 301))}}, ConfigError, "search.grid"),
    (("search",), {"grid": {"learning_rate": [0.01, 0.02],
                            "batch_size": list(range(1, MAX_SEARCH_TRIALS // 2 + 2))}},
     ConfigError, "search.grid"),
    # checked before the sources, so this scenario B config fails at its rounds alone
    (("scenario",), {"kind": "C", "mode": "share-models", "rounds": MAX_ROUNDS + 1},
     ConfigError, "scenario.rounds"),
]


def _case_id(case) -> str:
    path, text = case[0], json.dumps(case[1])
    if len(text) > 4096:  # a value past a size bound: cut its id at the head
        text = f"{text[:60]}...({len(text)} chars)"
    return ".".join(map(str, path)) + "=" + text


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

def _json(numbers: st.SearchStrategy) -> st.SearchStrategy:
    """Any small JSON value, with its numbers drawn from ``numbers``."""
    return st.recursive(
        st.none() | st.booleans() | numbers | st.text(max_size=6),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                     max_size=3),
        max_leaves=6)


JSON = _json(st.integers() | st.floats())


def _rich_b_dict() -> dict:
    """scenario_b_dict with every optional section set, so mutations reach each parser."""
    data = scenario_b_dict(n_per_source=20)
    data["topology"].update({"aiml_instances": 2, "extra_links": [
        {"src": "MdaSystem3GPP#0", "dst": "NSSMF#0", "interface": "SmoInternal"}]})
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
    assert checked_run(config).report.failure is None


def _mutate(data, config: dict, values: st.SearchStrategy = JSON) -> None:
    """Drop, add or replace one random leaf of ``config``, in place."""
    op = data.draw(st.sampled_from(["drop", "add", "replace"]))
    if op == "add":
        containers = [()] + [p for p in _nodes(config)
                             if isinstance(_at(config, p), (dict, list))]
        parent = _at(config, data.draw(st.sampled_from(containers)))
        value = data.draw(values)
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
            parent[path[-1]] = data.draw(values)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_one_mutated_leaf_raises_only_simulation_errors(data):
    config = _rich_b_dict()
    _mutate(data, config)
    try:
        config_from_dict(config)
    except SimulationError:
        pass


# -- every integer of a golden config at 10**30 ---------------------------------------------


def _huge_integer_configs() -> list[tuple[str, tuple]]:
    """(golden case, path) of each integer leaf of each golden config."""
    leaves = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, case in CASES.items():
            config = case(Path(tmp))
            leaves += [(name, path) for path in _nodes(config) if type(_at(config, path)) is int]
    return leaves


@pytest.mark.parametrize("name, path", _huge_integer_configs(),
                         ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else v)
def test_an_integer_of_10_to_the_30_is_rejected_or_runs_to_a_checked_report(name, path,
                                                                             tmp_path,
                                                                             monkeypatch):
    config = CASES[name](tmp_path)
    _at(config, path[:-1])[path[-1]] = 10**30
    try:
        parsed = config_from_dict(config)
    except SimulationError:
        return
    monkeypatch.chdir(tmp_path)  # the import case names its artifact relative to it
    checked_run(parsed)


# -- runs of mutated configs ---------------------------------------------------------------

# Numbers up to 40 keep every run short: a mutated record count, round count or
# epoch count stays small (an integral float is taken as an int). The failover
# variants draw their fail tick from the whole of the unmutated run.
RUN_JSON = _json(st.integers(-2, 40) | st.floats(-2, 40)
                 | st.sampled_from([math.nan, math.inf, -math.inf]))
FAILOVER_BASES = ("b_small", "a_import_model", "c_share_models")
RUN_BASES = ("rich_b", *CASES, *(f"{name}+failover" for name in FAILOVER_BASES))


def _run_base(data, name: str, workdir: Path) -> dict:
    """The named base config; a ``+failover`` one fails its primary at a drawn tick."""
    if name == "rich_b":
        return _rich_b_dict()
    case = name.removesuffix("+failover")
    config = CASES[case](workdir)
    if case != name:
        final = json.loads(golden_path(case).read_text())["report"]["final_tick"]
        config["topology"]["aiml_instances"] = 2
        config["harness"] = {"failure": {
            "target": "AimlFunction#0", "replicas": ["AimlFunction#1"],
            "fail_tick": data.draw(st.integers(0, final), label="fail_tick"),
            "heartbeat_interval": data.draw(st.integers(1, 4), label="heartbeat_interval"),
            "missed_to_declare": data.draw(st.integers(1, 3), label="missed_to_declare"),
            "checkpoint_interval": data.draw(st.integers(1, 10), label="checkpoint_interval")}}
    return config


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_accepted_mutated_config_runs_to_a_checked_report(data):
    """Each accepted config ends completed, or failed with a named SimulationError,
    and its run keeps every invariant of ``check_invariants``."""
    with tempfile.TemporaryDirectory() as tmp:
        config = _run_base(data, data.draw(st.sampled_from(RUN_BASES), label="base"),
                           Path(tmp))
        _mutate(data, config, RUN_JSON)
        try:
            parsed = config_from_dict(config)
        except SimulationError:
            return
        cwd = os.getcwd()
        os.chdir(tmp)  # the import bases name their artifact relative to it
        try:
            checked_run(parsed)
        finally:
            os.chdir(cwd)


class TestCrossFieldRules:
    @staticmethod
    def _failover(replicas: list[str]) -> dict:
        data = scenario_b_dict()
        data["topology"]["aiml_instances"] = 3
        data["harness"] = {"failure": {"target": "AimlFunction#0", "replicas": replicas}}
        return data

    def test_replicas_are_distinct_from_each_other(self):
        with pytest.raises(ConfigError) as info:
            config_from_dict(self._failover(["AimlFunction#1", "AimlFunction#2",
                                             "AimlFunction#1"]))
        assert info.value.field == "harness.failure.replicas[2]"

    def test_distinct_replicas_are_accepted(self):
        config = config_from_dict(self._failover(["AimlFunction#2", "AimlFunction#1"]))
        assert [r.index for r in config.harness.failure.replicas] == [2, 1]

    @pytest.mark.parametrize("link", [
        {"src": "NSSMF#0", "dst": "NonRtRic#0", "interface": "NSSMF_NonRTRIC"},
        {"src": "RApp#0", "dst": "AimlFunction#0", "interface": "R1"},  # no rApp declared
    ])
    def test_extra_links_must_be_buildable(self, link):
        data = scenario_b_dict()
        data["topology"]["extra_links"] = [
            {"src": "MdaSystem3GPP#0", "dst": "NSSMF#0", "interface": "SmoInternal"}, link]
        with pytest.raises(ConfigError) as info:
            config_from_dict(data)
        assert info.value.field == "topology.extra_links[1]"

    # (where a config places a component, the last component of a kind that
    # _PLACEMENT_COUNTS builds, the first it does not, the path the error names)
    _PLACEMENT_COUNTS = {"nssmf": 2, "nfmf_per_nssmf": 2, "nfvo": 1, "mda_3gpp": 1,
                         "mda_nfv": 1, "rapps": 2, "aiml_instances": 2}

    @pytest.mark.parametrize("path, built, unbuilt, field", [
        (("sources", 0, "owner"), "NSSMF#1", "NSSMF#2", "sources[0].owner"),
        (("sources", 0, "owner"), "NFMF#3", "NFMF#4", "sources[0].owner"),
        (("sources", 1, "owner"), "RApp#1", "RApp#2", "sources[1].owner"),
        (("deploy", "targets", 1), "MdaSystemNFV#0", "MdaSystemNFV#1", "deploy.targets[1]"),
        (("deploy", "targets", 0), "AimlFunction#1", "AimlFunction#2", "deploy.targets[0]"),
        (("harness", "failure", "target"), "AimlFunction#1", "AimlFunction#2",
         "harness.failure.target"),
        (("harness", "failure", "replicas"), ["AimlFunction#1"], ["AimlFunction#2"],
         "harness.failure.replicas[0]"),
        (("topology", "extra_links", 0, "src"), "RApp#1", "RApp#2", "topology.extra_links[0]"),
        (("topology", "extra_links", 0, "dst"), "AimlFunction#1", "AimlFunction#2",
         "topology.extra_links[0]"),
    ])
    def test_a_config_places_only_components_the_topology_builds(self, path, built, unbuilt,
                                                                 field):
        data = scenario_b_dict()
        data["topology"] = dict(self._PLACEMENT_COUNTS, extra_links=[
            {"src": "RApp#0", "dst": "AimlFunction#0", "interface": "R1"}])
        data["harness"] = {"failure": {"target": "AimlFunction#0"}}
        config_from_dict(_with(data, path, built))
        with pytest.raises(ConfigError, match="is not instantiated by the topology section") \
                as info:
            config_from_dict(_with(data, path, unbuilt))
        assert info.value.field == field

    @pytest.mark.parametrize("link", [
        {"src": "NfvoTermination#1", "dst": "AimlFunction#0", "interface": "SmoInternal"},
        {"src": "ExternalProvider#0", "dst": "ExternalAimlTermination#0",
         "interface": "ExternalAiml"},
    ])
    def test_links_reach_only_terminations_and_providers_the_topology_builds(self, link):
        data = scenario_b_dict()
        data["topology"]["extra_links"] = [link]
        with pytest.raises(ConfigError, match="is not instantiated") as info:
            config_from_dict(data)
        assert info.value.field == "topology.extra_links[0]"

    def test_record_counts_up_to_the_bound_are_accepted(self):
        data = scenario_b_dict()
        data["sources"][0]["emission"]["size"] = MAX_RECORDS
        data["sources"][1]["emission"] = {"mode": "streaming", "size": MAX_RECORDS // 10,
                                          "interval": 1}
        data["monitor"] = {"rounds": MAX_RECORDS // 20, "batch": 20, "window": MAX_RECORDS}
        data["model"]["hyperparams"]["batch_size"] = MAX_RECORDS
        config = config_from_dict(data)
        assert (config.sources[0].emission.size, config.monitor.rounds) == (
            MAX_RECORDS, MAX_RECORDS // 20)
        assert config.monitor.window == config.model.hyperparams.batch_size == MAX_RECORDS

    @pytest.mark.parametrize("counts, field", [
        ({"aiml_instances": 50_000}, "topology.aiml_instances"),
        ({"rapps": 50_000}, "topology.rapps"),
        ({"mda_3gpp": MAX_COMPONENTS + 1}, "topology.mda_3gpp"),
        ({"nssmf": MAX_COMPONENTS, "nfmf_per_nssmf": 2}, "topology.nfmf_per_nssmf"),
    ], ids=lambda v: json.dumps(v) if isinstance(v, dict) else v)
    def test_topology_counts_past_the_bound_fail_before_anything_is_built(self, counts, field,
                                                                          monkeypatch):
        # the topology grows with the square of the AI/ML instance count
        def census(counts):
            raise AssertionError("the census was taken")

        monkeypatch.setattr("smosim.config.census", census)
        data = scenario_b_dict()
        data["topology"].update(counts)
        with pytest.raises(ConfigError) as info:
            config_from_dict(data)
        assert info.value.field == field

    def test_topology_counts_up_to_the_bound_are_accepted(self):
        data = scenario_b_dict()
        data["topology"].update(aiml_instances=MAX_COMPONENTS, rapps=MAX_COMPONENTS,
                                nssmf=MAX_COMPONENTS // 2, nfmf_per_nssmf=2)
        counts = config_from_dict(data).topology
        assert (counts.aiml_instances, counts.rapps, counts.nssmf * counts.nfmf_per_nssmf) == \
            (MAX_COMPONENTS,) * 3

    def test_max_ticks_past_the_int64_tick_columns_is_rejected(self):
        # accepted, this run let an OverflowError escape from a monitor round's tick column
        data = scenario_b_dict(max_ticks=2 ** 70)
        data["monitor"] = {"interval": 2 ** 63}
        with pytest.raises(ConfigError) as info:
            config_from_dict(data)
        assert info.value.field == "max_ticks"

    @pytest.mark.parametrize("interval", [2 ** 62, 2 ** 63])
    def test_a_run_up_to_the_largest_max_ticks_ends_in_a_checked_report(self, interval):
        data = scenario_b_dict(max_ticks=MAX_TICK)
        data["deploy"] = {"targets": ["MdaSystem3GPP#0"]}
        data["monitor"] = {"interval": interval, "rounds": 3, "batch": 5}
        report = checked_run(config_from_dict(data)).report
        assert report.failure.startswith("TickLimitExceeded")

    def test_a_run_at_the_byte_bounds_keeps_int64_columns_and_ends_in_a_checked_report(self):
        # above them, a 10**30 record size used to widen the log's columns to lists, and
        # an inflation of 1e308 to let an OverflowError escape from the payload size
        data = scenario_b_dict(n_per_source=30, sizes={
            key: MAX_BYTES for key in ("record_bytes", "param_bytes", "control_bytes",
                                       "heartbeat_bytes", "prediction_bytes",
                                       "report_base_bytes", "artifact_entry_bytes")})
        data["interfaces"] = {name: {"overhead_bytes": MAX_BYTES}
                              for name in ("NSSMF_NonRTRIC", "NFVO_NonRTRIC", "SmoInternal")}
        data["deploy"] = {"targets": ["MdaSystem3GPP#0"], "packaged": True,
                          "package_inflation": MAX_INFLATION}
        data["monitor"] = {"rounds": 2, "interval": 10, "batch": 5}
        data["harness"] = {"privacy": {"key": "k", "inflation": MAX_INFLATION}}
        result = checked_run(config_from_dict(data))
        assert result.report.status == "completed"
        sizes = [e.bytes for e in result.sim.log.entries if e.type == "send"]
        assert max(sizes) > MAX_BYTES * MAX_INFLATION
        assert all(col.typecode == "q" for col in result.sim.log._cols)

    def test_a_model_message_at_the_bounds_fits_the_int64_bytes_column(self):
        # the widest model is MAX_WIDTH weights and a bias, each of MAX_BYTES, inflated
        # MAX_INFLATION-fold, plus the largest interface overhead
        sizes = SizeTable(param_bytes=MAX_BYTES)
        assert sizes.artifact_bytes(MAX_WIDTH + 1, MAX_INFLATION) + MAX_BYTES < 2 ** 63

    def test_model_columns_up_to_the_bound_are_accepted(self):
        data = scenario_b_dict()
        data["pipeline"]["derived"] = [{"op": "product", "a": "cpu", "b": "mem"}] * \
            (MAX_WIDTH - 4)  # beside the encoded schema's 4 columns
        assert len(config_from_dict(data).pipeline.derived) == MAX_WIDTH - 4

    def test_search_trials_up_to_the_bound_are_accepted(self):
        ranges = {"learning_rate": [0.01, 0.1]}
        random = {"mode": "random", "budget": MAX_SEARCH_TRIALS, "ranges": ranges}
        assert config_from_dict(scenario_b_dict(search=random)).search.budget == \
            MAX_SEARCH_TRIALS
        grid = {"learning_rate": [0.01, 0.02],
                "batch_size": list(range(1, MAX_SEARCH_TRIALS // 2 + 1))}
        spec = config_from_dict(scenario_b_dict(search={"grid": grid})).search
        assert len(learn.enumerate_grid(spec)) == MAX_SEARCH_TRIALS

    def test_scenario_c_rounds_up_to_the_bound_are_accepted(self):
        data = scenario_b_dict(scenario={"kind": "C", "mode": "share-models",
                                         "rounds": MAX_ROUNDS})
        for src, owner in zip(data["sources"], ("MdaSystem3GPP#0", "MdaSystemNFV#0")):
            src["owner"] = owner
        assert config_from_dict(data).rounds == MAX_ROUNDS

    _SEARCH = {"grid": {"learning_rate": [0.05, 0.1]}}

    @pytest.mark.parametrize("base, sections, field", [
        ("b_small", {"external": {"data_path": "data.csv"}}, "external"),
        ("c_share_data", {"external": {"artifact_path": "artifact.json"}}, "external"),
        ("b_small", {"harness": {"drift_shift": {"at_round": 1, "bias": 1.0}}},
         "harness.drift_shift"),
        ("a_import_model", {"monitor": {"rounds": 0},
                            "harness": {"drift_shift": {"at_round": 1}}}, "harness.drift_shift"),
        ("c_share_models", {"harness": {"drift_shift": {"at_round": 1}}}, "harness.drift_shift"),
        ("c_share_models", {"search": _SEARCH}, "search"),
        ("c_share_models", {"scenario": {"online_training": True}}, "scenario.online_training"),
        ("c_share_models", {"collection": {"window": 50}}, "collection"),
        ("c_share_models", {"harness": {"poison": {"fraction": 0.1}}}, "harness.poison"),
        ("c_share_models", {"harness": {"filter": {"k": 3.0}}}, "harness.filter"),
        ("c_share_models", {"harness": {"privacy": {"key": "k"}}}, "harness.privacy"),
        ("a_import_model", {"search": _SEARCH}, "search"),
        ("a_import_model", {"scenario": {"online_training": True}}, "scenario.online_training"),
        ("a_import_model", {"harness": {"filter": {"k": 3.0}}}, "harness.filter"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_a_section_the_run_never_reads_is_rejected_at_its_path(self, base, sections, field,
                                                                  tmp_path):
        data = CASES[base](tmp_path)
        for key, section in sections.items():
            data[key] = {**data.get(key, {}), **section}
        with pytest.raises(ConfigError) as info:
            config_from_dict(data)
        assert info.value.field == field
        if base == "a_import_model" and field != "harness.drift_shift":
            # its one reader is the fresh training of a failover mid-refinement
            assert "failover interrupts a refinement" in str(info.value)

    @pytest.mark.parametrize("base, sections", [
        ("c_share_models", {"collection": {}, "external": {}, "search": None}),
        ("c_share_models", {"scenario": {"online_training": False}, "harness": {}}),
        ("a_import_model", {"scenario": {"online_training": False}, "search": {}}),
        ("b_small", {"harness": {"drift_shift": None}}),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_an_absent_or_empty_unread_section_is_accepted(self, base, sections, tmp_path):
        data = CASES[base](tmp_path)
        for key, section in sections.items():
            data[key] = section if section is None else {**data.get(key, {}), **section}
        config_from_dict(data)

    def test_valid_scheduler_classes_schedule_each_job_no_sooner_than_its_ideal(self):
        scheduler = {"budget": 3, "classes": [
            {"name": "a", "priority": 1, "demand": 2, "work": 6},
            {"demand": 2, "work": 6},  # job1
            {"name": "job0", "demand": 1, "work": 1}]}
        spec = config_from_dict(scenario_b_dict(harness={"scheduler": scheduler})) \
            .harness.scheduler
        assert [c.name for c in spec.classes] == ["a", "job1", "job0"]
        jobs = schedule(spec).jobs
        assert sorted(jobs) == ["a", "job0", "job1"]
        assert [(jobs[n].ideal_tick, jobs[n].completion_tick) for n in ("a", "job1", "job0")] \
            == [(3, 3), (3, 5), (1, 2)]
        assert all(j.completion_tick >= j.ideal_tick >= 1 for j in jobs.values())

    def test_a_class_without_work_is_filled_at_runtime(self):
        scheduler = {"budget": 2, "classes": [{"name": "open"}, {"name": "fixed", "work": 1}]}
        spec = config_from_dict(scenario_b_dict(harness={"scheduler": scheduler})) \
            .harness.scheduler
        assert [c.work for c in spec.classes] == [None, 1]


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

    def test_run_writes_exploration_and_search_trials(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SMO_SIM_SEED", raising=False)
        data = scenario_b_dict(n_per_source=60)
        data["search"] = {"mode": "grid",
                          "grid": {"learning_rate": [0.05, 0.1], "batch_size": [8, 16]}}
        path = tmp_path / "search.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        driver = checked_run(config_from_dict(data)).driver

        trials = (out / "search_trials.csv").read_text().splitlines()
        assert trials[0].startswith("trial,learning_rate,epochs,batch_size,")
        assert [row.split(",")[:4:3] for row in trials[1:]] == [
            ["0", "8"], ["1", "16"], ["2", "8"], ["3", "16"]]
        assert "\n".join(trials) + "\n" == learn.trials_to_csv(driver.search_result)
        exploration = json.loads((out / "exploration.json").read_text())
        assert exploration["feature_names"] == driver.transformed.feature_names
        assert len(exploration["correlation"]) == len(exploration["feature_names"])
        assert (out / "exploration.json").read_text() == driver.exploration.to_json() + "\n"

        plain = tmp_path / "plain"
        assert cli.main(["run", "--config", self._config(tmp_path), "--out", str(plain)]) == 0
        assert (plain / "exploration.json").exists()
        assert not (plain / "search_trials.csv").exists()

    def _write(self, tmp_path, name: str, data: dict) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_compare_writes_one_row_and_one_output_directory_per_config(self, tmp_path,
                                                                         monkeypatch):
        monkeypatch.delenv("SMO_SIM_SEED", raising=False)
        configs = [self._write(tmp_path, "zeta.json", scenario_b_dict(n_per_source=40)),
                   self._write(tmp_path, "alpha.json",
                               scenario_b_dict(n_per_source=30, seed=7))]
        out = tmp_path / "out"
        assert cli.main(["compare", "--configs", *configs, "--out", str(out)]) == 0
        rows = json.loads((out / "comparison.json").read_text())
        assert [row["config"] for row in rows] == ["zeta.json", "alpha.json"]  # as given
        assert [row["seed"] for row in rows] == [42, 7]
        assert all(row["status"] == "completed" for row in rows)
        csv = (out / "comparison.csv").read_text().splitlines()
        assert csv[0].split(",") == list(rows[0])
        assert [line.split(",")[0] for line in csv[1:]] == ["zeta.json", "alpha.json"]
        assert sorted(p.name for p in out.iterdir()) == [
            "alpha", "comparison.csv", "comparison.json", "zeta"]
        for row, name in zip(rows, ("zeta", "alpha")):
            report = json.loads((out / name / "report.json").read_text())
            assert (report["seed"], report["status"]) == (row["seed"], row["status"])
            assert (out / name / "events.jsonl").read_text().count("\n") == \
                report["event_count"]
            assert (out / name / "metrics.csv").read_text().splitlines()[1] == \
                csv[1 + ("zeta", "alpha").index(name)]

    def test_compare_exits_1_when_a_run_fails_and_2_for_one_config(self, tmp_path, capsys,
                                                                    monkeypatch):
        monkeypatch.delenv("SMO_SIM_SEED", raising=False)
        ok = self._write(tmp_path, "ok.json", scenario_b_dict(n_per_source=40))
        lone = scenario_b_dict(n_per_source=40)
        lone["harness"] = {"failure": {"target": "AimlFunction#0", "fail_tick": 1}}
        failing = self._write(tmp_path, "lone.json", lone)
        out = tmp_path / "out"
        assert cli.main(["compare", "--configs", ok, failing, "--out", str(out)]) == 1
        rows = json.loads((out / "comparison.json").read_text())
        assert [(row["config"], row["status"]) for row in rows] == [
            ("ok.json", "completed"), ("lone.json", "failed")]
        capsys.readouterr()
        single = tmp_path / "single"
        assert cli.main(["compare", "--configs", ok, "--out", str(single)]) == 2
        assert capsys.readouterr().err == "error: compare needs at least two configs\n"
        assert not single.exists()
