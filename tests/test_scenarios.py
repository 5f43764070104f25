"""End-to-end scenario orchestration: runs A/B/C, aggregation, failover."""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smosim import aggregate, config_from_dict
from smosim import datagen, harness, learn, pipeline, scenarios
from smosim.config import LinkSpec, ModelKind, ScenarioConfig, ScenarioKind, TopologyCounts
from smosim.errors import (
    CollectionTimeout,
    ConfigError,
    EmptyEvalSet,
    InsufficientDomains,
    NoDataSources,
    NonFiniteUpdate,
    SchemaMismatch,
    SimulationError,
    UndeclaredRoute,
    UnsupportedKind,
)
from smosim.learn import LinearParams, ridge_closed_form, evaluate
from smosim.lifecycle import ModelArtifact, Registry
from smosim.scenarios import DomainModel, Driver, FaultRecord, Phase, Timeline, timeline
from smosim.topology import (
    ComponentId,
    ComponentKind,
    Event,
    InterfaceName,
    InterfaceSpec,
    PayloadKind,
    Simulation,
    Topology,
    allowed_on,
    build_topology,
)

from conftest import (build, numeric_feature, save_artifact, scenario_b_dict, source,
                      transformed_to_csv)
from golden.cases import (CASES, a_import_model, b_drift_full, b_stream_incremental,
                          c_share_data, c_share_models, run_case)
from invariants import check_invariants, checked_run

TERMINATION_IFACES = ("NSSMF_NonRTRIC", "NFVO_NonRTRIC")


def _domain_model(kind, weights, bias, n, owner_kind=ComponentKind.MDA_SYSTEM_3GPP,
                  index=0) -> DomainModel:
    return DomainModel(owner=ComponentId(owner_kind, index), kind=kind,
                       params=LinearParams(np.array(weights, dtype=float), bias),
                       sample_count=n)


class TestAggregate:
    def test_uniform_mean(self):
        models = [
            _domain_model(ModelKind.LINEAR_SGD, [1.0, 0.0], 0.0, 5, index=0),
            _domain_model(ModelKind.LINEAR_SGD, [3.0, 2.0], 1.0, 5,
                          owner_kind=ComponentKind.MDA_SYSTEM_NFV),
        ]
        out = aggregate(models, "uniform")
        assert list(out.weights) == [2.0, 1.0]
        assert out.bias == 0.5

    def test_sample_count_weighting(self):
        models = [
            _domain_model(ModelKind.LINEAR_SGD, [0.0], 0.0, 1, index=0),
            _domain_model(ModelKind.LINEAR_SGD, [4.0], 0.0, 3,
                          owner_kind=ComponentKind.MDA_SYSTEM_NFV),
        ]
        out = aggregate(models, "sample_count")
        assert out.weights[0] == pytest.approx(3.0)

    def test_single_model_identity(self):
        model = _domain_model(ModelKind.LINEAR_SGD, [1.25, -0.5], 0.75, 9)
        out = aggregate([model], "sample_count")
        assert np.array_equal(out.weights, model.params.weights)
        assert out.bias == model.params.bias

    def test_permutation_invariance_is_exact(self):
        rng = np.random.default_rng(3)
        models = [
            _domain_model(ModelKind.LINEAR_SGD, rng.normal(size=4), float(rng.normal()),
                          int(rng.integers(1, 50)), index=i)
            for i in range(5)
        ]
        expected = aggregate(models, "sample_count")
        for perm_seed in range(4):
            shuffled = list(models)
            np.random.default_rng(perm_seed).shuffle(shuffled)
            out = aggregate(shuffled, "sample_count")
            assert np.array_equal(out.weights, expected.weights)
            assert out.bias == expected.bias

    def test_identical_inputs_return_that_input_exactly(self):
        model_a = _domain_model(ModelKind.LINEAR_SGD, [0.3, 0.7], 0.1, 4, index=0)
        model_b = _domain_model(ModelKind.LINEAR_SGD, [0.3, 0.7], 0.1, 4, index=1)
        out = aggregate([model_a, model_b], "uniform")
        assert np.array_equal(out.weights, model_a.params.weights)
        assert out.bias == model_a.params.bias

    def test_stump_aggregation_rejected(self):
        model = _domain_model(ModelKind.DECISION_STUMP, [1.0], 0.0, 3)
        with pytest.raises(UnsupportedKind):
            aggregate([model], "uniform")

    def test_width_mismatch_rejected(self):
        models = [_domain_model(ModelKind.LINEAR_SGD, [1.0], 0.0, 3, index=0),
                  _domain_model(ModelKind.LINEAR_SGD, [1.0, 2.0], 0.0, 3, index=1)]
        with pytest.raises(SchemaMismatch):
            aggregate(models, "uniform")

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDomains):
            aggregate([], "uniform")


class TestScenarioB:
    def test_learnable_data_beats_mean_baseline(self):
        result = checked_run(build(scenario_b_dict(n_per_source=150, sigma=0.02)))
        report = result.report
        assert report.status == "completed"
        assert report.model["test_mse"] < report.model["baseline_test_mse"]

    @pytest.mark.parametrize("online", [False, True])
    def test_an_empty_validation_split_scores_nan_in_either_training_mode(self, online):
        data = scenario_b_dict(200)
        data["pipeline"]["split"] = {"train": 0.8, "val": 0.0, "test": 0.2, "seed": 7}
        data["scenario"]["online_training"] = online
        report = checked_run(build(data)).report
        assert (report.status, report.failure) == ("completed", None)
        val = report.model["val_metrics"]
        assert all(math.isnan(val[key]) for key in ("mse", "rmse", "accuracy"))
        assert val["inference_ticks"] == 0 and val["train_ticks"] > 0
        assert math.isfinite(report.model["test_mse"])

    def test_rawdata_message_count_is_sources_times_batches(self):
        data = scenario_b_dict(n_per_source=20)
        data["collection"] = {"window": 10, "requests": 3}
        result = checked_run(build(data))
        raw_delivers = [
            e for e in result.sim.log.entries
            if e.type == "deliver" and e.payload_kind == "RawData"
            and e.interface in TERMINATION_IFACES
        ]
        assert len(raw_delivers) == 2 * 3

    def test_zero_sources_rejected(self):
        with pytest.raises(ConfigError):
            build(scenario_b_dict(sources=[]))
        config = build(scenario_b_dict())
        config.sources = []
        report = checked_run(config).report
        assert report.status == "failed"
        assert report.failure.startswith(f"{NoDataSources.__name__}: ")

    def test_streaming_emission_schedule(self):
        data = scenario_b_dict(n_per_source=10)
        data["sources"][0]["emission"] = {"mode": "streaming", "size": 10, "interval": 5}
        data["collection"] = {"window": 20, "requests": 1}
        result = checked_run(build(data))
        streamed = [
            e for e in result.sim.log.entries
            if e.type == "send" and e.payload_kind == "RawData"
            and e.src == "NSSMF#0"
        ]
        assert len(streamed) == 4  # ticks 5, 10, 15, 20

    @staticmethod
    def _two_streams(nfvo_size: int) -> dict:
        data = scenario_b_dict(n_per_source=5)
        data["topology"] = {"nssmf": 1, "nfmf_per_nssmf": 1, "nfvo": 1}
        data["sources"][0]["owner"] = "NFMF#0"
        data["sources"][0]["emission"] = {"mode": "streaming", "size": 5, "interval": 2}
        data["sources"][1]["emission"] = {"mode": "streaming", "size": nfvo_size,
                                          "interval": 3}
        data["collection"] = {"window": 30}
        data["deploy"] = {"targets": []}
        return data

    @staticmethod
    def _streamed(config: ScenarioConfig, owner: str) -> datagen.RecordBatch:
        """The raw records ``owner`` delivers to the AI/ML function in a checked
        run of ``config``, in delivery order."""
        driver = Driver(config)
        aiml = ComponentId(ComponentKind.AIML_FUNCTION, 0)
        parts, dispatch = [], driver.sim.handlers[aiml]

        def record_data(sim, msg):
            if msg.payload_kind is PayloadKind.RAW_DATA and msg.final_dst == aiml \
                    and msg.meta["source"] == owner:
                parts.append(msg.payload)
            dispatch(sim, msg)

        driver.sim.handlers[aiml] = record_data
        check_invariants(driver.run())
        return datagen.gather(parts)

    def test_streams_of_different_sources_are_independent(self):
        ours = self._streamed(build(self._two_streams(4)), "NFMF#0")
        other = self._streamed(build(self._two_streams(9)), "NFMF#0")
        assert len(ours) == len(other) == 15 * 5
        for name, col in ours.columns.items():
            np.testing.assert_array_equal(col, other.columns[name])
        np.testing.assert_array_equal(ours.target, other.target)
        np.testing.assert_array_equal(ours.tick, other.tick)

    def test_a_streaming_collection_draws_from_one_generator(self):
        config = build(self._two_streams(4))
        streamed = self._streamed(config, "NFMF#0")
        spec = config.sources[0]
        rng = datagen.derive_rng(config.seed, "stream", "NFMF", 0, 1)
        expected = datagen.generate_batch(spec, 5, rng, parts=15)
        for name, col in expected.columns.items():
            np.testing.assert_array_equal(streamed.columns[name], col)
        np.testing.assert_array_equal(streamed.target, expected.target)
        # each emission takes its ids when it is sent: NFMF#0 sends 5 records
        # every 2 ticks, NFVO#0 4 every 3, and NFMF#0 goes first on a shared tick
        next_id, ids = 0, []
        for tick in range(1, 31):
            if tick % 2 == 0:
                ids += range(next_id, next_id + 5)
                next_id += 5
            if tick % 3 == 0:
                next_id += 4
        np.testing.assert_array_equal(streamed.record_id, ids)
        np.testing.assert_array_equal(streamed.tick, np.repeat(np.arange(2, 31, 2), 5))

    def test_monitor_rounds_are_slices_of_one_draw_per_phase(self):
        data = scenario_b_dict(n_per_source=40, deploy={"targets": ["MdaSystem3GPP#0"]})
        data["monitor"] = {"rounds": 6, "interval": 10, "batch": 5, "drift_factor": 1e9}
        data["harness"] = {"drift_shift": {"at_round": 3, "bias": 1.0}}
        config = build(data)
        driver = Driver(config)
        aiml = ComponentId(ComponentKind.AIML_FUNCTION, 0)
        reports = {}
        dispatch = driver.sim.handlers[aiml]

        def record_reports(sim, msg):
            if msg.payload_kind is PayloadKind.REPORT and msg.final_dst == aiml:
                reports[msg.payload["round"]] = msg.payload["records"].batch()
            dispatch(sim, msg)

        driver.sim.handlers[aiml] = record_reports
        assert driver.run().report.status == "completed"
        assert sorted(reports) == [1, 2, 3, 4, 5, 6]

        spec = config.sources[0]  # NSSMF#0 serves the 3GPP MDA target, with no corruption
        shifted = datagen.shifted(spec, None, 1.0)
        rng = datagen.derive_rng(config.seed, "monitor", "MdaSystem3GPP", 0)
        before = datagen.generate_batch(spec, 5, rng, parts=2)
        after = datagen.generate_batch(shifted, 5, rng, parts=4)
        rng = datagen.derive_rng(config.seed, "monitor", "MdaSystem3GPP", 0)
        datagen.generate_batch(spec, 5, rng, parts=2)
        unshifted = datagen.generate_batch(spec, 5, rng, parts=4)
        np.testing.assert_allclose(after.target - unshifted.target, 1.0 - spec.bias)
        drawn = datagen.RecordBatch.concat([before, after])
        first = reports[1].tick[0]
        for r, records in reports.items():
            part = drawn.take(slice(5 * (r - 1), 5 * r))
            for name, col in part.columns.items():
                np.testing.assert_array_equal(records.columns[name], col)
            np.testing.assert_array_equal(records.target, part.target)
            # ids and tick are given at the round itself
            np.testing.assert_array_equal(records.tick, [first + 10 * (r - 1)] * 5)
            start = records.record_id[0]
            np.testing.assert_array_equal(records.record_id, np.arange(start, start + 5))
            assert r == 1 or start > reports[r - 1].record_id[0]

    def test_topology_that_cannot_be_built_fails_the_run(self):
        # a VNFM needs an NFVO to attach to; config_from_dict rejects that, so
        # the VNFM is added after parsing to reach build_topology
        data = scenario_b_dict(n_per_source=10, deploy={"targets": ["MdaSystem3GPP#0"]})
        data["topology"] = {"nssmf": 1, "mda_3gpp": 1}
        data["sources"] = data["sources"][:1]
        config = build(data)
        config.topology = dataclasses.replace(config.topology, vnfm=1)
        result = checked_run(config)
        assert result.report.status == "failed"
        assert result.report.failure == "UndeclaredRoute: VNFM declared without an NFVO"
        assert result.report.event_count == 1  # run_complete

    def test_offline_source_yields_partial_dataset_and_timeout_event(self):
        config = build(scenario_b_dict(n_per_source=40))
        driver = Driver(config)
        driver.sim.fail_component(ComponentId(ComponentKind.NSSMF, 0), -1)
        result = driver.run()
        assert result.report.status == "completed"
        timeouts = result.sim.log.of_type("collection_timeout")
        assert [e.src for e in timeouts] == ["NSSMF#0"]
        # only the NFVO records made it through
        assert len(driver.transformed) == 40

    def test_collection_that_receives_nothing_fails_with_collection_timeout(self):
        # a batch reply takes two ticks to arrive, past a one-tick window
        data = scenario_b_dict(n_per_source=20)
        data["collection"] = {"window": 1}
        result = checked_run(build(data))
        report = result.report
        assert report.status == "failed"
        assert report.failure == f"{CollectionTimeout.__name__}: " \
            "no source delivered any data in [0, 1]"
        timeouts = result.sim.log.of_type("collection_timeout")
        assert [e.src for e in timeouts] == ["NSSMF#0", "NFVO#0"]
        assert result.sim.log.entries[-1].type == "run_complete"
        assert report.final_tick == 1

    def test_deploy_to_edge_nfmf_serves_without_raw_transfer(self):
        data = scenario_b_dict(n_per_source=40)
        data["topology"] = {"nssmf": 1, "nfmf_per_nssmf": 2, "mda_3gpp": 1}
        data["sources"] = [data["sources"][0]]
        data["deploy"] = {"targets": ["NFMF#1"]}
        data["monitor"] = {"rounds": 2, "batch": 10, "interval": 8,
                           "min_samples": 10, "drift_factor": 4.0}
        result = checked_run(build(data))
        assert result.report.status == "completed"
        deploy_tick = next(e.tick for e in result.sim.log.entries
                           if e.type == "deployment_complete")
        raw_after = [e for e in result.sim.log.entries
                     if e.type == "deliver" and e.payload_kind == "RawData"
                     and e.tick > deploy_tick]
        assert raw_after == []
        reports = [e for e in result.sim.log.entries
                   if e.type == "deliver" and e.payload_kind == "Report"
                   and e.dst == "AimlFunction#0"]
        assert len(reports) == 2

    @staticmethod
    def _source_as_target(mode: str, tmp_path) -> dict:
        """A config whose one deploy target, MdaSystem3GPP#0, is also a batch source."""
        if mode == "share-data":
            data = c_share_data(tmp_path)
        else:
            data = scenario_b_dict(n_per_source=40)
            data["sources"][0]["owner"] = "MdaSystem3GPP#0"
        data["deploy"] = {"targets": ["MdaSystem3GPP#0"]}
        data["monitor"] = {"rounds": 2, "interval": 10, "batch": 5}
        return data

    @pytest.mark.parametrize("mode", ["B", "share-data"])
    def test_a_batch_source_that_is_a_deploy_target_serves_both_roles(self, mode, tmp_path,
                                                                      monkeypatch):
        prepared = []
        prepare = Driver._prepare

        def spy(driver, ds):
            prepared.append(ds.records)
            return prepare(driver, ds)

        monkeypatch.setattr(Driver, "_prepare", spy)
        result = checked_run(build(self._source_as_target(mode, tmp_path)))
        log = result.sim.log
        assert result.report.status == "completed"
        assert log.of_type("collection_timeout") == []
        # the source answers its collection request, and its records are trained on
        answers = [e for e in log.entries if e.type == "send" and e.src == "MdaSystem3GPP#0"
                   and e.payload_kind in ("RawData", "CleansedData")]
        assert len(answers) == 1
        (records,) = prepared
        mda = list(records.schemas).index(ComponentId(ComponentKind.MDA_SYSTEM_3GPP, 0))
        assert 0 < np.count_nonzero(records.source == mda) < len(records)
        # and the target monitors the model deployed to it
        assert [e.detail["target"] for e in log.of_type("report_ingested")] == [
            "MdaSystem3GPP#0"] * 2

    def test_each_batch_stage_is_freed_once_its_successor_is_built(self, monkeypatch):
        data = scenario_b_dict(n_per_source=2000)
        for spec in data["sources"]:
            spec["schema"] = spec["schema"] + [
                {"name": "ue", "type": "identifier", "sensitive": True}]
        data["harness"] = {"filter": {"k": 4.0}, "privacy": {"key": "k"}, "poison": {
            "fraction": 0.05, "attack": "target_offset", "delta": 8.0, "seed": 3}}
        # weak references only: a list or an argument tuple of batches keeps them alive
        batches: dict[str, list[weakref.ref]] = {"gathered": [], "kept": [], "cleansed": []}
        alive = []
        gather, validation_filter = datagen.gather, harness.validation_filter
        cleanse = pipeline.cleanse

        def gather_spy(parts):
            batch = gather(parts)
            batches["gathered"].append(weakref.ref(batch))
            return batch

        def filter_spy(records, spec):
            kept, rejected = validation_filter(records, spec)
            batches["kept"].append(weakref.ref(kept))
            return kept, rejected

        def cleanse_spy(d):
            cleansed = cleanse(d)
            batches["cleansed"].append(weakref.ref(cleansed.records))
            return cleansed

        def liveness_spy(real):
            def spy(d, *args):
                alive.append({stage: [ref() is not None for ref in refs]
                              for stage, refs in batches.items()})
                return real(d, *args)
            return spy

        monkeypatch.setattr(datagen, "gather", gather_spy)
        monkeypatch.setattr(harness, "validation_filter", filter_spy)
        monkeypatch.setattr(pipeline, "cleanse", cleanse_spy)
        for name in ("format_dataset", "transform"):
            monkeypatch.setattr(pipeline, name, liveness_spy(getattr(pipeline, name)))
        result = checked_run(build(data))
        assert result.report.status == "completed"
        assert [e.detail["rejected"] > 0 for e in result.sim.log.of_type("mitigation")] == [True]
        assert alive == [{"gathered": [False], "kept": [False], "cleansed": [True]},
                         {"gathered": [False], "kept": [False], "cleansed": [False]}]

    @pytest.mark.parametrize("kind", ["LinearSgd", "RidgeClosedForm"])
    def test_a_searched_run_deploys_the_winning_trial_as_fitted(self, kind, monkeypatch):
        data = scenario_b_dict(n_per_source=80, monitor={"rounds": 0}, search={
            "mode": "grid", "grid": {"learning_rate": [0.02, 0.1], "batch_size": [8, 16]}})
        data["model"]["kind"] = kind
        data["model"]["hyperparams"]["l2_lambda"] = 0.1  # one-hot columns sum to the bias
        config = build(data)
        calls, sgd_calls = [], []
        monkeypatch.setattr(learn, "train", partial(_counted, calls, learn.train))
        monkeypatch.setattr(learn, "_sgd", partial(_counted, sgd_calls, learn._sgd))
        result = checked_run(config)
        assert result.report.status == "completed"
        driver = result.driver
        searched = driver.search_result
        # the search's own fits, and no refit of the winner after them: a
        # ridge trial is a train call, and the LinearSgd trials of each batch
        # size fit together in one SGD call, not through train
        assert (len(calls), len(sgd_calls)) == ((0, 2) if kind == "LinearSgd" else (4, 0))
        deployed = result.registry.entries["m0"].artifact
        assert deployed.parameters is searched.best_result.params
        fresh = learn.train(config.model.kind, driver.split, searched.best, seed=config.seed,
                            costs=driver.costs)
        assert np.array_equal(deployed.parameters.weights, fresh.params.weights)
        assert deployed.parameters.bias == fresh.params.bias
        assert deployed.metrics == fresh.metrics

    def test_a_search_on_an_empty_validation_partition_fails_as_empty_eval_set(self):
        data = scenario_b_dict(n_per_source=40, search={
            "mode": "grid", "grid": {"learning_rate": [0.05, 0.1]}})
        data["pipeline"]["split"] = {"train": 0.6, "val": 0.0, "test": 0.4, "seed": 7}
        report = checked_run(build(data)).report
        assert report.status == "failed"
        assert report.failure.startswith(f"{EmptyEvalSet.__name__}: ")

    def test_a_long_scheduled_training_job_costs_no_step_per_tick(self, tmp_path):
        # stepped tick by tick, the training job's 4.8 million ticks each kept an
        # allocation row, so time and memory grew with the cost
        data = CASES["b_ridge_scheduler"](tmp_path)
        data["costs"] = {"train_tick_per_record": 100_000}
        result = checked_run(build(data))
        assert result.report.status == "completed"
        training = [e.detail for e in result.sim.log.of_type("job_scheduled")
                    if e.detail["job"] == "training"][0]
        # the NF workload takes 2 of the budget of 4 for 30 ticks, the job 2 and then 3
        assert training["work"] == 144 * 100_000  # 144 training records
        assert training["ticks"] == 30 + -(-(training["work"] - 60) // 3)


def _counted(calls, fn, *args, **kwargs):
    calls.append(args)
    return fn(*args, **kwargs)


# -- routing -------------------------------------------------------------------------------

_TERMINATION_OF = {
    ComponentKind.NSSMF: ComponentKind.NSSMF_TERMINATION,
    ComponentKind.MDA_SYSTEM_3GPP: ComponentKind.NSSMF_TERMINATION,
    ComponentKind.NFMF: ComponentKind.NSSMF_TERMINATION,
    ComponentKind.NFVO: ComponentKind.NFVO_TERMINATION,
    ComponentKind.MDA_SYSTEM_NFV: ComponentKind.NFVO_TERMINATION,
    ComponentKind.EXTERNAL_PROVIDER: ComponentKind.EXTERNAL_AIML_TERMINATION,
}


def _reference_hop(topo: Topology, here: ComponentId, final: ComponentId) -> ComponentId:
    """The per-kind hop rules that routed messages before next hops came from
    the link graph, kept to check that the graph routes every message alike."""

    def termination_for(far: ComponentId) -> ComponentId:
        terms = sorted(c for c in topo.components if c.kind is _TERMINATION_OF.get(far.kind))
        if not terms:
            raise UndeclaredRoute(f"no termination serves {far}")
        return terms[0]

    neighbors = topo.neighbors(here)
    if final in neighbors:
        return final
    if final.kind is ComponentKind.NFMF:
        # reach an NFMF through its parent NSSMF
        for n in topo.neighbors(final):
            if n.kind is ComponentKind.NSSMF and n in neighbors:
                return n
    if here.kind is ComponentKind.AIML_FUNCTION:
        return termination_for(final)
    if here.kind is ComponentKind.NFMF:
        for n in neighbors:
            if n.kind is ComponentKind.NSSMF:
                return n
    term = termination_for(here)
    if term in neighbors:
        return term
    raise SimulationError(f"no route from {here} toward {final}")


def _chain(hop, here: ComponentId, final: ComponentId, limit: int) -> list[ComponentId]:
    chain = [here]
    while here != final:
        assert len(chain) <= limit, f"no arrival within {limit} hops: {chain}"
        here = hop(here, final)
        chain.append(here)
    return chain


# every kind a source, a deploy target or the external provider can be
_END_KINDS = {ComponentKind.NSSMF, ComponentKind.NFVO, ComponentKind.NFMF, ComponentKind.RAPP,
              ComponentKind.MDA_SYSTEM_3GPP, ComponentKind.MDA_SYSTEM_NFV,
              ComponentKind.AIML_FUNCTION, ComponentKind.EXTERNAL_PROVIDER}


@st.composite
def _topology_counts(draw) -> TopologyCounts:
    small = st.integers(0, 2)
    counts = TopologyCounts(
        nssmf=draw(small), nfmf_per_nssmf=draw(small), nfvo=draw(small),
        mda_3gpp=draw(small), mda_nfv=draw(small), rapps=draw(small),
        aiml_instances=draw(st.integers(1, 3)), external_provider=draw(st.booleans()))
    if counts.nfvo:
        counts = dataclasses.replace(counts, **{k: draw(st.integers(0, 1)) for k in (
            "vnfm", "vim", "wim", "cism", "cir", "ccm")})
    ids = sorted(build_topology(ScenarioConfig(ScenarioKind.B, topology=counts)).components)
    allowed = [LinkSpec(a, b, name) for a in ids for b in ids if a < b
               for name in InterfaceName if allowed_on(name, a.kind, b.kind)]
    extra = draw(st.lists(st.sampled_from(allowed), max_size=4)) if allowed else []
    return dataclasses.replace(counts, extra_links=tuple(extra))


class TestRouting:
    @settings(max_examples=150, deadline=None)
    @given(counts=_topology_counts())
    def test_hop_chains_between_aiml_and_every_end_match_the_reference_rules(self, counts):
        config = build(scenario_b_dict(n_per_source=10))
        config.topology = counts
        driver = Driver(config)
        topo = driver.topology
        aimls = [c for c in topo.components if c.kind is ComponentKind.AIML_FUNCTION]
        ends = [c for c in topo.components if c.kind in _END_KINDS]
        limit = len(topo.components)
        for a in aimls:
            for end in ends:
                for here, final in ((a, end), (end, a)):
                    expected = _chain(partial(_reference_hop, topo), here, final, limit)
                    assert _chain(driver.next_hop, here, final, limit) == expected

    def test_the_graph_routes_pairs_the_kind_rules_refused(self):
        driver = Driver(build(scenario_b_dict(n_per_source=10)))
        ric = ComponentId(ComponentKind.NON_RT_RIC, 0)
        nssmf = ComponentId(ComponentKind.NSSMF, 0)
        with pytest.raises(UndeclaredRoute, match="no termination serves NonRtRic#0"):
            _reference_hop(driver.topology, ric, nssmf)
        assert _chain(driver.next_hop, ric, nssmf, 4) == [
            ric, ComponentId(ComponentKind.AIML_FUNCTION, 0),
            ComponentId(ComponentKind.NSSMF_TERMINATION, 0), nssmf]

    def test_route_send_without_a_route_raises_simulation_error(self):
        # every pair of a built topology is connected, so this one is built by hand
        nssmf = ComponentId(ComponentKind.NSSMF, 0)
        term = ComponentId(ComponentKind.NSSMF_TERMINATION, 0)
        nfvo = ComponentId(ComponentKind.NFVO, 0)
        topo = Topology({InterfaceName.NSSMF_NONRTRIC: InterfaceSpec(InterfaceName.NSSMF_NONRTRIC)})
        for c in (nssmf, term, nfvo):
            topo.add_component(c)
        topo.link(nssmf, term, InterfaceName.NSSMF_NONRTRIC)
        driver = Driver(build(scenario_b_dict(n_per_source=10)))
        driver.topology, driver.sim = topo, Simulation(topo)
        for src, dst in ((nssmf, nfvo), (nfvo, nssmf), (nssmf, nfvo)):
            with pytest.raises(SimulationError, match=f"no route from {src} toward {dst}"):
                driver.route_send(src, dst, PayloadKind.CONTROL, 16)
            assert src not in driver._hops[dst]  # a failed route is not remembered
        assert driver.next_hop(nssmf, term) == term
        assert driver.sim.log.entries == []

    def test_a_failed_relay_drops_data_and_swallows_heartbeats(self):
        data = scenario_b_dict(n_per_source=10, deploy={"targets": []})
        data["topology"] = {"nssmf": 1, "nfmf_per_nssmf": 1, "nfvo": 1}
        driver = Driver(build(data))
        nfmf, nssmf = ComponentId(ComponentKind.NFMF, 0), ComponentId(ComponentKind.NSSMF, 0)
        term = ComponentId(ComponentKind.NSSMF_TERMINATION, 0)
        aiml = ComponentId(ComponentKind.AIML_FUNCTION, 0)
        assert _chain(driver.next_hop, nfmf, aiml, 4) == [nfmf, nssmf, term, aiml]
        sim = driver.sim
        overhead = driver.topology.interfaces[InterfaceName.SMO_INTERNAL].overhead_bytes
        sim.fail_component(nssmf, -1)
        driver.route_send(nfmf, aiml, PayloadKind.RAW_DATA, 100, meta={"source": "NFMF#0"})
        driver.route_send(nfmf, aiml, PayloadKind.HEARTBEAT, 8)
        sim.run_to_completion(1_000)  # returns: nothing is left queued past tick 1,000
        hop = ("NFMF#0", "NSSMF#0", "SmoInternal")
        assert [(e.type, e.src, e.dst, e.interface, e.payload_kind, e.bytes, e.detail)
                for e in sim.log.entries] == [
            ("send", *hop, "RawData", 100 + overhead, {"msg_id": 1}),
            ("send", *hop, "Heartbeat", 8 + overhead, {"msg_id": 2}),
            ("component_down", *hop, "RawData", 100 + overhead, {"msg_id": 1}),
            ("deliver", *hop, "Heartbeat", 8 + overhead, {"msg_id": 2}),
        ]


class TestScenarioAImportModel:
    def _config(self, tmp_path, weights, bias, threshold=0.05, offset=0.0,
                validation_batch=200, **overrides):
        from smosim.lifecycle import ModelArtifact
        from smosim.learn import EvalMetrics
        from smosim.pipeline import ScalingParams

        schema = [numeric_feature("cpu")]
        names = ["cpu", "mem"][:len(weights)]
        artifact = ModelArtifact(
            kind=ModelKind.LINEAR_SGD,
            parameters=LinearParams(np.array(weights), bias),
            feature_names=names,
            scaler=ScalingParams("none", names, np.full(len(names), offset),
                                 np.ones(len(names))),
            metrics=EvalMetrics(0.0, 0.0, 1.0),
            origin="external",
        )
        path = tmp_path / "artifact.json"
        save_artifact(artifact, path)
        return build({
            "scenario": {"kind": "A", "mode": "import-model"},
            "seed": 5,
            "topology": {"nssmf": 1, "mda_3gpp": 1, "external_provider": True},
            "sources": [source("NSSMF#0", 120, schema, [2.0], sigma=0.05)],
            "model": {"kind": "LinearSgd"},
            "deploy": {"targets": ["MdaSystem3GPP#0"]},
            "external": {"artifact_path": str(path),
                         "validation_mse_threshold": threshold,
                         "validation_batch": validation_batch},
            **overrides,
        })

    def test_a_refined_import_reports_no_test_metrics(self, tmp_path):
        # the imported version's come from the rows past the validation batch, with
        # no split that a refined version could be scored on
        monitor = {"rounds": 4, "batch": 25, "interval": 30, "min_samples": 20,
                   "drift_factor": 2.0, "window": 25}
        shift = {"drift_shift": {"at_round": 1, "coefficients": [5.0], "bias": 2.0}}
        plain = checked_run(self._config(tmp_path, [2.0], 0.0, validation_batch=60,
                                         monitor=monitor)).report
        refined = checked_run(self._config(tmp_path, [2.0], 0.0, validation_batch=60,
                                           monitor=monitor, harness=shift)).report
        assert (plain.refinements, plain.model["version"]) == (0, 1)
        assert plain.model["test_mse"] is not None
        assert refined.refinements >= 1 and refined.model["version"] >= 2
        assert refined.model["test_mse"] is refined.model["test_rmse"] is None
        assert refined.model["test_accuracy"] is None and refined.forgetting_mse is None

    def test_valid_artifact_deployed_with_external_origin(self, tmp_path):
        result = checked_run(self._config(tmp_path, [2.0], 0.0))
        report = result.report
        assert report.status == "completed"
        assert not report.artifact_rejected
        assert report.model["origin"] == "external"
        assert report.model["state"] == "Deployed"
        ext = report.signaling["interfaces"]["ExternalAiml"]
        assert ext["messages"] == 1

    @pytest.mark.parametrize("validation_batch", [50, 120])
    def test_test_metrics_come_from_the_rows_past_the_validation_batch(self, tmp_path,
                                                                       validation_batch):
        # 120 collected rows: 50 validate and 70 test; at 120 none are left to test
        result = checked_run(self._config(tmp_path, [2.0], 0.0,
                                          validation_batch=validation_batch))
        model = result.report.model
        entry = result.registry.entries["m0"]
        [source] = result.driver.config.sources
        records = result.driver._prepare(pipeline.Dataset(
            pipeline.Stage.RAW, datagen.generate_batch(source, 120, datagen.derive_rng(
                5, "datagen", source.owner.kind.value, source.owner.index, 0)))).records
        assert len(records) == 120
        X = records.columns["cpu"][:, None]
        val = evaluate(entry.artifact.parameters, ModelKind.LINEAR_SGD, X[:validation_batch],
                       records.target[:validation_batch])
        assert entry.artifact.metrics.mse == val.mse
        inferences = [e.detail["records"] for e in result.sim.log.of_type("inference")]
        if validation_batch == 120:
            assert (model["test_mse"], model["test_accuracy"]) == (None, None)
            assert inferences == [120]
        else:
            test = evaluate(entry.artifact.parameters, ModelKind.LINEAR_SGD, X[50:],
                            records.target[50:])
            assert (model["test_mse"], model["test_accuracy"]) == (test.mse, test.accuracy)
            assert model["test_mse"] != val.mse
            assert inferences == [50, 70]

    def test_failover_during_validation_collection_still_validates_import(self, tmp_path):
        config = self._config(
            tmp_path, [2.0], 0.0,
            topology={"nssmf": 1, "mda_3gpp": 1, "external_provider": True,
                      "aiml_instances": 2},
            harness={"failure": {"target": "AimlFunction#0", "fail_tick": 3,
                                 "heartbeat_interval": 2, "missed_to_declare": 2,
                                 "replicas": ["AimlFunction#1"],
                                 "checkpoint_interval": 4}})
        result = checked_run(config)
        report = result.report
        restore = [e for e in result.sim.log.of_type("mitigation")
                   if e.detail["mechanism"] == "failover_restore"]
        assert [e.detail["resumed_phase"] for e in restore] == ["collect_validation"]
        assert report.status == "completed"
        assert not report.artifact_rejected
        assert report.model["origin"] == "external"
        assert report.model["state"] == "Deployed"
        assert report.training_ticks == 0  # nothing was trained in place of the import
        entry = result.registry.entries["m0"]
        assert list(entry.artifact.parameters.weights) == [2.0]
        assert entry.artifact.parameters.bias == 0.0
        # registration replaced the artifact's metrics with the local validation's
        assert 0.0 < entry.artifact.metrics.mse <= 0.05

    def test_failing_artifact_rejected_without_deployment(self, tmp_path):
        result = checked_run(self._config(tmp_path, [0.0], 5.0))
        report = result.report
        assert report.status == "completed"
        assert report.artifact_rejected
        assert report.model is None
        assert result.registry.entries == {}
        assert len(result.sim.log.of_type("artifact_rejected")) == 1

    def test_artifact_is_validated_through_the_scaler_it_serves_with(self, tmp_path):
        # inference applies a "none" scaler's offset too: served, this artifact
        # predicts 2 * (cpu - 0.5), one below the ground truth 2 * cpu
        monitor = {"rounds": 3, "interval": 10, "batch": 20}
        result = checked_run(self._config(tmp_path, [2.0], 0.0, offset=0.5, monitor=monitor))
        report = result.report
        assert report.status == "completed" and report.artifact_rejected
        assert report.model is None and report.refinements == 0
        [rejected] = result.sim.log.of_type("artifact_rejected")
        assert rejected.detail["reason"].startswith("external artifact failed validation")
        assert not result.sim.log.of_type("transition")

    def test_artifact_of_another_width_is_rejected_once(self, tmp_path):
        result = checked_run(self._config(tmp_path, [2.0, 0.0], 0.0))
        report = result.report
        assert report.status == "completed" and report.artifact_rejected
        assert report.model is None and result.registry.entries == {}
        [rejected] = result.sim.log.of_type("artifact_rejected")
        assert rejected.detail["reason"] == "validation width 1 != artifact schema 2"

    def test_artifact_file_that_is_not_json_fails_run(self, tmp_path):
        config = self._config(tmp_path, [2.0], 0.0)
        (tmp_path / "artifact.json").write_text("{not json")
        report = checked_run(config).report
        assert report.status == "failed"
        assert report.failure.startswith("InvalidArtifact: ")

    def test_artifact_file_with_a_wider_scaler_fails_run(self, tmp_path):
        config = self._config(tmp_path, [2.0], 0.0)
        path = tmp_path / "artifact.json"
        artifact = json.loads(path.read_text())
        artifact["scaling_parameters"].update(offset=[0.0, 0.0], scale=[1.0, 1.0])
        path.write_text(json.dumps(artifact))
        report = checked_run(config).report
        assert report.status == "failed"
        assert report.failure.startswith("InvalidArtifact: scaler widths 2 and 2")

    def test_artifact_file_with_an_overflowing_version_fails_run(self, tmp_path):
        config = self._config(tmp_path, [2.0], 0.0)
        path = tmp_path / "artifact.json"
        artifact = json.loads(path.read_text())
        artifact["version"] = "VERSION"
        path.write_text(json.dumps(artifact).replace('"VERSION"', "1e999"))
        report = checked_run(config).report
        assert report.status == "failed"
        assert report.failure.startswith("InvalidArtifact: ")

    def test_missing_artifact_file_fails_run(self, tmp_path):
        config = self._config(tmp_path, [2.0], 0.0)
        (tmp_path / "artifact.json").unlink()
        report = checked_run(config).report
        assert report.status == "failed"
        assert report.failure.startswith("InvalidArtifact: ")


class TestPackaging:
    """``deploy.packaged`` inflates each ModelArtifact hop of a deployment by
    ``package_inflation``, and so does an imported artifact marked packaged,
    from the external provider on."""

    @staticmethod
    def _artifact_sends(result) -> list[tuple[str, int]]:
        return [(e.interface, e.bytes) for e in result.sim.log.entries
                if e.type == "send" and e.payload_kind == "ModelArtifact"]

    @staticmethod
    def _overhead(config: ScenarioConfig) -> dict[str, int]:
        return {spec.name.value: spec.overhead_bytes for spec in config.interface_specs()}

    @pytest.mark.parametrize("packaged, inflation", [(False, 1.7), (True, 1.0), (True, 1.7)])
    def test_a_packaged_deployment_sends_the_inflated_parameter_bytes(self, packaged,
                                                                     inflation):
        data = scenario_b_dict(n_per_source=40, sizes={"param_bytes": 12})
        data["deploy"]["packaged"] = packaged
        data["deploy"]["package_inflation"] = inflation
        data["interfaces"] = {"NSSMF_NonRTRIC": {"overhead_bytes": 40}}
        config = build(data)
        result = checked_run(config)
        param_count = result.registry.entries["m0"].artifact.param_count
        assert param_count == 5  # cpu, mem, the two slices and the bias
        payload = round(param_count * 12 * (inflation if packaged else 1.0))
        sends = self._artifact_sends(result)
        overhead = self._overhead(config)
        assert len(sends) >= 4  # two targets, each over two hops or more
        assert {"NSSMF_NonRTRIC", "NFVO_NonRTRIC"} <= {interface for interface, _ in sends}
        assert sends == [(interface, payload + overhead[interface]) for interface, _ in sends]

    @pytest.mark.parametrize("packaged", [False, True])
    def test_an_imported_packaged_artifact_inflates_its_external_hop(self, packaged, tmp_path,
                                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)  # the case names its artifact relative to it
        data = a_import_model(tmp_path)
        artifact = tmp_path / "artifact.json"
        artifact.write_text(json.dumps({**json.loads(artifact.read_text()),
                                        "packaged": packaged}))
        data["deploy"]["package_inflation"] = 2.5
        config = build(data)
        result = checked_run(config)
        assert result.report.status == "completed"
        payload = round(2 * 8 * (2.5 if packaged else 1.0))  # one weight and the bias
        overhead = self._overhead(config)
        sends = self._artifact_sends(result)
        assert ("ExternalAiml", payload + overhead["ExternalAiml"]) in sends
        assert sends == [(interface, payload + overhead[interface]) for interface, _ in sends]


class TestScenarioAImportData:
    @staticmethod
    def _config(csv_path):
        return build({
            "scenario": {"kind": "A", "mode": "import-data"},
            "topology": {"mda_3gpp": 1, "external_provider": True},
            "deploy": {"targets": ["MdaSystem3GPP#0"]},
            "external": {"data_path": str(csv_path)},
        })

    def test_missing_external_data_fails_run(self, tmp_path):
        report = checked_run(self._config(tmp_path / "absent.csv")).report
        assert report.status == "failed"
        assert report.failure.startswith(f"{NoDataSources.__name__}: ")

    @pytest.mark.parametrize("text", ["cpu,target\n0.5,1.0\nhigh,2.0\n",
                                      "cpu,target\n0.5,1.0\n0.7\n"])
    def test_malformed_external_data_fails_run(self, tmp_path, text):
        (tmp_path / "data.csv").write_text(text)
        report = checked_run(self._config(tmp_path / "data.csv")).report
        assert report.status == "failed"
        assert report.failure.startswith(f"{SchemaMismatch.__name__}: ")

    def test_import_data_equals_scenario_b_from_same_transformed_data(self, tmp_path):
        b_data = scenario_b_dict(n_per_source=80, sigma=0.05)
        b_data["monitor"] = {"rounds": 0}
        b_data["search"] = {"mode": "grid",
                            "grid": {"learning_rate": [0.05, 0.1], "epochs": [15]}}
        b_result = checked_run(build(b_data))
        csv_path = tmp_path / "cleansed.csv"
        csv_path.write_text(transformed_to_csv(b_result.driver.transformed))

        a_data = {
            "scenario": {"kind": "A", "mode": "import-data"},
            "seed": b_data["seed"],
            "topology": {"mda_3gpp": 1, "external_provider": True},
            "pipeline": b_data["pipeline"],
            "model": b_data["model"],
            "search": b_data["search"],
            "deploy": {"targets": ["MdaSystem3GPP#0"]},
            "external": {"data_path": str(csv_path)},
        }
        a_result = checked_run(build(a_data))
        pa = a_result.registry.entries["m0"].artifact.parameters
        pb = b_result.registry.entries["m0"].artifact.parameters
        assert np.array_equal(pa.weights, pb.weights)
        assert pa.bias == pb.bias


def _scenario_c_dict(mode: str, rounds: int = 3, size: int = 250,
                     weighting: str = "sample_count", **overrides):
    schema = [numeric_feature("cpu"), numeric_feature("mem")]
    coeffs = [2.0, -1.0]
    data = {
        "scenario": {"kind": "C", "mode": mode, "rounds": rounds,
                     "aggregation": weighting},
        "seed": 17,
        "topology": {"nssmf": 1, "nfvo": 1, "mda_3gpp": 1, "mda_nfv": 1},
        "sources": [
            source("MdaSystem3GPP#0", size, schema, coeffs, bias=0.5, sigma=0.1),
            source("MdaSystemNFV#0", size, schema, coeffs, bias=0.5, sigma=0.1),
        ],
        "pipeline": {"scaling": "schema_range",
                     "split": {"train": 0.7, "val": 0.15, "test": 0.15, "seed": 3}},
        "model": {"kind": "LinearSgd",
                  "hyperparams": {"learning_rate": 0.1, "epochs": 25, "batch_size": 16}},
    }
    data.update(overrides)
    return data


class TestScenarioC:
    def test_single_domain_rejected(self):
        data = _scenario_c_dict("share-models")
        data["sources"] = data["sources"][:1]
        with pytest.raises(ConfigError):
            build(data)
        config = build(_scenario_c_dict("share-models"))
        config.sources = config.sources[:1]
        report = checked_run(config).report
        assert report.status == "failed"
        assert report.failure.startswith(f"{InsufficientDomains.__name__}: ")

    def test_share_models_moves_no_raw_data(self):
        result = checked_run(build(_scenario_c_dict("share-models")))
        assert result.report.status == "completed"
        for iface in TERMINATION_IFACES:
            by_kind = result.report.signaling["interfaces"][iface]["by_kind"]
            assert "RawData" not in by_kind
            assert "CleansedData" not in by_kind
            assert set(by_kind) <= {"ModelArtifact", "Report", "Control", "Heartbeat"}

    def test_share_models_converges_near_pooled_oracle(self):
        result = checked_run(build(_scenario_c_dict("share-models")))
        driver = result.driver
        # pooled closed-form oracle over both domains' local training splits
        X = np.vstack([d.split.train.X for d in
                       (driver.domains[s.owner] for s in driver.config.sources)])
        y = np.concatenate([d.split.train.y for d in
                            (driver.domains[s.owner] for s in driver.config.sources)])
        oracle = ridge_closed_form(X, y, 0.0)
        Xt = np.vstack([d.split.test.X for d in
                        (driver.domains[s.owner] for s in driver.config.sources)])
        yt = np.concatenate([d.split.test.y for d in
                             (driver.domains[s.owner] for s in driver.config.sources)])
        oracle_mse = evaluate(oracle, ModelKind.RIDGE_CLOSED_FORM, Xt, yt).mse
        global_params = result.registry.entries["m0"].artifact.parameters
        global_mse = evaluate(global_params, ModelKind.LINEAR_SGD, Xt, yt).mse
        assert global_mse <= 2.0 * oracle_mse

    def test_a_share_models_domain_named_as_a_deploy_target_still_trains(self, tmp_path):
        # share-models deploys to its domains, so naming them as targets changes nothing
        plain = checked_run(build(c_share_models(tmp_path)))
        data = c_share_models(tmp_path)
        data["deploy"] = {"targets": ["MdaSystem3GPP#0", "MdaSystemNFV#0"]}
        targeted = checked_run(build(data))
        assert targeted.report.status == "completed"
        assert len(targeted.sim.log.of_type("aggregation")) == 3
        assert targeted.sim.log.to_jsonl() == plain.sim.log.to_jsonl()

    def test_share_models_rejects_monitor_rounds_it_would_ignore(self, tmp_path):
        # a global model sent to a domain is no deployment to monitor
        data = c_share_models(tmp_path)
        data["deploy"] = {"targets": ["MdaSystem3GPP#0"]}
        data["monitor"] = {"rounds": 2, "interval": 10, "batch": 5}
        with pytest.raises(ConfigError) as info:
            build(data)
        assert info.value.field == "monitor.rounds"
        data["monitor"]["rounds"] = 0
        assert build(data).monitor.rounds == 0

    def test_share_models_rejects_a_deploy_target_that_is_no_domain(self, tmp_path):
        data = c_share_models(tmp_path)
        data["topology"]["nfmf_per_nssmf"] = 1
        data["deploy"] = {"targets": ["MdaSystemNFV#0", "NFMF#0"]}
        with pytest.raises(ConfigError) as info:
            build(data)
        assert info.value.field == "deploy.targets[1]"

    def test_share_models_artifact_carries_the_schema_range_scaler_of_its_domains(self):
        # the aggregate has no rows of its own; schema_range scaling needs none
        data = _scenario_c_dict("share-models", rounds=1)
        for s in data["sources"]:
            s["schema"] = [numeric_feature("cpu", 10.0, 50.0),
                           numeric_feature("mem", 10.0, 50.0)]
            s["coefficients"] = [0.05, -0.025]
        result = checked_run(build(data))
        scaler = result.registry.entries["m0"].artifact.scaler
        assert (scaler.mode, scaler.feature_names) == ("schema_range", ["cpu", "mem"])
        np.testing.assert_array_equal(scaler.offset, [10.0, 10.0])
        np.testing.assert_array_equal(scaler.scale, [40.0, 40.0])
        for domain in result.driver.domains.values():
            assert domain.split.train.scaler.to_dict() == scaler.to_dict()

    def test_share_data_trains_centrally_on_cleansed_union(self):
        result = checked_run(build(_scenario_c_dict("share-data", rounds=1, size=100)))
        assert result.report.status == "completed"
        cleansed = [e for e in result.sim.log.entries
                    if e.type == "deliver" and e.payload_kind == "CleansedData"
                    and e.interface in TERMINATION_IFACES]
        assert len(cleansed) == 2
        raw = [e for e in result.sim.log.entries
               if e.type == "deliver" and e.payload_kind == "RawData"]
        assert raw == []
        assert result.report.model["state"] in ("Deployed", "Monitored")

    def test_domain_model_messages_per_round(self):
        rounds = 3
        result = checked_run(build(_scenario_c_dict("share-models", rounds=rounds)))
        ups = [e for e in result.sim.log.entries
               if e.type == "deliver" and e.payload_kind == "ModelArtifact"
               and e.interface in TERMINATION_IFACES
               and e.dst in ("NssmfTermination#0", "NfvoTermination#0")]
        downs = [e for e in result.sim.log.entries
                 if e.type == "deliver" and e.payload_kind == "ModelArtifact"
                 and e.interface in TERMINATION_IFACES
                 and e.src in ("NssmfTermination#0", "NfvoTermination#0")]
        assert len(ups) == rounds * 2
        assert len(downs) == rounds * 2


def _ragged_c_dict(sizes=(250, 190, 311), learning_rate=0.1, rounds=3, epochs=25):
    """Share-models over MdaSystem3GPP#0, MdaSystemNFV#0 and MdaSystem3GPP#1."""
    schema = [numeric_feature("cpu"), numeric_feature("mem")]
    owners = ("MdaSystem3GPP#0", "MdaSystemNFV#0", "MdaSystem3GPP#1")
    data = _scenario_c_dict("share-models", rounds=rounds)
    data["topology"]["mda_3gpp"] = 2
    data["sources"] = [source(owner, n, schema, [2.0, -1.0], bias=0.5, sigma=0.1)
                       for owner, n in zip(owners, sizes)]
    data["model"]["hyperparams"].update(learning_rate=learning_rate, epochs=epochs)
    return data


def _vector(params: LinearParams) -> np.ndarray:
    return np.append(params.weights, params.bias)


def _assert_bits_equal(a: LinearParams, b: LinearParams) -> None:
    assert _vector(a).tobytes() == _vector(b).tobytes()


class TestFederatedRounds:
    """A LinearSgd domain takes every round from the affine map of its fit,
    which one learn.train call builds in its first round; every other fit
    steps alone."""

    @staticmethod
    def _spy(monkeypatch):
        """Whether each learn.train call fits from the zero init, and each
        round's aggregate."""
        calls, rounds = [], []
        real_train, real_aggregate = learn.train, scenarios.aggregate

        def train(*args, **kwargs):
            calls.append(kwargs.get("init") is None)
            return real_train(*args, **kwargs)

        def aggregate(*args, **kwargs):
            rounds.append(real_aggregate(*args, **kwargs))
            return rounds[-1]

        monkeypatch.setattr(learn, "train", train)
        monkeypatch.setattr(scenarios, "aggregate", aggregate)
        return calls, rounds

    @staticmethod
    def _oracle(result) -> list[LinearParams]:
        """Each round's aggregate of per-domain ``learn.fit`` calls."""
        cfg = result.driver.config
        hp = cfg.model.hyperparams
        domains = [result.driver.domains[s.owner] for s in cfg.sources]
        out, global_params = [], None
        for round_index in range(1, cfg.rounds + 1):
            models = [DomainModel(d.cid, cfg.model.kind,
                                  learn.fit(cfg.model.kind, d.split.train.X, d.split.train.y,
                                            hp, cfg.seed, global_params)[0],
                                  len(d.split.train), round_index) for d in domains]
            global_params = aggregate(models, cfg.aggregation)
            out.append(global_params)
        return out

    def test_ragged_rounds_equal_per_domain_fits_and_aggregate(self, monkeypatch):
        calls, rounds = self._spy(monkeypatch)
        data = _ragged_c_dict()
        data["costs"] = {"train_tick_per_record": 3}
        result = checked_run(build(data))
        assert result.report.status == "completed"
        # each domain's first round builds its map of one train call, its
        # fit from zero, and composes the matrix; no round steps
        assert calls == [True] * 3
        domains = result.driver.domains.values()
        assert sorted(len(d.split.train) for d in domains) == [134, 176, 219]
        assert all(isinstance(d.fit_map, learn.AffineFit) for d in domains)
        # a mapped round charges the ticks of the 25 epochs it stands for
        works = [e.detail["work"] for e in result.sim.log.of_type("job_scheduled")]
        assert sorted(works) == sorted([25 * n * 3 for n in (134, 176, 219)] * 3)
        oracle = self._oracle(result)
        assert len(rounds) == len(oracle) == 3
        _assert_bits_equal(rounds[0], oracle[0])
        for got, want, init in zip(rounds[1:], oracle[1:], oracle):
            tolerance = 1e-12 * (1 + np.abs(_vector(init)).max())
            np.testing.assert_allclose(_vector(got), _vector(want), rtol=0, atol=tolerance)
        _assert_bits_equal(result.registry.entries["m0"].artifact.parameters, rounds[-1])

    def test_logistic_rounds_step_each_domain_alone(self, monkeypatch):
        data = _ragged_c_dict()
        data["model"]["kind"] = "LogisticSgd"
        calls, rounds = self._spy(monkeypatch)
        result = checked_run(build(data))
        assert result.report.status == "completed"
        # three rounds of three domains, and no map: the first round fits
        # from zero, the later two from the global model
        assert calls == [True] * 3 + [False] * 6
        assert all(d.fit_map is None for d in result.driver.domains.values())
        for got, want in zip(rounds, self._oracle(result), strict=True):
            _assert_bits_equal(got, want)

    @pytest.mark.parametrize("broken", ["build raised", "result diverged"])
    def test_a_round_steps_where_its_map_cannot_stand_in(self, monkeypatch, broken):
        driver = Driver(build(_ragged_c_dict()))
        cfg = driver.config
        domain = next(iter(driver.domains.values()))
        split = domain._ensure_data()
        start = LinearParams(np.array([0.5, -0.25]), 0.125)
        want = learn.train(cfg.model.kind, split, cfg.model.hyperparams, seed=cfg.seed,
                           init=start, costs=driver.costs)
        if broken == "build raised":
            def affine_fit(*args):
                raise NonFiniteUpdate("the build diverged")

            monkeypatch.setattr(learn, "affine_fit", affine_fit)
        else:
            fitted = learn.affine_fit(split, cfg.model.hyperparams, cfg.seed)
            domain.fit_map = dataclasses.replace(fitted, matrix=fitted.matrix * 1e200)
        for _ in range(2):
            domain.params = start.copy()
            params, ticks = domain.fit_round()
            _assert_bits_equal(params, want.params)
            assert ticks == want.metrics.train_ticks
        assert isinstance(domain.fit_map, SimulationError if broken == "build raised"
                          else learn.AffineFit)

    @pytest.mark.parametrize("fail_tick, detection", [(100, 104), (4420, 4424)])
    def test_resumed_rounds_keep_the_parameters(self, tmp_path, fail_tick, detection):
        # 100 redoes round 1 and 4420 round 2, which ends as in a run without the failure
        data = c_share_models(tmp_path)
        plain = checked_run(build(data)).registry.entries["m0"].artifact.parameters
        data["topology"]["aiml_instances"] = 2
        data["harness"] = TestFailover._failure(fail_tick)
        result = checked_run(build(data))
        assert result.report.faults == [
            FaultRecord("component_failure", fail_tick, detection, 13216)]
        _assert_bits_equal(result.registry.entries["m0"].artifact.parameters, plain)

    # lr 0.8 diverges in MdaSystemNFV#0's first round, whose map build raises,
    # so it steps; 0.74 in its 59th, whose map result fails the divergence test
    @pytest.mark.parametrize("learning_rate, final_tick, aggregations",
                             [(0.8, 2, 0), (0.74, 32714, 58)])
    def test_a_diverging_domain_fails_the_run_at_its_own_round(self, learning_rate,
                                                                final_tick, aggregations):
        data = _ragged_c_dict(sizes=(40, 400, 40), learning_rate=learning_rate, rounds=60,
                              epochs=2)
        result = checked_run(build(data))
        report = result.report
        assert report.status == "failed"
        assert report.failure == "NonFiniteUpdate: parameters diverged; lower the learning rate"
        assert report.final_tick == final_tick
        assert len(result.sim.log.of_type("aggregation")) == aggregations

    @pytest.mark.parametrize("learning_rate", [0.8, 0.76, 0.74])
    def test_a_diverging_run_ends_as_it_does_when_every_round_steps(self, monkeypatch,
                                                                     learning_rate):
        data = _ragged_c_dict(sizes=(40, 400, 40), learning_rate=learning_rate, rounds=60,
                              epochs=2)
        mapped = checked_run(build(data))

        def affine_fit(*args):
            raise NonFiniteUpdate("no map")

        monkeypatch.setattr(learn, "affine_fit", affine_fit)
        stepped = checked_run(build(data))
        assert mapped.report.status == stepped.report.status == "failed"
        assert mapped.report.failure == stepped.report.failure
        assert mapped.sim.log.to_jsonl() == stepped.sim.log.to_jsonl()


class TestMonitoringAndRefinement:
    def _drift_config(self, max_refinements=2, refit="full", learning_rate=0.2,
                      kind="LinearSgd"):
        schema = [numeric_feature("cpu")]
        data = {
            "scenario": {"kind": "B"},
            "seed": 23,
            "topology": {"nssmf": 1, "mda_3gpp": 1},
            "sources": [source("NSSMF#0", 200, schema, [2.0], bias=0.0, sigma=0.05)],
            "pipeline": {"scaling": "none",
                         "split": {"train": 0.7, "val": 0.15, "test": 0.15, "seed": 2}},
            "model": {"kind": kind,
                      "hyperparams": {"learning_rate": learning_rate, "epochs": 30,
                                      "batch_size": 8}},
            "deploy": {"targets": ["MdaSystem3GPP#0"]},
            "monitor": {"rounds": 4, "batch": 25, "interval": 30, "min_samples": 20,
                        "drift_factor": 2.0, "max_refinements": max_refinements,
                        "refit": refit, "window": 25},
            "harness": {"drift_shift": {"at_round": 1, "coefficients": [5.0],
                                        "bias": 2.0}},
        }
        return build(data)

    @pytest.mark.parametrize("refit", ["full", "incremental"])
    def test_the_reported_test_metrics_are_the_refined_versions(self, refit):
        result = checked_run(self._drift_config(refit=refit))
        model, driver = result.report.model, result.driver
        entry = result.registry.entries["m0"]
        assert model["version"] == entry.version >= 2
        test = evaluate(entry.artifact.parameters, ModelKind.LINEAR_SGD, driver.split.test.X,
                        driver.split.test.y)
        assert (model["test_mse"], model["test_rmse"], model["test_accuracy"]) == (
            test.mse, test.rmse, test.accuracy)
        assert model["test_mse"] == result.report.forgetting_mse

    def test_drift_triggers_refinement_and_recovers(self):
        result = checked_run(self._drift_config())
        report = result.report
        assert report.status == "completed"
        assert report.refinements >= 1
        entry = result.registry.entries["m0"]
        assert entry.version >= 2
        assert report.forgetting_mse is not None
        # refined model matches the closed-form refit oracle on shifted data
        from smosim.datagen import generate_batch, shifted
        from smosim.pipeline import reapply_transform

        driver = result.driver
        spec = shifted(driver.config.sources[0], (5.0,), 2.0)
        fresh = generate_batch(spec, 300, seed=99)
        X = reapply_transform(fresh, driver.canonical, driver.derived,
                              entry.artifact.scaler)
        y = fresh.target
        oracle = ridge_closed_form(X, y, 0.0)
        oracle_mse = evaluate(oracle, ModelKind.RIDGE_CLOSED_FORM, X, y).mse
        refined_mse = evaluate(entry.artifact.parameters, ModelKind.LINEAR_SGD,
                               X, y).mse
        assert refined_mse <= max(3.0 * oracle_mse, 0.02)
        # drift fault has detection and resolution times
        assert report.time_to_detection is not None and report.time_to_detection >= 0
        assert report.time_to_resolution is not None
        assert report.time_to_resolution >= report.time_to_detection

    # (kind, refit) -> (refinements, reports dropped): four monitor rounds of
    # one target; each report predicted by a version the registry has since
    # replaced is dropped, so its error never trips a spurious refinement
    STALE = {("LinearSgd", "full"): (1, 0), ("LinearSgd", "incremental"): (1, 1),
             ("RidgeClosedForm", "full"): (2, 2), ("RidgeClosedForm", "incremental"): (2, 2),
             ("DecisionStump", "full"): (1, 1), ("DecisionStump", "incremental"): (1, 1)}

    @pytest.mark.parametrize("kind, refit", list(STALE))
    def test_reports_of_a_replaced_version_are_dropped(self, kind, refit):
        result = checked_run(self._drift_config(refit=refit, kind=kind))
        report, log = result.report, result.sim.log
        dropped = log.of_type("report_dropped")
        assert report.status == "completed" and report.failure is None
        assert (report.refinements, len(dropped)) == self.STALE[kind, refit]
        assert len(dropped) + len(log.of_type("report_ingested")) == 4
        version = None
        for e in log.entries:
            if e.type == "transition":
                version = e.detail["version"]
            elif e.type == "report_dropped":
                assert e.detail["version"] < version

    def test_refinement_budget_exhaustion_retires_model(self):
        result = checked_run(self._drift_config(max_refinements=0))
        report = result.report
        entry = result.registry.entries["m0"]
        assert entry.state.value == "Retired"
        assert report.status == "failed"
        assert report.failure == "RefinementBudgetExhausted"
        assert result.sim.log.of_type("run_complete")[0].detail["status"] == "failed"
        assert len(result.sim.log.of_type("refinement_budget_exhausted")) == 1

    def test_monitoring_a_target_whose_source_renames_fields(self):
        data = scenario_b_dict(n_per_source=40, monitor={"rounds": 2, "batch": 5})
        nfvo = data["sources"][1]
        nfvo["schema"] = copy.deepcopy(nfvo["schema"])
        nfvo["schema"][0]["name"] = "cpu_util"
        nfvo["rename"] = {"cpu_util": "cpu"}
        result = checked_run(build(data))
        assert result.report.status == "completed" and result.report.failure is None
        reports = result.sim.log.of_type("report_ingested")
        assert sorted(e.detail["target"] for e in reports) == [
            "MdaSystem3GPP#0", "MdaSystem3GPP#0", "MdaSystemNFV#0", "MdaSystemNFV#0"]

    @pytest.mark.parametrize("learning_rate", [0.9, 1.5])
    def test_diverging_sgd_fails_with_non_finite_update(self, learning_rate):
        # past the stability limit the initial training grows the parameters
        # to ~7e51 (lr 0.9) or ~4e237 (lr 1.5) without ever overflowing
        result = checked_run(self._drift_config(learning_rate=learning_rate))
        report = result.report
        assert report.status == "failed"
        assert report.failure.startswith("NonFiniteUpdate")
        assert report.model is None
        assert result.sim.log.entries[-1].type == "run_complete"

    @pytest.mark.parametrize("refit", ["incremental", "full"])
    def test_stump_refinement_refits_a_stump(self, refit):
        from smosim.learn import StumpParams

        result = checked_run(self._drift_config(refit=refit, kind="DecisionStump"))
        report = result.report
        assert report.status == "completed" and report.failure is None
        assert report.refinements >= 1
        entry = result.registry.entries["m0"]
        assert entry.version >= 2
        assert isinstance(entry.artifact.parameters, StumpParams)

    @pytest.mark.parametrize("refit", ["incremental", "full"])
    def test_ridge_refinement_is_closed_form(self, refit, monkeypatch):
        from smosim import learn

        calls = []
        real_fit = learn.fit

        def spy(kind, X, y, hp, seed, init=None):
            # learn.train and learn.fit_standardized both fit through learn.fit
            out = real_fit(kind, X, y, hp, seed, init)
            calls.append((X, y, hp, out))
            return out

        monkeypatch.setattr(learn, "fit", spy)
        result = checked_run(self._drift_config(refit=refit, kind="RidgeClosedForm",
                                                 max_refinements=1))
        assert result.report.refinements == 1
        assert len(calls) == 2  # the initial training, then the refinement
        entry = result.registry.entries["m0"]
        X, y, hp, (params, processed) = calls[-1]
        oracle = ridge_closed_form(X, y, hp.l2_lambda)
        assert entry.version == 2
        assert np.array_equal(params.weights, oracle.weights)
        assert params.bias == oracle.bias
        assert processed == len(X)
        assert entry.artifact.metrics.train_ticks == len(X)


    @staticmethod
    def _round_matrices(config, monkeypatch):
        """A checked run of ``config``, and the (target, records, X, scaler) of
        each monitor round: the records it sent, the matrix its artifact
        predicted from, and that artifact's scaler."""
        rounds, inside, parts = [], [], []
        report_round, part_init = scenarios._TargetBehavior._report_round, datagen.Part.__init__
        predict = ModelArtifact.predict

        def spy_round(target, round_index):
            inside.append(target)
            try:
                report_round(target, round_index)
            finally:
                inside.pop()

        def spy_part(part, *args):
            part_init(part, *args)
            if inside:
                parts.append(part)

        def spy_predict(artifact, X):
            if inside:
                rounds.append((str(inside[-1].cid), parts[-1].batch(), X, artifact.scaler))
            return predict(artifact, X)

        monkeypatch.setattr(scenarios._TargetBehavior, "_report_round", spy_round)
        monkeypatch.setattr(datagen.Part, "__init__", spy_part)
        monkeypatch.setattr(ModelArtifact, "predict", spy_predict)
        return checked_run(config), rounds

    @staticmethod
    def _retrained_drift(tmp_path) -> dict:
        """``b_drift_full`` under z-scores, with 160 rounds and a primary that dies
        while it refines: its replica trains afresh on a new collection, so the
        rounds after that deployment scale with another scaler."""
        data = b_drift_full(tmp_path)
        data["pipeline"]["scaling"] = "zscore"
        data["topology"]["aiml_instances"] = 2
        data["monitor"]["rounds"] = 160
        data["harness"]["failure"] = TestFailover._failure(4400)["failure"]
        return data

    @pytest.mark.parametrize("case", ["drift_config", "b_stream_incremental", "retrained"])
    def test_each_round_scales_its_rows_of_one_encoding_bit_for_bit(self, case, tmp_path,
                                                                    monkeypatch):
        config = {"drift_config": lambda: self._drift_config(),
                  "b_stream_incremental": lambda: build(b_stream_incremental(tmp_path)),
                  "retrained": lambda: build(self._retrained_drift(tmp_path))}[case]()
        result, rounds = self._round_matrices(config, monkeypatch)
        assert result.report.status == "completed" and result.report.refinements >= 1
        driver = result.driver
        per_target: dict[str, set[bytes]] = {}
        for target, records, X, scaler in rounds:
            expected = pipeline.reapply_transform(records, driver.canonical, driver.derived,
                                                  scaler)
            assert X.shape == expected.shape and X.tobytes() == expected.tobytes()
            per_target.setdefault(target, set()).add(scaler.offset.tobytes())
        targets = [str(t) for t in config.deploy.targets]
        assert sorted(per_target) == sorted(targets)
        assert len(rounds) == config.monitor.rounds * len(targets)
        if case == "retrained":
            assert [len(scalers) for scalers in per_target.values()] == [2]


class TestTickLimit:
    def test_run_past_max_ticks_fails_with_named_error(self):
        result = checked_run(build(scenario_b_dict(max_ticks=50)))
        report = result.report
        assert report.status == "failed"
        assert report.failure.startswith("TickLimitExceeded")
        assert report.final_tick <= 50
        assert result.sim.log.entries[-1].type == "run_complete"


class TestFailover:
    def _config(self, replicas, fail_tick=10, cp_interval=4, monitor=None, **extra):
        schema = [numeric_feature("cpu")]
        data = {
            "scenario": {"kind": "B"},
            "seed": 5,
            "topology": {"nssmf": 1, "mda_3gpp": 1, "aiml_instances": 2},
            "sources": [source("NSSMF#0", 50, schema, [2.0], sigma=0.05)],
            "pipeline": {"split": {"train": 0.6, "val": 0.2, "test": 0.2, "seed": 1}},
            "model": {"kind": "LinearSgd",
                      "hyperparams": {"learning_rate": 0.2, "epochs": 10,
                                      "batch_size": 8}},
            "deploy": {"targets": ["MdaSystem3GPP#0"]},
            "harness": {"failure": {
                "target": "AimlFunction#0", "fail_tick": fail_tick,
                "heartbeat_interval": 2, "missed_to_declare": 2,
                "replicas": replicas, "checkpoint_interval": cp_interval}},
        }
        if monitor:
            data["monitor"] = monitor
        data.update(extra)
        return build(data)

    @staticmethod
    def _failure(fail_tick, cp_interval=4):
        return {"failure": {"target": "AimlFunction#0", "fail_tick": fail_tick,
                            "heartbeat_interval": 2, "missed_to_declare": 2,
                            "replicas": ["AimlFunction#1"],
                            "checkpoint_interval": cp_interval}}

    @staticmethod
    def _steps(result, src=None):
        """(tick, src, version, from, state) of each logged lifecycle step, or of src's."""
        return [(e.tick, e.src, e.detail["version"], e.detail["from"], e.detail["state"])
                for e in result.sim.log.of_type("transition") if src in (None, e.src)]

    @staticmethod
    def _checkpoint_at_promotion(result) -> dict:
        """The checkpoint the promoted replica restored, checked against the log:
        the last ``checkpoint`` event before the ``promotion`` gives its tick and
        entry count, the ``phase`` event before that its phase, and the
        ``failover_restore`` mitigation names its entry count, version and state."""
        phase = logged = None
        for e in result.sim.log.entries:
            if e.type == "promotion":
                break
            if e.type == "phase":
                phase = e.detail["phase"]
            elif e.type == "checkpoint":
                logged = dict(e.detail, phase=phase)
        checkpoint = result.driver.replicas[result.driver.active_aiml].checkpoint
        assert checkpoint is not None
        entries = checkpoint["registry"]["entries"]
        assert logged == {"tick": checkpoint["tick"], "entries": len(entries),
                          "phase": checkpoint["phase"]}
        (restore,) = [e.detail for e in result.sim.log.of_type("mitigation")
                      if e.detail["mechanism"] == "failover_restore"]
        entry = entries.get("m0", {"version": None, "state": None})
        assert (restore["restored_entries"], restore["version"], restore["state"]) == \
            (len(entries), entry["version"], entry["state"])
        return checkpoint

    @staticmethod
    def _restores(result):
        """(resumed phase, restored entry count) of each promotion."""
        return [(e.detail["resumed_phase"], e.detail["restored_entries"])
                for e in result.sim.log.of_type("mitigation")
                if e.detail["mechanism"] == "failover_restore"]

    def test_promotion_follows_heartbeat_schedule(self):
        result = checked_run(self._config(["AimlFunction#1"]))
        report = result.report
        assert report.status == "completed"
        assert report.downtime_ticks == 4  # fail at 10, beats at 12/14 missed
        promo = result.sim.log.of_type("promotion")[0]
        assert promo.tick == 14
        assert report.model is not None  # replica finished the workflow

    @pytest.mark.parametrize("fail_tick, downtime", [(0, 4), (1, 3)])
    def test_primary_dying_before_its_first_beat_is_declared_dead(self, fail_tick, downtime):
        # no beat ever arrives: the checks expected at 2 and 4 both miss
        result = checked_run(self._config(["AimlFunction#1"], fail_tick=fail_tick))
        report = result.report
        assert report.status == "completed"
        assert result.sim.log.of_type("promotion")[0].tick == 4
        assert report.downtime_ticks == downtime
        assert report.faults[0].detection_tick == 4
        assert report.model is not None and report.model["origin"] == "internal"

    def test_imported_model_survives_a_primary_failing_at_tick_0(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        data = a_import_model(tmp_path)
        data["topology"]["aiml_instances"] = 2
        data["harness"] = {"failure": {
            "target": "AimlFunction#0", "fail_tick": 0, "heartbeat_interval": 2,
            "missed_to_declare": 2, "replicas": ["AimlFunction#1"]}}
        result = checked_run(build(data))
        report = result.report
        assert report.status == "completed" and report.failure is None
        assert report.faults[0].detection_tick == 4 and report.downtime_ticks == 4
        assert report.model is not None and report.model["origin"] == "external"

    def test_missed_to_declare_1_sees_the_beat_delivered_at_its_check(self):
        # each check falls on the tick its beat arrives: seeing that beat, the
        # replica declares the primary dead at the first check after it fails
        data = scenario_b_dict()
        data["topology"]["aiml_instances"] = 2
        data["harness"] = {"failure": {"target": "AimlFunction#0", "fail_tick": 10,
                                       "heartbeat_interval": 2, "missed_to_declare": 1,
                                       "replicas": ["AimlFunction#1"]}}
        result = checked_run(build(data))
        report = result.report
        assert [e.tick for e in result.sim.log.of_type("promotion")] == [12]
        assert report.status == "completed"
        assert report.faults == [FaultRecord("component_failure", 10, 12, report.final_tick)]
        assert report.downtime_ticks == 2

    def test_only_the_first_replica_to_declare_takes_over(self):
        single = checked_run(self._config(["AimlFunction#1"]))
        result = checked_run(self._config(
            ["AimlFunction#1", "AimlFunction#2"],
            topology={"nssmf": 1, "mda_3gpp": 1, "aiml_instances": 3}))
        assert [e.src for e in result.sim.log.of_type("promotion")] == ["AimlFunction#1"]
        assert len(self._restores(result)) == 1
        assert result.report.faults == single.report.faults
        assert result.report.final_tick == single.report.final_tick

    def test_resume_into_monitoring_resolves_at_the_promotion(self):
        result = checked_run(self._config(["AimlFunction#1"], fail_tick=318,
                                          monitor={"rounds": 5, "interval": 10, "batch": 20}))
        report = result.report
        restore = [e for e in result.sim.log.of_type("mitigation")
                   if e.detail["mechanism"] == "failover_restore"]
        assert [(e.detail["resumed_phase"], e.detail["resumes_monitoring"])
                for e in restore] == [("monitor", True)]
        assert report.faults == [FaultRecord("component_failure", 318, 322, 322)]
        assert (report.downtime_ticks, report.time_to_detection,
                report.time_to_resolution) == (4, 4, 4)

    @pytest.mark.parametrize("fail_tick", [310, 311])
    def test_failure_inside_the_detection_delay_stays_undetected(self, fail_tick):
        # the workflow completes at 312, before the replica has missed two beats
        report = checked_run(self._config(["AimlFunction#1"], fail_tick=fail_tick)).report
        assert (report.status, report.final_tick) == ("completed", 312)
        assert report.faults == [FaultRecord("component_failure", fail_tick)]
        assert report.downtime_ticks is None and report.time_to_detection is None

    def test_share_models_failover_resolves_at_the_aggregated_deployment(self, tmp_path):
        data = c_share_models(tmp_path)
        data["topology"]["aiml_instances"] = 2
        data["harness"] = self._failure(100)
        result = checked_run(build(data))
        deployed = [e.tick for e in result.sim.log.of_type("deployment_complete")]
        assert deployed == [13216]
        assert result.report.faults == [FaultRecord("component_failure", 100, 104, 13216)]
        assert result.report.time_to_resolution == 13116

    def test_reimport_rejected_after_failover_leaves_the_fault_open(self, tmp_path,
                                                                    monkeypatch):
        # the first validation accepts the artifact; the replica's rejects it
        monkeypatch.chdir(tmp_path)
        data = a_import_model(tmp_path)
        data["topology"]["aiml_instances"] = 2
        data["sources"][0]["noise_sigma"] = 1.0
        data["external"]["validation_mse_threshold"] = 1.0
        data["harness"] = self._failure(10)
        result = checked_run(build(data))
        report = result.report
        assert len(result.sim.log.of_type("artifact_rejected")) == 1
        assert report.status == "completed" and report.artifact_rejected
        assert report.faults == [FaultRecord("component_failure", 10, 14)]

    def test_restored_registry_equals_last_checkpoint(self):
        result = checked_run(self._config(["AimlFunction#1"]))
        snapshot = self._checkpoint_at_promotion(result)["registry"]
        assert Registry.restore(snapshot, lambda entry, before: None).snapshot() == snapshot

    def test_no_replica_is_single_point_failure(self):
        result = checked_run(self._config([]))
        report = result.report
        assert report.status == "failed"
        assert "SinglePointFailure" in report.failure
        assert len(result.sim.log.of_type("single_point_failure")) == 1
        last = result.sim.log.entries[-1]
        assert last.type == "run_complete"
        assert report.final_tick == last.tick == 10

    def test_unaligned_fail_tick_schedule(self):
        # fail at 11: last beat 10, misses expected at 12 and 14
        result = checked_run(self._config(["AimlFunction#1"], fail_tick=11))
        promo = result.sim.log.of_type("promotion")[0]
        assert promo.tick == 14
        assert result.report.downtime_ticks == 3

    def test_monitor_phase_failure_restores_nonempty_registry(self):
        # without a monitor section the run ends at deployment_complete and
        # there is no monitoring phase to fail in
        monitor = {"rounds": 5, "interval": 10, "batch": 20}
        # dry run without failure to find the monitoring phase window
        base = self._config(["AimlFunction#1"], fail_tick=10 ** 6, monitor=monitor)
        probe = checked_run(base)
        assert not probe.report.faults
        dep_tick = next(e.tick for e in probe.sim.log.entries
                        if e.type == "deployment_complete")
        end_tick = probe.sim.log.of_type("run_complete")[0].tick
        # now fail shortly after deployment completes
        fail_tick = dep_tick + 6
        assert fail_tick < end_tick
        late = self._config(["AimlFunction#1"], fail_tick=fail_tick, monitor=monitor)
        result = checked_run(late)
        report = result.report
        assert report.status == "completed"
        checkpoint = self._checkpoint_at_promotion(result)
        assert checkpoint["phase"] == "monitor"
        restored = checkpoint["registry"]
        assert Registry.restore(restored, lambda entry, before: None).snapshot() == restored
        assert restored["entries"], "registry should carry the deployed model"

    def test_resume_table_covers_exactly_the_phases_live_at_a_promotion(self):
        # idle ends within the run's first call and nothing runs after done
        assert set(Driver.RESUME) == {
            Phase.COLLECT, Phase.COLLECT_VALIDATION, Phase.TRAIN, Phase.DEPLOY,
            Phase.MONITOR, Phase.REFINE, Phase.FEDERATED}

    # Without a failure, this B config collects over ticks [0, 10), trains over
    # [10, 310), deploys over [310, 312) and, with monitoring, monitors over
    # [312, 384). With a 12-tick NSSMF_NonRTRIC link and a 40-tick window it
    # trains over [40, 340) and deploys over [340, 353). Promotion follows a
    # failure by 3 or 4 ticks.
    _SLOW = {"collection": {"window": 40}, "interfaces": {"NSSMF_NonRTRIC": {"latency": 12}}}

    @pytest.mark.parametrize("fail_tick, phase", [(3, "collect"), (100, "train")])
    def test_resume_before_a_model_exists_trains_afresh(self, fail_tick, phase):
        result = checked_run(self._config(["AimlFunction#1"], fail_tick=fail_tick))
        report = result.report
        assert self._restores(result) == [(phase, 0)]
        assert report.status == "completed"
        assert report.model["origin"] == "internal" and report.model["version"] == 1
        collected = [e for e in result.sim.log.entries if e.type == "deliver"
                     and e.payload_kind == "RawData" and e.dst == "AimlFunction#1"]
        assert len(collected) == 1

    @pytest.mark.parametrize("monitor, state", [
        (None, "Deployed"), ({"rounds": 5, "interval": 10, "batch": 20}, "Monitored")])
    def test_resume_in_deploy_redeploys_the_restored_model(self, monitor, state):
        plain = checked_run(self._config([], fail_tick=10 ** 6, monitor=monitor, **self._SLOW))
        result = checked_run(self._config(["AimlFunction#1"], fail_tick=345, monitor=monitor,
                                          **self._SLOW))
        report = result.report
        assert self._restores(result) == [("deploy", 1)]
        assert report.status == "completed"
        assert report.training_ticks == plain.report.training_ticks  # nothing retrained
        resent = [e for e in result.sim.log.entries if e.type == "send"
                  and e.payload_kind == "ModelArtifact" and e.src == "AimlFunction#1"]
        assert len(resent) == 1
        # the dead primary's copy lands first and completes the deployment; the second does not
        assert len(result.sim.log.of_type("deployment_complete")) == 1
        assert report.model["version"] == 1 and report.model["state"] == state

    def test_resume_in_monitor_from_a_deployed_checkpoint_monitors(self):
        # the primary moves the model to Monitored at 353, after its checkpoint at 352
        config = self._config(["AimlFunction#1"], fail_tick=354,
                              monitor={"rounds": 5, "interval": 10, "batch": 20}, **self._SLOW)
        result = checked_run(config)
        checkpoint = self._checkpoint_at_promotion(result)
        assert checkpoint["tick"] == 352
        assert checkpoint["registry"]["entries"]["m0"]["state"] == "Deployed"
        assert self._restores(result) == [("monitor", 1)]
        promotion = result.sim.log.of_type("promotion")[0].tick
        # the log keeps the primary's step that the restore rolled back, and the replica's
        assert self._steps(result)[-2:] == [
            (353, "AimlFunction#0", 1, "Deployed", "Monitored"),
            (promotion, "AimlFunction#1", 1, "Deployed", "Monitored")]
        assert result.report.model["state"] == "Monitored"
        # the restore names the state the replica's step starts from, which
        # keeps the logged chain whole; without it the chain breaks there
        (restore,) = [e for e in result.sim.log.of_type("mitigation")
                      if e.detail["mechanism"] == "failover_restore"]
        assert (restore.detail["model"], restore.detail["version"],
                restore.detail["state"]) == ("m0", 1, "Deployed")
        restore.detail["state"] = "Monitored"
        with pytest.raises(AssertionError, match="m0 at .* starts from Deployed"):
            check_invariants(result)

    @pytest.mark.parametrize("monitor", [None, {"rounds": 5, "interval": 10, "batch": 20}])
    def test_resume_in_deploy_without_a_model_trains_one(self, monitor):
        # the primary dies right after its deploy starts at 340; its last
        # checkpoint, at 336, predates the model
        config = self._config(["AimlFunction#1"], fail_tick=341, cp_interval=7,
                              monitor=monitor, **self._SLOW)
        result = checked_run(config)
        report = result.report
        assert self._restores(result) == [("deploy", 0)]
        restore = [e.detail for e in result.sim.log.of_type("mitigation")
                   if e.detail["mechanism"] == "failover_restore"]
        assert [(d["version"], d["state"]) for d in restore] == [(None, None)]
        assert report.status == "completed"
        assert report.model is not None and report.model["origin"] == "internal"
        # the primary registered its model at 340; the replica trains its own
        registrations = [(tick, src) for tick, src, _, before, _ in self._steps(result)
                         if before is None]
        assert registrations[0] == (340, "AimlFunction#0")
        assert [src for _, src in registrations[1:]] == ["AimlFunction#1"]
        assert registrations[1][0] > 341

    @pytest.mark.parametrize("fail_tick, phase, state", [
        (4330, "refine", "Monitored"), (4500, "refine", "Refining"),
        (4929, "monitor", "Refining")])
    def test_resume_around_a_refinement_ends_refined(self, tmp_path, fail_tick, phase, state):
        # drift is detected at 4329, and the refit job runs until 4929. A model
        # checkpointed as Monitored is monitored again, and the last report
        # detects the drift again; one checkpointed as Refining is retrained.
        data = b_drift_full(tmp_path)
        data["topology"]["aiml_instances"] = 2
        data["harness"] = self._failure(fail_tick)
        result = checked_run(build(data))
        report = result.report
        checkpoint = self._checkpoint_at_promotion(result)
        assert checkpoint["registry"]["entries"]["m0"]["state"] == state
        assert self._restores(result) == [(phase, 1)]
        assert report.status == "completed"
        entry = result.registry.entries["m0"]
        assert entry.version == 2 and entry.state.value == "Monitored"
        # the replica steps on from the restored state, through a refinement of
        # version 1 to version 2 monitored
        steps = [step[2:] for step in self._steps(result, "AimlFunction#1")]
        assert [before for _, before, _ in steps] == [state] + [to for _, _, to in steps[:-1]]
        refined = [(2, "Refining", "Trained"), (2, "Trained", "Validated"),
                   (2, "Validated", "Deployed"), (2, "Deployed", "Monitored")]
        assert steps == ([(1, "Monitored", "Refining")] if state == "Monitored" else []) + refined
        assert report.model["origin"] == "internal"

    @pytest.mark.parametrize("fail_tick, rounds", [
        (100, [1, 2, 3]), (4420, [1, 2, 3]), (13212, [1, 2, 3, 3])])
    def test_resume_in_federated_aggregates_each_round_once(self, tmp_path, fail_tick, rounds):
        # rounds are aggregated at 4404, 8808 and 13212; a replica promoted
        # within a round redoes it, and one promoted after the last redoes the last
        data = c_share_models(tmp_path)
        data["topology"]["aiml_instances"] = 2
        data["harness"] = self._failure(fail_tick)
        result = checked_run(build(data))
        report = result.report
        assert self._restores(result) == [("federated", 0)]
        assert report.status == "completed"
        assert report.model["origin"] == "aggregated"
        assert [e.detail["round"] for e in result.sim.log.of_type("aggregation")] == rounds

    @pytest.mark.parametrize("fail_tick", [10, 11])
    def test_imported_model_lost_with_the_primary_is_validated_again(self, tmp_path,
                                                                    monkeypatch, fail_tick):
        # the primary deploys at 10; the replica restores the empty checkpoint of 8
        monkeypatch.chdir(tmp_path)
        data = a_import_model(tmp_path)
        data["topology"]["aiml_instances"] = 2
        data["harness"] = self._failure(fail_tick)
        result = checked_run(build(data))
        report = result.report
        assert self._restores(result) == [("monitor", 0)]
        assert report.status == "completed"
        assert report.model is not None and report.model["origin"] == "external"
        assert report.training_ticks == 0
        validations = [e for e in result.sim.log.entries if e.type == "deliver"
                       and e.payload_kind == "RawData" and e.dst == "AimlFunction#1"]
        assert len(validations) == 1

    def test_import_data_resume_retrains_on_the_external_data(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        b = scenario_b_dict(n_per_source=200, seed=5, deploy={"targets": ["MdaSystem3GPP#0"]})
        b["topology"] = {"nssmf": 1, "mda_3gpp": 1}
        b["sources"] = [source("NSSMF#0", 200, [numeric_feature("cpu")], [2.0], sigma=0.05)]
        b["pipeline"] = {}
        transformed = checked_run(build(b)).driver.transformed
        assert len(transformed) == 200
        (tmp_path / "data.csv").write_text(transformed_to_csv(transformed))
        data = a_import_model(tmp_path)
        data["scenario"]["mode"] = "import-data"
        data["external"] = {"data_path": "data.csv"}
        plain = checked_run(build(data))
        data["topology"]["aiml_instances"] = 2
        data["harness"] = self._failure(1)
        result = checked_run(build(data))
        assert self._restores(result) == [("train", 0)]
        assert result.report.status == "completed"
        assert np.array_equal(result.driver.transformed.X, transformed.X)
        assert len(result.driver.split.train) == len(plain.driver.split.train)
        assert result.report.model["test_mse"] == plain.report.model["test_mse"]
        raw = [e for e in result.sim.log.entries
               if e.type == "deliver" and e.payload_kind == "RawData"]
        assert raw == []


class TestTimeline:
    @staticmethod
    def _events(*spec):
        """Events from (tick, type, detail) triples, numbered in order."""
        return [Event(tick, seq, kind, detail=detail or {})
                for seq, (tick, kind, detail) in enumerate(spec, 1)]

    def test_nothing_is_detected_before_its_fault_or_resolved_before_detection(self):
        events = self._events(
            (5, "promotion", None), (6, "deployment_complete", None),
            (7, "fault", {"kind": "component_failure"}), (9, "deployment_complete", None),
            (11, "promotion", None), (12, "drift_detected", None),
            (15, "deployment_complete", None), (20, "promotion", None))
        assert timeline(events) == Timeline(
            [FaultRecord("component_failure", 7, 11, 15)], 4, 4, 8)

    def test_a_deployed_transition_resolves_nothing_with_or_without_an_aggregation(self):
        deployed = (30, "transition", {"state": "Deployed"})
        head = [(10, "fault", {"kind": "component_failure"}), (14, "promotion", None)]
        for events in (self._events(*head, deployed),
                       self._events(*head, (20, "aggregation", None), deployed)):
            assert timeline(events).faults == [FaultRecord("component_failure", 10, 14)]
        assert timeline(self._events(*head, deployed, (31, "deployment_complete", None))) \
            .faults == [FaultRecord("component_failure", 10, 14, 31)]

    def test_every_target_logs_the_shift_but_the_model_drifts_once(self, tmp_path):
        result = run_case("b_stream_incremental", tmp_path)
        shifts = result.sim.log.of_type("fault")
        assert sorted(e.src for e in shifts) == ["MdaSystem3GPP#0", "NFMF#0"]
        assert {e.detail["kind"] for e in shifts} == {"drift_shift"}
        drifts = result.sim.log.of_type("drift_detected")
        deployments = result.sim.log.of_type("deployment_complete")
        resolved = next(e.tick for e in deployments if e.tick > drifts[0].tick)
        assert result.report.faults == [
            FaultRecord("drift_shift", shifts[0].tick, drifts[0].tick, resolved)]
        assert timeline(result.sim.log.entries).faults == result.report.faults
