"""End-to-end scenario orchestration: runs A/B/C, aggregation, failover."""

from __future__ import annotations

import numpy as np
import pytest

from smosim import aggregate, config_from_dict, run_scenario
from smosim.config import ModelKind
from smosim.errors import (
    ConfigError,
    InsufficientDomains,
    NoDataSources,
    SchemaMismatch,
    UnsupportedKind,
)
from smosim.learn import LinearParams, ridge_closed_form, evaluate
from smosim.scenarios import DomainModel, Driver, run_scenario_b, run_scenario_c
from smosim.topology import ComponentId, ComponentKind

from conftest import build, numeric_feature, scenario_b_dict, source

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
        result = run_scenario(build(scenario_b_dict(n_per_source=150, sigma=0.02)))
        report = result.report
        assert report.status == "completed"
        assert report.model["test_mse"] < report.model["baseline_test_mse"]

    def test_rawdata_message_count_is_sources_times_batches(self):
        data = scenario_b_dict(n_per_source=20)
        data["collection"] = {"window": 10, "requests": 3}
        result = run_scenario(build(data))
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
        with pytest.raises(NoDataSources):
            run_scenario_b(config)

    def test_streaming_emission_schedule(self):
        data = scenario_b_dict(n_per_source=10)
        data["sources"][0]["emission"] = {"mode": "streaming", "size": 10, "interval": 5}
        data["collection"] = {"window": 20, "requests": 1}
        result = run_scenario(build(data))
        streamed = [
            e for e in result.sim.log.entries
            if e.type == "send" and e.payload_kind == "RawData"
            and e.src == "NSSMF#0"
        ]
        assert len(streamed) == 4  # ticks 5, 10, 15, 20

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

    def test_report_signaling_equals_topology_meters(self):
        result = run_scenario(build(scenario_b_dict(n_per_source=30)))
        for name, entry in result.report.signaling["interfaces"].items():
            meter = result.sim.meter(name)
            assert entry["bytes"] == meter["bytes"]
            assert entry["messages"] == meter["messages"]

    def test_deploy_to_edge_nfmf_serves_without_raw_transfer(self):
        data = scenario_b_dict(n_per_source=40)
        data["topology"] = {"nssmf": 1, "nfmf_per_nssmf": 2, "mda_3gpp": 1}
        data["sources"] = [data["sources"][0]]
        data["deploy"] = {"targets": ["NFMF#1"]}
        data["monitor"] = {"rounds": 2, "batch": 10, "interval": 8,
                           "min_samples": 10, "drift_factor": 4.0}
        result = run_scenario(build(data))
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


class TestScenarioAImportModel:
    def _config(self, tmp_path, weights, bias, threshold=0.05, **overrides):
        from smosim.lifecycle import ModelArtifact, save_artifact
        from smosim.learn import EvalMetrics
        from smosim.pipeline import ScalingParams

        schema = [numeric_feature("cpu")]
        artifact = ModelArtifact(
            kind=ModelKind.LINEAR_SGD,
            parameters=LinearParams(np.array(weights), bias),
            feature_names=["cpu"],
            scaler=ScalingParams("none", ["cpu"], np.zeros(1), np.ones(1)),
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
                         "validation_mse_threshold": threshold},
            **overrides,
        })

    def test_valid_artifact_deployed_with_external_origin(self, tmp_path):
        result = run_scenario(self._config(tmp_path, [2.0], 0.0))
        report = result.report
        assert report.status == "completed"
        assert not report.artifact_rejected
        assert report.model["origin"] == "external"
        assert report.model["state"] == "Deployed"
        ext = report.signaling["interfaces"]["ExternalAiml"]
        assert ext["messages"] == 1

    def test_failover_during_validation_collection_still_validates_import(self, tmp_path):
        config = self._config(
            tmp_path, [2.0], 0.0,
            topology={"nssmf": 1, "mda_3gpp": 1, "external_provider": True,
                      "aiml_instances": 2},
            harness={"failure": {"target": "AimlFunction#0", "fail_tick": 3,
                                 "heartbeat_interval": 2, "missed_to_declare": 2,
                                 "replicas": ["AimlFunction#1"],
                                 "checkpoint_interval": 4}})
        result = run_scenario(config)
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
        result = run_scenario(self._config(tmp_path, [0.0], 5.0))
        report = result.report
        assert report.status == "completed"
        assert report.artifact_rejected
        assert report.model is None
        assert result.registry.entries == {}
        assert len(result.sim.log.of_type("artifact_rejected")) == 1

    def test_missing_artifact_file_fails_run(self, tmp_path):
        config = self._config(tmp_path, [2.0], 0.0)
        (tmp_path / "artifact.json").unlink()
        with pytest.raises(FileNotFoundError):
            run_scenario(config)


class TestScenarioAImportData:
    def test_import_data_equals_scenario_b_from_same_transformed_data(self, tmp_path):
        from smosim.pipeline import transformed_to_csv

        b_data = scenario_b_dict(n_per_source=80, sigma=0.05)
        b_data["monitor"] = {"rounds": 0}
        b_data["search"] = {"mode": "grid",
                            "grid": {"learning_rate": [0.05, 0.1], "epochs": [15]}}
        b_result = run_scenario(build(b_data))
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
        a_result = run_scenario(build(a_data))
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
        with pytest.raises(InsufficientDomains):
            run_scenario_c(config)

    def test_share_models_moves_no_raw_data(self):
        result = run_scenario(build(_scenario_c_dict("share-models")))
        assert result.report.status == "completed"
        for iface in TERMINATION_IFACES:
            by_kind = result.report.signaling["interfaces"][iface]["by_kind"]
            assert "RawData" not in by_kind
            assert "CleansedData" not in by_kind
            assert set(by_kind) <= {"ModelArtifact", "Report", "Control", "Heartbeat"}

    def test_share_models_converges_near_pooled_oracle(self):
        result = run_scenario(build(_scenario_c_dict("share-models")))
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

    def test_share_data_trains_centrally_on_cleansed_union(self):
        result = run_scenario(build(_scenario_c_dict("share-data", rounds=1, size=100)))
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
        result = run_scenario(build(_scenario_c_dict("share-models", rounds=rounds)))
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

    def test_drift_triggers_refinement_and_recovers(self):
        result = run_scenario(self._drift_config())
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

    def test_refinement_budget_exhaustion_retires_model(self):
        result = run_scenario(self._drift_config(max_refinements=0))
        report = result.report
        entry = result.registry.entries["m0"]
        assert entry.state.value == "Retired"
        assert report.failure == "RefinementBudgetExhausted"
        assert len(result.sim.log.of_type("refinement_budget_exhausted")) == 1

    @pytest.mark.parametrize("learning_rate", [0.9, 1.5])
    def test_diverging_sgd_fails_with_non_finite_update(self, learning_rate):
        # past the stability limit the initial training grows the parameters
        # to ~7e51 (lr 0.9) or ~4e237 (lr 1.5) without ever overflowing
        result = run_scenario(self._drift_config(learning_rate=learning_rate))
        report = result.report
        assert report.status == "failed"
        assert report.failure.startswith("NonFiniteUpdate")
        assert report.model is None
        assert result.sim.log.entries[-1].type == "run_complete"

    @pytest.mark.parametrize("refit", ["incremental", "full"])
    def test_stump_refinement_refits_a_stump(self, refit):
        from smosim.learn import StumpParams

        result = run_scenario(self._drift_config(refit=refit, kind="DecisionStump"))
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
            out = real_fit(kind, X, y, hp, seed, init)
            calls.append((X, y, hp, out))
            return out

        monkeypatch.setattr(learn, "fit", spy)
        result = run_scenario(self._drift_config(refit=refit, kind="RidgeClosedForm",
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


class TestTickLimit:
    def test_run_past_max_ticks_fails_with_named_error(self):
        result = run_scenario(build(scenario_b_dict(max_ticks=50)))
        report = result.report
        assert report.status == "failed"
        assert report.failure.startswith("TickLimitExceeded")
        assert report.final_tick <= 50
        assert result.sim.log.entries[-1].type == "run_complete"


class TestFailover:
    def _config(self, replicas, fail_tick=10, cp_interval=4, monitor=None):
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
        return build(data)

    def test_promotion_follows_heartbeat_schedule(self):
        result = run_scenario(self._config(["AimlFunction#1"]))
        report = result.report
        assert report.status == "completed"
        assert report.downtime_ticks == 4  # fail at 10, beats at 12/14 missed
        promo = result.sim.log.of_type("promotion")[0]
        assert promo.tick == 14
        assert report.model is not None  # replica finished the workflow

    def test_restored_registry_equals_last_checkpoint(self):
        result = run_scenario(self._config(["AimlFunction#1"]))
        driver = result.driver
        assert driver.last_checkpoint_at_promotion is not None
        assert driver.restored_registry_snapshot == \
            driver.last_checkpoint_at_promotion["registry"]

    def test_no_replica_is_single_point_failure(self):
        result = run_scenario(self._config([]))
        report = result.report
        assert report.status == "failed"
        assert "SinglePointFailure" in report.failure
        assert len(result.sim.log.of_type("single_point_failure")) == 1
        last = result.sim.log.entries[-1]
        assert last.type == "run_complete"
        assert report.final_tick == last.tick == 10

    def test_unaligned_fail_tick_schedule(self):
        # fail at 11: last beat 10, misses expected at 12 and 14
        result = run_scenario(self._config(["AimlFunction#1"], fail_tick=11))
        promo = result.sim.log.of_type("promotion")[0]
        assert promo.tick == 14
        assert result.report.downtime_ticks == 3

    def test_monitor_phase_failure_restores_nonempty_registry(self):
        # without a monitor section the run ends at deployment_complete and
        # there is no monitoring phase to fail in
        monitor = {"rounds": 5, "interval": 10, "batch": 20}
        # dry run without failure to find the monitoring phase window
        base = self._config(["AimlFunction#1"], fail_tick=10 ** 6, monitor=monitor)
        probe = run_scenario(base)
        assert not probe.report.faults
        dep_tick = next(e.tick for e in probe.sim.log.entries
                        if e.type == "deployment_complete")
        end_tick = probe.sim.log.of_type("run_complete")[0].tick
        # now fail shortly after deployment completes
        fail_tick = dep_tick + 6
        assert fail_tick < end_tick
        late = self._config(["AimlFunction#1"], fail_tick=fail_tick, monitor=monitor)
        result = run_scenario(late)
        report = result.report
        assert report.status == "completed"
        driver = result.driver
        assert driver.last_checkpoint_at_promotion is not None
        assert driver.last_checkpoint_at_promotion["phase"] == "monitor"
        restored = driver.restored_registry_snapshot
        assert restored == driver.last_checkpoint_at_promotion["registry"]
        assert restored["entries"], "registry should carry the deployed model"
