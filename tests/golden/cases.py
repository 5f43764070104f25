"""Golden run configs: small runs whose outputs are pinned byte for byte.

Each case builds a config dict; ``run_case`` runs it, and ``pinned`` gives
the run's ``report.json`` dict and the sha256 of ``events.jsonl``, built the
way ``smosim run`` writes them. ``tests/golden/<name>.json`` holds the pinned
pair. A change that alters these outputs on purpose re-pins them with
``python tests/golden/repin.py`` and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable

import numpy as np

from smosim import config_from_dict, run_scenario
from smosim.scenarios import RunResult

from conftest import (categorical_feature, numeric_feature, save_artifact, scenario_b_dict,
                      source)

GOLDEN_DIR = Path(__file__).resolve().parent


def b_small(workdir: Path) -> dict[str, Any]:
    return scenario_b_dict()


def b_online_search(workdir: Path) -> dict[str, Any]:
    data = scenario_b_dict(n_per_source=150, seed=3)
    data["scenario"]["online_training"] = True
    data["search"] = {"mode": "grid",
                      "grid": {"learning_rate": [0.05, 0.1], "batch_size": [8, 16]}}
    return data


def b_logistic_search(workdir: Path) -> dict[str, Any]:
    """A LogisticSgd random search over the learning rate alone, on targets
    in [0, 1]: its 20 trials fit in two SGD kernel calls of 16 and 4, and the
    rates past 1 / l2_lambda diverge, trials 2 and 5 of the first call and
    trial 16 of the second."""
    schema = [numeric_feature("cpu"), numeric_feature("mem")]
    data = scenario_b_dict(seed=13)
    data["sources"] = [source(owner, 120, schema, [0.6, -0.4], bias=0.4, sigma=0.05)
                       for owner in ("NSSMF#0", "NFVO#0")]
    data["model"] = {"kind": "LogisticSgd",
                     "hyperparams": {"learning_rate": 0.5, "epochs": 8, "batch_size": 8,
                                     "l2_lambda": 0.1}}
    data["search"] = {"mode": "random", "ranges": {"learning_rate": [0.05, 14.0]},
                      "budget": 20, "seed": 2}
    return data


def b_drift_full(workdir: Path) -> dict[str, Any]:
    schema = [numeric_feature("cpu")]
    return {
        "scenario": {"kind": "B"},
        "seed": 23,
        "topology": {"nssmf": 1, "mda_3gpp": 1},
        "sources": [source("NSSMF#0", 200, schema, [2.0], sigma=0.05)],
        "pipeline": {"scaling": "none",
                     "split": {"train": 0.7, "val": 0.15, "test": 0.15, "seed": 2}},
        "model": {"kind": "LinearSgd",
                  "hyperparams": {"learning_rate": 0.2, "epochs": 30, "batch_size": 8}},
        "deploy": {"targets": ["MdaSystem3GPP#0"]},
        "monitor": {"rounds": 4, "batch": 25, "interval": 30, "min_samples": 20,
                    "drift_factor": 2.0, "max_refinements": 2, "refit": "full",
                    "window": 25},
        "harness": {"drift_shift": {"at_round": 1, "coefficients": [5.0], "bias": 2.0}},
    }


def b_stream_incremental(workdir: Path) -> dict[str, Any]:
    schema = [numeric_feature("cpu"), numeric_feature("mem")]
    stream = {"mode": "streaming", "size": 5, "interval": 1}
    data = scenario_b_dict(seed=11)
    data.update({
        "topology": {"nssmf": 1, "nfmf_per_nssmf": 1, "nfvo": 1, "mda_3gpp": 1},
        "sources": [source("NFMF#0", 0, schema, [1.5, -0.5], bias=0.2, sigma=0.05),
                    source("NFVO#0", 0, schema, [1.5, -0.5], bias=0.2, sigma=0.05)],
        "collection": {"window": 40},
        "model": {"kind": "LinearSgd",
                  "hyperparams": {"learning_rate": 0.05, "epochs": 3, "batch_size": 8}},
        "deploy": {"targets": ["MdaSystem3GPP#0", "NFMF#0"]},
        "monitor": {"rounds": 24, "interval": 5, "batch": 5, "window": 40,
                    "min_samples": 20, "drift_factor": 2.0, "refit": "incremental",
                    "max_refinements": 3},
        "harness": {"drift_shift": {"at_round": 8, "bias": 1.5}},
    })
    for s in data["sources"]:
        s["emission"] = dict(stream)
    return data


def b_stream_failover(workdir: Path) -> dict[str, Any]:
    """Two streaming sources, one of them poisoned, both pseudonymising an
    identifier; the primary AI/ML instance dies inside the collection window,
    so its replica collects afresh while the first draws' emissions are still
    arriving, and two targets report through two drift refits."""
    schema = [numeric_feature("cpu"), numeric_feature("mem"),
              {"name": "ue", "type": "identifier", "sensitive": True}]
    stream = {"mode": "streaming", "size": 4, "interval": 1}
    data = b_stream_incremental(workdir)
    data.update({
        "seed": 31,
        "topology": {"nssmf": 1, "nfmf_per_nssmf": 1, "nfvo": 1, "mda_3gpp": 1,
                     "aiml_instances": 2},
        "sources": [source("NFMF#0", 0, schema, [1.5, -0.5], bias=0.2, sigma=0.05,
                           duplicate_rate=0.25, emission=dict(stream)),
                    source("NFVO#0", 0, schema, [1.5, -0.5], bias=0.2, sigma=0.05,
                           emission=dict(stream, size=3))],
        "collection": {"window": 30},
        "monitor": {"rounds": 10, "interval": 5, "batch": 4, "window": 20,
                    "min_samples": 8, "drift_factor": 2.0, "refit": "full",
                    "max_refinements": 2},
        "harness": {
            "poison": {"fraction": 0.25, "attack": "target_offset", "delta": 4.0,
                       "seed": 3, "sources": ["NFMF#0"]},
            "filter": {"k": 3.0},
            "privacy": {"key": "golden", "inflation": 1.2},
            "failure": {"target": "AimlFunction#0", "replicas": ["AimlFunction#1"],
                        "fail_tick": 12, "heartbeat_interval": 2, "missed_to_declare": 2,
                        "checkpoint_interval": 4},
            "drift_shift": {"at_round": 4, "bias": 2.0},
        },
    })
    return data


def b_ridge_scheduler(workdir: Path) -> dict[str, Any]:
    """RidgeClosedForm under the priority scheduler: the training job and the
    drift refinement each run as the open ``training`` class beside a
    higher-priority NF workload, and take its completion tick under contention."""
    data = scenario_b_dict(n_per_source=120, seed=19)
    data["model"] = {"kind": "RidgeClosedForm", "hyperparams": {"l2_lambda": 0.5}}
    data["deploy"] = {"targets": ["MdaSystem3GPP#0"]}
    data["monitor"] = {"rounds": 4, "interval": 10, "batch": 10, "window": 20,
                       "min_samples": 10, "drift_factor": 2.0, "max_refinements": 1}
    data["harness"] = {
        "scheduler": {"budget": 4, "classes": [
            {"name": "training", "priority": 1, "demand": 3},
            {"name": "NfWorkload", "priority": 2, "demand": 2, "work": 60}]},
        "drift_shift": {"at_round": 2, "bias": 3.0}}
    return data


def b_stump_full_refit(workdir: Path) -> dict[str, Any]:
    """A DecisionStump whose drift refinement refits a stump afresh on the window."""
    schema = [numeric_feature("cpu"), numeric_feature("mem")]
    data = scenario_b_dict(seed=37)
    data.update({
        "topology": {"nssmf": 1, "mda_3gpp": 1},
        "sources": [source("NSSMF#0", 150, schema, [2.0, -1.0], bias=0.3, sigma=0.05)],
        "model": {"kind": "DecisionStump"},
        "deploy": {"targets": ["MdaSystem3GPP#0"]},
        "monitor": {"rounds": 5, "interval": 10, "batch": 15, "window": 30,
                    "min_samples": 15, "drift_factor": 2.0, "refit": "full",
                    "max_refinements": 2},
        "harness": {"drift_shift": {"at_round": 2, "coefficients": [-2.0, 1.0]}},
    })
    return data


def b_monitor_failover(workdir: Path) -> dict[str, Any]:
    """The primary AI/ML instance dies while it monitors the deployed model; the
    replica restores the Monitored entry from its checkpoint and goes on
    monitoring it as it stands."""
    schema = [numeric_feature("cpu"), numeric_feature("mem")]
    data = scenario_b_dict(seed=47)
    data.update({
        "topology": {"nssmf": 1, "mda_3gpp": 1, "aiml_instances": 2},
        "sources": [source("NSSMF#0", 120, schema, [1.5, -0.5], bias=0.2, sigma=0.05)],
        "model": {"kind": "LinearSgd",
                  "hyperparams": {"learning_rate": 0.1, "epochs": 5, "batch_size": 16}},
        "deploy": {"targets": ["MdaSystem3GPP#0"]},
        "monitor": {"rounds": 6, "interval": 20, "batch": 10, "drift_factor": 10.0},
        "harness": {"failure": {"target": "AimlFunction#0", "replicas": ["AimlFunction#1"],
                                "fail_tick": 430, "heartbeat_interval": 10,
                                "missed_to_declare": 2, "checkpoint_interval": 20}},
    })
    return data


def c_share_models(workdir: Path) -> dict[str, Any]:
    schema = [numeric_feature("cpu"), numeric_feature("mem")]
    return {
        "scenario": {"kind": "C", "mode": "share-models", "rounds": 3,
                     "aggregation": "sample_count"},
        "seed": 17,
        "topology": {"nssmf": 1, "nfvo": 1, "mda_3gpp": 1, "mda_nfv": 1},
        "sources": [
            source("MdaSystem3GPP#0", 250, schema, [2.0, -1.0], bias=0.5, sigma=0.1),
            source("MdaSystemNFV#0", 250, schema, [2.0, -1.0], bias=0.5, sigma=0.1),
        ],
        "pipeline": {"scaling": "schema_range",
                     "split": {"train": 0.7, "val": 0.15, "test": 0.15, "seed": 3}},
        "model": {"kind": "LinearSgd",
                  "hyperparams": {"learning_rate": 0.1, "epochs": 25, "batch_size": 16}},
    }


def c_share_models_failover(workdir: Path) -> dict[str, Any]:
    """The primary dies in the second share-models round; the replica, which
    holds no model, requests that round again from both domains."""
    schema = [numeric_feature("cpu"), numeric_feature("mem")]
    return {
        "scenario": {"kind": "C", "mode": "share-models", "rounds": 3},
        "seed": 53,
        "topology": {"nssmf": 1, "nfvo": 1, "mda_3gpp": 1, "mda_nfv": 1, "aiml_instances": 2},
        "sources": [
            source("MdaSystem3GPP#0", 60, schema, [2.0, -1.0], bias=0.5, sigma=0.1),
            source("MdaSystemNFV#0", 60, schema, [2.0, -1.0], bias=0.5, sigma=0.1),
        ],
        "pipeline": {"scaling": "schema_range",
                     "split": {"train": 0.7, "val": 0.15, "test": 0.15, "seed": 3}},
        "model": {"kind": "LinearSgd",
                  "hyperparams": {"learning_rate": 0.1, "epochs": 3, "batch_size": 16}},
        "harness": {"failure": {"target": "AimlFunction#0", "replicas": ["AimlFunction#1"],
                                "fail_tick": 180, "heartbeat_interval": 20,
                                "missed_to_declare": 2, "checkpoint_interval": 40}},
    }


def c_share_data(workdir: Path) -> dict[str, Any]:
    """Each domain cleanses its own dirty records; the NFV domain names its
    fields apart, and the MAD filter and formatting run centrally."""
    schema = [numeric_feature("cpu", 10.0, 50.0), numeric_feature("mem"),
              categorical_feature("slice", ["embb", "urllc"])]
    nfv_schema = [dict(f, name=f"nfv_{f['name']}") for f in schema]
    dirty = {"duplicate_rate": 0.05, "missing_rate": 0.05, "error_rate": 0.05}
    return {
        "scenario": {"kind": "C", "mode": "share-data"},
        "seed": 29,
        "topology": {"nssmf": 1, "nfmf_per_nssmf": 1, "nfvo": 1, "mda_3gpp": 1, "mda_nfv": 1},
        "sources": [
            source("MdaSystem3GPP#0", 160, schema, [0.05, -1.0, 0.3, -0.3], bias=0.5,
                   sigma=0.1, **dirty),
            source("MdaSystemNFV#0", 140, nfv_schema, [0.05, -1.0, 0.3, -0.3], bias=0.5,
                   sigma=0.1, rename={f"nfv_{f['name']}": f["name"] for f in schema},
                   **dirty),
        ],
        "pipeline": {"scaling": "zscore",
                     "split": {"train": 0.7, "val": 0.15, "test": 0.15, "seed": 5}},
        "model": {"kind": "LinearSgd",
                  "hyperparams": {"learning_rate": 0.1, "epochs": 20, "batch_size": 16}},
        "deploy": {"targets": ["NFMF#0"]},
        "monitor": {"rounds": 2, "interval": 10, "batch": 20},
        "harness": {"filter": {"k": 3.0}},
    }


def a_import_model(workdir: Path) -> dict[str, Any]:
    """The artifact is written into ``workdir`` and named by a relative path,
    so the config hash does not depend on where the test runs."""
    from smosim.learn import EvalMetrics, LinearParams
    from smosim.config import ModelKind
    from smosim.lifecycle import ModelArtifact
    from smosim.pipeline import ScalingParams

    artifact = ModelArtifact(
        kind=ModelKind.LINEAR_SGD,
        parameters=LinearParams(np.array([1.9]), 0.05),
        feature_names=["cpu"],
        scaler=ScalingParams("none", ["cpu"], np.zeros(1), np.ones(1)),
        metrics=EvalMetrics(0.0, 0.0, 1.0),
        origin="external",
    )
    save_artifact(artifact, workdir / "artifact.json")
    return {
        "scenario": {"kind": "A", "mode": "import-model"},
        "seed": 5,
        "topology": {"nssmf": 1, "mda_3gpp": 1, "external_provider": True},
        "sources": [source("NSSMF#0", 120, [numeric_feature("cpu")], [2.0], sigma=0.05)],
        "model": {"kind": "LinearSgd"},
        "deploy": {"targets": ["MdaSystem3GPP#0"]},
        "monitor": {"rounds": 3, "interval": 10, "batch": 20},
        "external": {"artifact_path": "artifact.json", "validation_mse_threshold": 0.05},
    }


def a_import_data(workdir: Path) -> dict[str, Any]:
    """A CSV of transformed rows is written into ``workdir`` and named by a
    relative path; the Non-RT RIC trains on it and deploys the model."""
    rng = np.random.default_rng(41)
    X = rng.uniform(0.0, 1.0, size=(120, 2))
    y = X @ np.array([1.5, -0.5]) + 0.2 + rng.normal(0.0, 0.05, size=120)
    rows = [",".join(repr(float(v)) for v in (*row, target)) for row, target in zip(X, y)]
    (workdir / "data.csv").write_text("\n".join(["cpu,mem,target", *rows]) + "\n")
    return {
        "scenario": {"kind": "A", "mode": "import-data"},
        "seed": 43,
        "topology": {"nssmf": 1, "mda_3gpp": 1, "external_provider": True},
        "pipeline": {"split": {"train": 0.7, "val": 0.15, "test": 0.15, "seed": 4}},
        "model": {"kind": "LinearSgd",
                  "hyperparams": {"learning_rate": 0.1, "epochs": 10, "batch_size": 16}},
        "deploy": {"targets": ["MdaSystem3GPP#0"]},
        "external": {"data_path": "data.csv"},
    }


CASES: dict[str, Callable[[Path], dict[str, Any]]] = {
    "b_small": b_small,
    "b_online_search": b_online_search,
    "b_logistic_search": b_logistic_search,
    "b_drift_full": b_drift_full,
    "b_stream_incremental": b_stream_incremental,
    "b_stream_failover": b_stream_failover,
    "b_ridge_scheduler": b_ridge_scheduler,
    "b_stump_full_refit": b_stump_full_refit,
    "b_monitor_failover": b_monitor_failover,
    "c_share_models": c_share_models,
    "c_share_models_failover": c_share_models_failover,
    "c_share_data": c_share_data,
    "a_import_model": a_import_model,
    "a_import_data": a_import_data,
}


def run_case(name: str, workdir: Path) -> RunResult:
    """Run one case with ``workdir`` as the working directory."""
    data = CASES[name](workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return run_scenario(config_from_dict(data))
    finally:
        os.chdir(cwd)


def pinned(result: RunResult) -> dict[str, Any]:
    """The pinned pair of a run: its report dict and its event log's sha256."""
    events = result.sim.log.to_jsonl().encode()
    return {"report": result.report.to_dict(),
            "events_sha256": hashlib.sha256(events).hexdigest(),
            "event_count": result.report.event_count}


def dumps(pinned: dict[str, Any]) -> str:
    """The canonical text of a pinned case; floats print with ``repr``."""
    return json.dumps(pinned, indent=1, sort_keys=True) + "\n"


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"
