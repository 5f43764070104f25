"""Golden run configs: small runs whose outputs are pinned byte for byte.

Each case builds a config dict; ``run_case`` runs it and returns the
``report.json`` dict and the sha256 of ``events.jsonl``, built the way
``smosim run`` writes them. ``tests/golden/<name>.json`` holds the pinned
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

from conftest import numeric_feature, scenario_b_dict, source

GOLDEN_DIR = Path(__file__).resolve().parent


def b_small(workdir: Path) -> dict[str, Any]:
    return scenario_b_dict()


def b_online_search(workdir: Path) -> dict[str, Any]:
    data = scenario_b_dict(n_per_source=150, seed=3)
    data["scenario"]["online_training"] = True
    data["search"] = {"mode": "grid",
                      "grid": {"learning_rate": [0.05, 0.1], "batch_size": [8, 16]}}
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


def a_import_model(workdir: Path) -> dict[str, Any]:
    """The artifact is written into ``workdir`` and named by a relative path,
    so the config hash does not depend on where the test runs."""
    from smosim.learn import EvalMetrics, LinearParams
    from smosim.config import ModelKind
    from smosim.lifecycle import ModelArtifact, save_artifact
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


CASES: dict[str, Callable[[Path], dict[str, Any]]] = {
    "b_small": b_small,
    "b_online_search": b_online_search,
    "b_drift_full": b_drift_full,
    "b_stream_incremental": b_stream_incremental,
    "c_share_models": c_share_models,
    "a_import_model": a_import_model,
}


def run_case(name: str, workdir: Path) -> dict[str, Any]:
    """Run one case with ``workdir`` as the working directory."""
    data = CASES[name](workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        result = run_scenario(config_from_dict(data))
    finally:
        os.chdir(cwd)
    events = result.sim.log.to_jsonl().encode()
    return {"report": result.report.to_dict(),
            "events_sha256": hashlib.sha256(events).hexdigest(),
            "event_count": result.report.event_count}


def dumps(pinned: dict[str, Any]) -> str:
    """The canonical text of a pinned case; floats print with ``repr``."""
    return json.dumps(pinned, indent=1, sort_keys=True) + "\n"


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"
