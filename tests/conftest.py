"""Shared config builders for the test suite."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np
import pytest

from smosim import config_from_dict
from smosim.config import FeatureSpec, ScenarioConfig
from smosim.datagen import RecordBatch
from smosim.errors import TickLimitExceeded
from smosim.lifecycle import ModelArtifact
from smosim.pipeline import TransformedDataset
from smosim.topology import ComponentId, ComponentKind, Event, Simulation


def numeric_feature(name: str, lo: float = 0.0, hi: float = 1.0,
                    sensitive: bool = False) -> dict[str, Any]:
    return {"name": name, "type": "numeric", "range": [lo, hi], "sensitive": sensitive}


def categorical_feature(name: str, vocab: list[str]) -> dict[str, Any]:
    return {"name": name, "type": "categorical", "vocab": vocab}


def source(owner: str, size: int, schema: list[dict], coefficients: list[float],
           bias: float = 0.0, sigma: float = 0.0, **extra: Any) -> dict[str, Any]:
    return {
        "owner": owner,
        "emission": {"mode": "batch", "size": size},
        "schema": schema,
        "coefficients": coefficients,
        "bias": bias,
        "noise_sigma": sigma,
        **extra,
    }


def scenario_b_dict(n_per_source: int = 200, sigma: float = 0.05,
                    seed: int = 42, **overrides: Any) -> dict[str, Any]:
    schema = [numeric_feature("cpu"), numeric_feature("mem"),
              categorical_feature("slice", ["embb", "urllc"])]
    coeffs = [1.5, -0.5, 0.3, -0.3]
    data: dict[str, Any] = {
        "scenario": {"kind": "B"},
        "seed": seed,
        "topology": {"nssmf": 1, "nfvo": 1, "mda_3gpp": 1, "mda_nfv": 1},
        "sources": [
            source("NSSMF#0", n_per_source, schema, coeffs, bias=0.2, sigma=sigma),
            source("NFVO#0", n_per_source, schema, coeffs, bias=0.2, sigma=sigma),
        ],
        "pipeline": {"scaling": "zscore",
                     "split": {"train": 0.6, "val": 0.2, "test": 0.2, "seed": 7}},
        "model": {"kind": "LinearSgd",
                  "hyperparams": {"learning_rate": 0.1, "epochs": 30, "batch_size": 16}},
        "deploy": {"targets": ["MdaSystem3GPP#0", "MdaSystemNFV#0"]},
    }
    data.update(overrides)
    return data


def build(data: dict[str, Any]) -> ScenarioConfig:
    return config_from_dict(data)


@pytest.fixture
def scenario_b_config() -> ScenarioConfig:
    return build(scenario_b_dict())


def run_until(sim: Simulation, t: int) -> list[Event]:
    """Run every action due by tick ``t`` in (tick, seq) order, then move the
    clock on to ``t``; the events logged meanwhile."""
    start = len(sim.log.entries)
    try:
        sim.run_to_completion(t)
    except TickLimitExceeded:  # the next action is due after t
        pass
    sim.clock = max(sim.clock, t)
    return sim.log.entries[start:]


def save_artifact(artifact: ModelArtifact, path: str | Path) -> None:
    """Write ``artifact`` as the JSON file that ``lifecycle.load_artifact`` reads."""
    Path(path).write_text(json.dumps(artifact.to_dict(), indent=2) + "\n")


def transformed_to_csv(td: TransformedDataset) -> str:
    """The CSV that ``pipeline.transformed_from_csv`` reads back to ``td``, bit for bit:
    the feature names and ``target`` as header, then one row per sample."""
    lines = [",".join(td.feature_names + ["target"])]
    for row, target in zip(td.X, td.y):
        lines.append(",".join([repr(float(v)) for v in row] + [repr(float(target))]))
    return "\n".join(lines) + "\n"


def record_batch(schema: list[FeatureSpec], rows: list[dict[str, Any]],
                 targets: list[float] | None = None, ids: list[int] | None = None,
                 source: ComponentId = ComponentId(ComponentKind.NSSMF, 0)) -> RecordBatch:
    """A one-source batch from row dicts in which None marks a missing value."""
    n = len(rows)
    columns: dict[str, np.ndarray] = {}
    for f in schema:
        values = [row[f.name] for row in rows]
        if f.type == "numeric":
            columns[f.name] = np.array([np.nan if v is None else v for v in values],
                                       dtype=float)
        elif f.type == "categorical":
            columns[f.name] = np.array([-1 if v is None else f.vocab.index(v)
                                        for v in values], dtype=np.int64)
        else:
            columns[f.name] = np.array(values, dtype=object)
    return RecordBatch({source: tuple(schema)}, columns,
                       np.array(range(n) if ids is None else ids, dtype=np.int64),
                       np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64),
                       np.array([0.0] * n if targets is None else targets, dtype=float),
                       np.zeros(n, dtype=bool))


def batch_rows(batch: RecordBatch) -> list[dict[str, Any]]:
    """Row dicts of a batch, the inverse of :func:`record_batch` for one source."""
    out: list[dict[str, Any]] = [{} for _ in range(len(batch))]
    for name, col in batch.columns.items():
        spec = batch.spec_of(name)
        for row, v in zip(out, col.tolist()):
            if spec.type == "numeric":
                row[name] = None if v != v else v
            elif spec.type == "categorical":
                row[name] = None if v < 0 else spec.vocab[v]
            else:
                row[name] = v
    return out
