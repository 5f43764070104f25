"""The benchmark's workload configs, built from a workload seed.

Each workload function returns a plain config dict for
``smosim.config_from_dict``. The workload seed regenerates the config seed,
the split seed and the poison seed, so a claim can be re-checked on inputs
it was not tuned on. ``scale``
shrinks the record and round counts for the benchmark's own tests; the
measured runs always use scale 1.
"""

from __future__ import annotations

import random
from typing import Any, Callable

DEFAULT_SEED = 1


def derived_seeds(seed: int) -> dict[str, int]:
    """Config, split and poison seeds for one workload seed."""
    rng = random.Random(seed)
    return {name: rng.randrange(1 << 31) for name in ("config", "split", "poison")}


def _numeric(name: str, lo: float, hi: float) -> dict[str, Any]:
    return {"name": name, "type": "numeric", "range": [lo, hi]}


def _categorical(name: str, vocab: list[str]) -> dict[str, Any]:
    return {"name": name, "type": "categorical", "vocab": vocab}


_SLICES = ["embb", "urllc", "mmtc"]
# encoded width: three numerics, then the one-hot slice group
_SCHEMA = [_numeric("cpu", 0.0, 1.0), _numeric("mem", 0.0, 1.0),
           _numeric("load", 0.0, 2.0), _categorical("slice", _SLICES)]
_COEFFS = [1.5, -0.5, 0.8, 0.3, -0.3, 0.1]


def _source(owner: str, emission: dict[str, Any], schema: list[dict[str, Any]],
            **extra: Any) -> dict[str, Any]:
    return {"owner": owner, "emission": emission, "schema": schema,
            "coefficients": list(_COEFFS), "bias": 0.2, "noise_sigma": 0.05, **extra}


def _split(seeds: dict[str, int]) -> dict[str, Any]:
    return {"train": 0.6, "val": 0.2, "test": 0.2, "seed": seeds["split"]}


def batch_ingest(seed: int, scale: float = 1.0) -> dict[str, Any]:
    """Scenario B bulk path: two dirty 20k-record batches through the harness."""
    seeds = derived_seeds(seed)
    size = max(50, int(20_000 * scale))
    schema = _SCHEMA + [{"name": "cell_id", "type": "identifier", "sensitive": True}]
    dirty = {"duplicate_rate": 0.05, "missing_rate": 0.02, "error_rate": 0.01}
    batch = {"mode": "batch", "size": size}
    return {
        "scenario": {"kind": "B"},
        "seed": seeds["config"],
        "topology": {"nssmf": 1, "nfvo": 1, "mda_3gpp": 1, "mda_nfv": 1},
        "sources": [_source("NSSMF#0", batch, schema, **dirty),
                    _source("NFVO#0", batch, schema, **dirty)],
        "pipeline": {"scaling": "zscore",
                     "derived": [{"op": "product", "a": "cpu", "b": "mem"}],
                     "split": _split(seeds)},
        "model": {"kind": "LinearSgd",
                  "hyperparams": {"learning_rate": 0.05, "epochs": 2, "batch_size": 32}},
        "search": {"mode": "grid",
                   "grid": {"learning_rate": [0.02, 0.05], "batch_size": [32, 64]}},
        "deploy": {"targets": ["MdaSystem3GPP#0", "MdaSystemNFV#0"]},
        # a drift factor this wide keeps noise from triggering a refit
        "monitor": {"rounds": 5, "interval": 10, "batch": 20, "drift_factor": 4.0},
        "harness": {
            "poison": {"fraction": 0.05, "attack": "target_offset", "delta": 8.0,
                       "seed": seeds["poison"]},
            "filter": {"k": 4.0},
            "privacy": {"key": "bench-key", "inflation": 1.1},
        },
    }


def stream_monitor(seed: int, scale: float = 1.0) -> dict[str, Any]:
    """Scenario B per-event path: small streaming emissions, long monitoring."""
    seeds = derived_seeds(seed)
    ticks = max(20, int(2_000 * scale))
    rounds = max(4, int(300 * scale))
    stream = {"mode": "streaming", "size": 5, "interval": 1}
    return {
        "scenario": {"kind": "B"},
        "seed": seeds["config"],
        "topology": {"nssmf": 1, "nfmf_per_nssmf": 2, "nfvo": 1,
                     "mda_3gpp": 1, "mda_nfv": 1},
        "sources": [_source("NFMF#0", stream, _SCHEMA),
                    _source("NFVO#0", stream, _SCHEMA)],
        "collection": {"window": ticks},
        "pipeline": {"scaling": "zscore", "split": _split(seeds)},
        "model": {"kind": "LinearSgd",
                  "hyperparams": {"learning_rate": 0.05, "epochs": 3, "batch_size": 32}},
        "deploy": {"targets": ["MdaSystem3GPP#0", "MdaSystemNFV#0", "NFMF#1"]},
        "monitor": {"rounds": rounds, "interval": 5, "batch": 5, "window": 60,
                    "min_samples": 30, "drift_factor": 3.0, "refit": "incremental",
                    "max_refinements": 3},
        "harness": {"drift_shift": {"at_round": rounds // 2, "bias": 1.0}},
    }


def federated_rounds(seed: int, scale: float = 1.0) -> dict[str, Any]:
    """Scenario C share-models: warm-started local SGD rounds in four domains."""
    seeds = derived_seeds(seed)
    size = max(50, int(2_000 * scale))
    rounds = max(2, int(40 * scale))
    batch = {"mode": "batch", "size": size}
    dirty = {"duplicate_rate": 0.02, "missing_rate": 0.01}
    owners = ["MdaSystem3GPP#0", "MdaSystem3GPP#1", "MdaSystemNFV#0", "MdaSystemNFV#1"]
    return {
        "scenario": {"kind": "C", "mode": "share-models", "rounds": rounds,
                     "aggregation": "sample_count"},
        "seed": seeds["config"],
        "topology": {"nssmf": 1, "nfvo": 1, "mda_3gpp": 2, "mda_nfv": 2},
        "sources": [_source(o, batch, _SCHEMA, **dirty) for o in owners],
        "pipeline": {"scaling": "schema_range", "split": _split(seeds)},
        "model": {"kind": "LinearSgd",
                  "hyperparams": {"learning_rate": 0.05, "epochs": 5, "batch_size": 16}},
    }


WORKLOADS: dict[str, Callable[..., dict[str, Any]]] = {
    "batch-ingest": batch_ingest,
    "stream-monitor": stream_monitor,
    "federated-rounds": federated_rounds,
}

# origin every deployed model of the workload must carry
EXPECTED_ORIGIN = {
    "batch-ingest": "internal",
    "stream-monitor": "internal",
    "federated-rounds": "aggregated",
}


def build(workload: str, seed: int, scale: float = 1.0) -> dict[str, Any]:
    return WORKLOADS[workload](seed, scale)
