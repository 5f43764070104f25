"""Model registry, lifecycle state machine, monitoring window and drift rule.

The registry is the single authority on model versions and legal state
transitions. It holds each model's current state only: every state an entry
enters, its registration included, is reported to the registry's ``on_step``
callable, which keeps the one record of how the model got there. Its JSON
snapshot doubles as the failover checkpoint format. The :class:`MonitorWindow`
is the single record of the reported samples a deployed model is monitored on.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .config import MAX_WIDTH, ModelKind
from .datagen import Part, RecordBatch, gather
from .errors import IllegalTransition, InvalidArtifact, SchemaMismatch
from .learn import EvalMetrics, LinearParams, ModelParameters, params_from_list, whole
from .pipeline import ScalingParams


class LifecycleState(str, Enum):
    COLLECTED = "Collected"
    PREPROCESSED = "Preprocessed"
    TRAINED = "Trained"
    VALIDATED = "Validated"
    DEPLOYED = "Deployed"
    MONITORED = "Monitored"
    REFINING = "Refining"
    RETIRED = "Retired"


LEGAL_TRANSITIONS: frozenset[tuple[LifecycleState, LifecycleState]] = frozenset({
    (LifecycleState.COLLECTED, LifecycleState.PREPROCESSED),
    (LifecycleState.PREPROCESSED, LifecycleState.TRAINED),
    (LifecycleState.TRAINED, LifecycleState.VALIDATED),
    (LifecycleState.VALIDATED, LifecycleState.DEPLOYED),
    (LifecycleState.VALIDATED, LifecycleState.RETIRED),
    (LifecycleState.DEPLOYED, LifecycleState.MONITORED),
    (LifecycleState.MONITORED, LifecycleState.REFINING),
    (LifecycleState.MONITORED, LifecycleState.RETIRED),
    (LifecycleState.REFINING, LifecycleState.TRAINED),
})


@dataclass
class ModelArtifact:
    """Serialized trained model: the deployment, import and checkpoint unit."""

    kind: ModelKind
    parameters: ModelParameters
    feature_names: list[str]
    scaler: ScalingParams
    metrics: EvalMetrics
    origin: str = "internal"  # internal | external | aggregated
    version: int = 1
    created_tick: int = 0
    packaged: bool = False

    def __post_init__(self) -> None:
        if self.origin not in ("internal", "external", "aggregated"):
            raise InvalidArtifact(f"unknown origin {self.origin!r}")
        width = len(self.feature_names)
        if width > MAX_WIDTH:  # its bytes on the wire would overflow the event log's column
            raise InvalidArtifact(f"schema width {width} exceeds {MAX_WIDTH}")
        if isinstance(self.parameters, LinearParams):
            if len(self.parameters.weights) != width:
                raise InvalidArtifact(
                    f"parameter width {len(self.parameters.weights)} != schema width {width}")
        else:
            if not 0 <= self.parameters.feature < width:
                raise InvalidArtifact("stump split feature outside the schema")
        if not len(self.scaler.offset) == len(self.scaler.scale) == width:
            raise InvalidArtifact(f"scaler widths {len(self.scaler.offset)} and "
                                  f"{len(self.scaler.scale)} != schema width {width}")

    @property
    def param_count(self) -> int:
        return self.parameters.param_count

    def predict(self, X: np.ndarray) -> np.ndarray:
        from .learn import predict_score

        return predict_score(self.parameters, self.kind, X)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind.value,
            "parameters": self.parameters.to_list(),
            "feature_schema": list(self.feature_names),
            "scaling_parameters": self.scaler.to_dict(),
            "metrics": self.metrics.to_dict(),
            "origin": self.origin,
            "version": self.version,
            "created_tick": self.created_tick,
            "packaged": self.packaged,
        }

    @staticmethod
    def from_dict(d: dict[str, Any]) -> "ModelArtifact":
        try:
            kind = ModelKind(d["kind"])
            params = params_from_list(kind, d["parameters"])
            return ModelArtifact(
                kind=kind,
                parameters=params,
                feature_names=list(d["feature_schema"]),
                scaler=ScalingParams.from_dict(d["scaling_parameters"]),
                metrics=EvalMetrics.from_dict(d["metrics"]),
                origin=d.get("origin", "external"),
                version=whole(d.get("version", 1)),
                created_tick=whole(d.get("created_tick", 0)),
                packaged=bool(d.get("packaged", False)),
            )
        except (KeyError, ValueError, TypeError, OverflowError, SchemaMismatch) as exc:
            raise InvalidArtifact(f"malformed artifact: {exc}") from None


def load_artifact(path: str | Path) -> ModelArtifact:
    try:
        d = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise InvalidArtifact(f"cannot read an artifact from {str(path)!r}: {exc}") from None
    return ModelArtifact.from_dict(d)


@dataclass
class RegistryEntry:
    model_id: str
    version: int
    artifact: ModelArtifact
    state: LifecycleState
    provenance: dict[str, Any] = field(default_factory=dict)
    refinements: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "model_id": self.model_id,
            "version": self.version,
            "artifact": self.artifact.to_dict(),
            "state": self.state.value,
            "provenance": self.provenance,
            "refinements": self.refinements,
        }

    @staticmethod
    def from_dict(d: dict[str, Any]) -> "RegistryEntry":
        return RegistryEntry(
            model_id=d["model_id"],
            version=int(d["version"]),
            artifact=ModelArtifact.from_dict(d["artifact"]),
            state=LifecycleState(d["state"]),
            provenance=dict(d.get("provenance", {})),
            refinements=int(d.get("refinements", 0)),
        )


# called after each state an entry enters, with the state it left (None if registered)
OnStep = Callable[[RegistryEntry, LifecycleState | None], None]


class Registry:
    """Versioned model store; every mutation honors the legal-transition digraph.

    The registry holds each model's current state and, per (model, target),
    the version active there; it keeps no history. Each step it makes is
    reported to ``on_step`` once the entry is in its new state.
    """

    def __init__(self, on_step: OnStep) -> None:
        self.on_step = on_step
        self.entries: dict[str, RegistryEntry] = {}
        # (model_id, target) -> the version active there
        self.deployments: dict[tuple[str, str], int] = {}

    # -- registration ------------------------------------------------------------

    def register(self, artifact: ModelArtifact, model_id: str,
                 provenance: dict[str, Any] | None = None,
                 validation: tuple[np.ndarray, np.ndarray] | None = None,
                 mse_threshold: float | None = None,
                 threshold: float | None = None) -> RegistryEntry:
        """New entry in Trained (internal) or Validated (external) state.

        External artifacts must additionally pass evaluation on a local
        validation partition, scaled by their own scaler as inference scales
        it, before they are accepted; accuracy there is at ``threshold``.
        """
        if model_id in self.entries:
            raise InvalidArtifact(f"model id {model_id!r} already registered; "
                                  "use reregister for new versions")
        state = LifecycleState.TRAINED
        if artifact.origin == "external":
            if validation is None or mse_threshold is None or threshold is None:
                raise InvalidArtifact("external artifacts need local validation")
            from .learn import evaluate

            Xv, yv = validation
            if Xv.shape[1] != len(artifact.feature_names):
                raise InvalidArtifact(
                    f"validation width {Xv.shape[1]} != artifact schema "
                    f"{len(artifact.feature_names)}")
            metrics = evaluate(artifact.parameters, artifact.kind, artifact.scaler.apply(Xv), yv,
                               threshold)
            if metrics.mse > mse_threshold:
                raise InvalidArtifact(
                    f"external artifact failed validation: mse {metrics.mse:.6g} "
                    f"> threshold {mse_threshold:.6g}")
            artifact.metrics = metrics
            state = LifecycleState.VALIDATED
        artifact.version = 1
        entry = RegistryEntry(model_id=model_id, version=1, artifact=artifact,
                              state=state, provenance=provenance or {})
        self.entries[model_id] = entry
        self.on_step(entry, None)
        return entry

    def reregister(self, model_id: str, artifact: ModelArtifact) -> RegistryEntry:
        """Install a refined artifact as the next version (Refining -> Trained)."""
        entry = self.entries[model_id]
        if (entry.state, LifecycleState.TRAINED) not in LEGAL_TRANSITIONS:
            raise IllegalTransition(f"{entry.state.value} -> {LifecycleState.TRAINED.value}")
        entry.version += 1  # first, so that the step carries the new version
        artifact.version = entry.version
        entry.artifact = artifact
        return self.transition(entry, LifecycleState.TRAINED)

    # -- state machine ------------------------------------------------------------

    def transition(self, entry: RegistryEntry, to: LifecycleState) -> RegistryEntry:
        before = entry.state
        if (before, to) not in LEGAL_TRANSITIONS:
            raise IllegalTransition(f"{before.value} -> {to.value}")
        entry.state = to
        self.on_step(entry, before)
        return entry

    def deploy(self, entry: RegistryEntry, target: str) -> None:
        """Make the entry's version the one active at target; only Validated (or
        already Deployed for additional targets) entries may be placed."""
        if entry.state is LifecycleState.VALIDATED:
            self.transition(entry, LifecycleState.DEPLOYED)
        elif entry.state is not LifecycleState.DEPLOYED:
            raise IllegalTransition(f"deploy from {entry.state.value}")
        self.deployments[(entry.model_id, target)] = entry.version

    def active_deployments(self, model_id: str) -> dict[str, int]:
        return {target: version for (mid, target), version in self.deployments.items()
                if mid == model_id}

    # -- checkpointing --------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        return {
            "entries": {mid: e.to_dict() for mid, e in sorted(self.entries.items())},
            "deployments": {f"{mid}@{target}": version
                            for (mid, target), version in sorted(self.deployments.items())},
        }

    @staticmethod
    def restore(snapshot: dict[str, Any], on_step: OnStep) -> "Registry":
        reg = Registry(on_step)
        for mid, entry_d in snapshot.get("entries", {}).items():
            reg.entries[mid] = RegistryEntry.from_dict(entry_d)
        for key, version in snapshot.get("deployments", {}).items():
            mid, _, target = key.partition("@")
            reg.deployments[(mid, target)] = int(version)
        return reg

    def total_params(self) -> int:
        return sum(e.artifact.param_count for e in self.entries.values())


# -- monitoring -------------------------------------------------------------------------


@dataclass
class MonitorWindow:
    """The monitor's record of the last ``capacity`` reported samples and the drift rule.

    The window owns the reported samples: it keeps the fewest recent reports
    that hold the last ``capacity`` samples, each as its records, a batch or a
    :class:`Part` of a draw, and its sample count (the refinement's training
    data, :meth:`samples`, which gathers their rows). Beside
    them it keeps, as it ingests, the count those reports hold and the squared
    errors of the last ``capacity`` predictions (the drift rule's evidence,
    :meth:`mse`), so no report is walked again.
    """

    capacity: int
    baseline_mse: float
    drift_factor: float
    min_samples: int
    reports: deque[tuple[RecordBatch | Part, int]] = field(default_factory=deque, init=False)
    _held: int = field(default=0, init=False, repr=False)  # samples the reports hold
    _errors: deque[float] = field(init=False, repr=False)  # the last capacity, oldest first

    def __post_init__(self) -> None:
        self._errors = deque(maxlen=self.capacity)

    def ingest(self, records: RecordBatch | Part, predictions: np.ndarray) -> None:
        """Take one whole report: its samples and the prediction made for each."""
        errors = [(p - a) ** 2 for p, a in zip(np.asarray(predictions, dtype=float).tolist(),
                                                records.target.tolist())]
        self._errors.extend(errors)
        reports = self.reports
        reports.append((records, len(errors)))
        self._held += len(errors)
        while self._held - reports[0][1] >= self.capacity:
            self._held -= reports.popleft()[1]

    def __len__(self) -> int:
        return len(self._errors)

    def mse(self) -> float:
        """Mean squared error of the last ``capacity`` samples, summed oldest first."""
        n = len(self._errors)
        return sum(self._errors) / n if n else 0.0

    def samples(self) -> RecordBatch:
        """The records of the last ``capacity`` samples, oldest first; the window is not empty."""
        return gather([r for r, _ in self.reports]).take(slice(-self.capacity, None))

    def detect_drift(self, mse: float | None = None) -> bool:
        """Whether the window's MSE (``mse`` when the caller already has it) drifted."""
        if len(self) < self.min_samples:
            return False
        return (self.mse() if mse is None else mse) > self.baseline_mse * self.drift_factor

    def clear(self, new_baseline: float | None = None) -> None:
        self.reports.clear()
        self._held = 0
        self._errors.clear()
        if new_baseline is not None:
            self.baseline_mse = new_baseline
