"""Deterministic event-driven simulator of AI/ML lifecycle orchestration
across a managed O-RAN SMO plane."""

from .config import (
    FeatureSpec,
    HyperParams,
    HyperSearchSpec,
    ModelKind,
    ScenarioConfig,
    ScenarioKind,
    SourceSpec,
    config_from_dict,
    load_config,
)
from .lifecycle import LifecycleState, ModelArtifact, MonitorWindow, Registry
from .scenarios import (
    DomainModel,
    RunReport,
    RunResult,
    aggregate,
    run_scenario,
)
from .topology import (
    ComponentId,
    ComponentKind,
    InterfaceName,
    PayloadKind,
    Simulation,
    build_topology,
)

__version__ = "0.1.0"

__all__ = [
    "ComponentId",
    "ComponentKind",
    "DomainModel",
    "FeatureSpec",
    "HyperParams",
    "HyperSearchSpec",
    "InterfaceName",
    "LifecycleState",
    "ModelArtifact",
    "ModelKind",
    "MonitorWindow",
    "PayloadKind",
    "Registry",
    "RunReport",
    "RunResult",
    "ScenarioConfig",
    "ScenarioKind",
    "Simulation",
    "SourceSpec",
    "aggregate",
    "build_topology",
    "config_from_dict",
    "load_config",
    "run_scenario",
]
