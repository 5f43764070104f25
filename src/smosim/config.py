"""Experiment configuration: typed spec tree, JSON loading, validation.

A ScenarioConfig fully describes one run — topology counts, data sources,
pipeline settings, model and search space, deployment, monitoring, and
harness injections. Validation errors always carry the JSON field path.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any

from .errors import ConfigError, ZeroCapacity
from .topology import ComponentId, ComponentKind, InterfaceName, InterfaceSpec

_SOURCE_KINDS = {
    ComponentKind.NSSMF,
    ComponentKind.NFVO,
    ComponentKind.NFMF,
    ComponentKind.RAPP,
    ComponentKind.MDA_SYSTEM_3GPP,
    ComponentKind.MDA_SYSTEM_NFV,
}

_DEFAULT_INTERFACES = {
    InterfaceName.NSSMF_NONRTRIC: (1, 24),
    InterfaceName.NFVO_NONRTRIC: (1, 24),
    InterfaceName.R1: (1, 24),
    InterfaceName.SMO_INTERNAL: (1, 24),
    InterfaceName.NONRTRIC_INTERNAL: (0, 24),
    InterfaceName.EXTERNAL_AIML: (2, 24),
}


class ScenarioKind(str, Enum):
    A = "A"
    B = "B"
    C = "C"


class ModelKind(str, Enum):
    LINEAR_SGD = "LinearSgd"
    RIDGE_CLOSED_FORM = "RidgeClosedForm"
    LOGISTIC_SGD = "LogisticSgd"
    DECISION_STUMP = "DecisionStump"

    @property
    def is_regression(self) -> bool:
        return self in (ModelKind.LINEAR_SGD, ModelKind.RIDGE_CLOSED_FORM)

    @property
    def is_sgd(self) -> bool:
        return self in (ModelKind.LINEAR_SGD, ModelKind.LOGISTIC_SGD)


# -- feature schema -----------------------------------------------------------

@dataclass(frozen=True)
class FeatureSpec:
    """One declared feature of a management-data source."""

    name: str
    type: str  # "numeric" | "categorical" | "identifier"
    vocab: tuple[str, ...] = ()
    valid_range: tuple[float, float] | None = None
    sensitive: bool = False

    def encoded_width(self) -> int:
        if self.type == "numeric":
            return 1
        if self.type == "categorical":
            return len(self.vocab)
        return 0  # identifiers never enter the model


def encoded_width(schema: list[FeatureSpec]) -> int:
    return sum(f.encoded_width() for f in schema)


def model_feature_names(schema: list[FeatureSpec],
                        derived: list["DerivedFeature"] | None = None) -> list[str]:
    """Column names of the encoded design matrix, in canonical order."""
    names: list[str] = [f.name for f in schema if f.type == "numeric"]
    for d in derived or []:
        names.append(d.column_name())
    for f in schema:
        if f.type == "categorical":
            names.extend(f"{f.name}={v}" for v in f.vocab)
    return names


# -- data sources --------------------------------------------------------------

@dataclass(frozen=True)
class EmissionSpec:
    mode: str  # "batch" | "streaming"
    size: int
    interval: int = 0  # streaming only, ticks between emissions


@dataclass
class SourceSpec:
    """Generative description of the management data one component holds."""

    owner: ComponentId
    schema: list[FeatureSpec]
    coefficients: list[float]
    bias: float = 0.0
    noise_sigma: float = 0.0
    duplicate_rate: float = 0.0
    missing_rate: float = 0.0
    error_rate: float = 0.0
    error_factor: float = 10.0
    emission: EmissionSpec = field(default_factory=lambda: EmissionSpec("batch", 100))
    rename: dict[str, str] = field(default_factory=dict)

    def canonical_schema(self) -> list[FeatureSpec]:
        out = []
        for f in self.schema:
            name = self.rename.get(f.name, f.name)
            out.append(FeatureSpec(name, f.type, f.vocab, f.valid_range, f.sensitive))
        return out


# -- byte and tick accounting ----------------------------------------------------

@dataclass(frozen=True)
class SizeTable:
    """Fixed payload-size model; all signaling arithmetic derives from it."""

    record_bytes: int = 64
    param_bytes: int = 8
    control_bytes: int = 16
    heartbeat_bytes: int = 8
    prediction_bytes: int = 8
    report_base_bytes: int = 32
    artifact_entry_bytes: int = 64  # per registry entry inside a checkpoint

    def data_bytes(self, n_records: int) -> int:
        return n_records * self.record_bytes

    def artifact_bytes(self, param_count: int, inflation: float = 1.0) -> int:
        return int(round(param_count * self.param_bytes * inflation))

    def report_bytes(self, n_samples: int) -> int:
        return self.report_base_bytes + n_samples * (self.record_bytes + self.prediction_bytes)

    def checkpoint_bytes(self, n_entries: int, total_params: int) -> int:
        return n_entries * self.artifact_entry_bytes + total_params * self.param_bytes


@dataclass(frozen=True)
class CostTable:
    train_tick_per_record: int = 1
    inference_tick_per_record: int = 1


# -- pipeline -----------------------------------------------------------------------

@dataclass(frozen=True)
class DerivedFeature:
    op: str  # "product" | "ratio"
    a: str
    b: str

    def column_name(self) -> str:
        sep = "*" if self.op == "product" else "/"
        return f"{self.a}{sep}{self.b}"


@dataclass(frozen=True)
class SplitSpec:
    train: float = 0.6
    val: float = 0.2
    test: float = 0.2
    seed: int = 0

    def ratios(self) -> tuple[float, float, float]:
        return (self.train, self.val, self.test)


@dataclass(frozen=True)
class PipelineSpec:
    scaling: str = "zscore"  # zscore | minmax | schema_range | none
    derived: tuple[DerivedFeature, ...] = ()
    split: SplitSpec = field(default_factory=SplitSpec)


# -- learning --------------------------------------------------------------------------

@dataclass(frozen=True)
class HyperParams:
    learning_rate: float = 0.01
    epochs: int = 10
    batch_size: int = 32
    l2_lambda: float = 0.0
    stump_depth: int = 1
    threshold: float = 0.5

    def replace(self, **kwargs: Any) -> "HyperParams":
        data = self.__dict__ | kwargs
        return HyperParams(**data)


@dataclass(frozen=True)
class HyperSearchSpec:
    mode: str  # "grid" | "random"
    grid: dict[str, tuple[Any, ...]] = field(default_factory=dict)
    ranges: dict[str, tuple[float, float]] = field(default_factory=dict)
    budget: int = 0
    seed: int = 0


@dataclass(frozen=True)
class ModelSpec:
    kind: ModelKind = ModelKind.LINEAR_SGD
    hyperparams: HyperParams = field(default_factory=HyperParams)


# -- deployment & monitoring --------------------------------------------------------

@dataclass(frozen=True)
class DeploySpec:
    targets: tuple[ComponentId, ...] = ()
    packaged: bool = False
    package_inflation: float = 1.25


@dataclass(frozen=True)
class MonitorSpec:
    window: int = 50
    min_samples: int = 10
    drift_factor: float = 1.5
    rounds: int = 0
    batch: int = 20
    interval: int = 10
    max_refinements: int = 2
    # refinement fit on the window minus its holdout: "incremental" is one
    # per-sample SGD pass from the deployed weights, "full" is hp.epochs
    # minibatch epochs from them on the window's standardised columns
    # (learn.fit_standardized); ridge and stump refit afresh in both modes
    # (ridge by its closed form, never by SGD)
    refit: str = "incremental"
    holdout_fraction: float = 0.2


@dataclass(frozen=True)
class CollectionSpec:
    window: int = 10
    requests: int = 1


# -- harness -----------------------------------------------------------------------------

@dataclass(frozen=True)
class PoisonSpec:
    fraction: float
    attack: str  # target_offset | target_flip | feature_scale
    delta: float = 0.0
    gamma: float = 1.0
    seed: int = 0
    sources: tuple[ComponentId, ...] | None = None  # None = every source


@dataclass(frozen=True)
class FilterSpec:
    k: float = 3.0
    mad_floor: float = 1e-9


@dataclass(frozen=True)
class PrivacySpec:
    key: str
    inflation: float = 1.0


@dataclass(frozen=True)
class FailurePlan:
    target: ComponentId
    fail_tick: int
    heartbeat_interval: int = 2
    missed_to_declare: int = 2
    replicas: tuple[ComponentId, ...] = ()
    checkpoint_interval: int = 5


@dataclass(frozen=True)
class JobClass:
    name: str
    priority: int  # larger = scheduled first
    demand: int  # requested capacity per tick
    work: int | None = None  # total capacity-ticks; None = filled at runtime


@dataclass(frozen=True)
class SchedulerSpec:
    budget: int
    classes: tuple[JobClass, ...] = ()


@dataclass(frozen=True)
class DriftShift:
    at_round: int
    coefficients: tuple[float, ...] = ()
    bias: float | None = None


@dataclass(frozen=True)
class HarnessSpec:
    poison: PoisonSpec | None = None
    filter: FilterSpec | None = None
    privacy: PrivacySpec | None = None
    failure: FailurePlan | None = None
    scheduler: SchedulerSpec | None = None
    drift_shift: DriftShift | None = None


@dataclass(frozen=True)
class ExternalSpec:
    artifact_path: str | None = None
    data_path: str | None = None
    validation_mse_threshold: float = 0.1
    validation_batch: int = 200


@dataclass(frozen=True)
class TopologyCounts:
    nssmf: int = 0
    nfmf_per_nssmf: int = 0
    nfvo: int = 0
    vnfm: int = 0
    vim: int = 0
    wim: int = 0
    cism: int = 0
    cir: int = 0
    ccm: int = 0
    mda_3gpp: int = 0
    mda_nfv: int = 0
    rapps: int = 0
    aiml_instances: int = 1
    external_provider: bool = False
    extra_links: tuple[tuple[ComponentId, ComponentId, InterfaceName], ...] = ()


# -- the whole experiment ------------------------------------------------------------------

@dataclass
class ScenarioConfig:
    kind: ScenarioKind
    seed: int = 0
    mode: str | None = None
    rounds: int = 1
    aggregation: str = "uniform"  # or "sample_count"
    online_training: bool = False
    topology: TopologyCounts = field(default_factory=TopologyCounts)
    interfaces: dict[InterfaceName, tuple[int, int]] = field(default_factory=dict)
    sizes: SizeTable = field(default_factory=SizeTable)
    costs: CostTable = field(default_factory=CostTable)
    sources: list[SourceSpec] = field(default_factory=list)
    collection: CollectionSpec = field(default_factory=CollectionSpec)
    pipeline: PipelineSpec = field(default_factory=PipelineSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    search: HyperSearchSpec | None = None
    deploy: DeploySpec = field(default_factory=DeploySpec)
    monitor: MonitorSpec = field(default_factory=MonitorSpec)
    harness: HarnessSpec = field(default_factory=HarnessSpec)
    external: ExternalSpec | None = None
    max_ticks: int = 10_000_000
    raw: dict[str, Any] = field(default_factory=dict, repr=False)

    def interface_specs(self) -> list[InterfaceSpec]:
        specs = []
        for name, (lat, ovh) in _DEFAULT_INTERFACES.items():
            lat, ovh = self.interfaces.get(name, (lat, ovh))
            specs.append(InterfaceSpec(name, lat, ovh))
        return specs

    def overhead_of(self, name: InterfaceName) -> int:
        default = _DEFAULT_INTERFACES[name][1]
        return self.interfaces.get(name, (0, default))[1]

    def canonical_schema(self) -> list[FeatureSpec]:
        if not self.sources:
            return []
        return self.sources[0].canonical_schema()

    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- parsing --------------------------------------------------------------------------------


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def _component_id(value: Any, path: str) -> ComponentId:
    try:
        if isinstance(value, str):
            return ComponentId.parse(value)
        return ComponentId(ComponentKind(value["kind"]), int(value.get("index", 0)))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(path, f"not a component id: {value!r} ({exc})") from None


def _feature_spec(d: dict[str, Any], path: str) -> FeatureSpec:
    _expect("name" in d, path, "feature needs a name")
    ftype = d.get("type", "numeric")
    _expect(ftype in ("numeric", "categorical", "identifier"), f"{path}.type",
            f"unknown feature type {ftype!r}")
    vocab: tuple[str, ...] = ()
    valid_range = None
    if ftype == "categorical":
        vocab = tuple(d.get("vocab", ()))
        _expect(len(vocab) >= 2, f"{path}.vocab", "categorical vocab needs >= 2 values")
    if ftype == "numeric":
        rng = d.get("range", [0.0, 1.0])
        _expect(isinstance(rng, (list, tuple)) and len(rng) == 2 and rng[0] < rng[1],
                f"{path}.range", "numeric range must be [lo, hi] with lo < hi")
        valid_range = (float(rng[0]), float(rng[1]))
    return FeatureSpec(d["name"], ftype, vocab, valid_range, bool(d.get("sensitive", False)))


def _rate(d: dict[str, Any], key: str, path: str, default: float = 0.0) -> float:
    v = float(d.get(key, default))
    _expect(0.0 <= v <= 1.0, f"{path}.{key}", f"rate must lie in [0, 1], got {v}")
    return v


def _source_spec(d: dict[str, Any], path: str) -> SourceSpec:
    owner = _component_id(d.get("owner"), f"{path}.owner")
    _expect(owner.kind in _SOURCE_KINDS, f"{path}.owner",
            f"{owner.kind.value} cannot act as a data source")
    schema = [_feature_spec(f, f"{path}.schema[{i}]")
              for i, f in enumerate(d.get("schema", []))]
    _expect(bool(schema), f"{path}.schema", "source schema is empty")
    coeffs = [float(c) for c in d.get("coefficients", [])]
    width = encoded_width(schema)
    _expect(len(coeffs) == width, f"{path}.coefficients",
            f"expected {width} coefficients for encoded schema, got {len(coeffs)}")
    em = d.get("emission", {"mode": "batch", "size": 100})
    mode = em.get("mode", "batch")
    _expect(mode in ("batch", "streaming"), f"{path}.emission.mode", f"unknown mode {mode!r}")
    size = int(em.get("size", 100))
    _expect(size >= 1, f"{path}.emission.size", "emission size must be >= 1")
    interval = int(em.get("interval", 0))
    if mode == "streaming":
        _expect(interval >= 1, f"{path}.emission.interval",
                "streaming interval must be >= 1 tick")
    sigma = float(d.get("noise_sigma", 0.0))
    _expect(sigma >= 0.0, f"{path}.noise_sigma", "noise sigma must be >= 0")
    error_factor = float(d.get("error_factor", 10.0))
    _expect(error_factor > 0, f"{path}.error_factor", "error factor must be > 0")
    return SourceSpec(
        owner=owner,
        schema=schema,
        coefficients=coeffs,
        bias=float(d.get("bias", 0.0)),
        noise_sigma=sigma,
        duplicate_rate=_rate(d, "duplicate_rate", path),
        missing_rate=_rate(d, "missing_rate", path),
        error_rate=_rate(d, "error_rate", path),
        error_factor=error_factor,
        emission=EmissionSpec(mode, size, interval),
        rename=dict(d.get("rename", {})),
    )


def _hyperparams(d: dict[str, Any], path: str) -> HyperParams:
    hp = HyperParams(
        learning_rate=float(d.get("learning_rate", 0.01)),
        epochs=int(d.get("epochs", 10)),
        batch_size=int(d.get("batch_size", 32)),
        l2_lambda=float(d.get("l2_lambda", 0.0)),
        stump_depth=int(d.get("stump_depth", 1)),
        threshold=float(d.get("threshold", 0.5)),
    )
    _expect(hp.learning_rate > 0, f"{path}.learning_rate", "learning rate must be > 0")
    _expect(hp.epochs >= 1, f"{path}.epochs", "epochs must be >= 1")
    _expect(hp.batch_size >= 1, f"{path}.batch_size", "batch size must be >= 1")
    _expect(hp.l2_lambda >= 0, f"{path}.l2_lambda", "l2 lambda must be >= 0")
    _expect(hp.stump_depth == 1, f"{path}.stump_depth", "only depth-1 stumps are supported")
    return hp


def _search_spec(d: dict[str, Any], path: str) -> HyperSearchSpec:
    mode = d.get("mode", "grid")
    _expect(mode in ("grid", "random"), f"{path}.mode", f"unknown search mode {mode!r}")
    grid = {k: tuple(v) for k, v in d.get("grid", {}).items()}
    ranges = {k: (float(v[0]), float(v[1])) for k, v in d.get("ranges", {}).items()}
    budget = int(d.get("budget", 0))
    if mode == "grid":
        _expect(bool(grid), f"{path}.grid", "grid search needs a non-empty grid")
        for k, vals in grid.items():
            _expect(len(vals) > 0, f"{path}.grid.{k}", "empty value list")
    else:
        _expect(bool(ranges), f"{path}.ranges", "random search needs parameter ranges")
        _expect(budget >= 1, f"{path}.budget", "random search budget must be >= 1")
    return HyperSearchSpec(mode=mode, grid=grid, ranges=ranges, budget=budget,
                           seed=int(d.get("seed", 0)))


def _split_spec(d: dict[str, Any], path: str) -> SplitSpec:
    spec = SplitSpec(
        train=float(d.get("train", 0.6)),
        val=float(d.get("val", 0.2)),
        test=float(d.get("test", 0.2)),
        seed=int(d.get("seed", 0)),
    )
    for name, r in zip(("train", "val", "test"), spec.ratios()):
        _expect(r >= 0, f"{path}.{name}", "split ratio must be >= 0")
    _expect(math.isclose(sum(spec.ratios()), 1.0, abs_tol=1e-9), path,
            f"split ratios must sum to 1, got {sum(spec.ratios())}")
    return spec


def _harness_spec(d: dict[str, Any], path: str) -> HarnessSpec:
    poison = None
    if d.get("poison"):
        p = d["poison"]
        attack = p.get("attack", "target_offset")
        _expect(attack in ("target_offset", "target_flip", "feature_scale"),
                f"{path}.poison.attack", f"unknown attack {attack!r}")
        poison = PoisonSpec(
            fraction=_rate(p, "fraction", f"{path}.poison"),
            attack=attack,
            delta=float(p.get("delta", 0.0)),
            gamma=float(p.get("gamma", 1.0)),
            seed=int(p.get("seed", 0)),
            sources=tuple(_component_id(s, f"{path}.poison.sources[{i}]")
                          for i, s in enumerate(p["sources"])) if p.get("sources") else None,
        )
    fspec = None
    if d.get("filter"):
        f = d["filter"]
        fspec = FilterSpec(k=float(f.get("k", 3.0)), mad_floor=float(f.get("mad_floor", 1e-9)))
        _expect(fspec.k > 0, f"{path}.filter.k", "filter threshold k must be > 0")
        _expect(fspec.mad_floor > 0, f"{path}.filter.mad_floor", "MAD floor must be > 0")
    privacy = None
    if d.get("privacy"):
        p = d["privacy"]
        inflation = float(p.get("inflation", 1.0))
        _expect(inflation >= 1.0, f"{path}.privacy.inflation",
                "encryption inflation must be >= 1")
        privacy = PrivacySpec(key=str(p.get("key", "")), inflation=inflation)
    failure = None
    if d.get("failure"):
        f = d["failure"]
        failure = FailurePlan(
            target=_component_id(f.get("target"), f"{path}.failure.target"),
            fail_tick=int(f.get("fail_tick", 0)),
            heartbeat_interval=int(f.get("heartbeat_interval", 2)),
            missed_to_declare=int(f.get("missed_to_declare", 2)),
            replicas=tuple(_component_id(r, f"{path}.failure.replicas[{i}]")
                           for i, r in enumerate(f.get("replicas", []))),
            checkpoint_interval=int(f.get("checkpoint_interval", 5)),
        )
        _expect(failure.target.kind == ComponentKind.AIML_FUNCTION,
                f"{path}.failure.target", "only AimlFunction instances can be failed over")
        _expect(failure.heartbeat_interval >= 1, f"{path}.failure.heartbeat_interval",
                "heartbeat interval must be >= 1")
        _expect(failure.missed_to_declare >= 1, f"{path}.failure.missed_to_declare",
                "missed-heartbeat count must be >= 1")
        _expect(failure.checkpoint_interval >= 1, f"{path}.failure.checkpoint_interval",
                "checkpoint interval must be >= 1")
    scheduler = None
    if d.get("scheduler"):
        s = d["scheduler"]
        budget = int(s.get("budget", 0))
        if budget < 1:
            raise ZeroCapacity(f"{path}.scheduler.budget: per-tick budget must be >= 1")
        classes = []
        for i, c in enumerate(s.get("classes", [])):
            jc = JobClass(
                name=str(c.get("name", f"job{i}")),
                priority=int(c.get("priority", 0)),
                demand=int(c.get("demand", 1)),
                work=None if c.get("work") is None else int(c["work"]),
            )
            _expect(jc.demand >= 1, f"{path}.scheduler.classes[{i}].demand",
                    "per-tick demand must be >= 1")
            classes.append(jc)
        scheduler = SchedulerSpec(budget=budget, classes=tuple(classes))
    drift = None
    if d.get("drift_shift"):
        ds = d["drift_shift"]
        drift = DriftShift(
            at_round=int(ds.get("at_round", 1)),
            coefficients=tuple(float(c) for c in ds.get("coefficients", [])),
            bias=None if ds.get("bias") is None else float(ds["bias"]),
        )
        _expect(drift.at_round >= 1, f"{path}.drift_shift.at_round",
                "shift round must be >= 1")
    return HarnessSpec(poison=poison, filter=fspec, privacy=privacy,
                       failure=failure, scheduler=scheduler, drift_shift=drift)


def config_from_dict(data: dict[str, Any]) -> ScenarioConfig:
    """Parse and fully validate a config dictionary."""
    sc = data.get("scenario", {})
    kind_text = sc.get("kind")
    _expect(kind_text in ("A", "B", "C"), "scenario.kind",
            f"scenario kind must be A, B or C, got {kind_text!r}")
    kind = ScenarioKind(kind_text)
    mode = sc.get("mode")
    if kind is ScenarioKind.A:
        _expect(mode in ("import-model", "import-data"), "scenario.mode",
                "scenario A needs mode 'import-model' or 'import-data'")
    elif kind is ScenarioKind.C:
        _expect(mode in ("share-data", "share-models"), "scenario.mode",
                "scenario C needs mode 'share-data' or 'share-models'")
    else:
        _expect(mode in (None, ""), "scenario.mode", "scenario B takes no mode")
        mode = None
    rounds = int(sc.get("rounds", 1))
    if kind is ScenarioKind.C:
        _expect(rounds >= 1, "scenario.rounds", "rounds must be >= 1")
    else:
        _expect(rounds == 1, "scenario.rounds", "rounds must be 1 for scenarios A and B")
    aggregation = sc.get("aggregation", "uniform")
    _expect(aggregation in ("uniform", "sample_count"), "scenario.aggregation",
            f"unknown aggregation {aggregation!r}")

    topo = data.get("topology", {})
    extra_links = []
    for i, link in enumerate(topo.get("extra_links", [])):
        src = _component_id(link.get("src"), f"topology.extra_links[{i}].src")
        dst = _component_id(link.get("dst"), f"topology.extra_links[{i}].dst")
        try:
            iface = InterfaceName(link.get("interface"))
        except ValueError:
            raise ConfigError(f"topology.extra_links[{i}].interface",
                              f"unknown interface {link.get('interface')!r}") from None
        extra_links.append((src, dst, iface))
    counts = TopologyCounts(
        nssmf=int(topo.get("nssmf", 0)),
        nfmf_per_nssmf=int(topo.get("nfmf_per_nssmf", 0)),
        nfvo=int(topo.get("nfvo", 0)),
        vnfm=int(topo.get("vnfm", 0)),
        vim=int(topo.get("vim", 0)),
        wim=int(topo.get("wim", 0)),
        cism=int(topo.get("cism", 0)),
        cir=int(topo.get("cir", 0)),
        ccm=int(topo.get("ccm", 0)),
        mda_3gpp=int(topo.get("mda_3gpp", 0)),
        mda_nfv=int(topo.get("mda_nfv", 0)),
        rapps=int(topo.get("rapps", 0)),
        aiml_instances=int(topo.get("aiml_instances", 1)),
        external_provider=bool(topo.get("external_provider", False)),
        extra_links=tuple(extra_links),
    )
    _expect(counts.aiml_instances >= 1, "topology.aiml_instances",
            "need at least one AimlFunction instance")

    interfaces: dict[InterfaceName, tuple[int, int]] = {}
    for name_text, props in data.get("interfaces", {}).items():
        try:
            name = InterfaceName(name_text)
        except ValueError:
            raise ConfigError(f"interfaces.{name_text}", "unknown interface") from None
        default_lat, default_ovh = _DEFAULT_INTERFACES[name]
        lat = int(props.get("latency", default_lat))
        ovh = int(props.get("overhead_bytes", default_ovh))
        _expect(lat >= 0, f"interfaces.{name_text}.latency", "latency must be >= 0")
        _expect(ovh >= 0, f"interfaces.{name_text}.overhead_bytes", "overhead must be >= 0")
        interfaces[name] = (lat, ovh)

    sizes_d = data.get("sizes", {})
    sizes = SizeTable(
        record_bytes=int(sizes_d.get("record_bytes", 64)),
        param_bytes=int(sizes_d.get("param_bytes", 8)),
        control_bytes=int(sizes_d.get("control_bytes", 16)),
        heartbeat_bytes=int(sizes_d.get("heartbeat_bytes", 8)),
        prediction_bytes=int(sizes_d.get("prediction_bytes", 8)),
        report_base_bytes=int(sizes_d.get("report_base_bytes", 32)),
        artifact_entry_bytes=int(sizes_d.get("artifact_entry_bytes", 64)),
    )
    costs_d = data.get("costs", {})
    costs = CostTable(
        train_tick_per_record=int(costs_d.get("train_tick_per_record", 1)),
        inference_tick_per_record=int(costs_d.get("inference_tick_per_record", 1)),
    )

    sources = [_source_spec(s, f"sources[{i}]") for i, s in enumerate(data.get("sources", []))]
    canonical: list[FeatureSpec] | None = None
    raw_fields: dict[str, FeatureSpec] = {}  # record batches hold one column per raw name
    for i, src in enumerate(sources):
        cs = src.canonical_schema()
        if canonical is None:
            canonical = cs
        elif cs != canonical:
            raise ConfigError(f"sources[{i}].schema",
                              "renamed schema disagrees with the canonical schema")
        for f in src.schema:
            known = raw_fields.setdefault(f.name, f)
            _expect((known.type, known.vocab) == (f.type, f.vocab), f"sources[{i}].schema",
                    f"field {f.name!r} has another type or vocab in an earlier source")

    coll_d = data.get("collection", {})
    collection = CollectionSpec(
        window=int(coll_d.get("window", 10)),
        requests=int(coll_d.get("requests", 1)),
    )
    _expect(collection.window >= 1, "collection.window", "window must be >= 1 tick")
    _expect(collection.requests >= 1, "collection.requests", "requests must be >= 1")

    pipe_d = data.get("pipeline", {})
    scaling = pipe_d.get("scaling", "zscore")
    _expect(scaling in ("zscore", "minmax", "schema_range", "none"),
            "pipeline.scaling", f"unknown scaling {scaling!r}")
    derived = []
    for i, dd in enumerate(pipe_d.get("derived", [])):
        op = dd.get("op")
        _expect(op in ("product", "ratio"), f"pipeline.derived[{i}].op",
                f"unknown derived-feature op {op!r}")
        derived.append(DerivedFeature(op=op, a=str(dd.get("a")), b=str(dd.get("b"))))
    pipeline = PipelineSpec(
        scaling=scaling,
        derived=tuple(derived),
        split=_split_spec(pipe_d.get("split", {}), "pipeline.split"),
    )

    model_d = data.get("model", {})
    kind_m = model_d.get("kind", "LinearSgd")
    try:
        model_kind = ModelKind(kind_m)
    except ValueError:
        raise ConfigError("model.kind", f"unknown model kind {kind_m!r}") from None
    model = ModelSpec(kind=model_kind,
                      hyperparams=_hyperparams(model_d.get("hyperparams", {}),
                                               "model.hyperparams"))

    search = _search_spec(data["search"], "search") if data.get("search") else None

    dep_d = data.get("deploy", {})
    targets = tuple(_component_id(t, f"deploy.targets[{i}]")
                    for i, t in enumerate(dep_d.get("targets", [])))
    deploy = DeploySpec(
        targets=targets,
        packaged=bool(dep_d.get("packaged", False)),
        package_inflation=float(dep_d.get("package_inflation", 1.25)),
    )
    _expect(deploy.package_inflation >= 1.0, "deploy.package_inflation",
            "package inflation must be >= 1")

    mon_d = data.get("monitor", {})
    monitor = MonitorSpec(
        window=int(mon_d.get("window", 50)),
        min_samples=int(mon_d.get("min_samples", 10)),
        drift_factor=float(mon_d.get("drift_factor", 1.5)),
        rounds=int(mon_d.get("rounds", 0)),
        batch=int(mon_d.get("batch", 20)),
        interval=int(mon_d.get("interval", 10)),
        max_refinements=int(mon_d.get("max_refinements", 2)),
        refit=mon_d.get("refit", "incremental"),
        holdout_fraction=float(mon_d.get("holdout_fraction", 0.2)),
    )
    _expect(monitor.window >= 1, "monitor.window", "window capacity must be >= 1")
    _expect(monitor.min_samples >= 1, "monitor.min_samples", "min samples must be >= 1")
    _expect(monitor.drift_factor > 1.0, "monitor.drift_factor", "drift factor must be > 1")
    _expect(monitor.refit in ("incremental", "full"), "monitor.refit",
            "refit must be 'incremental' or 'full'")
    _expect(monitor.rounds >= 0, "monitor.rounds", "monitor rounds must be >= 0")
    _expect(monitor.interval >= 1, "monitor.interval", "report interval must be >= 1 tick")
    _expect(0.0 < monitor.holdout_fraction < 1.0, "monitor.holdout_fraction",
            "holdout fraction must lie in (0, 1)")

    harness = _harness_spec(data.get("harness", {}), "harness")
    if harness.privacy is not None and not harness.privacy.key:
        from .errors import MissingKey

        raise MissingKey("harness.privacy.key: pseudonymization key is empty")
    if harness.failure is not None:
        _expect(harness.failure.target.index < counts.aiml_instances,
                "harness.failure.target", "failure target not instantiated")
        for i, r in enumerate(harness.failure.replicas):
            _expect(r.kind == ComponentKind.AIML_FUNCTION and r.index < counts.aiml_instances,
                    f"harness.failure.replicas[{i}]", "replica not instantiated")

    external = None
    if data.get("external"):
        e = data["external"]
        external = ExternalSpec(
            artifact_path=e.get("artifact_path"),
            data_path=e.get("data_path"),
            validation_mse_threshold=float(e.get("validation_mse_threshold", 0.1)),
            validation_batch=int(e.get("validation_batch", 200)),
        )

    # scenario-level coherence
    declared_counts = {
        ComponentKind.NSSMF: counts.nssmf,
        ComponentKind.NFVO: counts.nfvo,
        ComponentKind.NFMF: counts.nssmf * counts.nfmf_per_nssmf,
        ComponentKind.RAPP: counts.rapps,
        ComponentKind.MDA_SYSTEM_3GPP: counts.mda_3gpp,
        ComponentKind.MDA_SYSTEM_NFV: counts.mda_nfv,
    }
    for i, src in enumerate(sources):
        declared = declared_counts.get(src.owner.kind, 0)
        _expect(src.owner.index < declared, f"sources[{i}].owner",
                f"{src.owner} is not instantiated by the topology section")
    if kind is ScenarioKind.B:
        _expect(bool(sources), "sources", "scenario B needs at least one data source")
    if kind is ScenarioKind.A and mode == "import-model":
        _expect(bool(sources), "sources",
                "import-model mode needs a source for local validation data")
    if kind is ScenarioKind.C:
        domains = {s.owner for s in sources}
        _expect(all(s.owner.kind in (ComponentKind.MDA_SYSTEM_3GPP, ComponentKind.MDA_SYSTEM_NFV)
                    for s in sources),
                "sources", "scenario C sources must be owned by MDA systems")
        _expect(len(domains) >= 2, "sources",
                "scenario C needs at least two management domains")
    if kind is ScenarioKind.A:
        _expect(external is not None, "external", "scenario A needs the external section")
        if mode == "import-model":
            _expect(bool(external.artifact_path), "external.artifact_path",
                    "import-model mode needs an artifact file")
        else:
            _expect(bool(external.data_path), "external.data_path",
                    "import-data mode needs a cleansed data file")
        _expect(counts.external_provider, "topology.external_provider",
                "scenario A needs the external provider declared")
    for i, t in enumerate(deploy.targets):
        declared = {
            ComponentKind.MDA_SYSTEM_3GPP: counts.mda_3gpp,
            ComponentKind.MDA_SYSTEM_NFV: counts.mda_nfv,
            ComponentKind.NFMF: counts.nssmf * counts.nfmf_per_nssmf,
            ComponentKind.AIML_FUNCTION: counts.aiml_instances,
        }.get(t.kind)
        _expect(declared is not None, f"deploy.targets[{i}]",
                f"{t.kind.value} cannot host a deployed model")
        _expect(t.index < declared, f"deploy.targets[{i}]", f"{t} not instantiated")

    seed = int(data.get("seed", 0))
    _expect(seed >= 0, "seed", "seed must be a non-negative integer")

    return ScenarioConfig(
        kind=kind, seed=seed, mode=mode, rounds=rounds, aggregation=aggregation,
        online_training=bool(sc.get("online_training", False)),
        topology=counts, interfaces=interfaces, sizes=sizes, costs=costs,
        sources=sources, collection=collection, pipeline=pipeline, model=model,
        search=search, deploy=deploy, monitor=monitor, harness=harness,
        external=external, max_ticks=int(data.get("max_ticks", 10_000_000)),
        raw=data,
    )


def load_config(path: str | Path) -> ScenarioConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(str(path), "config file not found")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(str(path), "top-level config must be a JSON object")
    # external file references resolve relative to the config's directory
    ext = data.get("external")
    if isinstance(ext, dict):
        for key in ("artifact_path", "data_path"):
            value = ext.get(key)
            if value and not Path(value).is_absolute():
                ext[key] = str((p.parent / value).resolve())
    return config_from_dict(data)
