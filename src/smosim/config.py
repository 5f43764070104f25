"""Experiment configuration: typed spec tree, JSON loading, validation.

A ScenarioConfig fully describes one run — topology counts, data sources,
pipeline settings, model and search space, deployment, monitoring, and
harness injections. Its dataclass fields are the JSON schema: each key names
a field, whose annotation types the value, whose default applies when the
key is absent and whose ``_rule`` checks the value, so each is written once.
Hand-written code covers JSON layouts that differ from the fields
(``_PARSERS`` and the ``scenario`` section) and rules across fields
(``config_from_dict``). A malformed value raises ConfigError, or its named
SimulationError, at its JSON path.
"""

# no ``from __future__ import annotations``: the parser reads each ``Field.type`` as a type
import hashlib
import json
import math
import sys
import types
import typing
from dataclasses import MISSING, dataclass, field, is_dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable

from .errors import ConfigError, MissingKey, SimulationError, ZeroCapacity
from .topology import (ComponentId, ComponentKind, InterfaceName, InterfaceSpec, allowed_on,
                       census)

_MDA_KINDS = (ComponentKind.MDA_SYSTEM_3GPP, ComponentKind.MDA_SYSTEM_NFV)
_SOURCE_KINDS = {ComponentKind.NSSMF, ComponentKind.NFVO, ComponentKind.NFMF,
                 ComponentKind.RAPP, *_MDA_KINDS}
_HOST_KINDS = {ComponentKind.NFMF, ComponentKind.AIML_FUNCTION, *_MDA_KINDS}  # deploy targets

# (latency, overhead_bytes) of each interface the config does not set
_DEFAULT_INTERFACES = {name: (1, 24) for name in InterfaceName} | {
    InterfaceName.NONRTRIC_INTERNAL: (0, 24), InterfaceName.EXTERNAL_AIML: (2, 24)}


def _rule(test: Callable[[Any], bool], message: str,
          error: Callable[[str], SimulationError] | None = None, **kw: Any) -> Any:
    """A dataclass field whose value, given or default, must pass ``test``; else
    ConfigError (or ``error``) at its path says ``message``, with the value as ``{v}``."""
    return field(metadata={"rule": (test, message, error)}, **kw)


def _one_of(*choices: str, **kw: Any) -> Any:
    return _rule(lambda v: v in choices, f"must be one of {choices}, got {{v!r}}", **kw)


def _min(lo: float, **kw: Any) -> Any:
    return _rule(lambda v: v >= lo, f"must be >= {lo}, got {{v}}", **kw)


def _above(lo: float, **kw: Any) -> Any:
    return _rule(lambda v: v > lo, f"must be > {lo}, got {{v}}", **kw)


def _within(lo: int, hi: int, **kw: Any) -> Any:
    return _rule(lambda v: lo <= v <= hi, f"must lie in [{lo}, {hi}], got {{v}}", **kw)


def _rate(**kw: Any) -> Any:
    return _rule(lambda v: 0.0 <= v <= 1.0, "rate must lie in [0, 1], got {v}", **kw)


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
    type: str = _one_of("numeric", "categorical", "identifier", default="numeric")
    vocab: tuple[str, ...] = ()
    valid_range: tuple[float, float] | None = None  # JSON "range", numeric only
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
    mode: str = _one_of("batch", "streaming", default="batch")
    size: int = _min(1, default=100)
    interval: int = 0  # streaming only, ticks between emissions


@dataclass
class SourceSpec:
    """Generative description of the management data one component holds."""

    owner: ComponentId = _rule(lambda v: v.kind in _SOURCE_KINDS,
                               "{v.kind.value} cannot act as a data source")
    schema: list[FeatureSpec] = _rule(bool, "source schema is empty")
    coefficients: list[float]
    bias: float = 0.0
    noise_sigma: float = _min(0.0, default=0.0)
    duplicate_rate: float = _rate(default=0.0)
    missing_rate: float = _rate(default=0.0)
    error_rate: float = _rate(default=0.0)
    error_factor: float = _above(0.0, default=10.0)
    emission: EmissionSpec = field(default_factory=EmissionSpec)
    rename: dict[str, str] = field(default_factory=dict)

    def canonical_schema(self) -> list[FeatureSpec]:
        return [replace(f, name=self.rename.get(f.name, f.name)) for f in self.schema]


# -- byte and tick accounting ----------------------------------------------------

# the event log keeps a message's bytes in an int64 column: with every size and
# interface overhead at most MAX_BYTES, every inflation at most MAX_INFLATION and
# every model at most MAX_WIDTH weights wide, a message of 2 * MAX_RECORDS records
# or of a model fits
MAX_BYTES = 2 ** 30
MAX_INFLATION = 1_000.0
MAX_WIDTH = 2 ** 16


@dataclass(frozen=True)
class SizeTable:
    """Fixed payload-size model; all signaling arithmetic derives from it."""

    record_bytes: int = _within(0, MAX_BYTES, default=64)
    param_bytes: int = _within(0, MAX_BYTES, default=8)
    control_bytes: int = _within(0, MAX_BYTES, default=16)
    heartbeat_bytes: int = _within(0, MAX_BYTES, default=8)
    prediction_bytes: int = _within(0, MAX_BYTES, default=8)
    report_base_bytes: int = _within(0, MAX_BYTES, default=32)
    # per registry entry inside a checkpoint
    artifact_entry_bytes: int = _within(0, MAX_BYTES, default=64)

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
    train_tick_per_record: int = _min(0, default=1)
    inference_tick_per_record: int = _min(0, default=1)


# -- pipeline -----------------------------------------------------------------------

@dataclass(frozen=True)
class DerivedFeature:
    op: str = _one_of("product", "ratio")
    a: str
    b: str

    def column_name(self) -> str:
        sep = "*" if self.op == "product" else "/"
        return f"{self.a}{sep}{self.b}"


@dataclass(frozen=True)
class SplitSpec:
    train: float = _min(0.0, default=0.6)
    val: float = _min(0.0, default=0.2)
    test: float = _min(0.0, default=0.2)
    seed: int = _min(0, default=0)

    def ratios(self) -> tuple[float, float, float]:
        return (self.train, self.val, self.test)


@dataclass(frozen=True)
class PipelineSpec:
    scaling: str = _one_of("zscore", "minmax", "schema_range", "none", default="zscore")
    derived: tuple[DerivedFeature, ...] = ()
    split: SplitSpec = field(default_factory=SplitSpec)


# -- learning --------------------------------------------------------------------------

# training runs every epoch, so a config may not ask for an unbounded number
MAX_EPOCHS = 10_000
# a search trains once per trial, so a config may not ask for an unbounded number
MAX_SEARCH_TRIALS = 1_000
# scenario C trains every domain once per round, so a config may not ask for an
# unbounded number
MAX_ROUNDS = 10_000
# records one source draws in a collection, or one deploy target over its monitor
# rounds: each is drawn at once, so a config may not ask for an unbounded number;
# nor may a minibatch or the monitor window ask to hold more
MAX_RECORDS = 1_000_000
# the topology links every pair of AI/ML instances and each rApp to each instance,
# so a config may not ask for an unbounded number of any component kind
MAX_COMPONENTS = 128
# ticks are stored in int64 columns, so the loop may process no later tick
MAX_TICK = 2 ** 63 - 1
# after a failure a replica checks once per missed heartbeat until it declares,
# so a config may not ask it to wait for an unbounded number
MAX_MISSED_BEATS = 10_000
# the scheduler steps through one round-robin period of its job classes between
# completions, and that period grows faster than any power of their number, so a
# config may not ask for an unbounded number
MAX_JOB_CLASSES = 16


@dataclass(frozen=True)
class HyperParams:
    learning_rate: float = _above(0.0, default=0.01)
    epochs: int = _within(1, MAX_EPOCHS, default=10)
    batch_size: int = _within(1, MAX_RECORDS, default=32)
    l2_lambda: float = _min(0.0, default=0.0)
    threshold: float = 0.5

    def replace(self, **kwargs: Any) -> "HyperParams":
        return HyperParams(**(self.__dict__ | kwargs))


@dataclass(frozen=True)
class HyperSearchSpec:
    """Candidates for the HyperParams fields they name, checked by those fields' rules."""

    mode: str = _one_of("grid", "random", default="grid")
    grid: dict[str, tuple[Any, ...]] = field(default_factory=dict)
    ranges: dict[str, tuple[Any, Any]] = field(default_factory=dict)
    budget: int = 0
    seed: int = _min(0, default=0)


@dataclass(frozen=True)
class ModelSpec:
    kind: ModelKind = ModelKind.LINEAR_SGD
    hyperparams: HyperParams = field(default_factory=HyperParams)


# -- deployment & monitoring --------------------------------------------------------

@dataclass(frozen=True)
class DeploySpec:
    targets: tuple[ComponentId, ...] = _rule(lambda ts: all(t.kind in _HOST_KINDS for t in ts),
                                             "a target cannot host a model", default=())
    packaged: bool = False
    package_inflation: float = _within(1.0, MAX_INFLATION, default=1.25)


@dataclass(frozen=True)
class MonitorSpec:
    window: int = _within(1, MAX_RECORDS, default=50)
    min_samples: int = _min(1, default=10)
    drift_factor: float = _above(1.0, default=1.5)
    rounds: int = _min(0, default=0)
    batch: int = _min(1, default=20)  # samples per monitor report
    interval: int = _min(1, default=10)  # ticks between monitor reports
    max_refinements: int = _min(0, default=2)
    # refinement fit on the window minus its holdout: "incremental" is one per-sample SGD
    # pass from the deployed weights, "full" is hp.epochs minibatch epochs from them on the
    # window's standardised columns (learn.fit_standardized); ridge and stump refit afresh
    # in both modes (ridge by its closed form, never by SGD)
    refit: str = _one_of("incremental", "full", default="incremental")
    holdout_fraction: float = _rule(lambda v: 0.0 < v < 1.0,
                                    "holdout fraction must lie in (0, 1)", default=0.2)


@dataclass(frozen=True)
class CollectionSpec:
    window: int = _min(1, default=10)  # ticks
    requests: int = _min(1, default=1)


# -- harness -----------------------------------------------------------------------------

@dataclass(frozen=True)
class PoisonSpec:
    fraction: float = _rate(default=0.0)
    attack: str = _one_of("target_offset", "target_flip", "feature_scale",
                          default="target_offset")
    delta: float = 0.0
    gamma: float = 1.0
    seed: int = _min(0, default=0)
    sources: tuple[ComponentId, ...] | None = None  # None = every source


@dataclass(frozen=True)
class FilterSpec:
    k: float = _above(0.0, default=3.0)
    mad_floor: float = _above(0.0, default=1e-9)


@dataclass(frozen=True)
class PrivacySpec:
    key: str = _rule(bool, "pseudonymization key is empty", MissingKey, default="")
    inflation: float = _within(1.0, MAX_INFLATION, default=1.0)


@dataclass(frozen=True)
class FailurePlan:
    target: ComponentId = _rule(lambda v: v.kind == ComponentKind.AIML_FUNCTION,
                                "only AimlFunction instances can be failed over")
    fail_tick: int = _min(0, default=0)
    heartbeat_interval: int = _min(1, default=2)
    missed_to_declare: int = _within(1, MAX_MISSED_BEATS, default=2)
    replicas: tuple[ComponentId, ...] = _rule(
        lambda rs: all(r.kind == ComponentKind.AIML_FUNCTION for r in rs),
        "only AimlFunction instances can be replicas", default=())
    checkpoint_interval: int = _min(1, default=5)


@dataclass(frozen=True)
class JobClass:
    name: str = ""  # "" names the class job<index> in its scheduler section
    priority: int = 0  # larger = scheduled first
    demand: int = _min(1, default=1)  # requested capacity per tick
    # total capacity-ticks; None = filled at runtime
    work: int | None = _rule(lambda v: v is None or v >= 1, "must be >= 1 or null, got {v}",
                             default=None)


@dataclass(frozen=True)
class SchedulerSpec:
    budget: int = _min(1, error=ZeroCapacity, default=0)  # capacity per tick
    # the training job runs as one of the classes, so there must be one
    classes: tuple[JobClass, ...] = _rule(lambda cs: 1 <= len(cs) <= MAX_JOB_CLASSES,
                                          f"a scheduler needs 1 to {MAX_JOB_CLASSES} job "
                                          "classes", default=())


@dataclass(frozen=True)
class DriftShift:
    at_round: int = _min(1, default=1)
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
class LinkSpec:
    src: ComponentId
    dst: ComponentId
    interface: InterfaceName


def _count(lo: int, **kw: Any) -> Any:
    return _within(lo, MAX_COMPONENTS, **kw)


@dataclass(frozen=True)
class TopologyCounts:
    nssmf: int = _count(0, default=0)
    nfmf_per_nssmf: int = _count(0, default=0)
    nfvo: int = _count(0, default=0)
    vnfm: int = _count(0, default=0)
    vim: int = _count(0, default=0)
    wim: int = _count(0, default=0)
    cism: int = _count(0, default=0)
    cir: int = _count(0, default=0)
    ccm: int = _count(0, default=0)
    mda_3gpp: int = _count(0, default=0)
    mda_nfv: int = _count(0, default=0)
    rapps: int = _count(0, default=0)
    aiml_instances: int = _count(1, default=1)
    external_provider: bool = False
    extra_links: tuple[LinkSpec, ...] = ()


# -- the whole experiment ------------------------------------------------------------------

# per interface: (latency, overhead_bytes), given in JSON as {"latency", "overhead_bytes"}
Interfaces = dict[InterfaceName, tuple[int, int]]

# ScenarioConfig fields given in the JSON "scenario" section, and the modes of each kind
_SCENARIO_KEYS = ("kind", "mode", "rounds", "aggregation", "online_training")
_MODES = {ScenarioKind.A: ("import-model", "import-data"), ScenarioKind.B: (None,),
          ScenarioKind.C: ("share-data", "share-models")}


@dataclass
class ScenarioConfig:
    kind: ScenarioKind
    seed: int = _min(0, default=0)
    mode: str | None = None
    rounds: int = 1
    aggregation: str = _one_of("uniform", "sample_count", default="uniform")
    online_training: bool = False
    topology: TopologyCounts = field(default_factory=TopologyCounts)
    interfaces: Interfaces = field(default_factory=dict)
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
    max_ticks: int = _rule(lambda v: v <= MAX_TICK, f"must be <= {MAX_TICK}, got {{v}}",
                           default=10_000_000)
    raw: dict[str, Any] = field(default_factory=dict, repr=False)

    def interface_specs(self) -> list[InterfaceSpec]:
        return [InterfaceSpec(name, *self.interfaces.get(name, default))
                for name, default in _DEFAULT_INTERFACES.items()]

    def canonical_schema(self) -> list[FeatureSpec]:
        return self.sources[0].canonical_schema() if self.sources else []

    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- parsing --------------------------------------------------------------------------------

def _expect(cond: bool, path: str, message: str, *got: Any) -> None:
    """ConfigError at ``path`` unless ``cond``; ``got`` is shown only when raised."""
    if not cond:
        raise ConfigError(path, f"{message}, got {got[0]!r}" if got else message)


def _object(d: Any, path: str) -> dict[str, Any]:
    _expect(isinstance(d, dict), path or "config", "expected a JSON object", d)
    return d


def _field(cls: type, name: str, d: dict[str, Any], path: str) -> Any:
    """Field ``name`` of ``cls`` from ``d`` or its default, if it passes the field's rule."""
    f = cls.__dataclass_fields__[name]
    if name in d:
        v = _value(f.type, d[name], path)
    elif f.default is not MISSING:
        v = f.default
    elif f.default_factory is not MISSING:
        v = f.default_factory()
    else:
        raise ConfigError(path, "missing required key")
    if "rule" not in f.metadata or f.metadata["rule"][0](v):
        return v
    _, message, error = f.metadata["rule"]
    message = message.format(v=v)
    raise error(f"{path}: {message}") if error else ConfigError(path, message)


def _fields(cls: type, d: Any, path: str, names: Iterable[str]) -> dict[str, Any]:
    """Fields ``names`` of dataclass ``cls`` from JSON object ``d``, which has no other key."""
    names, prefix = tuple(names), f"{path}." if path else ""
    for key in _object(d, path):
        _expect(key in names, prefix + key, "unknown key")
    return {n: _field(cls, n, d, prefix + n) for n in names}


def _parse(cls: type, d: Any, path: str, **given: Any) -> Any:
    """Dataclass ``cls`` from JSON object ``d``, but for the fields parsed by hand in ``given``."""
    return cls(**given, **_fields(cls, d, path,
                                  (n for n in cls.__dataclass_fields__ if n not in given)))


def _value(tp: Any, v: Any, path: str) -> Any:
    """JSON value ``v`` coerced to annotation ``tp``, or ConfigError at ``path``."""
    if tp in (bool, int, float, str):
        if tp is int and isinstance(v, float) and v.is_integer():
            v = int(v)
        accepted = (int, float) if tp is float else tp
        _expect(isinstance(v, accepted) and (tp is bool or not isinstance(v, bool)), path,
                f"expected {tp.__name__}", v)
        _expect(tp is not float or abs(v) <= sys.float_info.max, path,
                "expected a finite number", v)
        return float(v) if tp is float else v
    parse = _PARSERS.get(tp)
    if parse is not None:
        return parse(v, path)
    if is_dataclass(tp):
        return _parse(tp, v, path)
    if isinstance(tp, type) and issubclass(tp, Enum):
        values = [m.value for m in tp]
        _expect(v in values, path, f"expected one of {values}", v)
        return tp(v)
    if tp is Any:
        return v
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None: null, {} or [] is absent
        if v is None or (isinstance(v, (dict, list)) and not v):
            return None
        return _value(next(a for a in args if a is not type(None)), v, path)
    if origin is dict:
        return {k: _value(args[1], x, f"{path}.{k}") for k, x in _object(v, path).items()}
    _expect(isinstance(v, (list, tuple)), path, "expected a list", v)
    if origin is list or args[-1] is Ellipsis:
        args = (args[0],) * len(v)
    _expect(len(v) == len(args), path, f"expected {len(args)} values, got {len(v)}")
    return origin(_value(t, x, f"{path}[{i}]") for i, (t, x) in enumerate(zip(args, v)))


def _component_id(v: Any, path: str) -> ComponentId:
    if not isinstance(v, str):
        return _parse(ComponentId, v, path)
    try:
        return ComponentId.parse(v)
    except ValueError:
        raise ConfigError(path, f"not a component id: {v!r}") from None


def _feature_spec(d: Any, path: str) -> FeatureSpec:
    d = dict(_object(d, path))
    rng = _value(tuple[float, float], d.pop("range"), f"{path}.range") if "range" in d else None
    f = _parse(FeatureSpec, d, path)
    if f.type == "categorical":
        _expect(len(f.vocab) >= 2, f"{path}.vocab", "categorical vocab needs >= 2 values")
        return f
    if f.type == "numeric":
        rng = rng or (0.0, 1.0)
        _expect(rng[0] < rng[1], f"{path}.range", "numeric range must be [lo, hi] with lo < hi")
    return replace(f, vocab=(), valid_range=rng if f.type == "numeric" else None)


def _hyperparam(name: str, v: Any, path: str) -> Any:
    return _field(HyperParams, name, {name: v}, path)


def _search_spec(d: Any, path: str) -> HyperSearchSpec:
    spec = _parse(HyperSearchSpec, d, path)
    params = HyperParams.__dataclass_fields__
    grid = {}
    for name, values in spec.grid.items():
        p = f"{path}.grid.{name}"
        _expect(name in params, p, "not a hyperparameter")
        _expect(len(values) > 0, p, "empty value list")
        grid[name] = tuple(_hyperparam(name, v, f"{p}[{i}]") for i, v in enumerate(values))
    ranges = {}
    for name, ends in spec.ranges.items():
        p = f"{path}.ranges.{name}"
        _expect(name in params and params[name].type in (int, float), p,
                "not a numeric hyperparameter")
        lo, hi = (_hyperparam(name, v, f"{p}[{i}]") for i, v in enumerate(ends))
        _expect(lo <= hi, p, "range must be [lo, hi] with lo <= hi")
        ranges[name] = (lo, hi)
    random = spec.mode == "random"
    _expect(random or bool(grid), f"{path}.grid", "grid search needs a non-empty grid")
    _expect(not random or bool(ranges), f"{path}.ranges", "random search needs parameter ranges")
    _expect(not random or 1 <= spec.budget <= MAX_SEARCH_TRIALS, f"{path}.budget",
            f"random search budget must lie in [1, {MAX_SEARCH_TRIALS}]")
    trials = math.prod(len(values) for values in grid.values())
    _expect(random or trials <= MAX_SEARCH_TRIALS, f"{path}.grid",
            f"grid of {trials} trials exceeds {MAX_SEARCH_TRIALS} trials")
    return replace(spec, grid=grid, ranges=ranges)


def _scheduler_spec(d: Any, path: str) -> SchedulerSpec:
    spec = _parse(SchedulerSpec, d, path)
    classes = tuple(replace(c, name=c.name or f"job{i}") for i, c in enumerate(spec.classes))
    for i, c in enumerate(classes):
        # the scheduler keys jobs by name, so a repeated name would merge two classes
        _expect(all(c.name != e.name for e in classes[:i]), f"{path}.classes[{i}].name",
                "another class of this scheduler has the same name", c.name)
    return replace(spec, classes=classes)


def _interfaces(d: Any, path: str) -> Interfaces:
    out = {}
    for key, props in _object(d, path).items():
        p = f"{path}.{key}"
        name = _value(InterfaceName, key, p)
        given = dict(zip(("latency", "overhead_bytes"), _DEFAULT_INTERFACES[name]))
        for k, v in _object(props, p).items():
            _expect(k in given, f"{p}.{k}", "unknown key")
            given[k] = _value(int, v, f"{p}.{k}")
            _expect(given[k] >= 0, f"{p}.{k}", f"{k} must be >= 0")
            _expect(k != "overhead_bytes" or given[k] <= MAX_BYTES, f"{p}.{k}",
                    f"overhead_bytes must be <= {MAX_BYTES}")
        out[name] = (given["latency"], given["overhead_bytes"])
    return out


# annotations whose JSON form is not their dataclass field layout
_PARSERS: dict[Any, Callable[[Any, str], Any]] = {
    ComponentId: _component_id,
    FeatureSpec: _feature_spec,
    HyperSearchSpec: _search_spec,
    SchedulerSpec: _scheduler_spec,
    Interfaces: _interfaces,
}


def config_from_dict(data: dict[str, Any]) -> ScenarioConfig:
    """Parse and fully validate a config dictionary."""
    head = _fields(ScenarioConfig, _object(data, "").get("scenario"), "scenario", _SCENARIO_KEYS)
    rest = {k: v for k, v in data.items() if k != "scenario"}
    cfg = _parse(ScenarioConfig, rest, "", raw=data, **head)
    kind, counts = cfg.kind, cfg.topology

    # scenario-level coherence
    cfg.mode = cfg.mode or None
    _expect(cfg.mode in _MODES[kind], "scenario.mode",
            f"scenario {kind.value} takes mode {' or '.join(map(repr, _MODES[kind]))}")
    _expect(1 <= cfg.rounds <= MAX_ROUNDS if kind is ScenarioKind.C else cfg.rounds == 1,
            "scenario.rounds", f"rounds must lie in [1, {MAX_ROUNDS}], and be 1 for scenarios "
            "A and B")
    _expect(counts.nssmf * counts.nfmf_per_nssmf <= MAX_COMPONENTS, "topology.nfmf_per_nssmf",
            f"{counts.nssmf} NSSMFs of {counts.nfmf_per_nssmf} NFMFs exceed "
            f"{MAX_COMPONENTS} NFMFs")
    nfv_kinds = ("vnfm", "vim", "wim", "cism", "cir", "ccm")
    _expect(counts.nfvo > 0 or not any(getattr(counts, k) for k in nfv_kinds), "topology.nfvo",
            f"{', '.join(nfv_kinds)} attach to an NFVO, so they need nfvo >= 1")
    canonical: list[FeatureSpec] | None = None
    raw_fields: dict[str, FeatureSpec] = {}  # record batches hold one column per raw name
    for i, src in enumerate(cfg.sources):
        path = f"sources[{i}]"
        width = encoded_width(src.schema)
        _expect(width <= MAX_WIDTH, f"{path}.schema",
                f"encoded schema of {width} columns exceeds {MAX_WIDTH} model weights")
        _expect(len(src.coefficients) == width, f"{path}.coefficients",
                f"expected {width} coefficients for encoded schema, got {len(src.coefficients)}")
        _expect(src.emission.mode == "batch" or src.emission.interval >= 1,
                f"{path}.emission.interval", "streaming interval must be >= 1 tick")
        draws = cfg.collection.requests if src.emission.mode == "batch" \
            else cfg.collection.window // src.emission.interval
        _expect(draws * src.emission.size <= MAX_RECORDS, f"{path}.emission.size",
                f"{draws} draws of {src.emission.size} records exceed {MAX_RECORDS} records")
        canonical = canonical or src.canonical_schema()
        _expect(src.canonical_schema() == canonical, f"{path}.schema",
                "renamed schema disagrees with the canonical schema")
        for f in src.schema:
            known = raw_fields.setdefault(f.name, f)
            _expect((known.type, known.vocab) == (f.type, f.vocab), f"{path}.schema",
                    f"field {f.name!r} has another type or vocab in an earlier source")
    shift = cfg.harness.drift_shift
    if shift is not None and shift.coefficients and canonical:  # () keeps the source's
        width = encoded_width(canonical)
        _expect(len(shift.coefficients) == width, "harness.drift_shift.coefficients",
                f"expected {width} coefficients for encoded schema, got {len(shift.coefficients)}")
    numeric = {f.name for f in canonical or () if f.type == "numeric"}
    for i, d in enumerate(cfg.pipeline.derived if canonical else ()):
        for side, name in (("a", d.a), ("b", d.b)):
            _expect(name in numeric, f"pipeline.derived[{i}].{side}",
                    "derived features take numeric columns of the canonical schema", name)
    width = encoded_width(canonical or []) + len(cfg.pipeline.derived)
    _expect(not canonical or width <= MAX_WIDTH, "pipeline.derived",
            f"{width} model columns with the derived features exceed {MAX_WIDTH} model weights")
    _expect(cfg.monitor.rounds * cfg.monitor.batch <= MAX_RECORDS, "monitor.rounds",
            f"{cfg.monitor.rounds} rounds of {cfg.monitor.batch} samples exceed "
            f"{MAX_RECORDS} samples")
    ratios = cfg.pipeline.split.ratios()
    _expect(math.isclose(sum(ratios), 1.0, abs_tol=1e-9), "pipeline.split",
            f"split ratios must sum to 1, got {sum(ratios)}")
    placed = [(f"sources[{i}].owner", s.owner) for i, s in enumerate(cfg.sources)]
    placed += [(f"deploy.targets[{i}]", t) for i, t in enumerate(cfg.deploy.targets)]
    if cfg.harness.failure is not None:
        plan = cfg.harness.failure
        placed += [("harness.failure.target", plan.target)]
        placed += [(f"harness.failure.replicas[{i}]", r) for i, r in enumerate(plan.replicas)]
        for i, r in enumerate(plan.replicas):
            _expect(r != plan.target and r not in plan.replicas[:i],
                    f"harness.failure.replicas[{i}]",
                    "a replica must differ from the target and from the other replicas", str(r))
    placed += [(f"topology.extra_links[{i}]", end)
               for i, link in enumerate(counts.extra_links) for end in (link.src, link.dst)]
    # the components the topology section builds; the extra links are checked below
    built = {cid for ids in census(counts).values() for cid in ids}
    for path, cid in placed:
        _expect(cid in built, path, f"{cid} is not instantiated by the topology section")
    for i, link in enumerate(counts.extra_links):
        _expect(allowed_on(link.interface, link.src.kind, link.dst.kind),
                f"topology.extra_links[{i}]", f"{link.interface.value} may not connect "
                f"{link.src.kind.value} and {link.dst.kind.value}")

    if kind is ScenarioKind.B or cfg.mode == "import-model":
        _expect(bool(cfg.sources), "sources",
                f"{cfg.mode or 'scenario B'} needs at least one data source")
    if kind is ScenarioKind.C:
        _expect(all(s.owner.kind in _MDA_KINDS for s in cfg.sources),
                "sources", "scenario C sources must be owned by MDA systems")
        _expect(len({s.owner for s in cfg.sources}) >= 2, "sources",
                "scenario C needs at least two management domains")
    if cfg.mode == "share-models":  # it deploys the global model to its domains, unmonitored
        _expect(cfg.monitor.rounds == 0, "monitor.rounds",
                "share-models does not monitor, so it takes no monitor rounds",
                cfg.monitor.rounds)
        domains = {s.owner for s in cfg.sources}
        for i, target in enumerate(cfg.deploy.targets):
            _expect(target in domains, f"deploy.targets[{i}]",
                    "share-models deploys only to its domains, the sources' owners", str(target))
    # a section the run would accept and never read is an error, not a silent no-op
    _expect(kind is ScenarioKind.A or cfg.external is None, "external",
            "only scenario A reads the external section")
    _expect(cfg.harness.drift_shift is None or cfg.monitor.rounds > 0, "harness.drift_shift",
            "a drift shift acts on monitor rounds, so it needs monitor.rounds > 0")
    # share-models never trains on collected data, and import-model only when a
    # failover interrupts a refinement and the promoted replica trains afresh
    # (Driver._resume_model); the rule makes that training run without these sections
    if cfg.mode in ("share-models", "import-model"):
        unread = {"search": cfg.search, "scenario.online_training": cfg.online_training,
                  "harness.filter": cfg.harness.filter}
        reason = "import-model reads it only to train afresh when a failover interrupts a " \
            "refinement, and that training takes none"
        if cfg.mode == "share-models":  # each domain draws and prepares its own data
            unread |= {"collection": data.get("collection"), "harness.poison": cfg.harness.poison,
                       "harness.privacy": cfg.harness.privacy}
            reason = "share-models does not read it"
        for path, section in unread.items():
            _expect(not section, path, reason)
    if kind is ScenarioKind.A:
        _expect(cfg.external is not None, "external", "scenario A needs the external section")
        key = "artifact_path" if cfg.mode == "import-model" else "data_path"
        _expect(bool(getattr(cfg.external, key)), f"external.{key}", f"{cfg.mode} needs a file")
        _expect(counts.external_provider, "topology.external_provider",
                "scenario A needs the external provider declared")
    return cfg


def load_config(path: str | Path) -> ScenarioConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(str(path), "config file not found")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from None
    _object(data, str(path))
    # external file references resolve relative to the config's directory
    ext = data.get("external")
    if isinstance(ext, dict):
        for key in ("artifact_path", "data_path"):
            value = ext.get(key)
            if value and not Path(value).is_absolute():
                ext[key] = str((p.parent / value).resolve())
    return config_from_dict(data)
