"""End-to-end orchestration of the three integration scenarios.

A :class:`Driver` owns one run: it wires source/termination/target behaviors
into the event loop and walks the workflow :class:`Phase` by phase, from
``idle`` through ``collect`` (and preprocessing) or ``collect_validation`` of an
imported model, ``train``, ``deploy``, ``monitor`` and ``refine`` to ``done``.
Scenario C share-models runs ``federated`` rounds of local training and
weighted parameter aggregation instead. Each round refits a domain's split
with the same seed and hyperparameters from a new init, so a LinearSgd
domain builds its fit's affine map of the init once, of one ``learn.train``
call and a composed matrix, and applies it every round
(``_DomainBehavior.fit_round``); other rounds step. A round's training ticks
are those of a stepped fit, and a diverging domain fails the run at its own
round, by stepping. Its aggregated model, once deployed to the domains, logs
``deployment_complete`` and ends the run as every scenario's deployment does,
through ``Driver._deployment_complete``. A replica promoted after a failover
resumes the failed primary's phase through one table, ``Driver.RESUME``.
``Driver._enter`` is the only writer of the phase, and logs each entry as a
``phase`` event. A failing step raises a named :class:`SimulationError`, and
``Driver.run`` logs it on ``run_complete``.

Collected records take one data path, :meth:`Driver._prepare`: cleansed
unless they arrive Cleansed (a share-data domain cleanses its own), then
formatted onto the canonical schema under every source's renames.

The Driver keeps no report while the run goes. It logs each fact where it
happens, and :func:`report_from` folds the RunReport from the config and the
event log alone, so a report can be rebuilt from a run's ``events.jsonl``.
The model lifecycle is one such fact: the registry holds each model's current
state only and reports every step it makes, a registration included, to
``Driver._log_step``, the only writer of ``transition`` events. A failover
restore rolls the registry back to a checkpoint, never the log.

Every message travels hop by hop over the declared links. The only routing
rule is :meth:`Driver.next_hop`: the neighbour with the fewest hops to the
final destination, the first in :meth:`Topology.neighbors` order on a tie,
from one breadth-first pass per destination. Component ids are interned, so
a relay tells a message in transit from one that has arrived by identity
(``final is not cid``), and each hop is one :meth:`Simulation.send` over the
link's wire record.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

from . import datagen, harness, learn, pipeline
from .config import (
    CostTable,
    ModelKind,
    ScenarioConfig,
    ScenarioKind,
    SizeTable,
    SourceSpec,
    model_feature_names,
)
from .errors import (
    CollectionTimeout,
    InsufficientDomains,
    InvalidArtifact,
    NoDataSources,
    RefinementBudgetExhausted,
    SchemaMismatch,
    SimulationError,
    SinglePointFailure,
    UnsupportedKind,
)
from .lifecycle import (
    LifecycleState,
    ModelArtifact,
    MonitorWindow,
    Registry,
    load_artifact,
)
from .topology import (
    ComponentId,
    ComponentKind,
    Event,
    EventLog,
    InterfaceMessage,
    PayloadKind,
    Simulation,
    Topology,
    build_topology,
    signaling_table,
)

MODEL_ID = "m0"

_NSSMF_DOMAIN = {ComponentKind.NSSMF, ComponentKind.NFMF, ComponentKind.MDA_SYSTEM_3GPP}
_NFVO_DOMAIN = {ComponentKind.NFVO, ComponentKind.MDA_SYSTEM_NFV}


class Phase(str, Enum):
    """The workflow stage the active AI/ML function is in; checkpoints carry it."""

    IDLE = "idle"
    COLLECT = "collect"
    COLLECT_VALIDATION = "collect_validation"
    TRAIN = "train"
    DEPLOY = "deploy"
    MONITOR = "monitor"
    REFINE = "refine"
    FEDERATED = "federated"
    DONE = "done"


# -- federated aggregation (pure) ------------------------------------------------------


@dataclass
class DomainModel:
    owner: ComponentId
    kind: ModelKind
    params: learn.LinearParams
    sample_count: int
    round_index: int = 1


def aggregate(models: list[DomainModel], weighting: str = "uniform") -> learn.LinearParams:
    """Weighted elementwise mean of domain parameters.

    Inputs are sorted by owner id before summation, so the result is exactly
    permutation invariant. Only SGD-trainable kinds can be averaged.
    """
    if not models:
        raise InsufficientDomains("aggregation needs at least one domain model")
    kinds = {m.kind for m in models}
    if len(kinds) != 1:
        raise SchemaMismatch(f"mixed model kinds in aggregation: {sorted(k.value for k in kinds)}")
    kind = models[0].kind
    if not kind.is_sgd:
        raise UnsupportedKind(f"{kind.value} parameters cannot be averaged")
    width = len(models[0].params.weights)
    if any(len(m.params.weights) != width for m in models):
        raise SchemaMismatch("domain models disagree on feature width")
    if any(m.sample_count < 1 for m in models):
        raise SchemaMismatch("sample counts must be >= 1")
    ordered = sorted(models, key=lambda m: (m.owner.kind.value, m.owner.index))
    if weighting == "uniform":
        weights = [1.0 / len(ordered)] * len(ordered)
    elif weighting == "sample_count":
        total = sum(m.sample_count for m in ordered)
        weights = [m.sample_count / total for m in ordered]
    else:
        raise SchemaMismatch(f"unknown weighting {weighting!r}")
    w = np.zeros(width)
    b = 0.0
    for m, wk in zip(ordered, weights):
        w = w + wk * m.params.weights
        b = b + wk * m.params.bias
    return learn.LinearParams(w, b)


# -- report structures --------------------------------------------------------------------


@dataclass
class FaultRecord:
    """One fault of a run and the ticks it was detected and resolved at, None
    while it is not, as :func:`timeline` folds them from the event log."""

    kind: str
    fault_tick: int
    detection_tick: int | None = None
    resolution_tick: int | None = None


class Timeline(NamedTuple):
    """What :func:`timeline` folds from a run's log: the RunReport fields so named."""

    faults: list[FaultRecord]
    downtime_ticks: int | None
    time_to_detection: int | None
    time_to_resolution: int | None


_DETECTS = {"promotion": "component_failure", "drift_detected": "drift_shift"}


def timeline(events: Iterable[Event]) -> Timeline:
    """Fold a run's events into its fault records and fault times. It reads no
    message event, so :func:`report_from` passes it the non-message ones.

    A ``fault`` event opens a record of its ``kind``, unless the log has opened
    one of that kind already. Nothing is resolved before it is detected.

    - ``component_failure``: the failover target died. The first ``promotion``
      detects it. The promoted replica resolves it by putting a model back in
      service: at once if it goes on monitoring the restored model as it stands
      (``resumes_monitoring`` in its ``failover_restore`` mitigation), else at
      the next ``deployment_complete``, which every scenario logs once its
      model is in service.
    - ``drift_shift``: a monitored target's ground truth shifted, and the first
      target to log it opens the one record. The first ``drift_detected``
      detects it, and the next ``deployment_complete``, the refined model's,
      resolves it.

    A record stays open if the run ends first. A failure inside the detection
    delay, at tick 310 or 311 of a run whose workflow completes at 312, is
    never detected. A fault after which no model returns to service is never
    resolved: re-validation rejects the imported artifact after a failover
    (``artifact_rejected``), or the run fails.

    ``downtime_ticks`` is the component failure's detection delay, the ticks
    with no active AI/ML function. ``time_to_detection`` and
    ``time_to_resolution`` count from the first fault. Each is None while its
    tick is.
    """
    records: dict[str, FaultRecord] = {}
    for e in events:
        t = e.type
        if t == "fault":
            records.setdefault(e.detail["kind"], FaultRecord(e.detail["kind"], e.tick))
        elif t in _DETECTS:
            _mark(records.get(_DETECTS[t]), "detection_tick", e.tick)
        elif t == "deployment_complete":
            for record in records.values():
                _mark(record, "resolution_tick", e.tick)
        elif t == "mitigation" and e.detail.get("resumes_monitoring"):
            _mark(records.get("component_failure"), "resolution_tick", e.tick)
    faults = list(records.values())
    first = faults[0] if faults else None
    return Timeline(faults, _since(records.get("component_failure"), "detection_tick"),
                    _since(first, "detection_tick"), _since(first, "resolution_tick"))


def _mark(record: FaultRecord | None, attr: str, tick: int) -> None:
    """Set a record's detection or resolution tick once, a resolution only if detected."""
    if record is not None and getattr(record, attr) is None \
            and (attr == "detection_tick" or record.detection_tick is not None):
        setattr(record, attr, tick)


def _since(record: FaultRecord | None, attr: str) -> int | None:
    tick = getattr(record, attr, None)
    return None if tick is None else tick - record.fault_tick


@dataclass
class RunReport:
    """The outcome of one run, as :func:`report_from` folds it from the log.

    The config gives ``scenario``, ``mode``, ``seed``, ``config_hash`` and
    ``rounds``. The last event, ``run_complete``, gives ``status``, ``failure``
    (failed runs only), ``model`` (the model the run ends with) and
    ``final_tick``; ``event_count`` is the log's row count. The message
    events (``send``, ``deliver``, ``component_down``) feed only
    ``signaling``. Of the other events, read from their detail dicts:

    - ``job_scheduled``, one per training job (the initial fit, each
      refinement, each scenario C domain round): ``training_ticks`` sums their
      ``work`` and ``cost_ticks`` their ``cost``. The cost is the scheduler's
      allocation when a scheduler is configured, else the training ticks; under
      a scheduler, scenario C's domain rounds pass through none and charge
      nothing. ``scheduler`` and ``peak_demand`` are those of the last job that
      passed through the scheduler, None and 1 if none did.
    - ``inference``, one per evaluation: ``inference_ticks`` is their
      ``records`` times ``inference_tick_per_record``; ``forgetting_mse`` is
      the last refinement's on the initial test split.
    - ``transition``, one per state a model entry enters, with the state it
      left as ``from`` (None for a registration): the last ``Refining`` one
      gives ``refinements``, its entry's count.
    - the last ``poison_detection``: ``poison``; any ``artifact_rejected``:
      ``artifact_rejected``.
    - :func:`timeline`: ``faults``, ``downtime_ticks``, ``time_to_detection``
      and ``time_to_resolution``.

    ``signaling`` is ``topology.signaling_table``, the ``deliver`` rows' bytes
    and counts summed per head code of the log; it builds no event.
    """

    scenario: str
    mode: str | None
    seed: int
    config_hash: str
    status: str
    failure: str | None
    model: dict[str, Any] | None
    training_ticks: int
    inference_ticks: int
    cost_ticks: int
    peak_demand: int
    refinements: int
    rounds: int
    time_to_detection: int | None
    time_to_resolution: int | None
    downtime_ticks: int | None
    faults: list[FaultRecord]
    signaling: dict[str, Any]
    poison: dict[str, Any] | None
    scheduler: dict[str, Any] | None
    forgetting_mse: float | None
    artifact_rejected: bool
    final_tick: int
    event_count: int

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def report_from(config: ScenarioConfig, log: EventLog) -> RunReport:
    """The report of the run of ``config`` that logged ``log``, which ends with
    ``run_complete``; the only code that builds a RunReport. A log rebuilt
    from ``events.jsonl`` gives the same report as the run's own.

    Its own fold and :func:`timeline` walk only the non-message events
    (:meth:`EventLog.non_messages`), ``signaling_table`` reads the ``deliver``
    rows' columns, and ``run_complete`` is read as the last row.
    """
    training = cost = inference = refinements = 0
    peak_demand, scheduler, poison, forgetting, rejected = 1, None, None, None, False
    events = log.non_messages()  # no fold reads a message's hops but signaling_table
    for e in events:
        t = e.type
        if t == "job_scheduled":
            d = e.detail
            training += d["work"]
            cost += d["cost"]
            if "scheduler" in d:
                scheduler, peak_demand = d["scheduler"], d["peak_demand"]
        elif t == "inference":
            d = e.detail
            inference += d["records"]
            forgetting = d.get("forgetting_mse", forgetting)
        elif t == "transition" and e.detail["state"] == "Refining":
            refinements = e.detail["refinements"]
        elif t == "poison_detection":
            poison = e.detail
        elif t == "artifact_rejected":
            rejected = True
    faults, downtime, detection, resolution = timeline(events)
    interfaces = [spec.name for spec in config.interface_specs()]
    end = log.entries[-1]
    return RunReport(
        scenario=config.kind.value, mode=config.mode, seed=config.seed,
        config_hash=config.config_hash(), status=end.detail["status"],
        failure=end.detail.get("failure"), model=end.detail["model"],
        training_ticks=training,
        inference_ticks=inference * config.costs.inference_tick_per_record,
        cost_ticks=cost, peak_demand=peak_demand, refinements=refinements,
        rounds=config.rounds, time_to_detection=detection, time_to_resolution=resolution,
        downtime_ticks=downtime, faults=faults,
        signaling=harness.signaling_report(signaling_table(interfaces, log)),
        poison=poison, scheduler=scheduler, forgetting_mse=forgetting,
        artifact_rejected=rejected, final_tick=end.tick, event_count=len(log.entries))


# -- component behaviors ---------------------------------------------------------------------


class _SourceBehavior:
    """Responds to collection requests; streaming mode self-schedules emissions.

    Each batch collection request draws its records from its own substream,
    tagged (config seed, "datagen", owner kind, owner index, emission index).
    A streaming collection draws all of its emissions with one
    ``generate_batch`` call, one part per emission, from a substream tagged
    (config seed, "stream", owner kind, owner index, collection round), so
    streams of different sources stay independent. Each emission sends its
    part, with record ids and tick given when it is sent, as a
    :class:`datagen.Part`, a row range of the draw that the collector gathers
    with the rest of the inbox. Only a part that a poison or privacy
    transform applies to makes its rows at the source, so that both
    transforms run per emission. Poisoning draws from (poison seed,
    "poison", owner kind, owner index, emission index) in both modes.
    """

    def __init__(self, driver: "Driver", spec: SourceSpec):
        self.driver = driver
        self.spec = spec
        self.emission_index = 0
        harness_spec = driver.config.harness
        poison = harness_spec.poison
        self.poison = poison if poison is not None and (
            poison.sources is None or spec.owner in poison.sources) else None
        self.privacy = harness_spec.privacy

    def _make_records(self, n: int, tick: int, drawn: datagen.RecordBatch | None = None,
                      part: int = 0) -> datagen.RecordBatch | datagen.Part:
        owner = self.spec.owner
        ids = self.driver.sim.next_record_ids(_batch_total(self.spec, n))
        records: datagen.RecordBatch | datagen.Part
        if drawn is None:
            rng = datagen.derive_rng(self.driver.config.seed, "datagen", owner.kind.value,
                                     owner.index, self.emission_index)
            records = datagen.generate_batch(self.spec, n, rng, id_start=ids.start, tick=tick)
        else:
            records = datagen.Part(drawn, part, len(ids), ids.start, tick)
        self.emission_index += 1
        if self.poison is None and self.privacy is None:
            return records
        if isinstance(records, datagen.Part):
            records = records.batch()
        if self.poison is not None:
            rng_p = datagen.derive_rng(self.poison.seed, "poison", owner.kind.value,
                                       owner.index, self.emission_index)
            records = harness.poison_inject(
                records, replace(self.poison, seed=int(rng_p.integers(1 << 31))))
        if self.privacy is not None:
            records = harness.privacy_transform(records, self.spec.schema, self.privacy)
        return records

    def payload_bytes(self, n_records: int) -> int:
        raw = self.driver.sizes.data_bytes(n_records)
        privacy = self.driver.config.harness.privacy
        return harness.inflate_bytes(raw, privacy.inflation) if privacy else raw

    def handle(self, sim: Simulation, msg: InterfaceMessage) -> None:
        action = msg.meta.get("action")
        if msg.payload_kind is not PayloadKind.CONTROL or \
                action not in ("collect", "collect_cleansed"):
            return
        records = self._make_records(self.spec.emission.size, sim.clock)
        kind = PayloadKind.RAW_DATA
        if action == "collect_cleansed":
            records = pipeline.cleanse(pipeline.Dataset(pipeline.Stage.RAW, records)).records
            kind = PayloadKind.CLEANSED_DATA
        self.driver.route_send(self.spec.owner, msg.meta["reply_to"], kind,
                               self.payload_bytes(len(records)), payload=records,
                               meta={"source": str(self.spec.owner)})

    def start_streaming(self, start: int, window: int, reply_to_getter) -> None:
        ticks = datagen.streaming_emission_ticks(start, window, self.spec.emission.interval)
        if not ticks:
            return
        owner = self.spec.owner
        rng = datagen.derive_rng(self.driver.config.seed, "stream", owner.kind.value,
                                 owner.index, self.driver.collection_round)
        drawn = datagen.generate_batch(self.spec, self.spec.emission.size, rng,
                                       parts=len(ticks))
        for part, tick in enumerate(ticks):
            self.driver.sim.schedule(
                tick, partial(self._emit_streaming, reply_to_getter, drawn, part))

    def _emit_streaming(self, reply_to_getter, drawn: datagen.RecordBatch, part: int) -> None:
        records = self._make_records(self.spec.emission.size, self.driver.sim.clock,
                                     drawn, part)
        self.driver.route_send(
            self.spec.owner, reply_to_getter(), PayloadKind.RAW_DATA,
            self.payload_bytes(len(records)), payload=records,
            meta={"source": str(self.spec.owner)},
        )


def _batch_total(spec: SourceSpec, n: int) -> int:
    return n + math.floor(n * spec.duplicate_rate)


class _TargetBehavior:
    """Production placement: hosts the deployed artifact and serves inference.

    When the first artifact arrives it schedules the configured report rounds
    and draws every round's local batch from one substream tagged (config
    seed, "monitor", target kind, target index): one ``generate_batch`` call
    for the rounds before ``drift_shift.at_round`` and one, with the shifted
    ground truth, for the rounds from it on, one part per round. Each round
    takes its part, with record ids and tick given at the round, predicts
    with the stored scaling parameters and sends the (sample, prediction)
    report upstream, with the version of the artifact that predicted it. The
    report's records are the round's :class:`datagen.Part` of the drawn
    block; the monitor window reads their targets off the block and gathers
    their rows only when a refinement takes its samples.

    The drawn block is encoded once, on the first round that reports, into
    its unscaled design matrix; each round scales its part's rows of it with
    the scaler of the artifact it holds then. Encoding and scaling act row by
    row, so a round's matrix is bit for bit ``pipeline.reapply_transform`` of
    its own records.
    """

    def __init__(self, driver: "Driver", cid: ComponentId, spec: SourceSpec | None):
        self.driver = driver
        self.cid = cid
        self.spec = None if spec is None else _clean_copy(spec)
        self.artifact: ModelArtifact | None = None
        self.drawn: datagen.RecordBatch | None = None
        self._base: np.ndarray | None = None  # the drawn block, encoded unscaled

    def handle(self, sim: Simulation, msg: InterfaceMessage) -> None:
        # a deployment only: a share-models domain's global model is not one
        if msg.payload_kind is not PayloadKind.MODEL_ARTIFACT or not msg.meta.get("deploy"):
            return
        self.artifact = msg.payload
        self.driver.on_artifact_delivered(self.cid, self.artifact.version)
        mon = self.driver.config.monitor
        if mon.rounds > 0 and self.spec is not None and self.drawn is None:
            self.drawn = self._draw_rounds()
            base = sim.clock
            for r in range(1, mon.rounds + 1):
                sim.schedule(base + r * mon.interval, lambda rr=r: self._report_round(rr))

    def _draw_rounds(self) -> datagen.RecordBatch:
        assert self.spec is not None
        cfg = self.driver.config
        rounds, batch, shift = cfg.monitor.rounds, cfg.monitor.batch, cfg.harness.drift_shift
        rng = datagen.derive_rng(cfg.seed, "monitor", self.cid.kind.value, self.cid.index)
        before = rounds if shift is None else min(rounds, shift.at_round - 1)
        phases = [datagen.generate_batch(self.spec, batch, rng, parts=before)] if before else []
        if shift is not None and before < rounds:
            spec = datagen.shifted(self.spec, shift.coefficients, shift.bias)
            phases.append(datagen.generate_batch(spec, batch, rng, id_start=before * batch,
                                                 parts=rounds - before))
        return datagen.RecordBatch.concat(phases)

    def _report_round(self, round_index: int) -> None:
        if self.artifact is None:
            return
        driver = self.driver
        mon = driver.config.monitor
        records = datagen.Part(self.drawn, round_index - 1, mon.batch,
                               driver.sim.next_record_ids(mon.batch).start, driver.sim.clock)
        if self._base is None:
            self._base = pipeline.base_design_matrix(self.drawn, driver.canonical,
                                                     driver.derived)
        rows = self._base[(round_index - 1) * mon.batch:round_index * mon.batch]
        preds = self.artifact.predict(self.artifact.scaler.apply(rows))
        cost = mon.batch * driver.costs.inference_tick_per_record
        driver.sim.log_event("inference", src=self.cid, detail={"records": mon.batch})
        shift = driver.config.harness.drift_shift
        if shift is not None and round_index == shift.at_round:
            driver.sim.log_event("fault", src=self.cid, detail={"kind": "drift_shift"})
        payload = {
            "records": records,
            "predictions": preds,
            "round": round_index,
            "target": str(self.cid),
            "version": self.artifact.version,
        }
        send_tick = driver.sim.clock + cost
        driver.sim.schedule(send_tick, lambda: driver.route_send(
            self.cid, driver.active_aiml, PayloadKind.REPORT,
            driver.sizes.report_bytes(len(records)), payload=payload,
            meta={"round": round_index}))


def _clean_copy(spec: SourceSpec) -> SourceSpec:
    """The source without corruption and with its fields already renamed onto
    the canonical schema, which the inference path reads. The draws do not
    depend on field names."""
    return replace(spec, schema=spec.canonical_schema(), rename={},
                   duplicate_rate=0.0, missing_rate=0.0, error_rate=0.0)


class _DomainBehavior:
    """Scenario C domain: trains locally, shares parameters, adopts the global."""

    def __init__(self, driver: "Driver", spec: SourceSpec):
        self.driver = driver
        self.cid = spec.owner
        self.spec = spec
        self.split: pipeline.SplitDataset | None = None
        self.params: learn.LinearParams | None = None
        # the local fit as a map of its init, or the error its build raised
        self.fit_map: learn.AffineFit | SimulationError | None = None

    def _ensure_data(self) -> pipeline.SplitDataset:
        if self.split is None:
            self.split = self.driver.build_local_split(self.spec)
        return self.split

    def handle(self, sim: Simulation, msg: InterfaceMessage) -> None:
        if msg.payload_kind is PayloadKind.CONTROL and msg.meta.get("action") == "train_round":
            self._train_round(int(msg.meta["round"]))
        elif msg.payload_kind is PayloadKind.MODEL_ARTIFACT:
            artifact: ModelArtifact = msg.payload
            self.params = artifact.parameters.copy()
            if msg.meta.get("final"):
                self._evaluate_global(artifact)
            else:
                self._train_round(int(msg.meta["round"]))

    def _train_round(self, round_index: int) -> None:
        driver = self.driver
        params, work = self.fit_round()
        ticks = driver.log_job("domain_round", work, self.cid, via_scheduler=False)
        done_tick = driver.sim.clock + ticks
        driver.sim.schedule(done_tick, lambda: self._send_local_model(params, round_index))

    def fit_round(self) -> tuple[learn.LinearParams, int]:
        """The local fit of a round from the current parameters (zero in the
        first round), and its training ticks, a stepped fit's either way.

        Every round refits the same split with the same seed and
        hyperparameters, so a LinearSgd round is one affine map of its init,
        a :class:`learn.AffineFit` that the domain's first round builds and
        every round applies. The build steps once, from zero, and composes
        the matrix from the fit's step matrices; from zero the map gives the
        stepped fit bit for bit, and from any other init equals stepping to
        rounding. Other rounds step alone through ``learn.train``, and so
        raise what a diverging domain raises: a LogisticSgd round, which has
        no map, and a round whose map failed to build or refuses its init or
        result (the map checks a result for divergence as stepping does).
        """
        cfg = self.driver.config
        hp = cfg.model.hyperparams
        split = self._ensure_data()
        if cfg.model.kind is ModelKind.LINEAR_SGD:
            if self.fit_map is None:
                try:
                    self.fit_map = learn.affine_fit(split, hp, cfg.seed)
                except SimulationError as exc:
                    self.fit_map = exc
            if not isinstance(self.fit_map, SimulationError):
                params = self.fit_map.apply(learn.zero_params(split.train.X.shape[1])
                                            if self.params is None else self.params)
                if params is not None:
                    return params, hp.epochs * len(split.train) \
                        * self.driver.costs.train_tick_per_record
        result = learn.train(cfg.model.kind, split, hp, seed=cfg.seed, init=self.params,
                             costs=self.driver.costs)
        return result.params, result.metrics.train_ticks

    def _send_local_model(self, params: learn.LinearParams, round_index: int) -> None:
        driver = self.driver
        self.params = params.copy()
        model = DomainModel(owner=self.cid, kind=driver.config.model.kind,
                            params=params, sample_count=len(self._ensure_data().train),
                            round_index=round_index)
        driver.route_send(
            self.cid, driver.active_aiml, PayloadKind.MODEL_ARTIFACT,
            driver.sizes.artifact_bytes(params.param_count),
            payload=model, meta={"round": round_index, "domain": str(self.cid)},
        )

    def _evaluate_global(self, artifact: ModelArtifact) -> None:
        driver = self.driver
        split = self._ensure_data()
        val = learn.evaluate(artifact.parameters, artifact.kind, split.val.X, split.val.y,
                             driver.config.model.hyperparams.threshold)
        test = learn.evaluate(artifact.parameters, artifact.kind, split.test.X, split.test.y,
                              driver.config.model.hyperparams.threshold)
        driver.sim.log_event("inference", src=self.cid,
                             detail={"records": len(split.val) + len(split.test)})
        payload = {
            "domain": str(self.cid),
            "val_mse": val.mse, "val_accuracy": val.accuracy,
            "test_mse": test.mse, "test_accuracy": test.accuracy,
            "samples": len(split.train),
        }
        driver.route_send(self.cid, driver.active_aiml, PayloadKind.REPORT,
                          driver.sizes.report_base_bytes, payload=payload,
                          meta={"kind": "domain_eval"})


class _ReplicaBehavior:
    """Warm standby: stores checkpoints, watches heartbeats, promotes itself."""

    def __init__(self, driver: "Driver", cid: ComponentId, watched: ComponentId):
        self.driver = driver
        self.cid = cid
        self.watched = watched
        self.last_beat: int | None = None
        self.missed = 0
        self.checkpoint: dict[str, Any] | None = None

    def start_watching(self, interval: int) -> None:
        # armed before any beat arrives, so a primary dying before its first is caught
        self._schedule_check(
            interval + self.driver.topology.wire(self.watched, self.cid).latency)

    def handle(self, sim: Simulation, msg: InterfaceMessage) -> None:
        if msg.payload_kind is PayloadKind.HEARTBEAT:
            self.last_beat = sim.clock
            self.missed = 0
        elif msg.payload_kind is PayloadKind.CHECKPOINT:
            self.checkpoint = msg.payload

    def _schedule_check(self, tick: int) -> None:
        # queued for ``tick`` at ``tick``, the check runs after the delivery of the beat
        # due then; queued straight for ``tick`` now, it would run before it
        sim = self.driver.sim
        sim.schedule(tick, lambda: sim.schedule(tick, lambda: self._check(tick)))

    def _check(self, expected: int) -> None:
        if self.driver.active_aiml != self.watched:
            return  # this replica, or another, has taken over
        plan = self.driver.plan
        assert plan is not None
        if self.last_beat is None or self.last_beat < expected:
            self.missed += 1
            if self.missed >= plan.missed_to_declare:
                self.driver.on_promotion(self.cid, self.checkpoint)
                return
        self._schedule_check(expected + plan.heartbeat_interval)


# -- the run driver ------------------------------------------------------------------------------


class Driver:
    """One scenario run over a fresh simulation."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.sizes: SizeTable = config.sizes
        self.costs: CostTable = config.costs
        # a topology that cannot be built fails the run, which run() reports
        self._setup_error: SimulationError | None = None
        try:
            self.topology = build_topology(config)
        except SimulationError as exc:
            self._setup_error = exc
            self.topology = Topology({spec.name: spec for spec in config.interface_specs()})
        self.sim = Simulation(self.topology)
        self.registry = Registry(self._log_step)
        self.config_hash = config.config_hash()
        self.canonical = config.canonical_schema()
        self.derived = tuple(config.pipeline.derived)
        self.active_aiml = ComponentId(ComponentKind.AIML_FUNCTION, 0)
        # final -> (component -> its next hop toward final), see next_hop
        self._hops: dict[ComponentId, dict[ComponentId, ComponentId]] = {}
        self.plan = config.harness.failure

        # run products, exposed for tests and reporting
        self.split: pipeline.SplitDataset | None = None
        self.transformed: pipeline.TransformedDataset | None = None
        self.exploration: pipeline.ExplorationReport | None = None
        self.search_result: learn.SearchResult | None = None
        self.monitor: MonitorWindow | None = None

        self._inbox: dict[str, list[datagen.RecordBatch | datagen.Part]] = {}
        self._expected_artifacts: dict[int, set[str]] = {}
        self._domain_models: dict[int, dict[str, DomainModel]] = {}
        self._domain_evals: dict[str, dict[str, Any]] = {}
        self.collection_round = 0
        self._reports_seen = 0
        self._pending_import: ModelArtifact | None = None
        self._global_artifact: ModelArtifact | None = None
        self._test_metrics: learn.EvalMetrics | None = None
        self._chosen_hp = config.model.hyperparams

        self.sources = {s.owner: _SourceBehavior(self, s) for s in config.sources}
        self.domains: dict[ComponentId, _DomainBehavior] = {}
        self.targets: dict[ComponentId, _TargetBehavior] = {}
        self.replicas: dict[ComponentId, _ReplicaBehavior] = {}
        self._wire()

    # -- wiring ---------------------------------------------------------------------

    def _wire(self) -> None:
        """Install one dispatcher per component: forward in-transit messages,
        hand terminal deliveries to the active AI/ML function's handler there,
        and to the component's role behaviors anywhere else.

        A component can hold two roles, a data source that is also a deploy
        target: each role's handler ignores the other's messages, so the
        dispatcher hands every delivery to both, the source first.
        """
        roles: dict[ComponentId, list[Callable[[Simulation, InterfaceMessage], None]]] = {}
        if self.config.kind is ScenarioKind.C and self.config.mode == "share-models":
            for spec in self.config.sources:
                behavior = _DomainBehavior(self, spec)
                self.domains[spec.owner] = behavior
                roles[spec.owner] = [behavior.handle]
        else:
            for owner, behavior in self.sources.items():
                roles[owner] = [behavior.handle]
        for target in self.config.deploy.targets:
            if target.kind is ComponentKind.AIML_FUNCTION:
                continue
            spec = self._domain_spec_for(target)
            behavior = _TargetBehavior(self, target, spec)
            self.targets[target] = behavior
            roles.setdefault(target, []).append(behavior.handle)
        if self.plan is not None:
            for replica in self.plan.replicas:
                rb = _ReplicaBehavior(self, replica, self.plan.target)
                self.replicas[replica] = rb
                roles[replica] = [rb.handle]
        for cid in self.topology.components:
            self.sim.handlers[cid] = self._make_dispatcher(cid, tuple(roles.get(cid, ())))

    def _make_dispatcher(self, cid: ComponentId, role_handlers: tuple):
        def dispatch(sim: Simulation, msg: InterfaceMessage) -> None:
            final = msg.final_dst
            if final is not None and final is not cid:
                sim.send(cid, self.next_hop(cid, final), msg.payload_kind, msg.payload_bytes,
                         msg.payload, final, msg.meta)
            elif cid is self.active_aiml:
                self._aiml_handle(sim, msg)
            else:
                for handle in role_handlers:
                    handle(sim, msg)
        return dispatch

    def _domain_spec_for(self, target: ComponentId) -> SourceSpec | None:
        side = _NSSMF_DOMAIN if target.kind in _NSSMF_DOMAIN else _NFVO_DOMAIN
        for spec in self.config.sources:
            if spec.owner.kind in side:
                return spec
        return self.config.sources[0] if self.config.sources else None

    # -- routing helpers ----------------------------------------------------------------

    def next_hop(self, here: ComponentId, final: ComponentId) -> ComponentId:
        """The neighbour of ``here`` with the fewest hops to ``final`` over the
        declared links; on a tie, the first in :meth:`Topology.neighbors` order."""
        hops = self._hops.get(final)
        if hops is None:
            # links never change after build_topology, so the hops stay exact
            hops = self._hops[final] = self._hops_toward(final)
        try:
            return hops[here]
        except KeyError:
            raise SimulationError(f"no route from {here} toward {final}") from None

    def _hops_toward(self, final: ComponentId) -> dict[ComponentId, ComponentId]:
        """Every component's next hop toward ``final``: one breadth-first pass."""
        neighbors = self.topology.neighbors
        dist = {final: 0}
        frontier = [final]
        while frontier:
            reached = []
            for c in frontier:
                for n in neighbors(c):
                    if n not in dist:
                        dist[n] = dist[c] + 1
                        reached.append(n)
            frontier = reached
        return {c: next(n for n in neighbors(c) if dist.get(n) == d - 1)
                for c, d in dist.items() if d}

    def route_send(self, src: ComponentId, final: ComponentId, payload_kind: PayloadKind,
                   payload_bytes: int, payload: Any = None,
                   meta: dict[str, Any] | None = None) -> None:
        """Send toward ``final`` through :meth:`next_hop`; each component on the
        way forwards the message by the same rule until it arrives."""
        if src is final:
            return
        self.sim.send(src, self.next_hop(src, final), payload_kind, payload_bytes, payload,
                      final, meta)

    def schedule_owned(self, tick: int, owner: ComponentId, action) -> None:
        """Scheduled work that dies with its owner (e.g. a training job)."""

        def guarded() -> None:
            if self.sim.alive(owner) and owner == self.active_aiml:
                action()

        self.sim.schedule(tick, guarded)

    # -- run entry -------------------------------------------------------------------------

    def run(self) -> "RunResult":
        failure = None
        try:
            if self._setup_error is not None:
                raise self._setup_error
            self._start()
            self.sim.run_to_completion(self.config.max_ticks)
        except SimulationError as exc:
            # the only writer of a failure: every failing step raises a named error
            name = type(exc).__name__
            failure = f"{name}: {exc}" if str(exc) else name
        self._finish(failure)  # a no-op if the workflow completed
        return RunResult(report_from(self.config, self.sim.log), self)

    def _start(self) -> None:
        cfg = self.config
        if not cfg.sources and (cfg.kind is ScenarioKind.B or cfg.mode == "import-model"):
            raise NoDataSources(f"{cfg.mode or 'scenario B'} needs at least one data source")
        if cfg.kind is ScenarioKind.C and len({s.owner for s in cfg.sources}) < 2:
            raise InsufficientDomains(f"{cfg.mode} needs >= 2 domains")
        if self.plan is not None:
            self._start_failover_machinery()
        if cfg.mode == "import-model":
            self._start_import()
        elif cfg.mode == "import-data":
            self._train_external()
        elif cfg.mode == "share-models":
            self._enter(Phase.FEDERATED)
            self._request_round(1)
        else:
            self._start_collection(Phase.COLLECT)

    # -- scenario A ------------------------------------------------------------------------------

    def _start_import(self) -> None:
        artifact = load_artifact(self.config.external.artifact_path)
        artifact.origin = "external"
        self._pending_import = artifact
        provider = ComponentId(ComponentKind.EXTERNAL_PROVIDER, 0)
        inflation = self.config.deploy.package_inflation if artifact.packaged else 1.0
        self.sim.schedule(self.sim.clock, lambda: self.route_send(
            provider, self.active_aiml, PayloadKind.MODEL_ARTIFACT,
            self.sizes.artifact_bytes(artifact.param_count, inflation), payload=artifact))
        # local validation data arrives through the normal collection path
        self._start_collection(Phase.COLLECT_VALIDATION)

    def _train_external(self) -> None:
        path = self.config.external.data_path
        try:
            text = Path(path).read_text()
        except (OSError, ValueError) as exc:  # unreadable or not UTF-8
            raise NoDataSources(f"cannot read the external data {path!r}: {exc}") from None
        td = pipeline.transformed_from_csv(text)
        self.transformed = td
        self._enter(Phase.TRAIN)
        self._train_on(td)

    def _retrain(self) -> None:
        """Train afresh: on the external CSV in import-data, on a new collection otherwise."""
        if self.config.mode == "import-data":
            self._train_external()
        else:
            self._start_collection(Phase.COLLECT)

    # -- collection --------------------------------------------------------------------------------

    def _start_collection(self, phase: Phase) -> None:
        self._enter(phase)
        self.collection_round += 1
        self._inbox = {}
        start = self.sim.clock
        window = self.config.collection.window
        action = "collect_cleansed" if self.config.mode == "share-data" else "collect"
        for spec in self.config.sources:
            if spec.emission.mode == "batch":
                requests = self.config.collection.requests if phase is Phase.COLLECT else 1
                for _ in range(requests):
                    self.route_send(self.active_aiml, spec.owner, PayloadKind.CONTROL,
                                    self.sizes.control_bytes, payload=None,
                                    meta={"action": action, "reply_to": self.active_aiml})
            else:
                behavior = self.sources[spec.owner]
                behavior.start_streaming(start, window, lambda: self.active_aiml)
        deadline = start + window
        self.schedule_owned(deadline, self.active_aiml,
                            lambda: self._end_collection(start, deadline, phase))

    def _aiml_handle(self, sim: Simulation, msg: InterfaceMessage) -> None:
        if msg.payload_kind in (PayloadKind.RAW_DATA, PayloadKind.CLEANSED_DATA):
            source = msg.meta.get("source", str(msg.src))
            self._inbox.setdefault(source, []).append(msg.payload)
        elif msg.payload_kind is PayloadKind.MODEL_ARTIFACT:
            # an imported artifact is validated once local data is ready
            if isinstance(msg.payload, DomainModel):
                self._on_domain_model(msg.payload)
        elif msg.payload_kind is PayloadKind.REPORT:
            if msg.meta.get("kind") == "domain_eval":
                self._on_domain_eval(msg.payload)
            else:
                self._on_monitor_report(msg.payload)

    def _end_collection(self, start: int, deadline: int, phase: Phase) -> None:
        # each stage is a temporary, so it dies once its successor is built (see _prepare)
        if phase is Phase.COLLECT_VALIDATION:
            self._validate_import(self._prepare(self._collected(start, deadline)).records)
        else:
            self._explore_and_train(pipeline.transform(
                self._prepare(self._filtered(self._collected(start, deadline))),
                self.config.pipeline.scaling, self.derived))

    def _collected(self, start: int, deadline: int) -> pipeline.Dataset:
        """The rows every source delivered in [start, deadline], in source order;
        logs each source that delivered none."""
        expected = [s.owner for s in self.config.sources]
        for owner in expected:
            if not sum(map(len, self._inbox.get(str(owner), []))):
                self.sim.log_event("collection_timeout", src=owner,
                                   detail={"window": [start, deadline]})
        records = datagen.gather([b for owner in expected
                                  for b in self._inbox.get(str(owner), [])])
        self._inbox = {}  # the parts live on only in the gathered batch
        if not records:
            raise CollectionTimeout(f"no source delivered any data in [{start}, {deadline}]")
        # share-data domains cleanse their own records before they send them
        stage = pipeline.Stage.CLEANSED if self.config.mode == "share-data" else pipeline.Stage.RAW
        return pipeline.Dataset(stage, records)

    def _prepare(self, ds: pipeline.Dataset) -> pipeline.Dataset:
        """The one data path: cleanse ``ds`` unless it arrives Cleansed, then
        format it onto the canonical schema under every source's renames.

        Each stage is the only owner of its input: once a stage's successor
        exists, no name refers to its input, so a caller passes ``ds`` as a
        temporary and ``ds`` is rebound here. The collected rows then die once
        cleanse has run (from CPython 3.11; before, the caller's stack holds
        ``ds`` until this returns), and the cleansed rows once format has run.
        """
        if ds.stage is not pipeline.Stage.CLEANSED:
            ds = pipeline.cleanse(ds)
        return pipeline.format_dataset(ds, self.canonical,
                                       {s.owner: s.rename for s in self.config.sources})

    # -- preprocessing + training (scenarios B, A import-data, C share-data) ------------------------

    def _filtered(self, collected: pipeline.Dataset) -> pipeline.Dataset:
        """``collected`` with the rows the validation filter keeps, if one is
        configured; logs the poison detection of a filtered or poisoned run."""
        cfg = self.config
        flt = cfg.harness.filter
        if flt is None and cfg.harness.poison is None:
            return collected
        # a poisoned run with the mitigation disabled keeps every record
        kept, rejected = harness.validation_filter(collected.records, flt) if flt is not None \
            else (collected.records, collected.records.take(slice(0)))
        self.sim.log_event("poison_detection", src=self.active_aiml,
                           detail=harness.poison_detection_report(kept, rejected))
        if flt is None:
            return collected
        self.sim.log_event("mitigation", src=self.active_aiml, detail={
            "mechanism": "validation_filter",
            "rejected": len(rejected), "kept": len(kept)})
        return replace(collected, records=kept)

    def _explore_and_train(self, td: pipeline.TransformedDataset) -> None:
        self.transformed = td
        self.exploration = pipeline.explore(td) if len(td) >= 2 else None
        self._enter(Phase.TRAIN)
        self._train_on(td)

    def _train_on(self, td: pipeline.TransformedDataset) -> None:
        cfg = self.config
        split = pipeline.split(td, cfg.pipeline.split)
        self.split = split
        hp = cfg.model.hyperparams
        ticks = 0
        if cfg.search is not None:
            self.search_result = learn.search(cfg.model.kind, split, cfg.search, hp,
                                              seed=cfg.seed, costs=self.costs)
            hp = self.search_result.best
            ticks += self.search_result.total_train_ticks
        if cfg.search is not None and not self._trains_online():
            # the winning trial was this very fit; the job still charges it
            result = self.search_result.best_result
        else:
            result = self._fit(split, hp)
        ticks += result.metrics.train_ticks
        self._chosen_hp = hp
        done = self.sim.clock + self.log_job("training", ticks, self.active_aiml)
        self.schedule_owned(done, self.active_aiml, lambda: self._install(
            result.params, result.metrics, td.feature_names, td.scaler, refined=False))

    def _trains_online(self) -> bool:
        """Whether :meth:`_fit` trains by one per-sample SGD pass, not as :func:`learn.train`."""
        return self.config.online_training and self.config.model.kind.is_sgd

    def _fit(self, split: pipeline.SplitDataset, hp) -> learn.TrainResult:
        cfg = self.config
        if not self._trains_online():
            return learn.train(cfg.model.kind, split, hp, seed=cfg.seed, costs=self.costs)
        params = learn.incremental_update(learn.zero_params(split.train.X.shape[1]),
                                          split.train.X, split.train.y,
                                          hp.learning_rate, hp.l2_lambda, cfg.model.kind)
        return learn.scored(cfg.model.kind, split, hp, self.costs, (params, len(split.train)))

    def log_job(self, job: str, work: int, src: ComponentId, via_scheduler: bool = True) -> int:
        """Log a training job of ``work`` raw ticks as ``job_scheduled``; return its duration.

        A job's ``cost`` is its work, unless a scheduler is configured. Then a
        job of some work passes through the scheduler ``via_scheduler``: the
        job class with no preset work total stands for it, with the job's work,
        and its completion tick under contention becomes the duration and its
        allocation the cost. The event then carries the scheduler outcome and
        the peak demand. A job that does not pass through it charges nothing.
        """
        sched = self.config.harness.scheduler
        detail = {"job": job, "ticks": work, "work": work, "cost": work if sched is None else 0}
        if sched is not None and work and via_scheduler:
            spec = replace(sched, classes=tuple(
                jc if jc.work is not None else replace(jc, work=work)
                for jc in sched.classes))
            result = harness.schedule(spec)
            open_jobs = [jc.name for jc in sched.classes if jc.work is None]
            job_name = open_jobs[0] if open_jobs else sched.classes[-1].name
            detail.update(
                ticks=result.jobs[job_name].completion_tick,
                cost=result.jobs[job_name].work,  # all of it is allocated
                scheduler={"budget": spec.budget, "jobs": {
                    n: {"completion_tick": j.completion_tick, "ideal_tick": j.ideal_tick,
                        "delay": j.delay, "priority": j.priority, "demand": j.demand,
                        "work": j.work}
                    for n, j in sorted(result.jobs.items())}},
                peak_demand=max(jc.demand for jc in spec.classes))
        self.sim.log_event("job_scheduled", src=src, detail=detail)
        return detail["ticks"]

    def _install(self, params: learn.ModelParameters, metrics: learn.EvalMetrics,
                 feature_names: list[str], scaler: pipeline.ScalingParams, refined: bool) -> None:
        """Put a trained or refined model in service: build its artifact, register
        it (or a new version of it), score it on the initial test split, validate
        it, restart the monitor window on a refinement's baseline, and deploy it.

        The test split's score becomes the run's test metrics, so that they
        describe the version the run ends with, and is also a refinement's
        ``forgetting_mse``; with no split (import-model) the metrics are None.
        A registry restored from a checkpoint already holds the entry, so a
        rerun after a failover also registers a new version."""
        cfg = self.config
        artifact = ModelArtifact(
            kind=cfg.model.kind, parameters=params, feature_names=list(feature_names),
            scaler=scaler, metrics=metrics, origin="internal", created_tick=self.sim.clock,
            packaged=cfg.deploy.packaged)
        if MODEL_ID in self.registry.entries:
            entry = self.registry.reregister(MODEL_ID, artifact)
        else:
            entry = self.registry.register(artifact, MODEL_ID, provenance=self._provenance())
        split, self._test_metrics = self.split, None
        if split is not None:  # import-model has none
            self._test_metrics = test = learn.evaluate(
                params, cfg.model.kind, split.test.X, split.test.y,
                cfg.model.hyperparams.threshold)
            detail = {"records": len(split.test)}
            if refined:
                detail["forgetting_mse"] = test.mse
            self.sim.log_event("inference", src=self.active_aiml, detail=detail)
        self.registry.transition(entry, LifecycleState.VALIDATED)
        if refined and self.monitor is not None:
            self.monitor.clear(new_baseline=metrics.mse)
        self._deploy(entry)

    def _provenance(self) -> dict[str, str]:
        """The provenance a registration records: the scenario and the hashes of
        the config and of the search spec (``"none"`` without a search)."""
        cfg = self.config
        search = "none" if cfg.search is None else hashlib.sha256(json.dumps({
            "mode": cfg.search.mode,
            "grid": {k: list(v) for k, v in cfg.search.grid.items()},
            "ranges": {k: list(v) for k, v in cfg.search.ranges.items()},
            "budget": cfg.search.budget, "seed": cfg.search.seed,
        }, sort_keys=True).encode()).hexdigest()[:12]
        return {"scenario": cfg.kind.value, "dataset_config_hash": self.config_hash,
                "search_spec_hash": search}

    # -- deployment ----------------------------------------------------------------------------------

    def _deploy(self, entry) -> None:
        cfg = self.config
        self._enter(Phase.DEPLOY)
        targets = cfg.deploy.targets
        version = entry.version
        self._expected_artifacts.setdefault(version, set())
        inflation = cfg.deploy.package_inflation if entry.artifact.packaged else 1.0
        payload_bytes = self.sizes.artifact_bytes(entry.artifact.param_count, inflation)
        any_remote = False
        for target in targets:
            self.registry.deploy(entry, str(target))
            if target.kind is ComponentKind.AIML_FUNCTION:
                continue
            any_remote = True
            self._expected_artifacts[version].add(str(target))
            self.route_send(self.active_aiml, target, PayloadKind.MODEL_ARTIFACT,
                            payload_bytes, payload=entry.artifact,
                            meta={"deploy": True, "version": version})
        if entry.state is LifecycleState.VALIDATED and not targets:
            # no placement requested: the model stays hosted at the AI/ML function
            self.registry.deploy(entry, str(self.active_aiml))
        if not any_remote:
            self._deployment_complete(version)

    def on_artifact_delivered(self, target: ComponentId, version: int) -> None:
        pending = self._expected_artifacts.get(version)
        if pending is None:
            return
        pending.discard(str(target))
        if not pending:
            del self._expected_artifacts[version]  # a second copy completes nothing
            self._deployment_complete(version)

    def _deployment_complete(self, version: int) -> None:
        self.sim.log_event("deployment_complete", src=self.active_aiml,
                           detail={"model": MODEL_ID, "version": version})
        entry = self.registry.entries.get(MODEL_ID)
        if self.config.monitor.rounds > 0 and entry is not None \
                and self.config.deploy.targets:
            self._start_monitoring(entry)
        else:
            self._finish()

    def _start_monitoring(self, entry) -> None:
        """Enter monitoring, opening a window on the entry's baseline unless one is open."""
        if entry.state is LifecycleState.DEPLOYED:
            self.registry.transition(entry, LifecycleState.MONITORED)
        if self.monitor is None:
            self.monitor = MonitorWindow(
                capacity=self.config.monitor.window,
                baseline_mse=entry.artifact.metrics.mse,
                drift_factor=self.config.monitor.drift_factor,
                min_samples=self.config.monitor.min_samples,
            )
        self._enter(Phase.MONITOR)
        # every report came in while the model was redeployed, so none is left to wait
        # for; but a dead primary's replica still takes over once it notices
        if self._all_reports_done() and self.sim.alive(self.active_aiml):
            self._finish()

    # -- monitoring + refinement ---------------------------------------------------------------------

    def _on_monitor_report(self, payload: dict[str, Any]) -> None:
        """Ingest a report predicted by the monitored version; drop, and log,
        one predicted by a version the registry has since replaced, which says
        nothing about the monitored one. Either way the report counts as seen."""
        if self.monitor is None:
            return
        self._reports_seen += 1
        entry = self.registry.entries.get(MODEL_ID)
        if entry is None or payload["version"] != entry.version:
            self.sim.log_event("report_dropped", src=self.active_aiml, detail={
                "round": payload["round"], "target": payload["target"],
                "version": payload["version"]})
        else:
            self.monitor.ingest(payload["records"], payload["predictions"])
            window_mse = self.monitor.mse()
            self.sim.log_event("report_ingested", src=self.active_aiml, detail={
                "round": payload["round"], "target": payload["target"],
                "window_mse": window_mse})
            if self.monitor.detect_drift(window_mse):
                self._on_drift_detected(window_mse)
                return
        if self._all_reports_done():
            self._finish()

    def _all_reports_done(self) -> bool:
        expected = self.config.monitor.rounds * len(
            [t for t in self.config.deploy.targets
             if t.kind is not ComponentKind.AIML_FUNCTION])
        return self._reports_seen >= expected and self.phase is Phase.MONITOR

    def _on_drift_detected(self, window_mse: float) -> None:
        entry = self.registry.entries.get(MODEL_ID)
        if entry is None or entry.state is not LifecycleState.MONITORED:
            return
        assert self.monitor is not None
        self.sim.log_event("drift_detected", src=self.active_aiml, detail={
            "window_mse": window_mse, "baseline_mse": self.monitor.baseline_mse})
        if entry.refinements >= self.config.monitor.max_refinements:
            self.sim.log_event("refinement_budget_exhausted", src=self.active_aiml,
                               detail={"model": MODEL_ID,
                                       "refinements": entry.refinements})
            self.registry.transition(entry, LifecycleState.RETIRED)
            raise RefinementBudgetExhausted()
        entry.refinements += 1
        self.registry.transition(entry, LifecycleState.REFINING)
        self._enter(Phase.REFINE)
        self._run_refinement(entry)

    def _run_refinement(self, entry) -> None:
        cfg = self.config
        # refit on the samples that triggered the drift, not the full history; drift
        # needs monitor.min_samples >= 1 ingested samples, so there are some
        assert self.monitor is not None
        records = self.monitor.samples()
        y = records.target
        X = pipeline.reapply_transform(records, self.canonical, self.derived,
                                       entry.artifact.scaler)
        k = max(1, math.floor(len(records) * cfg.monitor.holdout_fraction))
        X_train, y_train = X[:-k], y[:-k]
        X_hold, y_hold = X[-k:], y[-k:]
        hp = self._chosen_hp
        if cfg.monitor.refit == "incremental" and cfg.model.kind.is_sgd:
            params = learn.incremental_update(entry.artifact.parameters, X_train, y_train,
                                              hp.learning_rate, hp.l2_lambda,
                                              cfg.model.kind)
            processed = len(X_train)
        else:
            params, processed = learn.fit_standardized(cfg.model.kind, X_train, y_train, hp,
                                                       cfg.seed, entry.artifact.parameters)
        work = processed * self.costs.train_tick_per_record
        done = self.sim.clock + self.log_job("refinement", work, self.active_aiml)
        metrics = learn.evaluate(params, cfg.model.kind, X_hold, y_hold,
                                 hp.threshold)
        self.sim.log_event("inference", src=self.active_aiml, detail={"records": len(X_hold)})
        metrics.train_ticks = work
        self.schedule_owned(done, self.active_aiml, lambda: self._install(
            params, metrics, entry.artifact.feature_names, entry.artifact.scaler, refined=True))

    # -- scenario C (share-models) -----------------------------------------------------------------------

    def _request_round(self, round_index: int) -> None:
        self._domain_models.setdefault(round_index, {})
        for owner in sorted(self.domains):
            self.route_send(self.active_aiml, owner, PayloadKind.CONTROL,
                            self.sizes.control_bytes, payload=None,
                            meta={"action": "train_round", "round": round_index,
                                  "reply_to": self.active_aiml})

    def _on_domain_model(self, model: DomainModel) -> None:
        round_models = self._domain_models.setdefault(model.round_index, {})
        if len(round_models) == len(self.domains):
            return  # the round was aggregated: a second reply to a resumed round
        round_models[str(model.owner)] = model
        if len(round_models) < len(self.domains):
            return
        models = list(round_models.values())
        global_params = aggregate(models, self.config.aggregation)
        self.sim.log_event("aggregation", src=self.active_aiml, detail={
            "round": model.round_index, "domains": sorted(round_models),
            "weighting": self.config.aggregation})
        final = model.round_index >= self.config.rounds
        names = model_feature_names(self.canonical, list(self.derived))
        # the aggregate has no rows of its own: schema_range needs none, and zscore
        # and minmax, fitted to each domain's own rows, give the identity labelled none
        scaler = pipeline.fit_scaler(np.zeros((0, len(names))), names, self.canonical,
                                     self.derived, self.config.pipeline.scaling)
        artifact = ModelArtifact(
            kind=self.config.model.kind, parameters=global_params,
            feature_names=names, scaler=scaler,
            metrics=learn.EvalMetrics(float("nan"), float("nan"), float("nan")),
            origin="aggregated", created_tick=self.sim.clock,
        )
        self._global_artifact = artifact
        for owner in sorted(self.domains):
            self.route_send(self.active_aiml, owner, PayloadKind.MODEL_ARTIFACT,
                            self.sizes.artifact_bytes(global_params.param_count),
                            payload=artifact,
                            meta={"round": model.round_index + 1, "final": final})

    def _on_domain_eval(self, payload: dict[str, Any]) -> None:
        self._domain_evals[payload["domain"]] = payload
        if len(self._domain_evals) < len(self.domains):
            return
        evals = [self._domain_evals[d] for d in sorted(self._domain_evals)]
        total = sum(e["samples"] for e in evals)
        val_mse, test_mse, val_acc, test_acc = (
            sum(e[key] * e["samples"] for e in evals) / total
            for key in ("val_mse", "test_mse", "val_accuracy", "test_accuracy"))
        artifact = self._global_artifact
        artifact.metrics = learn.EvalMetrics(mse=val_mse, rmse=math.sqrt(val_mse),
                                             accuracy=val_acc)
        entry = self.registry.register(artifact, MODEL_ID, provenance=self._provenance())
        self.registry.transition(entry, LifecycleState.VALIDATED)
        self._test_metrics = learn.EvalMetrics(mse=test_mse, rmse=math.sqrt(test_mse),
                                               accuracy=test_acc)
        for owner in sorted(self.domains):
            self.registry.deploy(entry, str(owner))
        self._deployment_complete(entry.version)

    # -- scenario C helpers shared with domain behaviors ---------------------------------------------------

    def build_local_split(self, spec: SourceSpec) -> pipeline.SplitDataset:
        """A domain's split of its own records, drawn from the substream tagged
        (config seed, "datagen", owner kind, owner index, 0), through the data path."""
        rng = datagen.derive_rng(self.config.seed, "datagen", spec.owner.kind.value,
                                 spec.owner.index, 0)
        ids = self.sim.next_record_ids(_batch_total(spec, spec.emission.size))
        td = pipeline.transform(self._prepare(pipeline.Dataset(
            pipeline.Stage.RAW, datagen.generate_batch(spec, spec.emission.size, rng,
                                                      id_start=ids.start, tick=self.sim.clock))),
            self.config.pipeline.scaling, self.derived)
        return pipeline.split(td, self.config.pipeline.split)

    # -- scenario A validation ------------------------------------------------------------------------------

    def _validate_import(self, records: datagen.RecordBatch) -> None:
        """Validate the pending import on the first ``validation_batch`` of the
        prepared collected ``records`` and test it on the rest."""
        cfg = self.config
        artifact: ModelArtifact = self._pending_import
        n_val = min(len(records), cfg.external.validation_batch)
        # encoding acts row by row, so the validation rows' matrix is the first n_val rows
        base = pipeline.base_design_matrix(records, self.canonical, self.derived)
        y = records.target
        try:
            entry = self.registry.register(
                artifact, MODEL_ID, provenance=self._provenance(),
                validation=(base[:n_val], y[:n_val]),
                mse_threshold=cfg.external.validation_mse_threshold)
        except InvalidArtifact as exc:
            self.sim.log_event("artifact_rejected", src=self.active_aiml,
                               detail={"reason": str(exc)})
            self._finish()
            return
        self.sim.log_event("inference", src=self.active_aiml, detail={"records": n_val})
        # the test metrics come from the collected rows past the validation
        # batch, which the registry never saw, and are None if there are none
        self._test_metrics = None
        if n_val < len(records):
            self._test_metrics = learn.evaluate(
                artifact.parameters, artifact.kind, artifact.scaler.apply(base[n_val:]),
                y[n_val:], cfg.model.hyperparams.threshold)
            self.sim.log_event("inference", src=self.active_aiml,
                               detail={"records": len(records) - n_val})
        self._deploy(entry)

    # -- failover ---------------------------------------------------------------------------------------------

    def _start_failover_machinery(self) -> None:
        plan = self.plan
        assert plan is not None
        target = plan.target
        h = plan.heartbeat_interval

        def beat() -> None:
            if not self.sim.alive(target):
                return
            for replica in plan.replicas:
                self.sim.send(target, replica, PayloadKind.HEARTBEAT,
                              self.sizes.heartbeat_bytes)
            self.sim.schedule(self.sim.clock + h, beat)

        def checkpoint() -> None:
            if not self.sim.alive(target):
                return
            snap = {"registry": self.registry.snapshot(), "phase": self.phase,
                    "tick": self.sim.clock}
            payload_bytes = self.sizes.checkpoint_bytes(
                len(self.registry.entries), self.registry.total_params())
            self.sim.log_event("checkpoint", src=target,
                               detail={"tick": self.sim.clock,
                                       "entries": len(self.registry.entries)})
            for replica in plan.replicas:
                self.sim.send(target, replica, PayloadKind.CHECKPOINT, payload_bytes,
                              payload=snap)
            self.sim.schedule(self.sim.clock + plan.checkpoint_interval, checkpoint)

        self.sim.schedule(h, beat)
        for replica in self.replicas.values():
            replica.start_watching(h)
        self.sim.schedule(plan.checkpoint_interval, checkpoint)
        self.sim.schedule(plan.fail_tick, self._inject_failure)

    def _inject_failure(self) -> None:
        plan = self.plan
        assert plan is not None
        self.sim.fail_component(plan.target, self.sim.clock)
        self.sim.log_event("fault", src=plan.target,
                           detail={"kind": "component_failure", "tick": self.sim.clock})
        if not plan.replicas:
            self.sim.log_event("single_point_failure", src=plan.target, detail={})
            raise SinglePointFailure("no replica configured")

    def on_promotion(self, replica: ComponentId, checkpoint: dict[str, Any] | None) -> None:
        plan = self.plan
        assert plan is not None
        self.sim.log_event("promotion", src=replica, detail={"failed": str(plan.target)})
        self.active_aiml = replica
        self.registry = Registry.restore(checkpoint["registry"], self._log_step) \
            if checkpoint else Registry(self._log_step)
        entry = self.registry.entries.get(MODEL_ID)
        self.sim.log_event("mitigation", src=replica, detail={
            "mechanism": "failover_restore",
            "restored_entries": len(self.registry.entries),
            "model": MODEL_ID,
            "version": None if entry is None else entry.version,
            "state": None if entry is None else entry.state.value,
            "resumed_phase": self.phase.value,
            "resumes_monitoring": self._monitors_as_is(entry)})
        # in-flight deployment and monitor state died with the node
        self._expected_artifacts.clear()
        self.monitor = None
        self.RESUME[self.phase](self, entry)

    def _monitors_as_is(self, entry) -> bool:
        """Whether a promoted replica goes on monitoring the restored model as it
        stands: the primary was past training, and the model is neither lost,
        nor being refined, nor in a deployment the primary left unfinished."""
        return (self.phase in (Phase.DEPLOY, Phase.MONITOR, Phase.REFINE) and entry is not None
                and entry.state is not LifecycleState.REFINING
                and not (self.phase is Phase.DEPLOY and entry.state is LifecycleState.DEPLOYED))

    def _resume_model(self, entry) -> None:
        """Deploy, monitor or refine again, from where the restored model stands."""
        if self._monitors_as_is(entry):  # with an empty window on its baseline
            self._start_monitoring(entry)
        elif entry is None and self.config.mode == "import-model":  # lost with the node
            self._start_collection(Phase.COLLECT_VALIDATION)
        elif entry is None or entry.state is LifecycleState.REFINING:  # or its refined version
            self._retrain()
        else:  # the primary died mid-deployment
            self._deploy(entry)

    def _resume_rounds(self, entry) -> None:
        # redo the first round not yet aggregated, or the last one if all were
        r = 1
        while r < self.config.rounds and len(self._domain_models.get(r, ())) == len(self.domains):
            r += 1
        self._domain_models[r] = {}
        self._request_round(r)

    # what a promoted replica does in each phase the failed primary can have been in,
    # given the model entry of the restored registry (None if it holds none)
    RESUME: dict[Phase, Callable[["Driver", Any], None]] = {
        Phase.COLLECT: lambda d, entry: d._start_collection(Phase.COLLECT),
        Phase.COLLECT_VALIDATION: lambda d, entry: d._start_collection(Phase.COLLECT_VALIDATION),
        Phase.TRAIN: lambda d, entry: d._retrain(),
        Phase.DEPLOY: _resume_model,
        Phase.MONITOR: _resume_model,
        Phase.REFINE: _resume_model,
        Phase.FEDERATED: _resume_rounds,
    }

    # -- lifecycle, phase and completion -------------------------------------------------------------------------

    def _log_step(self, entry, before: LifecycleState | None) -> None:
        """The registry's ``on_step``: log each state a model entry enters as ``transition``."""
        detail = {"model": entry.model_id, "version": entry.version,
                  "from": None if before is None else before.value, "state": entry.state.value}
        if entry.state is LifecycleState.REFINING:
            detail["refinements"] = entry.refinements
        self.sim.log_event("transition", src=self.active_aiml, detail=detail)

    phase = Phase.IDLE  # until the first _enter, the only writer of a Driver's phase

    def _enter(self, phase: Phase) -> None:
        self.phase = phase
        self.sim.log_event("phase", src=self.active_aiml, detail={"phase": phase.value})

    def _finish(self, failure: str | None = None) -> None:
        """End the run unless it has ended: enter ``done`` if it completed, and
        log ``run_complete`` with its failure and the model it ends with."""
        if self.sim.stopped:
            return
        detail: dict[str, Any] = {"status": "completed" if failure is None else "failed"}
        if failure is None:
            self._enter(Phase.DONE)
        else:
            detail["failure"] = failure
        entry = self.registry.entries.get(MODEL_ID)
        test = self._test_metrics
        detail["model"] = None if entry is None else {
            "model_id": entry.model_id,
            "version": entry.version,
            "kind": entry.artifact.kind.value,
            "origin": entry.artifact.origin,
            "state": entry.state.value,
            "val_metrics": entry.artifact.metrics.to_dict(),
            "test_mse": test.mse if test else None,
            "test_rmse": test.rmse if test else None,
            "test_accuracy": test.accuracy if test else None,
            "baseline_test_mse": self._mean_predictor_mse(),
            "deployments": self.registry.active_deployments(MODEL_ID),
        }
        self.sim.log_event("run_complete", detail=detail)
        self.sim.stop()

    def _mean_predictor_mse(self) -> float | None:
        if self.split is None or not len(self.split.test):
            return None
        mean = float(np.mean(self.split.train.y)) if len(self.split.train) else 0.0
        return float(np.mean((self.split.test.y - mean) ** 2))


@dataclass
class RunResult:
    report: RunReport
    driver: Driver

    @property
    def sim(self) -> Simulation:
        return self.driver.sim

    @property
    def registry(self) -> Registry:
        return self.driver.registry


def run_scenario(config: ScenarioConfig) -> RunResult:
    """Execute whichever scenario the config declares."""
    return Driver(config).run()
