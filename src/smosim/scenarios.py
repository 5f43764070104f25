"""End-to-end orchestration of the three integration scenarios.

A :class:`Driver` owns one run: it wires source/termination/target behaviors
into the event loop, walks the workflow phases (collect, preprocess, train,
deploy, monitor, refine), reacts to injected faults, and assembles the final
RunReport. Scenario C adds synchronous rounds of local training and weighted
parameter aggregation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import datagen, harness, learn, pipeline
from .config import (
    CostTable,
    ModelKind,
    ScenarioConfig,
    ScenarioKind,
    SizeTable,
    SourceSpec,
)
from .errors import (
    InsufficientDomains,
    InvalidArtifact,
    NoDataSources,
    SchemaMismatch,
    SimulationError,
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
    InterfaceMessage,
    PayloadKind,
    Simulation,
    build_topology,
)

MODEL_ID = "m0"

_NSSMF_DOMAIN = {ComponentKind.NSSMF, ComponentKind.NFMF, ComponentKind.MDA_SYSTEM_3GPP}
_NFVO_DOMAIN = {ComponentKind.NFVO, ComponentKind.MDA_SYSTEM_NFV}


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
    kind: str
    fault_tick: int
    detection_tick: int | None = None
    resolution_tick: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "fault_tick": self.fault_tick,
            "detection_tick": self.detection_tick,
            "resolution_tick": self.resolution_tick,
        }


@dataclass
class RunReport:
    scenario: str
    mode: str | None
    seed: int
    config_hash: str
    status: str = "completed"
    failure: str | None = None
    model: dict[str, Any] | None = None
    training_ticks: int = 0
    inference_ticks: int = 0
    cost_ticks: int = 0
    peak_demand: int = 1
    refinements: int = 0
    rounds: int = 1
    time_to_detection: int | None = None
    time_to_resolution: int | None = None
    downtime_ticks: int | None = None
    faults: list[FaultRecord] = field(default_factory=list)
    signaling: dict[str, Any] = field(default_factory=dict)
    poison: dict[str, Any] | None = None
    scheduler: dict[str, Any] | None = None
    forgetting_mse: float | None = None
    artifact_rejected: bool = False
    final_tick: int = 0
    event_count: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "mode": self.mode,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "status": self.status,
            "failure": self.failure,
            "model": self.model,
            "training_ticks": self.training_ticks,
            "inference_ticks": self.inference_ticks,
            "cost_ticks": self.cost_ticks,
            "peak_demand": self.peak_demand,
            "refinements": self.refinements,
            "rounds": self.rounds,
            "time_to_detection": self.time_to_detection,
            "time_to_resolution": self.time_to_resolution,
            "downtime_ticks": self.downtime_ticks,
            "faults": [f.to_dict() for f in self.faults],
            "signaling": self.signaling,
            "poison": self.poison,
            "scheduler": self.scheduler,
            "forgetting_mse": self.forgetting_mse,
            "artifact_rejected": self.artifact_rejected,
            "final_tick": self.final_tick,
            "event_count": self.event_count,
        }


# -- component behaviors ---------------------------------------------------------------------


class _SourceBehavior:
    """Responds to collection requests; streaming mode self-schedules emissions."""

    def __init__(self, driver: "Driver", spec: SourceSpec):
        self.driver = driver
        self.spec = spec
        self.emission_index = 0

    def _make_records(self, n: int, tick: int) -> datagen.RecordBatch:
        cfg = self.driver.config
        rng = datagen.derive_rng(cfg.seed, "datagen", self.spec.owner.kind.value,
                                 self.spec.owner.index, self.emission_index)
        self.emission_index += 1
        ids = self.driver.sim.next_record_ids(_batch_total(self.spec, n))
        records = datagen.generate_batch(self.spec, n, rng, id_start=ids.start, tick=tick)
        poison = cfg.harness.poison
        if poison is not None and (poison.sources is None or self.spec.owner in poison.sources):
            rng_p = datagen.derive_rng(poison.seed, "poison", self.spec.owner.kind.value,
                                       self.spec.owner.index, self.emission_index)
            records = harness.poison_inject(
                records, _reseed_poison(poison, int(rng_p.integers(1 << 31))))
        if cfg.harness.privacy is not None:
            records = harness.privacy_transform(records, self.spec.schema, cfg.harness.privacy)
        return records

    def payload_bytes(self, n_records: int) -> int:
        raw = self.driver.sizes.data_bytes(n_records)
        privacy = self.driver.config.harness.privacy
        return harness.inflate_bytes(raw, privacy.inflation) if privacy else raw

    def handle(self, sim: Simulation, msg: InterfaceMessage) -> None:
        if msg.payload_kind is not PayloadKind.CONTROL:
            return
        action = msg.meta.get("action")
        if action == "collect":
            records = self._make_records(self.spec.emission.size, sim.clock)
            self.driver.route_send(
                self.spec.owner, msg.meta["reply_to"], PayloadKind.RAW_DATA,
                self.payload_bytes(len(records)), payload=records,
                meta={"source": str(self.spec.owner)},
            )
        elif action == "collect_cleansed":
            records = self._make_records(self.spec.emission.size, sim.clock)
            cleansed = self.driver.local_cleanse(self.spec, records)
            self.driver.route_send(
                self.spec.owner, msg.meta["reply_to"], PayloadKind.CLEANSED_DATA,
                self.payload_bytes(len(cleansed)), payload=cleansed,
                meta={"source": str(self.spec.owner)},
            )

    def start_streaming(self, start: int, window: int, reply_to_getter) -> None:
        for tick in datagen.streaming_emission_ticks(start, window, self.spec.emission.interval):
            self.driver.sim.schedule(tick, lambda t=tick: self._emit_streaming(reply_to_getter))

    def _emit_streaming(self, reply_to_getter) -> None:
        records = self._make_records(self.spec.emission.size, self.driver.sim.clock)
        self.driver.route_send(
            self.spec.owner, reply_to_getter(), PayloadKind.RAW_DATA,
            self.payload_bytes(len(records)), payload=records,
            meta={"source": str(self.spec.owner)},
        )


def _batch_total(spec: SourceSpec, n: int) -> int:
    return n + math.floor(n * spec.duplicate_rate)


def _reseed_poison(spec, seed: int):
    from dataclasses import replace

    return replace(spec, seed=seed)




class _TargetBehavior:
    """Production placement: hosts the deployed artifact and serves inference.

    After receiving an artifact it runs the configured report rounds: draw a
    local batch, predict with the stored scaling parameters, send the
    (sample, prediction) report upstream.
    """

    def __init__(self, driver: "Driver", cid: ComponentId, spec: SourceSpec | None):
        self.driver = driver
        self.cid = cid
        self.spec = spec
        self.artifact: ModelArtifact | None = None
        self.rounds_started = False
        self.emission_index = 0

    def handle(self, sim: Simulation, msg: InterfaceMessage) -> None:
        if msg.payload_kind is not PayloadKind.MODEL_ARTIFACT:
            return
        self.artifact = msg.payload
        self.driver.on_artifact_delivered(self.cid, self.artifact.version, sim.clock)
        mon = self.driver.config.monitor
        if mon.rounds > 0 and self.spec is not None and not self.rounds_started:
            self.rounds_started = True
            base = sim.clock
            for r in range(1, mon.rounds + 1):
                sim.schedule(base + r * mon.interval, lambda rr=r: self._report_round(rr))

    def _live_spec(self, round_index: int) -> SourceSpec:
        assert self.spec is not None
        shift = self.driver.config.harness.drift_shift
        if shift is not None and round_index >= shift.at_round:
            return datagen.shifted(self.spec, shift.coefficients, shift.bias)
        return self.spec

    def _report_round(self, round_index: int) -> None:
        if self.artifact is None:
            return
        driver = self.driver
        mon = driver.config.monitor
        spec = self._live_spec(round_index)
        rng = datagen.derive_rng(driver.config.seed, "monitor", self.cid.kind.value,
                                 self.cid.index, round_index)
        ids = driver.sim.next_record_ids(mon.batch)
        records = datagen.generate_batch(
            _clean_copy(spec), mon.batch, rng, id_start=ids.start, tick=driver.sim.clock)
        X = pipeline.reapply_transform(records, driver.canonical, driver.derived,
                                       self.artifact.scaler)
        preds = self.artifact.predict(X)
        cost = mon.batch * driver.costs.inference_tick_per_record
        driver.count_inference(mon.batch)
        shift = driver.config.harness.drift_shift
        if shift is not None and round_index == shift.at_round:
            driver.note_drift_fault(driver.sim.clock)
        payload = {
            "records": records,
            "predictions": [float(p) for p in preds],
            "round": round_index,
            "target": str(self.cid),
        }
        send_tick = driver.sim.clock + cost
        driver.sim.schedule(send_tick, lambda: driver.route_send(
            self.cid, driver.active_aiml, PayloadKind.REPORT,
            driver.sizes.report_bytes(len(records)), payload=payload,
            meta={"round": round_index}))


def _clean_copy(spec: SourceSpec) -> SourceSpec:
    from dataclasses import replace

    return replace(spec, duplicate_rate=0.0, missing_rate=0.0, error_rate=0.0)


class _DomainBehavior:
    """Scenario C domain: trains locally, shares parameters, adopts the global."""

    def __init__(self, driver: "Driver", spec: SourceSpec):
        self.driver = driver
        self.cid = spec.owner
        self.spec = spec
        self.split: pipeline.SplitDataset | None = None
        self.params: learn.LinearParams | None = None

    def _ensure_data(self) -> pipeline.SplitDataset:
        if self.split is None:
            self.split = self.driver.build_local_split(self.spec)
        return self.split

    def handle(self, sim: Simulation, msg: InterfaceMessage) -> None:
        driver = self.driver
        if msg.payload_kind is PayloadKind.CONTROL and msg.meta.get("action") == "train_round":
            self._train_round(int(msg.meta["round"]))
        elif msg.payload_kind is PayloadKind.CONTROL and msg.meta.get("action") == "collect_cleansed":
            records = driver.local_cleansed_records(self.spec)
            bytes_ = driver.sizes.data_bytes(len(records))
            privacy = driver.config.harness.privacy
            if privacy:
                bytes_ = harness.inflate_bytes(bytes_, privacy.inflation)
            driver.route_send(self.cid, msg.meta["reply_to"], PayloadKind.CLEANSED_DATA,
                              bytes_, payload=records, meta={"source": str(self.cid)})
        elif msg.payload_kind is PayloadKind.MODEL_ARTIFACT:
            artifact: ModelArtifact = msg.payload
            self.params = artifact.parameters.copy()
            if msg.meta.get("final"):
                self._evaluate_global(artifact)
            else:
                self._train_round(int(msg.meta["round"]))

    def _train_round(self, round_index: int) -> None:
        driver = self.driver
        split = self._ensure_data()
        hp = driver.config.model.hyperparams
        result = learn.train(driver.config.model.kind, split, hp,
                             seed=driver.config.seed, init=self.params,
                             costs=driver.costs)
        driver.count_training(result.metrics.train_ticks)
        done_tick = driver.sim.clock + result.metrics.train_ticks
        driver.sim.schedule(done_tick, lambda: self._send_local_model(result, round_index))

    def _send_local_model(self, result: learn.TrainResult, round_index: int) -> None:
        driver = self.driver
        self.params = result.params.copy()
        model = DomainModel(owner=self.cid, kind=driver.config.model.kind,
                            params=result.params, sample_count=len(self._ensure_data().train),
                            round_index=round_index)
        driver.route_send(
            self.cid, driver.active_aiml, PayloadKind.MODEL_ARTIFACT,
            driver.sizes.artifact_bytes(result.params.param_count),
            payload=model, meta={"round": round_index, "domain": str(self.cid)},
        )

    def _evaluate_global(self, artifact: ModelArtifact) -> None:
        driver = self.driver
        split = self._ensure_data()
        val = learn.evaluate(artifact.parameters, artifact.kind, split.val.X, split.val.y,
                             driver.config.model.hyperparams.threshold)
        test = learn.evaluate(artifact.parameters, artifact.kind, split.test.X, split.test.y,
                              driver.config.model.hyperparams.threshold)
        driver.count_inference(len(split.val) + len(split.test))
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
        self.promoted = False
        self.checkpoint: dict[str, Any] | None = None

    def handle(self, sim: Simulation, msg: InterfaceMessage) -> None:
        if msg.payload_kind is PayloadKind.HEARTBEAT:
            first = self.last_beat is None
            self.last_beat = sim.clock
            self.missed = 0
            if first and self.driver.plan is not None:
                self._schedule_check(sim.clock + self.driver.plan.heartbeat_interval)
        elif msg.payload_kind is PayloadKind.CHECKPOINT:
            self.checkpoint = msg.payload

    def _schedule_check(self, tick: int) -> None:
        self.driver.sim.schedule(tick, lambda: self._check(tick))

    def _check(self, expected: int) -> None:
        if self.promoted:
            return
        plan = self.driver.plan
        assert plan is not None
        if self.last_beat is not None and self.last_beat >= expected:
            self._schedule_check(self.last_beat + plan.heartbeat_interval)
            return
        self.missed += 1
        if self.missed >= plan.missed_to_declare:
            self.promoted = True
            self.driver.on_promotion(self.cid, self.checkpoint)
        else:
            self._schedule_check(expected + plan.heartbeat_interval)


# -- the run driver ------------------------------------------------------------------------------


class Driver:
    """One scenario run over a fresh simulation."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.sizes: SizeTable = config.sizes
        self.costs: CostTable = config.costs
        self.topology = build_topology(config)
        self.sim = Simulation(self.topology)
        self.registry = Registry()
        self.report = RunReport(
            scenario=config.kind.value, mode=config.mode, seed=config.seed,
            config_hash=config.config_hash(), rounds=config.rounds,
        )
        self.canonical = config.canonical_schema()
        self.derived = tuple(config.pipeline.derived)
        self.active_aiml = ComponentId(ComponentKind.AIML_FUNCTION, 0)
        self.phase = "idle"
        self.plan = config.harness.failure

        # run products, exposed for tests and reporting
        self.split: pipeline.SplitDataset | None = None
        self.transformed: pipeline.TransformedDataset | None = None
        self.exploration: pipeline.ExplorationReport | None = None
        self.search_result: learn.SearchResult | None = None
        self.monitor: MonitorWindow | None = None
        # the last monitor.window reported samples, the refinement's training data
        self.monitor_samples: datagen.RecordBatch | None = None
        self.checkpoints: list[dict[str, Any]] = []
        self.restored_registry_snapshot: dict[str, Any] | None = None
        self.last_checkpoint_at_promotion: dict[str, Any] | None = None

        self._inbox: dict[str, list[datagen.RecordBatch]] = {}
        self._filter_stats: dict[str, Any] | None = None
        self._expected_artifacts: dict[int, set[str]] = {}
        self._domain_models: dict[int, dict[str, DomainModel]] = {}
        self._domain_evals: dict[str, dict[str, Any]] = {}
        self._drift_fault: FaultRecord | None = None
        self._failover_fault: FaultRecord | None = None
        self._pending_resolution: FaultRecord | None = None
        self._collection_round = 0
        self._reports_seen = 0
        self._pending_import: ModelArtifact | None = None
        self._global_artifact: ModelArtifact | None = None
        self._test_metrics: learn.EvalMetrics | None = None
        self._chosen_hp = config.model.hyperparams
        self._local_data_cache: dict[str, datagen.RecordBatch] = {}

        self.sources = {s.owner: _SourceBehavior(self, s) for s in config.sources}
        self.domains: dict[ComponentId, _DomainBehavior] = {}
        self.targets: dict[ComponentId, _TargetBehavior] = {}
        self.replicas: dict[ComponentId, _ReplicaBehavior] = {}
        self._wire()

    # -- wiring ---------------------------------------------------------------------

    def _wire(self) -> None:
        """Install one dispatcher per component: forward in-transit messages,
        hand terminal deliveries to the component's role behavior."""
        inner: dict[ComponentId, Any] = {}
        if self.config.kind is ScenarioKind.C and self.config.mode == "share-models":
            for spec in self.config.sources:
                behavior = _DomainBehavior(self, spec)
                self.domains[spec.owner] = behavior
                inner[spec.owner] = behavior.handle
        else:
            for owner, behavior in self.sources.items():
                inner[owner] = behavior.handle
        for target in self.config.deploy.targets:
            if target.kind is ComponentKind.AIML_FUNCTION:
                continue
            spec = self._domain_spec_for(target)
            behavior = _TargetBehavior(self, target, spec)
            self.targets[target] = behavior
            inner[target] = behavior.handle
        inner[self.active_aiml] = self._aiml_handle
        if self.plan is not None:
            for replica in self.plan.replicas:
                rb = _ReplicaBehavior(self, replica, self.plan.target)
                self.replicas[replica] = rb
                inner[replica] = rb.handle
        for cid in self.topology.components:
            self.sim.handlers[cid] = self._make_dispatcher(cid, inner.get(cid))

    def _make_dispatcher(self, cid: ComponentId, role_handler):
        def dispatch(sim: Simulation, msg: InterfaceMessage) -> None:
            if msg.final_dst is not None and msg.final_dst != cid:
                nxt = self.next_hop(cid, msg.final_dst)
                sim.send(cid, nxt, msg.payload_kind, msg.payload_bytes,
                         payload=msg.payload, final_dst=msg.final_dst, meta=msg.meta)
                return
            handler = role_handler
            if cid.kind is ComponentKind.AIML_FUNCTION and cid == self.active_aiml:
                handler = self._aiml_handle
            if handler is not None:
                handler(sim, msg)
        return dispatch

    def _domain_spec_for(self, target: ComponentId) -> SourceSpec | None:
        side = _NSSMF_DOMAIN if target.kind in _NSSMF_DOMAIN else _NFVO_DOMAIN
        for spec in self.config.sources:
            if spec.owner.kind in side:
                return spec
        return self.config.sources[0] if self.config.sources else None

    # -- routing helpers ----------------------------------------------------------------

    def next_hop(self, here: ComponentId, final: ComponentId) -> ComponentId:
        neighbors = self.topology.neighbors(here)
        if final in neighbors:
            return final
        if final.kind is ComponentKind.NFMF:
            # reach an NFMF through its parent NSSMF
            for n in self.topology.neighbors(final):
                if n.kind is ComponentKind.NSSMF and n in neighbors:
                    return n
        if here.kind is ComponentKind.AIML_FUNCTION:
            return self.topology.termination_for(final)
        if here.kind is ComponentKind.NFMF:
            for n in neighbors:
                if n.kind is ComponentKind.NSSMF:
                    return n
        term = self.topology.termination_for(here)
        if term in neighbors:
            return term
        raise SimulationError(f"no route from {here} toward {final}")

    def route_send(self, src: ComponentId, final: ComponentId, payload_kind: PayloadKind,
                   payload_bytes: int, payload: Any = None,
                   meta: dict[str, Any] | None = None) -> None:
        """Send toward final destination, hopping through terminations."""
        if src == final:
            return
        from .errors import UndeclaredRoute

        try:
            self.topology.interface_between(src, final)
            self.sim.send(src, final, payload_kind, payload_bytes, payload=payload,
                          final_dst=final, meta=meta or {})
            return
        except UndeclaredRoute:
            pass
        hop = self.next_hop(src, final)
        self.sim.send(src, hop, payload_kind, payload_bytes, payload=payload,
                      final_dst=final, meta=meta or {})

    def schedule_owned(self, tick: int, owner: ComponentId, action) -> None:
        """Scheduled work that dies with its owner (e.g. a training job)."""

        def guarded() -> None:
            if self.sim.alive(owner) and owner == self.active_aiml:
                action()

        self.sim.schedule(tick, guarded)

    # -- run entry -------------------------------------------------------------------------

    def run(self) -> "RunResult":
        try:
            self._start()
            self.sim.run_to_completion(self.config.max_ticks)
        except SimulationError as exc:
            self.report.status = "failed"
            self.report.failure = f"{type(exc).__name__}: {exc}"
        self._finalize()
        return RunResult(report=self.report, driver=self)

    def _start(self) -> None:
        if self.plan is not None:
            self._start_failover_machinery()
        kind = self.config.kind
        if kind is ScenarioKind.B:
            if not self.config.sources:
                raise NoDataSources("scenario B needs at least one source")
            self._start_collection()
        elif kind is ScenarioKind.A:
            self._start_scenario_a()
        else:
            self._start_scenario_c()

    # -- scenario A ------------------------------------------------------------------------------

    def _start_scenario_a(self) -> None:
        ext = self.config.external
        assert ext is not None
        if self.config.mode == "import-model":
            artifact = load_artifact(ext.artifact_path)  # FileNotFoundError if absent
            artifact.origin = "external"
            self._pending_import = artifact
            provider = ComponentId(ComponentKind.EXTERNAL_PROVIDER, 0)
            inflation = self.config.deploy.package_inflation if artifact.packaged else 1.0
            self.phase = "import"
            self.sim.schedule(self.sim.clock, lambda: self.route_send(
                provider, self.active_aiml, PayloadKind.MODEL_ARTIFACT,
                self.sizes.artifact_bytes(artifact.param_count, inflation),
                payload=artifact, meta={"import": True}))
            # local validation data arrives through the normal collection path
            self._start_collection(purpose="validation")
        else:
            text = _read_external_csv(ext.data_path)
            td = pipeline.transformed_from_csv(
                text, pipeline.Provenance(("external",), (0, 0), self.report.config_hash))
            self.transformed = td
            self.phase = "train"
            self._train_on(td, origin="internal")

    # -- collection --------------------------------------------------------------------------------

    def _start_collection(self, purpose: str = "train") -> None:
        self.phase = "collect" if purpose == "train" else "collect_validation"
        self._collection_round += 1
        self._inbox = {}
        start = self.sim.clock
        window = self.config.collection.window
        share_data = self.config.kind is ScenarioKind.C and self.config.mode == "share-data"
        action = "collect_cleansed" if share_data else "collect"
        for spec in self.config.sources:
            if spec.emission.mode == "batch":
                requests = 1 if purpose == "validation" else self.config.collection.requests
                for _ in range(requests):
                    self.route_send(self.active_aiml, spec.owner, PayloadKind.CONTROL,
                                    self.sizes.control_bytes, payload=None,
                                    meta={"action": action, "reply_to": self.active_aiml})
            else:
                behavior = self.sources[spec.owner]
                behavior.start_streaming(start, window, lambda: self.active_aiml)
        deadline = start + window
        self.schedule_owned(deadline, self.active_aiml,
                            lambda: self._end_collection(start, deadline, purpose))

    def _aiml_handle(self, sim: Simulation, msg: InterfaceMessage) -> None:
        if msg.payload_kind in (PayloadKind.RAW_DATA, PayloadKind.CLEANSED_DATA):
            source = msg.meta.get("source", str(msg.src))
            self._inbox.setdefault(source, []).append(msg.payload)
        elif msg.payload_kind is PayloadKind.MODEL_ARTIFACT:
            payload = msg.payload
            if isinstance(payload, DomainModel):
                self._on_domain_model(payload)
            elif msg.meta.get("import"):
                pass  # validated once local data is ready
        elif msg.payload_kind is PayloadKind.REPORT:
            if msg.meta.get("kind") == "domain_eval":
                self._on_domain_eval(msg.payload)
            else:
                self._on_monitor_report(msg.payload)

    def _end_collection(self, start: int, deadline: int, purpose: str) -> None:
        partial = False
        expected = [s.owner for s in self.config.sources]
        for owner in expected:
            if not sum(map(len, self._inbox.get(str(owner), []))):
                partial = True
                self.sim.log_event("collection_timeout", src=owner,
                                   detail={"window": [start, deadline]})
        parts = [b for owner in expected for b in self._inbox.get(str(owner), [])]
        records = datagen.RecordBatch.concat(parts) if parts else None
        if not records:
            self.report.status = "failed"
            self.report.failure = "EmptyCollection: no source delivered any data"
            self._finish()
            return
        provenance = pipeline.Provenance(
            tuple(sorted(str(o) for o in expected)), (start, deadline),
            self.report.config_hash)
        raw = pipeline.Dataset(pipeline.Stage.RAW, records, provenance, partial=partial)
        if purpose == "validation":
            self._validate_import(raw)
        else:
            self._preprocess_and_train(raw)

    # -- preprocessing + training (scenarios B, A import-data, C share-data) ------------------------

    def _preprocess_and_train(self, raw: pipeline.Dataset) -> None:
        cfg = self.config
        share_data = cfg.kind is ScenarioKind.C and cfg.mode == "share-data"
        if cfg.harness.filter is not None:
            kept, rejected = harness.validation_filter(raw.records, cfg.harness.filter)
            self._filter_stats = harness.poison_detection_report(kept, rejected)
            self.sim.log_event("mitigation", src=self.active_aiml, detail={
                "mechanism": "validation_filter",
                "rejected": len(rejected), "kept": len(kept)})
            raw = pipeline.Dataset(raw.stage, kept, raw.provenance, partial=raw.partial)
        elif cfg.harness.poison is not None:
            # poisoned run with the mitigation disabled: note it for reporting
            self._filter_stats = harness.poison_detection_report(
                raw.records, raw.records.take(slice(0)))
        if share_data:
            # domain-side cleansing already ran; records enter as Cleansed
            cleansed = pipeline.Dataset(pipeline.Stage.CLEANSED, raw.records,
                                        raw.provenance, partial=raw.partial)
        else:
            cleansed = pipeline.cleanse(raw)
        renames = {s.owner: s.rename for s in cfg.sources}
        formatted = pipeline.format_dataset(cleansed, self.canonical, renames)
        td = pipeline.transform(formatted, cfg.pipeline.scaling, self.derived)
        self.transformed = td
        self.exploration = pipeline.explore(td) if len(td) >= 2 else None
        self.phase = "train"
        self._train_on(td, origin="internal")

    def _train_on(self, td: pipeline.TransformedDataset, origin: str) -> None:
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
        result = self._fit(split, hp)
        ticks += result.metrics.train_ticks
        self._chosen_hp = hp
        duration = self._job_duration(ticks)
        self.count_training(ticks)
        self.sim.log_event("job_scheduled", src=self.active_aiml,
                           detail={"job": "training", "ticks": duration})
        done = self.sim.clock + duration
        self.schedule_owned(done, self.active_aiml,
                            lambda: self._on_trained(result, origin))

    def _fit(self, split: pipeline.SplitDataset, hp) -> learn.TrainResult:
        cfg = self.config
        if not (cfg.online_training and cfg.model.kind.is_sgd):
            return learn.train(cfg.model.kind, split, hp, seed=cfg.seed, costs=self.costs)
        params = learn.incremental_update(learn.zero_params(split.train.X.shape[1]),
                                          split.train.X, split.train.y,
                                          hp.learning_rate, hp.l2_lambda, cfg.model.kind)
        metrics = learn.evaluate(params, cfg.model.kind, split.val.X, split.val.y,
                                 hp.threshold)
        metrics.train_ticks = len(split.train) * self.costs.train_tick_per_record
        metrics.inference_ticks = len(split.val) * self.costs.inference_tick_per_record
        return learn.TrainResult(params, metrics, len(split.train))

    def _job_duration(self, ticks: int) -> int:
        """Simulated duration of a training job, through the scheduler if present.

        The job class with no preset work total stands for this training job;
        its work is the job's raw tick demand and its completion tick under
        contention becomes the simulated duration.
        """
        sched = self.config.harness.scheduler
        if sched is None or ticks == 0:
            return ticks
        from dataclasses import replace as _replace

        spec = _replace(sched, classes=tuple(
            jc if jc.work is not None else _replace(jc, work=ticks)
            for jc in sched.classes))
        result = harness.schedule(spec)
        open_jobs = [jc.name for jc in sched.classes if jc.work is None]
        job_name = open_jobs[0] if open_jobs else sched.classes[-1].name
        job = result.jobs[job_name]
        self.report.cost_ticks += result.total_allocated[job_name]
        self.report.scheduler = {
            "budget": spec.budget,
            "jobs": {n: {"completion_tick": j.completion_tick, "ideal_tick": j.ideal_tick,
                         "delay": j.delay, "priority": j.priority, "demand": j.demand,
                         "work": j.work}
                     for n, j in sorted(result.jobs.items())},
        }
        self.report.peak_demand = max(jc.demand for jc in spec.classes)
        return job.completion_tick

    def _on_trained(self, result: learn.TrainResult, origin: str) -> None:
        cfg = self.config
        assert self.split is not None and self.transformed is not None
        artifact = ModelArtifact(
            kind=cfg.model.kind,
            parameters=result.params,
            feature_names=list(self.transformed.feature_names),
            scaler=self.transformed.scaler,
            metrics=result.metrics,
            origin=origin,
            created_tick=self.sim.clock,
            packaged=cfg.deploy.packaged,
        )
        provenance = {
            "scenario": cfg.kind.value,
            "dataset_config_hash": self.report.config_hash,
            "search_spec_hash": _search_hash(cfg),
        }
        if MODEL_ID in self.registry.entries:
            # refinement, or a rerun on a registry restored from checkpoint
            entry = self.registry.reregister(MODEL_ID, artifact, self.sim.clock)
        else:
            entry = self.registry.register(artifact, MODEL_ID, self.sim.clock,
                                           provenance=provenance)
        self.sim.log_event("transition", src=self.active_aiml,
                           detail={"model": MODEL_ID, "version": entry.version,
                                   "state": entry.state.value})
        test = learn.evaluate(result.params, cfg.model.kind, self.split.test.X,
                              self.split.test.y, cfg.model.hyperparams.threshold)
        self.count_inference(len(self.split.test))
        self._test_metrics = test
        self.registry.transition(entry, LifecycleState.VALIDATED, self.sim.clock)
        self.sim.log_event("transition", src=self.active_aiml,
                           detail={"model": MODEL_ID, "version": entry.version,
                                   "state": "Validated"})
        self._deploy(entry)

    # -- deployment ----------------------------------------------------------------------------------

    def _deploy(self, entry) -> None:
        cfg = self.config
        self.phase = "deploy"
        targets = cfg.deploy.targets
        version = entry.version
        self._expected_artifacts.setdefault(version, set())
        inflation = cfg.deploy.package_inflation if entry.artifact.packaged else 1.0
        payload_bytes = self.sizes.artifact_bytes(entry.artifact.param_count, inflation)
        any_remote = False
        for target in targets:
            self.registry.deploy(entry, str(target), self.sim.clock)
            if target.kind is ComponentKind.AIML_FUNCTION:
                continue
            any_remote = True
            self._expected_artifacts[version].add(str(target))
            self.route_send(self.active_aiml, target, PayloadKind.MODEL_ARTIFACT,
                            payload_bytes, payload=entry.artifact,
                            meta={"deploy": True, "version": version})
        if entry.state is LifecycleState.VALIDATED and not targets:
            # no placement requested: the model stays hosted at the AI/ML function
            self.registry.deploy(entry, str(self.active_aiml), self.sim.clock)
        self.sim.log_event("transition", src=self.active_aiml,
                           detail={"model": MODEL_ID, "version": version,
                                   "state": "Deployed"})
        if not any_remote:
            self._deployment_complete(version)

    def on_artifact_delivered(self, target: ComponentId, version: int, tick: int) -> None:
        pending = self._expected_artifacts.get(version)
        if pending is None:
            return
        pending.discard(str(target))
        if not pending:
            self._deployment_complete(version)

    def _deployment_complete(self, version: int) -> None:
        self.sim.log_event("deployment_complete", src=self.active_aiml,
                           detail={"model": MODEL_ID, "version": version})
        entry = self.registry.entries.get(MODEL_ID)
        if self._pending_resolution is not None:
            self._pending_resolution.resolution_tick = self.sim.clock
            self._pending_resolution = None
        if self._drift_fault is not None and self._drift_fault.resolution_tick is None \
                and version > 1:
            self._drift_fault.resolution_tick = self.sim.clock
        if self.config.monitor.rounds > 0 and entry is not None \
                and self.config.deploy.targets:
            if entry.state is LifecycleState.DEPLOYED:
                self.registry.transition(entry, LifecycleState.MONITORED, self.sim.clock)
                self.sim.log_event("transition", src=self.active_aiml,
                                   detail={"model": MODEL_ID, "version": version,
                                           "state": "Monitored"})
            if self.monitor is None:
                baseline = entry.artifact.metrics.mse
                self.monitor = MonitorWindow(
                    capacity=self.config.monitor.window,
                    baseline_mse=baseline,
                    drift_factor=self.config.monitor.drift_factor,
                    min_samples=self.config.monitor.min_samples,
                )
            self.phase = "monitor"
        else:
            self._finish()

    # -- monitoring + refinement ---------------------------------------------------------------------

    def _on_monitor_report(self, payload: dict[str, Any]) -> None:
        if self.monitor is None:
            return
        records = payload["records"]
        for actual, pred in zip(records.target, payload["predictions"]):
            self.monitor.ingest(pred, actual, self.sim.clock)
        window = self.config.monitor.window
        if self.monitor_samples is not None:
            records = datagen.RecordBatch.concat([self.monitor_samples, records])
        self.monitor_samples = records.take(slice(-window, None))
        self.sim.log_event("report_ingested", src=self.active_aiml, detail={
            "round": payload.get("round"), "target": payload.get("target"),
            "window_mse": self.monitor.mse()})
        self._reports_seen += 1
        if self.monitor.detect_drift():
            self._on_drift_detected()
        elif self._all_reports_done():
            self._finish()

    def _all_reports_done(self) -> bool:
        expected = self.config.monitor.rounds * len(
            [t for t in self.config.deploy.targets
             if t.kind is not ComponentKind.AIML_FUNCTION])
        return self._reports_seen >= expected and self.phase == "monitor"

    def _on_drift_detected(self) -> None:
        entry = self.registry.entries.get(MODEL_ID)
        if entry is None or entry.state is not LifecycleState.MONITORED:
            return
        tick = self.sim.clock
        self.sim.log_event("drift_detected", src=self.active_aiml, detail={
            "window_mse": self.monitor.mse() if self.monitor else None,
            "baseline_mse": self.monitor.baseline_mse if self.monitor else None})
        if self._drift_fault is not None and self._drift_fault.detection_tick is None:
            self._drift_fault.detection_tick = tick
        if entry.refinements >= self.config.monitor.max_refinements:
            self.sim.log_event("refinement_budget_exhausted", src=self.active_aiml,
                               detail={"model": MODEL_ID,
                                       "refinements": entry.refinements})
            self.registry.transition(entry, LifecycleState.RETIRED, tick)
            self.report.failure = "RefinementBudgetExhausted"
            self._finish()
            return
        entry.refinements += 1
        self.report.refinements = entry.refinements
        self.registry.transition(entry, LifecycleState.REFINING, tick)
        self.sim.log_event("transition", src=self.active_aiml,
                           detail={"model": MODEL_ID, "version": entry.version,
                                   "state": "Refining"})
        self.phase = "refine"
        self._run_refinement(entry)

    def _run_refinement(self, entry) -> None:
        cfg = self.config
        # refit on the samples that triggered the drift, not the full history
        records = self.monitor_samples
        if not records:
            self._restart_for_refinement()
            return
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
        ticks = self._job_duration(processed * self.costs.train_tick_per_record)
        self.count_training(processed * self.costs.train_tick_per_record)
        metrics = learn.evaluate(params, cfg.model.kind, X_hold, y_hold,
                                 hp.threshold)
        self.count_inference(len(X_hold))
        metrics.train_ticks = processed * self.costs.train_tick_per_record
        done = self.sim.clock + ticks
        self.schedule_owned(done, self.active_aiml,
                            lambda: self._complete_refinement(entry, params, metrics))

    def _complete_refinement(self, entry, params, metrics) -> None:
        cfg = self.config
        artifact = ModelArtifact(
            kind=cfg.model.kind, parameters=params,
            feature_names=list(entry.artifact.feature_names),
            scaler=entry.artifact.scaler, metrics=metrics,
            origin="internal", created_tick=self.sim.clock,
            packaged=cfg.deploy.packaged,
        )
        entry = self.registry.reregister(MODEL_ID, artifact, self.sim.clock)
        if self.split is not None:
            self.report.forgetting_mse = learn.evaluate(
                params, cfg.model.kind, self.split.test.X, self.split.test.y,
                cfg.model.hyperparams.threshold).mse
            self.count_inference(len(self.split.test))
        self.registry.transition(entry, LifecycleState.VALIDATED, self.sim.clock)
        if self.monitor is not None:
            self.monitor.clear(new_baseline=metrics.mse)
        self.monitor_samples = None
        self._deploy(entry)

    def _restart_for_refinement(self) -> None:
        """Post-failover refinement: no buffered samples, so collect afresh."""
        self._start_collection()

    # -- scenario C (share-models) -----------------------------------------------------------------------

    def _start_scenario_c(self) -> None:
        if self.config.mode == "share-data":
            if len({s.owner for s in self.config.sources}) < 2:
                raise InsufficientDomains("share-data needs >= 2 domains")
            self._start_collection()
            return
        if len(self.domains) < 2:
            raise InsufficientDomains("share-models needs >= 2 domains")
        self.phase = "federated"
        self._request_round(1)

    def _request_round(self, round_index: int) -> None:
        self._domain_models.setdefault(round_index, {})
        for owner in sorted(self.domains):
            self.route_send(self.active_aiml, owner, PayloadKind.CONTROL,
                            self.sizes.control_bytes, payload=None,
                            meta={"action": "train_round", "round": round_index,
                                  "reply_to": self.active_aiml})

    def _on_domain_model(self, model: DomainModel) -> None:
        round_models = self._domain_models.setdefault(model.round_index, {})
        round_models[str(model.owner)] = model
        if len(round_models) < len(self.domains):
            return
        models = list(round_models.values())
        global_params = aggregate(models, self.config.aggregation)
        self.sim.log_event("aggregation", src=self.active_aiml, detail={
            "round": model.round_index, "domains": sorted(round_models),
            "weighting": self.config.aggregation})
        final = model.round_index >= self.config.rounds
        artifact = ModelArtifact(
            kind=self.config.model.kind, parameters=global_params,
            feature_names=self._c_feature_names(),
            scaler=self._c_scaler(),
            metrics=learn.EvalMetrics(float("nan"), float("nan"), float("nan")),
            origin="aggregated", created_tick=self.sim.clock,
        )
        self._global_artifact = artifact
        for owner in sorted(self.domains):
            self.route_send(self.active_aiml, owner, PayloadKind.MODEL_ARTIFACT,
                            self.sizes.artifact_bytes(global_params.param_count),
                            payload=artifact,
                            meta={"round": model.round_index + 1, "final": final})

    def _c_feature_names(self) -> list[str]:
        from .config import model_feature_names

        return model_feature_names(self.canonical, list(self.derived))

    def _c_scaler(self) -> pipeline.ScalingParams:
        names = self._c_feature_names()
        matrix = np.zeros((0, len(names)))
        return pipeline.fit_scaler(matrix, names, self.canonical, self.derived,
                                   self.config.pipeline.scaling) \
            if self.config.pipeline.scaling in ("schema_range", "none") \
            else pipeline.ScalingParams("none", names, np.zeros(len(names)),
                                        np.ones(len(names)))

    def _on_domain_eval(self, payload: dict[str, Any]) -> None:
        self._domain_evals[payload["domain"]] = payload
        if len(self._domain_evals) < len(self.domains):
            return
        evals = [self._domain_evals[d] for d in sorted(self._domain_evals)]
        total = sum(e["samples"] for e in evals)
        val_mse = sum(e["val_mse"] * e["samples"] for e in evals) / total
        test_mse = sum(e["test_mse"] * e["samples"] for e in evals) / total
        val_acc = sum(e["val_accuracy"] * e["samples"] for e in evals) / total
        test_acc = sum(e["test_accuracy"] * e["samples"] for e in evals) / total
        artifact = self._global_artifact
        artifact.metrics = learn.EvalMetrics(mse=val_mse, rmse=math.sqrt(val_mse),
                                             accuracy=val_acc)
        entry = self.registry.register(artifact, MODEL_ID, self.sim.clock, provenance={
            "scenario": "C", "dataset_config_hash": self.report.config_hash,
            "search_spec_hash": _search_hash(self.config)})
        self.registry.transition(entry, LifecycleState.VALIDATED, self.sim.clock)
        self._test_metrics = learn.EvalMetrics(mse=test_mse, rmse=math.sqrt(test_mse),
                                               accuracy=test_acc)
        for owner in sorted(self.domains):
            self.registry.deploy(entry, str(owner), self.sim.clock)
        self.sim.log_event("transition", src=self.active_aiml,
                           detail={"model": MODEL_ID, "version": entry.version,
                                   "state": "Deployed"})
        self._finish()

    # -- scenario C helpers shared with domain behaviors ---------------------------------------------------

    def build_local_split(self, spec: SourceSpec) -> pipeline.SplitDataset:
        records = self.local_cleansed_records(spec)
        provenance = pipeline.Provenance((str(spec.owner),), (0, 0), self.report.config_hash)
        ds = pipeline.Dataset(pipeline.Stage.CLEANSED, records, provenance)
        formatted = pipeline.format_dataset(ds, spec.canonical_schema(),
                                            {spec.owner: spec.rename})
        td = pipeline.transform(formatted, self.config.pipeline.scaling, self.derived)
        return pipeline.split(td, self.config.pipeline.split)

    def local_cleansed_records(self, spec: SourceSpec) -> datagen.RecordBatch:
        key = str(spec.owner)
        cache = self._local_data_cache
        if key not in cache:
            rng = datagen.derive_rng(self.config.seed, "datagen", spec.owner.kind.value,
                                     spec.owner.index, 0)
            ids = self.sim.next_record_ids(_batch_total(spec, spec.emission.size))
            records = datagen.generate_batch(spec, spec.emission.size, rng,
                                             id_start=ids.start, tick=self.sim.clock)
            cache[key] = self.local_cleanse(spec, records)
        return cache[key]

    def local_cleanse(self, spec: SourceSpec,
                      records: datagen.RecordBatch) -> datagen.RecordBatch:
        provenance = pipeline.Provenance((str(spec.owner),), (0, 0), self.report.config_hash)
        ds = pipeline.Dataset(pipeline.Stage.RAW, records, provenance)
        return pipeline.cleanse(ds).records

    # -- scenario A validation ------------------------------------------------------------------------------

    def _validate_import(self, raw: pipeline.Dataset) -> None:
        cfg = self.config
        artifact: ModelArtifact = self._pending_import
        cleansed = pipeline.cleanse(raw)
        renames = {s.owner: s.rename for s in cfg.sources}
        formatted = pipeline.format_dataset(cleansed, self.canonical, renames)
        n_val = min(len(formatted.records), cfg.external.validation_batch)
        records = formatted.records.take(slice(n_val))
        base = pipeline.base_design_matrix(records, self.canonical, self.derived)
        y = records.target
        try:
            if base.shape[1] != len(artifact.feature_names):
                raise InvalidArtifact(
                    f"artifact schema width {len(artifact.feature_names)} != "
                    f"local width {base.shape[1]}")
            entry = self.registry.register(
                artifact, MODEL_ID, self.sim.clock,
                provenance={"scenario": "A", "dataset_config_hash": self.report.config_hash,
                            "search_spec_hash": _search_hash(cfg)},
                validation=(base, y),
                mse_threshold=cfg.external.validation_mse_threshold)
        except InvalidArtifact as exc:
            self.sim.log_event("artifact_rejected", src=self.active_aiml,
                               detail={"reason": str(exc)})
            self.report.artifact_rejected = True
            self._finish()
            return
        self.count_inference(n_val)
        Xs = artifact.scaler.apply(base)
        self._test_metrics = learn.evaluate(artifact.parameters, artifact.kind, Xs, y,
                                            cfg.model.hyperparams.threshold)
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
            self.checkpoints.append(snap)
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
        self.sim.schedule(plan.checkpoint_interval, checkpoint)
        self.sim.schedule(plan.fail_tick, self._inject_failure)

    def _inject_failure(self) -> None:
        plan = self.plan
        assert plan is not None
        self.sim.fail_component(plan.target, self.sim.clock)
        self.sim.log_event("fault", src=plan.target,
                           detail={"kind": "component_failure", "tick": self.sim.clock})
        fault = FaultRecord(kind="component_failure", fault_tick=self.sim.clock)
        self._failover_fault = fault
        self.report.faults.append(fault)
        if not plan.replicas:
            self.sim.log_event("single_point_failure", src=plan.target, detail={})
            self.report.status = "failed"
            self.report.failure = "SinglePointFailure: no replica configured"
            self._finish()

    def on_promotion(self, replica: ComponentId, checkpoint: dict[str, Any] | None) -> None:
        plan = self.plan
        assert plan is not None
        tick = self.sim.clock
        self.sim.log_event("promotion", src=replica, detail={
            "failed": str(plan.target), "downtime": tick - plan.fail_tick})
        self.report.downtime_ticks = tick - plan.fail_tick
        if self._failover_fault is not None:
            self._failover_fault.detection_tick = tick
            self._pending_resolution = self._failover_fault
        old = self.active_aiml
        self.active_aiml = replica
        self.last_checkpoint_at_promotion = checkpoint
        if checkpoint is not None:
            self.registry = Registry.restore(checkpoint["registry"])
            self.restored_registry_snapshot = self.registry.snapshot()
        else:
            self.registry = Registry()
            self.restored_registry_snapshot = self.registry.snapshot()
        self.sim.log_event("mitigation", src=replica, detail={
            "mechanism": "failover_restore",
            "restored_entries": len(self.registry.entries),
            "resumed_phase": self.phase})
        self._resume_after_promotion(old)

    def _resume_after_promotion(self, old: ComponentId) -> None:
        if self.config.kind is ScenarioKind.C and self.config.mode == "share-models":
            pending = [r for r in sorted(self._domain_models)
                       if len(self._domain_models[r]) < len(self.domains)]
            round_index = pending[0] if pending else 1
            self._domain_models[round_index] = {}
            self._request_round(round_index)
            return
        entry = self.registry.entries.get(MODEL_ID)
        if self.phase == "deploy" and entry is not None and entry.state in (
                LifecycleState.VALIDATED, LifecycleState.DEPLOYED):
            self._deploy(entry)
        elif self.phase == "collect_validation":
            self._start_collection(purpose="validation")
        elif self.phase in ("collect", "train", "deploy"):
            self._start_collection()
        elif self.phase == "refine":
            self._restart_for_refinement()
        elif self.phase == "monitor":
            # in-flight monitor state died with the node; restart from the
            # checkpointed baseline with an empty window
            if entry is not None:
                self.monitor = MonitorWindow(
                    capacity=self.config.monitor.window,
                    baseline_mse=entry.artifact.metrics.mse,
                    drift_factor=self.config.monitor.drift_factor,
                    min_samples=self.config.monitor.min_samples,
                )
            self.monitor_samples = None
            if self._pending_resolution is not None:
                self._pending_resolution.resolution_tick = self.sim.clock
                self._pending_resolution = None

    # -- bookkeeping ---------------------------------------------------------------------------------------------

    def count_training(self, ticks: int) -> None:
        self.report.training_ticks += ticks
        if self.config.harness.scheduler is None:
            self.report.cost_ticks += ticks

    def count_inference(self, records: int) -> None:
        self.report.inference_ticks += records * self.costs.inference_tick_per_record

    def note_drift_fault(self, tick: int) -> None:
        if self._drift_fault is None:
            self._drift_fault = FaultRecord(kind="drift_shift", fault_tick=tick)
            self.report.faults.append(self._drift_fault)

    def _finish(self) -> None:
        if not self.sim.stopped:
            self.phase = "done"
            self.sim.log_event("run_complete", detail={"status": self.report.status})
            self.sim.stop()

    def _finalize(self) -> None:
        # no-op unless the event heap drained without a completion milestone
        self._finish()
        report = self.report
        report.final_tick = self.sim.clock
        report.event_count = len(self.sim.log.entries)
        report.signaling = harness.signaling_report(self.sim)
        report.poison = self._filter_stats
        entry = self.registry.entries.get(MODEL_ID)
        if entry is not None:
            test = self._test_metrics
            baseline = self._mean_predictor_mse()
            report.model = {
                "model_id": entry.model_id,
                "version": entry.version,
                "kind": entry.artifact.kind.value,
                "origin": entry.artifact.origin,
                "state": entry.state.value,
                "val_metrics": entry.artifact.metrics.to_dict(),
                "test_mse": test.mse if test else None,
                "test_rmse": test.rmse if test else None,
                "test_accuracy": test.accuracy if test else None,
                "baseline_test_mse": baseline,
                "deployments": self.registry.active_deployments(MODEL_ID),
            }
        faults = [f for f in report.faults if f.detection_tick is not None]
        if faults:
            first = report.faults[0]
            if first.detection_tick is not None:
                report.time_to_detection = first.detection_tick - first.fault_tick
            if first.resolution_tick is not None:
                report.time_to_resolution = first.resolution_tick - first.fault_tick

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


def _search_hash(config: ScenarioConfig) -> str:
    import hashlib
    import json as _json

    if config.search is None:
        return "none"
    blob = _json.dumps({
        "mode": config.search.mode,
        "grid": {k: list(v) for k, v in config.search.grid.items()},
        "ranges": {k: list(v) for k, v in config.search.ranges.items()},
        "budget": config.search.budget, "seed": config.search.seed,
    }, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _read_external_csv(path: str | None) -> str:
    from pathlib import Path

    if path is None or not Path(path).exists():
        raise FileNotFoundError(str(path))
    return Path(path).read_text()


# -- public entry points ---------------------------------------------------------------------------------------


def run_scenario(config: ScenarioConfig) -> RunResult:
    """Execute whichever scenario the config declares."""
    if config.kind is ScenarioKind.A:
        return run_scenario_a(config)
    if config.kind is ScenarioKind.B:
        return run_scenario_b(config)
    return run_scenario_c(config)


def run_scenario_a(config: ScenarioConfig) -> RunResult:
    if config.kind is not ScenarioKind.A:
        raise SimulationError("config does not describe scenario A")
    return Driver(config).run()


def run_scenario_b(config: ScenarioConfig) -> RunResult:
    if config.kind is not ScenarioKind.B:
        raise SimulationError("config does not describe scenario B")
    if not config.sources:
        raise NoDataSources("scenario B needs at least one data source")
    return Driver(config).run()


def run_scenario_c(config: ScenarioConfig) -> RunResult:
    if config.kind is not ScenarioKind.C:
        raise SimulationError("config does not describe scenario C")
    domains = {s.owner for s in config.sources}
    if len(domains) < 2:
        raise InsufficientDomains("scenario C needs at least two domains")
    return Driver(config).run()
