"""Run-level invariants that every finished run must satisfy, whatever its status.

``check_invariants(result)`` asserts them on a :class:`smosim.scenarios.RunResult`;
``checked_run(config)`` runs a config and checks its result.
"""

from __future__ import annotations

import json
import math

from smosim import run_scenario
from smosim.config import ScenarioConfig, ScenarioKind
from smosim.errors import SimulationError
from smosim.lifecycle import LEGAL_TRANSITIONS, LifecycleState
from smosim.scenarios import RunResult, report_from
from smosim.topology import Event, EventLog

# the origin of a model that was never refined; a refined version is "internal"
_SCENARIO_ORIGIN = {(ScenarioKind.A, "import-model"): "external",
                    (ScenarioKind.C, "share-models"): "aggregated"}
_LEGAL = {(a.value, b.value) for a, b in LEGAL_TRANSITIONS}
_REFINED = (LifecycleState.REFINING.value, LifecycleState.TRAINED.value)


def _error_names(cls: type = SimulationError) -> set[str]:
    """The names of SimulationError and of all its subclasses."""
    return {cls.__name__}.union(*map(_error_names, cls.__subclasses__()))


def check_invariants(result: RunResult) -> None:
    entries = list(result.sim.log.entries)  # each read of the log builds its events anew
    keys = [(e.tick, e.seq) for e in entries]
    assert keys == sorted(keys), "events are not sorted by (tick, seq)"
    completes = [i for i, e in enumerate(entries) if e.type == "run_complete"]
    assert completes == [len(entries) - 1], \
        f"run_complete at {completes} of {len(entries)} events"

    # the log is the one record of the model lifecycle: each step is a
    # registration (from None) or a legal transition
    steps = [(e.detail["from"], e.detail["state"]) for e in entries if e.type == "transition"]
    for step in steps:
        assert step[0] is None or step in _LEGAL, f"illegal lifecycle step {step}"
    # and a chain: each step starts from the state the model's last step
    # entered, or from one a failover restored since (None if it lost the model)
    states: dict[str, set[str | None]] = {}
    for e in entries:
        if e.type == "transition":
            model, start = e.detail["model"], e.detail["from"]
            known = states.get(model, {None})
            assert start in known, \
                f"step of {model} at {e.tick} starts from {start}, the log has {known}"
            states[model] = {e.detail["state"]}
        elif e.type == "mitigation" and e.detail["mechanism"] == "failover_restore":
            model = e.detail["model"]
            states[model] = states.get(model, {None}) | {e.detail["state"]}

    # message conservation: each delivery or drop ends exactly one earlier send
    # of the same message, unchanged, after its interface's latency
    latency = {name.value: spec.latency
               for name, spec in result.sim.topology.interfaces.items()}
    sent: dict[int, Event] = {}
    ended: set[int] = set()
    for e in entries:
        if e.type not in ("send", "deliver", "component_down"):
            continue
        msg_id = e.detail["msg_id"]
        if e.type == "send":
            assert msg_id not in sent, f"message {msg_id} sent twice"
            sent[msg_id] = e
            continue
        assert msg_id in sent, f"{e.type} of message {msg_id} follows no send"
        assert msg_id not in ended, f"message {msg_id} ends twice"
        ended.add(msg_id)
        send = sent[msg_id]
        assert (e.src, e.dst, e.interface, e.payload_kind, e.bytes) == (
            send.src, send.dst, send.interface, send.payload_kind, send.bytes), \
            f"message {msg_id} changed in flight: {send} -> {e}"
        assert e.tick - send.tick == latency[e.interface], \
            f"message {msg_id} took {e.tick - send.tick} ticks on {e.interface}"

    # the drift rule, read back from the log: a drift is detected right after the
    # report whose window tripped it, at its tick, on its window MSE
    drift_factor = result.driver.config.monitor.drift_factor
    for prev, e in zip(entries, entries[1:]):
        if e.type != "drift_detected":
            continue
        assert (prev.type, prev.tick, prev.detail.get("window_mse")) == (
            "report_ingested", e.tick, e.detail["window_mse"]), \
            f"drift at {e.tick} does not follow the report that tripped it: {prev}"
        assert e.detail["window_mse"] > e.detail["baseline_mse"] * drift_factor, \
            f"drift at {e.tick} below the threshold: {e.detail}"

    report = result.report
    for f in report.faults:
        ticks = [f.fault_tick, f.detection_tick, f.resolution_tick]
        known = [t for t in ticks if t is not None]
        # set ticks come first (no resolution without a detection) and in order
        assert ticks[:len(known)] == known == sorted(known), f"fault ticks out of order: {f}"
        assert known[-1] <= report.final_tick, f"fault ticks past the final tick: {f}"
    assert report.downtime_ticks is None or report.downtime_ticks >= 0, \
        f"negative downtime {report.downtime_ticks}"
    failures = [e for e in entries
                if e.type == "fault" and e.detail["kind"] == "component_failure"]
    for e in entries:
        if e.type == "promotion":
            assert failures and failures[0].seq < e.seq, \
                f"promotion at {e.tick} precedes its fault"
    # a promoted replica resumes the phase the log last entered
    phase = "idle"
    for e in entries:
        if e.type == "phase":
            phase = e.detail["phase"]
        elif e.type == "mitigation" and e.detail["mechanism"] == "failover_restore":
            assert e.detail["resumed_phase"] == phase, \
                f"restore at {e.tick} resumes {e.detail['resumed_phase']}, the log is in {phase}"

    # a model, once the run holds one, is refined and never trained afresh: no
    # training job follows a restore of a model, and import-model trains none
    holds_model = result.driver.config.mode == "import-model"
    for e in entries:
        if e.type == "mitigation" and e.detail["mechanism"] == "failover_restore":
            holds_model = holds_model or e.detail["version"] is not None
        elif e.type == "job_scheduled" and e.detail["job"] == "training":
            assert not holds_model, f"training job at {e.tick} trains a model the run holds"

    # the report is a fold of the log: the log re-read from the lines a run
    # writes to events.jsonl gives the same report text
    reread = EventLog(map(Event.from_json, result.sim.log.to_jsonl().splitlines()))
    assert json.dumps(report_from(result.driver.config, reread).to_dict()) == \
        json.dumps(report.to_dict()), "the report differs from the fold of its re-read log"

    if report.status == "failed":
        named = (report.failure or "").split(":")[0]
        assert named in _error_names(), f"failure {report.failure!r} names no SimulationError"
    if report.status != "completed":
        return
    assert report.failure is None, f"completed run names failure {report.failure!r}"
    assert report.model is not None or report.artifact_rejected, "completed run has no model"
    unresolved = [f for f in report.faults
                  if f.detection_tick is not None and f.resolution_tick is None]
    assert not unresolved or report.artifact_rejected, \
        f"completed run leaves detected faults unresolved: {unresolved}"
    config: ScenarioConfig = result.driver.config
    scenario_origin = _SCENARIO_ORIGIN.get((config.kind, config.mode), "internal")
    refined = _REFINED in steps
    origins = {scenario_origin} | ({"internal"} if refined else set())
    artifacts = [(f"registry {e.model_id}", e.artifact)
                 for e in result.registry.entries.values()]
    artifacts += [(f"target {cid}", t.artifact) for cid, t in result.driver.targets.items()
                  if t.artifact is not None]
    for where, artifact in artifacts:
        assert all(math.isfinite(v) for v in artifact.parameters.to_list()), \
            f"{where}: non-finite parameters"
        assert artifact.origin in origins, \
            f"{where}: origin {artifact.origin!r}, expected one of {sorted(origins)}"
    if report.model is not None:
        assert report.model["origin"] in origins


def checked_run(config: ScenarioConfig) -> RunResult:
    result = run_scenario(config)
    check_invariants(result)
    return result
