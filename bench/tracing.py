"""Per-layer tracing of smosim from outside the package.

A :class:`Tracer` replaces chosen public functions and methods of the smosim
modules with wrappers that record one span (name, start, end, parent) per
call and bump counters computed from the call's arguments and result. Spans
stay in memory; :func:`layer_metrics` turns them into the per-layer metrics
once the run has ended. Nothing inside ``src/`` changes.

The traced functions are the layer boundaries: what one layer calls in
another, plus each layer's entry points. Per-record and per-event helpers
(``ManagementRecord.copy``, ``Event.to_json``, ``Topology.neighbors``,
``Simulation.schedule``, ``learn.loss_gradient`` and the like) are left
unwrapped on purpose: a wrapper costs about as much as such a call, so their
time is measured as self time of the traced function that calls them.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter
from typing import Any, Callable

# layer (smosim module) -> traced attributes; "Class.method" names a method
TRACED: dict[str, tuple[str, ...]] = {
    "config": ("config_from_dict", "ScenarioConfig.config_hash"),
    "datagen": ("derive_rng", "generate_batch", "shifted"),
    "harness": ("poison_inject", "privacy_transform", "validation_filter",
                "poison_detection_report", "signaling_report"),
    "pipeline": ("cleanse", "format_dataset", "transform", "explore", "split",
                 "reapply_transform"),
    "learn": ("train", "search", "evaluate", "incremental_update"),
    "lifecycle": ("MonitorWindow.ingest", "MonitorWindow.mse", "MonitorWindow.detect_drift",
                  "ModelArtifact.predict", "Registry.register", "Registry.reregister",
                  "Registry.transition", "Registry.deploy", "Registry.active_deployments"),
    "topology": ("build_topology", "Simulation.send", "Simulation.log_event",
                 "Simulation.run_to_completion", "Simulation.signaling_table",
                 "EventLog.to_jsonl"),
    "scenarios": ("run_scenario", "aggregate", "Driver.next_hop", "Driver.route_send",
                  "RunReport.to_dict"),
}

LAYERS = tuple(TRACED)


# -- counters, computed at the span boundary from (bound arguments, result) ------------


def _sgd_steps(a: dict[str, Any]) -> int:
    if not a["kind"].is_sgd:
        return 0
    hp, n = a["hp"], len(a["split"].train)
    return hp.epochs * math.ceil(n / hp.batch_size)


COUNTERS: dict[str, Callable[[Counter, dict[str, Any], Any], None]] = {
    "datagen.generate_batch":
        lambda c, a, r: c.update({"datagen.generate_batch.records": len(r)}),
    "harness.poison_inject":
        lambda c, a, r: c.update({"harness.poison_inject.records": len(a["records"])}),
    "harness.privacy_transform":
        lambda c, a, r: c.update({"harness.privacy_transform.records": len(a["records"])}),
    "harness.validation_filter":
        lambda c, a, r: c.update({"harness.validation_filter.records": len(a["records"]),
                                  "harness.validation_filter.kept": len(r[0])}),
    "pipeline.cleanse":
        lambda c, a, r: c.update({"pipeline.cleanse.records_in": len(a["d"].records),
                                  "pipeline.cleanse.kept": len(r.records)}),
    "pipeline.format_dataset":
        lambda c, a, r: c.update({"pipeline.format_dataset.records": len(r.records)}),
    "pipeline.transform":
        lambda c, a, r: c.update({"pipeline.transform.rows": len(r)}),
    "pipeline.reapply_transform":
        lambda c, a, r: c.update({"pipeline.reapply_transform.rows": len(a["records"])}),
    "learn.train":
        lambda c, a, r: c.update({"learn.train.sgd_steps": _sgd_steps(a)}),
    "learn.search":
        lambda c, a, r: c.update({"learn.search.trials": len(r.trials),
                                  "learn.search.ok_trials":
                                      sum(1 for t in r.trials if not t.failed)}),
    "learn.incremental_update":
        lambda c, a, r: c.update({"learn.incremental_update.samples": a["X"].shape[0]}),
    "learn.evaluate":
        lambda c, a, r: c.update({"learn.evaluate.rows": a["X"].shape[0]}),
    "topology.EventLog.to_jsonl":
        lambda c, a, r: c.update({"topology.EventLog.to_jsonl.events": len(a["self"].entries),
                                  "topology.EventLog.to_jsonl.bytes": len(r.encode())}),
}


class Tracer:
    """Records spans and counters for the functions named in :data:`TRACED`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # (name index, start, end, parent span index or -1); a slot is None while open
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        """Wrap every traced attribute wherever smosim code looks it up."""
        for layer, attrs in TRACED.items():
            module = sys.modules[f"smosim.{layer}"]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if not inspect.isfunction(raw):
                        raise TypeError(f"{layer}.{attr} is not a plain method")
                    self._set(cls, meth, self._wrap(f"{layer}.{attr}", raw))
                else:
                    fn = getattr(module, attr)
                    wrapper = self._wrap(f"{layer}.{attr}", fn)
                    # `from .x import f` binds f in other modules too
                    for name, mod in list(sys.modules.items()):
                        if name == "smosim" or name.startswith("smosim."):
                            for key, value in list(vars(mod).items()):
                                if value is fn:
                                    self._set(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def _set(self, owner: Any, key: str, value: Any) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def _wrap(self, name: str, fn: Any) -> Any:
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counters, count = self.counters, COUNTERS.get(name)
        signature = inspect.signature(fn) if count else None

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if count is not None:
                count(counters, signature.bind(*args, **kwargs).arguments, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def results(self, run_window: tuple[float, float], event_types: Counter) -> dict[str, Any]:
        """Per-layer metrics, raw counters and spans (times from run start)."""
        spans = [(self.names[n], s, e, p) for n, s, e, p in self.spans]  # type: ignore[misc]
        run_start = run_window[0]
        return {
            "layers": layer_metrics(spans, self.counters, run_window, event_types),
            "counters": dict(self.counters),
            "spans": {"names": self.names,
                      "rows": [[n, s - run_start, e - run_start, p]
                               for n, s, e, p in self.spans]},  # type: ignore[misc]
        }


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children are clipped to their parent's interval and overlapping children
    are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_name, start, end, _parent) in enumerate(spans):
        # merge the clipped child intervals in start order; [lo, hi] is the open run
        covered, lo, hi = 0.0, None, None
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if hi is None or c_start > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_start, c_end
            else:
                hi = max(hi, c_end)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out


def _ratio(num: float, den: float) -> float:
    """A share of attempts that succeeded; nothing attempted means nothing lost."""
    return num / den if den else 1.0


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("share", "ratio")):
        return "ratio"
    if metric.endswith(".bytes"):
        return "bytes"
    return "count"


def layer_metrics(spans: list[tuple[str, float, float, int]], counters: Counter,
                  run_window: tuple[float, float], event_types: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``run_window`` is the (start, end) of the timed run on the span clock;
    ``<layer>.share`` is the layer's self time inside that window divided by
    its length. ``event_types`` counts the run's event log by type.
    """
    start, end = run_window
    run_s = end - start
    calls: Counter = Counter()
    self_s = {f"{layer}.{a}": 0.0 for layer, attrs in TRACED.items() for a in attrs}
    layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for (name, s, e, _parent), own in zip(spans, self_times(spans)):
        calls[name] += 1
        self_s[name] += own
        if s >= start and e <= end:
            layer_self[name.split(".", 1)[0]] += own
    out: dict[str, float] = {}
    for name in self_s:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for layer in LAYERS:
        out[f"{layer}.share"] = layer_self[layer] / run_s
    c = counters
    for key in ("datagen.generate_batch.records", "harness.poison_inject.records",
                "harness.privacy_transform.records", "harness.validation_filter.records",
                "pipeline.cleanse.records_in", "pipeline.format_dataset.records",
                "pipeline.transform.rows", "pipeline.reapply_transform.rows",
                "learn.train.sgd_steps", "learn.search.trials",
                "learn.incremental_update.samples", "learn.evaluate.rows",
                "topology.EventLog.to_jsonl.events", "topology.EventLog.to_jsonl.bytes"):
        out[key] = c[key]
    out["harness.validation_filter.kept_ratio"] = _ratio(
        c["harness.validation_filter.kept"], c["harness.validation_filter.records"])
    out["pipeline.cleanse.kept_ratio"] = _ratio(
        c["pipeline.cleanse.kept"], c["pipeline.cleanse.records_in"])
    out["learn.search.ok_trial_ratio"] = _ratio(
        c["learn.search.ok_trials"], c["learn.search.trials"])
    train_s = self_s["learn.train"]
    out["learn.train.sgd_steps_per_s"] = c["learn.train.sgd_steps"] / train_s if train_s else 0.0
    out["topology.delivered_ratio"] = _ratio(
        event_types["deliver"], event_types["deliver"] + event_types["component_down"])
    out["trace.layer_self_s"] = sum(layer_self.values())
    out["trace.run_s"] = run_s
    return out
