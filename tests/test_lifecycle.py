"""Registry state machine, artifacts, monitoring window, drift rule."""

from __future__ import annotations

import json
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smosim.config import MAX_WIDTH, FeatureSpec, ModelKind
from smosim.datagen import RecordBatch
from smosim.errors import IllegalTransition, InvalidArtifact
from smosim.learn import EvalMetrics, LinearParams, StumpParams
from smosim.lifecycle import (
    LEGAL_TRANSITIONS,
    LifecycleState,
    ModelArtifact,
    MonitorWindow,
    Registry,
    load_artifact,
)
from smosim.pipeline import ScalingParams

from conftest import record_batch, save_artifact


def _artifact(width: int = 2, origin: str = "internal", mse: float = 0.01) -> ModelArtifact:
    names = [f"f{i}" for i in range(width)]
    return ModelArtifact(
        kind=ModelKind.LINEAR_SGD,
        parameters=LinearParams(np.ones(width), 0.5),
        feature_names=names,
        scaler=ScalingParams("none", names, np.zeros(width), np.ones(width)),
        metrics=EvalMetrics(mse, mse ** 0.5, 1.0),
        origin=origin,
    )


def _registry() -> tuple[Registry, list[tuple[int, str | None, str]]]:
    """A registry and the (version, from, state) of each step it reports, in order."""
    steps: list[tuple[int, str | None, str]] = []
    reg = Registry(lambda entry, before: steps.append(
        (entry.version, None if before is None else before.value, entry.state.value)))
    return reg, steps


class TestRegister:
    def test_internal_artifact_enters_trained_v1(self):
        reg, steps = _registry()
        entry = reg.register(_artifact(), "m0")
        assert entry.version == 1
        assert entry.state is LifecycleState.TRAINED
        assert steps == [(1, None, "Trained")]

    def test_width_mismatch_rejected(self):
        with pytest.raises(InvalidArtifact):
            ModelArtifact(
                kind=ModelKind.LINEAR_SGD,
                parameters=LinearParams(np.ones(3), 0.0),
                feature_names=["a", "b"],
                scaler=ScalingParams("none", ["a", "b"], np.zeros(2), np.ones(2)),
                metrics=EvalMetrics(0.0, 0.0, 1.0),
            )

    def test_an_artifact_wider_than_the_bound_is_rejected(self):
        # its bytes on the wire would overflow the event log's int64 column
        assert _artifact(width=MAX_WIDTH).param_count == MAX_WIDTH + 1
        with pytest.raises(InvalidArtifact, match="exceeds"):
            _artifact(width=MAX_WIDTH + 1)

    @pytest.mark.parametrize("offset, scale", [(3, 2), (2, 3), (3, 3)])
    def test_scaler_width_mismatch_rejected(self, offset, scale):
        with pytest.raises(InvalidArtifact):
            ModelArtifact(
                kind=ModelKind.LINEAR_SGD,
                parameters=LinearParams(np.ones(2), 0.0),
                feature_names=["a", "b"],
                scaler=ScalingParams("none", ["a", "b"], np.zeros(offset), np.ones(scale)),
                metrics=EvalMetrics(0.0, 0.0, 1.0),
            )

    def test_external_needs_validation_and_threshold(self):
        reg, steps = _registry()
        art = _artifact(origin="external")
        X = np.random.default_rng(0).uniform(size=(50, 2))
        y = X @ np.ones(2) + 0.5
        with pytest.raises(InvalidArtifact):  # no class threshold to score accuracy at
            reg.register(art, "ext", validation=(X, y), mse_threshold=0.01)
        entry = reg.register(art, "ext", validation=(X, y), mse_threshold=0.01, threshold=0.5)
        assert entry.state is LifecycleState.VALIDATED
        assert steps == [(1, None, "Validated")]

    def test_external_failing_threshold_rejected(self):
        reg, steps = _registry()
        art = _artifact(origin="external")
        X = np.random.default_rng(0).uniform(size=(50, 2))
        y = X @ np.ones(2) + 5.0  # bias far off
        with pytest.raises(InvalidArtifact):
            reg.register(art, "ext", validation=(X, y), mse_threshold=0.01, threshold=0.5)
        assert not reg.entries and not steps

    def test_external_artifact_is_validated_through_its_scaler(self):
        # a "none" scaler may still carry an offset, and inference applies it
        names = ["f0"]
        art = ModelArtifact(
            kind=ModelKind.LINEAR_SGD, parameters=LinearParams(np.array([2.0]), 0.0),
            feature_names=names, scaler=ScalingParams("none", names, np.array([0.5]),
                                                      np.ones(1)),
            metrics=EvalMetrics(0.0, 0.0, 1.0), origin="external")
        X = np.random.default_rng(0).uniform(size=(50, 1))
        reg, _ = _registry()
        entry = reg.register(art, "ext", validation=(X, 2.0 * X[:, 0] - 1.0),
                             mse_threshold=1e-12, threshold=0.5)
        assert entry.artifact.metrics.mse == 0.0
        with pytest.raises(InvalidArtifact):
            _registry()[0].register(art, "ext", validation=(X, 2.0 * X[:, 0]),
                                    mse_threshold=0.05, threshold=0.5)

    def test_external_schema_width_checked_against_validation(self):
        reg = Registry(lambda entry, before: None)
        art = _artifact(width=2, origin="external")
        X = np.zeros((5, 3))
        with pytest.raises(InvalidArtifact):
            reg.register(art, "ext", validation=(X, np.zeros(5)), mse_threshold=1.0,
                         threshold=0.5)

    def test_reregistration_bumps_version_and_reports_each_step(self):
        reg, steps = _registry()
        entry = reg.register(_artifact(), "m0")
        reg.transition(entry, LifecycleState.VALIDATED)
        reg.deploy(entry, "MdaSystem3GPP#0")
        reg.transition(entry, LifecycleState.MONITORED)
        reg.transition(entry, LifecycleState.REFINING)
        refined = _artifact()
        entry = reg.reregister("m0", refined)
        assert entry.version == refined.version == 2 and entry.artifact is refined
        assert entry.state is LifecycleState.TRAINED
        # the reregistration's step carries the new version
        assert steps == [
            (1, None, "Trained"), (1, "Trained", "Validated"), (1, "Validated", "Deployed"),
            (1, "Deployed", "Monitored"), (1, "Monitored", "Refining"),
            (2, "Refining", "Trained")]

    def test_illegal_reregistration_leaves_the_entry_unchanged(self):
        reg, steps = _registry()
        entry = reg.register(_artifact(), "m0")
        reg.transition(entry, LifecycleState.VALIDATED)
        reg.deploy(entry, "MdaSystem3GPP#0")
        artifact, refined = entry.artifact, _artifact()
        with pytest.raises(IllegalTransition):
            reg.reregister("m0", refined)
        assert (entry.version, entry.state, refined.version) == (1, LifecycleState.DEPLOYED, 1)
        assert entry.artifact is artifact
        assert steps[-1] == (1, "Validated", "Deployed")


class TestTransitions:
    def test_trained_to_validated_allowed(self):
        reg, steps = _registry()
        entry = reg.register(_artifact(), "m0")
        reg.transition(entry, LifecycleState.VALIDATED)
        assert entry.state is LifecycleState.VALIDATED
        assert steps[-1] == (1, "Trained", "Validated")

    def test_collected_to_deployed_rejected(self):
        reg, steps = _registry()
        entry = reg.register(_artifact(), "m0")
        entry.state = LifecycleState.COLLECTED
        with pytest.raises(IllegalTransition):
            reg.transition(entry, LifecycleState.DEPLOYED)
        assert entry.state is LifecycleState.COLLECTED and len(steps) == 1

    def test_refinement_cycle_reports_three_transitions(self):
        reg, steps = _registry()
        entry = reg.register(_artifact(), "m0")
        entry.state = LifecycleState.MONITORED
        steps.clear()
        for to in (LifecycleState.REFINING, LifecycleState.TRAINED,
                   LifecycleState.VALIDATED):
            reg.transition(entry, to)
        assert steps == [(1, "Monitored", "Refining"), (1, "Refining", "Trained"),
                         (1, "Trained", "Validated")]

    def test_deploy_requires_validated(self):
        reg, steps = _registry()
        entry = reg.register(_artifact(), "m0")
        with pytest.raises(IllegalTransition):
            reg.deploy(entry, "MdaSystem3GPP#0")
        assert not reg.deployments and len(steps) == 1

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(list(LifecycleState)), min_size=1, max_size=12),
           st.sampled_from([LifecycleState.COLLECTED, LifecycleState.TRAINED]))
    def test_fuzzed_histories_stay_inside_legal_digraph(self, targets, start):
        reg, steps = _registry()
        entry = reg.register(_artifact(), "m0")
        entry.state = start
        steps.clear()
        taken = []
        for to in targets:
            before = entry.state
            if (before, to) in LEGAL_TRANSITIONS:
                reg.transition(entry, to)
                taken.append((1, before.value, to.value))
            else:
                with pytest.raises(IllegalTransition):
                    reg.transition(entry, to)
                assert entry.state is before
        # every legal step is reported, once and in order, and nothing else is
        assert steps == taken
        for _, frm, to in steps:
            assert (LifecycleState(frm), LifecycleState(to)) in LEGAL_TRANSITIONS


class TestDeployments:
    def test_single_active_version_per_target(self):
        reg, steps = _registry()
        entry = reg.register(_artifact(), "m0")
        reg.transition(entry, LifecycleState.VALIDATED)
        reg.deploy(entry, "NFMF#0")
        reg.deploy(entry, "MdaSystem3GPP#0")  # already Deployed: no second step
        reg.transition(entry, LifecycleState.MONITORED)
        reg.transition(entry, LifecycleState.REFINING)
        entry = reg.reregister("m0", _artifact())
        reg.transition(entry, LifecycleState.VALIDATED)
        reg.deploy(entry, "NFMF#0")
        assert reg.deployments == {("m0", "NFMF#0"): 2, ("m0", "MdaSystem3GPP#0"): 1}
        assert reg.active_deployments("m0") == {"NFMF#0": 2, "MdaSystem3GPP#0": 1}
        assert reg.active_deployments("m1") == {}
        assert [s for s in steps if s[2] == "Deployed"] == [(1, "Validated", "Deployed"),
                                                            (2, "Validated", "Deployed")]


class TestCheckpoints:
    def test_snapshot_restore_roundtrip_exact(self):
        reg, _ = _registry()
        entry = reg.register(_artifact(), "m0")
        reg.transition(entry, LifecycleState.VALIDATED)
        reg.deploy(entry, "MdaSystemNFV#0")
        snap = reg.snapshot()
        restored_steps: list = []
        restored = Registry.restore(snap, lambda e, before: restored_steps.append(
            (before.value, e.state.value)))
        assert restored.snapshot() == snap
        assert restored.active_deployments("m0") == {"MdaSystemNFV#0": 1}
        # the restored registry reports its steps to the callable it was given
        restored.transition(restored.entries["m0"], LifecycleState.MONITORED)
        assert restored_steps == [("Deployed", "Monitored")]

    def test_artifact_file_roundtrip(self, tmp_path):
        art = _artifact()
        path = tmp_path / "artifact.json"
        save_artifact(art, path)
        back = load_artifact(path)
        assert back.to_dict() == art.to_dict()

    @pytest.mark.parametrize("text", [None, "{not json", "\udcff"])
    def test_unreadable_artifact_rejected(self, tmp_path, text):
        path = tmp_path / "artifact.json"
        if text is not None:
            path.write_text(text, errors="surrogateescape")  # "\udcff": one non-UTF-8 byte
        with pytest.raises(InvalidArtifact):
            load_artifact(path)

    def test_malformed_artifact_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "LinearSgd"}')
        with pytest.raises(InvalidArtifact):
            load_artifact(path)

    # (kind, the payload's key path, a JSON number written in its place)
    @pytest.mark.parametrize("kind, where, number", [
        ("LinearSgd", ("version",), "1e999"),
        ("LinearSgd", ("created_tick",), "1e999"),
        ("LinearSgd", ("metrics", "train_ticks"), "1e999"),
        ("LinearSgd", ("metrics", "inference_ticks"), "-1e999"),
        ("DecisionStump", ("parameters", 0), "1e999"),
        ("DecisionStump", ("parameters", 0), "-1"),
        ("DecisionStump", ("parameters", 0), "1.7"),
        ("LinearSgd", ("version",), "1.7"),
        ("LinearSgd", ("version",), '"3"'),
        ("LinearSgd", ("version",), "true"),
        ("LinearSgd", ("version",), "-1"),
        ("LinearSgd", ("created_tick",), "-5"),
        ("LinearSgd", ("created_tick",), "null"),
        ("LinearSgd", ("metrics", "train_ticks"), "2.9"),
        ("LinearSgd", ("metrics", "train_ticks"), "false"),
        ("LinearSgd", ("metrics", "inference_ticks"), '"4"'),
        ("LinearSgd", ("metrics", "inference_ticks"), "-2.0"),
    ])
    def test_an_out_of_range_number_is_an_invalid_artifact(self, tmp_path, kind, where, number):
        """Numbers that an int of them would overflow on, or would read as
        another stump feature than they name (-1 as the last column, 1.7
        as column 1), and counts that are not whole numbers >= 0 (1.7 would
        read as version 1, "3" as 3 and true as 1)."""
        artifact = _artifact()
        if kind == "DecisionStump":
            artifact = ModelArtifact(kind=ModelKind.DECISION_STUMP,
                                     parameters=StumpParams(1, 0.5, 0.0, 1.0),
                                     feature_names=artifact.feature_names,
                                     scaler=artifact.scaler, metrics=artifact.metrics)
        payload = artifact.to_dict()
        *parents, last = where
        target = payload
        for key in parents:
            target = target[key]
        target[last] = "NUMBER"
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps(payload).replace('"NUMBER"', number))
        with pytest.raises(InvalidArtifact):
            load_artifact(path)


def _report(targets, start_id: int = 0) -> RecordBatch:
    """A report of one sample per target, with record ids from ``start_id``."""
    targets = list(targets)
    return record_batch([FeatureSpec("x", valid_range=(0.0, 1.0))],
                        [{"x": 0.5}] * len(targets), targets=targets,
                        ids=list(range(start_id, start_id + len(targets))))


class TestMonitorWindow:
    def test_keeps_the_fewest_recent_reports_that_hold_the_last_capacity_samples(self):
        w = MonitorWindow(capacity=3, baseline_mse=1.0, drift_factor=1.5, min_samples=1)
        for r in range(3):
            w.ingest(_report([0.0, 0.0], start_id=2 * r), np.array([1.0, 2.0]))
        assert [list(records.record_id) for records, _ in w.reports] == [[2, 3], [4, 5]]
        assert len(w) == 3
        assert list(w.samples().record_id) == [3, 4, 5]
        assert w.mse() == (4.0 + 1.0 + 4.0) / 3

    def test_zero_error_contribution(self):
        w = MonitorWindow(capacity=3, baseline_mse=1.0, drift_factor=1.5, min_samples=1)
        w.ingest(_report([1.0]), [1.0])
        assert w.mse() == 0.0

    def test_empty_window(self):
        w = MonitorWindow(capacity=3, baseline_mse=1.0, drift_factor=1.5, min_samples=1)
        assert len(w) == 0 and w.mse() == 0.0 and w.detect_drift() is False

    def test_clear_empties_the_window_and_sets_the_new_baseline(self):
        w = MonitorWindow(capacity=3, baseline_mse=1.0, drift_factor=1.5, min_samples=1)
        w.ingest(_report([0.0, 0.0]), [5.0, 5.0])
        w.clear(new_baseline=0.25)
        assert len(w) == 0 and not w.reports and w.baseline_mse == 0.25

    def test_running_mse_equals_recomputation(self):
        rng = np.random.default_rng(4)
        w = MonitorWindow(capacity=16, baseline_mse=1.0, drift_factor=1.5, min_samples=1)
        pairs: list[tuple[float, float]] = []
        for _ in range(12):
            n = int(rng.integers(1, 8))
            preds, actuals = rng.normal(size=n), rng.normal(size=n)
            w.ingest(_report(actuals, start_id=len(pairs)), preds)
            pairs += zip(preds.tolist(), actuals.tolist())
            window = pairs[-16:]
            assert w.mse() == sum((p - a) ** 2 for p, a in window) / len(window)

    @settings(max_examples=200, deadline=None)
    @given(capacity=st.integers(1, 12),
           reports=st.lists(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                                     min_size=1, max_size=9), min_size=1, max_size=10))
    def test_the_window_holds_the_last_capacity_samples_of_whole_reports(self, capacity,
                                                                         reports):
        w = MonitorWindow(capacity=capacity, baseline_mse=1.0, drift_factor=1.5,
                          min_samples=1)
        pairs: list[tuple[float, float]] = []
        batches: list[RecordBatch] = []
        for report in reports:
            batches.append(_report([a for _, a in report], start_id=len(pairs)))
            w.ingest(batches[-1], np.array([p for p, _ in report]))
            pairs += report
            window = pairs[-capacity:]
            assert w.mse() == sum((p - a) ** 2 for p, a in window) / len(window)
            assert len(w) == min(capacity, len(pairs))
            expected = RecordBatch.concat(batches).take(slice(-capacity, None))
            held = w.samples()
            assert held.record_id.tolist() == expected.record_id.tolist()
            assert held.target.tolist() == expected.target.tolist()
            assert held.columns["x"].tolist() == expected.columns["x"].tolist()
            # the oldest kept report holds samples of the window
            assert sum(len(records) for records, _ in list(w.reports)[1:]) < len(w)


    def test_ingest_len_mse_and_drift_walk_no_report(self):
        class Unwalkable(deque):
            def __iter__(self):
                raise AssertionError("the window walked its reports")

        w = MonitorWindow(capacity=4, baseline_mse=1.0, drift_factor=1.5, min_samples=1)
        w.reports = Unwalkable()
        for r in range(5):
            w.ingest(_report([0.0, 0.0], start_id=2 * r), np.array([1.0, 3.0]))
            assert len(w) == min(4, 2 * (r + 1))
            assert w.mse() == 5.0 and w.detect_drift() is True
            assert len(w.reports) == min(r + 1, 2)


class TestDriftRule:
    def _window(self, n: int, err: float, baseline=1.0, factor=1.5, min_samples=4):
        w = MonitorWindow(capacity=10, baseline_mse=baseline, drift_factor=factor,
                          min_samples=min_samples)
        for i in range(n):
            w.ingest(_report([0.0], start_id=i), [err])
        return w

    def test_detects_when_above_threshold_with_full_buffer(self):
        w = self._window(6, err=2.0 ** 0.5)  # window mse 2.0 > 1.5
        assert w.detect_drift() is True

    def test_insufficient_evidence(self):
        w = self._window(3, err=10.0)
        assert w.detect_drift() is False

    def test_one_report_counts_each_of_its_samples(self):
        w = MonitorWindow(capacity=10, baseline_mse=1.0, drift_factor=1.5, min_samples=4)
        w.ingest(_report([0.0] * 4), [10.0] * 4)
        assert w.detect_drift() is True

    def test_equal_to_baseline_is_not_drift(self):
        w = self._window(6, err=1.0, baseline=1.0, factor=1.5)
        assert w.mse() == pytest.approx(1.0)
        assert w.detect_drift() is False
