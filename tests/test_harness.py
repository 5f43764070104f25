"""Fault injection, filtering, privacy, scheduling, signaling accounting."""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smosim.config import (MAX_JOB_CLASSES, FeatureSpec, FilterSpec, JobClass, PoisonSpec,
                           PrivacySpec, SchedulerSpec)
from smosim.datagen import RecordBatch
from smosim.errors import MissingKey, ZeroCapacity
from smosim.harness import (
    inflate_bytes,
    mad_statistics,
    poison_detection_report,
    poison_inject,
    privacy_transform,
    pseudonyms,
    schedule,
    validation_filter,
)
from smosim.topology import ComponentId, ComponentKind

from conftest import batch_rows, record_batch
from invariants import checked_run

SRC = ComponentId(ComponentKind.NSSMF, 0)


def _records(targets: list[float]) -> RecordBatch:
    schema = [FeatureSpec("x", "numeric", valid_range=(0.0, 1.0))]
    return record_batch(schema, [{"x": float(i)} for i in range(len(targets))],
                        [float(t) for t in targets], source=SRC)


class TestPoisonInject:
    def test_zero_fraction_unchanged(self):
        records = _records([1.0, 2.0, 3.0])
        out = poison_inject(records, PoisonSpec(fraction=0.0, attack="target_offset",
                                                delta=10.0, seed=1))
        assert list(out.target) == [1.0, 2.0, 3.0]
        assert not any(out.poisoned)

    def test_exact_count_and_offset(self):
        records = _records([float(i) for i in range(100)])
        out = poison_inject(records, PoisonSpec(fraction=0.1, attack="target_offset",
                                                delta=10.0, seed=3))
        changed = [(a, b) for a, b in zip(records.target, out.target) if a != b]
        assert len(changed) == 10
        for before, after in changed:
            assert after == pytest.approx(before + 10.0)
        assert sum(1 for flag in out.poisoned if flag) == 10

    def test_full_fraction_alters_everything(self):
        records = _records([1.0] * 7)
        out = poison_inject(records, PoisonSpec(fraction=1.0, attack="target_offset",
                                                delta=1.0, seed=0))
        assert all(out.poisoned)

    def test_flip_attack_on_binary_targets(self):
        records = _records([0.0, 1.0, 1.0])
        out = poison_inject(records, PoisonSpec(fraction=1.0, attack="target_flip",
                                                seed=0))
        assert list(out.target) == [1.0, 0.0, 0.0]

    def test_feature_scale_attack(self):
        records = _records([1.0, 1.0])
        out = poison_inject(records, PoisonSpec(fraction=1.0, attack="feature_scale",
                                                gamma=3.0, seed=0))
        assert [r["x"] for r in batch_rows(out)] == [0.0, 3.0]

    def test_originals_never_mutated(self):
        records = _records([1.0, 2.0])
        poison_inject(records, PoisonSpec(fraction=1.0, attack="target_offset",
                                          delta=5.0, seed=0))
        assert list(records.target) == [1.0, 2.0]


class TestValidationFilter:
    def test_hand_mad_example(self):
        records = _records([1.0, 2.0, 3.0, 100.0])
        med, mad = mad_statistics([1.0, 2.0, 3.0, 100.0])
        assert med == pytest.approx(2.5)
        assert mad == pytest.approx(1.0)
        kept, rejected = validation_filter(records, FilterSpec(k=3.0))
        assert list(rejected.target) == [100.0]
        assert list(kept.target) == [1.0, 2.0, 3.0]

    def test_empty_input(self):
        kept, rejected = validation_filter(_records([]), FilterSpec())
        assert (list(kept.record_id), list(rejected.record_id)) == ([], [])

    def test_identical_targets_nothing_rejected(self):
        records = _records([5.0] * 8)
        kept, rejected = validation_filter(records, FilterSpec(k=3.0))
        assert list(rejected.record_id) == [] and len(kept) == 8

    def test_blind_to_hidden_flags(self):
        records = _records([1.0, 2.0, 3.0, 50.0, 2.5, 1.5])
        flagged = dataclasses.replace(records, poisoned=np.ones(len(records), dtype=bool))
        kept_a, rej_a = validation_filter(records, FilterSpec(k=3.0))
        kept_b, rej_b = validation_filter(flagged, FilterSpec(k=3.0))
        assert list(kept_a.record_id) == list(kept_b.record_id)
        assert list(rej_a.record_id) == list(rej_b.record_id)

    def test_false_positive_rate_on_clean_gaussian(self):
        # expected rejection rate is ~4.3%; large fixed-seed samples keep the
        # 5% bound off the noise floor
        n = 4000
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            records = _records(list(rng.normal(10.0, 2.0, size=n)))
            kept, rejected = validation_filter(records, FilterSpec(k=3.0))
            assert len(rejected) / n <= 0.05

    def test_detection_report_counts(self):
        records = _records([0.0] * 6)
        records.poisoned[:2] = True
        report = poison_detection_report(kept=records.take(slice(1, None)),
                                         rejected=records.take(slice(1)))
        assert report["true_positives"] == 1
        assert report["false_positives"] == 0
        assert report["false_negatives"] == 1
        assert report["precision"] == 1.0
        assert report["recall"] == 0.5


class TestPrivacy:
    SCHEMA = [FeatureSpec("ue", "identifier", sensitive=True),
              FeatureSpec("x", "numeric", valid_range=(0.0, 1.0))]

    def _records(self):
        return record_batch(self.SCHEMA, [{"ue": f"imsi-{i}", "x": 0.5} for i in range(4)],
                            [1.0] * 4, source=SRC)

    def test_same_key_same_pseudonym(self):
        assert pseudonyms(["imsi-7"], "k1") == pseudonyms(["imsi-7"], "k1")

    @pytest.mark.parametrize("key", ["k", "x" * 63, "y" * 64, "z" * 65, "ключ-" * 20])
    def test_pseudonyms_equal_truncated_hmac_sha256(self, key):
        values = ["imsi-7", "", "ünïcödé ☃", "𝄞", 42, "a" * 200]
        expected = ["pid-" + hmac.new(key.encode(), str(v).encode(),
                                      hashlib.sha256).hexdigest()[:16] for v in values]
        assert pseudonyms(values, key) == expected
        assert pseudonyms(["ünïcödé ☃"], key) == expected[2:3]

    def test_distinct_keys_distinct_pseudonyms(self):
        vocab = [f"imsi-{i}" for i in range(64)]
        a = set(pseudonyms(vocab, "key-a"))
        b = set(pseudonyms(vocab, "key-b"))
        assert a.isdisjoint(b)

    def test_sensitive_fields_replaced_others_kept(self):
        out = privacy_transform(self._records(), self.SCHEMA, PrivacySpec("k", 1.1))
        for r in batch_rows(out):
            assert str(r["ue"]).startswith("pid-")
            assert r["x"] == 0.5

    def test_missing_key_rejected(self):
        with pytest.raises(MissingKey):
            privacy_transform(self._records(), self.SCHEMA, PrivacySpec("", 1.0))

    def test_byte_inflation(self):
        assert inflate_bytes(1000, 1.1) == 1100
        assert inflate_bytes(7, 1.0) == 7


def per_tick(result) -> list[dict[str, int]]:
    """The grant rows of a schedule, one per tick from tick 1."""
    return [row for repeat, rows in result.allocations for _ in range(repeat) for row in rows]


def stepped(spec: SchedulerSpec) -> tuple[list[dict[str, int]], dict[str, int]]:
    """Reference schedule: each tick's grant row, and each job's completion tick,
    stepped one tick at a time as the :func:`schedule` docstring states it."""
    remaining = {j.name: j.work for j in spec.classes}
    done = dict.fromkeys(remaining, 0)
    rows: list[dict[str, int]] = []
    while any(remaining.values()):
        budget, row = spec.budget, dict.fromkeys(remaining, 0)
        for priority in sorted({j.priority for j in spec.classes}, reverse=True):
            group = [j for j in spec.classes if j.priority == priority and remaining[j.name]]
            turn = len(rows) % len(group) if group else 0
            for j in group[turn:] + group[:turn]:
                grant = min(j.demand, remaining[j.name], budget)
                row[j.name], budget = grant, budget - grant
                remaining[j.name] -= grant
                if grant and not remaining[j.name]:
                    done[j.name] = len(rows) + 1
        rows.append(row)
    return rows, done


class TestScheduler:
    def test_uncontended_nf_workload_has_zero_delay(self):
        spec = SchedulerSpec(budget=4, classes=(
            JobClass("NfWorkload", priority=1, demand=4, work=20),))
        result = schedule(spec)
        assert result.jobs["NfWorkload"].delay == 0
        assert result.jobs["NfWorkload"].completion_tick == 5

    def test_low_priority_retraining_fills_leftover_budget(self):
        spec = SchedulerSpec(budget=4, classes=(
            JobClass("NfWorkload", priority=1, demand=3, work=36),
            JobClass("Retraining", priority=0, demand=3, work=12),
        ))
        result = schedule(spec)
        assert result.jobs["Retraining"].completion_tick == 12
        assert result.jobs["NfWorkload"].delay == 0
        for row in per_tick(result)[:12]:
            assert row["NfWorkload"] == 3 and row["Retraining"] == 1

    def test_swapped_priorities_delay_nf_workload(self):
        spec = SchedulerSpec(budget=4, classes=(
            JobClass("NfWorkload", priority=0, demand=3, work=12),
            JobClass("Retraining", priority=1, demand=3, work=12),
        ))
        result = schedule(spec)
        assert result.jobs["Retraining"].completion_tick == 4
        assert result.jobs["NfWorkload"].delay > 0

    def test_zero_budget_rejected(self):
        with pytest.raises(ZeroCapacity):
            schedule(SchedulerSpec(budget=0, classes=()))

    def test_round_robin_within_equal_priority(self):
        spec = SchedulerSpec(budget=1, classes=(
            JobClass("a", priority=0, demand=1, work=3),
            JobClass("b", priority=0, demand=1, work=3),
        ))
        result = schedule(spec)
        grants = [(row["a"], row["b"]) for row in per_tick(result)]
        assert grants == [(1, 0), (0, 1), (1, 0), (0, 1), (1, 0), (0, 1)]

    @settings(max_examples=40, deadline=None)
    @given(budget=st.integers(1, 8),
           demands=st.lists(st.integers(1, 5), min_size=1, max_size=4),
           works=st.lists(st.integers(1, 30), min_size=4, max_size=4),
           priorities=st.lists(st.integers(0, 3), min_size=4, max_size=4))
    def test_feasibility_and_no_post_completion_grants(self, budget, demands,
                                                       works, priorities):
        n = len(demands)
        spec = SchedulerSpec(budget=budget, classes=tuple(
            JobClass(f"j{i}", priority=priorities[i], demand=demands[i], work=works[i])
            for i in range(n)))
        result = schedule(spec)
        rows = per_tick(result)
        done: dict[str, int] = {}
        for t, row in enumerate(rows, start=1):
            assert sum(row.values()) <= budget
            for name, grant in row.items():
                assert grant <= result.jobs[name].demand
                if name in done:
                    assert grant == 0
                done_total = sum(r[name] for r in rows[:t])
                if done_total >= result.jobs[name].work and name not in done:
                    done[name] = t
        for name, job in result.jobs.items():
            total = sum(r[name] for r in rows)
            assert total == job.work
            assert job.completion_tick == done[name]

    @settings(max_examples=60, deadline=None)
    @given(budget=st.integers(1, 8),
           classes=st.lists(st.tuples(st.integers(0, 2), st.integers(1, 5),
                                      st.integers(1, 300)), min_size=1, max_size=6))
    def test_repeated_periods_grant_what_stepping_each_tick_grants(self, budget, classes):
        spec = SchedulerSpec(budget=budget, classes=tuple(
            JobClass(f"j{i}", priority=p, demand=d, work=w)
            for i, (p, d, w) in enumerate(classes)))
        result = schedule(spec)
        rows, done = stepped(spec)
        assert per_tick(result) == rows
        assert {name: job.completion_tick for name, job in result.jobs.items()} == done

    def test_a_huge_work_is_scheduled_in_a_few_periods(self):
        # stepped tick by tick, this schedule would take 3 * 10**14 ticks
        spec = SchedulerSpec(budget=4, classes=(
            JobClass("NfWorkload", priority=1, demand=3, work=36),
            JobClass("Retraining", priority=0, demand=3, work=10**15)))
        result = schedule(spec)
        assert result.jobs["NfWorkload"].completion_tick == 12
        assert result.jobs["Retraining"].completion_tick == 12 + -(-(10**15 - 12) // 3)
        assert sum(len(rows) for _, rows in result.allocations) <= 16

    def test_the_most_job_classes_with_the_longest_period_are_scheduled(self):
        # groups of 4, 5 and 7 classes turn round-robin with period lcm(4, 5, 7) = 140,
        # the longest that MAX_JOB_CLASSES classes can have
        sizes = (4, 5, 7)
        assert sum(sizes) == MAX_JOB_CLASSES
        spec = SchedulerSpec(budget=2, classes=tuple(
            JobClass(f"p{p}c{c}", priority=p, demand=1, work=10**12 + c)
            for p, size in enumerate(sizes) for c in range(size)))
        result = schedule(spec)
        for job in result.jobs.values():
            assert sum(repeat * sum(row[job.name] for row in rows)
                       for repeat, rows in result.allocations) == job.work
        # the budget is spent in full on every tick but the last
        assert max(job.completion_tick for job in result.jobs.values()) == \
            -(-sum(job.work for job in result.jobs.values()) // 2)

    @settings(max_examples=30, deadline=None)
    @given(budget=st.integers(1, 6), nf_work=st.integers(1, 24),
           re_work=st.integers(1, 24), nf_demand=st.integers(1, 4),
           re_demand=st.integers(1, 4))
    def test_priority_dominance_for_nf_workload(self, budget, nf_work, re_work,
                                                nf_demand, re_demand):
        def delay(nf_priority: int) -> int:
            spec = SchedulerSpec(budget=budget, classes=(
                JobClass("NfWorkload", priority=nf_priority, demand=nf_demand,
                         work=nf_work),
                JobClass("Retraining", priority=1, demand=re_demand, work=re_work),
            ))
            return schedule(spec).jobs["NfWorkload"].delay

        assert delay(2) <= delay(0)


class TestSignalingReport:
    def test_raw_to_artifact_ratio(self):
        from smosim.harness import signaling_report
        from conftest import build, scenario_b_dict

        result = checked_run(build(scenario_b_dict(n_per_source=50)))
        report = signaling_report(result.sim.signaling_table())
        assert report["raw_to_artifact_ratio"] == pytest.approx(
            report["raw_data_bytes"] / report["model_artifact_bytes"])
