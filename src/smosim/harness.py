"""Fault injection and mitigation mechanisms, plus signaling accounting.

Covers the six challenge experiments: poisoning + validation filtering,
pseudonymization/encryption inflation, component failover support,
priority scheduling under contention, and the per-interface byte report.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .config import FeatureSpec, FilterSpec, PoisonSpec, PrivacySpec, SchedulerSpec
from .datagen import RecordBatch, is_missing, median
from .errors import MissingKey, ZeroCapacity


# -- data poisoning ---------------------------------------------------------------


def poison_inject(records: RecordBatch, spec: PoisonSpec) -> RecordBatch:
    """Alter exactly floor(n * fraction) seeded-selected records.

    The poisoned flag is ground truth for reporting only; nothing downstream
    of the generator may branch on it.
    """
    n = len(records)
    n_poison = math.floor(n * spec.fraction)
    if n_poison == 0:
        return records
    rows = np.random.default_rng(spec.seed).choice(n, size=n_poison, replace=False)
    target, columns = records.target.copy(), records.columns
    if spec.attack == "target_offset":
        target[rows] += spec.delta
    elif spec.attack == "target_flip":
        t = target[rows]
        target[rows] = np.where((t == 0.0) | (t == 1.0), 1.0 - t, -t)
    else:  # feature_scale: every numeric value of the chosen rows
        scale = np.ones(n)
        scale[rows] = spec.gamma
        columns = {k: c * scale if c.dtype.kind == "f" else c for k, c in columns.items()}
    poisoned = records.poisoned.copy()
    poisoned[rows] = True
    return replace(records, columns=columns, target=target, poisoned=poisoned)


# -- validation filtering ------------------------------------------------------------


def mad_statistics(targets: np.ndarray) -> tuple[float, float]:
    """Median and median absolute deviation of the targets.

    Both are :func:`datagen.median`, which equals ``np.median`` bit for bit.
    """
    med = median(targets)
    return med, median(np.abs(np.asarray(targets) - med))


def validation_filter(records: RecordBatch,
                      spec: FilterSpec) -> tuple[RecordBatch, RecordBatch]:
    """Reject records whose target deviates more than k robust deviations.

    A record is rejected iff |target - median| / max(MAD, floor) > k. The
    filter sees targets only; hidden poison flags are unobservable.
    """
    if not len(records):
        return records, records
    med, mad = mad_statistics(records.target)
    rejected = np.abs(records.target - med) / max(mad, spec.mad_floor) > spec.k
    return records.take(~rejected), records.take(rejected)


def poison_detection_report(kept: RecordBatch, rejected: RecordBatch) -> dict:
    """Precision/recall of the filter against ground-truth flags.

    Reporting-only: this is the single place the hidden flag may be read.
    """
    tp = int(rejected.poisoned.sum())
    fp = len(rejected) - tp
    fn = int(kept.poisoned.sum())
    precision = tp / (tp + fp) if len(rejected) else None
    recall = tp / (tp + fn) if (tp + fn) else None
    return {
        "rejected": len(rejected),
        "kept": len(kept),
        "true_positives": tp,
        "false_positives": fp,
        "false_negatives": fn,
        "precision": precision,
        "recall": recall,
    }


# -- privacy -------------------------------------------------------------------------


def pseudonyms(values, key: str) -> list[str]:
    """Keyed pseudonyms: "pid-" and the first 16 hex digits of HMAC-SHA256.

    The RFC 2104 inner and outer hash states are built once per key; each
    value then costs two state copies and no HMAC object.
    """
    block = hashlib.sha256().block_size
    k = key.encode()
    if len(k) > block:
        k = hashlib.sha256(k).digest()
    k = k.ljust(block, b"\0")
    inner = hashlib.sha256(bytes(b ^ 0x36 for b in k))
    outer = hashlib.sha256(bytes(b ^ 0x5C for b in k))
    out = []
    for value in values:
        h = inner.copy()
        h.update(str(value).encode())
        o = outer.copy()
        o.update(h.digest())
        out.append("pid-" + o.digest()[:8].hex())
    return out


def privacy_transform(records: RecordBatch, schema: list[FeatureSpec],
                      spec: PrivacySpec) -> RecordBatch:
    """Replace sensitive identifier values with keyed pseudonyms, at the source."""
    if not spec.key:
        raise MissingKey("pseudonymization key required")
    columns = dict(records.columns)
    for f in schema:
        if f.sensitive and f.type == "identifier" and f.name in columns:
            col = columns[f.name].copy()
            present = ~is_missing(col)
            col[present] = np.array(pseudonyms(col[present], spec.key), dtype=object)
            columns[f.name] = col
    return replace(records, columns=columns)


def inflate_bytes(payload_bytes: int, inflation: float) -> int:
    """Encryption overhead model: byte count scaled and rounded."""
    return int(round(payload_bytes * inflation))


# -- resource scheduling ----------------------------------------------------------------


@dataclass
class JobOutcome:
    name: str
    priority: int
    demand: int
    work: int
    completion_tick: int
    ideal_tick: int

    @property
    def delay(self) -> int:
        return self.completion_tick - self.ideal_tick


@dataclass
class ScheduleResult:
    # runs of ticks from tick 1 on: each (repeat, rows) is ``rows``, one grant row
    # per tick, ``repeat`` times over
    allocations: list[tuple[int, list[dict[str, int]]]]
    jobs: dict[str, JobOutcome]


def schedule(spec: SchedulerSpec) -> ScheduleResult:
    """Strict-priority allocation with round-robin inside equal priority.

    Each tick hands out at most `budget` units: higher priority classes
    first, each capped by its per-tick demand and remaining work. A job
    completes on the first tick its cumulative allocation covers its work;
    delay is measured against the contention-free completion ceil(work/demand).

    While no job completes, the grants repeat every ``period`` ticks, the least
    common multiple of the sizes of the priority groups with work left (the
    round-robin turns). So after stepping one period with no completion, the
    schedule repeats it as often as every job keeps at least one unit of work,
    and steps on from there: the cost grows with the number of jobs, not with
    their work.
    """
    if spec.budget < 1:
        raise ZeroCapacity("scheduler budget must be >= 1")
    jobs = list(spec.classes)
    if any(j.work is None for j in jobs):
        raise ValueError("every job class needs a concrete work total")
    remaining = {j.name: int(j.work) for j in jobs}  # type: ignore[arg-type]
    completion: dict[str, int] = {j.name: 0 for j in jobs}
    allocations: list[tuple[int, list[dict[str, int]]]] = []
    priorities = sorted({j.priority for j in jobs}, reverse=True)

    tick = 0
    while any(remaining.values()):
        groups = [g for g in ([j for j in jobs if j.priority == p and remaining[j.name] > 0]
                              for p in priorities) if g]
        period = math.lcm(*map(len, groups))
        start = dict(remaining)
        rows: list[dict[str, int]] = []
        completed = False
        while len(rows) < period and not completed:
            tick += 1
            budget_left = spec.budget
            row: dict[str, int] = {j.name: 0 for j in jobs}
            for group in groups:
                offset = (tick - 1) % len(group)
                for j in group[offset:] + group[:offset]:
                    if budget_left <= 0:
                        break
                    grant = min(j.demand, remaining[j.name], budget_left)
                    row[j.name] += grant
                    remaining[j.name] -= grant
                    budget_left -= grant
                    if remaining[j.name] == 0:
                        completion[j.name] = tick
                        completed = True
            rows.append(row)
        repeat = 1
        if not completed:  # no grant met a job's remaining work, so none will while it lasts
            per_period = {name: start[name] - left for name, left in remaining.items()}
            repeat += min((remaining[n] - 1) // p for n, p in per_period.items() if p)
            for name, p in per_period.items():
                remaining[name] -= (repeat - 1) * p
            tick += (repeat - 1) * period
        allocations.append((repeat, rows))

    outcomes = {}
    for j in jobs:
        work = int(j.work)  # type: ignore[arg-type]
        outcomes[j.name] = JobOutcome(
            name=j.name, priority=j.priority, demand=j.demand, work=work,
            completion_tick=completion[j.name],
            ideal_tick=math.ceil(work / j.demand),
        )
    return ScheduleResult(allocations=allocations, jobs=outcomes)


# -- signaling accounting -----------------------------------------------------------------


def signaling_report(table: dict) -> dict:
    """A ``topology.signaling_table`` plus the raw-vs-model traffic ratio."""
    raw = sum(entry["by_kind"].get("RawData", {"bytes": 0})["bytes"]
              for entry in table.values())
    model = sum(entry["by_kind"].get("ModelArtifact", {"bytes": 0})["bytes"]
                for entry in table.values())
    return {
        "interfaces": table,
        "raw_data_bytes": raw,
        "model_artifact_bytes": model,
        "raw_to_artifact_ratio": (raw / model) if model else None,
    }
