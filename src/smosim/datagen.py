"""Synthetic management-data generation for the simulated managed functions.

Records travel as a columnar :class:`RecordBatch`. Targets are linear in the
encoded features plus Gaussian noise, so model quality is analytically
checkable (irreducible error = sigma^2). Duplicates, missing values and
out-of-range errors are injected in exact floor(n*rate) counts, all
selections seeded.

A streaming emission or a monitor round sends one part of a bulk draw. It
travels as a :class:`Part`, the part's row range of the draw with the ids and
tick it was sent with, and makes no rows of its own. :func:`gather` makes the
rows of a list of parts and batches at once: each run of consecutive parts of
one draw is one ``take`` of the draw.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import groupby

import numpy as np

from .config import DerivedFeature, FeatureSpec, SourceSpec
from .errors import SchemaMismatch
from .topology import ComponentId


def derive_rng(*parts: int | str) -> np.random.Generator:
    """Independent, reproducible substream for a tagged part of the run."""
    entropy = [p if isinstance(p, int) else abs(hash_str(p)) for p in parts]
    return np.random.default_rng(np.random.SeedSequence(entropy))


@lru_cache(maxsize=None)
def hash_str(text: str) -> int:
    # stable across processes, unlike builtin hash()
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def missing_column(spec: FeatureSpec, n: int) -> np.ndarray:
    """A column of n missing values: NaN numerics, -1 codes, None identifiers."""
    if spec.type == "numeric":
        return np.full(n, np.nan)
    if spec.type == "categorical":
        return np.full(n, -1, dtype=np.int64)
    return np.full(n, None, dtype=object)


def is_missing(col: np.ndarray) -> np.ndarray:
    """Mask of the missing values of a column."""
    if col.dtype == object:
        return np.equal(col, None)
    return np.isnan(col) if col.dtype.kind == "f" else col < 0


def median(a: np.ndarray) -> float:
    """Median of a non-empty 1-D float array, equal to ``float(np.median(a))``
    bit for bit.

    This is ``np.median``'s own arithmetic: one partition at the middle index
    or indices and the last one, the mean of the middle element or elements,
    and NaN if the last partitioned element is NaN. So infinities and the
    sign of a zero come out as they do there. ``np.median``'s NaN check also
    imports ``numpy.ma`` on its first call, which no run otherwise needs;
    this one imports nothing.
    """
    n = len(a)
    mid = n // 2
    part = np.partition(a, [mid, -1] if n % 2 else [mid - 1, mid, -1])
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(part[mid - 1 + n % 2:mid + 1].mean())


@dataclass
class RecordBatch:
    """Timestamped samples from one or more managed functions, one array per field.

    Numeric columns are float (NaN = missing), categorical columns are int
    codes into the feature's vocab (-1 = missing) and identifier columns are
    object arrays (None = missing). ``schemas`` lists the fields each source's
    rows carry; its key order numbers the sources in ``source``. A column
    that a source does not carry is missing on that source's rows. A batch
    is never mutated once a stage has returned it: stages build new ones and
    share unchanged arrays. Along the data path each stage is the only owner
    of its input: once a stage's successor exists, no name refers to its
    input, so the input is freed then (see ``Driver._prepare``).
    Parts of a bulk draw travel as :class:`Part` row ranges of it until
    :func:`gather` or :meth:`Part.batch` makes their rows.
    """

    schemas: dict[ComponentId, tuple[FeatureSpec, ...]]
    columns: dict[str, np.ndarray]
    record_id: np.ndarray
    source: np.ndarray
    tick: np.ndarray
    target: np.ndarray
    poisoned: np.ndarray  # ground truth, reporting only

    def __len__(self) -> int:
        return len(self.record_id)

    def spec_of(self, name: str) -> FeatureSpec:
        return next(f for schema in self.schemas.values() for f in schema if f.name == name)

    def take(self, idx) -> "RecordBatch":
        """Rows selected by an index array, boolean mask or slice."""
        return RecordBatch(self.schemas, {k: v[idx] for k, v in self.columns.items()},
                           self.record_id[idx], self.source[idx], self.tick[idx],
                           self.target[idx], self.poisoned[idx])

    @staticmethod
    def concat(batches: list["RecordBatch"]) -> "RecordBatch":
        """Rows of every batch in order; sources and fields are merged by name.

        Parts of one draw share their ``schemas`` map, so each distinct map
        is checked, and its source codes renumbered, once. No batches make an
        empty batch of no sources.
        """
        if not batches:
            return RecordBatch({}, {}, *(np.empty(0, dtype=t) for t in
                                         (np.int64, np.int64, np.int64, float, bool)))
        maps = {id(b.schemas): b.schemas for b in batches}
        schemas: dict[ComponentId, tuple[FeatureSpec, ...]] = {}
        specs: dict[str, FeatureSpec] = {}
        for m in maps.values():
            for owner, schema in m.items():
                if schemas.setdefault(owner, schema) != schema:
                    raise SchemaMismatch(f"{owner} sends two different schemas")
                for spec in schema:
                    known = specs.setdefault(spec.name, spec)
                    if (known.type, known.vocab) != (spec.type, spec.vocab):
                        raise SchemaMismatch(f"field {spec.name!r} has two types")
        codes = list(schemas)
        renumber = {key: np.array([codes.index(o) for o in m]) for key, m in maps.items()}
        return RecordBatch(
            schemas,
            {name: np.concatenate([b.columns[name] if name in b.columns
                                   else missing_column(spec, len(b)) for b in batches])
             for name, spec in specs.items()},
            source=np.concatenate([renumber[id(b.schemas)][b.source] for b in batches]),
            **{k: np.concatenate([getattr(b, k) for b in batches])
               for k in ("record_id", "tick", "target", "poisoned")})


@dataclass(slots=True, eq=False)
class Part:
    """Part ``index`` of a bulk draw of ``size`` rows per part, as it is sent:
    rows [index * size, (index + 1) * size) of ``draw``, every row at ``tick``
    and every id moved by ``id_start - index * size``. The draw's ids count
    from 0, so the part's count on from ``id_start``, and a copy keeps the id
    of the row it copies.

    It holds no rows of its own; :meth:`batch` makes them, and :func:`gather`
    makes those of many parts at once.
    """

    draw: RecordBatch
    index: int
    size: int
    id_start: int
    tick: int

    def __len__(self) -> int:
        return self.size

    @property
    def target(self) -> np.ndarray:
        start = self.index * self.size
        return self.draw.target[start:start + self.size]

    def batch(self) -> RecordBatch:
        """The part's rows: views of the draw's, but for their ids and ticks."""
        start = self.index * self.size
        rows = slice(start, start + self.size)
        return replace(self.draw.take(rows),
                       record_id=self.draw.record_id[rows] + (self.id_start - start),
                       tick=np.full(self.size, self.tick, dtype=np.int64))


def gather(parts: list[Part | RecordBatch]) -> RecordBatch:
    """Rows of every part and batch in order: ``RecordBatch.concat`` of their
    batches, bit for bit.

    Each run of consecutive parts of one draw is one ``take`` of the draw's
    rows, with the run's ids and ticks set; the batches join as they are.
    """
    batches = []
    for key, group in groupby(parts, key=lambda p: id(p.draw) if isinstance(p, Part) else None):
        if key is None:
            batches.extend(group)
            continue
        run = list(group)
        draw, m = run[0].draw, run[0].size
        index = np.array([p.index for p in run])
        rows = (index[:, None] * m + np.arange(m)).ravel()
        ids = np.array([p.id_start for p in run], dtype=np.int64) - index * m
        batches.append(RecordBatch(
            draw.schemas, {k: v[rows] for k, v in draw.columns.items()},
            draw.record_id[rows] + np.repeat(ids, m), draw.source[rows],
            np.repeat(np.array([p.tick for p in run], dtype=np.int64), m),
            draw.target[rows], draw.poisoned[rows]))
    return batches[0] if len(batches) == 1 else RecordBatch.concat(batches)


def encode(schema: list[FeatureSpec], columns: dict[str, np.ndarray],
           derived: tuple[DerivedFeature, ...] = ()) -> np.ndarray:
    """Numeric design matrix: numerics in order, derived columns, one-hot groups.

    Identifier fields never enter the encoding. Missing values stay NaN in
    numeric columns and give all-zero one-hot rows.
    """
    numeric = [f.name for f in schema if f.type == "numeric"]
    categorical = [f for f in schema if f.type == "categorical"]
    n = len(next(iter(columns.values()))) if columns else 0
    X = np.empty((n, len(numeric) + len(derived) + sum(len(f.vocab) for f in categorical)))
    for j, name in enumerate(numeric):
        X[:, j] = columns[name]
    j = len(numeric)
    for dspec in derived:
        if dspec.a not in numeric or dspec.b not in numeric:
            raise SchemaMismatch(f"derived feature {dspec.column_name()!r} "
                                 "references a non-numeric column")
        a, b = columns[dspec.a], columns[dspec.b]
        if dspec.op == "product":
            X[:, j] = a * b
        else:
            safe = np.where(np.abs(b) > 1e-12, b, 1.0)
            X[:, j] = np.where(np.abs(b) > 1e-12, a / safe, 0.0)
        j += 1
    for f in categorical:
        X[:, j:j + len(f.vocab)] = columns[f.name][:, None] == np.arange(len(f.vocab))
        j += len(f.vocab)
    return X


def generate_batch(spec: SourceSpec, n: int, seed: int | np.random.Generator,
                   id_start: int = 0, tick: int = 0, parts: int = 1) -> RecordBatch:
    """Draw ``parts`` batches of n records each from the source's generative process.

    The base records of all parts are drawn at once: each field as one column
    in schema order, then the targets as one matrix product of the encoded
    rows, then their noise. Each part then gets its own exact corruption:
    floor(n*duplicate_rate) copies of its own rows are appended,
    floor(n*missing_rate) of its base records lose one feature and
    floor(n*error_rate) get one numeric feature pushed past its valid range.
    Targets are computed before corruption. The parts follow one another, with
    ids counting on from ``id_start``; a copy keeps the id of the row it
    copies. With parts=1 this is one plain batch.
    """
    if n < 0 or parts < 1:
        raise ValueError("n must be >= 0 and parts >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    size = n * parts
    columns: dict[str, np.ndarray] = {}
    for f in spec.schema:
        if f.type == "numeric":
            lo, hi = f.valid_range  # type: ignore[misc]
            columns[f.name] = rng.uniform(lo, hi, size=size)
        elif f.type == "categorical":
            columns[f.name] = rng.integers(len(f.vocab), size=size)
        else:
            draws = rng.integers(1 << 31, size=size).tolist()
            columns[f.name] = np.array([f"id-{d}" for d in draws], dtype=object)
    X = encode(spec.schema, columns)
    if X.shape[1] != len(spec.coefficients):
        raise SchemaMismatch(
            f"{len(spec.coefficients)} coefficients for encoded width {X.shape[1]}")
    target = X @ np.asarray(spec.coefficients, dtype=float)
    target += spec.bias
    if spec.noise_sigma > 0:
        target += rng.normal(0.0, spec.noise_sigma, size=size)

    n_dup = math.floor(n * spec.duplicate_rate)
    n_missing = math.floor(n * spec.missing_rate)
    n_error = math.floor(n * spec.error_rate)
    names = [f for f in spec.schema if f.type != "identifier"]
    numeric = [f for f in spec.schema if f.type == "numeric"]
    if n_error and not numeric:
        raise SchemaMismatch("error injection needs at least one numeric feature")
    m = n + n_dup  # rows per part
    rows = np.tile(np.arange(m), (parts, 1))  # each part's rows, numbered within the part
    missing, errors = [], []  # (row in the batch, victim field) per part
    for p in range(parts):
        if n_dup:
            rows[p, n:] = rng.choice(n, size=n_dup, replace=True)
        if n_missing:
            missing.append((p * m + rng.choice(n, size=n_missing, replace=False),
                            rng.integers(len(names), size=n_missing)))
        if n_error:
            errors.append((p * m + rng.choice(n, size=n_error, replace=False),
                           rng.integers(len(numeric), size=n_error)))
    if n_dup:
        drawn = (rows + n * np.arange(parts)[:, None]).ravel()
        columns = {name: col[drawn] for name, col in columns.items()}
        target = target[drawn]
    for hit, victim in missing:
        for j, f in enumerate(names):
            columns[f.name][hit[victim == j]] = missing_column(f, 1)[0]
    for hit, victim in errors:
        for j, f in enumerate(numeric):
            lo, hi = f.valid_range  # type: ignore[misc]
            columns[f.name][hit[victim == j]] = hi + spec.error_factor * (hi - lo)
    size = len(target)
    return RecordBatch({spec.owner: tuple(spec.schema)}, columns,
                       id_start + (rows + m * np.arange(parts)[:, None]).ravel(),
                       np.zeros(size, dtype=np.int64), np.full(size, tick, dtype=np.int64),
                       target, np.zeros(size, dtype=bool))


def streaming_emission_ticks(start: int, window: int, interval: int) -> list[int]:
    """Emission ticks of a streaming source over (start, start + window]."""
    if interval < 1:
        raise ValueError("streaming interval must be >= 1")
    return [start + k * interval for k in range(1, window // interval + 1)]


def shifted(spec: SourceSpec, coefficients: tuple[float, ...] | None,
            bias: float | None) -> SourceSpec:
    """Source with replaced ground truth; used for injected concept drift."""
    return replace(spec, coefficients=list(coefficients) if coefficients else spec.coefficients,
                   bias=spec.bias if bias is None else bias)
