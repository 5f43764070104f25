"""Synthetic management-data generation for the simulated managed functions.

Records travel as a columnar :class:`RecordBatch`. Targets are linear in the
encoded features plus Gaussian noise, so model quality is analytically
checkable (irreducible error = sigma^2). Duplicates, missing values and
out-of-range errors are injected in exact floor(n*rate) counts, all
selections seeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import DerivedFeature, FeatureSpec, SourceSpec, encoded_width
from .errors import SchemaMismatch
from .topology import ComponentId


def derive_rng(*parts: int | str) -> np.random.Generator:
    """Independent, reproducible substream for a tagged part of the run."""
    entropy = [p if isinstance(p, int) else abs(hash_str(p)) for p in parts]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def hash_str(text: str) -> int:
    # stable across processes, unlike builtin hash()
    import hashlib

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


@dataclass
class RecordBatch:
    """Timestamped samples from one or more managed functions, one array per field.

    Numeric columns are float (NaN = missing), categorical columns are int
    codes into the feature's vocab (-1 = missing) and identifier columns are
    object arrays (None = missing). ``schemas`` lists the fields each source's
    rows carry; its key order numbers the sources in ``source``. A column
    that a source does not carry is missing on that source's rows. Batches
    are never mutated: stages build new ones and share unchanged arrays.
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
        """Rows of every batch in order; sources and fields are merged by name."""
        schemas: dict[ComponentId, tuple[FeatureSpec, ...]] = {}
        specs: dict[str, FeatureSpec] = {}
        for b in batches:
            for owner, schema in b.schemas.items():
                if schemas.setdefault(owner, schema) != schema:
                    raise SchemaMismatch(f"{owner} sends two different schemas")
                for spec in schema:
                    known = specs.setdefault(spec.name, spec)
                    if (known.type, known.vocab) != (spec.type, spec.vocab):
                        raise SchemaMismatch(f"field {spec.name!r} has two types")
        codes = list(schemas)
        return RecordBatch(
            schemas,
            {name: np.concatenate([b.columns[name] if name in b.columns
                                   else missing_column(spec, len(b)) for b in batches])
             for name, spec in specs.items()},
            source=np.concatenate([np.array([codes.index(o) for o in b.schemas])[b.source]
                                   for b in batches]),
            **{k: np.concatenate([getattr(b, k) for b in batches])
               for k in ("record_id", "tick", "target", "poisoned")})


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
                   id_start: int = 0, tick: int = 0,
                   owner: ComponentId | None = None) -> RecordBatch:
    """Draw n records from the source's generative process.

    Each field is drawn as one column, in schema order, and the targets are
    one matrix product of the encoded base rows. After the n base records,
    floor(n*duplicate_rate) exact copies are appended, then
    floor(n*missing_rate) base records lose one feature and
    floor(n*error_rate) base records get one numeric feature pushed past its
    valid range. Targets are computed before corruption.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if len(spec.coefficients) != encoded_width(spec.schema):
        raise SchemaMismatch(
            f"{len(spec.coefficients)} coefficients for encoded width "
            f"{encoded_width(spec.schema)}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    columns: dict[str, np.ndarray] = {}
    for f in spec.schema:
        if f.type == "numeric":
            lo, hi = f.valid_range  # type: ignore[misc]
            columns[f.name] = rng.uniform(lo, hi, size=n)
        elif f.type == "categorical":
            columns[f.name] = rng.integers(len(f.vocab), size=n)
        else:
            draws = rng.integers(1 << 31, size=n).tolist()
            columns[f.name] = np.array([f"id-{d}" for d in draws], dtype=object)
    target = encode(spec.schema, columns) @ np.asarray(spec.coefficients, dtype=float)
    target += spec.bias
    if spec.noise_sigma > 0:
        target += rng.normal(0.0, spec.noise_sigma, size=n)

    rows = np.arange(n)
    n_dup = math.floor(n * spec.duplicate_rate)
    if n_dup:
        rows = np.concatenate([rows, rng.choice(n, size=n_dup, replace=True)])
        columns = {name: col[rows] for name, col in columns.items()}
        target = target[rows]

    n_missing = math.floor(n * spec.missing_rate)
    if n_missing:
        hit = rng.choice(n, size=n_missing, replace=False)
        names = [f for f in spec.schema if f.type != "identifier"]
        victim = rng.integers(len(names), size=n_missing)
        for j, f in enumerate(names):
            columns[f.name][hit[victim == j]] = missing_column(f, 1)[0]

    n_error = math.floor(n * spec.error_rate)
    if n_error:
        numeric = [f for f in spec.schema if f.type == "numeric"]
        if not numeric:
            raise SchemaMismatch("error injection needs at least one numeric feature")
        hit = rng.choice(n, size=n_error, replace=False)
        victim = rng.integers(len(numeric), size=n_error)
        for j, f in enumerate(numeric):
            lo, hi = f.valid_range  # type: ignore[misc]
            columns[f.name][hit[victim == j]] = hi + spec.error_factor * (hi - lo)
    size = len(rows)
    return RecordBatch({owner or spec.owner: tuple(spec.schema)}, columns,
                       id_start + rows, np.zeros(size, dtype=np.int64),
                       np.full(size, tick, dtype=np.int64), target,
                       np.zeros(size, dtype=bool))


def streaming_emission_ticks(start: int, window: int, interval: int) -> list[int]:
    """Emission ticks of a streaming source over (start, start + window]."""
    if interval < 1:
        raise ValueError("streaming interval must be >= 1")
    return [start + k * interval for k in range(1, window // interval + 1)]


def shifted(spec: SourceSpec, coefficients: tuple[float, ...] | None,
            bias: float | None) -> SourceSpec:
    """Source with replaced ground truth; used for injected concept drift."""
    new = replace(spec)
    if coefficients:
        if len(coefficients) != encoded_width(spec.schema):
            raise SchemaMismatch("shifted coefficient width differs from schema")
        new = replace(new, coefficients=list(coefficients))
    if bias is not None:
        new = replace(new, bias=bias)
    return new
