"""Data preparation inside the AI/ML function: cleanse, format, transform,
explore, split.

All operations are pure dataset-in/dataset-out functions. Stages only move
forward: Raw -> Cleansed -> Formatted -> Transformed -> Split.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .config import DerivedFeature, FeatureSpec, SplitSpec, model_feature_names
from .datagen import RecordBatch, encode, is_missing, median, missing_column
from .errors import (
    ConfigError,
    EmptyDataset,
    InsufficientData,
    SchemaMismatch,
    UnmappableField,
)
from .topology import ComponentId


class Stage(str, Enum):
    RAW = "Raw"
    CLEANSED = "Cleansed"
    FORMATTED = "Formatted"
    TRANSFORMED = "Transformed"
    SPLIT = "Split"


@dataclass
class Dataset:
    """Record batch for the pre-encoding stages."""

    stage: Stage
    records: RecordBatch
    canonical: list[FeatureSpec] | None = None

    def _require_stage(self, expected: Stage) -> None:
        if self.stage is not expected:
            raise SchemaMismatch(f"operation requires stage {expected.value}, "
                                 f"dataset is {self.stage.value}")


@dataclass
class ScalingParams:
    """Per-column affine scaling x' = (x - offset) / scale, reusable at inference."""

    mode: str
    feature_names: list[str]
    offset: np.ndarray
    scale: np.ndarray

    def apply(self, matrix: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``(matrix - offset) / scale`` bit for bit, in one new array or in
        ``out``, which may be ``matrix`` itself when the caller owns it."""
        out = np.subtract(matrix, self.offset, out=out)
        out /= self.scale
        return out

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "feature_names": list(self.feature_names),
            "offset": [float(v) for v in self.offset],
            "scale": [float(v) for v in self.scale],
        }

    @staticmethod
    def from_dict(d: dict) -> "ScalingParams":
        return ScalingParams(
            mode=d["mode"],
            feature_names=list(d["feature_names"]),
            offset=np.array(d["offset"], dtype=float),
            scale=np.array(d["scale"], dtype=float),
        )


@dataclass
class TransformedDataset:
    """Fully numeric design matrix plus targets; stage Transformed."""

    feature_names: list[str]
    X: np.ndarray
    y: np.ndarray
    scaler: ScalingParams
    record_ids: np.ndarray
    poisoned: np.ndarray | None = None  # ground truth, reporting only
    stage: Stage = Stage.TRANSFORMED

    def __len__(self) -> int:
        return len(self.y)

    def take(self, idx: np.ndarray) -> "TransformedDataset":
        return TransformedDataset(
            feature_names=self.feature_names,
            X=self.X[idx],
            y=self.y[idx],
            scaler=self.scaler,
            record_ids=self.record_ids[idx],
            poisoned=self.poisoned[idx] if self.poisoned is not None else None,
        )


@dataclass
class SplitDataset:
    spec: SplitSpec
    train: TransformedDataset
    val: TransformedDataset
    test: TransformedDataset
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray


@dataclass
class ExplorationReport:
    feature_names: list[str]
    mean: list[float]
    variance: list[float]
    minimum: list[float]
    maximum: list[float]
    correlation: list[list[float]]
    target_correlation: list[float]
    ranking: list[str]  # by |feature-target correlation|, descending

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=False)


# -- cleansing --------------------------------------------------------------------


def _same(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise equality under which NaN equals NaN."""
    return (a == b) | ((a != a) & (b != b))


def _first_rows(keys: list[np.ndarray]) -> np.ndarray:
    """Mask of the rows that come first among the rows with equal keys.

    NaN keys equal each other, so two rows missing the same value match.
    """
    n = len(keys[0])
    order = np.lexsort(keys[::-1])  # stable: equal rows stay in row order
    same = np.ones(max(n - 1, 0), dtype=bool)
    for k in keys:
        same &= _same(k[order[1:]], k[order[:-1]])
    keep = np.zeros(n, dtype=bool)
    keep[order[np.concatenate([[True], ~same])[:n]]] = True
    return keep


def _tied(values: np.ndarray) -> np.ndarray:
    """Mask of the values that equal another value; NaN equals NaN.

    Equal values are neighbours in any sorted order, so the sort need not be
    stable.
    """
    order = np.argsort(values)
    same = _same(values[order[1:]], values[order[:-1]])
    tied = np.zeros(len(values), dtype=bool)
    tied[order[1:][same]] = tied[order[:-1][same]] = True
    return tied


def _value_keys(b: RecordBatch) -> list[np.ndarray]:
    """Sort keys of each row's field tuple: its source's field names, values, target."""
    layouts = [tuple(f.name for f in schema) for schema in b.schemas.values()]
    keys = [np.array([layouts.index(names) for names in layouts])[b.source]]
    for col in b.columns.values():
        if col.dtype == object:  # identifiers: the row where each value first appears
            first: dict = {}
            col = np.fromiter(map(first.setdefault, col, range(len(col))), np.int64, len(col))
        keys.append(col)
    return keys + [b.target]


def _impute_value(spec: FeatureSpec, col: np.ndarray):
    """Median of the present numerics, or the most frequent category
    (ties: lexicographic); None when nothing is present."""
    present = col[~is_missing(col)]
    if not len(present) or spec.type == "identifier":
        return None
    if spec.type == "numeric":
        return median(present)
    counts = np.bincount(present, minlength=len(spec.vocab))
    return spec.vocab.index(min(v for v, c in zip(spec.vocab, counts) if c == counts.max()))


def cleanse(d: Dataset) -> Dataset:
    """Dedup, impute and clamp. Idempotent.

    Dedup keeps the first row of each record id, then, among those, the
    first row of each field tuple: the source's field names, the values and
    the target, where a missing value equals a missing value. So when an id
    repeats with different values, only its first row competes on values,
    and later rows with that id are dropped even if the first one was.
    The target is part of the tuple, so a first row of an id whose target
    ties no other first row's is first in its tuple: only the rows with
    tied targets are sorted by every key, and the rule above holds as stated.
    Missing numerics take the column median of present values, missing
    categoricals the most frequent value (ties: lexicographic), missing
    identifiers "". Out-of-range numerics clamp to the nearest bound their
    source declares; imputed values are not clamped.
    """
    d._require_stage(Stage.RAW)
    b = d.records
    keep = np.zeros(len(b), dtype=bool)
    keep[np.unique(b.record_id, return_index=True)[1]] = True
    first_of_id = np.flatnonzero(keep)
    tied = first_of_id[_tied(b.target[first_of_id])]
    keep[tied[~_first_rows(_value_keys(b.take(tied)))]] = False
    kept = np.flatnonzero(keep)
    if not len(kept):
        raise EmptyDataset("no records left after deduplication")
    b = b.take(kept)  # fresh columns, owned here alone, so they are filled in place
    fill = {name: _impute_value(b.spec_of(name), col) for name, col in b.columns.items()}
    columns = b.columns
    for code, schema in enumerate(b.schemas.values()):
        rows = b.source == code
        for spec in schema:
            part = columns[spec.name][rows]
            value = fill[spec.name]
            if spec.type == "numeric":
                lo, hi = spec.valid_range  # type: ignore[misc]
                part = np.clip(part, lo, hi)
                value = (lo + hi) / 2.0 if value is None else value
            elif value is None:
                value = 0 if spec.type == "categorical" else ""
            part[is_missing(part)] = value
            columns[spec.name][rows] = part
    return replace(d, stage=Stage.CLEANSED, records=b)


# -- formatting -------------------------------------------------------------------


def format_dataset(d: Dataset, canonical: list[FeatureSpec],
                   renames: dict[ComponentId, dict[str, str]] | None = None) -> Dataset:
    """Rename every source's fields onto the canonical schema, fixed order."""
    d._require_stage(Stage.CLEANSED)
    b = d.records
    renames = renames or {}
    canonical_names = {f.name for f in canonical}
    columns = {f.name: missing_column(f, len(b)) for f in canonical}
    for code, (owner, schema) in enumerate(b.schemas.items()):
        table = renames.get(owner, {})
        mapped = {table.get(f.name, f.name): f for f in schema}
        for name, f in mapped.items():
            if name not in canonical_names:
                raise UnmappableField(f"field {f.name!r} from {owner} has no canonical mapping")
        if canonical_names - mapped.keys():
            raise UnmappableField(f"records from {owner} lack canonical fields "
                                  f"{sorted(canonical_names - mapped.keys())}")
        rows = b.source == code
        for f in canonical:
            src = mapped[f.name]
            if (src.type, src.vocab) != (f.type, f.vocab):
                raise SchemaMismatch(f"{src.name!r} from {owner} does not match {f.name!r}")
            columns[f.name][rows] = b.columns[src.name][rows]
    records = replace(b, schemas={s: tuple(canonical) for s in b.schemas}, columns=columns)
    return replace(d, stage=Stage.FORMATTED, records=records, canonical=canonical)


# -- transformation -----------------------------------------------------------------


def base_design_matrix(records: RecordBatch, canonical: list[FeatureSpec],
                       derived: tuple[DerivedFeature, ...] = ()) -> np.ndarray:
    """Unscaled design matrix: numerics, derived features, one-hot groups."""
    for f in canonical:
        missing = is_missing(records.columns[f.name])
        if f.type != "identifier" and missing.any():
            raise SchemaMismatch(f"record {records.record_id[missing.argmax()]} "
                                 f"still has MISSING {f.name!r}")
    return encode(canonical, records.columns, derived)


def fit_scaler(matrix: np.ndarray, names: list[str], canonical: list[FeatureSpec],
               derived: tuple[DerivedFeature, ...], mode: str) -> ScalingParams:
    """Scaling for numeric + derived columns; one-hot columns pass through.

    Z-scores use the population standard deviation; constant columns map to
    all-zeros instead of dividing by zero. ``schema_range`` needs no rows; the
    modes fitted to rows give the identity, labelled ``none``, at zero rows.
    """
    n_scaled = sum(1 for f in canonical if f.type == "numeric") + len(derived)
    offset = np.zeros(matrix.shape[1])
    scale = np.ones(matrix.shape[1])
    if mode == "none" or (matrix.shape[0] == 0 and mode != "schema_range"):
        return ScalingParams("none", names, offset, scale)
    for j in range(n_scaled):
        col = matrix[:, j]
        if mode == "zscore":
            mu = float(np.mean(col))
            sigma = float(np.std(col))  # population
            offset[j], scale[j] = (mu, sigma) if sigma > 0 else (mu, 1.0)
        elif mode == "minmax":
            lo, hi = float(np.min(col)), float(np.max(col))
            offset[j], scale[j] = (lo, hi - lo) if hi > lo else (lo, 1.0)
        elif mode == "schema_range":
            spec = _schema_range_spec(j, canonical, derived)
            offset[j], scale[j] = spec
        else:
            raise ConfigError("pipeline.scaling", f"unknown scaling mode {mode!r}")
    return ScalingParams(mode, names, offset, scale)


def _schema_range_spec(j: int, canonical: list[FeatureSpec],
                       derived: tuple[DerivedFeature, ...]) -> tuple[float, float]:
    numeric = [f for f in canonical if f.type == "numeric"]
    if j < len(numeric):
        lo, hi = numeric[j].valid_range  # type: ignore[misc]
        return lo, (hi - lo) if hi > lo else 1.0
    # derived columns: bound by the product/ratio of declared ranges
    dspec = derived[j - len(numeric)]
    ranges = {f.name: f.valid_range for f in numeric}
    (alo, ahi), (blo, bhi) = ranges[dspec.a], ranges[dspec.b]  # type: ignore[misc]
    if dspec.op == "product":
        corners = [alo * blo, alo * bhi, ahi * blo, ahi * bhi]
        lo, hi = min(corners), max(corners)
    else:
        lo, hi = min(alo, blo, -abs(ahi)), max(ahi, bhi, abs(ahi))
    return lo, (hi - lo) if hi > lo else 1.0


def transform(d: Dataset, scaling: str = "zscore",
              derived: tuple[DerivedFeature, ...] = ()) -> TransformedDataset:
    """Scale numerics, one-hot categoricals, append derived features."""
    d._require_stage(Stage.FORMATTED)
    if d.canonical is None:
        raise SchemaMismatch("formatted dataset lost its canonical schema")
    names = model_feature_names(d.canonical, list(derived))
    base = base_design_matrix(d.records, d.canonical, derived)
    scaler = fit_scaler(base, names, d.canonical, derived, scaling)
    return TransformedDataset(
        feature_names=names, X=scaler.apply(base, out=base), y=d.records.target.copy(),
        scaler=scaler, record_ids=d.records.record_id,
        poisoned=d.records.poisoned,
    )


def reapply_transform(records: RecordBatch, canonical: list[FeatureSpec],
                      derived: tuple[DerivedFeature, ...],
                      scaler: ScalingParams) -> np.ndarray:
    """Inference-time path: encode fresh records with stored scaling parameters."""
    base = base_design_matrix(records, canonical, derived)
    return scaler.apply(base, out=base)


# -- exploration -------------------------------------------------------------------


def explore(td: TransformedDataset) -> ExplorationReport:
    """Summary statistics and Pearson correlations of a transformed dataset.

    A correlation with a constant column is 0. Each column's mean and
    standard deviation, the target's included, are taken once, on its 1-D
    view, and each unordered pair's covariance once: the centred product
    commutes exactly, so (j, i) reuses (i, j).
    """
    if len(td) < 2:
        raise InsufficientData("exploration needs at least 2 records")
    X, y = td.X, td.y
    d = X.shape[1]
    cols = [X[:, j] for j in range(d)] + [y]  # the target is column d
    mean = [np.mean(c) for c in cols]
    std = [float(np.std(c)) for c in cols]
    r = [[1.0 if i == j else 0.0 for j in range(d + 1)] for i in range(d + 1)]
    for i in range(d):
        if std[i] == 0.0:
            continue
        ci = cols[i] - mean[i]
        for j in range(i + 1, d + 1):
            if std[j] != 0.0:
                cov = float(np.mean(ci * (cols[j] - mean[j])))
                r[i][j] = r[j][i] = cov / (std[i] * std[j])
    corr = [row[:d] for row in r[:d]]
    target_corr = [r[j][d] for j in range(d)]
    order = sorted(range(d), key=lambda j: (-abs(target_corr[j]), j))
    return ExplorationReport(
        feature_names=list(td.feature_names),
        mean=[float(v) for v in X.mean(axis=0)],
        variance=[float(v) for v in X.var(axis=0)],
        minimum=[float(v) for v in X.min(axis=0)] if len(td) else [],
        maximum=[float(v) for v in X.max(axis=0)] if len(td) else [],
        correlation=corr,
        target_correlation=target_corr,
        ranking=[td.feature_names[j] for j in order],
    )


# -- splitting ----------------------------------------------------------------------


def split(td: TransformedDataset, spec: SplitSpec) -> SplitDataset:
    """Seeded shuffle, then floor-rule partition; remainder goes to train."""
    ratios = spec.ratios()
    if any(r < 0 for r in ratios) or not math.isclose(sum(ratios), 1.0, abs_tol=1e-9):
        raise ConfigError("split", f"ratios must be >= 0 and sum to 1, got {ratios}")
    n = len(td)
    n_val = math.floor(n * spec.val)
    n_test = math.floor(n * spec.test)
    n_train = n - n_val - n_test
    perm = np.random.default_rng(spec.seed).permutation(n)
    train_idx = np.sort(perm[:n_train])
    val_idx = np.sort(perm[n_train:n_train + n_val])
    test_idx = np.sort(perm[n_train + n_val:])
    return SplitDataset(
        spec=spec,
        train=td.take(train_idx),
        val=td.take(val_idx),
        test=td.take(test_idx),
        train_idx=train_idx,
        val_idx=val_idx,
        test_idx=test_idx,
    )


# -- CSV / JSONL interchange ----------------------------------------------------------


def transformed_from_csv(text: str) -> TransformedDataset:
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines:
        raise EmptyDataset("CSV file has no rows")
    header = lines[0].split(",")
    if header[-1] != "target":
        raise SchemaMismatch("last CSV column must be named 'target'")
    names = header[:-1]
    rows = [ln.split(",") for ln in lines[1:]]
    if not rows or any(len(row) != len(header) for row in rows):
        raise SchemaMismatch("CSV rows do not match the header width")
    try:
        data = np.array(rows, dtype=float)
    except ValueError as exc:
        raise SchemaMismatch(f"CSV holds a non-numeric value: {exc}") from None
    return TransformedDataset(
        feature_names=names, X=data[:, :-1], y=data[:, -1],
        scaler=ScalingParams("none", names, np.zeros(len(names)), np.ones(len(names))),
        record_ids=np.arange(len(data)),
        poisoned=np.zeros(len(data), dtype=bool),
    )

