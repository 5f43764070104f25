"""Dataset preparation: cleanse, format, transform, explore, split."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smosim import pipeline
from smosim.config import DerivedFeature, FeatureSpec, SplitSpec
from smosim.datagen import RecordBatch
from smosim.errors import (
    ConfigError,
    EmptyDataset,
    InsufficientData,
    SchemaMismatch,
    UnmappableField,
)
from smosim.pipeline import (
    Dataset,
    Stage,
    cleanse,
    explore,
    format_dataset,
    split,
    transform,
    transformed_from_csv,
)
from smosim.topology import ComponentId, ComponentKind

from conftest import batch_rows, record_batch, transformed_to_csv

SRC = ComponentId(ComponentKind.NSSMF, 0)
SRC2 = ComponentId(ComponentKind.NFVO, 0)
MISSING = None


def _record(rid: int, features: dict, target: float) -> tuple:
    return rid, dict(features), target


def _batch(records, schema, source=SRC) -> RecordBatch:
    return record_batch(schema, [f for _, f, _ in records], [t for _, _, t in records],
                        [rid for rid, _, _ in records], source)


def _raw(records, schema, source=SRC) -> Dataset:
    return Dataset(Stage.RAW, _batch(records, schema, source))


NUM_SCHEMA = [FeatureSpec("x", "numeric", valid_range=(0.0, 100.0))]


class TestCleanse:
    def test_duplicate_record_id_reduced_to_one(self):
        records = [_record(1, {"x": 1.0}, 1.0), _record(1, {"x": 2.0}, 2.0)]
        out = cleanse(_raw(records, NUM_SCHEMA))
        assert len(out.records) == 1
        assert batch_rows(out.records)[0]["x"] == 1.0  # first occurrence kept

    def test_duplicate_field_tuple_reduced_to_one(self):
        records = [_record(1, {"x": 5.0}, 1.0), _record(2, {"x": 5.0}, 1.0)]
        out = cleanse(_raw(records, NUM_SCHEMA))
        assert len(out.records) == 1

    def test_median_imputation(self):
        records = [_record(i, {"x": v}, 0.0)
                   for i, v in enumerate([1.0, 3.0, 5.0])]
        records.append(_record(3, {"x": MISSING}, 1.0))
        out = cleanse(_raw(records, NUM_SCHEMA))
        assert batch_rows(out.records)[3]["x"] == 3.0

    def test_mode_imputation_for_categorical(self):
        schema = [FeatureSpec("c", "categorical", vocab=("a", "b"))]
        records = [_record(0, {"c": "b"}, 0.0), _record(1, {"c": "b"}, 1.0),
                   _record(2, {"c": "a"}, 2.0), _record(3, {"c": MISSING}, 3.0)]
        out = cleanse(_raw(records, schema))
        assert batch_rows(out.records)[3]["c"] == "b"

    def test_out_of_range_clamped_to_nearest_bound(self):
        records = [_record(0, {"x": 150.0}, 0.0), _record(1, {"x": -3.0}, 1.0)]
        out = batch_rows(cleanse(_raw(records, NUM_SCHEMA)).records)
        assert out[0]["x"] == 100.0
        assert out[1]["x"] == 0.0

    def test_idempotent(self):
        records = [_record(i, {"x": float(i)}, float(i)) for i in range(4)]
        records.append(_record(9, {"x": MISSING}, 0.0))
        once = cleanse(_raw(records, NUM_SCHEMA))
        again = cleanse(Dataset(Stage.RAW, once.records))
        assert batch_rows(again.records) == batch_rows(once.records)

    def test_empty_after_dedup(self):
        with pytest.raises(EmptyDataset):
            cleanse(_raw([], NUM_SCHEMA))

    def test_requires_raw_stage(self):
        ds = _raw([_record(0, {"x": 1.0}, 0.0)], NUM_SCHEMA)
        cleansed = cleanse(ds)
        with pytest.raises(SchemaMismatch):
            cleanse(cleansed)


def _full_sort_dedup(b: RecordBatch) -> np.ndarray:
    """The dedup as one sort over every key of every row: the first row of
    each id, then the first row of each field tuple among those."""
    first_of_id = np.flatnonzero(pipeline._first_rows([b.record_id]))
    keys = [k[first_of_id] for k in pipeline._value_keys(b)]
    return first_of_id[pipeline._first_rows(keys)]


DEDUP_SCHEMA = [FeatureSpec("x", "numeric", valid_range=(0.0, 10.0)),
                FeatureSpec("c", "categorical", vocab=("a", "b")),
                FeatureSpec("ue", "identifier")]


@st.composite
def dedup_batches(draw):
    """One or two sources, the second with its own field names or not; ids
    repeat, values go missing as NaN, -1 or None, rows may differ only in an
    identifier, and targets are a mix of tied (NaN included) and unique."""
    values = {"numeric": st.sampled_from([None, 0.0, -0.0, 1.0]),
              "categorical": st.sampled_from([None, "a", "b"]),
              "identifier": st.sampled_from([None, "u1", "u2"])}
    targets = st.one_of(st.sampled_from([0.0, 1.0, math.nan]),
                        st.floats(-1e3, 1e3, allow_nan=False))
    parts = []
    for owner in (SRC, SRC2)[:draw(st.integers(1, 2))]:
        schema = [FeatureSpec(f"{f.name}2", f.type, f.vocab, f.valid_range)
                  if owner is SRC2 and draw(st.booleans()) else f for f in DEDUP_SCHEMA]
        rows = draw(st.lists(st.tuples(
            st.integers(0, 12), st.fixed_dictionaries({f.name: values[f.type] for f in schema}),
            targets), min_size=1, max_size=20))
        parts.append(_batch(rows, schema, owner))
    return RecordBatch.concat(parts)


@settings(max_examples=300, deadline=None)
@given(dedup_batches())
def test_cleanse_keeps_the_rows_of_a_full_sort_dedup(b):
    kept = cleanse(Dataset(Stage.RAW, b)).records.record_id
    assert list(kept) == list(b.record_id[_full_sort_dedup(b)])


class TestFormat:
    def test_renaming_merges_columns(self):
        canonical = [FeatureSpec("cpu", "numeric", valid_range=(0.0, 1.0))]
        records = RecordBatch.concat([
            _batch([_record(0, {"cpu_util": 0.5}, 1.0)],
                   [FeatureSpec("cpu_util", "numeric", valid_range=(0.0, 1.0))], SRC),
            _batch([_record(1, {"cpuLoad": 0.7}, 2.0)],
                   [FeatureSpec("cpuLoad", "numeric", valid_range=(0.0, 1.0))], SRC2),
        ])
        ds = Dataset(Stage.CLEANSED, records)
        out = format_dataset(ds, canonical, {
            SRC: {"cpu_util": "cpu"}, SRC2: {"cpuLoad": "cpu"}})
        assert all(list(r) == ["cpu"] for r in batch_rows(out.records))

    def test_raw_name_with_two_types_rejected_at_config(self):
        from conftest import build, categorical_feature, numeric_feature, scenario_b_dict

        data = scenario_b_dict()
        first, second = data["sources"]
        first["schema"] = [numeric_feature("x"), categorical_feature("y", ["u", "v"])]
        first["rename"] = {"x": "a", "y": "b"}
        second["schema"] = [numeric_feature("y"), categorical_feature("x", ["u", "v"])]
        second["rename"] = {"y": "a", "x": "b"}
        first["coefficients"] = second["coefficients"] = [1.0, 0.5, -0.5]
        # the renamed schemas agree, but raw "x" and "y" would need two column types
        with pytest.raises(ConfigError, match="sources\\[1\\].schema"):
            build(data)
        second["schema"] = [numeric_feature("x"), categorical_feature("y", ["u", "v"])]
        second["rename"] = {"x": "a", "y": "b"}
        build(data)

    def test_unmapped_field_rejected(self):
        canonical = [FeatureSpec("cpu", "numeric", valid_range=(0.0, 1.0))]
        mystery = [FeatureSpec("mystery", "numeric", valid_range=(0.0, 1.0))]
        ds = Dataset(Stage.CLEANSED, _batch([_record(0, {"mystery": 1.0}, 0.0)], mystery))
        with pytest.raises(UnmappableField):
            format_dataset(ds, canonical, {})

    def test_column_order_independent_of_arrival_order(self):
        canonical = [FeatureSpec("a", "numeric", valid_range=(0.0, 1.0)),
                     FeatureSpec("b", "numeric", valid_range=(0.0, 1.0))]
        rec1 = _record(0, {"b": 0.1, "a": 0.2}, 0.0)
        rec2 = _record(1, {"a": 0.3, "b": 0.4}, 1.0)
        for order in ([rec1, rec2], [rec2, rec1]):
            arrival = [canonical[1], canonical[0]] if order[0] is rec1 else canonical
            ds = Dataset(Stage.CLEANSED, _batch(order, arrival))
            out = format_dataset(ds, canonical, {})
            assert all(list(r) == ["a", "b"] for r in batch_rows(out.records))


def _formatted(values: list[dict], canonical, targets=None) -> Dataset:
    targets = targets or [0.0] * len(values)
    records = [_record(i, v, t) for i, (v, t) in enumerate(zip(values, targets))]
    return Dataset(Stage.FORMATTED, _batch(records, canonical), canonical=canonical)


class TestTransform:
    def test_zscore_hand_example(self):
        canonical = [FeatureSpec("x", "numeric", valid_range=(0.0, 10.0))]
        ds = _formatted([{"x": 1.0}, {"x": 2.0}, {"x": 3.0}], canonical)
        td = transform(ds, "zscore")
        sigma_pop = math.sqrt(2.0 / 3.0)
        expected = [(1.0 - 2.0) / sigma_pop, 0.0, (3.0 - 2.0) / sigma_pop]
        assert td.X[:, 0] == pytest.approx(expected, abs=1e-4)
        assert td.X[0, 0] == pytest.approx(-1.2247, abs=1e-4)

    def test_constant_column_maps_to_zero(self):
        canonical = [FeatureSpec("x", "numeric", valid_range=(0.0, 10.0))]
        ds = _formatted([{"x": 4.0}, {"x": 4.0}], canonical)
        td = transform(ds, "zscore")
        assert list(td.X[:, 0]) == [0.0, 0.0]

    def test_one_hot_encoding(self):
        canonical = [FeatureSpec("c", "categorical", vocab=("a", "b", "c"))]
        ds = _formatted([{"c": "b"}], canonical)
        td = transform(ds, "zscore")
        assert list(td.X[0]) == [0.0, 1.0, 0.0]
        assert td.feature_names == ["c=a", "c=b", "c=c"]

    def test_derived_product_and_ratio(self):
        canonical = [FeatureSpec("a", "numeric", valid_range=(0.0, 10.0)),
                     FeatureSpec("b", "numeric", valid_range=(0.0, 10.0))]
        derived = (DerivedFeature("product", "a", "b"), DerivedFeature("ratio", "a", "b"))
        ds = _formatted([{"a": 6.0, "b": 3.0}], canonical)
        td = transform(ds, "none", derived)
        assert td.feature_names == ["a", "b", "a*b", "a/b"]
        assert list(td.X[0]) == [6.0, 3.0, 18.0, 2.0]

    @pytest.mark.parametrize("mode, offset, scale", [
        ("schema_range", [10.0, 0.0], [40.0, 1.0]), ("zscore", [0.0, 0.0], [1.0, 1.0]),
        ("minmax", [0.0, 0.0], [1.0, 1.0]), ("none", [0.0, 0.0], [1.0, 1.0])])
    def test_scaler_at_zero_rows(self, mode, offset, scale):
        # schema_range reads the schema alone; the modes fitted to rows have
        # nothing to fit and give the identity, which says so in its mode
        canonical = [FeatureSpec("x", "numeric", valid_range=(10.0, 50.0)),
                     FeatureSpec("c", "categorical", vocab=("u",))]
        scaler = pipeline.fit_scaler(np.zeros((0, 2)), ["x", "c=u"], canonical, (), mode)
        assert scaler.mode == (mode if mode == "schema_range" else "none")
        assert (list(scaler.offset), list(scaler.scale)) == (offset, scale)

    def test_stored_scaler_reproduces_training_matrix(self):
        canonical = [FeatureSpec("x", "numeric", valid_range=(0.0, 10.0))]
        ds = _formatted([{"x": 1.0}, {"x": 5.0}, {"x": 9.0}], canonical)
        td = transform(ds, "zscore")
        replay = pipeline.reapply_transform(ds.records, canonical, (), td.scaler)
        assert np.array_equal(replay, td.X)

    def test_record_count_preserved_and_finite(self):
        canonical = [FeatureSpec("x", "numeric", valid_range=(0.0, 10.0)),
                     FeatureSpec("c", "categorical", vocab=("u", "v"))]
        values = [{"x": float(i % 7), "c": "u" if i % 2 else "v"} for i in range(25)]
        td = transform(_formatted(values, canonical), "minmax")
        assert len(td) == 25
        assert np.isfinite(td.X).all()

    def test_missing_value_rejected_at_transform(self):
        canonical = [FeatureSpec("x", "numeric", valid_range=(0.0, 10.0))]
        ds = _formatted([{"x": MISSING}], canonical)
        with pytest.raises(SchemaMismatch):
            transform(ds, "none")


class TestExplore:
    def _td(self, xs, ys):
        canonical = [FeatureSpec("x", "numeric", valid_range=(0.0, 10.0))]
        ds = _formatted([{"x": float(v)} for v in xs], canonical, targets=list(ys))
        return transform(ds, "none")

    def test_feature_identical_to_target(self):
        td = self._td([1, 2, 3], [1, 2, 3])
        report = explore(td)
        assert report.target_correlation[0] == pytest.approx(1.0)

    def test_constant_feature_correlation_zero(self):
        td = self._td([5, 5, 5], [1, 2, 3])
        report = explore(td)
        assert report.target_correlation[0] == 0.0
        assert report.correlation[0][0] == 1.0

    def test_pearson_hand_example(self):
        td = self._td([1, 2, 3], [2, 1, 3])
        report = explore(td)
        assert report.target_correlation[0] == pytest.approx(0.5)

    def test_insufficient_data(self):
        td = self._td([1], [1])
        with pytest.raises(InsufficientData):
            explore(td)

    def test_matrix_symmetric_unit_diagonal_bounded(self):
        canonical = [FeatureSpec("x", "numeric", valid_range=(0.0, 10.0)),
                     FeatureSpec("y", "numeric", valid_range=(0.0, 10.0)),
                     FeatureSpec("z", "numeric", valid_range=(0.0, 10.0))]
        rng = np.random.default_rng(5)
        values = [{"x": float(a), "y": float(b), "z": float(a * 0.5 + b)}
                  for a, b in rng.uniform(0, 10, size=(40, 2))]
        td = transform(_formatted(values, canonical), "zscore")
        report = explore(td)
        m = np.array(report.correlation)
        assert np.allclose(m, m.T)
        assert np.allclose(np.diag(m), 1.0)
        assert (np.abs(m) <= 1.0 + 1e-12).all()

    @staticmethod
    def _dataset(X, y) -> pipeline.TransformedDataset:
        names = [f"f{j}" for j in range(X.shape[1])]
        return pipeline.TransformedDataset(
            feature_names=names, X=X, y=y,
            scaler=pipeline.ScalingParams("none", names, np.zeros(X.shape[1]),
                                          np.ones(X.shape[1])),
            record_ids=list(range(len(y))))

    @staticmethod
    def _reference_explore(td):
        """Each correlation from its pair of columns alone, as a pairwise loop."""
        def corr(a, b):
            sa, sb = float(np.std(a)), float(np.std(b))
            if sa == 0.0 or sb == 0.0:
                return 0.0
            return float(np.mean((a - np.mean(a)) * (b - np.mean(b)))) / (sa * sb)

        X, y = td.X, td.y
        d = X.shape[1]
        return ([[1.0 if i == j else corr(X[:, i], X[:, j]) for j in range(d)]
                 for i in range(d)], [corr(X[:, j], y) for j in range(d)])

    def _assert_equals_reference(self, X, y):
        td = self._dataset(X, y)
        report = explore(td)
        corr, target_corr = self._reference_explore(td)
        assert report.correlation == corr
        assert report.target_correlation == target_corr

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_correlations_equal_the_pairwise_loop(self, data):
        n, d = data.draw(st.integers(2, 40)), data.draw(st.integers(1, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        X = rng.normal(size=(n, d)) * rng.uniform(0.1, 100.0, size=d)
        for j in data.draw(st.sets(st.integers(0, d - 1), max_size=2)):
            X[:, j] = float(rng.normal())  # a constant column
        if data.draw(st.booleans()):
            X[:, -1] = X[:, 0] * 2.0 + 1.0  # exactly correlated columns
        y = np.full(n, 3.0) if data.draw(st.booleans()) else rng.normal(size=n)
        self._assert_equals_reference(X, y)

    def test_two_records_and_constant_columns_equal_the_pairwise_loop(self):
        X = np.array([[1.0, 5.0, 0.25, -3.0], [4.0, 5.0, 0.5, 7.0]])
        self._assert_equals_reference(X, np.array([2.0, -1.0]))
        self._assert_equals_reference(X, np.array([2.0, 2.0]))
        self._assert_equals_reference(X[:, 1:2], np.array([2.0, -1.0]))


class TestSplit:
    def _td(self, n: int):
        canonical = [FeatureSpec("x", "numeric", valid_range=(0.0, 100.0))]
        values = [{"x": float(i)} for i in range(n)]
        return transform(_formatted(values, canonical), "none")

    def test_exact_division(self):
        sd = split(self._td(10), SplitSpec(0.6, 0.2, 0.2, seed=1))
        assert (len(sd.train), len(sd.val), len(sd.test)) == (6, 2, 2)

    def test_invalid_ratios(self):
        with pytest.raises(ConfigError):
            split(self._td(10), SplitSpec(0.5, 0.5, 0.5, seed=1))

    def test_same_seed_identical_partitions(self):
        a = split(self._td(30), SplitSpec(0.6, 0.2, 0.2, seed=9))
        b = split(self._td(30), SplitSpec(0.6, 0.2, 0.2, seed=9))
        assert np.array_equal(a.train_idx, b.train_idx)
        assert np.array_equal(a.val_idx, b.val_idx)
        assert np.array_equal(a.test_idx, b.test_idx)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 200), seed=st.integers(0, 2**16),
           cut=st.tuples(st.floats(0.05, 0.9), st.floats(0.01, 0.5)))
    def test_partitions_disjoint_and_exhaustive(self, n, seed, cut):
        train_r = cut[0]
        val_r = (1.0 - train_r) * cut[1]
        test_r = 1.0 - train_r - val_r
        sd = split(self._td(n), SplitSpec(train_r, val_r, test_r, seed=seed))
        union = np.concatenate([sd.train_idx, sd.val_idx, sd.test_idx])
        assert sorted(union.tolist()) == list(range(n))
        assert len(sd.val) == math.floor(n * val_r)
        assert len(sd.test) == math.floor(n * test_r)


class TestCsv:
    def test_roundtrip_is_exact(self):
        canonical = [FeatureSpec("x", "numeric", valid_range=(0.0, 10.0))]
        rng = np.random.default_rng(3)
        values = [{"x": float(v)} for v in rng.uniform(0, 10, 17)]
        td = transform(_formatted(values, canonical,
                                  targets=list(rng.normal(size=17))), "zscore")
        back = transformed_from_csv(transformed_to_csv(td))
        assert np.array_equal(back.X, td.X)
        assert np.array_equal(back.y, td.y)
        assert back.feature_names == td.feature_names

    @pytest.mark.parametrize("text", ["x,target\n1.0,2.0\nhigh,3.0\n",
                                      "x,target\n1.0,2.0\n3.0\n", "x,target\n"])
    def test_rows_must_be_numbers_under_the_header(self, text):
        with pytest.raises(SchemaMismatch):
            transformed_from_csv(text)

    def test_header_must_end_with_target(self):
        with pytest.raises(SchemaMismatch):
            transformed_from_csv("x,y\n1.0,2.0\n")
