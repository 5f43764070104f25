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
    Provenance,
    Stage,
    cleanse,
    explore,
    format_dataset,
    split,
    transform,
    transformed_from_csv,
    transformed_to_csv,
)
from smosim.topology import ComponentId, ComponentKind

from conftest import batch_rows, record_batch

SRC = ComponentId(ComponentKind.NSSMF, 0)
SRC2 = ComponentId(ComponentKind.NFVO, 0)
PROV = Provenance((str(SRC),), (0, 10), "test")
MISSING = None


def _record(rid: int, features: dict, target: float) -> tuple:
    return rid, dict(features), target


def _batch(records, schema, source=SRC) -> RecordBatch:
    return record_batch(schema, [f for _, f, _ in records], [t for _, _, t in records],
                        [rid for rid, _, _ in records], source)


def _raw(records, schema, source=SRC) -> Dataset:
    return Dataset(Stage.RAW, _batch(records, schema, source), PROV)


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
        again = cleanse(Dataset(Stage.RAW, once.records, PROV))
        assert batch_rows(again.records) == batch_rows(once.records)

    def test_empty_after_dedup(self):
        with pytest.raises(EmptyDataset):
            cleanse(_raw([], NUM_SCHEMA))

    def test_requires_raw_stage(self):
        ds = _raw([_record(0, {"x": 1.0}, 0.0)], NUM_SCHEMA)
        cleansed = cleanse(ds)
        with pytest.raises(SchemaMismatch):
            cleanse(cleansed)


class TestFormat:
    def test_renaming_merges_columns(self):
        canonical = [FeatureSpec("cpu", "numeric", valid_range=(0.0, 1.0))]
        records = RecordBatch.concat([
            _batch([_record(0, {"cpu_util": 0.5}, 1.0)],
                   [FeatureSpec("cpu_util", "numeric", valid_range=(0.0, 1.0))], SRC),
            _batch([_record(1, {"cpuLoad": 0.7}, 2.0)],
                   [FeatureSpec("cpuLoad", "numeric", valid_range=(0.0, 1.0))], SRC2),
        ])
        ds = Dataset(Stage.CLEANSED, records, PROV)
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
        ds = Dataset(Stage.CLEANSED, _batch([_record(0, {"mystery": 1.0}, 0.0)], mystery),
                     PROV)
        with pytest.raises(UnmappableField):
            format_dataset(ds, canonical, {})

    def test_column_order_independent_of_arrival_order(self):
        canonical = [FeatureSpec("a", "numeric", valid_range=(0.0, 1.0)),
                     FeatureSpec("b", "numeric", valid_range=(0.0, 1.0))]
        rec1 = _record(0, {"b": 0.1, "a": 0.2}, 0.0)
        rec2 = _record(1, {"a": 0.3, "b": 0.4}, 1.0)
        for order in ([rec1, rec2], [rec2, rec1]):
            arrival = [canonical[1], canonical[0]] if order[0] is rec1 else canonical
            ds = Dataset(Stage.CLEANSED, _batch(order, arrival), PROV)
            out = format_dataset(ds, canonical, {})
            assert all(list(r) == ["a", "b"] for r in batch_rows(out.records))


def _formatted(values: list[dict], canonical, targets=None) -> Dataset:
    targets = targets or [0.0] * len(values)
    records = [_record(i, v, t) for i, (v, t) in enumerate(zip(values, targets))]
    return Dataset(Stage.FORMATTED, _batch(records, canonical), PROV, canonical=canonical)


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
        back = transformed_from_csv(transformed_to_csv(td), td.provenance)
        assert np.array_equal(back.X, td.X)
        assert np.array_equal(back.y, td.y)
        assert back.feature_names == td.feature_names

    def test_header_must_end_with_target(self):
        with pytest.raises(SchemaMismatch):
            transformed_from_csv("x,y\n1.0,2.0\n", PROV)
