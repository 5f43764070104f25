"""Synthetic data generation: ground truth, imperfections, emission schedule."""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smosim.config import FeatureSpec, SourceSpec, EmissionSpec
from smosim.datagen import (Part, RecordBatch, encode, gather, generate_batch, is_missing,
                            median, streaming_emission_ticks)
from smosim.errors import SchemaMismatch
from smosim.topology import ComponentId, ComponentKind

from conftest import batch_rows
from invariants import checked_run

MISSING = None

OWNER = ComponentId(ComponentKind.NSSMF, 0)


def _spec(coefficients, schema=None, **kwargs) -> SourceSpec:
    schema = schema or [FeatureSpec("x", "numeric", valid_range=(0.0, 10.0))]
    return SourceSpec(owner=OWNER, schema=schema, coefficients=coefficients, **kwargs)


class TestGenerateBatch:
    def test_noiseless_linear_target(self):
        spec = _spec([2.0])
        batch = generate_batch(spec, 5, seed=1)
        for r, target in zip(batch_rows(batch), batch.target):
            assert target == pytest.approx(2.0 * r["x"], abs=1e-12)

    def test_specific_feature_value_maps_through_coefficients(self):
        spec = _spec([2.0])
        targets = encode(spec.schema, {"x": np.array([3.0])}) @ spec.coefficients + spec.bias
        assert targets == pytest.approx([6.0])

    def test_empty_batch(self):
        assert len(generate_batch(_spec([1.0]), 0, seed=1)) == 0

    def test_missing_count_is_exact_floor(self):
        spec = _spec([1.0], missing_rate=0.2)
        records = batch_rows(generate_batch(spec, 50, seed=3))
        with_missing = [r for r in records if MISSING in r.values()]
        assert len(with_missing) == 10

    def test_coefficient_width_checked(self):
        spec = _spec([1.0, 2.0])
        with pytest.raises(SchemaMismatch):
            generate_batch(spec, 3, seed=0)

    def test_seeded_regeneration_identical(self):
        spec = _spec([1.5], noise_sigma=0.3, missing_rate=0.1, duplicate_rate=0.1,
                     error_rate=0.1)
        a = generate_batch(spec, 40, seed=9)
        b = generate_batch(spec, 40, seed=9)
        assert batch_rows(a) == batch_rows(b)
        assert list(a.target) == list(b.target)

    def test_duplicates_are_exact_copies_with_same_id(self):
        spec = _spec([1.0], duplicate_rate=0.25)
        batch = generate_batch(spec, 20, seed=5)
        assert len(batch) == 25
        records = list(zip(batch.record_id, batch_rows(batch), batch.target))
        base = {rid: (rid, features, target) for rid, features, target in records[:20]}
        for rid, features, target in records[20:]:
            original = base[rid]
            assert features == original[1]
            assert target == original[2]

    def test_errors_exceed_valid_range(self):
        spec = _spec([1.0], error_rate=0.5, error_factor=10.0)
        records = batch_rows(generate_batch(spec, 10, seed=7))
        hi = 10.0
        out_of_range = [r for r in records if isinstance(r["x"], float) and r["x"] > hi]
        assert len(out_of_range) == 5
        for r in out_of_range:
            assert r["x"] == pytest.approx(hi + 10.0 * (hi - 0.0))

    def test_targets_computed_before_corruption(self):
        spec = _spec([1.0], error_rate=1.0)
        records = generate_batch(spec, 4, seed=2)
        for target in records.target:
            assert target <= 10.0  # original in-range feature value

    def test_categorical_encoding_contributes_to_target(self):
        schema = [FeatureSpec("c", "categorical", vocab=("a", "b", "c"))]
        spec = _spec([1.0, 2.0, 3.0], schema=schema)
        b = {"c": np.array([schema[0].vocab.index("b")])}
        assert encode(schema, b) @ spec.coefficients + spec.bias == pytest.approx([2.0])
        assert list(encode(schema, b)[0]) == [0.0, 1.0, 0.0]

    def test_identifier_features_excluded_from_encoding(self):
        schema = [FeatureSpec("ue", "identifier", sensitive=True),
                  FeatureSpec("x", "numeric", valid_range=(0.0, 1.0))]
        spec = _spec([1.0], schema=schema)
        records = batch_rows(generate_batch(spec, 3, seed=0))
        for r in records:
            assert str(r["ue"]).startswith("id-")

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 120), rate=st.floats(0.0, 1.0))
    def test_floor_formula_for_any_rate(self, n: int, rate: float):
        spec = _spec([1.0], missing_rate=rate, duplicate_rate=rate)
        records = batch_rows(generate_batch(spec, n, seed=11))
        assert len(records) == n + math.floor(n * rate)
        with_missing = sum(1 for r in records[:n] if MISSING in r.values())
        assert with_missing == math.floor(n * rate)


DIRTY_SCHEMA = [FeatureSpec("x", "numeric", valid_range=(0.0, 10.0)),
                FeatureSpec("y", "numeric", valid_range=(-1.0, 1.0)),
                FeatureSpec("c", "categorical", vocab=("a", "b", "c")),
                FeatureSpec("ue", "identifier")]


def _dirty_spec(**rates) -> SourceSpec:
    rates = {"duplicate_rate": 0.2, "missing_rate": 0.15, "error_rate": 0.1, **rates}
    return _spec([1.5, -2.0, 0.3, 0.0, -0.3], schema=DIRTY_SCHEMA, bias=0.4, noise_sigma=0.3,
                 **rates)


def _digest(batch) -> str:
    h = hashlib.sha256()
    for name, col in batch.columns.items():
        h.update(f"{name}={col.tolist()!r}".encode())
    for arr in (batch.record_id, batch.source, batch.tick, batch.target, batch.poisoned):
        h.update(repr(arr.tolist()).encode())
    return h.hexdigest()


class TestBulkDraw:
    N, PARTS = 40, 6
    M = 40 + 8  # rows per part: n base records and floor(0.2 * n) copies

    def test_one_part_is_the_plain_draw_bit_for_bit(self):
        # pinned from the draw made before generate_batch took ``parts``
        batch = generate_batch(_dirty_spec(), self.N, seed=13, id_start=100, tick=7, parts=1)
        assert len(batch) == self.M
        assert _digest(batch) == \
            "d074922c2d4e13326dd217fae974524f242e19402efa5e7755662811232234c6"

    def _parts(self, spec):
        batch = generate_batch(spec, self.N, seed=21, id_start=100, parts=self.PARTS)
        assert len(batch) == self.PARTS * self.M
        return [batch.take(slice(p * self.M, (p + 1) * self.M)) for p in range(self.PARTS)]

    def test_each_part_holds_exact_duplicates_of_its_own_rows(self):
        for p, part in enumerate(self._parts(_dirty_spec())):
            base_ids = 100 + p * self.M + np.arange(self.N)
            np.testing.assert_array_equal(part.record_id[:self.N], base_ids)
            copies = part.record_id[self.N:]
            assert len(copies) == math.floor(self.N * 0.2)
            assert np.isin(copies, base_ids).all()
            for j, rid in enumerate(copies, start=self.N):
                original = rid - base_ids[0]
                assert part.target[j] == part.target[original]

    def test_each_part_holds_exact_range_errors_in_its_base_rows(self):
        for part in self._parts(_dirty_spec()):
            errors = (part.columns["x"] > 10.0) | (part.columns["y"] > 1.0)
            assert errors.sum() == errors[:self.N].sum() == math.floor(self.N * 0.1)

    def test_each_part_holds_exact_missing_values_in_its_base_rows(self):
        # no range errors here, since one may overwrite a missing value
        for part in self._parts(_dirty_spec(error_rate=0.0)):
            missing = sum(is_missing(part.columns[f.name]).astype(int)
                          for f in DIRTY_SCHEMA if f.type != "identifier")
            assert missing.max() == 1
            assert missing.sum() == missing[:self.N].sum() == math.floor(self.N * 0.15)

    def test_parts_share_the_base_columns_of_one_draw(self):
        clean = _dirty_spec(duplicate_rate=0.0, missing_rate=0.0, error_rate=0.0)
        whole = generate_batch(clean, self.N * self.PARTS, seed=21, id_start=100)
        split = generate_batch(clean, self.N, seed=21, id_start=100, parts=self.PARTS)
        assert _digest(split) == _digest(whole)

    def test_parts_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_batch(_dirty_spec(), 5, seed=1, parts=0)


# -- parts of bulk draws, and their gather ----------------------------------------------

# sources that differ in their fields, so that a gather of their parts fills the
# columns a source does not carry
GATHER_SPECS = [
    _dirty_spec(),
    SourceSpec(owner=ComponentId(ComponentKind.NFVO, 0),
               schema=[DIRTY_SCHEMA[1], FeatureSpec("z", "numeric", valid_range=(0.0, 1.0))],
               coefficients=[1.0, -1.0], noise_sigma=0.1, missing_rate=0.3),
    SourceSpec(owner=ComponentId(ComponentKind.NFMF, 1), schema=DIRTY_SCHEMA[2:],
               coefficients=[0.5, 0.0, -0.5], error_rate=0.0, duplicate_rate=0.3),
]


def _assert_same_array(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.dtype == expected.dtype and got.shape == expected.shape
    if expected.dtype == object:
        assert got.tolist() == expected.tolist()
    else:
        assert got.tobytes() == expected.tobytes()


def _assert_same_batch(got: RecordBatch, expected: RecordBatch) -> None:
    assert list(got.schemas.items()) == list(expected.schemas.items())
    assert list(got.columns) == list(expected.columns)
    for name, col in expected.columns.items():
        _assert_same_array(got.columns[name], col)
    for k in ("record_id", "tick", "source", "target", "poisoned"):
        _assert_same_array(getattr(got, k), getattr(expected, k))


@st.composite
def gather_inputs(draw) -> list[Part | RecordBatch]:
    """Parts of one to three bulk draws, each of one of the sources, with whole
    batches among them, in any order: parts dropped, repeated and interleaved,
    and some made into their batches at the source."""
    items: list[Part | RecordBatch] = []
    for _ in range(draw(st.integers(1, 3))):
        spec = replace(draw(st.sampled_from(GATHER_SPECS)),
                       duplicate_rate=draw(st.sampled_from([0.0, 0.25, 0.5])))
        n, parts = draw(st.integers(1, 5)), draw(st.integers(1, 4))
        seed = draw(st.integers(0, 2**16))
        drawn = generate_batch(spec, n, seed, id_start=draw(st.integers(0, 99)), parts=parts)
        m = len(drawn) // parts
        items += [Part(drawn, i, m, draw(st.integers(0, 10**6)), draw(st.integers(0, 10**4)))
                  for i in range(parts)]
        if draw(st.booleans()):  # a batch-mode request's records
            items.append(generate_batch(spec, n, seed + 1, id_start=draw(st.integers(0, 99)),
                                        tick=draw(st.integers(0, 10**4))))
    picked = draw(st.lists(st.integers(0, len(items) - 1), max_size=12))
    return [items[i].batch() if isinstance(items[i], Part) and draw(st.booleans())
            else items[i] for i in picked]


class TestParts:
    def test_a_part_is_its_rows_of_the_draw_with_the_ids_and_tick_it_is_sent_with(self):
        drawn = generate_batch(_dirty_spec(), 10, seed=5, parts=3)
        m = 12  # 10 base records and 2 copies
        part = Part(drawn, 1, m, 500, 9)
        rows = drawn.take(slice(m, 2 * m))
        batch = part.batch()
        assert len(part) == len(batch) == m
        _assert_same_array(part.target, rows.target)
        # ids count on from 500, and a copy keeps the id of the row it copies
        np.testing.assert_array_equal(batch.record_id[:10], np.arange(500, 510))
        _assert_same_batch(batch, replace(rows, record_id=rows.record_id - m + 500,
                                          tick=np.full(m, 9)))

    @settings(max_examples=300, deadline=None)
    @given(gather_inputs())
    def test_gather_equals_the_concat_of_the_parts_batches_bit_for_bit(self, items):
        expected = RecordBatch.concat([p.batch() if isinstance(p, Part) else p for p in items])
        _assert_same_batch(gather(items), expected)

    def test_gathering_nothing_is_an_empty_batch(self):
        batch = gather([])
        assert len(batch) == 0 and batch.schemas == {} and batch.columns == {}
        _assert_same_batch(batch, RecordBatch.concat([]))


class TestEmission:
    def test_streaming_ticks_count(self):
        assert streaming_emission_ticks(0, 20, 5) == [5, 10, 15, 20]

    def test_streaming_interval_zero_rejected_at_validation(self):
        from smosim.errors import ConfigError
        from conftest import build, scenario_b_dict

        data = scenario_b_dict()
        data["sources"][0]["emission"] = {"mode": "streaming", "size": 5, "interval": 0}
        with pytest.raises(ConfigError):
            build(data)

    def test_batch_requests_multiply(self):
        from conftest import build, scenario_b_dict

        data = scenario_b_dict(n_per_source=10)
        data["collection"] = {"window": 10, "requests": 3}
        data["monitor"] = {"rounds": 0}
        result = checked_run(build(data))
        assert result.driver.transformed is not None
        assert len(result.driver.transformed) == 60  # 2 sources x 3 requests x 10

    def test_noise_matches_sigma(self):
        spec = _spec([0.0], noise_sigma=2.0)
        records = generate_batch(spec, 4000, seed=13)
        targets = records.target
        assert np.std(targets) == pytest.approx(2.0, rel=0.1)


@st.composite
def median_inputs(draw):
    """Odd and even lengths from 1 up, with repeats, both zeros, both
    infinities and, sometimes, a NaN anywhere."""
    special = st.sampled_from([0.0, -0.0, 1.5, -1.5, math.inf, -math.inf])
    values = draw(st.lists(st.one_of(special, st.floats(allow_nan=False)),
                           min_size=1, max_size=12))
    if draw(st.booleans()):
        values.insert(draw(st.integers(0, len(values))), math.nan)
    return np.array(values)


@settings(max_examples=500, deadline=None)
@given(median_inputs())
def test_median_equals_numpy_bit_for_bit(a):
    with np.errstate(invalid="ignore"):  # inf + -inf in the mean of two
        got, want = median(a), float(np.median(a))
    # repr tells -0.0 from 0.0; NaN has one repr
    assert repr(got) == repr(want)
