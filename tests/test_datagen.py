"""Synthetic data generation: ground truth, imperfections, emission schedule."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smosim.config import FeatureSpec, SourceSpec, EmissionSpec
from smosim.datagen import encode, generate_batch, streaming_emission_ticks
from smosim.errors import SchemaMismatch
from smosim.topology import ComponentId, ComponentKind

from conftest import batch_rows

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
        from smosim.scenarios import run_scenario
        from conftest import build, scenario_b_dict

        data = scenario_b_dict(n_per_source=10)
        data["collection"] = {"window": 10, "requests": 3}
        data["monitor"] = {"rounds": 0}
        result = run_scenario(build(data))
        assert result.driver.transformed is not None
        assert len(result.driver.transformed) == 60  # 2 sources x 3 requests x 10

    def test_noise_matches_sigma(self):
        spec = _spec([0.0], noise_sigma=2.0)
        records = generate_batch(spec, 4000, seed=13)
        targets = records.target
        assert np.std(targets) == pytest.approx(2.0, rel=0.1)
