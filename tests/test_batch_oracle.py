"""The columnar cleanse -> format -> transform path against a row-level reference."""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smosim.config import DerivedFeature, FeatureSpec, model_feature_names
from smosim.datagen import RecordBatch
from smosim.pipeline import Dataset, Stage, cleanse, fit_scaler, format_dataset, transform
from smosim.topology import ComponentId, ComponentKind

from conftest import record_batch

CANONICAL = [FeatureSpec("x", "numeric", valid_range=(0.0, 10.0)),
             FeatureSpec("y", "numeric", valid_range=(-1.0, 1.0)),
             FeatureSpec("c", "categorical", vocab=("a", "b", "c")),
             FeatureSpec("ue", "identifier")]
OWNERS = [ComponentId(ComponentKind.NSSMF, 0), ComponentId(ComponentKind.NFVO, 0),
          ComponentId(ComponentKind.NSSMF, 1)]


def reference(parts, renames, derived, scaling):
    """Row-level cleanse, format and transform; parts are (owner, schema, rows)
    with rows (record id, field dict with None for missing, target)."""
    rows = [(o, schema, rid, f, t) for o, schema, recs in parts for rid, f, t in recs]
    seen_ids: set = set()
    firsts = [r for r in rows if not (r[2] in seen_ids or seen_ids.add(r[2]))]
    seen: set = set()
    kept = []
    for o, schema, rid, f, t in firsts:
        key = (tuple((s.name, f[s.name]) for s in schema), t)
        if key not in seen:
            seen.add(key)
            kept.append((o, schema, rid, dict(f), t))
    present: dict[str, list] = {}
    for _, schema, _, f, _ in kept:
        for s in schema:
            if f[s.name] is not None:
                present.setdefault(s.name, []).append(f[s.name])
    for _, schema, _, f, _ in kept:
        for s in schema:
            v, values = f[s.name], present.get(s.name, [])
            if s.type == "numeric":
                lo, hi = s.valid_range
                fill = float(np.median(values)) if values else (lo + hi) / 2.0
                f[s.name] = fill if v is None else min(max(v, lo), hi)
            elif v is None and s.type == "categorical":
                counts = Counter(values)
                top = [c for c in counts if counts[c] == max(counts.values())]
                f[s.name] = min(top) if top else s.vocab[0]
            elif v is None:
                f[s.name] = ""
    base = []
    for o, _, _, f, _ in kept:
        row = {renames.get(o, {}).get(n, n): v for n, v in f.items()}
        nums = [row[s.name] for s in CANONICAL if s.type == "numeric"]
        der = [row[d.a] * row[d.b] if d.op == "product" else
               (row[d.a] / row[d.b] if abs(row[d.b]) > 1e-12 else 0.0) for d in derived]
        hot = [1.0 if row[s.name] == v else 0.0
               for s in CANONICAL if s.type == "categorical" for v in s.vocab]
        base.append(nums + der + hot)
    base = np.array(base, dtype=float)
    names = model_feature_names(CANONICAL, list(derived))
    X = fit_scaler(base, names, CANONICAL, derived, scaling).apply(base)
    return X, [t for *_, t in kept], [r[2] for r in kept]


@st.composite
def sources(draw):
    """One to three sources; each may rename fields and narrow its numeric
    ranges. Values repeat, go missing and leave range; targets tie or not."""
    parts, renames = [], {}
    for owner in OWNERS[:draw(st.integers(1, 3))]:
        schema, table = [], {}
        for spec in CANONICAL:
            name = f"{spec.name}_{owner.index}{owner.kind.value}" if draw(st.booleans()) \
                else spec.name
            table[name] = spec.name
            rng = spec.valid_range
            if rng is not None and draw(st.booleans()):
                rng = (rng[0] + 0.5, rng[1] - 0.5)
            schema.append(FeatureSpec(name, spec.type, spec.vocab, rng, spec.sensitive))
        values = {"numeric": st.sampled_from([None, -5.0, 0.0, 0.25, 1.5, 3.0, 12.0]),
                  "categorical": st.sampled_from([None, "a", "b", "c"]),
                  "identifier": st.sampled_from([None, "u1", "u2"])}
        rows = draw(st.lists(st.tuples(
            st.integers(0, 8),
            st.fixed_dictionaries({s.name: values[s.type] for s in schema}),
            st.one_of(st.sampled_from([0.0, 1.0, 2.5]),
                      st.floats(-5.0, 5.0, allow_nan=False))), max_size=6))
        parts.append((owner, schema, rows))
        renames[owner] = table
    return parts, renames


@settings(max_examples=150, deadline=None)
@given(sources(), st.sampled_from(["none", "zscore", "minmax", "schema_range"]),
       st.sampled_from([(), (DerivedFeature("product", "x", "y"),),
                        (DerivedFeature("ratio", "y", "x"),)]))
def test_columnar_path_equals_row_reference(drawn, scaling, derived):
    parts, renames = drawn
    assume(any(rows for _, _, rows in parts))
    batch = RecordBatch.concat([
        record_batch(schema, [f for _, f, _ in rows], [t for *_, t in rows],
                     [rid for rid, *_ in rows], owner) for owner, schema, rows in parts])
    formatted = format_dataset(cleanse(Dataset(Stage.RAW, batch)), CANONICAL, renames)
    td = transform(formatted, scaling, derived)
    X, y, ids = reference(parts, renames, derived, scaling)
    assert np.array_equal(td.X, X)
    assert list(td.y) == y
    assert list(td.record_ids) == ids


SCHEMA = [FeatureSpec("x", "numeric", valid_range=(0.0, 10.0))]


def _cleansed_ids(rows) -> list[int]:
    batch = record_batch(SCHEMA, [{"x": x} for _, x, _ in rows], [t for *_, t in rows],
                         [rid for rid, *_ in rows])
    return list(cleanse(Dataset(Stage.RAW, batch)).records.record_id)


def test_repeated_id_competes_on_values_with_its_first_row_only():
    # the first row of id 2 repeats the values of id 1 and is dropped; the
    # later row of id 2 is new by value but dropped too, because its id repeats
    assert _cleansed_ids([(1, 1.0, 1.0), (2, 1.0, 1.0), (2, 5.0, 1.0)]) == [1]
    # a row dropped for its id does not block a later row with its values
    assert _cleansed_ids([(1, 1.0, 1.0), (1, 5.0, 1.0), (3, 5.0, 1.0)]) == [1, 3]


def test_rows_missing_the_same_value_are_duplicates():
    assert _cleansed_ids([(1, None, 1.0), (2, None, 1.0), (3, None, 2.0)]) == [1, 3]
