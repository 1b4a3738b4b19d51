"""Documents stream to disk: ``atomic_write_json`` writes the bytes of
``canonical_json`` without ever holding them as one string."""

import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.durable import atomic_write_json, canonical_json

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
JSON_LIKE = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(document=JSON_LIKE)
def test_the_written_bytes_are_canonical_json(tmp_path_factory, document):
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    atomic_write_json(path, document)
    text = canonical_json(document)
    assert path.read_bytes() == text.encode("utf-8")
    # The encoding documents and goldens were written with.
    assert text == json.dumps(document, indent=2, sort_keys=True) + "\n"


def test_a_document_that_cannot_encode_leaves_the_old_file(tmp_path):
    path = tmp_path / "doc.json"
    atomic_write_json(path, {"ok": True})
    with pytest.raises(TypeError):
        atomic_write_json(path, {"a": list(range(1000)), "z": object()})
    assert path.read_text() == canonical_json({"ok": True})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]


def test_saving_a_document_allocates_far_less_than_its_size(tmp_path):
    document = {
        "rows": [
            {"id": i, "label": f"row-{i:06d}", "value": i * 0.5}
            for i in range(25_000)
        ]
    }
    size = len(canonical_json(document))
    assert size > 2_000_000
    tracemalloc.start()
    try:
        atomic_write_json(tmp_path / "big.json", document)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < size / 20
