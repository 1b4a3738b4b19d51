"""Tests for union-find, fragment joining and chunk labelling."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps.joining import UnionFind, join_fragments, label_components


class TestUnionFind:
    def test_singletons(self):
        uf = UnionFind([1, 2, 3])
        assert uf.find(1) != uf.find(2)
        assert len(uf.groups()) == 3

    def test_union_merges(self):
        uf = UnionFind([1, 2, 3])
        uf.union(1, 2)
        assert uf.find(1) == uf.find(2)
        assert uf.find(3) != uf.find(1)

    def test_transitivity(self):
        uf = UnionFind(range(4))
        uf.union(0, 1)
        uf.union(2, 3)
        uf.union(1, 2)
        assert len(uf.groups()) == 1

    def test_idempotent_union(self):
        uf = UnionFind([1, 2])
        uf.union(1, 2)
        uf.union(2, 1)
        assert len(uf.groups()) == 1

    def test_add_idempotent(self):
        uf = UnionFind()
        uf.add("a")
        uf.add("a")
        assert len(uf) == 1

    def test_contains(self):
        uf = UnionFind(["x"])
        assert "x" in uf
        assert "y" not in uf

    @given(
        st.integers(2, 30).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    max_size=60,
                ),
            )
        )
    )
    def test_groups_partition_elements(self, data):
        n, unions = data
        uf = UnionFind(range(n))
        for a, b in unions:
            uf.union(a, b)
        groups = uf.groups()
        flattened = sorted(x for g in groups for x in g)
        assert flattened == list(range(n))
        # connectivity: united pairs land in the same group
        for a, b in unions:
            assert uf.find(a) == uf.find(b)


def frag(block, lo=False, hi=False, tag=None):
    return {"block": block, "touches_lo": lo, "touches_hi": hi, "tag": tag}


class TestJoinFragments:
    def always(self, a, b):
        return True

    def never(self, a, b):
        return False

    def test_no_boundary_touch_no_join(self):
        frags = [frag(0), frag(1)]
        groups = join_fragments(frags, self.always)
        assert len(groups) == 2

    def test_adjacent_touching_fragments_join(self):
        frags = [frag(0, hi=True), frag(1, lo=True)]
        groups = join_fragments(frags, self.always)
        assert len(groups) == 1

    def test_predicate_consulted(self):
        frags = [frag(0, hi=True), frag(1, lo=True)]
        groups = join_fragments(frags, self.never)
        assert len(groups) == 2

    def test_non_adjacent_blocks_never_join(self):
        frags = [frag(0, hi=True), frag(2, lo=True)]
        groups = join_fragments(frags, self.always)
        assert len(groups) == 2

    def test_chain_through_middle_block(self):
        frags = [
            frag(0, hi=True),
            frag(1, lo=True, hi=True),
            frag(2, lo=True),
        ]
        groups = join_fragments(frags, self.always)
        assert len(groups) == 1
        assert len(groups[0]) == 3

    def test_selective_predicate(self):
        frags = [
            frag(0, hi=True, tag="a"),
            frag(0, hi=True, tag="b"),
            frag(1, lo=True, tag="a"),
            frag(1, lo=True, tag="b"),
        ]
        groups = join_fragments(frags, lambda x, y: x["tag"] == y["tag"])
        assert len(groups) == 2
        for group in groups:
            tags = {f["tag"] for f in group}
            assert len(tags) == 1

    def test_empty_input(self):
        assert join_fragments([], self.always) == []


@pytest.fixture(scope="module")
def ndimage():
    return pytest.importorskip("scipy.ndimage")


@st.composite
def masks(draw):
    """1-D to 3-D grids, singleton axes included, at 0-100 % fill; some
    as 0/1 integers rather than booleans."""
    shape = tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=3)))
    fill = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    mask = np.random.default_rng(seed).random(shape) < fill
    return mask.astype(draw(st.sampled_from([bool, np.int64, np.uint8])))


@settings(max_examples=400, deadline=None)
@given(mask=masks())
# The last cell of row 0 and the first of row 1 are neighbours in flat
# order but not on the grid: two components, not one.
@example(mask=np.array([[0, 0, 1], [1, 0, 0]], dtype=bool))
@example(mask=np.zeros((3, 1, 4), dtype=bool))
@example(mask=np.ones((3, 1, 4), dtype=bool))
def test_labels_match_ndimage(ndimage, mask):
    labels, count = label_components(mask)
    expected, expected_count = ndimage.label(mask)
    assert count == expected_count
    assert labels.dtype == expected.dtype
    assert np.array_equal(labels, expected)
