"""Tests for union-find and fragment joining."""

from hypothesis import given, strategies as st

from repro.apps.joining import UnionFind, join_fragments


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
