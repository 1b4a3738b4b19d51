"""Tests for chunk-to-node assignment."""

import pytest
from hypothesis import given, strategies as st

from repro.middleware.chunks import (
    assign_chunks,
    map_roles_to_survivors,
    split_evenly,
    unshipped_chunks,
)
from repro.simgrid.errors import ConfigurationError


class TestSplitEvenly:
    def test_even_split(self):
        assert split_evenly(8, 4) == [2, 2, 2, 2]

    def test_remainder_goes_to_front(self):
        assert split_evenly(10, 3) == [4, 3, 3]

    def test_zero_total(self):
        assert split_evenly(0, 3) == [0, 0, 0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            split_evenly(5, 0)
        with pytest.raises(ConfigurationError):
            split_evenly(-1, 2)

    @given(st.integers(0, 500), st.integers(1, 50))
    def test_partition_properties(self, total, parts):
        sizes = split_evenly(total, parts)
        assert sum(sizes) == total
        assert len(sizes) == parts
        assert max(sizes) - min(sizes) <= 1


class TestAssignChunks:
    def test_rejects_more_data_than_compute_nodes(self):
        with pytest.raises(ConfigurationError):
            assign_chunks(32, data_nodes=4, compute_nodes=2)

    def test_rejects_too_few_chunks(self):
        with pytest.raises(ConfigurationError):
            assign_chunks(8, data_nodes=2, compute_nodes=16)

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ConfigurationError):
            assign_chunks(32, 0, 4)
        with pytest.raises(ConfigurationError):
            assign_chunks(32, 2, 0)

    def test_data_node_striping(self):
        plan = assign_chunks(8, data_nodes=2, compute_nodes=2)
        assert plan.data_node_chunks[0] == [0, 2, 4, 6]
        assert plan.data_node_chunks[1] == [1, 3, 5, 7]

    def test_each_compute_node_has_one_source(self):
        plan = assign_chunks(64, data_nodes=4, compute_nodes=16)
        assert len(plan.compute_source) == 16
        # contiguous blocks of 4 compute nodes per data node
        assert plan.compute_source == [0] * 4 + [1] * 4 + [2] * 4 + [3] * 4

    def test_compute_chunks_come_from_the_node_source(self):
        plan = assign_chunks(64, data_nodes=4, compute_nodes=8)
        for j, chunks in enumerate(plan.compute_node_chunks):
            source = plan.compute_source[j]
            stored = set(plan.data_node_chunks[source])
            assert set(chunks) <= stored

    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(n, 24),
            )
        ),
        st.integers(0, 200),
    )
    def test_every_chunk_processed_exactly_once(self, nodes, extra):
        data_nodes, compute_nodes = nodes
        num_chunks = compute_nodes + extra
        plan = assign_chunks(num_chunks, data_nodes, compute_nodes)
        processed = sorted(
            chunk for chunks in plan.compute_node_chunks for chunk in chunks
        )
        assert processed == list(range(num_chunks))
        stored = sorted(
            chunk for chunks in plan.data_node_chunks for chunk in chunks
        )
        assert stored == list(range(num_chunks))

    @given(st.integers(1, 8), st.integers(0, 100))
    def test_balanced_within_one_chunk_when_counts_align(self, data_nodes, extra):
        compute_nodes = data_nodes * 2
        num_chunks = compute_nodes * 3 + extra
        plan = assign_chunks(num_chunks, data_nodes, compute_nodes)
        counts = [len(c) for c in plan.compute_node_chunks]
        assert max(counts) - min(counts) <= 2


class TestStripeBalance:
    @given(st.integers(1, 8), st.integers(0, 300))
    def test_data_node_stripes_balanced(self, data_nodes, extra):
        num_chunks = data_nodes + extra
        plan = assign_chunks(num_chunks, data_nodes, max(data_nodes, 1))
        counts = [len(c) for c in plan.data_node_chunks]
        assert max(counts) - min(counts) <= 1

    @given(st.integers(1, 8), st.integers(0, 100))
    def test_stripes_interleave(self, data_nodes, extra):
        """Chunk i always lands on data node i mod n."""
        num_chunks = data_nodes * 2 + extra
        plan = assign_chunks(num_chunks, data_nodes, data_nodes)
        for node, chunks in enumerate(plan.data_node_chunks):
            assert all(c % data_nodes == node for c in chunks)


class TestRoleMigration:
    def test_survivors_keep_their_roles_and_share_crashed_ones(self):
        assert map_roles_to_survivors(4, [2]) == {0: [0, 2], 1: [1], 3: [3]}
        assert map_roles_to_survivors(4, []) == {0: [0], 1: [1], 2: [2], 3: [3]}
        assert map_roles_to_survivors(4, [1, 3]) == {0: [0, 1], 2: [2, 3]}

    def test_round_robin_over_survivors(self):
        roles = map_roles_to_survivors(5, [0, 1, 2])
        assert roles == {3: [3, 0, 2], 4: [4, 1]}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            map_roles_to_survivors(0, [])
        with pytest.raises(ConfigurationError):
            map_roles_to_survivors(4, [4])
        with pytest.raises(ConfigurationError):
            map_roles_to_survivors(2, [0, 1])  # nobody left

    @given(st.integers(1, 12), st.data())
    def test_every_role_assigned_exactly_once(self, nodes, data):
        crashed = data.draw(
            st.lists(st.integers(0, nodes - 1), unique=True,
                     max_size=nodes - 1)
        )
        roles = map_roles_to_survivors(nodes, crashed)
        assigned = sorted(r for rs in roles.values() for r in rs)
        assert assigned == list(range(nodes))
        assert all(e not in crashed for e in roles)


class TestUnshippedChunks:
    def test_tail_after_shipped_fraction(self):
        plan = assign_chunks(16, data_nodes=2, compute_nodes=4)
        batch = plan.data_node_chunks[1]
        assert unshipped_chunks(plan, 1, 0.0) == batch
        assert unshipped_chunks(plan, 1, 0.5) == batch[4:]
        assert unshipped_chunks(plan, 1, 1.0) == []

    def test_validation(self):
        plan = assign_chunks(16, data_nodes=2, compute_nodes=4)
        with pytest.raises(ConfigurationError):
            unshipped_chunks(plan, 2, 0.5)
        with pytest.raises(ConfigurationError):
            unshipped_chunks(plan, 0, 1.5)
