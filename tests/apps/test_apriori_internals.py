"""Unit tests for apriori's candidate generation (apriori-gen)."""

from repro.apps.apriori import AprioriMining


def gen(survivors):
    app = AprioriMining(min_support=0.1, max_k=5)
    return app._generate_candidates(sorted(survivors))


class TestAprioriGen:
    def test_join_same_prefix_pairs(self):
        # {1,2} and {1,3} join to {1,2,3} — valid because all 2-subsets
        # ({1,2}, {1,3}, {2,3}) are frequent.
        assert gen([(1, 2), (1, 3), (2, 3)]) == [(1, 2, 3)]

    def test_prune_removes_candidates_with_infrequent_subsets(self):
        # {2,3} is missing, so {1,2,3} must be pruned.
        assert gen([(1, 2), (1, 3)]) == []

    def test_different_prefixes_do_not_join(self):
        assert gen([(1, 2), (3, 4)]) == []

    def test_singletons_join_freely(self):
        # All 1-subsets of any pair are frequent by construction.
        assert gen([(1,), (2,), (3,)]) == [(1, 2), (1, 3), (2, 3)]

    def test_empty_input(self):
        assert gen([]) == []

    def test_three_to_four(self):
        survivors = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
        assert gen(survivors) == [(1, 2, 3, 4)]

    def test_candidates_sorted_and_unique(self):
        candidates = gen([(1,), (2,), (3,), (4,)])
        assert candidates == sorted(set(candidates))

    def test_result_tuples_are_ordered(self):
        for candidate in gen([(1,), (5,), (3,)]):
            assert list(candidate) == sorted(candidate)
