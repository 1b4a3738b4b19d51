"""Tests for the apriori association-mining application."""

import pytest

from repro.apps.apriori import AprioriMining
from repro.datagen.transactions import make_transaction_dataset
from repro.simgrid.errors import ConfigurationError

from tests.apps.conftest import INVARIANCE_CONFIGS, execute


@pytest.fixture(scope="module")
def dataset():
    return make_transaction_dataset(
        "ap-test",
        num_transactions=1600,
        num_items=32,
        num_chunks=32,
        pattern_prob=0.35,
        seed=31,
    )


def make_app():
    return AprioriMining(min_support=0.25, max_k=4)


class TestAprioriCorrectness:
    def test_finds_all_planted_patterns(self, dataset):
        run = execute(make_app(), dataset, 2, 4)
        found = set(run.result["frequent_itemsets"])
        for pattern in dataset.meta["true_patterns"]:
            assert tuple(pattern) in found, f"missing planted pattern {pattern}"

    def test_downward_closure(self, dataset):
        """Apriori invariant: every subset of a frequent itemset is frequent."""
        from itertools import combinations

        run = execute(make_app(), dataset, 2, 4)
        frequent = set(run.result["frequent_itemsets"])
        for itemset in frequent:
            if len(itemset) > 1:
                for subset in combinations(itemset, len(itemset) - 1):
                    assert subset in frequent

    def test_supports_at_least_threshold(self, dataset):
        run = execute(make_app(), dataset, 1, 2)
        for support in run.result["frequent_itemsets"].values():
            assert support >= 0.25

    def test_result_invariant_across_configurations(self, dataset):
        reference = None
        for n, c in INVARIANCE_CONFIGS:
            run = execute(make_app(), dataset, n, c)
            summary = sorted(run.result["frequent_itemsets"].items())
            if reference is None:
                reference = summary
            else:
                assert summary == reference

    def test_pass_per_level(self, dataset):
        run = execute(make_app(), dataset, 1, 2)
        assert run.breakdown.num_passes == run.result["levels_explored"]

    def test_exact_supports(self, dataset):
        """Distributed counting must equal a direct global count."""
        run = execute(make_app(), dataset, 4, 8)
        data = dataset.records > 0.5
        for itemset, support in run.result["frequent_itemsets"].items():
            direct = float(data[:, list(itemset)].all(axis=1).mean())
            assert support == pytest.approx(direct, abs=1e-12)

    def test_high_threshold_stops_early(self, dataset):
        run = execute(AprioriMining(min_support=0.99, max_k=4), dataset, 1, 2)
        assert run.result["levels_explored"] == 1
        assert not run.result["frequent_itemsets"]


class TestAprioriModelClasses:
    def test_object_size_independent_of_config(self, dataset):
        one = execute(make_app(), dataset, 1, 1)
        wide = execute(make_app(), dataset, 4, 16)
        assert (
            one.breakdown.max_reduction_object_bytes
            == wide.breakdown.max_reduction_object_bytes
        )

    def test_flags(self):
        app = make_app()
        assert app.broadcasts_result is True
        assert app.multi_pass_hint is True


class TestAprioriValidation:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            AprioriMining(min_support=0.0)
        with pytest.raises(ConfigurationError):
            AprioriMining(min_support=1.5)
        with pytest.raises(ConfigurationError):
            AprioriMining(max_k=0)
