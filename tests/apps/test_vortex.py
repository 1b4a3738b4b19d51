"""Tests for the vortex detection application."""

import pytest

from repro.apps.vortex import VortexDetection
from repro.datagen.cfd import make_field_dataset
from repro.simgrid.errors import ConfigurationError

from tests.apps.conftest import INVARIANCE_CONFIGS, execute


@pytest.fixture(scope="module")
def dataset():
    return make_field_dataset(
        "vx-test", ny=192, nx=128, num_chunks=32, num_vortices=5, seed=21
    )


def make_app():
    return VortexDetection(vort_threshold=0.3, min_area=4)


class TestVortexCorrectness:
    def test_detects_planted_vortices(self, dataset):
        run = execute(make_app(), dataset, 2, 4)
        assert run.result["count"] == len(dataset.meta["true_vortices"])

    def test_detected_regions_near_truth(self, dataset):
        run = execute(make_app(), dataset, 2, 4)
        for truth in dataset.meta["true_vortices"]:
            hits = [
                v
                for v in run.result["vortices"]
                if v["ymin"] - 2 <= truth["cy"] <= v["ymax"] + 2
                and v["xmin"] - 2 <= truth["cx"] <= v["xmax"] + 2
            ]
            assert hits, f"no detected region covers vortex at "\
                f"({truth['cy']:.0f}, {truth['cx']:.0f})"

    def test_swirl_sign_matches_truth(self, dataset):
        run = execute(make_app(), dataset, 1, 1)
        # Match regions to planted vortices by containment and compare signs.
        for truth in dataset.meta["true_vortices"]:
            for v in run.result["vortices"]:
                if (
                    v["ymin"] <= truth["cy"] <= v["ymax"]
                    and v["xmin"] <= truth["cx"] <= v["xmax"]
                ):
                    assert v["sign"] == truth["sign"]

    def test_result_invariant_across_configurations(self, dataset):
        reference = None
        for n, c in INVARIANCE_CONFIGS:
            run = execute(make_app(), dataset, n, c)
            summary = [
                (v["ymin"], v["xmin"], v["area"], round(v["strength"], 6))
                for v in run.result["vortices"]
            ]
            if reference is None:
                reference = summary
            else:
                assert summary == reference

    def test_fragments_join_across_blocks(self, dataset):
        """With 32 row blocks of 6 rows each, every planted vortex spans
        several blocks, so the joined regions must merge fragments."""
        run = execute(make_app(), dataset, 2, 8)
        assert any(v["num_fragments"] > 1 for v in run.result["vortices"])

    def test_sorted_by_strength(self, dataset):
        run = execute(make_app(), dataset, 1, 2)
        strengths = [abs(v["strength"]) for v in run.result["vortices"]]
        assert strengths == sorted(strengths, reverse=True)

    def test_denoising_drops_small_regions(self, dataset):
        run = execute(VortexDetection(min_area=4), dataset, 1, 1)
        assert all(v["area"] >= 4 for v in run.result["vortices"])

    def test_calm_field_detects_nothing(self):
        calm = make_field_dataset(
            "calm", ny=64, nx=64, num_chunks=16, num_vortices=0, seed=22
        )
        run = execute(make_app(), calm, 1, 2)
        assert run.result["count"] == 0


class TestVortexModelClasses:
    def test_object_size_scales_with_local_share(self, dataset):
        one = execute(make_app(), dataset, 1, 1)
        sixteen = execute(make_app(), dataset, 4, 16)
        # max per-node object shrinks roughly with the per-node data share
        assert (
            sixteen.breakdown.max_reduction_object_bytes
            < one.breakdown.max_reduction_object_bytes
        )

    def test_global_reduction_roughly_constant_in_nodes(self, dataset):
        two = execute(make_app(), dataset, 1, 2)
        sixteen = execute(make_app(), dataset, 8, 16)
        assert sixteen.breakdown.t_g == pytest.approx(
            two.breakdown.t_g, rel=0.5
        )

    def test_flags(self):
        app = make_app()
        assert app.broadcasts_result is False
        assert app.multi_pass_hint is False


class TestVortexValidation:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            VortexDetection(vort_threshold=0.0)
        with pytest.raises(ConfigurationError):
            VortexDetection(min_area=0)
