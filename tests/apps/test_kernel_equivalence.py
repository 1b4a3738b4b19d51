"""Differential tests: the BLAS / array-op chunk kernels against the
formulations they replaced.

The oracles below are the kernels as they stood before the rewrite — the
three-operand ``einsum`` forms of EM, apriori's per-candidate Python loop,
k-means' ``np.add.at`` scatter and the out-of-place distance expansion —
kept here, and only here, as references.  Each new kernel must

- contribute the same values (``rtol=1e-10`` where float association
  moved, exactly where it did not: apriori counts, k-means sums,
  distances),
- charge **exactly** the same :class:`OpVector` (simulated time is priced
  from it, so any drift would move every figure), and
- leave the application's own state untouched (the ``process_chunk``
  contract :mod:`repro.middleware.kernels` relies on).
"""

import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps.apriori import AprioriMining
from repro.apps.base import pairwise_sq_dists
from repro.apps.em import EMClustering
from repro.apps.kmeans import KMeansClustering
from repro.apps.knn import KNNSearch
from repro.datagen.points import make_blobs
from repro.middleware.dataset import ArrayDataset
from repro.middleware.instrument import OpCounter
from repro.simgrid.hardware import OpVector

from tests.apps.conftest import execute

RTOL = 1e-10


# ----------------------------------------------------------------------
# Oracles: the previous formulations, verbatim in their arithmetic.
# ----------------------------------------------------------------------


def oracle_sq_dists(points, centers):
    p2 = np.einsum("ij,ij->i", points, points)[:, None]
    c2 = np.einsum("ij,ij->i", centers, centers)[None, :]
    d2 = p2 - 2.0 * (points @ centers.T) + c2
    np.maximum(d2, 0.0, out=d2)
    return d2


def oracle_distance_ops(n, k, d):
    nkd = float(n) * k * d
    return OpVector(
        flop=3.0 * nkd, mem=float(n) * d + float(k) * d, branch=float(n) * k
    )


def oracle_em(app, points):
    """(contribution, ops) of one EM chunk, from the public parameters."""
    n, d = points.shape
    k = app.k
    precisions = np.linalg.inv(app.covs)
    _, logdet = np.linalg.slogdet(app.covs)
    log_norms = -0.5 * (d * np.log(2.0 * np.pi) + logdet)
    diff = points[:, None, :] - app.means[None, :, :]  # (n, k, d)
    maha = np.einsum("nki,kij,nkj->nk", diff, precisions, diff)
    log_prob = log_norms[None, :] - 0.5 * maha
    log_weighted = log_prob + np.log(np.maximum(app.weights, 1.0e-300))
    top = log_weighted.max(axis=1, keepdims=True)
    shifted = np.exp(log_weighted - top)
    norm = shifted.sum(axis=1, keepdims=True)
    resp = shifted / norm
    log_evidence = (top + np.log(norm)).ravel()

    nk = float(n) * k
    ops = OpVector(
        flop=nk * (d * d + 3.0 * d + 12.0),
        mem=float(n) * d + k * d * d + nk,
        branch=nk,
    )
    if app._phase == "E":
        contribution = np.zeros(k * (d + 1) + 1)
        contribution[:k] = resp.sum(axis=0)
        contribution[k : k + k * d] = (resp.T @ points).ravel()
        contribution[-1] = float(log_evidence.sum())
    else:
        contribution = np.einsum("nk,nki,nkj->kij", resp, diff, diff).ravel()
        ops = ops + OpVector(flop=nk * d * d, mem=nk * d)
    return contribution, ops


def oracle_kmeans(app, points):
    n, d = points.shape
    assign = np.argmin(oracle_sq_dists(points, app.centers), axis=1)
    contribution = np.zeros((app.k, d + 1))
    np.add.at(contribution[:, :d], assign, points)
    contribution[:, d] = np.bincount(assign, minlength=app.k).astype(np.float64)
    ops = oracle_distance_ops(n, app.k, d) + OpVector(
        flop=float(n) * d, mem=2.0 * n * d, branch=float(n)
    )
    return contribution, ops


def oracle_apriori(app, payload):
    transactions = np.asarray(payload) > 0.5
    n = transactions.shape[0]
    counts = np.empty(len(app._candidates))
    for idx, itemset in enumerate(app._candidates):
        counts[idx] = transactions[:, itemset].all(axis=1).sum()
    work = float(n) * len(app._candidates) * app._level
    return counts, OpVector(mem=2.0 * work, branch=1.5 * work, flop=0.1 * work)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


def snapshot(app):
    return copy.deepcopy(vars(app))


def assert_state_untouched(app, before):
    after = vars(app)
    assert after.keys() == before.keys()
    for key, old in before.items():
        new = after[key]
        if isinstance(old, np.ndarray):
            assert np.array_equal(new, old), key
        else:
            assert new == old, key


def run_chunk(app, payload):
    """One ``process_chunk`` into a fresh object, checking the state contract."""
    before = snapshot(app)
    obj = app.make_local_object()
    ops = OpCounter()
    app.process_chunk(obj, payload, ops)
    assert_state_untouched(app, before)
    return obj, ops.ops


def finish_pass(app, obj):
    """Global reduction of a one-node pass: ``combine`` then ``update``."""
    ops = OpCounter()
    return app.update(app.combine([obj], ops), ops)


def assert_batched_passes(app, dataset, passes):
    """``passes`` passes of ``app.process_pass``: each piece and op row must
    be the bytes one ``process_chunk`` into a fresh object gives, and the
    application's state must be left as it was."""
    for _ in range(passes):
        before = snapshot(app)
        pieces, rows = app.process_pass(dataset)
        assert_state_untouched(app, before)
        assert len(pieces) == rows.shape[0] == dataset.num_chunks
        for index, (piece, row) in enumerate(zip(pieces, rows)):
            obj, ops = run_chunk(app, dataset.chunk_payload(index))
            assert piece.values.tobytes() == obj.values.tobytes(), index
            assert repr(piece.count) == repr(obj.count)
            charged = np.array([ops.flop, ops.mem, ops.branch])
            assert row.tobytes() == charged.tobytes()
        finish_pass(app, app.combine(pieces, OpCounter()))


def assert_close(new, old):
    scale = float(np.max(np.abs(old))) if old.size else 0.0
    np.testing.assert_allclose(new, old, rtol=RTOL, atol=1e-12 * scale)


def blobs(seed, n, d):
    """Float32 records, as the datasets store them."""
    return make_blobs(n, d, min(3, n), spread=1.0, box=8.0, seed=seed)[0]


shapes = dict(
    n=st.integers(1, 48),
    d=st.integers(1, 5),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)


# ----------------------------------------------------------------------
# EM
# ----------------------------------------------------------------------


class TestEMEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(**shapes)
    @example(n=1, d=3, k=4, seed=0)  # a single row
    @example(n=3, d=2, k=6, seed=1)  # fewer rows than components
    def test_every_phase_matches_the_einsum_oracle(self, n, d, k, seed):
        points = blobs(seed, n, d)
        app = EMClustering(k=k, num_iterations=2, seed=seed)
        app.begin({"num_dims": d})
        # E on the initial parameters, M on updated means and weights, then
        # E again on refreshed (no longer isotropic) covariances.
        for phase in ("E", "M", "E"):
            assert app._phase == phase
            expected, expected_ops = oracle_em(app, points.astype(np.float64))
            obj, ops = run_chunk(app, points)
            assert ops == expected_ops
            assert obj.count == float(n)
            assert_close(obj.values, expected)
            finish_pass(app, obj)

    def test_an_empty_chunk_contributes_nothing(self):
        app = EMClustering(k=3, num_iterations=1, seed=1)
        app.begin({"num_dims": 2})
        for phase in ("E", "M"):
            app._phase = phase
            _, expected_ops = oracle_em(app, np.empty((0, 2)))
            obj, ops = run_chunk(app, np.empty((0, 2), dtype=np.float32))
            assert ops == expected_ops
            assert obj.count == 0.0 and not obj.values.any()

    def test_result_drift_is_within_tolerance_end_to_end(self):
        """A whole run on unequal chunks lands where the oracle kernels do."""
        points = blobs(5, 1003, 3)
        meta = {"num_dims": 3, "init_sample": points[:64].astype(np.float64)}
        dataset = ArrayDataset("em-eq", points, num_chunks=7, meta=meta)
        run = execute(EMClustering(k=3, num_iterations=3, seed=2), dataset, 1, 2)

        oracle = EMClustering(k=3, num_iterations=3, seed=2)
        oracle.begin(meta)
        more = True
        while more:
            obj = oracle.make_local_object()
            for index in range(dataset.num_chunks):
                chunk = dataset.chunk_payload(index).astype(np.float64)
                contribution, _ = oracle_em(oracle, chunk)
                obj.accumulate(contribution, count=float(len(chunk)))
            more = finish_pass(oracle, obj)
        expected = oracle.result()
        for field in ("means", "covariances", "weights", "loglik_history"):
            assert_close(np.asarray(run.result[field]), np.asarray(expected[field]))


class TestEMBatchedPass:
    """``process_pass`` folds every chunk in blocks of equal-length chunks;
    each piece and op row must be the bytes one ``process_chunk`` into a
    fresh object gives."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 400),
        d=st.integers(1, 6),
        k=st.integers(1, 8),
        chunks=st.integers(1, 40),
        seed=st.integers(0, 2**16),
    )
    @example(n=10007, d=4, k=6, chunks=37, seed=1)  # 270- and 271-row chunks
    @example(n=37, d=3, k=4, chunks=29, seed=2)  # one- and two-row chunks
    @example(n=60, d=1, k=3, chunks=4, seed=3)  # d = 1
    @example(n=60, d=3, k=1, chunks=4, seed=4)  # k = 1
    @example(n=12, d=2, k=8, chunks=4, seed=5)  # chunks shorter than k
    @example(n=9000, d=4, k=6, chunks=20, seed=6)  # blocks of 9, 9, 2 chunks
    @example(n=162, d=8, k=11, chunks=79, seed=42709)  # a -0.0 F_k sum
    def test_pass_is_bit_identical_to_chunk_by_chunk(self, n, d, k, chunks, seed):
        points = blobs(seed, n, d)
        dataset = ArrayDataset(
            "batched", points, num_chunks=min(chunks, n), meta={"num_dims": d}
        )
        app = EMClustering(k=k, num_iterations=2, seed=seed)
        app.begin(dict(dataset.meta))
        # Two iterations: E and M on the initial parameters, then on
        # refreshed (no longer isotropic) covariances.
        assert_batched_passes(app, dataset, passes=4)

    def test_a_pass_works_in_bounded_blocks(self):
        """A pass over 200k 4-D points stays far below one whole-dataset
        ``(k, d, n)`` temporary (38.4 MB at k = 6) in both phases."""
        points = blobs(7, 200_000, 4)
        dataset = ArrayDataset("big", points, num_chunks=400, meta={"num_dims": 4})
        app = EMClustering(k=6, num_iterations=1, seed=7)
        app.begin(dict(dataset.meta))
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(2):
                tracemalloc.reset_peak()
                pieces, _ = app.process_pass(dataset)
                peaks.append(tracemalloc.get_traced_memory()[1])
                finish_pass(app, app.combine(pieces, OpCounter()))
        finally:
            tracemalloc.stop()
        assert max(peaks) < 6_000_000, peaks


# ----------------------------------------------------------------------
# k-means and the shared distance kernel
# ----------------------------------------------------------------------


class TestKMeansEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(**shapes)
    @example(n=1, d=2, k=5, seed=0)
    @example(n=4, d=3, k=6, seed=3)
    def test_scatter_is_bit_identical_to_add_at(self, n, d, k, seed):
        points = blobs(seed, n, d)
        app = KMeansClustering(k=k, num_iterations=2, seed=seed)
        app.begin({"num_dims": d})
        for _ in range(2):  # box-drawn centres, then recomputed ones
            expected, expected_ops = oracle_kmeans(app, points.astype(np.float64))
            obj, ops = run_chunk(app, points)
            assert ops == expected_ops
            assert np.array_equal(obj.values, expected)
            finish_pass(app, obj)

    @settings(max_examples=60, deadline=None)
    @given(**shapes)
    def test_distances_are_bit_identical_to_the_expansion(self, n, d, k, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(scale=5.0, size=(n, d))
        centers = rng.normal(scale=5.0, size=(k, d))
        before = points.copy(), centers.copy()
        d2 = pairwise_sq_dists(points, centers)
        assert np.array_equal(d2, oracle_sq_dists(points, centers))
        assert np.array_equal(points, before[0]) and np.array_equal(centers, before[1])


    @settings(max_examples=60, deadline=None)
    @given(**shapes, blocks=st.integers(1, 12))
    # BLAS picks its kernel by shape: a one-row block, or a single centre,
    # is a GEMV whose sums differ from the rows of one whole-array GEMM.
    @example(n=9, d=4, k=6, blocks=6, seed=0)
    @example(n=300, d=8, k=1, blocks=3, seed=0)
    def test_blocked_distances_equal_each_block_alone(self, n, d, k, blocks, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(scale=5.0, size=(n, d))
        centers = rng.normal(scale=5.0, size=(k, d))
        edges = np.linspace(0, n, min(blocks, n) + 1).astype(int)
        d2 = pairwise_sq_dists(points, centers, edges[1:].tolist())
        for lo, hi in zip(edges[:-1], edges[1:]):
            alone = pairwise_sq_dists(points[lo:hi], centers)
            assert d2[lo:hi].tobytes() == alone.tobytes()


class TestKMeansBatchedPass:
    """``process_pass`` folds every chunk in one call; each piece and op row
    must be the bytes one ``process_chunk`` into a fresh object gives."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 300),
        d=st.integers(1, 8),
        k=st.integers(1, 8),
        chunks=st.integers(1, 12),
        seed=st.integers(0, 2**16),
    )
    @example(n=12, d=1, k=8, chunks=4, seed=0)  # chunks shorter than k, d = 1
    @example(n=103, d=3, k=4, chunks=8, seed=9)  # 12- and 13-row chunks
    @example(n=9, d=4, k=6, chunks=6, seed=0)  # one-row chunks
    def test_pass_is_bit_identical_to_chunk_by_chunk(self, n, d, k, chunks, seed):
        points = blobs(seed, n, d)
        dataset = ArrayDataset(
            "batched", points, num_chunks=min(chunks, n), meta={"num_dims": d}
        )
        app = KMeansClustering(k=k, num_iterations=2, seed=seed)
        app.begin(dict(dataset.meta))
        # Box-drawn centres, then recomputed ones.
        assert_batched_passes(app, dataset, passes=2)


# ----------------------------------------------------------------------
# apriori
# ----------------------------------------------------------------------


def transactions(seed, n, items):
    rng = np.random.default_rng(seed)
    return (rng.random((n, items)) < 0.6).astype(np.float32)


class TestAprioriEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 40),
        items=st.integers(1, 7),
        support=st.sampled_from([0.05, 0.3, 0.6]),
        seed=st.integers(0, 2**16),
    )
    def test_every_level_counts_exactly_as_the_loop(self, n, items, support, seed):
        payload = transactions(seed, n, items)
        app = AprioriMining(min_support=support, max_k=items)
        app.begin({"num_items": items})
        more = True
        while more:
            expected, expected_ops = oracle_apriori(app, payload)
            obj, ops = run_chunk(app, payload)
            assert ops == expected_ops
            assert np.array_equal(obj.values, expected)
            more = finish_pass(app, obj)

    def test_level_with_a_single_candidate(self):
        # Items 0 and 1 always co-occur, item 2 never: level 2 holds (0, 1) only.
        payload = np.tile(np.array([[1.0, 1.0, 0.0]], dtype=np.float32), (9, 1))
        app = AprioriMining(min_support=0.5, max_k=3)
        app.begin({"num_items": 3})
        obj, _ = run_chunk(app, payload)
        assert finish_pass(app, obj)
        assert app._candidates == [(0, 1)]
        expected, expected_ops = oracle_apriori(app, payload)
        obj, ops = run_chunk(app, payload)
        assert ops == expected_ops
        assert obj.values.tolist() == expected.tolist() == [9.0]
        assert not finish_pass(app, obj)  # no 3-candidates survive
        assert set(app.result()["frequent_itemsets"]) == {(0,), (1,), (0, 1)}

    def test_max_k_one_stops_after_the_singleton_pass(self):
        payload = transactions(4, 30, 5)
        dataset = ArrayDataset("ap-eq", payload, num_chunks=4, meta={"num_items": 5})
        run = execute(AprioriMining(min_support=0.4, max_k=1), dataset, 1, 2)
        assert run.result["levels_explored"] == 1
        support = (payload > 0.5).mean(axis=0)
        expected = {(i,): float(s) for i, s in enumerate(support) if s >= 0.4}
        assert run.result["frequent_itemsets"] == pytest.approx(expected)


# ----------------------------------------------------------------------
# kNN and unequal chunks
# ----------------------------------------------------------------------


class TestKNNShortChunks:
    def test_chunks_with_fewer_rows_than_k(self):
        """``take = min(k, n)``: 3-row chunks against k = 8."""
        rng = np.random.default_rng(11)
        records = np.hstack(
            [rng.normal(size=(26, 2)), rng.integers(3, size=(26, 1))]
        ).astype(np.float32)
        dataset = ArrayDataset("knn-eq", records, num_chunks=8, meta={"num_dims": 2})
        assert max(len(dataset.chunk_payload(i)) for i in range(8)) < 8
        app = KNNSearch(k=8, num_queries=5, seed=3)
        run = execute(app, dataset, 1, 2)
        d2 = oracle_sq_dists(app.queries, records[:, :2].astype(np.float64))
        expected = np.sort(d2, axis=1)[:, :8]
        assert np.array_equal(run.result["neighbors_dists"], np.sqrt(expected))

    def test_dataset_smaller_than_k_pads_with_infinity(self):
        records = np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 2.0]], dtype=np.float32)
        dataset = ArrayDataset("knn-pad", records, num_chunks=2, meta={"num_dims": 2})
        run = execute(KNNSearch(k=4, num_queries=3, seed=3), dataset, 1, 1)
        assert np.isinf(run.result["neighbors_dists"][:, 2:]).all()
        assert (run.result["neighbors_labels"][:, 2:] == -1).all()
        assert set(run.result["predictions"]) <= {1, 2}


class TestUnequalChunks:
    """``ArrayDataset`` cuts at ``linspace`` edges: 103 rows in 8 chunks."""

    def test_every_chunk_of_an_uneven_split_matches_its_oracle(self):
        points = blobs(9, 103, 4)
        dataset = ArrayDataset("uneven", points, num_chunks=8, meta={"num_dims": 4})
        sizes = {len(dataset.chunk_payload(i)) for i in range(8)}
        assert sizes == {12, 13}

        em = EMClustering(k=3, seed=1)
        kmeans = KMeansClustering(k=4, seed=1)
        apriori = AprioriMining(min_support=0.2)
        em.begin(dict(dataset.meta))
        kmeans.begin(dict(dataset.meta))
        apriori.begin({"num_items": 4})
        for index in range(dataset.num_chunks):
            payload = dataset.chunk_payload(index)
            as_float = payload.astype(np.float64)
            for app, oracle, exact in (
                (em, oracle_em(em, as_float), False),
                (kmeans, oracle_kmeans(kmeans, as_float), True),
                (apriori, oracle_apriori(apriori, payload), True),
            ):
                obj, ops = run_chunk(app, payload)
                assert ops == oracle[1]
                assert obj.count == float(len(payload))
                if exact:
                    assert np.array_equal(obj.values, oracle[0])
                else:
                    assert_close(obj.values, oracle[0])
