"""Batch search API: batched results must exactly match looped single-query results.

Covers all three engines (software, MCAM, TCAM+LSH), the backend registry,
and the edge cases the batch API defines: empty batches, ``k`` out of range,
and query-width mismatches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import make_searcher
from repro.core.search import (
    NearestNeighborSearcher,
    SoftwareSearcher,
    available_backends,
    get_backend,
    register_backend,
)
from repro.exceptions import SearchError

ENGINES = ("cosine", "euclidean", "manhattan", "linf", "mcam-3bit", "mcam-2bit", "tcam-lsh")

NUM_FEATURES = 12


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(77)
    features = rng.normal(size=(120, NUM_FEATURES))
    labels = rng.integers(0, 6, size=120)
    queries = rng.normal(size=(23, NUM_FEATURES))
    return features, labels, queries


def fitted(name, data, labels=True):
    features, y, _ = data
    searcher = make_searcher(name, num_features=NUM_FEATURES, seed=11)
    return searcher.fit(features, y if labels else None)


class TestBatchMatchesLooped:
    @pytest.mark.parametrize("name", ENGINES)
    @pytest.mark.parametrize("k", (1, 3, 7))
    def test_kneighbors_batch_matches_loop(self, name, k, data):
        searcher = fitted(name, data)
        queries = data[2]
        batch = searcher.kneighbors_batch(queries, k=k)
        assert batch.indices.shape == (queries.shape[0], k)
        assert batch.scores.shape == (queries.shape[0], k)
        assert len(batch.labels) == queries.shape[0]
        for i, query in enumerate(queries):
            single = searcher.kneighbors(query, k=k)
            np.testing.assert_array_equal(batch.indices[i], single.indices)
            if name == "cosine":
                # Cosine goes through a BLAS matrix-matrix product in the
                # batch path vs matrix-vector in the loop; scores may differ
                # by 1 ulp while the ranking stays identical.
                np.testing.assert_allclose(
                    batch.scores[i], single.scores, rtol=1e-12, atol=1e-15
                )
            else:
                # CAM conductances, Hamming distances and the elementwise
                # software metrics are bitwise identical.
                np.testing.assert_array_equal(batch.scores[i], single.scores)
            assert batch.labels[i] == single.labels

    @pytest.mark.parametrize("name", ENGINES)
    def test_predict_batch_matches_loop(self, name, data):
        searcher = fitted(name, data)
        features, labels, queries = data
        batched = searcher.predict_batch(queries)
        looped = np.asarray([labels[searcher.nearest(query)] for query in queries])
        np.testing.assert_array_equal(batched, looped)

    @pytest.mark.parametrize("name", ENGINES)
    def test_predict_delegates_to_batch(self, name, data):
        searcher = fitted(name, data)
        queries = data[2]
        np.testing.assert_array_equal(
            searcher.predict(queries), searcher.predict_batch(queries)
        )

    def test_batch_result_indexing(self, data):
        searcher = fitted("mcam-3bit", data)
        queries = data[2]
        batch = searcher.kneighbors_batch(queries, k=2)
        assert len(batch) == queries.shape[0]
        one = batch[4]
        np.testing.assert_array_equal(one.indices, batch.indices[4])
        np.testing.assert_array_equal(one.scores, batch.scores[4])
        assert one.labels == batch.labels[4]


class TestBatchEdgeCases:
    @pytest.mark.parametrize("name", ENGINES)
    def test_empty_batch(self, name, data):
        searcher = fitted(name, data)
        empty = np.empty((0, NUM_FEATURES))
        result = searcher.kneighbors_batch(empty, k=3)
        assert len(result) == 0
        assert result.indices.shape == (0, 3)
        assert result.scores.shape == (0, 3)
        assert result.labels == ()
        predictions = searcher.predict_batch(empty)
        assert predictions.shape == (0,)
        assert predictions.dtype == data[1].dtype

    @pytest.mark.parametrize("name", ENGINES)
    def test_k_larger_than_stored_rejected(self, name, data):
        searcher = fitted(name, data)
        queries = data[2]
        with pytest.raises(Exception):
            searcher.kneighbors(queries[0], k=searcher.num_entries + 1)
        with pytest.raises(Exception):
            searcher.kneighbors_batch(queries, k=searcher.num_entries + 1)

    def test_k_equal_to_stored_allowed(self, data):
        searcher = fitted("euclidean", data)
        queries = data[2][:4]
        batch = searcher.kneighbors_batch(queries, k=searcher.num_entries)
        assert batch.indices.shape == (4, searcher.num_entries)
        # Every stored index appears exactly once per query.
        for row in batch.indices:
            assert sorted(row.tolist()) == list(range(searcher.num_entries))

    def test_width_mismatch_rejected(self, data):
        searcher = fitted("mcam-3bit", data)
        with pytest.raises(SearchError):
            searcher.kneighbors_batch(np.zeros((3, NUM_FEATURES + 1)))
        with pytest.raises(SearchError):
            searcher.predict_batch(np.zeros((0, NUM_FEATURES + 1)))

    def test_unfitted_rejected(self):
        searcher = SoftwareSearcher()
        with pytest.raises(SearchError):
            searcher.kneighbors_batch(np.zeros((2, 4)))

    def test_single_vector_promoted_to_batch(self, data):
        searcher = fitted("euclidean", data)
        query = data[2][0]
        batch = searcher.kneighbors_batch(query, k=2)
        assert batch.indices.shape == (1, 2)
        single = searcher.kneighbors(query, k=2)
        np.testing.assert_array_equal(batch.indices[0], single.indices)


class TestPredictBatchContract:
    @pytest.mark.parametrize("name", ENGINES)
    def test_predict_batch_without_labels_rejected(self, name, data):
        searcher = fitted(name, data, labels=False)
        with pytest.raises(SearchError):
            searcher.predict_batch(data[2])

    @pytest.mark.parametrize("name", ENGINES)
    def test_sharded_predicts_like_unsharded(self, name, data):
        features, labels, queries = data
        sharded = make_searcher(name, num_features=NUM_FEATURES, seed=11, shards=2)
        with sharded:
            sharded.fit(features, labels)
            np.testing.assert_array_equal(
                sharded.predict_batch(queries), fitted(name, data).predict_batch(queries)
            )


class TestGenericRankBatchFallback:
    def test_default_rank_batch_loops_over_rank(self, data):
        class LoopOnlySearcher(NearestNeighborSearcher):
            """Engine without a vectorized override (exercises the fallback)."""

            def _fit(self, features, labels):
                self._features = features

            def _rank(self, query, rng):
                distances = np.linalg.norm(self._features - query, axis=1)
                order = np.argsort(distances, kind="stable")
                return order, distances[order]

        features, labels, queries = data
        searcher = LoopOnlySearcher().fit(features, labels)
        batch = searcher.kneighbors_batch(queries, k=3)
        for i, query in enumerate(queries):
            single = searcher.kneighbors(query, k=3)
            np.testing.assert_array_equal(batch.indices[i], single.indices)


class TestBackendRegistry:
    def test_builtin_backends_registered(self):
        names = available_backends()
        for expected in ENGINES:
            assert expected in names

    def test_get_backend_unknown_name(self):
        with pytest.raises(SearchError):
            get_backend("faiss")

    def test_register_and_resolve_custom_backend(self, data):
        name = "test-custom-euclidean"
        try:
            @register_backend(name)
            def _factory(num_features, **config):
                return SoftwareSearcher(metric="euclidean")

            searcher = make_searcher(name, num_features=NUM_FEATURES)
            assert isinstance(searcher, SoftwareSearcher)
            assert name in available_backends()
        finally:
            from repro.core import search as search_module

            search_module._BACKENDS.pop(name, None)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SearchError):
            register_backend("mcam", lambda num_features, **config: None)
