"""Tests for the software distance metrics."""

import tracemalloc

import numpy as np
import pytest

from repro.distance import (
    BATCH_METRICS,
    cosine_distance,
    cosine_distance_matrix,
    cosine_distances,
    euclidean_distance,
    euclidean_distance_matrix,
    euclidean_distances,
    get_batch_metric,
    hamming_distance,
    hamming_distance_matrix,
    hamming_distances,
    linf_distance,
    linf_distance_matrix,
    linf_distances,
    manhattan_distance,
    manhattan_distance_matrix,
    manhattan_distances,
    minkowski_distance,
    squared_euclidean_distance,
)
from repro.distance.metrics import _L2_CHUNK_ELEMENTS
from repro.exceptions import ConfigurationError


class TestPairwiseMetrics:
    def test_euclidean_known_value(self):
        assert euclidean_distance([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_squared_euclidean(self):
        assert squared_euclidean_distance([0, 0], [3, 4]) == pytest.approx(25.0)

    def test_manhattan(self):
        assert manhattan_distance([1, 2], [4, -2]) == pytest.approx(7.0)

    def test_linf(self):
        assert linf_distance([1, 2, 3], [4, 2, 1]) == pytest.approx(3.0)

    def test_cosine_identical_vectors(self):
        assert cosine_distance([1, 2, 3], [2, 4, 6]) == pytest.approx(0.0, abs=1e-12)

    def test_cosine_orthogonal_vectors(self):
        assert cosine_distance([1, 0], [0, 1]) == pytest.approx(1.0)

    def test_cosine_opposite_vectors(self):
        assert cosine_distance([1, 0], [-1, 0]) == pytest.approx(2.0)

    def test_cosine_zero_vector(self):
        assert cosine_distance([0, 0], [1, 1]) == 1.0

    def test_hamming(self):
        assert hamming_distance([0, 1, 1, 0], [0, 0, 1, 1]) == 2

    def test_hamming_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            hamming_distance([0, 1], [0, 1, 1])

    def test_minkowski_orders(self):
        a, b = [0.0, 0.0], [1.0, 1.0]
        assert minkowski_distance(a, b, order=1) == pytest.approx(manhattan_distance(a, b))
        assert minkowski_distance(a, b, order=2) == pytest.approx(euclidean_distance(a, b))

    def test_minkowski_invalid_order(self):
        with pytest.raises(ConfigurationError):
            minkowski_distance([0], [1], order=0)

    def test_pair_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            euclidean_distance([1, 2], [1, 2, 3])


class TestMetricAxioms:
    @pytest.mark.parametrize(
        "metric", [euclidean_distance, manhattan_distance, linf_distance]
    )
    def test_identity_symmetry_triangle(self, metric):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b, c = rng.normal(size=(3, 6))
            assert metric(a, a) == pytest.approx(0.0, abs=1e-12)
            assert metric(a, b) == pytest.approx(metric(b, a))
            assert metric(a, c) <= metric(a, b) + metric(b, c) + 1e-9

    def test_cosine_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = rng.normal(size=(2, 5))
            assert 0.0 <= cosine_distance(a, b) <= 2.0


class TestBatchMetrics:
    def test_batch_matches_pairwise(self):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(10, 4))
        query = rng.normal(size=4)
        pairs = [
            (euclidean_distances, euclidean_distance),
            (manhattan_distances, manhattan_distance),
            (linf_distances, linf_distance),
            (cosine_distances, cosine_distance),
        ]
        for batch, single in pairs:
            batched = batch(rows, query)
            for i, row in enumerate(rows):
                assert batched[i] == pytest.approx(single(row, query), rel=1e-6)

    def test_hamming_batch(self):
        rows = np.array([[0, 1, 0], [1, 1, 1]])
        assert list(hamming_distances(rows, np.array([0, 1, 1]))) == [1, 1]

    def test_cosine_batch_zero_rows(self):
        rows = np.array([[0.0, 0.0], [1.0, 1.0]])
        distances = cosine_distances(rows, np.array([1.0, 1.0]))
        assert distances[0] == 1.0
        assert distances[1] == pytest.approx(0.0, abs=1e-12)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            euclidean_distances(np.ones((3, 4)), np.ones(5))

    def test_registry_lookup(self):
        assert get_batch_metric("cosine") is cosine_distances
        assert set(BATCH_METRICS) == {"euclidean", "manhattan", "linf", "cosine", "hamming"}

    def test_registry_unknown(self):
        with pytest.raises(ConfigurationError):
            get_batch_metric("dtw")


#: (matrix, per-query) pairs whose matrix rows are bitwise the per-query calls.
ELEMENTWISE_MATRICES = [
    (euclidean_distance_matrix, euclidean_distances),
    (manhattan_distance_matrix, manhattan_distances),
    (linf_distance_matrix, linf_distances),
]

PARITY_FEATURES = 16

#: (num_rows, num_queries) straddling the scratch budget of one block.
CHUNK_SHAPES = [
    # One query's rows exceed the budget: row blocks of one query, the last
    # one a remainder.
    (2 * _L2_CHUNK_ELEMENTS // PARITY_FEATURES + 5, 3),
    # One query's rows fill the budget exactly: one query per block.
    (_L2_CHUNK_ELEMENTS // PARITY_FEATURES, 2),
    # Four queries per block, 11 queries: two full blocks and a remainder.
    (_L2_CHUNK_ELEMENTS // (4 * PARITY_FEATURES), 11),
    # Four queries per block, 8 queries: only full blocks.
    (_L2_CHUNK_ELEMENTS // (4 * PARITY_FEATURES), 8),
    # The whole batch fits in one block.
    (20, 7),
]


def _stacked(per_query, rows, queries):
    return np.stack([per_query(rows, query) for query in queries])


class TestMatrixMetrics:
    @pytest.mark.parametrize("matrix, per_query", ELEMENTWISE_MATRICES)
    @pytest.mark.parametrize("num_rows, num_queries", CHUNK_SHAPES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matrix_is_stacked_per_query_calls(
        self, matrix, per_query, num_rows, num_queries, dtype
    ):
        rng = np.random.default_rng(num_rows + num_queries)
        rows = rng.normal(size=(num_rows, PARITY_FEATURES)).astype(dtype)
        queries = rng.normal(size=(num_queries, PARITY_FEATURES)).astype(dtype)
        result = matrix(rows, queries)
        assert result.dtype == np.float64
        np.testing.assert_array_equal(result, _stacked(per_query, rows, queries))

    @pytest.mark.parametrize("num_rows, num_queries", CHUNK_SHAPES)
    def test_hamming_matrix_is_stacked_per_query_calls(self, num_rows, num_queries):
        rng = np.random.default_rng(num_rows * num_queries)
        rows = rng.integers(0, 3, size=(num_rows, PARITY_FEATURES))
        queries = rng.integers(0, 3, size=(num_queries, PARITY_FEATURES))
        result = hamming_distance_matrix(rows, queries)
        assert result.dtype == np.int64
        np.testing.assert_array_equal(result, _stacked(hamming_distances, rows, queries))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_cosine_matrix_matches_per_query_calls(self, dtype):
        # The matrix path is one BLAS matrix-matrix product, the per-query
        # path a matrix-vector product: equal up to float rounding.
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(40, PARITY_FEATURES)).astype(dtype)
        queries = rng.normal(size=(9, PARITY_FEATURES)).astype(dtype)
        np.testing.assert_allclose(
            cosine_distance_matrix(rows, queries),
            _stacked(cosine_distances, rows, queries),
            rtol=1e-12,
            atol=1e-15,
        )

    @pytest.mark.parametrize(
        "matrix",
        [m for m, _ in ELEMENTWISE_MATRICES] + [cosine_distance_matrix, hamming_distance_matrix],
    )
    def test_empty_query_batch(self, matrix):
        rows = np.ones((5, PARITY_FEATURES))
        result = matrix(rows, np.empty((0, PARITY_FEATURES)))
        assert result.shape == (0, 5)

    def test_euclidean_matrix_memory_is_bounded(self):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(4096, 64))
        queries = rng.normal(size=(64, 64))
        output_bytes = queries.shape[0] * rows.shape[0] * 8
        tracemalloc.start()
        try:
            euclidean_distance_matrix(rows, queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The output plus one reused block of scratch, with headroom; a
        # whole-batch broadcast temporary would be 128 MB here.
        assert peak < output_bytes + 4 * _L2_CHUNK_ELEMENTS * 8
