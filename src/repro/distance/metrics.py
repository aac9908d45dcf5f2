"""Software distance/similarity metrics used as baselines.

Sec. IV-A compares the MCAM distance function against floating-point software
implementations of the cosine and Euclidean distance functions (the GPU
baseline) and against the Hamming distance of the TCAM+LSH approach; the
earlier TCAM work of Laguna et al. used the L-infinity distance.  All of
those metrics are implemented here, both as pairwise functions and as
vectorized "one query against many rows" functions, which is what the search
engines use.

Every metric follows the convention *smaller is closer* so the nearest
neighbor is always an ``argmin``; the cosine metric is therefore expressed as
the cosine *distance* ``1 - cos(a, b)``.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict

import numpy as np

from ..exceptions import ConfigurationError
from ..utils.validation import as_1d_array, as_2d_array


def _check_pair(a, b):
    a = as_1d_array(a, "a")
    b = as_1d_array(b, "b")
    if a.shape != b.shape:
        raise ConfigurationError(
            f"vectors must have the same shape, got {a.shape} and {b.shape}"
        )
    return a, b


def _check_rows_query(rows, query):
    rows = as_2d_array(rows, "rows")
    query = as_1d_array(query, "query")
    if rows.shape[1] != query.shape[0]:
        raise ConfigurationError(
            f"query length {query.shape[0]} does not match row width {rows.shape[1]}"
        )
    return rows, query


# ----------------------------------------------------------------------
# Pairwise metrics
# ----------------------------------------------------------------------
def euclidean_distance(a, b) -> float:
    """L2 distance between two vectors."""
    a, b = _check_pair(a, b)
    return float(np.linalg.norm(a - b))


def squared_euclidean_distance(a, b) -> float:
    """Squared L2 distance (monotone in the L2 distance, cheaper to compute)."""
    a, b = _check_pair(a, b)
    difference = a - b
    return float(np.dot(difference, difference))


def manhattan_distance(a, b) -> float:
    """L1 distance between two vectors."""
    a, b = _check_pair(a, b)
    return float(np.sum(np.abs(a - b)))


def linf_distance(a, b) -> float:
    """L-infinity (Chebyshev) distance — the metric of the TCAM design in [4]."""
    a, b = _check_pair(a, b)
    return float(np.max(np.abs(a - b)))


def cosine_distance(a, b) -> float:
    """Cosine distance ``1 - cos(a, b)``.

    Zero-norm vectors are treated as maximally distant from everything
    (distance 1), matching the behaviour of common ANN libraries.
    """
    a, b = _check_pair(a, b)
    norm_a = np.linalg.norm(a)
    norm_b = np.linalg.norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        return 1.0
    similarity = float(np.dot(a, b) / (norm_a * norm_b))
    return 1.0 - float(np.clip(similarity, -1.0, 1.0))


def hamming_distance(a, b) -> int:
    """Number of positions where two equal-length discrete vectors differ."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ConfigurationError(
            f"hamming distance requires equal-length 1-D vectors, got {a.shape} and {b.shape}"
        )
    return int(np.count_nonzero(a != b))


def minkowski_distance(a, b, order: float = 2.0) -> float:
    """General Minkowski distance of a given ``order`` (p-norm of the difference)."""
    if order <= 0:
        raise ConfigurationError(f"order must be positive, got {order}")
    a, b = _check_pair(a, b)
    return float(np.sum(np.abs(a - b) ** order) ** (1.0 / order))


# ----------------------------------------------------------------------
# One-query-vs-many-rows metrics (used by the search engines)
# ----------------------------------------------------------------------
def euclidean_distances(rows, query) -> np.ndarray:
    """L2 distance from ``query`` to every row of ``rows``."""
    rows, query = _check_rows_query(rows, query)
    return np.linalg.norm(rows - query[np.newaxis, :], axis=1)


def manhattan_distances(rows, query) -> np.ndarray:
    """L1 distance from ``query`` to every row of ``rows``."""
    rows, query = _check_rows_query(rows, query)
    return np.sum(np.abs(rows - query[np.newaxis, :]), axis=1)


def linf_distances(rows, query) -> np.ndarray:
    """L-infinity distance from ``query`` to every row of ``rows``."""
    rows, query = _check_rows_query(rows, query)
    return np.max(np.abs(rows - query[np.newaxis, :]), axis=1)


def cosine_distances(rows, query) -> np.ndarray:
    """Cosine distance from ``query`` to every row of ``rows``."""
    rows, query = _check_rows_query(rows, query)
    row_norms = np.linalg.norm(rows, axis=1)
    query_norm = np.linalg.norm(query)
    distances = np.ones(rows.shape[0])
    if query_norm == 0.0:
        return distances
    valid = row_norms > 0.0
    similarities = rows[valid] @ query / (row_norms[valid] * query_norm)
    distances[valid] = 1.0 - np.clip(similarities, -1.0, 1.0)
    return distances


def hamming_distances(rows, query) -> np.ndarray:
    """Hamming distance from ``query`` to every row of discrete ``rows``."""
    rows = np.asarray(rows)
    query = np.asarray(query)
    if rows.ndim != 2 or query.ndim != 1 or rows.shape[1] != query.shape[0]:
        raise ConfigurationError(
            f"rows must be (n, d) and query (d,), got {rows.shape} and {query.shape}"
        )
    return np.count_nonzero(rows != query[np.newaxis, :], axis=1)


# ----------------------------------------------------------------------
# Many-queries-vs-many-rows metrics (used by the batched search runtime)
# ----------------------------------------------------------------------
def _check_rows_queries(rows, queries):
    rows = as_2d_array(rows, "rows")
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim == 1:
        queries = queries.reshape(1, -1)
    if queries.ndim != 2:
        raise ConfigurationError(
            f"queries must be two-dimensional, got shape {queries.shape}"
        )
    if rows.shape[1] != queries.shape[1]:
        raise ConfigurationError(
            f"query width {queries.shape[1]} does not match row width {rows.shape[1]}"
        )
    return rows, queries


#: Elements in the scratch buffer of one block (256 KB of float64, sized to
#: stay in a typical L2 cache).  A batch runs in blocks of whole queries, or
#: of rows of one query when a query's rows alone exceed it, and every block
#: reuses the buffer.
_L2_CHUNK_ELEMENTS = 1 << 15


def _chunked_matrix(
    rows, queries, fill, reduce, out_dtype=np.float64, scratch_dtype=np.float64
) -> np.ndarray:
    """Reduce an elementwise query-vs-row tensor one cache-sized block at a time.

    ``fill(query_block, row_block, block)`` writes the ``(queries, rows,
    num_features)`` elementwise tensor of a block into ``block`` in place,
    and ``reduce(block, axis=2, out=...)`` reduces its last, contiguous axis
    straight into the output.  These are exactly the ops and the reduction
    order of the one-query functions, so every row of the matrix is bitwise
    identical to the matching one-query call.
    """
    num_queries = queries.shape[0]
    num_rows, num_features = rows.shape
    out = np.empty((num_queries, num_rows), dtype=out_dtype)
    if num_queries == 0 or num_rows == 0:
        return out
    row_chunk = min(num_rows, max(1, _L2_CHUNK_ELEMENTS // max(1, num_features)))
    query_chunk = min(num_queries, max(1, _L2_CHUNK_ELEMENTS // max(1, row_chunk * num_features)))
    scratch = np.empty(query_chunk * row_chunk * num_features, dtype=scratch_dtype)
    for q_start in range(0, num_queries, query_chunk):
        q_stop = min(q_start + query_chunk, num_queries)
        query_block = queries[q_start:q_stop, np.newaxis, :]
        for r_start in range(0, num_rows, row_chunk):
            r_stop = min(r_start + row_chunk, num_rows)
            shape = (q_stop - q_start, r_stop - r_start, num_features)
            block = scratch[: shape[0] * shape[1] * num_features].reshape(shape)
            fill(query_block, rows[r_start:r_stop], block)
            reduce(block, axis=2, out=out[q_start:q_stop, r_start:r_stop])
    return out


def _squared_difference(query_block, row_block, block) -> None:
    np.subtract(query_block, row_block, out=block)
    np.multiply(block, block, out=block)


def _absolute_difference(query_block, row_block, block) -> None:
    np.subtract(query_block, row_block, out=block)
    np.abs(block, out=block)


def _mismatch(query_block, row_block, block) -> None:
    np.not_equal(query_block, row_block, out=block)


def euclidean_distance_matrix(rows, queries) -> np.ndarray:
    """L2 distance of every query to every row, shape ``(num_queries, num_rows)``."""
    rows, queries = _check_rows_queries(rows, queries)
    out = _chunked_matrix(rows, queries, _squared_difference, np.add.reduce)
    return np.sqrt(out, out=out)


def manhattan_distance_matrix(rows, queries) -> np.ndarray:
    """L1 distance of every query to every row, shape ``(num_queries, num_rows)``."""
    rows, queries = _check_rows_queries(rows, queries)
    return _chunked_matrix(rows, queries, _absolute_difference, np.add.reduce)


def linf_distance_matrix(rows, queries) -> np.ndarray:
    """L-infinity distance of every query to every row, shape ``(num_queries, num_rows)``."""
    rows, queries = _check_rows_queries(rows, queries)
    return _chunked_matrix(rows, queries, _absolute_difference, np.maximum.reduce)


def cosine_distance_matrix(rows, queries) -> np.ndarray:
    """Cosine distance of every query to every row, shape ``(num_queries, num_rows)``.

    Zero-norm rows or queries are maximally distant (distance 1), matching
    :func:`cosine_distances`.
    """
    rows, queries = _check_rows_queries(rows, queries)
    row_norms = np.linalg.norm(rows, axis=1)
    query_norms = np.linalg.norm(queries, axis=1)
    distances = np.ones((queries.shape[0], rows.shape[0]))
    valid_rows = row_norms > 0.0
    valid_queries = query_norms > 0.0
    if not valid_rows.any() or not valid_queries.any():
        return distances
    similarities = (
        queries[valid_queries] @ rows[valid_rows].T
        / np.outer(query_norms[valid_queries], row_norms[valid_rows])
    )
    block = 1.0 - np.clip(similarities, -1.0, 1.0)
    distances[np.ix_(valid_queries, valid_rows)] = block
    return distances


def hamming_distance_matrix(rows, queries) -> np.ndarray:
    """Hamming distance of every query to every discrete row, ``(num_queries, num_rows)``."""
    rows = np.asarray(rows)
    queries = np.asarray(queries)
    if queries.ndim == 1:
        queries = queries.reshape(1, -1)
    if rows.ndim != 2 or queries.ndim != 2 or rows.shape[1] != queries.shape[1]:
        raise ConfigurationError(
            f"rows must be (n, d) and queries (m, d), got {rows.shape} and {queries.shape}"
        )
    return _chunked_matrix(
        rows,
        queries,
        _mismatch,
        functools.partial(np.add.reduce, dtype=np.int64),
        out_dtype=np.int64,
        scratch_dtype=bool,
    )


#: Registry of batched metrics by name; used by the software search engine.
BATCH_METRICS: Dict[str, Callable] = {
    "euclidean": euclidean_distances,
    "manhattan": manhattan_distances,
    "linf": linf_distances,
    "cosine": cosine_distances,
    "hamming": hamming_distances,
}

#: Registry of distance-matrix metrics by name; used by the batched runtime.
MATRIX_METRICS: Dict[str, Callable] = {
    "euclidean": euclidean_distance_matrix,
    "manhattan": manhattan_distance_matrix,
    "linf": linf_distance_matrix,
    "cosine": cosine_distance_matrix,
    "hamming": hamming_distance_matrix,
}


def get_batch_metric(name: str) -> Callable:
    """Look up a batched metric by name.

    Raises
    ------
    ConfigurationError
        If ``name`` is not a known metric.
    """
    try:
        return BATCH_METRICS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown metric {name!r}; available metrics: {sorted(BATCH_METRICS)}"
        ) from None


def get_matrix_metric(name: str) -> Callable:
    """Look up a distance-matrix metric by name.

    Raises
    ------
    ConfigurationError
        If ``name`` is not a known metric.
    """
    try:
        return MATRIX_METRICS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown metric {name!r}; available metrics: {sorted(MATRIX_METRICS)}"
        ) from None
