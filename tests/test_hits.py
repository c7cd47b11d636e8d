"""HITS hubs/authorities: dense numpy reference parity, goldens."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from ts_type_filter_ray.functions.graph import hits


def _edges(pairs):
    s, d = zip(*pairs) if pairs else ((), ())
    return rd.from_arrow(pa.table({
        "src": pa.array(s, type=pa.int64()),
        "dst": pa.array(d, type=pa.int64()),
    }))


def _reference(pairs, n, iters):
    A = np.zeros((n, n), dtype=np.int64)
    for s, d in pairs:
        A[s, d] += 1
    h = np.ones(n, dtype=np.int64)
    a = np.zeros(n, dtype=np.int64)
    for _ in range(iters):
        a = A.T @ h
        h = A @ a
    return h, a


def test_star_graph(ray_session):
    # 1,2,3 all point at 0: authority(0) grows, hubs equal among 1..3
    pairs = [(1, 0), (2, 0), (3, 0)]
    t = hits(_edges(pairs), 4, iters=2)
    h, a = _reference(pairs, 4, 2)
    assert t["hub"].to_pylist() == list(h)
    assert t["authority"].to_pylist() == list(a)
    assert t["authority"][0].as_py() > 0
    assert t["hub"][0].as_py() == 0


def test_random_graph_parity(ray_session):
    rng = np.random.RandomState(5)
    n = 30
    pairs = [(int(rng.randint(n)), int(rng.randint(n)))
             for _ in range(150)]
    pairs = [(s, d) for s, d in pairs if s != d]
    for iters in (1, 2, 3):
        t = hits(_edges(pairs), n, iters=iters, num_parts=8)
        h, a = _reference(pairs, n, iters)
        assert t["hub"].to_pylist() == list(h)
        assert t["authority"].to_pylist() == list(a)


def test_multi_edges_count(ray_session):
    # duplicate edges act as multiplicity (matching the SQL join+sum)
    pairs = [(1, 0), (1, 0), (2, 0)]
    t = hits(_edges(pairs), 3, iters=1)
    h, a = _reference(pairs, 3, 1)
    assert t["hub"].to_pylist() == list(h)
    assert t["authority"].to_pylist() == list(a)


def test_overflow_guard(ray_session, graph_backend):
    pairs = [(s, d) for s in range(12) for d in range(12) if s != d]
    for _ in graph_backend.each():
        with pytest.raises(ValueError, match="2\\^62"):
            hits(_edges(pairs), 12, iters=12)

