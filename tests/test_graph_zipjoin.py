"""Broadcast vs zip-join ("dataset") state-backend parity for the
iterative graph family (VERDICT r4 "what's wrong" #1).

The dataset backend exists for graphs past the ~10^8-node driver-state
bound (``AUTO_DATASET_STATE_NODES``); these fixtures obviously can't
reach that, so the ``graph_backend`` fixture lowers the threshold
before the ``d`` call, and parity is pinned on fixtures LARGER than the
per-group batch size (multiple partitions, multi-block state, skewed
degrees) and on every semantic wrinkle the broadcast backend carries
(weights, flat teleport, directedness, multigraph votes, unreachable
nodes). Scores must be BIT-identical — both backends run the same
vertex programs.
"""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd
from ray.data import Dataset

from ts_type_filter_ray.functions import graph as graph_mod
from ts_type_filter_ray.functions.graph import (
    bfs_hops, hits, kcore, label_propagation, pagerank, shortest_paths)


@pytest.fixture(scope="module")
def graph(ray_session):
    rng = np.random.default_rng(42)
    n, e = 3000, 60000
    src = rng.integers(0, n, e).astype(np.int64)
    # skew: 10% of edges hit a single hub (the hot-key shape)
    hub = rng.random(e) < 0.1
    dst = np.where(hub, 17, rng.integers(0, n, e)).astype(np.int64)
    w = rng.integers(1, 7, e).astype(np.int64)
    edges = rd.from_arrow(pa.table({"src": src, "dst": dst, "w": w}))
    return n, edges


def _same(a: pa.Table, b, cols):
    bt = b.to_pandas()
    at = a.to_pandas() if hasattr(a, "to_pandas") else a
    assert len(at) == len(bt)
    for c in cols:
        av = at[c].to_numpy()
        bv = bt[c].to_numpy()
        assert av.dtype == bv.dtype, c
        assert (av == bv).all(), c


def test_pagerank_modes_bit_identical(graph, graph_backend):
    n, edges = graph
    b = pagerank(edges, n, iters=3)
    graph_backend.use("dataset")
    d = pagerank(edges, n, iters=3)
    _same(b, d, ["node", "pagerank"])


def test_pagerank_weighted_flat_teleport(graph, graph_backend):
    n, edges = graph
    b = pagerank(edges, n, iters=2, weight_col="w", flat_teleport=True)
    graph_backend.use("dataset")
    d = pagerank(edges, n, iters=2, weight_col="w", flat_teleport=True)
    _same(b, d, ["node", "pagerank"])


def test_hits_modes_bit_identical(graph, graph_backend):
    n, edges = graph
    b = hits(edges, n, iters=2)
    graph_backend.use("dataset")
    d = hits(edges, n, iters=2)
    _same(b, d, ["node", "hub", "authority"])


@pytest.mark.parametrize("directed", [False, True])
def test_label_propagation_modes(graph, directed, graph_backend):
    n, edges = graph
    b = label_propagation(edges, n, iters=3, directed=directed)
    graph_backend.use("dataset")
    d = label_propagation(edges, n, iters=3, directed=directed)
    _same(b, d, ["node", "label"])


@pytest.mark.parametrize("directed", [False, True])
def test_bfs_modes(graph, directed, graph_backend):
    n, edges = graph
    b = bfs_hops(edges, n, sources=[3, 99], directed=directed,
                 max_hops=5)
    graph_backend.use("dataset")
    d = bfs_hops(edges, n, sources=[3, 99], directed=directed,
                 max_hops=5)
    _same(b, d, ["node", "hops"])


def test_shortest_paths_modes(graph, graph_backend):
    n, edges = graph
    b = shortest_paths(edges, n, sources=[3], rounds=6, weight_col="w")
    graph_backend.use("dataset")
    d = shortest_paths(edges, n, sources=[3], rounds=6, weight_col="w")
    _same(b, d, ["node", "dist"])


@pytest.mark.parametrize("k", [3, 25])
def test_kcore_modes(graph, k, graph_backend):
    n, edges = graph
    b = kcore(edges, n, k=k)
    graph_backend.use("dataset")
    d = kcore(edges, n, k=k)
    _same(b, d, ["node"])


# every algorithm, with the arguments it needs, over a 4-node id space
_RUN = {
    "pagerank": lambda e: pagerank(e, 4),
    "pagerank_weighted": lambda e: pagerank(e, 4, weight_col="w"),
    "hits": lambda e: hits(e, 4),
    "bfs_hops": lambda e: bfs_hops(e, 4, sources=[0]),
    "label_propagation": lambda e: label_propagation(e, 4),
    "shortest_paths": lambda e: shortest_paths(e, 4, sources=[0], rounds=2,
                                               weight_col="w"),
    "kcore": lambda e: kcore(e, 4, k=1),
}
_ONE_EACH = ["pagerank", "hits", "bfs_hops", "label_propagation",
             "shortest_paths", "kcore"]


@pytest.mark.parametrize("backend", ["broadcast", "dataset"])
@pytest.mark.parametrize("algo,bad", [
    *[(a, b) for a in _ONE_EACH for b in ("-1", "num_nodes")],
    ("pagerank_weighted", "float_weight"),
    ("shortest_paths", "float_weight"),
])
def test_dataset_mode_rejects_foreign_ids(ray_session, graph_backend,
                                          algo, bad, backend):
    # an endpoint outside [0, 4) must raise, never wrap around or index
    # past the state; float weights must raise, never truncate
    src = {"-1": -1, "num_nodes": 4}.get(bad, 2)
    w = [1.5, 2.5, 0.5] if bad == "float_weight" else [1, 1, 1]
    edges = rd.from_arrow(pa.table({
        "src": pa.array([0, 1, src], type=pa.int64()),
        "dst": pa.array([1, 2, 3], type=pa.int64()),
        "w": pa.array(w),
    }))
    graph_backend.use(backend)
    match = "integers" if bad == "float_weight" else "outside"
    with pytest.raises(Exception, match=match):
        graph_backend.table(_RUN[algo](edges))


# -- alternating-star connected components (r5) ------------------------


def _uf_labels(n, pairs):
    p = list(range(n))

    def find(x):
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            p[max(ra, rb)] = min(ra, rb)
    return np.array([find(i) for i in range(n)])


def _cc_pair(n, pairs, **kw):
    from ts_type_filter_ray.functions.graph import connected_components
    nodes = rd.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64))}))
    edges = rd.from_arrow(pa.table({
        "id_a": pa.array(np.array([a for a, b in pairs],
                                  dtype=np.int64)),
        "id_b": pa.array(np.array([b for a, b in pairs],
                                  dtype=np.int64))}))
    got = (connected_components(nodes, edges, **kw)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert len(got) == n
    assert (got["component"].to_numpy() == _uf_labels(n, pairs)).all()


def test_star_cc_random(ray_session):
    rng = np.random.default_rng(7)
    pairs = ([(i, i + 1) for i in range(0, 40, 2)]
             + [(int(rng.integers(0, 200)), int(rng.integers(0, 200)))
                for _ in range(150)])
    _cc_pair(220, pairs)


def test_star_cc_long_chain(ray_session):
    # the diameter-bound killer: min-label needs one round per hop
    # (400 here); the star variant converges in O(log n)
    _cc_pair(420, [(i, i + 1) for i in range(400)])


def test_star_cc_loops_dups_cliques(ray_session):
    _cc_pair(30, [(5, 5), (1, 2), (2, 1), (1, 2), (10, 11)])
    pairs = ([(a, b) for a in range(10) for b in range(a + 1, 10)]
             + [(a, b) for a in range(30, 40) for b in range(a + 1, 40)])
    _cc_pair(50, pairs)


def test_star_cc_matches_minlabel(ray_session):
    # sparse random graph: many small components plus isolated nodes
    rng = np.random.default_rng(11)
    n = 300
    _cc_pair(n, [(int(rng.integers(0, n)), int(rng.integers(0, n)))
                 for _ in range(200)])


def test_auto_state_mode(graph, monkeypatch):
    n, edges = graph
    # the backend follows num_nodes > AUTO_DATASET_STATE_NODES: at the
    # threshold the broadcast backend answers (pa.Table result), one
    # node past it the Dataset backend (node-ascending Dataset result)
    monkeypatch.setattr(graph_mod, "AUTO_DATASET_STATE_NODES", n)
    out = pagerank(edges, n, iters=1)
    assert isinstance(out, pa.Table)
    monkeypatch.setattr(graph_mod, "AUTO_DATASET_STATE_NODES", n - 1)
    assert isinstance(pagerank(edges, n, iters=1), Dataset)
