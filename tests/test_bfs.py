"""Multi-source BFS hop distances: hand-checked graphs + the driver
gate's recursive-CTE oracle over the exact kNN cosine graph."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from ts_type_filter_ray.functions.graph import bfs_hops


def _edges(pairs):
    return rd.from_arrow(pa.table({
        "src": pa.array([p[0] for p in pairs], type=pa.int64()),
        "dst": pa.array([p[1] for p in pairs], type=pa.int64()),
    }))


def _as_dict(t):
    return dict(zip(t["node"].to_pylist(), t["hops"].to_pylist()))


def test_bfs_line_and_island(ray_session):
    # 0-1-2-3 chain (directed edges forward), island 4-5, singleton 6
    e = _edges([(0, 1), (1, 2), (2, 3), (4, 5)])
    got = _as_dict(bfs_hops(e, 7, sources=(0,), directed=True))
    assert got == {0: 0, 1: 1, 2: 2, 3: 3}

    # undirected: seeding at 3 reaches back down the chain
    got = _as_dict(bfs_hops(e, 7, sources=(3,), directed=False))
    assert got == {0: 3, 1: 2, 2: 1, 3: 0}


def test_bfs_multi_source_and_cutoff(ray_session):
    e = _edges([(0, 1), (1, 2), (2, 3), (3, 4), (9, 8)])
    got = _as_dict(bfs_hops(e, 10, sources=(0, 9), directed=False))
    assert got == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 9: 0, 8: 1}
    got = _as_dict(bfs_hops(e, 10, sources=(0, 9), max_hops=2,
                            directed=False))
    assert got == {0: 0, 1: 1, 2: 2, 9: 0, 8: 1}


def test_bfs_shortest_wins_over_cycle(ray_session):
    # two routes 0→3: length 3 chain and a direct shortcut; BFS takes 1
    e = _edges([(0, 1), (1, 2), (2, 3), (0, 3), (3, 0)])
    got = _as_dict(bfs_hops(e, 4, sources=(0,), directed=True))
    assert got == {0: 0, 1: 1, 2: 2, 3: 1}


def test_bfs_contract_errors(ray_session, graph_backend):
    for _ in graph_backend.each():
        e = _edges([(0, 7)])  # endpoint 7 outside num_nodes=4
        with pytest.raises(Exception, match="outside"):
            bfs_hops(e, 4, sources=(0,))
        with pytest.raises(ValueError, match="source ids"):
            bfs_hops(_edges([(0, 1)]), 2, sources=(5,))
        with pytest.raises(ValueError, match="at least one source"):
            bfs_hops(_edges([(0, 1)]), 2, sources=())


def test_bfs_knn_gate_matches_oracle(ray_session):
    import duckdb

    import __ray_entry__ as entry
    sf = "/root/testdata/sf0.001"
    got = (entry.queries()["bfs_hops_knn"](sf).to_pandas()
           .sort_values("vec_id").reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"create view embeddings as select * from "
                f"'{sf}/embeddings.parquet'")
    want = (con.execute(entry.oracle_sql()["bfs_hops_knn"]
                        + " order by vec_id").fetchdf()
            .reset_index(drop=True))
    assert len(got) > 1
    assert got.equals(want[got.columns])


def test_kcore_triangle_peel(ray_session):
    from ts_type_filter_ray.functions.graph import kcore
    # triangle {0,1,2} + pendant 3 attached to 0: 2-core = the triangle
    e = _edges([(0, 1), (1, 2), (0, 2), (0, 3)])
    t = kcore(e, 4, k=2)
    assert t["node"].to_pylist() == [0, 1, 2]
    # 3-core empty (triangle degrees are 2)
    assert kcore(e, 4, k=3).num_rows == 0
    # cascade: chain 4-5 attached to the triangle peels in two rounds
    e2 = _edges([(0, 1), (1, 2), (0, 2), (0, 4), (4, 5)])
    t2 = kcore(e2, 6, k=2)
    assert t2["node"].to_pylist() == [0, 1, 2]


def test_kcore_multigraph_and_guards(ray_session, graph_backend):
    import pytest as _pytest

    from ts_type_filter_ray.functions.graph import kcore
    for _ in graph_backend.each():
        # double edge counts twice: node 0 and 1 have degree 2 → 2-core
        e = _edges([(0, 1), (0, 1)])
        t = graph_backend.table(kcore(e, 2, k=2))
        assert t["node"].to_pylist() == [0, 1]
        with _pytest.raises(RuntimeError, match="stabilize"):
            # chain needs 3 peel rounds; max_rounds=1 must raise loudly
            kcore(_edges([(0, 1), (1, 2), (2, 3)]), 4, k=2, max_rounds=1)


def test_kcore_knn_gate_matches_oracle(ray_session):
    import duckdb

    import __ray_entry__ as entry
    sf = "/root/testdata/sf0.001"
    got = (entry.queries()["kcore_knn"](sf).to_pandas()
           .sort_values("vec_id").reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"create view embeddings as select * from "
                f"'{sf}/embeddings.parquet'")
    want = (con.execute(entry.oracle_sql()["kcore_knn"]
                        + " order by vec_id").fetchdf()
            .reset_index(drop=True))
    assert 0 < len(got) < 500  # a real, non-trivial core
    assert got.equals(want[got.columns])


def test_kcore_exact_depth_cascade_matches_unroll(ray_session,
                                                  graph_backend):
    """A cascade needing exactly max_rounds kill rounds must SUCCEED
    (regression: the old loop raised one round early)."""
    from ts_type_filter_ray.functions.graph import kcore
    for _ in graph_backend.each():
        # path of 8 nodes, k=2: each round peels both endpoints → 4 kill
        # rounds empty the graph
        e = _edges([(i, i + 1) for i in range(7)])
        t = graph_backend.table(kcore(e, 8, k=2, max_rounds=4))
        assert t.num_rows == 0
        with pytest.raises(RuntimeError, match="stabilize"):
            kcore(e, 8, k=2, max_rounds=3)
