"""Label-propagation communities + z-score normalization: hand-checked
semantics, DuckDB parity, and the knn-gate oracles at sf0.001."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from ts_type_filter_ray.functions.graph import label_propagation


def _edges(pairs):
    return rd.from_arrow(pa.table({
        "src": pa.array([p[0] for p in pairs], type=pa.int64()),
        "dst": pa.array([p[1] for p in pairs], type=pa.int64()),
    }))


def test_lpa_two_cliques(ray_session):
    # triangle {0,1,2} + triangle {3,4,5}, one bridge 2-3
    e = _edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    t = label_propagation(e, 6, iters=4, directed=False)
    lab = t["label"].to_numpy()
    # each triangle converges to its min id; the bridge doesn't merge
    # them (each node has 2 same-clique neighbors vs 1 across)
    assert lab[0] == lab[1] == lab[2]
    assert lab[3] == lab[4] == lab[5]
    assert lab[0] != lab[3]


def test_lpa_tie_break_and_isolated(ray_session, graph_backend):
    for _ in graph_backend.each():
        # node 2 sees labels {0, 1} once each → tie breaks to min label
        # 0; node 9 is isolated and keeps its own label
        e = _edges([(0, 2), (1, 2)])
        t = graph_backend.table(
            label_propagation(e, 10, iters=1, directed=False))
        lab = dict(zip(t["node"].to_pylist(), t["label"].to_pylist()))
        assert lab[2] == 0
        assert lab[9] == 9


def test_lpa_multigraph_votes(ray_session):
    # double edge 1-2 outvotes single edge 0-2 at node 2
    e = _edges([(1, 2), (1, 2), (0, 2)])
    t = label_propagation(e, 3, iters=1, directed=False)
    lab = dict(zip(t["node"].to_pylist(), t["label"].to_pylist()))
    assert lab[2] == 1


def test_lpa_directed(ray_session):
    # directed: labels flow src → dst only
    e = _edges([(0, 1)])
    t = label_propagation(e, 2, iters=1, directed=True)
    lab = dict(zip(t["node"].to_pylist(), t["label"].to_pylist()))
    assert lab == {0: 0, 1: 0}


def test_lpa_random_matches_duckdb(ray_session):
    import duckdb
    rng = np.random.default_rng(5)
    n = 60
    src = rng.integers(0, n, 150)
    dst = rng.integers(0, n, 150)
    m = src != dst
    src, dst = src[m], dst[m]
    e = rd.from_arrow(pa.table({"src": pa.array(src, type=pa.int64()),
                                "dst": pa.array(dst, type=pa.int64())}))
    got = label_propagation(e, n, iters=2, directed=False).to_pandas()
    con = duckdb.connect()
    con.register("e0", pa.table({"src": pa.array(src, type=pa.int64()),
                                 "dst": pa.array(dst, type=pa.int64())}))
    sql = f"""
    with edges as (select src, dst from e0
                   union all select dst, src from e0),
    nodes as (select * from unnest(range(0, {n})) as t(node)),
    l0 as (select node, node::BIGINT as label from nodes),
    cnt1 as (select e.dst as node, l.label, count(*)::BIGINT as c
             from edges e join l0 l on l.node = e.src group by 1, 2),
    pick1 as (select node, label, row_number() over
              (partition by node order by c desc, label asc) as rn
              from cnt1),
    l1 as (select l0.node, coalesce(p.label, l0.label) as label
           from l0 left join
                (select node, label from pick1 where rn = 1) p
                on p.node = l0.node),
    cnt2 as (select e.dst as node, l.label, count(*)::BIGINT as c
             from edges e join l1 l on l.node = e.src group by 1, 2),
    pick2 as (select node, label, row_number() over
              (partition by node order by c desc, label asc) as rn
              from cnt2),
    l2 as (select l1.node, coalesce(p.label, l1.label) as label
           from l1 left join
                (select node, label from pick2 where rn = 1) p
                on p.node = l1.node)
    select node, label from l2 order by node"""
    want = con.execute(sql).df()
    assert (got["label"].values == want["label"].values).all()


def test_lpa_knn_gate_matches_oracle(ray_session):
    import duckdb

    import __ray_entry__ as entry
    sf = "/root/testdata/sf0.001"
    got = (entry.queries()["label_prop_knn"](sf).to_pandas()
           .sort_values("vec_id").reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"create view embeddings as select * from "
                f"'{sf}/embeddings.parquet'")
    want = (con.execute(entry.oracle_sql()["label_prop_knn"]
                        + " order by vec_id").fetchdf()
            .reset_index(drop=True))
    assert got.equals(want[got.columns])
    # communities actually form (labels collapse below node count)
    assert got["label"].nunique() < len(got)


def test_zscore_properties_and_guards(ray_session):
    from ts_type_filter_ray.functions.events import zscore_normalize
    t = pa.table({
        "event_id": pa.array(range(6), type=pa.int64()),
        "event_type": pa.array(["a"] * 3 + ["b"] * 3),
        "value": pa.array([1.0, 2.0, 3.0, 10.0, 10.0, 40.0]),
    })
    got = zscore_normalize(rd.from_arrow(t)).to_pandas().sort_values(
        "event_id")
    za = got.loc[got.event_type == "a", "z"].values
    # (1,2,3) cents (100,200,300): mean 200, sample sd 100
    assert np.allclose(za, [-1.0, 0.0, 1.0])
    # constant group raises
    bad = pa.table({
        "event_id": pa.array([0, 1], type=pa.int64()),
        "event_type": pa.array(["c", "c"]),
        "value": pa.array([5.0, 5.0]),
    })
    with pytest.raises(Exception, match="constant-valued"):
        zscore_normalize(rd.from_arrow(bad)).take_all()
