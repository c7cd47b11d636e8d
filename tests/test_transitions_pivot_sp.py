"""Event transitions (LAG pairs), weekly pivot, and Bellman-Ford
shortest paths: hand-checked semantics + DuckDB parity + the knn gate."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from ts_type_filter_ray.functions.events import (
    PIVOT_WEEKLY_SQL, TRANSITIONS_SQL, event_transitions,
    pivot_weekly_counts)
from ts_type_filter_ray.functions.graph import shortest_paths

US = 1_000_000
BASE = 1_704_067_200 * US


def _ev(rows):
    return pa.table({
        "event_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "ts": pa.array([BASE + r[1] for r in rows],
                       type=pa.int64()).cast(pa.timestamp("us")),
        "user_id": pa.array([r[2] for r in rows], type=pa.int64()),
        "event_type": pa.array([r[3] for r in rows], type=pa.string()),
        "value": pa.array([1.0] * len(rows), type=pa.float64()),
    })


def test_transitions_lag_semantics(ray_session):
    import duckdb
    rows = [
        (1, 0, 1, "a", 0), (2, 10, 1, "b", 0), (3, 20, 1, "a", 0),
        # u2 single event → no transition; equal-ts tie ordered by
        # event_id (5 before 6)
        (4, 0, 2, "a", 0),
        (5, 0, 3, "a", 0), (6, 0, 3, "b", 0),
    ]
    t = _ev(rows)
    got = (event_transitions(rd.from_arrow(t), num_parts=4).to_pandas()
           .sort_values(["prev_type", "next_type"])
           .reset_index(drop=True))
    con = duckdb.connect()
    con.register("events", t)
    want = (con.execute(TRANSITIONS_SQL + " order by 1, 2").fetchdf()
            .reset_index(drop=True))
    assert got.equals(want[got.columns])
    d = {(r.prev_type, r.next_type): r.n for r in got.itertuples()}
    assert d == {("a", "b"): 2, ("b", "a"): 1}


def test_pivot_weekly(ray_session):
    import duckdb
    WEEK = 7 * 86400 * US
    rows = [(1, 0, 1, "view", 0), (2, 10, 1, "click", 0),
            (3, WEEK, 2, "view", 0), (4, 2 * WEEK, 1, "error", 0),
            (5, 2 * WEEK, 3, "purchase", 0), (6, 5, 4, "signup", 0)]
    t = _ev(rows)
    got = pivot_weekly_counts(rd.from_arrow(t)).to_pandas()
    con = duckdb.connect()
    con.register("events", t)
    want = con.execute(PIVOT_WEEKLY_SQL + " order by week").fetchdf()
    assert got.reset_index(drop=True).equals(
        want[got.columns].reset_index(drop=True))
    # week gaps are NOT filled (week BASE+1 row has the lone view)
    assert len(got) == 3


def _wedges(tuples):
    return rd.from_arrow(pa.table({
        "src": pa.array([t[0] for t in tuples], type=pa.int64()),
        "dst": pa.array([t[1] for t in tuples], type=pa.int64()),
        "w": pa.array([t[2] for t in tuples], type=pa.int64()),
    }))


def test_shortest_paths_prefers_cheap_detour(ray_session):
    # 0→2 direct costs 10; 0→1→2 costs 3; undirected back-propagation
    e = _wedges([(0, 2, 10), (0, 1, 1), (1, 2, 2), (3, 4, 5)])
    t = shortest_paths(e, 5, sources=(0,), rounds=8, weight_col="w",
                       directed=False)
    d = dict(zip(t["node"].to_pylist(), t["dist"].to_pylist()))
    assert d == {0: 0, 1: 1, 2: 3}
    # directed: the detour still wins but nothing flows backwards
    t = shortest_paths(e, 5, sources=(2,), rounds=8, weight_col="w",
                       directed=True)
    d = dict(zip(t["node"].to_pylist(), t["dist"].to_pylist()))
    assert d == {2: 0}


def test_shortest_paths_round_bound_is_path_length(ray_session):
    # chain 0-1-2-3 each weight 1: rounds=2 reaches only ≤2-edge paths
    e = _wedges([(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    t = shortest_paths(e, 4, sources=(0,), rounds=2, weight_col="w",
                       directed=False)
    d = dict(zip(t["node"].to_pylist(), t["dist"].to_pylist()))
    assert d == {0: 0, 1: 1, 2: 2}


def test_shortest_paths_contract_errors(ray_session, graph_backend):
    for _ in graph_backend.each():
        e = _wedges([(0, 1, -1)])
        with pytest.raises(Exception, match="non-negative"):
            shortest_paths(e, 2, sources=(0,), rounds=2, weight_col="w")
        with pytest.raises(ValueError, match="source ids"):
            shortest_paths(_wedges([(0, 1, 1)]), 2, sources=(9,),
                           rounds=2, weight_col="w")


def test_shortest_paths_knn_gate_matches_oracle(ray_session):
    import duckdb

    import __ray_entry__ as entry
    sf = "/root/testdata/sf0.001"
    got = (entry.queries()["shortest_paths_knn"](sf).to_pandas()
           .sort_values("vec_id").reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"create view embeddings as select * from "
                f"'{sf}/embeddings.parquet'")
    want = (con.execute(entry.oracle_sql()["shortest_paths_knn"]
                        + " order by vec_id").fetchdf()
            .reset_index(drop=True))
    assert len(got) > 1
    assert got.equals(want[got.columns])


def test_event_sequences_order_and_ties(ray_session):
    import duckdb

    from ts_type_filter_ray.functions.events import (EVENT_SEQ_SQL,
                                                     user_event_sequences)
    rows = [(2, 0, 1, "b", 0), (1, 0, 1, "a", 0),  # same-ts tie: id order
            (3, 5, 1, "c", 0), (4, 0, 2, "view", 0)]
    t = _ev(rows)
    got = (user_event_sequences(rd.from_arrow(t), num_parts=4)
           .to_pandas().sort_values("user_id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("events", t)
    want = (con.execute(EVENT_SEQ_SQL + " order by user_id").fetchdf()
            .reset_index(drop=True))
    assert got.equals(want[got.columns])
    assert got.loc[got.user_id == 1, "seq"].iloc[0] == "abc"
    assert got.loc[got.user_id == 2, "seq"].iloc[0] == "v"
