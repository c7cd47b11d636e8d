"""TPC-H Q3 fact-fact join: engine vs DuckDB on synthetic tables with
inner-join edge cases (orders without lineitems, orphaned lineitems,
ties at the k boundary)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ts_type_filter_ray.functions.relational import (TOP_ORDERS_SQL,
                                                     top_orders_by_revenue)


@pytest.fixture(scope="module")
def q3_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("q3")
    rng = np.random.default_rng(42)
    segs = ["BUILDING", "MACHINERY"]
    n_cust, n_ord, n_li = 20, 60, 200
    pq.write_table(pa.table({
        "c_custkey": pa.array(np.arange(n_cust), type=pa.int64()),
        "c_mktsegment": pa.array([segs[i % 2] for i in range(n_cust)]),
    }), d / "customer.parquet")
    base = np.datetime64("1998-07-01T00:00:00.000000")
    day = np.timedelta64(1, "D").astype("timedelta64[us]")
    odates = base + (rng.integers(-400, 400, n_ord) * day)
    pq.write_table(pa.table({
        "o_orderkey": pa.array(np.arange(n_ord), type=pa.int64()),
        "o_custkey": pa.array(rng.integers(0, n_cust, n_ord),
                              type=pa.int64()),
        "o_orderdate": pa.array(odates, type=pa.timestamp("us")),
    }), d / "orders.parquet")
    # orderkey 0 gets NO lineitems; orderkeys 61/62 are orphans (no
    # such order) — both must vanish under inner-join semantics
    lk = np.concatenate([rng.integers(1, n_ord, n_li - 4),
                         np.array([61, 61, 62, 5])])
    sdates = base + (rng.integers(-400, 400, n_li) * day)
    # quarter-cent prices exercise the half-away rounding tie
    price = rng.integers(1, 40000, n_li) / 4.0
    disc = rng.integers(0, 11, n_li) / 100.0
    pq.write_table(pa.table({
        "l_orderkey": pa.array(lk, type=pa.int64()),
        "l_extendedprice": pa.array(price, type=pa.float64()),
        "l_discount": pa.array(disc, type=pa.float64()),
        "l_shipdate": pa.array(sdates, type=pa.timestamp("us")),
    }), d / "lineitem.parquet")
    return str(d)


def _oracle(q3_dir, k=None):
    import duckdb
    con = duckdb.connect()
    for t in ("customer", "orders", "lineitem"):
        con.execute(f"create view {t} as select * from "
                    f"read_parquet('{q3_dir}/{t}.parquet')")
    sql = TOP_ORDERS_SQL if k is None else \
        TOP_ORDERS_SQL.replace("limit 10", f"limit {k}")
    return con.execute(sql).fetchdf()


def test_matches_duckdb(ray_session, q3_dir):
    got = top_orders_by_revenue(q3_dir, num_parts=4).to_pandas()
    want = _oracle(q3_dir)
    assert len(want) == 10   # the fixture qualifies enough orders
    assert got.reset_index(drop=True).equals(want.reset_index(drop=True))


def test_inner_join_drops_edges(ray_session, q3_dir):
    # deep k: every qualifying order appears; orphans/empty-orders don't
    got = top_orders_by_revenue(q3_dir, k=10_000,
                                num_parts=4).to_pandas()
    want = _oracle(q3_dir, k=10_000)
    assert got.reset_index(drop=True).equals(want.reset_index(drop=True))
    keys = set(got["o_orderkey"])
    assert 0 not in keys and 61 not in keys and 62 not in keys


def test_empty_segment(ray_session, q3_dir):
    got = top_orders_by_revenue(q3_dir, segment="NOPE", num_parts=4)
    assert got.num_rows == 0


def test_revenue_rollup_levels_consistent(ray_session, tmp_path,
                                          monkeypatch):
    """The shuffle path (forced tiny broadcast contract) must equal the
    broadcast path, and super-aggregates must equal their children."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ts_type_filter_ray.functions.relational import (
        REVENUE_ROLLUP_SQL, revenue_rollup)

    d = str(tmp_path)
    rng = np.random.RandomState(9)
    n_cust, n_ord = 40, 300
    pq.write_table(pa.table({
        "n_nationkey": pa.array(range(3), type=pa.int64()),
        "n_name": pa.array(["AAA", "BBB", "CCC"]),
    }), f"{d}/nation.parquet")
    pq.write_table(pa.table({
        "c_custkey": pa.array(range(n_cust), type=pa.int64()),
        "c_nationkey": pa.array(rng.randint(0, 3, n_cust),
                                type=pa.int64()),
        "c_mktsegment": pa.array(
            [["AUTO", "FOOD"][i % 2] for i in range(n_cust)]),
    }), f"{d}/customer.parquet")
    pq.write_table(pa.table({
        "o_custkey": pa.array(rng.randint(0, n_cust, n_ord),
                              type=pa.int64()),
        "o_totalprice": pa.array(
            np.round(rng.uniform(10, 1000, n_ord), 2)),
    }), f"{d}/orders.parquet")

    from ts_type_filter_ray.functions import relational
    bc = revenue_rollup(d).take_all()
    monkeypatch.setattr(relational, "MAX_BROADCAST_DIM_ROWS", 1)
    sh = revenue_rollup(d).take_all()
    assert bc == sh

    con = duckdb.connect()
    for t in ("orders", "customer", "nation"):
        con.execute(f"create view {t} as select * from '{d}/{t}.parquet'")
    exp = con.execute(
        REVENUE_ROLLUP_SQL + " order by n_name, c_mktsegment").df()
    got = sorted(bc, key=lambda r: (r["n_name"], r["c_mktsegment"]))
    assert [(r["n_name"], r["c_mktsegment"], r["n_orders"],
             r["revenue_c"]) for r in got] == \
        list(map(tuple, exp.values.tolist()))
