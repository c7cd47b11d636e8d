"""Relational pipelines over the driver's TPC-H-ish tables — the classic
warehouse shapes expressed Ray-Data-first:

- :func:`pricing_summary` (TPC-H Q1 shape): column-pruned read with a
  row-group-friendly date filter, a vectorized per-batch COMBINER (the
  group domain is tiny — returnflag × linestatus — so each batch emits
  ≤ a handful of partial rows), then a small ``groupby`` merge. The
  shuffle moves O(batches × groups) rows, never O(rows).
- :func:`revenue_by_nation` (join shape): the dimension side
  (customer ⋈ nation: custkey → nation name) is broadcast ONCE via
  ``ray.put`` and read per actor task — never a shuffle join for a
  dimension that is orders of magnitude smaller than the fact table
  (SURVEY.md §2.4, guide's broadcast-join pattern). Per batch: one
  ``np.searchsorted`` lookup + bincount partial, then a tiny groupby.

Money flows as integer cents (``round(x*100)::int64``) end-to-end, so
distributed partial-sum order can never produce float drift vs the
DuckDB oracles — both queries are value-exact in the driver gate.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data import Dataset
from ray.data.aggregate import Sum

# Q1-style cutoff: inclusive upper bound on l_shipdate
SHIP_CUTOFF = "1998-09-02"


def _half_away_cents(v: np.ndarray) -> np.ndarray:
    """round(value*100) with DuckDB's HALF-AWAY-FROM-ZERO semantics —
    np.rint/pc.round are half-to-even and disagree on exact .5 products
    (0.125*100), breaking the value-exact oracles."""
    v = np.asarray(v, dtype=np.float64) * 100.0
    return np.where(v >= 0, np.floor(v + 0.5),
                    np.ceil(v - 0.5)).astype(np.int64)


def pricing_summary(sf_dir: str) -> Dataset:
    """(l_returnflag, l_linestatus, n_rows, sum_qty_c, sum_price_c,
    sum_disc_c) for lineitems shipped on or before :data:`SHIP_CUTOFF`.
    Quantities/prices/discounts ride as exact integer cents."""
    cutoff = pa.scalar(np.datetime64(SHIP_CUTOFF + "T23:59:59.999999"),
                       type=pa.timestamp("us"))

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_shipdate"])

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.less_equal(batch["l_shipdate"], cutoff))
        n = batch.num_rows
        if n == 0:
            return pa.table({
                "l_returnflag": pa.array([], type=pa.string()),
                "l_linestatus": pa.array([], type=pa.string()),
                "n_rows": pa.array([], type=pa.int64()),
                "sum_qty_c": pa.array([], type=pa.int64()),
                "sum_price_c": pa.array([], type=pa.int64()),
                "sum_disc_c": pa.array([], type=pa.int64()),
            })
        flag = batch["l_returnflag"].to_pylist()
        status = batch["l_linestatus"].to_pylist()
        keys = np.array([f"{a}|{b}" for a, b in zip(flag, status)])
        uniq, codes = np.unique(keys, return_inverse=True)
        qty = _half_away_cents(
            batch["l_quantity"].to_numpy(zero_copy_only=False))
        price = _half_away_cents(batch["l_extendedprice"].to_numpy(
            zero_copy_only=False))
        disc = _half_away_cents(
            batch["l_discount"].to_numpy(zero_copy_only=False))
        k = len(uniq)
        return pa.table({
            "l_returnflag": pa.array([u.split("|")[0] for u in uniq]),
            "l_linestatus": pa.array([u.split("|")[1] for u in uniq]),
            "n_rows": pa.array(np.bincount(codes, minlength=k)
                               .astype(np.int64)),
            "sum_qty_c": pa.array(np.bincount(codes, weights=qty,
                                              minlength=k).astype(np.int64)),
            "sum_price_c": pa.array(np.bincount(codes, weights=price,
                                                minlength=k)
                                    .astype(np.int64)),
            "sum_disc_c": pa.array(np.bincount(codes, weights=disc,
                                               minlength=k)
                                   .astype(np.int64)),
        })

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(["l_returnflag", "l_linestatus"])
            .aggregate(Sum("n_rows", alias_name="n_rows"),
                       Sum("sum_qty_c", alias_name="sum_qty_c"),
                       Sum("sum_price_c", alias_name="sum_price_c"),
                       Sum("sum_disc_c", alias_name="sum_disc_c")))


PRICING_SUMMARY_SQL = f"""
    select l_returnflag, l_linestatus,
           count(*) as n_rows,
           sum(cast(round(l_quantity * 100) as bigint))::BIGINT as sum_qty_c,
           sum(cast(round(l_extendedprice * 100) as bigint))::BIGINT
               as sum_price_c,
           sum(cast(round(l_discount * 100) as bigint))::BIGINT as sum_disc_c
    from lineitem
    where l_shipdate <= timestamp '{SHIP_CUTOFF} 23:59:59.999999'
    group by l_returnflag, l_linestatus"""


#: broadcast size contract for :func:`revenue_by_nation` — the customer
#: dimension is pulled to the driver and ``ray.put`` once ONLY while it
#: stays under this many rows (~16 bytes/row → ≈80 MB in the object
#: store, comfortably one-copy-per-node territory); a bigger dimension
#: takes the distributed union-shuffle join instead.
MAX_BROADCAST_DIM_ROWS = 5_000_000


def _nation_lookup(sf_dir: str):
    """Dimension build (driver-side; caller enforces the
    :data:`MAX_BROADCAST_DIM_ROWS` size contract): sorted custkeys +
    parallel nation names, ready for ``np.searchsorted`` lookups."""
    import pyarrow.parquet as pq

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"])
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"])
    nkey_to_name = dict(zip(nat["n_nationkey"].to_pylist(),
                            nat["n_name"].to_pylist()))
    custkey = cust["c_custkey"].to_numpy(zero_copy_only=False)
    cnation = cust["c_nationkey"].to_numpy(zero_copy_only=False)
    order = np.argsort(custkey)
    names = sorted(set(nkey_to_name.values()))
    name_code = {n: i for i, n in enumerate(names)}
    codes = np.array([name_code[nkey_to_name[int(k)]]
                      for k in cnation[order]], dtype=np.int64)
    return custkey[order], codes, names


def revenue_by_nation(sf_dir: str) -> Dataset:
    """(n_name, n_orders, revenue_c): orders ⋈ customer ⋈ nation.

    Size contract: while the customer dimension has ≤
    :data:`MAX_BROADCAST_DIM_ROWS` rows (checked from Parquet METADATA — no data
    read) it is broadcast once via ``ray.put`` and each fact batch does a
    ``searchsorted`` lookup + bincount partial — the guide's
    broadcast-join pattern, no shuffle. A dimension over the contract
    switches to :func:`_revenue_by_nation_shuffle`: a distributed
    union-shuffle equi-join on a coarse custkey partition (the same
    sort-shuffle machinery as ``dedup._attach_blobs``), so a multi-GB
    dimension never lands on the driver (VERDICT r2 note #6)."""
    import pyarrow.parquet as pq

    dim_rows = pq.ParquetFile(f"{sf_dir}/customer.parquet").metadata.num_rows
    if dim_rows > MAX_BROADCAST_DIM_ROWS:
        return _revenue_by_nation_shuffle(sf_dir)
    custkey_sorted, nation_code, names = _nation_lookup(sf_dir)
    dim_ref = ray.put((custkey_sorted, nation_code))
    n_names = len(names)

    class JoinAgg:
        def __init__(self):
            self._custkey, self._code = ray.get(dim_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(self._custkey, ck)
            # every order references an existing customer (FK contract)
            code = self._code[pos]
            cents = _half_away_cents(batch["o_totalprice"].to_numpy(
                zero_copy_only=False))
            return pa.table({
                "n_name": pa.array(names, type=pa.string()),
                "n_orders": pa.array(
                    np.bincount(code, minlength=n_names).astype(np.int64)),
                "revenue_c": pa.array(
                    np.bincount(code, weights=cents,
                                minlength=n_names).astype(np.int64)),
            })

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_totalprice"])
    out = (orders.map_batches(JoinAgg, batch_format="pyarrow",
                              concurrency=(1, 8))
           .groupby("n_name")
           .aggregate(Sum("n_orders", alias_name="n_orders"),
                      Sum("revenue_c", alias_name="revenue_c")))

    def drop_empty(batch: pa.Table) -> pa.Table:
        # nations with no orders exist only as zero partials
        return batch.filter(pc.greater(batch["n_orders"], 0))

    return out.map_batches(drop_empty, batch_format="pyarrow")


def _revenue_by_nation_shuffle(sf_dir: str,
                               num_parts: int | None = None) -> Dataset:
    """Large-dimension path for :func:`revenue_by_nation`: customer and
    orders rows are keyed by custkey, unioned, hash-partitioned on the
    key, and each partition does one vectorized searchsorted join +
    per-nation bincount partial; a tiny ``groupby(n_name)`` merge
    finishes. Only the 25-row nation table is driver-side. The shuffle
    moves each table once — O(|orders| + |customer|) rows — and no
    per-partition state exceeds rows/num_parts."""
    import pyarrow.parquet as pq

    from .partitioning import auto_num_parts

    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"])
    nkey_to_name = dict(zip(nat["n_nationkey"].to_pylist(),
                            nat["n_name"].to_pylist()))
    names = sorted(set(nkey_to_name.values()))
    name_code = {n: i for i, n in enumerate(names)}
    nk = np.array(sorted(nkey_to_name), dtype=np.int64)
    nc = np.array([name_code[nkey_to_name[int(k)]] for k in nk],
                  dtype=np.int64)
    n_names = len(names)

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_totalprice"])
    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_nationkey"])
    if num_parts is None:
        num_parts = auto_num_parts(orders.count() + cust.count())

    def cust_rows(batch: pa.Table) -> pa.Table:
        ck = batch["c_custkey"].to_numpy(zero_copy_only=False)
        cnk = batch["c_nationkey"].to_numpy(zero_copy_only=False)
        code = nc[np.searchsorted(nk, cnk)]
        return pa.table({
            "key": pa.array(ck, type=pa.int64()),
            "code": pa.array(code, type=pa.int64()),
            "cents": pa.array(np.zeros(len(ck), dtype=np.int64)),
            "is_dim": pa.array(np.ones(len(ck), dtype=np.int8)),
        })

    def order_rows(batch: pa.Table) -> pa.Table:
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        cents = _half_away_cents(batch["o_totalprice"].to_numpy(
            zero_copy_only=False))
        n = len(ck)
        return pa.table({
            "key": pa.array(ck, type=pa.int64()),
            "code": pa.array(np.full(n, -1, dtype=np.int64)),
            "cents": pa.array(cents),
            "is_dim": pa.array(np.zeros(n, dtype=np.int8)),
        })

    def add_part(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "part", pc.cast(pc.bit_wise_and(batch["key"], num_parts - 1),
                            pa.int32()))

    def join_partial(group: pa.Table) -> pa.Table:
        key = group["key"].to_numpy(zero_copy_only=False)
        code = group["code"].to_numpy(zero_copy_only=False)
        cents = group["cents"].to_numpy(zero_copy_only=False)
        is_dim = group["is_dim"].to_numpy(zero_copy_only=False).astype(bool)
        dk = key[is_dim]
        order = np.argsort(dk)
        dk = dk[order]
        dcode = code[is_dim][order]
        fk = key[~is_dim]
        fcents = cents[~is_dim]
        # every order references an existing customer (FK contract)
        fcode = dcode[np.searchsorted(dk, fk)]
        return pa.table({
            "n_name": pa.array(names, type=pa.string()),
            "n_orders": pa.array(np.bincount(fcode, minlength=n_names)
                                 .astype(np.int64)),
            "revenue_c": pa.array(np.bincount(fcode, weights=fcents,
                                              minlength=n_names)
                                  .astype(np.int64)),
        })

    stream = (cust.map_batches(cust_rows, batch_format="pyarrow")
              .union(orders.map_batches(order_rows,
                                        batch_format="pyarrow")))
    out = (stream.map_batches(add_part, batch_format="pyarrow")
           .groupby("part").map_groups(join_partial, batch_format="pyarrow")
           .groupby("n_name")
           .aggregate(Sum("n_orders", alias_name="n_orders"),
                      Sum("revenue_c", alias_name="revenue_c")))

    def drop_empty(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater(batch["n_orders"], 0))

    return out.map_batches(drop_empty, batch_format="pyarrow")


REVENUE_BY_NATION_SQL = """
    select n.n_name,
           count(*) as n_orders,
           sum(cast(round(o.o_totalprice * 100) as bigint))::BIGINT
               as revenue_c
    from orders o
    join customer c on c.c_custkey = o.o_custkey
    join nation n on n.n_nationkey = c.c_nationkey
    group by n.n_name"""


BIG_ORDER_CUTOFF = 300_000.0


def customers_without_big_orders(sf_dir: str,
                                 num_parts: int | None = None) -> Dataset:
    """(c_custkey, c_name) for customers with NO order above
    :data:`BIG_ORDER_CUTOFF` — the anti-join shape, distributed: distinct
    qualifying fact-side custkeys (never broadcast — at scale the fact
    side's distinct keys are big) union-shuffled with the customer rows
    on a coarse custkey partition; a vectorized np.isin per partition
    drops matched customers. No driver-side id sets."""

    from .partitioning import auto_num_parts

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_name"])
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_totalprice"])
    if num_parts is None:
        num_parts = auto_num_parts(orders.count() + cust.count())

    def cust_rows(batch: pa.Table) -> pa.Table:
        return pa.table({
            "key": batch["c_custkey"].cast(pa.int64()),
            "c_name": batch["c_name"],
            "is_cust": pa.array(np.ones(batch.num_rows, dtype=np.int8)),
        })

    def order_marks(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.greater(batch["o_totalprice"], BIG_ORDER_CUTOFF))
        keys = np.unique(batch["o_custkey"].to_numpy(zero_copy_only=False))
        n = len(keys)
        return pa.table({
            "key": pa.array(keys, type=pa.int64()),
            "c_name": pa.array([None] * n, type=pa.string()),
            "is_cust": pa.array(np.zeros(n, dtype=np.int8)),
        })

    def add_part(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "part", pc.cast(pc.bit_wise_and(batch["key"], num_parts - 1),
                            pa.int32()))

    def anti(group: pa.Table) -> pa.Table:
        key = group["key"].to_numpy(zero_copy_only=False)
        is_cust = group["is_cust"].to_numpy(
            zero_copy_only=False).astype(bool)
        ordered_keys = np.unique(key[~is_cust])
        keep = is_cust & ~np.isin(key, ordered_keys)
        sub = group.filter(pa.array(keep))
        return pa.table({"c_custkey": sub["key"],
                         "c_name": sub["c_name"]})

    stream = (cust.map_batches(cust_rows, batch_format="pyarrow")
              .union(orders.map_batches(order_marks,
                                        batch_format="pyarrow")))
    return (stream.map_batches(add_part, batch_format="pyarrow")
            .groupby("part").map_groups(anti, batch_format="pyarrow"))


CUSTOMERS_WITHOUT_BIG_ORDERS_SQL = f"""
    select c_custkey, c_name from customer c
    where not exists (select 1 from orders o
                      where o.o_custkey = c.c_custkey
                        and o.o_totalprice > {BIG_ORDER_CUTOFF})"""


def running_totals(sf_dir: str, num_parts: int | None = None) -> Dataset:
    """(event_id, user_id, running_cents): per-user cumulative value-cents
    in (ts, event_id) order — the ordered analytic-window shape Ray Data
    lacks natively, as one vectorized segment scan per coarse user-hash
    partition (same pattern as sessionize; int cents ⇒ value-exact)."""
    from .partitioning import auto_num_parts

    events = rd.read_parquet(f"{sf_dir}/events.parquet",
                             columns=["event_id", "ts", "user_id", "value"])
    if num_parts is None:
        num_parts = auto_num_parts(events)

    def add_part(batch: pa.Table) -> pa.Table:
        cents = pa.array(_half_away_cents(
            batch["value"].to_numpy(zero_copy_only=False)),
            type=pa.int64())
        return pa.table({
            "part": pc.cast(pc.bit_wise_and(batch["user_id"],
                                            num_parts - 1), pa.int32()),
            "user_id": batch["user_id"],
            "event_id": batch["event_id"],
            "ts": batch["ts"].cast(pa.int64()),
            "cents": cents,
        })

    def scan(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy(zero_copy_only=False)
        ts = group["ts"].to_numpy(zero_copy_only=False)
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        cents = group["cents"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, u))
        u, eid, cents = u[order], eid[order], cents[order]
        run = np.cumsum(cents)
        # subtract each user's prefix: running within user = global
        # cumsum minus the cumsum just before the user's first row
        change = np.ones(len(u), dtype=bool)
        change[1:] = u[1:] != u[:-1]
        ucode = np.cumsum(change) - 1
        base = np.concatenate(([0], run[:-1]))[change]
        return pa.table({
            "event_id": pa.array(eid, type=pa.int64()),
            "user_id": pa.array(u, type=pa.int64()),
            "running_cents": pa.array(run - base[ucode], type=pa.int64()),
        })

    return (events.map_batches(add_part, batch_format="pyarrow")
            .groupby("part").map_groups(scan, batch_format="pyarrow"))


RUNNING_TOTALS_SQL = """
    select event_id, user_id,
           sum(cast(round(value * 100) as bigint)) over
               (partition by user_id order by ts, event_id
                rows unbounded preceding)::BIGINT as running_cents
    from events"""


# TPC-H Q3 shape: fact-fact join constants
Q3_SEGMENT = "BUILDING"
Q3_DATE = "1998-07-01"
Q3_TOPK = 10


def top_orders_by_revenue(sf_dir: str, segment: str = Q3_SEGMENT,
                          date: str = Q3_DATE, k: int = Q3_TOPK,
                          num_parts: int | None = None) -> pa.Table:
    """(o_orderkey, o_orderdate, revenue_c) — the TPC-H Q3 shape: top-*k*
    unshipped-revenue orders for one market segment, revenue summed over
    the order's still-to-ship lineitems. The one relational shape the
    other operators don't cover: an INNER equi-join of TWO FACT tables
    (orders ⋈ lineitem on orderkey — neither side broadcastable), plus a
    broadcast semijoin for the customer-segment filter.

    Distributed shape:
    - customer is a dimension: the segment's custkeys come to the
      driver once and broadcast via ``ray.put`` (the
      :data:`MAX_BROADCAST_DIM_ROWS` contract); orders filter by date +
      membership (one ``searchsorted`` per batch) at the read.
    - the fact-fact join is the union-shuffle zip-join: filtered order
      rows and filtered lineitem rows key by orderkey, hash-co-partition
      (each orderkey's order row and all its lineitems land together),
      and each partition joins + aggregates in one vectorized pass —
      lineitems without a surviving order drop (inner semantics), per-
      orderkey revenue sums are globally final (an orderkey lives in
      exactly one partition).
    - top-k: each partition emits only its k best candidates; the
      driver merges ≤ parts·k rows with the (revenue desc, orderkey
      asc) tie-break. Money rides as per-row half-away integer cents of
      ``l_extendedprice·(1−l_discount)``, so the result is value-exact
      vs the SQL oracle including the float product.
    """
    from .partitioning import auto_num_parts

    cutoff = pa.scalar(np.datetime64(date + "T00:00:00.000000"),
                       type=pa.timestamp("us"))

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_mktsegment"])
    n_cust = cust.count()
    if n_cust > MAX_BROADCAST_DIM_ROWS:
        raise ValueError(
            f"customer dimension ({n_cust} rows) exceeds the broadcast "
            f"contract ({MAX_BROADCAST_DIM_ROWS}); wire the union-"
            "shuffle semijoin (the customers_without_big_orders shape) "
            "for the segment filter first")
    seg_keys = np.sort(np.concatenate([
        b["c_custkey"].to_numpy(zero_copy_only=False)[
            pc.equal(b["c_mktsegment"], segment).to_numpy(
                zero_copy_only=False)]
        for b in cust.iter_batches(batch_format="pyarrow")] or
        [np.empty(0, dtype=np.int64)]))
    seg_ref = ray.put(seg_keys)

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_custkey",
                                      "o_orderdate"])
    items = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                            columns=["l_orderkey", "l_extendedprice",
                                     "l_discount", "l_shipdate"])
    if num_parts is None:
        num_parts = auto_num_parts(orders.count() + items.count())

    _keys_cache: list = []

    def order_rows(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.less(batch["o_orderdate"], cutoff))
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        if not _keys_cache:   # one zero-copy fetch per worker process
            _keys_cache.append(ray.get(seg_ref))
        keys = _keys_cache[0]
        if len(keys):
            pos = np.searchsorted(keys, ck)
            hit = (pos < len(keys)) & (keys[np.minimum(pos,
                                                       len(keys) - 1)]
                                       == ck)
        else:
            hit = np.zeros(len(ck), dtype=bool)
        batch = batch.filter(pa.array(hit))
        ok = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        return pa.table({
            "key": pa.array(ok, type=pa.int64()),
            "odate": batch["o_orderdate"],
            "cents": pa.array(np.zeros(len(ok), dtype=np.int64)),
            "is_order": pa.array(np.ones(len(ok), dtype=np.int8)),
        })

    def item_rows(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.greater(batch["l_shipdate"], cutoff))
        price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        cents = _half_away_cents(price * (1.0 - disc))
        lk = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        n = len(lk)
        return pa.table({
            "key": pa.array(lk, type=pa.int64()),
            "odate": pa.nulls(n, type=pa.timestamp("us")),
            "cents": pa.array(cents),
            "is_order": pa.array(np.zeros(n, dtype=np.int8)),
        })

    def add_part(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "part", pc.cast(pc.bit_wise_and(batch["key"], num_parts - 1),
                            pa.int32()))

    def join_topk(group: pa.Table) -> pa.Table:
        is_ord = group["is_order"].to_numpy(
            zero_copy_only=False).astype(bool)
        key = group["key"].to_numpy(zero_copy_only=False)
        ok = key[is_ord]
        order = np.argsort(ok)
        ok = ok[order]
        odates = group["odate"].combine_chunks().filter(
            pa.array(is_ord)).take(pa.array(order))
        lk = key[~is_ord]
        cents = group["cents"].to_numpy(zero_copy_only=False)[~is_ord]
        pos = np.searchsorted(ok, lk)
        hit = (pos < len(ok)) & (ok[np.minimum(pos, max(len(ok) - 1, 0))]
                                 == lk) if len(ok) else \
            np.zeros(len(lk), dtype=bool)
        rev = np.bincount(pos[hit], weights=cents[hit],
                          minlength=len(ok)).astype(np.int64)
        nonzero = np.flatnonzero(np.bincount(
            pos[hit], minlength=len(ok)))   # inner join: ≥1 lineitem
        # per-partition top-k suffices: every orderkey is wholly inside
        # one partition, so the global top-k ⊆ union of partition top-ks
        top = nonzero[np.lexsort((ok[nonzero], -rev[nonzero]))[:k]]
        return pa.table({
            "o_orderkey": pa.array(ok[top], type=pa.int64()),
            "o_orderdate": odates.take(pa.array(top)),
            "revenue_c": pa.array(rev[top]),
        })

    stream = (orders.map_batches(order_rows, batch_format="pyarrow")
              .union(items.map_batches(item_rows,
                                       batch_format="pyarrow")))
    cands = (stream.map_batches(add_part, batch_format="pyarrow")
             .groupby("part")
             .map_groups(join_topk, batch_format="pyarrow")
             .take_all())   # ≤ num_parts · k candidate rows
    if not cands:
        return pa.table({
            "o_orderkey": pa.array([], type=pa.int64()),
            "o_orderdate": pa.array([], type=pa.timestamp("us")),
            "revenue_c": pa.array([], type=pa.int64())})
    tbl = pa.Table.from_pylist(cands)
    rev = tbl["revenue_c"].to_numpy(zero_copy_only=False)
    okeys = tbl["o_orderkey"].to_numpy(zero_copy_only=False)
    top = np.lexsort((okeys, -rev))[:k]
    return tbl.take(pa.array(top))


TOP_ORDERS_SQL = f"""
    select o.o_orderkey, o.o_orderdate,
           sum(cast(round(l.l_extendedprice * (1 - l.l_discount) * 100)
                    as bigint))::BIGINT as revenue_c
    from customer c
    join orders o on o.o_custkey = c.c_custkey
    join lineitem l on l.l_orderkey = o.o_orderkey
    where c.c_mktsegment = '{Q3_SEGMENT}'
      and o.o_orderdate < date '{Q3_DATE}'
      and l.l_shipdate > date '{Q3_DATE}'
    group by o.o_orderkey, o.o_orderdate
    order by revenue_c desc, o.o_orderkey asc
    limit {Q3_TOPK}"""


def revenue_rollup(sf_dir: str, num_parts: int | None = None) -> Dataset:
    """(n_name, c_mktsegment, n_orders, revenue_c) at every
    ``ROLLUP(n_name, c_mktsegment)`` grouping level — super-aggregate
    rows carry the ``'ALL'`` marker instead of SQL's NULL (the gate
    compare treats nullable outputs as degraded; a dimension value
    literally named 'ALL' would collide — not a TPC-H concern).

    The multi-level aggregation costs ONE fact pass: revenue is
    additive, so only the FINEST (nation × segment) aggregate is
    computed distributed — broadcast dimension lookup under the
    :data:`MAX_BROADCAST_DIM_ROWS` contract, the custkey union-shuffle
    join beyond it (the ``revenue_by_nation`` pattern with the two
    dim codes packed into one int) — and the coarser levels derive
    from that ≤ |nations|·|segments|-row table driver-side (bounded by
    enum cardinalities, never by fact rows)."""
    import pyarrow.parquet as pq

    from .partitioning import auto_num_parts

    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"])
    nkey_to_name = dict(zip(nat["n_nationkey"].to_pylist(),
                            nat["n_name"].to_pylist()))
    names = sorted(set(nkey_to_name.values()))
    name_code = {n: i for i, n in enumerate(names)}
    nk = np.array(sorted(nkey_to_name), dtype=np.int64)
    nc = np.array([name_code[nkey_to_name[int(k)]] for k in nk],
                  dtype=np.int64)

    # segment enum: tiny distinct scan (bounded by the enum cardinality)
    segs = sorted(set(pc.unique(
        pq.read_table(f"{sf_dir}/customer.parquet",
                      columns=["c_mktsegment"])["c_mktsegment"]
    ).to_pylist()))
    seg_code = {s: i for i, s in enumerate(segs)}
    n_codes = len(names) * len(segs)

    dim_rows = pq.ParquetFile(
        f"{sf_dir}/customer.parquet").metadata.num_rows
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_totalprice"])

    def packed_partial(code: np.ndarray, cents: np.ndarray) -> pa.Table:
        return pa.table({
            "code": pa.array(np.arange(n_codes, dtype=np.int64)),
            "n_orders": pa.array(
                np.bincount(code, minlength=n_codes).astype(np.int64)),
            "revenue_c": pa.array(
                np.bincount(code, weights=cents,
                            minlength=n_codes).astype(np.int64)),
        })

    if dim_rows <= MAX_BROADCAST_DIM_ROWS:
        cust = pq.read_table(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_nationkey", "c_mktsegment"])
        ck = cust["c_custkey"].to_numpy(zero_copy_only=False)
        order = np.argsort(ck)
        ncode = nc[np.searchsorted(nk, cust["c_nationkey"]
                                   .to_numpy(zero_copy_only=False))]
        scode = np.array([seg_code[s] for s in
                          cust["c_mktsegment"].to_pylist()],
                         dtype=np.int64)
        packed = (ncode * len(segs) + scode)[order]
        dim_ref = ray.put((ck[order], packed))

        class JoinAgg:
            def __init__(self):
                self._ck, self._code = ray.get(dim_ref)

            def __call__(self, batch: pa.Table) -> pa.Table:
                ock = batch["o_custkey"].to_numpy(zero_copy_only=False)
                code = self._code[np.searchsorted(self._ck, ock)]
                cents = _half_away_cents(
                    batch["o_totalprice"].to_numpy(zero_copy_only=False))
                return packed_partial(code, cents)

        finest = (orders.map_batches(JoinAgg, batch_format="pyarrow",
                                     concurrency=(1, 8))
                  .groupby("code")
                  .aggregate(Sum("n_orders", alias_name="n_orders"),
                             Sum("revenue_c", alias_name="revenue_c")))
    else:
        cust = rd.read_parquet(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_nationkey", "c_mktsegment"])
        if num_parts is None:
            num_parts = auto_num_parts(orders.count() + cust.count())
        seg_ref = ray.put(seg_code)

        def cust_rows(batch: pa.Table) -> pa.Table:
            sc = ray.get(seg_ref)
            cck = batch["c_custkey"].to_numpy(zero_copy_only=False)
            ncode = nc[np.searchsorted(
                nk, batch["c_nationkey"].to_numpy(zero_copy_only=False))]
            scode = np.array([sc[s] for s in
                              batch["c_mktsegment"].to_pylist()],
                             dtype=np.int64)
            return pa.table({
                "key": pa.array(cck, type=pa.int64()),
                "code": pa.array(ncode * len(sc) + scode),
                "cents": pa.array(np.zeros(len(cck), dtype=np.int64)),
                "is_dim": pa.array(np.ones(len(cck), dtype=np.int8)),
            })

        def order_rows(batch: pa.Table) -> pa.Table:
            ock = batch["o_custkey"].to_numpy(zero_copy_only=False)
            cents = _half_away_cents(
                batch["o_totalprice"].to_numpy(zero_copy_only=False))
            n = len(ock)
            return pa.table({
                "key": pa.array(ock, type=pa.int64()),
                "code": pa.array(np.full(n, -1, dtype=np.int64)),
                "cents": pa.array(cents),
                "is_dim": pa.array(np.zeros(n, dtype=np.int8)),
            })

        def add_part(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "part", pc.cast(pc.bit_wise_and(batch["key"],
                                                num_parts - 1),
                                pa.int32()))

        def join_partial(group: pa.Table) -> pa.Table:
            key = group["key"].to_numpy(zero_copy_only=False)
            code = group["code"].to_numpy(zero_copy_only=False)
            cents = group["cents"].to_numpy(zero_copy_only=False)
            is_dim = group["is_dim"].to_numpy(
                zero_copy_only=False).astype(bool)
            dk = key[is_dim]
            o = np.argsort(dk)
            dk = dk[o]
            dcode = code[is_dim][o]
            fk = key[~is_dim]
            fcode = dcode[np.searchsorted(dk, fk)]  # FK contract
            return packed_partial(fcode, cents[~is_dim])

        stream = (cust.map_batches(cust_rows, batch_format="pyarrow")
                  .union(orders.map_batches(order_rows,
                                            batch_format="pyarrow")))
        finest = (stream.map_batches(add_part, batch_format="pyarrow")
                  .groupby("part")
                  .map_groups(join_partial, batch_format="pyarrow")
                  .groupby("code")
                  .aggregate(Sum("n_orders", alias_name="n_orders"),
                             Sum("revenue_c", alias_name="revenue_c")))

    # rollup expansion over the bounded finest table
    rows = finest.take_all()  # ≤ |nations|·|segments| rows
    code = np.array([r["code"] for r in rows], dtype=np.int64)
    cnt = np.array([r["n_orders"] for r in rows], dtype=np.int64)
    rev = np.array([r["revenue_c"] for r in rows], dtype=np.int64)
    keep = cnt > 0
    code, cnt, rev = code[keep], cnt[keep], rev[keep]
    ncode, scode = code // len(segs), code % len(segs)

    out_n, out_s, out_c, out_r = [], [], [], []
    for i in range(len(code)):
        out_n.append(names[ncode[i]])
        out_s.append(segs[scode[i]])
        out_c.append(int(cnt[i]))
        out_r.append(int(rev[i]))
    for ncu in np.unique(ncode):
        m = ncode == ncu
        out_n.append(names[ncu])
        out_s.append("ALL")
        out_c.append(int(cnt[m].sum()))
        out_r.append(int(rev[m].sum()))
    out_n.append("ALL")
    out_s.append("ALL")
    out_c.append(int(cnt.sum()))
    out_r.append(int(rev.sum()))

    t = pa.table({
        "n_name": pa.array(out_n, type=pa.string()),
        "c_mktsegment": pa.array(out_s, type=pa.string()),
        "n_orders": pa.array(out_c, type=pa.int64()),
        "revenue_c": pa.array(out_r, type=pa.int64()),
    })
    return rd.from_arrow(t).sort(["n_name", "c_mktsegment"])


REVENUE_ROLLUP_SQL = """
    select coalesce(n.n_name, 'ALL') as n_name,
           coalesce(c.c_mktsegment, 'ALL') as c_mktsegment,
           count(*)::BIGINT as n_orders,
           sum(cast(round(o.o_totalprice * 100) as bigint))::BIGINT
               as revenue_c
    from orders o
    join customer c on c.c_custkey = o.o_custkey
    join nation n on n.n_nationkey = c.c_nationkey
    group by rollup(n.n_name, c.c_mktsegment)"""


# TPC-H Q13 shape: orders-per-customer distribution constants. The
# filter is chosen so a meaningful share of customers match NO order —
# the zero bucket is what makes this a genuine LEFT OUTER join, not an
# inner join + count.
Q13_PRIORITY = "1-URGENT"
Q13_MIN_TOTAL = 200_000.0


def order_count_distribution(sf_dir: str,
                             priority: str = Q13_PRIORITY,
                             min_total: float = Q13_MIN_TOTAL,
                             num_parts: int | None = None) -> Dataset:
    """TPC-H Q13 shape — (c_count, custdist): how many customers placed
    exactly ``c_count`` qualifying orders, INCLUDING the zero bucket.

    Ray Data has no outer join; the left-outer semantics ride the same
    coarse custkey union-shuffle as the anti-join
    (:func:`customers_without_big_orders`): customer rows and filtered
    order rows land in the same partition, a vectorized searchsorted
    count per partition assigns every customer its order count (zero
    when no order row exists — the null-extension), and per-partition
    COUNT partials of each c_count value merge through one tiny
    ``groupby`` (shuffle is O(parts × distinct counts), never O(rows)).
    Reference analog: the df-histogram family (SURVEY.md §2.5 G2) over a
    relational key instead of a term.
    """
    from .partitioning import auto_num_parts

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey"])
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderpriority", "o_totalprice"])
    if num_parts is None:
        num_parts = auto_num_parts(orders.count() + cust.count())

    def cust_rows(batch: pa.Table) -> pa.Table:
        return pa.table({
            "key": batch["c_custkey"].cast(pa.int64()),
            "is_cust": pa.array(np.ones(batch.num_rows, dtype=np.int8)),
        })

    def order_rows(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.and_(
            pc.equal(batch["o_orderpriority"], priority),
            pc.greater(batch["o_totalprice"], min_total)))
        return pa.table({
            "key": batch["o_custkey"].cast(pa.int64()),
            "is_cust": pa.array(np.zeros(batch.num_rows, dtype=np.int8)),
        })

    def add_part(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "part", pc.cast(pc.bit_wise_and(batch["key"], num_parts - 1),
                            pa.int32()))

    def count_partial(group: pa.Table) -> pa.Table:
        key = group["key"].to_numpy(zero_copy_only=False)
        is_cust = group["is_cust"].to_numpy(
            zero_copy_only=False).astype(bool)
        ckeys = np.unique(key[is_cust])
        okeys = np.sort(key[~is_cust])
        # orders whose custkey has no customer row would be dangling FK
        # rows; Q13's LEFT JOIN ignores them, and searchsorted counting
        # does too (counts are only read at customer positions)
        per_cust = (np.searchsorted(okeys, ckeys, side="right")
                    - np.searchsorted(okeys, ckeys, side="left"))
        counts, freq = np.unique(per_cust, return_counts=True)
        return pa.table({
            "c_count": pa.array(counts.astype(np.int64)),
            "custdist": pa.array(freq.astype(np.int64)),
        })

    stream = (cust.map_batches(cust_rows, batch_format="pyarrow")
              .union(orders.map_batches(order_rows,
                                        batch_format="pyarrow")))
    return (stream.map_batches(add_part, batch_format="pyarrow")
            .groupby("part").map_groups(count_partial,
                                        batch_format="pyarrow")
            .groupby("c_count")
            .aggregate(Sum("custdist", alias_name="custdist")))


CUSTDIST_SQL = f"""
    select c_count, count(*)::BIGINT as custdist from (
      select c.c_custkey, count(o.o_orderkey)::BIGINT as c_count
      from customer c left join orders o
        on o.o_custkey = c.c_custkey
       and o.o_orderpriority = '{Q13_PRIORITY}'
       and o.o_totalprice > {Q13_MIN_TOTAL}
      group by c.c_custkey)
    group by c_count"""


def orders_skyline(sf_dir: str) -> Dataset:
    """Pareto frontier (skyline) of orders — maximize ``o_totalprice``,
    minimize ``o_orderdate``: orders for which no other order is at
    least as expensive AND at least as early with one strict. Exact
    (p, d) duplicates do not dominate each other, so both survive.

    The skyline operator is distributive: the skyline of a union equals
    the skyline of the union of per-block skylines (a global dominator
    that was itself pruned locally is dominated by one of its block's
    survivors, and dominance is transitive). So each batch runs one
    vectorized two-sweep local skyline (sort by price desc / date asc,
    prefix-min of date over strictly-higher-price groups + first-date
    within the equal-price group), and only the survivors — typically a
    vanishing fraction of rows, and never more than the true frontier
    per block — are gathered for one final identical pass. No value
    arithmetic at all, so the float price column crosses the oracle
    boundary verbatim.

    Skew/scale note: the final pass is one task over the union of local
    skylines. For heavily anti-correlated dimensions (frontier ~ O(n))
    the output itself is that big, and a tree of pairwise skyline
    merges replaces the single final task; with correlated or
    independent dims (this data) the union is tiny.
    """
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_totalprice", "o_orderdate"])

    def local_skyline(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        p = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        d = batch["o_orderdate"].cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        okey = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        order = np.lexsort((okey, d, -p))
        ps, ds = p[order], d[order]
        n = len(ps)
        newgrp = np.ones(n, dtype=bool)
        newgrp[1:] = ps[1:] != ps[:-1]
        grp = np.cumsum(newgrp) - 1
        grp_first = np.flatnonzero(newgrp)
        prefmin = np.minimum.accumulate(ds)
        # min date among all STRICTLY more expensive rows (prev groups)
        first_idx = grp_first[grp]
        prev_min = np.where(first_idx > 0,
                            prefmin[np.maximum(first_idx - 1, 0)],
                            np.iinfo(np.int64).max)
        dom_price = prev_min <= ds       # pricier and not later
        dom_date = ds > ds[first_idx]    # same price, strictly earlier twin
        keep = order[~(dom_price | dom_date)]
        keep.sort()  # stable row order within the block
        return batch.take(pa.array(keep))

    candidates = orders.map_batches(local_skyline, batch_format="pyarrow")
    # final pass: one task over the (small) union of local skylines
    return candidates.repartition(1).map_batches(
        local_skyline, batch_format="pyarrow",
        batch_size=None).sort("o_orderkey")


SKYLINE_SQL = """
    select o_orderkey, o_totalprice, o_orderdate from orders a
    where not exists (
      select 1 from orders b
      where b.o_totalprice >= a.o_totalprice
        and b.o_orderdate <= a.o_orderdate
        and (b.o_totalprice > a.o_totalprice
             or b.o_orderdate < a.o_orderdate))"""


# TPC-H Q18 shape: large-volume orders threshold (quantity cents)
Q18_MIN_QTY_C = 15_000


def big_volume_orders(sf_dir: str, min_qty_c: int = Q18_MIN_QTY_C,
                      num_parts: int | None = None) -> Dataset:
    """TPC-H Q18 shape — orders whose total lineitem quantity exceeds
    the threshold, with the order row joined back: (o_orderkey,
    o_custkey, total_c, sum_qty_c). The aggregate-then-join-back-on-
    the-same-key pattern costs ONE co-partition here: orders and
    lineitems ride the same coarse orderkey union-shuffle (the Q3
    layout), so the per-orderkey quantity sum, the HAVING filter and
    the join to the order's own columns are all one vectorized
    partition scan — the aggregate never shuffles separately from the
    join. Quantities/prices as exact integer cents."""
    from .partitioning import auto_num_parts

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"])
    items = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                            columns=["l_orderkey", "l_quantity"])
    if num_parts is None:
        num_parts = auto_num_parts(orders.count() + items.count())

    def order_rows(batch: pa.Table) -> pa.Table:
        return pa.table({
            "key": batch["o_orderkey"].cast(pa.int64()),
            "custkey": batch["o_custkey"].cast(pa.int64()),
            "cents": pa.array(_half_away_cents(
                batch["o_totalprice"].to_numpy(zero_copy_only=False))),
            "is_order": pa.array(np.ones(batch.num_rows, dtype=np.int8)),
        })

    def item_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "key": batch["l_orderkey"].cast(pa.int64()),
            "custkey": pa.array(np.zeros(n, dtype=np.int64)),
            "cents": pa.array(_half_away_cents(
                batch["l_quantity"].to_numpy(zero_copy_only=False))),
            "is_order": pa.array(np.zeros(n, dtype=np.int8)),
        })

    def add_part(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "part", pc.cast(pc.bit_wise_and(batch["key"], num_parts - 1),
                            pa.int32()))

    def agg_join(group: pa.Table) -> pa.Table:
        key = group["key"].to_numpy(zero_copy_only=False)
        cents = group["cents"].to_numpy(zero_copy_only=False)
        custkey = group["custkey"].to_numpy(zero_copy_only=False)
        is_order = group["is_order"].to_numpy(
            zero_copy_only=False).astype(bool)
        okeys = key[is_order]
        # per-order quantity sums via sorted-searchsorted segment adds
        ikey = key[~is_order]
        iqty = cents[~is_order]
        order = np.argsort(ikey, kind="stable")
        ikey, iqty = ikey[order], iqty[order]
        pos = np.searchsorted(ikey, okeys, side="left")
        end = np.searchsorted(ikey, okeys, side="right")
        csum = np.concatenate(([0], np.cumsum(iqty)))
        qty = csum[end] - csum[pos]  # 0 for lineitem-less orders
        keep = qty > min_qty_c
        return pa.table({
            "o_orderkey": pa.array(okeys[keep], type=pa.int64()),
            "o_custkey": pa.array(custkey[is_order][keep],
                                  type=pa.int64()),
            "total_c": pa.array(cents[is_order][keep], type=pa.int64()),
            "sum_qty_c": pa.array(qty[keep], type=pa.int64()),
        })

    stream = (orders.map_batches(order_rows, batch_format="pyarrow")
              .union(items.map_batches(item_rows,
                                       batch_format="pyarrow")))
    return (stream.map_batches(add_part, batch_format="pyarrow")
            .groupby("part").map_groups(agg_join,
                                        batch_format="pyarrow"))


BIG_VOLUME_SQL = f"""
    select o.o_orderkey, o.o_custkey,
           cast(round(o.o_totalprice * 100) as bigint) as total_c,
           sum(cast(round(l.l_quantity * 100) as bigint))::BIGINT
               as sum_qty_c
    from orders o join lineitem l on l.l_orderkey = o.o_orderkey
    group by 1, 2, 3
    having sum(cast(round(l.l_quantity * 100) as bigint))
               > {Q18_MIN_QTY_C}"""
