"""Relational analytics over the TPC-H-shaped tables (region nation
customer supplier part orders lineitem) — the general star-schema query
surface next to the KG and training-data operators:

  * ``pricing_summary``   (Q1-shaped): filtered scan → tiny-key aggregate.
  * ``top_orders``        (Q3-shaped): broadcast dim semi-join +
                          fact-side PRE-aggregation before the join
                          + exact partial top-k (no global sort).
  * ``regional_volume``   (Q5-shaped): star join as ONE streamed pass over
                          the fact table — genuinely small dims
                          (region/nation/supplier/customer) broadcast via
                          ray.put, the orders⋈lineitem edge through
                          ``exchange.join`` (both sides grow with the
                          corpus).

Money arithmetic is integer end-to-end: cents = floor(price*100 + 0.5)
(identical float→int semantics in numpy and DuckDB — numpy's round()
half-to-even would NOT match SQL round's half-away-from-zero, floor+0.5
sidesteps both), discount percent likewise, revenue in 1e-4 dollar units
= cents × (100 − disc_pct). Every aggregate is a BIGINT sum, so results
hash-compare exactly against the SQL twins regardless of summation order.

The reference has no relational surface (weso/shaclex validates RDF);
this family exists because the engine's Dataset machinery (pruned scans,
broadcast small sides, hash joins, grouped exchanges) already is a
general query engine and should be exercised as one.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from shaclex_ray.stages import exchange
from shaclex_ray.stages.groupagg import grouped_aggregate_fast


def _cents(col) -> np.ndarray:
    # a NULL money measure reads 0 (the engine-wide null-numeric policy;
    # the twins coalesce identically, so SQL's sum-skips-null and our
    # add-zero agree row for row)
    x = pc.fill_null(col, 0.0).to_numpy(zero_copy_only=False)
    return np.floor(x * 100.0 + 0.5).astype(np.int64)


# the null-key sentinel: int64 min, a key no real row carries (a genuine
# -1 key is legal data and must still join its partner)
NULL_KEY = np.iinfo(np.int64).min


def _i64(col, fill: int = NULL_KEY) -> np.ndarray:
    """Null-deterministic int64 view of an Arrow (chunked) array: nulls
    become ``fill`` (dropped from every build side, so a filled key joins
    nothing — SQL null-key semantics) instead of riding the
    platform-defined NaN→int cast that ``to_numpy().astype`` would do."""
    # widen first: int64 min does not fit a narrower key column's type
    col = pc.cast(col, pa.int64())
    return pc.fill_null(col, fill).to_numpy(zero_copy_only=False)


def _sorted_probe(ks: np.ndarray, key: np.ndarray):
    """Vectorized membership probe against a sorted key array, robust to
    a DEGENERATE empty small side (e.g. a segment matching no customers):
    returns (idx, hit) with hit all-False when ``ks`` is empty instead of
    the bare searchsorted pattern's IndexError."""
    if len(ks) == 0:
        return np.zeros(len(key), np.int64), np.zeros(len(key), bool)
    idx = np.searchsorted(ks, key)
    idx[idx == len(ks)] = 0
    return idx, ks[idx] == key


_CENTS_SQL = "CAST(floor(coalesce({col}, 0.0) * 100 + 0.5) AS BIGINT)"


# ------------------------------------------------------------- Q1-shaped
def pricing_summary(sf_dir: str, cutoff: str = "1999-12-31"):
    """Pricing summary by (l_returnflag, l_linestatus) over lineitem rows
    shipped on/before ``cutoff``: quantity / base-price / discounted-price
    sums plus the row count. One pruned scan, per-batch partial group_by
    over the ≤6-key space, then a 6-row grouped exchange."""
    cut = np.datetime64(cutoff)

    def partial(batch: pa.Table) -> pa.Table:
        ship = batch.column("l_shipdate").to_numpy(zero_copy_only=False)
        batch = batch.filter(pa.array(ship <= cut))
        if batch.num_rows == 0:
            return pa.schema(
                [
                    ("l_returnflag", pa.string()),
                    ("l_linestatus", pa.string()),
                    ("sum_qty", pa.int64()),
                    ("sum_base_cents", pa.int64()),
                    ("sum_disc_e4", pa.int64()),
                    ("count_order", pa.int64()),
                ]
            ).empty_table()
        qty = np.floor(
            pc.fill_null(batch.column("l_quantity"), 0.0).to_numpy(
                zero_copy_only=False
            )
            + 0.5
        ).astype(np.int64)
        cents = _cents(batch.column("l_extendedprice"))
        disc = _cents(batch.column("l_discount"))
        t = pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "sum_qty": pa.array(qty, pa.int64()),
                "sum_base_cents": pa.array(cents, pa.int64()),
                "sum_disc_e4": pa.array(cents * (100 - disc), pa.int64()),
                "count_order": pa.array(np.ones(len(qty), np.int64)),
            }
        )
        agg = t.group_by(
            ["l_returnflag", "l_linestatus"], use_threads=False
        ).aggregate(
            [
                ("sum_qty", "sum"),
                ("sum_base_cents", "sum"),
                ("sum_disc_e4", "sum"),
                ("count_order", "sum"),
            ]
        )
        return agg.rename_columns(
            [
                "l_returnflag",
                "l_linestatus",
                "sum_qty",
                "sum_base_cents",
                "sum_disc_e4",
                "count_order",
            ]
        )

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
    )
    partials = ds.map_batches(partial, batch_format="pyarrow")
    return grouped_aggregate_fast(
        partials,
        ["l_returnflag", "l_linestatus"],
        [
            ("sum_qty", "sum"),
            ("sum_base_cents", "sum"),
            ("sum_disc_e4", "sum"),
            ("count_order", "sum"),
        ],
        ["sum_qty", "sum_base_cents", "sum_disc_e4", "count_order"],
    )


def pricing_summary_sql(cutoff: str = "1999-12-31") -> str:
    c = _CENTS_SQL
    return f"""
    SELECT l_returnflag, l_linestatus,
           CAST(sum(CAST(floor(coalesce(l_quantity, 0.0) + 0.5) AS BIGINT)) AS BIGINT) AS sum_qty,
           CAST(sum({c.format(col='l_extendedprice')}) AS BIGINT) AS sum_base_cents,
           CAST(sum({c.format(col='l_extendedprice')}
                    * (100 - {c.format(col='l_discount')})) AS BIGINT) AS sum_disc_e4,
           CAST(count(*) AS BIGINT) AS count_order
    FROM lineitem
    WHERE l_shipdate <= TIMESTAMP '{cutoff} 00:00:00'
    GROUP BY l_returnflag, l_linestatus
    """


# ------------------------------------------------------------- Q3-shaped
def top_orders(
    sf_dir: str, segment: str = "BUILDING", date: str = "1998-01-01", k: int = 10
):
    """Top-k unshipped orders by discounted revenue for one market segment
    (customers in ``segment``, orders placed before ``date``, lineitems
    shipped after it).

    Scale shape: customer is the genuinely small dim — its key set
    broadcasts once; lineitem PRE-aggregates revenue per orderkey before
    the join (the fact table's exchange moves |orders| partials, never
    line items); orders⋈revenue goes through ``exchange.join`` (both
    sides scale with the corpus); top-k is exact per-block partial top-k merged on
    the driver — k rows per block, no global sort."""
    import pyarrow.parquet as pq

    d = np.datetime64(date)
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    keys = _i64(
        cust.filter(pc.equal(cust.column("c_mktsegment"), segment)).column(
            "c_custkey"
        )
    )
    # a null c_custkey joins nothing: drop its sentinel from the build
    # side so a filled probe key can never accidentally match it
    keys_ref = ray.put(np.sort(keys[keys != NULL_KEY]))

    def rev_partial(batch: pa.Table) -> pa.Table:
        ship = batch.column("l_shipdate").to_numpy(zero_copy_only=False)
        batch = batch.filter(pa.array(ship > d))
        cents = _cents(batch.column("l_extendedprice"))
        disc = _cents(batch.column("l_discount"))
        t = pa.table(
            {
                "l_orderkey": batch.column("l_orderkey"),
                "revenue_e4": pa.array(cents * (100 - disc), pa.int64()),
            }
        )
        return t.group_by("l_orderkey", use_threads=False).aggregate(
            [("revenue_e4", "sum")]
        ).rename_columns(["l_orderkey", "revenue_e4"])

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    revenue = grouped_aggregate_fast(
        li.map_batches(rev_partial, batch_format="pyarrow"),
        ["l_orderkey"],
        [("revenue_e4", "sum")],
        ["revenue_e4"],
    )

    def ord_filter(batch: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        od = batch.column("o_orderdate").to_numpy(zero_copy_only=False)
        ck = _i64(batch.column("o_custkey"))
        _, in_seg = _sorted_probe(ks, ck)
        hit = in_seg & (od < d)
        batch = batch.filter(pa.array(hit))
        return pa.table(
            {
                "l_orderkey": batch.column("o_orderkey"),
                "o_orderdate": pc.strftime(
                    batch.column("o_orderdate"), format="%Y-%m-%d"
                ),
            }
        )

    ords = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(ord_filter, batch_format="pyarrow")

    joined = exchange.join(revenue, ords, ["l_orderkey"])

    schema = pa.schema(
        [
            ("l_orderkey", pa.int64()),
            ("o_orderdate", pa.string()),
            ("revenue_e4", pa.int64()),
        ]
    )

    def block_topk(batch: pa.Table) -> pa.Table:
        rev = batch.column("revenue_e4").to_numpy(zero_copy_only=False)
        okey = batch.column("l_orderkey").to_numpy(zero_copy_only=False)
        order = np.lexsort((okey, -rev))[:k]
        return pa.table(
            {
                "l_orderkey": pa.array(
                    okey[order].astype(np.int64), pa.int64()
                ),
                "o_orderdate": pc.take(
                    batch.column("o_orderdate"), pa.array(order)
                ),
                "revenue_e4": pa.array(
                    rev[order].astype(np.int64), pa.int64()
                ),
            }
        )

    # orderkeys are globally unique after the grouped join, so per-block
    # top-k merged once on the driver IS the exact global top-k
    parts = [
        t
        for t in ray.get(
            joined.map_batches(block_topk, batch_format="pyarrow")
            .materialize()
            .to_arrow_refs()
        )
        if t.num_rows
    ]
    merged = pa.concat_tables(parts) if parts else schema.empty_table()
    rev = merged.column("revenue_e4").to_numpy(zero_copy_only=False)
    okey = merged.column("l_orderkey").to_numpy(zero_copy_only=False)
    order = np.lexsort((okey, -rev))[:k]
    return merged.take(pa.array(order))


def top_orders_sql(
    segment: str = "BUILDING", date: str = "1998-01-01", k: int = 10
) -> str:
    c = _CENTS_SQL
    return f"""
    WITH rev AS (
      SELECT l_orderkey,
             CAST(sum({c.format(col='l_extendedprice')}
                      * (100 - {c.format(col='l_discount')})) AS BIGINT)
               AS revenue_e4
      FROM lineitem
      WHERE l_shipdate > TIMESTAMP '{date} 00:00:00'
      GROUP BY l_orderkey
    )
    SELECT o.o_orderkey AS l_orderkey,
           strftime(o.o_orderdate, '%Y-%m-%d') AS o_orderdate,
           r.revenue_e4
    FROM rev r
    JOIN orders o ON o.o_orderkey = r.l_orderkey
    JOIN customer c ON c.c_custkey = o.o_custkey
    WHERE c.c_mktsegment = '{segment}'
      AND o.o_orderdate < TIMESTAMP '{date} 00:00:00'
    ORDER BY r.revenue_e4 DESC, o.o_orderkey
    LIMIT {k}
    """


# ------------------------------------------------------------- Q5-shaped
def regional_volume(
    sf_dir: str,
    region: str = "ASIA",
    date_lo: str = "1996-01-01",
    date_hi: str = "1997-01-01",
):
    """Revenue by nation for orders whose customer AND supplier share a
    nation inside ``region`` (the local-supplier-volume star query).

    Scale shape: region/nation/supplier/customer are bounded dims —
    lookup arrays broadcast once via ray.put; orders⋈lineitem (the two
    corpus-sized tables) is the single join (``exchange.join``); the supplier and
    customer-nation probes happen batch-local inside the streamed pass,
    and revenue pre-aggregates per nation inside each batch so the final
    exchange moves |nations| rows."""
    import pyarrow.parquet as pq

    lo, hi = np.datetime64(date_lo), np.datetime64(date_hi)
    reg = pq.read_table(f"{sf_dir}/region.parquet")
    rkey = _i64(
        reg.filter(pc.equal(reg.column("r_name"), region)).column("r_regionkey")
    )
    rkey = rkey[rkey != NULL_KEY]  # a null r_regionkey region matches no nation
    nat = pq.read_table(f"{sf_dir}/nation.parquet")
    in_reg = np.isin(_i64(nat.column("n_regionkey")), rkey)
    nkeys = _i64(nat.column("n_nationkey"))
    nname = np.asarray(nat.column("n_name").to_pylist(), dtype=object)
    # the direct-indexed lookups have no slot for a negative key (the null
    # sentinel included); the probes' ``known`` guard misses those too
    valid_n = nkeys >= 0
    nkeys, in_reg, nname = nkeys[valid_n], in_reg[valid_n], nname[valid_n]
    # dense nationkeys -> direct-indexed lookup tables (empty nation table
    # → 1-slot all-false lookups: every probe misses, the answer is empty)
    nmax = int(nkeys.max()) + 1 if len(nkeys) else 1
    nat_ok = np.zeros(nmax, bool)
    nat_ok[nkeys] = in_reg
    name_of = np.empty(nmax, object)
    name_of[nkeys] = nname
    sup = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    skeys = _i64(sup.column("s_suppkey"))
    snat = _i64(sup.column("s_nationkey"))
    valid_s = skeys != NULL_KEY  # null s_suppkey suppliers join nothing
    skeys, snat = skeys[valid_s], snat[valid_s]
    sorder = np.argsort(skeys)
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    ckeys = _i64(cust.column("c_custkey"))
    cnat = _i64(cust.column("c_nationkey"))
    valid_c = ckeys != NULL_KEY  # null c_custkey customers join nothing
    ckeys, cnat = ckeys[valid_c], cnat[valid_c]
    corder = np.argsort(ckeys)
    dims_ref = ray.put(
        (nat_ok, name_of, skeys[sorder], snat[sorder], ckeys[corder], cnat[corder])
    )

    def ord_nation(batch: pa.Table) -> pa.Table:
        """orders → (orderkey, customer nation) for in-window orders whose
        customer's nation lies in the region."""
        nat_ok, _, _, _, cks, cns = ray.get(dims_ref)
        od = batch.column("o_orderdate").to_numpy(zero_copy_only=False)
        batch = batch.filter(pa.array((od >= lo) & (od < hi)))
        ck = _i64(batch.column("o_custkey"))
        idx, hitc = _sorted_probe(cks, ck)
        nation = cns[idx] if len(cks) else np.zeros(len(ck), np.int64)
        # a dangling c_nationkey (no matching nation row) must miss, not
        # index the lookup out of bounds
        known = (nation >= 0) & (nation < len(nat_ok))
        keep = hitc & known & nat_ok[np.clip(nation, 0, len(nat_ok) - 1)]
        batch = batch.filter(pa.array(keep))
        return pa.table(
            {
                "l_orderkey": batch.column("o_orderkey"),
                "c_nation": pa.array(nation[keep], pa.int64()),
            }
        )

    def li_partial(batch: pa.Table) -> pa.Table:
        """lineitem → per-(orderkey, supplier nation) revenue partials for
        in-region suppliers."""
        nat_ok, _, sks, sns, _, _ = ray.get(dims_ref)
        sk = _i64(batch.column("l_suppkey"))
        idx, hits = _sorted_probe(sks, sk)
        nation = sns[idx] if len(sks) else np.zeros(len(sk), np.int64)
        # dangling s_nationkey guard — see ord_nation
        known = (nation >= 0) & (nation < len(nat_ok))
        keep = hits & known & nat_ok[np.clip(nation, 0, len(nat_ok) - 1)]
        batch = batch.filter(pa.array(keep))
        cents = _cents(batch.column("l_extendedprice"))
        disc = _cents(batch.column("l_discount"))
        t = pa.table(
            {
                "l_orderkey": batch.column("l_orderkey"),
                "s_nation": pa.array(nation[keep], pa.int64()),
                "revenue_e4": pa.array(cents * (100 - disc), pa.int64()),
            }
        )
        return t.group_by(
            ["l_orderkey", "s_nation"], use_threads=False
        ).aggregate([("revenue_e4", "sum")]).rename_columns(
            ["l_orderkey", "s_nation", "revenue_e4"]
        )

    ords = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(ord_nation, batch_format="pyarrow")
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(li_partial, batch_format="pyarrow")

    joined = exchange.join(li, ords, ["l_orderkey"])

    def per_nation(batch: pa.Table) -> pa.Table:
        """corpus-sized stream: everything integer/vectorized — nation
        NAMES are attached only after the final |nations|-row reduce."""
        sn = batch.column("s_nation").to_numpy(zero_copy_only=False)
        cn = batch.column("c_nation").to_numpy(zero_copy_only=False)
        rev = batch.column("revenue_e4").to_numpy(zero_copy_only=False)
        same = sn == cn
        t = pa.table(
            {
                "s_nation": pa.array(sn[same].astype(np.int64), pa.int64()),
                "revenue_e4": pa.array(rev[same].astype(np.int64), pa.int64()),
            }
        )
        return t.group_by("s_nation", use_threads=False).aggregate(
            [("revenue_e4", "sum")]
        ).rename_columns(["s_nation", "revenue_e4"])

    partials = joined.map_batches(per_nation, batch_format="pyarrow")
    agg = grouped_aggregate_fast(
        partials, ["s_nation"], [("revenue_e4", "sum")], ["revenue_e4"]
    )
    # |nations| rows at most — materializing is free, and it closes the
    # all-filtered hole: Ray DROPS empty blocks, so a fully-empty agg
    # would never run name_rows and the result would lose its columns
    agg_m = agg.materialize()
    if agg_m.count() == 0:
        return rd.from_arrow(
            pa.schema(
                [("n_name", pa.string()), ("revenue_e4", pa.int64())]
            ).empty_table()
        )
    agg = agg_m

    def name_rows(batch: pa.Table) -> pa.Table:
        # |nations| rows at most — the only place names materialize
        sn = batch.column("s_nation").to_numpy(zero_copy_only=False).astype(int)
        return pa.table(
            {
                "n_name": pa.array(list(name_of[sn]), pa.string()),
                "revenue_e4": batch.column("revenue_e4"),
            }
        )

    return agg.map_batches(name_rows, batch_format="pyarrow")


def regional_volume_sql(
    region: str = "ASIA",
    date_lo: str = "1996-01-01",
    date_hi: str = "1997-01-01",
) -> str:
    c = _CENTS_SQL
    return f"""
    SELECT n.n_name,
           CAST(sum({c.format(col='l.l_extendedprice')}
                    * (100 - {c.format(col='l.l_discount')})) AS BIGINT)
             AS revenue_e4
    FROM lineitem l
    JOIN orders o ON o.o_orderkey = l.l_orderkey
    JOIN customer cu ON cu.c_custkey = o.o_custkey
    JOIN supplier s ON s.s_suppkey = l.l_suppkey
    JOIN nation n ON n.n_nationkey = s.s_nationkey
    JOIN region r ON r.r_regionkey = n.n_regionkey
    WHERE cu.c_nationkey = s.s_nationkey
      AND r.r_name = '{region}'
      AND o.o_orderdate >= TIMESTAMP '{date_lo} 00:00:00'
      AND o.o_orderdate < TIMESTAMP '{date_hi} 00:00:00'
    GROUP BY n.n_name
    """
