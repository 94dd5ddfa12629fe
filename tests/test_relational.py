"""Relational star-schema queries: the broadcast and partitioned placements
of ``exchange.join`` must produce identical rows (the oracle parity
itself is covered by test_oracle_parity.py)."""

import pytest

SF = "/root/testdata/sf0.001"


@pytest.mark.parametrize("fn_name", ["top_orders", "regional_volume"])
def test_rel_join_regimes_equal(ray_session, monkeypatch, fn_name):
    from shaclex_ray.functions import relational
    from shaclex_ray.stages import exchange

    fn = getattr(relational, fn_name)

    def rows(res):
        import pyarrow as pa

        import ray.data

        if isinstance(res, ray.data.Dataset):
            res = res.to_pandas()
        elif isinstance(res, pa.Table):
            res = res.to_pandas()
        return sorted(map(tuple, res[sorted(res.columns)].values.tolist()))

    bcast = rows(fn(SF))
    monkeypatch.setattr(exchange, "BCAST_BYTES", 0)
    joined = rows(fn(SF))
    assert bcast == joined
    assert len(bcast) > 0


@pytest.fixture()
def minus_one_keys(tmp_path):
    """A star schema where genuine -1 keys and null keys meet: customer
    2 places order -1, customer -1 places order 7, order 5 has a null
    customer, and lineitems carry order keys -1, NULL, 5 and 7."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    ts = lambda *d: pa.array(d).cast(pa.timestamp("us"))  # noqa: E731
    tables = {
        "region": pa.table({"r_regionkey": pa.array([0], pa.int32()),
                            "r_name": ["ASIA"]}),
        "nation": pa.table({"n_nationkey": pa.array([0], pa.int32()),
                            "n_name": ["CHINA"],
                            "n_regionkey": pa.array([0], pa.int32())}),
        "supplier": pa.table({"s_suppkey": pa.array([1], pa.int64()),
                              "s_name": ["s1"],
                              "s_nationkey": pa.array([0], pa.int32()),
                              "s_acctbal": [0.0]}),
        "customer": pa.table({"c_custkey": pa.array([-1, 2], pa.int64()),
                              "c_name": ["c-1", "c2"],
                              "c_nationkey": pa.array([0, 0], pa.int32()),
                              "c_acctbal": [0.0, 0.0],
                              "c_mktsegment": ["BUILDING", "BUILDING"]}),
        "orders": pa.table({"o_orderkey": pa.array([-1, 5, 7], pa.int64()),
                            "o_custkey": pa.array([2, None, -1], pa.int64()),
                            "o_orderstatus": ["O"] * 3,
                            "o_totalprice": [0.0] * 3,
                            "o_orderdate": ts(*["1996-06-01"] * 3),
                            "o_orderpriority": ["1"] * 3}),
        "lineitem": pa.table({"l_orderkey": pa.array([-1, None, 5, 7], pa.int64()),
                              "l_partkey": pa.array([1] * 4, pa.int64()),
                              "l_suppkey": pa.array([1] * 4, pa.int64()),
                              "l_linenumber": pa.array([1, 2, 3, 4], pa.int32()),
                              "l_quantity": [1.0] * 4,
                              "l_extendedprice": [100.0, 50.0, 30.0, 20.0],
                              "l_discount": [0.0] * 4,
                              "l_tax": [0.0] * 4,
                              "l_returnflag": ["N"] * 4,
                              "l_linestatus": ["O"] * 4,
                              "l_shipdate": ts(*["1998-06-01"] * 4)}),
    }
    for name, tbl in tables.items():
        pq.write_table(tbl, tmp_path / f"{name}.parquet")
    return str(tmp_path)


@pytest.mark.parametrize("fn_name", ["top_orders", "regional_volume"])
def test_minus_one_key_joins_and_null_key_does_not(ray_session, minus_one_keys, fn_name):
    """A genuine -1 key joins its partner and a null key joins nothing
    (SQL semantics): the rows match the DuckDB twin, whose revenue is
    lineitems -1 and 7 alone."""
    import duckdb

    from shaclex_ray.functions import relational
    from shaclex_ray.stages import exchange

    res = getattr(relational, fn_name)(minus_one_keys)
    got = res.to_pandas() if hasattr(res, "to_pandas") else res
    con = duckdb.connect()
    for t in ("region", "nation", "supplier", "customer", "orders", "lineitem"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{minus_one_keys}/{t}.parquet')"
        )
    exp = con.execute(getattr(relational, f"{fn_name}_sql")()).fetchdf()
    assert int(exp["revenue_e4"].sum()) == (100 + 20) * 100 * 100
    cols = sorted(exp.columns)
    assert sorted(got.columns) == cols
    assert got[cols].astype(str).values.tolist() == exp[cols].astype(str).values.tolist()
