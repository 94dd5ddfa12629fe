"""grouped_aggregate_fast: the vectorized one-move group reduction that
replaces groupby().map_groups at the per-key call-sites."""

import pyarrow as pa
import pytest

import ray.data as rd

from shaclex_ray.stages.groupagg import grouped_aggregate_fast


def _sorted_rows(ds):
    return sorted(ds.take_all(), key=lambda r: tuple(sorted(r.items())))


def test_min_count(ray_session):
    tbl = pa.table(
        {
            "k": ["a", "b", "a", "c", "b", "a"],
            "v": [5, 2, 3, 9, 1, 7],
        }
    )
    out = grouped_aggregate_fast(
        rd.from_arrow(tbl), ["k"], [("v", "min"), ("v", "count")], ["mn", "n"]
    )
    rows = {r["k"]: (r["mn"], r["n"]) for r in out.take_all()}
    assert rows == {"a": (3, 3), "b": (1, 2), "c": (9, 1)}


def test_matches_duckdb_on_random(ray_session):
    import duckdb
    import numpy as np

    rng = np.random.default_rng(7)
    n = 50_000
    tbl = pa.table(
        {
            "k": pa.array([f"k{v}" for v in rng.integers(0, 997, n)]),
            "v": pa.array(rng.integers(-1000, 1000, n), pa.int64()),
        }
    )
    out = grouped_aggregate_fast(
        rd.from_arrow(tbl),
        ["k"],
        [("v", "min"), ("v", "max"), ("v", "sum"), ("v", "count")],
        ["mn", "mx", "sm", "n"],
        nbuckets=4,
    )
    got = out.to_pandas().sort_values("k", ignore_index=True)
    want = duckdb.sql(
        "SELECT k, min(v) mn, max(v) mx, sum(v)::BIGINT sm, count(v) n "
        "FROM tbl GROUP BY k ORDER BY k"
    ).df()
    assert got[["k", "mn", "mx", "sm", "n"]].equals(want)


def test_count_distinct(ray_session):
    import duckdb
    import numpy as np

    rng = np.random.default_rng(11)
    n = 20_000
    tbl = pa.table(
        {
            "k": pa.array([f"k{v}" for v in rng.integers(0, 200, n)]),
            "e": pa.array([f"e{v}" for v in rng.integers(0, 50, n)]),
        }
    )
    out = grouped_aggregate_fast(
        rd.from_arrow(tbl), ["k"], [("e", "count_distinct")], ["nd"], nbuckets=3
    )
    got = out.to_pandas().sort_values("k", ignore_index=True)
    want = duckdb.sql(
        "SELECT k, count(DISTINCT e) nd FROM tbl GROUP BY k ORDER BY k"
    ).df()
    assert got[["k", "nd"]].equals(want)


def test_count_distinct_must_be_sole(ray_session):
    tbl = pa.table({"k": ["a"], "v": [1], "e": ["x"]})
    with pytest.raises(ValueError):
        grouped_aggregate_fast(
            rd.from_arrow(tbl),
            ["k"],
            [("v", "min"), ("e", "count_distinct")],
            ["mn", "nd"],
        )


def test_empty_input(ray_session):
    tbl = pa.table({"k": pa.array([], pa.string()), "v": pa.array([], pa.int64())})
    out = grouped_aggregate_fast(
        rd.from_arrow(tbl), ["k"], [("v", "min")], ["mn"]
    )
    assert out.count() == 0


def test_grouped_topk_empty_input(ray_session):
    """Empty input must short-circuit to an empty, correctly-shaped
    result (zero block refs previously crashed the split kernel)."""
    from shaclex_ray.stages.groupagg import grouped_topk

    tbl = pa.table(
        {
            "q": pa.array([], pa.int64()),
            "score": pa.array([], pa.float64()),
            "vid": pa.array([], pa.int64()),
        }
    )
    out = grouped_topk(
        rd.from_arrow(tbl),
        "q",
        [("score", "descending")],
        3,
        rank_name="rank",
        keep_cols=["q", "vid", "rank"],
    )
    assert out.count() == 0
    assert out.schema().names == ["q", "vid", "rank"]


def test_top_orders_degenerate_segment(ray_session):
    """A market segment matching no customers must return an empty
    result, not crash the searchsorted probe / empty concat."""
    from shaclex_ray.functions.relational import top_orders

    out = top_orders("/root/testdata/sf0.001", segment="NO_SUCH_SEGMENT")
    assert out.num_rows == 0


def test_grouped_topk_matches_scalar_reference(ray_session):
    """grouped_topk vs a per-key python sort over random tables, across
    bucket counts (exchange widths)."""
    import numpy as np
    import pyarrow as pa

    import ray.data as rd

    from shaclex_ray.stages.groupagg import grouped_topk

    rng = np.random.default_rng(7)
    n = 5000
    tbl = pa.table(
        {
            "q": pa.array(rng.integers(0, 40, n), pa.int64()),
            "score": pa.array(rng.integers(0, 15, n).astype(np.float64)),
            "vid": pa.array(rng.permutation(n).astype(np.int64)),
        }
    )
    k = 4
    exp = {}
    rows = list(zip(*[tbl.column(c).to_pylist() for c in ("q", "score", "vid")]))
    by_q = {}
    for q, s, v in rows:
        by_q.setdefault(q, []).append((-s, v))
    for q, lst in by_q.items():
        lst.sort()
        exp[q] = [(v, i + 1) for i, (_, v) in enumerate(lst[:k])]

    for nb in (1, 3, 8):
        out = grouped_topk(
            rd.from_arrow(tbl).repartition(6),
            "q",
            [("score", "descending"), ("vid", "ascending")],
            k,
            rank_name="rank",
            keep_cols=["q", "vid", "rank"],
            nbuckets=nb,
        ).take_all()
        got = {}
        for r in out:
            got.setdefault(r["q"], []).append((r["rank"], r["vid"]))
        assert set(got) == set(exp)
        for q in exp:
            assert sorted(got[q]) == [(rk, v) for v, rk in exp[q]], (nb, q)


# --------------------------------------------------------------- round-5
# self-review regressions: exchange-core edge cases found by the final
# code audit (null identities, unsigned/extreme-int descending sorts,
# null group keys, degenerate zero-column split groups)


def test_grouped_topk_descending_uint64_and_int64_min(ray_session):
    """Negate-for-descending silently broke unsigned sorts (0 sorted as
    the max) and INT64_MIN (negation wraps onto itself); the bitwise-NOT
    reversal is exact for every integer value."""
    from shaclex_ray.stages.groupagg import grouped_topk

    tbl = pa.table(
        {
            "k": ["a", "a", "a"],
            "v": pa.array([0, 5, 1], pa.uint64()),
        }
    )
    out = grouped_topk(rd.from_arrow(tbl), "k", [("v", "descending")], 2)
    assert sorted(r["v"] for r in out.take_all()) == [1, 5]

    lo = -(2**63)
    tbl2 = pa.table({"k": ["a", "a"], "v": pa.array([lo, 3], pa.int64())})
    out2 = grouped_topk(rd.from_arrow(tbl2), "k", [("v", "descending")], 1)
    assert [r["v"] for r in out2.take_all()] == [3]


def test_grouped_topk_null_keys_group_together(ray_session):
    """Null keys form ONE group (SQL GROUP BY), not one group per row."""
    from shaclex_ray.stages.groupagg import grouped_topk

    tbl = pa.table(
        {
            "k": pa.array(["a", None, None, None], pa.string()),
            "v": pa.array([1.0, 3.0, 2.0, 9.0], pa.float64()),
        }
    )
    out = grouped_topk(
        rd.from_arrow(tbl), "k", [("v", "descending")], 1, rank_name="rank"
    )
    rows = out.take_all()
    assert len(rows) == 2  # one winner for 'a', one for the null group
    null_rows = [r for r in rows if r["k"] is None]
    assert len(null_rows) == 1 and null_rows[0]["v"] == 9.0


def test_split_impls_survive_zero_column_empty_blocks():
    """A strided split group of ONLY degenerate zero-column blocks must
    emit a correctly-typed empty partial (the driver passes the dataset
    schema as the authority)."""
    from shaclex_ray.stages.dedup import _distinct_split_impl
    from shaclex_ray.stages.exchange import run_split
    from shaclex_ray.stages.groupagg import (
        _split_distinct_impl,
        _split_impl,
        _split_topk_impl,
    )

    schema = pa.schema([("k", pa.string()), ("v", pa.int64())])
    deg = pa.table({})  # what an upstream map_groups can emit for 0 rows

    parts = run_split(_split_impl, (["k"], [("v", "sum")]), 2, schema, None, deg, deg)
    assert all(p.num_rows == 0 for p in parts)
    assert parts[0].column_names == ["k", "v_sum"]

    parts = run_split(_split_distinct_impl, (["k"], "v"), 2, schema, None, deg)
    assert all(p.schema == schema for p in parts)

    parts = run_split(
        _split_topk_impl, ("k", [("v", "descending")], 3), 2, schema, None, deg
    )
    assert all(p.schema == schema for p in parts)

    parts = run_split(
        _distinct_split_impl, (["k", "v"], None, None), 2, schema, None, deg
    )
    assert all(p.schema == schema for p in parts)


def test_count_distinct_mixed_aggs_raises_even_on_empty(ray_session):
    """The sole-aggregation contract must not depend on the input being
    non-empty."""
    empty = pa.schema([("k", pa.string()), ("x", pa.int64()), ("y", pa.int64())])
    ds = rd.from_arrow(empty.empty_table())
    with pytest.raises(ValueError):
        grouped_aggregate_fast(
            ds, ["k"], [("x", "count_distinct"), ("y", "sum")], ["nx", "sy"]
        )
