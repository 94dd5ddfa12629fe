"""Randomized differential parity fuzz: generate poisoned variants of the
sf0.001 corpus (random null rates in every poisonable column, random
duplicate CONTENT, unicode/control-char/huge-token docs, degenerate
embeddings, dangling star-schema keys — all at random positions and
rates per seed) and run EVERY oracle-twinned queries() entry against its
DuckDB twin on each corpus. A generalization of tests/test_dirty_parity's
fixed corpus: the fixed corpus pins the policies; this sweeps the space
around them.

Usage:  python tools/fuzz_parity.py --seeds 5 [--base /root/testdata/sf0.001]

Deliberately never generated (documented contract boundaries):
  * duplicate PRIMARY KEYS — per-doc operators legitimately differ from
    SQL row semantics there (see BASELINE.md);
  * mutually-PARALLEL degenerate embeddings with arbitrary float
    components (two huge/tiny vectors sharing a direction tie only up
    to the summation order of their norms — the huge/tiny poisons below
    therefore get random directions; the single-instance constant-vector
    cases are pinned by the fixed dirty-parity corpus, and exact ties on
    parallel integer-valued vectors by tests/test_ann_ties.py)."""

from __future__ import annotations

import argparse
import glob
import os
import sys
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

WEIRD_TEXTS = [
    "héllo wörld \U0001f44b 你好 世界 \U0001f30d " * 20 + "é شكرا",
    ("lorem ipsum dolor sit amet " * 30) + ("x" * 500_000),
    "   ",
    "",
    "line1\nline2\ttab  double  space",
    "a\x00b\x01c control \x1f chars",
    "f600" * 100,
    "one-token",
]


def poison(base: str, out: str, rng: np.random.Generator) -> None:
    os.makedirs(out, exist_ok=True)
    for f in sorted(glob.glob(f"{base}/*.parquet")):
        t = pq.read_table(f)
        name = os.path.basename(f)
        n = t.num_rows
        if name == "documents.parquet" and n > 4:
            # extreme-but-unique doc ids (negative, 13-digit) at random rows
            ids = t.column("doc_id").to_pylist()
            taken = set(ids)
            for i in rng.choice(n, size=int(rng.integers(0, 5)), replace=False):
                cand = int(rng.integers(-(10**12), 10**13))
                while cand in taken:
                    cand += 1
                taken.discard(ids[int(i)])
                taken.add(cand)
                ids[int(i)] = cand
            t = t.set_column(
                t.schema.get_field_index("doc_id"),
                "doc_id",
                pa.array(ids, pa.int64()),
            )
            txt = t.column("text").to_pylist()
            # random weird texts
            for i in rng.choice(n, size=min(n, rng.integers(2, 12)), replace=False):
                txt[i] = WEIRD_TEXTS[rng.integers(len(WEIRD_TEXTS))]
            # random duplicate CONTENT across distinct ids
            for _ in range(int(rng.integers(0, 8))):
                a, b = rng.choice(n, size=2, replace=False)
                txt[a] = txt[b]
            cols = {"text": txt}
            for c in ("lang", "source"):
                v = t.column(c).to_pylist()
                cols[c] = v
            # random nulls in text/lang/source at a random rate
            for c, v in cols.items():
                rate = float(rng.uniform(0, 0.15))
                for i in np.nonzero(rng.random(n) < rate)[0]:
                    v[int(i)] = None
            for c, v in cols.items():
                t = t.set_column(
                    t.schema.get_field_index(c), c, pa.array(v, pa.string())
                )
        if name == "embeddings.parquet" and n > 6:
            emb = t.column("embedding").to_pylist()
            dim = next(len(e) for e in emb if e)
            k = int(rng.integers(1, 8))
            for i in rng.choice(n, size=k, replace=False):
                kind = rng.integers(5)
                if kind == 0:
                    emb[i] = [0.0] * dim
                elif kind == 1:  # huge magnitude, random direction
                    emb[i] = list(
                        (rng.normal(size=dim) * rng.uniform(1e28, 1e32)).astype(
                            np.float32
                        )
                    )
                elif kind == 2:  # tiny magnitude, random direction
                    emb[i] = list(
                        (rng.normal(size=dim) * 1e-30).astype(np.float32)
                    )
                elif kind == 3:
                    emb[i] = None
                else:
                    emb[i] = []
            lab = t.column("label").to_pylist()
            for i in rng.choice(n, size=int(rng.integers(0, 4)), replace=False):
                lab[i] = None
            t = t.set_column(
                t.schema.get_field_index("embedding"),
                "embedding",
                pa.array(emb, pa.list_(pa.float32())),
            )
            t = t.set_column(
                t.schema.get_field_index("label"),
                "label",
                pa.array(lab, t.schema.field("label").type),
            )
        star_nulls = {
            "orders.parquet": ["o_custkey", "o_totalprice", "o_orderdate"],
            "lineitem.parquet": [
                "l_orderkey", "l_quantity", "l_extendedprice", "l_discount",
                "l_returnflag", "l_linestatus", "l_shipdate", "l_suppkey",
            ],
            "customer.parquet": ["c_nationkey", "c_mktsegment", "c_custkey"],
            "supplier.parquet": ["s_nationkey", "s_suppkey"],
            "nation.parquet": ["n_regionkey", "n_name", "n_nationkey"],
            "region.parquet": ["r_regionkey", "r_name"],
        }
        for col in star_nulls.get(name, []):
            if col in t.column_names and n >= 3:
                v = t.column(col).to_pylist()
                rate = float(rng.uniform(0, 0.1))
                for i in np.nonzero(rng.random(n) < rate)[0]:
                    v[int(i)] = None
                t = t.set_column(
                    t.schema.get_field_index(col),
                    col,
                    pa.array(v, t.schema.field(col).type),
                )
        if name == "events.parquet" and n > 6:
            # extreme timestamps at random rows: centuries away from the
            # base range (exercises the as-of rank compression and the
            # window/hour arithmetic far outside the generator's band)
            k = int(rng.integers(0, 5))
            if k:
                ts = t.column("ts").cast(pa.int64()).to_pylist()
                year_us = 365 * 24 * 3600 * 1_000_000
                for i in rng.choice(n, size=k, replace=False):
                    if ts[int(i)] is None:
                        continue
                    # stay inside pandas' Timestamp range (1677–2262) so
                    # the COMPARISON infrastructure can hold the values;
                    # the engine itself is int64-µs clean (the kernel
                    # overflow test pins the truly wild ranges)
                    shift = int(rng.integers(-300, 230)) * year_us
                    ts[int(i)] += shift
                t = t.set_column(
                    t.schema.get_field_index("ts"),
                    "ts",
                    pa.array(ts, pa.int64()).cast(t.schema.field("ts").type),
                )
            for col in t.column_names:
                rate = float(rng.uniform(0, 0.1))
                hit = np.nonzero(rng.random(n) < rate)[0]
                if len(hit) == 0:
                    continue
                v = t.column(col).to_pylist()
                for i in hit:
                    v[int(i)] = None
                t = t.set_column(
                    t.schema.get_field_index(col),
                    col,
                    pa.array(v, t.schema.field(col).type),
                )
        pq.write_table(t, f"{out}/{name}")


def run_seed(seed: int, base: str) -> list[str]:
    import duckdb
    import pandas as pd

    from tests.test_oracle_parity import TABLES, _normalize, _to_pandas
    import __ray_entry__ as e

    rng = np.random.default_rng(seed)
    failures = []
    with tempfile.TemporaryDirectory(prefix=f"fuzz_{seed}_") as td:
        sf = os.path.join(td, "sf")
        poison(base, sf, rng)
        queries, oracles = e.queries(), e.oracle_sql()
        con = duckdb.connect()
        for t in TABLES:
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
            )
        # no-oracle queries (iterative/rows-only surface): crash check only
        for name in sorted(set(queries) - set(oracles)):
            try:
                _to_pandas(queries[name](sf))
            except Exception as ex:
                failures.append(f"{name}: CRASH {type(ex).__name__}: {str(ex)[:200]}")
        for name in sorted(oracles):
            try:
                got = _normalize(_to_pandas(queries[name](sf)))
                exp = _normalize(con.execute(oracles[name]).fetchdf())
                if list(got.columns) != list(exp.columns):
                    failures.append(f"{name}: columns {list(got.columns)} != {list(exp.columns)}")
                    continue
                if len(got) != len(exp):
                    failures.append(f"{name}: rows {len(got)} != {len(exp)}")
                    continue
                pd.testing.assert_frame_equal(got, exp, check_dtype=False)
            except AssertionError as ex:
                failures.append(f"{name}: value mismatch: {str(ex)[:200]}")
            except Exception as ex:  # crash = the worst kind of failure
                failures.append(f"{name}: CRASH {type(ex).__name__}: {str(ex)[:200]}")
    return failures


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--start", type=int, default=0)
    ap.add_argument("--base", default="/root/testdata/sf0.001")
    args = ap.parse_args()
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "16")),
            include_dashboard=False,
        )
    bad = 0
    for seed in range(args.start, args.start + args.seeds):
        fails = run_seed(seed, args.base)
        status = "OK" if not fails else f"FAIL ({len(fails)})"
        print(f"seed {seed}: {status}", flush=True)
        for f in fails:
            print(f"  {f}", flush=True)
        bad += bool(fails)
    print(f"done: {args.seeds - bad}/{args.seeds} seeds clean", flush=True)
    ray.shutdown()
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
