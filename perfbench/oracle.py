"""DuckDB twins of the benchmarked pipelines, and the output checks.

The expected results come from the SQL that ``__ray_entry__.oracle_sql()``
ships for each query, run over the generated corpus before any timing.
Each timed run's outputs are then read back from its stage directories
and compared with them. Digests are order-insensitive: the sum of the
lower 64 bits of each row's md5, so row order never matters but a
missing, extra or altered row does.
"""

from __future__ import annotations

import os
import re

import duckdb

TRIPLE_COLS = ("subj", "pred", "obj_kind", "obj_lex", "obj_dt", "obj_lang")
MINCOUNT = "http://www.w3.org/ns/shacl#MinCountConstraintComponent"


def _row_digest(cols) -> str:
    # chr(0) marks NULL so that NULL and '' hash differently
    parts = ", ".join(f"coalesce(CAST({c} AS VARCHAR), chr(0))" for c in cols)
    return f"CAST(coalesce(sum(md5_number_lower(concat_ws(chr(31), {parts}))), 0) AS VARCHAR)"


def _materialized(sql: str) -> str:
    """The same query with every named CTE computed once (DuckDB 1.0
    otherwise re-evaluates a CTE at each reference, which makes the
    fuzzy-dedup twin take minutes on 5,000 documents). Results are
    unchanged; recursive and column-listed CTEs keep their form."""
    return re.sub(r"(\b\w+) AS \(", r"\1 AS MATERIALIZED (", sql)


def _connect(corpus_dir: str) -> duckdb.DuckDBPyConnection:
    """A connection with the corpus as the ``documents`` view the twins
    are written against (one file, or a directory of part files)."""
    path = f"{corpus_dir}/documents.parquet"
    src = f"{path}/*.parquet" if os.path.isdir(path) else path
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{src}')")
    return con


def _typing_rows(con, sql: str) -> list:
    return sorted(tuple(r) for r in con.execute(sql).fetchall())


def kg_expected(corpus_dir: str, sql: dict) -> dict:
    con = _connect(corpus_dir)
    n, digest = con.execute(
        f"SELECT count(*), {_row_digest(TRIPLE_COLS)} FROM ({sql['kg_triples']})"
    ).fetchone()
    typing = _typing_rows(
        con, f"SELECT shape, val, n FROM ({sql['kg_typing_counts']})"
    )
    vn, vdigest = con.execute(
        f"SELECT count(*), {_row_digest(['focus_iri'])} "
        f"FROM ({sql['kg_validation_mincount']})"
    ).fetchone()
    con.close()
    return {
        "triples": n,
        "triples_digest": digest,
        "typing": typing,
        "mincount": vn,
        "mincount_digest": vdigest,
    }


def kg_observed(out_dir: str) -> dict:
    con = duckdb.connect()
    n, digest = con.execute(
        f"SELECT count(*), {_row_digest(TRIPLE_COLS)} "
        f"FROM read_parquet('{out_dir}/triples_canonical/*.parquet')"
    ).fetchone()
    typing = _typing_rows(
        con,
        "SELECT shape, val, count(*) AS n FROM "
        f"read_parquet('{out_dir}/validation/typing/*.parquet') "
        "WHERE is_focus GROUP BY shape, val",
    )
    vn, vdigest = con.execute(
        f"SELECT count(*), {_row_digest(['focus_iri'])} FROM ("
        "SELECT substr(focus_node, 2) AS focus_iri FROM "
        f"read_parquet('{out_dir}/validation/report/*.parquet') "
        f"WHERE component = '{MINCOUNT}')"
    ).fetchone()
    con.close()
    return {
        "triples": n,
        "triples_digest": digest,
        "typing": typing,
        "mincount": vn,
        "mincount_digest": vdigest,
    }


def curation_expected(corpus_dir: str, sql: dict) -> dict:
    con = _connect(corpus_dir)
    verdicts = con.execute(
        "SELECT doc_id, split FROM "
        f"({_materialized(sql['curate_corpus'])}) WHERE keep"
    ).arrow()
    kept = con.execute(
        "SELECT split, count(*), sum(doc_id) FROM verdicts GROUP BY split"
    ).fetchall()
    train = con.execute(
        "SELECT d.doc_id, d.text FROM documents d "
        "JOIN verdicts v USING (doc_id) WHERE v.split = 'train'"
    ).arrow()
    con.close()
    # the packer's corpus is the kept train split
    con = duckdb.connect()
    con.register("train", train)
    con.execute("CREATE VIEW documents AS SELECT * FROM train")
    chunks = con.execute(
        "SELECT count(*), sum(ntok_in_chunk), sum(chunk_id) "
        f"FROM ({sql['pack_sequences']})"
    ).fetchone()
    con.close()
    return {"kept": sorted(tuple(r) for r in kept), "chunks": tuple(chunks)}


def curation_observed(out_dir: str) -> dict:
    con = duckdb.connect()
    kept = con.execute(
        "SELECT split, count(*), sum(doc_id) FROM read_parquet("
        f"'{out_dir}/curated/**/*.parquet', hive_partitioning = true) "
        "GROUP BY split"
    ).fetchall()
    chunks = con.execute(
        "SELECT count(*), sum(ntok_in_chunk), sum(chunk_id) "
        f"FROM read_parquet('{out_dir}/packed/*.parquet')"
    ).fetchone()
    con.close()
    return {"kept": sorted(tuple(r) for r in kept), "chunks": tuple(chunks)}


def mismatches(expected: dict, observed: dict) -> list[str]:
    """Names of the checked quantities that differ."""
    return [k for k in expected if expected[k] != observed.get(k)]
