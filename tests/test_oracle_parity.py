"""Rehearsal of the driver's correctness gate: every queries() entry with an
oracle_sql() twin must match DuckDB row-for-row (order-insensitive,
column-name-aligned) at sf0.01."""

import math

import duckdb
import pandas as pd
import pytest

SF = "/root/testdata/sf0.01"
TABLES = [
    "region",
    "nation",
    "customer",
    "supplier",
    "part",
    "orders",
    "lineitem",
    "events",
    "documents",
    "embeddings",
]


def _duck():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return con


def _to_pandas(res):
    import pyarrow as pa

    import ray.data

    if isinstance(res, ray.data.Dataset):
        df = res.to_pandas()
        if df.empty and not len(df.columns):
            # Ray's to_pandas drops the columns of a 0-row dataset even
            # when the dataset carries a schema — rebuild them from it
            schema = res.schema()
            if schema is not None:
                return pd.DataFrame({c: [] for c in schema.names})
        return df
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(9)
    return df.sort_values(by=list(df.columns), ignore_index=True)


@pytest.fixture(scope="module")
def qo(ray_session):
    import __ray_entry__ as e

    return e.queries(), e.oracle_sql()


NAMES = [
    "doc_spans",
    "kg_triples",
    "kg_entity_links",
    "kg_triples_per_pred",
    "kg_doc_entity_counts",
    "kg_validation_mincount",
    "kg_typing_counts",
    "kg_shex_doc_conformance",
    "kg_infer_doc_shape",
    "text_token_stats",
    "text_fingerprints",
    "dedup_exact",
    "dedup_minhash",
    "dedup_simhash_groups",
    "text_quality",
    "dedup_simhash",
    "dedup_ngram_jaccard",
    "dedup_embedding",
    "events_window_agg",
    "events_sessions",
    "events_asof_view",
    "events_json_stats",
    "ann_topk",
    "ann_lsh_buckets",
    "ann_lsh_topk",
    "media_features",
    "pack_sequences",
    "text_term_stats",
    "text_repetition",
    "curate_split",
    "curate_decontaminate",
    "curate_top_terms",
    "curate_corpus",
    "dedup_clusters",
    "curate_sample",
    "text_redact",
    "dedup_substring",
    "curate_substring_trim",
    "ann_ivf_lists",
    "ann_ivf_topk",
    "text_lm_novelty",
    "text_bpe_tokens",
    "ann_knn_label",
    "curate_mixture",
    "rel_pricing_summary",
    "rel_top_orders",
    "rel_regional_volume",
    "media_frames",
    "media_resize",
]


@pytest.mark.parametrize("name", NAMES)
def test_query_matches_oracle(qo, name):
    queries, oracles = qo
    got = _normalize(_to_pandas(queries[name](SF)))
    con = _duck()
    exp = _normalize(con.execute(oracles[name]).fetchdf())
    assert list(got.columns) == list(exp.columns), (got.columns, exp.columns)
    assert len(got) == len(exp), f"rows: got {len(got)} exp {len(exp)}"
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_rows_only_queries_run(qo):
    queries, oracles = qo
    for name, fn in queries.items():
        if name in oracles:
            continue
        df = _to_pandas(fn(SF))
        assert df is not None and len(df.columns) > 0


def test_every_oracle_within_first_50_queries():
    """Correctness reports keep the first 50 queries() entries: every
    oracle-twinned query must sit among them."""
    import __ray_entry__ as e

    first = list(e.queries())[:50]
    assert [k for k in e.oracle_sql() if k not in first] == []
