"""Corpus-curation operators for LLM training-data pipelines:

  * split_assign:   deterministic hash-based train/valid/test assignment
  * decontaminate:  n-gram overlap of training docs against a held-out
                    benchmark set (GPT-3-style decontamination counts)
  * top_terms:      per-document top-k distinguishing terms (tf-idf
                    ordering realised as the exact integer sort key
                    (tf DESC, df ASC, term ASC) so the result is
                    hash-comparable against a SQL twin — no floats)

All three are single-pass map_batches stages over a pruned parquet read;
the only cross-pass state is small-by-construction and broadcast once
via ray.put (benchmark gram set, global df table). Nothing here shuffles
per-token rows.

No counterpart in the reference (weso/shaclex is a validation engine);
these extend the engine toward the training-data-pipeline surface the
deployment targets, in the style of functions/dedup.py / text.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from shaclex_ray.functions.dedup import _batch_gram_hashes
from shaclex_ray.functions.md5batch import md5_u64_batch
from shaclex_ray.stages import exchange
from shaclex_ray.stages.exchange import partition

# ---------------------------------------------------------------------------
# split assignment


def split_assign(sf_dir: str, train: int = 90, valid: int = 5):
    """Deterministic train/valid/test split: bucket = md5(doc_id||':split')
    mod 100; [0,train) -> train, [train,train+valid) -> valid, rest test.
    Hash-based (not doc_id mod) so the assignment is uncorrelated with any
    id-ordered attribute; embarrassingly parallel, no shuffle, stable
    across runs and cluster sizes — the property a 100-TB ingest needs so
    re-runs and late-arriving shards land in the same split."""
    hi = train + valid

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        keys = pc.binary_join_element_wise(
            pc.cast(ids, pa.string()), ":split", ""
        )
        bucket = (md5_u64_batch(keys) % np.uint64(100)).astype(np.int64)
        split = np.where(
            bucket < train, "train", np.where(bucket < hi, "valid", "test")
        )
        return pa.table(
            {
                "doc_id": ids,
                "bucket": pa.array(bucket, pa.int64()),
                "split": pa.array(split, pa.string()),
            }
        )

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return ds.map_batches(assign, batch_format="pyarrow")


def split_assign_sql(train: int = 90, valid: int = 5) -> str:
    hi = train + valid
    return f"""
    SELECT doc_id,
           CAST(md5_number_lower(CAST(doc_id AS VARCHAR) || ':split') % 100
                AS BIGINT) AS bucket,
           CASE WHEN md5_number_lower(CAST(doc_id AS VARCHAR) || ':split') % 100
                     < {train} THEN 'train'
                WHEN md5_number_lower(CAST(doc_id AS VARCHAR) || ':split') % 100
                     < {hi} THEN 'valid'
                ELSE 'test' END AS split
    FROM documents
    """


# ---------------------------------------------------------------------------
# benchmark decontamination


def _decon_h_split(tbl: pa.Table, nbuckets: int):
    """Bench-side split: re-dedup the per-batch-distinct gram hashes of
    the group (combiner), partition by ``h % nbuckets``."""
    h = np.unique(tbl.column("h").to_numpy())
    return partition(
        pa.table({"h": pa.array(h, pa.uint64())}), h % np.uint64(nbuckets), nbuckets
    )


_BLOOM_MIX = np.uint64(0x9E3779B97F4A7C15)


def _bloom_indices(h: np.ndarray, m_bits: int):
    """Two probe positions per hash (k=2 Bloom); m_bits is a power of 2."""
    mask = np.uint64(m_bits - 1)
    i1 = h & mask
    i2 = ((h * _BLOOM_MIX) >> np.uint64(17)) & mask
    return i1, i2


def _decon_bloom_part(m_bits: int, *tbls: pa.Table) -> np.ndarray:
    """Partial Bloom bitmap over this group's bench gram-hash tables."""
    bloom = np.zeros(m_bits >> 3, np.uint8)
    for t in tbls:
        if t.num_rows == 0:
            continue
        h = t.column("h").to_numpy(zero_copy_only=False)
        for idx in _bloom_indices(h, m_bits):
            np.bitwise_or.at(bloom, (idx >> np.uint64(3)).astype(np.int64),
                             np.left_shift(np.uint8(1), (idx & np.uint64(7)).astype(np.uint8)))
    return bloom


def _decon_bloom_or(*parts: np.ndarray) -> np.ndarray:
    out = parts[0].copy()
    for p in parts[1:]:
        np.bitwise_or(out, p, out=out)
    return out


def _bloom_test(bloom: np.ndarray, h: np.ndarray, m_bits: int) -> np.ndarray:
    keep = np.ones(len(h), bool)
    for idx in _bloom_indices(h, m_bits):
        bit = (bloom[(idx >> np.uint64(3)).astype(np.int64)]
               >> (idx & np.uint64(7)).astype(np.uint8)) & 1
        keep &= bit.astype(bool)
    return keep


def _decon_train_split(tbl: pa.Table, nbuckets: int, shingle: int,
                       bench_mod: int, bloom: np.ndarray | None, m_bits: int):
    """Train-side split over raw (doc_id, text) rows: compute gram
    hashes, Bloom-prefilter against the (broadcast) bench bitmap so
    definite non-hits never enter the exchange, combine occurrences per
    (doc_id, h) map-side. Emits (doc_id, h, cnt, n_grams) rows of two
    kinds: gram rows (cnt >= 1, n_grams 0) partitioned by ``h %
    nbuckets``, and one per-doc row (cnt 0, h 0, the doc's gram count)
    routed by ``doc_id % nbuckets`` — each doc lives in exactly one split
    group, so the per-doc rows are globally exact, and a doc whose every
    gram the Bloom filter dropped still owns one. The Bloom filter only
    drops guaranteed non-members — the per-bucket exact probe confirms
    survivors — so the output is row-identical with or without it."""
    ids = tbl.column("doc_id").to_numpy()
    t = tbl.filter(pa.array(ids % bench_mod != 0))
    ids = t.column("doc_id").to_numpy()
    h, starts = _batch_gram_hashes(t.column("text"), shingle)
    n_grams = np.diff(starts)
    didx = np.repeat(np.arange(t.num_rows), n_grams)
    if bloom is not None and len(h):
        keep = _bloom_test(bloom, h, m_bits)
        h, didx = h[keep], didx[keep]
    order = np.lexsort((h, didx))
    hd, dd = h[order], didx[order]
    new = np.ones(len(hd), bool)
    new[1:] = (hd[1:] != hd[:-1]) | (dd[1:] != dd[:-1])
    seg = np.flatnonzero(new)
    cnt = np.diff(np.append(seg, len(hd)))
    ndoc = len(ids)
    rows = pa.table(
        {
            "doc_id": pa.array(np.concatenate([ids[dd[seg]], ids]), pa.int64()),
            "h": pa.array(np.concatenate([hd[seg], np.zeros(ndoc, np.uint64)])),
            "cnt": pa.array(np.concatenate([cnt, np.zeros(ndoc, np.int64)])),
            "n_grams": pa.array(
                np.concatenate([np.zeros(len(seg), np.int64), n_grams]), pa.int64()
            ),
        }
    )
    b = np.concatenate(
        [(hd[seg] % np.uint64(nbuckets)).astype(np.int64), ids % nbuckets]
    )
    return partition(rows, b, nbuckets)


def _decon_bucket(nbench: int, *parts: pa.Table) -> pa.Table:
    """Per-bucket probe: distinct bench hashes in this bucket vs the
    bucket's train gram rows. Emits (doc_id, n_grams, n_hits) rows — the
    per-doc rows and the hit gram rows — that the caller's grouped
    aggregate sums per doc."""
    from shaclex_ray.functions.relational import _sorted_probe

    bench = np.unique(np.concatenate([p.column("h").to_numpy() for p in parts[:nbench]]))
    train = pa.concat_tables(parts[nbench:])
    cnt = train.column("cnt").to_numpy()
    _, hit = _sorted_probe(bench, train.column("h").to_numpy())
    # a per-doc row (cnt 0) whose h happens to hit adds 0 hits
    return pa.table(
        {
            "doc_id": train.column("doc_id"),
            "n_grams": train.column("n_grams"),
            "n_hits": pa.array(np.where(hit, cnt, 0), pa.int64()),
        }
    ).filter(pa.array(hit | (cnt == 0)))


@ray.remote
def _gram_set(*blocks: pa.Table) -> np.ndarray:
    """The sorted distinct gram hashes of the bench blocks."""
    return np.unique(np.concatenate(
        [np.zeros(0, np.uint64)] + [b.column("h").to_numpy() for b in blocks]
    ))


def decontaminate(sf_dir: str, shingle: int = 5, bench_mod: int = 20):
    """N-gram decontamination counts: docs with doc_id % bench_mod == 0
    stand in for the held-out benchmark set; for every OTHER document,
    count its token ``shingle``-grams and how many of them (occurrences,
    not distinct) appear anywhere in the benchmark set.

    Scale shape — size-adaptive: the per-batch-distinct benchmark gram
    dataset is materialized once and planned (``exchange.plan``); when
    the plan broadcasts it (real benchmarks are MBs against a 100-TB
    corpus), one task builds the sorted distinct gram set, its ref rides
    into every training batch, and each batch does one vectorized
    searchsorted probe; the driver never holds the gram set. Otherwise
    both gram streams hash-partition by gram hash (one-move exchange,
    map-side (doc_id, h)-combine on the train side), each bucket probes
    locally, and a docs-sized grouped aggregate sums the partial hit
    counts — the shape that survives a benchmark suite that grows with
    the corpus."""
    path = f"{sf_dir}/documents.parquet"

    def _side(batch: pa.Table, bench_side: bool) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        in_bench = ids % bench_mod == 0
        return batch.filter(pa.array(in_bench if bench_side else ~in_bench))

    def bench_grams(batch: pa.Table) -> pa.Table:
        batch = _side(batch, bench_side=True)
        if batch.num_rows == 0:
            return pa.table({"h": pa.array([], pa.uint64())})
        h, _ = _batch_gram_hashes(batch.column("text"), shingle)
        return pa.table({"h": pa.array(np.unique(h), pa.uint64())})

    bench = ray.data.read_parquet(path, columns=["doc_id", "text"])
    bench_h = exchange.plan(
        bench.map_batches(bench_grams, batch_format="pyarrow").materialize()
    )
    if not bench_h.broadcast:
        return _decontaminate_join(path, bench_h, shingle, bench_mod)
    gram_ref = _gram_set.remote(*bench_h.inputs)

    def probe(batch: pa.Table) -> pa.Table:
        # ray.get on a plasma-resident numpy array is a zero-copy view —
        # this IS the broadcast (shipped to each node once, mapped into
        # every task); no actor pool needed for read-only state
        grams = ray.get(gram_ref)
        batch = _side(batch, bench_side=False)
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_grams": pa.array([], pa.int64()),
                "n_hits": pa.array([], pa.int64()),
            }
        )
        if batch.num_rows == 0:
            return empty
        from shaclex_ray.functions.relational import _sorted_probe

        h, starts = _batch_gram_hashes(batch.column("text"), shingle)
        _, hit = _sorted_probe(grams, h)
        # every doc has >=1 gram (short docs hash the whole text), so
        # segments are never empty and reduceat is exact
        n_hits = np.add.reduceat(hit.astype(np.int64), starts[:-1])
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_grams": pa.array(np.diff(starts), pa.int64()),
                "n_hits": pa.array(n_hits, pa.int64()),
            }
        )

    train = ray.data.read_parquet(path, columns=["doc_id", "text"])
    return train.map_batches(probe, batch_format="pyarrow")


def _decontaminate_join(path: str, bench_h, shingle: int, bench_mod: int):
    """Distributed regime: hash exchange of bench grams (planned as
    ``bench_h``) and train (doc_id, h, cnt) partials on gram hash,
    per-bucket probe, docs-sized grouped sum of (n_grams, n_hits).
    Row-identical to the broadcast regime (hit-ness per gram hash is
    partition-invariant)."""
    import math as _math

    from shaclex_ray.sources.documents import parquet_files
    from shaclex_ray.stages.groupagg import grouped_aggregate_fast

    cols = ["doc_id", "text"]
    # the train split is planned on the docs it reads: the gram rows it
    # emits once the Bloom filter drops the grams no bench doc has are a
    # fraction of those bytes (sf0.1: 1.5 MB of docs, 0.26 MB of rows)
    train = exchange.plan(parquet_files(path), cols)
    nbuckets = max(bench_h.buckets, train.buckets)
    n_bench, bench_refs = bench_h.rows, bench_h.inputs
    bloom_part = ray.remote(_decon_bloom_part)
    bloom_or = ray.remote(_decon_bloom_or)

    # Bloom prefilter for the train exchange: a fixed-size bitmap built
    # ON WORKERS (partial bitmaps per bench group, tree-ORed), broadcast
    # once — the driver never holds the gram list, only O(filter) bytes.
    # ~16 bits/gram with k=2 probes ≈ 1.4% false positives; capped at
    # 256 MiB (FP rate degrades gracefully for even larger bench sets,
    # correctness is unaffected — the bucket probe is exact).
    m_bits = 1 << max(10, min(31, int(_math.ceil(_math.log2(max(1, n_bench) * 16)))))
    ngroups = bench_h.groups
    bparts = [
        bloom_part.remote(m_bits, *bench_refs[g::ngroups]) for g in range(ngroups)
    ]
    while len(bparts) > 8:  # tree-OR in chunks to bound single-task fan-in
        bparts = [bloom_or.remote(*bparts[i:i + 8]) for i in range(0, len(bparts), 8)]
    bloom_ref = bloom_or.remote(*bparts) if len(bparts) > 1 else bparts[0]

    bsplit = exchange.split(
        _decon_h_split, (), bench_h, pa.schema([("h", pa.uint64())]),
        nbuckets=nbuckets,
    )
    # file-granular train input: split tasks read the parquet shards
    # directly (column-pruned) — input bytes move storage→task exactly
    # once, never staged via plasma
    tsplit = exchange.split(
        _decon_train_split, (shingle, bench_mod, bloom_ref, m_bits), train,
        pa.schema([("doc_id", pa.int64()), ("text", pa.string())]), cols,
        nbuckets=nbuckets,
    )
    return grouped_aggregate_fast(
        exchange.reduce(bsplit + tsplit, _decon_bucket, (len(bsplit),)),
        ["doc_id"],
        [("n_grams", "sum"), ("n_hits", "sum")],
        ["n_grams", "n_hits"],
    )


def decontaminate_sql(shingle: int = 5, bench_mod: int = 20) -> str:
    from shaclex_ray.functions.sql_oracles import _grams_cte

    return f"""
    WITH {_grams_cte(shingle)},
    bench AS (
      SELECT DISTINCT h FROM gh WHERE doc_id % {bench_mod} = 0
    )
    SELECT gh.doc_id,
           CAST(count(*) AS BIGINT) AS n_grams,
           CAST(sum(CASE WHEN bench.h IS NOT NULL THEN 1 ELSE 0 END)
                AS BIGINT) AS n_hits
    FROM gh LEFT JOIN bench USING (h)
    WHERE gh.doc_id % {bench_mod} != 0
    GROUP BY gh.doc_id
    """


# ---------------------------------------------------------------------------
# per-document top-k distinguishing terms


def top_terms(sf_dir: str, k: int = 3):
    """Top-k distinguishing terms per document, ranked by the exact
    integer key (tf DESC, df ASC, term ASC) — the tf-idf ordering without
    floats, so every emitted value hash-compares against the SQL twin.

    Two passes over the pruned text column: pass 1 computes the global
    document-frequency table (vocab-sized — partial Arrow group_by per
    batch, one small groupby-sum, then broadcast via ray.put; a web-scale
    vocab of ~10^7 terms is still a broadcastable dict — beyond that,
    hash-join df onto the per-doc term stream instead). Pass 2 ranks each
    document's terms batch-locally: dictionary-encode + one lexsort, no
    per-doc Python."""
    from shaclex_ray.functions.text import term_stats

    df_rows = term_stats(sf_dir).take_all()  # vocab-sized aggregate
    all_terms = np.array([r["term"] for r in df_rows], dtype=str)
    all_df = np.array([r["df"] for r in df_rows], dtype=np.int64)
    t_order = np.argsort(all_terms)
    # sorted numpy arrays (not a dict): zero-copy views out of plasma in
    # every task, probed with one searchsorted per batch
    df_ref = ray.put((all_terms[t_order], all_df[t_order]))

    def rank_batch(batch: pa.Table) -> pa.Table:
            df_terms, df_vals = ray.get(df_ref)
            toks = pc.split_pattern(
                pc.fill_null(batch.column("text").combine_chunks(), ""), " "
            )
            flat = pc.list_flatten(toks)
            parents = pc.list_parent_indices(toks).to_numpy(
                zero_copy_only=False
            )
            enc = pc.dictionary_encode(flat)
            codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            vocab = np.array(enc.dictionary.to_pylist(), dtype=str)
            # every batch-local term exists in the global df table (same
            # corpus), so the searchsorted probe is exact
            vdf = df_vals[np.searchsorted(df_terms, vocab)]
            # string rank of each code: argsort once over batch uniques
            str_rank = np.empty(len(vocab), np.int64)
            str_rank[np.argsort(vocab)] = np.arange(len(vocab))
            # per (doc, code) term frequency via one lexsort
            order = np.lexsort((codes, parents))
            d_s, c_s = parents[order], codes[order]
            run = np.concatenate(
                ([True], (d_s[1:] != d_s[:-1]) | (c_s[1:] != c_s[:-1]))
            )
            r_doc, r_code = d_s[run], c_s[run]
            idx = np.flatnonzero(run)
            tf = np.diff(np.concatenate((idx, [len(d_s)])))
            # rank runs per doc by (tf desc, df asc, term asc)
            o2 = np.lexsort((str_rank[r_code], vdf[r_code], -tf, r_doc))
            rd = r_doc[o2]
            doc_start = np.flatnonzero(
                np.concatenate(([True], rd[1:] != rd[:-1]))
            )
            doc_len = np.diff(np.concatenate((doc_start, [len(rd)])))
            pos = np.arange(len(rd)) - np.repeat(doc_start, doc_len)
            keep = pos < k
            sel = o2[keep]
            doc_ids = batch.column("doc_id").take(pa.array(r_doc[sel]))
            terms = pc.take(enc.dictionary, pa.array(r_code[sel]))
            return pa.table(
                {
                    "doc_id": doc_ids,
                    "term": terms,
                    "tf": pa.array(tf[sel], pa.int64()),
                    "df": pa.array(vdf[r_code[sel]], pa.int64()),
                    "rank": pa.array(pos[keep] + 1, pa.int64()),
                }
            )

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return ds.map_batches(rank_batch, batch_format="pyarrow")


def curate_corpus(
    sf_dir: str,
    min_tokens: int = 20,
    max_tokens: int = 100_000,
    min_stop_pct: int = 2,
    max_rep_pct: int = 20,
    train: int = 90,
    valid: int = 5,
):
    """The composed curation pass a pretraining pipeline runs end-to-end:
    per document, quality gates (token-count bounds, stopword floor),
    a repetition gate (top bigram share), the fuzzy-dedup keep/drop
    decision, the final keep verdict, and the train/valid/test split.

    Shape: every per-doc signal except dedup is batch-local, so they all
    compute in ONE map task over the pruned (doc_id, text) read; the
    dedup verdict (global by nature) joins on doc_id (``exchange.join``)
    — exactly one corpus-sized exchange in the whole pass. All gate
    arithmetic is integer cross-multiplication (no float thresholds), so
    every emitted value hash-compares against the SQL twin."""
    from shaclex_ray.functions.dedup import dedup_clusters
    from shaclex_ray.functions.text import repetition_batch, token_stats_batch

    hi = train + valid
    from shaclex_ray.sources.documents import parquet_num_rows as _pnr

    if _pnr(f"{sf_dir}/documents.parquet") == 0:
        # empty corpus: no map below runs, so keep the verdict schema here
        import ray.data as _rd

        return _rd.from_arrow(
            pa.schema(
                [
                    ("doc_id", pa.int64()),
                    ("len_ok", pa.bool_()),
                    ("stop_ok", pa.bool_()),
                    ("rep_ok", pa.bool_()),
                    ("dedup_keep", pa.bool_()),
                    ("keep", pa.bool_()),
                    ("split", pa.string()),
                ]
            ).empty_table()
        )

    def local_signals(batch: pa.Table) -> pa.Table:
        st = token_stats_batch(batch)
        rep = repetition_batch(batch)
        n_tok = st.column("n_tokens").to_numpy(zero_copy_only=False)
        n_stop = st.column("n_stopwords").to_numpy(zero_copy_only=False)
        n_big = rep.column("n_bigrams").to_numpy(zero_copy_only=False)
        top = rep.column("top_bigram_count").to_numpy(zero_copy_only=False)
        len_ok = (n_tok >= min_tokens) & (n_tok <= max_tokens)
        stop_ok = n_stop * 100 >= n_tok * min_stop_pct
        rep_ok = top * 100 <= np.maximum(n_big, 1) * max_rep_pct
        keys = pc.binary_join_element_wise(
            pc.cast(batch.column("doc_id"), pa.string()), ":split", ""
        )
        bucket = (md5_u64_batch(keys) % np.uint64(100)).astype(np.int64)
        split = np.where(
            bucket < train, "train", np.where(bucket < hi, "valid", "test")
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "len_ok": pa.array(len_ok),
                "stop_ok": pa.array(stop_ok),
                "rep_ok": pa.array(rep_ok),
                "split": pa.array(split, pa.string()),
            }
        )

    signals = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(local_signals, batch_format="pyarrow")

    dedup = dedup_clusters(sf_dir).map_batches(
        lambda b: pa.table(
            {"doc_id": b.column("doc_id"), "dedup_keep": b.column("keep")}
        ),
        batch_format="pyarrow",
    )
    joined = exchange.join(signals, dedup, ["doc_id"])

    def finish(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(batch.column("len_ok"), batch.column("stop_ok")),
            pc.and_(batch.column("rep_ok"), batch.column("dedup_keep")),
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id").combine_chunks().cast(pa.int64()),
                "len_ok": batch.column("len_ok"),
                "stop_ok": batch.column("stop_ok"),
                "rep_ok": batch.column("rep_ok"),
                "dedup_keep": batch.column("dedup_keep"),
                "keep": keep,
                "split": batch.column("split"),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


def curate_corpus_sql(
    min_tokens: int = 20,
    max_tokens: int = 100_000,
    min_stop_pct: int = 2,
    max_rep_pct: int = 20,
    train: int = 90,
    valid: int = 5,
) -> str:
    from shaclex_ray.functions.sql_oracles import dedup_clusters_sql

    hi = train + valid
    cluster_sql = dedup_clusters_sql()
    return f"""
    WITH clusters AS ({cluster_sql}),
    st AS (
      SELECT doc_id,
             CAST(len(string_split(coalesce(text, ''), ' ')) AS BIGINT) AS n_tokens,
             CAST((SELECT count(*) FROM unnest(string_split(coalesce(text, ''), ' ')) AS u(tok)
                   WHERE u.tok IN ('the', 'a')) AS BIGINT) AS n_stopwords
      FROM documents
    ),
    toksr AS (
      SELECT doc_id, string_split(coalesce(text, ''), ' ') AS t FROM documents
    ), bigrams AS (
      SELECT doc_id, t[u.i] || ' ' || t[u.i + 1] AS bg
      FROM toksr, unnest(generate_series(1, len(t) - 1)) AS u(i)
    ), perbg AS (
      SELECT doc_id, bg, count(*) AS c FROM bigrams GROUP BY doc_id, bg
    ), rep AS (
      SELECT d.doc_id,
             CAST(coalesce(sum(p.c), 0) AS BIGINT) AS n_bigrams,
             CAST(coalesce(max(p.c), 0) AS BIGINT) AS top_bigram_count
      FROM documents d LEFT JOIN perbg p USING (doc_id)
      GROUP BY d.doc_id
    ),
    gates AS (
      SELECT st.doc_id,
             st.n_tokens >= {min_tokens} AND st.n_tokens <= {max_tokens}
               AS len_ok,
             st.n_stopwords * 100 >= st.n_tokens * {min_stop_pct} AS stop_ok,
             rep.top_bigram_count * 100
               <= greatest(rep.n_bigrams, 1) * {max_rep_pct} AS rep_ok,
             CASE WHEN md5_number_lower(CAST(st.doc_id AS VARCHAR) || ':split')
                       % 100 < {train} THEN 'train'
                  WHEN md5_number_lower(CAST(st.doc_id AS VARCHAR) || ':split')
                       % 100 < {hi} THEN 'valid'
                  ELSE 'test' END AS split
      FROM st JOIN rep USING (doc_id)
    )
    SELECT g.doc_id, g.len_ok, g.stop_ok, g.rep_ok, c.keep AS dedup_keep,
           g.len_ok AND g.stop_ok AND g.rep_ok AND c.keep AS keep,
           g.split
    FROM gates g JOIN clusters c USING (doc_id)
    """


def _sample_partial(tbl: pa.Table, n: int) -> pa.Table:
    """Keep the n smallest doc_ids per source (exact partial top-n: the
    global per-source minimum-n is a subset of every split's local
    minimum-n, so the exchange moves at most n×|sources| rows per split)."""
    doc = tbl.column("doc_id").to_numpy(zero_copy_only=False)
    src = pc.fill_null(
        tbl.column("source").combine_chunks(), ""
    ).dictionary_encode()
    codes = src.indices.to_numpy(zero_copy_only=False)
    order = np.lexsort((doc, codes))
    codes_s = codes[order]
    new_seg = np.empty(len(order), dtype=bool)
    if len(order):
        new_seg[0] = True
        new_seg[1:] = codes_s[1:] != codes_s[:-1]
    starts = np.flatnonzero(new_seg)
    rank = np.arange(len(order)) - np.repeat(
        starts, np.diff(np.append(starts, len(order)))
    )
    keep = order[rank < n]
    return tbl.take(pa.array(np.sort(keep)))


def _fill_source(tbl: pa.Table) -> pa.Table:
    """``coalesce(source, '')``: a null source is the '' stratum."""
    return tbl.set_column(
        tbl.column_names.index("source"), "source",
        pc.fill_null(tbl.column("source"), ""),
    )


def _source_count_split(tbl: pa.Table, nbuckets: int):
    from shaclex_ray.stages.groupagg import _split_impl

    return _split_impl(_fill_source(tbl), nbuckets, ["source"], [("doc_id", "count")])


def _sample_split_impl(tbl: pa.Table, nbuckets: int, n: int):
    tbl = _sample_partial(_fill_source(tbl), n)
    bucket = md5_u64_batch(tbl.column("source")) % np.uint64(nbuckets)
    return partition(tbl, bucket, nbuckets)


def _sample_bucket_impl(n: int, *parts: pa.Table) -> pa.Table:
    return _sample_partial(pa.concat_tables(parts), n)


def sample_balanced(sf_dir: str, n: int | None = None):
    """Balanced stratified sampling: keep the n smallest doc_ids of every
    source (deterministic rank-based downsampling — the corpus-mixing
    primitive that caps each domain's contribution). When ``n`` is None it
    defaults to the smallest source's count, i.e. a fully balanced corpus.

    Shape: file-granular — the split tasks read the (doc_id, source)
    columns of the documents' parquet files themselves, so no corpus
    table stages anywhere. Per-source counts are a vocabulary-sized
    aggregate (one exchange, driver sees |sources| rows); selection is a
    second exchange keyed by source with an EXACT map-side partial top-n
    combine, so the shuffle payload is bounded by n×|sources| per split
    task — independent of corpus size."""
    import pyarrow.parquet as pq

    from shaclex_ray.sources.documents import parquet_files
    from shaclex_ray.stages.groupagg import _bucket_impl

    path = f"{sf_dir}/documents.parquet"
    files = parquet_files(path)
    cols = ["doc_id", "source"]
    schema = pq.read_schema(files[0])  # types a group of empty files
    plan = exchange.plan(files, cols)
    if n is None:
        counts = exchange.reduce(
            exchange.split(_source_count_split, (), plan, schema, cols),
            _bucket_impl, (["source"], [("doc_id", "count")], ["cnt"]),
        ).take_all()
        n = min((int(r["cnt"]) for r in counts), default=0)
    split_refs = exchange.split(_sample_split_impl, (n,), plan, schema, cols)
    return exchange.reduce(split_refs, _sample_bucket_impl, (n,))


def sample_balanced_sql(n: int | None = None) -> str:
    n_expr = (
        "(SELECT min(cnt) FROM (SELECT count(*) AS cnt FROM documents"
        " GROUP BY coalesce(source, '')))"
        if n is None
        else str(n)
    )
    return f"""
    WITH r AS (
      SELECT doc_id, coalesce(source, '') AS source,
             row_number() OVER (PARTITION BY coalesce(source, '')
                                ORDER BY doc_id) AS rn
      FROM documents
    )
    SELECT doc_id, source FROM r WHERE rn <= {n_expr}
    """


def top_terms_sql(k: int = 3) -> str:
    return f"""
    WITH tokens AS (
      SELECT doc_id, u.t AS term
      FROM documents, unnest(string_split(coalesce(text, ''), ' ')) AS u(t)
    ), tf AS (
      SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
      FROM tokens GROUP BY doc_id, term
    ), dfv AS (
      SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
      FROM tokens GROUP BY term
    ), ranked AS (
      SELECT tf.doc_id, tf.term, tf.tf, dfv.df,
             CAST(row_number() OVER (
               PARTITION BY tf.doc_id
               ORDER BY tf.tf DESC, dfv.df ASC, tf.term ASC
             ) AS BIGINT) AS rank
      FROM tf JOIN dfv USING (term)
    )
    SELECT * FROM ranked WHERE rank <= {k}
    """


# ------------------------------------------------------- mixture report
def mixture_report(sf_dir: str):
    """Per-source corpus mixture statistics — the report a pretraining run
    reads before setting sampling weights: document/token/char volume,
    language spread, and exact-unique text count per source.

    Scale shape: sums and counts pre-aggregate per batch (the exchange
    moves |sources| rows per block); the two distinct counts ride their
    own one-move hash exchanges keyed on compact values — (source, lang)
    is vocabulary-sized, (source, md5) is one 32-byte digest per document,
    never the text itself. The final join runs on |sources| rows."""
    import hashlib as _hl

    from shaclex_ray.stages.groupagg import grouped_aggregate_fast

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text", "lang", "source"]
    )

    def sum_partials(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch.column("text").combine_chunks(), "")
        t = pa.table(
            {
                "source": pc.fill_null(
                    batch.column("source").combine_chunks(), ""
                ),
                "n_tokens": pc.list_value_length(
                    pc.split_pattern(text, " ")
                ).cast(pa.int64()),
                "n_chars": pc.utf8_length(text).cast(pa.int64()),
            }
        )
        agg = t.group_by("source", use_threads=False).aggregate(
            [("n_tokens", "count"), ("n_tokens", "sum"), ("n_chars", "sum")]
        )
        return pa.table(
            {
                "source": agg.column("source"),
                "n_docs": agg.column("n_tokens_count").cast(pa.int64()),
                "n_tokens": agg.column("n_tokens_sum").cast(pa.int64()),
                "n_chars": agg.column("n_chars_sum").cast(pa.int64()),
            }
        )

    sums = grouped_aggregate_fast(
        ds.map_batches(sum_partials, batch_format="pyarrow"),
        ["source"],
        [("n_docs", "sum"), ("n_tokens", "sum"), ("n_chars", "sum")],
        ["n_docs", "n_tokens", "n_chars"],
    )

    def fp_partial(batch: pa.Table) -> pa.Table:
        text = batch.column("text").combine_chunks().cast(pa.binary())
        fps = [_hl.md5(s or b"").hexdigest() for s in text.to_pylist()]
        t = pa.table(
            {
                "source": pc.fill_null(
                    batch.column("source").combine_chunks(), ""
                ),
                "fp": pa.array(fps, pa.string()),
            }
        )
        return t.group_by(["source", "fp"], use_threads=False).aggregate([])

    def lang_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "source": pc.fill_null(
                    batch.column("source").combine_chunks(), ""
                ),
                "lang": pc.fill_null(batch.column("lang").combine_chunks(), ""),
            }
        )
        return t.group_by(["source", "lang"], use_threads=False).aggregate([])

    def _count_distinct(partials, key2: str, out: str):
        # one hash exchange dedupes (source, key2); a second, |sources|-
        # sized pass counts survivors per source
        ded = grouped_aggregate_fast(
            partials, ["source", key2], [(key2, "count")], ["_c"]
        )
        return grouped_aggregate_fast(
            ded, ["source"], [("_c", "count")], [out]
        )

    uniq = _count_distinct(
        ds.map_batches(fp_partial, batch_format="pyarrow"), "fp", "n_unique_texts"
    )
    langs = _count_distinct(
        ds.map_batches(lang_partial, batch_format="pyarrow"), "lang", "n_langs"
    )

    def _collect(d, schema: pa.Schema) -> pa.Table:
        # an all-empty corpus can surface zero-column OR null-typed empty
        # blocks (the exchange's schema-less-empty synthesis) — keep only
        # non-empty blocks carrying the expected fields, else the typed
        # empty table (a 0-row block contributes nothing to the join and
        # its null-typed key would break Acero)
        blocks = [ray.get(r) for r in d.materialize().to_arrow_refs()]
        blocks = [
            b
            for b in blocks
            if b.num_rows and set(schema.names) <= set(b.column_names)
        ]
        if not blocks:
            return schema.empty_table()
        return pa.concat_tables(
            [b.select(schema.names) for b in blocks]
        ).combine_chunks()

    s_i64 = pa.int64()
    out = (
        _collect(
            sums,
            pa.schema(
                [("source", pa.string()), ("n_docs", s_i64),
                 ("n_tokens", s_i64), ("n_chars", s_i64)]
            ),
        )
        .join(
            _collect(
                langs, pa.schema([("source", pa.string()), ("n_langs", s_i64)])
            ),
            keys=["source"],
        )
        .join(
            _collect(
                uniq,
                pa.schema([("source", pa.string()), ("n_unique_texts", s_i64)]),
            ),
            keys=["source"],
        )
    )
    return out.select(
        ["source", "n_docs", "n_tokens", "n_chars", "n_langs", "n_unique_texts"]
    )


def mixture_report_sql() -> str:
    return """
    SELECT coalesce(source, '') AS source,
           CAST(count(*) AS BIGINT) AS n_docs,
           CAST(sum(len(string_split(coalesce(text, ''), ' '))) AS BIGINT) AS n_tokens,
           CAST(sum(length(coalesce(text, ''))) AS BIGINT) AS n_chars,
           CAST(count(DISTINCT coalesce(lang, '')) AS BIGINT) AS n_langs,
           CAST(count(DISTINCT md5(coalesce(text, ''))) AS BIGINT) AS n_unique_texts
    FROM documents GROUP BY coalesce(source, '')
    """
