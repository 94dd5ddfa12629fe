"""Substring-level deduplication: find every k-token window that occurs
more than once ANYWHERE in the corpus and report, per document, the
maximal duplicated token spans (the "cut list" an exact-substring dedup
pass feeds to the trainer — Lee et al., "Deduplicating Training Data
Makes Language Models Better", realises this with a suffix array; the
windowed rolling-hash formulation below is the shuffle-friendly
equivalent for a k-token resolution).

Shape (two one-move exchanges, everything between them vectorized):

  1. window build (map): per batch, tokenize, build every k-token window
     string with k shifted Arrow ``take``s + one ``binary_join_element_wise``
     (windows never cross documents), hash each window to 128 bits
     (md5 — the exchange key). Output (h1, h2, doc_id, start): 26 bytes/
     window, never the window text.
  2. duplicate detection (exchange 1, keyed h1): each bucket lexsorts its
     (h1, h2) rows; runs of length >= min_count are duplicated windows.
     No join back to the input — the window rows carry (doc_id, start).
  3. span merge (exchange 2, keyed doc_id): each bucket lexsorts
     (doc_id, start); because all windows share one length, span ends are
     monotone within a doc, so the maximal-span merge is a single
     boundary scan: new span iff doc changes or start > prev_start + k.

At 100 TB the window stream is ~|tokens| rows of 26 bytes — the same
order as the MinHash shingle stream (functions/dedup.py) and the price
every substring-dedup pipeline pays; both exchanges are the one
volume-bounded hash exchange of stages/exchange.py.

No counterpart in the reference (weso/shaclex is a validation engine);
this extends the training-data surface alongside functions/dedup.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from shaclex_ray.functions.md5batch import md5_u128_batch
from shaclex_ray.stages import exchange
from shaclex_ray.stages.exchange import partition

K_TOKENS = 8
MIN_COUNT = 2


WINDOW_SCHEMA = pa.schema(
    [
        ("h1", pa.uint64()),
        ("h2", pa.uint64()),
        ("doc_id", pa.int64()),
        ("start", pa.int64()),
    ]
)


def _windows_batch(batch: pa.Table, k: int) -> pa.Table:
    """All k-token windows of every document in the batch, hashed.
    Vectorized: k shifted takes over the flat token array + one
    element-wise join build every window string at once."""
    doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    toks = pc.split_pattern(
        pc.fill_null(batch.column("text").combine_chunks(), ""), " "
    )
    flat = pc.list_flatten(toks)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    doc_offs = np.concatenate([[0], np.cumsum(lens)])[:-1]
    nwin = np.maximum(lens - k + 1, 0)
    total = int(nwin.sum())
    if total == 0:
        return WINDOW_SCHEMA.empty_table()
    win_offs = np.concatenate([[0], np.cumsum(nwin)])[:-1]
    doc_rep = np.repeat(doc_ids, nwin)
    starts = np.arange(total, dtype=np.int64) - np.repeat(win_offs, nwin)
    flat_starts = np.repeat(doc_offs, nwin) + starts
    parts = [
        flat.take(pa.array(flat_starts + j, pa.int64())) for j in range(k)
    ]
    wins = pc.binary_join_element_wise(*parts, " ")
    h1, h2 = md5_u128_batch(wins)
    return pa.table(
        {
            "h1": pa.array(h1, pa.uint64()),
            "h2": pa.array(h2, pa.uint64()),
            "doc_id": pa.array(doc_rep, pa.int64()),
            "start": pa.array(starts, pa.int64()),
        }
    )


def _dup_split_impl(tbl: pa.Table, nbuckets: int):
    h1 = tbl.column("h1").to_numpy()
    return partition(tbl, h1 % np.uint64(nbuckets), nbuckets)


def _dup_bucket_impl(min_count: int, *parts: pa.Table) -> pa.Table:
    real = [t for t in parts if t.num_rows > 0]
    if not real:
        return parts[0].select(["doc_id", "start"])
    tbl = pa.concat_tables(real)
    h1 = tbl.column("h1").to_numpy(zero_copy_only=False)
    h2 = tbl.column("h2").to_numpy(zero_copy_only=False)
    order = np.lexsort((h2, h1))
    h1s, h2s = h1[order], h2[order]
    new_run = np.empty(len(order), dtype=bool)
    new_run[0] = True
    new_run[1:] = (h1s[1:] != h1s[:-1]) | (h2s[1:] != h2s[:-1])
    run_id = np.cumsum(new_run) - 1
    run_len = np.bincount(run_id)
    keep = order[run_len[run_id] >= min_count]
    return tbl.select(["doc_id", "start"]).take(pa.array(np.sort(keep)))


def _span_split_impl(tbl: pa.Table, nbuckets: int):
    """doc_id-keyed split of any table with an integer doc_id column."""
    doc = tbl.column("doc_id").to_numpy()
    return partition(tbl, doc.astype(np.uint64) % np.uint64(nbuckets), nbuckets)


def _span_bucket_impl(k: int, *parts: pa.Table) -> pa.Table:
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "span_start": pa.array([], pa.int64()),
            "span_end": pa.array([], pa.int64()),
            "n_windows": pa.array([], pa.int64()),
        }
    )
    real = [t for t in parts if t.num_rows > 0]
    if not real:
        return empty
    tbl = pa.concat_tables(real)
    doc = tbl.column("doc_id").to_numpy(zero_copy_only=False)
    start = tbl.column("start").to_numpy(zero_copy_only=False)
    order = np.lexsort((start, doc))
    doc_s, start_s = doc[order], start[order]
    # windows all have length k, so ends are monotone within a doc and the
    # running span end is just prev_start + k: merge overlapping OR
    # touching windows in one boundary pass
    new_span = np.empty(len(order), dtype=bool)
    new_span[0] = True
    new_span[1:] = (doc_s[1:] != doc_s[:-1]) | (start_s[1:] > start_s[:-1] + k)
    bounds = np.flatnonzero(new_span)
    ends = np.append(bounds[1:], len(order))
    return pa.table(
        {
            "doc_id": pa.array(doc_s[bounds], pa.int64()),
            "span_start": pa.array(start_s[bounds], pa.int64()),
            "span_end": pa.array(start_s[ends - 1] + k, pa.int64()),
            "n_windows": pa.array(ends - bounds, pa.int64()),
        }
    )


_SPANS_EMPTY = pa.table(
    {
        "doc_id": pa.array([], pa.int64()),
        "span_start": pa.array([], pa.int64()),
        "span_end": pa.array([], pa.int64()),
        "n_windows": pa.array([], pa.int64()),
    }
)


def _cut_list(docs_ds, k: int, min_count: int, nbuckets: int | None = None):
    """Shared prefix of :func:`dedup_substring` and
    :func:`trim_substring_spans`: k-token windows → duplicated-window
    exchange → per-doc maximal span exchange (``nbuckets`` pins its
    partition count, so a same-keyed split of the docs co-partitions
    against it). Returns the span buckets' ``exchange.bucket_tasks``
    pairs, one per bucket in bucket order (empty buckets included), or
    None when the corpus has no duplicated windows at all, so the cut
    list reported by dedup_substring and the one applied by trim can
    never diverge."""
    windows = exchange.plan(docs_ds.map_batches(
        lambda b: _windows_batch(b.select(["doc_id", "text"]), k),
        batch_format="pyarrow",
    ).materialize())
    if windows.rows == 0:
        return None
    dup = exchange.plan(exchange.reduce(
        exchange.split(_dup_split_impl, (), windows, WINDOW_SCHEMA),
        _dup_bucket_impl, (min_count,),
    ))
    if dup.rows == 0:
        return None
    return exchange.bucket_tasks(
        exchange.split(
            _span_split_impl, (), dup,
            pa.schema([("doc_id", pa.int64()), ("start", pa.int64())]),
            nbuckets=nbuckets,
        ),
        _span_bucket_impl, (k,),
    )


def dedup_substring(
    sf_dir: str | None = None,
    k: int = K_TOKENS,
    min_count: int = MIN_COUNT,
    docs_path: str | None = None,
):
    """Per-document maximal duplicated-substring spans at k-token
    resolution: (doc_id, span_start, span_end, n_windows) with token
    offsets 0-based and span_end exclusive. ``docs_path`` overrides the
    default ``<sf_dir>/documents.parquet`` (the curation pipeline runs
    this over its curated-train shard)."""
    if docs_path is None:
        docs_path = f"{sf_dir}/documents.parquet"
    ds = ray.data.read_parquet(docs_path, columns=["doc_id", "text"])
    spans = _cut_list(ds, k, min_count)
    return rd.from_arrow(_SPANS_EMPTY) if spans is None else exchange.nonempty(spans)


def _trim_bucket_impl(k: int, spans: pa.Table, *doc_parts: pa.Table) -> pa.Table:
    """Per-bucket span application: drop every token covered by a
    duplicated span, rebuild the text. One delta-array cumsum marks
    covered flat-token positions; no per-row loop. ``spans`` and the doc
    parts are co-partitioned by ``doc_id % nbuckets`` upstream, so each
    doc meets all of its spans here."""
    real = [t for t in doc_parts if t.num_rows > 0]
    extra = [
        c
        for c in (doc_parts[0].column_names if doc_parts else [])
        if c not in ("doc_id", "text")
    ]
    fields = [
        ("doc_id", pa.int64()),
        ("text", pa.string()),
        ("ntok", pa.int64()),
        ("ntok_cut", pa.int64()),
    ] + [(c, doc_parts[0].schema.field(c).type) for c in extra]
    if not real:
        return pa.schema(fields).empty_table()
    docs = pa.concat_tables(real)
    ids = docs.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(ids, kind="stable")
    docs = docs.take(pa.array(order))
    ids = ids[order]
    toks = pc.split_pattern(
        pc.fill_null(docs.column("text").combine_chunks(), ""), " "
    )
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = pc.list_flatten(toks)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    offs = np.concatenate([[0], np.cumsum(lens)])
    total = int(offs[-1])
    if spans.num_rows > 0 and total > 0:
        sdoc = spans.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        sstart = spans.column("span_start").to_numpy(zero_copy_only=False)
        send = spans.column("span_end").to_numpy(zero_copy_only=False)
        row = np.searchsorted(ids, sdoc)
        ok = (row < len(ids)) & (ids[np.minimum(row, len(ids) - 1)] == sdoc)
        row, sstart, send = row[ok], sstart[ok], send[ok]
        delta = np.zeros(total + 1, dtype=np.int64)
        np.add.at(delta, offs[row] + sstart, 1)
        np.add.at(delta, offs[row] + send, -1)
        keep = np.cumsum(delta[:-1]) == 0
    else:
        keep = np.ones(total, dtype=bool)
    csum = np.concatenate([[0], np.cumsum(keep)])
    new_lens = csum[offs[1:]] - csum[offs[:-1]]
    kept_flat = flat.filter(pa.array(keep))
    new_offs = np.concatenate([[0], np.cumsum(new_lens)]).astype(np.int64)
    lst = pa.LargeListArray.from_arrays(pa.array(new_offs, pa.int64()), kept_flat)
    text_new = pc.binary_join(lst, pa.scalar(" "))
    cols = {
        "doc_id": pa.array(ids, pa.int64()),
        "text": text_new,
        "ntok": pa.array(new_lens, pa.int64()),
        "ntok_cut": pa.array(lens - new_lens, pa.int64()),
    }
    for c in extra:
        cols[c] = docs.column(c).combine_chunks()
    return pa.table(cols)


def trim_substring_spans(
    sf_dir: str | None = None,
    k: int = K_TOKENS,
    min_count: int = MIN_COUNT,
    docs_path: str | None = None,
    columns: tuple = ("doc_id", "text"),
):
    """Apply the :func:`dedup_substring` cut list to the corpus: every
    token covered by a duplicated k-window span is dropped (ALL
    occurrences — the conservative variant of the Lee et al. cut list)
    and the document text is rebuilt from the surviving tokens. Returns
    (doc_id, text, ntok, ntok_cut, *extra passthrough columns) for every
    input document; text is reconstructed as the single-space join of
    kept tokens, which is lossless under space tokenization.

    Scale shape: the span exchange is pinned to the SAME
    ``doc_id % nbuckets`` partitioning as a one-move split of the docs,
    so span application is a co-partitioned bucket task — no extra
    shuffle and no doc text in the span exchange."""
    if docs_path is None:
        docs_path = f"{sf_dir}/documents.parquet"
    # ONE scan: materialize the docs first, derive the window stream from
    # the plasma-resident blocks (the lazy-read variant re-executed the
    # parquet read for the window pass AND the doc split)
    mat_docs = ray.data.read_parquet(docs_path, columns=list(columns)).materialize()
    docs = exchange.plan(mat_docs)
    if docs.rows == 0:
        rsch = mat_docs.schema()
        if rsch is not None:
            sch = rsch.base_schema
        else:  # zero-block dataset: take the schema from the files
            import pyarrow.dataset as pads

            sch = pads.dataset(docs_path).schema
            sch = pa.schema([sch.field(c) for c in columns])
        fields = [
            ("doc_id", pa.int64()),
            ("text", pa.string()),
            ("ntok", pa.int64()),
            ("ntok_cut", pa.int64()),
        ] + [
            (c, sch.field(c).type)
            for c in sch.names
            if c not in ("doc_id", "text")
        ]
        return rd.from_arrow(pa.schema(fields).empty_table())
    # the docs' plan sizes the trim: its bucket count co-partitions spans
    nbuckets = docs.buckets
    spans = _cut_list(mat_docs, k, min_count, nbuckets=nbuckets)
    # no duplicated window anywhere: every doc passes through untrimmed
    span_refs = (
        [ray.put(_SPANS_EMPTY)] * nbuckets if spans is None
        else [ref for ref, _ in spans]
    )
    doc_split = exchange.split(
        _span_split_impl, (), docs, mat_docs.schema().base_schema,
    )
    # the span refs ride as group 0: bucket b's task gets its spans first
    return exchange.reduce([span_refs] + doc_split, _trim_bucket_impl, (k,))


def trim_substring_spans_sql(
    k: int = K_TOKENS, min_count: int = MIN_COUNT
) -> str:
    return f"""
    WITH toks AS (
      SELECT doc_id, string_split(coalesce(text, ''), ' ') AS t FROM documents
    ),
    wins AS (
      SELECT doc_id, CAST(u.i - 1 AS BIGINT) AS s,
             array_to_string(t[u.i : u.i + {k} - 1], ' ') AS w
      FROM toks, unnest(generate_series(1, len(t) - {k} + 1)) AS u(i)
    ),
    dup AS (SELECT w FROM wins GROUP BY w HAVING count(*) >= {min_count}),
    d AS (SELECT doc_id, s FROM wins JOIN dup USING (w)),
    tok AS (
      SELECT doc_id, CAST(u.i - 1 AS BIGINT) AS i, t[u.i] AS tok
      FROM toks, unnest(generate_series(1, len(t))) AS u(i)
    ),
    kept AS (
      SELECT tk.doc_id, tk.i, tk.tok FROM tok tk
      WHERE NOT EXISTS (
        SELECT 1 FROM d
        WHERE d.doc_id = tk.doc_id AND tk.i >= d.s AND tk.i < d.s + {k}
      )
    ),
    agg AS (
      SELECT doc_id, string_agg(tok, ' ' ORDER BY i) AS text,
             CAST(count(*) AS BIGINT) AS ntok
      FROM kept GROUP BY doc_id
    )
    SELECT toks.doc_id, coalesce(agg.text, '') AS text,
           coalesce(agg.ntok, 0) AS ntok,
           CAST(len(toks.t) AS BIGINT) - coalesce(agg.ntok, 0) AS ntok_cut
    FROM toks LEFT JOIN agg USING (doc_id)
    """


def dedup_substring_sql(k: int = K_TOKENS, min_count: int = MIN_COUNT) -> str:
    return f"""
    WITH toks AS (
      SELECT doc_id, string_split(coalesce(text, ''), ' ') AS t FROM documents
    ),
    wins AS (
      SELECT doc_id, CAST(u.i - 1 AS BIGINT) AS s,
             array_to_string(t[u.i : u.i + {k} - 1], ' ') AS w
      FROM toks, unnest(generate_series(1, len(t) - {k} + 1)) AS u(i)
    ),
    dup AS (SELECT w FROM wins GROUP BY w HAVING count(*) >= {min_count}),
    d AS (SELECT doc_id, s FROM wins JOIN dup USING (w)),
    flagged AS (
      SELECT doc_id, s,
             CASE WHEN lag(s) OVER (PARTITION BY doc_id ORDER BY s) IS NULL
                    OR s > lag(s) OVER (PARTITION BY doc_id ORDER BY s) + {k}
                  THEN 1 ELSE 0 END AS new_span
      FROM d
    ),
    g AS (
      SELECT doc_id, s,
             sum(new_span) OVER (
               PARTITION BY doc_id ORDER BY s
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
             ) AS grp
      FROM flagged
    )
    SELECT doc_id, min(s) AS span_start, max(s) + {k} AS span_end,
           CAST(count(*) AS BIGINT) AS n_windows
    FROM g GROUP BY doc_id, grp
    """
