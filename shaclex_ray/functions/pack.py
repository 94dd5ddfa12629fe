"""Sequence packing for LLM training data: concatenate documents in
doc_id order and split the token stream into fixed-capacity chunks
("concat-and-chunk" packing — the standard pretraining layout). A doc may
span chunks; the output maps every (doc, chunk) overlap with its token
span, so a chunk's contents are exactly reconstructible.

Distributed shape — the ordered PREFIX-SUM pattern, on the one exchange
(``stages/exchange.py``):
  1. split tasks compute per-doc token counts and range-partition them
     by doc_id (dense ids → bucket arithmetic over the footer statistics'
     bounds, no sampling pass);
  2. one tiny task per bucket sums its token counts, and the driver
     exclusive-scans the B sums into base offsets;
  3. one bucket task per bucket sorts it, cumsums, adds its base and
     explodes the chunk overlaps — returned as a Dataset, or written as
     the bucket's shard (``output_dir=``, ``exchange.sink``).
No global sort, no shuffle of the token payload, a B-int driver step.
The DuckDB oracle is a window cumsum + generate_series (exact BIGINT
arithmetic), so the whole operator hash-checks.

No reference counterpart (weso/shaclex is a validator); this belongs to
the training-data operator family graded alongside SURVEY §2.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from shaclex_ray.sources.documents import parquet_files
from shaclex_ray.stages import exchange

DOCS_SCHEMA = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])
PACKED_SCHEMA = pa.schema(
    [("chunk_id", pa.int64()), ("doc_id", pa.int64()),
     ("begin_in_chunk", pa.int64()), ("ntok_in_chunk", pa.int64())]
)


def _bucket_ids(ids: np.ndarray, lo: int, span: int, nbuckets: int) -> np.ndarray:
    """The range bucket of each doc_id: ``[lo, lo + span)`` cut into
    ``nbuckets`` equal ranges, in doc_id order."""
    return (ids - lo) * nbuckets // span


def _count_split(tbl: pa.Table, nbuckets: int, lo: int, span: int):
    """Split kernel: (doc_id, ntok) per doc, in its doc_id range bucket."""
    toks = pc.split_pattern(pc.fill_null(tbl.column("text"), ""), " ")
    counts = pa.table({
        "doc_id": pc.cast(tbl.column("doc_id"), pa.int64()),
        "ntok": pc.cast(pc.list_value_length(toks), pa.int64()),
    })
    ids = counts.column("doc_id").to_numpy()
    return exchange.partition(counts, _bucket_ids(ids, lo, span, nbuckets),
                              nbuckets)


@ray.remote
def _ntok_sum(*parts: pa.Table) -> int:
    return sum(pc.sum(t.column("ntok")).as_py() or 0 for t in parts)


def _explode(capacity: int, lo: int, span: int, bases: np.ndarray,
             *parts: pa.Table) -> pa.Table:
    """Bucket kernel: the bucket's docs in doc_id order, their token
    offsets from the bucket's base, and one row per (doc, chunk)
    overlap."""
    tbl = pa.concat_tables(parts)
    ids = tbl.column("doc_id").to_numpy()
    ntok = tbl.column("ntok").to_numpy()
    order = np.argsort(ids, kind="stable")
    ids, ntok = ids[order], ntok[order]
    base = bases[_bucket_ids(ids[0], lo, span, len(bases))] if len(ids) else 0
    ends = np.cumsum(ntok) + base
    starts = ends - ntok
    nz = ntok > 0  # empty docs occupy no chunk
    ids, starts, ends = ids[nz], starts[nz], ends[nz]
    first_chunk = starts // capacity
    spans = (ends - 1) // capacity - first_chunk + 1
    doc_of = np.repeat(np.arange(len(ids)), spans)
    chunk = first_chunk[doc_of] + exchange._ragged_arange(spans)
    cstart = chunk * capacity
    seg_start = np.maximum(starts[doc_of], cstart)
    seg_end = np.minimum(ends[doc_of], cstart + capacity)
    return pa.table(
        [chunk, ids[doc_of], seg_start - cstart, seg_end - seg_start],
        schema=PACKED_SCHEMA,
    )


@ray.remote
def _scan_bounds(files: list[str]) -> tuple[int | None, int | None]:
    """(min, max) of doc_id over ``files``, read from the column itself."""
    mm = [pc.min_max(pq.read_table(f, columns=["doc_id"]).column(0)) for f in files]
    lo = [m["min"].as_py() for m in mm if m["min"].is_valid]
    hi = [m["max"].as_py() for m in mm if m["max"].is_valid]
    return (min(lo), max(hi)) if lo else (None, None)


def _doc_id_bounds(files: list[str]) -> tuple[int | None, int | None]:
    """(min, max) of doc_id over parquet ``files`` from the row-group
    statistics — a metadata read; when a row group with rows lacks them,
    one task reads the doc_id column. (None, None) when there are no
    rows."""
    lo = hi = None
    for f in files:
        meta = pq.read_metadata(f)
        col = meta.schema.names.index("doc_id")
        for rg in range(meta.num_row_groups):
            group = meta.row_group(rg)
            if not group.num_rows:
                continue
            st = group.column(col).statistics
            if st is None or not st.has_min_max:
                return ray.get(_scan_bounds.remote(files))
            lo = st.min if lo is None else min(lo, st.min)
            hi = st.max if hi is None else max(hi, st.max)
    return lo, hi


def pack_sequences(
    sf_dir: str | None = None,
    capacity: int = 512,
    docs_path: str | None = None,
    output_dir: str | None = None,
):
    """documents.parquet -> (chunk_id, doc_id, begin_in_chunk, ntok_in_chunk)

    ``begin_in_chunk`` is the token offset of this doc's first token inside
    ``chunk_id``; a doc spanning k chunks emits k rows. Deterministic given
    the input (doc_id order), independent of partitioning.

    ``docs_path`` overrides the default ``<sf_dir>/documents.parquet`` —
    the curation pipeline packs its curated-train shard this way. Returns
    the packing as a Dataset or, with ``output_dir``, its row count: the
    bucket tasks write it there, and an empty or missing input writes one
    typed empty part (``exchange.sink``)."""
    if docs_path is None:
        docs_path = f"{sf_dir}/documents.parquet"
    files = parquet_files(docs_path) if os.path.exists(docs_path) else []
    lo, hi = _doc_id_bounds(files)
    if lo is None:  # no rows: one empty bucket
        lo, hi = 0, 0
    cols = DOCS_SCHEMA.names
    plan = exchange.plan(files, cols)
    span = hi - lo + 1
    nb = min(plan.buckets, span)
    split_refs = exchange.split(_count_split, (lo, span), plan, DOCS_SCHEMA,
                                cols, nbuckets=nb)
    sums = ray.get([_ntok_sum.remote(*[g[b] for g in split_refs])
                    for b in range(nb)])
    bases = np.cumsum([0] + sums[:-1])
    args = (capacity, lo, span, bases)
    if output_dir is None:
        return exchange.reduce(split_refs, _explode, args)
    return sum(exchange.sink(split_refs, _explode, args, output_dir))


def pack_sequences_sql(capacity: int = 512) -> str:
    """DuckDB twin: window cumsum over doc_id order + generate_series over
    the chunk span — identical BIGINT arithmetic to the Ray side."""
    return f"""
WITH counts AS (
  SELECT doc_id, CAST(len(string_split(coalesce(text, ''), ' ')) AS BIGINT) AS ntok
  FROM documents
),
offs AS (
  SELECT doc_id, ntok,
         SUM(ntok) OVER (ORDER BY doc_id
                         ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS prev
  FROM counts
),
spans AS (
  -- the window SUM yields HUGEINT; everything downstream is BIGINT
  SELECT doc_id, ntok,
         CAST(COALESCE(prev, 0) AS BIGINT) AS start_tok,
         CAST(COALESCE(prev, 0) + ntok AS BIGINT) AS end_tok
  FROM offs WHERE ntok > 0
)
SELECT u.c AS chunk_id,
       doc_id,
       greatest(start_tok, u.c * {capacity}) - u.c * {capacity} AS begin_in_chunk,
       least(end_tok, (u.c + 1) * {capacity})
         - greatest(start_tok, u.c * {capacity}) AS ntok_in_chunk
FROM spans,
     unnest(generate_series(start_tok // {capacity},
                            (end_tok - 1) // {capacity})) AS u(c)
"""
