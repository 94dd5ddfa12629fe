"""Vectorized grouped aggregation via the one-move hash exchange.

Replaces ``groupby(key).map_groups(fn)`` reductions — which pay one
Python call per distinct key (per *document* / per *node* at corpus
scale) plus a sort-based shuffle — with:

  1. split tasks: map-side PARTIAL aggregation (Arrow
     ``Table.group_by().aggregate()``, all C++), then hash-partition the
     partials by key
  2. bucket tasks: final Arrow aggregate per bucket

One data move, zero per-group Python, through the one hash exchange
(``stages/exchange.py``), like ``stages/dedup.distinct_rows_fast``.

Supported agg fns and their partial/final decomposition:

  ======== ================= ===============
  fn        map-side partial  bucket final
  ======== ================= ===============
  min       min               min
  max       max               max
  sum       sum               sum
  count     count             sum
  ======== ================= ===============

``count_distinct`` is supported only when it is the SOLE aggregation
(map-side = distinct rows over keys+col, final = count_distinct);
mixing it with combinable fns would need two passes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from shaclex_ray.stages import exchange
from shaclex_ray.stages.dedup import _keep_rows, _row_hash
from shaclex_ray.stages.exchange import partition

_FINAL = {"min": "min", "max": "max", "sum": "sum", "count": "sum"}


def _partial_agg(tbl: pa.Table, keys: list[str], aggs: list[tuple[str, str]]) -> pa.Table:
    """Map-side combine: one Arrow group_by pass; output columns are
    ``{col}_{fn}`` (Arrow's default naming), keys last-to-first preserved."""
    return tbl.group_by(keys, use_threads=False).aggregate(aggs)


def _key_buckets(tbl: pa.Table, keys: list[str], nbuckets: int) -> np.ndarray:
    return (_row_hash(tbl, keys) % np.uint64(nbuckets)).astype(np.int64)


def _split_impl(
    tbl: pa.Table, nbuckets: int, keys: list[str], aggs: list[tuple[str, str]]
):
    part = _partial_agg(tbl, keys, aggs)
    return partition(part, _key_buckets(part, keys, nbuckets), nbuckets)


def _bucket_impl(
    keys: list[str],
    aggs: list[tuple[str, str]],
    names: list[str],
    *parts: pa.Table,
):
    base = pa.concat_tables(list(parts))
    final_aggs = [
        (f"{col}_{fn}", _FINAL[fn]) for col, fn in aggs
    ]
    out = base.group_by(keys, use_threads=False).aggregate(final_aggs)
    # output order: value columns first in Arrow's naming, keys after —
    # rename + reorder to keys-first with the caller's names
    val_cols = [f"{col}_{fn}_{_FINAL[fn]}" for col, fn in aggs]
    arrays = [out.column(k) for k in keys] + [out.column(v) for v in val_cols]
    return pa.table(dict(zip(list(keys) + list(names), arrays)))


def _split_distinct_impl(tbl: pa.Table, nbuckets: int, keys: list[str], dcol: str):
    """count_distinct map side: batch-local distinct over keys+dcol
    (combiner — shrinks the exchange), partitioned by KEY hash only so
    all of a key's rows land in one bucket. ONE lexsort by (key-bucket,
    row-hash) gives both the dedup adjacency and the partition bounds:
    equal row hashes imply equal keys imply equal key-buckets, so hash
    runs never straddle a bucket boundary (same argument as
    dedup._distinct_split_impl)."""
    cols = list(keys) + [dcol]
    base = tbl.select(cols)
    h = _row_hash(base, cols)
    b = _key_buckets(base, list(keys), nbuckets)
    order = np.lexsort((h, b))
    kept = _keep_rows(base, order, h, id_cols=cols, witness_cols=None)
    return partition(base.take(pa.array(kept)), b[kept], nbuckets)


def _bucket_distinct_impl(keys: list[str], col: str, name: str, *parts: pa.Table):
    base = pa.concat_tables(list(parts))
    out = base.group_by(keys, use_threads=False).aggregate([(col, "count_distinct")])
    arrays = [out.column(k) for k in keys] + [out.column(f"{col}_count_distinct")]
    return pa.table(dict(zip(list(keys) + [name], arrays)))


def grouped_aggregate_fast(
    ds,
    keys: list[str],
    aggs: list[tuple[str, str]],
    names: list[str],
    nbuckets: int | None = None,
):
    """GROUP BY ``keys`` computing ``aggs`` = [(col, fn), ...] named
    ``names`` — fully vectorized, one hash move, map-side combine.

    Returns a Ray Dataset with columns ``keys + names``. fn='count'
    counts non-null values of its col (use a key col for row counts —
    keys are never null here).
    """
    distinct_mode = any(fn == "count_distinct" for _, fn in aggs)
    if distinct_mode and len(aggs) != 1:
        # validate BEFORE the empty early-path so the schema contract
        # doesn't depend on whether the input happens to be empty
        raise ValueError("count_distinct must be the sole aggregation")
    mat = ds.materialize()
    plan = exchange.plan(mat)
    if plan.rows == 0:
        # the group-by of nothing is nothing — but a fully-empty upstream
        # can carry degenerate blocks (zero-column tables, or none at all),
        # so synthesize the exact output schema by running the SAME final
        # kernel driver-side on an empty canonical-schema table
        schema = mat.schema()
        needed = list(keys) + [c for c, _ in aggs]
        if schema is not None and set(needed) <= set(schema.names):
            src = pa.schema(list(zip(schema.names, schema.types))).empty_table()
            if distinct_mode:
                out = _bucket_distinct_impl(keys, aggs[0][0], names[0], src)
            else:
                out = _bucket_impl(keys, aggs, names, _partial_agg(src, keys, aggs))
            return rd.from_arrow(out)
        # schema missing entirely (Ray reports None for a fully-empty
        # map_batches chain) or lacking the needed columns (degenerate
        # empty blocks) — emit the expected column NAMES, null-typed, so
        # downstream map_batches still runs and the column contract holds
        return rd.from_arrow(
            pa.table({c: pa.array([], pa.null()) for c in list(keys) + list(names)})
        )

    # the dataset schema types an all-degenerate split group's partials
    schema = mat.schema()
    pa_schema = pa.schema(list(zip(schema.names, schema.types)))
    if distinct_mode:
        dcol = aggs[0][0]
        split_refs = exchange.split(
            _split_distinct_impl, (keys, dcol), plan, pa_schema,
            nbuckets=nbuckets,
        )
        return exchange.reduce(
            split_refs, _bucket_distinct_impl, (keys, dcol, names[0])
        )
    split_refs = exchange.split(
        _split_impl, (keys, aggs), plan, pa_schema, nbuckets=nbuckets
    )
    return exchange.reduce(split_refs, _bucket_impl, (keys, aggs, names))


# ------------------------------------------------------------ grouped topk
def _topk_kernel(
    tbl: pa.Table,
    key: str,
    sort_keys: list[tuple[str, str]],
    k: int,
    rank_name: str | None,
):
    """Per-key top-k of ``tbl`` by ``sort_keys`` — one lexsort + one
    segment-rank pass, no per-key Python. Selection by the full sort spec
    is order-monotone, so batch partials compose exactly with the final."""
    if tbl.num_rows == 0:
        if rank_name and rank_name not in tbl.column_names:
            tbl = tbl.append_column(rank_name, pa.array([], pa.int64()))
        return tbl
    dic = tbl.column(key).combine_chunks().dictionary_encode()
    idx = dic.indices
    if idx.null_count:
        # null keys form ONE group (SQL GROUP BY semantics; also how the
        # exchange's key hash partitions them) — without the fill the
        # indices degrade to float64 with NaN and NaN != NaN makes every
        # null-key row its own segment, returning them ALL with rank 1
        idx = pc.fill_null(idx, len(dic.dictionary))
    kcode = np.asarray(idx.to_numpy(zero_copy_only=False))
    crit = []
    for col, direction in reversed(sort_keys):
        v = tbl.column(col).to_numpy(zero_copy_only=False)
        if direction == "descending":
            # bitwise NOT is the overflow-free order-reversing bijection
            # for integers (plain negation maps uint 0 to the TOP and
            # wraps INT64_MIN onto itself); floats negate exactly
            v = np.invert(v) if v.dtype.kind in "iu" else -v
        crit.append(v)
    order = np.lexsort((*crit, kcode))
    ks = kcode[order]
    seg_start = np.zeros(len(ks), np.int64)
    new = np.ones(len(ks), bool)
    new[1:] = ks[1:] != ks[:-1]
    idx = np.arange(len(ks))
    seg_start = idx[new][np.cumsum(new) - 1]
    rank = idx - seg_start
    keep = rank < k
    out = tbl.take(pa.array(order[keep]))
    if rank_name:
        out = out.append_column(
            rank_name, pa.array(rank[keep] + 1, pa.int64())
        )
    return out


def _split_topk_impl(tbl, nbuckets, key, sort_keys, k):
    part = _topk_kernel(tbl, key, sort_keys, k, None)
    return partition(part, _key_buckets(part, [key], nbuckets), nbuckets)


def _bucket_topk_impl(key, sort_keys, k, rank_name, keep_cols, *parts):
    out = _topk_kernel(
        pa.concat_tables(list(parts)), key, sort_keys, k, rank_name
    )
    return out.select(keep_cols) if keep_cols else out


def grouped_topk(
    ds,
    key: str,
    sort_keys: list[tuple[str, str]],
    k: int,
    rank_name: str | None = None,
    keep_cols: list[str] | None = None,
    nbuckets: int | None = None,
    empty_schema: pa.Schema | None = None,
):
    """Per-``key`` top-k rows by ``sort_keys`` ([(col, 'ascending' |
    'descending'), ...]) as the one-move exchange: map-side partial top-k
    (the combiner — each split ships ≤ k rows per key it saw), hash
    exchange on the key, vectorized final top-k (+ optional 1-based
    ``rank_name``) per bucket. Replaces ``groupby(key).map_groups``
    reduces that pay one Python call per key. Sort columns must be
    numeric and non-null (descending uses the overflow-free bitwise-NOT
    reversal for ints, negation for floats); null KEYS group together."""
    mat = ds.materialize()
    plan = exchange.plan(mat)
    if plan.rows == 0:
        # zero block refs would leave the split kernel with no table to
        # synthesize a schema from — the empty input IS the empty answer
        schema = mat.schema()
        if schema is None:
            # a fully-empty upstream (e.g. an empty parquet read) can
            # surface ZERO blocks, so the dataset carries no schema at
            # all — fall back to the caller-declared output schema
            if empty_schema is not None:
                return rd.from_arrow(empty_schema.empty_table())
            return mat
        tbl = pa.schema(list(zip(schema.names, schema.types))).empty_table()
        if rank_name and rank_name not in tbl.column_names:
            tbl = tbl.append_column(rank_name, pa.array([], pa.int64()))
        if keep_cols:
            tbl = tbl.select(keep_cols)
        return rd.from_arrow(tbl)
    ds_schema = mat.schema()
    pa_schema = pa.schema(list(zip(ds_schema.names, ds_schema.types)))
    split_refs = exchange.split(
        _split_topk_impl, (key, sort_keys, k), plan, pa_schema,
        nbuckets=nbuckets,
    )
    return exchange.reduce(
        split_refs, _bucket_topk_impl, (key, sort_keys, k, rank_name, keep_cols)
    )
