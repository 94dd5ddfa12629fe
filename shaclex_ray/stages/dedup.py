"""Exact triple deduplication (SURVEY.md G10): RDF graphs are sets.

One explicit hash exchange, rows moving exactly once (north-star:
"salted hash shuffles + per-partition triple-dedup sort-merge"):

  1. split tasks: map-side combine (duplicates are overwhelmingly
     intra-document, hence intra-group) and a single-sort hash partition
     into ``nbuckets``
  2. bucket tasks: vectorized distinct of each bucket's partials.

Two entry points run the same split and bucket kernels:
``dedup_triples_fast_from_parquet`` (triples from a parquet directory,
canonicalized by the row function ``stages/link.canonicalize`` inside the
split tasks, least (doc_id, span_idx) witness kept) and
``distinct_rows_fast`` (any Dataset, full-row distinct).

Bucketing by a *hash of the full identity tuple* (not by ``subj``) means a
hub subject with 10^7 arcs spreads over all buckets — the salt is the
(pred, obj) part of the key, exactly the salted-aggregate shape from
SURVEY.md §4.2.

Hot path: a 64-bit row hash (polars ``hash_rows`` — vectorized Rust,
zero-copy from Arrow; deterministic for a fixed seed within one library
build, which a cluster shares) orders rows with an integer
``np.lexsort``; only rows whose hash collides with another row's (true
duplicates plus astronomically rare 64-bit collisions) get the exact
string comparison, so the expensive multi-key string sort touches the
duplicate fraction, never the whole table. Identical identities always
share a hash, so the result is EXACT — a unique-hash row can have no
duplicate. Determinism: the final table is a pure function of the input
rows (lineage column kept = lexicographically-least (doc_id, span_idx)
witness); bucket assignment is internal and never observable in output.
"""

from __future__ import annotations

import numpy as np
import polars as _pl
import pyarrow as pa
import pyarrow.compute as pc

from shaclex_ray.stages import exchange
from shaclex_ray.stages.exchange import partition
from shaclex_ray.stages.link import canonicalize
from shaclex_ray.terms import TRIPLE_ID_COLS, TRIPLES_SCHEMA

# lineage columns of a triple: the least (doc_id, span_idx) row survives
WITNESS_COLS = ["doc_id", "span_idx"]


def _row_hash(tbl: pa.Table, cols: list[str] | None = None) -> np.ndarray:
    """64-bit content hash of each row's identity tuple (vectorized).
    polars is a hard dependency: exchanges bucket rows by this hash, so a
    process hashing any other way would route them to other buckets than
    its peers, without any error."""
    cols = TRIPLE_ID_COLS if cols is None else cols
    if tbl.num_rows == 0:
        return np.zeros(0, dtype=np.uint64)
    sel = tbl.select(cols)
    return _pl.from_arrow(sel).hash_rows(seed=0).to_numpy().astype(np.uint64)


def _adjacent_identity_neq(tbl: pa.Table, id_cols: list[str]) -> np.ndarray:
    """bool[n-1]: row i+1's identity differs from row i's (vectorized).

    Null-aware with SQL-DISTINCT semantics (matching the row hash, which
    gives all nulls one fixed hash): null == null, null != value. Without
    the null handling, ``pc.not_equal`` yields null for any null operand
    and the numpy conversion degrades to an object array that crashes the
    ``|=`` — so a duplicate pair carrying a null identity column killed
    the whole task."""
    t = tbl.combine_chunks()
    m = t.num_rows
    neq = np.zeros(max(m - 1, 0), dtype=bool)
    for c in id_cols:
        arr = t.column(c).chunk(0)
        a, b = arr.slice(1), arr.slice(0, m - 1)
        d = pc.not_equal(a, b)
        if d.null_count:
            d = pc.or_(
                pc.fill_null(d, False), pc.xor(pc.is_null(a), pc.is_null(b))
            )
        neq |= d.to_numpy(zero_copy_only=False)
    return neq


def _keep_rows(
    base: pa.Table,
    order: np.ndarray,
    hs: np.ndarray,
    id_cols: list[str] | None = None,
    witness_cols: list[str] | None = None,
) -> np.ndarray:
    """Surviving row indices (into ``base``), in ``order``'s sequence.

    ``order`` must group equal hashes adjacently. Unique-hash rows
    survive untouched; rows inside an equal-hash run get the exact
    treatment: the run is ordered by the INTEGER witness columns (or kept
    as-is when ``witness_cols`` is None — full-row distinct keeps any
    one of a set of identical rows), the least witness per distinct
    identity survives, and identity equality is VERIFIED by string
    comparison. A run where verification finds a second identity (a
    64-bit hash collision) is re-treated with a full multi-key sort, so
    the result is exact — the string sort touches collision runs only,
    never the whole duplicate fraction."""
    id_cols = TRIPLE_ID_COLS if id_cols is None else id_cols
    n = len(order)
    if n <= 1:
        return order
    hso = hs[order]
    eq_prev = np.zeros(n, dtype=bool)
    eq_prev[1:] = hso[1:] == hso[:-1]
    run = eq_prev.copy()
    run[:-1] |= eq_prev[1:]
    if not run.any():
        return order
    sub_pos = np.flatnonzero(run)  # positions in the sorted sequence
    sub_rows = order[sub_pos]  # rows in base
    h_sub = hso[sub_pos]
    if witness_cols:
        # hash-then-witness sort of the dup subset via Arrow's C multi-key
        # sort (doc_id is a STRING column — np.lexsort would fall back to
        # object-dtype Python comparisons)
        sub_rows_pa = pa.array(sub_rows)
        wt = pa.table(
            {
                "_h": pa.array(h_sub),
                **{c: base.column(c).take(sub_rows_pa) for c in witness_cols},
            }
        )
        idx = pc.sort_indices(
            wt,
            sort_keys=[("_h", "ascending")]
            + [(c, "ascending") for c in witness_cols],
        ).to_numpy()
    else:
        idx = np.arange(len(sub_pos))
    sr = sub_rows[idx]
    h_sorted = h_sub[idx]
    neq = _adjacent_identity_neq(base.select(id_cols).take(pa.array(sr)), id_cols)
    m = len(sr)
    cont = np.zeros(m, dtype=bool)  # equal-hash continuation of previous row
    cont[1:] = h_sorted[1:] == h_sorted[:-1]
    keep_sub = ~cont  # keep each run's first (= least witness) row
    coll = cont[1:] & neq  # same hash, different identity: collision
    if coll.any():
        run_ids = np.cumsum(~cont) - 1
        bad_runs = np.unique(run_ids[1:][coll])
        bp = np.flatnonzero(np.isin(run_ids, bad_runs))
        bt = base.take(pa.array(sr[bp])).append_column(
            "_h", pa.array(h_sorted[bp])
        )
        skeys = [("_h", "ascending")] + [
            (c, "ascending") for c in list(id_cols) + list(witness_cols or [])
        ]
        sidx = pc.sort_indices(bt, sort_keys=skeys).to_numpy()
        st = bt.take(pa.array(sidx))
        nq = _adjacent_identity_neq(st.select(id_cols), id_cols)
        hh = h_sorted[bp][sidx]
        k = len(sidx)
        keep_bad = np.ones(k, dtype=bool)
        keep_bad[1:] = ~((hh[1:] == hh[:-1]) & ~nq)
        keep_sub[bp] = False
        keep_sub[bp[sidx[keep_bad]]] = True
    keep_mask = np.ones(n, dtype=bool)
    keep_mask[sub_pos[idx[~keep_sub]]] = False
    return order[keep_mask]


# ---------------------------------------------------------------------------
# the hash exchange (stages/exchange.py): split kernel = map-side combine +
# single-sort partition, bucket kernel = per-bucket vectorized distinct.
# One kernel pair serves both entry points below; witness columns select
# the triple case.

def _distinct_split_impl(
    base: pa.Table,
    nbuckets: int,
    cols: list[str],
    witness_cols: list[str] | None,
    canonical: bool,
):
    """Map side: distinct on ``cols`` (least ``witness_cols`` row kept, or
    any one of identical rows when None), partitioned by the same hash.

    ``canonical``: the triples first take the mention→entity rewrite
    (``stages/link.canonicalize``) here, so the rewritten table never
    materializes as an intermediate Dataset in the object store."""
    if canonical:
        base = canonicalize(base)
    h = _row_hash(base, cols)
    b = (h % np.uint64(nbuckets)).astype(np.int64)
    # ONE integer lexsort orders rows (bucket, hash): partition bounds and
    # the adjacency the dedup needs come from the same pass. Equal hashes
    # imply equal buckets, so hash runs never straddle a bucket boundary.
    order = np.lexsort((h, b))
    # surviving rows gathered in ONE take (the sorted full table is never
    # materialized)
    kept = _keep_rows(base, order, h, cols, witness_cols)
    return partition(base.take(pa.array(kept)), b[kept], nbuckets)


def _distinct_bucket_impl(
    cols: list[str], witness_cols: list[str] | None, *parts: pa.Table
) -> pa.Table:
    """Reduce side: the same distinct over one bucket's partials."""
    base = pa.concat_tables(list(parts))
    if base.num_rows <= 1:
        return base
    h = _row_hash(base, cols)
    order = np.argsort(h, kind="stable")
    kept = _keep_rows(base, order, h, cols, witness_cols)
    return base.take(pa.array(kept))


def dedup_triples_fast_from_parquet(path: str, nbuckets: int | None = None,
                                    output_dir: str | None = None):
    """Distinct canonical triples of a parquet directory (the KG
    pipeline's canonical stage), keeping the least (doc_id, span_idx)
    witness; with ``output_dir``, also written there, and returned as an
    ``exchange.Sunk`` of the same blocks (``exchange.reduce``).

    File-granular: each split task reads its own shard files (storage →
    task heap, no object-store staging), canonicalizes them
    (``stages/link.canonicalize``: mention IRIs rewritten, entity metadata
    triples appended; the identity on triples outside the mention
    namespace) and partitions in one pass — input bytes move exactly
    once, from storage into the exchange. Input that is already canonical
    comes out as its plain distinct. ``exchange.plan`` sizes the split
    groups and, unless ``nbuckets`` is given, the buckets from the
    shards' bytes."""
    import glob as _glob

    files = sorted(_glob.glob(f"{path}/*.parquet"))
    if not files:
        raise FileNotFoundError(f"no parquet shards under {path}")
    split_refs = exchange.split(
        _distinct_split_impl, (TRIPLE_ID_COLS, WITNESS_COLS, True),
        exchange.plan(files), TRIPLES_SCHEMA, nbuckets=nbuckets,
    )
    return exchange.reduce(
        split_refs, _distinct_bucket_impl, (TRIPLE_ID_COLS, WITNESS_COLS),
        output_dir,
    )


def distinct_rows_fast(ds, nbuckets: int | None = None, empty_schema=None):
    """Exact DISTINCT over all columns of a Dataset: the same exchange
    with no witness — one data move, no sort-based shuffle, no per-group
    Python calls (a groupby().map_groups distinct costs seconds of fixed
    overhead even on tiny intermediates)."""
    import ray.data as rd

    mat = ds.materialize()
    schema = mat.schema()
    if schema is None:
        # a fully-empty upstream can surface ZERO blocks (no schema at
        # all); the distinct of nothing is nothing — keep the declared
        # column set if the caller gave one so downstream maps see fields
        if empty_schema is not None:
            return rd.from_arrow(empty_schema.empty_table())
        return mat
    cols = schema.names
    # the dataset schema types the partials of an all-empty split group,
    # so they always concat with real ones
    pa_schema = pa.schema(list(zip(schema.names, schema.types)))
    split_refs = exchange.split(
        _distinct_split_impl, (cols, None, False), exchange.plan(mat),
        pa_schema, nbuckets=nbuckets,
    )
    return exchange.reduce(split_refs, _distinct_bucket_impl, (cols, None))
