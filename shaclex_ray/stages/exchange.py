"""The one hash exchange: split tasks partition rows into buckets, then
one bucket task per bucket merges them.

Every set-at-a-time operator of the engine (triple dedup, grouped
aggregates and top-k, validation bucketing, curation, events) moves its
rows through this module. A site supplies only its semantic kernels:

  * a split kernel ``kernel(tbl, nbuckets, *args)`` that runs the
    map-side combine on one group's rows, computes a bucket id per row
    and returns ``partition(...)`` of the result — always ``nbuckets``
    tables, whatever ``nbuckets`` is;
  * a bucket kernel ``bucket_kernel(*args, *parts)`` that merges one
    bucket's parts (one per split group, group order).

:func:`split` owns everything between: it groups the inputs (parquet
files, which the split task reads itself with column pruning, or block
refs), drops zero-row and zero-column blocks, hands an all-empty group
the caller's ``schema.empty_table()`` so its partials stay typed, and
unwraps Ray's single return at one bucket. :func:`reduce` fans bucket
``b``'s parts into one task and wraps the results as a Dataset.

Group rule — the only one::

    groups = clamp(max(min(nbuckets, ceil(rows / TASK_ROWS)),
                       ceil(rows / SPLIT_ROWS)),
                   1, len(inputs))

The first term spreads the split over up to ``nbuckets`` tasks, but a
tiny input gets one group per ``TASK_ROWS`` rows rather than
``nbuckets`` groups, so it never fans out ``nbuckets × nbuckets``
near-empty refs. The second term bounds the rows a group carries, so a
split task holds its group plus working copies (``SPLIT_ROWS`` rows is a
few hundred MB) at any corpus scale. ``rows`` is the caller's count of
the rows the exchange moves; a site whose split kernel expands its input
passes the expanded estimate.

:func:`join` is the engine's one equi-join, built on the same exchange.
Its probe kernel sorts the build side by key and finds each probe row's
matches with a ``searchsorted`` range probe, then ``take``s the payload,
so any payload type rides (``list<float>``, binary). A build side under
``BCAST_BYTES`` is sorted in one task and each probe block is probed in
a task of its own; a larger one and the probe side both split on the
key hash into the same buckets and each bucket probes locally.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

SPLIT_ROWS = 2_000_000  # most rows one split group carries
TASK_ROWS = 200_000  # rows that justify one more split group or bucket
BCAST_BYTES = 64 << 20  # a join broadcasts a build side smaller than this


def partition(tbl: pa.Table, bucket_ids, nbuckets: int) -> tuple[pa.Table, ...]:
    """``tbl`` as ``nbuckets`` zero-copy slices, bucket ``b`` holding the
    rows whose ``bucket_ids`` entry is ``b``, in their order in ``tbl``.
    One stable argsort (skipped when the ids are already nondecreasing),
    then ``searchsorted`` for the bounds."""
    b = np.asarray(bucket_ids).astype(np.int64, copy=False)
    if len(b) > 1 and (b[1:] < b[:-1]).any():
        order = np.argsort(b, kind="stable")
        tbl, b = tbl.take(pa.array(order)), b[order]
    bounds = np.searchsorted(b, np.arange(nbuckets + 1))
    return tuple(
        tbl.slice(bounds[i], bounds[i + 1] - bounds[i]) for i in range(nbuckets)
    )


def group_count(rows: int, nbuckets: int, ninputs: int) -> int:
    """Split groups for ``rows`` rows in ``ninputs`` inputs (module
    docstring)."""
    want = max(
        min(nbuckets, math.ceil(rows / TASK_ROWS)), math.ceil(rows / SPLIT_ROWS)
    )
    return max(1, min(ninputs, want))


def default_buckets(rows: int) -> int:
    """One bucket per ``TASK_ROWS`` rows, at most one per cluster CPU."""
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    return max(1, min(ncpu, rows // TASK_ROWS + 1))


def _gather(schema: pa.Schema, columns, inputs) -> pa.Table:
    """One table of ``inputs`` (parquet paths, read for ``columns`` only,
    or tables) without their degenerate blocks; ``schema``'s empty table
    when no block has rows."""
    tbls = [pq.read_table(x, columns=columns) if isinstance(x, str) else x
            for x in inputs]
    # upstream map_groups can emit zero-row blocks with no columns at all
    real = [t if columns is None else t.select(columns)
            for t in tbls if t.num_rows and t.num_columns]
    if real:
        return pa.concat_tables(real)  # zero-copy: chunked views of the blocks
    tbl = schema.empty_table()
    return tbl if columns is None else tbl.select(columns)


def run_split(kernel, args, nbuckets: int, schema: pa.Schema, columns, *inputs):
    """One split group in this process: read file inputs (``columns``
    only), drop degenerate blocks, run ``kernel`` over the group's rows.
    Returns the ``nbuckets`` tables."""
    parts = tuple(kernel(_gather(schema, columns, inputs), nbuckets, *args))
    assert len(parts) == nbuckets, (kernel.__name__, len(parts), nbuckets)
    return parts


def _split_task(kernel, nbuckets, schema, columns, nargs, *rest):
    # kernel args travel as top-level task arguments so Ray resolves any
    # object refs among them
    parts = run_split(kernel, rest[:nargs], nbuckets, schema, columns,
                      *rest[nargs:])
    return parts[0] if nbuckets == 1 else parts


_split_remote = ray.remote(_split_task)


def split(kernel, args, inputs, rows: int, nbuckets: int, schema: pa.Schema,
          columns=None) -> list[list]:
    """Run ``kernel`` over strided groups of ``inputs`` (parquet paths or
    block refs) in split tasks. Returns the group-major ref matrix:
    ``refs[g][b]`` is group ``g``'s part of bucket ``b``. ``schema``
    types the kernel's input when a group holds no rows (no inputs at
    all is one such group)."""
    inputs = list(inputs)
    ngroups = group_count(rows, nbuckets, len(inputs))
    task = _split_remote.options(num_returns=nbuckets)
    out = []
    for g in range(ngroups):
        refs = task.remote(kernel, nbuckets, schema, columns, len(args),
                           *args, *inputs[g::ngroups])
        out.append([refs] if nbuckets == 1 else list(refs))
    return out


def reduce(split_refs: list[list], bucket_kernel, args=()):
    """One ``bucket_kernel(*args, *parts)`` task per bucket over that
    bucket's part of every group in ``split_refs`` (group order), as a
    Dataset of one block per bucket, in bucket order."""
    import ray.data as rd

    task = ray.remote(bucket_kernel)
    nbuckets = len(split_refs[0])
    return rd.from_arrow_refs([
        task.remote(*args, *[grp[b] for grp in split_refs])
        for b in range(nbuckets)
    ])


# ------------------------------------------------------------------ join

def _key_codes(tbl: pa.Table, cols, uniq) -> np.ndarray:
    """One int64 code per row of ``tbl``'s key ``cols``: mixed-radix
    digits, each the value's position among the build side's distinct
    values ``uniq`` of that column; -1 where a key is null or absent."""
    code = np.zeros(tbl.num_rows, np.int64)
    miss = np.zeros(tbl.num_rows, bool)
    for col, u in zip(cols, uniq):
        digit = pc.index_in(tbl.column(col), value_set=u)
        miss |= digit.is_null().to_numpy(zero_copy_only=False)
        code = code * len(u) + pc.fill_null(digit, 0).to_numpy(zero_copy_only=False)
    code[miss] = -1
    return code


def _sorted_build(build: pa.Table, build_on):
    """The build side ready to probe: its distinct key values per key
    column, its rows' key codes in ascending order, and its payload (the
    non-key columns) in that order."""
    uniq = [pc.unique(pc.drop_null(build.column(c))) for c in build_on]
    code = _key_codes(build, build_on, uniq)
    order = np.argsort(code, kind="stable")
    return uniq, code[order], build.drop_columns(build_on).take(pa.array(order))


def _ragged_arange(lens: np.ndarray) -> np.ndarray:
    """[0..l0) ++ [0..l1) ++ … as one array (vectorized ragged ranges)."""
    starts = np.cumsum(lens) - lens
    return np.arange(int(lens.sum())) - np.repeat(starts, lens)


def _probe(tbl: pa.Table, on, how: str, build) -> pa.Table:
    """``tbl`` joined with a ``_sorted_build`` side: each probe row, in
    order, once per matching build row (build order); under
    ``left_outer`` a row with no match once, its payload null."""
    uniq, keys, payload = build
    code = _key_codes(tbl, on, uniq)
    lo = np.searchsorted(keys, code, "left")
    cnt = np.searchsorted(keys, code, "right") - lo
    cnt[code < 0] = 0
    miss = None
    if how == "left_outer":
        miss = np.repeat(cnt == 0, np.maximum(cnt, 1))
        cnt = np.maximum(cnt, 1)
    at = pa.array(np.repeat(lo, cnt) + _ragged_arange(cnt), mask=miss)
    out = tbl.take(pa.array(np.repeat(np.arange(tbl.num_rows), cnt)))
    for name, col in zip(payload.column_names, payload.columns):
        out = out.append_column(name, col.take(at))
    return out


def _build_task(schema, build_on, *blocks):
    return _sorted_build(_gather(schema, None, blocks), build_on)


_build_remote = ray.remote(_build_task)
_probe_remote = ray.remote(_probe)


def _join_split(tbl: pa.Table, nbuckets: int, cols, types):
    """Bucket by the hash of the key columns cast to the build side's
    types, so equal keys of both sides meet in one bucket."""
    from shaclex_ray.stages.dedup import _row_hash

    keys = pa.table({f"k{i}": pc.cast(tbl.column(c), t)
                     for i, (c, t) in enumerate(zip(cols, types))})
    h = _row_hash(keys, keys.column_names)
    return partition(tbl, (h % np.uint64(nbuckets)).astype(np.int64), nbuckets)


def _join_bucket(on, build_on, how, nprobe, *parts):
    build = _sorted_build(pa.concat_tables(parts[nprobe:]), build_on)
    return _probe(pa.concat_tables(parts[:nprobe]), on, how, build)


def _arrow_schema(ds) -> pa.Schema | None:
    s = ds.schema()
    return None if s is None else pa.schema(list(zip(s.names, s.types)))


def _row_blocks(ds) -> list:
    """Refs of the materialized ``ds``'s blocks that hold rows (a zero-row
    block may have no columns at all, and ``map_batches`` turns a typed
    one into such a block)."""
    return [ref for bundle in ds.iter_internal_ref_bundles()
            for ref, meta in bundle.blocks if meta.num_rows]


def _nonempty(ds, schema: pa.Schema):
    """``ds`` without its zero-row blocks, or one empty table of
    ``schema`` when no block has rows."""
    import ray.data as rd

    refs = _row_blocks(ds)
    return rd.from_arrow_refs(refs) if refs else rd.from_arrow(schema.empty_table())


def join(probe, build, on, build_on=None, how: str = "inner"):
    """Equi-join of the Datasets ``probe`` and ``build`` on ``probe.on ==
    build.build_on`` (``build_on`` defaults to ``on``), ``how`` being
    ``"inner"`` or ``"left_outer"``. The output has the probe side's
    columns, then the build side's non-key columns; the two sets must
    not share a name. A duplicate build key emits every match and a null
    key matches nothing. Both sides are materialized; the output holds
    no zero-row block unless it is empty, then one typed empty table.

    The materialized build side's ``size_bytes()`` picks the placement:
    below ``BCAST_BYTES`` one task sorts it and one task per probe block
    probes its ref; otherwise both sides split on the key hash into
    ``default_buckets`` buckets that probe locally."""
    import ray.data as rd

    if how not in ("inner", "left_outer"):
        raise ValueError(f"unsupported join type {how!r}")
    on = list(on)
    build_on = list(build_on or on)
    probe, build = probe.materialize(), build.materialize()
    pschema, bschema = _arrow_schema(probe), _arrow_schema(build)
    if pschema is None and bschema is None:
        return probe  # two sides without blocks: nothing to type the output
    # a side with no blocks at all has no schema: give it its keys alone
    if bschema is None:
        bschema = pa.schema([(b, pschema.field(p).type)
                             for p, b in zip(on, build_on)])
    if pschema is None:
        pschema = pa.schema([(p, bschema.field(b).type)
                             for p, b in zip(on, build_on)])
    payload = [f for f in bschema if f.name not in build_on]
    clash = set(pschema.names) & {f.name for f in payload}
    if clash:
        raise ValueError(f"join output would repeat columns {sorted(clash)}")
    schema = pa.schema(list(pschema) + payload)
    nprobe = probe.count()
    if nprobe == 0:
        return rd.from_arrow(schema.empty_table())

    if build.size_bytes() < BCAST_BYTES:
        ref = _build_remote.remote(bschema, build_on, *build.to_arrow_refs())
        # the ref rides as a task argument, so each probe task maps the
        # sorted build side from the object store (zero-copy)
        return _nonempty(rd.from_arrow_refs([
            _probe_remote.remote(blk, on, how, ref) for blk in _row_blocks(probe)
        ]), schema)

    nbuild = build.count()
    nbuckets = default_buckets(nprobe + nbuild)
    types = [bschema.field(b).type for b in build_on]
    probe_refs = split(_join_split, (on, types), probe.to_arrow_refs(),
                       nprobe, nbuckets, pschema)
    build_refs = split(_join_split, (build_on, types), build.to_arrow_refs(),
                       nbuild, nbuckets, bschema)
    return _nonempty(reduce(probe_refs + build_refs, _join_bucket,
                            (on, build_on, how, len(probe_refs))), schema)
