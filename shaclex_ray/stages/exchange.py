"""The one hash exchange: split tasks partition rows into buckets, then
one bucket task per bucket merges them.

Every set-at-a-time operator of the engine (triple dedup, entity
links, grouped aggregates and top-k, validation bucketing, curation,
sequence packing, events) moves its rows through this module; no module
groups with Ray Data's sort-based ``groupby``. A site supplies only its semantic kernels:

  * a split kernel ``kernel(tbl, nbuckets, *args)`` that runs the
    map-side combine on one group's rows, computes a bucket id per row
    and returns ``partition(...)`` of the result — always ``nbuckets``
    tables, whatever ``nbuckets`` is;
  * a bucket kernel ``bucket_kernel(*args, *parts)`` that merges one
    bucket's parts (one per split group, group order).

:func:`plan` sizes every exchange, and nothing else does. It measures
an input (parquet files or a materialized Dataset) and returns its rows,
its in-memory bytes, the split groups, the buckets and the broadcast
verdict. :func:`split` runs the plan: it groups the inputs (parquet
files, which the split task reads itself with column pruning, or block
refs), drops zero-row and zero-column blocks, hands an all-empty group
the caller's ``schema.empty_table()`` so its partials stay typed, and
unwraps Ray's single return at one bucket. :func:`reduce` fans bucket
``b``'s parts into one task and wraps the non-empty results as a
Dataset; :func:`bucket_tasks` keeps every bucket's block, for a caller
that co-partitions them against a later split.

:func:`sink` (:func:`reduce` with an ``output_dir``) is the one writer:
each bucket task writes its rows as ``part-<b>.parquet`` and returns its
row count; only an all-empty output gets one typed empty part.

Plan rule — the only one::

    tasks     = max(1, min(cluster CPUs, ceil(nbytes / TASK_BYTES)),
                    ceil(nbytes / MAX_TASK_BYTES))
    groups    = clamp(tasks, 1, len(inputs))
    buckets   = tasks
    fleet     = min(buckets, cluster CPUs)
    broadcast = nbytes < BCAST_BYTES

The first term spreads the work over up to the cluster's CPUs, but a
small input gets one task per ``TASK_BYTES`` rather than one per CPU, so
it never fans out ``ncpu × ncpu`` near-empty refs. The second term bounds
what one task holds, so a split or bucket task keeps its share plus
working copies in memory at any corpus scale: past the CPU count the
task count grows with the data, not the cluster. A caller that needs one
bucket count across several splits (the two sides of a join, a
co-partitioned pair) plans each input and passes the larger count to
:func:`split` as ``nbuckets``.

``fleet`` sizes the validation fleet: its buckets' graphs all live at
once, so the memory bound buys nothing there, and buckets past the CPU
count only queue their round tasks. The bounds are on
task memory, not on the driver: past ``cluster CPUs × MAX_TASK_BYTES``
groups and buckets both grow with the data, so the ``groups × buckets``
ref matrix that :func:`split` returns to the driver grows with its
square (100 TB in at least 330k files: ~330k × 330k refs). A recursive
exchange — split into at most the CPU count of buckets, then split each
bucket again — is the remedy when inputs reach that size.

The rule counts bytes, not rows, because memory and work scale with
bytes: a corpus whose literals are ten times wider gets about ten times
the tasks at the same rows. ``nbytes`` is the Arrow (in-memory) size:
Ray's block metadata for blocks, and for parquet the footer row counts
times the Arrow bytes per row of a sample read from one row group (the
first ``_SAMPLE_ROWS`` rows of the first non-empty one). The footer's own
``total_uncompressed_size`` is not used: it is the *encoded* size
(dictionary and run-length pages), 3–10× below the Arrow size for KG
triples (raw triples 14.8 vs 146.9 B/row, canonical 59.4 vs 158.0 at
sf0.01), so the same table would plan apart as files and as blocks.
``TASK_BYTES`` and ``MAX_TASK_BYTES`` are the former row targets (200k
and 2M rows) at the ~150 B/row of KG triples.

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
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

TASK_BYTES = 30_000_000  # bytes that justify one more split group or bucket
MAX_TASK_BYTES = 300_000_000  # most bytes one split group or bucket carries
BCAST_BYTES = 64 << 20  # an input smaller than this is broadcast
_SAMPLE_ROWS = 65_536  # rows a parquet input's bytes per row are read from
_SAMPLE_BATCH = 4_096  # rows decoded at once while sampling; divides _SAMPLE_ROWS


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


@dataclass(frozen=True)
class Plan:
    """One exchange input as :func:`plan` measured and sized it."""

    inputs: tuple  # parquet paths, or the refs of the blocks with rows
    rows: int
    nbytes: int  # in-memory (Arrow) bytes
    groups: int
    buckets: int
    cpus: int  # the cluster's CPU count when planned

    @property
    def fleet(self) -> int:
        """Buckets for the validation fleet (module docstring)."""
        return min(self.buckets, self.cpus)

    @property
    def broadcast(self) -> bool:
        return self.nbytes < BCAST_BYTES


def _parquet_size(files, columns) -> tuple[int, int]:
    """(rows, Arrow bytes) of parquet ``files`` projected to ``columns``
    (module docstring)."""
    rows, per_row = 0, 0.0
    for f in files:
        pf = pq.ParquetFile(f)
        rows += pf.metadata.num_rows
        if not per_row and pf.metadata.num_rows:
            rg = next(i for i in range(pf.metadata.num_row_groups)
                      if pf.metadata.row_group(i).num_rows)
            # streamed in small batches, so the driver never holds the
            # whole sample decoded at once
            n = nbytes = 0
            for b in pf.iter_batches(_SAMPLE_BATCH, row_groups=[rg],
                                     columns=columns):
                n, nbytes = n + b.num_rows, nbytes + b.nbytes
                if n >= _SAMPLE_ROWS:
                    break
            per_row = nbytes / n
    return rows, math.ceil(rows * per_row)


def plan(inputs, columns=None) -> Plan:
    """Measure and size one exchange input (module docstring): parquet
    paths, read for ``columns``, or a materialized Dataset, whose block
    metadata gives rows and bytes."""
    if isinstance(inputs, (list, tuple)):
        refs = tuple(inputs)
        rows, nbytes = _parquet_size(refs, columns)
    else:
        blocks = _row_blocks(inputs)
        refs = tuple(ref for ref, _ in blocks)
        rows = sum(meta.num_rows for _, meta in blocks)
        nbytes = sum(meta.size_bytes for _, meta in blocks)
    ncpu = max(1, int(ray.cluster_resources().get("CPU", 1)))
    tasks = max(1, min(ncpu, math.ceil(nbytes / TASK_BYTES)),
                math.ceil(nbytes / MAX_TASK_BYTES))
    return Plan(refs, rows, nbytes, max(1, min(len(refs), tasks)), tasks, ncpu)


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


def split(kernel, args, plan: Plan, schema: pa.Schema, columns=None,
          nbuckets: int | None = None) -> list[list]:
    """Run ``kernel`` over ``plan.groups`` strided groups of
    ``plan.inputs`` in split tasks, into ``nbuckets`` buckets (default
    ``plan.buckets``). Returns the group-major ref matrix: ``refs[g][b]``
    is group ``g``'s part of bucket ``b``. ``schema`` types the kernel's
    input when a group holds no rows (no inputs at all is one such
    group)."""
    nbuckets = nbuckets or plan.buckets
    inputs, ngroups = plan.inputs, plan.groups
    task = _split_remote.options(num_returns=nbuckets)
    out = []
    for g in range(ngroups):
        refs = task.remote(kernel, nbuckets, schema, columns, len(args),
                           *args, *inputs[g::ngroups])
        out.append([refs] if nbuckets == 1 else list(refs))
    return out


def _counted(kernel, path, *args):
    """``kernel(*args)`` and its row count, a second return that
    :func:`nonempty` and :func:`sink` read without fetching the block.
    With a ``path``, the block is written there if it has rows, and its
    schema is returned in its place."""
    tbl = kernel(*args)
    if path is None:
        return tbl, tbl.num_rows
    if tbl.num_rows:
        pq.write_table(tbl, path)
    return tbl.schema, tbl.num_rows


_counted_remote = ray.remote(num_returns=2)(_counted)


def bucket_tasks(split_refs: list[list], bucket_kernel, args=(),
                 output_dir: str | None = None) -> list:
    """One ``bucket_kernel(*args, *parts)`` task per bucket over that
    bucket's part of every group in ``split_refs`` (group order). Returns
    bucket ``b``'s ``(block ref, row-count ref)`` at position ``b``, empty
    buckets included, so the blocks can ride as one co-partitioned group
    of a later exchange. With ``output_dir``, bucket ``b`` writes
    ``part-<b>.parquet`` there instead (:func:`sink`)."""
    task = _counted_remote.options(name=bucket_kernel.__name__)
    out = []
    for b in range(len(split_refs[0])):
        path = None if output_dir is None else f"{output_dir}/part-{b:05d}.parquet"
        out.append(task.remote(bucket_kernel, path, *args,
                               *[grp[b] for grp in split_refs]))
    return out


def nonempty(counted: list):
    """A Dataset of the blocks of ``counted`` (``(block ref, row-count
    ref)`` pairs) that hold rows, in order, or of the first block alone
    when none does. (``map_batches`` turns a zero-row block into one
    without columns.)"""
    import ray.data as rd

    rows = ray.get([n for _, n in counted])
    refs = [ref for (ref, _), n in zip(counted, rows) if n]
    return rd.from_arrow_refs(refs or [counted[0][0]])


def sink(split_refs: list[list], bucket_kernel, args, output_dir: str) -> list:
    """:func:`bucket_tasks` writing each bucket's rows to ``output_dir``
    (module docstring). Returns the buckets' row counts, in bucket order."""
    from shaclex_ray.state.checkpoint import ensure_parquet_schema

    os.makedirs(output_dir, exist_ok=True)
    done = bucket_tasks(split_refs, bucket_kernel, args, output_dir)
    rows = ray.get([n for _, n in done])
    if not any(rows):
        ensure_parquet_schema(output_dir, ray.get(done[0][0]))
    return rows


def reduce(split_refs: list[list], bucket_kernel, args=(),
           output_dir: str | None = None):
    """:func:`bucket_tasks` as a Dataset of the non-empty buckets' blocks,
    in bucket order (:func:`nonempty`); with ``output_dir``, the
    :func:`sink`'s parts as a lazy ``read_parts`` Dataset. Only the
    canonical dedup (``dedup_triples_fast_from_parquet``) takes that
    form: the benchmark's tracer materializes what it returns. Every
    other sink caller keeps the row counts :func:`sink` returns and
    builds no Dataset."""
    if output_dir is None:
        return nonempty(bucket_tasks(split_refs, bucket_kernel, args))
    from shaclex_ray.state.checkpoint import read_parts

    sink(split_refs, bucket_kernel, args, output_dir)
    return read_parts(output_dir)


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
    """(ref, metadata) of the materialized ``ds``'s blocks that hold rows
    (a zero-row block may have no columns at all, and ``map_batches``
    turns a typed one into such a block)."""
    return [(ref, meta) for bundle in ds.iter_internal_ref_bundles()
            for ref, meta in bundle.blocks if meta.num_rows]


def join(probe, build, on, build_on=None, how: str = "inner"):
    """Equi-join of the Datasets ``probe`` and ``build`` on ``probe.on ==
    build.build_on`` (``build_on`` defaults to ``on``), ``how`` being
    ``"inner"`` or ``"left_outer"``. The output has the probe side's
    columns, then the build side's non-key columns; the two sets must
    not share a name. A duplicate build key emits every match and a null
    key matches nothing. Both sides are materialized; the output holds
    no zero-row block unless it is empty, then one typed empty table.

    The build side's plan picks the placement: a broadcast build side is
    sorted in one task and one task per probe block probes its ref;
    otherwise both sides split on the key hash into the larger of their
    planned bucket counts, and each bucket probes locally."""
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
    pplan, bplan = plan(probe), plan(build)
    if pplan.rows == 0:
        return rd.from_arrow(schema.empty_table())

    if bplan.broadcast:
        ref = _build_remote.remote(bschema, build_on, *bplan.inputs)
        # the ref rides as a task argument, so each probe task maps the
        # sorted build side from the object store (zero-copy)
        task = _counted_remote.options(name="_probe")
        return nonempty([
            task.remote(_probe, None, blk, on, how, ref) for blk in pplan.inputs
        ])

    nbuckets = max(pplan.buckets, bplan.buckets)
    types = [bschema.field(b).type for b in build_on]
    probe_refs = split(_join_split, (on, types), pplan, pschema,
                       nbuckets=nbuckets)
    build_refs = split(_join_split, (build_on, types), bplan, bschema,
                       nbuckets=nbuckets)
    return reduce(probe_refs + build_refs, _join_bucket,
                  (on, build_on, how, len(probe_refs)))
