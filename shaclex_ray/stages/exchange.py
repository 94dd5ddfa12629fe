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
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

SPLIT_ROWS = 2_000_000  # most rows one split group carries
TASK_ROWS = 200_000  # rows that justify one more split group or bucket


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


def run_split(kernel, args, nbuckets: int, schema: pa.Schema, columns, *inputs):
    """One split group in this process: read file inputs (``columns``
    only), drop degenerate blocks, run ``kernel`` over the group's rows.
    Returns the ``nbuckets`` tables."""
    tbls = [pq.read_table(x, columns=columns) if isinstance(x, str) else x
            for x in inputs]
    # upstream map_groups can emit zero-row blocks with no columns at all
    real = [t if columns is None else t.select(columns)
            for t in tbls if t.num_rows and t.num_columns]
    if real:
        tbl = pa.concat_tables(real)  # zero-copy: chunked views of the blocks
    else:
        tbl = schema.empty_table()
        if columns is not None:
            tbl = tbl.select(columns)
    parts = tuple(kernel(tbl, nbuckets, *args))
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
