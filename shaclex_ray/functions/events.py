"""Event-stream operators over the events table (training-data-pipeline
surface): tumbling-window aggregation, sessionization, as-of join, and
JSON-props extraction.

Reference parity note: the reference engine (weso/shaclex) has no event
operators — these are the §2-beyond "large-scale pipeline" components
(windowed aggregate / as-of join / streaming window from the build
brief), expressed Ray-Data-first:

- ``events_window_agg`` / ``events_json_stats``: batch-local partial
  aggregation (Arrow ``Table.group_by`` per batch) followed by a SMALL
  Dataset groupby over the partials — the shuffle moves one row per
  (window, type) per block, never the events themselves.
- ``events_sessions`` / ``events_asof_view``: ONE explicit hash exchange
  on ``user_id`` (same one-move pattern as dedup's band exchange), then
  fully vectorized numpy per bucket — sessionize/as-of ALL users of a
  bucket in one lexsort pass, no per-group Python calls. Partitioning
  assumption: one user's events fit in a bucket worker's memory (true by
  construction — a single user is never split across buckets, and a
  bucket holds |users|/nbuckets of the key space).

Float determinism: monetary ``value`` is summed as integer cents
(``rint(value*100)``) so sums are order-independent and bit-exact vs the
DuckDB oracles; the published doubles are reconstructed with the same
IEEE expression tree on both sides (cents/100.0, then /n).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from shaclex_ray.stages import exchange
from shaclex_ray.stages.exchange import partition

HOUR_US = 3_600_000_000
GAP_US_DEFAULT = 30 * 60 * 1_000_000  # 30-minute session gap

WINDOW_AGG_SCHEMA = pa.schema(
    [
        ("window_start", pa.timestamp("us")),
        ("event_type", pa.string()),
        ("n_events", pa.int64()),
        ("sum_value", pa.float64()),
        ("avg_value", pa.float64()),
    ]
)


def _read_events(sf_dir: str, columns):
    """Pruned events read under the engine's event policy: a row with a
    NULL timestamp cannot be placed in time and a NULL user_id cannot be
    keyed — both are DROPPED when the operator needs that column (the
    twins carry the matching IS NOT NULL predicates)."""
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=list(columns))
    need = [c for c in ("ts", "user_id") if c in columns]
    if not need:
        return ds

    def drop_unplaceable(batch: pa.Table) -> pa.Table:
        mask = None
        for c in need:
            valid = pc.is_valid(batch.column(c).combine_chunks())
            mask = valid if mask is None else pc.and_(mask, valid)
        return batch.filter(mask)

    return ds.map_batches(drop_unplaceable, batch_format="pyarrow")


def _cents(value_col: pa.ChunkedArray) -> np.ndarray:
    # null value reads as 0.0 (the twins coalesce(value, 0.0))
    v = pc.fill_null(
        value_col.combine_chunks()
        if isinstance(value_col, pa.ChunkedArray)
        else value_col,
        0.0,
    ).to_numpy(zero_copy_only=False)
    return np.rint(v * 100.0).astype(np.int64)


def _ts_us(tbl: pa.Table, col: str = "ts") -> np.ndarray:
    return tbl.column(col).cast(pa.int64()).to_numpy(zero_copy_only=False)


# ------------------------------------------------------- window aggregate

def events_window_agg(sf_dir: str):
    """Tumbling 1-hour windows per event_type: count, sum, avg of value.

    Pre-aggregates inside each batch (combiner) so the global groupby
    shuffles only (window, type) partials — the 100-TB shape where the
    exchange is O(windows × types), not O(events)."""

    def partial(batch: pa.Table) -> pa.Table:
        hour_idx = _ts_us(batch) // HOUR_US
        t = pa.table(
            {
                "hour_idx": pa.array(hour_idx, pa.int64()),
                "event_type": batch.column("event_type"),
                "cents": pa.array(_cents(batch.column("value")), pa.int64()),
                "one": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )
        return t.group_by(["hour_idx", "event_type"]).aggregate(
            [("cents", "sum"), ("one", "sum")]
        )

    from shaclex_ray.stages.groupagg import grouped_aggregate_fast

    partials = _read_events(sf_dir, ["ts", "event_type", "value"]).map_batches(
        partial, batch_format="pyarrow"
    )
    # Arrow-based one-move exchange, not Dataset.groupby: a NULL
    # event_type is a legitimate group (SQL GROUP BY keeps it) and Ray's
    # sort-based groupby cannot order None keys
    agg = grouped_aggregate_fast(
        partials,
        ["hour_idx", "event_type"],
        [("cents_sum", "sum"), ("one_sum", "sum")],
        ["sum(cents_sum)", "sum(one_sum)"],
    )
    # windows × types rows at most — materializing is cheap, and it
    # closes the all-empty hole: Ray DROPS empty blocks, so a fully-empty
    # agg would never run finalize and would leak the internal columns
    agg = agg.materialize()
    if agg.count() == 0:
        return ray.data.from_arrow(WINDOW_AGG_SCHEMA.empty_table())

    def finalize(batch: pa.Table) -> pa.Table:
        cents = batch.column("sum(cents_sum)").to_numpy(zero_copy_only=False)
        n = batch.column("sum(one_sum)").to_numpy(zero_copy_only=False)
        sum_value = cents.astype(np.float64) / 100.0
        hour = batch.column("hour_idx").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "window_start": pa.array(hour * HOUR_US, pa.int64()).cast(
                    pa.timestamp("us")
                ),
                "event_type": batch.column("event_type"),
                "n_events": pa.array(n, pa.int64()),
                "sum_value": pa.array(sum_value, pa.float64()),
                "avg_value": pa.array(sum_value / n.astype(np.float64), pa.float64()),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


# ------------------------------------------------- one-move user exchange

def _split_by_user_impl(base: pa.Table, nbuckets: int):
    """Event rows → nbuckets sub-tables by user_id (small uniform ints —
    modulo IS the hash)."""
    users = base.column("user_id").to_numpy()
    return partition(base, users % nbuckets, nbuckets)


def _user_exchange(rows_ds, bucket_impl, *bucket_args):
    """ONE hash exchange on user_id, then ``bucket_impl(*bucket_args,
    *tables)`` per bucket (all users of a bucket processed vectorized —
    the Dataset groupby would call Python once per user).

    ``exchange.plan`` sizes it from the event rows' bytes: a small table
    runs as few tasks, and past the cluster's CPUs the bucket count grows
    with the volume, so a bucket's bytes stay bounded."""
    mat = rows_ds.materialize()
    plan = exchange.plan(mat)
    schema = mat.schema()
    if plan.rows == 0:
        # empty events table: run the bucket kernel ONCE driver-side on a
        # typed empty table — exact output schema, no tasks (an all-empty
        # upstream can otherwise surface zero-column blocks to the split)
        if schema is not None and "user_id" in schema.names:
            src = pa.schema(list(zip(schema.names, schema.types))).empty_table()
            return ray.data.from_arrow(bucket_impl(*bucket_args, src))
        return mat
    split_refs = exchange.split(
        _split_by_user_impl, (), plan,
        pa.schema(list(zip(schema.names, schema.types))),
    )
    return exchange.reduce(split_refs, bucket_impl, bucket_args)


# ----------------------------------------------------------- sessionize

def _sessions_bucket_impl(gap_us: int, *tbls: pa.Table) -> pa.Table:
    real = [t for t in tbls if t.num_rows > 0] or [tbls[0].slice(0, 0)]
    tbl = pa.concat_tables(real).combine_chunks()
    out_schema = pa.schema(
        [
            ("user_id", pa.int64()),
            ("session_id", pa.int64()),
            ("session_start", pa.timestamp("us")),
            ("session_end", pa.timestamp("us")),
            ("n_events", pa.int64()),
            ("sum_value", pa.float64()),
        ]
    )
    n = tbl.num_rows
    if n == 0:
        return out_schema.empty_table()
    users = tbl.column("user_id").to_numpy(zero_copy_only=False)
    ts = _ts_us(tbl)
    eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
    cents = _cents(tbl.column("value"))
    order = np.lexsort((eid, ts, users))
    users, ts, cents = users[order], ts[order], cents[order]
    new_user = np.empty(n, bool)
    new_user[0] = True
    new_user[1:] = users[1:] != users[:-1]
    gap_break = np.empty(n, bool)
    gap_break[0] = True
    gap_break[1:] = (ts[1:] - ts[:-1]) > gap_us
    new_sess = new_user | gap_break
    starts = np.flatnonzero(new_sess)
    seg = np.cumsum(new_sess) - 1  # global session ordinal per row
    # session_id restarts at 1 per user: subtract the user's first ordinal
    user_first_seg = seg[new_user]  # one entry per user-run, in order
    user_idx = np.cumsum(new_user) - 1
    session_id = seg - user_first_seg[user_idx] + 1
    ends = np.append(starts[1:], n) - 1
    return pa.table(
        {
            "user_id": pa.array(users[starts], pa.int64()),
            "session_id": pa.array(session_id[starts], pa.int64()),
            "session_start": pa.array(ts[starts], pa.int64()).cast(pa.timestamp("us")),
            "session_end": pa.array(ts[ends], pa.int64()).cast(pa.timestamp("us")),
            "n_events": pa.array(ends - starts + 1, pa.int64()),
            "sum_value": pa.array(
                np.add.reduceat(cents, starts).astype(np.float64) / 100.0,
                pa.float64(),
            ),
        }
    )


def events_sessions(sf_dir: str, gap_minutes: int = 30):
    """Per-user sessions split on inactivity gaps > ``gap_minutes``:
    (user_id, session_id, start, end, n_events, sum_value)."""
    rows = _read_events(sf_dir, ["event_id", "ts", "user_id", "value"])
    return _user_exchange(rows, _sessions_bucket_impl, gap_minutes * 60 * 1_000_000)


# -------------------------------------------------------------- as-of join

def _asof_bucket_impl(left_type: str, right_type: str, *tbls: pa.Table) -> pa.Table:
    """Inner as-of join within a bucket: each left event matches the
    latest right event of the same user with ts <= left ts (tie-break:
    max event_id)."""
    real = [t for t in tbls if t.num_rows > 0] or [tbls[0].slice(0, 0)]
    tbl = pa.concat_tables(real).combine_chunks()
    out_schema = pa.schema(
        [
            ("click_id", pa.int64()),
            ("user_id", pa.int64()),
            ("click_ts", pa.timestamp("us")),
            ("view_id", pa.int64()),
            ("view_ts", pa.timestamp("us")),
            ("gap_sec", pa.float64()),
        ]
    )
    if tbl.num_rows == 0:
        return out_schema.empty_table()
    etype = tbl.column("event_type").to_numpy(zero_copy_only=False)
    users = tbl.column("user_id").to_numpy(zero_copy_only=False)
    ts = _ts_us(tbl)
    eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
    lmask, rmask = etype == left_type, etype == right_type
    if not lmask.any() or not rmask.any():
        return out_schema.empty_table()
    # compact composite key (uidx, ts_rank) packed into one int64 so a
    # single searchsorted resolves (user, ts) order across all users.
    # ts is RANK-compressed first: packing the raw µs offset would
    # overflow int64 once users × time-range exceeds 2^63 (a 1-year
    # bucket overflows at ~292k distinct users); ranks bound the product
    # by n², and rank equality ⇔ ts equality so as-of ties are exact
    uniq_users, uidx = np.unique(users, return_inverse=True)
    ts_rank = np.unique(ts, return_inverse=True)[1]
    span = np.int64(ts_rank.max()) + 2
    key = uidx.astype(np.int64) * span + ts_rank
    lu, lk, lt, lid = uidx[lmask], key[lmask], ts[lmask], eid[lmask]
    ru, rk, rt, rid = uidx[rmask], key[rmask], ts[rmask], eid[rmask]
    rorder = np.lexsort((rid, rk))
    rk, rt, rid, ru = rk[rorder], rt[rorder], rid[rorder], ru[rorder]
    pos = np.searchsorted(rk, lk, side="right") - 1
    ok = (pos >= 0) & (ru[np.maximum(pos, 0)] == lu)
    pos, lu, lk, lt, lid = pos[ok], lu[ok], lk[ok], lt[ok], lid[ok]
    gap_us = lt - rt[pos]
    return pa.table(
        {
            "click_id": pa.array(lid, pa.int64()),
            "user_id": pa.array(uniq_users[lu], pa.int64()),
            "click_ts": pa.array(lt, pa.int64()).cast(pa.timestamp("us")),
            "view_id": pa.array(rid[pos], pa.int64()),
            "view_ts": pa.array(rt[pos], pa.int64()).cast(pa.timestamp("us")),
            "gap_sec": pa.array(
                gap_us.astype(np.float64) / 1_000_000.0, pa.float64()
            ),
        }
    )


def events_asof_view(sf_dir: str):
    """As-of join: every 'click' to the latest same-user 'view' at or
    before it (inner semantics — clicks with no prior view drop)."""
    def keyed(batch: pa.Table) -> pa.Table:
        # a NULL event_id event has no identity to emit or tie-break on —
        # dropped here and by the twin's event_id IS NOT NULL predicate
        return batch.filter(pc.is_valid(batch.column("event_id").combine_chunks()))

    rows = (
        _read_events(sf_dir, ["event_id", "ts", "user_id", "event_type"])
        .filter(expr="event_type == 'click' or event_type == 'view'")
        .map_batches(keyed, batch_format="pyarrow")
    )
    return _user_exchange(rows, _asof_bucket_impl, "click", "view")


# -------------------------------------------------------- props extraction

_K_PATTERN = r'"k":\s*(?P<k>-?\d+)'


def events_json_stats(sf_dir: str):
    """Extract the integer ``k`` from the JSON props column (vectorized
    regex — no per-row json.loads) and aggregate per event_type."""

    def partial(batch: pa.Table) -> pa.Table:
        props = batch.column("props").combine_chunks()
        k = pc.struct_field(pc.extract_regex(props, _K_PATTERN), "k").cast(pa.int64())
        valid = pc.is_valid(k)
        t = pa.table(
            {
                "event_type": batch.column("event_type"),
                "k": k.fill_null(0),
                "n_k": valid.cast(pa.int64()),
                "one": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )
        return t.group_by(["event_type"]).aggregate(
            [("k", "sum"), ("n_k", "sum"), ("one", "sum")]
        )

    from shaclex_ray.stages.groupagg import grouped_aggregate_fast

    partials = _read_events(sf_dir, ["event_type", "props"]).map_batches(
        partial, batch_format="pyarrow"
    )
    # Arrow-based one-move exchange (not Dataset.groupby): null-safe on
    # the group key and moves |event_type| partial rows per block
    agg = grouped_aggregate_fast(
        partials,
        ["event_type"],
        [("k_sum", "sum"), ("n_k_sum", "sum"), ("one_sum", "sum")],
        ["k_sum", "n_k_sum", "one_sum"],
    )

    def finalize(batch: pa.Table) -> pa.Table:
        ksum = batch.column("k_sum").to_numpy(zero_copy_only=False)
        nk = batch.column("n_k_sum").to_numpy(zero_copy_only=False)
        n = batch.column("one_sum").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "n_events": pa.array(n, pa.int64()),
                "n_k": pa.array(nk, pa.int64()),
                "sum_k": pa.array(ksum, pa.int64()),
                "avg_k": pa.array(
                    ksum.astype(np.float64) / np.maximum(nk, 1).astype(np.float64),
                    pa.float64(),
                ),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")
