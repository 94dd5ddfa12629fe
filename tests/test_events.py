"""Edge-case semantics of the events operator family (the oracle-parity
sweep covers the statistical bulk; these pin the boundary rules)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture()
def tiny_events(tmp_path):
    """Hand-built corpus: user 1 has a gap exactly at the threshold (must
    NOT split) and one just over (must split); user 2 clicks with no
    prior view; user 3 has a view at the identical ts as the click."""
    m = 60 * 1_000_000  # one minute in µs
    base = 1_700_000_000_000_000
    rows = [
        # event_id, ts_us, user, type, value
        (0, base + 0 * m, 1, "view", 1.25),
        (1, base + 30 * m, 1, "click", 2.50),      # gap == 30min: same session
        (2, base + 61 * m, 1, "view", 0.75),       # gap 31min: new session
        (3, base + 62 * m, 1, "click", 1.00),
        (4, base + 0 * m, 2, "click", 5.00),       # no prior view: dropped
        (5, base + 10 * m, 2, "view", 1.00),
        (6, base + 20 * m, 2, "click", 1.00),      # matches view 5
        (7, base + 5 * m, 3, "view", 1.00),
        (8, base + 5 * m, 3, "click", 1.00),       # same-ts view counts
    ]
    tbl = pa.table(
        {
            "event_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.int64()).cast(
                pa.timestamp("us")
            ),
            "user_id": pa.array([r[2] for r in rows], pa.int64()),
            "event_type": pa.array([r[3] for r in rows]),
            "value": pa.array([r[4] for r in rows], pa.float64()),
            "props": pa.array(['{"k": 7}'] * len(rows)),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    return str(tmp_path)


def test_sessions_gap_boundary(ray_session, tiny_events):
    from shaclex_ray.functions.events import events_sessions

    df = (
        events_sessions(tiny_events)
        .to_pandas()
        .sort_values(["user_id", "session_id"])
        .reset_index(drop=True)
    )
    u1 = df[df.user_id == 1]
    # gap == threshold stays one session; 31 min opens session 2
    assert list(u1.session_id) == [1, 2]
    assert list(u1.n_events) == [2, 2]
    assert u1.iloc[0].sum_value == pytest.approx(3.75)
    # session ids restart at 1 for every user
    assert df.groupby("user_id").session_id.min().eq(1).all()


def test_asof_inner_and_ties(ray_session, tiny_events):
    from shaclex_ray.functions.events import events_asof_view

    df = (
        events_asof_view(tiny_events)
        .to_pandas()
        .sort_values("click_id")
        .reset_index(drop=True)
    )
    # click 4 (no prior view) is dropped; click 8 matches same-ts view 7
    assert list(df.click_id) == [1, 3, 6, 8]
    assert list(df.view_id) == [0, 2, 5, 7]
    assert df[df.click_id == 8].gap_sec.iloc[0] == 0.0
    assert df[df.click_id == 1].gap_sec.iloc[0] == pytest.approx(1800.0)


def test_asof_key_packing_wide_timespan():
    """The bucket kernel's composite (user, ts) key must not overflow
    int64 on wide time ranges: packing the RAW µs offset would wrap once
    users × range exceeds 2^63 (1000 users over ~300 years does it),
    silently corrupting the as-of order. The rank-compressed key bounds
    the product by n² regardless of the time range."""
    from shaclex_ray.functions.events import _asof_bucket_impl

    # every user: one view at the range start, one click at the range end;
    # with raw packing, user 2's click key (2*S + R ≈ 1.2e19) wraps
    # negative while its view key (8e18) stays positive, so the click
    # resolves to user 3's wrapped view and the ok-mask DROPS it
    n_users = 4
    R = 4_000_000_000_000_000_000  # ~127k-year range, still valid µs
    base = np.int64(1_000_000_000_000_000)
    ts = np.concatenate(
        [np.full(n_users, base), np.full(n_users, base + R - 1)]
    ).astype(np.int64)
    users = np.tile(np.arange(n_users, dtype=np.int64), 2)
    assert int(users.max()) * int(ts.max() - ts.min() + 2) > 2**63  # regime check
    tbl = pa.table(
        {
            "event_id": pa.array(np.arange(2 * n_users), pa.int64()),
            "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
            "user_id": pa.array(users, pa.int64()),
            "event_type": pa.array(["view"] * n_users + ["click"] * n_users),
        }
    )
    out = _asof_bucket_impl("click", "view", tbl).to_pandas()
    assert len(out) == n_users  # every click found its own user's view
    assert (out.view_id.to_numpy() == out.click_id.to_numpy() - n_users).all()
    assert (out.gap_sec == (R - 1) / 1e6).all()


def test_window_agg_counts(ray_session, tiny_events):
    from shaclex_ray.functions.events import events_window_agg

    df = events_window_agg(tiny_events).to_pandas()
    assert int(df.n_events.sum()) == 9
    # cents-exact sums: total equals the hand sum of all values
    assert df.sum_value.sum() == pytest.approx(14.50)
    # every avg is sum/n of its own row
    assert np.allclose(df.avg_value, df.sum_value / df.n_events)


def test_json_stats(ray_session, tiny_events):
    from shaclex_ray.functions.events import events_json_stats

    df = events_json_stats(tiny_events).to_pandas()
    assert int(df.n_events.sum()) == 9
    assert (df.n_k == df.n_events).all()
    assert (df.avg_k == 7.0).all()


def test_window_agg_empty_keeps_published_schema(ray_session, tmp_path):
    """An events table with no rows yields the published columns and
    types, not the exchange's internal ones (hour_idx, sum(cents_sum))."""
    from shaclex_ray.functions.events import events_window_agg

    schema = pa.schema(
        [
            ("event_id", pa.int64()),
            ("ts", pa.timestamp("us")),
            ("user_id", pa.int64()),
            ("event_type", pa.string()),
            ("value", pa.float64()),
            ("props", pa.string()),
        ]
    )
    pq.write_table(schema.empty_table(), tmp_path / "events.parquet")
    out = events_window_agg(str(tmp_path))
    assert out.count() == 0
    got = out.schema()
    assert list(got.names) == [
        "window_start", "event_type", "n_events", "sum_value", "avg_value"
    ]
    assert list(got.types) == [
        pa.timestamp("us"), pa.string(), pa.int64(), pa.float64(), pa.float64()
    ]
