"""The one hash exchange (``shaclex_ray/stages/exchange.py``).

(a) Every operator built on it returns the same multiset whatever the
    exchange's shape: 1 or 3 buckets, one split group or one per input.
(b) Degenerate inputs: no inputs at all, groups of zero-column blocks,
    an empty parquet shard, and the single-bucket return.
(c) ``partition`` keeps row order within each bucket.
(d) A guard: no module outside ``stages/exchange.py`` hand-rolls a
    split (``.options(num_returns=``) or reads a deleted knob, and no
    module under ``stages/`` calls Ray Data's ``Dataset.join``.
"""

import pathlib
import re

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray
import ray.data as rd

from shaclex_ray.stages import exchange

PKG = pathlib.Path(__file__).resolve().parent.parent / "shaclex_ray"
VOCAB = "the of a graph shape node triple focus path data set value".split()


def _rows(res) -> list:
    if isinstance(res, rd.Dataset):
        res = [tuple(r.values()) for r in res.take_all()]
    return sorted(res, key=repr)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A multi-file documents.parquet/ (near-duplicate texts, null and
    repeated sources) and a multi-file events.parquet/."""
    root = tmp_path_factory.mktemp("exchange_corpus")
    rng = np.random.default_rng(7)
    docs, events = root / "documents.parquet", root / "events.parquet"
    docs.mkdir()
    events.mkdir()
    base = [" ".join(rng.choice(VOCAB, rng.integers(6, 30))) for _ in range(40)]
    doc_id = 0
    for f in range(4):
        ids, texts, sources = [], [], []
        for _ in range(30):
            t = base[rng.integers(len(base))]
            if rng.random() < 0.5:  # near-duplicate: one token swapped
                toks = t.split()
                toks[rng.integers(len(toks))] = str(rng.choice(VOCAB))
                t = " ".join(toks)
            ids.append(doc_id)
            texts.append(t)
            sources.append(None if rng.random() < 0.2 else f"src{rng.integers(4)}")
            doc_id += 1
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "text": pa.array(texts, pa.string()),
                    "source": pa.array(sources, pa.string()),
                }
            ),
            docs / f"part-{f}.parquet",
        )
        n = 50
        pq.write_table(
            pa.table(
                {
                    "event_id": pa.array(np.arange(n) + f * n, pa.int64()),
                    "ts": pa.array(
                        rng.integers(0, 6 * 3600, n) * 1_000_000, pa.int64()
                    ).cast(pa.timestamp("us")),
                    "user_id": pa.array(rng.integers(0, 9, n), pa.int64()),
                    "value": pa.array(rng.random(n).round(2), pa.float64()),
                    "event_type": pa.array(rng.choice(["click", "view"], n)),
                }
            ),
            events / f"part-{f}.parquet",
        )
    return str(root)


def _blocks():
    rng = np.random.default_rng(3)
    return [
        pa.table(
            {
                "k": pa.array(rng.choice(["a", "b", "c", "d", None], 60)),
                "v": pa.array(rng.integers(0, 7, 60), pa.int64()),
            }
        )
        for _ in range(4)
    ]


def _op_results(op: str, corpus: str):
    from shaclex_ray.functions.curate import sample_balanced
    from shaclex_ray.functions.dedup import minhash_candidates
    from shaclex_ray.functions.events import events_sessions
    from shaclex_ray.functions.substr import dedup_substring
    from shaclex_ray.stages.dedup import distinct_rows_fast
    from shaclex_ray.stages.groupagg import grouped_aggregate_fast, grouped_topk

    ds = rd.from_arrow(_blocks())
    if op == "distinct_rows_fast":
        return distinct_rows_fast(ds)
    if op == "grouped_aggregate":
        aggs = [("v", "sum"), ("v", "min"), ("v", "max"), ("v", "count")]
        return grouped_aggregate_fast(ds, ["k"], aggs, ["s", "lo", "hi", "n"])
    if op == "count_distinct":
        return grouped_aggregate_fast(ds, ["k"], [("v", "count_distinct")], ["nd"])
    if op == "grouped_topk":
        return grouped_topk(ds, "k", [("v", "descending")], 2, rank_name="r")
    if op == "events_sessions":
        return events_sessions(corpus)
    if op == "lsh_candidates":
        return minhash_candidates(corpus)
    if op == "dedup_substring":
        return dedup_substring(corpus)
    assert op == "sample_balanced"
    return sample_balanced(corpus)  # n=None: a count exchange, then the sample


@pytest.mark.parametrize(
    "op",
    [
        "distinct_rows_fast",
        "grouped_aggregate",
        "count_distinct",
        "grouped_topk",
        "events_sessions",
        "lsh_candidates",
        "dedup_substring",
        "sample_balanced",
    ],
)
def test_output_invariant_to_exchange_shape(ray_session, corpus, monkeypatch, op):
    """1 vs 3 buckets (every exchange of the operator forced to it), and
    one split group vs one per input (SPLIT_ROWS=1)."""
    split = exchange.split
    groups: list[int] = []
    results = {}
    for nbuckets in (1, 3):
        for split_rows in (exchange.SPLIT_ROWS, 1):

            def forced(kernel, args, inputs, rows, _nb, schema, columns=None):
                refs = split(kernel, args, inputs, rows, nbuckets, schema, columns)
                groups.append(len(refs))
                assert all(len(g) == nbuckets for g in refs)
                return refs

            monkeypatch.setattr(exchange, "split", forced)
            monkeypatch.setattr(exchange, "SPLIT_ROWS", split_rows)
            del groups[:]
            results[nbuckets, split_rows] = _rows(_op_results(op, corpus))
            # the small inputs fit one group; SPLIT_ROWS=1 forces one per input
            assert max(groups) == 1 if split_rows > 1 else max(groups) > 1, groups
    first = next(iter(results.values()))
    assert first, "the fixture must give every operator some output"
    for shape, rows in results.items():
        assert rows == first, shape


def test_sample_balanced_matches_twin_on_multifile_null_sources(ray_session, corpus):
    """File-granular sampling over a documents.parquet/ directory whose
    sources include nulls (the '' stratum) matches the DuckDB twin, for a
    given n and for the balanced default."""
    from shaclex_ray.functions.curate import sample_balanced, sample_balanced_sql

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{corpus}/documents.parquet/*.parquet')"
    )
    for n in (3, None):
        want = sorted(con.execute(sample_balanced_sql(n)).fetchall())
        got = sorted((r["doc_id"], r["source"]) for r in sample_balanced(corpus, n).take_all())
        assert got == want and len(got) > 0, n
        assert "" in {s for _, s in got}


# ------------------------------------------------------------ degenerate

def _sum_split():
    from shaclex_ray.stages.groupagg import _bucket_impl, _split_impl

    keys, aggs = ["k"], [("v", "sum")]
    return (_split_impl, (keys, aggs)), (_bucket_impl, (keys, aggs, ["s"]))


SCHEMA = pa.schema([("k", pa.string()), ("v", pa.int64())])


def test_zero_inputs_give_typed_empty_buckets(ray_session):
    (kern, args), (bkern, bargs) = _sum_split()
    refs = exchange.split(kern, args, [], 0, 3, SCHEMA)
    assert len(refs) == 1 and len(refs[0]) == 3
    parts = ray.get(refs[0])
    assert all(p.num_rows == 0 and p.column_names == ["k", "v_sum"] for p in parts)
    out = exchange.reduce(refs, bkern, bargs)
    assert out.take_all() == [] and out.schema().names == ["k", "s"]


def test_all_zero_column_groups(ray_session, monkeypatch):
    """Groups made only of zero-row, zero-column blocks take the schema."""
    (kern, args), (bkern, bargs) = _sum_split()
    monkeypatch.setattr(exchange, "SPLIT_ROWS", 1)
    deg = ray.put(pa.table({}))
    real = ray.put(pa.table({"k": ["a", "a", "b"], "v": pa.array([1, 2, 5], pa.int64())}))
    refs = exchange.split(kern, args, [deg, deg, real], 3, 2, SCHEMA)
    assert len(refs) == 3
    out = _rows(exchange.reduce(refs, bkern, bargs))
    assert out == [("a", 3), ("b", 5)]


def test_file_input_with_an_empty_shard(ray_session, tmp_path, monkeypatch):
    (kern, args), (bkern, bargs) = _sum_split()
    full = pa.table(
        {"k": ["x", "y", "x"], "v": pa.array([1, 2, 3], pa.int64()), "w": [0, 0, 0]}
    )
    pq.write_table(full, tmp_path / "a.parquet")
    pq.write_table(full.schema.empty_table(), tmp_path / "b.parquet")
    files = sorted(str(p) for p in tmp_path.glob("*.parquet"))
    for split_rows in (exchange.SPLIT_ROWS, 1):  # one group, then one per file
        monkeypatch.setattr(exchange, "SPLIT_ROWS", split_rows)
        refs = exchange.split(kern, args, files, 3, 2, SCHEMA, ["k", "v"])
        out = _rows(exchange.reduce(refs, bkern, bargs))
        assert out == [("x", 4), ("y", 2)]


def test_single_bucket_returns_a_table(ray_session):
    (kern, args), _ = _sum_split()
    refs = exchange.split(kern, args, [ray.put(_blocks()[0])], 60, 1, SCHEMA)
    assert len(refs) == 1 and len(refs[0]) == 1
    assert isinstance(ray.get(refs[0][0]), pa.Table)


# ------------------------------------------------------------ partition

@pytest.mark.parametrize("sort_first", [False, True])
def test_partition_keeps_row_order_within_buckets(sort_first):
    rng = np.random.default_rng(11)
    b = rng.integers(0, 5, 500)
    if sort_first:
        b = np.sort(b)
    tbl = pa.table({"i": np.arange(500), "b": b})
    parts = exchange.partition(tbl, b, 5)
    assert len(parts) == 5
    for i, p in enumerate(parts):
        assert p.column("i").to_pylist() == np.flatnonzero(b == i).tolist()


# ------------------------------------------------------------ guard

def test_no_hand_rolled_exchange_or_deleted_knob():
    """The split→bucket exchange lives in stages/exchange.py only, none
    of the deleted knobs is read anywhere, and the stages join no Datasets
    (the canonical rewrite is a row function in the dedup split kernel)."""
    knobs = re.compile(
        r"SHACLEX_(SPLIT_ROWS|USER_BUCKET_ROWS|BAND_BUCKET_ROWS"
        r"|BUCKET_ROWS|BUCKET_SPILL_ROWS|LINK_DIST_THRESHOLD|BPE_MAX_WORD_LEN)"
    )
    ds_join = re.compile(
        r"\.join\(\s*\w+\s*,\s*\"(inner|left_outer|right_outer|full_outer"
        r"|left_semi|right_semi|left_anti|right_anti)\""
    )
    offenders = []
    for path in sorted(PKG.rglob("*.py")):
        src = path.read_text()
        rel = path.relative_to(PKG).as_posix()
        if ".options(num_returns=" in src and rel != "stages/exchange.py":
            offenders.append(f"{rel}: hand-rolled split")
        if knobs.search(src):
            offenders.append(f"{rel}: reads a deleted knob")
        if rel.startswith("stages/") and ds_join.search(src):
            offenders.append(f"{rel}: Dataset.join")
    assert not offenders, offenders
