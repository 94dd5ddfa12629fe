"""The one hash exchange (``shaclex_ray/stages/exchange.py``).

(a) Every operator built on it returns the same multiset whatever the
    exchange's shape: 1 or 3 buckets, one split group or one per input.
(b) Degenerate inputs: no inputs at all, groups of zero-column blocks,
    an empty parquet shard, and the single-bucket return.
(c) ``partition`` keeps row order within each bucket.
(d) A guard: no module outside ``stages/exchange.py`` hand-rolls a
    split (``.options(num_returns=``) or reads a deleted knob, and no
    module calls Ray Data's ``Dataset.join``.
(e) ``exchange.join`` against an Arrow hash-join reference, under both
    placements.
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


# ------------------------------------------------------------ join

def _join_ref(probe: pa.Table, build: pa.Table, on, build_on, how) -> list:
    """Arrow's hash join as the reference: it joins the key columns
    carrying row numbers, and the rows are reassembled from those, so
    payloads Acero cannot carry (list<float>) compare too."""
    p = probe.select(on).append_column("_p", pa.array(np.arange(probe.num_rows)))
    b = build.select(build_on).append_column("_b", pa.array(np.arange(build.num_rows)))
    j = p.join(b, keys=on, right_keys=build_on,
               join_type="inner" if how == "inner" else "left outer")
    payload = build.drop_columns(build_on)
    rows = []
    for i, k in zip(j.column("_p").to_pylist(), j.column("_b").to_pylist()):
        row = probe.slice(i, 1).to_pylist()[0]
        row.update(payload.slice(k, 1).to_pylist()[0] if k is not None
                   else dict.fromkeys(payload.column_names))
        rows.append(row)
    return sorted(map(repr, rows))


def _keys(rng, n, hi):
    """n int64 keys in [0, hi) with duplicates and about 10% nulls."""
    k = rng.integers(0, hi, n).astype(object)
    k[rng.random(n) < 0.1] = None
    return pa.array(k, pa.int64())


def _join_case(case: str):
    """(probe, build, on, build_on): every case has duplicate build keys
    (many-to-many matches) and null keys on both sides."""
    rng = np.random.default_rng(5)
    n, m = 240, 90
    if case == "int_key":
        probe = pa.table({"k": _keys(rng, n, 40), "pv": pa.array(rng.integers(0, 9, n))})
        build = pa.table({"k": _keys(rng, m, 40), "bv": pa.array(rng.choice(["x", "y"], m))})
        return probe, build, ["k"], ["k"]
    if case == "composite":
        def side(n, name):
            hi = rng.integers(0, 4, n).astype(np.uint64) << np.uint64(60)
            lo = _keys(rng, n, 12).cast(pa.uint64())
            return pa.table({"fp_hi": pa.array(hi), "fp_lo": lo,
                             name: pa.array(rng.integers(0, 99, n))})
        return side(n, "pv"), side(m, "rep_id"), ["fp_hi", "fp_lo"], ["fp_hi", "fp_lo"]
    if case == "renamed":
        probe = pa.table({"doc_a": _keys(rng, n, 40), "doc_b": _keys(rng, n, 40)})
        build = pa.table({"doc_id": _keys(rng, m, 40), "label": _keys(rng, m, 5)})
        return probe, build, ["doc_a"], ["doc_id"]
    assert case == "list_binary"
    probe = pa.table({"subj": pa.array(rng.choice(["a", "b", "c", "d", None], n))})
    build = pa.table({
        "key": pa.array(rng.choice(["a", "b", "c", "e", None], m)),
        "emb": pa.array([rng.random(3).astype(np.float32).tolist() for _ in range(m)],
                        pa.list_(pa.float32())),
        "shingles": pa.array([rng.bytes(int(rng.integers(0, 24))) for _ in range(m)],
                             pa.binary()),
    })
    return probe, build, ["subj"], ["key"]


def _datasets(tbl: pa.Table, nblocks: int = 3):
    step = -(-tbl.num_rows // nblocks)
    return rd.from_arrow([tbl.slice(i, step) for i in range(0, tbl.num_rows, step)])


@pytest.fixture(params=["broadcast", "partitioned"])
def placement(request, monkeypatch):
    """The partitioned form, with buckets and split groups small enough
    that every side spreads over several of each."""
    if request.param == "partitioned":
        monkeypatch.setattr(exchange, "BCAST_BYTES", 0)
        monkeypatch.setattr(exchange, "TASK_ROWS", 40)
    return request.param


@pytest.mark.parametrize("how", ["inner", "left_outer"])
@pytest.mark.parametrize("case", ["int_key", "composite", "renamed", "list_binary"])
def test_join_matches_arrow_reference(ray_session, placement, case, how):
    probe, build, on, build_on = _join_case(case)
    out = exchange.join(_datasets(probe), _datasets(build), on, build_on, how)
    got = out.take_all()
    assert sorted(map(repr, got)) == _join_ref(probe, build, on, build_on, how)
    assert len(got) > 0
    payload = [c for c in build.column_names if c not in build_on]
    assert out.schema().names == probe.column_names + payload
    if how == "inner":  # null keys matched nothing
        assert all(r[c] is not None for r in got for c in on)


@pytest.mark.parametrize("how", ["inner", "left_outer"])
@pytest.mark.parametrize("empty", ["probe", "build"])
def test_join_of_an_empty_side_keeps_the_schema(ray_session, placement, empty, how):
    probe, build, on, build_on = _join_case("list_binary")
    if empty == "probe":
        probe = probe.schema.empty_table()
    else:
        build = build.schema.empty_table()
    out = exchange.join(rd.from_arrow(probe), rd.from_arrow(build), on, build_on, how)
    rows = out.take_all()
    want = pa.schema(list(probe.schema) + [build.schema.field("emb"),
                                           build.schema.field("shingles")])
    schema = out.schema()
    assert pa.schema(list(zip(schema.names, schema.types))) == want
    n = 0 if empty == "probe" or how == "inner" else probe.num_rows
    assert len(rows) == n
    assert all(r["emb"] is None and r["shingles"] is None for r in rows)


def test_join_rejects_a_repeated_column(ray_session):
    side = rd.from_arrow(pa.table({"k": [1], "v": [2]}))
    with pytest.raises(ValueError, match="repeat columns"):
        exchange.join(side, side, ["k"])


# ------------------------------------------------------------ guard

def test_no_hand_rolled_exchange_or_deleted_knob():
    """The split→bucket exchange lives in stages/exchange.py only, none
    of the deleted knobs is read anywhere, and no module joins Datasets
    with Ray Data's ``Dataset.join`` (``exchange.join`` is the one join):
    no ``.join(<expr>, "inner"|"left_outer"|…`` call, chained ones
    included, and no ``num_partitions=`` sizing."""
    knobs = re.compile(
        r"SHACLEX_(SPLIT_ROWS|USER_BUCKET_ROWS|BAND_BUCKET_ROWS"
        r"|BUCKET_ROWS|BUCKET_SPILL_ROWS|LINK_DIST_THRESHOLD|BPE_MAX_WORD_LEN"
        r"|REL_BCAST_THRESHOLD|JACCARD_BCAST_THRESHOLD|INFER_BCAST_THRESHOLD"
        r"|REP_VERDICT_BCAST_ROWS|DECON_BCAST_THRESHOLD|DEDUP_CC_THRESHOLD"
        r"|REP_DUP_RATIO)"
    )
    # the join type is the second argument; the first may span lines and
    # hold one level of parentheses
    ds_join = re.compile(
        r"\.join\((?:[^(),]|\([^()]*\))*,\s*\"(inner|left_outer|right_outer"
        r"|full_outer|left_semi|right_semi|left_anti|right_anti)\""
    )
    offenders = []
    for path in sorted(PKG.rglob("*.py")):
        src = path.read_text()
        rel = path.relative_to(PKG).as_posix()
        if ".options(num_returns=" in src and rel != "stages/exchange.py":
            offenders.append(f"{rel}: hand-rolled split")
        if knobs.search(src):
            offenders.append(f"{rel}: reads a deleted knob")
        if ds_join.search(src):
            offenders.append(f"{rel}: Dataset.join")
        if "num_partitions=" in src:
            offenders.append(f"{rel}: num_partitions=")
    assert not offenders, offenders
