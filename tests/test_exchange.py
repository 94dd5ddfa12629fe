"""The one hash exchange (``shaclex_ray/stages/exchange.py``).

(a) Every operator built on it returns the same multiset whatever the
    exchange's shape: 1 or 3 buckets, one split group or one per input.
(b) Degenerate inputs: no inputs at all, groups of zero-column blocks,
    an empty parquet shard, and the single-bucket return.
(c) ``partition`` keeps row order within each bucket, and the sink
    writes one part per bucket with rows.
(d) A guard: no module outside ``stages/exchange.py`` hand-rolls a
    split (``.options(num_returns=``), names a deleted knob or sizing
    rule, or reads the cluster's CPU count outside an allow-list, and no
    module calls Ray Data's ``Dataset.join`` or groups with its
    ``groupby``.
(e) ``exchange.join`` against an Arrow hash-join reference, under both
    placements.
"""

import ast
import math
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
    _write_raw_triples(root / "triples_raw", rng)
    return str(root)


def _write_raw_triples(root: pathlib.Path, rng) -> None:
    """Four raw triple shards whose ``ex:mentions`` objects repeat within
    and across shards, in surface variants that share a canonical IRI,
    beside literals spelled like mention IRIs and other predicates."""
    from shaclex_ray.stages.extract import DOC_NS, MENTION_NS, P_MENTIONS, P_TEXT
    from shaclex_ray.terms import TRIPLES_SCHEMA

    root.mkdir()
    for f in range(4):
        rows = []
        for i in range(40):
            doc = f"d{f}_{i}"
            word = str(rng.choice(VOCAB))
            surface = str(rng.choice([word, word.upper(), f" {word}"]))
            kind, pred = [("iri", P_MENTIONS), ("literal", P_MENTIONS),
                          ("iri", P_TEXT)][int(rng.integers(3))]
            rows.append((DOC_NS + doc, pred, kind, MENTION_NS + surface,
                         "", "", doc, i))
        pq.write_table(
            pa.Table.from_pylist([dict(zip(TRIPLES_SCHEMA.names, r)) for r in rows],
                                 schema=TRIPLES_SCHEMA),
            root / f"part-{f}.parquet",
        )


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
    from shaclex_ray.functions.substr import dedup_substring, trim_substring_spans
    from shaclex_ray.stages.dedup import distinct_rows_fast
    from shaclex_ray.stages.groupagg import grouped_aggregate_fast, grouped_topk
    from shaclex_ray.stages.link import build_entity_links

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
    if op == "trim_substring_spans":
        return trim_substring_spans(corpus)
    if op == "build_entity_links":
        return build_entity_links(
            sorted(str(p) for p in pathlib.Path(corpus, "triples_raw").glob("*.parquet"))
        )
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
        "trim_substring_spans",
        "sample_balanced",
        "build_entity_links",
    ],
)
def test_output_invariant_to_exchange_shape(ray_session, corpus, monkeypatch, op):
    """1 vs 3 buckets (every exchange of the operator forced to it), and
    one split group vs one per input (MAX_TASK_BYTES=1)."""
    split = exchange.split
    groups: list[int] = []
    results = {}
    for nbuckets in (1, 3):
        for max_task in (exchange.MAX_TASK_BYTES, 1):

            def forced(kernel, args, plan, schema, columns=None, nbuckets=None,
                       _nb=nbuckets):
                refs = split(kernel, args, plan, schema, columns, nbuckets=_nb)
                groups.append(len(refs))
                assert all(len(g) == _nb for g in refs)
                return refs

            monkeypatch.setattr(exchange, "split", forced)
            monkeypatch.setattr(exchange, "MAX_TASK_BYTES", max_task)
            del groups[:]
            results[nbuckets, max_task] = _rows(_op_results(op, corpus))
            # the small inputs fit one group; MAX_TASK_BYTES=1 forces one
            # per input
            assert max(groups) == 1 if max_task > 1 else max(groups) > 1, groups
    first = next(iter(results.values()))
    assert first, "the fixture must give every operator some output"
    for shape, rows in results.items():
        assert rows == first, shape


def test_trim_with_an_empty_span_bucket(ray_session, tmp_path, monkeypatch):
    """At 3 buckets the duplicated texts sit in docs of buckets 0 and 1
    only (``doc_id % 3``), so span bucket 2 is empty: the trim still
    pairs every doc bucket with its own spans and keeps every doc,
    matching the DuckDB twin."""
    from shaclex_ray.functions.substr import (
        trim_substring_spans,
        trim_substring_spans_sql,
    )

    dup_a = " ".join(f"a{i}" for i in range(10))
    dup_b = " ".join(f"b{i}" for i in range(12))
    texts = {0: dup_a, 1: dup_a, 3: dup_b, 4: dup_b}
    ids = list(range(9))
    docs = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": [texts.get(d, " ".join(f"u{d}_{i}" for i in range(9)))
                 for d in ids],
    })
    path = str(tmp_path / "documents.parquet")
    pq.write_table(docs, path)
    con = duckdb.connect()
    con.register("documents", docs)
    want = sorted(con.execute(trim_substring_spans_sql()).fetchall())
    assert [r[0] for r in want] == ids and want[0][3] == 10
    split = exchange.split

    def forced(kernel, args, plan, schema, columns=None, nbuckets=None):
        return split(kernel, args, plan, schema, columns, nbuckets=3)

    monkeypatch.setattr(exchange, "split", forced)
    got = sorted(tuple(r.values()) for r in
                 trim_substring_spans(docs_path=path).take_all())
    assert got == want


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
    refs = exchange.split(kern, args, exchange.plan([]), SCHEMA, nbuckets=3)
    assert len(refs) == 1 and len(refs[0]) == 3
    parts = ray.get(refs[0])
    assert all(p.num_rows == 0 and p.column_names == ["k", "v_sum"] for p in parts)
    out = exchange.reduce(refs, bkern, bargs)
    assert out.take_all() == [] and out.schema().names == ["k", "s"]


def test_all_zero_column_groups(ray_session):
    """Groups made only of zero-row, zero-column blocks take the schema
    (a plan of one group per input, built by hand: ``plan`` itself drops
    zero-row blocks)."""
    (kern, args), (bkern, bargs) = _sum_split()
    deg = ray.put(pa.table({}))
    real = ray.put(pa.table({"k": ["a", "a", "b"], "v": pa.array([1, 2, 5], pa.int64())}))
    plan = exchange.Plan((deg, deg, real), rows=3, nbytes=42, groups=3, buckets=2,
                         cpus=2)
    refs = exchange.split(kern, args, plan, SCHEMA)
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
    for max_task in (exchange.MAX_TASK_BYTES, 1):  # one group, then one per file
        monkeypatch.setattr(exchange, "MAX_TASK_BYTES", max_task)
        plan = exchange.plan(files, ["k", "v"])
        assert plan.groups == (1 if max_task > 1 else 2)
        refs = exchange.split(kern, args, plan, SCHEMA, ["k", "v"], nbuckets=2)
        out = _rows(exchange.reduce(refs, bkern, bargs))
        assert out == [("x", 4), ("y", 2)]


def _blocks_of(ds) -> list:
    return [ray.get(ref) for bundle in ds.iter_internal_ref_bundles()
            for ref, _ in bundle.blocks]


def test_reduce_leaves_no_empty_block_for_a_map(ray_session):
    """A bucket without rows leaves no block, so a map over a reduce sees
    no zero-row block (``map_batches`` turns one into a block without
    columns); an all-empty reduce is one typed empty block."""
    (kern, args), (bkern, bargs) = _sum_split()
    one_key = ray.put(pa.table({"k": ["a", "a"], "v": pa.array([1, 2], pa.int64())}))
    plan = exchange.Plan((one_key,), rows=2, nbytes=32, groups=1, buckets=4, cpus=2)
    refs = exchange.split(kern, args, plan, SCHEMA)
    assert sum(p.num_rows == 0 for p in ray.get(refs[0])) == 3
    out = exchange.reduce(refs, bkern, bargs).map_batches(
        lambda b: b, batch_format="pyarrow"
    ).materialize()
    assert [b.column_names for b in _blocks_of(out)] == [["k", "s"]]
    assert _rows(out) == [("a", 3)]

    refs = exchange.split(kern, args, exchange.plan([]), SCHEMA, nbuckets=3)
    empty = _blocks_of(exchange.reduce(refs, bkern, bargs))
    assert [(b.num_rows, b.column_names) for b in empty] == [(0, ["k", "s"])]


def test_single_bucket_returns_a_table(ray_session):
    (kern, args), _ = _sum_split()
    plan = exchange.plan(rd.from_arrow(_blocks()[0]))
    refs = exchange.split(kern, args, plan, SCHEMA, nbuckets=1)
    assert len(refs) == 1 and len(refs[0]) == 1
    assert isinstance(ray.get(refs[0][0]), pa.Table)


def _bucket_of(key: str, nbuckets: int) -> int:
    (kern, args), _ = _sum_split()
    one = pa.table({"k": [key], "v": pa.array([1], pa.int64())})
    return next(b for b, p in enumerate(kern(one, nbuckets, *args)) if p.num_rows)


@pytest.mark.parametrize("nbuckets", [1, 3])
def test_sink_writes_the_buckets_with_rows(ray_session, tmp_path, nbuckets):
    """Two keys in two of three buckets: the sink writes one part per
    bucket with rows, its row counts sum to the rows read back, and the
    parts read back (``reduce`` with an ``output_dir``) hold the rows of
    the block result."""
    (kern, args), (bkern, bargs) = _sum_split()
    other = next(k for k in "bcdefgh" if _bucket_of(k, 3) != _bucket_of("a", 3))
    tbl = pa.table({"k": ["a", other] * 3, "v": pa.array(range(6), pa.int64())})
    plan = exchange.Plan((ray.put(tbl),), rows=6, nbytes=96, groups=1,
                         buckets=nbuckets, cpus=2)
    refs = exchange.split(kern, args, plan, SCHEMA)
    out = tmp_path / "out"
    counts = exchange.sink(refs, bkern, bargs, str(out))
    assert len(counts) == nbuckets and sum(n > 0 for n in counts) == min(nbuckets, 2)
    assert sorted(p.name for p in out.iterdir()) == [
        f"part-{b:05d}.parquet" for b, n in enumerate(counts) if n
    ]
    assert sum(counts) == pq.read_table(out).num_rows == 2
    back = exchange.reduce(refs, bkern, bargs, str(tmp_path / "again"))
    assert _rows(back) == _rows(exchange.reduce(refs, bkern, bargs))


def test_sink_of_nothing_writes_one_typed_empty_part(ray_session, tmp_path):
    (kern, args), (bkern, bargs) = _sum_split()
    refs = exchange.split(kern, args, exchange.plan([]), SCHEMA, nbuckets=3)
    out = tmp_path / "out"
    assert exchange.sink(refs, bkern, bargs, str(out)) == [0, 0, 0]
    (part,) = out.iterdir()
    tbl = pq.read_table(part)
    assert tbl.num_rows == 0 and tbl.column_names == ["k", "s"]
    back = exchange.reduce(refs, bkern, bargs, str(tmp_path / "again"))
    assert back.count() == 0 and back.schema().names == ["k", "s"]


# ------------------------------------------------------------ plan

def _triples(n: int, lex_width: int, seed: int = 0) -> pa.Table:
    """``n`` KG-shaped triple rows whose ``obj_lex`` is ``lex_width``
    characters wide (every row the same width)."""
    from shaclex_ray.terms import TRIPLES_SCHEMA

    rng = np.random.default_rng(seed)
    lex = [f"{v:0{lex_width}d}" for v in rng.integers(0, 10**9, n)]
    return pa.table({
        "subj": [f"http://ex.org/doc/{i:08d}" for i in range(n)],
        "pred": ["http://ex.org/mentions"] * n,
        "obj_kind": ["literal"] * n,
        "obj_lex": lex,
        "obj_dt": ["http://www.w3.org/2001/XMLSchema#string"] * n,
        "obj_lang": [""] * n,
        "doc_id": [f"d{i // 10:07d}" for i in range(n)],
        "span_idx": pa.array(np.arange(n) % 10, pa.int32()),
    }, schema=TRIPLES_SCHEMA)


def _shards(tbl: pa.Table, nshards: int, root) -> list:
    root.mkdir()
    step = -(-tbl.num_rows // nshards)
    paths = []
    for i in range(nshards):
        paths.append(str(root / f"part-{i:03d}.parquet"))
        pq.write_table(tbl.slice(i * step, step), paths[-1])
    return paths


def test_plan_is_the_same_for_shards_and_blocks(ray_session, tmp_path, monkeypatch):
    """One table as parquet shards and as Dataset blocks: the same rows,
    bytes within 2% and the same groups, buckets and broadcast verdict
    (parquet bytes are the Arrow size of a sampled row group, not the
    footer's encoded size)."""
    tbl = _triples(8000, 12)
    files = _shards(tbl, 4, tmp_path / "t")
    ds = rd.from_arrow([tbl.slice(i * 2000, 2000).combine_chunks() for i in range(4)])
    nbytes = exchange.plan(ds).nbytes
    # targets away from a rounding edge: 2.5 tasks' worth, broadcast
    monkeypatch.setattr(exchange, "TASK_BYTES", int(nbytes / 2.5))
    monkeypatch.setattr(exchange, "BCAST_BYTES", nbytes * 2)
    a, b = exchange.plan(files), exchange.plan(ds)
    assert a.rows == b.rows == 8000
    assert abs(a.nbytes - b.nbytes) <= 0.02 * b.nbytes, (a.nbytes, b.nbytes)
    footer = sum(pq.ParquetFile(f).metadata.row_group(0).total_byte_size for f in files)
    assert a.nbytes > 2 * footer  # the encoded size would plan far smaller
    assert (a.groups, a.buckets, a.broadcast) == (b.groups, b.buckets, b.broadcast)
    assert (a.groups, a.buckets, a.broadcast) == (3, 3, True)
    assert len(a.inputs) == 4 and all(isinstance(x, str) for x in a.inputs)


def test_plan_cpu_cap_and_memory_bound(ray_session, tmp_path, monkeypatch):
    """A small ``TASK_BYTES`` spreads the work up to the cluster's CPUs
    and no further; a small ``MAX_TASK_BYTES`` takes the count past the
    CPUs so no task holds more than it, but not an actor fleet's; groups
    never exceed the inputs."""
    ncpu = int(ray.cluster_resources()["CPU"])
    files = _shards(_triples(6000, 12), 12, tmp_path / "t")
    base = exchange.plan(files)
    assert (base.groups, base.buckets) == (1, 1)  # a few hundred KB: one task
    monkeypatch.setattr(exchange, "TASK_BYTES", 1)
    cpu = exchange.plan(files)
    assert (cpu.groups, cpu.buckets) == (ncpu, ncpu)
    monkeypatch.setattr(exchange, "MAX_TASK_BYTES", base.nbytes // (2 * ncpu))
    mem = exchange.plan(files)
    assert mem.buckets == -(-base.nbytes // (base.nbytes // (2 * ncpu))) > ncpu
    assert mem.nbytes / mem.buckets <= exchange.MAX_TASK_BYTES
    assert mem.groups == min(12, mem.buckets)
    assert cpu.fleet == mem.fleet == ncpu  # an actor fleet stops at the CPUs
    monkeypatch.setattr(exchange, "BCAST_BYTES", base.nbytes)
    assert not exchange.plan(files).broadcast
    monkeypatch.setattr(exchange, "BCAST_BYTES", base.nbytes + 1)
    assert exchange.plan(files).broadcast


def test_plan_scales_with_row_width(ray_session, tmp_path, monkeypatch):
    """Same rows, ``obj_lex`` 10× wider: the fat corpus gets more groups
    and buckets in proportion to its bytes, and the bytes per task of
    the two corpora stay within 2× of each other."""
    narrow = exchange.plan(_shards(_triples(6000, 12), 64, tmp_path / "n"))
    fat = exchange.plan(_shards(_triples(6000, 120), 64, tmp_path / "f"))
    assert fat.rows == narrow.rows and fat.nbytes > 1.5 * narrow.nbytes
    # a memory bound of a quarter of the narrow corpus: past the CPU cap
    monkeypatch.setattr(exchange, "MAX_TASK_BYTES", narrow.nbytes // 4)
    narrow, fat = (exchange.plan(list(p.inputs)) for p in (narrow, fat))
    assert narrow.buckets == narrow.groups >= 4
    assert fat.buckets == fat.groups
    ratio = fat.nbytes / narrow.nbytes
    assert ratio / 2 <= fat.buckets / narrow.buckets <= ratio * 2
    per_task = [p.nbytes / p.buckets for p in (narrow, fat)]
    assert max(per_task) <= 2 * min(per_task), per_task


@pytest.mark.parametrize("empty_first", [False, True])
def test_parquet_sample_is_streamed_with_the_same_estimate(tmp_path, empty_first):
    """``_parquet_size`` decodes its sample in small batches, and its
    estimate equals the one from decoding the same rows (the first
    ``_SAMPLE_ROWS`` of the first non-empty row group) as one batch: on
    a file of several row groups, one of them larger than the sample,
    and on one whose first row group is empty."""
    tbl = _triples(150_000, 12)
    path = str(tmp_path / "t.parquet")
    with pq.ParquetWriter(path, tbl.schema) as w:
        if empty_first:
            w.write_table(tbl.slice(0, 0))
        w.write_table(tbl, row_group_size=70_000)
    pf = pq.ParquetFile(path)
    sizes = [pf.metadata.row_group(i).num_rows
             for i in range(pf.metadata.num_row_groups)]
    assert sizes == [0] * empty_first + [70_000, 70_000, 10_000]
    cols = ["subj", "obj_lex", "span_idx"]
    one = next(pf.iter_batches(exchange._SAMPLE_ROWS, row_groups=[empty_first],
                               columns=cols))
    assert one.num_rows == exchange._SAMPLE_ROWS
    want = math.ceil(tbl.num_rows * one.nbytes / one.num_rows)
    assert exchange._parquet_size([path], cols) == (tbl.num_rows, want)


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
        monkeypatch.setattr(exchange, "TASK_BYTES", 1)
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

# the modules that may read the cluster's CPU count, and how often: the
# exchange plan, the document partitions, and the sparql, multimodal and
# bpe concurrency
CPU_READERS = {
    "stages/exchange.py": 1,
    "sources/documents.py": 2,
    "sources/sparql.py": 1,
    "functions/multimodal.py": 3,
    "functions/bpe.py": 1,
}


def _ray_actor_classes(src: str) -> list[str]:
    """The classes ``src`` makes Ray actors of: ``ray.remote(<Class>)``
    with a class defined in ``src``, or ``@ray.remote`` (bare or called)
    above a ``class``."""
    tree = ast.parse(src)
    classes = {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}

    def is_ray_remote(node) -> bool:
        if isinstance(node, ast.Call):
            node = node.func
        return (isinstance(node, ast.Attribute) and node.attr == "remote"
                and isinstance(node.value, ast.Name) and node.value.id == "ray")

    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.ClassDef) and any(map(is_ray_remote, n.decorator_list)):
            found.append(n.name)
        elif (isinstance(n, ast.Call) and is_ray_remote(n.func)
              and any(isinstance(a, ast.Name) and a.id in classes for a in n.args)):
            found += [a.id for a in n.args if isinstance(a, ast.Name)]
    return found


def test_actor_class_detector():
    assert _ray_actor_classes("import ray\nclass A: pass\nW = ray.remote(A)") == ["A"]
    assert _ray_actor_classes("import ray\n@ray.remote\nclass B: pass") == ["B"]
    assert _ray_actor_classes(
        "import ray\n@ray.remote(num_cpus=0)\nclass C: pass") == ["C"]
    assert _ray_actor_classes(
        "import ray\ndef f(): pass\nt = ray.remote(num_returns=2)(f)") == []


def test_no_hand_rolled_exchange_or_deleted_knob():
    """The split→bucket exchange lives in stages/exchange.py only, none
    of the deleted knobs or sizing rules is named anywhere, the cluster's
    CPU count is read only where ``CPU_READERS`` allows (``exchange.plan``
    is the one sizing rule), and no module joins Datasets with Ray Data's
    ``Dataset.join`` (``exchange.join`` is the one join): no
    ``.join(<expr>, "inner"|"left_outer"|…`` call, chained ones included,
    and no ``num_partitions=`` sizing. No module, ``__ray_entry__.py``
    included, groups with Ray Data's sort-based shuffle: no
    ``.groupby(``/``.map_groups(`` call and no ``ray.data.aggregate``.
    No module makes a Ray actor class (``ray.remote(<Class>)`` or
    ``@ray.remote`` above a ``class``): state that lasts across calls
    travels as task arguments, as validation's bucket state does, and
    the deleted actor pool's names are named nowhere."""
    knobs = re.compile(
        r"SHACLEX_(SPLIT_ROWS|USER_BUCKET_ROWS|BAND_BUCKET_ROWS"
        r"|BUCKET_ROWS|BUCKET_SPILL_ROWS|LINK_DIST_THRESHOLD|BPE_MAX_WORD_LEN"
        r"|REL_BCAST_THRESHOLD|JACCARD_BCAST_THRESHOLD|INFER_BCAST_THRESHOLD"
        r"|REP_VERDICT_BCAST_ROWS|DECON_BCAST_THRESHOLD|DEDUP_CC_THRESHOLD"
        r"|REP_DUP_RATIO|ROUND_DEBUG|ROUND_PROFILE|DIST_DEBUG)"
        r"|\b(SPLIT_ROWS|TASK_ROWS|BUCKET_ROWS|BAND_BUCKET_ROWS|USER_BUCKET_ROWS"
        r"|DECON_BCAST_ROWS|DECON_GRAMS_PER_DOC|group_count|default_buckets"
        r"|_ActorPool|BucketWorker|_RELEASE_WAIT_S)\b"
    )
    # the join type is the second argument; the first may span lines and
    # hold one level of parentheses
    ds_join = re.compile(
        r"\.join\((?:[^(),]|\([^()]*\))*,\s*\"(inner|left_outer|right_outer"
        r"|full_outer|left_semi|right_semi|left_anti|right_anti)\""
    )
    ray_groupby = re.compile(r"\.groupby\(|\.map_groups\(|ray\.data\.aggregate")
    offenders = []
    entry = PKG.parent / "__ray_entry__.py"
    if ray_groupby.search(entry.read_text()):
        offenders.append("__ray_entry__.py: Ray Data groupby")
    for path in sorted(PKG.rglob("*.py")):
        src = path.read_text()
        rel = path.relative_to(PKG).as_posix()
        if ray_groupby.search(src):
            offenders.append(f"{rel}: Ray Data groupby")
        if ".options(num_returns=" in src and rel != "stages/exchange.py":
            offenders.append(f"{rel}: hand-rolled split")
        if knobs.search(src):
            offenders.append(f"{rel}: names a deleted knob or the actor pool")
        for cls in _ray_actor_classes(src):
            offenders.append(f"{rel}: Ray actor class {cls}")
        if ds_join.search(src):
            offenders.append(f"{rel}: Dataset.join")
        if "num_partitions=" in src:
            offenders.append(f"{rel}: num_partitions=")
        if src.count("cluster_resources()") > CPU_READERS.get(rel, 0):
            offenders.append(f"{rel}: reads the cluster's CPU count")
    assert not offenders, offenders
