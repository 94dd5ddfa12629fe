"""Sequence packing (``functions/pack.py``) on the one exchange: equal to
its DuckDB twin whatever the bucket count, with or without doc_id
statistics in the parquet footers, and an empty or missing input packs
one typed empty part."""

import glob
import os

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from shaclex_ray.functions import pack
from shaclex_ray.stages import exchange

CAPACITY = 16
VOCAB = "the of a graph shape node triple focus path data".split()


def _write_docs(root, statistics: bool) -> str:
    """Three files of docs with gapped, unordered doc_ids, empty and null
    texts, and token counts below and above the chunk capacity."""
    rng = np.random.default_rng(5)
    ids = rng.permutation(np.arange(0, 300, 2))  # gaps, not in file order
    path = os.path.join(str(root), "docs")
    os.makedirs(path)
    for f, chunk in enumerate(np.array_split(ids, 3)):
        texts = [" ".join(rng.choice(VOCAB, rng.integers(1, 40))) for _ in chunk]
        texts[0], texts[1] = "", None
        tbl = pa.table({"doc_id": pa.array(chunk, pa.int64()),
                        "text": pa.array(texts, pa.string())})
        pq.write_table(tbl, f"{path}/part-{f}.parquet", row_group_size=20,
                       write_statistics=statistics)
    return path


def _rows(ds) -> list:
    return sorted(tuple(r.values()) for r in ds.take_all())


def _twin(path: str) -> list:
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{path}/*.parquet')")
    return sorted(con.execute(pack.pack_sequences_sql(CAPACITY)).fetchall())


@pytest.fixture
def forced_buckets(monkeypatch):
    """Pin ``exchange.TASK_BYTES`` and record each split's bucket count."""
    split, seen = exchange.split, []

    def recorded(kernel, args, plan, schema, columns=None, nbuckets=None):
        refs = split(kernel, args, plan, schema, columns, nbuckets=nbuckets)
        seen.append(len(refs[0]))
        return refs

    monkeypatch.setattr(exchange, "split", recorded)

    def force(task_bytes):
        monkeypatch.setattr(exchange, "TASK_BYTES", task_bytes)
        del seen[:]
        return seen

    return force


@pytest.mark.parametrize("statistics", [True, False])
def test_pack_matches_twin_at_any_bucket_count(ray_session, tmp_path, forced_buckets,
                                               statistics):
    """One bucket and one per CPU give the twin's rows, as a Dataset and
    as the shards the bucket tasks write; a footer without doc_id
    statistics takes its bounds from one column scan."""
    path = _write_docs(tmp_path, statistics)
    meta = pq.read_metadata(glob.glob(f"{path}/*.parquet")[0])
    assert meta.row_group(0).column(0).is_stats_set is statistics
    assert pack._doc_id_bounds(sorted(glob.glob(f"{path}/*.parquet"))) == (0, 298)
    want = _twin(path)
    assert want
    for task_bytes, check in ((1 << 60, lambda nb: nb == 1), (1, lambda nb: nb >= 3)):
        seen = forced_buckets(task_bytes)
        assert _rows(pack.pack_sequences(capacity=CAPACITY, docs_path=path)) == want
        out = str(tmp_path / f"packed-{task_bytes}")
        n = pack.pack_sequences(capacity=CAPACITY, docs_path=path, output_dir=out)
        got = pq.read_table(out)
        assert n == got.num_rows and got.schema == pack.PACKED_SCHEMA
        assert sorted(zip(*got.to_pydict().values())) == want
        assert len(seen) == 2 and all(map(check, seen)), seen


@pytest.mark.parametrize("train", ["missing", "empty"])
def test_pack_of_an_empty_train_split(ray_session, tmp_path, train):
    """A train split that is missing or holds no rows packs one typed empty
    part, and as a Dataset one typed empty block."""
    path = str(tmp_path / "split=train")
    if train == "empty":
        os.makedirs(path)
        pq.write_table(pa.table({"doc_id": pa.array([], pa.int64()),
                                 "text": pa.array([], pa.string())}),
                       f"{path}/part-empty.parquet")
    out = str(tmp_path / "packed")
    assert pack.pack_sequences(capacity=CAPACITY, docs_path=path, output_dir=out) == 0
    parts = glob.glob(f"{out}/*.parquet")
    assert [os.path.basename(p) for p in parts] == ["part-empty.parquet"]
    assert pq.read_schema(parts[0]) == pack.PACKED_SCHEMA
    ds = pack.pack_sequences(capacity=CAPACITY, docs_path=path).materialize()
    assert ds.count() == 0 and ds.schema().names == pack.PACKED_SCHEMA.names
