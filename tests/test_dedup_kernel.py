"""Unit tests for the dedup keep-rows kernel (stages/dedup.py):
witness selection, hash-collision fallback exactness, and parity between
the one-move exchange and a pandas reference distinct."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from shaclex_ray.stages.dedup import _keep_rows, _row_hash
from shaclex_ray.terms import TRIPLE_ID_COLS


def _triples_table(rows):
    cols = {c: [] for c in TRIPLE_ID_COLS + ["doc_id", "span_idx"]}
    for r in rows:
        for c in cols:
            cols[c].append(r[c])
    return pa.table(
        {
            c: pa.array(
                v, pa.int64() if c in ("doc_id", "span_idx") else pa.string()
            )
            for c, v in cols.items()
        }
    )


def _row(subj, doc, span, pred="p"):
    return {
        "subj": subj,
        "pred": pred,
        "obj_kind": "iri",
        "obj_lex": "o",
        "obj_dt": "",
        "obj_lang": "",
        "doc_id": doc,
        "span_idx": span,
    }


def test_keep_rows_least_witness_survives():
    tbl = _triples_table(
        [
            _row("a", 7, 3),
            _row("a", 2, 9),
            _row("a", 2, 1),
            _row("b", 5, 5),
        ]
    )
    h = _row_hash(tbl)
    order = np.argsort(h, kind="stable")
    kept = _keep_rows(tbl, order, h, TRIPLE_ID_COLS, ["doc_id", "span_idx"])
    out = tbl.take(pa.array(kept)).to_pandas()
    assert len(out) == 2
    a = out[out.subj == "a"].iloc[0]
    assert (a.doc_id, a.span_idx) == (2, 1)  # least (doc_id, span_idx)


def test_keep_rows_collision_fallback_exact():
    # craft a fake hash array where DIFFERENT identities share one hash,
    # interleaved by witness order — the integer-witness fast path alone
    # would over-keep; the fallback must resolve it exactly
    tbl = _triples_table(
        [
            _row("x", 1, 0),
            _row("y", 2, 0),
            _row("x", 3, 0),
            _row("y", 4, 0),
            _row("z", 1, 1),
        ]
    )
    h = np.array([11, 11, 11, 11, 99], dtype=np.uint64)
    order = np.argsort(h, kind="stable")
    kept = _keep_rows(tbl, order, h, TRIPLE_ID_COLS, ["doc_id", "span_idx"])
    out = tbl.take(pa.array(kept)).to_pandas()
    assert sorted(out.subj) == ["x", "y", "z"]
    assert out[out.subj == "x"].iloc[0].doc_id == 1  # min witness per identity
    assert out[out.subj == "y"].iloc[0].doc_id == 2


def test_keep_rows_no_witness_full_row_distinct():
    tbl = pa.table({"a": ["u", "v", "u", "w"], "b": ["1", "2", "1", "3"]})
    h = _row_hash(tbl, ["a", "b"])
    order = np.argsort(h, kind="stable")
    kept = _keep_rows(tbl, order, h, ["a", "b"], None)
    out = tbl.take(pa.array(kept)).to_pandas()
    ref = tbl.to_pandas().drop_duplicates()
    assert sorted(map(tuple, out.values.tolist())) == sorted(
        map(tuple, ref.values.tolist())
    )


def test_dedup_fast_matches_pandas_reference(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from shaclex_ray.stages.dedup import dedup_triples_fast_from_parquet

    rng = np.random.default_rng(0)
    rows = [
        _row(f"s{rng.integers(40)}", int(rng.integers(10)), int(rng.integers(6)),
             pred=f"p{rng.integers(3)}")
        for _ in range(4000)
    ]
    tbl = _triples_table(rows)
    # several shards, so the split side combines across files
    for i in range(4):
        pq.write_table(tbl.slice(i * 1000, 1000), tmp_path / f"part-{i}.parquet")
    out = (
        dedup_triples_fast_from_parquet(str(tmp_path), nbuckets=4)
        .to_pandas()
        .sort_values(TRIPLE_ID_COLS, ignore_index=True)
    )
    ref = (
        tbl.to_pandas()
        .sort_values(TRIPLE_ID_COLS + ["doc_id", "span_idx"])
        .drop_duplicates(subset=TRIPLE_ID_COLS, keep="first")
        .sort_values(TRIPLE_ID_COLS, ignore_index=True)
    )
    pd.testing.assert_frame_equal(out, ref)


def _raw_and_links(tmp_path):
    from shaclex_ray.sources.documents import read_documents
    from shaclex_ray.stages.extract import extract_triples
    from shaclex_ray.stages.link import build_entity_links

    raw = extract_triples(read_documents("/root/testdata/sf0.001")).materialize()
    raw_dir = str(tmp_path / "raw")
    raw.write_parquet(raw_dir)
    links = build_entity_links(raw, distributed=False)
    assert isinstance(links, pa.Table) and links.num_rows > 0
    return raw_dir, links


def _fused(raw_dir, links):
    from shaclex_ray.stages.dedup import dedup_triples_fast_from_parquet
    from shaclex_ray.stages.link import entity_triples

    return dedup_triples_fast_from_parquet(
        raw_dir, nbuckets=4,
        canonicalize_with=links, extra_tables=[entity_triples(links)],
    ).to_pandas()


def _assert_same_rows(got, ref):
    cols = list(ref.columns)
    pd.testing.assert_frame_equal(
        got.sort_values(cols, ignore_index=True)[cols],
        ref.sort_values(cols, ignore_index=True),
    )


def test_fused_canonical_dedup_equals_unfused(ray_session, tmp_path):
    """The fused canonicalize+dedup exchange (rewrite inside the split
    tasks, entity metadata as an extra table) produces the exact table of
    the unfused compose: rewrite every raw triple in-process, append the
    metadata, stage as parquet shards, then run the plain exchange."""
    import pyarrow.parquet as pq

    from shaclex_ray.stages.dedup import dedup_triples_fast_from_parquet
    from shaclex_ray.stages.link import Canonicalizer, entity_triples

    raw_dir, links = _raw_and_links(tmp_path)
    fused = _fused(raw_dir, links)

    cano = pa.concat_tables(
        [Canonicalizer(links)(pq.read_table(raw_dir)), entity_triples(links)]
    )
    staged = tmp_path / "cano"
    staged.mkdir()
    half = cano.num_rows // 2
    pq.write_table(cano.slice(0, half), staged / "part-0.parquet")
    pq.write_table(cano.slice(half), staged / "part-1.parquet")
    unfused = dedup_triples_fast_from_parquet(str(staged), nbuckets=4).to_pandas()
    _assert_same_rows(fused, unfused)


def test_fused_from_parquet_equals_unfused(ray_session, tmp_path):
    """The fused exchange over the raw parquet shards equals the unfused
    join-regime compose over the SAME link table: ``canonicalize_triples``
    hash-joins the links onto the triples, the result is staged as parquet
    and deduplicated by the plain exchange."""
    import ray.data as rd

    from shaclex_ray.pipelines.kg import canonical_triples

    raw_dir, links = _raw_and_links(tmp_path)
    fused = _fused(raw_dir, links)

    unfused = canonical_triples(
        raw_dir, rd.from_arrow(links), 4, str(tmp_path / "staged")
    ).to_pandas()
    _assert_same_rows(fused, unfused)


@pytest.mark.parametrize("regime", ["broadcast", "join"])
def test_canonical_regimes_match_reference(ray_session, tmp_path, regime):
    """Both canonicalization regimes of the KG pipeline's canonical stage
    — the broadcast rewrite fused into the dedup split tasks, and the join
    rewrite (links from the distributed component merge) staged as
    parquet — give exactly the table of an in-process reference: the
    broadcast kernel applied to every raw triple, the entity metadata
    appended, and the least (doc_id, span_idx) witness kept per identity."""
    import pyarrow.parquet as pq

    from shaclex_ray.pipelines.kg import canonical_triples
    from shaclex_ray.sources.documents import read_documents
    from shaclex_ray.stages.extract import extract_triples
    from shaclex_ray.stages.link import (
        Canonicalizer,
        build_entity_links,
        entity_triples,
    )

    raw = extract_triples(read_documents("/root/testdata/sf0.001")).materialize()
    raw_dir = str(tmp_path / "raw")
    raw.write_parquet(raw_dir)
    links_tbl = build_entity_links(raw, distributed=False)
    assert isinstance(links_tbl, pa.Table) and links_tbl.num_rows > 0
    links = (
        links_tbl if regime == "broadcast"
        else build_entity_links(raw, distributed=True)
    )
    staging = tmp_path / "staged"
    got = canonical_triples(raw_dir, links, 4, str(staging)).to_pandas()
    assert staging.exists() == (regime == "join")

    rewritten = Canonicalizer(links_tbl)(pq.read_table(raw_dir))
    ref = (
        pa.concat_tables([rewritten, entity_triples(links_tbl)])
        .to_pandas()
        .sort_values(TRIPLE_ID_COLS + ["doc_id", "span_idx"])
        .drop_duplicates(subset=TRIPLE_ID_COLS, keep="first")
    )
    cols = list(ref.columns)
    pd.testing.assert_frame_equal(
        got[cols].sort_values(cols, ignore_index=True),
        ref.sort_values(cols, ignore_index=True),
    )


def test_distinct_rows_null_identity_columns(ray_session):
    """Duplicate rows carrying nulls in identity columns must dedup (SQL
    DISTINCT: null == null), not crash — pc.not_equal yields null for
    null operands and the old kernel degraded to an object-dtype array
    that killed the |= reduction."""
    import ray.data as rd

    from shaclex_ray.stages.dedup import distinct_rows_fast

    tbl = pa.table(
        {
            "a": pa.array(["x", "x", "z", None, None], pa.string()),
            "b": pa.array([None, None, "y", "w", "w"], pa.string()),
        }
    )
    out = distinct_rows_fast(rd.from_arrow(tbl))
    rows = sorted(
        ((r["a"], r["b"]) for r in out.take_all()),
        key=lambda t: tuple("" if v is None else v for v in t),
    )
    assert rows == [(None, "w"), ("x", None), ("z", "y")]


def test_distinct_rows_empty_keeps_real_types(ray_session):
    """An empty distinct must carry the INPUT schema (the old fallback
    fabricated all-string columns, breaking downstream concat/union)."""
    import ray.data as rd

    from shaclex_ray.stages.dedup import distinct_rows_fast

    schema = pa.schema([("a", pa.int64()), ("b", pa.string())])
    out = distinct_rows_fast(rd.from_arrow(schema.empty_table()))
    got = out.schema()
    assert list(got.names) == ["a", "b"]
    assert got.types[0] == pa.int64()
