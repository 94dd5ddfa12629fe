"""Unit tests for the dedup keep-rows kernel (stages/dedup.py):
witness selection, hash-collision fallback exactness, and parity between
the one-move exchange and a pandas reference distinct."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray

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


def _links_dict(raw) -> dict:
    """The ``build_entity_links`` table as a mention → canonical dict."""
    from shaclex_ray.stages.link import build_entity_links

    return {
        r["mention"]: r["canonical_iri"]
        for r in build_entity_links(raw).take_all()
    }


def _reference_canonical(raw: pa.Table, links: dict) -> pd.DataFrame:
    """The canonical rewrite in-process, by dict lookup through the link
    table: ``subj`` and iri-kind ``obj_lex`` rewritten, and one
    (rdf:type ex:Entity, ex:surface) pair with the ("", -1) witness per
    canonical IRI appended. No dedup."""
    from shaclex_ray.stages.extract import (
        C_ENTITY, ENT_NS, P_SURFACE, RDF_TYPE, XSD_STRING,
    )

    df = raw.to_pandas()
    df["subj"] = df["subj"].map(lambda v: links.get(v, v))
    iri = df["obj_kind"] == "iri"
    df.loc[iri, "obj_lex"] = df.loc[iri, "obj_lex"].map(lambda v: links.get(v, v))
    meta = []
    for c in sorted(set(links.values())):
        meta.append((c, RDF_TYPE, "iri", C_ENTITY, "", "", "", -1))
        meta.append((c, P_SURFACE, "literal", c[len(ENT_NS):], XSD_STRING, "", "", -1))
    meta = pd.DataFrame(meta, columns=df.columns).astype(df.dtypes.to_dict())
    return pd.concat([df, meta], ignore_index=True)


def _least_witness(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(TRIPLE_ID_COLS + ["doc_id", "span_idx"]).drop_duplicates(
        subset=TRIPLE_ID_COLS, keep="first"
    )


def _sf_raw(tmp_path):
    from shaclex_ray.sources.documents import read_documents
    from shaclex_ray.stages.extract import extract_triples

    raw = extract_triples(read_documents("/root/testdata/sf0.001")).materialize()
    raw_dir = str(tmp_path / "raw")
    raw.write_parquet(raw_dir)
    links = _links_dict(raw)
    assert links
    return raw_dir, links


def _assert_same_rows(got, ref):
    cols = list(ref.columns)
    pd.testing.assert_frame_equal(
        got.sort_values(cols, ignore_index=True)[cols],
        ref.sort_values(cols, ignore_index=True),
    )


def test_fused_canonical_dedup_equals_unfused(ray_session, tmp_path):
    """The canonicalize+dedup exchange (rewrite and entity metadata inside
    the split tasks) produces the exact table of the unfused compose: the
    reference rewrite of every raw triple in-process, staged as parquet
    shards, then the same exchange, which is the plain distinct on input
    that is already canonical."""
    import pyarrow.parquet as pq

    from shaclex_ray.stages.dedup import dedup_triples_fast_from_parquet

    raw_dir, links = _sf_raw(tmp_path)
    fused = dedup_triples_fast_from_parquet(raw_dir, nbuckets=4).to_pandas()

    cano = pa.Table.from_pandas(
        _reference_canonical(pq.read_table(raw_dir), links), preserve_index=False
    )
    staged = tmp_path / "cano"
    staged.mkdir()
    half = cano.num_rows // 2
    pq.write_table(cano.slice(0, half), staged / "part-0.parquet")
    pq.write_table(cano.slice(half), staged / "part-1.parquet")
    unfused = dedup_triples_fast_from_parquet(str(staged), nbuckets=4).to_pandas()
    _assert_same_rows(fused, unfused)


# the id names the one rewrite regime left: the row function in the
# dedup split tasks
@pytest.mark.parametrize("regime", ["broadcast"])
def test_canonical_regimes_match_reference(ray_session, tmp_path, regime):
    """The KG pipeline's canonical stage gives exactly the table of an
    in-process reference: the dict-lookup rewrite applied to every raw
    triple, the entity metadata appended, and the least (doc_id,
    span_idx) witness kept per identity."""
    import pyarrow.parquet as pq

    from shaclex_ray.stages.dedup import dedup_triples_fast_from_parquet

    raw_dir, links = _sf_raw(tmp_path)
    got = dedup_triples_fast_from_parquet(raw_dir, nbuckets=4).to_pandas()
    ref = _least_witness(_reference_canonical(pq.read_table(raw_dir), links))
    _assert_same_rows(got, ref)


def test_canonical_exchange_is_idempotent(ray_session, tmp_path):
    """The canonicalize+dedup exchange over its own output returns the
    same table: canonical triples hold no mention IRI, so nothing is
    rewritten and no entity metadata is added."""
    import pyarrow.parquet as pq

    from shaclex_ray.stages.dedup import dedup_triples_fast_from_parquet

    raw_dir, _ = _sf_raw(tmp_path)
    once = pa.concat_tables(
        ray.get(dedup_triples_fast_from_parquet(raw_dir, nbuckets=4).to_arrow_refs())
    )
    out = tmp_path / "once"
    out.mkdir()
    pq.write_table(once, out / "part-0.parquet")
    twice = pa.concat_tables(
        ray.get(dedup_triples_fast_from_parquet(str(out), nbuckets=4).to_arrow_refs())
    )
    assert once.num_rows > 0 and twice.equals(once)


def _surface(rng) -> str:
    core = "".join(
        rng.choice(["a", "A", "b", "B", "É", "é", "Σ", "σ", "ẞ", "ß", "x y"])
        for _ in range(rng.integers(1, 4))
    )
    pad = ["", " ", "\t", "\n", "\u00a0"]
    return rng.choice(pad) + core + rng.choice(pad)


def test_canonical_rewrite_property_random_surfaces(ray_session, tmp_path):
    """Over random mention surfaces (ASCII case mixes, leading/trailing
    tab, newline and NBSP, non-ASCII letters), the canonicalize+dedup
    exchange rewrites every mention exactly as a dict lookup through the
    ``build_entity_links`` table (which holds the mentions only), emits exactly one (type, surface) pair
    with the ("", -1) witness per distinct canonical IRI, and leaves
    non-mention IRIs, ``media://`` refs and literals unchanged."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from shaclex_ray.stages.dedup import dedup_triples_fast_from_parquet
    from shaclex_ray.stages.extract import (
        C_ENTITY, C_MEDIA, C_MENTION, DOC_NS, ENT_NS, MENTION_NS, P_MEDIA,
        P_MENTIONS, P_SURFACE, P_TEXT, RDF_TYPE, XSD_STRING,
    )
    from shaclex_ray.terms import TRIPLES_SCHEMA

    rng = np.random.default_rng(7)
    rows = []
    for k in range(600):
        doc, span = f"d{rng.integers(40)}", int(rng.integers(20))
        doc_iri = DOC_NS + doc
        kind = rng.integers(4)
        if kind < 2:
            m = MENTION_NS + _surface(rng)
            rows.append((doc_iri, P_MENTIONS, "iri", m, "", "", doc, span))
            rows.append((m, RDF_TYPE, "iri", C_MENTION, "", "", doc, span))
        elif kind == 2:
            media = f"media://img/{k}"
            rows.append((doc_iri, P_MEDIA, "iri", media, "", "", doc, span))
            rows.append((media, RDF_TYPE, "iri", C_MEDIA, "", "", doc, span))
        else:
            # a literal spelled like a mention IRI, and an IRI in a
            # neighbouring namespace, also under ex:mentions: none is a
            # mention
            rows.append((doc_iri, P_TEXT, "literal", MENTION_NS + _surface(rng),
                         XSD_STRING, "", doc, span))
            for pred in (P_TEXT, P_MENTIONS):
                rows.append((doc_iri, pred, "iri", "http://ex.org/mentions/x",
                             "", "", doc, span))
    raw = pa.Table.from_pylist(
        [dict(zip(TRIPLES_SCHEMA.names, r)) for r in rows], schema=TRIPLES_SCHEMA
    )
    raw_dir = tmp_path / "raw"
    raw_dir.mkdir()
    third = raw.num_rows // 3
    for i in range(3):
        pq.write_table(raw.slice(i * third, third if i < 2 else None),
                       raw_dir / f"part-{i}.parquet")

    links = _links_dict(rd.from_arrow(raw))
    # the random surfaces do collide after normalization
    assert len(set(links.values())) < len(links)
    got = dedup_triples_fast_from_parquet(str(raw_dir), nbuckets=4).to_pandas()
    _assert_same_rows(got, _least_witness(_reference_canonical(raw, links)))

    meta = got[got["subj"].str.startswith(ENT_NS)
               & got["pred"].isin([RDF_TYPE, P_SURFACE])
               & (got["obj_lex"] != C_MENTION)]
    assert sorted(meta["subj"].unique()) == sorted(set(links.values()))
    assert len(meta) == 2 * meta["subj"].nunique()
    assert (meta.groupby(["subj", "pred"]).size() == 1).all()
    assert (meta["doc_id"] == "").all() and (meta["span_idx"] == -1).all()
    surface = meta[meta["pred"] == P_SURFACE]
    assert (ENT_NS + surface["obj_lex"] == surface["subj"]).all()
    assert (meta.loc[meta["pred"] == RDF_TYPE, "obj_lex"] == C_ENTITY).all()

    assert not got["subj"].str.startswith(MENTION_NS).any()
    untouched = raw.to_pandas()
    untouched = untouched[~untouched["subj"].str.startswith(MENTION_NS)
                          & (untouched["pred"] != P_MENTIONS)]
    _assert_same_rows(
        got.merge(untouched[TRIPLE_ID_COLS].drop_duplicates(), on=TRIPLE_ID_COLS),
        _least_witness(untouched),
    )


def test_literal_mention_lookalike_is_not_linked(ray_session, tmp_path):
    """A literal ``ex:mentions`` object spelled like a mention IRI is not
    a mention: it gets no link row, from parquet files or a Dataset, and
    the canonical table keeps it as it is (``canonicalize`` rewrites
    iri-kind objects only)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from shaclex_ray.stages.dedup import dedup_triples_fast_from_parquet
    from shaclex_ray.stages.extract import (
        DOC_NS, ENT_NS, MENTION_NS, P_MENTIONS, XSD_STRING,
    )
    from shaclex_ray.stages.link import build_entity_links
    from shaclex_ray.terms import TRIPLES_SCHEMA

    doc = DOC_NS + "d0"
    literal = MENTION_NS + "LitOnly"
    rows = [
        (doc, P_MENTIONS, "iri", MENTION_NS + "Graph", "", "", "d0", 0),
        (doc, P_MENTIONS, "literal", literal, XSD_STRING, "", "d0", 1),
    ]
    raw = pa.Table.from_pylist(
        [dict(zip(TRIPLES_SCHEMA.names, r)) for r in rows], schema=TRIPLES_SCHEMA
    )
    pq.write_table(raw, tmp_path / "part-0.parquet")
    want = {MENTION_NS + "Graph": ENT_NS + "graph"}
    assert _links_dict(rd.from_arrow(raw)) == want
    assert _links_dict([str(tmp_path / "part-0.parquet")]) == want

    got = dedup_triples_fast_from_parquet(str(tmp_path), nbuckets=4).to_pandas()
    lit = got[got["obj_kind"] == "literal"]
    assert lit[lit["pred"] == P_MENTIONS]["obj_lex"].tolist() == [literal]
    assert not got["subj"].str.endswith("litonly").any()


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
