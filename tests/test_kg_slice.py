"""End-to-end KG slice: synth docs → extract → link → canonicalize + dedup,
with the per-row span-sequence invariant (input_hint) asserted, and the
pipeline's layer entry points pinned as module attributes."""

import pyarrow as pa
import pyarrow.compute as pc
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    from shaclex_ray.sources.documents import read_documents

    return read_documents(SF).materialize()


def test_span_sequence_invariant(docs_ds):
    """After building + any shuffle, each doc's span sequence
    (kind, text, media_ref, order) must match a direct single-threaded
    derivation from the source table."""
    import pyarrow.parquet as pq

    from shaclex_ray.sources.documents import build_spans_batch

    src = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id", "text", "lang", "source"]
    )
    golden = build_spans_batch(src)
    gold_map = {
        d: [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in spans]
        for d, spans in zip(
            golden.column("doc_id").to_pylist(), golden.column("spans").to_pylist()
        )
    }
    got = docs_ds.take_all()
    assert len(got) == len(gold_map)
    for row in got:
        seq = [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in row["spans"]]
        assert seq == gold_map[row["doc_id"]], row["doc_id"]
        offsets = [s[3] for s in seq]
        assert offsets == sorted(offsets)


def test_extract_dedup_link(docs_ds, tmp_path):
    from shaclex_ray.pipelines.kg import run_kg_pipeline
    from shaclex_ray.stages.extract import P_MENTIONS, extract_triples
    from shaclex_ray.stages.link import build_entity_links
    from shaclex_ray.sources.documents import ENTITY_VOCAB

    raw = extract_triples(docs_ds).materialize()
    n_raw = raw.count()
    assert n_raw > 0

    def rows(links_ds):
        return sorted(links_ds.take_all(), key=lambda r: r["mention"])

    links = rows(build_entity_links(raw))
    # every canonical is ent/<vocab word>
    canon = {r["canonical_iri"] for r in links}
    assert canon <= {f"http://ex.org/ent/{w}" for w in ENTITY_VOCAB}
    # mapping is deterministic: rebuild and compare
    links2 = rows(build_entity_links(raw))
    assert links == links2

    out = run_kg_pipeline(SF, str(tmp_path), nbuckets=4, validate=False)
    # no validation stage: no report or typing output (the CLI prints
    # None violations)
    assert "report" not in out and "typing" not in out
    assert sorted(out) == ["links", "metrics", "triples"]
    assert rows(out["links"]) == links
    dd = out["triples"]
    n_dd = dd.count()
    assert 0 < n_dd < n_raw

    # no duplicate identity tuples remain
    tbl = pa.Table.from_pylist(dd.take_all())
    import polars as pl

    from shaclex_ray.terms import TRIPLE_ID_COLS

    df = pl.from_arrow(tbl)
    assert df.unique(subset=TRIPLE_ID_COLS).height == df.height

    # all mention IRIs rewritten to canonical entity IRIs
    ment = df.filter(pl.col("pred") == P_MENTIONS)
    assert ment.height > 0
    assert (
        ment.filter(pl.col("obj_lex").str.starts_with("http://ex.org/mention/")).height
        == 0
    )


def test_pipeline_layer_hooks(ray_session, tmp_path, monkeypatch):
    """run_kg_pipeline reaches linking, the canonical dedup exchange and
    validation through module attributes that a wrapper can replace (the
    benchmark's per-layer spans depend on it): each is called once."""
    from shaclex_ray.pipelines import kg
    from shaclex_ray.stages import dedup

    calls = {}

    def count(owner, name):
        orig = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            result = orig(*args, **kwargs)
            # the pipeline reads attributes a function sets on itself
            wrapper.__dict__.update(orig.__dict__)
            return result

        monkeypatch.setattr(owner, name, wrapper)

    count(dedup, "dedup_triples_fast_from_parquet")
    count(kg, "build_entity_links")
    count(kg, "distributed_validate")
    out = kg.run_kg_pipeline(SF, str(tmp_path), resume=False)
    assert out["triples"].count() > 0
    assert calls == {
        "dedup_triples_fast_from_parquet": 1,
        "build_entity_links": 1,
        "distributed_validate": 1,
    }


def test_validation_input_planned_once(ray_session, tmp_path, monkeypatch):
    """run_kg_pipeline plans the canonical shards zero times: validation
    takes the canonical dedup's blocks by reference and its fleet is
    sized from the bytes the dedup's bucket tasks reported, so the
    driver reads no shard footer or sample. The pipeline still passes
    the fleet size as an int ``nbuckets`` (the benchmark's tracer reads
    that keyword)."""
    from shaclex_ray.pipelines import kg
    from shaclex_ray.stages import exchange

    planned, fleets = [], []
    plan, validate = exchange.plan, kg.distributed_validate

    def counting(inputs, *args, **kwargs):
        if isinstance(inputs, (list, tuple)):
            planned.append(tuple(inputs))
        return plan(inputs, *args, **kwargs)

    def watched(*args, **kwargs):
        fleets.append(kwargs.get("nbuckets"))
        out = validate(*args, **kwargs)
        watched.__dict__.update(validate.__dict__)
        return out

    monkeypatch.setattr(exchange, "plan", counting)
    monkeypatch.setattr(kg, "distributed_validate", watched)
    kg.run_kg_pipeline(SF, str(tmp_path), resume=False)
    canonical = [p for p in planned if any("triples_canonical" in f for f in p)]
    assert fleets == [1]
    assert canonical == [], planned


def test_outputs_are_read_on_first_access(ray_session, tmp_path, monkeypatch):
    """A KG run whose outputs nobody reads builds no Ray Data datasource:
    validation takes the canonical blocks by reference. Asking ``in``, ``keys()``, ``len`` or ``get`` of a missing key reads
    nothing; each stage output, on first access and on a resumed rerun,
    equals ``read_parts`` of its stage directory and is cached."""
    import ray.data

    from shaclex_ray.pipelines.kg import run_kg_pipeline
    from shaclex_ray.state.checkpoint import read_parts

    calls = []
    orig = ray.data.read_parquet

    def counting(*args, **kwargs):
        calls.append(args[0] if args else kwargs.get("paths"))
        return orig(*args, **kwargs)

    monkeypatch.setattr(ray.data, "read_parquet", counting)
    out_dir = str(tmp_path / "kg")
    out = run_kg_pipeline(SF, out_dir, resume=False)
    assert calls == []
    assert "report" in out and "typing" in out and "nope" not in out
    assert sorted(out.keys()) == ["links", "metrics", "report", "triples", "typing"]
    assert len(out) == 5 and out.get("nope") is None
    assert calls == []

    dirs = {
        "triples": f"{out_dir}/triples_canonical",
        "links": f"{out_dir}/entity_links/shards",
        "typing": f"{out_dir}/validation/typing",
        "report": f"{out_dir}/validation/report",
    }

    def rows(ds):
        return sorted(map(repr, ds.to_pandas().to_dict("records")))

    for resume in (False, True):
        if resume:
            out = run_kg_pipeline(SF, out_dir, resume=True)
            assert all(m.get("resumed") for m in out["metrics"].values())
        for key, path in dirs.items():
            got = out[key]
            assert got is out[key]
            want = rows(read_parts(path))
            assert want and rows(got) == want, key



def _stage_rows(path) -> list:
    import pyarrow.parquet as pq

    tbl = pq.read_table(path)
    return sorted(zip(*[c.to_pylist() for c in tbl.columns]), key=repr)


def test_resumed_canonical_stage_validates_from_its_shards(
    ray_session, tmp_path, monkeypatch
):
    """A fresh run hands the canonical blocks to validation by reference;
    with the validation stage's manifest and directory deleted, a resumed
    run reads the checkpointed canonical shards instead, and its typing
    and report equal the fresh run's."""
    import shutil

    from shaclex_ray.pipelines import kg

    inputs = []
    validate = kg.distributed_validate

    def watched(triples, *args, **kwargs):
        inputs.append((triples is None, kwargs.get("parquet_path")))
        out = validate(triples, *args, **kwargs)
        watched.__dict__.update(validate.__dict__)
        return out

    monkeypatch.setattr(kg, "distributed_validate", watched)
    out_dir = str(tmp_path / "kg")
    kg.run_kg_pipeline(SF, out_dir, resume=False)
    fresh = {t: _stage_rows(f"{out_dir}/validation/{t}") for t in ("typing", "report")}
    assert fresh["typing"] and fresh["report"]

    shutil.rmtree(f"{out_dir}/validation")
    out = kg.run_kg_pipeline(SF, out_dir, resume=True)
    assert out["metrics"]["triples_canonical"].get("resumed")
    assert not out["metrics"]["validation"].get("resumed")
    assert inputs == [(False, None), (True, f"{out_dir}/triples_canonical")]
    for t, want in fresh.items():
        assert _stage_rows(f"{out_dir}/validation/{t}") == want, t


def test_empty_corpus_through_the_handoff(ray_session, tmp_path):
    """A corpus with no documents: the canonical stage hands an empty
    table to validation, which writes one typed empty part each for
    typing and report."""
    import pyarrow.parquet as pq

    from shaclex_ray.pipelines.kg import run_kg_pipeline
    from shaclex_ray.validate.dist import REPORT_SCHEMA, TYPING_SCHEMA

    sf = tmp_path / "sf"
    sf.mkdir()
    docs = pq.read_table(f"{SF}/documents.parquet")
    pq.write_table(docs.schema.empty_table(), sf / "documents.parquet")
    out_dir = tmp_path / "kg"
    out = run_kg_pipeline(str(sf), str(out_dir), resume=False)
    assert out["metrics"]["triples_canonical"]["rows"] == 0
    for name, schema in (("typing", TYPING_SCHEMA), ("report", REPORT_SCHEMA)):
        (part,) = (out_dir / "validation" / name).iterdir()
        tbl = pq.read_table(part)
        assert tbl.num_rows == 0 and tbl.schema.names == schema.names, name
        assert out[name].count() == 0
