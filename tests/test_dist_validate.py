"""Distributed BSP validator agrees with the conformance-verified local
validators (ShEx subset + SHACL subset of the vendored suites)."""

import copy
import os

import pyarrow as pa
import pytest


def _shex_cases(n, step):
    from shaclex_ray.conformance import SKIP_TRAITS, load_shex_manifest

    cases = [
        c
        for c in load_shex_manifest()
        if not (c["traits"] & SKIP_TRAITS)
        and c["map"] is None
        and c["focus"] is not None
        # extern resolution here would need the shapeExterns schema attached;
        # the dedicated dist extern test lives in test_semacts.py
        and c.get("externs") is None
    ]
    return cases[::step][:n]


def test_dist_shex_matches_expected(ray_session):
    import ray.data as rd

    from shaclex_ray.conformance import _iri_to_path
    from shaclex_ray.rdfio import parse_turtle
    from shaclex_ray.shapes.shexj import load_shexj_file
    from shaclex_ray.terms import term_key, triples_to_table
    from shaclex_ray.validate.dist import distributed_validate

    checked = 0
    for c in _shex_cases(30, 37):
        sp = _iri_to_path(c["schema"])
        dp = _iri_to_path(c["data"])
        jp = os.path.splitext(sp)[0] + ".json"
        if not os.path.exists(jp):
            continue
        schema = load_shexj_file(jp)
        from shaclex_ray.conformance import SHT

        if SHT + "Greedy" in c["traits"]:
            schema["_matching"] = "greedy"  # rides the broadcast schema
        data = parse_turtle(open(dp, newline="").read(), base=c["data"][1])
        ds = rd.from_arrow(triples_to_table(data))
        shape = None
        if c["shape"]:
            shape = ("_:" + c["shape"][1]) if c["shape"][0] == "bnode" else c["shape"][1]
        focus = pa.table({"node": [term_key(c["focus"])], "shape": [shape or "START"]})
        typing, _rep = distributed_validate(
            ds, "shex", schema, focus, nbuckets=4, include_inverse=True
        )
        got = None
        for i in range(typing.num_rows):
            if typing.column("is_focus")[i].as_py():
                got = typing.column("val")[i].as_py() == "conforms"
        assert got == c["expected"], c["name"]
        checked += 1
    assert checked >= 18


def test_dist_shacl_matches_local(ray_session):
    import ray.data as rd

    from shaclex_ray.conformance import MF, RDF_TYPE, SHT2, _index, load_shacl_cases
    from shaclex_ray.rdfio import parse_turtle
    from shaclex_ray.shapes.shacl import compile_shacl
    from shaclex_ray.terms import triples_to_table
    from shaclex_ray.validate.dist import distributed_validate
    from shaclex_ray.validate.local import Graph
    from shaclex_ray.validate.shacl_local import ShaclValidator

    checked = 0
    for f in load_shacl_cases()[::4][:22]:
        if "complex" in f:
            continue  # SHACL-validating-SHACL fixtures: driver-side only
        doc_iri = "file://" + f[:-4]
        triples = parse_turtle(open(f, newline="").read(), base=doc_iri)
        spo = _index(triples)
        has_entry = any(
            SHT2 + "Validate" in [o[1] for o in po.get(RDF_TYPE, []) if o[0] == "iri"]
            and po.get(MF + "result")
            for s, po in spo.items()
        )
        ext = any(
            spo.get(a, {}).get(SHT2 + "dataGraph", [("iri", doc_iri)])[0][1] != doc_iri
            for s, po in spo.items()
            for a in po.get(MF + "action", [])
        )
        if not has_entry or ext:
            continue
        lv = ShaclValidator(compile_shacl(triples), Graph(triples))
        lconf, lres = lv.validate_all()
        lset = sorted((r["focus"], r["component"]) for r in lres)

        ds = rd.from_arrow(triples_to_table(triples))
        schema2 = compile_shacl(triples)
        _typing, rep = distributed_validate(
            ds, "shacl", schema2, "shacl-targets", nbuckets=4, include_inverse=True
        )
        dset = sorted(
            zip(rep.column("focus_node").to_pylist(), rep.column("component").to_pylist())
        )
        assert (lconf, lset) == (rep.num_rows == 0, dset), f
        checked += 1
    assert checked >= 8


def test_dist_shacl_multihop_paths(ray_session):
    """Every core/path suite entry (sequence / alternative / inverse /
    zeroOrMore / oneOrMore / zeroOrOne) validates identically through the
    distributed hop-expansion protocol."""
    import ray.data as rd

    from shaclex_ray.conformance import MF, RDF_TYPE, SHT2, _index, load_shacl_cases
    from shaclex_ray.rdfio import parse_turtle
    from shaclex_ray.shapes.shacl import compile_shacl
    from shaclex_ray.terms import triples_to_table
    from shaclex_ray.validate.dist import distributed_validate
    from shaclex_ray.validate.local import Graph
    from shaclex_ray.validate.shacl_local import ShaclValidator

    path_cases = [f for f in load_shacl_cases() if "/path/" in f]
    assert len(path_cases) >= 15
    checked = 0
    for f in path_cases:
        doc_iri = "file://" + f[:-4]
        triples = parse_turtle(open(f, newline="").read(), base=doc_iri)
        spo = _index(triples)
        has_entry = any(
            SHT2 + "Validate" in [o[1] for o in po.get(RDF_TYPE, []) if o[0] == "iri"]
            and po.get(MF + "result")
            for s, po in spo.items()
        )
        if not has_entry:
            continue
        lv = ShaclValidator(compile_shacl(triples), Graph(triples))
        lconf, lres = lv.validate_all()
        lset = sorted((r["focus"], r["component"]) for r in lres)

        ds = rd.from_arrow(triples_to_table(triples))
        schema2 = compile_shacl(triples)
        _typing, rep = distributed_validate(ds, "shacl", schema2, "shacl-targets", nbuckets=4)
        dset = sorted(
            zip(rep.column("focus_node").to_pylist(), rep.column("component").to_pylist())
        )
        assert (lconf, lset) == (rep.num_rows == 0, dset), f
        checked += 1
    assert checked >= 12


def test_dist_shacl_node_probe_not_reported(ray_session):
    """sh:node inner violations must NOT appear in the distributed report
    (only the outer NodeConstraintComponent row), matching local/W3C
    semantics."""
    import ray.data as rd

    from shaclex_ray.rdfio import parse_turtle
    from shaclex_ray.shapes.shacl import compile_shacl
    from shaclex_ray.terms import triples_to_table
    from shaclex_ray.validate.dist import distributed_validate

    ttl = """
    @prefix sh: <http://www.w3.org/ns/shacl#> .
    @prefix ex: <http://ex.org/> .
    ex:S a sh:NodeShape ;
      sh:targetNode ex:n ;
      sh:property [ sh:path ex:p ; sh:node ex:Inner ] .
    ex:Inner a sh:NodeShape ;
      sh:property [ sh:path ex:q ; sh:minCount 1 ] .
    ex:n ex:p ex:m .
    """
    triples = parse_turtle(ttl)
    ds = rd.from_arrow(triples_to_table(triples))
    schema = compile_shacl(triples)
    _typing, rep = distributed_validate(ds, "shacl", schema, "shacl-targets", nbuckets=4)
    comps = sorted(c.split("#")[-1] for c in rep.column("component").to_pylist())
    assert comps == ["NodeConstraintComponent"], comps


def test_dist_inverse_complex_path(ray_session):
    """sh:inversePath over a sequence / closure distributes as reversed
    elementary hops (invert_path rewrite) — no global-scan fallback, and
    identical results to the local validator."""
    import ray.data as rd

    from shaclex_ray.rdfio import parse_turtle
    from shaclex_ray.shapes.shacl import compile_shacl
    from shaclex_ray.terms import triples_to_table
    from shaclex_ray.validate.dist import distributed_validate
    from shaclex_ray.validate.local import Graph
    from shaclex_ray.validate.shacl_local import ShaclValidator

    # value nodes of ^(p/q) at ex:c are every x with x p/q c: ex:a only;
    # zEro: ^(r*) at ex:c reaches c, m, n (reverse closure)
    ttl = """
    @prefix sh: <http://www.w3.org/ns/shacl#> .
    @prefix ex: <http://ex.org/> .
    ex:SeqShape a sh:NodeShape ;
      sh:targetNode ex:c ;
      sh:property [ sh:path [ sh:inversePath ( ex:p ex:q ) ] ;
                    sh:minCount 1 ; sh:class ex:Good ] .
    ex:StarShape a sh:NodeShape ;
      sh:targetNode ex:c ;
      sh:property [ sh:path [ sh:inversePath [ sh:zeroOrMorePath ex:r ] ] ;
                    sh:maxCount 2 ] .
    ex:a ex:p ex:b . ex:b ex:q ex:c .
    ex:other ex:p ex:c .
    ex:a a ex:Bad .
    ex:m ex:r ex:n . ex:n ex:r ex:c .
    """
    triples = parse_turtle(ttl)
    lv = ShaclValidator(compile_shacl(triples), Graph(triples))
    lconf, lres = lv.validate_all()
    lset = sorted((r["focus"], r["component"]) for r in lres)
    # sanity on semantics: ex:a violates sh:class (Bad, not Good); the
    # reverse r-closure of c = {c, m, n} has 3 > maxCount 2
    comps = sorted(c.split("#")[-1] for _f, c in lset)
    assert comps == ["ClassConstraintComponent", "MaxCountConstraintComponent"]

    ds = rd.from_arrow(triples_to_table(triples))
    schema = compile_shacl(triples)
    typing, rep = distributed_validate(ds, "shacl", schema, "shacl-targets", nbuckets=4)
    dset = sorted(
        zip(rep.column("focus_node").to_pylist(), rep.column("component").to_pylist())
    )
    assert dset == lset
    vals = typing.filter(typing.column("is_focus")).column("val").to_pylist()
    assert all(v in ("conforms", "notConforms") for v in vals), vals  # no error:*


def test_in_bucket_targets_equivalence(ray_session):
    """focus_tasks="shacl-targets" selects exactly the in-memory
    validator's focus nodes (``ShaclValidator.focus_nodes``, the
    conformance-verified oracle) with its verdicts and report rows, at 1
    and 4 buckets, across every target kind: targetClass (with an
    rdfs:subClassOf hop), a blank-node class, implicit class, targetNode,
    targetSubjectsOf and targetObjectsOf. Class objects match by exact
    term key: a literal rdf:type object spelling a class IRI, and an IRI
    spelling a blank node's label, type nothing."""
    import ray.data as rd

    from shaclex_ray.rdfio import parse_turtle
    from shaclex_ray.shapes.shacl import compile_shacl
    from shaclex_ray.terms import triples_to_table
    from shaclex_ray.validate.dist import distributed_validate
    from shaclex_ray.validate.local import Graph
    from shaclex_ray.validate.shacl_local import ShaclValidator

    ttl = """
    @prefix sh: <http://www.w3.org/ns/shacl#> .
    @prefix ex: <http://ex.org/> .
    @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
    @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
    ex:ClassShape a sh:NodeShape ;
      sh:targetClass ex:Person ;
      sh:property [ sh:path ex:name ; sh:minCount 1 ] .
    ex:SubjShape a sh:NodeShape ;
      sh:targetSubjectsOf ex:age ;
      sh:property [ sh:path ex:age ; sh:datatype xsd:integer ] .
    ex:ObjShape a sh:NodeShape ;
      sh:targetObjectsOf ex:knows ;
      sh:property [ sh:path ex:name ; sh:minCount 1 ] .
    ex:NodeShapeT a sh:NodeShape ;
      sh:targetNode ex:d ;
      sh:property [ sh:path ex:name ; sh:maxCount 0 ] .
    ex:BlankShape a sh:NodeShape ;
      sh:targetClass _:k ;
      sh:property [ sh:path ex:name ; sh:minCount 1 ] .
    ex:Robot a sh:NodeShape, rdfs:Class ;
      sh:property [ sh:path ex:name ; sh:minCount 1 ] .
    ex:Student rdfs:subClassOf ex:Person .
    ex:a a ex:Person ; ex:name "A" ; ex:age 3 ; ex:knows ex:b .
    ex:b a ex:Student .
    ex:c ex:age "old" .
    ex:d ex:name "D" .
    ex:lit a "http://ex.org/Person" .
    ex:f a _:k .
    ex:h a <k> .
    ex:r1 a ex:Robot .
    ex:r2 a ex:Robot ; ex:name "R" .
    """
    triples = parse_turtle(ttl)
    ds = rd.from_arrow(triples_to_table(triples))

    local = ShaclValidator(compile_shacl(triples), Graph(triples))
    want = {
        (nk, sk): not local.validate_shape(nk, sk)
        for sk in local.schema["with_targets"]
        for nk in local.focus_nodes(local.schema["shapes"][sk])
    }
    want_report = sorted((r["focus"], r["component"]) for r in local.validate_all()[1])
    foci = {nk for nk, _sk in want}
    assert {"Ihttp://ex.org/b", "Ihttp://ex.org/f", "Ihttp://ex.org/r1"} <= foci
    assert not foci & {"Ihttp://ex.org/lit", "Ihttp://ex.org/h"}

    for nb in (1, 4):
        typing, report = distributed_validate(
            ds, "shacl", compile_shacl(triples), "shacl-targets", nbuckets=nb
        )
        f = typing.filter(typing.column("is_focus"))
        got = {
            (n, s): v == "conforms"
            for n, s, v in zip(*[f.column(c).to_pylist() for c in ("node", "shape", "val")])
        }
        assert got == want, nb
        got_report = sorted(
            zip(report.column("focus_node").to_pylist(), report.column("component").to_pylist())
        )
        assert got_report == want_report, nb


def test_focus_forms(ray_session):
    """``distributed_validate`` takes three focus forms; any other value,
    a Ray Dataset of pairs included, raises ``TypeError`` before any
    work."""
    import ray.data as rd

    from shaclex_ray.validate.dist import distributed_validate

    pairs = pa.table({"node": ["Ihttp://e/n"], "shape": ["http://e/S"]})
    for bad in (rd.from_arrow(pairs), "shex-patterns", ("patterns", [], pairs)):
        with pytest.raises(TypeError, match="focus_tasks"):
            distributed_validate(None, "shex", {"shapes": {}}, bad, nbuckets=1)


def test_auto_fleet_sizing(ray_session, monkeypatch):
    """nbuckets=None sizes the bucket fleet with ``exchange.plan`` (one
    bucket per ``FLEET_BYTES``, up to the cluster CPUs): a tiny corpus
    runs as one bucket (one task), the exchange's own task grain
    (``TASK_BYTES``) leaves it there, a smaller fleet grain scales the
    fleet up, and a memory bound that asks for more buckets than CPUs
    leaves the fleet at the CPU count."""
    import ray.data as rd

    from shaclex_ray.rdfio import parse_turtle
    from shaclex_ray.terms import iri, term_key, triples_to_table
    from shaclex_ray.stages import exchange
    from shaclex_ray.validate.dist import distributed_validate

    ttl = "@prefix ex: <http://e/> .\n" + "\n".join(
        f'ex:n{i} ex:name "x{i}" .' for i in range(10)
    )
    schema = {
        "shapes": {
            "http://e/S": {
                "type": "Shape",
                "expression": {
                    "type": "TripleConstraint",
                    "predicate": "http://e/name",
                    "min": 1,
                    "max": 1,
                },
            }
        }
    }
    ds = rd.from_arrow(triples_to_table(parse_turtle(ttl)))
    focus = pa.table(
        {"node": [term_key(iri("http://e/n0"))], "shape": ["http://e/S"]}
    )

    typing, _ = distributed_validate(ds, "shex", copy.deepcopy(schema), focus, nbuckets=None)
    assert distributed_validate.last_nbuckets == 1  # 10 rows << FLEET_BYTES
    assert "conforms" in typing.column("val").to_pylist()

    # one byte per exchange task: the plan spreads, the fleet does not
    monkeypatch.setattr(exchange, "TASK_BYTES", 1)
    distributed_validate(ds, "shex", copy.deepcopy(schema), focus, nbuckets=None)
    assert distributed_validate.last_nbuckets == 1

    # one byte per fleet bucket: the 4-CPU session cap binds
    monkeypatch.setattr(exchange, "FLEET_BYTES", 1)
    typing2, _ = distributed_validate(ds, "shex", copy.deepcopy(schema), focus, nbuckets=None)
    assert distributed_validate.last_nbuckets == 4
    assert typing2.column("val").to_pylist() == typing.column("val").to_pylist()

    # one byte per task: the plan wants hundreds of buckets, the fleet 4
    monkeypatch.setattr(exchange, "MAX_TASK_BYTES", 1)
    distributed_validate(ds, "shex", copy.deepcopy(schema), focus, nbuckets=None)
    assert distributed_validate.last_nbuckets == 4


def test_typing_is_the_same_at_every_bucket_count(ray_session):
    """Probes another bucket answers (``sh:class`` membership, ``sh:node``
    conformance, path hops) are protocol traffic, not output: the typing
    and report tables are row-identical at 1, 2, 4 and 8 buckets."""
    import ray.data as rd

    from shaclex_ray.rdfio import parse_turtle
    from shaclex_ray.shapes.shacl import compile_shacl
    from shaclex_ray.terms import triples_to_table
    from shaclex_ray.validate.dist import distributed_validate

    ttl = """
    @prefix sh: <http://www.w3.org/ns/shacl#> .
    @prefix ex: <http://ex.org/> .
    ex:ThingShape a sh:NodeShape ;
      sh:targetClass ex:Thing ;
      sh:property [ sh:path ex:knows ; sh:class ex:Person ] ;
      sh:property [ sh:path ex:knows ; sh:node ex:NamedShape ] ;
      sh:property [ sh:path ( ex:knows ex:name ) ; sh:minCount 1 ] .
    ex:NamedShape a sh:NodeShape ;
      sh:property [ sh:path ex:name ; sh:minCount 1 ] .
    """ + "\n".join(
        f"ex:t{i} a ex:Thing ; ex:knows ex:p{(7 * i) % 40} ."
        + (f" ex:p{i} a ex:Person ." if i % 3 else "")
        + (f' ex:p{i} ex:name "p{i}" .' if i % 4 else "")
        for i in range(40)
    )
    triples = parse_turtle(ttl)
    ds = rd.from_arrow(triples_to_table(triples))

    def rows(tbl):
        return sorted(zip(*[tbl.column(c).to_pylist() for c in tbl.column_names]))

    outs = []
    for nb in (1, 2, 4, 8):
        schema = compile_shacl(triples)
        typing, report = distributed_validate(ds, "shacl", schema, "shacl-targets", nbuckets=nb)
        outs.append((rows(typing), rows(report)))
    assert len(outs[0][0]) == 40 and outs[0][1]
    assert all(o == outs[0] for o in outs[1:])


REPORT_COLS = [
    "focus_node", "path", "value_lex", "source_shape", "component",
    "severity", "message",
]


@pytest.mark.parametrize("nameless", [1, 0])
def test_output_dir_writes_no_empty_shard(ray_session, tmp_path, nameless):
    """With ``output_dir`` at 4 buckets, a bucket without violations writes
    no report shard: every ``report/part-*.parquet`` has rows and every
    block read back carries the report columns. An all-conformant graph
    writes one typed empty part, so its report reads back with the report
    schema (Ray reads a zero-row file as blocks without columns, so only
    the Dataset's schema shows it)."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from shaclex_ray.rdfio import parse_turtle
    from shaclex_ray.shapes.shacl import compile_shacl
    from shaclex_ray.state.checkpoint import read_parts
    from shaclex_ray.terms import triples_to_table
    from shaclex_ray.validate.dist import distributed_validate

    ttl = """
    @prefix sh: <http://www.w3.org/ns/shacl#> .
    @prefix ex: <http://ex.org/> .
    ex:ThingShape a sh:NodeShape ;
      sh:targetClass ex:Thing ;
      sh:property [ sh:path ex:name ; sh:minCount 1 ] .
    """ + "\n".join(
        f"ex:t{i} a ex:Thing ." + (f' ex:t{i} ex:name "t{i}" .' if i >= nameless else "")
        for i in range(20)
    )
    triples = parse_turtle(ttl)
    ds = rd.from_arrow(triples_to_table(triples))
    schema = compile_shacl(triples)
    out = str(tmp_path / "v")
    distributed_validate(
        ds, "shacl", schema, "shacl-targets", nbuckets=4,
        output_dir=out,
    )
    typing, report = read_parts(f"{out}/typing"), read_parts(f"{out}/report")
    parts = [pq.read_table(p) for p in sorted((tmp_path / "v" / "report").iterdir())]
    assert report.schema().names == REPORT_COLS
    assert report.count() == nameless and typing.count() == 20
    if nameless:
        assert len(parts) == 1 and parts[0].num_rows == 1
        blocks = [ray.get(ref) for bundle in report.iter_internal_ref_bundles()
                  for ref, _ in bundle.blocks]
        assert all(b.column_names == REPORT_COLS for b in blocks)
    else:
        assert [(p.num_rows, p.column_names) for p in parts] == [(0, REPORT_COLS)]
