"""Engine facade end-to-end: the reference's example fixtures through the
distributed path (FIXTURES.md §3)."""

import pyarrow as pa
import pytest

EX = "/root/reference/examples"


@pytest.fixture()
def rd(ray_session):
    import ray.data

    return ray.data


def _triples_ds(rd, ttl_path):
    from shaclex_ray.rdfio import parse_turtle
    from shaclex_ray.terms import triples_to_table

    triples = parse_turtle(open(ttl_path).read())
    return rd.from_arrow(triples_to_table(triples))


def test_datatype_example_shex(rd):
    """examples/shex/datatype.*: exactly :good conforms (pins facet +
    cardinality + lexical-validity kernels — FIXTURES.md)."""
    from shaclex_ray.engine import validate_shex

    ds = _triples_ds(rd, f"{EX}/shex/datatype.ttl")
    schema = open(f"{EX}/shex/datatype.shex").read()
    shapemap = open(f"{EX}/shex/datatype.shapeMap").read()
    typing, summary = validate_shex(
        ds, schema, shapemap, prefixes={"": "http://example.org/"}
    )
    res = {
        r["node"]: r["val"]
        for r in typing.to_pylist()
        if r["is_focus"]
    }
    assert res["Ihttp://example.org/good"] == "conforms"
    for bad in ("bad1", "bad2", "bad3", "bad4", "bad5"):
        assert res[f"Ihttp://example.org/{bad}"] == "notConforms", bad
    assert summary == {
        "focus_pairs": 6,
        "conformant": 1,
        "nonconformant": 5,
        "unknown": 0,
        "valid": False,
    }


WEBINDEX_DATA = """
prefix : <http://example.org/>
prefix qb: <http://purl.org/linked-data/cube#>
prefix wf: <http://data.webfoundation.org#>
prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#>
prefix cex: <http://purl.org/weso/ontology/computex#>
prefix dct: <http://purl.org/dc/terms/>
prefix xsd: <http://www.w3.org/2001/XMLSchema#>

:spain rdfs:label "Spain" ; wf:iso2 "ES" .
:indicator1 a wf:PrimaryIndicator ; rdfs:label "An indicator" ;
     wf:provider :org1 .
:org1 a <http://www.w3.org/ns/org#Organization> ; rdfs:label "WF" ;
     <http://xmlns.com/foaf/0.1/homepage> <http://webfoundation.org/> .
:ds1 a qb:DataSet ; qb:structure wf:DSD ; rdfs:label "ds1" ;
     qb:slice :slice1 ; dct:publisher :org1 .
:slice1 a qb:Slice ; qb:sliceStructure wf:sliceByYear ;
     qb:observation :obs1 ; cex:indicator :indicator1 .
:obs1 a qb:Observation , wf:Observation ;
     cex:value "3.4"^^xsd:float ;
     dct:issued "2024-01-01T00:00:00"^^xsd:dateTime ;
     qb:dataSet :ds1 ;
     cex:ref-area :spain ;
     cex:indicator :indicator1 ;
     wf:source <http://example.org/source1> .
"""


def test_webindex_recursive_shex(rd):
    """The mutually recursive webindex schema (examples/webindex/
    webindex.shex): DataSet ↔ Slice ↔ Observation cycle through the
    distributed fixpoint. The data genuinely conforms (verified against
    the suite-pinned local validator below), and breaking one leaf
    (org1's homepage) cascades notConforms through the whole cycle —
    the coinductive close must NOT mask real failures."""
    from shaclex_ray.engine import validate_shex
    from shaclex_ray.rdfio import parse_turtle
    from shaclex_ray.shapes.shexc import parse_shexc
    from shaclex_ray.terms import iri, triples_to_table
    from shaclex_ray.validate.local import Graph, ShExValidator

    schema = open(f"{EX}/webindex/webindex.shex").read()
    focus_names = ["ds1", "slice1", "obs1", "spain"]
    shapes = ["DataSet", "Slice", "Observation", "Country"]

    def local_verdicts(data_ttl):
        v = ShExValidator(parse_shexc(schema), Graph(parse_turtle(data_ttl)))
        return {
            f"Ihttp://example.org/{n}": (
                "conforms"
                if v.validate_node_shape(
                    iri(f"http://example.org/{n}"), f"http://example.org/{s}"
                )
                else "notConforms"
            )
            for n, s in zip(focus_names, shapes)
        }

    def dist_verdicts(data_ttl):
        ds = rd.from_arrow(triples_to_table(parse_turtle(data_ttl)))
        typing, _summary = validate_shex(
            ds,
            schema,
            ":ds1@:DataSet, :slice1@:Slice, :obs1@:Observation, :spain@:Country",
            prefixes={"": "http://example.org/"},
        )
        return {r["node"]: r["val"] for r in typing.to_pylist() if r["is_focus"]}

    good = dist_verdicts(WEBINDEX_DATA)
    assert good == local_verdicts(WEBINDEX_DATA)
    assert set(good.values()) == {"conforms"}

    broken = WEBINDEX_DATA.replace(
        "<http://xmlns.com/foaf/0.1/homepage> <http://webfoundation.org/> .",
        ".",
    ).replace(
        ":org1 a <http://www.w3.org/ns/org#Organization> ; rdfs:label \"WF\" ;\n     .",
        ":org1 a <http://www.w3.org/ns/org#Organization> ; rdfs:label \"WF\" .",
    )
    bad = dist_verdicts(broken)
    assert bad == local_verdicts(broken)
    assert bad["Ihttp://example.org/ds1"] == "notConforms"  # cascades
    assert bad["Ihttp://example.org/spain"] == "conforms"


def test_shacl_facade_good1(rd):
    """examples/shacl/good1.ttl through validate_shacl (targets + counts)."""
    import os

    from shaclex_ray.engine import validate_shacl

    path = f"{EX}/shacl/good1.ttl"
    if not os.path.exists(path):
        pytest.skip("no example file")
    ttl = open(path).read()
    ds = _triples_ds(rd, path)
    typing, report, summary = validate_shacl(ds, ttl)
    assert summary["focus_pairs"] >= 1


def test_ntriples_roundtrip(rd, tmp_path):
    from shaclex_ray.sources.rdf_source import read_ntriples, write_ntriples
    from shaclex_ray.rdfio import parse_turtle
    from shaclex_ray.terms import triples_to_table

    triples = parse_turtle(open(f"{EX}/shex/datatype.ttl").read())
    ds = rd.from_arrow(triples_to_table(triples))
    out = str(tmp_path / "nt")
    n = write_ntriples(ds, out)
    assert n == len(triples)
    back = read_ntriples(out + "/")
    got = {
        (r["subj"], r["pred"], r["obj_kind"], r["obj_lex"], r["obj_dt"], r["obj_lang"])
        for r in back.take_all()
    }
    want = {
        (r["subj"], r["pred"], r["obj_kind"], r["obj_lex"], r["obj_dt"], r["obj_lang"])
        for r in ds.take_all()
    }
    assert got == want


def test_pattern_shapemap_in_bucket_focus(rd):
    """Pattern selectors resolve IN-BUCKET (_Bucket.derive_focus):
    {FOCUS p o} matches subjects locally; {s p FOCUS} matches objects and
    routes via the driver. Pins both directions plus mixing with a
    concrete node selector (reference fixShapeMap, ShapeMaps semantics)."""
    from shaclex_ray.engine import validate_shex

    ttl = """
    @prefix : <http://example.org/> .
    @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
    :alice a :Person ; :name "Alice" ; :knows :bob .
    :bob a :Person ; :name "Bob" .
    :carol a :Robot ; :name "Carol" .
    :dave :name "Dave" .
    """
    schema = """
    prefix : <http://example.org/>
    prefix xsd: <http://www.w3.org/2001/XMLSchema#>
    :S { :name xsd:string }
    """
    from shaclex_ray.rdfio import parse_turtle
    from shaclex_ray.terms import triples_to_table

    ds = rd.from_arrow(triples_to_table(parse_turtle(ttl)))

    # {FOCUS a :Person} -> alice, bob (subject-side, fully in-bucket)
    typing, summary = validate_shex(
        ds,
        schema,
        "{FOCUS a :Person}@:S",
        prefixes={"": "http://example.org/"},
    )
    foci = {r["node"] for r in typing.to_pylist() if r["is_focus"]}
    assert foci == {"Ihttp://example.org/alice", "Ihttp://example.org/bob"}
    assert summary["conformant"] == 2

    # {:alice :knows FOCUS} -> bob (object-side, routed via the driver),
    # unioned with a concrete node selector (:dave)
    typing, summary = validate_shex(
        ds,
        schema,
        "{:alice :knows FOCUS}@:S, :dave@:S",
        prefixes={"": "http://example.org/"},
    )
    foci = {r["node"] for r in typing.to_pylist() if r["is_focus"]}
    assert foci == {"Ihttp://example.org/bob", "Ihttp://example.org/dave"}
    assert summary["conformant"] == 2


@pytest.mark.parametrize("nbuckets", [1, 4])
def test_pattern_shapemap_matches_exact_literal(rd, nbuckets):
    """A bound literal in a pattern selector matches by its whole term
    key: ``{FOCUS :age "5"^^xsd:integer}`` selects the subject of the
    typed literal only, not those of ``"5"`` or ``"5"@en``."""
    from shaclex_ray.engine import validate_shex
    from shaclex_ray.rdfio import parse_turtle
    from shaclex_ray.terms import triples_to_table

    ttl = """
    @prefix : <http://example.org/> .
    @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
    :x :age "5"^^xsd:integer .
    :y :age "5" .
    :z :age "5"@en .
    """
    schema = """
    prefix : <http://example.org/>
    :S { :age . }
    """
    prefixes = {
        "": "http://example.org/",
        "xsd": "http://www.w3.org/2001/XMLSchema#",
    }
    ds = rd.from_arrow(triples_to_table(parse_turtle(ttl)))
    typing, summary = validate_shex(
        ds, schema, '{FOCUS :age "5"^^xsd:integer}@:S', prefixes=prefixes,
        nbuckets=nbuckets,
    )
    foci = {r["node"] for r in typing.to_pylist() if r["is_focus"]}
    assert foci == {"Ihttp://example.org/x"}
    assert summary["conformant"] == 1
