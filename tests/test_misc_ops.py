"""SGraph writer (S12), Result serialization (S8/S9), RDFS inference (S4),
trigger modes (M1)."""

import json

import pyarrow as pa
import pytest


def test_sgraph_dot_and_json():
    from shaclex_ray.sgraph import to_cytoscape_json, to_dot

    rows = [
        {"subj": "http://e/a", "pred": "http://e/p", "obj_kind": "iri",
         "obj_lex": "http://e/b", "obj_dt": "", "obj_lang": ""},
        {"subj": "http://e/a", "pred": "http://e/q", "obj_kind": "literal",
         "obj_lex": "hi", "obj_dt": "", "obj_lang": "en"},
    ]
    dot = to_dot(rows)
    assert "N0 -> N1" in dot and '\\"hi\\"@en' in dot  # quotes DOT-escaped
    cy = json.loads(to_cytoscape_json(rows))
    assert len(cy["elements"]) == 3 + 2  # 3 nodes + 2 edges


def test_result_serialization():
    from shaclex_ray.result import report_ntriples, result_json, result_text

    typing = pa.table(
        {
            "node": ["Ihttp://e/x", "Ihttp://e/y"],
            "shape": ["S", "S"],
            "val": ["conforms", "notConforms"],
            "is_focus": [True, True],
        }
    )
    report = pa.table(
        {
            "focus_node": ["Ihttp://e/y"],
            "path": ["http://e/p"],
            "value_lex": [""],
            "source_shape": ["S"],
            "component": ["http://www.w3.org/ns/shacl#MinCountConstraintComponent"],
            "severity": ["http://www.w3.org/ns/shacl#Violation"],
            "message": [""],
        }
    )
    doc = json.loads(result_json(typing, report))
    assert doc["valid"] is False
    assert doc["report"]["conforms"] is False
    txt = result_text(typing, report)
    assert txt.startswith("Not valid")
    nt = report_ntriples(report)
    assert "sh:conforms" not in nt and "conforms" in nt
    from shaclex_ray.rdfio import parse_turtle

    assert len(parse_turtle(nt)) >= 6  # well-formed N-Triples


def test_rdfs_entailment(ray_session, tmp_path):
    import ray.data as rd

    from shaclex_ray.rdfio import parse_turtle
    from shaclex_ray.stages.dedup import dedup_triples_fast_from_parquet
    from shaclex_ray.stages.inference import rdfs_entailment
    from shaclex_ray.terms import RDF_TYPE, triples_to_table

    data = """
    @prefix ex: <http://e/> .
    @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
    ex:Dog rdfs:subClassOf ex:Animal .
    ex:hasDog rdfs:subPropertyOf ex:hasPet ; rdfs:domain ex:Person ;
              rdfs:range ex:Dog .
    ex:alice ex:hasDog ex:rex .
    ex:rex a ex:Dog .
    """
    ds = rd.from_arrow(triples_to_table(parse_turtle(data)))
    rdfs_entailment(ds).write_parquet(str(tmp_path))
    out = dedup_triples_fast_from_parquet(str(tmp_path), nbuckets=4)
    assert out.count() == len({tuple(r.values()) for r in out.take_all()})
    got = {
        (r["subj"], r["pred"], r["obj_lex"])
        for r in out.take_all()
    }
    assert ("http://e/alice", "http://e/hasPet", "http://e/rex") in got  # rdfs7
    assert ("http://e/alice", RDF_TYPE, "http://e/Person") in got  # rdfs2
    assert ("http://e/rex", RDF_TYPE, "http://e/Dog") in got
    assert ("http://e/rex", RDF_TYPE, "http://e/Animal") in got  # rdfs9


def test_trigger_modes(ray_session):
    import ray.data as rd

    from shaclex_ray.engine import validate
    from shaclex_ray.rdfio import parse_turtle
    from shaclex_ray.terms import triples_to_table

    schema = "prefix : <http://e/>\n:S { :p . }"
    data = parse_turtle("@prefix : <http://e/> . :x :p 1 .")
    ds = rd.from_arrow(triples_to_table(data))
    typing, summary = validate(
        ds, "shex", schema, trigger="NODESHAPE", node=":x", shape=":S",
        prefixes={"": "http://e/"}, nbuckets=2,
    )
    assert summary["conformant"] == 1
