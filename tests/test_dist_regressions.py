"""Regression tests for distributed-validator edge cases:

  * deep cross-bucket shape-reference chains must not be truncated by the
    round cap (pairs left undecided surface as val='unknown', never vanish)
  * a literal focus node with an inverse TripleConstraint validates against
    its co-located reversed arcs (literal home-bucketing)
  * nbuckets=1 works (single-return split)
  * shacl_to_shex preserves node-level sh:node / sh:class constraints
  * RDFS range entailment types bnode objects with proper '_:' subjects
"""

import pyarrow as pa
import pytest


def _chain_schema(depth: int) -> dict:
    """S0 -> :p -> S1 -> :p -> ... -> S{depth} (each hop crosses buckets)."""
    shapes = {}
    for i in range(depth):
        shapes[f"http://ex.org/S{i}"] = {
            "type": "Shape",
            "id": f"http://ex.org/S{i}",
            "expression": {
                "type": "TripleConstraint",
                "predicate": "http://ex.org/p",
                "valueExpr": f"http://ex.org/S{i + 1}",
                "min": 1,
                "max": 1,
            },
        }
    shapes[f"http://ex.org/S{depth}"] = {
        "type": "Shape",
        "id": f"http://ex.org/S{depth}",
        "expression": None,
    }
    return {"start": None, "shapes": shapes, "te_refs": {}, "imports": []}


def _chain_triples(depth: int):
    from shaclex_ray.terms import iri, triples_to_table

    return triples_to_table(
        [
            (iri(f"http://ex.org/n{i}"), "http://ex.org/p", iri(f"http://ex.org/n{i + 1}"))
            for i in range(depth)
        ]
    )


def test_deep_chain_not_truncated(ray_session):
    """A 20-deep reference chain needs ~20 productive rounds; with the old
    max_rounds=12 cap the focus pair silently vanished and result_json said
    valid:true vacuously."""
    import ray.data as rd

    from shaclex_ray.result import result_json
    from shaclex_ray.validate.dist import distributed_validate

    depth = 20
    ds = rd.from_arrow(_chain_triples(depth))
    focus = pa.table({"node": ["Ihttp://ex.org/n0"], "shape": ["http://ex.org/S0"]})
    typing, _rep = distributed_validate(
        ds, "shex", _chain_schema(depth), focus, nbuckets=4, max_rounds=12
    )
    focus_rows = typing.filter(typing.column("is_focus"))
    assert focus_rows.num_rows == 1
    assert focus_rows.column("val")[0].as_py() == "conforms"
    import json

    doc = json.loads(result_json(typing))
    assert doc["valid"] is True and len(doc["shapeMap"]) == 1
    # driver dep-state is evicted as answers forward: after a clean run
    # every dict is back to the in-flight level (empty), not O(#deps ever)
    st = distributed_validate.last_dep_state
    assert st == {"need_by": 0, "answered_vals": 0, "forwarded": 0}, st


def test_undecided_pairs_marked_unknown(ray_session):
    """Force an undecidable setup: unresolvable cross-bucket cycle closes
    coinductively, but if anything remains pending at exit it must surface
    as 'unknown', and the summary must not read valid."""
    from shaclex_ray.engine import _summary

    typing = pa.table(
        {
            "node": ["In1", "In2"],
            "shape": ["S", "S"],
            "val": ["conforms", "unknown"],
            "is_focus": [True, True],
        }
    )
    s = _summary(typing)
    assert s["unknown"] == 1 and s["valid"] is False


def test_literal_focus_inverse_tc(ray_session):
    """schema ':S { ^:p IRI+ }' on ':x :p "v"': the literal focus "v" must
    see its incoming arc (previously reversed copies dropped literals and
    distributed said notConforms while local said conforms)."""
    import ray.data as rd

    from shaclex_ray.terms import iri, literal, term_key, triples_to_table
    from shaclex_ray.validate.dist import distributed_validate

    lit = literal("v")
    ds = rd.from_arrow(
        triples_to_table([(iri("http://ex.org/x"), "http://ex.org/p", lit)])
    )
    schema = {
        "start": None,
        "te_refs": {},
        "imports": [],
        "shapes": {
            "http://ex.org/S": {
                "type": "Shape",
                "id": "http://ex.org/S",
                "expression": {
                    "type": "TripleConstraint",
                    "predicate": "http://ex.org/p",
                    "inverse": True,
                    "valueExpr": {"type": "NodeConstraint", "nodeKind": "iri"},
                    "min": 1,
                    "max": -1,
                },
            }
        },
    }
    for nb in (1, 4):  # nbuckets=1 also exercises the single-return split
        focus = pa.table({"node": [term_key(lit)], "shape": ["http://ex.org/S"]})
        import copy

        typing, _rep = distributed_validate(
            ds, "shex", copy.deepcopy(schema), focus, nbuckets=nb
        )
        focus_rows = typing.filter(typing.column("is_focus"))
        assert focus_rows.num_rows == 1, nb
        assert focus_rows.column("val")[0].as_py() == "conforms", nb


def test_dedup_nbuckets_1(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from shaclex_ray.stages.dedup import dedup_triples_fast_from_parquet
    from shaclex_ray.terms import iri, triples_to_table

    tbl = triples_to_table(
        [
            (iri("http://ex.org/a"), "http://ex.org/p", iri("http://ex.org/b")),
            (iri("http://ex.org/a"), "http://ex.org/p", iri("http://ex.org/b")),
        ]
    )
    pq.write_table(tbl, tmp_path / "part-0.parquet")
    out = dedup_triples_fast_from_parquet(str(tmp_path), nbuckets=1)
    assert out.count() == 1


def test_shacl_to_shex_preserves_node_and_class():
    """Node-shape-level sh:node and sh:class must constrain the converted
    ShEx shape (previously silently dropped)."""
    from shaclex_ray.rdfio import parse_turtle
    from shaclex_ray.shapes.convert import shacl_to_shex
    from shaclex_ray.shapes.shacl import compile_shacl
    from shaclex_ray.terms import iri
    from shaclex_ray.validate.local import Graph, ShExValidator

    ttl = """
    @prefix sh: <http://www.w3.org/ns/shacl#> .
    @prefix ex: <http://ex.org/> .
    ex:S a sh:NodeShape ;
      sh:node ex:Inner ;
      sh:class ex:Cls .
    ex:Inner a sh:NodeShape ;
      sh:property [ sh:path ex:q ; sh:minCount 1 ] .
    """
    shex, _sel = shacl_to_shex(compile_shacl(parse_turtle(ttl)))
    # a node lacking both ex:q and rdf:type ex:Cls must NOT conform
    from shaclex_ray.terms import triples_to_table, table_to_triples

    data_bad = [(iri("http://ex.org/n"), "http://ex.org/r", iri("http://ex.org/m"))]
    v = ShExValidator(shex, Graph(data_bad))
    assert v.validate_node_shape(iri("http://ex.org/n"), "http://ex.org/S") is False
    data_good = [
        (iri("http://ex.org/n"), "http://ex.org/q", iri("http://ex.org/m")),
        (
            iri("http://ex.org/n"),
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
            iri("http://ex.org/Cls"),
        ),
    ]
    v2 = ShExValidator(shex, Graph(data_good))
    assert v2.validate_node_shape(iri("http://ex.org/n"), "http://ex.org/S") is True


def test_rdfs_range_entailment_bnode_subject(ray_session):
    """rdfs:range typing of a bnode object must emit subj='_:<id>'."""
    import ray.data as rd

    from shaclex_ray.stages.inference import rdfs_entailment
    from shaclex_ray.terms import bnode, iri, triples_to_table

    RDFS = "http://www.w3.org/2000/01/rdf-schema#"
    schema_triples = [
        (iri("http://ex.org/p"), RDFS + "range", iri("http://ex.org/C")),
    ]
    data = [(iri("http://ex.org/s"), "http://ex.org/p", bnode("b0"))]
    ds = rd.from_arrow(triples_to_table(schema_triples + data))
    out = rdfs_entailment(ds)
    rows = out.take_all()
    typed = [
        r
        for r in rows
        if r["pred"] == "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
        and r["obj_lex"] == "http://ex.org/C"
    ]
    assert typed, "range entailment missing"
    assert all(r["subj"].startswith("_:") for r in typed), typed


def test_bucket_graph_arrow_index_and_spill(tmp_path):
    """LazyBucketGraph: Arrow-native index correctness + oversized buckets
    spill to a memory-mapped IPC file."""
    import os

    import pyarrow as pa

    from shaclex_ray.validate.dist import LazyBucketGraph

    n = 100
    tbl = pa.table(
        {
            "subj": pa.array([f"http://e/s{i % 10}" for i in range(n)]),
            "pred": pa.array(["http://e/p"] * n),
            "obj_kind": pa.array(["iri"] * n),
            "obj_lex": pa.array([f"http://e/o{i}" for i in range(n)]),
            "obj_dt": pa.array([""] * n),
            "obj_lang": pa.array([""] * n),
            "rev": pa.array([False] * n),
        }
    )
    g = LazyBucketGraph(spill_dir=str(tmp_path), spill_rows=10)
    g.add_part(tbl)
    g.finalize()
    assert os.path.exists(os.path.join(str(tmp_path), "fwd.arrow"))
    arcs = g.arcs_out("Ihttp://e/s3")
    assert len(arcs) == 10
    assert all(p == "http://e/p" and o[0] == "iri" for p, o in arcs)
    assert g.arcs_out("Ihttp://e/missing") == []
    # in-memory variant (no spill) gives identical answers
    g2 = LazyBucketGraph()
    g2.add_part(tbl)
    g2.finalize()
    assert sorted(g2.arcs_out("Ihttp://e/s3")) == sorted(arcs)


def test_flat_shacl_vectorized_parity(ray_session, tmp_path):
    """The vectorized flat-SHACL bucket pass produces the exact typing AND
    report rows of the per-focus Python path (schema flag '_no_flat'
    forces the fallback)."""
    import ray.data as rd

    from shaclex_ray.pipelines.kg import kg_schema, run_kg_pipeline
    from shaclex_ray.validate.dist import distributed_validate

    out = run_kg_pipeline("/root/testdata/sf0.001", str(tmp_path), validate=False)
    tm = out["triples"].materialize()

    def run(no_flat):
        schema = kg_schema()
        if no_flat:
            schema["_no_flat"] = True
        return distributed_validate(tm, "shacl", schema, "shacl-targets", nbuckets=4)

    t1, r1 = run(False)
    t2, r2 = run(True)

    def nt(t):
        return sorted(
            zip(
                t.column("node").to_pylist(),
                t.column("shape").to_pylist(),
                t.column("val").to_pylist(),
                t.column("is_focus").to_pylist(),
            )
        )

    def nr(r):
        return sorted(
            zip(
                r.column("focus_node").to_pylist(),
                r.column("path").to_pylist(),
                r.column("value_lex").to_pylist(),
                r.column("source_shape").to_pylist(),
                r.column("component").to_pylist(),
            )
        )

    assert nt(t1) == nt(t2)
    assert nr(r1) == nr(r2)
    assert r1.num_rows >= 1  # the corpus has at least one violation


def test_nested_property_shape_report_multiplicity(ray_session):
    """A value node reached from TWO parents reports its nested-property
    violation TWICE (per-traversal multiplicity, as the W3C property-001
    fixture expects) — vshape answers carry rows back to each parent."""
    import ray.data as rd

    from shaclex_ray.rdfio import parse_turtle
    from shaclex_ray.shapes.shacl import compile_shacl
    from shaclex_ray.terms import triples_to_table
    from shaclex_ray.validate.dist import distributed_validate

    ttl = """
    @prefix sh: <http://www.w3.org/ns/shacl#> .
    @prefix ex: <http://ex.org/> .
    ex:PersonShape a sh:NodeShape ;
      sh:targetClass ex:Person ;
      sh:property [ sh:path ex:address ; sh:property ex:CityShape ] .
    ex:CityShape sh:path ex:city ; sh:minCount 1 .
    ex:p1 a ex:Person ; ex:address ex:addr1 .
    ex:p2 a ex:Person ; ex:address ex:addr1 .
    """
    triples = parse_turtle(ttl)
    ds = rd.from_arrow(triples_to_table(triples))
    schema = compile_shacl(triples)
    _t, rep = distributed_validate(ds, "shacl", schema, "shacl-targets", nbuckets=4)
    rows = sorted(
        (a, b.split("#")[-1])
        for a, b in zip(
            rep.column("focus_node").to_pylist(), rep.column("component").to_pylist()
        )
    )
    assert rows == [
        ("Ihttp://ex.org/addr1", "MinCountConstraintComponent"),
        ("Ihttp://ex.org/addr1", "MinCountConstraintComponent"),
    ], rows


def test_inline_shape_dep_routed_to_home_bucket(ray_session):
    """A NOT over an anonymous nested Shape whose value node lives in
    another bucket routes an 'inline:N' pseudo-pair there — the home
    bucket must resolve it through the inline registry (1NOTdot pattern)."""
    import copy

    import pyarrow as pa
    import ray.data as rd

    from shaclex_ray.terms import iri, triples_to_table
    from shaclex_ray.validate.dist import distributed_validate

    schema = {
        "start": None,
        "te_refs": {},
        "imports": [],
        "shapes": {
            "http://e/S": {
                "type": "Shape",
                "id": "http://e/S",
                "expression": {
                    "type": "TripleConstraint",
                    "predicate": "http://e/p",
                    "valueExpr": {
                        "type": "ShapeNot",
                        "shapeExpr": {
                            "type": "Shape",
                            "expression": {
                                "type": "TripleConstraint",
                                "predicate": "http://e/q",
                                "min": 1,
                                "max": -1,
                            },
                        },
                    },
                    "min": 1,
                    "max": 1,
                },
            }
        },
    }
    # o has a q-arc => inner shape matches => NOT fails => focus notConforms
    triples = [
        (iri("http://e/n"), "http://e/p", iri("http://e/o")),
        (iri("http://e/o"), "http://e/q", iri("http://e/x")),
    ]
    for nb in (1, 4):
        focus = pa.table({"node": ["Ihttp://e/n"], "shape": ["http://e/S"]})
        typing, _rep = distributed_validate(
            rd.from_arrow(triples_to_table(triples)),
            "shex",
            copy.deepcopy(schema),
            focus,
            nbuckets=nb,
        )
        f = typing.filter(typing.column("is_focus"))
        assert f.column("val")[0].as_py() == "notConforms", nb


def test_flat_partial_class_violation_rows(ray_session):
    """A class dep that FAILS cross-bucket resolves through the stored
    flat partial in a later round and must emit the same Class report
    rows (and verdicts) as the per-focus fallback path."""
    import ray.data as rd

    from shaclex_ray.rdfio import parse_turtle
    from shaclex_ray.shapes.shacl import compile_shacl
    from shaclex_ray.validate.dist import distributed_validate

    ttl = """
    @prefix sh: <http://www.w3.org/ns/shacl#> .
    @prefix ex: <http://ex.org/> .
    ex:DocShape a sh:NodeShape ;
      sh:targetClass ex:Document ;
      sh:property [ sh:path ex:mentions ; sh:class ex:Entity ; sh:minCount 1 ] .
    """
    data = """
    @prefix ex: <http://ex.org/> .
    @prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
    ex:d1 rdf:type ex:Document ; ex:mentions ex:e1 ; ex:mentions ex:bad1 .
    ex:d2 rdf:type ex:Document ; ex:mentions ex:bad2 .
    ex:d3 rdf:type ex:Document ; ex:mentions ex:e1 .
    ex:e1 rdf:type ex:Entity .
    ex:bad1 rdf:type ex:Other .
    ex:bad2 ex:p ex:q .
    """
    from shaclex_ray.terms import triples_to_table

    tbl = triples_to_table(parse_turtle(data))
    ds = rd.from_arrow(tbl)

    def run(no_flat):
        schema = compile_shacl(parse_turtle(ttl))
        if no_flat:
            schema["_no_flat"] = True
        return distributed_validate(ds, "shacl", schema, "shacl-targets", nbuckets=4)

    t1, r1 = run(False)
    t2, r2 = run(True)

    def nr(r):
        return sorted(
            zip(
                r.column("focus_node").to_pylist(),
                r.column("path").to_pylist(),
                r.column("value_lex").to_pylist(),
                r.column("component").to_pylist(),
            )
        )

    def nt(t):
        return sorted(
            zip(t.column("node").to_pylist(), t.column("shape").to_pylist(),
                t.column("val").to_pylist())
        )

    assert nt(t1) == nt(t2)
    assert nr(r1) == nr(r2)
    # both bad mentions produced a Class violation row
    comps = [c for _, _, _, c in nr(r1)]
    assert sum("ClassConstraintComponent" in c for c in comps) == 2


def _validate_in_process(schema, engine, triples, focus, nbuckets):
    """The fixpoint over ``nbuckets`` in-process ``_Bucket``s, driven by
    the fleet's loop through plain method calls (so a test can watch the
    kernels). Returns the typing table."""
    from shaclex_ray.stages.exchange import run_split
    from shaclex_ray.validate import dist

    dist.register_inline_shapes(schema)
    schema["_has_inverse"] = False
    parts = run_split(
        dist._route_arcs, (False,), nbuckets, dist.ARC_SCHEMA, dist.ARC_COLS,
        triples,
    )
    buckets = [dist._Bucket(schema, engine, nbuckets, b) for b in range(nbuckets)]
    loads = [bucket.load(part) for bucket, part in zip(buckets, parts)]
    (typing, _report), _state = dist._bsp(
        lambda b, method, *args: getattr(buckets[b], method)(*args),
        lambda results: results, nbuckets, schema, focus, loads, 12, None,
    )
    return sorted(
        zip(
            typing.column("node").to_pylist(),
            typing.column("shape").to_pylist(),
            typing.column("val").to_pylist(),
        )
    )


def test_flat_shex_refs_resume_without_kernel_rerun(monkeypatch):
    """A flat ShEx shape whose ref values live in other buckets blocks on
    them and then resumes from its stored partial: the kernel evaluates
    every pair once, and the typing equals the per-focus path's."""
    import copy
    from collections import Counter

    from shaclex_ray.terms import iri, triples_to_table
    from shaclex_ray.validate import dist

    def tc(pred, ve=None, mn=1, mx=1):
        return {
            "type": "TripleConstraint", "predicate": pred, "min": mn, "max": mx,
            **({"valueExpr": ve} if ve else {}),
        }

    # S { :p @R+ ; :q ? }   R { :r . }   — R needs a neighborhood, so every
    # ref value is a dependency answered by its home bucket
    schema = {
        "start": None, "te_refs": {}, "imports": [],
        "shapes": {
            "http://e/S": {
                "type": "Shape", "id": "http://e/S",
                "expression": {
                    "type": "EachOf",
                    "expressions": [
                        tc("http://e/p", "http://e/R", 1, -1),
                        tc("http://e/q", mn=0),
                    ],
                },
            },
            "http://e/R": {
                "type": "Shape", "id": "http://e/R",
                "expression": tc("http://e/r"),
            },
        },
    }
    n = 12
    triples = []
    for i in range(n):
        triples.append((iri(f"http://e/n{i}"), "http://e/p", iri(f"http://e/m{i}")))
        triples.append(
            (iri(f"http://e/n{i}"), "http://e/p", iri(f"http://e/m{(i + 1) % n}"))
        )
        if i % 3:
            triples.append((iri(f"http://e/m{i}"), "http://e/r", iri("http://e/x")))
        if i % 4 == 0:
            triples.append((iri(f"http://e/n{i}"), "http://e/q", iri("http://e/x")))
    focus = pa.table(
        {"node": [f"Ihttp://e/n{i}" for i in range(n)], "shape": ["http://e/S"] * n}
    )
    nb = 4
    assert any(
        dist.node_key_bucket(f"Ihttp://e/n{i}", nb)
        != dist.node_key_bucket(f"Ihttp://e/m{i}", nb)
        for i in range(n)
    )

    runs = Counter()
    kernel = dist.flat_eval_kernel

    def counting(profile, node_keys, *args):
        preds = tuple(e["pred"] for e in profile.entries)
        runs.update((preds, nk) for nk in node_keys)
        return kernel(profile, node_keys, *args)

    monkeypatch.setattr(dist, "flat_eval_kernel", counting)
    tbl = triples_to_table(triples)
    got = _validate_in_process(copy.deepcopy(schema), "shex", tbl, focus, nb)
    no_flat = dict(copy.deepcopy(schema), _no_flat=True)
    want = _validate_in_process(no_flat, "shex", tbl, focus, nb)

    assert got == want
    assert {v for _n, _s, v in got} == {"conforms", "notConforms"}
    s_preds = ("http://e/p", "http://e/q")
    assert {nk for preds, nk in runs if preds == s_preds} == set(
        focus.column("node").to_pylist()
    )
    assert set(runs.values()) == {1}, runs


def _late_request_case():
    """f:S -> g:R -> k:Q -> c:T is a chain of requests, and h:H asks for
    c:T at once: c:T is decided, forwarded to h's bucket and evicted from
    the driver two rounds before k:Q, evaluated in another bucket, asks
    for it again. c fails T, so a lost or defaulted answer shows."""
    from shaclex_ray.terms import iri, literal, triples_to_table

    def shape(label, pred, ve):
        return {
            "type": "Shape", "id": f"http://e/{label}",
            "expression": {
                "type": "TripleConstraint", "predicate": f"http://e/{pred}",
                "valueExpr": ve, "min": 1, "max": 1,
            },
        }

    integer = {"type": "NodeConstraint",
               "datatype": "http://www.w3.org/2001/XMLSchema#integer"}
    shapes = [
        shape("S", "a", "http://e/R"), shape("R", "b", "http://e/Q"),
        shape("Q", "c", "http://e/T"), shape("H", "c", "http://e/T"),
        shape("T", "v", integer),
    ]
    schema = {"start": None, "te_refs": {}, "imports": [],
              "shapes": {s["id"]: s for s in shapes}}
    e = "http://e/"
    triples = [
        (iri(e + "f1"), e + "a", iri(e + "g2")),
        (iri(e + "g2"), e + "b", iri(e + "k3")),
        (iri(e + "k3"), e + "c", iri(e + "c0")),
        (iri(e + "h0"), e + "c", iri(e + "c0")),
        (iri(e + "c0"), e + "v", literal("x")),
        (iri(e + "n0"), e + "v", literal("5", integer["datatype"])),
    ]
    focus = pa.table({
        "node": ["Ihttp://e/f1", "Ihttp://e/h0", "Ihttp://e/n0"],
        "shape": ["http://e/S", "http://e/H", "http://e/T"],
    })
    return schema, triples_to_table(triples), focus


@pytest.mark.parametrize(
    "flat, late_at", [(True, (2, 4, 8)), (False, (4, 8))], ids=["flat", "walked"]
)
def test_late_request_for_an_evicted_answer(monkeypatch, flat, late_at):
    """A request for a pair whose answer the driver already forwarded and
    evicted is answered by the pair's bucket from its typing (the
    'already decided' branch of ``submit_nodes``), and the typing equals
    one bucket's. A flat ShEx ref is always a request; on the per-focus
    path a local ref is evaluated in place, so there the late request
    needs c, k and h in three buckets."""
    import copy

    from shaclex_ray.validate import dist

    schema, triples, focus = _late_request_case()
    # the bucket layout the case needs (k shares c's bucket at 2)
    layout = {nb: [dist.node_key_bucket(f"Ihttp://e/{n}", nb)
                   for n in ("c0", "k3", "h0", "g2", "f1")] for nb in (2, 4, 8)}
    assert layout == {2: [1, 1, 0, 0, 1], 4: [1, 3, 0, 0, 1], 8: [1, 7, 0, 4, 5]}
    if not flat:
        schema["_no_flat"] = True

    late = []
    submit_nodes = dist._Bucket.submit_nodes

    def watched(self, nodes, sk, is_focus):
        out = submit_nodes(self, nodes, sk, is_focus)
        if not is_focus:
            late.extend(out)
        return out

    monkeypatch.setattr(dist._Bucket, "submit_nodes", watched)
    one = _validate_in_process(copy.deepcopy(schema), "shex", triples, focus, 1)
    assert one == [
        ("Ihttp://e/f1", "http://e/S", "notConforms"),
        ("Ihttp://e/h0", "http://e/H", "notConforms"),
        ("Ihttp://e/n0", "http://e/T", "conforms"),
    ]
    for nb in (2, 4, 8):
        late.clear()
        got = _validate_in_process(copy.deepcopy(schema), "shex", triples, focus, nb)
        assert got == one, nb
        if nb in late_at:
            assert late == [("Ihttp://e/c0", "http://e/T", "notConforms")], nb


def test_vectorized_reverse_key_render_matches_scalar(ray_session):
    """route_arcs' reversed-copy bucketing renders node keys with Arrow
    kernels; it must agree with the scalar node_key/stable_bucket dialect
    on every term shape — bnodes, IRIs, and literals whose lexical forms
    contain the SEP control char, empty dt/lang, and non-ASCII text."""
    import numpy as np

    from shaclex_ray.stages.exchange import run_split
    from shaclex_ray.terms import SEP
    from shaclex_ray.validate.dist import (
        ARC_COLS,
        ARC_SCHEMA,
        _route_arcs,
        node_key_bucket,
        stable_bucket,
    )

    rows = [
        ("iri", "http://ex.org/a", "", ""),
        ("iri", "http://ex.org/ünïcode/路径", "", ""),
        ("bnode", "b0", "", ""),
        ("bnode", "x" + SEP + "y", "", ""),
        ("literal", "plain", "", ""),
        ("literal", "", "", ""),
        ("literal", "has" + SEP + "sep", "http://www.w3.org/2001/XMLSchema#string", ""),
        ("literal", "tagged", "", "en-US"),
        ("literal", "42", "http://www.w3.org/2001/XMLSchema#integer", ""),
        ("literal", "naïve — em–dash", "", "fr"),
    ]
    n = len(rows)
    tbl = pa.table(
        {
            "subj": pa.array([f"http://ex.org/s{i}" for i in range(n)]),
            "pred": pa.array(["http://ex.org/p"] * n),
            "obj_kind": pa.array([r[0] for r in rows]),
            "obj_lex": pa.array([r[1] for r in rows]),
            "obj_dt": pa.array([r[2] for r in rows]),
            "obj_lang": pa.array([r[3] for r in rows]),
        }
    )
    nbuckets = 5
    parts = run_split(_route_arcs, (True,), nbuckets, ARC_SCHEMA, ARC_COLS, tbl)

    # scalar reference: the string the old comprehension produced per arc
    def scalar_key(kind, lex, dt, lang):
        if kind == "bnode":
            return "_:" + lex
        if kind == "iri":
            return lex
        return "L" + lex + SEP + dt + SEP + lang

    want = np.zeros(nbuckets, dtype=int)
    for kind, lex, dt, lang in rows:
        want[stable_bucket(scalar_key(kind, lex, dt, lang), nbuckets)] += 1
    got = np.zeros(nbuckets, dtype=int)
    for b, part in enumerate(parts):
        rev = part.filter(part.column("rev"))
        got[b] = rev.num_rows
        # every reversed arc must sit in its object node-key's home bucket
        for kind, lex, dt, lang in zip(
            rev.column("obj_kind").to_pylist(),
            rev.column("obj_lex").to_pylist(),
            rev.column("obj_dt").to_pylist(),
            rev.column("obj_lang").to_pylist(),
        ):
            assert stable_bucket(scalar_key(kind, lex, dt, lang), nbuckets) == b
    assert got.tolist() == want.tolist()
    # forward copies still route by subject, and nothing was lost
    total = sum(p.num_rows for p in parts)
    assert total == 2 * n
    # the vectorized node-key hash (focus routing, the flat kernel's
    # is-local fill) agrees with the scalar one on the same terms
    from shaclex_ray.terms import term_key
    from shaclex_ray.validate.dist import node_key_bucket_array

    keys = [term_key(r) for r in rows]
    assert node_key_bucket_array(keys, nbuckets).tolist() == [
        node_key_bucket(k, nbuckets) for k in keys
    ]


def _kg_graph(n: int = 30):
    """A KG-shaped graph: documents with lang/source/mentions, entities
    with a surface; every fifth document lacks a mention, every seventh
    mentions an untyped node, every eleventh entity lacks its surface."""
    from shaclex_ray.rdfio import parse_turtle
    from shaclex_ray.terms import triples_to_table

    lines = ["@prefix ex: <http://ex.org/> ."]
    for i in range(n):
        doc = f'ex:d{i} a ex:Document ; ex:lang "en" ; ex:source "s{i % 3}"'
        if i % 5:
            doc += f" ; ex:mentions ex:e{i % 9}"
        if i % 7 == 0:
            doc += " ; ex:mentions ex:loose"
        lines.append(doc + " .")
    for j in range(9):
        lines.append(f"ex:e{j} a ex:Entity" + ("" if j % 11 == 3 else f' ; ex:surface "e{j}"') + " .")
    triples = parse_turtle("\n".join(lines))
    return triples, triples_to_table(triples)


def _local_shacl(schema, triples, focus):
    """(node, shape) -> conforms, by the in-memory validator."""
    from shaclex_ray.validate.local import Graph
    from shaclex_ray.validate.shacl_local import ShaclValidator

    v = ShaclValidator(schema, Graph(triples))
    return {(nk, sk): not v.validate_shape(nk, sk) for nk, sk in focus}


def test_single_bucket_kg_validation_builds_no_node_index(monkeypatch):
    """At one bucket the KG schema's shapes are all flat: the columnar
    path validates them without the per-node sorted index (``_ArcIndex``
    raises here), and its verdicts equal the in-memory validator's."""
    from shaclex_ray.pipelines.kg import kg_schema
    from shaclex_ray.validate import dist

    triples, tbl = _kg_graph()

    def no_index(*_a, **_k):
        raise AssertionError("per-node index built")

    monkeypatch.setattr(dist, "_ArcIndex", no_index)
    schema = kg_schema()
    (typing, report), _state = dist._run_single_bucket(
        schema, "shacl", False, None, "shacl-targets", 12, None, tbl
    )
    got = {
        (n, s): v == "conforms"
        for n, s, v in zip(*[typing.column(c).to_pylist() for c in ("node", "shape", "val")])
    }
    assert len(got) == 39 and report.num_rows
    assert got == _local_shacl(kg_schema(), triples, got)
    assert {v for v in got.values()} == {True, False}


def test_single_bucket_non_flat_shape_uses_node_index():
    """A non-flat shape (sh:node, a closed shape) takes the per-focus path
    over the per-node index, next to a flat one, and still validates
    correctly at one bucket."""
    from shaclex_ray.pipelines.kg import KG_SHAPES_TTL
    from shaclex_ray.rdfio import parse_turtle
    from shaclex_ray.shapes.shacl import compile_shacl
    from shaclex_ray.validate import dist

    ttl = KG_SHAPES_TTL + """
    ex:NamedShape a sh:NodeShape ; sh:closed true ;
      sh:ignoredProperties ( <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ) ;
      sh:property [ sh:path ex:surface ; sh:minCount 1 ] .
    ex:EntityShape sh:node ex:NamedShape .
    """
    triples, tbl = _kg_graph()

    def schema():
        return compile_shacl(parse_turtle(ttl))

    assert "Ihttp://ex.org/EntityShape" not in dist.flat_shacl_profile(schema())
    (typing, _report), _state = dist._run_single_bucket(
        schema(), "shacl", False, None, "shacl-targets", 12, None, tbl
    )
    got = {
        (n, s): v == "conforms"
        for n, s, v in zip(*[typing.column(c).to_pylist() for c in ("node", "shape", "val")])
    }
    assert len(got) == 39
    assert got == _local_shacl(schema(), triples, got)
    ents = {n: ok for (n, s), ok in got.items() if s.endswith("EntityShape")}
    assert ents["Ihttp://ex.org/e3"] is False and ents["Ihttp://ex.org/e1"] is True


def test_route_arcs_one_bucket_takes_every_arc_in_order():
    """At one bucket ``_route_arcs`` hashes nothing: bucket 0 holds the
    forward arcs in input order, then (inverse copies on) the reversed
    copies in input order — the rows a multi-bucket split spreads over
    its buckets."""
    from shaclex_ray.stages.exchange import run_split
    from shaclex_ray.validate import dist

    _triples, tbl = _kg_graph(12)
    arcs = tbl.select(dist.ARC_COLS)
    n = arcs.num_rows

    def rows(t):
        return sorted(zip(*[t.column(c).to_pylist() for c in t.column_names]))

    for inverse in (False, True):
        (one,) = dist._route_arcs(arcs, 1, inverse)
        flags = [False] * n + ([True] * n if inverse else [])
        want = pa.concat_tables([arcs] * (2 if inverse else 1))
        assert one.select(dist.ARC_COLS).equals(want)
        assert one.column("rev").to_pylist() == flags
        many = run_split(dist._route_arcs, (inverse,), 3, dist.ARC_SCHEMA,
                         dist.ARC_COLS, arcs)
        assert rows(one) == rows(pa.concat_tables(many))


def test_all_conformant_report_materializes_with_its_columns(ray_session, tmp_path):
    """An all-conformant graph's report, written by
    ``distributed_validate(output_dir=...)``, reads back (``read_parts``)
    as a Dataset whose materialized blocks keep the report columns (Ray
    reads a zero-row part as blocks without columns)."""
    import ray.data as rd

    from shaclex_ray.rdfio import parse_turtle
    from shaclex_ray.shapes.shacl import compile_shacl
    from shaclex_ray.state.checkpoint import read_parts
    from shaclex_ray.validate.dist import REPORT_SCHEMA, distributed_validate

    ttl = """
    @prefix sh: <http://www.w3.org/ns/shacl#> .
    @prefix ex: <http://ex.org/> .
    ex:ThingShape a sh:NodeShape ;
      sh:targetClass ex:Thing ;
      sh:property [ sh:path ex:name ; sh:minCount 1 ] .
    """ + "\n".join(f'ex:t{i} a ex:Thing ; ex:name "t{i}" .' for i in range(8))
    from shaclex_ray.terms import triples_to_table

    triples = parse_turtle(ttl)
    for nb in (1, 2):
        out = str(tmp_path / f"v{nb}")
        distributed_validate(
            rd.from_arrow(triples_to_table(triples)), "shacl",
            compile_shacl(triples), "shacl-targets", nbuckets=nb, output_dir=out,
        )
        typing, report = read_parts(f"{out}/typing"), read_parts(f"{out}/report")
        got = report.materialize()
        assert got.count() == 0
        assert got.schema() is not None
        assert got.schema().names == REPORT_SCHEMA.names
        assert typing.count() == 8
