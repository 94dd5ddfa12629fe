"""The two ways distributed_validate runs its fixpoint.

``nbuckets == 1`` runs the whole fixpoint as one task
(``_run_single_bucket``); ``nbuckets > 1`` runs plain tasks over the
object store: one load task per bucket, then one task per bucket call
(``_run_fleet``). Both are driven by the same loop, so they must agree on
every input and focus form at every bucket count, and a fleet call must
give the same answers however often, concurrently or after whatever
failure it runs.
"""

import gc
import glob
import os
import tempfile
import threading

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tests.test_kg_slice import SF

_CYCLE_SCHEMA = {
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
                "valueExpr": "http://ex.org/S",
                "min": 1,
                "max": 1,
            },
        }
    },
}

_INVERSE_TTL = """
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

_TARGETS_TTL = """
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://ex.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:ClassShape a sh:NodeShape ;
  sh:targetClass ex:Person ;
  sh:property [ sh:path ex:name ; sh:minCount 1 ] ;
  sh:property [ sh:path ex:knows ; sh:class ex:Person ] .
ex:ObjShape a sh:NodeShape ;
  sh:targetObjectsOf ex:knows ;
  sh:property [ sh:path ex:name ; sh:minCount 1 ] .
ex:SubjShape a sh:NodeShape ;
  sh:targetSubjectsOf ex:age ;
  sh:property [ sh:path ex:age ; sh:datatype xsd:integer ] .
ex:NodeShapeT a sh:NodeShape ;
  sh:targetNode ex:e ;
  sh:property [ sh:path ex:knows ; sh:maxCount 0 ] .
ex:Robot a sh:NodeShape, rdfs:Class ;
  sh:property [ sh:path ex:name ; sh:minCount 1 ] .
ex:Student rdfs:subClassOf ex:Person .
ex:a a ex:Person ; ex:name "A" ; ex:age 3 ; ex:knows ex:b , ex:e .
ex:b a ex:Student .
ex:c ex:age "old" .
ex:e ex:name "E" .
ex:r1 a ex:Robot .
"""


def _ring_triples(n: int) -> list:
    """A ring of ``n`` nodes (a cross-bucket cycle once n spans buckets)
    plus a two-node chain whose end has no ex:p."""
    from shaclex_ray.terms import iri

    p = "http://ex.org/p"
    ring = [
        (iri(f"http://ex.org/r{i}"), p, iri(f"http://ex.org/r{(i + 1) % n}"))
        for i in range(n)
    ]
    return ring + [(iri("http://ex.org/m0"), p, iri("http://ex.org/m1"))]


def _rows(tbl: pa.Table, cols: list[str]) -> list:
    return sorted(zip(*[tbl.column(c).to_pylist() for c in cols]))


def _focus_typing(tbl: pa.Table) -> list:
    # non-focus rows are the answers to cross-bucket dependency requests,
    # which only exist when there is more than one bucket
    return _rows(tbl.filter(tbl.column("is_focus")), ["node", "shape", "val"])


REPORT_COLS = [
    "focus_node", "path", "value_lex", "source_shape", "component",
    "severity", "message",
]


def _kg_case(tmp_path):
    from shaclex_ray.pipelines.kg import kg_schema, run_kg_pipeline

    out = str(tmp_path / "kg")
    run_kg_pipeline(SF, out, validate=False)
    path = f"{out}/triples_canonical"

    def run(dv, nb):
        dst = str(tmp_path / f"validation{nb}")
        dv(None, "shacl", kg_schema(), "shacl-targets", nbuckets=nb,
           output_dir=dst, parquet_path=path)
        return pq.read_table(f"{dst}/typing"), pq.read_table(f"{dst}/report")

    return run


def _cycle_case(_tmp_path):
    import ray.data as rd

    from shaclex_ray.terms import term_key, triples_to_table
    from shaclex_ray.validate.dist import node_key_bucket

    triples = _ring_triples(12)
    ring_keys = [term_key(t[0]) for t in triples[:12]]
    # the ring must really cross buckets at nbuckets=4 (cycle-break path)
    assert len({node_key_bucket(k, 4) for k in ring_keys}) > 1
    nodes = ring_keys + ["Ihttp://ex.org/m0", "Ihttp://ex.org/m1"]
    focus = pa.table({"node": nodes, "shape": ["http://ex.org/S"] * len(nodes)})
    ds = rd.from_arrow(triples_to_table(triples))

    def run(dv, nb):
        import copy

        return dv(ds, "shex", copy.deepcopy(_CYCLE_SCHEMA), focus, nbuckets=nb)

    return run


def _shacl_case(ttl: str):
    def case(_tmp_path):
        import ray.data as rd

        from shaclex_ray.rdfio import parse_turtle
        from shaclex_ray.shapes.shacl import compile_shacl
        from shaclex_ray.terms import triples_to_table

        triples = parse_turtle(ttl)
        ds = rd.from_arrow(triples_to_table(triples))

        def run(dv, nb):
            schema = compile_shacl(triples)
            return dv(ds, "shacl", schema, "shacl-targets", nbuckets=nb)

        return run

    return case


@pytest.mark.parametrize(
    "make_case",
    [
        _kg_case,
        _cycle_case,
        _shacl_case(_INVERSE_TTL),
        _shacl_case(_TARGETS_TTL),
    ],
    ids=["kg_checkpoint", "shex_cycle", "inverse_path", "all_targets"],
)
def test_regime_parity(ray_session, tmp_path, make_case):
    """One task (nbuckets=1) and fleets of 2, 4 and 8 buckets give the
    same focus typing and the same report multiset, with every pair
    decided."""
    from shaclex_ray.validate import dist

    dv = dist.distributed_validate
    run = make_case(tmp_path)
    results = {}
    for nb in (1, 2, 4, 8):
        for attr in ("last_nbuckets", "last_stats", "last_dep_state"):
            dv.__dict__.pop(attr, None)
        typing, report = run(dv, nb)
        assert dv.last_nbuckets == nb
        assert set(dv.last_dep_state) == {"need_by", "answered_vals", "forwarded"}
        if make_case is _kg_case:
            assert set(dv.last_stats) >= {"violations", "conforms"}
            assert dv.last_stats["violations"] == report.num_rows
        results[nb] = (_focus_typing(typing), _rows(report, REPORT_COLS))
        # every pair is decided; the ring closes coinductively
        assert results[nb][0], "no focus typing"
        assert "unknown" not in {val for _n, _s, val in results[nb][0]}
    for nb in (2, 4, 8):
        assert results[nb] == results[1], f"nbuckets={nb} differs from one task"


def _hygiene_input():
    from shaclex_ray.rdfio import parse_turtle
    from shaclex_ray.shapes.shacl import compile_shacl
    from shaclex_ray.terms import triples_to_table

    triples = parse_turtle(_TARGETS_TTL)
    return compile_shacl(triples), triples_to_table(triples)


@pytest.mark.parametrize("fail", [False, True], ids=["ok", "raises"])
def test_single_bucket_runner_restores_worker(tmp_path, monkeypatch, fail):
    """The in-process runner unfreezes the GC it froze after the load and
    removes its spill directory, also when a bucket method raises."""
    from shaclex_ray.validate import dist

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    seen = []
    run_round = dist._Bucket.run_round

    def watched_round(self, *args):
        seen.append((gc.get_freeze_count(), self.graph._spill_dir))
        if fail:
            raise RuntimeError("bucket failure")
        return run_round(self, *args)

    monkeypatch.setattr(dist._Bucket, "run_round", watched_round)
    schema, triples = _hygiene_input()
    args = (schema, "shacl", False, None, "shacl-targets", 12, None, triples)
    if fail:
        with pytest.raises(RuntimeError, match="bucket failure"):
            dist._run_single_bucket(*args)
    else:
        (typing, report), dep_state = dist._run_single_bucket(*args)
        assert typing.num_rows and report.num_rows
        assert dep_state == {"need_by": 0, "answered_vals": 0, "forwarded": 0}
    # while it ran, the GC was frozen and the spill dir was here
    frozen, spill_dir = seen[0]
    assert frozen > 0 and spill_dir.startswith(str(tmp_path))
    assert gc.get_freeze_count() == 0
    assert not list(tmp_path.glob("shaclex-b0-*"))


# ------------------------------------------------------------ fleet calls


def _fleet_in_process(engine, schema, focus, nbuckets, *inputs):
    """The fleet's protocol in this process: ``_load_bucket`` per bucket,
    then every ``_bsp`` call through ``_call_bucket`` on the state the
    bucket's previous call returned. Returns the (typing, report) tables
    and, per bucket, the methods it received after its load and whether
    a returned state held the is-local memo."""
    from collections import Counter

    from shaclex_ray.stages.exchange import run_split
    from shaclex_ray.validate import dist

    if engine == "shex":
        dist.register_inline_shapes(schema)
    schema["_has_inverse"] = dist.schema_has_inverse(engine, schema)
    parts = run_split(
        dist._route_arcs, (schema["_has_inverse"],), nbuckets, dist.ARC_SCHEMA,
        dist.ARC_COLS, *inputs,
    )
    graphs, states, loads = map(list, zip(*(
        dist._load_bucket(dist._Bucket(schema, engine, nbuckets, b), part)
        for b, part in enumerate(parts)
    )))
    calls = [Counter() for _ in range(nbuckets)]
    memo = [False] * nbuckets

    def call(b, method, *args):
        calls[b][method] += 1
        states[b], out = dist._call_bucket(graphs[b], states[b], method, *args)
        memo[b] |= "_local_cache" in vars(states[b])
        return out

    out, _dep_state = dist._bsp(
        call, lambda results: results, nbuckets, schema, focus, loads, 12, None
    )
    return out, calls, memo


@pytest.mark.parametrize("case", ["kg", "ring"])
def test_one_bucket_call_per_round(ray_session, tmp_path, case):
    """A bucket receives ``derive_focus``, one ``run_round`` per round and
    ``finish`` after its load — every bucket the same number of rounds —
    no returned state carries the is-local memo, and 2 and 4 buckets give
    the typing and report of one."""
    import copy

    from shaclex_ray.terms import triples_to_table

    if case == "kg":
        from shaclex_ray.pipelines.kg import kg_schema, run_kg_pipeline

        out = str(tmp_path / "kg")
        run_kg_pipeline(SF, out, validate=False)
        args = ("shacl", kg_schema(), "shacl-targets")
        inputs = sorted(glob.glob(f"{out}/triples_canonical/*.parquet"))
    else:
        nodes = [f"Ihttp://ex.org/r{i}" for i in range(12)]
        nodes += ["Ihttp://ex.org/m0", "Ihttp://ex.org/m1"]
        focus = pa.table({"node": nodes, "shape": ["http://ex.org/S"] * len(nodes)})
        args = ("shex", _CYCLE_SCHEMA, focus)
        inputs = [triples_to_table(_ring_triples(12))]

    def run(nb):
        engine, schema, focus = args
        return _fleet_in_process(engine, copy.deepcopy(schema), focus, nb, *inputs)

    one, _calls, _memo = run(1)
    want = _fleet_rows(one)
    assert want[0]
    for nb in (2, 4):
        out, calls, memo = run(nb)
        rounds = calls[0]["run_round"]
        assert rounds >= (2 if case == "ring" else 1)
        for b, got in enumerate(calls):
            assert got["run_round"] == rounds, (nb, b, got)
            assert sum(got.values()) <= rounds + 2, (nb, b, got)
        assert not any(memo), (nb, memo)
        assert _fleet_rows(out) == want, nb


def _fleet_rows(out) -> tuple:
    typing, report = out
    return (
        _rows(typing, ["node", "shape", "val", "is_focus"]),
        _rows(report, REPORT_COLS),
    )


def _spill_dirs() -> set:
    return set(glob.glob(os.path.join(tempfile.gettempdir(), "shaclex-b*")))


@pytest.mark.parametrize("closed", [False, True], ids=["flat", "walked"])
def test_load_task_builds_the_index_for_walked_shapes(closed):
    """A fleet graph is final once loaded: the load task builds the
    per-node index when a shape takes the per-focus path (a closed ShEx
    shape has no flat profile) and not for flat shapes, and the state it
    returns holds no graph."""
    import copy

    from shaclex_ray.terms import triples_to_table
    from shaclex_ray.validate import dist

    schema = copy.deepcopy(_CYCLE_SCHEMA)
    schema["shapes"]["http://ex.org/S"]["closed"] = closed
    arcs = triples_to_table(_ring_triples(12)).select(dist.ARC_COLS)
    (part,) = dist._route_arcs(arcs, 1, False)
    graph, state, subclass_rows = dist._load_bucket(
        dist._Bucket(schema, "shex", 1, 0), part
    )
    assert graph.arcs.num_rows == arcs.num_rows
    assert subclass_rows.num_rows == 0
    assert "graph" not in vars(state)
    assert (graph._fwd_index is not None) is closed


def test_repeated_fleet_calls_agree(ray_session, tmp_path):
    """Back-to-back fleet calls with different engines and schemas: a
    repeated call gives what the first one gave."""
    from shaclex_ray.validate import dist

    dv = dist.distributed_validate
    kg, cycle = _kg_case(tmp_path), _cycle_case(tmp_path)
    kg_first = _fleet_rows(kg(dv, 4))
    cycle_first = _fleet_rows(cycle(dv, 4))
    assert _fleet_rows(kg(dv, 4)) == kg_first
    assert _fleet_rows(cycle(dv, 4)) == cycle_first


def test_fleet_call_leaves_no_spill_dir(ray_session, tmp_path):
    """A fleet call's graphs live in the object store: it leaves no
    bucket spill dir behind."""
    from shaclex_ray.validate import dist

    before = _spill_dirs()
    _kg_case(tmp_path)(dist.distributed_validate, 4)
    assert _spill_dirs() <= before


def test_failed_fleet_call_leaves_nothing_behind(ray_session, tmp_path):
    """A fleet call that raises (its output dir is a regular file) leaves
    no spill dir behind, and the next call matches one made before it."""
    from shaclex_ray.validate import dist

    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    run = _cycle_case(tmp_path)

    def into_file(*args, **kw):
        return dist.distributed_validate(*args, output_dir=str(not_a_dir), **kw)

    first = _fleet_rows(run(dist.distributed_validate, 2))
    before = _spill_dirs()
    with pytest.raises(NotADirectoryError):
        run(into_file, 2)
    assert _spill_dirs() <= before
    assert _fleet_rows(run(dist.distributed_validate, 2)) == first


def test_round_task_retried_after_worker_death(ray_session, tmp_path, monkeypatch):
    """The worker of one round task dies (``os._exit``) on the task's
    first attempt; a marker file lets the retry through. Ray reruns the
    task from its unchanged inputs, and the output equals an undisturbed
    run's."""
    import ray

    from shaclex_ray.validate import dist

    run = _cycle_case(tmp_path)
    calm = _fleet_rows(run(dist.distributed_validate, 4))
    marker = str(tmp_path / "died")
    call_bucket = dist._call_bucket

    def dies_once(graph, bucket, method, *args):
        if method == "run_round" and bucket.bucket_id == 1:
            if not os.path.exists(marker):
                open(marker, "w").close()
                os._exit(1)
        return call_bucket(graph, bucket, method, *args)

    monkeypatch.setattr(dist, "_call_task", ray.remote(num_returns=2)(dies_once))
    assert _fleet_rows(run(dist.distributed_validate, 4)) == calm
    assert os.path.exists(marker), "no round task died"


def test_fleet_call_after_session_restart(ray_session, tmp_path):
    """After ray.shutdown() and ray.init() in the same driver a fleet
    call validates as it did in the old session."""
    import ray

    from shaclex_ray.validate import dist
    from tests.conftest import RAY_INIT_KWARGS

    first = _fleet_rows(_cycle_case(tmp_path)(dist.distributed_validate, 4))
    ray.shutdown()
    ray.init(**RAY_INIT_KWARGS)
    # the case's Dataset lives in the session's object store: rebuild it
    out = _fleet_rows(_cycle_case(tmp_path)(dist.distributed_validate, 4))
    assert out == first


def test_concurrent_fleet_calls_match_serial(ray_session, tmp_path):
    """Two fleet calls from two driver threads at once give what each
    gives alone."""
    from shaclex_ray.validate import dist

    dv = dist.distributed_validate
    cases = {"kg": _kg_case(tmp_path), "cycle": _cycle_case(tmp_path)}
    serial = {name: _fleet_rows(run(dv, 4)) for name, run in cases.items()}
    got, errors = {}, []

    def call(name):
        try:
            got[name] = _fleet_rows(cases[name](dv, 4))
        except Exception as e:  # surfaced below
            errors.append(e)

    threads = [threading.Thread(target=call, args=(name,)) for name in cases]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert got == serial


_HUB_SHAPES_TTL = """
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://ex.org/> .
ex:HubShape a sh:NodeShape ;
  sh:targetNode ex:hub ;
  sh:property [ sh:path ex:p ; sh:class ex:C ] .
"""


def test_flat_probe_hashes_its_values_at_once(monkeypatch):
    """A hub (one subject, 10^4 ``ex:p`` arcs) under an ``sh:class``
    probe, whose every value asks its home bucket: at 4 buckets, in
    process, the flat kernel learns which values are local in batched
    hashes (``_LocalKeys.fill``), at most one per bucket and round, each
    value once, and no value goes through the scalar
    ``node_key_bucket``. Typing and report equal one bucket's."""
    from shaclex_ray.rdfio import parse_turtle
    from shaclex_ray.shapes.shacl import compile_shacl
    from shaclex_ray.terms import RDF_TYPE, iri, triples_to_table
    from shaclex_ray.validate import dist

    n = 10_000
    hub, p, cls = iri("http://ex.org/hub"), "http://ex.org/p", iri("http://ex.org/C")
    values = [iri(f"http://ex.org/v{i}") for i in range(n)]
    data = triples_to_table(
        [(hub, p, v) for v in values] + [(v, RDF_TYPE, cls) for v in values[::2]]
    )
    scalar, batched = [], []
    key_bucket, fill = dist.node_key_bucket, dist._LocalKeys.fill

    def counting(nk, nb):
        scalar.append(nk)
        return key_bucket(nk, nb)

    def counting_fill(self, keys):
        known = len(self.memo)
        fill(self, keys)
        batched.append(len(self.memo) - known)

    monkeypatch.setattr(dist, "node_key_bucket", counting)
    monkeypatch.setattr(dist._LocalKeys, "fill", counting_fill)

    def run(nb):
        schema = compile_shacl(parse_turtle(_HUB_SHAPES_TTL))
        return _fleet_in_process("shacl", schema, "shacl-targets", nb, data)

    one, _calls, _memo = run(1)
    scalar.clear(), batched.clear()
    out, calls, _memo = run(4)
    rounds = sum(c["run_round"] for c in calls)
    assert _fleet_rows(out) == _fleet_rows(one)
    typing = _fleet_rows(out)[0]
    assert typing == [("Ihttp://ex.org/hub", "Ihttp://ex.org/HubShape", "notConforms", True)]
    assert scalar == []
    assert 1 <= len(batched) <= rounds and sum(batched) == n
