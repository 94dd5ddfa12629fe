"""The two transports of distributed_validate.

``nbuckets == 1`` runs the whole fixpoint as one task on a pooled worker
(``_run_single_bucket``); ``nbuckets > 1`` runs one ``BucketWorker``
actor per bucket, taken from a session-scoped actor pool. Both are driven
by the same loop, so they must agree on every input and focus form, and
each must leave the process it borrowed as it found it: a warm actor
gives the same answers as a fresh one.
"""

import gc
import glob
import os
import tempfile

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
    # the ring must really cross buckets at nbuckets=4 (assume_deps path)
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


class _NoActors:
    """Stands in for BucketWorker: any actor spawn fails the test."""

    def remote(self, *_a, **_k):
        raise AssertionError("the single-bucket regime spawned an actor")

    def options(self, *_a, **_k):
        return self


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
def test_regime_parity(ray_session, tmp_path, monkeypatch, make_case):
    """One task (nbuckets=1, no actor) and the actor fleet (nbuckets=4)
    give the same focus typing and the same report multiset."""
    from shaclex_ray.validate import dist

    dv = dist.distributed_validate
    run = make_case(tmp_path)
    results = {}
    for nb in (4, 1):
        for attr in ("last_nbuckets", "last_stats", "last_dep_state"):
            dv.__dict__.pop(attr, None)
        idle = list(dist._POOL._idle)
        with monkeypatch.context() as m:
            if nb == 1:
                m.setattr(dist, "BucketWorker", _NoActors())
            typing, report = run(dv, nb)
        if nb == 1:
            # the fleet's call left actors idle; one task never takes one
            assert idle and _same_handles(dist._POOL._idle, idle)
        assert dv.last_nbuckets == nb
        assert set(dv.last_dep_state) == {"need_by", "answered_vals", "forwarded"}
        if make_case is _kg_case:
            assert set(dv.last_stats) >= {"violations", "conforms"}
            assert dv.last_stats["violations"] == report.num_rows
        results[nb] = (_focus_typing(typing), _rows(report, REPORT_COLS))
        # every pair is decided; the ring closes coinductively
        assert results[nb][0], "no focus typing"
        assert "unknown" not in {val for _n, _s, val in results[nb][0]}
    assert results[1] == results[4]


def _hygiene_input():
    from shaclex_ray.rdfio import parse_turtle
    from shaclex_ray.shapes.shacl import compile_shacl
    from shaclex_ray.terms import triples_to_table

    triples = parse_turtle(_TARGETS_TTL)
    return compile_shacl(triples), triples_to_table(triples)


@pytest.mark.parametrize("fail", [False, True], ids=["ok", "raises"])
def test_single_bucket_runner_restores_worker(tmp_path, monkeypatch, fail):
    """The in-process runner unfreezes the GC that ``load`` froze and
    removes its spill directory, also when a bucket method raises."""
    from shaclex_ray.validate import dist

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    seen = []
    run_round = dist._Bucket.run_round

    def watched_round(self):
        seen.append((gc.get_freeze_count(), self._spill_dir))
        if fail:
            raise RuntimeError("bucket failure")
        return run_round(self)

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
    # while it ran, load() had frozen the GC and the spill dir was here
    frozen, spill_dir = seen[0]
    assert frozen > 0 and spill_dir.startswith(str(tmp_path))
    assert gc.get_freeze_count() == 0
    assert not list(tmp_path.glob("shaclex-b0-*"))


# ------------------------------------------------------------ actor pool


def _same_handles(a: list, b: list) -> bool:
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


class _CountingWorker:
    """Wraps BucketWorker and counts actor spawns."""

    def __init__(self, real):
        self.real, self.spawned = real, 0

    def remote(self, *a, **k):
        self.spawned += 1
        return self.real.remote(*a, **k)


@pytest.fixture
def pool(ray_session, monkeypatch):
    """A fresh, empty actor pool for the test, a spawn counter, and a log
    of every checkout's handles; the pool's actors are killed after."""
    import ray

    from shaclex_ray.validate import dist

    fresh = dist._ActorPool()
    counter = _CountingWorker(dist.BucketWorker)
    checkouts = []
    checkout = fresh.checkout

    def logged(n):
        workers = checkout(n)
        checkouts.append(list(workers))
        return workers

    monkeypatch.setattr(fresh, "checkout", logged)
    monkeypatch.setattr(dist, "_POOL", fresh)
    monkeypatch.setattr(dist, "BucketWorker", counter)
    yield fresh, counter, checkouts
    for w in fresh._idle:
        ray.kill(w)


def _fleet_rows(out) -> tuple:
    typing, report = out
    return (
        _rows(typing, ["node", "shape", "val", "is_focus"]),
        _rows(report, REPORT_COLS),
    )


def _spill_dirs() -> set:
    return set(glob.glob(os.path.join(tempfile.gettempdir(), "shaclex-b*")))


def _fresh_fleet(tmp_path, make_case, nb=4):
    """The case's fleet output from a pool of its own (all spawned)."""
    import ray

    from shaclex_ray.validate import dist

    own = dist._ActorPool()
    real = dist._POOL
    dist._POOL = own
    try:
        out = _fleet_rows(make_case(tmp_path)(dist.distributed_validate, nb))
    finally:
        dist._POOL = real
        for w in own._idle:
            ray.kill(w)
    return out


def test_pool_reuses_actors_across_calls(pool, tmp_path):
    """Back-to-back fleet calls with different engines and schemas: the
    later calls spawn nothing and match a fresh fleet's output."""
    from shaclex_ray.validate import dist

    fresh, counter, _ = pool
    dv = dist.distributed_validate
    kg_first = _fleet_rows(_kg_case(tmp_path)(dv, 4))
    assert counter.spawned == 4
    cycle_warm = _fleet_rows(_cycle_case(tmp_path)(dv, 4))
    kg_warm = _fleet_rows(_kg_case(tmp_path)(dv, 4))
    assert counter.spawned == 4, "a warm call spawned an actor"
    assert len(fresh._idle) == 4
    assert kg_warm == kg_first
    assert cycle_warm == _fresh_fleet(tmp_path, _cycle_case)


def test_idle_pooled_actor_holds_no_state(pool, tmp_path):
    """Checked in after a call, an actor keeps no bucket state, no frozen
    GC generation and no spill dir."""
    import ray

    from shaclex_ray.validate import dist

    fresh, _, _ = pool
    before = _spill_dirs()
    _kg_case(tmp_path)(dist.distributed_validate, 4)
    assert len(fresh._idle) == 4
    for w in fresh._idle:
        state, frozen = ray.get(
            w.__ray_call__.remote(lambda self: (vars(self), gc.get_freeze_count()))
        )
        assert state == {} and frozen == 0
    assert _spill_dirs() <= before


def test_failed_fleet_call_releases_and_kills(pool, tmp_path):
    """A fleet call that raises (its output dir is a regular file) leaves
    no spill dir behind and returns none of its actors to the pool; the
    next call spawns afresh and matches a fresh fleet."""
    from shaclex_ray.validate import dist

    fresh, counter, checkouts = pool
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    run = _cycle_case(tmp_path)

    def into_file(*args, **kw):
        return dist.distributed_validate(*args, output_dir=str(not_a_dir), **kw)

    before = _spill_dirs()
    with pytest.raises(NotADirectoryError):
        run(into_file, 2)
    assert _spill_dirs() <= before
    assert fresh._idle == [] and counter.spawned == 2
    failed = checkouts[-1]
    out = _fleet_rows(run(dist.distributed_validate, 2))
    assert counter.spawned == 4
    assert not any(w is f for w in fresh._idle for f in failed)
    assert out == _fresh_fleet(tmp_path, _cycle_case, nb=2)


def test_pool_recovers_from_a_dead_actor(pool, tmp_path):
    """An idle actor killed between calls is replaced: the next call
    succeeds with the same output, and the dead handle never returns to
    the pool."""
    import ray

    from shaclex_ray.validate import dist

    fresh, counter, _ = pool
    run = _cycle_case(tmp_path)
    first = _fleet_rows(run(dist.distributed_validate, 4))
    victim = fresh._idle[1]
    ray.kill(victim)
    with pytest.raises(ray.exceptions.RayActorError):
        ray.get(victim.__ray_call__.remote(lambda self: None))
    assert _fleet_rows(run(dist.distributed_validate, 4)) == first
    assert counter.spawned == 5
    assert len(fresh._idle) == 4
    assert not any(w is victim for w in fresh._idle)


def test_pool_dropped_on_session_change(pool, tmp_path):
    """After ray.shutdown() and ray.init() in the same driver the pool
    hands out no actor of the old session, and the call validates as a
    fresh fleet does."""
    import ray

    from shaclex_ray.validate import dist
    from tests.conftest import RAY_INIT_KWARGS

    fresh, counter, checkouts = pool
    first = _fleet_rows(_cycle_case(tmp_path)(dist.distributed_validate, 4))
    old = list(fresh._idle)
    assert len(old) == 4
    ray.shutdown()
    ray.init(**RAY_INIT_KWARGS)
    # the case's Dataset lives in the session's object store: rebuild it
    out = _fleet_rows(_cycle_case(tmp_path)(dist.distributed_validate, 4))
    assert counter.spawned == 8
    assert not any(w is o for w in checkouts[-1] for o in old)
    assert not any(w is o for w in fresh._idle for o in old)
    assert out == first


def test_pool_checkout_is_exclusive_under_threads(ray_session, monkeypatch):
    """Many threads checking actors out and in at once never share one,
    and the idle set stays within the CPU cap."""
    import random
    import sys
    import threading
    import time

    import ray

    from shaclex_ray.validate import dist

    class _Token:
        def remote(self):
            return object()

    fresh = dist._ActorPool()
    monkeypatch.setattr(dist, "BucketWorker", _Token())
    monkeypatch.setattr(dist.ray, "kill", lambda _w: None)
    cap = int(ray.cluster_resources()["CPU"])
    held: set = set()
    held_lock = threading.Lock()
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(100):
            workers = fresh.checkout(rng.randint(1, cap))
            with held_lock:
                if any(id(w) in held for w in workers):
                    errors.append("an actor was checked out twice")
                held.update(id(w) for w in workers)
            time.sleep(0)  # hold them while other threads check out
            with held_lock:
                held.difference_update(id(w) for w in workers)
            fresh.checkin(workers)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(fresh._idle) <= cap
    assert len({id(w) for w in fresh._idle}) == len(fresh._idle)
