"""Distributed shape validation: a semi-naive BSP fixpoint on Ray.

Ray-native re-expression of the reference's recursive neighborhood-closure
validation (SURVEY.md §2.9; worklist semantics per weso/shaclex
modules/slang/src/main/scala/es/weso/slang/ValidateND.scala:44-122):

  * ONE explicit hash shuffle routes every triple to the bucket of its
    subject (plus, optionally, a reversed copy to its object's bucket for
    incoming arcs), so each focus node's neighborhood is co-located (J3)
  * each bucket is a ``_Bucket`` whose state lasts across the fixpoint
    rounds (SURVEY.md A2: partitioned state reused across rounds). It
    reads its arcs once into a graph that does not change after loading,
    kept columnar, with
    dictionary codes for their subjects (``LazyBucketGraph``), and
    evaluates (node, shape) pairs with the in-memory,
    conformance-verified validator semantics
  * the focus pairs resolve in the buckets, by one rule: SHACL target
    declarations compile to the same patterns as ShEx shapemap selectors
    (``{FOCUS p o}`` / ``{s p FOCUS}``), matched on exact term keys
    against each bucket's arcs (``_Bucket.derive_focus``). Subject-side
    pairs enqueue where they live; only object-side and concrete pairs
    cross the driver
  * pairs of a flat shape (SHACL pred-path property shapes, the ShEx
    counting decomposition) stay Arrow/numpy from focus resolution to
    the shard: a columnar worklist per shape (``_FlatPairs``), one
    kernel call per shape and round (``flat_eval_kernel``), verdicts and
    report rows as columns, and a blocked pair's partial kept as arrays
    and merged with its answers in one vectorized step
    (``flat_resume``). No per-node index is built for them
  * every other pair walks the per-focus Python path over the per-node
    sorted index (``_ArcIndex``), built on its first lookup (in a fleet,
    at load: ``_load_bucket``)
  * a pair whose evaluation needs the conformance of a *remote* node
    (value-shape recursion J5 / sh:class of a value node) reports a
    dependency; the child's decided conformance is routed back as an
    assumption the next round (the typing-join G9). Per-round traffic is
    only tasks + assumptions — the arc data is partitioned once
  * rounds repeat until no pair flips; unresolved cross-bucket cycles then
    close coinductively (assume conforms — the greatest-fixpoint reading,
    ValidateND.scala:51-54)

One driver loop (``_bsp``, written against a call/get pair), two ways
to run it, chosen in ``distributed_validate`` from ``nbuckets``:

  * ``nbuckets > 1``: plain Ray tasks over the object store, fed by the
    one hash exchange's split tasks (``stages/exchange.split``). One load
    task per bucket returns the bucket's finalized graph and its call
    state (the worklists, without the graph) as separate objects; every
    later call on the bucket — ``derive_focus``, one ``run_round`` per
    round, ``finish`` — is one task of (graph, state, method, args) that
    returns the next state and the method's result. The state chain
    orders a bucket's calls, and a call is a pure function of its
    inputs, so Ray's task retry covers a lost worker
  * ``nbuckets == 1``: the whole fixpoint — file read, split, load, focus
    derivation, rounds, cycle-break, output — runs as ONE Ray task that
    calls its ``_Bucket`` in-process: no state crosses the object store

Driver-side state is O(|focus pairs| + |distinct dependencies|); arcs (the
100-TB side) are partitioned once and live in the buckets' graphs (sized
via ``nbuckets`` so a bucket fits a worker's heap; a fleet's graphs live
in the object store, which spills under pressure).

Supported distributed: full ShEx semantics (reversed arc copies are
enabled automatically when the schema has inverse constraints); SHACL
core including multi-hop property paths — sequence / alternative /
zeroOrMore / oneOrMore / zeroOrOne expand as locality-aware BFS whose
elementary hops on remote nodes are answered through the dependency
protocol (one unanswered-hop layer per round); inverse of a complex path
rewrites to reversed elementary hops (invert_path — inversion distributes
over every path constructor), so no construct needs a global node scan.
"""

from __future__ import annotations

import json
import re
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
import polars as _pl
import pyarrow as pa
import pyarrow.compute as pc

import ray

from shaclex_ray.stages import exchange
from shaclex_ray.stages.exchange import partition
from shaclex_ray.state.checkpoint import ensure_parquet_schema
from shaclex_ray.terms import (
    REPORT_SCHEMA,
    RDF_TYPE,
    TYPING_SCHEMA,
    key_to_term,
    term_key,
)
from shaclex_ray.validate.local import Graph, ShExValidator
from shaclex_ray.validate.nodecheck import check_node_constraint, compile_pattern
from shaclex_ray.validate.shacl_local import (
    RDFS_SUBCLASS,
    ShaclValidator,
    _component as _component_iri,
)

# ---------------------------------------------------------------------------
# stable bucketing: polars' vectorized string hash (fixed seed — stable
# across processes sharing one library build, which a cluster does; see
# the cross-process pin in tests). Bucket assignment is internal routing,
# never observable in validation output. polars is a hard dependency: a
# process hashing any other way would route arcs to other buckets than
# its peers, without any error.


def stable_bucket_array(strings, nbuckets: int) -> np.ndarray:
    """Deterministic bucket per string. Accepts a list, numpy object
    array, or a pyarrow (Chunked)Array — Arrow input hashes zero-copy."""
    if isinstance(strings, pa.ChunkedArray):
        strings = strings.combine_chunks()
    arr = strings if isinstance(strings, pa.Array) else pa.array(strings, pa.string())
    if len(arr) == 0:
        return np.zeros(0, dtype=np.int64)
    h = _pl.from_arrow(arr).hash(seed=0).to_numpy().astype(np.uint64)
    return (h % np.uint64(nbuckets)).astype(np.int64)


def stable_bucket(s: str, nbuckets: int) -> int:
    return int(stable_bucket_array([s], nbuckets)[0])


def node_key_bucket(nk: str, nbuckets: int) -> int:
    """Bucket of a term-key node. Literals evaluate anywhere (they are
    never subjects); route them by their own key for determinism."""
    if nk.startswith("I"):
        return stable_bucket(nk[1:], nbuckets)
    if nk.startswith("B"):
        return stable_bucket("_:" + nk[1:], nbuckets)
    return stable_bucket(nk, nbuckets)


def node_key_bucket_array(keys, nbuckets: int) -> np.ndarray:
    """``node_key_bucket`` of many term keys (a list or an Arrow array)
    in one vectorized hash: an IRI key hashes without its 'I', a blank
    node as '_:' + its label, a literal as its whole key."""
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    elif not isinstance(keys, pa.Array):
        keys = pa.array(keys, pa.string())
    body = pc.utf8_replace_slice(keys, 0, 1, "")
    home = pc.if_else(
        pc.starts_with(keys, "B"),
        pc.binary_join_element_wise("_:", body, ""),
        pc.if_else(pc.starts_with(keys, "L"), keys, body),
    )
    return stable_bucket_array(home, nbuckets)


class _LocalKeys:
    """Whether a node key's home is bucket ``me``, memoized for one round
    (``_Bucket.run_round``): value nodes repeat across focus pairs, and a
    scalar ``node_key_bucket`` costs ~50 µs. ``fill`` answers many keys
    in one ``node_key_bucket_array`` call. Literals have no outgoing
    arcs, so without inverse constraints (``lit_local``) any bucket
    evaluates them (term-local fast path); WITH inverse constraints a
    literal focus must run in its home bucket, where its reversed copies
    live."""

    def __init__(self, nbuckets: int, me: int, lit_local: bool):
        self.nbuckets, self.me, self.lit_local = nbuckets, me, lit_local
        self.memo: dict[str, bool] = {}

    def _anywhere(self, nk: str) -> bool:
        return self.lit_local and nk.startswith("L")

    def __call__(self, nk: str) -> bool:
        v = self.memo.get(nk)
        if v is None:
            v = self.memo[nk] = (
                self._anywhere(nk)
                or node_key_bucket(nk, self.nbuckets) == self.me
            )
        return v

    def fill(self, keys) -> None:
        new = [k for k in keys if k not in self.memo and not self._anywhere(k)]
        if new:
            home = node_key_bucket_array(new, self.nbuckets) == self.me
            self.memo.update(zip(new, home.tolist()))


# ---------------------------------------------------------------------------
# inline-shape registry (deterministic walk → same keys on driver & workers)

def register_inline_shapes(schema: dict) -> dict:
    """Assign stable keys to anonymous nested Shape exprs of a ShEx schema."""
    inline: dict[str, dict] = {}
    counter = [0]

    def walk_se(se):
        if not isinstance(se, dict):
            return
        t = se.get("type")
        if t == "Shape" and "id" not in se:
            key = f"inline:{counter[0]}"
            counter[0] += 1
            inline[key] = se
            se["_dist_key"] = key
        for k in ("shapeExprs",):
            for sub in se.get(k, []) or []:
                walk_se(sub)
        if isinstance(se.get("shapeExpr"), dict):
            walk_se(se["shapeExpr"])
        if isinstance(se.get("expression"), dict):
            walk_te(se["expression"])

    def walk_te(te):
        if not isinstance(te, dict):
            return
        for sub in te.get("expressions", []) or []:
            walk_te(sub)
        if isinstance(te.get("valueExpr"), dict):
            walk_se(te["valueExpr"])

    for lbl in sorted(schema.get("shapes", {})):
        walk_se(schema["shapes"][lbl])
    if isinstance(schema.get("start"), dict):
        walk_se(schema["start"])
    schema["inline"] = inline
    return schema


def schema_has_inverse(engine: str, schema: dict) -> bool:
    """Does the schema contain any inverse constraint (ShEx ^p TCs or
    SHACL inverse paths)? Determines whether reversed arc copies and
    literal home-bucketing are needed."""
    if engine == "shex":
        found = [False]

        def walk_se(se):
            if found[0] or not isinstance(se, dict):
                return
            for sub in se.get("shapeExprs", []) or []:
                walk_se(sub)
            if isinstance(se.get("shapeExpr"), (dict, str)):
                walk_se(se["shapeExpr"]) if isinstance(se["shapeExpr"], dict) else None
            if se.get("expression") is not None:
                walk_te(se["expression"])

        def walk_te(te):
            if found[0] or not isinstance(te, dict):
                return
            if te.get("type") == "TripleConstraint" and te.get("inverse"):
                found[0] = True
                return
            for sub in te.get("expressions", []) or []:
                walk_te(sub)
            if isinstance(te.get("valueExpr"), dict):
                walk_se(te["valueExpr"])

        for se in schema.get("shapes", {}).values():
            walk_se(se)
        for te in schema.get("te_refs", {}).values():
            walk_te(te)
        if isinstance(schema.get("start"), dict):
            walk_se(schema["start"])
        return found[0]

    def path_has_inverse(path) -> bool:
        if not isinstance(path, dict):
            return False
        if "inverse" in path:
            return True
        for k in ("seq", "alt"):
            if k in path and any(path_has_inverse(p) for p in path[k]):
                return True
        for k in ("zeroOrMore", "oneOrMore", "zeroOrOne"):
            if k in path and path_has_inverse(path[k]):
                return True
        return False

    for sh in schema.get("shapes", {}).values():
        if sh and path_has_inverse(sh.get("path")):
            return True
    return False


class _NeedRemote(Exception):
    pass


def _needs_neighborhood(se, schema, _seen=None) -> bool:
    """Does evaluating this shapeExpr require the focus node's arcs?
    Pure node-constraint combinations are term-local and can run in any
    bucket; only exprs containing a Shape need co-location."""
    seen = _seen if _seen is not None else set()
    if isinstance(se, str):
        if se in seen:
            return False
        seen.add(se)
        target = schema["shapes"].get(se)
        return _needs_neighborhood(target, schema, seen) if target is not None else False
    if not isinstance(se, dict):
        return False
    t = se.get("type")
    if t in ("Shape", "ShapeExternal"):
        return True
    if t == "ShapeNot":
        return _needs_neighborhood(se["shapeExpr"], schema, seen)
    if t in ("ShapeAnd", "ShapeOr"):
        return any(_needs_neighborhood(s, schema, seen) for s in se["shapeExprs"])
    if t == "ShapeDecl":
        return _needs_neighborhood(se["shapeExpr"], schema, seen)
    return False


class _DistShEx(ShExValidator):
    """Bucket-local ShEx evaluator with cross-bucket dependency capture."""

    def __init__(self, schema, graph, assumptions, is_local, record_dep):
        super().__init__(schema, graph)
        self.assumptions = assumptions
        self.is_local = is_local
        self.record_dep = record_dep
        self.provisional = False

    def satisfies_label(self, node, label):
        nk = term_key(node)
        a = self.assumptions.get((nk, label))
        if a is not None:
            return a
        se = self.schema["shapes"].get(label)
        if se is not None and not _needs_neighborhood(se, self.schema):
            return super().satisfies_label(node, label)  # term-local
        if not self.is_local(node):
            self.record_dep(nk, label)
            self.provisional = True
            return True  # coinductive guess until the child's bucket answers
        return super().satisfies_label(node, label)

    def satisfies(self, node, se):
        if isinstance(se, dict) and se.get("type") == "Shape" and not self.is_local(node):
            key = se.get("_dist_key") or se.get("id")
            nk = term_key(node)
            a = self.assumptions.get((nk, key)) if key else None
            if a is not None:
                return a
            if key is None:
                raise _NeedRemote(f"unregistered inline shape for remote node {nk}")
            self.record_dep(nk, key)
            self.provisional = True
            return True
        return super().satisfies(node, se)


_REMOTE_NC_COMPONENT = "__remote_nonconform__"


def _remote_placeholder(focus_key: str, shape_key: str) -> dict:
    """Placeholder result for a remote nested property-shape violation:
    counts toward the parent's non-conformance but is filtered from the
    report table (the value node's home bucket reports the real rows)."""
    return {
        "focus": focus_key,
        "path": None,
        "value": None,
        "component": _REMOTE_NC_COMPONENT,
        "severity": "",
        "source": shape_key,
        "message": "",
    }


class _DistShacl(ShaclValidator):
    """Bucket-local SHACL evaluator with cross-bucket dependency capture.

    Three dependency kinds travel between buckets:
      * plain (node, shape)    — conformance probe (sh:node/not/and/...),
                                 answered with a boolean, never reported
      * (node, 'vshape:S')     — nested property-shape validation in REPORT
                                 context: the home bucket validates fully
                                 and reports its own rows; the answer back
                                 is just the boolean
      * (node, 'hop:dir:pred') — one elementary path hop: answered with
                                 the VALUE-KEY LIST of the node's local
                                 neighborhood, which lets sequence /
                                 alternative / closure paths expand as a
                                 bounded iterative BFS across rounds
      * (node, 'class:C')      — rdf:type membership probe
    """

    def __init__(
        self, schema, graph, assumptions, is_local_key, record_dep, reporting=False
    ):
        super().__init__(schema, graph)
        self.assumptions = assumptions
        self.is_local_key = is_local_key
        self.record_dep = record_dep
        self.provisional = False
        self.reporting = reporting
        self._subclass_closure = schema.get("subclass_closure", {})

    def conforms(self, focus_key, shape_key):
        a = self.assumptions.get((focus_key, shape_key))
        if a is not None:
            return a
        if not self.is_local_key(focus_key):
            self.record_dep(focus_key, shape_key)
            self.provisional = True
            return True
        return super().conforms(focus_key, shape_key)

    def validate_shape(self, focus_key, shape_key):
        if not self.is_local_key(focus_key):
            if not self.reporting:
                # probe context: only the boolean matters
                ok = self.conforms(focus_key, shape_key)
                return [] if ok else [_remote_placeholder(focus_key, shape_key)]
            pseudo = "vshape:" + shape_key
            a = self.assumptions.get((focus_key, pseudo))
            if isinstance(a, list):
                # the child's report rows, one copy per requesting parent
                return [dict(r) for r in a]
            if a is True:  # cycle-break default: assumed conforming
                return []
            self.record_dep(focus_key, pseudo)
            self.provisional = True
            return []
        return super().validate_shape(focus_key, shape_key)

    def _subclasses(self, cls_key):
        return set(self._subclass_closure.get(cls_key, [cls_key]))

    def _is_instance(self, node_key, cls_key):
        pseudo = "class:" + cls_key
        a = self.assumptions.get((node_key, pseudo))
        if a is not None:
            return a
        if not self.is_local_key(node_key):
            self.record_dep(node_key, pseudo)
            self.provisional = True
            return False
        return super()._is_instance(node_key, cls_key)

    # ---- property paths: elementary hops are locality-aware; the parent
    # class's seq/alt/zeroOrMore/oneOrMore/zeroOrOne machinery recurses
    # through self.path_values, so closures expand across buckets as a
    # bounded iterative BFS (one unanswered-hop layer per fixpoint round)
    def _hop(self, node_key: str, pred: str, inverse: bool) -> list[str]:
        if self.is_local_key(node_key):
            if inverse:
                return [
                    term_key(s) for p, s in self.graph.arcs_in(node_key) if p == pred
                ]
            return [term_key(o) for p, o in self.graph.arcs_out(node_key) if p == pred]
        hk = ("hop:inv:" if inverse else "hop:fwd:") + pred
        a = self.assumptions.get((node_key, hk))
        if a is not None:
            return list(a)
        self.record_dep(node_key, hk)
        self.provisional = True
        return []

    def path_values(self, focus_key, path):
        if "pred" in path:
            return self._hop(focus_key, path["pred"], False)
        if "inverse" in path and "pred" in path["inverse"]:
            return self._hop(focus_key, path["inverse"]["pred"], True)
        if "inverse" in path:
            # inversion distributes over every path constructor
            # (invert_path): evaluate forward over elementary inverse
            # hops, which the BFS dependency protocol expands across
            # buckets like any other hop
            from shaclex_ray.validate.shacl_local import invert_path

            return self.path_values(focus_key, invert_path(path["inverse"]))
        return super().path_values(focus_key, path)


# ---------------------------------------------------------------------------
# the one-time shuffle: split triple blocks into per-bucket sub-tables

ARC_COLS = ["subj", "pred", "obj_kind", "obj_lex", "obj_dt", "obj_lang"]
ARC_SCHEMA = pa.schema([(c, pa.string()) for c in ARC_COLS])


def _route_arcs(base: pa.Table, nbuckets: int, include_inverse: bool):
    """Split kernel of the one-time shuffle (``stages/exchange.py``):
    triples -> nbuckets arc sub-tables. Each sub-table carries a 'rev'
    column: false = outgoing arc stored at its subject's bucket, true =
    reversed copy stored at its (IRI/bnode) object's bucket. One bucket
    takes every arc: nothing is hashed or rendered."""
    base = base.combine_chunks()
    n = base.num_rows
    fwd = base.append_column("rev", pa.array(np.zeros(n, dtype=bool)))
    if nbuckets == 1:
        if not include_inverse:
            return (fwd,)
        rev = base.append_column("rev", pa.array(np.ones(n, dtype=bool)))
        return (pa.concat_tables([fwd, rev]),)
    fwd_parts = partition(
        fwd, stable_bucket_array(base.column("subj"), nbuckets), nbuckets
    )
    if not include_inverse:
        return fwd_parts
    # reversed copies co-locate incoming arcs with their object node —
    # including literal objects (a literal focus with an inverse constraint
    # must see its arcs_in; bucketing matches node_key_bucket's 'L' branch)
    rev = base
    okind = rev.column("obj_kind").combine_chunks()
    olex = rev.column("obj_lex").combine_chunks()
    odt = rev.column("obj_dt").combine_chunks()
    olang = rev.column("obj_lang").combine_chunks()
    from shaclex_ray.terms import SEP as _SEP

    # vectorized node-key render (the exchange's per-arc work must be C
    # kernels, not a Python comprehension): bnode → "_:"+lex, iri → lex,
    # literal → "L"+lex+SEP+dt+SEP+lang — byte-identical to the scalar
    # node_key() so bucketing matches node_key_bucket's branches
    lit = pc.binary_join_element_wise(
        pc.binary_join_element_wise("L", olex, ""), odt, olang, _SEP
    )
    ostr = pc.if_else(
        pc.equal(okind, "bnode"),
        pc.binary_join_element_wise("_:", olex, ""),
        pc.if_else(pc.equal(okind, "iri"), olex, lit),
    )
    rev = rev.append_column("rev", pa.array(np.ones(rev.num_rows, dtype=bool)))
    rev_parts = partition(rev, stable_bucket_array(ostr, nbuckets), nbuckets)
    return [pa.concat_tables([f, r]) for f, r in zip(fwd_parts, rev_parts)]


class _ArcIndex:
    """Per-node arc index over one direction's arcs: rows sorted by their
    node code (one stable int argsort), group boundaries from
    ``searchsorted``, and a key → code dict with one Python string per
    DISTINCT node. Python tuples materialize only for the slice of an
    evaluated node. Above ``spill_rows`` the sorted table spills to an
    Arrow IPC file and reopens memory-mapped, so an oversized bucket pages
    through the OS cache instead of dying on worker heap."""

    def __init__(self, tbl: pa.Table, codes: np.ndarray, keys: pa.Array,
                 spill_path: str | None, spill_rows: int):
        order = np.argsort(codes, kind="stable")
        self._tbl = tbl.take(pa.array(order)).combine_chunks()
        self._starts = np.searchsorted(codes[order], np.arange(len(keys) + 1))
        self._code = {k: i for i, k in enumerate(keys.to_pylist())}
        if spill_path is not None and self._tbl.num_rows > spill_rows:
            self._tbl = _spill(self._tbl, spill_path)

    def keys(self):
        return self._code.keys()

    def slice_of(self, key: str) -> pa.Table | None:
        i = self._code.get(key)
        if i is None:
            return None
        s, e = int(self._starts[i]), int(self._starts[i + 1])
        return self._tbl.slice(s, e - s)


def _spill(tbl: pa.Table, path: str) -> pa.Table:
    """``tbl`` written to an uncompressed IPC file at ``path`` and read
    back as a zero-copy memory-mapped view."""
    import pyarrow.feather as _feather

    _feather.write_feather(tbl, path, compression="uncompressed")
    return pa.ipc.open_file(pa.memory_map(path)).read_all()


def _np(arr) -> np.ndarray:
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    return arr.to_numpy(zero_copy_only=False)


# a bucket whose forward arc table (or a per-node index) exceeds this many
# rows spills it to disk and reopens it memory-mapped (``spill_rows``
# overrides per call)
BUCKET_SPILL_ROWS = 4_000_000

_EMPTY_ARCS = pa.schema(list(ARC_SCHEMA) + [("rev", pa.bool_())]).empty_table()


class LazyBucketGraph:
    """Bucket-local arcs, Arrow-native end-to-end.

    ``finalize`` keeps the forward arcs as one columnar table in input
    order (``arcs``) and dictionary-encodes their raw subjects in place
    of a subject column: ``codes`` is each arc's subject code, ``nodes``
    the code → term key ('I…'/'B…') column, rendered once per distinct
    subject. The flat kernel works on
    these directly, gathering an entry's arcs by predicate
    (``pred_rows``) and code (``positions``). The per-node sorted index
    (``_ArcIndex``) is built only when something first asks for one node's
    arcs (``arcs_out``/``arcs_in``: the per-focus path, a non-flat probe);
    its Python term tuples build per evaluated node and are cached with a
    size cap (the eager build was a 5-10× memory blowup)."""

    CACHE_CAP = 500_000  # cached nodes per direction before a coarse reset

    def __init__(self, spill_dir: str | None = None, spill_rows: int | None = None):
        self._parts: list[pa.Table] = []
        self._finalized = False
        self._spill_dir = spill_dir
        self._spill_rows = spill_rows or BUCKET_SPILL_ROWS

    def add_part(self, tbl: pa.Table):
        self._parts.append(tbl)

    def _spill_path(self, tag: str) -> str | None:
        if self._spill_dir is None:
            return None
        import os as _os

        _os.makedirs(self._spill_dir, exist_ok=True)
        return _os.path.join(self._spill_dir, f"{tag}.arrow")

    def finalize(self):
        if self._finalized:
            return
        self._finalized = True
        t = pa.concat_tables(self._parts or [_EMPTY_ARCS]).combine_chunks()
        self._parts = None
        rev_mask = t.column("rev")
        if not pc.sum(rev_mask).as_py():
            fwd, rev = t, t.slice(0, 0)
        else:
            fwd = t.filter(pc.invert(rev_mask))
            rev = t.filter(rev_mask)
        fwd = fwd.select(ARC_COLS)
        if fwd.num_rows > self._spill_rows and self._spill_dir is not None:
            fwd = _spill(fwd, self._spill_path("fwd"))
        dic = pc.dictionary_encode(fwd.column("subj").combine_chunks())
        self.arcs = fwd.select(ARC_COLS[1:])  # the subjects live on as codes
        self.codes = _np(dic.indices)
        self.nodes = _subj_key_col(dic.dictionary)
        self._rev_arcs = rev.select(ARC_COLS)
        pdic = pc.dictionary_encode(fwd.column("pred").combine_chunks())
        self._preds = {p: i for i, p in enumerate(pdic.dictionary.to_pylist())}
        self._pred_codes = _np(pdic.indices)
        self._pred_rows: dict[str, np.ndarray] = {}
        self._fwd_index = self._rev_index = None
        self._out_cache: dict[str, list] = {}
        self._in_cache: dict[str, list] = {}

    def pred_rows(self, pred: str) -> np.ndarray:
        """Indices into ``arcs`` of the arcs with predicate ``pred``."""
        got = self._pred_rows.get(pred)
        if got is None:
            got = self._pred_rows[pred] = np.flatnonzero(
                self._pred_codes == self._preds.get(pred, -1)
            )
        return got

    def positions(self, keys: pa.Array) -> np.ndarray:
        """Subject code → the node's position in ``keys`` (distinct term
        keys), -1 for a subject not among them."""
        codes = _np(pc.fill_null(pc.index_in(keys, value_set=self.nodes), -1))
        pos = np.full(len(self.nodes), -1, dtype=np.int64)
        have = codes >= 0
        pos[codes[have]] = np.flatnonzero(have)
        return pos

    def keys_at(self, rows: np.ndarray) -> pa.Array:
        """The subject term keys of the arcs at ``rows``."""
        return self.nodes.take(pa.array(self.codes[rows]))

    def obj_keys_at(self, rows: np.ndarray) -> pa.Array:
        """The object term keys of the arcs at ``rows``."""
        return _obj_key_col(self.arcs.select(ARC_COLS[2:]).take(pa.array(rows)))

    @property
    def _fwd(self) -> _ArcIndex:
        if self._fwd_index is None:
            self._fwd_index = _ArcIndex(
                self.arcs, self.codes, self.nodes,
                self._spill_path("fwd-index"), self._spill_rows,
            )
        return self._fwd_index

    @property
    def _rev(self) -> _ArcIndex:
        if self._rev_index is None:
            rev = self._rev_arcs
            dic = pc.dictionary_encode(_obj_key_col(rev))
            self._rev_index = _ArcIndex(
                rev.select(["subj", "pred"]), _np(dic.indices), dic.dictionary,
                self._spill_path("rev"), self._spill_rows,
            )
        return self._rev_index

    def arcs_out(self, key: str) -> list:
        got = self._out_cache.get(key)
        if got is None:
            sub = self._fwd.slice_of(key)
            if sub is None:
                got = []
            else:
                d = sub.to_pydict()
                got = []
                for p, k, lx, dt, lg in zip(
                    d["pred"], d["obj_kind"], d["obj_lex"], d["obj_dt"], d["obj_lang"]
                ):
                    if k == "iri":
                        o = ("iri", lx)
                    elif k == "bnode":
                        o = ("bnode", lx)
                    else:
                        o = ("lit", lx, dt, lg)
                    got.append((p, o))
            if len(self._out_cache) >= self.CACHE_CAP:
                self._out_cache.clear()  # coarse reset keeps memory bounded
            self._out_cache[key] = got
        return got

    def arcs_in(self, key: str) -> list:
        got = self._in_cache.get(key)
        if got is None:
            sub = self._rev.slice_of(key)
            if sub is None:
                got = []
            else:
                d = sub.to_pydict()
                got = []
                for s, p in zip(d["subj"], d["pred"]):
                    sterm = ("bnode", s[2:]) if s.startswith("_:") else ("iri", s)
                    got.append((p, sterm))
            if len(self._in_cache) >= self.CACHE_CAP:
                self._in_cache.clear()
            self._in_cache[key] = got
        return got

    # attribute views used by the in-memory validators' helper paths
    @property
    def by_subj(self):
        return {k: self.arcs_out(k) for k in self._fwd.keys()}

    @property
    def by_obj(self):
        return {k: self.arcs_in(k) for k in self._rev.keys()}


# ---------------------------------------------------------------------------
# vectorized flat-shape fast path (SURVEY.md M8 at bucket granularity):
# SHACL shapes whose property shapes are pred-path + scalar components and
# the ShEx counting decomposition (C4) compile to ONE check list
# (``FlatShape``); one kernel evaluates it for ALL pending focus nodes of a
# shape at once with Arrow/numpy kernels into per-(focus, entry) partials,
# and each language's finalize rule turns a partial into a verdict and
# report rows, all as columns (``PosRows``). A pair blocked on a
# cross-bucket probe keeps its partial as arrays and resumes from it in
# one vectorized merge (``flat_resume``) — for both engines. The per-focus
# Python walk remains the semantics oracle and the fallback.

from shaclex_ray.terms import SEP as _TSEP
from shaclex_ray.terms import SH as _SH
from shaclex_ray.terms import XSD as _XSD

# datatypes whose lexical validity is vectorizable. ONLY xsd:string (any
# lexical form is valid) — numeric/boolean regexes differ subtly between
# Python re (unicode digits, '$' matches before a trailing newline) and
# Arrow's RE2, so those shapes take the per-focus Python path (SHACL) or
# the exact per-distinct scalar (ShEx) instead of risking a verdict
# divergence.
_VEC_DATATYPES = {_XSD + "string"}

_NODEKIND_ALLOWED = {
    _SH + "IRI": ("iri",),
    _SH + "BlankNode": ("bnode",),
    _SH + "Literal": ("literal",),
    _SH + "BlankNodeOrIRI": ("bnode", "iri"),
    _SH + "BlankNodeOrLiteral": ("bnode", "literal"),
    _SH + "IRIOrLiteral": ("iri", "literal"),
}

_SHEX_NODEKIND = {
    "iri": ("iri",),
    "bnode": ("bnode",),
    "literal": ("literal",),
    "nonliteral": ("bnode", "iri"),
}

_RANGE_KINDS = ("minInclusive", "minExclusive", "maxInclusive", "maxExclusive")


class FlatShape(NamedTuple):
    """A flat shape compiled for ``flat_eval_kernel``.

    ``entries`` is the check list, one dict per predicate constraint:
    ``pred``; ``checks``, value checks ``(op, param, component)`` (op one
    of nodeKind / datatype / in / minLength / maxLength / pattern /
    scalar; ``component`` the report component of a failing value, None
    for none); ``probes``, ``_Probe``s; the count bounds ``min`` and
    ``max`` (-1: unbounded), over the satisfying arcs when ``qualified``
    else over all arcs; SHACL entries also carry ``source``, ``severity``
    and ``message`` for their report rows. ``finalize(entries, node_keys,
    partial)`` is the language's rule from a ``FlatPartial`` to
    ``(conforms: bool[n], report rows as PosRows)``."""

    entries: list
    finalize: Callable


class _Probe(NamedTuple):
    """A value test whose answer may live in another bucket. ``shape`` is
    the dependency's shape key (``class:<C>`` or a ShEx label) under which
    assumptions answer it; ``component`` the report component of a False
    answer (None: no row); ``answer(value_key, graph, is_local_key,
    is_instance_fn)`` the bucket-local answer — True / False, or None when
    the value's home bucket must answer."""

    shape: str
    component: str | None
    answer: Callable
    routed: bool = False  # ``answer`` asks ``is_local_key`` of the value


def _class_answer(cls_key, vk, graph, is_local_key, is_instance_fn):
    """sh:class: a literal is a violation outright; a local node answers
    from its own rdf:type arcs; a remote one is a ``class:`` dependency."""
    if vk.startswith("L"):
        return False
    return is_instance_fn(vk, cls_key) if is_local_key(vk) else None


def _term_local_answer(schema, se, vk, graph, is_local_key, is_instance_fn):
    """A ShEx ref whose shape needs no neighborhood evaluates term-locally."""
    return ShExValidator(schema, graph).satisfies(key_to_term(vk), se)


def _home_answer(vk, graph, is_local_key, is_instance_fn):
    """A ShEx ref over a neighborhood is always a dependency — also for a
    local value, so the worklist evaluates (and types) it."""
    return None


def _node_constraint_ok(nc: dict, vk: str) -> bool:
    return check_node_constraint(key_to_term(vk), nc)


def _shacl_entries(psh: dict | None, pk: str) -> list | None:
    """One property shape's entries: one over its path's arcs, plus one
    per sh:hasValue (a qualified count of the arcs holding the value).
    None when the property shape is not vectorizable."""
    if (
        not psh
        or psh.get("deactivated")
        or psh.get("closed")
        or psh.get("properties")
        or not (psh.get("path") and set(psh["path"]) == {"pred"})
    ):
        return None
    meta = {
        "pred": psh["path"]["pred"],
        "source": pk,
        "severity": psh["severity"],
        "message": psh["messages"][0] if psh["messages"] else "",
    }
    entry = dict(meta, checks=[], probes=[], min=0, max=-1, qualified=False)
    entries = [entry]
    bounds: set = set()
    for kind, params in psh["components"]:
        component = _component_iri(kind[0].upper() + kind[1:])
        if kind in ("minCount", "maxCount"):
            if kind in bounds:  # the per-focus path reports each copy
                return None
            bounds.add(kind)
            entry["min" if kind == "minCount" else "max"] = params["n"]
        elif kind in ("minLength", "maxLength"):
            entry["checks"].append((kind, params["n"], component))
        elif kind == "datatype" and params["iri"] in _VEC_DATATYPES:
            entry["checks"].append((kind, params["iri"], component))
        elif kind == "nodeKind" and params["iri"] in _NODEKIND_ALLOWED:
            entry["checks"].append(
                (kind, _NODEKIND_ALLOWED[params["iri"]], component)
            )
        elif kind == "pattern":
            entry["checks"].append(
                (kind, (params["pattern"], params.get("flags", "")), component)
            )
        elif kind in _RANGE_KINDS:
            blex, bdt = params["value"]
            test = partial(_num_bound_ok, kind=kind, blex=blex, bdt=bdt)
            entry["checks"].append(("scalar", test, component))
        elif kind == "in":
            entry["checks"].append((kind, list(params["values"]), component))
        elif kind == "hasValue":
            entries.append(
                dict(meta, checks=[("in", [params["value"]], None)], probes=[],
                     min=1, max=-1, qualified=True)
            )
        elif kind == "class":
            entry["probes"].append(
                _Probe("class:" + params["cls"], component,
                       partial(_class_answer, params["cls"]), routed=True)
            )
        else:
            return None
    return entries


def flat_shacl_profile(schema: dict) -> dict[str, FlatShape]:
    """shape_key -> FlatShape for node shapes whose property shapes all
    vectorize (absent = use the per-focus Python path)."""
    out: dict[str, FlatShape] = {}
    for skey, sh in schema.get("shapes", {}).items():
        if not sh or sh.get("path") is not None:
            continue
        if sh.get("deactivated") or sh.get("closed") or sh.get("components"):
            continue
        entries = []
        for pk in sh.get("properties", []):
            got = _shacl_entries(schema["shapes"].get(pk), pk)
            if got is None:
                break
            entries += got
        else:
            out[skey] = FlatShape(entries, _shacl_finalize)
    return out


def _shacl_finalize(entries, node_keys, part):
    """SHACL: a count outside its entry's bounds is one more report row —
    sh:minCount / sh:maxCount count every arc, sh:hasValue the arcs
    holding the value — and a node conforms when it has no row."""
    keys = _as_keys(node_keys)
    rows = [part.rows.table]
    max_count = _component_iri("MaxCount")
    for i, e in enumerate(entries):
        n = part.sat[:, i] if e["qualified"] else part.arcs[:, i]
        low = _component_iri("HasValue" if e["qualified"] else "MinCount")
        rows.append(_row_table(e, keys, np.flatnonzero(n < e["min"]), low))
        if e["max"] != -1:
            rows.append(
                _row_table(e, keys, np.flatnonzero(n > e["max"]), max_count)
            )
    rows = pa.concat_tables(rows)
    flagged = np.bincount(_np(rows.column("pos")), minlength=len(keys))
    return flagged == 0, PosRows(rows)


def _subj_key_col(subj) -> pa.Array:
    """Vectorized subject term-key column ('I…'/'B…')."""
    if isinstance(subj, pa.ChunkedArray):
        subj = subj.combine_chunks()
    is_b = pc.starts_with(subj, "_:")
    as_b = pc.binary_join_element_wise("B", pc.utf8_replace_slice(subj, 0, 2, ""), "")
    as_i = pc.binary_join_element_wise("I", subj, "")
    return pc.if_else(is_b, as_b, as_i)


def _obj_key_col(sub: pa.Table) -> pa.Array:
    """Vectorized object term-key column ('I…'/'B…'/'L…')."""
    okind = sub.column("obj_kind").combine_chunks()
    olex = sub.column("obj_lex").combine_chunks()
    if pc.unique(okind).to_pylist() == ["iri"]:  # one render, not three
        return pc.binary_join_element_wise("I", olex, "")
    odt = sub.column("obj_dt").combine_chunks()
    olang = sub.column("obj_lang").combine_chunks()
    lit = pc.binary_join_element_wise(
        pc.binary_join_element_wise("L", olex, ""), odt, olang, _TSEP
    )
    return pc.if_else(
        pc.equal(okind, "literal"),
        lit,
        pc.if_else(
            pc.equal(okind, "bnode"),
            pc.binary_join_element_wise("B", olex, ""),
            pc.binary_join_element_wise("I", olex, ""),
        ),
    )


def _arrow_regex_safe(pattern: str, flags: str) -> bool:
    """True when ``pattern`` is in the dialect subset where Arrow's RE2
    and Python's ``re`` provably agree: literal chars, anchors,
    quantifiers, alternation, groups, char classes, and escapes of regex
    metacharacters only. Shorthand classes (\\d \\w \\s), lookaround,
    backrefs and the x flag differ (or are unsupported) in RE2 — those
    take the exact per-distinct Python path instead."""
    if any(c not in "ims" for c in flags or ""):
        return False
    i, n = 0, len(pattern)
    while i < n:
        c = pattern[i]
        if c == "\\":
            if i + 1 >= n or pattern[i + 1] not in "\\.^$*+?()[]{}|/-":
                return False
            i += 2
            continue
        if c == "(" and pattern[i : i + 2] == "(?" and pattern[i : i + 3] != "(?:":
            return False
        i += 1
    return True


def _num_bound_ok(vk: str, kind: str, blex: str, bdt: str) -> bool:
    """Exact SHACL range-facet check for one value term-key (the scalar
    path's _cmp_term_to_bound semantics, shacl_local.py)."""
    from shaclex_ray.validate.shacl_local import _cmp_term_to_bound

    c = _cmp_term_to_bound(key_to_term(vk), blex, bdt)
    if c is None:
        return False
    return {
        "minInclusive": c >= 0,
        "minExclusive": c > 0,
        "maxInclusive": c <= 0,
        "maxExclusive": c < 0,
    }[kind]


def _shex_checks(nc: dict) -> list:
    """A NodeConstraint's value checks: the nodeKind / xsd:string / IRI
    value-set subset as Arrow checks; any other facet family (pattern,
    length, numeric, typed datatypes, literal value sets) as ONE exact
    per-distinct-value check through the conformance-verified scalar."""
    if (
        set(nc) <= {"type", "nodeKind", "datatype", "values"}
        and nc.get("nodeKind", "iri") in _SHEX_NODEKIND
        and nc.get("datatype", _XSD + "string") in _VEC_DATATYPES
        and all(isinstance(v, str) for v in nc.get("values", []))
    ):
        checks = []
        if "nodeKind" in nc:
            checks.append(("nodeKind", _SHEX_NODEKIND[nc["nodeKind"]], None))
        if "datatype" in nc:
            checks.append(("datatype", nc["datatype"], None))
        if "values" in nc:
            checks.append(("in", ["I" + v for v in nc["values"]], None))
        return checks
    return [("scalar", partial(_node_constraint_ok, nc), None)]


def flat_shex_profile(schema: dict) -> dict[str, FlatShape]:
    """ShEx label -> FlatShape, for shapes that are a plain (optionally
    EXTRA) flat EachOf of forward TripleConstraints with pairwise-distinct
    predicates — the counting decomposition (SURVEY.md C4). valueExprs:
    None / plain shape refs (probes) / NodeConstraints over ALL facet
    families (``_shex_checks``)."""
    out: dict[str, FlatShape] = {}
    if schema.get("_matching") == "greedy":
        # greedy matching is arc-order-sensitive; the counting kernels are
        # order-free — route every shape through the exact per-focus walk
        # (greedy schemas with distinct predicates would coincide, but the
        # suite pins order-sensitive cases; keep the lanes unambiguous)
        return out
    for lbl, se in schema.get("shapes", {}).items():
        if not isinstance(se, dict) or se.get("type") != "Shape":
            continue
        if se.get("closed") or se.get("semActs"):
            continue
        expr = se.get("expression")
        if expr is None or isinstance(expr, str):
            continue
        if expr.get("semActs"):
            # semantic actions dispatch per matched triple / group instance
            # — counting can't see them; take the exact per-focus walk
            continue
        if expr.get("type") == "TripleConstraint":
            tcs = [expr]
        elif expr.get("type") == "EachOf" and (
            expr.get("min", 1) == 1 and expr.get("max", 1) == 1
        ):
            tcs = expr.get("expressions", [])
            if not all(
                isinstance(t, dict) and t.get("type") == "TripleConstraint"
                for t in tcs
            ):
                continue
        else:
            continue
        preds = [t["predicate"] for t in tcs]
        if len(set(preds)) != len(preds):
            continue
        extra = set(se.get("extra", []) or [])
        entries = []
        for tc in tcs:
            if tc.get("inverse") or "id" in tc or tc.get("semActs"):
                break
            entry = {
                "pred": tc["predicate"],
                "checks": [],
                "probes": [],
                "min": tc.get("min", 1),
                "max": tc.get("max", 1),
                "qualified": tc["predicate"] in extra,
            }
            ve = tc.get("valueExpr")
            if isinstance(ve, str):
                ref = schema["shapes"].get(ve)
                local = ref is not None and not _needs_neighborhood(ref, schema)
                answer = (
                    partial(_term_local_answer, schema, ref) if local else _home_answer
                )
                entry["probes"].append(_Probe(ve, None, answer))
            elif isinstance(ve, dict) and ve.get("type") == "NodeConstraint":
                if set(ve) - {
                    "type", "nodeKind", "datatype", "values",
                    "length", "minlength", "maxlength", "pattern", "flags",
                    "mininclusive", "minexclusive", "maxinclusive",
                    "maxexclusive", "totaldigits", "fractiondigits",
                }:
                    break
                entry["checks"] = _shex_checks(ve)
            elif ve is not None:
                break
            entries.append(entry)
        else:
            out[lbl] = FlatShape(entries, _shex_finalize)
    return out


def _shex_finalize(entries, node_keys, part):
    """ShEx (exactly ShExValidator._match_flat): an EXTRA predicate bounds
    only its satisfying arcs; any other needs every arc to satisfy and
    bounds them all. No report rows."""
    ok = np.ones(part.arcs.shape[0], dtype=bool)
    for i, e in enumerate(entries):
        arcs, sat = part.arcs[:, i], part.sat[:, i]
        n = sat if e["qualified"] else arcs
        ok &= n >= e["min"]
        if e["max"] != -1:
            ok &= n <= e["max"]
        if not e["qualified"]:
            ok &= sat == arcs
    return ok, part.rows


_FLAT_PROFILES = {"shacl": flat_shacl_profile, "shex": flat_shex_profile}


class PosRows:
    """Rows of many nodes as ONE Arrow table whose int64 ``pos`` column is
    the row's node position; ``rows[pos]`` is one node's rows as dicts
    (without ``pos``), for callers that look at a single node."""

    __slots__ = ("table",)

    def __init__(self, table: pa.Table):
        self.table = table

    def __getitem__(self, pos: int) -> list[dict]:
        t = self.table
        return t.filter(pc.equal(t.column("pos"), pos)).drop_columns("pos").to_pylist()


# a flat shape's report rows: one per failing value or out-of-bounds count
_ROWS_SCHEMA = pa.schema(
    [("pos", pa.int64())]
    + [(c, pa.string()) for c in
       ("focus", "path", "value", "component", "severity", "source", "message")]
)
# a blocked node's arcs whose probes wait for answers: ``open`` is a bit
# mask of the entry's unanswered probe indices, ``passed`` whether the arc
# passed its value checks and answered probes so far
_PENDING_SCHEMA = pa.schema([
    ("pos", pa.int64()), ("entry", pa.int64()), ("value", pa.string()),
    ("passed", pa.bool_()), ("open", pa.int64()),
])


def _as_keys(node_keys) -> pa.Array:
    if isinstance(node_keys, pa.ChunkedArray):
        return node_keys.combine_chunks()
    if isinstance(node_keys, pa.Array):
        return node_keys
    return pa.array(node_keys, pa.string())


def _const(value, n: int) -> pa.Array:
    return pa.repeat(pa.scalar(value, pa.string()), n)


def _row_table(e: dict, keys: pa.Array, pos: np.ndarray, component: str,
               values: pa.Array | None = None) -> pa.Table:
    """Report rows of entry ``e`` for the nodes at ``pos`` (one per
    element), with ``values`` (None: no value)."""
    n = len(pos)
    return pa.table(
        [
            pa.array(pos, pa.int64()), keys.take(pa.array(pos, pa.int64())),
            _const(e["pred"], n),
            pa.nulls(n, pa.string()) if values is None else values,
            _const(component, n), _const(e["severity"], n),
            _const(e["source"], n), _const(e["message"], n),
        ],
        schema=_ROWS_SCHEMA,
    )


def _concat(tables: list, schema: pa.Schema) -> pa.Table:
    return pa.concat_tables(tables) if tables else schema.empty_table()


def _remap(tbl: pa.Table, to: np.ndarray) -> pa.Table:
    """The rows of ``tbl`` whose ``pos`` maps to a position (``to[pos]``
    >= 0), with ``pos`` rewritten to it."""
    new = to[_np(tbl.column("pos"))]
    keep = new >= 0
    if not keep.all():
        tbl, new = tbl.filter(pa.array(keep)), new[keep]
    return tbl.set_column(0, "pos", pa.array(new, pa.int64()))


class FlatPartial(NamedTuple):
    """A flat shape's evaluation of n focus nodes before its finalize
    rule. Per (focus, entry): ``arcs``, the arc count, and ``sat``, the
    arcs that pass every value check and every answered probe (int64
    [n, entries]). ``rows``: the failing-value report rows; ``pending``:
    the arcs whose probes are unanswered (``_PENDING_SCHEMA``) — both
    ``PosRows`` over the n nodes."""

    arcs: np.ndarray
    sat: np.ndarray
    rows: PosRows
    pending: PosRows


class _EntryArcs:
    """One entry's arcs among the gathered ones: columns are taken on
    first use only and stay ARROW (no object-dtype numpy, no per-row
    Python strings); the object term keys render and dictionary-encode
    once, for every check and probe of the entry."""

    def __init__(self, tbl: pa.Table, rows: np.ndarray):
        self._tbl, self._rows = tbl, pa.array(rows)
        self._cols: dict[str, pa.Array] = {}
        self._keys = self._distinct = None

    def __len__(self) -> int:
        return len(self._rows)

    def col(self, name: str) -> pa.Array:
        a = self._cols.get(name)
        if a is None:
            a = self._cols[name] = (
                self._tbl.column(name).take(self._rows).combine_chunks()
            )
        return a

    def keys(self) -> pa.Array:
        if self._keys is None:
            cols = ("obj_kind", "obj_lex", "obj_dt", "obj_lang")
            self._keys = _obj_key_col(pa.table({c: self.col(c) for c in cols}))
        return self._keys

    def distinct(self) -> tuple[list, np.ndarray]:
        """(distinct object keys, each arc's index among them)."""
        if self._distinct is None:
            dic = pc.dictionary_encode(self.keys())
            self._distinct = (
                dic.dictionary.to_pylist(),
                dic.indices.to_numpy(zero_copy_only=False),
            )
        return self._distinct


def _check_mask(op: str, param, arcs: _EntryArcs) -> np.ndarray:
    """bool per arc: does its object pass the value check?"""
    if op == "scalar":
        # exact per-DISTINCT-value Python, broadcast by dictionary codes
        dvals, dcodes = arcs.distinct()
        okd = np.fromiter((param(v) for v in dvals), dtype=bool, count=len(dvals))
        return okd[dcodes]
    if op == "pattern":
        return _pattern_mask(*param, arcs)
    okind = arcs.col("obj_kind")
    if op == "nodeKind":
        m = pc.is_in(okind, value_set=pa.array(list(param)))
    elif op == "datatype":
        m = pc.and_(pc.equal(okind, "literal"), pc.equal(arcs.col("obj_dt"), param))
    elif op == "in":
        m = pc.is_in(arcs.keys(), value_set=pa.array(param, pa.string()))
    else:  # minLength / maxLength: a blank node has no length
        ln = pc.utf8_length(arcs.col("obj_lex"))
        cmp = pc.greater_equal if op == "minLength" else pc.less_equal
        m = pc.and_(cmp(ln, param), pc.not_equal(okind, "bnode"))
    return pc.fill_null(m, False).to_numpy(zero_copy_only=False)


def _pattern_mask(pat: str, flags: str, arcs: _EntryArcs) -> np.ndarray:
    """sh:pattern per arc: RE2-safe patterns run in Arrow, the rest with
    Python's re once per DISTINCT lexical form (broadcast by dictionary
    codes); a blank node never matches, nor does anything when the
    pattern does not compile."""
    try:
        rx = compile_pattern(pat, flags)
    except re.error:
        return np.zeros(len(arcs), dtype=bool)
    lex = arcs.col("obj_lex")
    if _arrow_regex_safe(pat, flags):
        apat = ("(?" + flags + ")" if flags else "") + pat
        good = pc.fill_null(pc.match_substring_regex(lex, apat), False).to_numpy(
            zero_copy_only=False
        )
    else:
        dic = pc.dictionary_encode(lex)
        dvals = dic.dictionary.to_pylist()
        okd = np.fromiter(
            (rx.search(s) is not None for s in dvals), dtype=bool, count=len(dvals)
        )
        good = okd[dic.indices.to_numpy(zero_copy_only=False)]
    return good & pc.not_equal(arcs.col("obj_kind"), "bnode").to_numpy(
        zero_copy_only=False
    )


def flat_eval_kernel(
    profile: FlatShape,
    node_keys,
    graph: "LazyBucketGraph",
    assumptions: dict,
    is_local_key,
    is_instance_fn,
):
    """Vectorized evaluation of one flat shape for MANY distinct focus
    nodes (term keys: a list or an Arrow array) over the bucket's columnar
    arcs: an entry gathers its predicate's arcs whose subject is among the
    nodes (``graph.pred_rows`` and ``graph.positions``, no per-node
    index), its value checks run as Arrow/numpy kernels and its probes
    once per distinct value (assumption first, then the probe's
    bucket-local answer), giving a ``FlatPartial``; the shape's finalize
    rule turns it into verdicts and report rows. Returns ``(conforms:
    bool[n], report rows as PosRows, partial)``; a node with pending
    probes has no verdict yet — it resumes through ``flat_resume``.
    An ``is_local_key`` with a ``fill(keys)`` method (``_LocalKeys``)
    learns a routed probe's distinct values in one call first.
    Semantics are pinned to ShaclValidator.validate_shape and
    ShExValidator (fuzzed in tests/test_property.py)."""
    entries = profile.entries
    keys = _as_keys(node_keys)
    n, k = len(keys), len(entries)
    pos_of = graph.positions(keys)

    arcs = np.zeros((n, k), dtype=np.int64)
    sat = np.zeros((n, k), dtype=np.int64)
    rows: list[pa.Table] = []
    pending: list[pa.Table] = []
    # (value key, probe shape) -> 1 / 0 / -1 (ask the home bucket)
    answers: dict[tuple[str, str], int] = {}
    fill = getattr(is_local_key, "fill", None)

    for i, e in enumerate(entries):
        # value-level work sees only THIS predicate's arcs of these nodes
        sel = graph.pred_rows(e["pred"])
        subj = pos_of[graph.codes[sel]]
        have = subj >= 0
        sel, subj = sel[have], subj[have]
        if not len(sel):
            continue
        arcs[:, i] = np.bincount(subj, minlength=n)
        ea = _EntryArcs(graph.arcs, sel)

        def add_rows(component, bad):
            if component is not None and len(bad):
                rows.append(_row_table(e, keys, subj[bad], component,
                                       ea.keys().take(pa.array(bad))))

        ok = np.ones(len(sel), dtype=bool)
        for op, param, component in e["checks"]:
            good = _check_mask(op, param, ea)
            add_rows(component, np.flatnonzero(~good))
            ok &= good
        open_ = np.zeros(len(sel), dtype=np.int64)
        for p, probe in enumerate(e["probes"]):
            dvals, dcodes = ea.distinct()
            if probe.routed and fill is not None:
                fill(dvals)  # one vectorized hash, not one per value
            st = np.empty(len(dvals), dtype=np.int8)
            for d, v in enumerate(dvals):
                key = (v, probe.shape)
                s = answers.get(key)
                if s is None:
                    a = assumptions.get(key)
                    if a is None:
                        a = probe.answer(v, graph, is_local_key, is_instance_fn)
                    s = answers[key] = _answer_code(a)
                st[d] = s
            st = st[dcodes]
            add_rows(probe.component, np.flatnonzero(st == 0))
            ok &= st != 0
            open_ |= (st < 0).astype(np.int64) << p
        blocked = open_ != 0
        sat[:, i] = np.bincount(subj[ok & ~blocked], minlength=n)
        at = np.flatnonzero(blocked)
        if len(at):
            pending.append(pa.table(
                [pa.array(subj[at]), pa.array(np.full(len(at), i)),
                 ea.keys().take(pa.array(at)), pa.array(ok[at]),
                 pa.array(open_[at])],
                schema=_PENDING_SCHEMA,
            ))

    part = FlatPartial(arcs, sat, PosRows(_concat(rows, _ROWS_SCHEMA)),
                       PosRows(_concat(pending, _PENDING_SCHEMA)))
    conforms, out_rows = profile.finalize(entries, keys, part)
    return conforms, out_rows, part


def flat_resume(profile: FlatShape, node_keys, part: FlatPartial,
                assumptions: dict) -> FlatPartial:
    """Merge the answered probes into a partial in one vectorized step
    per (entry, probe): an arc whose probes are all answered satisfies
    when it passed so far and every answer is True; a False answer adds
    its report row (once per arc). The result's pending keeps the arcs
    with probes still unanswered. ``node_keys`` are the partial's nodes."""
    pend = part.pending.table
    if not pend.num_rows:
        return part
    pos, entry = _np(pend.column("pos")), _np(pend.column("entry"))
    passed, open_ = _np(pend.column("passed")).copy(), _np(pend.column("open")).copy()
    values = pend.column("value").combine_chunks()
    keys = _as_keys(node_keys)
    rows = [part.rows.table]
    for e, p, probe, at in _open_probes(profile, entry, open_):
        dic = pc.dictionary_encode(values.take(pa.array(at)))
        got = np.array(
            [_answer_code(assumptions.get((v, probe.shape)))
             for v in dic.dictionary.to_pylist()],
            dtype=np.int8,
        )[_np(dic.indices)]
        open_[at[got >= 0]] &= ~(1 << p)
        no = at[got == 0]
        passed[no] = False
        if probe.component is not None and len(no):
            rows.append(_row_table(e, keys, pos[no], probe.component,
                                   values.take(pa.array(no))))
    done = open_ == 0
    sat = part.sat.copy()
    np.add.at(sat, (pos[done & passed], entry[done & passed]), 1)
    left = np.flatnonzero(~done)
    pend = pa.table(
        [pa.array(pos[left]), pa.array(entry[left]), values.take(pa.array(left)),
         pa.array(passed[left]), pa.array(open_[left])],
        schema=_PENDING_SCHEMA,
    )
    return FlatPartial(part.arcs, sat, PosRows(pa.concat_tables(rows)),
                       PosRows(pend))


def _answer_code(a) -> int:
    """An assumption as a probe state: -1 unanswered, 1 True, 0 False."""
    return -1 if a is None else int(bool(a))


def _open_probes(profile: FlatShape, entry: np.ndarray, open_: np.ndarray):
    """``(entry dict, probe index, probe, pending arc indices)`` for each
    probe that some pending arc still waits on."""
    for i, e in enumerate(profile.entries):
        for p, probe in enumerate(e["probes"]):
            at = np.flatnonzero((entry == i) & ((open_ >> p) & 1).astype(bool))
            if len(at):
                yield e, p, probe, at


def _pending_deps(profile: FlatShape, pending: PosRows) -> tuple:
    """The sorted (value, shape) dependencies of pending arcs."""
    pend = pending.table
    values = pend.column("value")
    deps = set()
    for _e, _p, probe, at in _open_probes(
        profile, _np(pend.column("entry")), _np(pend.column("open"))
    ):
        vals = pc.unique(values.take(pa.array(at))).to_pylist()
        deps.update((v, probe.shape) for v in vals)
    return tuple(sorted(deps))


# a flat pair's state in its bucket's ``_FlatPairs``
_PENDING, _BLOCKED, _DECIDED, _UNKNOWN = range(4)
_VALS = pa.array(["conforms", "notConforms", "unknown"])


class _FlatPairs:
    """One flat shape's (node, shape) pairs in one bucket, as columns —
    the columnar worklist. Position p is one distinct node key (``keys``);
    ``focus``/``requested`` flag who asked for it; ``state`` moves
    pending → (blocked →) decided. A blocked pair's partial waits in
    ``arcs``/``sat`` and in the ``rows``/``pending`` tables (keyed by
    position) until its probes' answers merge in (``flat_resume``); the
    report rows of decided focus pairs collect in ``reports``."""

    def __init__(self, profile: FlatShape):
        k = len(profile.entries)
        self.profile = profile
        self.keys = pa.array([], pa.string())
        self.focus = np.zeros(0, dtype=bool)
        self.requested = np.zeros(0, dtype=bool)
        self.state = np.zeros(0, dtype=np.int8)
        self.conforms = np.zeros(0, dtype=bool)
        self.arcs = np.zeros((0, k), dtype=np.int64)
        self.sat = np.zeros((0, k), dtype=np.int64)
        self.rows = _ROWS_SCHEMA.empty_table()
        self.pending = _PENDING_SCHEMA.empty_table()
        self.reports: list[pa.Table] = []

    def __setstate__(self, state: dict):
        # arrays Ray deserializes are read-only views of the object store,
        # and the worklist updates its flags and partials in place
        self.__dict__.update(
            (k, v.copy() if isinstance(v, np.ndarray) else v)
            for k, v in state.items()
        )

    def add(self, nodes: pa.Array) -> np.ndarray:
        """The positions of ``nodes``; unknown ones join as pending."""
        where = pc.index_in(nodes, value_set=self.keys)
        if where.null_count:
            new = pc.unique(nodes.filter(pc.is_null(where)))
            m = len(new)
            self.keys = pa.concat_arrays([self.keys, new])
            self.focus = np.concatenate([self.focus, np.zeros(m, bool)])
            self.requested = np.concatenate([self.requested, np.zeros(m, bool)])
            self.state = np.concatenate([self.state, np.zeros(m, np.int8)])
            self.conforms = np.concatenate([self.conforms, np.zeros(m, bool)])
            grow = np.zeros((m, self.arcs.shape[1]), np.int64)
            self.arcs = np.concatenate([self.arcs, grow])
            self.sat = np.concatenate([self.sat, grow])
            where = pc.index_in(nodes, value_set=self.keys)
        return _np(where).astype(np.int64)

    def vals(self, at: np.ndarray) -> pa.Array:
        """The typing value of the decided (or unknown) pairs at ``at``."""
        code = np.where(self.conforms[at], 0, 1)
        code[self.state[at] == _UNKNOWN] = 2
        return _VALS.take(pa.array(code))

    def answers(self, at: np.ndarray, sk: str) -> list:
        """(node, shape, val) of the requested pairs among ``at``."""
        at = at[self.requested[at]]
        return [(nk, sk, v) for nk, v in zip(
            self.keys.take(pa.array(at)).to_pylist(), self.vals(at).to_pylist()
        )]

    def step(self, graph, assumptions, is_local_key, is_instance_fn):
        """One round: the blocked pairs merge the answers that arrived
        (one ``flat_resume`` over the store), the pending pairs run the
        kernel once, and every pair left without an unanswered probe
        settles through the finalize rule. Returns the positions
        decided."""
        prof, n = self.profile, len(self.keys)
        if (self.state == _BLOCKED).any():
            part = flat_resume(
                prof, self.keys,
                FlatPartial(self.arcs, self.sat, PosRows(self.rows),
                            PosRows(self.pending)),
                assumptions,
            )
            self.sat, self.rows = part.sat, part.rows.table
            self.pending = part.pending.table
        fresh = np.flatnonzero(self.state == _PENDING)
        if len(fresh):
            _conforms, _rows, part = flat_eval_kernel(
                prof, self.keys.take(pa.array(fresh)).to_pylist(), graph,
                assumptions, is_local_key, is_instance_fn,
            )
            self.arcs[fresh], self.sat[fresh] = part.arcs, part.sat
            self.rows = pa.concat_tables(
                [self.rows, _remap(part.rows.table, fresh)])
            self.pending = pa.concat_tables(
                [self.pending, _remap(part.pending.table, fresh)])
            self.state[fresh] = _BLOCKED
        waiting = np.zeros(n, dtype=bool)
        waiting[_np(self.pending.column("pos"))] = True
        done = np.flatnonzero((self.state == _BLOCKED) & ~waiting)
        to = np.full(n, -1, dtype=np.int64)
        to[done] = np.arange(len(done))
        conforms, rows = prof.finalize(
            prof.entries, self.keys.take(pa.array(done)),
            FlatPartial(self.arcs[done], self.sat[done],
                        PosRows(_remap(self.rows, to)),
                        PosRows(_PENDING_SCHEMA.empty_table())),
        )
        self.state[done], self.conforms[done] = _DECIDED, conforms
        rows = _remap(rows.table, np.where(self.focus[done], done, -1))
        if rows.num_rows:
            self.reports.append(rows)
        self.rows = _remap(self.rows, np.where(waiting, np.arange(n), -1))
        return done

    def deps(self) -> tuple:
        """The (value, shape) dependencies the blocked pairs wait on."""
        return _pending_deps(self.profile, PosRows(self.pending))

    def open_count(self) -> int:
        return int(np.count_nonzero(self.state < _DECIDED))

    def typing(self, sk: str) -> pa.Table:
        at = np.flatnonzero(self.focus)
        return pa.table(
            [self.keys.take(pa.array(at)), _const(sk, len(at)), self.vals(at),
             pa.repeat(pa.scalar(True), len(at))],
            schema=TYPING_SCHEMA,
        )

    def report(self) -> pa.Table:
        return _concat(self.reports, _ROWS_SCHEMA)


class _Bucket:
    """Per-bucket evaluator of one validation call: the bucket's arcs
    (``graph``) AND its worklist last across rounds (schema compiled once
    per bucket — SURVEY.md A1/A2). The driver only routes the (small)
    cross-bucket dependency traffic, so its per-round work is
    O(#dependencies + #buckets), independent of focus-pair count.

    Two worklists. Pairs of a flat shape stay columnar from focus
    resolution to the shard: one ``_FlatPairs`` per shape holds their node
    keys, flags, states, verdicts and blocked partials as arrays, one
    kernel call per shape and round evaluates the pending ones and one
    vectorized merge resumes the blocked ones. Every other pair (a
    non-flat shape, a ``class:``/``hop:``/``vshape:`` probe) walks the
    per-focus Python path over dicts (``pending``, ``typing``, …), which
    builds the graph's per-node index on first use.

    The driver's calls (``_bsp``): ``load``, ``derive_focus``, one
    ``run_round`` per round and ``finish``.

    A plain object: the single-bucket task calls it in-process; the fleet
    ships it between plain tasks as the bucket's state, with ``graph``
    held apart (``_load_bucket``, ``_call_bucket``). ``spill_dir`` is
    where an oversized bucket spills its sorted arc tables and reopens
    them memory-mapped (OS paging instead of dying on heap); None keeps
    them on heap."""

    def __init__(self, schema: dict, engine: str, nbuckets: int, bucket_id: int,
                 spill_dir: str | None = None):
        self.schema = schema
        self.engine = engine
        self.nbuckets = nbuckets
        self.bucket_id = bucket_id
        self.graph = LazyBucketGraph(spill_dir=spill_dir)
        # the per-focus path's worklist (pairs of non-flat shapes)
        self.pending: dict[tuple[str, str], bool] = {}
        self.typing: dict[tuple[str, str], str] = {}
        self.focus_flags: dict[tuple[str, str], bool] = {}
        # pairs other buckets asked for — ONLY their answers cross the
        # driver (the focus typing never leaves the bucket until finish)
        self.requested: set[tuple[str, str]] = set()
        self.assumptions: dict[tuple[str, str], bool] = {}
        self.reports: list[dict] = []
        # pair -> unanswered deps it is blocked on (skip re-evaluation until
        # one of them gets an assumption — semi-naive delta, SURVEY.md §7.4)
        self.blocked_on: dict[tuple[str, str], set] = {}
        # flat-shape check lists (compiled lazily once per call) and the
        # columnar worklist of their pairs, one store per shape
        self._flat_profiles: dict[str, FlatShape] | None = None
        self._pairs: dict[str, _FlatPairs] = {}
        # class key -> the local nodes typed with it or a subclass
        self._instances: dict[str, set] = {}

    def load(self, *parts: pa.Table) -> pa.Table:
        """Read the split parts into the graph. Returns the (child,
        parent) term keys of the bucket's rdfs:subClassOf arcs, which a
        SHACL run compiles its targets from."""
        for tbl in parts:
            self.graph.add_part(tbl)
        self.graph.finalize()
        rows = self.graph.pred_rows(RDFS_SUBCLASS)
        return pa.table(
            {"child": self.graph.keys_at(rows), "parent": self.graph.obj_keys_at(rows)}
        )

    def walks(self) -> bool:
        """Whether a pair can take the per-focus path, which looks up
        nodes in the graph's per-node index: some node shape (ShEx: some
        label, inline shape or start shape) has no flat profile."""
        shapes = self.schema.get("shapes", {})
        if self.engine == "shacl":
            keys = {k for k, sh in shapes.items() if not sh or sh.get("path") is None}
        elif self.schema.get("start") is not None:
            return True
        else:
            keys = set(shapes) | set(self.schema.get("inline", {}))
        return not keys <= self._flat().keys()

    # ---- in-bucket focus resolution (fixShapeMap, ShapeMaps.scala
    # semantics). Shapemap selectors and compiled SHACL target
    # declarations are the same patterns: ``("focus_subj", p, objs, shape)``
    # selects the subjects of ``p`` arcs, ``("focus_obj", p, subjs, shape)``
    # their objects, each kept to a bound end's term keys when given
    # (None: any). The bucket holds every outgoing arc of its subjects, so
    # subject-side pairs enqueue LOCALLY and completely; object-side ones
    # (an object's home bucket may differ) return to the driver.

    def _arc_rows(self, pred: str, objs=None, subjs=None) -> np.ndarray:
        """Rows of the local ``pred`` arcs whose object term key is in
        ``objs`` and whose subject term key is in ``subjs`` (None: any)."""
        g = self.graph
        rows = g.pred_rows(pred)
        for keys, bound in ((g.obj_keys_at, objs), (g.keys_at, subjs)):
            if bound is not None:
                hit = pc.is_in(keys(rows), value_set=pa.array(bound, pa.string()))
                rows = rows[_np(hit)]
        return rows

    def derive_focus(self, patterns: list, closure: dict | None) -> pa.Table:
        """Resolve ``patterns`` against the local arcs: enqueue the
        subject-side pairs, return the object-side ones for the driver to
        route. ``closure`` is the subclass closure a SHACL schema was
        shipped without (it needed every bucket's subclass rows first)."""
        if closure is not None:
            self.schema["subclass_closure"] = closure
        remote = [_pairs_table([], [])]
        for kind, pred, bound, sk in patterns:
            if kind == "focus_subj":
                rows = self._arc_rows(pred, objs=bound)
                self.submit_nodes(self.graph.keys_at(rows), sk, True)
            else:
                nodes = self.graph.obj_keys_at(self._arc_rows(pred, subjs=bound))
                remote.append(_pairs_table(nodes, _const(sk, len(nodes))))
        return pa.concat_tables(remote)

    def _flat(self) -> dict[str, FlatShape]:
        if self._flat_profiles is None:
            self._flat_profiles = (
                {} if self.schema.get("_no_flat")
                else _FLAT_PROFILES[self.engine](self.schema)
            )
        return self._flat_profiles

    def submit(self, tasks: pa.Table, is_focus: bool) -> list:
        """Enqueue (node, shape) pairs; idempotent (already-known pairs are
        skipped), so upstream dedup of focus pairs is unnecessary — the
        worklist IS the dedup. Non-focus submissions are *requests* from
        other buckets: only those pairs' answers ever travel back through
        the driver. Returns already-decided requested pairs immediately."""
        shapes = tasks.column("shape")
        already = []
        for sk in pc.unique(shapes).to_pylist():
            nodes = tasks.column("node").filter(pc.equal(shapes, sk))
            already += self.submit_nodes(nodes.combine_chunks(), sk, is_focus)
        return already

    def submit_nodes(self, nodes: pa.Array, sk: str, is_focus: bool) -> list:
        """``submit`` for the pairs of one shape: a flat shape's go to its
        columnar store in one step, the others one by one."""
        prof = self._flat().get(sk)
        if prof is not None:
            store = self._pairs.get(sk)
            if store is None:
                store = self._pairs[sk] = _FlatPairs(prof)
            at = store.add(nodes)
            if is_focus:
                store.focus[at] = True
                return []
            store.requested[at] = True
            return store.answers(np.unique(at[store.state[at] == _DECIDED]), sk)
        already = []
        for nk in nodes.to_pylist():
            key = (nk, sk)
            if not is_focus:
                self.requested.add(key)
                val = self.typing.get(key)
                if val is not None:
                    already.append((nk, sk, val))
                    continue
            if key not in self.typing and key not in self.pending:
                self.pending[key] = True
            if is_focus:
                self.focus_flags[key] = True
        return already

    def _local_is_instance(self, node_key: str, cls_key: str) -> bool:
        """sh:class for a local node by the class-target rule: the local
        subjects typed with a key in the class's subclass closure, found
        once per class (no per-node index)."""
        inst = self._instances.get(cls_key)
        if inst is None:
            closure = self.schema.get("subclass_closure", {}).get(cls_key, [cls_key])
            rows = self._arc_rows(RDF_TYPE, objs=closure)
            inst = self._instances[cls_key] = set(self.graph.keys_at(rows).to_pylist())
        return node_key in inst

    def run_round(self, focus, requests, assumptions: list, assume: list):
        """One round: the cycle-break list ``assume`` closes its
        unanswered (node, shape) deps as conforming, path hops with an
        empty value set (coinductive close, ValidateND.scala:51-54
        reading); the forwarded (node, shape, val) ``assumptions`` land;
        the routed ``focus`` pairs and other buckets' ``requests``
        ((node, shape) tables, None for none) enqueue; then every pending
        pair evaluates against local arcs + assumptions.
        Returns (n_decided, n_pending, deps, answered):
          deps     — still-unanswered (child_node, child_shape) this bucket
                     needs from other buckets
          answered — (node, shape, val) of the requested pairs decided this
                     round, or before the request came (the driver
                     forwards them)
        """
        for nk, sk in assume:
            self.assumptions.setdefault((nk, sk), [] if sk.startswith("hop:") else True)
        for nk, sk, val in assumptions:
            if isinstance(val, str) and val.startswith(("vals:", "rows:")):
                val = json.loads(val[5:])  # hop value keys / vshape report rows
            self.assumptions[(nk, sk)] = val
        got = {(nk, sk) for nk, sk in assume} | {(nk, sk) for nk, sk, _v in assumptions}
        # non-mutating subtraction: dep sets may be shared across pairs
        for pair in list(self.blocked_on) if got else ():
            remaining = self.blocked_on[pair] - got
            if remaining:
                self.blocked_on[pair] = remaining
            else:
                del self.blocked_on[pair]
        if focus is not None:
            self.submit(focus, True)
        answered = [] if requests is None else self.submit(requests, False)

        assumptions = self.assumptions
        is_local_key = _LocalKeys(self.nbuckets, self.bucket_id,
                                  not self.schema.get("_has_inverse"))

        def is_local_term(t: tuple) -> bool:
            return is_local_key(term_key(t))

        decided = []
        all_deps: set = set()

        # columnar flat pass: each flat shape's pairs resume or run the
        # kernel in bulk; the per-focus Python walk takes the rest
        n_flat = 0
        for sk, store in sorted(self._pairs.items()):
            done = store.step(
                self.graph, assumptions, is_local_key, self._local_is_instance
            )
            n_flat += len(done)
            answered += store.answers(done, sk)
            all_deps.update(d for d in store.deps() if d not in assumptions)

        for key in list(self.pending):
            if key in self.blocked_on:
                all_deps |= self.blocked_on[key]
                continue  # still waiting on the same unanswered children
            nk, shape_key = key
            deps: set = set()

            def record(c, s, d=deps):
                if (c, s) not in assumptions:
                    d.add((c, s))

            try:
                if shape_key.startswith("class:"):
                    ok = self._local_is_instance(nk, shape_key[len("class:") :])
                    self.typing[key] = "conforms" if ok else "notConforms"
                    decided.append(key)
                    continue
                if shape_key.startswith("hop:"):
                    # elementary path hop: answer = the node's local values
                    _tag, direction, pred = shape_key.split(":", 2)
                    if direction == "fwd":
                        vals = [
                            term_key(o)
                            for p, o in self.graph.arcs_out(nk)
                            if p == pred
                        ]
                    else:
                        vals = [
                            term_key(s)
                            for p, s in self.graph.arcs_in(nk)
                            if p == pred
                        ]
                    self.typing[key] = "vals:" + json.dumps(sorted(set(vals)))
                    decided.append(key)
                    continue
                if shape_key.startswith("vshape:"):
                    # nested property-shape validation in REPORT context:
                    # validate fully here and ship the result ROWS back to
                    # the requesting parent(s) — each parent appends its
                    # own copy, preserving the per-traversal multiplicity
                    # of the local call stack (a value reached from two
                    # parents reports twice, as the W3C fixtures expect)
                    real_key = shape_key[len("vshape:") :]
                    v = _DistShacl(
                        self.schema, self.graph, assumptions, is_local_key,
                        record, reporting=True,
                    )
                    rres = v.validate_shape(nk, real_key)
                    if not v.provisional:
                        rows = [
                            r for r in rres
                            if r["component"] != _REMOTE_NC_COMPONENT
                        ]
                        self.typing[key] = "rows:" + json.dumps(rows)
                        decided.append(key)
                elif self.engine == "shex":
                    v = _DistShEx(self.schema, self.graph, assumptions, is_local_term, record)
                    node = key_to_term(nk)
                    # The pair's OWN coinductive assumption (set by a
                    # cycle-break) must not decide the pair vacuously —
                    # hide it during its top-level evaluation so local
                    # constraint failures still surface. Direct
                    # self-reference inside the evaluation still closes
                    # coinductively via the in-progress guard
                    # (ValidateND.scala:51-54 semantics).
                    self_assumption = assumptions.pop(key, None)
                    try:
                        if shape_key.startswith("inline:"):
                            # anonymous nested Shape routed here as a dep:
                            # resolve through the inline registry
                            se = self.schema.get("inline", {}).get(shape_key)
                            if se is None:
                                raise ValueError(
                                    f"unregistered inline shape {shape_key}"
                                )
                            ok = v.satisfies(node, se)
                        else:
                            ok = v.validate_node_shape(
                                node, shape_key if shape_key != "START" else None
                            )
                    finally:
                        if self_assumption is not None:
                            assumptions[key] = self_assumption
                    if not v.provisional:
                        self.typing[key] = "conforms" if ok else "notConforms"
                        decided.append(key)
                else:
                    # report rows are emitted only for FOCUS validations —
                    # a conformance probe requested by another bucket must
                    # not add its inner violations to the report (matches
                    # the local validator / SHACL sh:node semantics)
                    is_focus_pair = key in self.focus_flags
                    v = _DistShacl(
                        self.schema, self.graph, assumptions, is_local_key,
                        record, reporting=is_focus_pair,
                    )
                    rres = v.validate_shape(nk, shape_key)
                    if not v.provisional:
                        self.typing[key] = "conforms" if not rres else "notConforms"
                        decided.append(key)
                        if is_focus_pair:
                            self.reports.extend(
                                r
                                for r in rres
                                if r["component"] != _REMOTE_NC_COMPONENT
                            )
            except _NeedRemote as e:
                self.typing[key] = f"error:{e}"
                decided.append(key)
                continue
            if deps:
                self.blocked_on[key] = deps
            all_deps |= deps
        for key in decided:
            self.pending.pop(key, None)
            self.blocked_on.pop(key, None)
        # only dep-requested answers travel to the driver — the rest of the
        # typing stays bucket-side (driver memory is O(#cross-bucket deps),
        # not O(#focus pairs))
        answered += [
            (k[0], k[1], self.typing[k]) for k in decided if k in self.requested
        ]
        n_pending = len(self.pending) + sum(
            store.open_count() for store in self._pairs.values()
        )
        return len(decided) + n_flat, n_pending, sorted(all_deps), answered

    def _typing(self) -> pa.Table:
        """The focus pairs' typing, sorted by (node, shape). A pair decided
        only because another bucket asked for it (a shape, ``class:``,
        ``hop:`` or ``vshape:`` probe) is a protocol answer: one bucket
        answers the same probe in-process and writes nothing, so writing
        it would make the table depend on the bucket count."""
        keys = [k for k in self.typing if k in self.focus_flags]
        walked = pa.table(
            [
                pa.array([k[0] for k in keys], pa.string()),
                pa.array([k[1] for k in keys], pa.string()),
                pa.array([self.typing[k] for k in keys], pa.string()),
                pa.repeat(pa.scalar(True), len(keys)),
            ],
            schema=TYPING_SCHEMA,
        )
        parts = [store.typing(sk) for sk, store in self._pairs.items()]
        return pa.concat_tables(parts + [walked]).sort_by(
            [("node", "ascending"), ("shape", "ascending")]
        )

    def _report(self) -> pa.Table:
        walked = pa.Table.from_pylist(self.reports, schema=_ROWS_SCHEMA.remove(0))
        return pa.concat_tables(
            [_report_table(store.report()) for store in self._pairs.values()]
            + [_report_table(walked)]
        )

    def finish(self, output_dir: str | None):
        """The last call: pairs the fixpoint could not decide become
        val='unknown' (result_json/_summary treat them as not valid).
        Returns the (typing, report) tables, or, given ``output_dir``,
        writes them as the bucket's own parquet shard — the full tables
        never concat on the driver (SURVEY.md §4.2; a table without rows
        writes no shard, ``exchange.sink``'s rule) — and returns the typing
        rows per verdict plus the report rows as ``violations``."""
        for store in self._pairs.values():
            store.state[store.state < _DECIDED] = _UNKNOWN
        for key in self.pending:
            self.typing[key] = "unknown"
        t, r = self._typing(), self._report()
        if output_dir is None:
            return t, r
        import os

        import pyarrow.parquet as pq

        for sub, tbl in (("typing", t), ("report", r)):
            os.makedirs(f"{output_dir}/{sub}", exist_ok=True)
            if tbl.num_rows:
                pq.write_table(
                    tbl, f"{output_dir}/{sub}/part-{self.bucket_id:05d}.parquet"
                )
        counts = pc.value_counts(t.column("val").combine_chunks())
        stats: dict[str, int] = {"violations": r.num_rows}
        stats.update(zip(counts.field("values").to_pylist(),
                         counts.field("counts").to_pylist()))
        return stats


def _report_table(rows: pa.Table) -> pa.Table:
    """Report rows (``_ROWS_SCHEMA``'s fields) in the report table's
    columns; a row without a path or value has ''."""
    return pa.table(
        [
            rows.column("focus"), pc.fill_null(rows.column("path"), ""),
            pc.fill_null(rows.column("value"), ""), rows.column("source"),
            rows.column("component"), rows.column("severity"),
            rows.column("message"),
        ],
        schema=REPORT_SCHEMA,
    )


def _route_tasks(tasks: pa.Table, nbuckets: int) -> dict[int, pa.Table]:
    """Vectorized (node, shape) routing to the nodes' home buckets
    (``node_key_bucket_array``)."""
    if tasks.num_rows == 0:
        return {}
    home = node_key_bucket_array(tasks.column("node"), nbuckets)
    parts = partition(tasks, home, nbuckets)
    return {b: part for b, part in enumerate(parts) if part.num_rows}


def _pairs_table(nodes, shapes) -> pa.Table:
    return pa.table(
        {"node": pa.array(nodes, pa.string()), "shape": pa.array(shapes, pa.string())}
    )


def _focus_patterns(focus_tasks):
    """``distributed_validate``'s focus forms as ``(patterns, concrete)``
    (``_Bucket.derive_focus``'s patterns and a (node, shape) table): a
    table is all concrete pairs; a ``("shex-patterns", assocs, concrete)``
    tuple's selectors become patterns whose bound end is a term key.
    ``"shacl-targets"`` gives None: its patterns compile from the target
    declarations once the buckets are loaded (``_target_patterns``)."""
    if isinstance(focus_tasks, str) and focus_tasks == "shacl-targets":
        return None
    if isinstance(focus_tasks, pa.Table):
        return [], focus_tasks
    if isinstance(focus_tasks, tuple) and focus_tasks[:1] == ("shex-patterns",):
        _, assocs, concrete = focus_tasks
        patterns = []
        for a in assocs:
            end = a.get("obj" if a["kind"] == "focus_subj" else "subj")
            bound = None if end is None else [term_key(end)]
            patterns.append((a["kind"], a["pred"], bound, a["shape"]))
        return patterns, concrete
    raise TypeError(
        "focus_tasks must be 'shacl-targets', a (node, shape) pa.Table or a "
        f"('shex-patterns', assocs, concrete) tuple, not {type(focus_tasks).__name__}"
    )


def _bsp(call, get, nbuckets, schema, focus_tasks, load_refs, max_rounds,
         output_dir):
    """The BSP driver loop, written once for the fleet and the single task.

    ``call(b, method, *args)`` invokes bucket ``b``'s method: a round
    task returning a ref in the fleet, a plain method call in the
    single-bucket task. ``get`` resolves a list of what ``call`` returned
    (``ray.get``, or the identity). ``load_refs`` are the buckets' issued
    ``load`` calls, which give their rdfs:subClassOf rows.

    After its load a bucket receives ``derive_focus``, then ONE
    ``run_round`` per round, then ``finish``: rounds + 2 calls. A round's
    bookkeeping fills per-bucket outboxes — routed focus pairs, new
    requests, answers to forward, the cycle-break list — that the next
    round's call carries, so a round costs one blocking ``get``. Returns
    ``(result, dep_state)``: the summed shard stats when ``output_dir``
    is given, else the (typing, report) tables.
    """

    def every(method, *args):
        return get([call(b, method, *args) for b in range(nbuckets)])

    # the focus step: every bucket resolves the patterns against its loaded
    # arcs, so the input is scanned once, by the split. Only the object-side
    # and concrete pairs cross the driver; a SHACL run first compiles its
    # targets, which needs the (tiny) rdfs:subClassOf rows of every bucket
    subclass_rows = get(load_refs)
    focus = _focus_patterns(focus_tasks)
    closure = None
    if focus is None:
        focus = _target_patterns(schema, pa.concat_tables(subclass_rows))
        closure = schema["subclass_closure"]
    patterns, concrete = focus
    focus_out = _route_tasks(
        pa.concat_tables([concrete] + every("derive_focus", patterns, closure)),
        nbuckets,
    )
    requests_out: dict[int, pa.Table] = {}
    answers_out: dict[int, list] = {}
    assume: list = []

    # ---- driver loop: only dependency traffic crosses the driver
    need_by: dict[tuple[str, str], set[int]] = {}
    answered_vals: dict[tuple[str, str], str] = {}
    forwarded: set[tuple[tuple[str, str], int]] = set()

    # Productive rounds never count against the cap (a deep shape-reference
    # chain legitimately needs depth-many rounds); only consecutive
    # non-productive rounds do. Pairs still pending when the loop exits are
    # marked val='unknown' — never silently dropped (a truncated validation
    # must not read as a clean pass).
    rounds = 0
    stalls = 0
    just_broke = False
    while rounds < 100_000:  # safety valve; real exits are below
        rounds += 1
        results = get([
            call(b, "run_round", focus_out.get(b), requests_out.get(b),
                 answers_out.get(b, []), assume)
            for b in range(nbuckets)
        ])
        focus_out, answers_out, assume = {}, {}, []
        total_decided = sum(r[0] for r in results)
        total_pending = sum(r[1] for r in results)
        progress = total_decided > 0
        # every bucket's answers first: a child answered anywhere this
        # round is forwarded now, not requested again
        for _nd, _np, _deps, answered in results:
            for nk, sk, val in answered:
                answered_vals[(nk, sk)] = val
        new_child_tasks: set[tuple[str, str]] = set()
        for b, (_nd, _np, deps, _answered) in enumerate(results):
            for child in deps:
                if b not in need_by.setdefault(child, set()):
                    need_by[child].add(b)
                    progress = True
                if child not in answered_vals:
                    new_child_tasks.add(child)
        # newly-requested child pairs go to their buckets with the next
        # round; a request for an already-decided pair is answered there
        uniq = sorted(new_child_tasks)
        requests_out = _route_tasks(
            _pairs_table([c[0] for c in uniq], [c[1] for c in uniq]), nbuckets
        )
        # forward decided answers to the buckets waiting on them
        done_children: list = []
        for child, buckets in need_by.items():
            val = answered_vals.get(child)
            if val is None:
                continue
            for b in buckets:
                if (child, b) not in forwarded:
                    forwarded.add((child, b))
                    # hop answers carry their value-list payload verbatim;
                    # everything else reduces to a conformance boolean
                    payload = (
                        val
                        if child[1].startswith(("hop:", "vshape:"))
                        else (val == "conforms")
                    )
                    answers_out.setdefault(b, []).append((child[0], child[1], payload))
                    progress = True
            done_children.append(child)  # every requester now forwarded
        # evict fully-forwarded deps: driver state stays O(in-flight deps),
        # not O(all deps ever). A LATE request for an evicted child is
        # answered from its bucket's typing in the round that carries it,
        # so nothing is lost by forgetting it here.
        for child in done_children:
            for b in need_by.pop(child):
                forwarded.discard((child, b))
            answered_vals.pop(child, None)

        if total_pending == 0 and not new_child_tasks:
            break
        if progress:
            stalls = 0
            just_broke = False
            continue
        stalls += 1
        unresolved = sorted(c for c in need_by if c not in answered_vals)
        if unresolved and not just_broke:
            # cross-bucket cycle: close coinductively (assume conforms) in
            # the next round. Repeated breaks are allowed as long as each
            # one unblocks progress — a break that moves nothing ends the
            # loop.
            assume = unresolved
            just_broke = True
            continue
        if just_broke or not unresolved or stalls >= max(2, max_rounds):
            break

    # observable driver-state bound (tests assert these stay at the
    # in-flight level, not the all-deps-ever level)
    dep_state = {
        "need_by": len(need_by),
        "answered_vals": len(answered_vals),
        "forwarded": len(forwarded),
    }

    # anything still pending is UNDECIDED — surfaced, not dropped. With an
    # output dir each bucket writes its own shard and only per-bucket
    # summary counts reach the driver
    finished = every("finish", output_dir)
    if output_dir is not None:
        stats: dict[str, int] = {}
        for s in finished:
            for k, v in s.items():
                stats[k] = stats.get(k, 0) + v
        return stats, dep_state
    return (
        pa.concat_tables([f[0] for f in finished]),
        pa.concat_tables([f[1] for f in finished]),
    ), dep_state


def _load_bucket(bucket: _Bucket, *parts: pa.Table):
    """Fleet load task: ``bucket`` reads its split parts. Returns its
    finalized graph, its call state (the bucket without the graph) and
    its rdfs:subClassOf rows, as three objects. The graph is final from
    here on, so
    when a pair may walk the per-focus path the per-node indexes are
    built now: an index a round task built would die with the task. No
    spill dir: the graph lives in the object store, which spills."""
    subclass_rows = bucket.load(*parts)
    graph = bucket.__dict__.pop("graph")
    if bucket.walks():
        graph._fwd, graph._rev  # each property builds its index on first use
    return graph, bucket, subclass_rows


def _call_bucket(graph: LazyBucketGraph, bucket: _Bucket, method: str, *args):
    """Fleet round task: one ``_bsp`` call of ``method`` on the bucket
    state ``bucket`` over its ``graph``. Returns the next state and the
    method's result. A pure function of its arguments, so Ray may rerun
    it when its worker dies."""
    bucket.graph = graph
    out = getattr(bucket, method)(*args)
    del bucket.graph
    return bucket, out


_load_task = ray.remote(num_returns=3)(_load_bucket)
_call_task = ray.remote(num_returns=2)(_call_bucket)


def _run_fleet(schema, engine, nbuckets, include_inverse, plan, focus_tasks,
               max_rounds, output_dir):
    """``nbuckets > 1``: one split-task exchange, one load task per
    bucket, then one ``_call_task`` per bucket call — ``derive_focus``,
    one ``run_round`` per round and ``finish`` (``_bsp``). ``states[b]`` is
    the ref of bucket ``b``'s latest state: each call takes it and
    replaces it, so a bucket's calls run in the order made."""
    split_refs = exchange.split(
        _route_arcs, (include_inverse,), plan, ARC_SCHEMA, ARC_COLS,
        nbuckets=nbuckets,
    )
    graphs, states, load_refs = map(list, zip(*(
        _load_task.remote(
            _Bucket(schema, engine, nbuckets, b), *[blk[b] for blk in split_refs]
        )
        for b in range(nbuckets)
    )))

    def call(b, method, *args):
        states[b], out = _call_task.remote(graphs[b], states[b], method, *args)
        return out

    return _bsp(call, ray.get, nbuckets, schema, focus_tasks, load_refs,
                max_rounds, output_dir)


def _run_single_bucket(schema, engine, include_inverse, files, focus_tasks,
                       max_rounds, output_dir, *blocks):
    """``nbuckets == 1``: the whole fixpoint in this process, one
    ``_Bucket`` driven by the same loop as the fleet through plain method
    calls. ``blocks`` holds the input's triple blocks when ``files`` is
    None.

    Runs as one Ray task on a worker that later tasks reuse, so it
    leaves the worker as it found it: GC unfrozen, spill directory
    removed."""
    import gc
    import shutil
    import tempfile

    spill_dir = tempfile.mkdtemp(prefix="shaclex-b0-")
    try:
        bucket = _Bucket(schema, engine, 1, 0, spill_dir)
        (arcs,) = exchange.run_split(
            _route_arcs, (include_inverse,), 1, ARC_SCHEMA, ARC_COLS,
            *(files or blocks),
        )
        load_refs = [bucket.load(arcs)]
        del arcs  # the index owns the arcs now; free the split's copy
        # the loaded graph is long-lived: freeze it (and whatever the
        # reused worker carried in) out of the cyclic GC, so the round
        # kernels' allocations don't pay repeated gen2 scans over static
        # objects. No gc.collect() first: a full collection of a warm
        # worker's heap costs ~0.1 s, the whole floor of a small
        # validation
        gc.freeze()
        return _bsp(
            lambda _b, method, *args: getattr(bucket, method)(*args),
            lambda results: results, 1, schema, focus_tasks, load_refs,
            max_rounds, output_dir,
        )
    finally:
        gc.unfreeze()
        shutil.rmtree(spill_dir, ignore_errors=True)


_single_bucket_task = ray.remote(_run_single_bucket)


def distributed_validate(
    triples_ds,
    engine: str,
    schema: dict,
    focus_tasks,
    nbuckets: int | None = None,
    include_inverse: bool = False,
    max_rounds: int = 12,
    output_dir: str | None = None,
    parquet_path: str | None = None,
):
    """Run the BSP typing fixpoint over ``triples_ds`` (a Dataset of
    triples, or an ``exchange.Sunk`` of triple blocks) or, when it is
    None, over the parquet shards under ``parquet_path``.

    ``focus_tasks`` is one of three forms, all resolved in the buckets'
    one focus step (``_bsp``): ``"shacl-targets"`` (the schema's SHACL
    target declarations), a ``("shex-patterns", assocs, concrete)`` tuple
    (shapemap pattern selectors plus a concrete (node, shape) table) or a
    (node, shape) pa.Table of term and shape keys. Anything else raises
    ``TypeError``.
    Returns (typing, report) as pyarrow Tables — unless ``output_dir`` is
    given, in which case each bucket writes its own parquet shard under
    ``{output_dir}/typing`` and ``{output_dir}/report`` (a table no
    bucket had rows for gets one typed empty part) and the return value
    is the summary stats: typing rows per verdict (``val``) plus the
    report rows as ``violations``.
    The stats are also kept as ``distributed_validate.last_stats``, which
    the benchmark's tracer reads.

    One driver loop (``_bsp``) runs in one of two ways, chosen here from
    ``nbuckets`` (given, or ``exchange.plan``'s fleet size for the
    input's arc columns: one bucket per ``FLEET_BYTES``, capped at the
    CPU count, a coarser grain than the exchange's tasks): at
    ``nbuckets == 1`` the whole fixpoint — read, split, load, focus
    derivation, rounds, output — runs as ONE task; above it, as plain
    tasks: one load task per bucket, then one task per bucket call, with
    each bucket's graph and state in the object store (``_run_fleet``).
    After its load a bucket gets rounds + 2 calls: ``derive_focus``, one
    ``run_round`` per round, ``finish``.
    Each call re-reads its input and recompiles its schema: nothing
    computed in one call reaches the next.
    """
    _focus_patterns(focus_tasks)  # a bad focus form fails before any work
    if engine == "shex":
        # EXTERNAL shapes with an attached resolver schema merge in here on
        # the driver: the extern definition replaces the ShapeExternal under
        # its label, so the bucket protocol (ref probes, neighborhood
        # co-location) treats it like any other labeled shape
        ext = schema.get("externs")
        if ext:
            schema = dict(schema)
            shapes = dict(schema.get("shapes", {}))
            for lbl, se in list(shapes.items()):
                if (
                    isinstance(se, dict)
                    and se.get("type") == "ShapeExternal"
                    and lbl in ext.get("shapes", {})
                ):
                    shapes[lbl] = ext["shapes"][lbl]
            for lbl, se in ext.get("shapes", {}).items():
                shapes.setdefault(lbl, se)
            te = dict(schema.get("te_refs", {}))
            te.update(ext.get("te_refs", {}) or {})
            schema["shapes"], schema["te_refs"] = shapes, te
            schema["externs"] = None
        # schema startActs run once per validation invocation; a failing
        # one fails every node — decided here on the driver (pure,
        # data-free) by rewriting every shape to an always-false expr,
        # so no bucket machinery needs a special case
        from shaclex_ray.validate.local import run_sem_acts

        if not run_sem_acts(schema.get("startActs")):
            always_fail = {"type": "ShapeNot", "shapeExpr": {"type": "Shape"}}
            schema = dict(schema)
            schema["shapes"] = {
                lbl: always_fail for lbl in schema.get("shapes", {})
            }
            if schema.get("start") is not None:
                schema["start"] = always_fail
            schema["startActs"] = None
        register_inline_shapes(schema)
    # inverse constraints require reversed arc copies (and route literal
    # focus nodes to a home bucket so their arcs_in are co-located)
    has_inv = schema_has_inverse(engine, schema)
    schema["_has_inverse"] = has_inv
    include_inverse = include_inverse or has_inv

    # plan the input FIRST (parquet footers and one sampled row group,
    # block metadata, or a Sunk's reported bytes — cheap), so an auto
    # fleet (nbuckets=None) scales with the bytes it moves: a small corpus
    # runs as one task, a large one on the whole cluster. One bucket over
    # parquet shards needs no plan: its task reads the files itself
    if parquet_path is not None:
        import glob as _glob

        files = sorted(_glob.glob(f"{parquet_path}/*.parquet"))
        if not files:
            raise FileNotFoundError(f"no parquet shards under {parquet_path}")
        plan = None if nbuckets == 1 else exchange.plan(files, ARC_COLS)
    else:
        files = None
        plan = exchange.plan(triples_ds.materialize(), ARC_COLS)
    nbuckets = nbuckets or plan.fleet
    distributed_validate.last_nbuckets = nbuckets

    # the one regime choice
    if nbuckets == 1:
        arc_refs = [] if files else list(plan.inputs)
        out, dep_state = ray.get(
            _single_bucket_task.remote(
                schema, engine, include_inverse, files, focus_tasks,
                max_rounds, output_dir, *arc_refs,
            )
        )
    else:
        out, dep_state = _run_fleet(
            schema, engine, nbuckets, include_inverse, plan, focus_tasks,
            max_rounds, output_dir,
        )
    distributed_validate.last_dep_state = dep_state
    if output_dir is None:
        return out
    distributed_validate.last_stats = out
    # a table no bucket had rows for gets one typed empty part
    ensure_parquet_schema(f"{output_dir}/typing", TYPING_SCHEMA)
    ensure_parquet_schema(f"{output_dir}/report", REPORT_SCHEMA)
    return out


# ---------------------------------------------------------------------------
# SHACL target declarations as focus patterns (SURVEY.md J2)

def _target_patterns(schema: dict, subclass_rows: pa.Table):
    """Compile the schema's target declarations into ``(patterns,
    concrete)`` for ``_Bucket.derive_focus``, given every bucket's
    (child, parent) rdfs:subClassOf rows: a class target (explicit or
    implicit) selects the subjects of rdf:type arcs whose object is in
    the class's subclass closure, targetSubjectsOf / targetObjectsOf the
    subjects / objects of their predicate, targetNode its node. Attaches
    ``subclass_closure`` to ``schema`` (the sh:class components need it)."""
    children: dict[str, set[str]] = {}
    for child, parent in zip(
        subclass_rows.column("child").to_pylist(),
        subclass_rows.column("parent").to_pylist(),
    ):
        children.setdefault(parent, set()).add(child)

    def closure(cls_key: str) -> list[str]:
        seen = {cls_key}
        frontier = [cls_key]
        while frontier:
            cur = frontier.pop()
            for ch in children.get(cur, ()):
                if ch not in seen:
                    seen.add(ch)
                    frontier.append(ch)
        return sorted(seen)

    patterns, nodes, node_shapes = [], [], []
    for skey in schema["with_targets"]:
        shape = schema["shapes"][skey]
        implicit = [("class", skey)] if shape["implicit_class"] else []
        for kind, val in [*shape["targets"], *implicit]:
            if kind == "node":
                nodes.append(val)
                node_shapes.append(skey)
            elif kind == "class":
                patterns.append(("focus_subj", RDF_TYPE, closure(val), skey))
            elif kind == "subjectsOf":
                patterns.append(("focus_subj", val, None, skey))
            elif kind == "objectsOf":
                patterns.append(("focus_obj", val, None, skey))
    schema["subclass_closure"] = {
        ck: closure(ck) for ck in _all_class_params(schema)
    }
    return patterns, _pairs_table(nodes, node_shapes)


def _all_class_params(schema: dict) -> set[str]:
    out = set()
    for sh in schema["shapes"].values():
        if not sh:
            continue
        for kind, params in sh["components"]:
            if kind == "class":
                out.add(params["cls"])
    return out
