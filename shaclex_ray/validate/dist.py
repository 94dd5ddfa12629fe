"""Distributed shape validation: a semi-naive BSP fixpoint on Ray.

Ray-native re-expression of the reference's recursive neighborhood-closure
validation (SURVEY.md §2.9; worklist semantics per weso/shaclex
modules/slang/src/main/scala/es/weso/slang/ValidateND.scala:44-122):

  * ONE explicit hash shuffle routes every triple to the bucket of its
    subject (plus, optionally, a reversed copy to its object's bucket for
    incoming arcs), so each focus node's neighborhood is co-located (J3)
  * each bucket is a **persistent** ``_Bucket`` (SURVEY.md A2: the one
    stateful stage the Dataset API can't express — partitioned state
    reused across fixpoint rounds): it builds its neighborhood index once
    and then evaluates (node, shape) pairs with the in-memory,
    conformance-verified validator semantics
  * a pair whose evaluation needs the conformance of a *remote* node
    (value-shape recursion J5 / sh:class of a value node) reports a
    dependency; the child's decided conformance is routed back as an
    assumption the next round (the typing-join G9). Per-round traffic is
    only tasks + assumptions — the arc data never moves again
  * rounds repeat until no pair flips; unresolved cross-bucket cycles then
    close coinductively (assume conforms — the greatest-fixpoint reading,
    ValidateND.scala:51-54)

Two transports, one driver loop (``_bsp``, written against a call/get
pair), chosen in ``distributed_validate`` from ``nbuckets``:

  * ``nbuckets > 1``: one ``BucketWorker`` actor per bucket (the
    ``_Bucket`` class as a Ray actor), fed by the one hash exchange's
    split tasks (``stages/exchange.split``) and called through actor
    handles. The actors come from a session-scoped pool (``_ActorPool``):
    a warm call spawns nothing, a successful one checks its actors back
    in, a failed one releases and kills them. Only the processes are
    reused — each call ``open``s and ``release``s its buckets
  * ``nbuckets == 1``: the whole fixpoint — file read, split, load, focus
    derivation, rounds, cycle-break, output — runs as ONE Ray task on a
    pooled, already-warm worker that calls its ``_Bucket`` in-process: no
    actor spawn, which at a small corpus was half the validation time

Driver-side state is O(|focus pairs| + |distinct dependencies|); arcs (the
100-TB side) are partitioned once and live in the buckets (sized via
``nbuckets`` so a bucket fits a worker's heap; at larger scale the same
buckets would page from the partitioned parquet checkpoints).

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

import re
import threading
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
import polars as _pl
import pyarrow as pa
import pyarrow.compute as pc

import ray

from shaclex_ray.stages import exchange
from shaclex_ray.stages.exchange import _ragged_arange, partition
from shaclex_ray.state.checkpoint import ensure_parquet_schema
from shaclex_ray.terms import RDF_TYPE, key_to_term, subj_to_key, term_key
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


def _remote_marker(focus_key: str, shape_key: str) -> dict:
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
                return [] if ok else [_remote_marker(focus_key, shape_key)]
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
    reversed copy stored at its (IRI/bnode) object's bucket."""
    base = base.combine_chunks()
    n = base.num_rows
    fwd = base.append_column("rev", pa.array(np.zeros(n, dtype=bool)))
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
    """Arrow-native per-node arc index: rows stay COLUMNAR (sorted by a
    dictionary-encoded node key; group boundaries from one int argsort);
    Python tuples materialize only for the slice of an evaluated node.
    Buckets above ``spill_rows`` spill to an Arrow IPC file and reopen
    memory-mapped, so an oversized bucket pages through the OS cache
    instead of dying on worker heap (SURVEY.md dist docstring: "page
    buckets from the partitioned checkpoints")."""

    def __init__(self, tbl: pa.Table, keys: pa.Array, spill_path: str | None, spill_rows: int):
        dic = pc.dictionary_encode(keys)
        codes = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(codes, kind="stable")
        self._tbl = tbl.take(pa.array(order)).combine_chunks()
        sorted_codes = codes[order]
        nkeys = len(dic.dictionary)
        self._starts = np.searchsorted(sorted_codes, np.arange(nkeys + 1))
        # node-key → code lookup (one Python string per DISTINCT node, not
        # per arc — the only eager Python materialization)
        self._keys = dic.dictionary  # code → key (Arrow, zero-copy)
        self._code = {k: i for i, k in enumerate(dic.dictionary.to_pylist())}
        if spill_path is not None and self._tbl.num_rows > spill_rows:
            import pyarrow.feather as _feather

            _feather.write_feather(self._tbl, spill_path, compression="uncompressed")
            mm = pa.memory_map(spill_path)
            self._tbl = pa.ipc.open_file(mm).read_all()  # zero-copy mmap view

    def keys(self):
        return self._code.keys()

    @property
    def table(self) -> pa.Table:
        """The sorted columnar arc table (no node column — use
        ``keys_of_rows`` to recover the node key of a row index)."""
        return self._tbl

    def keys_of_rows(self, rows: np.ndarray) -> pa.Array:
        """Vectorized row-index → node-key lookup (rows into ``table``)."""
        if len(rows) == 0:
            return pa.array([], pa.string())
        codes = np.searchsorted(self._starts, rows, side="right") - 1
        return self._keys.take(pa.array(codes))

    def slice_of(self, key: str) -> pa.Table | None:
        i = self._code.get(key)
        if i is None:
            return None
        s, e = int(self._starts[i]), int(self._starts[i + 1])
        return self._tbl.slice(s, e - s)


# a bucket whose sorted arc table exceeds this many rows spills it to disk
# and reopens it memory-mapped (``spill_rows`` overrides per call)
BUCKET_SPILL_ROWS = 4_000_000


class LazyBucketGraph:
    """Bucket-local neighborhood index, Arrow-native end-to-end.

    Construction: one dictionary-encode + int argsort per direction (C
    kernels); no up-front to_pylist of the arc columns. Python term
    tuples build lazily per evaluated node from a zero-copy table slice
    and are cached with a size cap (the 9.2M-row eager build was a 5-10×
    memory blowup)."""

    CACHE_CAP = 500_000  # cached nodes per direction before a coarse reset

    def __init__(self, spill_dir: str | None = None, spill_rows: int | None = None):
        self._parts: list[pa.Table] = []
        self._finalized = False
        self._spill_dir = spill_dir
        self._spill_rows = spill_rows or BUCKET_SPILL_ROWS

    def add_part(self, tbl: pa.Table):
        self._parts.append(tbl)

    def finalize(self):
        if self._finalized:
            return
        self._finalized = True
        if self._parts:
            t = pa.concat_tables(self._parts).combine_chunks()
        else:
            t = pa.table(
                {
                    "subj": pa.array([], pa.string()),
                    "pred": pa.array([], pa.string()),
                    "obj_kind": pa.array([], pa.string()),
                    "obj_lex": pa.array([], pa.string()),
                    "obj_dt": pa.array([], pa.string()),
                    "obj_lang": pa.array([], pa.string()),
                    "rev": pa.array([], pa.bool_()),
                }
            )
        self._parts = None
        rev_mask = t.column("rev").combine_chunks()
        n_rev = pc.sum(rev_mask).as_py() or 0
        if n_rev == 0:
            fwd, rev = t, t.slice(0, 0)
        else:
            fwd = t.filter(pc.invert(rev_mask))
            rev = t.filter(rev_mask)

        import os as _os

        def spath(tag):
            if self._spill_dir is None:
                return None
            _os.makedirs(self._spill_dir, exist_ok=True)
            return _os.path.join(self._spill_dir, f"{tag}.arrow")

        fkeys = _subj_key_col(fwd.column("subj"))
        self._fwd = _ArcIndex(
            fwd.select(["pred", "obj_kind", "obj_lex", "obj_dt", "obj_lang"]),
            fkeys,
            spath("fwd"),
            self._spill_rows,
        )

        rkeys = _obj_key_col(rev)
        self._rev = _ArcIndex(
            rev.select(["subj", "pred"]), rkeys, spath("rev"), self._spill_rows
        )

        self._out_cache: dict[str, list] = {}
        self._in_cache: dict[str, list] = {}

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
# report rows. A pair blocked on a cross-bucket probe keeps its partial and
# resumes from it (``flat_resume``) — for both engines. The per-focus
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
    ``(conforms: bool[n], report rows per node)``."""

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
                       partial(_class_answer, params["cls"]))
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


def _report_row(e: dict, focus: str, component: str, value=None) -> dict:
    return {
        "focus": focus,
        "path": e["pred"],
        "value": value,
        "component": component,
        "severity": e["severity"],
        "source": e["source"],
        "message": e["message"],
    }


def _shacl_finalize(entries, node_keys, part):
    """SHACL: a count outside its entry's bounds is one more report row —
    sh:minCount / sh:maxCount count every arc, sh:hasValue the arcs
    holding the value — and a node conforms when it has no row."""
    reports = [list(r) for r in part.rows]
    max_count = _component_iri("MaxCount")
    for i, e in enumerate(entries):
        n = part.sat[:, i] if e["qualified"] else part.arcs[:, i]
        low = _component_iri("HasValue" if e["qualified"] else "MinCount")
        for pos in np.flatnonzero(n < e["min"]):
            reports[pos].append(_report_row(e, node_keys[pos], low))
        if e["max"] != -1:
            for pos in np.flatnonzero(n > e["max"]):
                reports[pos].append(_report_row(e, node_keys[pos], max_count))
    return np.array([not r for r in reports], dtype=bool), reports


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
    ok = np.ones(len(node_keys), dtype=bool)
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


class FlatPartial(NamedTuple):
    """A flat shape's evaluation of n focus nodes before its finalize
    rule. Per (focus, entry): ``arcs``, the arc count, and ``sat``, the
    arcs that pass every value check and every answered probe (int64
    [n, entries]). Per focus: ``rows``, its failing-value report rows, and
    ``pending``, its arcs with unanswered probes as ``{(entry, value key):
    [arcs, passed so far, unanswered probe indices]}``."""

    arcs: np.ndarray
    sat: np.ndarray
    rows: list
    pending: list

    def node(self, pos: int) -> "NodePartial":
        """The one-node partial of node ``pos``."""
        return NodePartial(
            tuple(self.arcs[pos].tolist()),
            tuple(self.sat[pos].tolist()),
            self.rows[pos],
            self.pending[pos],
        )


class NodePartial(NamedTuple):
    """One node's ``FlatPartial`` in the form a blocked pair waits in:
    the per-entry counts as tuples of ints (no arrays per pair), its
    report rows and its pending arcs."""

    arcs: tuple
    sat: tuple
    rows: list
    pending: dict


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


def _add_rows(reports, e, node_keys, subj, component, ea, bad) -> None:
    """Failing-value report rows of entry ``e`` for the arcs at ``bad``."""
    if not len(bad):
        return
    values = ea.keys().take(pa.array(bad)).to_pylist()
    for j, v in zip(bad, values):
        reports[subj[j]].append(_report_row(e, node_keys[subj[j]], component, v))


def flat_eval_kernel(
    profile: FlatShape,
    node_keys: list[str],
    graph: "LazyBucketGraph",
    assumptions: dict,
    is_local_key,
    is_instance_fn,
):
    """Vectorized evaluation of one flat shape for MANY focus nodes over
    the bucket's columnar arc table: each node's arcs gather once, every
    entry's value checks run as Arrow/numpy kernels and its probes once
    per distinct value (assumption first, then the probe's bucket-local
    answer), giving a ``FlatPartial``; the shape's finalize rule turns it
    into verdicts and report rows. Returns ``(conforms: bool[n], report
    rows per node, partial)``; a node with pending probes has no verdict
    yet — it resumes through ``flat_resume``. Semantics are pinned to
    ShaclValidator.validate_shape and ShExValidator (fuzzed in
    tests/test_property.py)."""
    entries = profile.entries
    idx = graph._fwd
    n, k = len(node_keys), len(entries)

    # gather each focus node's arc-row range from the sorted index —
    # vectorized ragged-range expansion (no per-node np.arange)
    codes = np.fromiter(
        (idx._code.get(nk, -1) for nk in node_keys), dtype=np.int64, count=n
    )
    have = np.flatnonzero(codes >= 0)
    starts = idx._starts[codes[have]]
    lens = idx._starts[codes[have] + 1] - starts
    arc_rows = np.repeat(starts, lens) + _ragged_arange(lens)
    subj_of_row = np.repeat(have, lens)
    preds = idx._tbl.column("pred").take(pa.array(arc_rows)).combine_chunks()

    arcs = np.zeros((n, k), dtype=np.int64)
    sat = np.zeros((n, k), dtype=np.int64)
    reports: list[list] = [[] for _ in range(n)]
    pending: list[dict] = [{} for _ in range(n)]
    # (value key, probe shape) -> 1 / 0 / -1 (ask the home bucket)
    answers: dict[tuple[str, str], int] = {}

    for i, e in enumerate(entries):
        # value-level work sees only THIS predicate's arcs: column takes
        # shrink from |gathered rows| to |pred matches|
        sel = np.flatnonzero(
            pc.equal(preds, e["pred"]).to_numpy(zero_copy_only=False)
        )
        if not len(sel):
            continue
        subj = subj_of_row[sel]
        arcs[:, i] = np.bincount(subj, minlength=n)
        ea = _EntryArcs(idx._tbl, arc_rows[sel])
        ok = np.ones(len(sel), dtype=bool)
        for op, param, component in e["checks"]:
            good = _check_mask(op, param, ea)
            if component is not None:
                _add_rows(reports, e, node_keys, subj, component, ea,
                          np.flatnonzero(~good))
            ok &= good
        open_ = []
        for probe in e["probes"]:
            dvals, dcodes = ea.distinct()
            st = np.empty(len(dvals), dtype=np.int8)
            for d, v in enumerate(dvals):
                key = (v, probe.shape)
                s = answers.get(key)
                if s is None:
                    a = assumptions.get(key)
                    if a is None:
                        a = probe.answer(v, graph, is_local_key, is_instance_fn)
                    s = answers[key] = -1 if a is None else int(bool(a))
                st[d] = s
            st = st[dcodes]
            if probe.component is not None:
                _add_rows(reports, e, node_keys, subj, probe.component, ea,
                          np.flatnonzero(st == 0))
            ok &= st != 0
            open_.append(st < 0)
        blocked = np.logical_or.reduce(open_) if open_ else np.zeros(len(sel), bool)
        sat[:, i] = np.bincount(subj[ok & ~blocked], minlength=n)
        if blocked.any():
            dvals, dcodes = ea.distinct()
            at = np.flatnonzero(blocked)
            for pos, code, passed, opens in zip(
                subj[at].tolist(), dcodes[at].tolist(), ok[at].tolist(),
                np.stack(open_, axis=1)[at].tolist(),
            ):
                got = pending[pos].get((i, dvals[code]))
                if got is None:
                    pending[pos][(i, dvals[code])] = [
                        1, passed, [p for p, o in enumerate(opens) if o]
                    ]
                else:
                    got[0] += 1

    part = FlatPartial(arcs, sat, reports, pending)
    conforms, rows = profile.finalize(entries, node_keys, part)
    return conforms, rows, part


def flat_resume(profile: FlatShape, focus: str, node: NodePartial,
                assumptions: dict) -> FlatPartial:
    """Merge the answered probes into one node's partial: an arc whose
    probes are all answered satisfies when it passed so far and every
    answer is True; a False answer adds its report row (once per arc).
    The result's pending keeps the probes still unanswered."""
    rows, sat, still = list(node.rows), np.array([node.sat], np.int64), {}
    for (i, v), (mult, ok, open_) in node.pending.items():
        e = profile.entries[i]
        left = []
        for p in open_:
            probe = e["probes"][p]
            a = assumptions.get((v, probe.shape))
            if a is None:
                left.append(p)
            elif not a:
                ok = False
                if probe.component is not None:
                    rows += [
                        _report_row(e, focus, probe.component, v)
                        for _ in range(mult)
                    ]
        if left:
            still[(i, v)] = [mult, ok, left]
        elif ok:
            sat[0, i] += mult
    return FlatPartial(np.array([node.arcs], np.int64), sat, [rows], [still])


def _pending_deps(profile: FlatShape, pending: dict) -> tuple:
    """The sorted (value, shape) dependencies of one node's pending arcs."""
    return tuple(sorted({
        (v, profile.entries[i]["probes"][p].shape)
        for (i, v), (_m, _ok, open_) in pending.items()
        for p in open_
    }))


class _Bucket:
    """Persistent per-bucket evaluator: the neighborhood index AND the
    bucket's pending worklist live here across rounds (schema compiled once
    per bucket — SURVEY.md A1/A2). The driver only routes the (small)
    cross-bucket dependency traffic, so its per-round work is
    O(#dependencies + #buckets), independent of focus-pair count. A plain
    class: the fleet runs it as the pooled ``BucketWorker`` actor, the
    single-bucket regime as an object inside one task. Either way one
    validation call is ``open`` … ``release``: a reused process carries
    nothing from one call to the next."""

    def open(
        self, schema: dict, engine: str, nbuckets: int, bucket_id: int,
        spill_rows: int | None = None,
    ) -> int:
        """Take one call's state. Returns the bucket id (the fleet waits
        on it as the actor's warmup)."""
        self.schema = schema
        self.engine = engine
        self.nbuckets = nbuckets
        self.bucket_id = bucket_id
        import tempfile

        # oversized buckets spill their sorted arc table here and reopen
        # memory-mapped (degrade to OS paging instead of dying on heap)
        self._spill_dir = tempfile.mkdtemp(prefix=f"shaclex-b{bucket_id}-")
        self.graph = LazyBucketGraph(
            spill_dir=self._spill_dir, spill_rows=spill_rows
        )
        self.pending: dict[tuple[str, str], bool] = {}
        self.typing: dict[tuple[str, str], str] = {}
        self.focus_flags: dict[tuple[str, str], bool] = {}
        # pairs other buckets asked for — ONLY their answers cross the
        # driver (the focus typing never leaves the actor until collect)
        self.requested: set[tuple[str, str]] = set()
        self.assumptions: dict[tuple[str, str], bool] = {}
        self.reports: list[dict] = []
        # pair -> unanswered deps it is blocked on (skip re-evaluation until
        # one of them gets an assumption — semi-naive delta, SURVEY.md §7.4)
        self.blocked_on: dict[tuple[str, str], set] = {}
        # node-key -> is-local memo (the scalar stable-hash is ~50µs; value
        # nodes repeat heavily across focus pairs)
        self._local_cache: dict[str, bool] = {}
        # flat-shape check lists (compiled lazily once per call)
        self._flat_profiles: dict[str, FlatShape] | None = None
        # blocked flat pair -> its NodePartial: later rounds resume from
        # here instead of re-running the kernel
        self._flat_partial: dict[tuple[str, str], NodePartial] = {}
        return bucket_id

    def load(self, *parts: pa.Table) -> int:
        n = 0
        for tbl in parts:
            self.graph.add_part(tbl)
            n += tbl.num_rows
        self.graph.finalize()
        # the index (plus whatever a REUSED worker process carried in from
        # earlier task executions) is long-lived: freeze it out of the
        # cyclic GC so the round kernels' allocations don't pay repeated
        # gen2 scans over static objects. (Measured: modest — the dominant
        # round cost was transient page-fault volume in the flat kernels,
        # fixed by the column-at-a-time takes in flat_eval_kernel.) No
        # gc.collect() first: a full collection of a warm worker's heap
        # costs ~0.1 s, the whole floor of a small validation. Both
        # transports run on reused processes, so ``release`` unfreezes.
        import gc

        gc.freeze()
        return n

    # ---- in-bucket SHACL target derivation (focus_tasks="shacl-targets"):
    # the bucket holds every outgoing arc of its subjects, so subject-side
    # targets (targetClass / implicit class / targetSubjectsOf) resolve and
    # enqueue LOCALLY; only rdfs:subClassOf rows (tiny) and
    # targetObjectsOf pairs (object nodes may live elsewhere) return to
    # the driver. Replaces a full second scan of the input Dataset.

    def subclass_rows(self) -> pa.Table:
        """(child_key, parent_key) pairs from this bucket's forward arcs."""
        idx_obj = self.graph._fwd
        t = idx_obj.table
        mask = pc.equal(t.column("pred"), RDFS_SUBCLASS).combine_chunks()
        rows = np.nonzero(mask.to_numpy(zero_copy_only=False))[0]
        if len(rows) == 0:
            return pa.table(
                {"child": pa.array([], pa.string()), "parent": pa.array([], pa.string())}
            )
        child = idx_obj.keys_of_rows(rows)
        sub = t.take(pa.array(rows))
        parent = pc.binary_join_element_wise(
            pc.if_else(
                pc.equal(sub.column("obj_kind").combine_chunks(), "iri"), "I", "B"
            ),
            sub.column("obj_lex").combine_chunks(),
            "",
        )
        return pa.table({"child": child, "parent": parent})

    def derive_targets(self, spec: dict, closure: dict) -> pa.Table:
        """Scan the local arc index for target matches; enqueue local
        (subject-side) pairs directly, return object-side pairs for the
        driver to route. ``closure`` is the subclass closure the schema
        was shipped without (it needed the subclass rows first)."""
        self.schema["subclass_closure"] = closure
        idx_obj = self.graph._fwd
        t = idx_obj.table
        pred = t.column("pred")
        for cls_iris, sk in spec["class_targets"]:
            mask = pc.and_(
                pc.equal(pred, RDF_TYPE),
                pc.is_in(
                    t.column("obj_lex"), value_set=pa.array(sorted(cls_iris))
                ),
            ).combine_chunks()
            rows = np.nonzero(mask.to_numpy(zero_copy_only=False))[0]
            keys = idx_obj.keys_of_rows(rows)
            self.submit(
                pa.table(
                    {"node": keys, "shape": pa.array([sk] * len(keys), pa.string())}
                ),
                True,
            )
        for p, sk in spec["subjects_of"]:
            mask = pc.equal(pred, p).combine_chunks()
            rows = np.nonzero(mask.to_numpy(zero_copy_only=False))[0]
            keys = idx_obj.keys_of_rows(rows)
            self.submit(
                pa.table(
                    {"node": keys, "shape": pa.array([sk] * len(keys), pa.string())}
                ),
                True,
            )
        remote_parts: list[pa.Table] = []
        for p, sk in spec["objects_of"]:
            sub = t.filter(pc.equal(pred, p))
            keys = _obj_key_col(sub)
            remote_parts.append(
                pa.table(
                    {"node": keys, "shape": pa.array([sk] * len(keys), pa.string())}
                )
            )
        if not remote_parts:
            return pa.table(
                {"node": pa.array([], pa.string()), "shape": pa.array([], pa.string())}
            )
        return pa.concat_tables(remote_parts)

    def derive_focus(self, assocs: list[dict]) -> pa.Table:
        """In-bucket shapemap pattern resolution (fixShapeMap,
        ShapeMaps.scala semantics): ``{FOCUS p o}`` matches are SUBJECTS of
        local arcs — every outgoing arc lives in its subject's home
        bucket, so they enqueue locally and completely. ``{s p FOCUS}``
        matches are OBJECTS, whose home bucket may differ — those pairs
        return to the driver for routing (mirrors targetObjectsOf in
        derive_targets). Replaces a full second scan of the input
        Dataset with a scan of the already-resident bucket index."""
        from shaclex_ray.terms import obj_cols, term_key

        idx_obj = self.graph._fwd
        t = idx_obj.table
        pred = t.column("pred")
        remote: list[pa.Table] = []
        for a in assocs:
            mask = pc.equal(pred, a["pred"])
            if a["kind"] == "focus_subj":
                if a.get("obj") is not None:
                    k, lx, _dt, _lg = obj_cols(a["obj"])
                    mask = pc.and_(mask, pc.equal(t.column("obj_kind"), k))
                    mask = pc.and_(mask, pc.equal(t.column("obj_lex"), lx))
                rows = np.nonzero(
                    mask.combine_chunks().to_numpy(zero_copy_only=False)
                )[0]
                keys = idx_obj.keys_of_rows(rows)
                self.submit(
                    pa.table(
                        {
                            "node": keys,
                            "shape": pa.array([a["shape"]] * len(keys), pa.string()),
                        }
                    ),
                    True,
                )
            else:  # focus_obj
                rows = np.nonzero(
                    mask.combine_chunks().to_numpy(zero_copy_only=False)
                )[0]
                if a.get("subj") is not None:
                    skey = term_key(a["subj"])
                    keys = idx_obj.keys_of_rows(rows)
                    keep = pc.equal(keys, skey).to_numpy(zero_copy_only=False)
                    rows = rows[keep]
                sub = t.take(pa.array(rows))
                keys = _obj_key_col(sub)
                remote.append(
                    pa.table(
                        {
                            "node": keys,
                            "shape": pa.array(
                                [a["shape"]] * len(keys), pa.string()
                            ),
                        }
                    )
                )
        if not remote:
            return pa.table(
                {"node": pa.array([], pa.string()), "shape": pa.array([], pa.string())}
            )
        return pa.concat_tables(remote)

    def submit(self, tasks: pa.Table, is_focus: bool) -> list:
        """Enqueue (node, shape) pairs; idempotent (already-known pairs are
        skipped), so upstream dedup of focus pairs is unnecessary — the
        worklist IS the dedup. Non-focus submissions are *requests* from
        other buckets: only those pairs' answers ever travel back through
        the driver. Returns already-decided requested pairs immediately."""
        already = []
        for nk, sk in zip(
            tasks.column("node").to_pylist(), tasks.column("shape").to_pylist()
        ):
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

    def add_assumptions(self, asms: list):
        for nk, sk, val in asms:
            if isinstance(val, str) and val.startswith("vals:"):
                import json as _json

                val = _json.loads(val[5:])  # hop answer: value-key list
            elif isinstance(val, str) and val.startswith("rows:"):
                import json as _json

                val = _json.loads(val[5:])  # vshape answer: report rows
            self.assumptions[(nk, sk)] = val
        answered = {(nk, sk) for nk, sk, _v in asms}
        # non-mutating subtraction: dep sets may be shared across pairs
        for pair in list(self.blocked_on):
            remaining = self.blocked_on[pair] - answered
            if remaining:
                self.blocked_on[pair] = remaining
            else:
                del self.blocked_on[pair]

    def _flat_round(self, keys, is_local_key, decided, all_deps):
        """Evaluate unblocked pending pairs of flat shapes, for either
        engine. A pair with a stored partial resumes from it: its answered
        probes merge in and the shape's finalize rule runs again — no
        kernel re-run over its arcs. The others run the kernel, once per
        shape. A pair whose partial still waits on probes stores it and
        blocks on them (identical dep combinations share ONE set object —
        millions of pairs block on a handful of hub values)."""
        profiles = self._flat_profiles
        done = []  # (pair, profile, conforms, reports, partial, position)
        fresh: dict[str, list] = {}
        for key in keys:
            part = self._flat_partial.pop(key, None)
            if part is None:
                fresh.setdefault(key[1], []).append(key[0])
                continue
            prof = profiles[key[1]]
            part = flat_resume(prof, key[0], part, self.assumptions)
            conforms, reports = prof.finalize(prof.entries, [key[0]], part)
            done.append((key, prof, conforms, reports, part, 0))
        for sk, nks in sorted(fresh.items()):
            prof = profiles[sk]
            conforms, reports, part = flat_eval_kernel(
                prof, nks, self.graph, self.assumptions, is_local_key,
                self._local_is_instance,
            )
            done.extend(
                ((nk, sk), prof, conforms, reports, part, pos)
                for pos, nk in enumerate(nks)
            )
        interned: dict[tuple, set] = {}
        for key, prof, conforms, reports, part, pos in done:
            if part.pending[pos]:
                sig = _pending_deps(prof, part.pending[pos])
                shared = interned.get(sig)
                if shared is None:
                    shared = interned[sig] = set(sig)
                    all_deps |= {d for d in shared if d not in self.assumptions}
                self.blocked_on[key] = shared
                self._flat_partial[key] = part.node(pos)
                continue
            self.typing[key] = "conforms" if conforms[pos] else "notConforms"
            decided.append(key)
            if key in self.focus_flags:
                self.reports.extend(reports[pos])

    def _local_is_instance(self, node_key: str, cls_key: str) -> bool:
        closure = set(
            self.schema.get("subclass_closure", {}).get(cls_key, [cls_key])
        )
        from shaclex_ray.terms import term_key as _tk

        for p, o in self.graph.arcs_out(node_key):
            if p == RDF_TYPE and _tk(o) in closure:
                return True
        return False

    def run_round(self):
        """Evaluate every pending pair against local arcs + assumptions.
        Returns (n_decided, n_pending, deps, answered):
          deps     — still-unanswered (child_node, child_shape) this bucket
                     needs from other buckets
          answered — (node, shape, val) decided this round (the driver
                     forwards the ones other buckets wait on)
        """
        nb = self.nbuckets
        me = self.bucket_id
        assumptions = self.assumptions
        cache = self._local_cache

        # literals have no outgoing arcs, so without inverse constraints any
        # bucket evaluates them correctly (term-local fast path); WITH
        # inverse constraints a literal focus must run in its home bucket
        # where its reversed copies live
        lit_local = not self.schema.get("_has_inverse")

        def is_local_key(nk: str) -> bool:
            v = cache.get(nk)
            if v is None:
                if nk.startswith("L") and lit_local:
                    v = True
                else:
                    v = node_key_bucket(nk, nb) == me
                cache[nk] = v
            return v

        def is_local_term(t: tuple) -> bool:
            return is_local_key(term_key(t))

        decided = []
        all_deps: set = set()

        # vectorized flat pass: pending pairs of flat shapes evaluate in
        # bulk with Arrow/numpy kernels (per-focus Python walk only for
        # the rest)
        flat: list = []
        if not self.schema.get("_no_flat"):
            if self._flat_profiles is None:
                self._flat_profiles = _FLAT_PROFILES[self.engine](self.schema)
            flat = [
                key for key in self.pending
                if key[1] in self._flat_profiles and key not in self.blocked_on
            ]
            self._flat_round(flat, is_local_key, decided, all_deps)
        flat_handled = set(flat)

        for key in list(self.pending):
            if key in flat_handled:
                continue
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
                    cls_key = shape_key[len("class:") :]
                    v = _DistShacl(self.schema, self.graph, assumptions, is_local_key, record)
                    ok = ShaclValidator._is_instance(v, nk, cls_key)
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
                    import json as _json

                    self.typing[key] = "vals:" + _json.dumps(sorted(set(vals)))
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
                        import json as _json

                        rows = [
                            r for r in rres
                            if r["component"] != _REMOTE_NC_COMPONENT
                        ]
                        self.typing[key] = "rows:" + _json.dumps(rows)
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
        # typing stays actor-side (driver memory is O(#cross-bucket deps),
        # not O(#focus pairs))
        answered = [
            (k[0], k[1], self.typing[k]) for k in decided if k in self.requested
        ]
        return len(decided), len(self.pending), sorted(all_deps), answered

    def release(self) -> None:
        """End the call: remove the spill directory, drop every piece of
        call state (index, worklists, typing, reports) and unfreeze the GC
        that ``load`` froze. Safe on a partly opened bucket. The fleet
        calls it before an actor goes back to the pool, and before a kill
        on failure (``ray.kill`` skips destructors); the single-bucket
        task in a ``finally``."""
        import gc
        import shutil

        spill_dir = self.__dict__.get("_spill_dir")
        if spill_dir:
            shutil.rmtree(spill_dir, ignore_errors=True)
        self.__dict__.clear()
        gc.unfreeze()

    def mark_pending_unknown(self) -> int:
        """Loop-exit fallback: pairs the fixpoint could not decide become
        val='unknown' (result_json/_summary treat them as not valid)."""
        n = 0
        for key in list(self.pending):
            if key not in self.typing:
                self.typing[key] = "unknown"
                n += 1
        self.pending.clear()
        self.blocked_on.clear()
        self._flat_partial.clear()
        return n

    def assume_deps(self, deps: list):
        """Cycle-breaking: treat listed unanswered deps as conforming
        (coinductive close, ValidateND.scala:51-54 reading); unanswered
        path hops close with an empty value set."""
        for nk, sk in deps:
            default = [] if sk.startswith("hop:") else True
            self.assumptions.setdefault((nk, sk), default)
        answered = set(map(tuple, deps))
        for pair in list(self.blocked_on):
            remaining = self.blocked_on[pair] - answered
            if remaining:
                self.blocked_on[pair] = remaining
            else:
                del self.blocked_on[pair]

    def collect(self):
        return _typing_table(self.typing, self.focus_flags), self.reports

    def write_shard(self, out_dir: str) -> dict:
        """Actor-side result sink: each bucket writes its own typing/report
        parquet shard — the full tables never concat on the driver
        (SURVEY.md §4.2 resumable-output layout). A table without rows
        writes no shard (``exchange.sink``'s rule)."""
        import os

        import pyarrow.parquet as pq

        t = _typing_table(self.typing, self.focus_flags)
        r = _reports_to_table(self.reports)
        for sub, tbl in (("typing", t), ("report", r)):
            os.makedirs(f"{out_dir}/{sub}", exist_ok=True)
            if tbl.num_rows:
                pq.write_table(
                    tbl, f"{out_dir}/{sub}/part-{self.bucket_id:05d}.parquet"
                )
        stats: dict[str, int] = {"violations": r.num_rows}
        for v in t.column("val").to_pylist():
            stats[v] = stats.get(v, 0) + 1
        return stats


BucketWorker = ray.remote(_Bucket)


def _typing_table(typing: dict, focus) -> pa.Table:
    """The ``focus`` pairs' typing, sorted. A pair decided only because
    another bucket asked for it (a shape, ``class:``, ``hop:`` or
    ``vshape:`` probe) is a protocol answer: one bucket answers the same
    probe in-process and writes nothing, so writing it would make the
    table depend on the bucket count."""
    keys = sorted(k for k in typing if k in focus)
    return pa.table(
        {
            "node": pa.array([k[0] for k in keys], pa.string()),
            "shape": pa.array([k[1] for k in keys], pa.string()),
            "val": pa.array([typing[k] for k in keys], pa.string()),
            "is_focus": pa.array([True] * len(keys), pa.bool_()),
        }
    )


def _reports_to_table(reports: list) -> pa.Table:
    return pa.table(
        {
            "focus_node": pa.array([r["focus"] for r in reports], pa.string()),
            "path": pa.array([r["path"] or "" for r in reports], pa.string()),
            "value_lex": pa.array([r["value"] or "" for r in reports], pa.string()),
            "source_shape": pa.array([r["source"] for r in reports], pa.string()),
            "component": pa.array([r["component"] for r in reports], pa.string()),
            "severity": pa.array([r["severity"] for r in reports], pa.string()),
            "message": pa.array([r["message"] for r in reports], pa.string()),
        }
    )


def _route_tasks(tasks: pa.Table, nbuckets: int) -> dict[int, pa.Table]:
    """Vectorized (node, shape) routing to buckets by ``node_key_bucket``'s
    rule: an IRI key hashes without its 'I', a blank node as '_:' + its
    label, a literal as its whole key."""
    if tasks.num_rows == 0:
        return {}
    nodes = tasks.column("node").combine_chunks()
    body = pc.utf8_replace_slice(nodes, 0, 1, "")
    home = pc.if_else(
        pc.starts_with(nodes, "B"),
        pc.binary_join_element_wise("_:", body, ""),
        pc.if_else(pc.starts_with(nodes, "L"), nodes, body),
    )
    parts = partition(tasks, stable_bucket_array(home, nbuckets), nbuckets)
    return {b: part for b, part in enumerate(parts) if part.num_rows}


def _submit_focus_dataset(focus_ds, workers, nbuckets: int) -> None:
    """Stream a focus Dataset straight into the bucket actors: each read
    task routes its batch and blocks on acceptance (backpressure). The
    focus set NEVER materializes on the driver — submit() dedups
    actor-side, so no global drop_duplicates pass is needed."""

    def route(batch: pa.Table) -> pa.Table:
        refs = [
            workers[b].submit.remote(tbl, True)
            for b, tbl in _route_tasks(batch, nbuckets).items()
        ]
        if refs:
            ray.get(refs)
        return pa.table({"n": pa.array([batch.num_rows], pa.int64())})

    # consume with a tiny aggregate — only per-batch counts reach the driver
    focus_ds.map_batches(route, batch_format="pyarrow").sum("n")


def _marker():
    """``mark(label)`` prints the seconds since the previous mark when
    SHACLEX_DIST_DEBUG is set."""
    import os as _os
    import time as _time

    dbg = _os.environ.get("SHACLEX_DIST_DEBUG")
    t0 = _time.perf_counter()

    def mark(label):
        nonlocal t0
        if dbg:
            print(f"[dist] {label}: {_time.perf_counter() - t0:.2f}s", flush=True)
        t0 = _time.perf_counter()

    return mark


def _bsp(call, get, nbuckets, schema, focus_tasks, load_refs, max_rounds,
         output_dir, mark):
    """The BSP driver loop, written once for both transports.

    ``call(b, method, *args)`` invokes bucket ``b``'s method: an actor
    call returning a ref in the fleet, a plain method call in the
    single-bucket task. ``get`` resolves a list of what ``call`` returned
    (``ray.get``, or the identity). ``load_refs`` are the buckets' issued
    ``load`` calls; ``focus_tasks`` is None when the focus pairs were
    already submitted. Returns ``(result, dep_state)``: the summed shard
    stats when ``output_dir`` is given, else the (typing, report) tables.
    """

    def every(method, *args):
        return get([call(b, method, *args) for b in range(nbuckets)])

    def submit(tbl: pa.Table, is_focus: bool) -> list:
        return get(
            [
                call(b, "submit", sub, is_focus)
                for b, sub in _route_tasks(tbl, nbuckets).items()
            ]
        )

    # initial focus submission (vectorized routing; worklists live in the
    # buckets). In the fleet, submit calls queue behind load in each
    # actor's mailbox, so the focus-resolution scan OVERLAPS the bucket
    # index builds.
    if isinstance(focus_tasks, str) and focus_tasks == "shacl-targets":
        # in-bucket target derivation: every bucket already holds all
        # outgoing arcs of its subjects, so subject-side targets resolve
        # where they live — no second scan of the input Dataset. Only the
        # (tiny) rdfs:subClassOf rows and targetObjectsOf pairs cross the
        # driver.
        get(load_refs)
        mark("load")
        sub_tbl = pa.concat_tables(every("subclass_rows"))
        children: dict[str, set[str]] = {}
        for child, parent in zip(
            sub_tbl.column("child").to_pylist(), sub_tbl.column("parent").to_pylist()
        ):
            children.setdefault(parent, set()).add(child)
        spec, node_pairs = _build_target_spec(schema, children)
        remote_parts = every("derive_targets", spec, schema["subclass_closure"])
        extra = pa.table(
            {
                "node": pa.array([p[0] for p in node_pairs], pa.string()),
                "shape": pa.array([p[1] for p in node_pairs], pa.string()),
            }
        )
        submit(pa.concat_tables([extra] + remote_parts), True)
        mark("targets+submit")
    elif isinstance(focus_tasks, tuple) and focus_tasks[0] == "shex-patterns":
        # in-bucket shapemap pattern resolution: subject-side matches
        # enqueue where they live; only object-side matches (plus the
        # concrete node-selector pairs) cross the driver. No second scan
        # of the input Dataset.
        _, passocs, concrete = focus_tasks
        get(load_refs)
        mark("load")
        remote_parts = every("derive_focus", passocs)
        submit(pa.concat_tables([concrete] + remote_parts), True)
        mark("focus+submit")
    else:
        if focus_tasks is not None:
            submit(focus_tasks, True)
        get(load_refs)
        mark("load+submit")

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
        results = every("run_round")
        total_decided = sum(r[0] for r in results)
        total_pending = sum(r[1] for r in results)
        new_child_tasks: list[tuple[str, str]] = []
        progress = total_decided > 0
        for b, (_nd, _np, deps, answered) in enumerate(results):
            for nk, sk, val in answered:
                answered_vals[(nk, sk)] = val
            for child in deps:
                if b not in need_by.setdefault(child, set()):
                    need_by[child].add(b)
                    progress = True
                if child not in answered_vals:
                    new_child_tasks.append(child)
        # route newly-requested child pairs to their buckets; a request for
        # an already-decided pair returns its answer immediately
        if new_child_tasks:
            uniq = sorted(set(new_child_tasks))
            tbl = pa.table(
                {
                    "node": pa.array([c[0] for c in uniq], pa.string()),
                    "shape": pa.array([c[1] for c in uniq], pa.string()),
                }
            )
            for already in submit(tbl, False):
                for nk, sk, val in already:
                    answered_vals[(nk, sk)] = val
        # forward decided answers to the buckets waiting on them
        fwd: dict[int, list] = {}
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
                    fwd.setdefault(b, []).append((child[0], child[1], payload))
                    progress = True
            done_children.append(child)  # every requester now forwarded
        for b, asms in fwd.items():
            call(b, "add_assumptions", asms)
        # evict fully-forwarded deps: driver state stays O(in-flight deps),
        # not O(all deps ever). A LATE request for an evicted child is
        # answered straight from its bucket's typing on submit(), so
        # nothing is lost by forgetting it here.
        for child in done_children:
            for b in need_by.pop(child):
                forwarded.discard((child, b))
            answered_vals.pop(child, None)

        mark(f"round{rounds} decided={total_decided} pending={total_pending}")
        if total_pending == 0 and not new_child_tasks:
            break
        if progress:
            stalls = 0
            just_broke = False
            continue
        stalls += 1
        unresolved = sorted(c for c in need_by if c not in answered_vals)
        if unresolved and not just_broke:
            # cross-bucket cycle: close coinductively (assume conforms).
            # Repeated breaks are allowed as long as each one unblocks
            # progress — a break that moves nothing ends the loop.
            every("assume_deps", unresolved)
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

    # anything still pending is UNDECIDED — surface it, don't drop it
    n_unknown = sum(every("mark_pending_unknown"))
    if n_unknown:
        mark(f"WARNING: {n_unknown} pairs left unknown")

    if output_dir is not None:
        # bucket-side sink: each bucket writes its own shard; only
        # per-bucket summary counts reach the driver
        stats: dict[str, int] = {}
        for s in every("write_shard", output_dir):
            for k, v in s.items():
                stats[k] = stats.get(k, 0) + v
        mark("write_shards")
        return stats, dep_state

    collected = every("collect")
    typing_tbl = pa.concat_tables([c[0] for c in collected])
    reports: list[dict] = []
    for c in collected:
        reports.extend(c[1])
    return (typing_tbl, _reports_to_table(reports)), dep_state


class _ActorPool:
    """Idle ``BucketWorker`` actors kept warm between fleet calls.

    Only the worker processes are reused: a call ``open``s every actor it
    checks out and ``release``s it before check-in, so no state crosses
    calls. A checkout is exclusive (under the lock); the pool belongs to
    one Ray session and is dropped when the session changes; at most
    cluster-CPU-count actors wait idle (extras are killed at check-in). A
    failed call never checks its actors in (``_discard``)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._idle: list = []
        self._session = None

    def checkout(self, n: int) -> list:
        """``n`` actors: idle ones first, spawns for the rest."""
        ctx = ray.get_runtime_context()
        session = (ctx.get_job_id(), ctx.get_node_id())
        with self._lock:
            if session != self._session:
                # the old session's actors died with it: forget, never call
                self._idle, self._session = [], session
            taken, self._idle = self._idle[:n], self._idle[n:]
        # default actor semantics: num_cpus=1 for placement, 0 reserved
        # while alive — a large fleet never deadlocks a small cluster, and
        # idle actors hold no CPU
        return taken + [BucketWorker.remote() for _ in range(n - len(taken))]

    def checkin(self, workers: list) -> None:
        cap = int(ray.cluster_resources().get("CPU", 1))
        with self._lock:
            room = max(0, cap - len(self._idle))
            self._idle += workers[:room]
        for w in workers[room:]:
            ray.kill(w)


_POOL = _ActorPool()

# how long the failure path waits for the actors' ``release`` before it
# kills them (an actor still busy with a round is killed unreleased)
_RELEASE_WAIT_S = 10.0


def _discard(workers: list) -> None:
    """Failure path: release the actors that still answer — ``ray.kill``
    skips destructors, so a killed bucket would leak its spill dir — then
    kill all of them; none goes back to the pool."""
    refs = [w.release.remote() for w in workers]
    ray.wait(refs, num_returns=len(refs), timeout=_RELEASE_WAIT_S)
    for w in workers:
        ray.kill(w)


def _run_fleet(schema, engine, nbuckets, include_inverse, spill_rows,
               plan, focus_tasks, max_rounds, output_dir, mark):
    """``nbuckets > 1``: one pooled ``BucketWorker`` actor per bucket, fed
    by one split-task exchange, driven through actor handles."""
    schema_ref = ray.put(schema)

    def open_bucket(b):
        return workers[b].open.remote(schema_ref, engine, nbuckets, b, spill_rows)

    workers = _POOL.checkout(nbuckets)
    try:
        # open before the split: a cold pool's worker-process startup (the
        # dominant fixed cost at high bucket counts) overlaps the split
        opens = [open_bucket(b) for b in range(nbuckets)]

        # ---- one-time shuffle: block groups -> per-bucket parts -> actors.
        # File inputs are read by the split tasks themselves (storage →
        # task heap, no object-store staging).
        split_refs = exchange.split(
            _route_arcs, (include_inverse,), plan, ARC_SCHEMA, ARC_COLS,
            nbuckets=nbuckets,
        )
        ray.wait(
            [r for blk in split_refs for r in blk],
            num_returns=len(split_refs) * nbuckets,
            fetch_local=False,
        )
        mark("split")
        for b, ref in enumerate(opens):
            try:
                ray.get(ref)
            except ray.exceptions.RayActorError:
                # a pooled actor died while idle: replace it
                workers[b] = BucketWorker.remote()
                ray.get(open_bucket(b))
        mark("warmup")
        load_refs = [
            workers[b].load.remote(*[blk[b] for blk in split_refs])
            for b in range(nbuckets)
        ]
        if not isinstance(focus_tasks, (str, tuple, pa.Table)):
            # Ray Dataset: streamed task→actor, no driver materialization
            # (after every open returned: those calls come from other
            # callers, whose order against ours Ray does not keep)
            _submit_focus_dataset(focus_tasks, workers, nbuckets)
            focus_tasks = None
        out = _bsp(
            lambda b, method, *args: getattr(workers[b], method).remote(*args),
            ray.get, nbuckets, schema, focus_tasks, load_refs, max_rounds,
            output_dir, mark,
        )
        ray.get([w.release.remote() for w in workers])
    except BaseException:
        _discard(workers)
        raise
    _POOL.checkin(workers)
    return out


def _run_single_bucket(schema, engine, include_inverse, spill_rows, files,
                       focus_tasks, max_rounds, output_dir, n_arc_blocks,
                       *blocks):
    """``nbuckets == 1``: the whole fixpoint in this process, one
    ``_Bucket`` driven by the same loop as the fleet through plain method
    calls. ``blocks`` holds the input's triple blocks (``n_arc_blocks`` of
    them, when ``files`` is None) followed by, when ``focus_tasks`` is
    None, the blocks of a focus Dataset.

    Runs as one Ray task on a pooled worker that later tasks reuse, so it
    always ``release``s the bucket: spill directory removed, GC
    unfrozen."""
    mark = _marker()
    bucket = _Bucket()
    try:
        bucket.open(schema, engine, 1, 0, spill_rows)
        (arcs,) = exchange.run_split(
            _route_arcs, (include_inverse,), 1, ARC_SCHEMA, ARC_COLS,
            *(files if files is not None else blocks[:n_arc_blocks]),
        )
        mark("read+split")
        load_refs = [bucket.load(arcs)]
        del arcs  # the index owns the arcs now; free the split's copy
        if focus_tasks is None:
            for blk in blocks[n_arc_blocks:]:
                if blk.num_rows:
                    bucket.submit(blk, True)
        return _bsp(
            lambda _b, method, *args: getattr(bucket, method)(*args),
            lambda results: results, 1, schema, focus_tasks, load_refs,
            max_rounds, output_dir, mark,
        )
    finally:
        bucket.release()


_single_bucket_task = ray.remote(_run_single_bucket)


def distributed_validate(
    triples_ds,
    engine: str,
    schema: dict,
    focus_tasks,
    nbuckets: int | None = 32,
    include_inverse: bool = False,
    max_rounds: int = 12,
    output_dir: str | None = None,
    spill_rows: int | None = None,
    parquet_path: str | None = None,
):
    """Run the BSP typing fixpoint.

    ``focus_tasks``: pa.Table(node: term key, shape: shape key) for small
    shapemaps, or a Ray Dataset of the same schema (never
    driver-materialized), or ``"shacl-targets"`` / a ``("shex-patterns",
    assocs, concrete)`` tuple for in-bucket focus derivation.
    Returns (typing, report) as pyarrow Tables — unless ``output_dir`` is
    given, in which case each bucket writes its own parquet shard under
    ``{output_dir}/typing`` and ``{output_dir}/report`` and the return
    value is (typing_ds, report_ds) lazily read back plus the summary
    stats are attached to ``distributed_validate.last_stats``.

    Two transports share one driver loop (``_bsp``), chosen here from
    ``nbuckets`` (given, or ``exchange.plan``'s fleet size for the
    input's arc columns: its bucket count, capped at the CPU count): at
    ``nbuckets == 1`` the whole fixpoint — read, split, load, focus
    derivation, rounds, output — runs as ONE task on a pooled worker
    (no actor spawn); above it, one ``BucketWorker`` actor per bucket,
    checked out of a session-scoped pool (spawned only when the pool
    lacks them) and checked back in after a successful call; a failed
    call releases and kills its actors. Each call re-reads its input and
    recompiles its schema: nothing computed in one call reaches the next.
    """
    mark = _marker()
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

    # plan the input FIRST (parquet footers and one sampled row group, or
    # block metadata — cheap), so an auto fleet (nbuckets=None) scales
    # with the bytes it moves: a small corpus runs as one task, a large
    # one on the whole cluster
    if parquet_path is not None:
        import glob as _glob

        files = sorted(_glob.glob(f"{parquet_path}/*.parquet"))
        if not files:
            raise FileNotFoundError(f"no parquet shards under {parquet_path}")
        plan = exchange.plan(files, ARC_COLS)
    else:
        files = None
        plan = exchange.plan(triples_ds.materialize())
    nbuckets = nbuckets or plan.fleet
    distributed_validate.last_nbuckets = nbuckets
    mark("materialize")

    # the one regime choice
    if nbuckets == 1:
        focus_refs = []
        if not isinstance(focus_tasks, (str, tuple, pa.Table)):
            # a focus Dataset materializes BEFORE the task starts: its
            # blocks become task arguments (never concatenated here), and
            # no Ray Data task waits for a CPU the validation task holds
            focus_refs = focus_tasks.materialize().to_arrow_refs()
            focus_tasks = None
        arc_refs = [] if files else list(plan.inputs)
        out, dep_state = ray.get(
            _single_bucket_task.remote(
                schema, engine, include_inverse, spill_rows, files,
                focus_tasks, max_rounds, output_dir, len(arc_refs),
                *arc_refs, *focus_refs,
            )
        )
    else:
        out, dep_state = _run_fleet(
            schema, engine, nbuckets, include_inverse, spill_rows, plan,
            focus_tasks, max_rounds, output_dir, mark,
        )
    distributed_validate.last_dep_state = dep_state
    if output_dir is None:
        return out
    distributed_validate.last_stats = out
    import ray.data as rd

    # a table no bucket had rows for gets one typed empty part
    ensure_parquet_schema(f"{output_dir}/typing", _typing_table({}, ()).schema)
    ensure_parquet_schema(f"{output_dir}/report", _reports_to_table([]).schema)
    return (
        rd.read_parquet(f"{output_dir}/typing"),
        rd.read_parquet(f"{output_dir}/report"),
    )


# ---------------------------------------------------------------------------
# SHACL target resolution over the triples Dataset (SURVEY.md J2)

def _build_target_spec(schema: dict, children: dict[str, set[str]]):
    """Turn the schema's target declarations + the subclass-children map
    into a scan spec. Attaches ``subclass_closure`` to ``schema`` (the
    sh:class components need it) and returns ``(spec, node_pairs)``."""

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

    class_targets: list[tuple[str, str]] = []
    node_pairs: list[tuple[str, str]] = []
    subjects_of: list[tuple[str, str]] = []
    objects_of: list[tuple[str, str]] = []
    closures: dict[str, list[str]] = {}
    for skey in schema["with_targets"]:
        shape = schema["shapes"][skey]
        for kind, val in shape["targets"]:
            if kind == "node":
                node_pairs.append((val, skey))
            elif kind == "class":
                class_targets.append((val, skey))
                closures[val] = closure(val)
            elif kind == "subjectsOf":
                subjects_of.append((val, skey))
            elif kind == "objectsOf":
                objects_of.append((val, skey))
        if shape["implicit_class"]:
            class_targets.append((skey, skey))
            closures[skey] = closure(skey)
    schema["subclass_closure"] = {
        ck: closure(ck) for ck in _all_class_params(schema)
    }

    spec = {
        "class_targets": [
            (set("".join(c[1:]) for c in closures[ck]), sk) for ck, sk in class_targets
        ],
        "subjects_of": subjects_of,
        "objects_of": objects_of,
    }
    return spec, node_pairs


def resolve_shacl_targets(triples_ds, schema: dict):
    """Resolve SHACL targets into a *streaming* focus Dataset of
    (node term key, shape key) pairs — the focus set never materializes on
    the driver (it is submitted task→actor and deduped in the bucket
    worklists). Only the rdfs:subClassOf rows (class hierarchy — tiny) are
    collected driver-side to attach the subclass closure to the schema.

    ``distributed_validate(..., focus_tasks="shacl-targets")`` derives the
    same pairs IN-BUCKET from the already-loaded arc index (no second scan
    of the input); this Dataset variant remains for callers validating a
    Dataset without loading buckets, and as the equivalence oracle for the
    in-bucket path (tests pin both to identical typing)."""

    def _sub_filter(batch: pa.Table) -> pa.Table:
        mask = pc.equal(batch.column("pred"), RDFS_SUBCLASS)
        sub = batch.filter(mask)
        return sub.select(["subj", "obj_kind", "obj_lex"])

    sub_rows = triples_ds.map_batches(_sub_filter, batch_format="pyarrow").take_all()
    children: dict[str, set[str]] = {}
    for r in sub_rows:
        child = subj_to_key(r["subj"])
        parent = "I" + r["obj_lex"] if r["obj_kind"] == "iri" else "B" + r["obj_lex"]
        children.setdefault(parent, set()).add(child)

    spec, node_pairs = _build_target_spec(schema, children)

    def find_targets(batch: pa.Table) -> pa.Table:
        parts = []
        pred = batch.column("pred")
        for cls_iris, sk in spec["class_targets"]:
            mask = pc.and_(
                pc.equal(pred, RDF_TYPE),
                pc.is_in(batch.column("obj_lex"), value_set=pa.array(sorted(cls_iris))),
            )
            keys = _subj_key_col(pc.filter(batch.column("subj"), mask))
            parts.append(
                pa.table({"node": keys, "shape": pa.array([sk] * len(keys), pa.string())})
            )
        for p, sk in spec["subjects_of"]:
            keys = _subj_key_col(pc.filter(batch.column("subj"), pc.equal(pred, p)))
            parts.append(
                pa.table({"node": keys, "shape": pa.array([sk] * len(keys), pa.string())})
            )
        for p, sk in spec["objects_of"]:
            sub = batch.filter(pc.equal(pred, p))
            keys = _obj_key_col(sub)
            parts.append(
                pa.table({"node": keys, "shape": pa.array([sk] * len(keys), pa.string())})
            )
        if not parts:
            return pa.table(
                {"node": pa.array([], pa.string()), "shape": pa.array([], pa.string())}
            )
        out = pa.concat_tables(parts)
        # batch-local dedup (combiner); Arrow group_by keeps it C++-side
        return out.group_by(out.column_names, use_threads=False).aggregate([]).cast(
            out.schema
        )

    import ray.data as rd

    targets_ds = triples_ds.map_batches(find_targets, batch_format="pyarrow")
    extra = pa.table(
        {
            "node": pa.array([p[0] for p in node_pairs], pa.string()),
            "shape": pa.array([p[1] for p in node_pairs], pa.string()),
        }
    )
    if extra.num_rows:
        targets_ds = targets_ds.union(rd.from_arrow(extra))
    return targets_ds


def _all_class_params(schema: dict) -> set[str]:
    out = set()
    for sh in schema["shapes"].values():
        if not sh:
            continue
        for kind, params in sh["components"]:
            if kind == "class":
                out.add(params["cls"])
    return out
