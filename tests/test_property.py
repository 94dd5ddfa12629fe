"""Property-based hardening (hypothesis):

  * term-key encoding round-trips for arbitrary terms
  * the flat counting decomposition (_match_flat fast path) agrees with
    the exhaustive bitmask matcher on random flat shapes × random
    neighborhoods — the SURVEY.md C4 equivalence, fuzzed
"""

from hypothesis import given, settings, strategies as st

from shaclex_ray.terms import (
    cols_to_term,
    key_to_term,
    obj_cols,
    term_key,
)
from shaclex_ray.validate.local import Graph, ShExValidator

# \x1f is the term-key separator (documented as excluded from lexicals)
_text = st.text(
    alphabet=st.characters(blacklist_characters="\x1f", blacklist_categories=("Cs",)),
    max_size=20,
)
_iri_text = st.text(
    alphabet=st.characters(
        whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters=":/#."
    ),
    min_size=1,
    max_size=30,
)

_terms = st.one_of(
    st.tuples(st.just("iri"), _iri_text),
    st.tuples(st.just("bnode"), _iri_text),
    st.tuples(
        st.just("lit"),
        _text,
        st.one_of(
            st.just("http://www.w3.org/2001/XMLSchema#string"),
            st.just("http://www.w3.org/2001/XMLSchema#integer"),
            _iri_text,
        ),
        st.just(""),
    ),
)


@given(_terms)
def test_term_key_roundtrip(t):
    assert key_to_term(term_key(t)) == t


@given(_terms)
def test_obj_cols_roundtrip(t):
    assert cols_to_term(*obj_cols(t)) == t


# ---------------------------------------------------------------------------
# flat counting decomposition ≡ exhaustive bitmask matcher

_PREDS = ["http://e/p0", "http://e/p1", "http://e/p2"]
_OBJS = [
    ("iri", "http://e/o1"),
    ("iri", "http://e/o2"),
    ("bnode", "b1"),
    ("lit", "x", "http://www.w3.org/2001/XMLSchema#string", ""),
    ("lit", "5", "http://www.w3.org/2001/XMLSchema#integer", ""),
    ("lit", "abc", "http://www.w3.org/2001/XMLSchema#integer", ""),  # bad lexical
    ("lit", "-31", "http://www.w3.org/2001/XMLSchema#integer", ""),
    ("lit", "4.50", "http://www.w3.org/2001/XMLSchema#decimal", ""),
]

_value_exprs = st.one_of(
    st.none(),
    st.just({"type": "NodeConstraint", "nodeKind": "iri"}),
    st.just({"type": "NodeConstraint", "nodeKind": "literal"}),
    st.just(
        {
            "type": "NodeConstraint",
            "datatype": "http://www.w3.org/2001/XMLSchema#integer",
        }
    ),
)

_tc = st.builds(
    lambda pred, mn, mx, ve: {
        "type": "TripleConstraint",
        "predicate": pred,
        "min": mn,
        "max": mx if mx is not None else -1,
        **({"valueExpr": ve} if ve is not None else {}),
    },
    pred=st.sampled_from(_PREDS),
    mn=st.integers(0, 2),
    mx=st.one_of(st.none(), st.integers(1, 3)),
    ve=_value_exprs,
)

_arcs = st.lists(
    st.tuples(st.sampled_from(_PREDS), st.sampled_from(range(len(_OBJS)))),
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(tcs=st.lists(_tc, min_size=1, max_size=3, unique_by=lambda t: t["predicate"]),
       arcs=_arcs, extra=st.sets(st.sampled_from(_PREDS), max_size=2))
def test_flat_counting_equals_bitmask_matcher(tcs, arcs, extra):
    focus = ("iri", "http://e/focus")
    triples = [(focus, p, _OBJS[oi]) for p, oi in arcs]
    shape = {
        "type": "Shape",
        "id": "http://e/S",
        "expression": (
            tcs[0]
            if len(tcs) == 1
            else {"type": "EachOf", "expressions": tcs}
        ),
        "extra": sorted(extra),
    }
    schema = {"start": None, "shapes": {"http://e/S": shape}, "te_refs": {}, "imports": []}

    fast = ShExValidator(schema, Graph(triples))
    got_fast = fast.validate_node_shape(focus, "http://e/S")

    slow = ShExValidator(schema, Graph(triples))
    slow._flat_tcs = lambda expr: None  # force the exhaustive matcher
    got_slow = slow.validate_node_shape(focus, "http://e/S")

    assert got_fast == got_slow, (tcs, arcs, extra)


# ---------------------------------------------------------------------------
# vectorized flat-SHACL kernel ≡ ShaclValidator (per-focus reference path)

from shaclex_ray.terms import SH as _SH

from shaclex_ray.terms import term_key as _tk

_XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"
_IN_KEYS = [
    _tk(("iri", "http://e/o1")),
    _tk(("lit", "x", "http://www.w3.org/2001/XMLSchema#string", "")),
    _tk(("lit", "5", _XSD_INT, "")),
]

_SHACL_CHECKS = st.lists(
    st.one_of(
        st.tuples(st.just("minCount"), st.integers(0, 2)),
        st.tuples(st.just("maxCount"), st.integers(0, 2)),
        st.tuples(
            st.just("datatype"), st.just("http://www.w3.org/2001/XMLSchema#string")
        ),
        st.tuples(
            st.just("nodeKind"),
            st.sampled_from([_SH + "IRI", _SH + "Literal", _SH + "BlankNodeOrIRI"]),
        ),
        st.tuples(st.just("class"), st.just("Ihttp://e/Cls")),
        # facet families: RE2-safe pattern (Arrow path), \d-style pattern
        # (per-distinct Python path), lengths, numeric bounds, in, hasValue
        st.tuples(
            st.just("pattern"),
            st.sampled_from(
                [("^[a-z]+$", ""), ("\\d", ""), ("o", "i"), ("http.*o[12]", "")]
            ),
        ),
        st.tuples(st.just("minLength"), st.integers(0, 5)),
        st.tuples(st.just("maxLength"), st.integers(0, 12)),
        st.tuples(
            st.sampled_from(
                ["minInclusive", "minExclusive", "maxInclusive", "maxExclusive"]
            ),
            st.sampled_from([("3", _XSD_INT), ("5", _XSD_INT), ("5.0", _XSD_INT)]),
        ),
        st.tuples(st.just("in"), st.just(list(_IN_KEYS))),
        st.tuples(st.just("hasValue"), st.sampled_from(_IN_KEYS)),
    ),
    min_size=1,
    max_size=4,
    unique_by=lambda c: c[0],
)


def _shacl_params(k, v):
    if k in ("minCount", "maxCount", "minLength", "maxLength"):
        return {"n": v}
    if k in ("datatype", "nodeKind"):
        return {"iri": v}
    if k == "class":
        return {"cls": v}
    if k == "pattern":
        return {"pattern": v[0], "flags": v[1]}
    if k in ("minInclusive", "minExclusive", "maxInclusive", "maxExclusive"):
        return {"value": v}
    if k == "in":
        return {"values": v}
    if k == "hasValue":
        return {"value": v}
    raise AssertionError(k)

_SHACL_ARCS = st.lists(
    st.tuples(
        st.sampled_from(_PREDS + ["http://www.w3.org/1999/02/22-rdf-syntax-ns#type"]),
        st.sampled_from(range(len(_OBJS) + 1)),  # last index = the class IRI
    ),
    max_size=8,
)


def _bucket_graph(triples):
    """A single-bucket LazyBucketGraph over ``triples``."""
    import pyarrow as pa

    from shaclex_ray.terms import triples_to_table
    from shaclex_ray.validate.dist import LazyBucketGraph

    tbl = triples_to_table(triples).select(
        ["subj", "pred", "obj_kind", "obj_lex", "obj_dt", "obj_lang"]
    )
    g = LazyBucketGraph()
    g.add_part(tbl.append_column("rev", pa.array([False] * tbl.num_rows)))
    g.finalize()
    return g


def _norm(rows):
    return sorted(
        (r["focus"], r["path"], r["value"] or "", r["component"], r["source"])
        for r in rows
    )


_SHACL_PROPS = st.lists(
    st.tuples(st.sampled_from(_PREDS), _SHACL_CHECKS),
    min_size=1,
    max_size=2,
    unique_by=lambda p: p[0],
)


def _shacl_case(props, arcs, typed):
    """(schema, triples, focus) of a generated flat SHACL shape
    ``Ihttp://e/S`` over one focus node's arcs."""
    from shaclex_ray.terms import iri

    objs = _OBJS + [("iri", "http://e/Cls")]
    focus = iri("http://e/focus")
    triples = [(focus, p, objs[oi]) for p, oi in arcs]
    # optionally type one object as the class instance (exercises 'class')
    if typed:
        triples.append(
            (
                iri("http://e/o1"),
                "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                iri("http://e/Cls"),
            )
        )

    def shape(sid, path, components):
        return {
            "id": sid,
            "targets": [],
            "implicit_class": False,
            "path": path,
            "components": components,
            "properties": [],
            "closed": False,
            "ignored": [],
            "deactivated": False,
            "severity": _SH + "Violation",
            "messages": [],
        }

    shapes = {"Ihttp://e/S": shape("Ihttp://e/S", None, [])}
    for i, (pred, checks) in enumerate(props):
        pk = f"Ihttp://e/S/p{i}"
        shapes[pk] = shape(
            pk, {"pred": pred}, [(k, _shacl_params(k, v)) for k, v in checks]
        )
        shapes["Ihttp://e/S"]["properties"].append(pk)
    schema = {"shapes": shapes, "with_targets": [], "subclass_closure": {}}
    return schema, triples, focus


def _is_instance(g):
    from shaclex_ray.terms import term_key

    def is_instance(nk, cls_key):
        return any(
            p == "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
            and term_key(o) == cls_key
            for p, o in g.arcs_out(nk)
        )

    return is_instance


@settings(max_examples=150, deadline=None)
@given(props=_SHACL_PROPS, arcs=_SHACL_ARCS, typed=st.booleans())
def test_flat_shacl_kernel_matches_validator(props, arcs, typed):
    from shaclex_ray.terms import term_key
    from shaclex_ray.validate.dist import flat_eval_kernel, flat_shacl_profile
    from shaclex_ray.validate.shacl_local import ShaclValidator

    schema, triples, focus = _shacl_case(props, arcs, typed)
    profiles = flat_shacl_profile(schema)
    assert "Ihttp://e/S" in profiles  # every generated shape is vectorizable

    # reference path
    v = ShaclValidator(schema, Graph(triples))
    ref_rows = v.validate_shape(term_key(focus), "Ihttp://e/S")

    # vectorized kernel over a single-bucket graph (everything local)
    g = _bucket_graph(triples)
    conforms, reports, part = flat_eval_kernel(
        profiles["Ihttp://e/S"],
        [term_key(focus)],
        g,
        {},
        lambda nk: True,
        _is_instance(g),
    )
    assert not part.pending[0]  # single bucket: everything resolves locally
    assert bool(conforms[0]) == (not ref_rows), (props, arcs, typed)
    assert _norm(reports[0]) == _norm(ref_rows), (props, arcs, typed)


# ---------------------------------------------------------------------------
# vectorized flat-ShEx kernel ≡ ShExValidator

_REF_SHAPE = {"type": "NodeConstraint", "nodeKind": "iri"}  # term-local ref
_FAR_SHAPE = {"type": "Shape"}  # a neighborhood ref: always a dependency

_SHEX_VE = st.one_of(
    st.none(),
    st.just({"type": "NodeConstraint", "nodeKind": "literal"}),
    st.just(
        {"type": "NodeConstraint", "datatype": "http://www.w3.org/2001/XMLSchema#string"}
    ),
    st.just({"type": "NodeConstraint", "values": ["http://e/o1", "http://e/o2"]}),
    st.just("http://e/Ref"),
    # facet families (per-distinct exact path in the kernel)
    st.just({"type": "NodeConstraint", "pattern": "^[a-z0-9]+$"}),
    st.just({"type": "NodeConstraint", "pattern": "\\d", "flags": "i"}),
    st.just({"type": "NodeConstraint", "minlength": 1, "maxlength": 3}),
    st.just({"type": "NodeConstraint", "length": 1}),
    st.just(
        {
            "type": "NodeConstraint",
            "datatype": "http://www.w3.org/2001/XMLSchema#integer",
            "mininclusive": 0,
        }
    ),
    st.just({"type": "NodeConstraint", "maxexclusive": 6}),
    st.just({"type": "NodeConstraint", "totaldigits": 2, "fractiondigits": 0}),
)


def _shex_tcs(ve):
    return st.lists(
        st.builds(
            lambda pred, mn, mx, ve: {
                "type": "TripleConstraint",
                "predicate": pred,
                "min": mn,
                "max": mx if mx is not None else -1,
                **({"valueExpr": ve} if ve is not None else {}),
            },
            pred=st.sampled_from(_PREDS),
            mn=st.integers(0, 2),
            mx=st.one_of(st.none(), st.integers(1, 3)),
            ve=ve,
        ),
        min_size=1,
        max_size=3,
        unique_by=lambda t: t["predicate"],
    )


def _shex_case(tcs, arcs, extra):
    """(schema, triples, focus) of a generated flat ShEx shape
    ``http://e/S`` over one focus node's arcs."""
    from shaclex_ray.terms import iri

    focus = iri("http://e/focus")
    triples = [(focus, p, _OBJS[oi]) for p, oi in arcs]
    shape = {
        "type": "Shape",
        "id": "http://e/S",
        "expression": (
            tcs[0] if len(tcs) == 1 else {"type": "EachOf", "expressions": tcs}
        ),
        "extra": sorted(extra),
    }
    schema = {
        "start": None,
        "shapes": {
            "http://e/S": shape,
            "http://e/Ref": _REF_SHAPE,
            "http://e/Far": _FAR_SHAPE,
        },
        "te_refs": {},
        "imports": [],
    }
    return schema, triples, focus


@settings(max_examples=150, deadline=None)
@given(
    tcs=_shex_tcs(_SHEX_VE),
    arcs=_arcs,
    extra=st.sets(st.sampled_from(_PREDS), max_size=2),
)
def test_flat_shex_kernel_matches_validator(tcs, arcs, extra):
    from shaclex_ray.terms import term_key
    from shaclex_ray.validate.dist import flat_eval_kernel, flat_shex_profile

    schema, triples, focus = _shex_case(tcs, arcs, extra)
    profiles = flat_shex_profile(schema)
    assert "http://e/S" in profiles

    ref = ShExValidator(schema, Graph(triples))
    expected = ref.validate_node_shape(focus, "http://e/S")

    # the term-local ref evaluates inside the kernel, on the bucket graph
    g = _bucket_graph(triples)
    ok, _reports, part = flat_eval_kernel(
        profiles["http://e/S"], [term_key(focus)], g, {}, lambda nk: True, None
    )
    assert not part.pending[0]
    assert bool(ok[0]) == expected, (tcs, arcs, extra)


# ---------------------------------------------------------------------------
# resuming a blocked partial ≡ one kernel run with the answers assumed


def _check_resume(profile, focus_key, g, is_instance, data):
    """Every value non-local: run the kernel with no assumptions, answer
    its pending probes (drawn booleans) in two batches, resuming after
    each; the verdict and report multiset must equal one kernel run that
    has every answer as an assumption."""
    from shaclex_ray.validate.dist import (
        _pending_deps,
        flat_eval_kernel,
        flat_resume,
    )

    def remote(_nk):
        return False

    _c, _r, part = flat_eval_kernel(profile, [focus_key], g, {}, remote, is_instance)
    deps = _pending_deps(profile, part.pending)
    answers = {d: data.draw(st.booleans()) for d in deps}
    first = {d: a for d, a in answers.items() if data.draw(st.booleans())}

    resumed = flat_resume(profile, [focus_key], part, first)
    assert set(_pending_deps(profile, resumed.pending)) == set(deps) - set(first)
    resumed = flat_resume(profile, [focus_key], resumed, answers)
    assert not resumed.pending[0]
    conforms, rows = profile.finalize(profile.entries, [focus_key], resumed)

    one_ok, one_rows, one = flat_eval_kernel(
        profile, [focus_key], g, answers, remote, is_instance
    )
    assert not one.pending[0]
    assert bool(conforms[0]) == bool(one_ok[0])
    assert _norm(rows[0]) == _norm(one_rows[0])
    return deps


def _with_class(props):
    """The first property shape also gets the sh:class probe."""
    (pred, checks), rest = props[0], props[1:]
    keep = [c for c in checks if c[0] != "class"]
    return [(pred, keep + [("class", "Ihttp://e/Cls")])] + rest


def _with_far_ref(tcs):
    """The first triple constraint refers to the neighborhood shape."""
    return [dict(tcs[0], valueExpr="http://e/Far")] + tcs[1:]


@settings(max_examples=100, deadline=None)
@given(
    props=_SHACL_PROPS.map(_with_class),
    arcs=_SHACL_ARCS,
    typed=st.booleans(),
    data=st.data(),
)
def test_flat_shacl_resume_equals_one_run(props, arcs, typed, data):
    from shaclex_ray.terms import term_key
    from shaclex_ray.validate.dist import flat_shacl_profile

    schema, triples, focus = _shacl_case(props, arcs, typed)
    g = _bucket_graph(triples)
    _check_resume(
        flat_shacl_profile(schema)["Ihttp://e/S"], term_key(focus), g,
        _is_instance(g), data,
    )


@settings(max_examples=100, deadline=None)
@given(
    tcs=_shex_tcs(st.one_of(_SHEX_VE, st.just("http://e/Far"))).map(_with_far_ref),
    arcs=_arcs,
    extra=st.sets(st.sampled_from(_PREDS), max_size=2),
    data=st.data(),
)
def test_flat_shex_resume_equals_one_run(tcs, arcs, extra, data):
    from shaclex_ray.terms import term_key
    from shaclex_ray.validate.dist import flat_shex_profile

    schema, triples, focus = _shex_case(tcs, arcs, extra)
    _check_resume(
        flat_shex_profile(schema)["http://e/S"], term_key(focus),
        _bucket_graph(triples), None, data,
    )
