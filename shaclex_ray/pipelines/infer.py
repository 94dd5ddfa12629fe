"""Schema inference: data graph → ShEx shape (SURVEY.md C7 / G4-G6).

Re-expresses the reference's SchemaInfer
(modules/schemaInfer/src/main/scala/es/weso/schemaInfer/SchemaInfer.scala:82-428):
select focus nodes, group their neighborhoods by predicate, collapse the
object sets through the constraint lattice
(InferredNodeConstraint.collapse, InferredNodeConstraint.scala:9-78), and
derive cardinalities from per-focus frequencies (InferredShape.scala:159-165).

Ray Data shape: one filtered arc projection (focus set broadcast) →
per-batch partial aggregation → ``groupby(pred)`` final collapse — the
lattice meet is commutative/associative, exactly partial+final aggregable
(SURVEY.md G5).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from shaclex_ray.stages import exchange
from shaclex_ray.stages.dedup import distinct_rows_fast
from shaclex_ray.terms import RDF_TYPE, XSD_STRING

# lattice element encoding (collapse = meet):
#   kind: "iri" | "bnode" | "lit:<datatype>" | "lang:<tag>" | mixtures
TOP = "."  # any node


# --- followOn rules (SURVEY §2.11 extension hook; reference
# FollowOn.scala:16-55 + InferOptions.scala:31-38: plain callables
# (shape_label, prop, num) -> new shape label | None) -------------------


def follow_on_reference(label: str, prop: str, num: int) -> str | None:
    """Wikidata property statements: http://www.wikidata.org/prop/P31 →
    a nested shape labeled <P31Prop> resolved against the parent label
    (FollowOn.followOnReference)."""
    import re as _re
    from urllib.parse import urljoin as _uj

    m = _re.match(r"^http://www\.wikidata\.org/prop/(P\d*)", prop)
    return _uj(label, m.group(1) + "Prop") if m else None


def follow_on_was_derived_from(label: str, prop: str, num: int) -> str | None:
    """prov:wasDerivedFrom → <parentRef> (FollowOn.followOnWasDerivedFrom)."""
    if prop == "http://www.w3.org/ns/prov#wasDerivedFrom":
        return label + "Ref"
    return None


def follow_on_stem(stem: str):
    """Any property under ``stem`` → <localShape[num]> resolved against the
    parent label (FollowOn.followOnStem; num suffix elided when 1)."""
    from urllib.parse import urljoin as _uj

    def rule(label: str, prop: str, num: int) -> str | None:
        if prop.startswith(stem):
            suffix = "" if num == 1 else str(num)
            return _uj(label, prop[len(stem):] + "Shape" + suffix)
        return None

    return rule


def _collapse2(a: str, b: str) -> str:
    if a == b:
        return a
    if a is None:
        return b
    if b is None:
        return a
    if a.startswith("lit:") and b.startswith("lit:"):
        return "literal"
    lang_family = lambda x: x == "langstring" or x.startswith("lang:")  # noqa: E731
    if lang_family(a) and lang_family(b):
        return "langstring"
    if {a, b} <= {"literal", "langstring"} or (
        (a.startswith(("lit:", "lang:")) or a in ("literal", "langstring"))
        and (b.startswith(("lit:", "lang:")) or b in ("literal", "langstring"))
    ):
        return "literal"
    return TOP


def infer_schema(
    triples_ds,
    focus_class: str | None = None,
    shape_label: str = "http://example.org/InferredShape",
    max_preds: int = 64,
    follow_on=None,
    max_follow_on: int = 1,
    focus_subjects=None,
    _depth: int = 0,
    _seen_labels: set | None = None,
):
    """Infer a shape for instances of ``focus_class`` (or all subjects when
    None). Returns (schema_ir, stats_table).

    ONE harvest scan collects the focus instances AND the rdfs:label side
    table together (the label lookup used to be a second full pass); the
    focus set (distinct subjects) then joins the arcs on subj through
    ``exchange.join``, which broadcasts it while it is small (the
    instance set of a class at web scale is huge; reference guards with
    a visited set, InferState.scala:7-46)."""
    RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"
    arcs = triples_ds
    n_focus_holder = None

    def harvest(batch: pa.Table) -> pa.Table:
        """Tagged single pass: 'f' = focus instance, 'l' = label arc."""
        parts = []
        if focus_class is not None:
            fmask = pc.and_(
                pc.equal(batch.column("pred"), RDF_TYPE),
                pc.equal(batch.column("obj_lex"), focus_class),
            )
            fs = pc.filter(batch.column("subj"), fmask)
            parts.append(
                pa.table(
                    {
                        "tag": pa.array(["f"] * len(fs), pa.string()),
                        "subj": fs,
                        "label": pa.array([""] * len(fs), pa.string()),
                    }
                )
            )
        lmask = pc.equal(batch.column("pred"), RDFS_LABEL)
        sub = batch.filter(lmask)
        parts.append(
            pa.table(
                {
                    "tag": pa.array(["l"] * sub.num_rows, pa.string()),
                    "subj": sub.column("subj"),
                    "label": sub.column("obj_lex"),
                }
            )
        )
        return pa.concat_tables(parts)

    harvested = triples_ds.map_batches(harvest, batch_format="pyarrow").materialize()
    labels_ds = harvested.filter(expr="tag == 'l'")
    focus_ds = None
    if focus_subjects is not None:
        # explicit focus set (followOn recursion / API callers)
        if isinstance(focus_subjects, (pa.Array, pa.ChunkedArray)):
            focus_ds = rd.from_arrow(pa.table({"subj": focus_subjects}))
        else:
            focus_ds = focus_subjects.select_columns(["subj"])
    elif focus_class is not None:
        focus_ds = harvested.filter(expr="tag == 'f'").select_columns(["subj"])
    if focus_ds is not None:
        focus_ds = distinct_rows_fast(
            focus_ds, empty_schema=pa.schema([("subj", pa.string())])
        ).materialize()
        n_focus_holder = focus_ds.count()
        arcs = exchange.join(triples_ds, focus_ds, ["subj"])

    def project(batch: pa.Table) -> pa.Table:
        # vectorized lattice-element classification (no per-row loop)
        okind = batch.column("obj_kind").combine_chunks()
        odt = batch.column("obj_dt").combine_chunks()
        olang = batch.column("obj_lang").combine_chunks()
        dt_or_string = pc.if_else(pc.equal(odt, ""), XSD_STRING, odt)
        lit_kind = pc.if_else(
            pc.not_equal(olang, ""),
            pc.binary_join_element_wise("lang:", olang, ""),
            pc.binary_join_element_wise("lit:", dt_or_string, ""),
        )
        kind = pc.if_else(
            pc.equal(okind, "iri"),
            pa.scalar("iri"),
            pc.if_else(pc.equal(okind, "bnode"), pa.scalar("bnode"), lit_kind),
        )
        # lattice family code: the fold over distinct kinds reduces to
        # min/max aggregates of (kind, fam) — see the constraint rule below
        fam = pc.if_else(
            pc.equal(okind, "iri"),
            pa.scalar(1, pa.int64()),
            pc.if_else(
                pc.equal(okind, "bnode"),
                pa.scalar(2, pa.int64()),
                pc.if_else(
                    pc.starts_with(kind, "lang:"),
                    pa.scalar(3, pa.int64()),
                    pa.scalar(4, pa.int64()),
                ),
            ),
        )
        return pa.table(
            {
                "pred": batch.column("pred"),
                "subj": batch.column("subj"),
                "kind": kind,
                "fam": fam,
            }
        )

    # per-pred stats, fully vectorized: two one-move hash exchanges
    # (Arrow group_by partials, zero per-group Python) replace the former
    # per-predicate map_groups — a hot predicate (rdf:type at corpus
    # scale) no longer lands its whole arc set on one Python call
    from shaclex_ray.stages.groupagg import grouped_aggregate_fast

    proj = arcs.map_batches(project, batch_format="pyarrow")
    lvl1 = grouped_aggregate_fast(
        proj,
        ["pred", "subj"],
        [
            ("kind", "count"),
            ("kind", "min"),
            ("kind", "max"),
            ("fam", "min"),
            ("fam", "max"),
        ],
        ["cnt", "kmin", "kmax", "fmin", "fmax"],
    )
    lvl2 = grouped_aggregate_fast(
        lvl1,
        ["pred"],
        [
            ("cnt", "sum"),
            ("subj", "count"),
            ("cnt", "max"),
            ("cnt", "min"),
            ("kmin", "min"),
            ("kmax", "max"),
            ("fmin", "min"),
            ("fmax", "max"),
        ],
        [
            "n_arcs",
            "n_subjects",
            "max_per_subject",
            "min_per_subject",
            "kmin",
            "kmax",
            "fmin",
            "fmax",
        ],
    )
    agg_tbl = pa.concat_tables(
        list(lvl2.iter_batches(batch_format="pyarrow", batch_size=None))
        or [pa.table({"pred": pa.array([], pa.string())})]
    )
    if agg_tbl.num_rows:
        # the _collapse2 lattice fold over a pred's DISTINCT kind set S,
        # derived from aggregates (inputs are only iri/bnode/lang:*/lit:*):
        # |S|=1 -> the kind; all lang-family -> langstring; all in the
        # literal families -> literal; any iri/bnode mix -> TOP
        kmin = agg_tbl.column("kmin").to_numpy(zero_copy_only=False)
        kmax = agg_tbl.column("kmax").to_numpy(zero_copy_only=False)
        fmin = agg_tbl.column("fmin").to_numpy(zero_copy_only=False)
        fmax = agg_tbl.column("fmax").to_numpy(zero_copy_only=False)
        constraint = np.where(
            kmin == kmax,
            kmin,
            np.where(
                (fmin == 3) & (fmax == 3),
                "langstring",
                np.where(fmin >= 3, "literal", TOP),
            ),
        )
        stats_tbl = agg_tbl.drop_columns(["kmin", "kmax", "fmin", "fmax"]).append_column(
            "constraint", pa.array(constraint, pa.string())
        )
    else:
        stats_tbl = agg_tbl

    # cardinality rule (reference: n==1 per node ? {1,1} : {0,*};
    # InferredShape.scala:159-165 — refined with min/max evidence)
    n_focus = n_focus_holder
    exprs = []
    df = stats_tbl.to_pandas().sort_values("pred", ignore_index=True)
    for _i, row in df.head(max_preds).iterrows():
        everywhere = n_focus is not None and row["n_subjects"] == n_focus
        mn = 1 if everywhere and row["min_per_subject"] >= 1 else 0
        mx = 1 if row["max_per_subject"] <= 1 else -1
        tc = {"type": "TripleConstraint", "predicate": row["pred"]}
        c = row["constraint"]
        if c == "iri":
            tc["valueExpr"] = {"type": "NodeConstraint", "nodeKind": "iri"}
        elif c == "bnode":
            tc["valueExpr"] = {"type": "NodeConstraint", "nodeKind": "bnode"}
        elif isinstance(c, str) and c.startswith("lit:"):
            tc["valueExpr"] = {"type": "NodeConstraint", "datatype": c[4:]}
        elif isinstance(c, str) and c.startswith("lang:"):
            tc["valueExpr"] = {
                "type": "NodeConstraint",
                "values": [{"type": "Language", "languageTag": c[5:]}],
            }
        elif c in ("literal", "langstring"):
            tc["valueExpr"] = {"type": "NodeConstraint", "nodeKind": "literal"}
        if not (mn == 1 and mx == 1):
            tc["min"], tc["max"] = mn, mx
        exprs.append(tc)

    # followOn recursion (SURVEY §2.11; reference SchemaInfer.scala:176-182,
    # 253-273 + FollowOn.scala): a rule firing on (label, pred, num) turns
    # that TC's valueExpr into a shape REF and infers the referenced shape
    # from the pred's object nodes — depth-bounded by max_follow_on
    # (InferOptions.scala:31: default 1). One extra focus-filtered scan
    # collects ALL followed preds' object sets together.
    extra_shapes: dict[str, dict] = {}
    if follow_on and _depth < max_follow_on and exprs:
        seen = _seen_labels if _seen_labels is not None else {shape_label}
        followed: dict[str, str] = {}
        for tc in exprs:
            hits = set()
            for rule in follow_on:
                nl = rule(shape_label, tc["predicate"], _depth + 1)
                if nl is not None:
                    hits.add(nl)
            if len(hits) > 1:
                # reference errs the same way (SchemaInfer.scala:182)
                raise ValueError(
                    f"More than one followOn for {tc['predicate']}: {sorted(hits)}"
                )
            if hits:
                followed[tc["predicate"]] = hits.pop()
        if followed:
            fp = pa.array(sorted(followed))

            def follow_proj(batch: pa.Table) -> pa.Table:
                m = pc.and_(
                    pc.is_in(batch.column("pred"), value_set=fp),
                    pc.not_equal(batch.column("obj_kind"), "literal"),
                )
                sub = batch.filter(m)
                return pa.table(
                    {"pred": sub.column("pred"), "subj": sub.column("obj_lex")}
                )

            objs = distinct_rows_fast(
                arcs.map_batches(follow_proj, batch_format="pyarrow")
            ).materialize()
            for pred, new_label in sorted(followed.items()):
                for tc in exprs:
                    if tc["predicate"] == pred:
                        tc["valueExpr"] = new_label  # shape ref
                if new_label in seen:
                    continue  # visited guard (InferState.scala:7-46 analog)
                seen.add(new_label)

                def pick(batch: pa.Table, _p=pred) -> pa.Table:
                    return batch.filter(pc.equal(batch.column("pred"), _p))

                sub_focus = (
                    objs.map_batches(pick, batch_format="pyarrow")
                    .select_columns(["subj"])
                    .materialize()
                )
                if sub_focus.count() == 0:
                    continue
                sub_schema, _sub_stats = infer_schema(
                    triples_ds,
                    shape_label=new_label,
                    max_preds=max_preds,
                    follow_on=follow_on,
                    max_follow_on=max_follow_on,
                    focus_subjects=sub_focus,
                    _depth=_depth + 1,
                    _seen_labels=seen,
                )
                for lbl, sh in sub_schema["shapes"].items():
                    extra_shapes.setdefault(lbl, sh)

    # J6: annotate inferred properties with rdfs:label (reference
    # InferredShape.scala:104-125) — the label arcs were harvested in the
    # SAME scan as the stats input; here we only filter that (small) side
    # table by the schema-sized predicate set
    pred_set = {tc["predicate"] for tc in exprs}
    if pred_set:
        pred_arr = pa.array(sorted(pred_set))

        def pick_labels(batch: pa.Table) -> pa.Table:
            sub = batch.filter(pc.is_in(batch.column("subj"), value_set=pred_arr))
            return pa.table(
                {"subj": sub.column("subj"), "label": sub.column("label")}
            )

        labels = {
            r["subj"]: r["label"]
            for r in labels_ds.map_batches(
                pick_labels, batch_format="pyarrow"
            ).take_all()
        }
        for tc in exprs:
            lbl = labels.get(tc["predicate"])
            if lbl:
                tc["annotations"] = [
                    {
                        "type": "Annotation",
                        "predicate": RDFS_LABEL,
                        "object": {"value": lbl},
                    }
                ]

    shape = {"type": "Shape"}
    if len(exprs) == 1:
        shape["expression"] = exprs[0]
    elif exprs:
        shape["expression"] = {"type": "EachOf", "expressions": exprs}
    shape["id"] = shape_label
    schema_ir = {
        "start": None,
        "shapes": {shape_label: shape},
        "te_refs": {},
        "imports": [],
    }
    for lbl, sh in extra_shapes.items():
        schema_ir["shapes"].setdefault(lbl, sh)
    return schema_ir, stats_tbl
