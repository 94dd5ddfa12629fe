"""Public engine facade — the analog of the reference's embedding API
(SHACLWrapper/ShExWrapper, SURVEY.md §2.11) and pluggable-engine registry
(Schemas.availableSchemas, Schemas.scala:22-50).

    validate_shex(triples_ds, schema, shapemap)  -> (typing, summary)
    validate_shacl(triples_ds, shapes)           -> (typing, report, summary)

``triples_ds``: a Ray Dataset in TRIPLES_SCHEMA (from the KG pipeline,
read_ntriples/read_turtle_files, or read_parquet of a triple table).
Schemas accepted as ShExC text / ShExJ dict / SHACL Turtle text / compiled
dict. Every call runs the distributed BSP fixpoint (``validate/dist.py``):
a small graph plans to one bucket and runs as one pooled Ray task, a
larger one on a fleet of bucket actors. The in-memory
conformance-verified validators are its semantics oracle.
"""

from __future__ import annotations

import pyarrow as pa

from shaclex_ray.rdfio import parse_turtle
from shaclex_ray.shapes.shacl import compile_shacl
from shaclex_ray.shapes.shapemap import parse_shapemap
from shaclex_ray.shapes.shexc import parse_shexc
from shaclex_ray.shapes.shexj import load_shexj
from shaclex_ray.terms import key_to_term, term_key
from shaclex_ray.validate.dist import distributed_validate

ENGINES = ("shex", "shacl")  # the registry (reference: ShEx, SHACLex, …)


def _split_shapemap(assocs: list[dict]):
    """Concrete node selectors → a small (node, shape) table; pattern
    selectors ({FOCUS p o} / {s p FOCUS}) → resolved IN-BUCKET by the
    validators (BucketWorker.derive_focus), so the input Dataset is
    scanned exactly once — by the bucket split. Returns either the
    concrete table or ("shex-patterns", pattern_assocs, concrete)."""
    pairs: set[tuple[str, str]] = set()
    patterns = []
    for a in assocs:
        if a["kind"] == "node":
            if a["node"] is None:
                raise ValueError("START node selector needs a concrete node")
            pairs.add((term_key(a["node"]), a["shape"]))
        else:
            patterns.append(a)
    sp = sorted(pairs)
    concrete = pa.table(
        {
            "node": pa.array([p[0] for p in sp], pa.string()),
            "shape": pa.array([p[1] for p in sp], pa.string()),
        }
    )
    if patterns:
        return ("shex-patterns", patterns, concrete)
    return concrete


def compile_schema(engine: str, schema) -> dict:
    if isinstance(schema, dict) and "shapes" in schema:
        if engine == "shex" and "te_refs" not in schema:
            return load_shexj(schema)
        return schema
    if engine == "shex":
        if isinstance(schema, str) and schema.lstrip().startswith("{"):
            return load_shexj(schema)
        return parse_shexc(schema)
    if engine == "shacl":
        triples = schema if isinstance(schema, list) else parse_turtle(schema)
        return compile_shacl(triples)
    raise ValueError(f"unknown engine {engine!r} (have {ENGINES})")


def validate_shex(
    triples_ds,
    schema,
    shapemap: str,
    prefixes: dict | None = None,
    nbuckets: int | None = None,
    include_inverse: bool = False,
):
    """ShEx validation of a triples Dataset; shapemap in compact syntax.
    Returns (typing: pa.Table(node, shape, val, is_focus), summary dict).

    ``include_inverse=False`` defers to ``schema_has_inverse`` detection
    inside distributed_validate (same contract validate_shacl already
    uses): reversed arc copies — which double the split exchange volume —
    are built only when the schema actually contains ``^p`` constraints."""
    compiled = compile_schema("shex", schema)
    assocs = parse_shapemap(shapemap, prefixes or compiled.get("prefixes"))
    focus = _split_shapemap(assocs)
    typing, _report = distributed_validate(
        triples_ds,
        "shex",
        compiled,
        focus,
        nbuckets=nbuckets,
        include_inverse=include_inverse,
    )
    return typing, _summary(typing)


def validate_shacl(triples_ds, shapes, nbuckets: int | None = None):
    """SHACL validation (TargetDeclarations trigger — the reference's
    validateTargetDecls, ShaclexSchema.scala:35-42). Returns
    (typing, report, summary)."""
    compiled = compile_schema("shacl", shapes)
    # targets derive in-bucket from the loaded arc index (no second scan)
    typing, report = distributed_validate(
        triples_ds, "shacl", compiled, "shacl-targets", nbuckets=nbuckets
    )
    summary = _summary(typing)
    summary["conforms"] = report.num_rows == 0
    summary["violations"] = report.num_rows
    return typing, report, summary


def validate(
    triples_ds,
    engine: str,
    schema,
    trigger: str = "TARGETDECLS",
    shapemap: str | None = None,
    node: str | None = None,
    shape: str | None = None,
    prefixes: dict | None = None,
    nbuckets: int | None = None,
):
    """Unified entry with the reference's four trigger modes
    (ValidationTrigger.findTrigger, ValidationTrigger.scala:57-96):
    TARGETDECLS (SHACL-style), SHAPEMAP, NODESHAPE, NODESTART."""
    trigger = trigger.upper()
    if trigger == "TARGETDECLS":
        if engine != "shacl":
            raise ValueError("TARGETDECLS trigger requires the shacl engine")
        return validate_shacl(triples_ds, schema, nbuckets=nbuckets)
    if trigger == "SHAPEMAP":
        if shapemap is None:
            raise ValueError("SHAPEMAP trigger needs a shapemap string")
        return validate_shex(triples_ds, schema, shapemap, prefixes, nbuckets=nbuckets)
    if trigger == "NODESHAPE":
        if node is None or shape is None:
            raise ValueError("NODESHAPE trigger needs node and shape")
        return validate_shex(
            triples_ds, schema, f"{node}@{shape}", prefixes, nbuckets=nbuckets
        )
    if trigger == "NODESTART":
        if node is None:
            raise ValueError("NODESTART trigger needs a node")
        return validate_shex(
            triples_ds, schema, f"{node}@START", prefixes, nbuckets=nbuckets
        )
    raise ValueError(f"unknown trigger {trigger!r}")


def _summary(typing: pa.Table) -> dict:
    import pyarrow.compute as pc

    focus_mask = typing.column("is_focus")
    focus = typing.filter(focus_mask)
    vals = focus.column("val").to_pylist()
    conformant = sum(1 for v in vals if v == "conforms")
    nonconformant = sum(1 for v in vals if v == "notConforms")
    # undecided (unknown / error:*) focus pairs are NOT valid — a truncated
    # or partially-failed validation must never present as a clean pass
    unknown = focus.num_rows - conformant - nonconformant
    return {
        "focus_pairs": focus.num_rows,
        "conformant": conformant,
        "nonconformant": nonconformant,
        "unknown": unknown,
        "valid": conformant == focus.num_rows,  # unknown/error ⇒ not valid
    }
