"""Entity linking + canonicalization (SURVEY.md A5/J9, the north-star ops).

Blocking: a mention's key is ``lower(trim(surface))`` (``canonical_iris``,
the one definition, Arrow ``utf8_lower`` / ``utf8_trim_whitespace``), and the
mention links to the entity IRI ``ENT_NS + key``. Each mention has exactly
one key, so each block is one entity: there is no component merge, and the
canonical IRI is a row function of the mention IRI (``canonical_iris``) —
the rule the DuckDB twin of ``kg_entity_links`` states as
``'http://ex.org/ent/' || tok``. A blocking rule that can put one mention
in two blocks (aliases, token blocking) would need a merge again.

Two consumers of the rule:
  * ``build_entity_links``: one exchange keeping a (mention,
    canonical_iri) row per distinct iri-kind ``ex:mentions`` object — the
    ``entity_links`` output, written by its bucket tasks;
  * ``canonicalize``: the per-batch rewrite of ``subj`` and iri-kind
    ``obj_lex`` plus the entity metadata triples, run inside the dedup
    exchange's split tasks (stages/dedup.py), so no link table ships.

Determinism: both are pure functions of their input rows.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from shaclex_ray.stages import exchange
from shaclex_ray.stages.extract import (
    C_ENTITY,
    ENT_NS,
    MENTION_NS,
    P_MENTIONS,
    P_SURFACE,
    RDF_TYPE,
    XSD_STRING,
)
from shaclex_ray.terms import TRIPLES_SCHEMA

LINKS_SCHEMA = pa.schema(
    [("mention", pa.string()), ("canonical_iri", pa.string())]
)


def canonical_iris(mention_iris):
    """The canonical entity IRI of each mention IRI: ``ENT_NS`` + the
    blocking key ``lower(trim(surface))`` of its surface (the IRI minus
    ``MENTION_NS``)."""
    surfaces = pc.utf8_replace_slice(mention_iris, 0, len(MENTION_NS), "")
    key = pc.utf8_lower(pc.utf8_trim_whitespace(surfaces))
    return pc.binary_join_element_wise(ENT_NS, key, "")


def _link_split(tbl: pa.Table, nbuckets: int):
    """Split kernel of ``build_entity_links``: the iri-kind ``ex:mentions``
    objects in ``MENTION_NS`` (``canonicalize``'s mentions) as
    ``LINKS_SCHEMA`` rows, distinct per mention, partitioned by its hash."""
    from shaclex_ray.stages.dedup import _distinct_split_impl

    obj_lex = tbl.column("obj_lex")
    mask = pc.and_(
        pc.and_(pc.equal(tbl.column("pred"), P_MENTIONS),
                pc.equal(tbl.column("obj_kind"), "iri")),
        pc.starts_with(obj_lex, MENTION_NS),
    )
    iris = pc.filter(obj_lex, mask)
    links = pa.table([iris, canonical_iris(iris)], schema=LINKS_SCHEMA)
    return _distinct_split_impl(links, nbuckets, ["mention"], None, False)


def build_entity_links(triples, output_dir: str | None = None):
    """mention_iri -> canonical_iri links (``LINKS_SCHEMA``), one row per
    distinct mention, from one exchange over ``triples``: raw triple
    parquet files, which the split tasks read pruned, or a Dataset.
    Returns the table as a Dataset or, with ``output_dir``, its row
    count: the bucket tasks write it there (``exchange.sink``)."""
    from shaclex_ray.stages.dedup import _distinct_bucket_impl

    if not isinstance(triples, list):
        triples = triples.materialize()
    cols = ["pred", "obj_kind", "obj_lex"]
    split_refs = exchange.split(
        _link_split, (), exchange.plan(triples, cols), TRIPLES_SCHEMA, cols
    )
    args = (["mention"], None)
    if output_dir is None:
        return exchange.reduce(split_refs, _distinct_bucket_impl, args)
    return sum(exchange.sink(split_refs, _distinct_bucket_impl, args, output_dir))


def entity_triples(canon: pa.Array) -> pa.Table:
    """Entity metadata triples (``rdf:type ex:Entity`` and ``ex:surface``)
    of distinct canonical IRIs, with the ("", -1) witness."""
    n = len(canon)
    surfaces = pc.utf8_replace_slice(canon, 0, len(ENT_NS), "")
    const = lambda v, m: pa.array([v] * m, pa.string())  # noqa: E731
    return pa.table(
        {
            "subj": pa.concat_arrays([canon, canon]),
            "pred": pa.concat_arrays([const(RDF_TYPE, n), const(P_SURFACE, n)]),
            "obj_kind": pa.concat_arrays([const("iri", n), const("literal", n)]),
            "obj_lex": pa.concat_arrays([const(C_ENTITY, n), surfaces]),
            "obj_dt": pa.concat_arrays([const("", n), const(XSD_STRING, n)]),
            "obj_lang": const("", 2 * n),
            "doc_id": const("", 2 * n),
            "span_idx": pa.array([-1] * (2 * n), pa.int32()),
        }
    )


def _rewrite(arr: pa.Array, mask: pa.Array) -> pa.Array:
    """``arr`` with its ``mask``ed entries (mention IRIs) replaced by their
    canonical IRIs. The rule runs once per distinct masked value (the
    dictionary of the masked entries), not once per row."""
    mask = pc.fill_null(mask, False)
    if not pc.any(mask).as_py():
        return arr
    mentions = pc.filter(arr, mask).dictionary_encode()
    canon = pc.take(canonical_iris(mentions.dictionary), mentions.indices)
    return pc.replace_with_mask(arr, mask, canon)


def canonicalize(batch: pa.Table) -> pa.Table:
    """The canonical form of a triple batch: every ``subj`` and iri-kind
    ``obj_lex`` in ``MENTION_NS`` becomes its canonical entity IRI, and
    the entity metadata triples of the batch's canonical ``ex:mentions``
    objects are appended (copies across batches are identical rows, which
    the dedup exchange collapses). The identity on triples outside the
    mention namespace."""
    col = lambda name: batch.column(name).combine_chunks()  # noqa: E731
    subj = col("subj")
    batch = batch.set_column(
        batch.schema.get_field_index("subj"), "subj",
        _rewrite(subj, pc.starts_with(subj, MENTION_NS)),
    )
    obj_lex = col("obj_lex")
    obj_mask = pc.and_(
        pc.equal(col("obj_kind"), "iri"), pc.starts_with(obj_lex, MENTION_NS)
    )
    obj_lex = _rewrite(obj_lex, obj_mask)
    batch = batch.set_column(
        batch.schema.get_field_index("obj_lex"), "obj_lex", obj_lex
    )
    entities = pc.and_(obj_mask, pc.equal(col("pred"), P_MENTIONS))
    if not pc.any(entities).as_py():
        return batch
    canon = pc.unique(pc.filter(obj_lex, entities))
    meta = entity_triples(canon).select(batch.column_names).cast(batch.schema)
    return pa.concat_tables([batch, meta])
