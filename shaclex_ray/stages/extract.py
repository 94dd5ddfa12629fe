"""Span → triple extraction (SURVEY.md M9): the engine's first wide stage.

Pure vectorized Arrow kernel run through ``map_batches(batch_format=
"pyarrow")``: explode the spans list with list_flatten/list_parent_indices,
then emit deterministic candidate triples per span kind, carrying
``(doc_id, span_idx)`` lineage so the per-row span-sequence invariant is
checkable after any downstream shuffle. No reference counterpart — the
reference starts from parsed RDF (Main.scala:253-274); these rules define
our deterministic oracle semantics.

The two entity-span relations, ``doc ex:mentions m`` and ``m rdf:type
ex:Mention``, leave a batch already combined (``_mention_tables``): one
row per distinct identity in the batch, carrying its least (doc_id,
span_idx) witness. The raw triples stay pre-canonical (mention IRIs, not
entity IRIs), and the canonical stage's least-witness distinct gives the
same table as over one row per span; only which duplicates reach it
depends on how the documents were batched.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

EX = "http://ex.org/"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDF_LANGSTRING = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"
XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"

DOC_NS = EX + "doc/"
MENTION_NS = EX + "mention/"
ENT_NS = EX + "ent/"

P_LANG = EX + "lang"
P_SOURCE = EX + "source"
P_TEXT = EX + "hasText"
P_MENTIONS = EX + "mentions"
P_MEDIA = EX + "hasMedia"
P_SURFACE = EX + "surface"
C_DOCUMENT = EX + "Document"
C_MENTION = EX + "Mention"
C_ENTITY = EX + "Entity"
C_MEDIA = EX + "Media"


def _tbl(subj, pred, okind, olex, odt, olang, doc, span) -> pa.Table:
    n = len(subj)

    def col(v, typ=pa.string()):
        if isinstance(v, str):
            return pa.array([v] * n, typ)
        if isinstance(v, pa.ChunkedArray):
            return v.combine_chunks()
        return v

    return pa.table(
        {
            "subj": col(subj),
            "pred": col(pred),
            "obj_kind": col(okind),
            "obj_lex": col(olex),
            "obj_dt": col(odt),
            "obj_lang": col(olang),
            "doc_id": col(doc),
            "span_idx": col(span, pa.int32())
            if not isinstance(span, int)
            else pa.array([span] * n, pa.int32()),
        }
    )


def _least_rows(keys, witness) -> np.ndarray:
    """Row indices of the least-``witness`` row of each distinct ``keys``
    tuple (integer arrays, compared in order), in row order: one integer
    ``lexsort`` and the first row of each run."""
    order = np.lexsort(tuple(reversed(keys + witness)))
    first = np.ones(len(order), dtype=bool)
    same = np.ones(len(order) - 1, dtype=bool)
    for k in keys:
        ko = k[order]
        same &= ko[1:] == ko[:-1]
    first[1:] = ~same
    return np.sort(order[first])


def _mention_tables(text, parents, offset, doc_ids, doc_iris):
    """The two entity-span relations of a batch, combined within it:

      * ``doc ex:mentions m``: one row per (doc_id, mention text), the
        least ``span_idx`` kept;
      * ``m rdf:type ex:Mention``: one row per mention text, the least
        (``doc_id``, ``span_idx``) kept, ``doc_id`` ranked in the byte
        order of the dedup's witness sort.

    Every dropped row is a duplicate identity with a greater witness, so
    the canonical dedup's least-witness distinct is unchanged."""
    codes = pc.dictionary_encode(text, null_encoding="encode")
    mention = codes.indices.to_numpy()
    mention_iris = pc.binary_join_element_wise(MENTION_NS, codes.dictionary, "")
    doc = pc.rank(doc_ids, tiebreaker="dense").to_numpy()[parents]
    span = offset.to_numpy()

    keep = _least_rows([doc, mention], [span])
    rows = pa.array(parents[keep])
    mentions = _tbl(pc.take(doc_iris, rows), P_MENTIONS, "iri",
                    pc.take(mention_iris, mention[keep]), "", "",
                    pc.take(doc_ids, rows), pa.array(span[keep]))
    keep = _least_rows([mention], [doc, span])
    types = _tbl(pc.take(mention_iris, mention[keep]), RDF_TYPE, "iri",
                 C_MENTION, "", "", pc.take(doc_ids, pa.array(parents[keep])),
                 pa.array(span[keep]))
    return mentions, types


def extract_triples_batch(batch: pa.Table) -> pa.Table:
    """documents batch (doc_id, spans, lang, source) -> triples batch."""
    doc_ids = batch.column("doc_id").combine_chunks()
    doc_iris = pc.binary_join_element_wise(DOC_NS, doc_ids, "")
    parts: list[pa.Table] = []

    # doc-level triples (span_idx = -1)
    parts.append(_tbl(doc_iris, RDF_TYPE, "iri", C_DOCUMENT, "", "", doc_ids, -1))
    parts.append(
        _tbl(
            doc_iris,
            P_LANG,
            "literal",
            pc.fill_null(batch.column("lang").combine_chunks(), ""),
            XSD_STRING,
            "",
            doc_ids,
            -1,
        )
    )
    parts.append(
        _tbl(
            doc_iris,
            P_SOURCE,
            "literal",
            pc.fill_null(batch.column("source").combine_chunks(), ""),
            XSD_STRING,
            "",
            doc_ids,
            -1,
        )
    )

    # explode spans
    spans = batch.column("spans").combine_chunks()
    flat = pc.list_flatten(spans)
    parents = pc.list_parent_indices(spans)
    if len(flat) > 0:
        kind = flat.field("kind")
        text = flat.field("text")
        media = flat.field("media_ref")
        offset = flat.field("offset")
        span_doc_ids = pc.take(doc_ids, parents)
        span_doc_iris = pc.take(doc_iris, parents)
        span_langs = pc.take(
            pc.fill_null(batch.column("lang").combine_chunks(), ""), parents
        )

        tmask = pc.equal(kind, "text")
        if pc.any(tmask).as_py():
            parts.append(
                _tbl(
                    pc.filter(span_doc_iris, tmask),
                    P_TEXT,
                    "literal",
                    pc.filter(text, tmask),
                    RDF_LANGSTRING,
                    pc.filter(span_langs, tmask),
                    pc.filter(span_doc_ids, tmask),
                    pc.filter(offset, tmask),
                )
            )

        emask = pc.equal(kind, "entity")
        if pc.any(emask).as_py():
            parts.extend(_mention_tables(
                pc.filter(text, emask),
                pc.filter(parents, emask).to_numpy(),
                pc.filter(offset, emask),
                doc_ids,
                doc_iris,
            ))

        mmask = pc.equal(kind, "image")
        if pc.any(mmask).as_py():
            media_refs = pc.filter(media, mmask)
            parts.append(
                _tbl(
                    pc.filter(span_doc_iris, mmask),
                    P_MEDIA,
                    "iri",
                    media_refs,
                    "",
                    "",
                    pc.filter(span_doc_ids, mmask),
                    pc.filter(offset, mmask),
                )
            )
            parts.append(
                _tbl(
                    media_refs,
                    RDF_TYPE,
                    "iri",
                    C_MEDIA,
                    "",
                    "",
                    pc.filter(span_doc_ids, mmask),
                    pc.filter(offset, mmask),
                )
            )

    out = pa.concat_tables(parts)
    return out.combine_chunks()


def extract_triples(docs_ds):
    """documents Dataset -> raw (pre-dedup, pre-canonicalization) triples."""
    return docs_ds.map_batches(extract_triples_batch, batch_format="pyarrow")


def extract_partition(part: dict):
    """Per-partition extraction generator for the checkpointed pipeline
    (state/checkpoint.py run_partitioned): stream the partition's document
    batches through the same vectorized span + triple kernels the
    Dataset path uses, yielding triple tables. The same rows as
    ``extract_triples(read_documents(...))`` except for the two mention
    relations, which each path combines per its own batches; their
    least-witness distinct is equal — pinned by
    tests/test_checkpoint_parts.py."""
    from shaclex_ray.sources.documents import (
        build_spans_batch_vec,
        iter_document_partition,
    )

    for docs in iter_document_partition(part):
        yield extract_triples_batch(build_spans_batch_vec(docs))
