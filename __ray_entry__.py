"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship KG-construction pipeline at sf0.001.
``queries()`` exposes one callable per implemented operator family
(SURVEY.md §2 + the training-data ops); ``oracle_sql()`` gives the DuckDB
equivalent for every SQL-expressible one. The KG queries' oracles
reproduce the *entire* deterministic synthesis + extraction +
canonicalization in SQL over the ``documents`` view, so the value-hash
comparison covers the whole pipeline, not just a projection.

Shape-validation semantics are additionally pinned by the vendored W3C
conformance suites in tests/ (1088 shexTest entries, zero skips + 98
SHACL core) — those are not SQL-expressible and run under pytest.

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

# ---------------------------------------------------------------------------
# shared SQL fragments (deterministic synthesis mirror —
# shaclex_ray/sources/documents.py must stay in lockstep)

_VOCAB_SQL = "('spark','customer','vector','window','stream','hash','merge','join')"

_DOCS_CTE = """
docs AS (
  SELECT doc_id,
         -- pad-only label policy (documents.doc_id_str): DuckDB's lpad
         -- TRUNCATES >8-char ids, so guard it for dirty (13-digit) ids
         'doc-' || CASE WHEN length(CAST(doc_id AS VARCHAR)) >= 8
                        THEN CAST(doc_id AS VARCHAR)
                        ELSE lpad(CAST(doc_id AS VARCHAR), 8, '0') END AS did,
         text, coalesce(lang, '') AS lang, coalesce(source, '') AS source,
         -- engine span builder: null/empty text -> NO tokens/chunks
         CASE WHEN coalesce(text, '') = '' THEN CAST([] AS VARCHAR[])
              ELSE string_split(text, ' ') END AS toks
  FROM documents
),
tokens AS (
  SELECT d.doc_id, d.did, d.lang,
         u.i AS tok_idx,
         d.toks[u.i + 1] AS tok,
         CAST(floor(u.i / 8) AS BIGINT) AS chunk
  FROM docs d, unnest(generate_series(0, len(d.toks) - 1)) AS u(i)
),
chunks AS (
  SELECT doc_id, did, lang, u.c AS chunk,
         array_to_string(list_slice(toks, u.c * 8 + 1, u.c * 8 + 8), ' ') AS chunk_text
  FROM docs,
       unnest(generate_series(0, CAST(ceil(len(toks) / 8.0) AS BIGINT) - 1)) AS u(c)
),
entity_tokens AS (
  SELECT doc_id, did, chunk, tok_idx, tok,
         -- sign-safe modulo: SQL % keeps the dividend's sign, numpy's
         -- doesn't — ((x % 3) + 3) % 3 matches the engine on negative ids
         CASE ((doc_id + tok_idx) % 3 + 3) % 3
           WHEN 1 THEN upper(tok)
           WHEN 2 THEN upper(substr(tok, 1, 1)) || substr(tok, 2)
           ELSE tok END AS mention
  FROM tokens WHERE tok IN """ + _VOCAB_SQL + """
),
media_chunks AS (
  SELECT doc_id, did, chunk,
         'media://h/' || md5(did || '/' || CAST(chunk AS VARCHAR)) AS media_ref
  FROM chunks WHERE (doc_id + chunk) % 7 = 0
)
"""

_SPANS_CTE = _DOCS_CTE + """,
spans0 AS (
  SELECT did, chunk, 0 AS sub_ord, 'text' AS kind, chunk_text AS text, '' AS media_ref
  FROM chunks
  UNION ALL
  SELECT did, chunk,
         1 + CAST(row_number() OVER (PARTITION BY did, chunk ORDER BY tok_idx) AS BIGINT) AS sub_ord,
         'entity', mention, ''
  FROM entity_tokens
  UNION ALL
  SELECT did, chunk, 1000000, 'image', '', media_ref FROM media_chunks
),
spans AS (
  SELECT did, kind, text, media_ref,
         CAST(row_number() OVER (PARTITION BY did ORDER BY chunk, sub_ord) - 1 AS BIGINT) AS ord
  FROM spans0
)
"""

_TRIPLES_CTE = _DOCS_CTE + """,
ents AS (SELECT DISTINCT tok FROM entity_tokens),
triples0 AS (
  -- doc-level
  SELECT 'http://ex.org/doc/' || did AS subj,
         'http://www.w3.org/1999/02/22-rdf-syntax-ns#type' AS pred,
         'iri' AS obj_kind, 'http://ex.org/Document' AS obj_lex,
         '' AS obj_dt, '' AS obj_lang
  FROM docs
  UNION ALL
  SELECT 'http://ex.org/doc/' || did, 'http://ex.org/lang', 'literal', lang,
         'http://www.w3.org/2001/XMLSchema#string', '' FROM docs
  UNION ALL
  SELECT 'http://ex.org/doc/' || did, 'http://ex.org/source', 'literal', source,
         'http://www.w3.org/2001/XMLSchema#string', '' FROM docs
  UNION ALL
  -- text spans (lang-tagged literals)
  SELECT 'http://ex.org/doc/' || did, 'http://ex.org/hasText', 'literal', chunk_text,
         'http://www.w3.org/1999/02/22-rdf-syntax-ns#langString', lang FROM chunks
  UNION ALL
  -- mentions, canonicalized: ent IRI = lower(mention) = tok
  SELECT 'http://ex.org/doc/' || did, 'http://ex.org/mentions', 'iri',
         'http://ex.org/ent/' || tok, '', '' FROM entity_tokens
  UNION ALL
  -- canonicalized (ent, type, Mention) from raw mention-type triples
  SELECT DISTINCT 'http://ex.org/ent/' || tok,
         'http://www.w3.org/1999/02/22-rdf-syntax-ns#type', 'iri',
         'http://ex.org/Mention', '', '' FROM entity_tokens
  UNION ALL
  -- entity metadata from the link table
  SELECT 'http://ex.org/ent/' || tok,
         'http://www.w3.org/1999/02/22-rdf-syntax-ns#type', 'iri',
         'http://ex.org/Entity', '', '' FROM ents
  UNION ALL
  SELECT 'http://ex.org/ent/' || tok, 'http://ex.org/surface', 'literal', tok,
         'http://www.w3.org/2001/XMLSchema#string', '' FROM ents
  UNION ALL
  -- media
  SELECT 'http://ex.org/doc/' || did, 'http://ex.org/hasMedia', 'iri', media_ref,
         '', '' FROM media_chunks
  UNION ALL
  SELECT DISTINCT media_ref, 'http://www.w3.org/1999/02/22-rdf-syntax-ns#type',
         'iri', 'http://ex.org/Media', '', '' FROM media_chunks
),
kg_triples AS (SELECT DISTINCT * FROM triples0)
"""

_PIPELINE_CACHE: dict[str, Any] = {}


def _pipeline(sf_dir: str):
    if sf_dir not in _PIPELINE_CACHE:
        from shaclex_ray.pipelines.kg import run_kg_pipeline

        _PIPELINE_CACHE[sf_dir] = run_kg_pipeline(
            sf_dir, f"/tmp/graft_kg/{sf_dir.strip('/').replace('/', '_')}"
        )
    return _PIPELINE_CACHE[sf_dir]


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001; returns the canonical
    validated triple table as a Ray Dataset."""
    out = _pipeline("/root/testdata/sf0.001")
    return out["triples"]


# ---------------------------------------------------------------------------
# queries

def _q_kg_triples(sf_dir: str):
    return _pipeline(sf_dir)["triples"].select_columns(
        ["subj", "pred", "obj_kind", "obj_lex", "obj_dt", "obj_lang"]
    )


def _q_doc_spans(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    from shaclex_ray.sources.documents import read_documents

    def explode(batch: pa.Table) -> pa.Table:
        spans = batch.column("spans").combine_chunks()
        flat = pc.list_flatten(spans)
        parents = pc.list_parent_indices(spans)
        return pa.table(
            {
                "did": pc.take(batch.column("doc_id").combine_chunks(), parents),
                "kind": flat.field("kind"),
                "text": flat.field("text"),
                "media_ref": flat.field("media_ref"),
                "ord": flat.field("offset").cast(pa.int64()),
            }
        )

    return read_documents(sf_dir).map_batches(explode, batch_format="pyarrow")


def _q_kg_entity_links(sf_dir: str):
    from shaclex_ray.sources.documents import read_documents
    from shaclex_ray.stages.extract import extract_triples
    from shaclex_ray.stages.link import build_entity_links

    raw = extract_triples(read_documents(sf_dir))
    return build_entity_links(raw)


def _q_kg_triples_per_pred(sf_dir: str):
    from shaclex_ray.stages.groupagg import grouped_aggregate_fast

    return grouped_aggregate_fast(
        _q_kg_triples(sf_dir), ["pred"], [("pred", "count")], ["n"]
    )


def _q_kg_doc_entity_counts(sf_dir: str):
    import pyarrow as pa

    from shaclex_ray.stages.extract import P_MENTIONS

    ds = _q_kg_triples(sf_dir)

    def project(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        m = batch.filter(pc.equal(batch.column("pred"), P_MENTIONS))
        return pa.table({"subj": m.column("subj"), "ent": m.column("obj_lex")})

    from shaclex_ray.stages.groupagg import grouped_aggregate_fast

    # COUNT(DISTINCT ent) per subj via the one-move key-partitioned
    # exchange (map-side distinct combiner, Arrow count_distinct per
    # bucket — no per-document Python call)
    return grouped_aggregate_fast(
        ds.map_batches(project, batch_format="pyarrow"),
        ["subj"],
        [("ent", "count_distinct")],
        ["n_entities"],
    )


def _q_kg_validation_mincount(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    def project(rep: pa.Table) -> pa.Table:
        mask = pc.equal(rep.column("component"),
                        "http://www.w3.org/ns/shacl#MinCountConstraintComponent")
        focus = pc.filter(rep.column("focus_node"), mask)
        # term key "I<iri>" -> plain IRI for SQL comparability
        return pa.table({"focus_iri": pc.utf8_replace_slice(focus, 0, 1, "")})

    return _pipeline(sf_dir)["report"].map_batches(project, batch_format="pyarrow")


def _q_kg_typing_counts(sf_dir: str):
    import pyarrow.compute as pc

    from shaclex_ray.stages.groupagg import grouped_aggregate_fast

    focus = _pipeline(sf_dir)["typing"].map_batches(
        lambda t: t.filter(pc.field("is_focus")), batch_format="pyarrow"
    )
    return grouped_aggregate_fast(
        focus, ["shape", "val"], [("shape", "count")], ["n"]
    ).sort(["shape", "val"])


def _q_text_token_stats(sf_dir: str):
    from shaclex_ray.functions.text import token_stats

    return token_stats(sf_dir)


def _q_text_fingerprints(sf_dir: str):
    from shaclex_ray.functions.text import fingerprints

    return fingerprints(sf_dir)


def _q_dedup_exact(sf_dir: str):
    from shaclex_ray.functions.dedup import exact_groups

    return exact_groups(sf_dir)


def _q_dedup_minhash(sf_dir: str):
    from shaclex_ray.functions.dedup import minhash_candidates

    return minhash_candidates(sf_dir)


def _q_dedup_simhash(sf_dir: str):
    from shaclex_ray.functions.dedup import simhashes

    return simhashes(sf_dir)


def _q_dedup_simhash_groups(sf_dir: str):
    from shaclex_ray.functions.dedup import simhash_groups

    return simhash_groups(sf_dir)


def _q_text_quality(sf_dir: str):
    from shaclex_ray.functions.text import quality

    return quality(sf_dir)


def _q_dedup_ngram_jaccard(sf_dir: str):
    from shaclex_ray.functions.dedup import ngram_jaccard_dups

    return ngram_jaccard_dups(sf_dir)


def _q_dedup_clusters(sf_dir: str):
    from shaclex_ray.functions.dedup import dedup_clusters

    return dedup_clusters(sf_dir)


def _q_ann_topk(sf_dir: str):
    from shaclex_ray.functions.ann import topk_cosine

    return topk_cosine(sf_dir, n_queries=10, k=5)


def _q_ann_lsh_buckets(sf_dir: str):
    from shaclex_ray.functions.ann import lsh_buckets

    return lsh_buckets(sf_dir)


def _q_ann_lsh_topk(sf_dir: str):
    from shaclex_ray.functions.ann import lsh_topk

    return lsh_topk(sf_dir, n_queries=10, k=5)


def _q_ann_ivf_lists(sf_dir: str):
    from shaclex_ray.functions.ann import ivf_lists

    return ivf_lists(sf_dir)


def _q_ann_ivf_topk(sf_dir: str):
    from shaclex_ray.functions.ann import ivf_topk

    return ivf_topk(sf_dir, n_queries=10, k=5)


def _q_text_term_stats(sf_dir: str):
    from shaclex_ray.functions.text import term_stats

    return term_stats(sf_dir)


def _q_text_repetition(sf_dir: str):
    from shaclex_ray.functions.text import repetition

    return repetition(sf_dir)


def _q_text_lm_novelty(sf_dir: str):
    from shaclex_ray.functions.lm import lm_novelty

    return lm_novelty(sf_dir)


def _q_text_bpe_tokens(sf_dir: str):
    from shaclex_ray.functions.text import bpe_token_stats

    return bpe_token_stats(sf_dir)


def _q_ann_knn_label(sf_dir: str):
    from shaclex_ray.functions.ann import knn_label

    return knn_label(sf_dir)


def _q_text_bpe_merges(sf_dir: str):
    # iterative algorithm (merge r depends on r-1) — no SQL twin; pinned
    # against an independent pure-Python reference in tests/test_bpe.py
    from shaclex_ray.functions.bpe import bpe_train

    return bpe_train(sf_dir)


def _q_text_bpe_encode(sf_dir: str):
    # same no-SQL-oracle class as bpe_merges; tests/test_bpe.py pins it
    from shaclex_ray.functions.bpe import bpe_encode

    return bpe_encode(sf_dir)


def _q_rel_pricing_summary(sf_dir: str):
    from shaclex_ray.functions.relational import pricing_summary

    return pricing_summary(sf_dir)


def _q_rel_top_orders(sf_dir: str):
    from shaclex_ray.functions.relational import top_orders

    return top_orders(sf_dir)


def _q_rel_regional_volume(sf_dir: str):
    from shaclex_ray.functions.relational import regional_volume

    return regional_volume(sf_dir)


def _q_curate_mixture(sf_dir: str):
    from shaclex_ray.functions.curate import mixture_report

    return mixture_report(sf_dir)


def _q_curate_split(sf_dir: str):
    from shaclex_ray.functions.curate import split_assign

    return split_assign(sf_dir)


def _q_curate_decontaminate(sf_dir: str):
    from shaclex_ray.functions.curate import decontaminate

    return decontaminate(sf_dir)


def _q_curate_top_terms(sf_dir: str):
    from shaclex_ray.functions.curate import top_terms

    return top_terms(sf_dir)


def _q_curate_corpus(sf_dir: str):
    from shaclex_ray.functions.curate import curate_corpus

    return curate_corpus(sf_dir)


def _q_text_redact(sf_dir: str):
    from shaclex_ray.functions.text import redact

    return redact(sf_dir)


def _q_curate_sample(sf_dir: str):
    from shaclex_ray.functions.curate import sample_balanced

    return sample_balanced(sf_dir, n=10)


def _q_dedup_substring(sf_dir: str):
    from shaclex_ray.functions.substr import dedup_substring

    return dedup_substring(sf_dir)


def _q_curate_substring_trim(sf_dir: str):
    from shaclex_ray.functions.substr import trim_substring_spans

    return trim_substring_spans(sf_dir)


def _q_text_langid(sf_dir: str):
    from shaclex_ray.functions.text import langid

    return langid(sf_dir)


KG_SHEX = """
prefix ex: <http://ex.org/>
prefix xsd: <http://www.w3.org/2001/XMLSchema#>

ex:DocShape {
  a [ ex:Document ] ;
  ex:lang xsd:string ;
  ex:source xsd:string ;
  ex:hasText LITERAL * ;
  ex:hasMedia IRI * ;
  ex:mentions @ex:EntShape +
}

ex:EntShape {
  a [ ex:Entity ] ;
  a [ ex:Mention ] ;
  ex:surface xsd:string
}
"""


def _q_kg_shex_doc_conformance(sf_dir: str):
    """Distributed ShEx validation of every document against the KG ShEx
    schema (EXTRA-free shape with value-shape recursion into entities);
    returns conformance counts — SQL-expressible because the shape reduces
    to 'has >= 1 mention' on this deterministic corpus."""
    import polars as pl

    from shaclex_ray.engine import validate_shex
    from shaclex_ray.shapes.shapemap import parse_shapemap

    ds = _q_kg_triples(sf_dir)
    typing, _summary = validate_shex(
        ds,
        KG_SHEX,
        "{FOCUS a <http://ex.org/Document>}@<http://ex.org/DocShape>",
    )
    t = pl.from_arrow(typing).filter(pl.col("is_focus"))
    return (
        t.group_by("val")
        .agg(pl.len().cast(pl.Int64).alias("n"))
        .sort("val")
        .to_arrow()
    )


def _q_dedup_embedding(sf_dir: str):
    from shaclex_ray.functions.dedup import embedding_near_dups

    return embedding_near_dups(sf_dir)


def _q_events_window_agg(sf_dir: str):
    from shaclex_ray.functions.events import events_window_agg

    return events_window_agg(sf_dir)


def _q_events_sessions(sf_dir: str):
    from shaclex_ray.functions.events import events_sessions

    return events_sessions(sf_dir)


def _q_events_asof_view(sf_dir: str):
    from shaclex_ray.functions.events import events_asof_view

    return events_asof_view(sf_dir)


def _q_events_json_stats(sf_dir: str):
    from shaclex_ray.functions.events import events_json_stats

    return events_json_stats(sf_dir)


def _q_kg_infer_doc_shape(sf_dir: str):
    from shaclex_ray.pipelines.infer import infer_schema
    from shaclex_ray.stages.extract import C_DOCUMENT

    ds = _q_kg_triples(sf_dir)
    _schema, stats = infer_schema(ds, focus_class=C_DOCUMENT)
    return stats


def _q_media_features(sf_dir: str):
    """Media decode+featurize, exploded to one row per (media, feature)
    so the list<float64> column hash-compares against the SQL oracle."""
    from shaclex_ray.functions.multimodal import MEDIA_FEATURES_DIM, media_features
    from shaclex_ray.sources.documents import read_documents

    def explode(batch):
        import numpy as np
        import pyarrow as pa

        n = batch.num_rows
        flat = batch.column("features").combine_chunks().flatten()
        rep = pa.array(np.repeat(np.arange(n, dtype=np.int64), MEDIA_FEATURES_DIM))
        return pa.table(
            {
                "media_ref": batch.column("media_ref").take(rep),
                "doc_id": batch.column("doc_id").take(rep),
                "feat_idx": pa.array(
                    np.tile(
                        np.arange(MEDIA_FEATURES_DIM, dtype=np.int64), n
                    )
                ),
                "value": flat,
            }
        )

    return media_features(read_documents(sf_dir)).map_batches(
        explode, batch_format="pyarrow"
    )


def _media_features_sql() -> str:
    """SQL twin of the fake decode chain: payload = sha256(media_ref)
    (bytes on the Ray side ⟺ lowercase hex here), feature digest =
    sha256(hex(payload)), feature j = uint32 little-endian of digest
    bytes [4j, 4j+4) / (2^32 - 1). Hex chars decode via strpos."""

    def b(pos: str) -> str:  # one digest byte from two hex chars
        return (
            f"((strpos('0123456789abcdef', substr(fh, {pos}, 1)) - 1) * 16"
            f" + (strpos('0123456789abcdef', substr(fh, {pos} + 1, 1)) - 1))"
        )

    val = " + ".join(
        f"{1 << (8 * k)} * {b(f'8 * u.j + {2 * k + 1}')}" for k in range(4)
    )
    return (
        "WITH "
        + _DOCS_CTE
        + f""",
fd AS (
  SELECT did AS doc_id, media_ref, sha256(sha256(media_ref)) AS fh
  FROM media_chunks
)
SELECT media_ref, doc_id, u.j AS feat_idx,
       CAST(({val}) AS DOUBLE) / 4294967295 AS value
FROM fd, unnest(generate_series(0, 7)) AS u(j)
"""
    )


def _q_media_frames(sf_dir: str, n_frames: int = 4):
    """Video/image frame sampling (1→N explosion), frames as hex so the
    sha256-chain fake kernel hash-compares against the SQL twin."""
    from shaclex_ray.functions.multimodal import media_frame_samples
    from shaclex_ray.sources.documents import read_documents

    frames = media_frame_samples(read_documents(sf_dir), n_frames=n_frames)

    def to_hex(batch):
        import pyarrow as pa

        return pa.table(
            {
                "media_ref": batch.column("media_ref"),
                "doc_id": batch.column("doc_id"),
                "frame_idx": batch.column("frame_idx").cast(pa.int64()),
                "frame_hex": pa.array(
                    [f.hex() for f in batch.column("frame").to_pylist()],
                    pa.string(),
                ),
            }
        )

    return frames.map_batches(to_hex, batch_format="pyarrow")


def _media_frames_sql(n_frames: int = 4) -> str:
    """SQL twin of the fake frame chain: payload hex = sha256(media_ref),
    frame i = sha256(payload_hex || '-' || i)."""
    return (
        "WITH "
        + _DOCS_CTE
        + f""",
fd AS (
  SELECT did AS doc_id, media_ref, sha256(media_ref) AS ph
  FROM media_chunks
)
SELECT media_ref, doc_id, CAST(u.i AS BIGINT) AS frame_idx,
       sha256(ph || '-' || CAST(u.i AS VARCHAR)) AS frame_hex
FROM fd, unnest(generate_series(0, {n_frames - 1})) AS u(i)
"""
    )


def _q_media_resize(sf_dir: str, width: int = 64, height: int = 64):
    """Resize stage exploded to one row per 32-byte output block (hex) so
    the sha256-chain fake kernel hash-compares against the SQL twin."""
    from shaclex_ray.functions.multimodal import media_resize
    from shaclex_ray.sources.documents import read_documents

    # the SQL twin enumerates FULL 32-byte blocks only; a trailing partial
    # block would silently break parity (width*height//16 must tile by 32)
    assert (width * height // 16) % 32 == 0, "resize payload must tile into 32B blocks"
    resized = media_resize(read_documents(sf_dir), width=width, height=height)

    def blocks(batch):
        import pyarrow as pa

        refs, dids, bidx, bhex = [], [], [], []
        for ref, did, payload in zip(
            batch.column("media_ref").to_pylist(),
            batch.column("doc_id").to_pylist(),
            batch.column("payload").to_pylist(),
        ):
            for j in range(0, len(payload), 32):
                refs.append(ref)
                dids.append(did)
                bidx.append(j // 32)
                bhex.append(payload[j : j + 32].hex())
        return pa.table(
            {
                "media_ref": pa.array(refs, pa.string()),
                "doc_id": pa.array(dids, pa.string()),
                "block_idx": pa.array(bidx, pa.int64()),
                "block_hex": pa.array(bhex, pa.string()),
            }
        )

    return resized.map_batches(blocks, batch_format="pyarrow")


def _media_resize_sql(width: int = 64, height: int = 64) -> str:
    """SQL twin of the fake resize chain: seed = sha256(sha256(media_ref)
    || '-WxH'), block j = sha256 applied j+1 more times."""
    assert (width * height // 16) % 32 == 0, "resize payload must tile into 32B blocks"
    nblocks = width * height // 16 // 32
    selects = []
    for j in range(nblocks):
        expr = f"sha256(sha256(media_ref) || '-{width}x{height}')"
        for _ in range(j + 1):
            expr = f"sha256({expr})"
        selects.append(
            f"SELECT media_ref, did AS doc_id, CAST({j} AS BIGINT) AS block_idx,"
            f" {expr} AS block_hex FROM media_chunks"
        )
    return "WITH " + _DOCS_CTE + "\n" + "\nUNION ALL\n".join(selects)


def _q_pack_sequences(sf_dir: str):
    from shaclex_ray.functions.pack import pack_sequences

    return pack_sequences(sf_dir, capacity=512)


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        "pack_sequences": _q_pack_sequences,
        "kg_triples": _q_kg_triples,
        "doc_spans": _q_doc_spans,
        "kg_entity_links": _q_kg_entity_links,
        "kg_triples_per_pred": _q_kg_triples_per_pred,
        "kg_doc_entity_counts": _q_kg_doc_entity_counts,
        "kg_validation_mincount": _q_kg_validation_mincount,
        "kg_typing_counts": _q_kg_typing_counts,
        "text_token_stats": _q_text_token_stats,
        "text_fingerprints": _q_text_fingerprints,
        "text_quality": _q_text_quality,
        "text_term_stats": _q_text_term_stats,
        "text_repetition": _q_text_repetition,
        "text_lm_novelty": _q_text_lm_novelty,
        "text_bpe_tokens": _q_text_bpe_tokens,
        "ann_knn_label": _q_ann_knn_label,
        "rel_pricing_summary": _q_rel_pricing_summary,
        "rel_top_orders": _q_rel_top_orders,
        "rel_regional_volume": _q_rel_regional_volume,
        "curate_mixture": _q_curate_mixture,
        "curate_split": _q_curate_split,
        "curate_decontaminate": _q_curate_decontaminate,
        "curate_top_terms": _q_curate_top_terms,
        "curate_corpus": _q_curate_corpus,
        "curate_sample": _q_curate_sample,
        "text_redact": _q_text_redact,
        "dedup_substring": _q_dedup_substring,
        "curate_substring_trim": _q_curate_substring_trim,
        "dedup_exact": _q_dedup_exact,
        "dedup_minhash": _q_dedup_minhash,
        "dedup_simhash": _q_dedup_simhash,
        "dedup_simhash_groups": _q_dedup_simhash_groups,
        "dedup_ngram_jaccard": _q_dedup_ngram_jaccard,
        "dedup_clusters": _q_dedup_clusters,
        "dedup_embedding": _q_dedup_embedding,
        "events_window_agg": _q_events_window_agg,
        "events_sessions": _q_events_sessions,
        "events_asof_view": _q_events_asof_view,
        "events_json_stats": _q_events_json_stats,
        "kg_infer_doc_shape": _q_kg_infer_doc_shape,
        "kg_shex_doc_conformance": _q_kg_shex_doc_conformance,
        "ann_topk": _q_ann_topk,
        "ann_lsh_buckets": _q_ann_lsh_buckets,
        "ann_lsh_topk": _q_ann_lsh_topk,
        "ann_ivf_lists": _q_ann_ivf_lists,
        "ann_ivf_topk": _q_ann_ivf_topk,
        "media_features": _q_media_features,
        "media_frames": _q_media_frames,
        "media_resize": _q_media_resize,
        # rows-only entries (no oracle_sql() twin) go last: a correctness
        # report that keeps the first 50 entries then covers every twin
        "text_langid": _q_text_langid,
        "text_bpe_merges": _q_text_bpe_merges,
        "text_bpe_encode": _q_text_bpe_encode,
    }


def oracle_sql() -> dict[str, str]:
    from shaclex_ray.functions import curate as _curate
    from shaclex_ray.functions import sql_oracles as _sql_oracles
    from shaclex_ray.functions import substr as _substr
    from shaclex_ray.functions import text as _text
    from shaclex_ray.functions import relational as _rel
    from shaclex_ray.functions.ann import knn_label_sql as _ann_knn_label_sql
    from shaclex_ray.functions.lm import lm_novelty_sql
    from shaclex_ray.functions.pack import pack_sequences_sql

    return {
        "kg_triples": "WITH " + _TRIPLES_CTE + " SELECT * FROM kg_triples",
        "doc_spans": "WITH "
        + _SPANS_CTE
        + " SELECT did, kind, text, media_ref, ord FROM spans",
        "kg_entity_links": "WITH "
        + _DOCS_CTE
        + """
        SELECT DISTINCT 'http://ex.org/mention/' || mention AS mention,
               'http://ex.org/ent/' || tok AS canonical_iri
        FROM entity_tokens
        """,
        "kg_triples_per_pred": "WITH "
        + _TRIPLES_CTE
        + " SELECT pred, CAST(count(*) AS BIGINT) AS n FROM kg_triples GROUP BY pred",
        "kg_doc_entity_counts": "WITH "
        + _DOCS_CTE
        + """
        SELECT 'http://ex.org/doc/' || did AS subj,
               CAST(count(DISTINCT tok) AS BIGINT) AS n_entities
        FROM entity_tokens GROUP BY did
        """,
        "kg_validation_mincount": "WITH "
        + _DOCS_CTE
        + """
        SELECT 'http://ex.org/doc/' || did AS focus_iri
        FROM docs WHERE doc_id NOT IN (SELECT doc_id FROM entity_tokens)
        """,
        "kg_typing_counts": "WITH "
        + _DOCS_CTE
        + """
        , doc_counts AS (
          SELECT CASE WHEN doc_id IN (SELECT doc_id FROM entity_tokens)
                      THEN 'conforms' ELSE 'notConforms' END AS val,
                 CAST(count(*) AS BIGINT) AS n
          FROM docs GROUP BY 1
        ), ent_counts AS (
          SELECT 'conforms' AS val, CAST(count(DISTINCT tok) AS BIGINT) AS n
          FROM entity_tokens
        )
        SELECT 'Ihttp://ex.org/DocumentShape' AS shape, val, n FROM doc_counts
        UNION ALL
        SELECT 'Ihttp://ex.org/EntityShape', val, n FROM ent_counts
        """,
        "text_token_stats": """
        SELECT doc_id,
               CAST(len(string_split(coalesce(text, ''), ' ')) AS BIGINT) AS n_tokens,
               CAST(length(coalesce(text, '')) AS BIGINT) AS n_chars,
               CAST((SELECT count(*) FROM unnest(string_split(coalesce(text, ''), ' ')) AS u(t)
                     WHERE u.t IN ('the', 'a')) AS BIGINT) AS n_stopwords
        FROM documents
        """,
        "text_fingerprints": """
        SELECT doc_id, md5(array_to_string(string_split(trim(coalesce(text, '')), ' '), ' ')) AS fingerprint
        FROM documents
        """,
        "dedup_exact": """
        SELECT md5(coalesce(text, '')) AS fingerprint,
               CAST(min(doc_id) AS BIGINT) AS canonical_doc_id,
               CAST(count(*) AS BIGINT) AS n_dups
        FROM documents GROUP BY md5(coalesce(text, ''))
        """,
        "kg_shex_doc_conformance": "WITH "
        + _DOCS_CTE
        + """
        SELECT CASE WHEN doc_id IN (SELECT doc_id FROM entity_tokens)
                    THEN 'conforms' ELSE 'notConforms' END AS val,
               CAST(count(*) AS BIGINT) AS n
        FROM docs GROUP BY 1 ORDER BY val
        """,
        "kg_infer_doc_shape": "WITH "
        + _TRIPLES_CTE
        + """
        , doc_arcs AS (
          SELECT t.* FROM kg_triples t
          WHERE t.subj IN (
            SELECT subj FROM kg_triples
            WHERE pred = 'http://www.w3.org/1999/02/22-rdf-syntax-ns#type'
              AND obj_lex = 'http://ex.org/Document')
        ), per_subj AS (
          SELECT pred, subj, count(*) AS cnt FROM doc_arcs GROUP BY pred, subj
        )
        SELECT a.pred,
               CAST(count(*) AS BIGINT) AS n_arcs,
               CAST(count(DISTINCT a.subj) AS BIGINT) AS n_subjects,
               CAST((SELECT max(cnt) FROM per_subj p WHERE p.pred = a.pred) AS BIGINT) AS max_per_subject,
               CAST((SELECT min(cnt) FROM per_subj p WHERE p.pred = a.pred) AS BIGINT) AS min_per_subject,
               CASE WHEN bool_and(a.obj_kind = 'iri') THEN 'iri'
                    WHEN bool_and(a.obj_kind = 'bnode') THEN 'bnode'
                    WHEN bool_and(a.obj_kind = 'literal' AND a.obj_lang <> '') THEN
                      CASE WHEN count(DISTINCT a.obj_lang) = 1
                           THEN 'lang:' || min(a.obj_lang) ELSE 'langstring' END
                    WHEN bool_and(a.obj_kind = 'literal' AND a.obj_lang = '') THEN
                      CASE WHEN count(DISTINCT a.obj_dt) = 1
                           THEN 'lit:' || min(a.obj_dt) ELSE 'literal' END
                    WHEN bool_and(a.obj_kind = 'literal') THEN 'literal'
                    ELSE '.' END AS constraint
        FROM doc_arcs a GROUP BY a.pred
        """,
        # hash-based dedup / LSH oracles: generated with the SAME seeds /
        # hyperplanes as the Ray operators (md5_number_lower-derived hashes,
        # splitmix64 as 32-bit-split HUGEINT arithmetic — full SQL twins)
        "text_term_stats": """
        WITH tokens AS (
          SELECT doc_id, u.t AS term
          FROM documents, unnest(string_split(coalesce(text, ''), ' ')) AS u(t)
        )
        SELECT term, CAST(count(*) AS BIGINT) AS tf,
               CAST(count(DISTINCT doc_id) AS BIGINT) AS df
        FROM tokens GROUP BY term
        """,
        "text_repetition": """
        WITH toks AS (
          SELECT doc_id, string_split(coalesce(text, ''), ' ') AS t FROM documents
        ), bigrams AS (
          SELECT doc_id, t[u.i] || ' ' || t[u.i + 1] AS bg
          FROM toks, unnest(generate_series(1, len(t) - 1)) AS u(i)
        ), per AS (
          SELECT doc_id, bg, count(*) AS c FROM bigrams GROUP BY doc_id, bg
        )
        SELECT d.doc_id,
               CAST(coalesce(sum(p.c), 0) AS BIGINT) AS n_bigrams,
               CAST(coalesce(count(p.bg), 0) AS BIGINT) AS n_distinct_bigrams,
               CAST(coalesce(max(p.c), 0) AS BIGINT) AS top_bigram_count
        FROM documents d LEFT JOIN per p USING (doc_id)
        GROUP BY d.doc_id
        """,
        "text_lm_novelty": lm_novelty_sql(),
        "text_bpe_tokens": _text.bpe_token_stats_sql(),
        "ann_knn_label": _ann_knn_label_sql(),
        "rel_pricing_summary": _rel.pricing_summary_sql(),
        "rel_top_orders": _rel.top_orders_sql(),
        "rel_regional_volume": _rel.regional_volume_sql(),
        "curate_mixture": _curate.mixture_report_sql(),
        "curate_split": _curate.split_assign_sql(),
        "curate_decontaminate": _curate.decontaminate_sql(),
        "curate_top_terms": _curate.top_terms_sql(),
        "curate_corpus": _curate.curate_corpus_sql(),
        "curate_sample": _curate.sample_balanced_sql(n=10),
        "text_redact": _text.redact_sql(),
        "dedup_substring": _substr.dedup_substring_sql(),
        "curate_substring_trim": _substr.trim_substring_spans_sql(),
        "dedup_minhash": _sql_oracles.minhash_candidates_sql(),
        "dedup_simhash": _sql_oracles.simhash_sql(),
        "dedup_simhash_groups": _sql_oracles.simhash_groups_sql(),
        "text_quality": _sql_oracles.quality_sql(),
        "dedup_ngram_jaccard": _sql_oracles.ngram_jaccard_sql(),
        "dedup_clusters": _sql_oracles.dedup_clusters_sql(),
        "dedup_embedding": _sql_oracles.embedding_dups_sql(dim=64),
        "events_window_agg": _sql_oracles.events_window_agg_sql(),
        "events_sessions": _sql_oracles.events_sessions_sql(),
        "events_asof_view": _sql_oracles.events_asof_sql(),
        "events_json_stats": _sql_oracles.events_json_stats_sql(),
        "ann_lsh_buckets": _sql_oracles.lsh_buckets_sql(dim=64),
        "ann_lsh_topk": _sql_oracles.lsh_topk_sql(dim=64),
        "ann_ivf_lists": _sql_oracles.ivf_lists_sql(),
        "ann_ivf_topk": _sql_oracles.ivf_topk_sql(),
        "ann_topk": f"""
        -- DOUBLE[] cast: DuckDB computes list_cosine_similarity in the
        -- list's own float type; f32 over/underflows on extreme vectors
        -- where the engine's float64 kernel is exact
        WITH emb AS (
          -- null embedding reads as the zero vector (cos -1, ranks last)
          SELECT vec_id, {_sql_oracles._emb_cast(64)} AS e
          FROM embeddings
        ), q AS (
          SELECT vec_id AS query_id, e AS qe FROM emb
          ORDER BY vec_id LIMIT 10
        ), scored AS (
          SELECT q.query_id, e.vec_id,
                 coalesce(list_cosine_similarity(q.qe, e.e), -1.0) AS cos
          FROM q CROSS JOIN emb e
          WHERE e.vec_id != q.query_id
        ), ranked AS (
          SELECT query_id, vec_id,
                 CAST(row_number() OVER (PARTITION BY query_id
                      ORDER BY cos DESC, vec_id) AS BIGINT) AS rank
          FROM scored
        )
        SELECT query_id, vec_id, rank FROM ranked WHERE rank <= 5
        """,
        # media decode+featurize: the fake decode chain is sha256-based
        # precisely so this twin exists (see functions/multimodal.py)
        "media_features": _media_features_sql(),
        "media_frames": _media_frames_sql(),
        "media_resize": _media_resize_sql(),
        "pack_sequences": pack_sequences_sql(capacity=512),
    }
