"""The extract kernel combines the two entity-span relations within a
batch: ``doc ex:mentions m`` once per (doc_id, mention text) and ``m
rdf:type ex:Mention`` once per mention text, each with the least
(doc_id, span_idx) witness of its occurrences. Checked against a pandas
reference built from the exploded spans, on seeded batches whose doc_ids
repeat and whose byte order differs from their numeric order."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from shaclex_ray.sources.documents import ENTITY_VOCAB, build_spans_batch_vec
from shaclex_ray.stages.extract import (
    C_MENTION,
    DOC_NS,
    MENTION_NS,
    P_MENTIONS,
    RDF_TYPE,
    extract_triples_batch,
)
from shaclex_ray.terms import TRIPLE_ID_COLS

WORDS = list(ENTITY_VOCAB) + "the of a graph shape node".split()
COLS = TRIPLE_ID_COLS + ["doc_id", "span_idx"]


def _spans(seed: int, n: int = 300) -> pa.Table:
    rng = np.random.default_rng(seed)
    # ids from a small pool (repeats), negative and wider than the pad
    # width: "doc--0000007" < "doc-00000003" < "doc-123456789" bytewise
    pool = np.concatenate([rng.integers(0, 50, 40), [-7, -120, 123456789]])
    texts = [" ".join(rng.choice(WORDS, rng.integers(1, 30)))
             for _ in range(n)]
    docs = pa.table({
        "doc_id": pa.array(rng.choice(pool, n), pa.int64()),
        "text": texts,
        "lang": ["en"] * n,
        "source": ["s"] * n,
    })
    return build_spans_batch_vec(docs)


def _mention_rows(df: pd.DataFrame) -> pd.DataFrame:
    mask = (df["pred"] == P_MENTIONS) | (
        (df["pred"] == RDF_TYPE) & (df["obj_lex"] == C_MENTION)
    )
    return df[mask]


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df[COLS].sort_values(COLS, ignore_index=True)


def _least_witness(df: pd.DataFrame) -> pd.DataFrame:
    # Python str order is code-point order, which is UTF-8 byte order:
    # the order the dedup's Arrow witness sort compares doc_id in
    return _sorted(df.sort_values(["doc_id", "span_idx"])
                   .drop_duplicates(subset=TRIPLE_ID_COLS))


def _reference(spans: pa.Table) -> pd.DataFrame:
    """The least-witness distinct of one row per entity span."""
    rows = []
    for doc, seq in zip(spans.column("doc_id").to_pylist(),
                        spans.column("spans").to_pylist()):
        for s in seq:
            if s["kind"] == "entity":
                m = MENTION_NS + s["text"]
                rows.append((DOC_NS + doc, P_MENTIONS, "iri", m, "", "",
                             doc, s["offset"]))
                rows.append((m, RDF_TYPE, "iri", C_MENTION, "", "",
                             doc, s["offset"]))
    return _least_witness(pd.DataFrame(rows, columns=COLS)
                          .astype({"span_idx": "int32"}))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mention_relations_combined_with_least_witness(seed):
    spans = _spans(seed)
    got = _mention_rows(extract_triples_batch(spans).to_pandas())
    assert not got.duplicated(subset=TRIPLE_ID_COLS).any()
    ref = _reference(spans)
    entity_spans = sum(s["kind"] == "entity"
                       for seq in spans.column("spans").to_pylist() for s in seq)
    assert len(ref) < 2 * entity_spans  # identities repeat: not vacuous
    pd.testing.assert_frame_equal(_sorted(got), ref)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sliced_batches_give_the_same_least_witness_distinct(seed):
    spans = _spans(seed)
    whole = extract_triples_batch(spans).to_pandas()
    cuts = [0, 70, 190, spans.num_rows]
    sliced = pd.concat(
        [extract_triples_batch(spans.slice(a, b - a)).to_pandas()
         for a, b in zip(cuts, cuts[1:])],
        ignore_index=True,
    )
    assert len(_mention_rows(sliced)) > len(_mention_rows(whole))
    pd.testing.assert_frame_equal(_least_witness(sliced), _least_witness(whole))
