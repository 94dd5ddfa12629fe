"""Seeded synthetic document corpora for the benchmark.

The generated ``documents.parquet`` has the schema and statistics of the
repository's sf0.1 test table (doc_id:int64, text, lang, source,
n_chars): 5,000 documents of 10-100 tokens drawn uniformly from a
30-word vocabulary, 5% near-duplicates (an earlier document's text plus
" dup"), ``lang`` 40% ``en`` and 15% each of four others, and ``source``
``src<doc_id % 20>``. The same seed always gives the same bytes, and the
program under test sees only these files.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

VOCAB = (
    "spark window merge table column vector stream value data small join "
    "filter big group hash customer sort order slow line part fast row the "
    "agg key query a scan batch"
).split()
LANGS = ("en", "zh", "es", "fr", "de")
LANG_P = (0.4, 0.15, 0.15, 0.15, 0.15)
BASE_DOCS = 5000


def base_documents(seed: int, n: int = BASE_DOCS) -> pa.Table:
    """One sf0.1-shaped documents table drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    lens = rng.integers(10, 101, size=n)
    words = np.array(VOCAB, dtype=object)[rng.integers(0, len(VOCAB), lens.sum())]
    offs = np.concatenate([[0], np.cumsum(lens)])
    texts = [" ".join(words[offs[i] : offs[i + 1]]) for i in range(n)]
    # near-duplicates: 5% of documents copy an earlier document's text
    for i in np.sort(rng.choice(np.arange(1, n), size=n // 20, replace=False)):
        texts[i] = texts[int(rng.integers(0, i))] + " dup"
    doc_id = np.arange(n, dtype=np.int64)
    text = pa.array(texts, pa.string())
    return pa.table(
        {
            "doc_id": doc_id,
            "text": text,
            "lang": pa.array(np.array(LANGS)[rng.choice(5, n, p=LANG_P)]),
            "source": pa.array([f"src{i % 20}" for i in range(n)]),
            "n_chars": pc.utf8_length(text).cast(pa.int64()),
        }
    )


def _offset_ids(tbl: pa.Table, offset: int) -> pa.Table:
    i = tbl.schema.get_field_index("doc_id")
    return tbl.set_column(i, "doc_id", pc.add(tbl.column("doc_id"), offset))


def _permute_tokens(tbl: pa.Table, rng: np.random.Generator) -> pa.Table:
    """Shuffle the tokens inside every document. Exact duplicates stay
    exact duplicates (the permutation is keyed by the text), so the
    replica keeps the base corpus's duplicate rate without colliding
    with other replicas."""
    perms: dict[str, str] = {}
    out = []
    for s in tbl.column("text").to_pylist():
        if s not in perms:
            toks = s.split(" ")
            perms[s] = " ".join(toks[j] for j in rng.permutation(len(toks)))
        out.append(perms[s])
    i = tbl.schema.get_field_index("text")
    return tbl.set_column(i, "text", pa.array(out, pa.string()))


def build_corpus(
    out_dir: str, seed: int, kind: str, factor: int = 1, base_docs: int = BASE_DOCS
) -> dict:
    """Write ``<out_dir>/documents.parquet`` and return a description.

    ``kind``:
      * ``single`` — ``factor`` verbatim replicas with offset doc_ids in
        one file, in row groups of max(1,024, rows / 64) rows;
      * ``multifile`` — replica 0 verbatim, replica k>0 with its tokens
        permuted per document, one file per replica under
        ``documents.parquet/``.
    """
    base = base_documents(seed, base_docs)
    n = base.num_rows
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "documents.parquet")
    if kind == "single":
        big = pa.concat_tables([_offset_ids(base, k * n) for k in range(factor)])
        pq.write_table(big, path, row_group_size=max(1024, big.num_rows // 64))
    elif kind == "multifile":
        os.makedirs(path, exist_ok=True)
        rng = np.random.default_rng([seed, 1])
        for k in range(factor):
            t = base if k == 0 else _permute_tokens(base, rng)
            pq.write_table(_offset_ids(t, k * n), f"{path}/part-{k:05d}.parquet")
    else:
        raise ValueError(f"unknown corpus kind {kind!r}")
    files = [os.path.join(r, f) for r, _d, fs in os.walk(path) for f in fs]
    return {
        "seed": seed,
        "kind": kind,
        "factor": factor,
        "docs": n * factor,
        "input_bytes": sum(map(os.path.getsize, files or [path])),
    }
