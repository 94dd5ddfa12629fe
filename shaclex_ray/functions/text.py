"""Text-analysis operators over the documents table (training-data-pipeline
surface): token counting, quality scoring, fingerprinting, language-ID.

All are single-pass vectorized ``map_batches`` stages; the regexes /
stopword sets are module-level constants compiled once per worker process.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

STOPWORDS = ("the", "a")


def token_stats_batch(batch: pa.Table) -> pa.Table:
    text = pc.fill_null(batch.column("text").combine_chunks(), "")
    toks = pc.split_pattern(text, " ")
    n_tokens = pc.list_value_length(toks).cast(pa.int64())
    n_chars = pc.utf8_length(text).cast(pa.int64())
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks)
    is_stop = pc.is_in(flat, value_set=pa.array(list(STOPWORDS)))
    # per-doc stopword count via segmented sum (vectorized with numpy)
    stop_np = is_stop.to_numpy(zero_copy_only=False).astype(np.int64)
    par_np = parents.to_numpy(zero_copy_only=False)
    counts = np.zeros(batch.num_rows, dtype=np.int64)
    np.add.at(counts, par_np, stop_np)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_tokens": n_tokens,
            "n_chars": n_chars,
            "n_stopwords": pa.array(counts, pa.int64()),
        }
    )


def token_stats(sf_dir: str):
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(token_stats_batch, batch_format="pyarrow")


def quality_batch(batch: pa.Table) -> pa.Table:
    stats = token_stats_batch(batch)
    n_tokens = stats.column("n_tokens")
    n_chars = stats.column("n_chars")
    n_stop = stats.column("n_stopwords")
    avg_tok = pc.divide(
        pc.subtract(n_chars.cast(pa.float64()), pc.add(n_tokens.cast(pa.float64()), -1.0)),
        pc.max_element_wise(n_tokens.cast(pa.float64()), 1.0),
    )
    stop_ratio = pc.divide(
        n_stop.cast(pa.float64()), pc.max_element_wise(n_tokens.cast(pa.float64()), 1.0)
    )
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_tokens": n_tokens,
            "avg_token_len": avg_tok,
            "stopword_ratio": stop_ratio,
        }
    )


def quality(sf_dir: str):
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(quality_batch, batch_format="pyarrow")


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    """Document fingerprint = md5 of the whitespace-normalized text
    (deterministic; mirrors the DuckDB oracle's md5()). Normalization
    ``" ".join(t.strip().split(" "))`` is exactly ``t.strip()`` (split on
    a literal space and rejoin are inverses). Hashing is one hashlib call
    per DOC: C-speed md5 at ~2µs/doc beats the numpy lane-parallel MD5
    here 30x — that path only wins for millions of single-block messages
    (shingles, see functions/dedup.py), not multi-block document texts."""
    import hashlib as _hl

    trimmed = pc.utf8_trim_whitespace(batch.column("text").combine_chunks())
    fps = [
        _hl.md5(s).hexdigest()
        for s in pc.fill_null(trimmed.cast(pa.binary()), b"").to_pylist()
    ]
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "fingerprint": pa.array(fps, pa.string()),
        }
    )


def fingerprints(sf_dir: str):
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(fingerprint_batch, batch_format="pyarrow")


# GPT-2-style pre-tokenizer, minus the \s+(?!\S) lookahead RE2 lacks:
# contraction suffixes, space-prefixed letter/digit/punct runs, whitespace
# runs. RE2 on both sides (pyarrow and DuckDB), so match counts are
# bit-identical between the operator and its SQL oracle.
BPE_PATTERN = r"'s|'t|'re|'ve|'m|'ll|'d| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+"


def bpe_token_stats_batch(batch: pa.Table) -> pa.Table:
    """Per-doc token counts under the BPE-ish pre-tokenizer vs whitespace:
    the LLM-cost estimate (sequence length ≈ n_bpe_tokens) next to the
    cheap splitter. One compiled-regex C pass per batch."""
    text = pc.fill_null(batch.column("text").combine_chunks(), "")
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_bpe_tokens": pc.count_substring_regex(text, BPE_PATTERN).cast(
                pa.int64()
            ),
            "n_ws_tokens": pc.list_value_length(
                pc.split_pattern(text, " ")
            ).cast(pa.int64()),
            "n_chars": pc.utf8_length(text).cast(pa.int64()),
        }
    )


def bpe_token_stats(sf_dir: str):
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return ds.map_batches(bpe_token_stats_batch, batch_format="pyarrow")


def bpe_token_stats_sql() -> str:
    # DuckDB is RE2 too — same pattern, same leftmost-first match walk
    pat = BPE_PATTERN.replace("'", "''")
    return f"""
    SELECT doc_id,
           CAST(len(regexp_extract_all(coalesce(text, ''), '{pat}')) AS BIGINT) AS n_bpe_tokens,
           CAST(len(string_split(coalesce(text, ''), ' ')) AS BIGINT) AS n_ws_tokens,
           CAST(length(coalesce(text, '')) AS BIGINT) AS n_chars
    FROM documents
    """


def _term_partials_batch(batch: pa.Table) -> pa.Table:
    """Per-batch partial term statistics: (term, tf, df) combined INSIDE the
    map task so the global exchange moves |vocab|-sized partials, not one row
    per token. Each document row lives wholly in one batch, so the per-batch
    distinct-doc count is an exact df partial. One Arrow group_by per batch —
    no per-token Python."""
    toks = pc.split_pattern(
        pc.fill_null(batch.column("text").combine_chunks(), ""), " "
    )
    pairs = pa.table(
        {
            "term": pc.list_flatten(toks),
            "doc": pc.list_parent_indices(toks),
        }
    )
    agg = pairs.group_by("term").aggregate(
        [("doc", "count"), ("doc", "count_distinct")]
    )
    return pa.table(
        {
            "term": agg.column("term"),
            "tf": agg.column("doc_count").cast(pa.int64()),
            "df": agg.column("doc_count_distinct").cast(pa.int64()),
        }
    )


def term_stats(sf_dir: str):
    """Corpus-level term statistics: total occurrences (tf) and document
    frequency (df) per term. Partial-aggregate per batch, then one
    grouped sum over |vocab| rows (``grouped_aggregate_fast``) — the
    exchange never sees per-token rows."""
    from shaclex_ray.stages.groupagg import grouped_aggregate_fast

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    partials = ds.map_batches(_term_partials_batch, batch_format="pyarrow")
    return grouped_aggregate_fast(
        partials, ["term"], [("tf", "sum"), ("df", "sum")], ["tf", "df"]
    )


def repetition_batch(batch: pa.Table) -> pa.Table:
    """Per-document bigram repetition profile (a Gopher-style quality
    signal): total bigrams, distinct bigrams, and the count of the most
    frequent bigram. One dictionary-encode + lexsort pass per batch."""
    toks = pc.split_pattern(
        pc.fill_null(batch.column("text").combine_chunks(), ""), " "
    )
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    ndocs = batch.num_rows
    n_big = np.zeros(ndocs, dtype=np.int64)
    n_dist = np.zeros(ndocs, dtype=np.int64)
    top = np.zeros(ndocs, dtype=np.int64)
    if len(flat) >= 2:
        codes = pc.dictionary_encode(flat).indices.to_numpy(
            zero_copy_only=False
        ).astype(np.uint64)
        same_doc = parents[:-1] == parents[1:]
        doc = parents[:-1][same_doc]
        key = (codes[:-1][same_doc] << np.uint64(32)) | codes[1:][same_doc]
        np.add.at(n_big, doc, 1)
        if len(doc):
            order = np.lexsort((key, doc))
            d_s, k_s = doc[order], key[order]
            starts = np.concatenate(
                ([True], (d_s[1:] != d_s[:-1]) | (k_s[1:] != k_s[:-1]))
            )
            run_doc = d_s[starts]
            np.add.at(n_dist, run_doc, 1)
            idx = np.flatnonzero(starts)
            run_len = np.diff(np.concatenate((idx, [len(d_s)])))
            np.maximum.at(top, run_doc, run_len)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_bigrams": pa.array(n_big, pa.int64()),
            "n_distinct_bigrams": pa.array(n_dist, pa.int64()),
            "top_bigram_count": pa.array(top, pa.int64()),
        }
    )


def repetition(sf_dir: str):
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(repetition_batch, batch_format="pyarrow")


# Content scrubbing / normalization: the PII-redaction shape (emails, phone
# numbers, IPs in a real corpus). The synthetic corpus carries no digits, so
# the default pattern targets terms that DO occur — the kernel under test
# (vectorized RE2 count + global replace) is identical either way, and both
# pyarrow.compute and DuckDB compile the same RE2 syntax, so the oracle is
# an exact twin.
REDACT_PATTERN = r"\b(customer|spark)\b"
REDACT_REPLACEMENT = "<ENT>"


def redact_batch(batch: pa.Table, pattern: str, replacement: str) -> pa.Table:
    text = batch.column("text").combine_chunks()
    n_hits = pc.count_substring_regex(text, pattern).cast(pa.int64())
    clean = pc.replace_substring_regex(text, pattern, replacement)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_redactions": n_hits,
            "clean_text": clean,
        }
    )


def redact(
    sf_dir: str,
    pattern: str = REDACT_PATTERN,
    replacement: str = REDACT_REPLACEMENT,
):
    """Per-document regex redaction: count matches and rewrite them, one
    vectorized RE2 pass per batch (no per-row Python; the pattern compiles
    once inside the Arrow kernel). Embarrassingly parallel — no shuffle."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(
        lambda b: redact_batch(b, pattern, replacement), batch_format="pyarrow"
    )


def redact_sql(
    pattern: str = REDACT_PATTERN, replacement: str = REDACT_REPLACEMENT
) -> str:
    return f"""
    SELECT doc_id,
           CAST(len(regexp_extract_all(text, '{pattern}')) AS BIGINT)
             AS n_redactions,
           regexp_replace(text, '{pattern}', '{replacement}', 'g') AS clean_text
    FROM documents
    """


# language-ID: character-bigram profile heuristic. The synthetic corpus uses
# one shared vocabulary across langs, so content-based ID is impossible —
# the operator is exercised on its real mechanics (n-gram profile cosine)
# and evaluated against the stored lang label.
_LANG_PROFILES: dict[str, dict] = {}


class LangID:
    """Actor-pool stage: profiles built once per actor (``__init__``),
    prediction fully vectorized — the whole batch's bigrams are extracted
    in one numpy pass (UTF-32 codepoint pairs → sorted-vocab searchsorted
    → one bincount per batch → one matmul), no per-character or per-doc
    Python in the hot path."""

    def __init__(self, profiles: dict[str, dict[str, float]]):
        self.langs = sorted(profiles)
        grams = sorted({g for p in profiles.values() for g in p})
        self.mat = np.zeros((len(self.langs), len(grams)))
        gram_index = {g: i for i, g in enumerate(grams)}
        for li, lang in enumerate(self.langs):
            for g, w in profiles[lang].items():
                self.mat[li, gram_index[g]] = w
        norms = np.linalg.norm(self.mat, axis=1, keepdims=True)
        self.mat = self.mat / np.maximum(norms, 1e-9)
        # bigram (c0, c1) -> packed uint64 key, sorted for searchsorted;
        # vocab_col[j] = column of self.mat for sorted-vocab entry j
        keys = np.array(
            [(ord(g[0]) << 21) | ord(g[1]) for g in grams], dtype=np.uint64
        )
        order = np.argsort(keys)
        self.vocab_keys = keys[order]
        self.vocab_col = np.arange(len(grams))[order]

    def _batch_vectors(self, texts) -> np.ndarray:
        """(ndocs, nvocab) L2-normalized bigram-count matrix for the whole
        batch in a handful of numpy ops."""
        nvocab = self.mat.shape[1]
        ndocs = len(texts)
        blobs = [t.encode("utf-32-le") for t in texts]  # one C call per doc
        lens = np.fromiter((len(b) >> 2 for b in blobs), np.int64, ndocs)
        if lens.sum() == 0:
            return np.zeros((ndocs, nvocab))
        cps = np.frombuffer(b"".join(blobs), dtype=np.uint32).astype(np.uint64)
        if len(cps) < 2:
            return np.zeros((ndocs, nvocab))
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        # bigram keys for every adjacent pair; mask pairs crossing doc ends
        pair_keys = (cps[:-1] << np.uint64(21)) | cps[1:]
        doc_idx = np.repeat(np.arange(ndocs), lens)[:-1]
        valid = np.ones(len(pair_keys), dtype=bool)
        bnd = starts[1:] - 1  # pair index straddling each doc boundary
        bnd = bnd[(bnd >= 0) & (bnd < len(pair_keys))]
        valid[bnd] = False
        pos = np.searchsorted(self.vocab_keys, pair_keys)
        pos_c = np.minimum(pos, len(self.vocab_keys) - 1)
        hit = valid & (self.vocab_keys[pos_c] == pair_keys)
        flat = doc_idx[hit] * nvocab + self.vocab_col[pos_c[hit]]
        v = np.bincount(flat, minlength=ndocs * nvocab).reshape(ndocs, nvocab)
        v = v.astype(np.float64)
        n = np.linalg.norm(v, axis=1, keepdims=True)
        return v / np.maximum(n, 1e-9)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch.column("text").combine_chunks(), "").to_pylist()
        if texts:
            vecs = self._batch_vectors(texts)
            sims = vecs @ self.mat.T  # (ndocs, nlangs)
            preds = [self.langs[j] for j in np.argmax(sims, axis=1)]
        else:
            preds = []
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang": batch.column("lang"),
                "lang_pred": pa.array(preds, pa.string()),
            }
        )


def _read_head(path: str, columns: list[str], nrows: int) -> pa.Table:
    """Read the FIRST ``nrows`` rows of a parquet file or part-file
    directory without materializing the rest: stream row-group batches
    via ``pq.ParquetFile.iter_batches`` and stop at the bound. At corpus
    scale the fit sample must never be a full-table driver read."""
    import glob
    import os

    import pyarrow.parquet as pq

    files = sorted(glob.glob(f"{path}/*.parquet")) if os.path.isdir(path) else [path]
    got, out = 0, []
    for f in files:
        pf = pq.ParquetFile(f)
        for rb in pf.iter_batches(batch_size=min(nrows, 8192), columns=columns):
            out.append(rb)
            got += rb.num_rows
            if got >= nrows:
                return pa.Table.from_batches(out).slice(0, nrows)
    if out:
        return pa.Table.from_batches(out)
    if files:
        return pq.read_schema(files[0]).empty_table().select(columns)
    # file-less directory (a row-less upstream write): typed empty sample
    return pa.table(
        {
            c: pa.array([], pa.int64() if c.endswith("_id") else pa.string())
            for c in columns
        }
    )


def langid(sf_dir: str, sample_per_lang: int = 50):
    """Fit bigram profiles on a driver-side sample, predict distributed."""
    sample = _read_head(
        f"{sf_dir}/documents.parquet", ["doc_id", "text", "lang"], 2000
    )
    profiles: dict[str, dict[str, float]] = {}
    per_lang: dict[str, int] = {}
    for t, lang in zip(sample.column("text").to_pylist(), sample.column("lang").to_pylist()):
        t, lang = t or "", lang or ""
        if per_lang.get(lang, 0) >= sample_per_lang:
            continue
        per_lang[lang] = per_lang.get(lang, 0) + 1
        p = profiles.setdefault(lang, {})
        for i in range(len(t) - 1):
            g = t[i : i + 2]
            p[g] = p.get(g, 0.0) + 1.0
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    # profiles are a few KB: ship inside the once-serialized task fn (the
    # fitted matrix builds once per worker process in __init__); task
    # scheduling spreads batches cluster-wide with no pool-startup cost
    return ds.map_batches(LangID(profiles), batch_format="pyarrow")
