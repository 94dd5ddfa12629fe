"""BPE tokenizer induction over the documents table — the vocabulary a
pretraining pipeline trains before it can count or pack tokens:

  * ``bpe_train``:   learn ``n_merges`` byte-pair merges from corpus word
                     frequencies. Returns (rank, left, right, freq).
  * ``bpe_encode``:  per-document token count under the learned merges
                     (doc_id, n_tokens, n_words).

Scale shape. Training touches the corpus exactly once: the word-frequency
aggregation is the same vocab-sized one-move exchange as
``text.term_stats`` (per-batch Arrow group_by partials, then a grouped
sum — the shuffle never sees per-token rows). The merge loop itself runs
on the frequency table, which is capped to the ``max_words`` most
frequent words (exact distributed top-n: the table is post-aggregation,
every term globally unique, so per-block partial top-n composes exactly)
— fixed-size by construction, like every real BPE trainer (sentencepiece
caps its word table the same way), so it is driver-side on purpose. The
dropped tail mass is logged, never silent. The loop is the classic
incremental trainer: only words containing the merged pair are revisited,
via a pair→words index — O(affected words) per merge, not O(vocab).

Encoding is an actor-pool stage: the merge-rank table is built once per
actor in ``__init__`` and a word→length memo cache persists across
batches, so the per-batch cost is one dictionary-encode plus a Python
encode of each *previously-unseen distinct word* (bounded by |vocab|,
amortized toward zero across the corpus), then a vectorized take +
segmented sum back onto documents. No per-token Python anywhere.

Both surfaces are iterative-algorithm territory (merge r depends on
r-1), so there is no SQL twin; pytest pins train AND encode against an
independent pure-Python reference (tests/test_bpe.py).

No counterpart in weso/shaclex (a validation engine); this extends the
engine toward the training-data surface alongside functions/lm.py and
functions/pack.py.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

logger = logging.getLogger(__name__)

# end-of-word marker, appended before splitting into symbols so merges
# can distinguish word-final units (the classic BPE formulation)
EOW = "▁"

# Long-word policy: a whitespace token longer than this many characters is
# split into fixed-size chunks and each chunk is treated as a BPE word (its
# own EOW) by BOTH the trainer and the encoder, so token counts stay
# consistent between the two. Real trainers bound symbol-sequence length the
# same way (sentencepiece max_sentencepiece_length, HF BpeTrainer
# max_token_length) because web corpora carry megabyte "words" (base64
# blobs, minified JS) that make the O(len^2) greedy encode and the
# per-merge word rewrite pathological. n_words still counts the original
# whitespace token once.
MAX_WORD_LEN = 256


def _chunk_word(w: str, max_len: int) -> list:
    return [w[i : i + max_len] for i in range(0, len(w), max_len)]


# ------------------------------------------------------------ word counts
def _word_freqs(sf_dir: str, max_words: int):
    """Exact top-``max_words`` (term, tf) pairs by (tf DESC, term ASC).
    One corpus pass -> vocab-sized partials -> grouped sum -> per-block
    partial top-n -> driver merge (exact: terms are globally unique after
    the grouped sum)."""
    from shaclex_ray.functions.text import term_stats

    stats = term_stats(sf_dir)

    empty = pa.schema([("term", pa.string()), ("tf", pa.int64())]).empty_table()

    def block_topn(batch: pa.Table) -> pa.Table:
        # Ray can hand a schema-less empty block after a groupby
        if batch.num_rows == 0 or "term" not in batch.column_names:
            return empty
        t = batch.select(["term", "tf"])
        idx = pc.sort_indices(
            t,
            sort_keys=[("tf", "descending"), ("term", "ascending")],
        )[:max_words]
        return t.take(idx)

    # Ray forwards empty blocks without invoking the UDF, so schema-less
    # empties can reach the collect — drop zero-row tables before concat
    collected = [
        t
        for t in ray.get(
            stats.map_batches(block_topn, batch_format="pyarrow")
            .materialize()
            .to_arrow_refs()
        )
        if t.num_rows > 0
    ]
    parts = (
        pa.concat_tables(collected).combine_chunks() if collected else empty
    )
    idx = pc.sort_indices(
        parts, sort_keys=[("tf", "descending"), ("term", "ascending")]
    )
    kept = parts.take(idx[:max_words])
    total = pc.sum(parts.column("tf")).as_py() or 0
    kept_mass = pc.sum(kept.column("tf")).as_py() or 0
    if total > kept_mass:
        logger.info(
            "bpe_train: word table capped at %d words; dropped %d/%d "
            "token mass (%.4f%%)",
            max_words,
            total - kept_mass,
            total,
            100.0 * (total - kept_mass) / max(total, 1),
        )
    words = kept.column("term").to_pylist()
    tfs = kept.column("tf").to_numpy(zero_copy_only=False).astype(np.int64)
    if any(len(w) > MAX_WORD_LEN for w in words):
        # long-word policy (MAX_WORD_LEN): chunk overlong terms and
        # re-aggregate — vocab-sized driver work on the already-capped table
        agg: dict = {}
        for w, f in zip(words, tfs):
            for piece in _chunk_word(w, MAX_WORD_LEN):
                agg[piece] = agg.get(piece, 0) + int(f)
        items = sorted(agg.items(), key=lambda kv: (-kv[1], kv[0]))[:max_words]
        words = [k for k, _ in items]
        tfs = np.array([v for _, v in items], np.int64)
    return (words, tfs)


# ------------------------------------------------------------ merge loop
def _train_merges(words, freqs, n_merges: int, min_freq: int):
    """Incremental BPE trainer on a word-frequency table. Deterministic:
    best pair = (max count, then lexicographically smallest (left, right)).
    Returns [(left, right, freq)] in merge order.

    Best-pair selection is a lazy-invalidation max-heap: every count
    change pushes a fresh (-count, pair) entry; stale entries (count no
    longer current) pop and drop. Per merge the cost is O(affected words
    + log-heap), not O(|pairs|) — the classic fast trainer shape, so the
    driver loop stays cheap even at a 50k-word vocabulary."""
    import heapq

    syms = [tuple(w) + (EOW,) for w in words]
    pair_counts: dict = {}
    pair_words: dict = {}  # pair -> set of word indices containing it
    heap: list = []

    def bump(pair, delta):
        c = pair_counts.get(pair, 0) + delta
        if c:
            pair_counts[pair] = c
            # push on EVERY change (decreases too): a pair whose count
            # dropped must still own a heap entry at its current count,
            # else it silently falls out of contention
            heapq.heappush(heap, (-c, pair))
        else:
            del pair_counts[pair]

    def add_word(wi):
        s, f = syms[wi], int(freqs[wi])
        for a, b in zip(s, s[1:]):
            bump((a, b), f)
            pair_words.setdefault((a, b), set()).add(wi)

    for wi in range(len(syms)):
        add_word(wi)

    merges = []
    for _ in range(n_merges):
        best, best_c = None, None
        while heap:
            negc, p = heap[0]
            if pair_counts.get(p) != -negc:
                heapq.heappop(heap)  # stale entry
                continue
            # entries order by (-count, pair), so the first CURRENT entry
            # is exactly (max count, lexicographically smallest pair)
            best, best_c = p, -negc
            break
        if best is None or best_c < min_freq:
            break
        merges.append((best[0], best[1], best_c))
        merged = best[0] + best[1]
        for wi in list(pair_words.get(best, ())):
            # retract the word's old pairs, rewrite, re-add
            s, f = syms[wi], int(freqs[wi])
            for a, b in zip(s, s[1:]):
                bump((a, b), -f)
                ws = pair_words.get((a, b))
                if ws is not None:
                    ws.discard(wi)
                    if not ws:
                        del pair_words[(a, b)]
            out = []
            i = 0
            while i < len(s):
                if i + 1 < len(s) and s[i] == best[0] and s[i + 1] == best[1]:
                    out.append(merged)
                    i += 2
                else:
                    out.append(s[i])
                    i += 1
            syms[wi] = tuple(out)
            add_word(wi)
    return merges


def bpe_train(
    sf_dir: str,
    n_merges: int = 200,
    max_words: int = 50_000,
    min_freq: int = 2,
) -> pa.Table:
    """Learn a BPE merge table from the corpus. Returns an Arrow table
    (rank, left, right, freq) in merge order — rank r was learned after
    merges 0..r-1 were applied."""
    words, freqs = _word_freqs(sf_dir, max_words)
    merges = _train_merges(words, freqs, n_merges, min_freq)
    return pa.table(
        {
            "rank": pa.array(np.arange(len(merges)), pa.int64()),
            "left": pa.array([m[0] for m in merges], pa.string()),
            "right": pa.array([m[1] for m in merges], pa.string()),
            "freq": pa.array([m[2] for m in merges], pa.int64()),
        }
    )


# --------------------------------------------------------------- encoding
def _encode_word(word: str, ranks: dict) -> int:
    """Number of BPE units ``word`` encodes to under ``ranks``
    (pair -> merge rank). The standard greedy lowest-rank-first merge."""
    s = list(word) + [EOW]
    while len(s) > 1:
        best_r, best_i = None, -1
        for i in range(len(s) - 1):
            r = ranks.get((s[i], s[i + 1]))
            if r is not None and (best_r is None or r < best_r):
                best_r, best_i = r, i
        if best_r is None:
            break
        s[best_i : best_i + 2] = [s[best_i] + s[best_i + 1]]
    return len(s)


class BpeEncodeStats:
    """Actor-pool stage: merge-rank dict built once per actor; a
    word->unit-count memo persists across batches so each distinct word
    is encoded in Python at most once per actor, ever."""

    def __init__(self, merges_ref):
        m = (
            ray.get(merges_ref)
            if isinstance(merges_ref, ray.ObjectRef)
            else merges_ref
        )
        self.ranks = {
            (l, r): i
            for i, (l, r) in enumerate(
                zip(m.column("left").to_pylist(), m.column("right").to_pylist())
            )
        }
        self.cache: dict = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column("text").combine_chunks(), " ")
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        par = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        dic = pc.dictionary_encode(flat)
        if isinstance(dic, pa.ChunkedArray):
            dic = dic.combine_chunks()
        uniq = dic.dictionary.to_pylist()
        lens = np.empty(len(uniq), np.int64)
        cache, ranks = self.cache, self.ranks
        for i, w in enumerate(uniq):
            n = cache.get(w)
            if n is None:
                if len(w) > MAX_WORD_LEN:
                    # long-word policy: encode each chunk as its own word
                    # (mirrors the trainer), memoizing per chunk too
                    n = 0
                    for piece in _chunk_word(w, MAX_WORD_LEN):
                        pn = cache.get(piece)
                        if pn is None:
                            pn = _encode_word(piece, ranks)
                            cache[piece] = pn
                        n += pn
                else:
                    n = _encode_word(w, ranks)
                cache[w] = n
            lens[i] = n
        per_tok = lens[dic.indices.to_numpy(zero_copy_only=False)]
        nrows = batch.num_rows
        n_tok = np.zeros(nrows, np.int64)
        n_words = np.zeros(nrows, np.int64)
        np.add.at(n_tok, par, per_tok)
        np.add.at(n_words, par, 1)
        return pa.table(
            {
                "doc_id": batch.column("doc_id").combine_chunks().cast(pa.int64()),
                "n_tokens": pa.array(n_tok, pa.int64()),
                "n_words": pa.array(n_words, pa.int64()),
            }
        )


def bpe_encode(
    sf_dir: str,
    n_merges: int = 200,
    max_words: int = 50_000,
    min_freq: int = 2,
    concurrency: int | None = None,
):
    """Train merges, then count per-document tokens under them. The merge
    table is broadcast once (``ray.put``); encoding runs on an actor pool
    so the memo cache survives across batches."""
    merges = bpe_train(sf_dir, n_merges, max_words, min_freq)
    merges_ref = ray.put(merges)
    if concurrency is None:
        # leave CPUs for the upstream read tasks: an actor pool sized to
        # the whole cluster starves the producer and deadlocks the stream
        ncpu = int(ray.cluster_resources().get("CPU", 4))
        concurrency = max(1, min(ncpu - 2, 8))
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return ds.map_batches(
        BpeEncodeStats,
        fn_constructor_args=(merges_ref,),
        concurrency=concurrency,
        batch_format="pyarrow",
    )
