"""Document-level deduplication family (training-data-pipeline surface):

  * exact:     md5(text) hash groups → keep lowest doc_id
  * minhash:   k-permutation MinHash over token shingles, banded LSH
               (shingle → minhash → band → bucket groupby → pairs)
  * simhash:   64-bit SimHash over token hashes, duplicates = equal keys
  * ngram_jaccard: verified near-dup pairs — jaccard over distinct token
               n-gram hashes; candidates from LSH band buckets, each
               doc's shingle-hash set shipped ONCE per join side (never
               replicated per band), verified inside map_batches

All hashes are md5-derived (``md5_number_lower`` semantics: last 8 digest
bytes little-endian) so a DuckDB oracle can reproduce every stage
end-to-end. Deterministic across runs, workers and retries.

Scale notes (the 100-TB cost centers):
  * hashing is BATCH-organized: token n-grams are built with Arrow
    kernels (no per-gram Python for gram CONSTRUCTION); the md5 itself
    is one hashlib C call per gram via functions/md5batch.py — measured
    10-30x faster than a numpy lane-parallel md5 (see md5batch.py's
    docstring for the benchmark; the decision is test-pinned)
  * the LSH band shuffle carries per row only (doc_id, band, band_key
    u64, earlier-band keys ≤bands u64) — the 64-perm signature (and, for
    jaccard, the shingle set) never rides the band rows; earlier-band
    collisions are recomputed from the compact key prefix (band-key
    equality is exactly the SQL oracle's pair condition)
  * pair generation only ever happens inside a bucket (never a global
    cross join), with a degenerate-bucket cap
  * candidate VERIFICATION is representative-based on duplicate-heavy
    corpora (``_rep_expand_verify``): docs group by a 128-bit content
    fingerprint, the payload verifier (jaccard / cosine) runs once per
    distinct CONTENT pair, and verdicts expand back over candidate
    pairs with int-only joins — an exact-dup cluster of size m emits
    O(m^2) candidate pairs but ships its payload O(1) times, not O(m^2)
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from shaclex_ray.functions.md5batch import (
    md5_state_batch,
    md5_u64_batch,
    md5_u128_batch,
)
from shaclex_ray.stages import exchange
from shaclex_ray.stages.exchange import _ragged_arange, partition

# all-pairs cap inside one LSH bucket: a degenerate band bucket (every doc
# identical) would otherwise emit O(n²) pairs; chaining consecutive ids
# preserves the connected component at O(n)
MAX_BUCKET_PAIRS_DOCS = 4096


def _read_docs(sf_dir: str):
    return ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])


def _md5_u64(data: bytes) -> int:
    """64-bit content hash = DuckDB md5_number_lower: last 8 md5 digest
    bytes, little-endian. Pinned so SQL oracles reproduce it exactly."""
    return int.from_bytes(hashlib.md5(data).digest()[8:], "little")


# ---------------------------------------------------------------- exact

def exact_groups(sf_dir: str):
    """(fingerprint, canonical_doc_id, n_dups): one row per distinct text."""

    def fp(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(_cc(batch.column("text")), "").to_pylist()
        hs = [hashlib.md5(t.encode()).hexdigest() for t in texts]
        return pa.table(
            {"fingerprint": pa.array(hs, pa.string()), "doc_id": batch.column("doc_id")}
        )

    from shaclex_ray.stages.groupagg import grouped_aggregate_fast

    # vectorized one-move group reduction (Arrow group_by min/count —
    # no per-distinct-text Python call)
    return grouped_aggregate_fast(
        _read_docs(sf_dir).map_batches(fp, batch_format="pyarrow"),
        ["fingerprint"],
        [("doc_id", "min"), ("doc_id", "count")],
        ["canonical_doc_id", "n_dups"],
    )


# ------------------------------------------------- vectorized gram hashing

def _cc(arr):
    return arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr


def _bin_col_u64(col) -> tuple[np.ndarray, np.ndarray]:
    """binary column of uint64-set payloads -> (lens: int64[n],
    flat: uint64 concatenated in row order). One frombuffer over the
    contiguous values buffer — never a per-row frombuffer."""
    arr = _cc(col)
    n = len(arr)
    if n == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.uint64)
    off = np.frombuffer(arr.buffers()[1], np.int32)[
        arr.offset : arr.offset + n + 1
    ].astype(np.int64)
    data = np.frombuffer(arr.buffers()[2], np.uint8)
    flat = np.frombuffer(data[off[0] : off[-1]].tobytes(), np.uint64)
    return np.diff(off) // 8, flat


_JACCARD_SCHEMA = pa.schema(
    [("doc_a", pa.int64()), ("doc_b", pa.int64()), ("jaccard", pa.float64())]
)


def _jaccard_table(da, db, la, fa, lb, fb, threshold: float) -> pa.Table:
    """Jaccard over many (set_a, set_b) pairs at once: concatenate each
    pair's two (internally-distinct) hash sets, one lexsort groups equal
    hashes within a pair adjacently, |intersection| = adjacent-dup count.
    Pairs with an empty side are skipped (the scalar spec's behavior)."""
    npairs = len(da)
    tot = la + lb
    tgt = np.zeros(npairs + 1, np.int64)
    np.cumsum(tot, out=tgt[1:])
    h = np.empty(int(tgt[-1]), np.uint64)
    h[np.repeat(tgt[:-1], la) + _ragged_arange(la)] = fa
    h[np.repeat(tgt[:-1] + la, lb) + _ragged_arange(lb)] = fb
    p = np.repeat(np.arange(npairs), tot)
    order = np.lexsort((h, p))
    hs, ps = h[order], p[order]
    dup = (hs[1:] == hs[:-1]) & (ps[1:] == ps[:-1])
    inter = np.bincount(ps[1:][dup], minlength=npairs)
    union = tot - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        j = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
    keep = (la > 0) & (lb > 0) & (j >= threshold)
    return pa.table(
        {
            "doc_a": pa.array(da[keep], pa.int64()),
            "doc_b": pa.array(db[keep], pa.int64()),
            "jaccard": pa.array(j[keep], pa.float64()),
        }
    )


def _batch_gram_hashes(texts, shingle: int) -> tuple[np.ndarray, np.ndarray]:
    """All token n-gram hashes (md5_number_lower) of a batch, doc-major.

    Returns (h, starts): ``h`` uint64 with each doc's gram hashes
    contiguous in batch order; ``starts`` int64 (n+1,) segment bounds.
    Gram semantics match the scalar spec exactly: a doc with fewer than
    ``shingle`` tokens yields ONE gram = the whole text (split-on-space /
    join-with-space are exact inverses). Everything here is Arrow/numpy —
    no per-gram Python."""
    t = pc.fill_null(_cc(texts), "")  # null text tokenizes as empty text
    toks = pc.split_pattern(t, " ")
    flat = _cc(pc.list_flatten(toks))
    n_tok = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    n = len(n_tok)
    tok_starts = np.zeros(n + 1, np.int64)
    np.cumsum(n_tok, out=tok_starts[1:])
    g_cnt = np.maximum(n_tok - shingle + 1, 1)
    starts = np.zeros(n + 1, np.int64)
    np.cumsum(g_cnt, out=starts[1:])
    h = np.empty(int(starts[-1]), np.uint64)
    long_idx = np.nonzero(n_tok >= shingle)[0]
    if len(long_idx):
        lg = g_cnt[long_idx]
        total = int(lg.sum())
        seg0 = np.cumsum(lg) - lg
        rel = np.arange(total) - np.repeat(seg0, lg)
        idx0 = np.repeat(tok_starts[long_idx], lg) + rel
        parts = [pc.take(flat, pa.array(idx0 + k)) for k in range(shingle)]
        grams = pc.binary_join_element_wise(*parts, " ")
        h[np.repeat(starts[:-1][long_idx], lg) + rel] = md5_u64_batch(grams)
    short_idx = np.nonzero(n_tok < shingle)[0]
    if len(short_idx):
        h[starts[:-1][short_idx]] = md5_u64_batch(pc.take(t, pa.array(short_idx)))
    return h, starts


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """64-bit finalizer (wrapping uint64 arithmetic is the point)."""
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def minhash_seeds(num_perm: int) -> np.ndarray:
    """The fixed permutation seeds (shared with the SQL oracle generator)."""
    rng = np.random.RandomState(12345)  # fixed seed: deterministic LSH
    return rng.randint(0, 2**63 - 1, size=num_perm, dtype=np.int64).astype(np.uint64)


def _signatures(h: np.ndarray, starts: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """(n, num_perm) MinHash matrix from doc-major gram hashes: per
    permutation one splitmix over the whole batch + one segmented min."""
    n = len(starts) - 1
    sigs = np.empty((n, len(seeds)), np.uint64)
    if n == 0:
        return sigs
    for p, seed in enumerate(seeds):
        sigs[:, p] = np.minimum.reduceat(_splitmix64(h ^ seed), starts[:-1])
    return sigs


class MinHasher:
    """Batch-mapping stage: permutation seeds built once per worker process
    (the state is 64 ints — a task fn with a process-level seed cache beats
    an actor pool, whose startup dominates at interactive scale). The whole
    batch hashes in vectorized passes (Arrow gram construction → numpy MD5
    → per-permutation segmented min)."""

    _seed_cache: dict[int, np.ndarray] = {}

    def __init__(self, num_perm: int = 64, shingle: int = 3):
        cached = MinHasher._seed_cache.get(num_perm)
        if cached is None:
            cached = MinHasher._seed_cache[num_perm] = minhash_seeds(num_perm)
        self.seeds = cached
        self.num_perm = num_perm
        self.shingle = shingle

    def signature(self, text: str) -> np.ndarray:
        h, starts = _batch_gram_hashes(pa.array([text], pa.string()), self.shingle)
        return _signatures(h, starts, self.seeds)[0]

    def __call__(self, batch: pa.Table) -> pa.Table:
        h, starts = _batch_gram_hashes(batch.column("text"), self.shingle)
        sigs = _signatures(h, starts, self.seeds)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "sig": pa.FixedSizeListArray.from_arrays(
                    pa.array(sigs.ravel(), pa.uint64()), self.num_perm
                ),
            }
        )


# ---------------------------------------------------------------- minhash

def band_key(band: int, chunk) -> str:
    """LSH band bucket key: md5 hex (first 16) of 'band:v0,v1,...' —
    reproducible in SQL as substr(md5(...), 1, 16)."""
    return hashlib.md5(
        (str(band) + ":" + ",".join(map(str, chunk))).encode()
    ).hexdigest()[:16]


def _band_keys_u64(sigs: np.ndarray, bands: int) -> np.ndarray:
    """(n, bands) uint64 band keys. Key = first 8 md5 digest bytes of
    'band:v0,v1,...' packed little-endian word-wise — a bijection of the
    16-hex-char prefix the SQL oracle uses (equality-equivalent), built
    with ONE vectorized md5 pass per band."""
    n, num_perm = sigs.shape
    rpb = num_perm // bands
    out = np.empty((n, bands), np.uint64)
    for b in range(bands):
        cols: list = []
        for j in range(b * rpb, (b + 1) * rpb):
            if cols:
                cols.append(",")
            cols.append(pc.cast(pa.array(sigs[:, j], pa.uint64()), pa.string()))
        key_str = pc.binary_join_element_wise(f"{b}:", *cols, "")
        a, w_b, _c, _d = md5_state_batch(key_str)
        out[:, b] = a.astype(np.uint64) | (w_b.astype(np.uint64) << np.uint64(32))
    return out


def _band_rows_table(doc_ids: pa.Array, keys: np.ndarray, bands: int) -> pa.Table:
    """Band rows with the COMPACT payload: (doc_id, band, band_key,
    prefix) where prefix = the doc's band keys for earlier bands only —
    avg bands/2 uint64s instead of the full signature (the band shuffle
    is the 100-TB cost center; this is the ≥4× byte cut)."""
    n = len(doc_ids)
    parts = []
    for b in range(bands):
        prefix_vals = pa.array(keys[:, :b].ravel(), pa.uint64())
        offsets = pa.array(np.arange(n + 1, dtype=np.int32) * b)
        parts.append(
            pa.table(
                {
                    "doc_id": doc_ids,
                    "band": pa.array(np.full(n, b, np.int32)),
                    "band_key": pa.array(keys[:, b], pa.uint64()),
                    "prefix": pa.ListArray.from_arrays(offsets, prefix_vals),
                }
            )
        )
    return pa.concat_tables(parts)


def _segment_pairs(
    ids: np.ndarray, prefixes: np.ndarray | None, label: str
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (a < b) within one band bucket, emitted only if the two docs
    share NO earlier band key (the pair's lowest colliding band — exact
    distinct-pair semantics with one shuffle). ``prefixes``: (m, band)
    earlier-band keys aligned with ``ids`` (None for band 0). Degenerate
    buckets chain consecutive ids (O(n), logged)."""
    uniq, first_pos = np.unique(ids, return_index=True)
    m = len(uniq)
    if m < 2:
        return uniq[:0], uniq[:0]
    if prefixes is not None:
        prefixes = prefixes[first_pos]
    if m > MAX_BUCKET_PAIRS_DOCS:
        print(
            f"[{label}] degenerate LSH bucket: {m} docs, "
            f"chaining instead of all-pairs",
            flush=True,
        )
        ii = np.arange(m - 1)
        jj = ii + 1
    else:
        ii, jj = np.triu_indices(m, k=1)
    if prefixes is not None and len(ii):
        # chunk the (pairs × band) equality mask so a big bucket never
        # allocates a GB-scale temporary
        keep_chunks = []
        for s in range(0, len(ii), 1 << 20):
            a, b = ii[s : s + (1 << 20)], jj[s : s + (1 << 20)]
            keep_chunks.append(~(prefixes[a] == prefixes[b]).any(axis=1))
        keep = np.concatenate(keep_chunks)
        ii, jj = ii[keep], jj[keep]
    return uniq[ii], uniq[jj]


BAND_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("band", pa.int32()),
        ("band_key", pa.uint64()),
        ("prefix", pa.list_(pa.uint64())),
    ]
)


def _band_split_impl(base: pa.Table, nbuckets: int):
    """Band rows → nbuckets sub-tables by band_key (keys are md5-derived,
    already uniform — modulo IS the hash)."""
    base = base.combine_chunks()
    keys = base.column("band_key").to_numpy(zero_copy_only=False)
    return partition(base, keys % np.uint64(nbuckets), nbuckets)


def _band_bucket_pairs_impl(label: str, *parts: pa.Table) -> pa.Table:
    """All candidate pairs of one key-bucket: sort by band_key, find
    colliding segments vectorized (singleton keys — the vast majority —
    cost one argsort pass, no Python), run the pair logic only on
    collisions."""
    tbl = pa.concat_tables([t for t in parts if t.num_rows > 0] or list(parts[:1]))
    tbl = tbl.combine_chunks()
    n = tbl.num_rows
    out_a: list = []
    out_b: list = []
    if n:
        keys = tbl.column("band_key").to_numpy(zero_copy_only=False)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)[order]
        bands = tbl.column("band").to_numpy(zero_copy_only=False)[order]
        pf = _cc(tbl.column("prefix"))
        pf_off = pf.offsets.to_numpy(zero_copy_only=False).astype(np.int64)[order]
        pf_vals = pf.values.to_numpy(zero_copy_only=False)
        seg_bounds = np.concatenate(
            ([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1, [n])
        )
        seg_lens = np.diff(seg_bounds)
        for si in np.nonzero(seg_lens >= 2)[0]:
            s, e = int(seg_bounds[si]), int(seg_bounds[si + 1])
            band = int(bands[s])
            if band == 0:
                prefixes = None
            else:
                # same key ⇒ same band ⇒ equal prefix lengths: gather the
                # (m, band) matrix straight from the flat list values
                prefixes = pf_vals[
                    pf_off[s:e][:, None] + np.arange(band)[None, :]
                ]
            a, b = _segment_pairs(ids[s:e], prefixes, label)
            out_a.extend(a.tolist())
            out_b.extend(b.tolist())
    return pa.table(
        {"doc_a": pa.array(out_a, pa.int64()), "doc_b": pa.array(out_b, pa.int64())}
    )


def _lsh_candidate_pairs(rows_ds, label: str):
    """Explicit one-move hash exchange over the band rows (the Dataset
    groupby would invoke Python once per band key — almost all singletons;
    here singleton keys never leave numpy), sized by ``exchange.plan``
    from the band rows' bytes. Returns a Dataset (doc_a, doc_b)."""
    split_refs = exchange.split(
        _band_split_impl, (), exchange.plan(rows_ds.materialize()),
        BAND_SCHEMA, list(BAND_SCHEMA.names),
    )
    return exchange.reduce(split_refs, _band_bucket_pairs_impl, (label,))


def minhash_candidates(sf_dir: str, num_perm: int = 64, bands: int = 16):
    """LSH candidate pairs (doc_a < doc_b) from banded minhash buckets.

    ONE shuffle total; a pair is emitted only in its *lowest* colliding
    band (earlier-band collisions recomputed bucket-locally from the
    compact key prefix). Equality on band keys is exactly the SQL
    oracle's pair condition."""
    hasher = MinHasher(num_perm)

    def band_rows(batch: pa.Table) -> pa.Table:
        h, starts = _batch_gram_hashes(batch.column("text"), hasher.shingle)
        sigs = _signatures(h, starts, hasher.seeds)
        keys = _band_keys_u64(sigs, bands)
        ids = _cc(batch.column("doc_id"))
        return _band_rows_table(ids, keys, bands)

    rows = _read_docs(sf_dir).map_batches(band_rows, batch_format="pyarrow")
    return _lsh_candidate_pairs(rows, "dedup_minhash")


# ---------------------------------------------------------------- simhash

class SimHasher:
    """Vectorized 64-bit SimHash: the batch's tokens hash once through the
    dictionary (distinct tokens only), bit sums run as 64 segmented adds."""

    def _simhash(self, text: str) -> int:
        tbl = pa.table(
            {"doc_id": pa.array([0], pa.int64()), "text": pa.array([text])}
        )
        return int(self(tbl).column("simhash")[0].as_py(), 16)

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = pc.fill_null(_cc(batch.column("text")), "")
        toks = pc.split_pattern(text, " ")
        flat = _cc(pc.list_flatten(toks))
        n_tok = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        n = batch.num_rows
        starts = np.zeros(n + 1, np.int64)
        np.cumsum(n_tok, out=starts[1:])
        if len(flat):
            dic = pc.dictionary_encode(flat)
            vocab_h = md5_u64_batch(dic.dictionary)
            h = vocab_h[dic.indices.to_numpy(zero_copy_only=False)]
        else:
            h = np.zeros(0, np.uint64)
        # per-doc bit accumulation: for each bit, +1/-1 per token summed
        # segment-wise (docs are non-empty: split always yields ≥1 token)
        sim = np.zeros(n, np.uint64)
        for bit in range(64):
            pm = (((h >> np.uint64(bit)) & np.uint64(1)).astype(np.int64) * 2) - 1
            acc = np.add.reduceat(pm, starts[:-1]) if n else pm[:0]
            sim |= (acc > 0).astype(np.uint64) << np.uint64(bit)
        hexes = [format(int(v), "016x") for v in sim]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "simhash": pa.array(hexes, pa.string()),
            }
        )


def simhashes(sf_dir: str):
    # task fn: stateless vectorized batch map
    return _read_docs(sf_dir).map_batches(SimHasher(), batch_format="pyarrow")


def simhash_groups(sf_dir: str):
    """SimHash duplicate groups: docs sharing a 64-bit simhash key —
    the vectorized one-move group reduction (Arrow group_by min/count,
    zero per-key Python); groups of size 1 are dropped batch-side."""
    from shaclex_ray.stages.groupagg import grouped_aggregate_fast

    groups = grouped_aggregate_fast(
        simhashes(sf_dir),
        ["simhash"],
        [("doc_id", "min"), ("doc_id", "count")],
        ["canonical_doc_id", "n_dups"],
    )
    return groups.map_batches(
        lambda b: b.filter(pc.greater_equal(b.column("n_dups"), 2)),
        batch_format="pyarrow",
    )


# ------------------------------------------------------- ngram jaccard

# ------------------------------------ representative-based verification

# candidate sets up to this many pairs verify directly; larger ones try
# the representative path first
REP_MIN_PAIRS = 100_000
# the representative path runs only when |distinct contents| / |docs| is
# at most this (below it rep pairs are far fewer than candidate pairs)
REP_DUP_RATIO = 0.5


def _rep_expand_verify(cand, docfp_ds, verify_direct, out_schema, self_vals):
    """Verify LSH candidates through content REPRESENTATIVES.

    The verification predicate (jaccard / cosine) is a pure function of
    the two docs' content, so identical-content docs are interchangeable:
    group docs by a 128-bit content fingerprint, run the payload verifier
    only on DISTINCT representative pairs, then expand the verdicts back
    over the candidate pairs with int-only joins. Payload bytes moved
    scale with |distinct content| x near-dup degree instead of
    |candidate pairs| — on a duplicate-heavy web corpus an exact-dup
    cluster of size m yields O(m^2) candidate pairs that all share ONE
    verdict, so the direct path re-ships the same payload m^2 times.

    cand:          materialized Dataset (doc_a, doc_b)
    docfp_ds:      Dataset (doc_id, fp_hi, fp_lo, self_ok) — content
                   fingerprint per doc; self_ok = whether a pair of
                   identical-content docs passes verification
    verify_direct: fn(cand_ds) -> Dataset in out_schema — the payload
                   verifier, run only on representative pairs
    out_schema:    output schema; fields [0:2] are the pair id columns
    self_vals:     constants for out_schema's value columns on
                   identical-content pairs (e.g. jaccard=1.0)

    Returns None when the corpus is not duplicate-heavy enough
    (|reps|/|docs| > REP_DUP_RATIO): there the rep detour is pure
    overhead — rep pairs ≈ candidate pairs — and the caller's direct
    path is the right shape already. Every join is ``exchange.join``.
    """
    from shaclex_ray.stages.dedup import distinct_rows_fast
    from shaclex_ray.stages.groupagg import grouped_aggregate_fast

    ida, idb = out_schema.names[0], out_schema.names[1]
    val_names = out_schema.names[2:]

    docfp_ds = docfp_ds.materialize()
    reps = grouped_aggregate_fast(
        docfp_ds, ["fp_hi", "fp_lo"], [("doc_id", "min")], ["rep_id"]
    ).materialize()
    if reps.count() > docfp_ds.count() * REP_DUP_RATIO:
        return None

    doc_rep = exchange.join(docfp_ds, reps, ["fp_hi", "fp_lo"])
    rep_a = doc_rep.select_columns(["doc_id", "rep_id", "self_ok"]).rename_columns(
        {"rep_id": "rep_a", "self_ok": "ok_a"}
    )
    rep_b = doc_rep.select_columns(["doc_id", "rep_id"]).rename_columns(
        {"rep_id": "rep_b"}
    )
    cand_rep = exchange.join(
        exchange.join(cand, rep_a, ["doc_a"], ["doc_id"]), rep_b, ["doc_b"], ["doc_id"]
    )

    def _lohi(batch: pa.Table) -> pa.Table:
        ra = batch.column("rep_a").to_numpy(zero_copy_only=False)
        rb = batch.column("rep_b").to_numpy(zero_copy_only=False)
        m = ra != rb
        return pa.table(
            {
                "doc_a": pa.array(np.minimum(ra[m], rb[m]), pa.int64()),
                "doc_b": pa.array(np.maximum(ra[m], rb[m]), pa.int64()),
            }
        )

    rep_pairs = distinct_rows_fast(
        cand_rep.map_batches(_lohi, batch_format="pyarrow")
    )
    verdict = verify_direct(rep_pairs).rename_columns({ida: "lo", idb: "hi"})

    def _self_only(batch: pa.Table) -> pa.Table:
        ra = batch.column("rep_a").to_numpy(zero_copy_only=False)
        rb = batch.column("rep_b").to_numpy(zero_copy_only=False)
        oa = batch.column("ok_a").to_numpy(zero_copy_only=False)
        keep = (ra == rb) & oa.astype(bool)
        cols = {
            ida: batch.column("doc_a").filter(pa.array(keep)),
            idb: batch.column("doc_b").filter(pa.array(keep)),
        }
        for c in val_names:
            cols[c] = pa.array(
                np.full(int(keep.sum()), self_vals[c]), out_schema.field(c).type
            )
        return pa.table(cols).cast(out_schema)

    def _cross_keyed(batch: pa.Table) -> pa.Table:
        ra = batch.column("rep_a").to_numpy(zero_copy_only=False)
        rb = batch.column("rep_b").to_numpy(zero_copy_only=False)
        m = ra != rb
        return pa.table(
            {
                "lo": pa.array(np.minimum(ra[m], rb[m]), pa.int64()),
                "hi": pa.array(np.maximum(ra[m], rb[m]), pa.int64()),
                ida: batch.column("doc_a").filter(pa.array(m)),
                idb: batch.column("doc_b").filter(pa.array(m)),
            }
        )

    crossed = exchange.join(
        cand_rep.map_batches(_cross_keyed, batch_format="pyarrow"),
        verdict,
        ["lo", "hi"],
    ).map_batches(
        lambda b: b.select(out_schema.names).cast(out_schema),
        batch_format="pyarrow",
    )
    selfd = cand_rep.map_batches(_self_only, batch_format="pyarrow")
    return selfd.union(crossed)


def ngram_jaccard_dups(
    sf_dir: str,
    shingle: int = 3,
    threshold: float = 0.8,
    num_perm: int = 32,
    bands: int = 8,
):
    """Verified near-duplicate pairs: jaccard over distinct token n-gram
    hashes, candidates from banded minhash buckets.

    Shuffle budget: band rows carry only (doc_id, band keys ≤bands u64);
    each doc's distinct shingle-hash set is stored ONCE in a compact side
    table and joined onto the candidate pairs (a-side, then b-side,
    ``exchange.join``) for in-batch verification — ~2× the shingle bytes
    move instead of ×bands, and the driver never sees a text or a
    shingle set."""
    seeds = minhash_seeds(num_perm)

    def prep(batch: pa.Table) -> pa.Table:
        """Per-doc side table: band keys + distinct shingle-hash set."""
        h, starts = _batch_gram_hashes(batch.column("text"), shingle)
        sigs = _signatures(h, starts, seeds)
        keys = _band_keys_u64(sigs, bands)
        n = batch.num_rows
        # per-doc distinct hashes, vectorized: one global lexsort, then
        # first-in-segment/new-value boundary mask
        parent = np.repeat(np.arange(n), np.diff(starts))
        order = np.lexsort((h, parent))
        hs, ps = h[order], parent[order]
        newseg = np.ones(len(hs), bool)
        newseg[1:] = (ps[1:] != ps[:-1]) | (hs[1:] != hs[:-1])
        dh, dp = hs[newseg], ps[newseg]
        cnt = np.bincount(dp, minlength=n)
        bounds = np.zeros(n + 1, np.int64)
        np.cumsum(cnt, out=bounds[1:])
        raw = dh.tobytes()
        shingles = [raw[bounds[i] * 8 : bounds[i + 1] * 8] for i in range(n)]
        sh_arr = pa.array(shingles, pa.binary())
        # content fingerprint over the DISTINCT shingle set (sorted, so
        # canonical): docs with equal sets — exact dups, and also
        # shuffled/reordered dups — share a representative
        fp_hi, fp_lo = md5_u128_batch(sh_arr)
        self_ok = (np.diff(bounds) > 0) & (1.0 >= threshold)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "keys": pa.FixedSizeListArray.from_arrays(
                    pa.array(keys.ravel(), pa.uint64()), bands
                ),
                "shingles": sh_arr,
                "fp_hi": pa.array(fp_hi, pa.uint64()),
                "fp_lo": pa.array(fp_lo, pa.uint64()),
                "self_ok": pa.array(self_ok, pa.bool_()),
            }
        )

    def band_rows(batch: pa.Table) -> pa.Table:
        keys = np.asarray(
            _cc(batch.column("keys")).flatten().to_numpy(
                zero_copy_only=False
            )
        ).reshape(batch.num_rows, bands)
        return _band_rows_table(
            _cc(batch.column("doc_id")), keys, bands
        )

    def verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _JACCARD_SCHEMA.empty_table()
        da = batch.column("doc_a").to_numpy(zero_copy_only=False)
        db = batch.column("doc_b").to_numpy(zero_copy_only=False)
        la, fa = _bin_col_u64(batch.column("sh_a"))
        lb, fb = _bin_col_u64(batch.column("shingles"))
        return _jaccard_table(da, db, la, fa, lb, fb, threshold)

    prep_ds = _read_docs(sf_dir).map_batches(prep, batch_format="pyarrow").materialize()
    cand = _lsh_candidate_pairs(
        prep_ds.select_columns(["doc_id", "keys"]).map_batches(
            band_rows, batch_format="pyarrow"
        ),
        "dedup_ngram",
    ).materialize()
    sh_b = prep_ds.select_columns(["doc_id", "shingles"]).materialize()
    sh_a = sh_b.rename_columns({"shingles": "sh_a"}).materialize()

    def verify_direct(cand_ds):
        """The payload verifier over an arbitrary (doc_a, doc_b) pair
        set: each side's shingle set joins on (``exchange.join``), and
        the shingle bytes never ride the band rows or the driver."""
        j = exchange.join(cand_ds, sh_a, ["doc_a"], ["doc_id"])
        j = exchange.join(j, sh_b, ["doc_b"], ["doc_id"])
        return j.map_batches(verify, batch_format="pyarrow")

    if cand.count() <= REP_MIN_PAIRS:
        return verify_direct(cand)
    # big candidate set: if the corpus is duplicate-heavy, verify per
    # distinct CONTENT pair and expand — payload never rides per-pair
    rep = _rep_expand_verify(
        cand,
        prep_ds.select_columns(["doc_id", "fp_hi", "fp_lo", "self_ok"]),
        verify_direct,
        _JACCARD_SCHEMA,
        {"jaccard": 1.0},
    )
    if rep is not None:
        return rep
    return verify_direct(cand)


# ------------------------------------------ fuzzy-dedup cluster resolution

def connected_components(edges_ds, max_iters: int = 12):
    """Distributed connected components of the int64 edges (a, b) by
    min-label propagation: each node repeatedly adopts the smallest label
    among itself and its neighbors (groupby-min per round; deterministic
    — the representative is the component's minimum id). Converges in
    O(component diameter) rounds. Returns a Dataset (node, label).

    The per-round label reduction is the vectorized one-move hash
    exchange (``grouped_aggregate_fast`` — Arrow group_by min, zero
    per-node Python), and each round's propagation is two
    ``exchange.join``s of the edges with the labels."""
    from shaclex_ray.stages.groupagg import grouped_aggregate_fast

    def seed(batch: pa.Table) -> pa.Table:
        a = batch.column("a").combine_chunks()
        b = batch.column("b").combine_chunks()
        lab = pc.min_element_wise(a, b)
        return pa.table(
            {
                "node": pa.concat_arrays([a, b]),
                "label": pa.concat_arrays([lab, lab]),
            }
        )

    def min_label_agg(ds):
        return grouped_aggregate_fast(ds, ["node"], [("label", "min")], ["label"])

    def fwd(batch: pa.Table) -> pa.Table:
        la = batch.column("label_a").combine_chunks()
        lb = batch.column("label_b").combine_chunks()
        m = pc.min_element_wise(la, lb)
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        batch.column("a").combine_chunks(),
                        batch.column("b").combine_chunks(),
                    ]
                ),
                "label": pa.concat_arrays([m, m]),
                "changed": pa.concat_arrays(
                    [
                        pc.not_equal(la, m),
                        pc.not_equal(lb, m),
                    ]
                ),
            }
        )

    edges = edges_ds.materialize()
    labels = edges.map_batches(seed, batch_format="pyarrow")
    for _ in range(max_iters):
        labels = min_label_agg(labels).materialize()
        # propagate: each edge forwards min(label_a, label_b) to both ends
        joined = exchange.join(
            exchange.join(
                edges, labels.rename_columns({"label": "label_a"}), ["a"], ["node"]
            ),
            labels.rename_columns({"label": "label_b"}),
            ["b"],
            ["node"],
        )
        prop = joined.map_batches(fwd, batch_format="pyarrow").materialize()
        n_changed = prop.map_batches(
            lambda b: pa.table(
                {"n": pa.array([pc.sum(b.column("changed")).as_py() or 0], pa.int64())}
            ),
            batch_format="pyarrow",
        ).sum("n")
        labels = prop.select_columns(["node", "label"])
        if not n_changed:
            break
    else:
        raise ValueError(
            f"connected_components did not converge in {max_iters} rounds "
            "(component diameter exceeds max_iters) — raise max_iters"
        )
    return min_label_agg(labels)


# dup-pair count from which dedup_clusters merges components distributed
CC_DIST_PAIRS = 1_000_000


def dedup_clusters(
    sf_dir: str,
    shingle: int = 3,
    threshold: float = 0.8,
    num_perm: int = 32,
    bands: int = 8,
):
    """End-to-end fuzzy dedup: verified near-dup pairs → connected
    components → one row per document with its cluster representative
    (the component's minimum doc_id) and the keep/drop decision.

    The component merge is size-adaptive: below ``CC_DIST_PAIRS`` pairs
    a driver union-find resolves the (small) dup graph; from it the merge
    runs as the distributed min-label propagation
    ``connected_components`` (vectorized one-move hash exchange per round
    — no per-node Python). Either regime yields a (node, label) table
    that the documents ``left_outer``-join (``exchange.join``): a doc
    with no label is its own cluster. Both regimes produce identical rows
    (tests pin the equality), and non-duplicated docs never enter the
    merge — the CC working set scales with |dup pairs|, not |corpus|."""
    pairs = ngram_jaccard_dups(
        sf_dir, shingle, threshold, num_perm, bands
    ).materialize()
    n_pairs = pairs.count()
    if n_pairs and n_pairs >= CC_DIST_PAIRS:
        labels = connected_components(
            pairs.select_columns(["doc_a", "doc_b"]).rename_columns(
                {"doc_a": "a", "doc_b": "b"}
            )
        )
    else:
        # driver union-find over the small pair list
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for r in pairs.select_columns(["doc_a", "doc_b"]).take_all():
            ra, rb = find(r["doc_a"]), find(r["doc_b"])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        keys = sorted(parent)
        labels = ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array(keys, pa.int64()),
                    "label": pa.array([find(k) for k in keys], pa.int64()),
                }
            )
        )

    def finish(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").combine_chunks().cast(pa.int64())
        lab = pc.coalesce(batch.column("label").combine_chunks(), ids)
        return pa.table({"doc_id": ids, "cluster": lab, "keep": pc.equal(ids, lab)})

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return exchange.join(docs, labels, ["doc_id"], ["node"], "left_outer").map_batches(
        finish, batch_format="pyarrow"
    )


# ------------------------------------------- embedding-cosine near-dup

def embedding_near_dups(
    sf_dir: str,
    threshold: float = 0.4,
    nbits: int = 48,
    bands: int = 6,
    seed: int = 777,
):
    """Near-duplicate pairs by embedding cosine: candidates from banded
    random-hyperplane LSH (the signature's r-bit slices are the band
    values), verified cosine >= threshold.

    Defaults give r = 8 bits/band — ~3% candidate rate on random
    vectors, which is the 100-TB sizing: at web scale real near-dups sit
    at cosine >= 0.9 (bit-agreement ~0.94, band-collision ~0.6/band) so
    6 bands recall ~99.5% of them while the candidate set stays
    near-linear. Recall at a *weak* threshold (0.4 on this synthetic
    corpus, whose max pairwise cosine is 0.6) is intentionally partial —
    banded LSH is a candidate generator, not an all-pairs scan; the SQL
    oracle applies the identical banded rule so parity is exact. nbits
    must stay <= 63 (the oracle packs the signature into a BIGINT).

    Same shuffle budget as minhash: ONE band exchange carrying only
    (vec_id, band, band_key, earlier-key prefix); the vectors themselves
    join onto the candidate pairs only (two ``exchange.join``s).
    Signature/band equality is exactly the SQL oracle's pair condition
    (embedding_dups_sql)."""
    from shaclex_ray.functions.ann import (
        _emb_dim,
        _list_to_matrix,
        _signature,
        _to_matrix,
        lsh_planes,
    )

    dim = _emb_dim(sf_dir)
    planes = lsh_planes(dim, nbits, seed)
    r = nbits // bands
    vmask = np.uint64((1 << r) - 1)

    def band_rows_fn(batch: pa.Table) -> pa.Table:
        ids, emb = _to_matrix(batch, dim)
        sig = _signature(emb, planes).astype(np.uint64)
        vals = np.empty((len(ids), bands), np.uint64)
        for b in range(bands):
            vals[:, b] = (sig >> np.uint64(b * r)) & vmask
        keys = _band_keys_u64(vals, bands)
        return _band_rows_table(_cc(batch.column("vec_id")), keys, bands)

    def _read():
        return ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        )

    cand = _lsh_candidate_pairs(
        _read().map_batches(band_rows_fn, batch_format="pyarrow"),
        "dedup_embedding",
    ).materialize()

    def _pair_cos(A: np.ndarray, B: np.ndarray) -> np.ndarray:
        # dot/(|a||b|) — the list_cosine_similarity formula, in float64;
        # a zero-norm side (incl. null-filled vectors) reads -1, the
        # engine-wide undefined-direction rule the SQL twin coalesces to
        num = np.einsum("ij,ij->i", A, B)
        den = np.linalg.norm(A, axis=1) * np.linalg.norm(B, axis=1)
        cos = num / np.maximum(den, 1e-300)
        cos[den == 0.0] = -1.0
        return cos

    out_schema = pa.schema([("vec_id_a", pa.int64()), ("vec_id_b", pa.int64())])

    def _pack_bytes(mat: np.ndarray) -> pa.Array:
        # the vectors as float64 bytes (exact), the content fingerprint's
        # input: one binary array straight over the matrix buffer
        n, d = mat.shape
        offsets = np.arange(0, (n + 1) * d * 8, d * 8, dtype=np.int32)
        return pa.Array.from_buffers(
            pa.binary(),
            n,
            [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(mat.tobytes())],
        )

    def verify(batch: pa.Table) -> pa.Table:
        da = batch.column("doc_a").to_numpy(zero_copy_only=False)
        db = batch.column("doc_b").to_numpy(zero_copy_only=False)
        A = _list_to_matrix(batch.column("emb_a"), dim)
        B = _list_to_matrix(batch.column("emb_b"), dim)
        keep = _pair_cos(A, B) >= threshold
        return pa.table(
            {
                "vec_id_a": pa.array(da[keep], pa.int64()),
                "vec_id_b": pa.array(db[keep], pa.int64()),
            }
        )

    def verify_direct(cand_ds):
        """Cosine verification over an arbitrary (doc_a, doc_b) pair set:
        each side's vector joins on (``exchange.join`` carries the
        list<float> payload as is)."""
        j = exchange.join(
            cand_ds, _read().rename_columns({"embedding": "emb_a"}),
            ["doc_a"], ["vec_id"],
        )
        j = exchange.join(
            j, _read().rename_columns({"embedding": "emb_b"}), ["doc_b"], ["vec_id"]
        )
        return j.map_batches(verify, batch_format="pyarrow")

    if cand.count() <= REP_MIN_PAIRS:
        return verify_direct(cand)

    def fp_fn(batch: pa.Table) -> pa.Table:
        # self-cosine: 1 for any nonzero vector, -1 for a zero-norm one
        # (the engine-wide undefined-direction rule _pair_cos applies) —
        # self_ok must encode the same rule or the rep-expand path would
        # diverge from the direct-verify path at threshold <= -1
        mat = _list_to_matrix(batch.column("embedding"), dim)
        fp_hi, fp_lo = md5_u128_batch(_pack_bytes(mat))
        self_cos = np.where(np.linalg.norm(mat, axis=1) > 0, 1.0, -1.0)
        ok = self_cos >= threshold
        return pa.table(
            {
                "doc_id": batch.column("vec_id"),
                "fp_hi": pa.array(fp_hi, pa.uint64()),
                "fp_lo": pa.array(fp_lo, pa.uint64()),
                "self_ok": pa.array(ok, pa.bool_()),
            }
        )

    # big candidate set: duplicate-heavy corpora verify per distinct
    # VECTOR pair and expand — the vectors never ride per-pair
    rep = _rep_expand_verify(
        cand,
        _read().map_batches(fp_fn, batch_format="pyarrow"),
        verify_direct,
        out_schema,
        {},
    )
    if rep is not None:
        return rep
    return verify_direct(cand)
