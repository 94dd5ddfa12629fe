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
import os

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
from shaclex_ray.stages.exchange import partition

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


def _ragged_arange(lens: np.ndarray) -> np.ndarray:
    """[0..l0) ++ [0..l1) ++ … as one array (vectorized ragged ranges)."""
    total = int(lens.sum())
    starts = np.cumsum(lens) - lens
    return np.arange(total) - np.repeat(starts, lens)


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


BAND_BUCKET_ROWS = 4_000_000  # most band rows one LSH bucket holds


def _lsh_candidate_pairs(rows_ds, label: str):
    """Explicit one-move hash exchange over the band rows (the Dataset
    groupby would invoke Python once per band key — almost all singletons;
    here singleton keys never leave numpy). Returns a Dataset
    (doc_a, doc_b)."""
    mat = rows_ds.materialize()
    nrows = mat.count()
    # bucket count scales with band-row VOLUME (docs x bands), capped per
    # bucket at BAND_BUCKET_ROWS -- cpu count alone leaves per-bucket rows
    # unbounded at corpus scale
    nbuckets = max(
        4,
        int(ray.cluster_resources().get("CPU", 8)),
        -(-nrows // BAND_BUCKET_ROWS),
    )
    split_refs = exchange.split(
        _band_split_impl, (), mat.to_arrow_refs(), nrows, nbuckets,
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

def _join_parts(rows: int, bytes_per_row: int) -> int:
    """Hash-join fan-out bounded by per-aggregator BYTES (256MB budget)
    with a row-count floor — the same sizing rule as the payload joins."""
    budget = 256 << 20
    return int(
        np.clip(max(rows // 2_000_000, rows * bytes_per_row // budget) + 1, 2, 512)
    )


def _rep_expand_verify(cand, n_cand, docfp_ds, verify_direct, out_schema, self_vals):
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
    verify_direct: fn(cand_ds, n_pairs) -> Dataset in out_schema — the
                   payload verifier, run only on representative pairs
    out_schema:    output schema; fields [0:2] are the pair id columns
    self_vals:     constants for out_schema's value columns on
                   identical-content pairs (e.g. jaccard=1.0)

    Returns None when the corpus is not duplicate-heavy enough
    (|reps|/|docs| > SHACLEX_REP_DUP_RATIO): there the rep detour is pure
    overhead — rep pairs ≈ candidate pairs — and the caller's direct
    path is the right shape already.
    """
    from shaclex_ray.stages.dedup import distinct_rows_fast
    from shaclex_ray.stages.groupagg import grouped_aggregate_fast

    ida, idb = out_schema.names[0], out_schema.names[1]
    val_names = out_schema.names[2:]
    dup_ratio = float(os.environ.get("SHACLEX_REP_DUP_RATIO", "0.5"))
    verdict_bcast_rows = int(
        os.environ.get("SHACLEX_REP_VERDICT_BCAST_ROWS", "20000000")
    )

    n_docs = docfp_ds.count()
    reps = grouped_aggregate_fast(
        docfp_ds, ["fp_hi", "fp_lo"], [("doc_id", "min")], ["rep_id"]
    ).materialize()
    if reps.count() > n_docs * dup_ratio:
        return None

    # materialize between joins: a single streaming plan with several
    # hash joins starts ALL their aggregator fleets concurrently — the
    # combined CPU reservation deadlocks the scheduler (observed: two
    # 124-partition joins x 16 CPUs each on a 32-CPU node, zero progress).
    # Sequential stages keep exactly one aggregator fleet alive at a time,
    # and doc_rep (consumed by BOTH pair-side joins) is computed once.
    doc_rep = (
        docfp_ds.join(
            reps,
            "inner",
            num_partitions=_join_parts(n_docs, 48),
            on=("fp_hi", "fp_lo"),
        )
        .select_columns(["doc_id", "rep_id", "self_ok"])
        .materialize()
    )

    def _r1(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_a": batch.column("doc_a"),
                "doc_b": batch.column("doc_b"),
                "rep_a": batch.column("rep_id"),
                "ok_a": batch.column("self_ok"),
            }
        )

    def _r2(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_a": batch.column("doc_a"),
                "doc_b": batch.column("doc_b"),
                "rep_a": batch.column("rep_a"),
                "ok_a": batch.column("ok_a"),
                "rep_b": batch.column("rep_id"),
            }
        )

    np_cand = _join_parts(n_cand, 64)
    half = (
        cand.join(
            doc_rep,
            "inner",
            num_partitions=np_cand,
            on=("doc_a",),
            right_on=("doc_id",),
        )
        .map_batches(_r1, batch_format="pyarrow")
        .materialize()
    )
    cand_rep = (
        half.join(
            doc_rep,
            "inner",
            num_partitions=np_cand,
            on=("doc_b",),
            right_on=("doc_id",),
        )
        .map_batches(_r2, batch_format="pyarrow")
        .materialize()
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
    ).materialize()
    verdict = verify_direct(rep_pairs, rep_pairs.count()).materialize()
    nv = verdict.count()

    if nv <= verdict_bcast_rows:
        tbls = [ray.get(r) for r in verdict.to_arrow_refs()]
        vt = (
            pa.concat_tables(tbls).combine_chunks()
            if tbls
            else out_schema.empty_table()
        )
        vt = vt.rename_columns(["lo", "hi", *val_names])
        verd_ref = ray.put(vt)

        def emit(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return out_schema.empty_table()
            ra = batch.column("rep_a").to_numpy(zero_copy_only=False)
            rb = batch.column("rep_b").to_numpy(zero_copy_only=False)
            oa = batch.column("ok_a").to_numpy(zero_copy_only=False)
            da = batch.column("doc_a").to_numpy(zero_copy_only=False)
            db = batch.column("doc_b").to_numpy(zero_copy_only=False)
            self_m = ra == rb
            outs = []
            keep = self_m & oa.astype(bool)
            if keep.any():
                cols = {
                    ida: pa.array(da[keep], pa.int64()),
                    idb: pa.array(db[keep], pa.int64()),
                }
                for c in val_names:
                    cols[c] = pa.array(
                        np.full(int(keep.sum()), self_vals[c]),
                        out_schema.field(c).type,
                    )
                outs.append(pa.table(cols).cast(out_schema))
            cm = ~self_m
            if cm.any():
                qt = pa.table(
                    {
                        "lo": pa.array(np.minimum(ra[cm], rb[cm]), pa.int64()),
                        "hi": pa.array(np.maximum(ra[cm], rb[cm]), pa.int64()),
                        ida: pa.array(da[cm], pa.int64()),
                        idb: pa.array(db[cm], pa.int64()),
                    }
                )
                j = qt.join(ray.get(verd_ref), keys=["lo", "hi"], join_type="inner")
                outs.append(j.select(out_schema.names).cast(out_schema))
            if not outs:
                return out_schema.empty_table()
            return pa.concat_tables(outs)

        return cand_rep.map_batches(emit, batch_format="pyarrow")

    # verdict too large to broadcast (near-worst-case rep-pair degree):
    # expand by a distributed int-only join on (lo, hi)
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

    def _vt_keyed(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["lo", "hi", *val_names])

    crossed = (
        cand_rep.map_batches(_cross_keyed, batch_format="pyarrow")
        .join(
            verdict.map_batches(_vt_keyed, batch_format="pyarrow"),
            "inner",
            num_partitions=_join_parts(n_cand, 64),
            on=("lo", "hi"),
        )
        .map_batches(
            lambda b: b.select(out_schema.names).cast(out_schema),
            batch_format="pyarrow",
        )
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
    table and hash-joined onto the candidate pairs (a-side, then b-side)
    for in-batch verification — ~2× the shingle bytes move instead of
    ×bands, and the driver never sees a text or a shingle set."""
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

    def rename_a(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_a": batch.column("doc_a"),
                "doc_b": batch.column("doc_b"),
                "sh_a": batch.column("shingles"),
            }
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
    sh_ds = prep_ds.select_columns(["doc_id", "shingles"])
    cand = _lsh_candidate_pairs(
        prep_ds.select_columns(["doc_id", "keys"]).map_batches(
            band_rows, batch_format="pyarrow"
        ),
        "dedup_ngram",
    ).materialize()

    # size-adaptive verification (the broadcast-vs-shuffle switch): few
    # candidates → ship ONLY the candidate docs' shingle sets via ray.put
    # and verify with a lookup; many → two hash joins (shingle bytes move
    # ~2×, still never ×bands, and never through the driver)
    import os as _os

    bcast_limit = int(_os.environ.get("SHACLEX_JACCARD_BCAST_THRESHOLD", "100000"))

    def verify_direct(cand_ds, n_pairs: int):
        """The payload verifier over an arbitrary (doc_a, doc_b) pair
        set: broadcast lookup when small, two hash joins at scale."""
        if n_pairs <= bcast_limit:
            cand_ids = set()
            for row in cand_ds.take_all():
                cand_ids.add(row["doc_a"])
                cand_ids.add(row["doc_b"])
            if not cand_ids:
                import ray.data as _rd

                return _rd.from_arrow(_JACCARD_SCHEMA.empty_table())
            id_arr = pa.array(sorted(cand_ids), pa.int64())

            def pick(batch: pa.Table) -> pa.Table:
                return batch.filter(
                    pc.is_in(batch.column("doc_id"), value_set=id_arr)
                )

            picked = sh_ds.map_batches(pick, batch_format="pyarrow").take_all()
            picked.sort(key=lambda r: r["doc_id"])
            # indexable shingle store: (sorted ids, segment bounds, flat
            # uint64 hashes) — per-pair sets gather by searchsorted + the
            # ragged-arange trick, no per-pair dict lookups
            ids_sorted = np.array([r["doc_id"] for r in picked], np.int64)
            lens = np.array(
                [len(r["shingles"]) // 8 for r in picked], np.int64
            )
            starts = np.zeros(len(lens) + 1, np.int64)
            np.cumsum(lens, out=starts[1:])
            flat = np.frombuffer(
                b"".join(r["shingles"] for r in picked), np.uint64
            )
            lookup_ref = ray.put((ids_sorted, starts, lens, flat))

            def verify_bcast(batch: pa.Table) -> pa.Table:
                if batch.num_rows == 0:
                    return _JACCARD_SCHEMA.empty_table()
                ids_s, st, ln, fl = ray.get(lookup_ref)
                da = batch.column("doc_a").to_numpy(zero_copy_only=False)
                db = batch.column("doc_b").to_numpy(zero_copy_only=False)
                ia = np.searchsorted(ids_s, da)
                ib = np.searchsorted(ids_s, db)
                la, lb = ln[ia], ln[ib]
                fa = fl[np.repeat(st[ia], la) + _ragged_arange(la)]
                fb = fl[np.repeat(st[ib], lb) + _ragged_arange(lb)]
                return _jaccard_table(da, db, la, fa, lb, fb, threshold)

            return cand_ds.map_batches(verify_bcast, batch_format="pyarrow")

        # join fan-out is BYTE-aware, not just row-aware: each hash-join
        # aggregator holds its whole partition, and every candidate pair
        # carries ~2 shingle payloads through j2 — row-count sizing alone
        # OOMs the aggregators once pairs x payload passes a few GB
        avg_sh = prep_ds.size_bytes() / max(1, prep_ds.count())
        budget = 256 << 20  # per-partition aggregator budget
        nparts = int(
            np.clip(
                max(n_pairs // 100_000, int(n_pairs * 2 * avg_sh) // budget) + 1,
                2,
                512,
            )
        )
        j1 = cand_ds.join(
            sh_ds, "inner", num_partitions=nparts, on=("doc_a",), right_on=("doc_id",)
        ).map_batches(rename_a, batch_format="pyarrow")
        j2 = j1.join(
            sh_ds, "inner", num_partitions=nparts, on=("doc_b",), right_on=("doc_id",)
        )
        return j2.map_batches(verify, batch_format="pyarrow")

    n_cand = cand.count()
    if n_cand <= bcast_limit:
        return verify_direct(cand, n_cand)
    # big candidate set: if the corpus is duplicate-heavy, verify per
    # distinct CONTENT pair and expand — payload never rides per-pair
    rep = _rep_expand_verify(
        cand,
        n_cand,
        prep_ds.select_columns(["doc_id", "fp_hi", "fp_lo", "self_ok"]),
        verify_direct,
        _JACCARD_SCHEMA,
        {"jaccard": 1.0},
    )
    if rep is not None:
        return rep
    return verify_direct(cand, n_cand)


# ------------------------------------------ fuzzy-dedup cluster resolution

def connected_components(edges_ds, max_iters: int = 12):
    """Distributed connected components by min-label propagation: each node
    repeatedly adopts the smallest label among itself and its neighbors
    (groupby-min per round; deterministic — the representative is the
    lexicographic minimum of the component). Converges in O(component
    diameter) rounds. Returns a Dataset (node, label).

    The per-round label reduction is the vectorized one-move hash
    exchange (``grouped_aggregate_fast`` — Arrow group_by min, zero
    per-node Python), and the propagation joins' partitioning scales
    with edge count, not a fixed constant."""
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

    n_edges = edges_ds.count()
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    nparts = max(2, min(max(ncpu // 2, n_edges // 2_000_000 + 1), 512))

    def _fix_schema(cols):
        """Ray joins emit empty partitions with a degenerate schema —
        restore the canonical column set so the next join/map sees stable
        fields."""
        target = pa.schema([(c, pa.string()) for c in cols])

        def fix(batch: pa.Table) -> pa.Table:
            if not set(cols) <= set(batch.column_names):
                return target.empty_table()
            return batch.select(cols).cast(target)

        return fix

    labels = edges_ds.map_batches(seed, batch_format="pyarrow")
    edges = edges_ds
    for _ in range(max_iters):
        labels = min_label_agg(labels).materialize()
        # propagate: each edge forwards min(label_a, label_b) to both ends
        j1 = edges.join(
            labels, "inner", num_partitions=nparts, on=("a",), right_on=("node",)
        ).map_batches(_fix_schema(["a", "b", "label"]), batch_format="pyarrow")
        joined = j1.join(
            labels,
            "inner",
            num_partitions=nparts,
            on=("b",),
            right_on=("node",),
            left_suffix="_a",
            right_suffix="_b",
        )

        def fwd(batch: pa.Table) -> pa.Table:
            if not {"a", "b", "label_a", "label_b"} <= set(batch.column_names):
                return pa.schema(
                    [("node", pa.string()), ("label", pa.string()),
                     ("changed", pa.bool_())]
                ).empty_table()
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


def dedup_clusters(
    sf_dir: str,
    shingle: int = 3,
    threshold: float = 0.8,
    num_perm: int = 32,
    bands: int = 8,
    distributed: bool | None = None,
):
    """End-to-end fuzzy dedup: verified near-dup pairs → connected
    components → one row per document with its cluster representative
    (the component's minimum doc_id) and the keep/drop decision.

    The component merge is size-adaptive: below
    ``SHACLEX_DEDUP_CC_THRESHOLD`` pairs (default 1M) a driver union-find
    resolves the (small) dup graph and the doc→cluster map broadcasts as
    two sorted numpy arrays probed with one searchsorted per batch; above
    it the merge runs as the distributed min-label propagation
    ``connected_components`` (vectorized one-move hash exchange per round
    — no per-node Python), with doc ids riding as zero-padded strings so the
    lexicographic propagation minimum IS the numeric minimum. Both
    regimes produce identical rows (tests pin the equality). Either way,
    non-duplicated docs never enter the merge — the CC working set
    scales with |dup pairs|, not |corpus|."""
    import os as _os

    pairs = ngram_jaccard_dups(
        sf_dir, shingle, threshold, num_perm, bands
    ).materialize()
    n_pairs = pairs.count()
    docs_path = f"{sf_dir}/documents.parquet"
    if distributed is None:
        cc_threshold = int(
            _os.environ.get("SHACLEX_DEDUP_CC_THRESHOLD", "1000000")
        )
        distributed = n_pairs >= cc_threshold

    if n_pairs == 0:
        # no dup pairs: every document is its own singleton cluster —
        # don't route an empty dataset through the hash-shuffle join
        # (its right side would lose the key schema)
        def singletons(batch: pa.Table) -> pa.Table:
            ids = batch.column("doc_id").combine_chunks().cast(pa.int64())
            return pa.table(
                {
                    "doc_id": ids,
                    "cluster": ids,
                    "keep": pa.array(np.ones(len(ids), bool)),
                }
            )

        return ray.data.read_parquet(
            docs_path, columns=["doc_id"]
        ).map_batches(singletons, batch_format="pyarrow")

    if not distributed:
        # driver union-find over the small pair list; broadcast the
        # doc→cluster map once, probe vectorized per batch
        rows = pairs.select_columns(["doc_a", "doc_b"]).take_all()
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for r in rows:
            ra, rb = find(r["doc_a"]), find(r["doc_b"])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        keys = np.array(sorted(parent), dtype=np.int64)
        vals = np.array([find(int(k)) for k in keys], dtype=np.int64)
        map_ref = ray.put((keys, vals))

        def assign(batch: pa.Table) -> pa.Table:
            # ray.get of plasma-resident numpy arrays is a zero-copy view —
            # the broadcast itself; no actor pool needed for read-only state
            keys, vals = ray.get(map_ref)
            ids = (
                batch.column("doc_id")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            idx = np.searchsorted(keys, ids)
            idx[idx == len(keys)] = 0
            hit = keys[idx] == ids
            lab = np.where(hit, vals[idx], ids)
            return pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "cluster": pa.array(lab, pa.int64()),
                    "keep": pa.array(ids == lab),
                }
            )

        return ray.data.read_parquet(docs_path, columns=["doc_id"]).map_batches(
            assign, batch_format="pyarrow"
        )

    def to_edges(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a": pc.utf8_lpad(
                    pc.cast(batch.column("doc_a"), pa.string()), 19, "0"
                ),
                "b": pc.utf8_lpad(
                    pc.cast(batch.column("doc_b"), pa.string()), 19, "0"
                ),
            }
        )

    edges = pairs.map_batches(to_edges, batch_format="pyarrow")
    labels = connected_components(edges)

    _label_schema = pa.schema([("node", pa.string()), ("label", pa.string())])

    def fix_labels(batch: pa.Table) -> pa.Table:
        # empty blocks out of joins/aggregates can carry a degenerate
        # schema — restore (node, label) so the left_outer join below
        # always sees its key field
        if not {"node", "label"} <= set(batch.column_names):
            return _label_schema.empty_table()
        return batch.select(["node", "label"]).cast(_label_schema)

    labels = labels.map_batches(fix_labels, batch_format="pyarrow")

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    ).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id"),
                "node": pc.utf8_lpad(
                    pc.cast(b.column("doc_id"), pa.string()), 19, "0"
                ),
            }
        ),
        batch_format="pyarrow",
    )
    from shaclex_ray.sources.documents import parquet_num_rows

    ncpu = int(ray.cluster_resources().get("CPU", 8))
    # join fan-out scales with corpus size (parquet metadata is free, and
    # this branch only runs in the distributed >=1M-pair regime anyway)
    _nrows = parquet_num_rows(docs_path)
    joined = docs.join(
        labels,
        "left_outer",
        num_partitions=max(2, min(max(2, ncpu // 2), _nrows // 100_000 + 1)),
        on=("node",),
    )

    def finish(batch: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [
                ("doc_id", pa.int64()),
                ("cluster", pa.int64()),
                ("keep", pa.bool_()),
            ]
        )
        if not {"doc_id", "label"} <= set(batch.column_names):
            return out_schema.empty_table()
        ids = batch.column("doc_id").combine_chunks().cast(pa.int64())
        lab = pc.cast(
            pc.coalesce(
                batch.column("label").combine_chunks(),
                pc.utf8_lpad(pc.cast(ids, pa.string()), 19, "0"),
            ),
            pa.int64(),
        )
        return pa.table(
            {"doc_id": ids, "cluster": lab, "keep": pc.equal(ids, lab)}
        )

    return joined.map_batches(finish, batch_format="pyarrow")


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
    are fetched for the candidate set only — broadcast lookup when the
    set is small, two hash joins at scale. Signature/band equality is
    exactly the SQL oracle's pair condition (embedding_dups_sql)."""
    from shaclex_ray.functions.ann import _emb_dim, _signature, _to_matrix, lsh_planes

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

    import os as _os

    bcast_limit = int(_os.environ.get("SHACLEX_JACCARD_BCAST_THRESHOLD", "100000"))
    out_schema = pa.schema([("vec_id_a", pa.int64()), ("vec_id_b", pa.int64())])

    def _pack_bytes(batch: pa.Table) -> pa.Array:
        # Arrow hash joins don't carry list<float> payloads — pack the
        # vectors as float64 bytes (exact) for the ride, unpack in verify.
        # One flatten + one memcpy per batch: the binary array is built
        # straight from the flat values buffer, no per-row Python.
        from shaclex_ray.functions.ann import _list_to_matrix

        mat = _list_to_matrix(batch.column("embedding"), dim)
        n, d = mat.shape
        offsets = np.arange(0, (n + 1) * d * 8, d * 8, dtype=np.int32)
        return pa.Array.from_buffers(
            pa.binary(),
            n,
            [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(mat.tobytes())],
        )

    def verify_direct(cand_ds, n_pairs: int):
        """Cosine verification over an arbitrary (doc_a, doc_b) pair set:
        broadcast matrix lookup when small, two hash joins at scale."""
        if n_pairs <= bcast_limit:
            cand_ids = set()
            for row in cand_ds.take_all():
                cand_ids.add(row["doc_a"])
                cand_ids.add(row["doc_b"])
            if not cand_ids:
                import ray.data as _rd

                return _rd.from_arrow(out_schema.empty_table())
            id_arr = pa.array(sorted(cand_ids), pa.int64())

            def pick(batch: pa.Table) -> pa.Table:
                return batch.filter(
                    pc.is_in(batch.column("vec_id"), value_set=id_arr)
                )

            picked = pa.concat_tables(
                pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) else b
                for b in _read()
                .map_batches(pick, batch_format="pyarrow")
                .iter_batches(batch_format="pyarrow")
            )
            order = pc.sort_indices(picked.column("vec_id"))
            ids_sorted = (
                picked.column("vec_id").take(order).to_numpy(zero_copy_only=False)
            )
            mat_sorted = _to_matrix(picked.take(order), dim)[1]
            lookup_ref = ray.put((ids_sorted, mat_sorted))

            def verify_bcast(batch: pa.Table) -> pa.Table:
                if batch.num_rows == 0:
                    return out_schema.empty_table()
                ids_s, M = ray.get(lookup_ref)
                da = batch.column("doc_a").to_numpy(zero_copy_only=False)
                db = batch.column("doc_b").to_numpy(zero_copy_only=False)
                A = M[np.searchsorted(ids_s, da)]
                B = M[np.searchsorted(ids_s, db)]
                keep = _pair_cos(A, B) >= threshold
                return pa.table(
                    {
                        "vec_id_a": pa.array(da[keep], pa.int64()),
                        "vec_id_b": pa.array(db[keep], pa.int64()),
                    }
                )

            return cand_ds.map_batches(verify_bcast, batch_format="pyarrow")

        vec_bytes = dim * 8
        budget = 256 << 20
        nparts = int(
            np.clip(
                max(n_pairs // 100_000, (n_pairs * 2 * vec_bytes) // budget) + 1,
                2,
                512,
            )
        )

        def to_bytes(batch: pa.Table) -> pa.Table:
            return pa.table(
                {"vec_id": batch.column("vec_id"), "emb": _pack_bytes(batch)}
            )

        emb_ds = _read().map_batches(to_bytes, batch_format="pyarrow")

        def rename_a(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "doc_a": batch.column("doc_a"),
                    "doc_b": batch.column("doc_b"),
                    "emb_a": batch.column("emb"),
                }
            )

        def _unpack(col) -> np.ndarray:
            """binary column of equal-length float64 payloads -> (n, dim)
            matrix: one gather over the offsets + one frombuffer —
            vectorized (never a per-row frombuffer)."""
            arr = _cc(col)
            n = len(arr)
            off = np.frombuffer(arr.buffers()[1], np.int32)[
                arr.offset : arr.offset + n + 1
            ].astype(np.int64)
            data = np.frombuffer(arr.buffers()[2], np.uint8)
            row_len = int(off[1] - off[0])
            if not (np.diff(off) == row_len).all():
                raise ValueError("ragged packed-embedding column")
            flat = np.frombuffer(
                data[off[0] : off[-1]].tobytes(), np.float64
            )
            return flat.reshape(n, row_len // 8)

        def verify_join(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return out_schema.empty_table()
            da = batch.column("doc_a").to_numpy(zero_copy_only=False)
            db = batch.column("doc_b").to_numpy(zero_copy_only=False)
            A = _unpack(batch.column("emb_a"))
            B = _unpack(batch.column("emb"))
            keep = _pair_cos(A, B) >= threshold
            return pa.table(
                {
                    "vec_id_a": pa.array(da[keep], pa.int64()),
                    "vec_id_b": pa.array(db[keep], pa.int64()),
                }
            )

        j1 = cand_ds.join(
            emb_ds, "inner", num_partitions=nparts, on=("doc_a",), right_on=("vec_id",)
        ).map_batches(rename_a, batch_format="pyarrow")
        j2 = j1.join(
            emb_ds, "inner", num_partitions=nparts, on=("doc_b",), right_on=("vec_id",)
        )
        return j2.map_batches(verify_join, batch_format="pyarrow")

    n_cand = cand.count()
    if n_cand <= bcast_limit:
        return verify_direct(cand, n_cand)

    def fp_fn(batch: pa.Table) -> pa.Table:
        # self-cosine: 1 for any nonzero vector, -1 for a zero-norm one
        # (the engine-wide undefined-direction rule _pair_cos applies) —
        # self_ok must encode the same rule or the rep-expand path would
        # diverge from the direct-verify path at threshold <= -1
        from shaclex_ray.functions.ann import _list_to_matrix

        mat = _list_to_matrix(batch.column("embedding"), dim)
        fp_hi, fp_lo = md5_u128_batch(_pack_bytes(batch))
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
    # VECTOR pair and expand — the packed payload never rides per-pair
    rep = _rep_expand_verify(
        cand,
        n_cand,
        _read().map_batches(fp_fn, batch_format="pyarrow"),
        verify_direct,
        out_schema,
        {},
    )
    if rep is not None:
        return rep
    return verify_direct(cand, n_cand)
