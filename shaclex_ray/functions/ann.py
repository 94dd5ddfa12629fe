"""Similarity search over the embeddings table (vec_id, embedding:
list<float>, label).

  * brute-force cosine top-k: the query matrix is broadcast once
    (``ray.put``); every batch does one float64 matmul against it and
    emits only its per-(query, batch) top-k — the reduce sees
    nq × k × nblocks rows, never the full nq × N score table
  * LSH-bucketed top-k (scale path): random-hyperplane signatures bucket
    vectors; queries score only against vectors sharing their bucket

Determinism: ties broken by vec_id (selection by (-cos, vec_id) is
order-monotone, so per-batch partial top-k composes exactly with the
final merge); hyperplanes from a fixed seed.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data


def _read_emb(sf_dir: str):
    return ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )


def _list_to_matrix(col, dim: int | None = None) -> np.ndarray:
    """list<float>/fixed_size_list column -> (n, dim) float64 matrix via
    the flat values buffer (one zero-copy flatten + reshape — never a
    per-row to_pylist). Pass ``dim`` from caller state (planes/centroid/
    query width) so an ALL-null block still yields correctly-shaped zero
    rows."""
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(col)
    if n == 0:
        return np.empty((0, dim or 0), np.float64)
    lens = pc.fill_null(pc.list_value_length(col), 0).to_numpy(
        zero_copy_only=False
    )
    present = lens > 0
    if not present.any():
        return np.zeros((n, dim or 0), np.float64)
    dim = int(lens[present][0])
    if not (lens[present] == dim).all():
        raise ValueError("ragged embedding column")
    # null ELEMENTS read as 0.0 (same fill the SQL twins apply)
    flat = pc.fill_null(pc.list_flatten(col), 0.0).to_numpy(
        zero_copy_only=False
    )
    if present.all():
        return flat.reshape(n, dim).astype(np.float64, copy=False)
    # null/empty embeddings read as the ZERO vector: norm 0 -> cos -1
    # under the undefined-direction rule, so they rank last everywhere;
    # the SQL twins mirror this by coalescing NULL cosines to -1.0
    m = np.zeros((n, dim), np.float64)
    m[present] = flat.reshape(-1, dim).astype(np.float64, copy=False)
    return m


def _to_matrix(
    batch: pa.Table, dim: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
    return ids, _list_to_matrix(batch.column("embedding"), dim)


def _normalize_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalize exactly (float64 — no epsilon clamp, which would
    crush tiny-magnitude vectors to a fake zero direction). Zero-norm
    rows are left all-zero and flagged in the returned mask; the engine's
    cosine policy is that any similarity involving a zero-norm vector is
    **-1** (undefined direction ranks last) — the same value DuckDB's
    list_cosine_similarity returns, so the SQL twins agree by
    construction. Callers must apply the mask to their sims matrix."""
    n = np.linalg.norm(m, axis=1, keepdims=True)
    zero = n[:, 0] == 0.0
    return m / np.where(n == 0.0, 1.0, n), zero


def _cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine of every row of ``a`` against every row of ``b``, computed
    dot-then-divide (dot / (|a|·|b|)) and clamped to [-1, 1]: the
    association order and clamp of DuckDB's list_cosine_similarity, so
    exact-dot inputs (integer-grid or mutually parallel embeddings) tie
    bitwise where the SQL twins tie. Normalize-then-dot rounds each
    component first and drifts by an ulp, flipping top-k cuts. A pair
    with a zero-norm side scores -1 (the policy of ``_normalize_rows``)."""
    an = np.linalg.norm(a, axis=1)
    bn = np.linalg.norm(b, axis=1)
    az, bz = an == 0.0, bn == 0.0
    denom = np.where(az, 1.0, an)[:, None] * np.where(bz, 1.0, bn)[None, :]
    sims = np.clip((a @ b.T) / denom, -1.0, 1.0)
    sims[az, :] = -1.0
    sims[:, bz] = -1.0
    return sims


def _partial_topk(qids, ids, sims, k, out_q, out_v, out_s):
    """Per-query top-k within one batch, selected by (-cos, vec_id) so the
    final merge over partials equals the global top-k exactly."""
    for qi in range(sims.shape[0]):
        order = np.lexsort((ids, -sims[qi]))[:k]
        order = order[np.isfinite(sims[qi][order])]  # drop masked self rows
        out_q.extend([int(qids[qi])] * len(order))
        out_v.extend(int(x) for x in ids[order])
        out_s.extend(float(s) for s in sims[qi][order])


class BruteForceTopK:
    """Actor-pool stage: query matrix prepared once per actor; emits k
    best per (query, batch) — the scale-safe partial reduce."""

    def __init__(self, queries_ref, k: int):
        q = ray.get(queries_ref) if isinstance(queries_ref, ray.ObjectRef) else queries_ref
        self.qids, qm = q
        self.qm = np.asarray(qm, np.float64)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, emb = _to_matrix(batch, self.qm.shape[1])
        sims = _cosine(self.qm, emb)  # (nq, nb)
        # exclude self-matches before selection
        for qi, qid in enumerate(self.qids):
            self_mask = ids == qid
            if self_mask.any():
                sims[qi, self_mask] = -np.inf
        out_q: list = []
        out_v: list = []
        out_s: list = []
        _partial_topk(self.qids, ids, sims, self.k, out_q, out_v, out_s)
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "cos": pa.array(out_s, pa.float64()),
            }
        )


def _merge_topk(partials, k: int):
    """Final top-k merge over the per-(query, batch) partials — the
    one-move grouped exchange with a vectorized segment-rank kernel
    (stages/groupagg.grouped_topk), one lexsort per bucket instead of a
    Python call per query. Exact: partial selection by (-cos, vec_id) is
    order-monotone, so merging partials equals the global top-k."""
    from shaclex_ray.stages.groupagg import grouped_topk

    return grouped_topk(
        partials,
        "query_id",
        [("cos", "descending"), ("vec_id", "ascending")],
        k,
        rank_name="rank",
        keep_cols=["query_id", "vec_id", "rank"],
        empty_schema=_TOPK_SCHEMA,
    )


def _min_id_rows(sf_dir: str, n: int, columns: list[str]) -> pa.Table:
    """The ``n`` embedding rows with the SMALLEST vec_ids — the SQL twins'
    ``ORDER BY vec_id LIMIT n`` — not the first physical rows (file order
    is not a contract): distributed per-block partial min-k over the
    narrow id column, driver merge of ≤ n×nblocks ids, then a
    predicate-pruned read of just those rows, returned id-ascending.
    Shared by the ANN query-set and knn_label seed-set loaders so the
    'smallest vec_ids' contract has exactly one implementation."""
    import pyarrow.parquet as pq

    path = f"{sf_dir}/embeddings.parquet"

    def _id_part(batch: pa.Table) -> pa.Table:
        v = np.sort(batch.column("vec_id").to_numpy(zero_copy_only=False))
        return pa.table({"vec_id": pa.array(v[:n], pa.int64())})

    id_parts = (
        ray.data.read_parquet(path, columns=["vec_id"])
        .map_batches(_id_part, batch_format="pyarrow")
        .take_all()
    )
    sel = np.sort(np.array([r["vec_id"] for r in id_parts], np.int64))[:n]
    t = pq.read_table(
        path,
        columns=columns,
        filters=[("vec_id", "<=", int(sel[-1]) if len(sel) else -1)],
    )
    order = np.argsort(t.column("vec_id").to_numpy(zero_copy_only=False))
    return t.take(pa.array(order)).slice(0, n)


def _load_queries(sf_dir: str, n_queries: int):
    """Query set = the ``n_queries`` smallest-vec_id rows as (ids, matrix);
    dim from the corpus so an all-null query slice still shapes right."""
    return _to_matrix(
        _min_id_rows(sf_dir, n_queries, ["vec_id", "embedding"]),
        _emb_dim(sf_dir),
    )


def topk_cosine(sf_dir: str, n_queries: int = 10, k: int = 5):
    """Top-k cosine neighbors (excluding self) for the first n query vectors.
    Returns (query_id, vec_id, rank)."""
    qids, qm = _load_queries(sf_dir, n_queries)
    # query matrix is tiny → ship it inside the (once-serialized) task fn;
    # for big query sets pass a ray.put ref instead (ctor accepts both)
    partials = _read_emb(sf_dir).map_batches(
        BruteForceTopK((qids, qm), k), batch_format="pyarrow"
    )
    # tiny final merge: ≤ nq × k × nblocks rows
    return _merge_topk(partials, k)


# --------------------------------------------------------------- LSH path

def lsh_planes(dim: int, nbits: int = 8, seed: int = 777) -> np.ndarray:
    """The fixed random hyperplanes (shared with the SQL oracle generator)."""
    rng = np.random.RandomState(seed)
    return rng.randn(nbits, dim)


def _signature(emb: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (emb @ planes.T) > 0
    return (bits * (1 << np.arange(bits.shape[1]))).sum(axis=1)


class LshBucketer:
    """Random-hyperplane signature (scale path: queries score only within
    their bucket)."""

    def __init__(self, dim: int, nbits: int = 8, seed: int = 777):
        self.planes = lsh_planes(dim, nbits, seed)

    def signature(self, emb: np.ndarray) -> np.ndarray:
        return _signature(emb, self.planes)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, emb = _to_matrix(batch, self.planes.shape[1])
        sig = self.signature(emb)
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "bucket_sig": pa.array(sig.astype(np.int64), pa.int64()),
            }
        )


def _emb_dim(sf_dir: str) -> int:
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    # fixed_size_list carries the dim in the schema; otherwise read ONE
    # batch (never the whole column — at corpus scale that's a full scan)
    typ = pf.schema_arrow.field("embedding").type
    if pa.types.is_fixed_size_list(typ):
        return typ.list_size
    # the first physical row can be NULL (policy: reads as the zero
    # vector) — scan forward for the first row that carries a width,
    # BOUNDED so a pathological all-null prefix never becomes a driver
    # full-column scan (fixed_size_list tables never reach this loop)
    seen = 0
    for rb in pf.iter_batches(batch_size=1024, columns=["embedding"]):
        lens = pc.fill_null(
            pc.list_value_length(pa.Table.from_batches([rb]).column("embedding")),
            0,
        ).to_numpy(zero_copy_only=False)
        nz = lens[lens > 0]
        if len(nz):
            return int(nz[0])
        seen += len(lens)
        if seen >= 1_048_576:
            raise ValueError(
                "could not infer embedding dim: first 1M rows all null/empty"
            )
    if seen:
        raise ValueError("could not infer embedding dim: all rows null/empty")
    return 0  # empty embeddings table


def lsh_buckets(sf_dir: str, nbits: int = 8):
    dim = _emb_dim(sf_dir)
    return _read_emb(sf_dir).map_batches(
        LshBucketer(dim, nbits), batch_format="pyarrow"
    )


class LshBucketTopK:
    """End-to-end bucketed scoring: per batch, each query scores ONLY the
    vectors sharing its LSH bucket, emitting per-(query, batch) top-k.
    At scale this replaces the N-wide matmul with |bucket|-wide ones."""

    def __init__(self, queries_ref, k: int, nbits: int, dim: int, seed: int = 777):
        q = ray.get(queries_ref) if isinstance(queries_ref, ray.ObjectRef) else queries_ref
        self.qids, qm = q
        self.planes = lsh_planes(dim, nbits, seed)
        self.qm = np.asarray(qm, np.float64)
        self.qsig = _signature(self.qm, self.planes)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, emb = _to_matrix(batch, self.planes.shape[1])
        sig = _signature(emb, self.planes)
        out_q: list = []
        out_v: list = []
        out_s: list = []
        for qi, qid in enumerate(self.qids):
            mask = (sig == self.qsig[qi]) & (ids != qid)
            if not mask.any():
                continue
            sims = _cosine(self.qm[qi : qi + 1], emb[mask])
            _partial_topk([qid], ids[mask], sims, self.k, out_q, out_v, out_s)
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "cos": pa.array(out_s, pa.float64()),
            }
        )


def _lsh_index_dir(sf_dir: str, nbits: int, seed: int) -> str:
    """Cache location keyed by source identity (path+mtime+size) so a
    changed table invalidates the index — same digest-resume idea as the
    kg checkpoints."""
    import hashlib
    import os
    import tempfile

    src = os.path.abspath(f"{sf_dir}/embeddings.parquet")
    st = os.stat(src)
    key = hashlib.md5(
        f"{src}:{st.st_mtime_ns}:{st.st_size}:{nbits}:{seed}:v1".encode()
    ).hexdigest()[:16]
    return os.path.join(tempfile.gettempdir(), "shaclex_ann_index", key)


def build_lsh_index(
    sf_dir: str, nbits: int = 8, seed: int = 777, out_dir: str | None = None
) -> str:
    """Write the embeddings table hive-partitioned by ``bucket_sig``
    (one directory per bucket). Queries then read ONLY their buckets'
    partitions — bytes read scale with |buckets hit|, not |table|.
    Build is one streamed pass; reused across query sets via digest."""
    import os
    import shutil

    out_dir = out_dir or _lsh_index_dir(sf_dir, nbits, seed)
    if os.path.exists(os.path.join(out_dir, "_SUCCESS")):
        return out_dir
    dim = _emb_dim(sf_dir)
    bucketer = LshBucketer(dim, nbits, seed)

    def add_sig(batch: pa.Table) -> pa.Table:
        _, emb = _to_matrix(batch, dim)
        sig = bucketer.signature(emb).astype(np.int64)
        return batch.append_column("bucket_sig", pa.array(sig, pa.int64()))

    tmp = out_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    _read_emb(sf_dir).map_batches(add_sig, batch_format="pyarrow").write_parquet(
        tmp, partition_cols=["bucket_sig"]
    )
    # an all-empty input writes ZERO files (write_parquet never creates
    # the directory) — the empty index is a valid, cacheable index
    os.makedirs(tmp, exist_ok=True)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.replace(tmp, out_dir)
    with open(os.path.join(out_dir, "_SUCCESS"), "w"):
        pass
    return out_dir


_TOPK_SCHEMA = pa.schema(
    [("query_id", pa.int64()), ("vec_id", pa.int64()), ("rank", pa.int64())]
)


# --------------------------------------------------------------- IVF path


def _ivf_stride(sf_dir: str, nlist: int) -> int:
    import pyarrow.parquet as pq

    n = pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows
    return max(1, n // nlist)


def ivf_centroids(sf_dir: str, nlist: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic data-sampled centroids: the vectors at vec_id ==
    cid * stride for cid in [0, nlist), stride = N // nlist (N from
    parquet metadata — free). One streamed, vectorized filter pass over
    (vec_id, embedding); the centroid table is nlist rows — broadcastable
    by construction, exactly like an IVF codebook out of k-means (which
    can slot in here without changing any downstream shape)."""
    import pyarrow.parquet as pq

    stride = _ivf_stride(sf_dir, nlist)
    dim = _emb_dim(sf_dir)
    pf = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    ids_parts, emb_parts = [], []
    for rb in pf.iter_batches(columns=["vec_id", "embedding"]):
        tbl = pa.Table.from_batches([rb])
        ids = tbl.column("vec_id").to_numpy(zero_copy_only=False)
        mask = (ids % stride == 0) & (ids // stride < nlist)
        if mask.any():
            sub = tbl.filter(pa.array(mask))
            ids_parts.append(sub.column("vec_id").to_numpy(zero_copy_only=False))
            emb_parts.append(_list_to_matrix(sub.column("embedding"), dim))
    if not ids_parts:  # empty embeddings table → empty codebook
        return np.empty(0, np.int64), np.empty((0, 0), np.float64)
    cids = np.concatenate(ids_parts) // stride
    cm = np.vstack(emb_parts)
    order = np.argsort(cids)
    norm, _ = _normalize_rows(cm[order])
    return cids[order], norm


def _ivf_assign(emb: np.ndarray, cm_norm: np.ndarray) -> np.ndarray:
    """Nearest-centroid list id by cosine; argmax takes the SMALLEST
    centroid id on ties (matches the SQL twin's ORDER BY cos DESC, cid).
    Zero-norm vectors OR centroids score -1 (the engine cosine policy)."""
    embn, ez = _normalize_rows(emb)
    sims = embn @ cm_norm.T
    if ez.any():
        sims[ez, :] = -1.0
    cz = ~cm_norm.any(axis=1)
    if cz.any():
        sims[:, cz] = -1.0
    return np.argmax(sims, axis=1).astype(np.int64)


def _codebook(sf_dir: str, nlist: int, codebook: str) -> np.ndarray:
    """'sample' = deterministic data-sampled centroids (the SQL-oracled
    default); 'kmeans' = spherical k-means refinement (pytest-pinned)."""
    if codebook == "kmeans":
        return kmeans_codebook(sf_dir, nlist)
    return ivf_centroids(sf_dir, nlist)[1]


def ivf_lists(sf_dir: str, nlist: int = 16, codebook: str = "sample"):
    """(vec_id, list_id) inverted-file assignment: the centroid matrix is
    broadcast once (plasma-resident numpy — zero-copy per task), each
    batch does one matmul."""
    cent_ref = ray.put(_codebook(sf_dir, nlist, codebook))

    def assign(batch: pa.Table) -> pa.Table:
        cm = ray.get(cent_ref)
        ids, emb = _to_matrix(batch, cm.shape[1])
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "list_id": pa.array(_ivf_assign(emb, cm), pa.int64()),
            }
        )

    return _read_emb(sf_dir).map_batches(assign, batch_format="pyarrow")


def _ivf_index_dir(sf_dir: str, nlist: int, codebook: str = "sample") -> str:
    import hashlib
    import os
    import tempfile

    src = os.path.abspath(f"{sf_dir}/embeddings.parquet")
    st = os.stat(src)
    key = hashlib.md5(
        f"{src}:{st.st_mtime_ns}:{st.st_size}:ivf:{nlist}:{codebook}:v1".encode()
    ).hexdigest()[:16]
    return os.path.join(tempfile.gettempdir(), "shaclex_ann_index", key)


def build_ivf_index(
    sf_dir: str,
    nlist: int = 16,
    out_dir: str | None = None,
    codebook: str = "sample",
) -> str:
    """Write the embeddings hive-partitioned by ``list_id`` (the inverted
    file). Queries read only the lists they probe — bytes scale with
    nprobe/nlist of the table. Digest-cached like the LSH index."""
    import os
    import shutil

    out_dir = out_dir or _ivf_index_dir(sf_dir, nlist, codebook)
    if os.path.exists(os.path.join(out_dir, "_SUCCESS")):
        return out_dir
    cent_ref = ray.put(_codebook(sf_dir, nlist, codebook))

    def add_list(batch: pa.Table) -> pa.Table:
        cm = ray.get(cent_ref)
        _, emb = _to_matrix(batch, cm.shape[1])
        lid = _ivf_assign(emb, cm)
        return batch.append_column("list_id", pa.array(lid, pa.int64()))

    tmp = out_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    _read_emb(sf_dir).map_batches(add_list, batch_format="pyarrow").write_parquet(
        tmp, partition_cols=["list_id"]
    )
    # an all-empty input writes ZERO files (write_parquet never creates
    # the directory) — the empty index is a valid, cacheable index
    os.makedirs(tmp, exist_ok=True)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.replace(tmp, out_dir)
    with open(os.path.join(out_dir, "_SUCCESS"), "w"):
        pass
    return out_dir


def ivf_topk(
    sf_dir: str,
    n_queries: int = 10,
    k: int = 5,
    nlist: int = 16,
    nprobe: int = 4,
    use_index: bool = True,
    codebook: str = "sample",
):
    """IVF approximate top-k: each query scores only the vectors of its
    ``nprobe`` nearest inverted lists. Returns (query_id, vec_id, rank).
    With ``use_index`` the scan covers only the probed lists' partitions
    of the hive-partitioned index; the full-scan fallback re-derives list
    assignment per batch (parity baseline in tests). ``codebook='kmeans'``
    swaps in the k-means-refined centroids — identical shapes throughout."""
    cm = _codebook(sf_dir, nlist, codebook)
    qids, qm = _load_queries(sf_dir, n_queries)
    qm = np.asarray(qm, np.float64)
    # nprobe nearest lists per query, ties to the smaller list id
    probe = np.argsort(-_cosine(qm, cm), axis=1, kind="stable")[:, :nprobe]
    probe_sets = [set(int(x) for x in row) for row in probe]

    state = (qids, qm, probe_sets)

    def score(batch: pa.Table) -> pa.Table:
        ids, emb = _to_matrix(batch, qm.shape[1])
        if "list_id" in batch.column_names:
            lids = batch.column("list_id").to_numpy(zero_copy_only=False).astype(np.int64)
        else:
            lids = _ivf_assign(emb, cm)
        out_q: list = []
        out_v: list = []
        out_s: list = []
        s_qids, s_qm, s_probe = state
        for qi, qid in enumerate(s_qids):
            mask = np.isin(lids, list(s_probe[qi])) & (ids != qid)
            if not mask.any():
                continue
            sims = _cosine(s_qm[qi : qi + 1], emb[mask])
            _partial_topk([qid], ids[mask], sims, k, out_q, out_v, out_s)
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "cos": pa.array(out_s, pa.float64()),
            }
        )

    if use_index:
        import glob

        index = build_ivf_index(sf_dir, nlist, codebook=codebook)
        hit = sorted({int(x) for s in probe_sets for x in s})
        paths = [
            f
            for lid in hit
            for f in sorted(glob.glob(f"{index}/list_id={lid}/*.parquet"))
        ]
        if not paths:
            return ray.data.from_arrow(_TOPK_SCHEMA.empty_table())
        # explicit file paths don't surface the hive partition column, so
        # list assignment is re-derived per batch (one nlist-wide matmul)
        # — the I/O pruning is what the index buys
        src = ray.data.read_parquet(paths, columns=["vec_id", "embedding"])
    else:
        src = _read_emb(sf_dir)
    partials = src.map_batches(score, batch_format="pyarrow")
    return _merge_topk(partials, k)


def lsh_topk(
    sf_dir: str,
    n_queries: int = 10,
    k: int = 5,
    nbits: int = 8,
    use_index: bool = True,
):
    """Approximate top-k: brute-force cosine *within* each query's LSH
    bucket. Returns (query_id, vec_id, rank). Recall vs topk_cosine is
    checked in tests; the SQL oracle reproduces the signatures with
    inlined hyperplanes.

    With ``use_index`` (default) the scan covers only the partitions of
    the bucket-partitioned index that the query signatures hit; the
    full-table streaming scan remains as the no-index fallback (and the
    parity baseline in tests)."""
    import os

    dim = _emb_dim(sf_dir)
    qids, qm = _load_queries(sf_dir, n_queries)
    if use_index:
        index = build_lsh_index(sf_dir, nbits)
        qsig = _signature(np.asarray(qm, dtype=np.float64), lsh_planes(dim, nbits))
        import glob

        hit = sorted({int(s) for s in qsig})
        paths = [
            f
            for s in hit
            for f in sorted(glob.glob(f"{index}/bucket_sig={s}/*.parquet"))
        ]
        if not paths:
            return ray.data.from_arrow(_TOPK_SCHEMA.empty_table())
        src = ray.data.read_parquet(paths, columns=["vec_id", "embedding"])
    else:
        src = _read_emb(sf_dir)
    partials = src.map_batches(
        LshBucketTopK((qids, qm), k, nbits, dim), batch_format="pyarrow"
    )
    return _merge_topk(partials, k)


# ------------------------------------------------------- kNN label spread
class KnnLabelVote:
    """Actor-pool stage for pseudo-labeling: the (fixed-size, human-curated)
    seed set — raw matrix + labels — is prepared once per actor; each
    batch does one ``_cosine`` matmul against it and votes vectorized. The
    corpus side never shuffles: this is the broadcast-small-side shape,
    sized by the seed set, not the corpus."""

    def __init__(self, seeds, k: int):
        seeds = ray.get(seeds) if isinstance(seeds, ray.ObjectRef) else seeds
        self.seed_ids, sm, self.seed_labels = seeds
        self.sm = np.asarray(sm, np.float64)
        self.labels_u = np.unique(self.seed_labels)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, emb = _to_matrix(batch, self.sm.shape[1])
        keep = ~np.isin(ids, self.seed_ids)
        ids, emb = ids[keep], emb[keep]
        if len(ids) == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "pred_label": pa.array([], pa.int64()),
                    "n_votes": pa.array([], pa.int64()),
                }
            )
        sims = _cosine(emb, self.sm)  # (nb, n_seed)
        # top-k by (-cos, seed_id): seeds are stored id-ascending, and a
        # stable sort keeps that order among cos ties
        order = np.argsort(-sims, axis=1, kind="stable")[:, : self.k]
        top_labels = self.seed_labels[order]  # (nb, k)
        # vectorized majority vote; argmax over ascending label values
        # realises the (count DESC, label ASC) tie-break exactly
        counts = (top_labels[:, :, None] == self.labels_u[None, None, :]).sum(
            axis=1
        )
        best = counts.argmax(axis=1)
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "pred_label": pa.array(
                    self.labels_u[best].astype(np.int64), pa.int64()
                ),
                "n_votes": pa.array(
                    counts[np.arange(len(ids)), best].astype(np.int64),
                    pa.int64(),
                ),
            }
        )


def knn_label(sf_dir: str, n_seed: int = 100, k: int = 5):
    """k-NN pseudo-labeling over the embeddings table: the first ``n_seed``
    vectors (by vec_id) act as the labeled seed set; every other vector
    gets the majority label of its k nearest seeds by cosine (ties: more
    votes, then smaller label; neighbor ties: higher cos, then smaller
    seed id). Returns (vec_id, pred_label, n_votes) — all integers, so the
    result hash-compares exactly against the SQL twin."""
    # seed set = the n_seed SMALLEST vec_ids via the shared min-id loader;
    # corpus dim so an all-null seed slice still shapes right
    st = _min_id_rows(sf_dir, n_seed, ["vec_id", "embedding", "label"])
    seed_ids, sm = _to_matrix(st, _emb_dim(sf_dir))
    seed_labels = (
        pc.fill_null(st.column("label"), -1)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    return _read_emb(sf_dir).map_batches(
        KnnLabelVote((seed_ids, sm, seed_labels), k), batch_format="pyarrow"
    )


def knn_label_sql(n_seed: int = 100, k: int = 5, dim: int = 64) -> str:
    from shaclex_ray.functions.sql_oracles import _emb_cast

    return f"""
    WITH emb AS (
      -- DOUBLE[] cast: DuckDB computes cosine in the list's own float
      -- type; f32 over/underflows where the engine's float64 is exact
      SELECT vec_id, {_emb_cast(dim)} AS e,
             coalesce(label, -1) AS label FROM embeddings
    ), seeds AS (
      SELECT vec_id AS sid, e AS se, label
      FROM emb ORDER BY vec_id LIMIT {n_seed}
    ), rest AS (
      SELECT vec_id, e FROM emb
      WHERE vec_id NOT IN (SELECT sid FROM seeds)
    ), ranked AS (
      SELECT r.vec_id, s.label,
             row_number() OVER (
               PARTITION BY r.vec_id
               ORDER BY coalesce(list_cosine_similarity(r.e, s.se), -1.0) DESC, s.sid
             ) AS rk
      FROM rest r CROSS JOIN seeds s
    ), votes AS (
      SELECT vec_id, label, CAST(count(*) AS BIGINT) AS n_votes
      FROM ranked WHERE rk <= {k} GROUP BY vec_id, label
    ), best AS (
      SELECT vec_id, label, n_votes,
             row_number() OVER (
               PARTITION BY vec_id ORDER BY n_votes DESC, label
             ) AS brk
      FROM votes
    )
    SELECT vec_id, CAST(label AS BIGINT) AS pred_label, n_votes
    FROM best WHERE brk = 1
    """


# ------------------------------------------------------- k-means codebook
def kmeans_codebook(
    sf_dir: str, nlist: int = 16, iters: int = 5
) -> np.ndarray:
    """Distributed spherical k-means refinement of the IVF codebook.

    Init = the deterministic sampled centroids (``ivf_centroids``). Each
    iteration broadcasts the normalized codebook once (``ray.put``); every
    batch computes assignments with one matmul and emits per-centroid
    PARTIALS (vector sum + count) — nlist rows per block, so the reduce
    side is bounded by the codebook × block count, never the corpus. The
    driver accumulates partials in a content-sorted order (stable float
    summation independent of task completion order) and renormalizes;
    empty clusters keep their previous centroid. Deterministic given the
    input layout. Slots into ``ivf_lists`` / ``build_ivf_index`` /
    ``ivf_topk`` via ``codebook='kmeans'`` without changing any
    downstream shape (pytest-pinned against a single-process numpy
    reference — iterative, so no SQL twin; the SQL-oracled queries keep
    the sampled codebook)."""
    _, cm = ivf_centroids(sf_dir, nlist)
    dim = cm.shape[1]

    for _ in range(iters):
        cm_ref = ray.put(cm)

        def partial(batch: pa.Table, _cm_ref=cm_ref) -> pa.Table:
            cmn = ray.get(_cm_ref)
            _, emb = _to_matrix(batch, cmn.shape[1])
            embn, _ = _normalize_rows(emb)
            lid = np.argmax(embn @ cmn.T, axis=1)
            sums = np.zeros((nlist, dim), np.float64)
            np.add.at(sums, lid, embn)
            cnt = np.bincount(lid, minlength=nlist).astype(np.int64)
            nz = cnt > 0
            return pa.table(
                {
                    "cid": pa.array(np.nonzero(nz)[0].astype(np.int64)),
                    "cnt": pa.array(cnt[nz], pa.int64()),
                    "vsum": pa.FixedSizeListArray.from_arrays(
                        pa.array(sums[nz].ravel(), pa.float64()), dim
                    ),
                }
            )

        rows = (
            _read_emb(sf_dir)
            .map_batches(partial, batch_format="pyarrow")
            .take_all()
        )
        # stable reduce: accumulate per centroid in content-sorted order
        rows.sort(key=lambda r: (r["cid"], bytes(np.asarray(r["vsum"]).tobytes())))
        sums = np.zeros((nlist, dim), np.float64)
        cnts = np.zeros(nlist, np.int64)
        for r in rows:
            sums[r["cid"]] += np.asarray(r["vsum"], np.float64)
            cnts[r["cid"]] += r["cnt"]
        new = cm.copy()
        nz = cnts > 0
        norms = np.linalg.norm(sums[nz], axis=1, keepdims=True)
        new[nz] = sums[nz] / np.maximum(norms, 1e-12)
        cm = new
    return cm
