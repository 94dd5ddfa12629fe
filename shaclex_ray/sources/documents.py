"""Interleaved text+media document source (the pipeline input per
BASELINE.json input_hint):

    doc_id: string
    spans:  list<struct<kind: string, text: string, media_ref: string,
                        offset: int32>>

The sandbox has no Lance package and no external corpus, so the table is
*synthesized deterministically* from the driver-provided flat
``documents.parquet`` (doc_id:int64, text, lang, source) — seed-free, purely
content-derived, so every run (and the DuckDB oracle) produces the identical
table. Rules:

  * tokens = text split on single spaces; chunks of ``CHUNK`` tokens become
    ``text`` spans (text = the chunk joined by spaces)
  * every token in ENTITY_VOCAB additionally emits an ``entity`` span whose
    surface form is a deterministic case variant (exercises entity linking;
    vocabulary skew exercises hub-entity salting)
  * after chunk c of doc d, if (d + c) % MEDIA_EVERY == 0, an ``image`` span
    with media_ref = "media://h/" + md5(doc_id_str + "/" + c) is interleaved
  * offset = span ordinal within the doc (monotonically increasing)

Per-row invariant (vs the reference semantics, SURVEY.md §2.10): the
sequence [(kind, text, media_ref, order)] per doc is preserved by every
downstream transform via the carried span_idx.
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

CHUNK = 8
MEDIA_EVERY = 7
ENTITY_VOCAB = (
    "spark",
    "customer",
    "vector",
    "window",
    "stream",
    "hash",
    "merge",
    "join",
)
_ENTITY_SET = set(ENTITY_VOCAB)

SPAN_STRUCT = pa.struct(
    [
        pa.field("kind", pa.string()),
        pa.field("text", pa.string()),
        pa.field("media_ref", pa.string()),
        pa.field("offset", pa.int32()),
    ]
)


def doc_id_str(doc_id: int) -> str:
    # label policy: pad-only rjust to width 8, never truncate, sign treated
    # as a plain character — the semantics Arrow's utf8_lpad (the vectorized
    # kernel in build_spans_batch) applies, so scalar and vectorized paths
    # agree on dirty ids (negative, >8-digit). The SQL twins mirror it with
    # a CASE around DuckDB's (truncating) lpad.
    return "doc-" + str(doc_id).rjust(8, "0")


def mention_variant(token: str, doc_id: int, tok_idx: int) -> str:
    """Deterministic surface-form variant (exercises canonicalization)."""
    v = (doc_id + tok_idx) % 3
    if v == 1:
        return token.upper()
    if v == 2:
        return token[:1].upper() + token[1:]
    return token


def build_spans_batch(batch: pa.Table) -> pa.Table:
    """Vectorized-ish span builder: Arrow in, Arrow out.

    The nested variable-length construction is done with Python lists feeding
    a single ListArray.from_arrays at the end (one allocation per column);
    per-token work is plain string ops on pre-split token lists.
    """
    doc_ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()

    offsets = [0]
    kinds: list[str] = []
    span_texts: list[str] = []
    media_refs: list[str] = []
    span_offsets: list[int] = []
    out_ids: list[str] = []

    for did, text in zip(doc_ids, texts):
        toks = text.split(" ") if text else []
        ordinal = 0
        nchunks = (len(toks) + CHUNK - 1) // CHUNK
        for c in range(nchunks):
            chunk_toks = toks[c * CHUNK : (c + 1) * CHUNK]
            kinds.append("text")
            span_texts.append(" ".join(chunk_toks))
            media_refs.append("")
            span_offsets.append(ordinal)
            ordinal += 1
            for j, t in enumerate(chunk_toks):
                if t in _ENTITY_SET:
                    kinds.append("entity")
                    span_texts.append(mention_variant(t, did, c * CHUNK + j))
                    media_refs.append("")
                    span_offsets.append(ordinal)
                    ordinal += 1
            if (did + c) % MEDIA_EVERY == 0:
                h = hashlib.md5(f"{doc_id_str(did)}/{c}".encode()).hexdigest()
                kinds.append("image")
                span_texts.append("")
                media_refs.append("media://h/" + h)
                span_offsets.append(ordinal)
                ordinal += 1
        out_ids.append(doc_id_str(did))
        offsets.append(len(kinds))

    spans = pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()),
        pa.StructArray.from_arrays(
            [
                pa.array(kinds, pa.string()),
                pa.array(span_texts, pa.string()),
                pa.array(media_refs, pa.string()),
                pa.array(span_offsets, pa.int32()),
            ],
            fields=list(SPAN_STRUCT),
        ),
    )
    return pa.table(
        {
            "doc_id": pa.array(out_ids, pa.string()),
            "spans": spans,
            "lang": pc.fill_null(batch.column("lang").combine_chunks(), ""),
            "source": pc.fill_null(batch.column("source").combine_chunks(), ""),
        }
    )


def build_spans_batch_vec(batch: pa.Table) -> pa.Table:
    """Vectorized span builder — identical output to ``build_spans_batch``
    (pinned by tests/test_spans_vec.py) built from Arrow/numpy kernels:

      tokens   = one split_pattern; chunk texts = one binary_join over a
                 re-windowed ListArray (split-on-single-space and join are
                 inverses, so chunk text == original slice)
      entities = is_in over the flat token array; case variants from
                 utf8_upper / first-char-upper via slice+join
      media    = modular arithmetic on the (doc, chunk) grid; md5 loop
                 only over the qualifying ~1/MEDIA_EVERY of chunks
      order    = one integer lexsort over (doc, chunk, rank, token-pos)

    Falls back to the per-row builder for batches containing empty texts
    (the split/join inverse needs ≥1 token per doc)."""
    import numpy as np
    import pyarrow.compute as pc

    ndocs = batch.num_rows
    if ndocs == 0:
        return build_spans_batch(batch)
    texts = batch.column("text").combine_chunks()
    if pc.any(pc.equal(pc.utf8_length(texts), 0)).as_py() or texts.null_count:
        return build_spans_batch(batch)
    doc_ids = batch.column("doc_id").combine_chunks().to_numpy()

    toks_list = pc.split_pattern(texts, " ")
    lens = np.asarray(toks_list.value_lengths())
    flat = pc.list_flatten(toks_list)
    T = len(flat)
    doc_starts = np.concatenate([[0], np.cumsum(lens)])
    doc_of_tok = np.repeat(np.arange(ndocs, dtype=np.int64), lens)
    pos_in_doc = np.arange(T, dtype=np.int64) - np.repeat(doc_starts[:-1], lens)
    chunk_of_tok = pos_in_doc // CHUNK

    # ---- text spans: re-window the flat tokens at CHUNK boundaries and
    # join each window (one C pass)
    chunk_start_tok = np.flatnonzero(pos_in_doc % CHUNK == 0)
    chunk_offsets = np.concatenate([chunk_start_tok, [T]]).astype(np.int32)
    chunk_lists = pa.ListArray.from_arrays(pa.array(chunk_offsets), flat)
    chunk_texts = pc.binary_join(chunk_lists, " ")
    nchunks = (lens + CHUNK - 1) // CHUNK
    doc_of_chunk = np.repeat(np.arange(ndocs, dtype=np.int64), nchunks)
    chunk_starts = np.concatenate([[0], np.cumsum(nchunks)])
    chunk_idx = (
        np.arange(len(chunk_offsets) - 1, dtype=np.int64)
        - np.repeat(chunk_starts[:-1], nchunks)
    )

    # ---- entity spans
    ent_sel = np.flatnonzero(
        pc.is_in(flat, value_set=pa.array(list(_ENTITY_SET)))
        .to_numpy(zero_copy_only=False)
    )
    tok_e = flat.take(pa.array(ent_sel))
    ent_doc = doc_of_tok[ent_sel]
    ent_pos = pos_in_doc[ent_sel]
    variant = (doc_ids[ent_doc] + ent_pos) % 3
    upper = pc.utf8_upper(tok_e)
    cap = pc.binary_join_element_wise(
        pc.utf8_upper(pc.utf8_slice_codeunits(tok_e, 0, 1)),
        pc.utf8_slice_codeunits(tok_e, 1, 2**30),
        "",
    )
    var_pa = pa.array(variant)
    ent_surface = pc.if_else(
        pc.equal(var_pa, 1), upper, pc.if_else(pc.equal(var_pa, 2), cap, tok_e)
    )

    # ---- media spans: qualifying cells of the (doc, chunk) grid
    med_sel = np.flatnonzero((doc_ids[doc_of_chunk] + chunk_idx) % MEDIA_EVERY == 0)
    med_doc = doc_of_chunk[med_sel]
    med_refs = [
        "media://h/"
        + hashlib.md5(f"{doc_id_str(d)}/{c}".encode()).hexdigest()
        for d, c in zip(doc_ids[med_doc], chunk_idx[med_sel])
    ]

    # ---- interleave: (doc, chunk, rank, token-pos); text=0 entity=1 media=2
    n_text, n_ent, n_med = len(chunk_texts), len(ent_sel), len(med_sel)
    key_doc = np.concatenate([doc_of_chunk, ent_doc, med_doc])
    key_chunk = np.concatenate(
        [chunk_idx, chunk_of_tok[ent_sel], chunk_idx[med_sel]]
    )
    key_rank = np.concatenate(
        [
            np.zeros(n_text, np.int64),
            np.ones(n_ent, np.int64),
            np.full(n_med, 2, np.int64),
        ]
    )
    key_pos = np.concatenate(
        [np.zeros(n_text, np.int64), ent_pos, np.zeros(n_med, np.int64)]
    )
    order = np.lexsort((key_pos, key_rank, key_chunk, key_doc))

    kinds_all = pa.concat_arrays(
        [
            pa.array(["text"] * n_text, pa.string()),
            pa.array(["entity"] * n_ent, pa.string()),
            pa.array(["image"] * n_med, pa.string()),
        ]
    )
    texts_all = pa.concat_arrays(
        [
            chunk_texts.combine_chunks()
            if isinstance(chunk_texts, pa.ChunkedArray)
            else chunk_texts,
            ent_surface.combine_chunks()
            if isinstance(ent_surface, pa.ChunkedArray)
            else ent_surface,
            pa.array([""] * n_med, pa.string()),
        ]
    )
    refs_all = pa.concat_arrays(
        [
            pa.array([""] * n_text, pa.string()),
            pa.array([""] * n_ent, pa.string()),
            pa.array(med_refs, pa.string()),
        ]
    )
    order_pa = pa.array(order)
    sorted_doc = key_doc[order]
    # per-doc span ordinal (offset column)
    total = n_text + n_ent + n_med
    span_counts = np.bincount(sorted_doc, minlength=ndocs)
    span_starts = np.concatenate([[0], np.cumsum(span_counts)])
    ordinals = np.arange(total, dtype=np.int64) - np.repeat(
        span_starts[:-1], span_counts
    )

    spans = pa.ListArray.from_arrays(
        pa.array(span_starts, pa.int32()),
        pa.StructArray.from_arrays(
            [
                kinds_all.take(order_pa),
                texts_all.take(order_pa),
                refs_all.take(order_pa),
                pa.array(ordinals, pa.int32()),
            ],
            fields=list(SPAN_STRUCT),
        ),
    )
    out_ids = pc.binary_join_element_wise(
        "doc-",
        pc.utf8_lpad(pc.cast(batch.column("doc_id"), pa.string()), 8, "0"),
        "",
    )
    return pa.table(
        {
            "doc_id": out_ids.combine_chunks()
            if isinstance(out_ids, pa.ChunkedArray)
            else out_ids,
            "spans": spans,
            "lang": pc.fill_null(batch.column("lang").combine_chunks(), ""),
            "source": pc.fill_null(batch.column("source").combine_chunks(), ""),
        }
    )


def parquet_files(path: str) -> list[str]:
    """The parquet files of a parquet file OR directory of files."""
    import glob

    if not os.path.isdir(path):
        return [path]
    return sorted(glob.glob(f"{path}/**/*.parquet", recursive=True))


def parquet_num_rows(path: str) -> int:
    """Row count of a parquet file OR directory of files — pure metadata
    reads, no data scan (join fan-outs and size-adaptive switches size
    themselves with this). A path that does not exist holds 0 rows."""
    import pyarrow.parquet as pq

    if not os.path.exists(path):
        return 0
    return sum(pq.read_metadata(f).num_rows for f in parquet_files(path))


def document_partitions(sf_dir: str, want: int | None = None) -> list[dict]:
    """Plan restartable extraction partitions over the documents input.

    A partition is a contiguous ROW-GROUP RANGE of one input parquet file
    (the unit parquet can re-read cheaply), sized to ~``total/want`` rows
    and capped at ~512 MB of input bytes so a partition always fits a
    worker. When the input has too few row groups for the wanted
    parallelism (small test files), row-group ranges are further split
    into row SLICES — costlier to resume (a slice re-reads its row
    groups) but only taken in the small regime. Descriptors are
    deterministic, so the same input always yields the same pids and a
    resumed run lines up with the crashed one.
    """
    import glob
    import math

    import pyarrow.parquet as pq

    path = f"{sf_dir}/documents.parquet"
    files = sorted(glob.glob(f"{path}/*.parquet")) if os.path.isdir(path) else [path]
    if want is None:
        ncpu = int(ray.cluster_resources().get("CPU", 8))
        want = max(2 * ncpu, 8)
    metas = [(f, pq.ParquetFile(f).metadata) for f in files]
    total_rows = sum(m.num_rows for _, m in metas)
    target_rows = max(1, math.ceil(total_rows / want))
    max_bytes = 512 << 20

    parts: list[dict] = []
    for fidx, (f, meta) in enumerate(metas):
        rg_rows = [meta.row_group(i).num_rows for i in range(meta.num_row_groups)]
        rg_bytes = [
            meta.row_group(i).total_byte_size for i in range(meta.num_row_groups)
        ]
        cur: list[int] = []
        cur_rows = cur_bytes = 0
        for i, (r, b) in enumerate(zip(rg_rows, rg_bytes)):
            cur.append(i)
            cur_rows += r
            cur_bytes += b
            if cur_rows >= target_rows or cur_bytes >= max_bytes:
                parts.append(
                    {
                        "pid": f"{fidx:04d}-{cur[0]:05d}",
                        "file": f,
                        "rgs": cur,
                        "input_rows": cur_rows,
                    }
                )
                cur, cur_rows, cur_bytes = [], 0, 0
        if cur:
            parts.append(
                {
                    "pid": f"{fidx:04d}-{cur[0]:05d}",
                    "file": f,
                    "rgs": cur,
                    "input_rows": cur_rows,
                }
            )

    if len(parts) < want and total_rows >= 4 * len(parts):
        # small-regime slice split: k slices per row-group-range partition
        k = min(math.ceil(want / len(parts)), max(1, total_rows // len(parts)))
        sliced: list[dict] = []
        for p in parts:
            n = p["input_rows"]
            step = math.ceil(n / k)
            for s, start in enumerate(range(0, n, step)):
                ln = min(step, n - start)
                sliced.append(
                    {
                        "pid": f"{p['pid']}-s{s:03d}",
                        "file": p["file"],
                        "rgs": p["rgs"],
                        "row_start": start,
                        "row_len": ln,
                        "input_rows": ln,
                    }
                )
        parts = sliced
    return parts


def iter_document_partition(part: dict, batch_rows: int = 32768):
    """Stream the (pruned) document batches of one partition descriptor.

    Row-group-range partitions stream via ``iter_batches`` (bounded
    memory at any input size); slice partitions read their row groups and
    slice (small-regime only)."""
    import pyarrow.parquet as pq

    cols = ["doc_id", "text", "lang", "source"]
    pf = pq.ParquetFile(part["file"])
    if part.get("row_start") is None:
        for rb in pf.iter_batches(
            batch_size=batch_rows, row_groups=part["rgs"], columns=cols
        ):
            yield pa.Table.from_batches([rb])
    else:
        tbl = pf.read_row_groups(part["rgs"], columns=cols).slice(
            part["row_start"], part["row_len"]
        )
        for rb in tbl.to_batches(max_chunksize=batch_rows):
            yield pa.Table.from_batches([rb])


def read_documents(sf_dir: str, parallelism: int = 32) -> "ray.data.Dataset":
    """sf_dir/documents.parquet -> interleaved-span documents Dataset.

    Column-pruned read (only the columns the span builder needs leave
    storage); span construction streams through map_batches. Block count
    is pinned to ~2× the cluster CPUs via ``override_num_blocks``: Ray's
    default split of a single large file is far finer (hundreds of
    ~2 MB blocks), and the per-block driver dispatch then serializes the
    whole stage — coarse blocks keep every core on UDF work. (This also
    splits a one-row-group test file without a repartition shuffle; pass
    parallelism=0 to take the file's natural blocks.)
    """
    cols = ["doc_id", "text", "lang", "source"]
    # Lance lane (the north-star input format): taken when a Lance dataset
    # is present AND the package is importable; the parquet lane is the
    # sandbox path (same schema, same downstream kernels)
    lance_path = f"{sf_dir}/documents.lance"
    if os.path.isdir(lance_path):
        try:
            import lance  # noqa: F401
        except ImportError as exc:
            raise RuntimeError(
                f"{lance_path} exists but the lance package is not installed"
            ) from exc
        ds = ray.data.read_lance(lance_path, columns=cols)
        return ds.map_batches(build_spans_batch_vec, batch_format="pyarrow")
    path = f"{sf_dir}/documents.parquet"
    if parallelism:
        ncpu = int(ray.cluster_resources().get("CPU", parallelism))
        nblocks = max(parallelism, 2 * ncpu)
        ds = ray.data.read_parquet(path, columns=cols, override_num_blocks=nblocks)
    else:
        ds = ray.data.read_parquet(path, columns=cols)
    return ds.map_batches(build_spans_batch_vec, batch_format="pyarrow")
