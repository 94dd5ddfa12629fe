"""Composed LLM-corpus curation pipeline — the training-data counterpart
of pipelines/kg.py: quality gates + repetition gate + fuzzy-dedup verdict
+ deterministic split (functions/curate.curate_corpus) → curated corpus
written hive-partitioned by split → train shard packed into fixed-capacity
sequences (functions/pack.pack_sequences).

Checkpointing mirrors the KG pipeline (state/checkpoint.StageRunner):
each stage writes parquet + a manifest whose digest covers the input
file identity, the engine revision and every knob — a failed run resumes
at the last finished stage, and a re-run after an engine upgrade or a
parameter change never reads stale shards. Output is partitioned
(``curated/split=train|valid|test``), so downstream consumers read only
the split they need and a 100-TB run restarts per partition directory,
never as one giant file.

Scale shape: the verdict join is the pipeline's single corpus-sized
exchange beyond what curate_corpus itself does (the dedup verdict is
global by nature); gates/split are batch-local, packing is the two-scan
ordered prefix-sum. Nothing materializes the corpus on the driver —
stage outputs stream to parquet under backpressure.
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from shaclex_ray.stages import exchange
from shaclex_ray.state.checkpoint import StageRunner


def _input_digest(sf_dir: str, knobs: str) -> str:
    import shaclex_ray as _pkg

    src = os.path.abspath(f"{sf_dir}/documents.parquet")
    st = os.stat(src)
    rev = hashlib.md5(
        f"{_pkg.__version__}|curation-v1".encode()
    ).hexdigest()[:12]
    return f"{src}|{st.st_mtime_ns}|{st.st_size}|{knobs}|rev={rev}"


def run_curation_pipeline(
    sf_dir: str,
    out_dir: str,
    capacity: int = 512,
    resume: bool = True,
    min_tokens: int = 20,
    max_tokens: int = 100_000,
    min_stop_pct: int = 2,
    max_rep_pct: int = 20,
    train: int = 90,
    valid: int = 5,
    substring_dedup: bool = False,
    substring_k: int = 8,
):
    """Checkpointed end-to-end curation run. Returns handles:
    ``{"curated": Dataset, "packed": Dataset, "kept": int, "chunks": int,
    "metrics": {...}}``.

    ``substring_dedup=True`` inserts a span-trim stage between curation
    and packing: duplicated k-token spans across the curated train shard
    are cut (functions/substr.trim_substring_spans) and the packed
    sequences are built from the trimmed text; fully-cut documents are
    dropped before packing."""
    from shaclex_ray.functions.curate import curate_corpus
    from shaclex_ray.functions.pack import pack_sequences

    runner = StageRunner(out_dir, resume=resume)
    knobs = (
        f"mt={min_tokens},{max_tokens}|sp={min_stop_pct}|rp={max_rep_pct}"
        f"|split={train},{valid}"
    )
    digest = _input_digest(sf_dir, knobs)

    def produce_curated(path):
        verdicts = curate_corpus(
            sf_dir,
            min_tokens=min_tokens,
            max_tokens=max_tokens,
            min_stop_pct=min_stop_pct,
            max_rep_pct=max_rep_pct,
            train=train,
            valid=valid,
        ).materialize()
        docs = rd.read_parquet(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "text", "lang", "source"],
        )
        joined = exchange.join(docs, verdicts, ["doc_id"])

        def kept_only(batch: pa.Table) -> pa.Table:
            kept = batch.filter(batch.column("keep"))
            return kept.select(
                ["doc_id", "text", "lang", "source", "split"]
            ).set_column(
                0,
                "doc_id",
                kept.column("doc_id").combine_chunks().cast(pa.int64()),
            )

        out = joined.map_batches(kept_only, batch_format="pyarrow")
        out.write_parquet(path, partition_cols=["split"])
        import glob

        total = 0
        for f in glob.glob(f"{path}/**/*.parquet", recursive=True):
            total += pq.read_metadata(f).num_rows
        return total

    curated = runner.run(
        "curated",
        digest,
        produce_curated,
        lambda p: rd.read_parquet(p),
    )

    pack_src = os.path.join(out_dir, "curated", "split=train")
    if substring_dedup:

        def produce_trimmed(path):
            from shaclex_ray.functions.substr import trim_substring_spans

            train_dir = os.path.join(out_dir, "curated", "split=train")
            if not os.path.isdir(train_dir):
                import pyarrow.parquet as _pq

                _pq.write_table(
                    pa.schema(
                        [
                            ("doc_id", pa.int64()),
                            ("text", pa.string()),
                            ("ntok", pa.int64()),
                            ("ntok_cut", pa.int64()),
                        ]
                    ).empty_table(),
                    os.path.join(path, "part-0.parquet"),
                )
                return 0
            def drop_empty(batch: pa.Table) -> pa.Table:
                import pyarrow.compute as _pc

                return batch.filter(_pc.greater(batch.column("ntok"), 0))

            trimmed = trim_substring_spans(
                docs_path=train_dir, k=substring_k
            ).map_batches(drop_empty, batch_format="pyarrow")
            trimmed.write_parquet(path)
            import glob

            import pyarrow.parquet as _pq

            return sum(
                _pq.read_metadata(f).num_rows
                for f in glob.glob(f"{path}/**/*.parquet", recursive=True)
            )

        runner.run(
            "trimmed",
            f"{digest}|ssk={substring_k}",
            produce_trimmed,
            lambda p: rd.read_parquet(p),
        )
        pack_src = os.path.join(out_dir, "trimmed")

    def produce_packed(path):
        import glob as _glob

        import pyarrow.parquet as _pq2

        train_dir = pack_src
        # n_in only gates the all-empty short-circuit, so stop at the
        # first non-empty footer instead of summing every part file
        n_in = 0
        if os.path.isdir(train_dir):
            for f in _glob.glob(f"{train_dir}/**/*.parquet", recursive=True):
                n_in = _pq2.read_metadata(f).num_rows
                if n_in:
                    break
        if n_in == 0:
            # nothing survived curation into train: an empty packed table
            import pyarrow.parquet as _pq

            _pq.write_table(
                pa.schema(
                    [
                        ("chunk_id", pa.int64()),
                        ("doc_id", pa.int64()),
                        ("begin_in_chunk", pa.int64()),
                        ("ntok_in_chunk", pa.int64()),
                    ]
                ).empty_table(),
                os.path.join(path, "part-0.parquet"),
            )
            return 0
        packed = pack_sequences(capacity=capacity, docs_path=train_dir)
        packed.write_parquet(path)
        import pyarrow.parquet as _pq

        import glob

        return sum(
            _pq.read_metadata(f).num_rows
            for f in glob.glob(f"{path}/**/*.parquet", recursive=True)
        )

    packed = runner.run(
        "packed",
        f"{digest}|cap={capacity}|ss={int(substring_dedup)}k{substring_k}",
        produce_packed,
        lambda p: rd.read_parquet(p),
    )

    n_chunks = runner.metrics.get("packed", {}).get("rows", 0)
    return {
        "curated": curated,
        "packed": packed,
        "kept": runner.metrics.get("curated", {}).get("rows", 0),
        "chunks": n_chunks,
        "metrics": runner.metrics,
    }
