"""Kernel microbenchmarks and the validation floor probe.

They call public functions of the program in the driver process, on
fixed Arrow batches cut from the seeded corpus, so a per-row kernel
change shows here even where the pipeline's fixed costs hide it. Each
rate is rows over the median time of repeated calls.
"""

from __future__ import annotations

import glob
import os
import shutil
import statistics
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

KERNEL_DOCS = 2000
MIN_REPS = 5
MIN_SECONDS = 0.4
FLOOR_REPS = 3


def _median_time(fn, min_reps=MIN_REPS, min_seconds=MIN_SECONDS) -> float:
    times = []
    t_end = time.perf_counter() + min_seconds
    while len(times) < min_reps or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _documents(corpus_dir: str, n: int) -> pa.Table:
    path = f"{corpus_dir}/documents.parquet"
    files = sorted(glob.glob(f"{path}/*.parquet")) if os.path.isdir(path) else [path]
    cols = ["doc_id", "text", "lang", "source"]
    return pa.concat_tables(pq.read_table(f, columns=cols) for f in files).slice(0, n)


def _graph(triples: pa.Table):
    from shaclex_ray.validate.dist import LazyBucketGraph

    arcs = triples.select(
        ["subj", "pred", "obj_kind", "obj_lex", "obj_dt", "obj_lang"]
    ).append_column("rev", pa.array([False] * triples.num_rows))
    g = LazyBucketGraph()
    g.add_part(arcs)
    g.finalize()
    return g


def measure(corpus_dir: str, scratch_dir: str) -> dict:
    from shaclex_ray.pipelines.kg import kg_schema
    from shaclex_ray.sources.documents import build_spans_batch_vec
    from shaclex_ray.stages.extract import extract_triples_batch
    from shaclex_ray.terms import RDF_TYPE, term_key
    from shaclex_ray.validate.dist import flat_eval_kernel, flat_shacl_profile
    from shaclex_ray.validate.dist import stable_bucket_array

    docs = _documents(corpus_dir, KERNEL_DOCS)
    spans = build_spans_batch_vec(docs)
    triples = extract_triples_batch(spans)
    n = triples.num_rows
    out = {
        "documents.spans_rows_per_s": docs.num_rows
        / _median_time(lambda: build_spans_batch_vec(docs)),
        "extract.kernel_rows_per_s": spans.num_rows
        / _median_time(lambda: extract_triples_batch(spans)),
        "validation.bucket_rows_per_s": n
        / _median_time(lambda: stable_bucket_array(triples.column("subj"), 8)),
        "validation.finalize_rows_per_s": n / _median_time(lambda: _graph(triples)),
    }

    schema = kg_schema()
    doc_shape = "Ihttp://ex.org/DocumentShape"
    profile = flat_shacl_profile(schema)[doc_shape]
    graph = _graph(triples)
    is_doc = pc.equal(triples.column("obj_lex"), "http://ex.org/Document")
    focus = ["I" + s for s in pc.filter(triples.column("subj"), is_doc).to_pylist()]

    def is_instance(node_key: str, cls_key: str) -> bool:
        return any(
            p == RDF_TYPE and term_key(o) == cls_key
            for p, o in graph.arcs_out(node_key)
        )

    def evaluate():
        flat_eval_kernel(profile, focus, graph, {}, lambda _k: True, is_instance)

    out["validation.eval_rows_per_s"] = len(focus) / _median_time(evaluate)
    out["validation.fixed_s"] = _floor_probe(triples, schema, scratch_dir)
    return out


def _floor_probe(triples: pa.Table, schema: dict, scratch_dir: str) -> float:
    """Wall time of ``distributed_validate`` on the triples of a single
    document: what validation costs before any per-row work."""
    import ray.data as rd

    from shaclex_ray.validate.dist import distributed_validate

    first = triples.column("doc_id")[0].as_py()
    one = triples.filter(pc.equal(triples.column("doc_id"), first))
    src = os.path.join(scratch_dir, "floor_triples")
    os.makedirs(src, exist_ok=True)
    pq.write_table(one, os.path.join(src, "part-0.parquet"))
    walls = []
    for i in range(FLOOR_REPS):
        dst = os.path.join(scratch_dir, f"floor_out{i}")
        t0 = time.perf_counter()
        distributed_validate(
            rd.read_parquet(src), "shacl", schema, "shacl-targets",
            nbuckets=1, output_dir=dst, parquet_path=src,
        )
        walls.append(time.perf_counter() - t0)
        shutil.rmtree(dst, ignore_errors=True)
    shutil.rmtree(src, ignore_errors=True)
    return statistics.median(walls)
