"""End-to-end curation pipeline: verdict-consistency with curate_corpus,
hive-partitioned output, checkpoint resume, and pack equivalence."""

import glob
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"
OUT = "/tmp/test_curation_out"
REPO = pathlib.Path(__file__).resolve().parent.parent


def _curated_rows(ds) -> list:
    """Curated rows as sorted reprs of (doc_id, split, lang, source,
    md5(text))."""
    return sorted(
        repr((int(r.doc_id), r.split, r.lang, r.source,
              hashlib.md5((r.text or "").encode()).hexdigest()))
        for r in ds.to_pandas().itertuples()
    )


def _run(resume=True):
    from shaclex_ray.pipelines.curation import run_curation_pipeline

    return run_curation_pipeline(SF, OUT, capacity=128, resume=resume)


def test_curation_pipeline_end_to_end(ray_session):
    from shaclex_ray.functions.curate import curate_corpus

    shutil.rmtree(OUT, ignore_errors=True)
    out = _run()

    verdicts = curate_corpus(SF).to_pandas()
    kept = verdicts[verdicts.keep]
    assert out["kept"] == len(kept)

    # hive layout: one directory per split, only kept docs inside
    splits = sorted(
        os.path.basename(d)
        for d in glob.glob(f"{OUT}/curated/split=*")
        if os.path.isdir(d)
    )
    assert splits == sorted(
        "split=" + s for s in kept.split.unique()
    )
    cur = out["curated"].to_pandas()
    assert sorted(cur.doc_id) == sorted(kept.doc_id)
    # curated rows carry the original text columns
    assert {"doc_id", "text", "lang", "source"} <= set(cur.columns)

    # packed chunks cover exactly the kept-train token mass
    train_ids = set(kept[kept.split == "train"].doc_id)
    packed = out["packed"].to_pandas()
    assert set(packed.doc_id) <= train_ids
    docs = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    ntok = {
        r.doc_id: len(r.text.split(" "))
        for r in docs.itertuples()
        if r.doc_id in train_ids
    }
    got_tok = packed.groupby("doc_id").ntok_in_chunk.sum().to_dict()
    exp_tok = {k: v for k, v in ntok.items() if v > 0}
    assert got_tok == exp_tok


def test_curation_pipeline_resumes(ray_session):
    # both stage manifests exist from the previous test's run
    m1 = json.load(open(f"{OUT}/curated/_manifest.json"))
    out2 = _run()
    assert out2["metrics"]["curated"].get("resumed") is True
    assert out2["metrics"]["packed"].get("resumed") is True
    assert out2["metrics"]["curated"]["rows"] == m1["rows"]

    # a knob change invalidates only what it affects: capacity re-runs
    # the pack stage but resumes the curated stage
    from shaclex_ray.pipelines.curation import run_curation_pipeline

    out3 = run_curation_pipeline(SF, OUT, capacity=64)
    assert out3["metrics"]["curated"].get("resumed") is True
    assert out3["metrics"]["packed"].get("resumed") is None


def test_curation_pipeline_substring_dedup(ray_session):
    """--substring-dedup inserts the span-trim stage: packed sequences
    are built from span-trimmed text, and per-doc token mass equals the
    scalar-reference trim of the curated train shard."""
    import pandas as pd

    from shaclex_ray.pipelines.curation import run_curation_pipeline

    out_dir = "/tmp/test_curation_substr_out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out = run_curation_pipeline(
        SF, out_dir, capacity=128, substring_dedup=True, substring_k=8
    )
    assert os.path.isdir(f"{out_dir}/trimmed")
    trimmed = pd.concat(
        [
            pq.read_table(f).to_pandas()
            for f in glob.glob(f"{out_dir}/trimmed/**/*.parquet", recursive=True)
        ]
    )
    # scalar reference: recompute duplicated k-window spans over the
    # curated train shard and cut every covered token
    k = 8
    train = pd.concat(
        [
            pq.read_table(f).to_pandas()
            for f in glob.glob(
                f"{out_dir}/curated/split=train/**/*.parquet", recursive=True
            )
        ]
    )
    from collections import Counter

    counts: Counter = Counter()
    toks = {r.doc_id: r.text.split(" ") for r in train.itertuples()}
    for t in toks.values():
        for i in range(len(t) - k + 1):
            counts[" ".join(t[i : i + k])] += 1
    exp = {}
    for did, t in toks.items():
        cut = [False] * len(t)
        for i in range(len(t) - k + 1):
            if counts[" ".join(t[i : i + k])] >= 2:
                for j in range(i, i + k):
                    cut[j] = True
        kept = [w for w, c in zip(t, cut) if not c]
        exp[did] = (" ".join(kept), len(kept), len(t) - len(kept))
    got = {
        r.doc_id: (r.text, r.ntok, r.ntok_cut) for r in trimmed.itertuples()
    }
    assert got == {d: v for d, v in exp.items() if v[1] > 0}

    # packed token mass equals the trimmed shard's
    packed = out["packed"].to_pandas()
    got_tok = packed.groupby("doc_id").ntok_in_chunk.sum().to_dict()
    exp_tok = {
        r.doc_id: len(r.text.split(" "))
        for r in trimmed.itertuples()
        if r.ntok > 0
    }
    assert got_tok == exp_tok
    shutil.rmtree(out_dir, ignore_errors=True)


def test_curation_pipeline_finishes_at_one_cpu(ray_session, tmp_path):
    """A one-CPU Ray session runs the whole pipeline (every join is
    ``exchange.join``; Ray Data's hash-shuffle join never finished there)
    and curates exactly the rows of this four-CPU session."""
    import ray.data as rd

    from shaclex_ray.pipelines.curation import run_curation_pipeline

    one = tmp_path / "one"
    script = f"""
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False)
from shaclex_ray.pipelines.curation import run_curation_pipeline
run_curation_pipeline({SF!r}, {str(one)!r}, capacity=128)
"""
    p = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=300, cwd=REPO,
    )
    assert p.returncode == 0, p.stderr[-2000:]
    four = run_curation_pipeline(SF, str(tmp_path / "four"), capacity=128)
    got = _curated_rows(rd.read_parquet(str(one / "curated")))
    assert got == _curated_rows(four["curated"]) and len(got) > 0
