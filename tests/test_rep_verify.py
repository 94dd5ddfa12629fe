"""Representative-based candidate verification (dedup._rep_expand_verify).

On a duplicate-heavy corpus — where an exact-dup cluster of size m makes
the LSH emit O(m^2) candidate pairs that all share one verdict — the rep
path must produce EXACTLY the direct payload-join path's rows, including
the identical-content (self) pairs, for both ngram-jaccard and
embedding-cosine. Also pins the partitioned placement of every join
(``exchange.BCAST_BYTES = 0``) against the same truth."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _collect(ds) -> pd.DataFrame:
    import ray

    t = pa.concat_tables([ray.get(r) for r in ds.materialize().to_arrow_refs()])
    df = t.to_pandas()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.fixture(scope="module")
def dup_corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("dupcorpus")
    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(60)]
    base = [" ".join(rng.choice(words, size=30)) for _ in range(12)]
    for i in range(4):  # strong near-dups of the first four (1 token edit)
        toks = base[i].split()
        toks[15] = "edited"
        base.append(" ".join(toks))
    ids, texts = [], []
    k = 0
    for j, t in enumerate(base):
        for _ in range(25 if j < 6 else 4):  # heavy + light dup groups
            ids.append(k)
            texts.append(t)
            k += 1
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)}),
        str(tmp / "documents.parquet"),
    )

    dim = 16
    vecs = rng.normal(size=(8, dim)).astype(np.float32)
    vecs[1] = vecs[0] + rng.normal(scale=1e-2, size=dim).astype(np.float32)
    vecs[7] = 0.0  # zero vector: self-pairs must NOT verify (cos = 0)
    vids, embs = [], []
    k = 0
    for j in range(8):
        for _ in range(20):
            vids.append(k)
            embs.append([float(x) for x in vecs[j]])
            k += 1
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(vids, pa.int64()),
                "embedding": pa.array(embs, pa.list_(pa.float32())),
            }
        ),
        str(tmp / "embeddings.parquet"),
    )
    return str(tmp)


def test_ngram_rep_path_equals_direct(dup_corpus, monkeypatch, ray_session):
    from shaclex_ray.functions import dedup
    from shaclex_ray.functions.dedup import ngram_jaccard_dups
    from shaclex_ray.stages import exchange

    monkeypatch.setattr(dedup, "REP_MIN_PAIRS", 1)  # past the small-set gate
    monkeypatch.setattr(dedup, "REP_DUP_RATIO", 0)  # rep path OFF
    direct = _collect(ngram_jaccard_dups(dup_corpus, threshold=0.6))
    monkeypatch.setattr(dedup, "REP_DUP_RATIO", 0.5)  # rep path ON (16/254)
    rep = _collect(ngram_jaccard_dups(dup_corpus, threshold=0.6))
    pd.testing.assert_frame_equal(rep, direct)
    # the corpus guarantees both pair kinds exist
    assert (direct["jaccard"] == 1.0).sum() > 100  # self (identical) pairs
    assert (direct["jaccard"] < 1.0).sum() >= 1  # cross-content near-dups

    monkeypatch.setattr(exchange, "BCAST_BYTES", 0)  # partitioned joins
    rep_join = _collect(ngram_jaccard_dups(dup_corpus, threshold=0.6))
    pd.testing.assert_frame_equal(rep_join, direct)


def test_embedding_rep_path_equals_direct(dup_corpus, monkeypatch, ray_session):
    from shaclex_ray.functions import dedup
    from shaclex_ray.functions.dedup import embedding_near_dups

    monkeypatch.setattr(dedup, "REP_MIN_PAIRS", 1)
    monkeypatch.setattr(dedup, "REP_DUP_RATIO", 0)
    direct = _collect(embedding_near_dups(dup_corpus, threshold=0.4))
    monkeypatch.setattr(dedup, "REP_DUP_RATIO", 0.5)
    rep = _collect(embedding_near_dups(dup_corpus, threshold=0.4))
    pd.testing.assert_frame_equal(rep, direct)
    assert len(direct) > 100  # identical-vector self pairs verified
    # zero vectors never pass (cos(0, 0) = 0 under the 1e-300 guard)
    zero_ids = set(range(140, 160))
    assert not (
        direct["vec_id_a"].isin(zero_ids) & direct["vec_id_b"].isin(zero_ids)
    ).any()
