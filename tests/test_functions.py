"""Training-data operator units: dedup family, ANN, text analysis,
multimodal plumbing (SURVEY.md §2 extensions)."""

import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def test_minhash_similarity_monotone():
    from shaclex_ray.functions.dedup import MinHasher

    mh = MinHasher(num_perm=64)
    a = "the quick brown fox jumps over the lazy dog " * 5
    b = a.replace("lazy", "sleepy")
    c = "completely different text about other things entirely " * 5
    sa, sb, sc = mh.signature(a), mh.signature(b), mh.signature(c)
    sim_ab = float(np.mean(sa == sb))
    sim_ac = float(np.mean(sa == sc))
    assert sim_ab > 0.25 > sim_ac  # true shingle jaccard(a,b) ≈ 0.42
    # deterministic across instances
    assert np.array_equal(MinHasher(num_perm=64).signature(a), sa)


def test_simhash_hamming():
    from shaclex_ray.functions.dedup import SimHasher

    sh = SimHasher()
    a = sh._simhash("alpha beta gamma delta epsilon zeta eta theta")
    b = sh._simhash("alpha beta gamma delta epsilon zeta eta iota")
    c = sh._simhash("one two three four five six seven eight")
    ham_ab = bin(a ^ b).count("1")
    ham_ac = bin(a ^ c).count("1")
    assert ham_ab < ham_ac


def test_exact_dedup_and_fingerprints(ray_session):
    from shaclex_ray.functions.dedup import exact_groups
    from shaclex_ray.functions.text import fingerprints, token_stats

    groups = exact_groups(SF).take_all()
    assert sum(g["n_dups"] for g in groups) == 500
    stats = {r["doc_id"]: r for r in token_stats(SF).take_all()}
    import pyarrow.parquet as pq

    texts = dict(
        zip(
            pq.read_table(f"{SF}/documents.parquet").column("doc_id").to_pylist(),
            pq.read_table(f"{SF}/documents.parquet").column("text").to_pylist(),
        )
    )
    for did in list(texts)[:20]:
        assert stats[did]["n_tokens"] == len(texts[did].split(" "))
        assert stats[did]["n_chars"] == len(texts[did])


def test_ann_topk_matches_numpy(ray_session):
    from shaclex_ray.functions.ann import topk_cosine

    got = topk_cosine(SF, n_queries=3, k=4).take_all()
    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/embeddings.parquet")
    ids = np.array(t.column("vec_id").to_pylist())
    emb = np.array(t.column("embedding").to_pylist(), dtype=np.float64)
    emb = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    for q in range(3):
        sims = emb @ emb[q]
        mask = ids != ids[q]
        order = np.lexsort((ids[mask], -sims[mask]))[:4]
        expect = list(ids[mask][order])
        mine = [r["vec_id"] for r in sorted(got, key=lambda r: (r["query_id"], r["rank"])) if r["query_id"] == ids[q]]
        assert mine == expect, q


def test_media_features_plumbing(ray_session):
    from shaclex_ray.functions.multimodal import MEDIA_FEATURES_DIM, media_features
    from shaclex_ray.sources.documents import read_documents

    feats = media_features(read_documents(SF)).take_all()
    assert len(feats) > 0
    row = feats[0]
    assert row["media_ref"].startswith("media://h/")
    assert len(row["features"]) == MEDIA_FEATURES_DIM
    # deterministic: same ref -> same features
    by_ref = {}
    for r in feats:
        key = r["media_ref"]
        if key in by_ref:
            assert list(by_ref[key]) == list(r["features"])
        by_ref[key] = r["features"]

    # decode_real behavior (raise-without-Pillow / real branch) is
    # covered by test_decode_real_requires_pillow / _with_pillow


def test_langid_runs(ray_session):
    from shaclex_ray.functions.text import langid

    rows = langid(SF).take_all()
    assert len(rows) == 500
    assert all(r["lang_pred"] in ("en", "fr", "es", "zh", "de") for r in rows)


def test_langid_end_to_end_scalar_parity(ray_session):
    """Full langid() pipeline (fit sample -> profiles -> vectorized
    predict) vs an INDEPENDENT per-char scalar reimplementation over the
    whole sf0.001 corpus — the no-oracle query's analog of the BPE
    property pins. Deterministic on both sides (fixed corpus, seed-free
    fit), so exact prediction equality is a stable assertion."""
    import numpy as np
    import pyarrow.parquet as pq

    from shaclex_ray.functions.text import langid

    tbl = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    # scalar fit — mirrors langid()'s driver-side sample loop exactly
    profiles: dict[str, dict[str, float]] = {}
    per_lang: dict[str, int] = {}
    for t, lang in zip(
        tbl.column("text").to_pylist()[:2000],
        tbl.column("lang").to_pylist()[:2000],
    ):
        t, lang = t or "", lang or ""
        if per_lang.get(lang, 0) >= 50:
            continue
        per_lang[lang] = per_lang.get(lang, 0) + 1
        p = profiles.setdefault(lang, {})
        for i in range(len(t) - 1):
            p[t[i : i + 2]] = p.get(t[i : i + 2], 0.0) + 1.0
    langs = sorted(profiles)
    grams = sorted({g for p in profiles.values() for g in p})
    gi = {g: i for i, g in enumerate(grams)}
    mat = np.zeros((len(langs), len(grams)))
    for li, lang in enumerate(langs):
        for g, w in profiles[lang].items():
            mat[li, gi[g]] = w
    mat = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-9)

    def predict(text: str) -> str:
        v = np.zeros(len(grams))
        for i in range(len(text) - 1):
            j = gi.get(text[i : i + 2])
            if j is not None:
                v[j] += 1.0
        v = v / max(np.linalg.norm(v), 1e-9)
        return langs[int(np.argmax(mat @ v))]

    got = {
        r["doc_id"]: r["lang_pred"] for r in langid(SF).take_all()
    }
    texts = tbl.column("text").to_pylist()
    ids = tbl.column("doc_id").to_pylist()
    mismatches = [
        (d, got[d], predict(t or ""))
        for d, t in zip(ids, texts)
        if got[d] != predict(t or "")
    ]
    assert not mismatches, mismatches[:5]


def test_langid_fit_read_is_bounded(tmp_path):
    """The fit sample must stream only the first 2000 rows: a directory
    corpus whose LATER part file is unreadable garbage must not be
    touched (the round-4 audit flagged a full-table driver read here)."""
    import pyarrow.parquet as pq

    from shaclex_ray.functions.text import _read_head

    d = tmp_path / "documents.parquet"
    d.mkdir()
    tbl = pa.table(
        {
            "doc_id": pa.array(range(1200), pa.int64()),
            "text": pa.array(["hello world"] * 1200),
            "lang": pa.array(["en"] * 1200),
        }
    )
    pq.write_table(tbl, d / "part-a.parquet")
    pq.write_table(tbl, d / "part-b.parquet")
    (d / "part-z.parquet").write_bytes(b"NOT A PARQUET FILE")
    head = _read_head(str(d), ["doc_id", "text", "lang"], 2000)
    assert head.num_rows == 2000
    assert head.column_names == ["doc_id", "text", "lang"]
    # spans both real parts: rows 1200.. come from part-b's ids restarting
    assert head.column("doc_id").to_pylist()[1200] == 0


def test_langid_fit_head_of_fileless_directory(tmp_path):
    """A part-file directory with ZERO parquet files (what write_parquet
    leaves for a row-less dataset) must yield a typed empty sample, not
    an IndexError on files[0]."""
    from shaclex_ray.functions.text import _read_head

    d = tmp_path / "documents.parquet"
    d.mkdir()
    head = _read_head(str(d), ["doc_id", "text", "lang"], 2000)
    assert head.num_rows == 0
    assert head.column_names == ["doc_id", "text", "lang"]


def test_decontaminate_join_regime_matches_broadcast(ray_session, monkeypatch):
    """Forcing the distributed hash-join regime (``BCAST_BYTES = 0``)
    must be row-identical to the broadcast regime — hit-ness per gram
    hash is partition-invariant."""
    from shaclex_ray.functions.curate import decontaminate
    from shaclex_ray.stages import exchange

    base = sorted(
        (r["doc_id"], r["n_grams"], r["n_hits"]) for r in decontaminate(SF).take_all()
    )
    monkeypatch.setattr(exchange, "BCAST_BYTES", 0)
    joined = sorted(
        (r["doc_id"], r["n_grams"], r["n_hits"]) for r in decontaminate(SF).take_all()
    )
    assert joined == base
    assert len(base) == 475


def test_decontaminate_join_regime_disjoint_vocab(
    ray_session, monkeypatch, tmp_path
):
    """Join regime over a corpus where NO train gram survives the Bloom
    prefilter: every train doc must still emit its (doc_id, n_grams, 0)
    row. Regression: the split task used to zero the per-doc n_grams
    rows whenever a whole group's occurrence list came back empty."""
    import pyarrow.parquet as pq

    from shaclex_ray.functions.curate import decontaminate
    from shaclex_ray.stages import exchange

    bench_text = "alpha beta gamma delta epsilon zeta eta theta"
    train_text = "one two three four five six seven eight nine"
    tbl = pa.table(
        {
            # doc_id 0 and 20 are bench (bench_mod=20); 1..5 are train
            "doc_id": pa.array([0, 20, 1, 2, 3, 4, 5], pa.int64()),
            "text": pa.array([bench_text, bench_text] + [train_text] * 5),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")
    base = sorted(
        (r["doc_id"], r["n_grams"], r["n_hits"])
        for r in decontaminate(str(tmp_path)).take_all()
    )
    # 9 tokens, shingle 5 -> 5 grams per train doc, zero hits
    assert base == [(i, 5, 0) for i in range(1, 6)]
    monkeypatch.setattr(exchange, "BCAST_BYTES", 0)
    joined = sorted(
        (r["doc_id"], r["n_grams"], r["n_hits"])
        for r in decontaminate(str(tmp_path)).take_all()
    )
    assert joined == base


def test_media_resize_and_frame_samples(ray_session):
    """Multimodal plumbing: resize keeps row count + adds typed dims;
    frame sampling explodes 1 -> n_frames rows; both deterministic."""
    from shaclex_ray.functions.multimodal import (
        media_frame_samples,
        media_refs_from_documents,
        media_resize,
    )
    from shaclex_ray.sources.documents import read_documents

    docs = read_documents("/root/testdata/sf0.001")
    n_media = media_refs_from_documents(docs).count()
    assert n_media > 0

    resized = media_resize(docs, width=32, height=32)
    rows = resized.take_all()
    assert len(rows) == n_media
    assert all(r["width"] == 32 and r["height"] == 32 for r in rows[:5])
    assert all(len(r["payload"]) == 32 * 32 // 16 for r in rows[:5])

    frames = media_frame_samples(docs, n_frames=3)
    fr = frames.take_all()
    assert len(fr) == n_media * 3
    assert sorted({r["frame_idx"] for r in fr}) == [0, 1, 2]
    # determinism: same ref+idx -> same frame bytes across runs
    fr2 = media_frame_samples(docs, n_frames=3).take_all()
    key = lambda r: (r["media_ref"], r["frame_idx"])  # noqa: E731
    assert {key(r): r["frame"] for r in fr} == {key(r): r["frame"] for r in fr2}


def test_ngram_jaccard_join_path_equals_broadcast(ray_session, monkeypatch):
    """The scale-path (partitioned-join) verification produces exactly
    the broadcast path's pairs."""
    from shaclex_ray.functions import dedup
    from shaclex_ray.functions.dedup import ngram_jaccard_dups
    from shaclex_ray.stages import exchange

    def rows(ds):
        return sorted(
            ((r["doc_a"], r["doc_b"], round(r["jaccard"], 12)) for r in ds.take_all())
        )

    bcast = rows(ngram_jaccard_dups(SF))
    monkeypatch.setattr(dedup, "REP_MIN_PAIRS", 0)
    monkeypatch.setattr(exchange, "BCAST_BYTES", 0)
    joined = rows(ngram_jaccard_dups(SF))
    assert bcast == joined
    assert len(bcast) > 0


def test_lsh_topk_indexed_equals_scan(ray_session, tmp_path):
    """Bucket-partitioned index path returns exactly the full-scan result,
    and reads only the partitions the query signatures hit."""
    import os

    from shaclex_ray.functions.ann import build_lsh_index, lsh_topk

    idx = build_lsh_index(SF, nbits=8, out_dir=str(tmp_path / "idx"))
    parts = [d for d in os.listdir(idx) if d.startswith("bucket_sig=")]
    assert len(parts) > 1  # genuinely partitioned, not one giant file

    def key(rows):
        return sorted((r["query_id"], r["rank"], r["vec_id"]) for r in rows)

    got = key(lsh_topk(SF, n_queries=5, k=4, use_index=True).take_all())
    exp = key(lsh_topk(SF, n_queries=5, k=4, use_index=False).take_all())
    assert got == exp and got


def test_ivf_topk_indexed_equals_scan(ray_session, tmp_path):
    """IVF inverted-file index path returns exactly the full-scan result,
    is genuinely partitioned, and recall against brute force is sane."""
    import os

    from shaclex_ray.functions.ann import build_ivf_index, ivf_topk, topk_cosine

    idx = build_ivf_index(SF, nlist=8, out_dir=str(tmp_path / "ivf"))
    parts = [d for d in os.listdir(idx) if d.startswith("list_id=")]
    assert len(parts) > 1

    def key(rows):
        return sorted((r["query_id"], r["rank"], r["vec_id"]) for r in rows)

    got = key(ivf_topk(SF, n_queries=5, k=4, nlist=8, use_index=True).take_all())
    exp = key(ivf_topk(SF, n_queries=5, k=4, nlist=8, use_index=False).take_all())
    assert got == exp and got
    # recall vs exact: probing half the lists should recover a decent
    # fraction of the true neighbors (sanity, not a tight bound)
    exact = {
        (r["query_id"], r["vec_id"])
        for r in topk_cosine(SF, n_queries=5, k=4).take_all()
    }
    approx = {(q, v) for q, _, v in got}
    assert len(approx & exact) / len(exact) >= 0.3


def test_ivf_recall_gate_sf01(ray_session):
    """Recall@k floor for ivf_topk at the default nprobe on the sf0.1
    embeddings — the quality gate the k-means codebook refinement landed
    without (VERDICT r4 item 6). Everything is seeded, so these recalls
    are exact reproducible numbers (0.52 sample / 0.62 kmeans at the
    time of pinning); the floors sit just below them to catch silent
    codebook or probe-selection regressions, not numerical jitter."""
    from shaclex_ray.functions.ann import ivf_topk, topk_cosine

    SF1 = "/root/testdata/sf0.1"
    NQ, K, NLIST = 20, 10, 16
    exact = {
        (r["query_id"], r["vec_id"])
        for r in topk_cosine(SF1, n_queries=NQ, k=K).take_all()
    }
    assert len(exact) == NQ * K

    def recall(codebook, nprobe):
        appr = {
            (r["query_id"], r["vec_id"])
            for r in ivf_topk(
                SF1, n_queries=NQ, k=K, nlist=NLIST, nprobe=nprobe,
                codebook=codebook, use_index=False,
            ).take_all()
        }
        return len(appr & exact) / len(exact)

    r_sample = recall("sample", 4)
    r_kmeans = recall("kmeans", 4)
    assert r_sample >= 0.45
    assert r_kmeans >= 0.55
    # the k-means refinement must not be worse than the raw sample codebook
    assert r_kmeans >= r_sample
    # probing every list degenerates to the exact scan
    assert recall("kmeans", NLIST) == 1.0


def test_decode_real_requires_pillow():
    """decode_real=True fails fast at actor construction when Pillow is
    absent (clear extras message), instead of being unreachable."""
    import importlib.util

    from shaclex_ray.functions.multimodal import (
        FrameSampler,
        MediaFeaturizer,
        MediaResizer,
    )

    if importlib.util.find_spec("PIL") is not None:
        pytest.skip("Pillow installed; covered by test_decode_real_with_pillow")
    for cls in (MediaFeaturizer, MediaResizer, FrameSampler):
        with pytest.raises(NotImplementedError, match="Pillow"):
            cls(decode_real=True)


def test_decode_real_with_pillow():
    """Real Pillow branch: decode → features / resize / frame-sample over
    an in-memory PNG+GIF. Runs only where the extra is installed."""
    pytest.importorskip("PIL")
    import io

    import pyarrow as pa
    from PIL import Image

    from shaclex_ray.functions.multimodal import (
        MEDIA_FEATURES_DIM,
        FrameSampler,
        MediaFeaturizer,
        MediaResizer,
    )

    png = io.BytesIO()
    Image.new("RGB", (10, 6), (255, 0, 0)).save(png, format="PNG")
    gif = io.BytesIO()
    frames = [Image.new("RGB", (4, 4), (i * 30, 0, 0)) for i in range(6)]
    frames[0].save(gif, format="GIF", save_all=True, append_images=frames[1:])
    batch = pa.table(
        {
            "media_ref": ["m/red.png", "m/anim.gif"],
            "doc_id": ["d1", "d2"],
            "payload": pa.array([png.getvalue(), gif.getvalue()], pa.binary()),
        }
    )
    feats = MediaFeaturizer(decode_real=True)(batch)
    vec = feats.column("features")[0].as_py()
    assert len(vec) == MEDIA_FEATURES_DIM
    assert vec[0] > 0.9 and vec[1] < 0.1  # red-channel mean high, green low

    resized = MediaResizer(width=3, height=2, decode_real=True)(batch)
    out = Image.open(io.BytesIO(resized.column("payload")[0].as_py()))
    assert out.size == (3, 2)

    sampled = FrameSampler(n_frames=3, decode_real=True)(batch)
    assert sampled.num_rows == 6  # 2 payloads × 3 frames
    f0 = Image.open(io.BytesIO(sampled.column("frame")[0].as_py()))
    assert f0.size == (10, 6)


def test_embedding_near_dups_join_equals_broadcast(ray_session, monkeypatch):
    """Embedding near-dup: the scale (two partitioned joins) verify path
    returns exactly the broadcast path's pairs. At sf0.001 the banded
    hyperplane LSH yields a small deterministic candidate set."""
    from shaclex_ray.functions import dedup
    from shaclex_ray.functions.dedup import embedding_near_dups
    from shaclex_ray.stages import exchange

    def rows(ds):
        return sorted((r["vec_id_a"], r["vec_id_b"]) for r in ds.take_all())

    bcast = rows(embedding_near_dups(SF, threshold=0.3))
    monkeypatch.setattr(dedup, "REP_MIN_PAIRS", 0)
    monkeypatch.setattr(exchange, "BCAST_BYTES", 0)
    joined = rows(embedding_near_dups(SF, threshold=0.3))
    assert bcast == joined
    assert all(a < b for a, b in bcast)
    assert len(bcast) == len(set(bcast))


def test_langid_vectorized_parity():
    """The batched numpy bigram path must equal the per-char definition
    exactly (incl. astral-plane codepoints and doc-boundary pairs)."""
    import numpy as np

    from shaclex_ray.functions.text import LangID

    profiles = {
        "en": {"th": 5.0, "he": 4.0, "an": 2.0, " t": 1.0},
        "es": {"el": 5.0, "la": 4.0, "qu": 3.0, "ue": 2.0},
        "zz": {"éé": 2.0, "\U0001F600a": 1.0},
    }
    m = LangID(profiles)
    gram_index = {
        g: i
        for i, g in enumerate(sorted({g for p in profiles.values() for g in p}))
    }

    def ref_vec(text):
        v = np.zeros(m.mat.shape[1])
        for i in range(len(text) - 1):
            j = gram_index.get(text[i : i + 2])
            if j is not None:
                v[j] += 1.0
        n = np.linalg.norm(v)
        return v / n if n > 0 else v

    texts = ["the theme", "el que la ue", "", "a", "ééé",
             "\U0001F600a\U0001F600a", "xyz", "the el"]
    vecs = m._batch_vectors(texts)
    for t, v in zip(texts, vecs):
        assert np.allclose(v, ref_vec(t)), repr(t)
    # a bigram must never straddle two documents
    m2 = LangID({"a": {"xt": 1.0}, "b": {"zz": 1.0}})
    assert np.allclose(m2._batch_vectors(["yx", "ty"]), 0.0)


def test_term_stats_and_repetition(ray_session):
    """term_stats tf/df and the repetition bigram profile vs a pure-Python
    reference over the sf0.001 corpus."""
    from collections import Counter

    import pyarrow.parquet as pq

    from shaclex_ray.functions.text import repetition, term_stats

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    texts = dict(zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist()))

    tf, df = Counter(), Counter()
    for text in texts.values():
        toks = text.split(" ")
        tf.update(toks)
        df.update(set(toks))
    got = {r["term"]: (r["tf"], r["df"]) for r in term_stats(SF).take_all()}
    assert got == {term: (tf[term], df[term]) for term in tf}

    rep = {r["doc_id"]: r for r in repetition(SF).take_all()}
    assert set(rep) == set(texts)
    for did in list(texts)[:25]:
        toks = texts[did].split(" ")
        bigrams = Counter(zip(toks, toks[1:]))
        r = rep[did]
        assert r["n_bigrams"] == sum(bigrams.values())
        assert r["n_distinct_bigrams"] == len(bigrams)
        assert r["top_bigram_count"] == (max(bigrams.values()) if bigrams else 0)


def test_curate_operators(ray_session):
    """split/decontaminate/top_terms vs a pure-Python reference at sf0.001."""
    import hashlib
    from collections import Counter

    import pyarrow.parquet as pq

    from shaclex_ray.functions.curate import decontaminate, split_assign, top_terms

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    texts = dict(zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist()))

    # split assignment: deterministic md5 bucket, exact fractions semantics
    got = {r["doc_id"]: (r["bucket"], r["split"]) for r in split_assign(SF).take_all()}
    for did in texts:
        b = int.from_bytes(
            hashlib.md5(f"{did}:split".encode()).digest()[8:], "little"
        ) % 100
        assert got[did] == (b, "train" if b < 90 else "valid" if b < 95 else "test")

    # decontamination: benchmark = doc_id % 20 == 0, 5-gram occurrence hits
    def grams(text, n=5):
        toks = text.split(" ")
        if len(toks) < n:
            return [text]
        return [" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)]

    bench = {g for did, tx in texts.items() if did % 20 == 0 for g in grams(tx)}
    rows = {r["doc_id"]: r for r in decontaminate(SF).take_all()}
    assert set(rows) == {d for d in texts if d % 20 != 0}
    for did, r in list(rows.items())[:40]:
        gs = grams(texts[did])
        assert r["n_grams"] == len(gs)
        assert r["n_hits"] == sum(g in bench for g in gs)

    # top terms: rank by (tf desc, df asc, term asc), k=3
    df = Counter()
    for tx in texts.values():
        df.update(set(tx.split(" ")))
    out = {}
    for r in top_terms(SF).take_all():
        out.setdefault(r["doc_id"], []).append(r)
    for did in list(texts)[:40]:
        tf = Counter(texts[did].split(" "))
        want = sorted(tf, key=lambda w: (-tf[w], df[w], w))[:3]
        rows_d = sorted(out[did], key=lambda r: r["rank"])
        assert [r["term"] for r in rows_d] == want
        assert all(r["tf"] == tf[r["term"]] and r["df"] == df[r["term"]] for r in rows_d)


def test_dedup_clusters(ray_session):
    """Cluster resolution vs a union-find over the verified pair set; the
    representative must be the numeric component minimum and keep must
    mark exactly the representatives."""
    from shaclex_ray.functions.dedup import dedup_clusters, ngram_jaccard_dups

    pairs = [(r["doc_a"], r["doc_b"]) for r in ngram_jaccard_dups(SF).take_all()]
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    rows = dedup_clusters(SF).take_all()
    assert len(rows) == 500 and len({r["doc_id"] for r in rows}) == 500
    for r in rows:
        want = find(r["doc_id"]) if r["doc_id"] in parent else r["doc_id"]
        assert r["cluster"] == want
        assert r["keep"] == (r["doc_id"] == r["cluster"])
    assert sum(1 for r in rows if not r["keep"]) > 0  # corpus has real dups

    # degenerate path: a threshold above 1.0 yields no pairs -> all keep
    singletons = dedup_clusters(SF, threshold=1.01).take_all()
    assert len(singletons) == 500
    assert all(r["keep"] and r["cluster"] == r["doc_id"] for r in singletons)


def test_dedup_clusters_regimes_equal(ray_session, monkeypatch):
    """Driver union-find and distributed CC regimes produce identical rows
    (``CC_DIST_PAIRS = 0`` forces the distributed one)."""
    from shaclex_ray.functions import dedup
    from shaclex_ray.functions.dedup import dedup_clusters

    broadcast = sorted(
        (r["doc_id"], r["cluster"], r["keep"])
        for r in dedup_clusters(SF).take_all()
    )
    monkeypatch.setattr(dedup, "CC_DIST_PAIRS", 0)
    dist = sorted(
        (r["doc_id"], r["cluster"], r["keep"])
        for r in dedup_clusters(SF).take_all()
    )
    assert broadcast == dist


def test_lm_perplexity_matches_python_reference(ray_session):
    """Add-one-smoothed bigram perplexity vs a pure-Python scorer at
    sf0.001 (floats — pinned here instead of the DuckDB oracle, whose
    aggregate reorders the sum)."""
    import math
    from collections import Counter

    import pyarrow.parquet as pq

    from shaclex_ray.functions.lm import lm_perplexity

    got = lm_perplexity(SF).to_pandas().set_index("doc_id").sort_index()
    t = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    bg, uni = Counter(), Counter()
    for txt in t[t.doc_id % 10 == 0].text:
        ws = txt.split(" ")
        uni.update(ws)
        bg.update(f"{a} {b}" for a, b in zip(ws, ws[1:]))
    vocab = len(uni)
    scored = t[t.doc_id % 10 != 0]
    assert len(got) == len(scored)
    for _, row in scored.iterrows():
        ws = row.text.split(" ")
        pairs = list(zip(ws, ws[1:]))
        gotv = got.loc[row.doc_id, "ppl"]
        if not pairs:
            assert math.isnan(gotv)
            continue
        s = sum(
            math.log((bg.get(f"{a} {b}", 0) + 1) / (uni.get(a, 0) + vocab))
            for a, b in pairs
        )
        exp = math.exp(-s / len(pairs))
        assert abs(gotv - exp) <= 1e-9 * max(1.0, abs(exp))


def test_kmeans_codebook_matches_numpy_reference(ray_session):
    """Distributed spherical k-means vs a single-process numpy run with
    the same init and update rule (allclose: partial-sum order differs)."""
    import numpy as np
    import pyarrow.parquet as pq

    from shaclex_ray.functions.ann import (
        _ivf_assign,
        _list_to_matrix,
        ivf_centroids,
        kmeans_codebook,
    )

    nlist, iters = 8, 4
    got = kmeans_codebook(SF, nlist=nlist, iters=iters)

    _, cm = ivf_centroids(SF, nlist)
    emb = _list_to_matrix(
        pq.read_table(f"{SF}/embeddings.parquet", columns=["embedding"]).column(
            "embedding"
        )
    )
    embn = emb / np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-12)
    ref = cm.copy()
    prev_dist = None
    for _ in range(iters):
        lid = np.argmax(embn @ ref.T, axis=1)
        new = ref.copy()
        for c in range(nlist):
            m = lid == c
            if m.any():
                s = embn[m].sum(axis=0)
                new[c] = s / max(np.linalg.norm(s), 1e-12)
        ref = new
        dist = float((1.0 - (embn * ref[np.argmax(embn @ ref.T, axis=1)]).sum(axis=1)).mean())
        assert prev_dist is None or dist <= prev_dist + 1e-9
        prev_dist = dist
    assert np.allclose(got, ref, atol=1e-9)
    # identical assignments under both centroid sets
    assert (_ivf_assign(emb, got) == _ivf_assign(emb, ref)).all()


def test_ivf_topk_kmeans_index_parity(ray_session):
    """ivf_topk with the k-means codebook: partition-pruned index path
    equals the full-scan fallback row-for-row."""
    from shaclex_ray.functions.ann import ivf_topk

    def rows(ds):
        return sorted(
            (r["query_id"], r["vec_id"], r["rank"]) for r in ds.take_all()
        )

    a = rows(ivf_topk(SF, use_index=True, codebook="kmeans"))
    b = rows(ivf_topk(SF, use_index=False, codebook="kmeans"))
    assert a == b and len(a) > 0


def test_bloom_prefilter_has_no_false_negatives():
    """The decon join regime's row-identity guarantee rests on the Bloom
    prefilter never dropping a true member: every train hash that IS in
    the bench set must survive _bloom_test over a bitmap built from the
    bench side (false positives are fine — the per-bucket exact probe
    removes them)."""
    import numpy as np

    from shaclex_ray.functions.curate import (
        _bloom_test,
        _decon_bloom_or,
        _decon_bloom_part,
    )
    import pyarrow as pa

    rng = np.random.default_rng(7)
    m_bits = 1 << 16
    for trial in range(5):
        bench = rng.integers(0, 2**63, size=rng.integers(1, 5000), dtype=np.uint64)
        train = np.concatenate(
            [
                rng.choice(bench, size=min(len(bench), 500)),
                rng.integers(0, 2**63, size=3000, dtype=np.uint64),
            ]
        )
        # build the bitmap the way the pipeline does: partial bitmaps over
        # table shards, OR-reduced
        mid = len(bench) // 2
        parts = [
            _decon_bloom_part(m_bits, pa.table({"h": pa.array(chunk, pa.uint64())}))
            for chunk in (bench[:mid], bench[mid:])
        ]
        bloom = _decon_bloom_or(*parts)
        keep = _bloom_test(bloom, train, m_bits)
        members = np.isin(train, bench)
        assert keep[members].all(), "Bloom dropped a true member"
    # degenerate inputs
    assert _bloom_test(bloom, np.array([], np.uint64), m_bits).shape == (0,)
    empty = _decon_bloom_part(m_bits, pa.table({"h": pa.array([], pa.uint64())}))
    assert not empty.any()


def test_embedding_null_policy_kernels():
    """Kernel edges of the null-embedding policy: an ALL-null block with a
    caller dim yields zero rows of that width; null elements read 0.0;
    empty lists read as the zero vector; _emb_dim skips null first rows."""
    from shaclex_ray.functions.ann import _list_to_matrix

    allnull = pa.array([None, None], pa.list_(pa.float32()))
    m = _list_to_matrix(allnull, 4)
    assert m.shape == (2, 4) and (m == 0).all()
    mixed = pa.array([[1.0, None, 3.0], None, []], pa.list_(pa.float32()))
    m = _list_to_matrix(mixed, 3)
    assert m.shape == (3, 3)
    assert m[0].tolist() == [1.0, 0.0, 3.0]
    assert (m[1] == 0).all() and (m[2] == 0).all()


def test_emb_dim_skips_null_first_rows(tmp_path):
    import pyarrow.parquet as pq

    from shaclex_ray.functions.ann import _emb_dim

    t = pa.table(
        {
            "vec_id": pa.array([0, 1, 2], pa.int64()),
            "embedding": pa.array([None, None, [1.0, 2.0, 3.0]], pa.list_(pa.float32())),
        }
    )
    pq.write_table(t, tmp_path / "embeddings.parquet")
    assert _emb_dim(str(tmp_path)) == 3
