"""Exact cosine ties in the ANN stages.

On mutually parallel embeddings every cosine is ±1 (or -1 by the zero-norm
policy), so each top-k cut falls inside a tie and only the ``ORDER BY cos
DESC, vec_id`` tie-break decides it. The engine's partial top-k and merge
must reproduce the DuckDB twins row for row: cosine is computed
dot-then-divide and clamped like ``list_cosine_similarity``, so the ties
are bitwise ties on both sides.
"""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tests.test_oracle_parity import _normalize, _to_pandas

DIM = 64
ROWS = 160  # > the kNN stage's 100 seeds


def _constant(i: int) -> list[float]:
    # [c]*64 with c in -4..8: exact norms, all cosines exactly ±1
    return [float((i * 7) % 13 - 4)] * DIM


def _parallel(i: int) -> list[float]:
    # c·(1, 2, 3, 0, ...) with c in -5..11: |u|² = 14 is not a square, so
    # normalize-then-dot drifts by an ulp where dot-then-divide ties
    u = [1.0, 2.0, 3.0] + [0.0] * (DIM - 3)
    c = float((i * 5) % 17 - 5)
    return [c * x for x in u]


def _two_directions(i: int) -> list[float]:
    # c·u on two directions, c in -5..11: every vector ties exactly with
    # the centroids on its ray, whose norms differ, so the IVF codebook
    # side (nearest-centroid list and probe order) ties only when it
    # divides after the dot product like list_cosine_similarity
    u = [1.0, 2.0, 3.0] if i % 2 else [2.0, -1.0, 5.0]
    c = float((i * 5) % 17 - 5)
    return [c * x for x in u] + [0.0] * (DIM - 3)


@pytest.fixture(
    scope="module",
    params=[_constant, _parallel, _two_directions],
    ids=["constant", "parallel", "two_directions"],
)
def tie_sf(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(f"ties_{request.param.__name__}")
    emb = [request.param(i) for i in range(ROWS)]
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(range(ROWS), pa.int64()),
                "embedding": pa.array(emb, pa.list_(pa.float32())),
                "label": pa.array([i % 4 for i in range(ROWS)], pa.int32()),
            }
        ),
        out / "embeddings.parquet",
    )
    return str(out)


@pytest.mark.parametrize(
    "name", ["ann_topk", "ann_lsh_topk", "ann_ivf_topk", "ann_knn_label"]
)
def test_exact_ties_match_twin(ray_session, tie_sf, name):
    import __ray_entry__ as e

    got = _normalize(_to_pandas(e.queries()[name](tie_sf)))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM read_parquet('{tie_sf}/embeddings.parquet')"
    )
    exp = _normalize(con.execute(e.oracle_sql()[name]).fetchdf())
    assert len(exp) > 0
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_cosine_ties_bitwise_like_duckdb():
    """``_cosine`` equals list_cosine_similarity bit for bit on parallel
    integer vectors, including the clamp above 1 and the zero rule."""
    from shaclex_ray.functions.ann import _cosine

    m = np.array([_parallel(i) for i in range(40)], np.float64)
    got = _cosine(m, m)
    con = duckdb.connect()
    rows = con.execute(
        "SELECT a.i, b.j, coalesce(list_cosine_similarity(a.v, b.v), -1.0) "
        "FROM (SELECT unnest(range(40)) AS i, unnest(?::DOUBLE[][]) AS v) a, "
        "(SELECT unnest(range(40)) AS j, unnest(?::DOUBLE[][]) AS v) b",
        [m.tolist(), m.tolist()],
    ).fetchall()
    exp = np.empty_like(got)
    for i, j, v in rows:
        exp[i, j] = v
    assert (got == exp).all()
