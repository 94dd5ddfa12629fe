"""Per-partition checkpointing (state/checkpoint.py run_partitioned).

Pins: (1) the partitioned extract produces EXACTLY the streaming
extract's rows; (2) a run that lost one partition (data + manifest) and
the stage manifest re-runs ONLY that partition; (3) a digest change
invalidates every partition; (4) data without a manifest is re-run;
(5) a partition that raises fails its stage, and the re-run resumes the
others.
"""

import json
import os
import shutil

import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), ignore_index=True)


@pytest.fixture()
def out_dir(tmp_path):
    d = str(tmp_path / "ckpt")
    yield d
    shutil.rmtree(d, ignore_errors=True)


def _run_raw(out_dir, digest="d1"):
    from shaclex_ray.sources.documents import document_partitions
    from shaclex_ray.stages.extract import extract_partition
    from shaclex_ray.state.checkpoint import StageRunner, read_parts

    runner = StageRunner(out_dir)
    path = runner.run_partitioned(
        "triples_raw",
        digest,
        document_partitions(SF, want=6),
        extract_partition,
    )
    return runner, read_parts(path)


def test_partitioned_equals_streaming(ray_session, out_dir):
    from shaclex_ray.sources.documents import read_documents
    from shaclex_ray.stages.extract import extract_triples

    _, ds = _run_raw(out_dir)
    want = _norm(extract_triples(read_documents(SF)).to_pandas())
    got = _norm(ds.to_pandas())
    pd.testing.assert_frame_equal(got, want)


def test_partition_level_resume(ray_session, out_dir):
    runner, ds = _run_raw(out_dir)
    n0 = ds.count()
    stage = f"{out_dir}/triples_raw"
    parts_dir = stage + ".parts"
    pids = sorted(f[:-5] for f in os.listdir(parts_dir) if f.endswith(".json"))
    assert len(pids) >= 4
    victim = pids[2]
    # simulate a crash that lost one partition mid-write
    os.remove(f"{parts_dir}/{victim}.json")
    os.remove(f"{stage}/part-{victim}.parquet")
    os.remove(f"{stage}/_manifest.json")
    mtimes = {
        pid: os.path.getmtime(f"{parts_dir}/{pid}.json")
        for pid in pids
        if pid != victim
    }
    runner2, ds2 = _run_raw(out_dir)
    assert ds2.count() == n0
    m = runner2.metrics["triples_raw"]
    assert m["parts_resumed"] == len(pids) - 1
    # the survivors were NOT rewritten
    for pid, t in mtimes.items():
        assert os.path.getmtime(f"{parts_dir}/{pid}.json") == t
    assert os.path.exists(f"{parts_dir}/{victim}.json")


def test_unmanifested_data_is_rerun(ray_session, out_dir):
    runner, ds = _run_raw(out_dir)
    n0 = ds.count()
    stage = f"{out_dir}/triples_raw"
    parts_dir = stage + ".parts"
    pids = sorted(f[:-5] for f in os.listdir(parts_dir) if f.endswith(".json"))
    victim = pids[0]
    # manifest lost but renamed data present: unverifiable → re-run,
    # and the orphan data must not double-count
    os.remove(f"{parts_dir}/{victim}.json")
    os.remove(f"{stage}/_manifest.json")
    _, ds2 = _run_raw(out_dir)
    assert ds2.count() == n0


def test_digest_change_invalidates_all(ray_session, out_dir):
    _run_raw(out_dir, digest="d1")
    runner2, ds2 = _run_raw(out_dir, digest="d2")
    m = runner2.metrics["triples_raw"]
    assert m["parts_resumed"] == 0
    assert m["digest"] == "d2"
    # every partition manifest carries lineage + the new digest
    parts_dir = f"{out_dir}/triples_raw.parts"
    for f in os.listdir(parts_dir):
        pm = json.load(open(f"{parts_dir}/{f}"))
        assert pm["digest"] == "d2"
        assert pm["file"].endswith("documents.parquet")
        assert pm["rows"] > 0 and pm["wall_sec"] >= 0 and "rgs" in pm


def test_failing_partition_fails_the_stage(ray_session, out_dir, tmp_path):
    """A ``produce_part`` that raises on one partition makes
    ``run_partitioned`` raise that error and write no stage manifest; a
    re-run with a working ``produce_part`` resumes the other partitions
    and gives the rows of a clean run."""
    from shaclex_ray.sources.documents import document_partitions
    from shaclex_ray.stages.extract import extract_partition
    from shaclex_ray.state.checkpoint import StageRunner

    parts = document_partitions(SF, want=6)
    victim = parts[2]["pid"]

    def failing(part):
        if part["pid"] == victim:
            raise ValueError(f"partition {victim} failed")
        return extract_partition(part)

    with pytest.raises(ValueError, match=f"partition {victim} failed"):
        StageRunner(out_dir).run_partitioned("triples_raw", "d1", parts, failing)
    assert not os.path.exists(f"{out_dir}/triples_raw/_manifest.json")
    runner, ds = _run_raw(out_dir)
    assert runner.metrics["triples_raw"]["parts_resumed"] == len(parts) - 1
    _, clean = _run_raw(str(tmp_path / "clean"))
    pd.testing.assert_frame_equal(_norm(ds.to_pandas()), _norm(clean.to_pandas()))


def test_lance_lane_gated(ray_session, tmp_path):
    """A documents.lance dataset routes to the Lance reader; without the
    lance package that is a clear fail-fast, never a silent parquet read."""
    import shutil

    import pytest as _pytest

    from shaclex_ray.sources.documents import read_documents

    sf = tmp_path / "sf"
    sf.mkdir()
    shutil.copy(f"{SF}/documents.parquet", sf / "documents.parquet")
    (sf / "documents.lance").mkdir()
    try:
        import lance  # noqa: F401

        _pytest.skip("lance installed; gate branch not reachable")
    except ImportError:
        pass
    with _pytest.raises(RuntimeError, match="lance package is not installed"):
        read_documents(str(sf))
    # parquet lane untouched
    (sf / "documents.lance").rmdir()
    assert read_documents(str(sf)).count() == 500


def test_stage_outputs_read_on_first_access(tmp_path, monkeypatch):
    """``StageOutputs`` answers ``in``, ``keys()``, ``len`` and ``get`` of
    a missing key without reading; a stage key reads its directory once
    (``read_parts``) and caches the Dataset; the mapping is read-only."""
    from shaclex_ray.state import checkpoint

    reads = []
    monkeypatch.setattr(checkpoint, "read_parts", lambda p: reads.append(p) or object())
    out = checkpoint.StageOutputs({"metrics": {"s": {}}}, {"s": str(tmp_path)})
    assert "s" in out and "metrics" in out and "x" not in out
    assert list(out) == ["metrics", "s"] and len(out) == 2
    assert out.get("x") is None and reads == []
    assert out["metrics"] == {"s": {}} and reads == []
    assert out["s"] is out["s"] and reads == [str(tmp_path)]
    with pytest.raises(KeyError):
        out["x"]
    with pytest.raises(TypeError):
        out["s"] = 1
