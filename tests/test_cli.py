"""CLI entry points (the reference's Main analog)."""

import subprocess
import sys

EX = "/root/reference/examples"


def _run(*args):
    return subprocess.run(
        [sys.executable, "-m", "shaclex_ray", *args],
        capture_output=True,
        text=True,
        timeout=180,
        cwd="/root/repo",
    )


def test_cli_validate_shex():
    p = _run(
        "validate",
        "--data", f"{EX}/shex/datatype.ttl",
        "--engine", "shex",
        "--schema", f"{EX}/shex/datatype.shex",
        "--shapemap", open(f"{EX}/shex/datatype.shapeMap").read(),
    )
    assert p.returncode == 0, p.stderr[-500:]
    assert "OK <http://example.org/good>" in p.stdout
    assert p.stdout.count("FAIL") == 5


def test_cli_infer_and_convert():
    p = _run("infer", "--data", f"{EX}/shex/datatype.ttl")
    assert p.returncode == 0, p.stderr[-500:]
    assert "<http://example.org/p>" in p.stdout

    p = _run("convert", "--schema", f"{EX}/shex/datatype.shex", "--to", "shacl")
    assert p.returncode == 0, p.stderr[-500:]
    assert "minCount" in p.stdout


def test_cli_query_subcommand(ray_session, capsys, tmp_path):
    from shaclex_ray.__main__ import main

    main(["query", "--list"])
    names = capsys.readouterr().out.split()
    assert "kg_triples" in names and "pack_sequences" in names

    main(
        [
            "query",
            "--name",
            "text_token_stats",
            "--sf-dir",
            "/root/testdata/sf0.001",
            "--limit",
            "3",
        ]
    )
    out = capsys.readouterr().out
    assert "n_tokens" in out

    out_dir = str(tmp_path / "q")
    main(
        [
            "query",
            "--name",
            "dedup_exact",
            "--sf-dir",
            "/root/testdata/sf0.001",
            "--out",
            out_dir,
        ]
    )
    import glob

    import pyarrow.parquet as pq

    rows = sum(
        pq.ParquetFile(f).metadata.num_rows for f in glob.glob(f"{out_dir}/*.parquet")
    )
    assert rows == 500


def test_cli_shextest_by_name(capsys, ray_session):
    from shaclex_ray.__main__ import main

    main(["shextest", "--name", "1dot_pass"])
    out = capsys.readouterr().out
    assert "1dot_pass-noOthers: pass" in out
    assert "'pass': 4" in out


def test_cli_pipelines_on_dirty_corpus(tmp_path, ray_session):
    """The checkpointed kg and curate CLI pipelines must complete (and
    resume identically) on a corpus with null text/lang/source, extreme
    ids, a 2MB token, and unicode — the dirty classes the query surface
    pins, exercised through canonicalize/link/validate/checkpoint."""
    import glob
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from tests.test_dirty_parity import poison_documents

    sf = tmp_path / "sf"
    sf.mkdir()
    for f in glob.glob("/root/testdata/sf0.001/*.parquet"):
        shutil.copy(f, sf)
    t = poison_documents(pq.read_table(sf / "documents.parquet"))
    pq.write_table(t, sf / "documents.parquet")

    from shaclex_ray.pipelines.curation import run_curation_pipeline
    from shaclex_ray.pipelines.kg import run_kg_pipeline

    def kg_counts(out):
        return (out["triples"].count(), out["links"].count(), out["report"].count())

    kg_out = str(tmp_path / "kg")
    # empty-text docs legitimately violate minCount — the validator's job
    assert kg_counts(run_kg_pipeline(str(sf), kg_out)) == (9381, 24, 6)
    # resume from checkpoints reproduces the same counts
    assert kg_counts(run_kg_pipeline(str(sf), kg_out)) == (9381, 24, 6)

    cur_out = str(tmp_path / "curate")
    r3 = run_curation_pipeline(str(sf), cur_out)
    assert (r3["kept"], r3["chunks"]) == (397, 390)
