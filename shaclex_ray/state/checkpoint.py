"""Per-stage and per-PARTITION checkpoint manifests + stage metrics
(SURVEY.md §4.2: "resumable output layout"; north rule: "resumable from
per-partition checkpoints with per-partition lineage + metrics").

Each pipeline stage writes its output as a parquet directory
``<out_dir>/<stage>/`` plus ``<out_dir>/<stage>/_manifest.json`` recording
an input digest, row count and wall time. On resume, a stage whose
manifest matches the input digest is skipped and its parquet is read back.

Scan-shaped stages (embarrassingly parallel over input shards — no
shuffle) additionally checkpoint per partition via ``run_partitioned``:
one plain Ray task per partition writes its own parquet shard (tmp +
atomic rename) and a lineage manifest ``<stage>.parts/<pid>.json``
recording the input file / row-group range / row slice, output rows and
wall. A re-run after
a mid-stage failure re-executes ONLY the partitions without a matching
manifest — at 100 TB a stage that died at 90% restarts at 90%, not 0%.
Shuffle stages (the link and dedup exchanges, whose bucket tasks write
their parts through ``exchange.sink``, and the validation fixpoint) stay
stage-granular: an all-to-all either finished or it didn't.

Lineage columns (doc_id, span_idx) persist in the triple tables, so any
output row can be traced to its source rows; the partition manifests
trace every output SHARD to its input byte range.
"""

from __future__ import annotations

import json
import os
import time
import uuid

import ray


def ensure_parquet_schema(path: str, schema) -> None:
    """Guarantee ``path`` (a stage-output directory) contains at least one
    parquet file carrying ``schema``. An all-empty stage writes ZERO part
    files (both Ray's ``write_parquet`` and the partitioned writer skip
    row-less outputs), and a later column-pruned ``read_parquet`` of the
    directory then fails schema inference. Idempotent; never touches a
    directory that already has data files."""
    import glob

    import pyarrow.parquet as pq

    if glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True):
        return
    os.makedirs(path, exist_ok=True)
    pq.write_table(schema.empty_table(), os.path.join(path, "part-empty.parquet"))


def _run_part(produce_part, part: dict, digest: str, path: str,
              parts_dir: str, tmp_dir: str) -> int:
    """One partition of ``StageRunner.run_partitioned``: stream
    ``produce_part(part)`` into ``<path>/part-<pid>.parquet`` via tmp +
    atomic rename, then record its lineage manifest. Returns its rows."""
    import pyarrow.parquet as pq

    pt0 = time.perf_counter()
    tmp = os.path.join(tmp_dir, f"{part['pid']}-{uuid.uuid4().hex}.parquet")
    writer = None
    rows = 0
    try:
        for tbl in produce_part(part):
            if writer is None:
                writer = pq.ParquetWriter(tmp, tbl.schema)
            writer.write_table(tbl)
            rows += tbl.num_rows
    finally:
        if writer is not None:
            writer.close()
    nbytes = 0
    if writer is not None:
        nbytes = os.path.getsize(tmp)
        os.replace(tmp, os.path.join(path, f"part-{part['pid']}.parquet"))
    manifest = dict(part)
    manifest.update(
        {
            "digest": digest,
            "rows": rows,
            "out_bytes": nbytes,
            "wall_sec": time.perf_counter() - pt0,
        }
    )
    mtmp = os.path.join(tmp_dir, f"{part['pid']}-m.json")
    with open(mtmp, "w") as f:
        json.dump(manifest, f)
    os.replace(mtmp, os.path.join(parts_dir, f"{part['pid']}.json"))
    return rows


_run_part_remote = ray.remote(_run_part)


class StageRunner:
    def __init__(self, out_dir: str, resume: bool = True):
        self.out_dir = out_dir
        self.resume = resume
        self.metrics: dict[str, dict] = {}
        os.makedirs(out_dir, exist_ok=True)

    def _manifest_path(self, stage: str) -> str:
        return os.path.join(self.out_dir, stage, "_manifest.json")

    def _resumed(self, stage: str, digest: str) -> bool:
        """Whether ``stage`` already finished for ``digest`` (and resuming
        is on); its manifest then becomes its metrics. The manifest is
        written last (``_finish``), so a finished stage has its parts."""
        try:
            manifest = json.load(open(self._manifest_path(stage)))
        except (OSError, ValueError):
            return False
        if not (self.resume and manifest.get("digest") == digest):
            return False
        self.metrics[stage] = dict(manifest, resumed=True)
        return True

    def _finish(self, manifest: dict) -> None:
        """Write a finished stage's ``manifest`` last; it is the metrics."""
        with open(self._manifest_path(manifest["stage"]), "w") as f:
            json.dump(manifest, f)
        self.metrics[manifest["stage"]] = manifest

    def run(self, stage: str, digest: str, produce, read_back):
        """``produce(path)`` writes the stage output (a typed empty part
        when it has no rows, so pruned read-backs never hit a file-less
        directory) and returns its row count; ``read_back(path)`` loads it.
        Completed stages are skipped."""
        path = os.path.join(self.out_dir, stage)
        if not self._resumed(stage, digest):
            # stale or partial output (digest mismatch / interrupted run)
            # must not mix with the fresh write — clear the stage dir first
            import shutil

            shutil.rmtree(path, ignore_errors=True)
            os.makedirs(path, exist_ok=True)
            t0 = time.perf_counter()
            rows = produce(path)
            manifest = {"stage": stage, "digest": digest, "rows": rows,
                        "wall_sec": time.perf_counter() - t0}
            self._finish(manifest)
        return read_back(path)

    def run_partitioned(
        self,
        stage: str,
        digest: str,
        parts: list[dict],
        produce_part,
        read_back,
        empty_schema=None,
    ):
        """Partition-granular resumable scan stage.

        ``parts``: descriptors, each with a unique ``"pid"`` string (plus
        whatever ``produce_part`` needs). ``produce_part(part)`` runs in
        one plain Ray task per pending partition (``_run_part``) and
        yields ``pyarrow.Table`` chunks for that partition; the task
        streams them into ``<stage>/part-<pid>.parquet`` via tmp + atomic
        rename, then records ``<stage>.parts/<pid>.json`` (lineage: the
        descriptor itself, rows, bytes, wall, digest). A partition that
        raises fails the stage with its error once every other partition
        has finished; no stage manifest is written. Partitions whose
        manifest already matches the digest are SKIPPED on resume;
        everything else (including renamed data missing its manifest — a
        write that died between rename and manifest) is re-run. Completion
        writes the stage-level manifest so later resumes take the fast
        path.
        """
        path = os.path.join(self.out_dir, stage)
        if self._resumed(stage, digest):
            return read_back(path)
        parts_dir = path + ".parts"
        tmp_dir = path + ".tmp"
        for d in (path, parts_dir, tmp_dir):
            os.makedirs(d, exist_ok=True)
        # stale stage-level manifest (digest mismatch) must not survive a
        # partial re-run: remove it so a crash mid-re-run never fast-paths
        try:
            os.remove(self._manifest_path(stage))
        except OSError:
            pass

        done: dict[str, dict] = {}
        for f in os.listdir(parts_dir):
            if not f.endswith(".json"):
                continue
            try:
                m = json.load(open(os.path.join(parts_dir, f)))
            except (OSError, ValueError):
                continue
            data = os.path.join(path, f"part-{m.get('pid')}.parquet")
            if (
                self.resume
                and m.get("digest") == digest
                and (os.path.exists(data) or m.get("rows") == 0)
            ):
                done[m["pid"]] = m
            else:
                # stale partition: drop manifest + data
                for p in (os.path.join(parts_dir, f), data):
                    try:
                        os.remove(p)
                    except OSError:
                        pass
        # renamed data without a manifest = unverifiable → re-run it
        known = {f"part-{pid}.parquet" for pid in done}
        for f in os.listdir(path):
            if f.endswith(".parquet") and f not in known:
                try:
                    os.remove(os.path.join(path, f))
                except OSError:
                    pass

        pending = [p for p in parts if p["pid"] not in done]
        t0 = time.perf_counter()
        refs = [
            _run_part_remote.remote(
                produce_part, part, digest, path, parts_dir, tmp_dir
            )
            for part in pending
        ]
        # every partition lands or fails before the stage reports: a
        # failure leaves no task still writing, and the finished
        # partitions' manifests let the re-run resume them
        ray.wait(refs, num_returns=len(refs))
        rows = sum(m.get("rows", 0) for m in done.values()) + sum(ray.get(refs))
        if empty_schema is not None:
            ensure_parquet_schema(path, empty_schema)
        manifest = {
            "stage": stage,
            "digest": digest,
            "rows": rows,
            "wall_sec": time.perf_counter() - t0,
            "n_parts": len(parts),
            "parts_resumed": len(done),
        }
        self._finish(manifest)
        return read_back(path)

    def write_metrics(self):
        with open(os.path.join(self.out_dir, "stage_metrics.json"), "w") as f:
            json.dump(self.metrics, f, indent=2)
