"""Layered benchmark of the KG construction pipeline, with a checked
curation pass in the traced runs.

Run from the repository root:

    python3 perfbench/run.py --workload kg_small --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload kg_scaled --seed 1 --seconds 35 --trace 1
    python3 perfbench/run.py --smoke

One invocation generates the workload's corpus from ``--seed``, computes
the expected outputs with the DuckDB twins, starts one Ray session with
``RAY_CPUS`` CPUs in a child process pinned to as many cores, and runs
``run_kg_pipeline`` once untimed (the cold run). It then runs the
pipeline in a closed loop with one client, each run into a fresh output
directory, for ``--seconds`` seconds, and checks every run's outputs
against the twins. A run that errs, gives a wrong output or exceeds its
timeout counts as failed; a stuck session is killed with its process
group and replaced by a fresh one.

The times it reports are scaled to a reference core speed, from probes
of the session's cores around every run (``Runner._scale``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` reports the per-layer ones: kernel microbenchmarks, then
traced runs alternating with untraced ones (their difference is the
tracing overhead), then one cold and one traced ``run_curation_pipeline``
on a small seeded corpus, both checked against the curation twins. The
last stdout line is the JSON result; the line before it records the
environment. ``--smoke`` runs every workload in both modes on a
500-document corpus and checks that every metric is emitted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"

# 2 is the smallest Ray CPU count at which both pipelines finish:
# run_curation_pipeline hangs at num_cpus=1
RAY_CPUS = 2
DEADLINE_S = 170
# the probe time (session.probe) of the reference core that the
# reported times are scaled to
PROBE_REF_S = 0.025
SMOKE_DOCS = 500

# verbatim replicas of a 5,000-document seeded corpus, one parquet file
WORKLOADS = {"kg_small": {"factor": 1}, "kg_scaled": {"factor": 2}}
BASE_DOCS = 5000
# the traced runs' curation corpus: two 250-document replicas in two
# files, the second token-permuted (the fuzzy-dedup twin costs ~12 ms of
# DuckDB time per document, which bounds its size)
CURATION = {"kind": "multifile", "factor": 2, "base_docs": 250}

KG_STAGES = ("triples_raw", "entity_links", "triples_canonical", "validation")


def _fail(msg: str, code: int = 2) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def _calibrate() -> float:
    """Median time of a fixed single-process CPU burn."""

    def burn():
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i ^ (i >> 3)
        return time.perf_counter() - t0

    return statistics.median(burn() for _ in range(3))


def _source_md5() -> str:
    h = hashlib.md5()
    files = sorted((ROOT / "shaclex_ray").rglob("*.py")) + [ROOT / "__ray_entry__.py"]
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _git_rev() -> str | None:
    try:
        p = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def _environment() -> dict:
    from importlib.metadata import version

    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True).stdout)
    except (OSError, ValueError):
        nproc = None
    return {
        # nproc honours OMP_NUM_THREADS; the affinity mask is what the
        # scheduler gives this process
        "nproc": nproc,
        "cpus_available": len(os.sched_getaffinity(0)),
        "ray_cpus_requested": RAY_CPUS,
        "python": sys.version.split()[0],
        "ray": version("ray"),
        "pyarrow": version("pyarrow"),
        "duckdb": version("duckdb"),
        "git_rev": _git_rev(),
        "source_md5": _source_md5(),
    }


def _kill_group(pgid: int) -> None:
    """SIGKILL a process group and wait until none of it is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    end = time.monotonic() + 15
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


class Session:
    """A ``session.py`` child: one Ray session, driven line by line."""

    def __init__(self, scratch: Path, log, cores: list[int]):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        cmd = [
            sys.executable, str(HERE / "session.py"), "--scratch", str(scratch),
            "--cpus", str(RAY_CPUS), "--cores", ",".join(map(str, cores)),
        ]
        self.ray_tmp = WORK / "ray"
        # Ray's socket paths must fit in 107 bytes
        if len(str(self.ray_tmp)) <= 42:
            cmd += ["--ray-tmp", str(self.ray_tmp)]
        else:
            self.ray_tmp = None
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=log, start_new_session=True,
        )
        self._buf = b""
        self._sel = selectors.DefaultSelector()
        self._sel.register(self.proc.stdout, selectors.EVENT_READ)

    def read(self, timeout: float) -> dict | None:
        """The next reply, or None on timeout or when the child died."""
        end = time.monotonic() + max(0.0, timeout)
        while b"\n" not in self._buf:
            left = end - time.monotonic()
            if left <= 0 or not self._sel.select(left):
                return None
            chunk = os.read(self.proc.stdout.fileno(), 65536)
            if not chunk:
                return None
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def request(self, cmd: dict, timeout: float) -> dict | None:
        try:
            self.proc.stdin.write((json.dumps(cmd) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None
        return self.read(timeout)

    def close(self, graceful: bool) -> None:
        if graceful:
            try:
                self.proc.stdin.write(b'{"op": "exit"}\n')
                self.proc.stdin.flush()
                self.proc.wait(timeout=30)
            except (BrokenPipeError, subprocess.TimeoutExpired):
                pass
        _kill_group(self.proc.pid)
        self.proc.wait()
        self._sel.close()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Runner:
    """One invocation: corpora, twins, sessions, the timed loop."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool,
                 factor: int, base_docs: int):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.factor, self.base_docs = factor, base_docs
        self.deadline = time.monotonic() + DEADLINE_S
        self.window_end = self.deadline
        self.work = WORK / f"{workload}-{os.getpid()}"
        self.corpora = {"kg": self.work / "kg_corpus", "curation": self.work / "cur_corpus"}
        self.expected: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.runs: list[dict] = []
        self.spans: list[list[dict]] = []
        self.session: Session | None = None
        self.cold_wall = None
        self.probes: list[float] = []
        # the session runs on as many cores as Ray is given CPUs
        self.cores = sorted(os.sched_getaffinity(0))[:RAY_CPUS]

    # -- sessions -------------------------------------------------------
    def _run_timeout(self) -> float:
        est = max(30.0, 5 * (self.cold_wall or 30))
        return max(5.0, min(est, 120.0, self.deadline - time.monotonic() - 10))

    def _effective(self, wall: float, steal: float) -> float:
        """Wall time less the CPU time the hypervisor stole from the
        session's cores, per core: on a shared host, stolen time moves
        the wall time by tens of percent from one minute to the next."""
        return wall - steal / len(self.cores)

    def _scale(self) -> float:
        """The factor that scales this invocation's times to the reference
        core: PROBE_REF_S over the median of every probe taken around its
        runs. On a shared host the speed of a core moves with the load of
        other tenants by tens of percent from one minute to the next, and
        the pipeline's times with it; one factor per invocation, from all
        its probes, is steadier than one per run."""
        return PROBE_REF_S / statistics.median(self.probes)

    def _start_session(self) -> dict | None:
        """Start a session and make its cold run. Returns the set-up
        times, or None when the session or the cold run failed."""
        _busy, steal0 = cpu_times(self.cores)
        self.session = Session(self.work, self.log, self.cores)
        ready = self.session.read(min(90.0, self.deadline - time.monotonic() - 10))
        if ready is None or not ready.get("ok"):
            self._drop_session()
            return None
        start_s = time.perf_counter() - self.session.t0
        _busy, steal1 = cpu_times(self.cores)
        self.env.update(ray_cpus=ready["ray_cpus"], session_cpus=self.cores)
        cold = self._run("kg", trace=False, cold=True)
        if cold is None:
            return None
        self.cold_wall = cold["wall_s"]
        return {
            "session_start_s": self._effective(start_s, steal1 - steal0),
            "cold_run_s": cold["effective_s"],
            "session_start_measured_s": start_s,
            "cold_run_measured_s": cold["wall_s"],
        }

    def _drop_session(self) -> None:
        if self.session is not None:
            self.session.close(graceful=False)
            self.session = None

    def _ensure_session(self, need_s: float) -> bool:
        """A live session, replacing a killed one while ``need_s`` seconds
        remain in the window for its set-up and a run."""
        if self.session is not None:
            return True
        if time.monotonic() + need_s > min(self.window_end, self.deadline - 10):
            return False
        return self._start_session() is not None

    # -- one run --------------------------------------------------------
    def _run(self, pipeline: str, trace: bool, cold: bool = False) -> dict | None:
        """One pipeline run, checked against the twins. Returns the
        session's reply for a correct run and None otherwise."""
        out = self.work / "runs" / str(len(self.runs))
        rec = {"pipeline": pipeline, "cold": cold, "trace": trace}
        self.runs.append(rec)
        self.attempted += 1
        reply = self.session.request(
            {"op": "run", "pipeline": pipeline, "corpus": str(self.corpora[pipeline]),
             "out": str(out), "trace": trace},
            self._run_timeout(),
        )
        if reply is None:
            rec["error"] = "timeout or session died"
            self.failed += 1
            self._drop_session()
            return None
        if not reply["ok"]:
            rec["error"] = reply["error"]
            self.failed += 1
            return None
        self.probes += reply["probe_s"]
        reply["effective_s"] = self._effective(reply["wall_s"], reply["steal_s"])
        for k in ("wall_s", "steal_s", "probe_s", "effective_s", "cpu_s", "peak_rss_mb"):
            rec[k] = reply[k]
        observe = oracle.kg_observed if pipeline == "kg" else oracle.curation_observed
        bad = oracle.mismatches(self.expected[pipeline], observe(str(out)))
        shutil.rmtree(out, ignore_errors=True)
        if bad:
            rec["error"] = f"output differs from the twins: {bad}"
            self.failed += 1
            self.wrong += 1
            return None
        return reply

    # -- the invocation -------------------------------------------------
    def execute(self) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        RESULTS.mkdir(exist_ok=True)
        self.log = open(RESULTS / f"{self.workload}-session.log", "wb")
        try:
            return self._execute()
        finally:
            self._drop_session()
            self.log.close()
            shutil.rmtree(self.work, ignore_errors=True)
            shutil.rmtree(WORK / "ray", ignore_errors=True)

    def _execute(self) -> dict:
        import __ray_entry__

        sql = __ray_entry__.oracle_sql()
        self.env = _environment()
        info = corpus.build_corpus(
            str(self.corpora["kg"]), self.seed, "single", self.factor, self.base_docs
        )
        self.expected["kg"] = oracle.kg_expected(str(self.corpora["kg"]), sql)
        self.env.update(workload=self.workload, seed=self.seed,
                        seconds=self.seconds, trace=self.trace, corpus=info)
        if self.trace:
            self.env["curation_corpus"] = corpus.build_corpus(
                str(self.corpora["curation"]), self.seed, **CURATION
            )
            self.expected["curation"] = oracle.curation_expected(
                str(self.corpora["curation"]), sql
            )
        self.env["calibration_before_s"] = _calibrate()

        setup = self._start_session()
        if setup is None:
            raise RuntimeError(f"the session or its cold run failed: {self.runs}")
        self.env["ray_temp_dir"] = "checkout" if self.session.ray_tmp else "ray default"
        self.env["setup"] = setup
        self.window_end = time.monotonic() + self.seconds
        if self.trace:
            metrics = self._traced(setup, info)
        else:
            metrics = self._timed(setup, info)
        if self.session is not None:
            self.session.close(graceful=True)
            self.session = None
        self.env["calibration_after_s"] = _calibrate()
        if self.probes:
            self.env["probe_median_s"] = statistics.median(self.probes)
            self.env["scale"] = self._scale()
        self.env["runs"] = self.runs
        return metrics

    def _fits(self, est: float) -> bool:
        return time.monotonic() + est <= min(self.window_end, self.deadline - 10)

    def _loop(self, traces: tuple[bool, ...]) -> list[dict]:
        """Closed loop: each round makes one run per entry of ``traces``;
        the next run starts when the previous one ended. Rounds continue
        while one still fits the window; the first always runs. Three
        failures in a row end the loop."""
        replies: list[dict] = []
        est = self.cold_wall
        misses = 0
        rounds = 0
        while (rounds == 0 or self._fits(len(traces) * est)) and misses < 3:
            rounds += 1
            for trace in traces:
                if not self._ensure_session(3 * est):
                    return replies
                reply = self._run("kg", trace=trace)
                if reply is None:
                    misses += 1
                    continue
                misses = 0
                reply["traced"] = trace
                replies.append(reply)
                est = reply["wall_s"]
        return replies

    def _timed(self, setup: dict, info: dict) -> dict:
        replies = self._loop((False,))
        if not replies:
            return {}
        scale = self._scale()
        wall = scale * statistics.median(r["effective_s"] for r in replies)
        triples = replies[0]["stages"]["triples_canonical"]["rows"]
        return {
            "wall_s": wall,
            "docs_per_s": info["docs"] / wall,
            "triples_per_s": triples / wall,
            "cpu_s": scale * statistics.median(r["cpu_s"] for r in replies),
            "setup_s": scale * (setup["session_start_s"] + setup["cold_run_s"]),
            "driver_peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in replies),
        }

    # -- the traced run -------------------------------------------------
    def _traced(self, setup: dict, info: dict) -> dict:
        kern = self.session.request(
            {"op": "kernels", "corpus": str(self.corpora["kg"])}, self._run_timeout()
        )
        if kern is None or not kern["ok"]:
            raise RuntimeError(f"kernel microbenchmarks failed: {kern}")
        replies = self._loop((False, True))
        plain = [r for r in replies if not r["traced"]]
        traced = [r for r in replies if r["traced"]]
        if not plain or not traced:
            return {}
        m = dict(kern["kernels"])
        self.spans += [r["spans"] for r in traced]
        per_run = [self._kg_layers(r, info) for r in traced]
        for k in per_run[0]:
            m[k] = statistics.median(p[k] for p in per_run)
        untraced = statistics.median(r["effective_s"] for r in plain)
        traced_s = statistics.median(r["effective_s"] for r in traced)
        m["trace.overhead_frac"] = traced_s / untraced - 1
        cur = self._curation_pass()
        if cur is None:
            return {}
        m.update(cur)
        # the times the end-to-end metrics are made of, scaled like them
        scale = self._scale()
        m["trace.untraced_wall_s"] = scale * untraced
        m["trace.traced_wall_s"] = scale * traced_s
        m["curation.wall_s"] *= scale
        m["setup.session_start_s"] = scale * setup["session_start_s"]
        m["setup.cold_run_s"] = scale * setup["cold_run_s"]
        return m

    def _curation_pass(self) -> dict | None:
        """One cold and one traced curation run in the same session, after
        the window."""
        self.window_end = self.deadline
        if not self._ensure_session(3 * self.cold_wall):
            return None
        if self._run("curation", trace=False, cold=True) is None:
            return None
        r = self._run("curation", trace=True)
        if r is None:
            return None
        self.spans.append(r["spans"])
        st, spans = r["stages"], r["spans"]
        corpus_s = _span_s(spans, "curate.curate_corpus")
        return {
            "curate.corpus_s": corpus_s,
            "curated.join_s": st["curated"]["wall_sec"] - corpus_s,
            "curated.rows_out": st["curated"]["rows"],
            "packed.wall_s": st["packed"]["wall_sec"],
            "packed.span_s": _span_s(spans, "pack.pack_sequences"),
            "packed.rows_out": st["packed"]["rows"],
            "curation.wall_s": r["effective_s"],
            "checkpoint.curated_bytes": r["stage_bytes"]["curated"],
            "checkpoint.packed_bytes": r["stage_bytes"]["packed"],
        }

    def _kg_layers(self, r: dict, info: dict) -> dict:
        st, spans = r["stages"], r["spans"]
        raw, links = st["triples_raw"], st["entity_links"]
        canon, val = st["triples_canonical"], st["validation"]
        vspan = next(s for s in spans if s["name"] == "validate.distributed_validate")
        written = sum(r["stage_bytes"].values())
        m = {f"checkpoint.{k}_bytes": r["stage_bytes"][k] for k in KG_STAGES}
        m.update({
            "checkpoint.bytes_written": written,
            "checkpoint.bytes_per_input_byte": written / info["input_bytes"],
            "extract.wall_s": raw["wall_sec"],
            "extract.rows_out": raw["rows"],
            "extract.parts": raw["n_parts"],
            "link.wall_s": links["wall_sec"],
            "link.rows_out": links["rows"],
            "link.span_s": _span_s(spans, "link.build_entity_links"),
            "canonical.wall_s": canon["wall_sec"],
            "canonical.rows_in": raw["rows"],
            "canonical.rows_out": canon["rows"],
            "canonical.keep_ratio": canon["rows"] / raw["rows"],
            "canonical.span_s": _span_s(spans, "dedup.dedup_triples_fast_from_parquet"),
            "validation.wall_s": val["wall_sec"],
            "validation.span_s": _span_s(spans, "validate.distributed_validate"),
            "validation.nbuckets": vspan["attrs"]["nbuckets"],
            "validation.violations": vspan["attrs"]["violations"],
            "validation.typing_rows": vspan["attrs"]["typing_rows"],
            "kg.driver_overhead_s": r["wall_s"] - sum(s["wall_sec"] for s in st.values()),
        })
        return m


def _span_s(spans: list[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 factor: int, base_docs: int = BASE_DOCS) -> tuple[dict, dict]:
    runner = Runner(name, seed, seconds, trace, factor, base_docs)
    metrics = runner.execute()
    env = runner.env
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in _spec()[kind]}
    if metrics and set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json {kind}: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    result = {
        "correct": runner.wrong == 0 and runner.failed < runner.attempted,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(RESULTS / f"{name}-trace{int(trace)}.json", "w") as f:
        json.dump({"env": env, "result": result, "spans": runner.spans}, f, indent=1)
    return env, result


def smoke() -> int:
    """Every workload, both modes, on replicas of a 500-document corpus."""
    problems = []
    for name, cfg in WORKLOADS.items():
        for trace in (False, True):
            _env, res = run_workload(name, 0, 1, trace, cfg["factor"], SMOKE_DOCS)
            print(json.dumps({"workload": name, "trace": trace, **res}))
            if not res["correct"] or res["failed"] or not res["metrics"]:
                problems.append(f"{name} trace={int(trace)}")
    if problems:
        return _fail(f"smoke failed: {problems}", 1)
    print(json.dumps({"smoke": "ok"}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    switches = sorted(k for k in os.environ if k.startswith("SHACLEX_"))
    if switches:
        return _fail(f"refusing to run with {switches} set: they switch the "
                     "code path being measured")
    if not (ROOT / "shaclex_ray").is_dir() or not (ROOT / "__ray_entry__.py").is_file():
        return _fail(f"the program (shaclex_ray/, __ray_entry__.py) is not in {ROOT}")
    if args.smoke:
        return smoke()
    if args.workload is None:
        return _fail("--workload is required")
    env, result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        WORKLOADS[args.workload]["factor"],
    )
    if not result["metrics"]:
        return _fail(f"no run succeeded: {env.get('runs')}", 1)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    import corpus
    import oracle
    from session import cpu_times

    sys.exit(main())
