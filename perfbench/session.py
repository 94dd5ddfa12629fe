"""One Ray session that runs the benchmarked pipeline on command.

``run.py`` starts this script as a child process, so that a stuck run can
be killed with its whole process group and replaced by a fresh session.
It reads one JSON command per line on stdin and answers each with one
JSON line on its original stdout; anything else the program prints goes
to stderr.

Commands: ``{"op": "run", "pipeline": "kg"|"curation", "corpus": <dir>,
"out": <dir>, "trace": <bool>}`` runs a pipeline once into a fresh output
directory; ``{"op": "kernels", "corpus": <dir>}`` runs the kernel
microbenchmarks; ``{"op": "exit"}`` ends the session.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback

# one burst takes 15-50 ms of CPU time on a 4-vCPU shared host
PROBE_ITERS = 200_000
PROBE_REPS = 3


def _reset_peak_rss() -> None:
    # writing 5 to clear_refs resets VmHWM, the peak resident set size;
    # where the kernel refuses, the peak covers the session's lifetime
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def cpu_times(cores: list[int]) -> tuple[float, float]:
    """Busy CPU seconds of the whole machine so far (user, nice, system,
    irq, softirq), and the seconds the hypervisor stole from ``cores``.
    Counting the machine rather than this process group keeps the CPU
    time of worker processes that exit during a run; the machine runs
    nothing else while a run is timed."""
    busy = steal = 0
    with open("/proc/stat") as f:
        for line in f:
            name, *fields = line.split()
            if not name.startswith("cpu"):
                break
            user, nice, system, _idle, _iowait, irq, softirq, stolen = map(
                int, fields[:8]
            )
            if name == "cpu":
                busy = user + nice + system + irq + softirq
            elif int(name[3:]) in cores:
                steal += stolen
    tick = os.sysconf("SC_CLK_TCK")
    return busy / tick, steal / tick


def _burn() -> float:
    # thread CPU time leaves out the time the hypervisor stole
    t0 = time.thread_time()
    acc = 0
    for i in range(PROBE_ITERS):
        acc += i ^ (i >> 3)
    return time.thread_time() - t0


def probe(cores: list[int]) -> float:
    """CPU seconds a fixed single-threaded burn takes on ``cores`` now:
    the median of PROBE_REPS bursts on each core, averaged over the
    cores. On a shared host it varies by tens of percent from one minute
    to the next, with the load other tenants put on the same physical
    cores. The calling thread's affinity is restored afterwards."""
    mask = os.sched_getaffinity(0)
    per_core = []
    try:
        for c in cores:
            os.sched_setaffinity(0, [c])
            per_core.append(statistics.median(_burn() for _ in range(PROBE_REPS)))
    finally:
        os.sched_setaffinity(0, mask)
    return sum(per_core) / len(per_core)


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def run_pipeline(pipeline: str, corpus: str, out: str, cores: list[int],
                 tracer=None) -> dict:
    from shaclex_ray.pipelines.curation import run_curation_pipeline
    from shaclex_ray.pipelines.kg import run_kg_pipeline

    run = run_kg_pipeline if pipeline == "kg" else run_curation_pipeline
    shutil.rmtree(out, ignore_errors=True)
    _reset_peak_rss()
    probe0 = probe(cores)
    cpu0, steal0 = cpu_times(cores)
    t0 = time.perf_counter()
    if tracer is None:
        result = run(corpus, out, resume=False)
    else:
        with tracer.span("pipeline", pipeline=pipeline):
            result = run(corpus, out, resume=False)
    wall = time.perf_counter() - t0
    peak = _peak_rss_mb()
    cpu1, steal1 = cpu_times(cores)
    probe1 = probe(cores)
    stages = {k: dict(v) for k, v in result["metrics"].items()}
    stage_bytes = {k: _dir_bytes(os.path.join(out, k)) for k in stages}
    return {
        "wall_s": wall,
        "peak_rss_mb": peak,
        "cpu_s": cpu1 - cpu0,
        "steal_s": steal1 - steal0,
        "probe_s": [probe0, probe1],
        "stages": stages,
        "stage_bytes": stage_bytes,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--cpus", type=int, required=True)
    ap.add_argument("--cores", required=True, help="comma-separated cores to pin to")
    ap.add_argument("--ray-tmp", default=None)
    args = ap.parse_args()

    reply_to = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def reply(obj) -> None:
        reply_to.write(json.dumps(obj) + "\n")
        reply_to.flush()

    # the session and every Ray process it starts run on as many cores
    # as Ray is given CPUs, so hosts with more cores measure alike
    cores = [int(c) for c in args.cores.split(",")]
    os.sched_setaffinity(0, cores)
    import ray

    init = dict(
        address="local",
        num_cpus=args.cpus,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 << 20,
    )
    if args.ray_tmp:
        init["_temp_dir"] = args.ray_tmp
    ray.init(**init)
    reply({"ok": True, "ray_cpus": ray.cluster_resources().get("CPU")})

    from tracing import Tracer, install_layer_spans

    tracer = Tracer()
    for line in sys.stdin:
        cmd = json.loads(line)
        try:
            if cmd["op"] == "exit":
                break
            if cmd["op"] == "kernels":
                import kernels

                res = {"kernels": kernels.measure(cmd["corpus"], args.scratch)}
            elif cmd["trace"]:
                tracer.spans.clear()
                install_layer_spans(tracer)
                try:
                    res = run_pipeline(
                        cmd["pipeline"], cmd["corpus"], cmd["out"], cores, tracer
                    )
                finally:
                    tracer.unwrap()
                res["spans"] = tracer.spans
            else:
                res = run_pipeline(cmd["pipeline"], cmd["corpus"], cmd["out"], cores)
            reply({"ok": True, **res})
        except Exception:  # the supervisor counts the run as failed
            reply({"ok": False, "error": traceback.format_exc()[-4000:]})
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
