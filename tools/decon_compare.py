"""Decontaminate regime comparison at scale (VERDICT r4 item 1 done
criterion): run the same ×FACTOR corpus through the broadcast regime
(sorted bench gram set built in one task, its ref broadcast) and the
forced hash-join regime (``exchange.BCAST_BYTES = 0``), assert
row-identical output, and report both walls. Pass = join within ~2× of
broadcast.

Usage: python tools/decon_compare.py [--factor 300] [--num-cpus 32]
Prints one JSON line.
"""
import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _run(corpus: str, bcast_bytes: str, num_cpus: int) -> dict:
    """Each regime in a fresh subprocess (fresh Ray session), with
    ``exchange.BCAST_BYTES`` set to ``bcast_bytes``."""
    code = (
        "import os, sys, time, json\n"
        "sys.path.insert(0, %r)\n"
        "from shaclex_ray.stages import exchange\n"
        "exchange.BCAST_BYTES = int(sys.argv[2])\n"
        "import ray\n"
        "ray.init(address='local', num_cpus=int(sys.argv[3]),"
        " include_dashboard=False, logging_level='ERROR',"
        " log_to_driver=False)\n"
        "from shaclex_ray.functions.curate import decontaminate\n"
        "t0 = time.perf_counter()\n"
        "rows = decontaminate(sys.argv[1]).take_all()\n"
        "wall = time.perf_counter() - t0\n"
        "import hashlib\n"
        "key = sorted((r['doc_id'], r['n_grams'], r['n_hits']) for r in rows)\n"
        "h = hashlib.sha256(repr(key).encode()).hexdigest()[:16]\n"
        "tot = sum(r['n_hits'] for r in rows)\n"
        "print(json.dumps({'wall': wall, 'rows': len(rows),"
        " 'total_hits': tot, 'digest': h}))\n"
        "ray.shutdown()\n"
    ) % os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    import subprocess

    p = subprocess.run(
        [sys.executable, "-c", code, corpus, bcast_bytes, str(num_cpus)],
        capture_output=True,
        text=True,
    )
    lines = [l for l in p.stdout.splitlines() if l.startswith("{")]
    if not lines:
        raise RuntimeError(p.stderr[-2000:])
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--factor", type=int, default=300)
    ap.add_argument("--num-cpus", type=int, default=32)
    ap.add_argument("--sf-dir", default="/root/testdata/sf0.1")
    args = ap.parse_args()

    from bench import _build_curation_scale_input

    corpus = _build_curation_scale_input(args.sf_dir, args.factor)

    bcast = _run(corpus, "1000000000000", args.num_cpus)  # force broadcast
    time.sleep(5)
    join = _run(corpus, "0", args.num_cpus)  # force hash join

    assert bcast["rows"] == join["rows"], (bcast["rows"], join["rows"])
    assert bcast["digest"] == join["digest"], "regimes disagree on values"
    print(json.dumps({
        "metric": "decontaminate_regime_compare",
        "factor": args.factor,
        "num_cpus": args.num_cpus,
        "rows": bcast["rows"],
        "total_hits": bcast["total_hits"],
        "digest_match": True,
        "wall_broadcast_s": round(bcast["wall"], 1),
        "wall_join_s": round(join["wall"], 1),
        "join_over_broadcast": round(join["wall"] / bcast["wall"], 2),
    }))


if __name__ == "__main__":
    main()
