"""Spans around the calls the pipelines make into each layer.

The tracer wraps public functions from the outside, by replacing the
module attribute the caller looks up; it never edits the program. A span
records its name, start, end, the span that was open when it began
(its parent) and a few attributes. Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._open.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, owner, attr: str, name: str, materialize=False, after=None):
        """Replace ``owner.attr`` with a wrapper that records a span.

        ``materialize``: the function returns a lazy Dataset its caller
        materializes at once; doing it inside the span charges the work
        to the layer that planned it. ``after(func, result, rec)`` adds
        attributes once the call returns."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = orig(*args, **kwargs)
                if materialize:
                    result = result.materialize()
            # the caller may read attributes the function sets on itself
            wrapper.__dict__.update(orig.__dict__)
            if after is not None:
                after(orig, result, rec, kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def wrap_stages(self, runner_cls):
        """One span per checkpointed stage (``StageRunner.run`` and
        ``run_partitioned``), named after the stage it runs."""
        for attr in ("run", "run_partitioned"):
            orig = getattr(runner_cls, attr)

            def wrapper(runner, stage, *args, _orig=orig, **kwargs):
                with self.span("stage", stage=stage):
                    return _orig(runner, stage, *args, **kwargs)

            setattr(runner_cls, attr, functools.wraps(orig)(wrapper))
            self._patches.append((runner_cls, attr, orig))

    def unwrap(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the driver-side entry points of the benchmarked layers."""
    from shaclex_ray.functions import curate, pack
    from shaclex_ray.pipelines import kg
    from shaclex_ray.stages import dedup
    from shaclex_ray.state.checkpoint import StageRunner

    def validate_attrs(func, _result, rec, kwargs):
        stats = getattr(func, "last_stats", {}) or {}
        rec["attrs"].update(
            nbuckets=kwargs.get("nbuckets"),
            violations=stats.get("violations", 0),
            typing_rows=sum(v for k, v in stats.items() if k != "violations"),
        )

    tracer.wrap_stages(StageRunner)
    tracer.wrap(kg, "build_entity_links", "link.build_entity_links")
    tracer.wrap(
        dedup,
        "dedup_triples_fast_from_parquet",
        "dedup.dedup_triples_fast_from_parquet",
        materialize=True,
    )
    tracer.wrap(
        kg, "distributed_validate", "validate.distributed_validate",
        after=validate_attrs,
    )
    tracer.wrap(curate, "curate_corpus", "curate.curate_corpus", materialize=True)
    tracer.wrap(pack, "pack_sequences", "pack.pack_sequences")
