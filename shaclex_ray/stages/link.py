"""Entity linking + canonicalization (SURVEY.md A5/J9, the north-star ops).

Stages:
  1. mention harvest: filter mention triples, project surfaces, distinct
     (bucketed dedup — no full-table shuffle of non-mention triples)
  2. blocking: normalize(surface) is the blocking key; within each block a
     groupby-aggregate emits union edges (mention_iri, canonical_iri)
  3. component merge, size-adaptive: small edge lists use the driver
     union-find (broadcast regime); large ones run DISTRIBUTED min-label
     propagation (groupby-min + edge joins per round — the driver never
     holds the edge list; at web scale distinct surface forms are
     billions). Both produce identical rows (tests pin the equality).
  4. canonicalization, two regimes, chosen in one place (``read_links``
     in pipelines/kg.py, from the link table's row count):
     - broadcast: the link table ships once via ``ray.put`` and the
       ``Canonicalizer`` kernel rewrites subj/obj IRIs fused inside the
       dedup exchange's split tasks (vectorized index_in/take);
     - join: ``canonicalize_triples`` hash-joins a link Dataset onto the
       triples; its output is staged as parquet and fed to the same
       exchange.
     Both give identical rows (tests pin the equality).

Determinism: canonical IRI is a pure function of the normalized surface;
the component representative is the lexicographic minimum (same rule in
both merge implementations), so retried tasks produce identical rows.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray

from shaclex_ray.stages.extract import (
    C_ENTITY,
    ENT_NS,
    MENTION_NS,
    P_MENTIONS,
    P_SURFACE,
    RDF_TYPE,
    XSD_STRING,
)
from shaclex_ray.terms import TRIPLES_SCHEMA


def normalize_mention(surface: str) -> str:
    """Blocking/canonicalization key for a mention surface form."""
    return surface.strip().lower()


class UnionFind:
    """Deterministic union-find: representative = lexicographic minimum."""

    def __init__(self):
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        p = self.parent.setdefault(x, x)
        while p != self.parent.get(p, p):
            self.parent[p] = self.parent.get(self.parent[p], self.parent[p])
            p = self.parent[p]
        self.parent[x] = p
        return p

    def union(self, a: str, b: str):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        lo, hi = (ra, rb) if ra < rb else (rb, ra)
        self.parent[hi] = lo


def harvest_mentions(triples_ds):
    """Distinct mention surfaces with their normalized blocking key."""

    def project(batch: pa.Table) -> pa.Table:
        mask = pc.equal(batch.column("pred"), P_MENTIONS)
        iris = pc.filter(batch.column("obj_lex").combine_chunks(), mask)
        surfaces = pc.utf8_replace_slice(iris, 0, len(MENTION_NS), "")
        block = pc.utf8_lower(pc.utf8_trim_whitespace(surfaces))
        tbl = pa.table(
            {"mention_iri": iris, "surface": surfaces, "block_key": block}
        )
        # batch-local distinct (combiner) — surface/block_key are pure
        # functions of mention_iri, so full-row distinct == mention
        # distinct; Arrow group_by keeps it C++-side (no pandas round-trip)
        return tbl.group_by(tbl.column_names, use_threads=False).aggregate([]).cast(
            tbl.schema
        )

    from shaclex_ray.stages.dedup import distinct_rows_fast

    # exact distinct via the one-move hash exchange: surface and block_key
    # are functions of mention_iri, so full-row distinct == distinct
    # mentions. (A groupby().map_groups here costs seconds of sort-shuffle
    # + per-group Python overhead even when the projection is tiny.)
    return distinct_rows_fast(
        triples_ds.map_batches(project, batch_format="pyarrow"),
        empty_schema=pa.schema(
            [
                ("mention_iri", pa.string()),
                ("surface", pa.string()),
                ("block_key", pa.string()),
            ]
        ),
    )


def _edges_ds(triples_ds):
    """Per-block union edges: every mention in a block links to the block's
    canonical entity IRI (distinct mentions only — the blocking groupby is
    the dedup)."""
    mentions = harvest_mentions(triples_ds)
    return mentions.map_batches(
        lambda b: pa.table(
            {
                "a": b.column("mention_iri"),
                "b": pc.binary_join_element_wise(
                    ENT_NS, b.column("block_key").combine_chunks(), ""
                ),
            }
        ),
        batch_format="pyarrow",
    )


def connected_components(edges_ds, max_iters: int = 12):
    """Distributed connected components by min-label propagation: each node
    repeatedly adopts the smallest label among itself and its neighbors
    (groupby-min per round; deterministic — the representative is the
    lexicographic minimum of the component, exactly the driver union-find's
    rule). Converges in O(component diameter) rounds; the blocking graph is
    a forest of stars, so 2 rounds close it. Returns a Dataset
    (node, label).

    The per-round label reduction is the vectorized one-move hash
    exchange (``grouped_aggregate_fast`` — Arrow group_by min, zero
    per-node Python), and the propagation joins' partitioning scales
    with edge count, not a fixed constant."""
    from shaclex_ray.stages.groupagg import grouped_aggregate_fast

    def seed(batch: pa.Table) -> pa.Table:
        a = batch.column("a").combine_chunks()
        b = batch.column("b").combine_chunks()
        lab = pc.min_element_wise(a, b)
        return pa.table(
            {
                "node": pa.concat_arrays([a, b]),
                "label": pa.concat_arrays([lab, lab]),
            }
        )

    def min_label_agg(ds):
        return grouped_aggregate_fast(ds, ["node"], [("label", "min")], ["label"])

    n_edges = edges_ds.count()
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    nparts = max(2, min(max(ncpu // 2, n_edges // 2_000_000 + 1), 512))

    def _fix_schema(cols):
        """Ray joins emit empty partitions with a degenerate schema (same
        workaround as canonicalize_triples) — restore the canonical
        column set so the next join/map sees stable fields."""
        target = pa.schema([(c, pa.string()) for c in cols])

        def fix(batch: pa.Table) -> pa.Table:
            if not set(cols) <= set(batch.column_names):
                return target.empty_table()
            return batch.select(cols).cast(target)

        return fix

    labels = edges_ds.map_batches(seed, batch_format="pyarrow")
    edges = edges_ds
    for _ in range(max_iters):
        labels = min_label_agg(labels).materialize()
        # propagate: each edge forwards min(label_a, label_b) to both ends
        j1 = edges.join(
            labels, "inner", num_partitions=nparts, on=("a",), right_on=("node",)
        ).map_batches(_fix_schema(["a", "b", "label"]), batch_format="pyarrow")
        joined = j1.join(
            labels,
            "inner",
            num_partitions=nparts,
            on=("b",),
            right_on=("node",),
            left_suffix="_a",
            right_suffix="_b",
        )

        def fwd(batch: pa.Table) -> pa.Table:
            if not {"a", "b", "label_a", "label_b"} <= set(batch.column_names):
                return pa.schema(
                    [("node", pa.string()), ("label", pa.string()),
                     ("changed", pa.bool_())]
                ).empty_table()
            la = batch.column("label_a").combine_chunks()
            lb = batch.column("label_b").combine_chunks()
            m = pc.min_element_wise(la, lb)
            return pa.table(
                {
                    "node": pa.concat_arrays(
                        [
                            batch.column("a").combine_chunks(),
                            batch.column("b").combine_chunks(),
                        ]
                    ),
                    "label": pa.concat_arrays([m, m]),
                    "changed": pa.concat_arrays(
                        [
                            pc.not_equal(la, m),
                            pc.not_equal(lb, m),
                        ]
                    ),
                }
            )

        prop = joined.map_batches(fwd, batch_format="pyarrow").materialize()
        n_changed = prop.map_batches(
            lambda b: pa.table(
                {"n": pa.array([pc.sum(b.column("changed")).as_py() or 0], pa.int64())}
            ),
            batch_format="pyarrow",
        ).sum("n")
        labels = prop.select_columns(["node", "label"])
        if not n_changed:
            break
    else:
        raise ValueError(
            f"connected_components did not converge in {max_iters} rounds "
            "(component diameter exceeds max_iters) — raise max_iters"
        )
    return min_label_agg(labels)


def build_entity_links(triples_ds, distributed: bool | None = None):
    """mention_iri -> canonical_iri links.

    The component merge is size-adaptive (the broadcast-vs-shuffle switch):
    small edge lists merge with the driver union-find and return a
    ``pa.Table``; above ``SHACLEX_LINK_DIST_THRESHOLD`` rows (default 1M —
    at web scale distinct surface forms are billions) the merge runs as
    DISTRIBUTED min-label propagation and the result stays a Ray
    **Dataset** end-to-end — the driver never holds the edge list OR the
    link table. Both regimes produce identical rows (lexicographic-min
    representative — tests pin the equality), so the switch is purely
    physical; the pipeline checkpoints either as parquet shards."""
    import os as _os

    edges_m = _edges_ds(triples_ds).materialize()
    if distributed is None:
        threshold = int(_os.environ.get("SHACLEX_LINK_DIST_THRESHOLD", "1000000"))
        distributed = edges_m.count() >= threshold
    if not distributed:
        edges = edges_m.take_all()
        uf = UnionFind()
        for row in edges:
            uf.union(row["a"], row["b"])
        mapping: dict[str, str] = {}
        for row in edges:
            mapping[row["a"]] = uf.find(row["a"])
        return pa.table(
            {
                "mention": pa.array(sorted(mapping), pa.string()),
                "canonical_iri": pa.array(
                    [mapping[k] for k in sorted(mapping)], pa.string()
                ),
            }
        )
    labels = connected_components(edges_m)

    def mentions_only(batch: pa.Table) -> pa.Table:
        mask = pc.starts_with(batch.column("node"), MENTION_NS)
        sub = batch.filter(mask)
        return pa.table(
            {"mention": sub.column("node"), "canonical_iri": sub.column("label")}
        )

    return labels.map_batches(mentions_only, batch_format="pyarrow")


class Canonicalizer:
    """Broadcast rewrite kernel: mention IRIs in ``subj`` and iri-kind
    ``obj_lex`` become their canonical entity IRIs through a vectorized
    index_in/take substitution. The dedup split tasks build one per task
    from the broadcast link table (the fused regime)."""

    def __init__(self, link_tbl: pa.Table):
        self.keys = link_tbl.column("mention").combine_chunks()
        self.vals = link_tbl.column("canonical_iri").combine_chunks()

    def _sub(self, arr: pa.ChunkedArray) -> pa.Array:
        arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
        idx = pc.index_in(arr, value_set=self.keys)
        replaced = pc.take(self.vals, idx)
        return pc.if_else(pc.is_valid(idx), replaced, arr)

    def __call__(self, batch: pa.Table) -> pa.Table:
        subj = self._sub(batch.column("subj"))
        obj_lex = batch.column("obj_lex").combine_chunks()
        iri_mask = pc.equal(batch.column("obj_kind"), "iri")
        obj_sub = self._sub(obj_lex)
        obj_lex = pc.if_else(iri_mask, obj_sub, obj_lex)
        return batch.set_column(0, "subj", subj).set_column(
            batch.schema.get_field_index("obj_lex"), "obj_lex", obj_lex
        )


def entity_triples(link_tbl: pa.Table) -> pa.Table:
    """Canonical-entity metadata triples (``rdf:type ex:Entity`` and
    ``ex:surface``) for the distinct canonical IRIs of a link table, all
    type triples first, each half in canonical-IRI order."""
    canon = pc.unique(link_tbl.column("canonical_iri").combine_chunks())
    canon = canon.take(pc.array_sort_indices(canon))
    n = len(canon)
    surfaces = pc.utf8_replace_slice(canon, 0, len(ENT_NS), "")
    const = lambda v, m: pa.array([v] * m, pa.string())  # noqa: E731
    return pa.table(
        {
            "subj": pa.concat_arrays([canon, canon]),
            "pred": pa.concat_arrays([const(RDF_TYPE, n), const(P_SURFACE, n)]),
            "obj_kind": pa.concat_arrays([const("iri", n), const("literal", n)]),
            "obj_lex": pa.concat_arrays([const(C_ENTITY, n), surfaces]),
            "obj_dt": pa.concat_arrays([const("", n), const(XSD_STRING, n)]),
            "obj_lang": const("", 2 * n),
            "doc_id": const("", 2 * n),
            "span_idx": pa.array([-1] * (2 * n), pa.int32()),
        }
    )


def entity_triples_ds(links_ds):
    """``entity_triples`` over a links *Dataset*: distinct canonicals come
    from the one-move hash-distinct exchange, then ``entity_triples``
    runs per batch. The full link table never touches the driver."""
    from shaclex_ray.stages.dedup import distinct_rows_fast

    distinct = distinct_rows_fast(links_ds.select_columns(["canonical_iri"]))
    return distinct.map_batches(entity_triples, batch_format="pyarrow")


def canonicalize_triples(triples_ds, links_ds, num_partitions: int | None = None):
    """Join-regime canonicalization, for link tables too big to broadcast
    (billions of distinct mentions): hash-JOIN the link Dataset onto the
    triples (subj side, then iri-object side) and append the entity
    metadata triples. Rewrites exactly like the broadcast ``Canonicalizer``
    (tests pin the equality); the result still needs the dedup exchange."""
    links_m = links_ds.materialize()  # three consumers: two joins + metadata
    if num_partitions is None:
        num_partitions = max(2, min(16, int(ray.cluster_resources().get("CPU", 4)) // 2))

    j1 = triples_ds.join(
        links_m,
        "left_outer",
        num_partitions=num_partitions,
        on=("subj",),
        right_on=("mention",),
    )

    def apply_subj(batch: pa.Table) -> pa.Table:
        if "canonical_iri" not in batch.column_names:
            # a degenerate empty join partition (Ray types them null /
            # drops columns) carries no matches — pass it through
            return batch
        canon = batch.column("canonical_iri").combine_chunks()
        subj = batch.column("subj").combine_chunks()
        new_subj = pc.if_else(pc.is_valid(canon), canon, subj)
        batch = batch.set_column(
            batch.schema.get_field_index("subj"), "subj", new_subj
        )
        return batch.drop_columns(["canonical_iri"])

    j1 = j1.map_batches(apply_subj, batch_format="pyarrow")

    j2 = j1.join(
        links_m,
        "left_outer",
        num_partitions=num_partitions,
        on=("obj_lex",),
        right_on=("mention",),
    )

    def apply_obj(batch: pa.Table) -> pa.Table:
        if {"canonical_iri", "obj_lex", "obj_kind"} <= set(batch.column_names):
            canon = batch.column("canonical_iri").combine_chunks()
            obj_lex = batch.column("obj_lex").combine_chunks()
            is_iri = pc.equal(batch.column("obj_kind").combine_chunks(), "iri")
            new_obj = pc.if_else(
                pc.and_(pc.is_valid(canon), is_iri), canon, obj_lex
            )
            batch = batch.set_column(
                batch.schema.get_field_index("obj_lex"), "obj_lex", new_obj
            )
            batch = batch.drop_columns(["canonical_iri"])
        # a degenerate empty join partition may lack the joined column
        # entirely; either way, joins reorder columns and type empty
        # blocks as null — restore the canonical triple schema so
        # downstream concat/union is exact
        cols = [c for c in TRIPLES_SCHEMA.names if c in batch.column_names]
        return batch.select(cols).cast(
            pa.schema([TRIPLES_SCHEMA.field(c) for c in cols])
        )

    rewritten = j2.map_batches(apply_obj, batch_format="pyarrow")
    return rewritten.union(entity_triples_ds(links_m))
