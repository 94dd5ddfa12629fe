"""The flagship end-to-end KG-construction pipeline (north star):

  read interleaved documents → extract triples (lineage-carrying) →
  entity-link → canonicalize + exact dedup → materialize triple table →
  validate in-pipeline against SHACL shapes (distributed BSP fixpoint) →
  typing + validation-report tables

``triples_raw`` is pre-canonical (mention IRIs, not entity IRIs) and
holds the two mention relations, ``doc ex:mentions m`` and ``m rdf:type
ex:Mention``, combined per extract batch: one row per distinct triple of
the batch with its least (doc_id, span_idx) witness, so the canonical
dedup gives the table it gives over one row per entity span.

Every checkpointed stage writes its shards from the tasks that compute
them: plain partition tasks, ``exchange.sink`` bucket tasks, validation
buckets. Canonicalize + dedup is one file-granular hash exchange
(``dedup_triples_fast_from_parquet``) over the raw triple shards: the
canonical IRI is a row function of the mention IRI (stages/link.py), so
the rewrite runs inside the exchange's split tasks and reads nothing from
the ``entity_links`` checkpoint, an output of its own.

Stage outputs checkpoint to partitioned parquet with manifests
(state/checkpoint.py), so a failed run resumes from the last finished
stage. Equivalent reference flow: parse → schema → trigger → validate →
report (weso/shaclex src/main/scala/es/weso/shaclex/Main.scala:103-135),
re-expressed as checkpointed stages.
"""

from __future__ import annotations

import glob
import hashlib
import os

from shaclex_ray.rdfio import parse_turtle
from shaclex_ray.shapes.shacl import compile_shacl
from shaclex_ray.sources.documents import parquet_num_rows, read_documents
from shaclex_ray.stages import dedup, exchange
from shaclex_ray.stages.extract import extract_triples
from shaclex_ray.stages.link import build_entity_links
from shaclex_ray.state.checkpoint import (
    StageOutputs,
    StageRunner,
    ensure_parquet_schema,
)
from shaclex_ray.terms import TRIPLES_SCHEMA
from shaclex_ray.validate.dist import ARC_COLS, distributed_validate

# SHACL shapes for the constructed KG — parsed with our own Turtle parser.
# DocumentShape's ex:mentions sh:class ex:Entity forces a cross-bucket
# typing join (the fixpoint's round-2 dependency); ex:mentions sh:minCount 1
# makes mention-free documents non-conformant (deliberate mixed outcomes).
KG_SHAPES_TTL = """
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://ex.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .

ex:DocumentShape a sh:NodeShape ;
  sh:targetClass ex:Document ;
  sh:property [ sh:path ex:lang ; sh:minCount 1 ; sh:maxCount 1 ;
                sh:datatype xsd:string ] ;
  sh:property [ sh:path ex:source ; sh:minCount 1 ; sh:maxCount 1 ;
                sh:datatype xsd:string ] ;
  sh:property [ sh:path ex:mentions ; sh:nodeKind sh:IRI ;
                sh:class ex:Entity ; sh:minCount 1 ] ;
  sh:property [ sh:path ex:hasMedia ; sh:nodeKind sh:IRI ] .

ex:EntityShape a sh:NodeShape ;
  sh:targetClass ex:Entity ;
  sh:property [ sh:path ex:surface ; sh:minCount 1 ; sh:maxCount 1 ;
                sh:datatype xsd:string ] .
"""


def kg_schema() -> dict:
    return compile_shacl(parse_turtle(KG_SHAPES_TTL))


def run_kg_pipeline(
    sf_dir: str,
    out_dir: str,
    nbuckets: int | None = None,
    validate: bool = True,
    resume: bool = True,
):
    """Checkpointed end-to-end run. Returns a ``StageOutputs`` mapping:
    ``metrics`` (per-stage manifests), and the ``triples``, ``links`` and,
    when validating, ``typing`` and ``report`` Datasets, each read from
    its stage directory on first access.

    ``exchange.plan`` sizes the canonical dedup's buckets and the
    validation's fleet from the bytes each one moves; ``nbuckets``
    overrides both."""
    runner = StageRunner(out_dir, resume=resume)
    # digest covers inputs AND code/shape revision, so stale checkpoints
    # from an older engine version are never resumed
    import shaclex_ray as _pkg

    rev = hashlib.md5((_pkg.__version__ + KG_SHAPES_TTL).encode()).hexdigest()[:12]
    digest = f"{sf_dir}|nb={nbuckets or 'plan'}|rev={rev}"

    # extract is PARTITION-checkpointed: one restartable task per input
    # row-group range, each streaming its docs through the vectorized span
    # + triple kernels straight into its own parquet shard with a lineage
    # manifest. A run that dies mid-extract resumes at the partition
    # boundary, not the stage boundary. (Non-parquet inputs — the Lance
    # lane — take the stage-granular streaming produce instead: Lance
    # fragments don't slice like parquet row groups.)
    if os.path.exists(f"{sf_dir}/documents.parquet"):
        from shaclex_ray.sources.documents import document_partitions
        from shaclex_ray.stages.extract import extract_partition

        raw_dir = runner.run_partitioned(
            "triples_raw",
            digest,
            document_partitions(sf_dir),
            extract_partition,
            empty_schema=TRIPLES_SCHEMA,
        )
    else:

        def produce_raw(path):
            extract_triples(read_documents(sf_dir)).write_parquet(path)
            ensure_parquet_schema(path, TRIPLES_SCHEMA)
            return parquet_num_rows(path)

        raw_dir = runner.run("triples_raw", digest, produce_raw)

    def produce_links(path):
        # split tasks read the raw shards pruned; bucket tasks write the
        # links checkpoint as shards (a typed empty part when none) and
        # count their rows
        raw = sorted(glob.glob(f"{raw_dir}/*.parquet"))
        return build_entity_links(raw, output_dir=f"{path}/shards")

    links_dir = runner.run("entity_links", digest, produce_links)

    def produce_canonical(path):
        dedup.dedup_triples_fast_from_parquet(
            raw_dir, nbuckets=nbuckets, output_dir=path
        )
        return parquet_num_rows(path)

    canonical_dir = runner.run("triples_canonical", digest, produce_canonical)

    dirs = {"triples": canonical_dir, "links": f"{links_dir}/shards"}
    if validate:

        def produce_validation(path):
            schema = kg_schema()
            # one planned bucket validates as one task, which reads the
            # shards itself, so distributed_validate plans them no second
            # time; more run as round tasks over the object store
            canonical = sorted(glob.glob(f"{canonical_dir}/*.parquet"))
            nb = nbuckets or exchange.plan(canonical, ARC_COLS).fleet
            # targets derive in-bucket (focus="shacl-targets"): the split
            # scan is the ONLY pass over the triples; the buckets write
            # their own typing/report shards — the full tables never
            # concat on the driver
            stats = distributed_validate(
                None, "shacl", schema, "shacl-targets",
                nbuckets=nb, output_dir=path, parquet_path=canonical_dir,
            )
            return sum(v for k, v in stats.items() if k != "violations")

        val_dir = runner.run("validation", digest, produce_validation)
        dirs.update(typing=f"{val_dir}/typing", report=f"{val_dir}/report")
    runner.write_metrics()
    return StageOutputs({"metrics": runner.metrics}, dirs)
