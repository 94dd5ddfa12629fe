"""CLI entry — the analog of the reference's Main (src/main/scala/es/weso/
shaclex/Main.scala): validate / infer / convert / kg subcommands over
triple files, submitted as a plain script or via ``ray job submit``.

    python -m shaclex_ray validate --data g.ttl --schema s.shex \\
        --engine shex --shapemap ':x@:S' [--result-format json|text]
    python -m shaclex_ray validate --data g.ttl --shacl shapes.ttl
    python -m shaclex_ray infer --data g.ttl --class http://e/T
    python -m shaclex_ray convert --schema s.shex --to shacl
    python -m shaclex_ray kg --sf-dir /root/testdata/sf0.001 --out /tmp/kg
    python -m shaclex_ray query --list
    python -m shaclex_ray query --name dedup_minhash --sf-dir <dir> [--out d]
"""

from __future__ import annotations

import argparse
import sys


def _load_triples_ds(path: str):
    import ray.data as rd

    from shaclex_ray.rdfio import parse_turtle
    from shaclex_ray.sources.rdf_source import read_ntriples
    from shaclex_ray.terms import triples_to_table

    if path.endswith(".nt"):
        return read_ntriples(path)
    if path.endswith(".parquet") or path.rstrip("/").endswith("triples_canonical"):
        return rd.read_parquet(path)
    if path.endswith((".jsonld", ".json")):
        from shaclex_ray.rdfio import parse_jsonld

        return rd.from_arrow(
            triples_to_table(
                parse_jsonld(
                    open(path).read(), base="file://" + path, bnode_prefix=path + "#"
                )
            )
        )
    if path.endswith((".rdf", ".xml", ".owl")):
        from shaclex_ray.rdfio import parse_rdfxml

        return rd.from_arrow(
            triples_to_table(
                parse_rdfxml(
                    open(path).read(), base="file://" + path, bnode_prefix=path + "#"
                )
            )
        )
    return rd.from_arrow(
        triples_to_table(parse_turtle(open(path).read(), bnode_prefix=path + "#"))
    )


def main(argv=None):
    ap = argparse.ArgumentParser(prog="shaclex_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("validate")
    v.add_argument("--data")
    v.add_argument("--data-url", help="dereference RDF data from a URL (S2; Main.scala --dataUrl)")
    v.add_argument("--data-format", help="explicit RDF format for --data-url (ntriples/turtle/rdfxml/jsonld/rdfjson)")
    v.add_argument("--engine", default="shacl", choices=("shex", "shacl"))
    v.add_argument("--schema")
    v.add_argument("--schema-url", help="fetch schema text from a URL (S2; Main.scala --schemaUrl)")
    v.add_argument("--shacl")
    v.add_argument("--shapemap")
    v.add_argument("--trigger", default=None)
    v.add_argument("--result-format", default="text", choices=("text", "json", "report-nt"))
    v.add_argument("--nbuckets", type=int, default=8)
    v.add_argument("--clingo-file", help="write the ASP grounding of the validation problem (Main.scala --clingoFile)")
    v.add_argument("--show-clingo", action="store_true", help="print the ASP grounding (Main.scala --showClingo)")

    i = sub.add_parser("infer")
    i.add_argument("--data", required=True)
    i.add_argument("--class", dest="focus_class")
    i.add_argument(
        "--follow-stem",
        action="append",
        default=None,
        help="followOn rule: infer nested shapes for properties under this "
        "IRI stem (repeatable; FollowOn.followOnStem). The wikidata-prop "
        "and prov:wasDerivedFrom stock rules load via --follow-defaults",
    )
    i.add_argument(
        "--follow-defaults",
        action="store_true",
        help="enable the reference's default followOn rules "
        "(InferOptions.scala:32-37: wikidata-prop, prov:wasDerivedFrom, "
        "schema.org and w3 td stems)",
    )
    i.add_argument("--max-follow-on", type=int, default=1)

    c = sub.add_parser("convert")
    c.add_argument("--schema", required=True)
    c.add_argument("--to", required=True, choices=("shacl", "shex", "jsonschema"))

    k = sub.add_parser("kg")
    k.add_argument("--sf-dir", required=True)
    k.add_argument("--out", required=True)

    cu = sub.add_parser(
        "curate",
        help="end-to-end corpus curation: gates + dedup + split + packed "
        "train sequences, checkpointed under --out",
    )
    cu.add_argument("--sf-dir", required=True)
    cu.add_argument("--out", required=True)
    cu.add_argument("--capacity", type=int, default=512)
    cu.add_argument(
        "--substring-dedup",
        action="store_true",
        help="cut duplicated k-token spans from the curated train shard "
        "before packing (functions/substr.trim_substring_spans)",
    )
    cu.add_argument("--substring-k", type=int, default=8)

    q = sub.add_parser(
        "query",
        help="run one named operator pipeline over an sf dir "
        "(every __ray_entry__.queries() entry is available)",
    )
    q.add_argument("--name", help="pipeline name; omit (or --list) to list")
    q.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    q.add_argument("--out", help="write result parquet here instead of printing")
    q.add_argument("--list", action="store_true", help="list available pipelines")
    q.add_argument("--limit", type=int, default=20, help="rows to print")

    sub.add_parser(
        "shell", help="interactive shell (the reference's --shell REPL)"
    )

    stp = sub.add_parser(
        "shextest",
        help="run shexTest manifest entries by name (the reference's "
        "ShExTestRunner; substring match, all entries when omitted)",
    )
    stp.add_argument("--name", help="entry-name substring filter")
    stp.add_argument("--manifest", help="manifest.ttl path (default: bundled suite)")

    args = ap.parse_args(argv)

    import ray

    # only tear down a session we created: callers embedding main() (tests,
    # notebooks) keep their own Ray session alive
    owns_ray = not ray.is_initialized()
    if owns_ray:
        ray.init(address="local", include_dashboard=False, logging_level="ERROR", log_to_driver=False)

    if args.cmd == "validate":
        if args.data:
            ds = _load_triples_ds(args.data)
        elif args.data_url:
            from shaclex_ray.sources.url_source import read_rdf_url

            ds = read_rdf_url(args.data_url, fmt=args.data_format)
        else:
            ap.error("validate requires --data or --data-url")
        from shaclex_ray.result import report_ntriples, result_json, result_text

        def schema_text(path):
            if path:
                return open(path).read()
            if args.schema_url:
                from shaclex_ray.sources.url_source import fetch_schema_text

                return fetch_schema_text(args.schema_url)
            ap.error("validate requires --schema/--shacl or --schema-url")

        if args.engine == "shacl":
            from shaclex_ray.engine import validate_shacl

            shapes = schema_text(args.shacl or args.schema)
            typing, report, summary = validate_shacl(ds, shapes, nbuckets=args.nbuckets)
            if args.result_format == "json":
                print(result_json(typing, report))
            elif args.result_format == "report-nt":
                print(report_ntriples(report))
            else:
                print(result_text(typing, report))
        else:
            from shaclex_ray.engine import validate_shex

            if not args.shapemap:
                ap.error("--engine shex requires --shapemap (e.g. ':node@:Shape')")
            schema_str = schema_text(args.schema)
            if args.clingo_file or args.show_clingo:
                from shaclex_ray.engine import compile_schema
                from shaclex_ray.shapes.clingo import validate_to_clingo
                from shaclex_ray.shapes.shapemap import parse_shapemap

                compiled = compile_schema("shex", schema_str)
                assocs = parse_shapemap(args.shapemap, compiled.get("prefixes"))
                program = validate_to_clingo(ds, compiled, assocs)
                if args.show_clingo:
                    print(program)
                if args.clingo_file:
                    with open(args.clingo_file, "w") as f:
                        f.write(program)
            typing, summary = validate_shex(
                ds, schema_str, args.shapemap, nbuckets=args.nbuckets
            )
            print(result_json(typing) if args.result_format == "json" else result_text(typing))
    elif args.cmd == "infer":
        from shaclex_ray.pipelines.infer import infer_schema
        from shaclex_ray.shapes.render import render_shexc

        ds = _load_triples_ds(args.data)
        rules = []
        if args.follow_defaults:
            from shaclex_ray.pipelines.infer import (
                follow_on_reference,
                follow_on_stem,
                follow_on_was_derived_from,
            )

            rules += [
                follow_on_reference,
                follow_on_was_derived_from,
                follow_on_stem("http://schema.org/"),
                follow_on_stem("http://www.w3.org/ns/td#"),
            ]
        if args.follow_stem:
            from shaclex_ray.pipelines.infer import follow_on_stem

            rules += [follow_on_stem(s) for s in args.follow_stem]
        schema, _stats = infer_schema(
            ds,
            focus_class=args.focus_class,
            follow_on=rules or None,
            max_follow_on=args.max_follow_on,
        )
        print(render_shexc(schema))
    elif args.cmd == "convert":
        from shaclex_ray.rdfio import parse_turtle
        from shaclex_ray.shapes.convert import shacl_to_shex, shex_to_shacl
        from shaclex_ray.shapes.render import render_shexc
        from shaclex_ray.shapes.shacl import compile_shacl
        from shaclex_ray.shapes.shexc import parse_shexc

        text = open(args.schema).read()
        if args.to == "shacl":
            import json as _json

            print(_json.dumps(shex_to_shacl(parse_shexc(text)), indent=1))
        elif args.to == "jsonschema":
            import json as _json

            from shaclex_ray.shapes.convert import shex_to_jsonschema

            print(_json.dumps(shex_to_jsonschema(parse_shexc(text)), indent=1))
        else:
            shex, selectors = shacl_to_shex(compile_shacl(parse_turtle(text)))
            print(render_shexc(shex))
            print("# query shapemap:", ", ".join(selectors))
    elif args.cmd == "kg":
        from shaclex_ray.pipelines.kg import run_kg_pipeline

        out = run_kg_pipeline(args.sf_dir, args.out)
        print(
            {
                "triples": out["triples"].count(),
                "links": out["links"].count(),
                "violations": out["report"].count() if "report" in out else None,
            }
        )
    elif args.cmd == "curate":
        from shaclex_ray.pipelines.curation import run_curation_pipeline

        out = run_curation_pipeline(
            args.sf_dir,
            args.out,
            capacity=args.capacity,
            substring_dedup=args.substring_dedup,
            substring_k=args.substring_k,
        )
        print({"kept": out["kept"], "chunks": out["chunks"]})
    elif args.cmd == "shextest":
        from shaclex_ray.conformance import load_shex_manifest, run_shex_case

        cases = load_shex_manifest(args.manifest)
        if args.name:
            cases = [c for c in cases if args.name in c["name"]]
        counts: dict[str, int] = {}
        for c in cases:
            st, detail = run_shex_case(c)
            counts[st] = counts.get(st, 0) + 1
            if args.name or st in ("fail", "error"):
                print(f"{c['name']}: {st}" + (f" ({detail})" if detail else ""))
        print({"entries": len(cases), **counts})
    elif args.cmd == "shell":
        from shaclex_ray.repl import run_repl

        run_repl()
    elif args.cmd == "query":
        import importlib.util as _ilu
        import os as _os

        spec = _ilu.spec_from_file_location(
            "_graft_entry",
            _os.path.join(_os.path.dirname(_os.path.dirname(__file__)), "__ray_entry__.py"),
        )
        mod = _ilu.module_from_spec(spec)
        spec.loader.exec_module(mod)
        qs = mod.queries()
        if args.list or not args.name:
            for name in sorted(qs):
                print(name)
        elif args.name not in qs:
            raise SystemExit(
                f"unknown pipeline {args.name!r}; use --list to enumerate"
            )
        else:
            res = qs[args.name](args.sf_dir)
            import pandas as _pd
            import pyarrow as _pa

            if args.out:
                if isinstance(res, _pa.Table):
                    import pyarrow.parquet as _pq

                    _os.makedirs(args.out, exist_ok=True)
                    _pq.write_table(res, f"{args.out}/part-0.parquet")
                    n = res.num_rows
                elif isinstance(res, _pd.DataFrame):
                    import pyarrow.parquet as _pq

                    _os.makedirs(args.out, exist_ok=True)
                    _pq.write_table(
                        _pa.Table.from_pandas(res, preserve_index=False),
                        f"{args.out}/part-0.parquet",
                    )
                    n = len(res)
                else:  # Ray Dataset: workers write their own shards
                    res.write_parquet(args.out)
                    n = None
                print({"written": args.out, "rows": n})
            else:
                if isinstance(res, _pa.Table):
                    df = res.to_pandas()
                elif isinstance(res, _pd.DataFrame):
                    df = res
                else:
                    df = res.limit(args.limit).to_pandas()
                print(df.head(args.limit).to_string())
    if owns_ray:
        ray.shutdown()


if __name__ == "__main__":
    main()
