"""Full distributed-validator conformance sweep: every applicable
shexTest entry (zero skips) and every runnable SHACL fixture through
distributed_validate, verdicts vs expected / local report multisets.
Run per-round: `python tools/dist_sweep.py > /tmp/dist_sweep_rN.log`."""
import json, os, sys
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import pyarrow as pa
import ray
import ray.data as rd
if not ray.is_initialized():
    ray.init(address="local", num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "16")), include_dashboard=False,
         logging_level="ERROR", log_to_driver=False)

from shaclex_ray.conformance import (
    MF, RDF_TYPE, SHT2, SKIP_TRAITS, _index, _iri_to_path,
    load_shacl_cases, load_shex_manifest,
)
from shaclex_ray.rdfio import parse_turtle
from shaclex_ray.shapes.shacl import compile_shacl
from shaclex_ray.shapes.shexj import load_shexj_file
from shaclex_ray.terms import term_key, triples_to_table
from shaclex_ray.validate.dist import distributed_validate
from shaclex_ray.validate.local import Graph
from shaclex_ray.validate.shacl_local import ShaclValidator

checked = mismatched = skipped = 0
for c in load_shex_manifest():
    err = ""  # reset per case — a stale err must not be attributed to a later mismatch
    if c["traits"] & SKIP_TRAITS or (c["map"] is None and c["focus"] is None):
        skipped += 1
        continue
    sp, dp = _iri_to_path(c["schema"]), _iri_to_path(c["data"])
    if sp is None or dp is None:
        skipped += 1
        continue
    jp = os.path.splitext(sp)[0] + ".json"
    if not os.path.exists(jp):
        skipped += 1
        continue
    try:
        schema = load_shexj_file(jp, base=c["schema"][1])
        if "http://www.w3.org/ns/shacl/test-suite#Greedy" in c["traits"]:
            schema["_matching"] = "greedy"
        if c.get("externs") is not None:
            ep = _iri_to_path(c["externs"])
            ej = os.path.splitext(ep)[0] + ".jsontern"
            if not os.path.exists(ej):
                skipped += 1
                continue
            schema["externs"] = load_shexj_file(ej, base=c["externs"][1])
        data = parse_turtle(open(dp, newline="").read(), base=c["data"][1])
        ds = rd.from_arrow(triples_to_table(data))
        if c["map"] is not None:
            mp = _iri_to_path(c["map"])
            if mp is None or not os.path.exists(mp):
                skipped += 1
                continue
            assocs = json.loads(open(mp).read())
            nodes = [term_key(("iri", a["node"])) for a in assocs]
            shapes = [a["shape"] for a in assocs]
            focus = pa.table({"node": nodes, "shape": shapes})
            typing, _ = distributed_validate(ds, "shex", schema, focus,
                                             nbuckets=4, include_inverse=True)
            got = {}
            for i in range(typing.num_rows):
                if typing.column("is_focus")[i].as_py():
                    got[(typing.column("node")[i].as_py(),
                         typing.column("shape")[i].as_py())] = (
                        typing.column("val")[i].as_py() == "conforms")
            rp = _iri_to_path(c["result"])
            ok = True
            if rp is not None and os.path.exists(rp):
                expected = json.loads(open(rp).read())
                for n, entries in expected.items():
                    nk = term_key(("iri", n))
                    for e in entries:
                        if got.get((nk, e["shape"])) != bool(e["result"]):
                            ok = False
            else:
                # empty typing (no focus rows back) is a FAILURE, not a
                # vacuous pass — all({}) is True and would mask a
                # validator that returns nothing
                ok = bool(got) and all(got.values()) == c["expected"]
        else:
            shape = None
            if c["shape"]:
                shape = ("_:" + c["shape"][1]) if c["shape"][0] == "bnode" else c["shape"][1]
            focus = pa.table({"node": [term_key(c["focus"])], "shape": [shape or "START"]})
            typing, _ = distributed_validate(ds, "shex", schema, focus,
                                             nbuckets=4, include_inverse=True)
            got_v = None
            for i in range(typing.num_rows):
                if typing.column("is_focus")[i].as_py():
                    got_v = typing.column("val")[i].as_py() == "conforms"
            ok = got_v == c["expected"]
    except Exception as e:
        ok = False
        err = f"{type(e).__name__}: {e}"
    checked += 1
    if not ok:
        mismatched += 1
        print("  MISMATCH", c["name"], err)
print(f"SHEX DIST SWEEP: checked={checked} mismatched={mismatched} skipped={skipped}")

# ------------------------------------------------------------- SHACL
checked = mismatched = skipped = 0
for f in load_shacl_cases():
    if "complex" in f:
        skipped += 1
        continue
    doc_iri = "file://" + f[:-4]
    triples = parse_turtle(open(f, newline="").read(), base=doc_iri)
    spo = _index(triples)
    has_entry = any(
        SHT2 + "Validate" in [o[1] for o in po.get(RDF_TYPE, []) if o[0] == "iri"]
        and po.get(MF + "result")
        for s, po in spo.items()
    )
    ext = any(
        spo.get(a, {}).get(SHT2 + "dataGraph", [("iri", doc_iri)])[0][1] != doc_iri
        for s, po in spo.items()
        for a in po.get(MF + "action", [])
    )
    if not has_entry or ext:
        skipped += 1
        continue
    try:
        lv = ShaclValidator(compile_shacl(triples), Graph(triples))
        lconf, lres = lv.validate_all()
        lset = sorted((r["focus"], r["component"]) for r in lres)
        ds = rd.from_arrow(triples_to_table(triples))
        schema2 = compile_shacl(triples)
        _typing, rep = distributed_validate(ds, "shacl", schema2, "shacl-targets",
                                            nbuckets=4, include_inverse=True)
        dset = sorted(zip(rep.column("focus_node").to_pylist(),
                          rep.column("component").to_pylist()))
        ok = (lconf, lset) == (rep.num_rows == 0, dset)
    except Exception as e:
        ok = False
        print("  ERROR", f, f"{type(e).__name__}: {e}")
    checked += 1
    if not ok:
        mismatched += 1
        print("  MISMATCH", f)
print(f"SHACL DIST SWEEP: checked={checked} mismatched={mismatched} skipped={skipped}")
ray.shutdown()
