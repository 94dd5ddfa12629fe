"""Compact ShapeMap parser + distributed focus resolution (SURVEY.md S7/J1).

Grammar subset per the reference's
doc/grammars/shapeMapGrammar.bnf:21-44 and ValidationTrigger.scala:45-95:

    shapeMap     ::= association (',' association)*
    association  ::= nodeSelector '@' shapeLabel
    nodeSelector ::= node | '{' 'FOCUS' pred obj '}' | '{' subj pred 'FOCUS' '}'
    node         ::= <iri> | prefixed:name | literal | _:bnode
    obj/subj     ::= node | '_'   (wildcard)

Selector resolution ("fixShapeMap", invoked at ShExSchema.scala:55) runs
in the validation buckets: the engine passes pattern associations as a
``("shex-patterns", …)`` focus lane and ``validate/dist._Bucket.derive_focus``
filters each bucket's arc index on the bound predicate/object (or
subject/predicate) and projects the FOCUS side.
"""

from __future__ import annotations

import re

from shaclex_ray.terms import RDF_TYPE, XSD_STRING

_TOK = re.compile(
    r"""
    \s+
  | (?P<iriref><[^<>\s]*>)
  | (?P<str>"(?:[^"\\]|\\.)*"(?:@[a-zA-Z-]+|\^\^(?:<[^<>\s]*>|[\w.\-]*:[\w.\-]*))?)
  | (?P<bnode>_:[\w.\-]+)
  | (?P<keyword>FOCUS|START|a)
  | (?P<punct>[{}@,])
  | (?P<wild>_\b)
  | (?P<pname>[\w.\-]*:[\w.\-]*)
    """,
    re.VERBOSE,
)


class ShapeMapError(ValueError):
    pass


def _tokens(s: str):
    pos = 0
    out = []
    while pos < len(s):
        m = _TOK.match(s, pos)
        if not m:
            raise ShapeMapError(f"bad shapemap at {s[pos:pos+30]!r}")
        if m.lastgroup:
            out.append((m.lastgroup, m.group()))
        pos = m.end()
    return out


def parse_shapemap(text: str, prefixes: dict[str, str] | None = None) -> list[dict]:
    """-> list of associations:
    {"kind": "node"|"focus_obj"|"focus_subj", ...fields..., "shape": label}"""
    prefixes = prefixes or {}
    toks = _tokens(text)
    i = 0

    def term(tok):
        k, v = tok
        if k == "iriref":
            return ("iri", v[1:-1])
        if k == "bnode":
            return ("bnode", v[2:])
        if k == "pname":
            pfx, _, local = v.partition(":")
            if pfx not in prefixes:
                raise ShapeMapError(f"undefined prefix {pfx!r}")
            return ("iri", prefixes[pfx] + local)
        if k == "keyword" and v == "a":
            return ("iri", RDF_TYPE)
        if k == "str":
            m = re.match(r'"((?:[^"\\]|\\.)*)"(?:@([a-zA-Z-]+)|\^\^(.*))?$', v)
            lex = m.group(1).replace('\\"', '"')
            if m.group(2):
                return ("lit", lex, "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString", m.group(2).lower())
            if m.group(3):
                dt = m.group(3)
                if dt.startswith("<"):
                    dt = dt[1:-1]
                else:
                    pfx, _, local = dt.partition(":")
                    dt = prefixes.get(pfx, pfx + ":") + local
                return ("lit", lex, dt, "")
            return ("lit", lex, XSD_STRING, "")
        raise ShapeMapError(f"bad node {v!r}")

    out = []
    while i < len(toks):
        k, v = toks[i]
        if v == ",":
            i += 1
            continue
        if v == "{":
            # triple pattern
            parts = []
            i += 1
            while toks[i][1] != "}":
                parts.append(toks[i])
                i += 1
            i += 1  # }
            if len(parts) != 3:
                raise ShapeMapError("triple pattern needs 3 parts")
            if parts[0][1] == "FOCUS":
                pred = term(parts[1])
                assoc = {"kind": "focus_subj", "pred": pred[1]}
                if parts[2][0] == "wild" or parts[2][1] == "_":
                    assoc["obj"] = None
                else:
                    assoc["obj"] = term(parts[2])
            elif parts[2][1] == "FOCUS":
                pred = term(parts[1])
                assoc = {"kind": "focus_obj", "pred": pred[1]}
                if parts[0][0] == "wild" or parts[0][1] == "_":
                    assoc["subj"] = None
                else:
                    assoc["subj"] = term(parts[0])
            else:
                raise ShapeMapError("pattern must contain FOCUS")
            i -= 1  # compensate the shared post-selector advance below
        elif k == "keyword" and v == "START":
            assoc = {"kind": "node", "node": None}
        else:
            assoc = {"kind": "node", "node": term(toks[i])}
        i += 1
        if toks[i][1] != "@":
            raise ShapeMapError(f"expected @ got {toks[i][1]!r}")
        i += 1
        k2, v2 = toks[i]
        i += 1
        if k2 == "keyword" and v2 == "START":
            shape = "START"
        else:
            shape = term((k2, v2))
            shape = ("_:" + shape[1]) if shape[0] == "bnode" else shape[1]
        assoc["shape"] = shape
        out.append(assoc)
    return out
