"""RDF term model and Arrow schemas for the triple table.

Re-expresses the reference's term sum type (IRI | BNode | Literal with
lexical form / datatype / language — see weso/shaclex
modules/sgraph/src/main/scala/es.weso.rdf.sgraph/Node.scala:9-27 and the
pattern matches in modules/schemaInfer/.../SchemaInfer.scala:355-365) as

  * a lightweight Python representation for driver-side parsing and the
    in-memory conformance validator: plain tuples
        ("iri", value)
        ("bnode", id)
        ("lit", lexical_form, datatype_iri, lang_tag)
  * a columnar Arrow representation for the distributed triple table:
        subj: string        (IRI, or "_:<id>" for bnodes)
        pred: string
        obj_kind: string    ("iri" | "bnode" | "literal")
        obj_lex: string
        obj_dt: string      (datatype IRI; "" for iri/bnode)
        obj_lang: string    (language tag or "")
        doc_id: string      (lineage)
        span_idx: int32     (lineage)

A *term key* is a single-string order-stable encoding of a term used as a
join / set / typing-table key:  "I<iri>", "B<id>", "L<lex>\\x1f<dt>\\x1f<lang>".
It is deterministic and collision-free (0x1f never appears in IRIs and is
vanishingly rare in literals; the kind prefix disambiguates).
"""

from __future__ import annotations

import pyarrow as pa

XSD = "http://www.w3.org/2001/XMLSchema#"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
SH = "http://www.w3.org/ns/shacl#"
XSD_STRING = XSD + "string"
XSD_INTEGER = XSD + "integer"
XSD_DECIMAL = XSD + "decimal"
XSD_DOUBLE = XSD + "double"
XSD_FLOAT = XSD + "float"
XSD_BOOLEAN = XSD + "boolean"
XSD_DATE = XSD + "date"
XSD_DATETIME = XSD + "dateTime"
RDF_TYPE = RDF + "type"
RDF_LANGSTRING = RDF + "langString"
RDF_FIRST = RDF + "first"
RDF_REST = RDF + "rest"
RDF_NIL = RDF + "nil"

SEP = "\x1f"

# ---------------------------------------------------------------------------
# Python-side term constructors (tuples keep parsing/validation allocation-light)

def iri(value: str) -> tuple:
    return ("iri", value)


def bnode(ident: str) -> tuple:
    return ("bnode", ident)


def literal(lex: str, dt: str = XSD_STRING, lang: str = "") -> tuple:
    if lang:
        dt = RDF_LANGSTRING
    return ("lit", lex, dt, lang)


def is_iri(t: tuple) -> bool:
    return t[0] == "iri"


def is_bnode(t: tuple) -> bool:
    return t[0] == "bnode"


def is_literal(t: tuple) -> bool:
    return t[0] == "lit"


# ---------------------------------------------------------------------------
# Term keys (single-string encoding)

def term_key(t: tuple) -> str:
    k = t[0]
    if k == "iri":
        return "I" + t[1]
    if k == "bnode":
        return "B" + t[1]
    return "L" + t[1] + SEP + t[2] + SEP + t[3]


def key_to_term(key: str) -> tuple:
    c = key[0]
    if c == "I":
        return ("iri", key[1:])
    if c == "B":
        return ("bnode", key[1:])
    # rsplit: the lexical form may itself contain SEP (control chars are
    # legal in literals — shexTest STRING_LITERAL1_with_all_controls);
    # datatype IRIs and language tags never do
    lex, dt, lang = key[1:].rsplit(SEP, 2)
    return ("lit", lex, dt, lang)


def subj_str(t: tuple) -> str:
    """Subject-column encoding: IRIs plain, bnodes '_:'-prefixed."""
    if t[0] == "iri":
        return t[1]
    if t[0] == "bnode":
        return "_:" + t[1]
    raise ValueError(f"literal cannot be a subject: {t!r}")


def subj_to_key(s: str) -> str:
    """Subject-column string -> term key."""
    if s.startswith("_:"):
        return "B" + s[2:]
    return "I" + s


def obj_cols(t: tuple) -> tuple[str, str, str, str]:
    """Term -> (obj_kind, obj_lex, obj_dt, obj_lang) column values."""
    k = t[0]
    if k == "iri":
        return ("iri", t[1], "", "")
    if k == "bnode":
        return ("bnode", t[1], "", "")
    return ("literal", t[1], t[2], t[3])


def obj_key(kind: str, lex: str, dt: str, lang: str) -> str:
    """Object columns -> term key."""
    if kind == "iri":
        return "I" + lex
    if kind == "bnode":
        return "B" + lex
    return "L" + lex + SEP + dt + SEP + lang


def cols_to_term(kind: str, lex: str, dt: str, lang: str) -> tuple:
    if kind == "iri":
        return ("iri", lex)
    if kind == "bnode":
        return ("bnode", lex)
    return ("lit", lex, dt, lang)


def term_str(t: tuple) -> str:
    """Human-readable / N-Triples-ish rendering (for reports and debug)."""
    k = t[0]
    if k == "iri":
        return f"<{t[1]}>"
    if k == "bnode":
        return "_:" + t[1]
    lex = t[1].replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    if t[3]:
        return f'"{lex}"@{t[3]}'
    if t[2] and t[2] != XSD_STRING:
        return f'"{lex}"^^<{t[2]}>'
    return f'"{lex}"'


# ---------------------------------------------------------------------------
# Arrow schemas

TRIPLES_SCHEMA = pa.schema(
    [
        pa.field("subj", pa.string()),
        pa.field("pred", pa.string()),
        pa.field("obj_kind", pa.string()),
        pa.field("obj_lex", pa.string()),
        pa.field("obj_dt", pa.string()),
        pa.field("obj_lang", pa.string()),
        pa.field("doc_id", pa.string()),
        pa.field("span_idx", pa.int32()),
    ]
)

# distinct-triple identity (reference: RDF graphs are sets — Jena Model set
# semantics; SURVEY.md G10)
TRIPLE_ID_COLS = ["subj", "pred", "obj_kind", "obj_lex", "obj_dt", "obj_lang"]

DOCUMENTS_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field(
            "spans",
            pa.list_(
                pa.struct(
                    [
                        pa.field("kind", pa.string()),
                        pa.field("text", pa.string()),
                        pa.field("media_ref", pa.string()),
                        pa.field("offset", pa.int32()),
                    ]
                )
            ),
        ),
    ]
)

TYPING_SCHEMA = pa.schema(
    [
        pa.field("node", pa.string()),  # term key
        pa.field("shape", pa.string()),
        pa.field("val", pa.string()),  # conforms | notConforms | unknown | error:…
        pa.field("is_focus", pa.bool_()),
    ]
)

REPORT_SCHEMA = pa.schema(
    [
        pa.field("focus_node", pa.string()),  # term key
        pa.field("path", pa.string()),
        pa.field("value_lex", pa.string()),
        pa.field("source_shape", pa.string()),
        pa.field("component", pa.string()),
        pa.field("severity", pa.string()),
        pa.field("message", pa.string()),
    ]
)


def triples_to_table(
    triples, doc_id: str = "", span_idx: int = -1
) -> pa.Table:
    """List of (s, p, o) python-term triples -> Arrow triple table."""
    subj, pred, okind, olex, odt, olang, docs, spans = [], [], [], [], [], [], [], []
    for s, p, o in triples:
        subj.append(subj_str(s))
        pred.append(p[1] if isinstance(p, tuple) else p)
        k, lx, dt, lg = obj_cols(o)
        okind.append(k)
        olex.append(lx)
        odt.append(dt)
        olang.append(lg)
        docs.append(doc_id)
        spans.append(span_idx)
    return pa.table(
        {
            "subj": pa.array(subj, pa.string()),
            "pred": pa.array(pred, pa.string()),
            "obj_kind": pa.array(okind, pa.string()),
            "obj_lex": pa.array(olex, pa.string()),
            "obj_dt": pa.array(odt, pa.string()),
            "obj_lang": pa.array(olang, pa.string()),
            "doc_id": pa.array(docs, pa.string()),
            "span_idx": pa.array(spans, pa.int32()),
        }
    )


def table_to_triples(tbl: pa.Table) -> list:
    """Arrow triple table -> list of (s, p, o) python-term triples."""
    out = []
    d = tbl.to_pydict()
    for i in range(tbl.num_rows):
        s = d["subj"][i]
        sterm = ("bnode", s[2:]) if s.startswith("_:") else ("iri", s)
        o = cols_to_term(d["obj_kind"][i], d["obj_lex"][i], d["obj_dt"][i], d["obj_lang"][i])
        out.append((sterm, d["pred"][i], o))
    return out
