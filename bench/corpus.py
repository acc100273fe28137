"""Exact-shape input corpora for the benchmark.

Every count here is fixed; the seed only changes the choices (which class a
resource gets, which literal a triple uses, which resource an edge points
at). The Turtle is written by this module, within the subset described in
docs/turtle-grammar.md, and not by rdfpg's own serializer, so the inputs
stay the same when the serializer changes.

Shapes:
  dep-large    RDF schema of 20 classes and 40 properties (20 with one of
               the 8 supported XSD datatypes as range, 20 with a class
               range) plus an instance of exactly 2,000 typed resources,
               3,000 datatype triples and 3,000 object triples.
  indep-multi  schema-less graph of exactly 1,250 resources (20% untyped),
               1,000 distinct literals (10% with custom datatypes) shared
               between subjects, 2,000 datatype triples with multi-valued
               properties and 2,000 object triples.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
VOC_NS = "http://bench.example.org/voc/"
DATA_NS = "http://bench.example.org/data/"
DT_NS = "http://bench.example.org/datatype/"

PREFIXES = {
    "rdf": RDF_NS, "rdfs": RDFS_NS, "xsd": XSD_NS, "voc": VOC_NS, "ex": DATA_NS, "dt": DT_NS,
}

XSD_DATATYPES = tuple(
    XSD_NS + name
    for name in ("string", "integer", "int", "decimal", "double", "boolean", "date", "dateTime")
)
# Custom datatypes for the schema-independent corpus. The last one has a dot
# in its tail, so it cannot be written as a prefixed name.
CUSTOM_DATATYPES = (DT_NS + "temperature", DT_NS + "colour", "http://units.example.net/si#kg.v2")

RDF_TYPE = RDF_NS + "type"

# Fixed shape of each corpus.
DEP_CLASSES = 20
DEP_DATATYPE_PROPERTIES = 20
DEP_OBJECT_PROPERTIES = 20
DEP_RESOURCES = 2_000
# Classes 0-9 are the domain of two datatype properties each; their
# resources carry both values. Classes 10-19 carry none. 1,500 x 2 = 3,000
# datatype triples, i.e. 1.5 per resource on average.
DEP_RICH_CLASSES = 10
DEP_RICH_RESOURCES = 1_500
DEP_OBJECT_TRIPLES = 3_000

INDEP_RESOURCES = 1_250
INDEP_TYPED = 1_000
INDEP_CLASSES = 20
INDEP_PROPERTIES = 12
INDEP_LITERALS = 1_000
INDEP_CUSTOM_LITERALS = 100
INDEP_DATATYPE_TRIPLES = 2_000
INDEP_OBJECT_TRIPLES = 2_000

# Share of resource IRIs with a dot in their tail, written as <full> IRIs.
DOTTED_SHARE = 10

_WORDS = ("alpha", "beta gamma", "Tesla, Inc.", "line\nbreak", "tab\tstop", 'say "hi"',
          "back\\slash", "ünïcødé ✓", "carriage\rreturn", "", "46", "x" * 40)


@dataclass(frozen=True)
class Corpus:
    """Files of one workload input plus the counts they were built to."""

    files: dict[str, str]  # file name -> Turtle text
    counts: dict[str, int]


def _name(text: str) -> bool:
    return bool(text) and (text[0].isascii() and (text[0].isalpha() or text[0] == "_")) and all(
        c.isascii() and (c.isalnum() or c in "_-") for c in text
    )


def _iri(iri: str) -> str:
    best = None
    for prefix, ns in PREFIXES.items():
        if iri.startswith(ns) and _name(iri[len(ns):]):
            if best is None or len(ns) > len(PREFIXES[best]):
                best = prefix
    if best is None:
        return f"<{iri}>"
    return f"{best}:{iri[len(PREFIXES[best]):]}"


def _escape(lexical: str) -> str:
    out = []
    for c in lexical:
        if c == "\\":
            out.append("\\\\")
        elif c == '"':
            out.append('\\"')
        elif c == "\n":
            out.append("\\n")
        elif c == "\r":
            out.append("\\r")
        elif c == "\t":
            out.append("\\t")
        elif ord(c) > 0x7F and ord(c) % 2:
            # Half of the non-ASCII characters go through \u escapes, the
            # rest pass raw in UTF-8; both are in the grammar.
            out.append(f"\\u{ord(c):04X}")
        else:
            out.append(c)
    return '"' + "".join(out) + '"'


def _object(obj) -> str:
    if isinstance(obj, tuple):
        lexical, datatype = obj
        if datatype == XSD_NS + "string":
            return _escape(lexical)
        return f"{_escape(lexical)}^^{_iri(datatype)}"
    return _iri(obj)


def write_turtle(triples: list[tuple[str, str, object]], header: str) -> str:
    """Turtle text for `triples` (subject, predicate, object) in the given
    subject order. Objects are IRI strings or (lexical, datatype) pairs."""
    groups: dict[str, dict[str, list]] = {}
    for s, p, o in triples:
        groups.setdefault(s, {}).setdefault(p, []).append(o)
    lines = [f"# {header}"]
    for prefix in sorted(PREFIXES):
        lines.append(f"@prefix {prefix}: <{PREFIXES[prefix]}> .")
    lines.append("")
    for s, by_predicate in groups.items():
        parts = []
        for p, objects in by_predicate.items():
            verb = "a" if p == RDF_TYPE else _iri(p)
            parts.append(f"{verb} " + " , ".join(_object(o) for o in objects))
        lines.append(f"{_iri(s)} " + " ;\n    ".join(parts) + " .")
    return "\n".join(lines) + "\n"


def _lexical(rng: random.Random, datatype: str) -> str:
    kind = datatype[len(XSD_NS):] if datatype.startswith(XSD_NS) else "custom"
    if kind == "string":
        return f"{rng.choice(_WORDS)} {rng.randrange(1000)}"
    if kind in ("integer", "int"):
        return str(rng.randint(-100_000, 100_000))
    if kind == "decimal":
        return f"{rng.randint(-999, 999)}.{rng.randrange(100):02d}"
    if kind == "double":
        return f"{rng.randint(-9, 9)}.{rng.randrange(1000):03d}E{rng.randint(-9, 9)}"
    if kind == "boolean":
        return rng.choice(("true", "false"))
    if kind in ("date", "dateTime"):
        day = f"{1990 + rng.randrange(40):04d}-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}"
        if kind == "date":
            return day
        return f"{day}T{rng.randrange(24):02d}:{rng.randrange(60):02d}:{rng.randrange(60):02d}"
    return f"v{rng.randrange(100_000)}"


def _resource_iris(count: int) -> list[str]:
    return [
        DATA_NS + (f"item.{i}" if i % DOTTED_SHARE == 0 else f"r{i}") for i in range(count)
    ]


def _distinct_edges(rng, count, pick) -> list[tuple[str, str, str]]:
    """`count` distinct (s, p, o) triples drawn by `pick(rng)`."""
    seen: set[tuple[str, str, str]] = set()
    edges = []
    while len(edges) < count:
        edge = pick(rng)
        if edge not in seen:
            seen.add(edge)
            edges.append(edge)
    return edges


def dep_large(seed: int) -> Corpus:
    rng = random.Random(f"dep-large:{seed}")
    classes = [VOC_NS + f"Class{i}" for i in range(DEP_CLASSES)]
    schema: list[tuple[str, str, object]] = [(c, RDF_TYPE, RDFS_NS + "Class") for c in classes]
    datatype_props = []
    for i in range(DEP_DATATYPE_PROPERTIES):
        prop = VOC_NS + f"value{i}"
        domain = classes[i % DEP_RICH_CLASSES]
        range_ = XSD_DATATYPES[i % len(XSD_DATATYPES)]
        datatype_props.append((prop, domain, range_))
    object_props = []
    for i in range(DEP_OBJECT_PROPERTIES):
        prop = VOC_NS + f"link{i}"
        object_props.append((prop, classes[i], classes[rng.randrange(DEP_CLASSES)]))
    for prop, domain, range_ in datatype_props + object_props:
        schema += [(prop, RDF_TYPE, RDF_NS + "Property"),
                   (prop, RDFS_NS + "domain", domain), (prop, RDFS_NS + "range", range_)]

    iris = _resource_iris(DEP_RESOURCES)
    rng.shuffle(iris)
    members: dict[str, list[str]] = {c: [] for c in classes}
    rich = DEP_RICH_RESOURCES // DEP_RICH_CLASSES
    poor = (DEP_RESOURCES - DEP_RICH_RESOURCES) // (DEP_CLASSES - DEP_RICH_CLASSES)
    position = 0
    for index, cls in enumerate(classes):
        size = rich if index < DEP_RICH_CLASSES else poor
        members[cls] = iris[position:position + size]
        position += size
    assert position == DEP_RESOURCES

    instance: list[tuple[str, str, object]] = []
    for cls in classes:
        for r in members[cls]:
            instance.append((r, RDF_TYPE, cls))
    for prop, domain, range_ in datatype_props:
        for r in members[domain]:
            instance.append((r, prop, (_lexical(rng, range_), range_)))

    def pick(rng):
        prop, domain, range_ = object_props[rng.randrange(len(object_props))]
        return (rng.choice(members[domain]), prop, rng.choice(members[range_]))

    instance += _distinct_edges(rng, DEP_OBJECT_TRIPLES, pick)
    # Group by subject in a seeded order, so ',' and ';' lists both occur.
    order = {r: i for i, r in enumerate(iris)}
    instance.sort(key=lambda t: order[t[0]])
    datatype_triples = DEP_RICH_RESOURCES * 2
    return Corpus(
        files={
            "schema.ttl": write_turtle(schema, f"dep-large schema, seed {seed}"),
            "instance.ttl": write_turtle(instance, f"dep-large instance, seed {seed}"),
        },
        counts={
            "schema_triples": len(schema),
            "instance_triples": DEP_RESOURCES + datatype_triples + DEP_OBJECT_TRIPLES,
            "resources": DEP_RESOURCES,
            "pg_nodes": DEP_RESOURCES,
            "pg_edges": DEP_OBJECT_TRIPLES,
            "pg_properties": DEP_RESOURCES + datatype_triples,
        },
    )


def indep_multi(seed: int) -> Corpus:
    rng = random.Random(f"indep-multi:{seed}")
    classes = [VOC_NS + f"Kind{i}" for i in range(INDEP_CLASSES)]
    props = [VOC_NS + f"attr{i}" for i in range(INDEP_PROPERTIES)]
    iris = _resource_iris(INDEP_RESOURCES)
    rng.shuffle(iris)
    typed, untyped = iris[:INDEP_TYPED], iris[INDEP_TYPED:]

    literals: list[tuple[str, str]] = []
    seen_literals: set[tuple[str, str]] = set()
    while len(literals) < INDEP_LITERALS:
        if len(literals) < INDEP_CUSTOM_LITERALS:
            datatype = CUSTOM_DATATYPES[len(literals) % len(CUSTOM_DATATYPES)]
        else:
            datatype = XSD_DATATYPES[rng.randrange(len(XSD_DATATYPES))]
        literal = (_lexical(rng, datatype), datatype)
        if literal not in seen_literals:
            seen_literals.add(literal)
            literals.append(literal)

    triples: list[tuple[str, str, object]] = [(r, RDF_TYPE, rng.choice(classes)) for r in typed]
    # Every literal and every untyped resource appears at least once, so the
    # node counts are exact; the remaining datatype triples reuse literals
    # (sharing) and (subject, property) pairs (multi-valued properties).
    required = [(untyped[i % len(untyped)], literal) for i, literal in enumerate(literals)]
    seen: set[tuple[str, str, object]] = set()
    datatype_triples = []
    for subject, literal in required:
        triple = (subject, rng.choice(props), literal)
        seen.add(triple)
        datatype_triples.append(triple)

    def pick_datatype(rng):
        if rng.random() < 0.5 and datatype_triples:
            s, p, _ = datatype_triples[rng.randrange(len(datatype_triples))]
            return (s, p, literals[rng.randrange(len(literals))])
        return (rng.choice(iris), rng.choice(props), literals[rng.randrange(len(literals))])

    while len(datatype_triples) < INDEP_DATATYPE_TRIPLES:
        triple = pick_datatype(rng)
        if triple not in seen:
            seen.add(triple)
            datatype_triples.append(triple)

    def pick_object(rng):
        return (rng.choice(iris), rng.choice(props), rng.choice(iris))

    triples += datatype_triples + _distinct_edges(rng, INDEP_OBJECT_TRIPLES, pick_object)
    order = {r: i for i, r in enumerate(iris)}
    triples.sort(key=lambda t: order[t[0]])
    nodes = INDEP_RESOURCES + INDEP_LITERALS
    edges = INDEP_DATATYPE_TRIPLES + INDEP_OBJECT_TRIPLES
    return Corpus(
        files={"instance.ttl": write_turtle(triples, f"indep-multi instance, seed {seed}")},
        counts={
            "instance_triples": INDEP_TYPED + edges,
            "resources": INDEP_RESOURCES,
            "literals": INDEP_LITERALS,
            "pg_nodes": nodes,
            "pg_edges": edges,
            # Resources carry iri and type, literals value and type, edges type.
            "pg_properties": 2 * nodes + edges,
        },
    )


BUILDERS = {"dep-large": dep_large, "indep-multi": indep_multi}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
