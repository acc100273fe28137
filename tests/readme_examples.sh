#!/usr/bin/env bash
# README examples through the `rdfpg` command on PATH, on the bundled example:
# runs each command and checks every exit code, that a refusal writes no
# file, and that re-laid inputs give the same outputs.
#
# Usage: run from an empty directory, which receives every file the examples
# write; the bundled data is read next to this script:
#   mkdir -p /tmp/readme-examples && cd /tmp/readme-examples
#   bash /path/to/tests/readme_examples.sh
# `rdfpg` is the console script `pip install .` creates; `python` must import
# the same rdfpg.
set -eo pipefail
data="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/data"
expect() {
  want="$1"; shift
  got=0; "$@" || got=$?
  if [ "$got" -ne "$want" ]; then echo "exit $got, expected $want: $*"; exit 1; fi
}
# A refusal: the command exits 2 and leaves no file at any path it was given
# with an --out-* option.
refused() {
  expect 2 "$@"
  option=
  for arg in "$@"; do
    case "$option" in
      --out-*) if [ -e "$arg" ]; then echo "refused, yet $arg exists: $*"; exit 1; fi ;;
    esac
    option="$arg"
  done
}
expect 0 rdfpg convert --mode dep --rdf "$data/org-instance.ttl" --schema "$data/org-schema.ttl" \
  --out-pg pg.json --out-pg-schema pg-schema.json
expect 0 rdfpg invert --mode dep --pg pg.json --pg-schema pg-schema.json \
  --out-rdf back.ttl --out-rdf-schema back-schema.ttl
expect 0 rdfpg validate rdf --rdf back.ttl --schema back-schema.ttl
expect 0 rdfpg validate pg --pg pg.json --pg-schema pg-schema.json
# Any valid layout of a PG document reads the same: the dep output with its
# elements reversed, every object's keys reversed, written compact.
python -c '
import json
with open("pg.json") as f:
    doc = json.load(f)
def relaid(value):
    if isinstance(value, dict):
        return {k: relaid(v) for k, v in reversed(list(value.items()))}
    if isinstance(value, list):
        return [relaid(v) for v in reversed(value)]
    return value
with open("pg-relaid.json", "w") as f:
    f.write(json.dumps(relaid(doc), separators=(",", ":"), ensure_ascii=False))
'
expect 0 rdfpg invert --mode dep --pg pg-relaid.json --pg-schema pg-schema.json \
  --out-rdf relaid-back.ttl --out-rdf-schema relaid-back-schema.ttl
cmp back.ttl relaid-back.ttl
cmp back-schema.ttl relaid-back-schema.ttl
# A PG document may start with a UTF-8 byte order mark: it reads as without one.
for f in pg pg-schema; do printf '\357\273\277' | cat - "$f.json" > "bom-$f.json"; done
expect 0 rdfpg invert --mode dep --pg bom-pg.json --pg-schema bom-pg-schema.json \
  --out-rdf bom-back.ttl --out-rdf-schema bom-back-schema.ttl
cmp back.ttl bom-back.ttl
cmp back-schema.ttl bom-back-schema.ttl
# Two outputs on one file are refused: exit 2, no file written.
refused rdfpg convert --mode dep --rdf "$data/org-instance.ttl" --schema "$data/org-schema.ttl" \
  --out-pg same.json --out-pg-schema same.json
# ... and refused before any input is read: a missing input is not reached.
refused rdfpg convert --mode indep --rdf absent.ttl --out-pg same.json --out-pg-schema ./same.json \
  2> same.err
grep -qx "error: same.json: given for two outputs; each output needs its own file" same.err \
  || { cat same.err; exit 1; }
# An output that names a directory is refused before any input is read: exit 2,
# the other output is not written and the directory is left as it was.
mkdir outdir
expect 2 rdfpg convert --mode indep --rdf absent.ttl --out-pg dir-pg.json --out-pg-schema outdir \
  2> outdir.err
test ! -e dir-pg.json
test -z "$(ls -A outdir)"
grep -qx "error: outdir: is a directory; each output needs a file" outdir.err \
  || { cat outdir.err; exit 1; }
expect 2 rdfpg convert --mode dep --rdf "$data/org-instance.ttl" --schema "$data/org-schema.ttl" \
  --out-pg dir-pg.json --out-pg-schema outdir
test ! -e dir-pg.json
# So is an output that is not a regular file, such as a FIFO, which stays a
# FIFO, and an output whose directory does not exist.
mkfifo fifo
expect 2 rdfpg convert --mode indep --rdf "$data/org-instance.ttl" --out-pg fifo \
  --out-pg-schema fifo-generic.json 2> fifo.err
test -p fifo
test ! -e fifo-generic.json
grep -qx "error: fifo: is not a regular file; each output needs a file" fifo.err \
  || { cat fifo.err; exit 1; }
rm fifo
refused rdfpg convert --mode indep --rdf "$data/org-instance.ttl" --out-pg nodir/pg.json \
  --out-pg-schema nodir-generic.json 2> nodir.err
grep -qx "error: nodir/pg.json: its directory does not exist" nodir.err \
  || { cat nodir.err; exit 1; }
expect 0 rdfpg convert --mode indep --rdf "$data/org-instance.ttl" \
  --out-pg indep-pg.json --out-pg-schema generic.json
expect 0 rdfpg invert --mode indep --pg indep-pg.json --out-rdf indep-back.ttl
expect 0 rdfpg invert --mode indep --pg indep-pg.json --pg-schema generic.json \
  --out-rdf indep-back.ttl
rm indep-back.ttl
# Any valid Turtle layout converts the same: the instance re-laid with one
# triple per statement in reverse order, full IRIs, comments and tabs, and
# a comment line between each string and its ^^.
python -c '
import json, sys
from rdfpg import Literal, parse_turtle
with open(sys.argv[1], encoding="utf-8") as f:
    triples = sorted(parse_turtle(f.read()), reverse=True)
with open("relaid.ttl", "w", encoding="utf-8") as f:
    f.write("# one triple per statement\n")
    for s, p, o in triples:
        if isinstance(o, Literal):
            o = json.dumps(o.lexical, ensure_ascii=False) + " # comment\n ^^\t# its datatype\n\t<" + o.datatype.value + ">"
        else:
            o = "<" + o.value + ">"
        f.write("<" + s.value + ">\t<" + p.value + "> # the predicate\n\t" + o + "\t.\n")
' "$data/org-instance.ttl"
expect 0 rdfpg convert --mode dep --rdf relaid.ttl --schema "$data/org-schema.ttl" \
  --out-pg relaid-pg.json --out-pg-schema relaid-pg-schema.json
cmp pg.json relaid-pg.json
cmp pg-schema.json relaid-pg-schema.json
expect 0 rdfpg convert --mode indep --rdf relaid.ttl \
  --out-pg relaid-indep-pg.json --out-pg-schema relaid-generic.json
cmp indep-pg.json relaid-indep-pg.json
cmp generic.json relaid-generic.json
# A Turtle error names the file it is in: exit 2, no file written.
{ cat "$data/org-schema.ttl"; echo "%"; } > broken-schema.ttl
refused rdfpg convert --mode dep --rdf "$data/org-instance.ttl" --schema broken-schema.ttl \
  --out-pg broken-pg.json --out-pg-schema broken-pg-schema.json 2> broken.err
grep -q "^error: broken-schema.ttl: line " broken.err || { cat broken.err; exit 1; }
# So does a PG JSON error: a truncated document, exit 2, no file written.
head -c 200 pg.json > broken-pg.json
refused rdfpg invert --mode dep --pg broken-pg.json --pg-schema pg-schema.json \
  --out-rdf broken-back.ttl --out-rdf-schema broken-back-schema.ttl 2> broken-pg.err
grep -q "^error: broken-pg.json: " broken-pg.err || { cat broken-pg.err; exit 1; }
# A name given twice in one object is refused at that object's path; it is not
# read as its last value. Exit 2, no file written.
sed 's/"value": "Tesla, Inc."/&, "value": "Edison"/' pg.json > dup.json
refused rdfpg invert --mode dep --pg dup.json --pg-schema pg-schema.json \
  --out-rdf dup.ttl --out-rdf-schema dup-schema.ttl 2> dup.err
grep -qx "error: dup.json: \$.nodes\[0\].properties\[1\]: repeated name 'value'" dup.err \
  || { cat dup.err; exit 1; }
refused rdfpg invert --mode indep --pg indep-pg.json --pg-schema pg-schema.json \
  --out-rdf indep-back.ttl
# The generic route reads and writes no RDF schema, so these options are refused.
refused rdfpg convert --mode indep --rdf "$data/org-instance.ttl" --schema "$data/org-schema.ttl" \
  --out-pg refused-pg.json --out-pg-schema refused-generic.json
refused rdfpg invert --mode indep --pg indep-pg.json --out-rdf indep-back.ttl \
  --out-rdf-schema indep-back-schema.ttl
expect 1 rdfpg validate pg --pg indep-pg.json --pg-schema pg-schema.json
# PGs that no conversion produces, edited from the indep output: a twin
# edge, a twin Resource node, a Resource node without "type". Exit 2, no file.
for edit in twin-edge twin-node no-type; do
  python -c '
import json, sys
edit = sys.argv[1]
with open("indep-pg.json") as f:
    doc = json.load(f)
resource = next(n for n in doc["nodes"] if n["label"] == "Resource")
if edit == "twin-edge":
    doc["edges"].append(dict(doc["edges"][0], id="e-twin"))
elif edit == "twin-node":
    doc["nodes"].append(dict(resource, id="n-twin"))
else:
    resource["properties"] = [p for p in resource["properties"] if p["key"] != "type"]
with open(edit + ".json", "w") as f:
    json.dump(doc, f)
' "$edit"
  refused rdfpg invert --mode indep --pg "$edit.json" --out-rdf "$edit.ttl"
done
# PGs that no conversion produces, edited from the dep output: a twin node,
# a twin edge, a second value for one key. Exit 2, no file.
for edit in dep-twin-node dep-twin-edge dep-second-value; do
  python -c '
import json, sys
edit = sys.argv[1]
with open("pg.json") as f:
    doc = json.load(f)
node = doc["nodes"][0]
if edit == "dep-twin-node":
    doc["nodes"].append(dict(node, id="n-twin"))
elif edit == "dep-twin-edge":
    doc["edges"].append(dict(doc["edges"][0], id="e-twin"))
else:
    first = next(p for p in node["properties"] if p["key"] != "iri")
    node["properties"].append(dict(first, value=first["value"] + "-second"))
with open(edit + ".json", "w") as f:
    json.dump(doc, f)
' "$edit"
  refused rdfpg invert --mode dep --pg "$edit.json" --pg-schema pg-schema.json \
    --out-rdf "$edit.ttl" --out-rdf-schema "$edit-schema.ttl"
done
# PG schemas that no conversion produces, edited from the dep output: an edge
# type with a property type, a key reused as an edge label. Exit 2, no file.
for edit in edge-property-type key-as-edge-label; do
  python -c '
import json, sys
edit = sys.argv[1]
with open("pg-schema.json") as f:
    schema = json.load(f)
if edit == "edge-property-type":
    schema["propertyTypes"].append(
        {"id": "pt-since", "key": "http://www.example.org/voc/since", "type": "Date"})
    schema["edgeTypes"][0]["propertyTypes"] = ["pt-since"]
else:
    schema["edgeTypes"][0]["label"] = schema["propertyTypes"][0]["key"]
with open(edit + ".json", "w") as f:
    json.dump(schema, f)
' "$edit"
  refused rdfpg invert --mode dep --pg pg.json --pg-schema "$edit.json" \
    --out-rdf "$edit.ttl" --out-rdf-schema "$edit-schema.ttl"
done
# Two dep edges that differ only in an edge property would merge into one
# triple: against the produced schema they are invalid (exit 1, the dropped
# properties named on one warning line), and a schema that declares the
# property is refused (exit 2, no file). No Python warning reaches stderr.
python -c '
import json
with open("pg.json") as f:
    doc = json.load(f)
edge = doc["edges"][0]
doc["edges"] = [
    dict(edge, id=f"e{i}", properties=[
        {"key": "http://www.example.org/voc/since", "type": "Date", "value": value}])
    for i, value in enumerate(["2008-10-01", "2009-01-01"])
]
with open("since-edges.json", "w") as f:
    json.dump(doc, f)
'
expect 1 rdfpg invert --mode dep --pg since-edges.json --pg-schema pg-schema.json \
  --out-rdf since.ttl --out-rdf-schema since-schema.ttl 2> since-1.err
test -e since.ttl
test -e since-schema.ttl
rm since.ttl since-schema.ttl
refused rdfpg invert --mode dep --pg since-edges.json --pg-schema edge-property-type.json \
  --out-rdf since.ttl --out-rdf-schema since-schema.ttl 2> since-2.err
if grep -q UserWarning since-1.err since-2.err; then cat since-1.err since-2.err; exit 1; fi
# Valid inputs with elements the PG schema cannot hold: both files, exit 1.
rdfs="<http://www.w3.org/2000/01/rdf-schema#"
printf '%s\n' "<http://ex.org/p> ${rdfs}domain> <http://ex.org/A> ; ${rdfs}range> <http://www.w3.org/2001/XMLSchema#int> ." > s1.ttl
printf '%s\n' "<http://ex.org/a> a <http://www.w3.org/2001/XMLSchema#int> ." > i1.ttl
printf '%s\n' "<http://ex.org/p> ${rdfs}domain> <http://ex.org/A> ; ${rdfs}range> <http://ex.org/dt> ." \
  "<http://ex.org/dt> a ${rdfs}Class> ." > s2.ttl
printf '%s\n' '<http://ex.org/a> a <http://ex.org/A> ; <http://ex.org/p> "x"^^<http://ex.org/dt> .' > i2.ttl
for k in 1 2; do
  expect 1 rdfpg convert --mode dep --rdf "i$k.ttl" --schema "s$k.ttl" \
    --out-pg "u$k.json" --out-pg-schema "us$k.json"
  test -e "u$k.json"
  test -e "us$k.json"
done
# Spellings the dep route cannot invert back: exit 2 and no file.
printf '%s\n' "<http://ex.org/p> ${rdfs}domain> <http://ex.org/A> ; ${rdfs}range> <Integer> ." \
  "<Integer> a ${rdfs}Class> ." > s3.ttl
printf '%s\n' '<http://ex.org/a> a <http://ex.org/A> ; <http://ex.org/p> "5"^^<Integer> .' > i3.ttl
printf '%s\n' "<http://ex.org/C> a ${rdfs}Class> ." \
  "<iri> ${rdfs}domain> <http://ex.org/C> ; ${rdfs}range> <http://www.w3.org/2001/XMLSchema#string> ." > s4.ttl
printf '%s\n' '<http://ex.org/a> a <http://ex.org/C> ; <iri> "http://ex.org/b" .' > i4.ttl
for k in 3 4; do
  refused rdfpg convert --mode dep --rdf "i$k.ttl" --schema "s$k.ttl" \
    --out-pg "u$k.json" --out-pg-schema "us$k.json"
done
# A custom PG datatype spelled as a supported XSD IRI would invert to the
# same literal as the kind name "Integer".
xsd_integer="http://www.w3.org/2001/XMLSchema#integer"
printf '{"nodes": [{"id": "n0", "label": "http://ex.org/T", "properties": [%s, %s]}], "edges": []}\n' \
  '{"key": "iri", "value": "http://ex.org/a", "type": "String"}' \
  "{\"key\": \"http://ex.org/p\", \"value\": \"5\", \"type\": \"$xsd_integer\"}" > p5.json
printf '{"nodeTypes": [%s], "edgeTypes": [], "propertyTypes": [%s]}\n' \
  '{"id": "nt0", "label": "http://ex.org/T", "propertyTypes": ["pt0"]}' \
  "{\"id\": \"pt0\", \"key\": \"http://ex.org/p\", \"type\": \"$xsd_integer\"}" > ps5.json
refused rdfpg invert --mode dep --pg p5.json --pg-schema ps5.json \
  --out-rdf b5.ttl --out-rdf-schema bs5.ttl
# A resource that no edge mentions comes back on both routes: on the dep route
# under a schema whose completion declares rdfs:Resource.
printf '%s\n' "<http://ex.org/b> a ${rdfs}Resource> ." > r1.ttl
printf '%s\n' '<http://ex.org/a> <http://ex.org/p> "x" .' >> r1.ttl
printf '%s\n' "<http://ex.org/p> a <http://www.w3.org/1999/02/22-rdf-syntax-ns#Property> ." > rs2.ttl
printf '%s\n' "<http://ex.org/b> a ${rdfs}Resource> ." > r2.ttl
expect 0 rdfpg convert --mode indep --rdf r1.ttl --out-pg r1.json --out-pg-schema r1-generic.json
expect 0 rdfpg invert --mode indep --pg r1.json --out-rdf r1-back.ttl
expect 0 rdfpg convert --mode dep --rdf r2.ttl --schema rs2.ttl --out-pg r2.json --out-pg-schema rs2.json
expect 0 rdfpg invert --mode dep --pg r2.json --pg-schema rs2.json \
  --out-rdf r2-back.ttl --out-rdf-schema rs2-back.ttl
for k in 1 2; do
  python -c '
import sys
from rdfpg import parse_turtle
texts = [open(name, encoding="utf-8").read() for name in sys.argv[1:]]
if parse_turtle(texts[0]) != parse_turtle(texts[1]):
    sys.exit("not written back: " + " ".join(sys.argv[1:]))
' "r$k.ttl" "r$k-back.ttl"
done
# A literal that no edge holds cannot be written in Turtle: exit 2, the literal
# named, no file written.
python -c '
import json
with open("indep-pg.json") as f:
    doc = json.load(f)
doc["nodes"].append({"id": "n-alone", "label": "Literal", "properties": [
    {"key": "type", "type": "String", "value": "http://www.w3.org/2001/XMLSchema#string"},
    {"key": "value", "type": "String", "value": "alone"}]})
with open("edgeless-literal.json", "w") as f:
    json.dump(doc, f)
'
refused rdfpg invert --mode indep --pg edgeless-literal.json --out-rdf edgeless.ttl 2> edgeless.err
grep -q '^error: edgeless-literal.json: literal "alone"^^' edgeless.err || { cat edgeless.err; exit 1; }
# W3C Turtle's IRIREF holds no U+0000-U+0020: an iri value with a control
# character is refused by invert, and Turtle holding one by convert.
python -c '
import json
with open("indep-pg.json") as f:
    doc = json.load(f)
resource = next(n for n in doc["nodes"] if n["label"] == "Resource")
next(p for p in resource["properties"] if p["key"] == "iri")["value"] = "http://e.x/a\u0001b"
with open("control-iri.json", "w") as f:
    json.dump(doc, f)
'
refused rdfpg invert --mode indep --pg control-iri.json --out-rdf control-back.ttl 2> control.err
grep -qF "carries 'iri' value 'http://e.x/a\\x01b', which is not usable as an IRI" control.err \
  || { cat control.err; exit 1; }
printf '<http://e.x/s> <http://e.x/p> <http://e.x/a\001b> .\n' > control-iri.ttl
refused rdfpg convert --mode indep --rdf control-iri.ttl --out-pg control-pg.json \
  --out-pg-schema control-generic.json 2> control.err
grep -qxF "error: control-iri.ttl: line 1, column 44: expected an IRI character, found '\\x01'" \
  control.err || { cat control.err; exit 1; }
# The check splits its cases over the CPUs it may use; on one CPU it runs
# them serially, and its output must not change.
for mode in dep indep; do
  expect 0 rdfpg roundtrip --mode "$mode" --seed 42 --count 1000 > "roundtrip-$mode.out"
  expect 0 taskset -c 0 rdfpg roundtrip --mode "$mode" --seed 42 --count 1000 > "roundtrip-$mode-cpu0.out"
  cmp "roundtrip-$mode.out" "roundtrip-$mode-cpu0.out"
done
