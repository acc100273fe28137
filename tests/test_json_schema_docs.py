"""The JSON-Schemas in docs/ describe the objects the PG readers accept.

Each object in the two documents must require exactly the fields its
reader requires, name no other property, and forbid additional ones.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from rdfpg import pg_json

DOCS = Path(__file__).parent.parent / "docs"

# Each object schema, by its JSON pointer, and the fields its reader takes.
READER_FIELDS = {
    "pg-document.schema.json": {
        "": pg_json._GRAPH_FIELDS,
        "/properties/nodes/items": pg_json._NODE_FIELDS,
        "/properties/edges/items": pg_json._EDGE_FIELDS,
        "/$defs/propertyList/items": pg_json._PROPERTY_FIELDS,
    },
    "pg-schema-document.schema.json": {
        "": pg_json._SCHEMA_FIELDS,
        "/properties/nodeTypes/items": pg_json._NODE_TYPE_FIELDS,
        "/properties/edgeTypes/items": pg_json._EDGE_TYPE_FIELDS,
        "/properties/propertyTypes/items": pg_json._PROPERTY_TYPE_FIELDS,
    },
}


def _object_schemas(schema, pointer=""):
    """(pointer, schema) of each object schema in `schema`, this one included."""
    if isinstance(schema, dict):
        if schema.get("type") == "object":
            yield pointer, schema
        for name, value in schema.items():
            yield from _object_schemas(value, f"{pointer}/{name}")
    elif isinstance(schema, list):
        for index, value in enumerate(schema):
            yield from _object_schemas(value, f"{pointer}/{index}")


@pytest.mark.parametrize("name", sorted(READER_FIELDS))
def test_json_schema_objects_match_the_reader_fields(name):
    with open(DOCS / name, encoding="utf-8") as handle:
        document = json.load(handle)
    objects = dict(_object_schemas(document))
    assert objects.keys() == READER_FIELDS[name].keys()
    for pointer, fields in READER_FIELDS[name].items():
        schema = objects[pointer]
        assert set(schema["required"]) == fields, pointer
        assert len(schema["required"]) == len(fields), pointer
        assert schema["properties"].keys() == fields, pointer
        assert schema["additionalProperties"] is False, pointer
