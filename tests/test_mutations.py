"""Randomly mutated graph documents fail only as package errors.

Each example takes a valid document (a fixture or a zoo graph) and makes
one change: it drops a key, swaps a value for one of another JSON type,
or adds an unknown key. Parsing, validating and (when validation passes)
analyzing the result may fail, but only with an ``AceV2Error`` subclass,
never a bare Python exception, and a ``ParseError`` names a JSON path.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from acev2 import analysis, zoo
from acev2.errors import AceV2Error, ParseError
from acev2.ir import parse_graph, serialize_graph, validate

FIXTURES = Path(__file__).parent / "fixtures"

DOCUMENTS = [path.read_text() for path in sorted(FIXTURES.glob("*.json"))] + [
    serialize_graph(zoo.build_mobilenet_v1()),
    serialize_graph(zoo.build_mobilenet_v2(8, 8, "dprelu", "subchannelwise")),
]

# One value of each JSON type, with bool apart from numbers and integers
# apart from floats, because the parser tells them apart.
VALUES = [None, True, 3, 2.5, "x", ["x"], {"x": 1}]


def children(value):
    if isinstance(value, dict):
        return value.items()
    return enumerate(value) if isinstance(value, list) else ()


def locations(doc, at=()):
    """(path to a container, key or index in it) for every value in ``doc``."""
    for key, value in children(doc):
        yield at, key
        yield from locations(value, at + (key,))


def reach(doc, at):
    for key in at:
        doc = doc[key]
    return doc


@st.composite
def mutated_documents(draw):
    doc = json.loads(draw(st.sampled_from(DOCUMENTS)))
    change = draw(st.sampled_from(["drop", "swap", "add"]))
    if change == "add":
        objects = [()] + [at + (key,) for at, key in locations(doc)
                          if isinstance(reach(doc, at)[key], dict)]
        reach(doc, draw(st.sampled_from(objects)))["zz"] = 1
        return doc
    spots = [(at, key) for at, key in locations(doc)
             if change == "swap" or isinstance(key, str)]
    at, key = draw(st.sampled_from(spots))
    parent = reach(doc, at)
    if change == "drop":
        del parent[key]
    else:
        old = type(parent[key])
        parent[key] = draw(st.sampled_from(
            [v for v in VALUES if type(v) is not old]))
    return doc


@pytest.mark.parametrize("text", DOCUMENTS)
def test_unmutated_documents_analyze(text):
    g = parse_graph(text)
    assert validate(g) == []
    analysis.analyze(g)


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_a_mutated_document_fails_only_as_a_package_error(doc):
    try:
        g = parse_graph(json.dumps(doc))
        if not validate(g):
            analysis.analyze(g)
    except ParseError as exc:
        assert exc.path.startswith("$"), str(exc)
    except AceV2Error:
        pass
