import copy
import json
import random
from importlib import resources
from pathlib import Path

import pytest

from bialgebroid import (DocumentError, ExteriorError, algebroid_from_json,
                         pair_from_json, pair_to_json)
from bialgebroid.cli import _INPUT_ERRORS
from bialgebroid.serialize import document_to_structures

FIXTURES = Path(__file__).parent / "fixtures"


def load(name):
    return json.loads((FIXTURES / name).read_text())


def test_fixture_loads():
    P = pair_from_json(load("a-plus-b.json"))
    assert P.rank == 2 and P.coordinates == ()


def test_round_trip_of_corpus(corpus):
    for label, P in corpus:
        doc = pair_to_json(P)
        Q = pair_from_json(doc)
        assert Q.rank == P.rank, label
        assert Q.coordinates == P.coordinates, label
        assert Q.A.anchor == P.A.anchor, label
        assert Q.A.brackets == P.A.brackets, label
        assert Q.Astar.anchor == P.Astar.anchor, label
        assert Q.Astar.brackets == P.Astar.brackets, label
        assert Q.label == P.label, label
        assert pair_to_json(Q) == doc, label


def test_document_is_plain_json(corpus):
    for _, P in corpus:
        text = json.dumps(pair_to_json(P), indent=2)
        assert pair_to_json(pair_from_json(json.loads(text))) == json.loads(text)


def test_bracket_key_order_is_enforced():
    with pytest.raises(DocumentError) as err:
        pair_from_json(load("bad-key.json"))
    assert "1 <= i < j" in str(err.value)


def test_schema_rejects_extra_property():
    doc = load("a-plus-b.json")
    doc["extra"] = True
    with pytest.raises(DocumentError) as err:
        pair_from_json(doc)
    assert "schema violation" in str(err.value)


def test_schema_rejects_missing_section():
    doc = load("a-plus-b.json")
    del doc["Astar"]
    with pytest.raises(DocumentError) as err:
        pair_from_json(doc)
    assert "Astar" in str(err.value)


def test_wrong_anchor_shape():
    doc = load("poisson-linear.json")
    doc["A"]["anchor"] = doc["A"]["anchor"][:1]
    with pytest.raises(DocumentError) as err:
        pair_from_json(doc)
    assert "anchor" in str(err.value)


def test_wrong_anchor_row_width():
    doc = load("poisson-linear.json")
    doc["A"]["anchor"][0] = doc["A"]["anchor"][0] + ["0"]
    with pytest.raises(DocumentError):
        pair_from_json(doc)


def test_bad_polynomial_reports_position():
    doc = load("poisson-linear.json")
    doc["A"]["anchor"][0][0] = "x1 + )"
    with pytest.raises(DocumentError) as err:
        pair_from_json(doc)
    msg = str(err.value)
    assert "bad polynomial at A.anchor[1]" in msg
    assert "position" in msg


def test_unknown_variable_rejected():
    doc = load("poisson-linear.json")
    doc["A"]["anchor"][0][0] = "y"
    with pytest.raises(DocumentError):
        pair_from_json(doc)


def test_duplicate_coordinates():
    doc = load("poisson-linear.json")
    doc["coordinates"] = ["x1", "x1"]
    with pytest.raises(DocumentError) as err:
        pair_from_json(doc)
    assert "distinct" in str(err.value)


def test_base_dim_mismatch():
    doc = load("poisson-linear.json")
    doc["base_dim"] = 3
    with pytest.raises(DocumentError):
        pair_from_json(doc)


def test_wrong_bracket_width():
    doc = load("a-plus-b.json")
    doc["A"]["brackets"]["1,2"] = ["1"]
    with pytest.raises(DocumentError) as err:
        pair_from_json(doc)
    assert "components" in str(err.value)


@pytest.mark.parametrize("density", ["0", "x1"])
def test_density_must_be_nonzero_constant(density):
    doc = load("poisson-linear.json")
    doc["frame"] = {"s_density": density}
    with pytest.raises((DocumentError, ExteriorError)):
        pair_from_json(doc)


def test_single_structure_document():
    alg = algebroid_from_json(load("tangent-r3.json"))
    assert alg.rank == 3
    assert alg.section_kind == "vector"
    dual = algebroid_from_json(load("tangent-r3.json"), kind="covector")
    assert dual.section_kind == "covector"


def test_zero_entries_are_dropped_on_write(corpus):
    for _, P in corpus:
        doc = pair_to_json(P)
        for side in ("A", "Astar"):
            for entry in doc[side]["brackets"].values():
                assert any(c != "0" for c in entry)


# -- the published schemas as the reference for the loader's walk ------------------


def _schema_validator(name):
    jsonschema = pytest.importorskip("jsonschema")
    text = resources.files("bialgebroid").joinpath(f"schemas/{name}").read_text(encoding="utf-8")
    return jsonschema.Draft202012Validator(json.loads(text))


# values and keys a mutation writes: right and wrong JSON types, integral
# floats, booleans, and bracket keys in and out of the "i,j" pattern
_VALUES = [2, 0, -1, 3, 2.0, 1.5, True, False, None, "", "x1", "1", "1/0", [], ["1"],
           [["1"]], [1], {}, {"1,2": ["1", "0"]}, {"s_density": "1"}]
_KEYS = ["extra", "label", "frame", "A", "anchor", "brackets", "s_density", "base_dim",
         "1,2", "2,1", "1,3", "01,2", "1,2,3", "a,b", " 1,2", "1,2\n"]


def _nodes(value, path=()):
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _nodes(item, path + (i,))


def _mutate(doc, rng):
    """A copy of doc with one node replaced, one key added, dropped or
    renamed, or one array element added or dropped."""
    doc = copy.deepcopy(doc)
    path, node = rng.choice(list(_nodes(doc)))
    op = rng.randrange(3)
    if op == 0 and path:
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = copy.deepcopy(rng.choice(_VALUES))
    elif isinstance(node, dict) and node and op == 1:
        key = rng.choice(list(node))
        item = node.pop(key)
        if rng.random() < 0.5:
            node[rng.choice(_KEYS)] = item
    elif isinstance(node, dict):
        node[rng.choice(_KEYS)] = copy.deepcopy(rng.choice(_VALUES))
    elif isinstance(node, list) and node and op == 1:
        node.pop(rng.randrange(len(node)))
    elif isinstance(node, list):
        node.append(copy.deepcopy(rng.choice(_VALUES + [node[0] if node else "0"])))
    return doc


def _loader_outcome(load, doc):
    """None when load accepts doc, else its error text; only the package's
    input error classes may come out."""
    try:
        load(doc)
    except _INPUT_ERRORS as exc:
        return str(exc)
    return None


def _schema_accepts(validator, doc):
    """The schema's verdict with the loader's two readings of the format
    that jsonschema does not share: base_dim and rank must be JSON integers
    proper, so an integral float such as 2.0 is refused, and a bracket key
    must match the "i,j" pattern in full, where jsonschema's Python regex
    lets the pattern's '$' match before a trailing newline."""
    if not validator.is_valid(doc):
        return False
    if any(type(doc.get(key)) is float for key in ("base_dim", "rank")):
        return False
    # the schema has fixed the layout: brackets are objects, on A and Astar
    # of a pair document or at the root of a single-structure one
    sides = [doc[name] for name in ("A", "Astar") if name in doc] + [doc]
    return not any(key.endswith("\n") for side in sides for key in side.get("brackets", {}))


def test_loader_refuses_exactly_what_the_schema_refuses():
    """On every fixture and 100 seeded single mutations of each, the loader
    reports a schema violation exactly when the published schema refuses the
    document (see _schema_accepts), and never fails with anything but an
    input error.  A fixture the loader accepts has no fault but the one
    mutation, so the walk must name that one."""
    validators = {"pair": _schema_validator("pair-spec.schema.json"),
                  "algebroid": _schema_validator("algebroid-spec.schema.json")}
    rng = random.Random("loader-vs-schema")
    checked = refused = 0
    for path in sorted(FIXTURES.glob("*.json")):
        fixture = json.loads(path.read_text())
        kind, load = ("algebroid", algebroid_from_json) if "anchor" in fixture \
            else ("pair", document_to_structures)
        # bad-key.json already has a fault that the walk may reach before
        # the mutated node: its mutations need only be refused
        sound = _loader_outcome(load, fixture) is None
        for doc in [fixture] + [_mutate(fixture, rng) for _ in range(100)]:
            outcome = _loader_outcome(load, doc)
            violation = outcome is not None and outcome.startswith("schema violation at ")
            accepted = _schema_accepts(validators[kind], doc)
            if accepted or sound:
                assert violation is not accepted, (path.name, doc, outcome)
            else:
                assert outcome is not None, (path.name, doc)
            checked += 1
            refused += not accepted
    assert checked == 909 and 300 < refused < 800, (checked, refused)


@pytest.mark.parametrize("key, value", [("base_dim", 0.0), ("base_dim", False), ("rank", 0),
                                        ("base_dim", -1)])
def test_header_integers_are_json_integers(key, value):
    doc = load("a-plus-b.json")
    doc[key] = value
    with pytest.raises(DocumentError) as err:
        pair_from_json(doc)
    minimum = 1 if key == "rank" else 0
    assert str(err.value) == f"schema violation at {key}: must be an integer >= {minimum}"


def test_bracket_key_must_match_the_pattern_in_full():
    doc = load("a-plus-b.json")
    doc["A"]["brackets"]["1,2\n"] = doc["A"]["brackets"].pop("1,2")
    with pytest.raises(DocumentError) as err:
        pair_from_json(doc)
    assert str(err.value).startswith("schema violation at A/brackets: key '1,2\\n'")
