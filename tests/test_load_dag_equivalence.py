"""load_dag against the frozen reference in tests/load_dag_reference.py.

Every case starts from serialize_dag of a valid DAG (the fixture bundles'
guides and random scripted DAGs), decodes it, seeds one to three faults and
encodes it again. A fault deletes a field or replaces it with a junk value,
replaces a node or edge with a non-object, drops a key from a condition or
adds an extra key; half the time a fault lands on the object the one
before it touched, so faults meet inside one node or edge. Both loaders must then return equal DAGs, or raise
SchemaViolation with the same path and message: with several faults, the
first one in check order must win in both.
"""

from __future__ import annotations

import copy
import json
import random
import re

import load_dag_reference as reference
from conftest import BUNDLES
from randdag import random_scripted_dag
from tsgflow.dag import SchemaViolation, extract_dag, load_dag, serialize_dag
from tsgflow.document import parse_tsg

SEED = 20261019
CASES = 3000
JUNK = [None, True, 0, "", [], {}, "bogus"]
NON_OBJECTS = [None, True, 0, "", "bogus", [], [{}]]
FIELDS = {
    "document": ("tsg_id", "nodes", "edges"),
    "node": ("id", "kind", "description", "step_ref"),
    "edge": ("id", "from", "to", "condition", "conclusion"),
    "condition": ("question", "label"),
}
# every path a seeded fault can be reported at, indices written as i
PATHS = {
    "/tsg_id", "/nodes", "/edges",
    "/nodes/i", "/nodes/i/id", "/nodes/i/kind", "/nodes/i/description", "/nodes/i/step_ref",
    "/edges/i", "/edges/i/id", "/edges/i/from", "/edges/i/to", "/edges/i/condition",
    "/edges/i/condition/question", "/edges/i/condition/label", "/edges/i/conclusion",
}


def _source_documents() -> list[dict]:
    dags = [extract_dag(parse_tsg((p / "tsg.md").read_text(encoding="utf-8")))
            for p in sorted(BUNDLES.iterdir())]
    rng = random.Random(SEED)
    dags += [random_scripted_dag(rng) for _ in range(40)]
    return [json.loads(serialize_dag(dag)) for dag in dags]


def _objects(doc: dict) -> list[tuple[str, dict]]:
    """(kind, object) for the document and every node, edge and condition
    that is still an object."""
    found = [("document", doc)]
    for kind, key in (("node", "nodes"), ("edge", "edges")):
        items = doc.get(key)
        if isinstance(items, list):
            found += [(kind, item) for item in items if isinstance(item, dict)]
    found += [("condition", obj["condition"]) for kind, obj in found
              if kind == "edge" and isinstance(obj.get("condition"), dict)]
    return found


def _seed_fault(rng: random.Random, doc: dict, last: dict | None) -> dict | None:
    """Seed one fault; return the object it changed, if it changed a field."""
    objects = _objects(doc)
    op = rng.randrange(4)
    if op == 0:  # a field deleted or replaced by junk
        same = [(kind, obj) for kind, obj in objects if obj is last]
        if same and rng.random() < 0.5:
            kind, obj = same[0]
        else:  # the kind first, so the one document is hit as often as a node
            kind = rng.choice(sorted({kind for kind, _ in objects}))
            obj = rng.choice([obj for k, obj in objects if k == kind])
        key = rng.choice(FIELDS[kind])
        if rng.random() < 0.25:
            obj.pop(key, None)
        else:
            obj[key] = copy.deepcopy(rng.choice(JUNK))
        return obj
    elif op == 1:  # a node or an edge replaced by a non-object
        lists = [doc[k] for k in ("nodes", "edges") if isinstance(doc.get(k), list) and doc[k]]
        if lists:
            items = rng.choice(lists)
            items[rng.randrange(len(items))] = copy.deepcopy(rng.choice(NON_OBJECTS))
    elif op == 2:  # a condition that lacks a key
        conditions = [obj for kind, obj in objects if kind == "condition" and obj]
        if conditions:
            condition = rng.choice(conditions)
            del condition[rng.choice(sorted(condition))]
    else:  # an extra key
        _, obj = rng.choice(objects)
        obj[rng.choice(["extra", "x", ""])] = copy.deepcopy(rng.choice(JUNK))
    return None


def _outcome(loader, text: str):
    try:
        return loader(text)
    except SchemaViolation as exc:
        return ("SchemaViolation", exc.path, str(exc))


def test_load_dag_matches_frozen_reference_on_seeded_faults():
    rng = random.Random(SEED)
    sources = _source_documents()
    paths = set()
    loaded = 0
    for case in range(CASES):
        doc = copy.deepcopy(rng.choice(sources))
        last = None
        for _ in range(rng.randint(1, 3)):
            last = _seed_fault(rng, doc, last)
        text = json.dumps(doc)
        expected = _outcome(reference.load_dag, text)
        assert _outcome(load_dag, text) == expected, (case, text)
        if isinstance(expected, tuple):
            paths.add(re.sub(r"/\d+", "/i", expected[1]))
        else:
            loaded += 1
    # the faults reach every check, and some documents still load
    assert paths == PATHS
    assert CASES // 20 < loaded < CASES // 2, loaded
