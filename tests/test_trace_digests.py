"""Traces pinned to fixed digests, not only to another run of the same code.

tests/fixtures/trace_digests.json holds the SHA-256 of trace_jsonl() for
every fixture bundle's scenarios at k=1..4, and for seeded random DAGs at
k=1..4 whose scenarios retry, fail for good and write memory. A change that
alters any trace byte fails here. Regenerate the file only for an intended
trace change:

    PYTHONPATH=src python tests/test_trace_digests.py > tests/fixtures/trace_digests.json
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

from randdag import random_scripted_dag, success_assignments
from tsgflow.backends import ScriptedBackend
from tsgflow.engine import Bundle, RunConfig, run
from tsgflow.harness import load_bundle, load_scenario, run_scenario

TESTS_DIR = Path(__file__).parent
BUNDLES = TESTS_DIR / "fixtures" / "bundles"
DIGESTS = TESTS_DIR / "fixtures" / "trace_digests.json"
RANDOM_SEED = 1313
RANDOM_DAGS = 20

# memory-write literals: a scalar, a list, a record and a table
_LITERALS = (
    7,
    "text",
    [1, 2.5, "x"],
    {"service": "web", "ring": 2},
    {"columns": ["at", "n"], "types": ["timestamp", "integer"],
     "rows": [["2024-01-01T00:00:00Z", 1], ["2024-01-01T00:05:00Z", 2]]},
)


def _random_steps(rng: random.Random, assignment: dict) -> dict[str, list[dict]]:
    """Attempt lists with random integer latencies (many ties): some nodes
    fail once and then succeed, some always fail, and some successes write
    memory."""
    steps = {}
    for node_id, decisions in assignment.items():
        success = {"result": "success", "latency": rng.randint(0, 3),
                   "edge_decisions": dict(decisions), "summary": f"{node_id} ok"}
        roll = rng.random()
        if roll < 0.3:
            success["memory_writes"] = {f"{node_id}.v{j}": rng.choice(_LITERALS)
                                        for j in range(rng.randint(1, 2))}
        failure = {"result": "failure", "latency": rng.randint(0, 3), "error": f"{node_id} down"}
        if roll > 0.85:
            steps[node_id] = [failure]
        elif roll > 0.6:
            steps[node_id] = [failure, success]
        else:
            steps[node_id] = [success]
    return steps


def traced_runs():
    """(name, RunResult) for every pinned case, in a fixed order."""
    for bundle_dir in sorted(p for p in BUNDLES.iterdir() if p.is_dir()):
        bundle = load_bundle(bundle_dir)
        for path in sorted((bundle_dir / "scenarios").glob("*.json")):
            scenario = load_scenario(bundle_dir, str(path))
            for k in (1, 2, 3, 4):
                yield f"{bundle_dir.name}/{path.stem}/k{k}", run_scenario(bundle, scenario, k)
    rng = random.Random(RANDOM_SEED)
    for i in range(RANDOM_DAGS):
        dag = random_scripted_dag(rng)
        steps = _random_steps(rng, rng.choice(success_assignments(dag)))
        retry_limit = rng.randint(0, 2)
        bundle = Bundle(doc=None, dag=dag)
        for k in (1, 2, 3, 4):
            config = RunConfig(max_executors=k, retry_limit=retry_limit)
            result = run(bundle, ScriptedBackend(steps), config, incident={"id": f"r{i}"})
            yield f"random/{i}/k{k}", result


def trace_digests() -> dict[str, str]:
    return {name: hashlib.sha256(result.trace_jsonl().encode("utf-8")).hexdigest()
            for name, result in traced_runs()}


def test_traces_match_pinned_digests():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = trace_digests()
    assert sorted(actual) == sorted(expected)
    assert [name for name in expected if actual[name] != expected[name]] == []


def test_random_cases_retry_fail_for_good_and_write_memory():
    kinds = Counter()
    for name, result in traced_runs():
        if name.startswith("random/"):
            kinds.update(ev.kind for ev in result.trace)
            kinds["final_failure"] += sum(ev.kind == "node_failed" and ev.detail["final"]
                                          for ev in result.trace)
            kinds[result.status.value] += 1
    assert kinds["node_retried"] and kinds["final_failure"] and kinds["memory_put"]
    assert kinds["node_cancelled"] and kinds["concluded"] and kinds["exhausted"]


if __name__ == "__main__":
    print(json.dumps(trace_digests(), indent=1, sort_keys=True))
