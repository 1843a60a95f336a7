"""Bundle loading, executor-count sweeps and run reports.

A bundle directory holds:

    tsg.md            the guide (required)
    dag.json          optional; re-extracted from tsg.md when absent
    qpp.json          optional query-template manifest; re-extracted too
    fixtures/         optional mock-plugin fixtures, keyed by tsg id
    scenarios/*.json  scripted scenarios

A sweep runs the same scenario once per executor count in virtual time and
reports makespans, reductions against a serial baseline, and the oracle's
bound and saturation checks. The baseline is the k=1 run of a provided
sequential-DAG variant of the bundle when one is given, else the bundle's
own k=1 run; the report states which.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path

from .dag import InvalidDag, compile_dag, extract_dag, load_dag
from .document import parse_tsg, read_guide
from .engine import Bundle, RunConfig, RunResult, ScriptedBackend, run, trace_to_jsonl
from .oracle import MakespanOracle, oracle_makespan
from .plugins import build_mock_registry
from .queryprep import extract_templates, load_manifest


class HarnessError(Exception):
    pass


class ScenarioInvalid(HarnessError):
    pass


def load_bundle(path: str | Path) -> Bundle:
    root = Path(path)
    tsg_path = root / "tsg.md"
    if not tsg_path.exists():
        raise HarnessError(f"bundle {root} has no tsg.md")
    doc = parse_tsg(read_guide(tsg_path))

    dag_path = root / "dag.json"
    if dag_path.exists():
        dag = load_dag(dag_path.read_text(encoding="utf-8"))
    else:
        dag = extract_dag(doc)
    try:
        compiled = compile_dag(dag)
    except InvalidDag as exc:
        raise HarnessError(f"bundle {root}: invalid DAG: {exc}") from None

    qpp_path = root / "qpp.json"
    if qpp_path.exists():
        _, templates = load_manifest(qpp_path.read_text(encoding="utf-8"), str(qpp_path))
    else:
        templates = extract_templates(doc)

    fixtures_dir = root / "fixtures"
    registry = None
    if (fixtures_dir / doc.tsg_id).is_dir():
        registry = build_mock_registry(fixtures_dir, doc.tsg_id)
    return Bundle(
        doc=doc,
        dag=dag,
        templates=templates,
        registry=registry,
        compiled=compiled,
    )


def load_scenario(bundle_dir: str | Path, name_or_path: str) -> dict:
    """Resolve a scenario by path, or by name inside <bundle>/scenarios/.

    Raises ScenarioInvalid for a file that is not JSON or not a scenario.
    """
    candidates = [
        Path(name_or_path),
        Path(bundle_dir) / "scenarios" / name_or_path,
        Path(bundle_dir) / "scenarios" / f"{name_or_path}.json",
    ]
    for candidate in candidates:
        if candidate.exists():
            try:
                scenario = json.loads(candidate.read_text(encoding="utf-8"))
            except ValueError as exc:  # bad JSON or bad UTF-8
                raise ScenarioInvalid(f"scenario {candidate}: not valid JSON: {exc}") from None
            _check_scenario(scenario, str(candidate))
            return scenario
    raise HarnessError(f"scenario {name_or_path!r} not found")


# (field, value when absent, test over a list of values, what a value must be)
_ATTEMPT_RULES = (
    ("result", "success", lambda vs: set(vs) <= {"success", "failure"}, "'success' or 'failure'"),
    # a NaN latency makes the sum NaN, which is not >= 0
    ("latency", 0,
     lambda vs: set(map(type, vs)) <= {int, float} and min(vs, default=0) >= 0 and sum(vs) >= 0,
     "a number >= 0"),
    ("edge_decisions", {}, lambda vs: set(map(type, vs)) <= {dict}, "a JSON object"),
)


def _check_scenario(scenario, source: str) -> None:
    """Raise ScenarioInvalid naming the first part of `scenario` that the
    oracle or ScriptedBackend cannot read: the top level, `incident` and
    `steps` objects, each step's attempt list, and each attempt's object,
    `result`, `latency` and `edge_decisions`. (A bad `memory_writes` fails
    its attempt with a named error when the step runs.)

    A scenario is as large as its guide, so each rule runs over every
    attempt at once, inside builtins; attempts are looked at one by one only
    to name a bad one."""

    def bad(what: str):
        raise ScenarioInvalid(f"scenario {source}: {what}")

    if not isinstance(scenario, dict):
        bad("top level must be a JSON object")
    if not isinstance(scenario.get("incident") or {}, dict):
        bad("incident must be an object")
    steps = scenario.get("steps", {})
    if not isinstance(steps, dict):
        bad("steps must map node ids to attempts")
    lists = [spec.get("attempts") if isinstance(spec, dict) else spec for spec in steps.values()]
    if not set(map(type, lists)) <= {list}:
        node = next(node for node, attempts in zip(steps, lists) if type(attempts) is not list)
        bad(f'steps.{node} must be a list of attempts or {{"attempts": [...]}}')

    def where(k: int) -> str:
        for node, attempts in zip(steps, lists):
            if k < len(attempts):
                return f"steps.{node}.attempts[{k}]"
            k -= len(attempts)

    attempts = list(chain.from_iterable(lists))
    if not set(map(type, attempts)) <= {dict}:
        bad(where(next(k for k, a in enumerate(attempts) if type(a) is not dict)) + " must be an object")
    for field, default, ok, what in _ATTEMPT_RULES:
        values = list(map(dict.get, attempts, repeat(field), repeat(default)))
        if not ok(values):
            k = next(k for k, v in enumerate(values) if not ok([v]))
            bad(f"{where(k)}.{field} must be {what}")


def run_scenario(
    bundle: Bundle,
    scenario: dict,
    executors: int = 1,
    retry_limit: int = 2,
    clock: str = "virtual",
    trace_path: str | Path | None = None,
) -> RunResult:
    backend = ScriptedBackend.from_scenario(scenario)
    result = run(
        bundle,
        backend,
        RunConfig(max_executors=executors, retry_limit=retry_limit, clock=clock),
        incident=scenario.get("incident"),
    )
    if trace_path is not None:
        Path(trace_path).write_text(trace_to_jsonl(result.trace), encoding="utf-8")
    return result


@dataclass
class SweepEntry:
    k: int
    makespan: float
    executed: int
    cancelled: int
    status: str

    def to_obj(self) -> dict:
        return {
            "k": self.k,
            "makespan": self.makespan,
            "executed": self.executed,
            "cancelled": self.cancelled,
            "status": self.status,
        }


@dataclass
class SweepReport:
    tsg_id: str
    scenario_id: str
    entries: list[SweepEntry]
    baseline_kind: str  # "sequential-bundle" | "self-k1"
    baseline_makespan: float
    oracle: MakespanOracle
    reductions: dict[int, float] = field(default_factory=dict)
    bounds_ok: bool = True
    saturation_ok: bool = True

    def to_obj(self) -> dict:
        return {
            "tsg_id": self.tsg_id,
            "scenario_id": self.scenario_id,
            "entries": [e.to_obj() for e in self.entries],
            "baseline": {"kind": self.baseline_kind, "makespan": self.baseline_makespan},
            "reductions": {str(k): v for k, v in sorted(self.reductions.items())},
            "oracle": {
                "critical_path_to_conclusion": self.oracle.critical_path_to_conclusion,
                "serial_sum": self.oracle.serial_sum,
                "width": self.oracle.width,
            },
            "bounds_ok": self.bounds_ok,
            "saturation_ok": self.saturation_ok,
        }


def sweep(
    bundle: Bundle,
    scenario: dict,
    k_values: list[int],
    retry_limit: int = 2,
    baseline: tuple[Bundle, dict] | None = None,
) -> SweepReport:
    """Run the scenario once per executor count and report the comparison."""
    if not k_values or any(k < 1 for k in k_values):
        raise HarnessError("k_values must be non-empty with every k >= 1")
    ks = sorted(set(k_values))
    oracle = oracle_makespan(bundle.dag, scenario, retry_limit)

    entries = []
    makespans: dict[int, float] = {}
    for k in ks:
        result = run_scenario(bundle, scenario, executors=k, retry_limit=retry_limit)
        makespans[k] = result.makespan
        entries.append(
            SweepEntry(
                k=k,
                makespan=result.makespan,
                executed=len(result.executed),
                cancelled=len(result.cancelled),
                status=result.status.value,
            )
        )

    if baseline is not None:
        base_bundle, base_scenario = baseline
        base = run_scenario(base_bundle, base_scenario, executors=1, retry_limit=retry_limit)
        baseline_kind, baseline_makespan = "sequential-bundle", base.makespan
    else:
        baseline_kind = "self-k1"
        baseline_makespan = makespans.get(1)
        if baseline_makespan is None:
            baseline_makespan = run_scenario(
                bundle, scenario, executors=1, retry_limit=retry_limit
            ).makespan

    reductions = {
        k: (baseline_makespan - m) / baseline_makespan if baseline_makespan else 0.0
        for k, m in makespans.items()
    }

    bounds_ok = all(
        (oracle.critical_path_to_conclusion is None or m >= oracle.critical_path_to_conclusion)
        and m <= oracle.serial_sum
        for m in makespans.values()
    )
    saturated = [m for k, m in sorted(makespans.items()) if k >= oracle.width]
    saturation_ok = all(m == saturated[0] for m in saturated) if saturated else True

    report = SweepReport(
        tsg_id=bundle.dag.tsg_id,
        scenario_id=scenario.get("incident", {}).get("id", "scenario"),
        entries=entries,
        baseline_kind=baseline_kind,
        baseline_makespan=baseline_makespan,
        oracle=oracle,
        reductions=reductions,
        bounds_ok=bounds_ok,
        saturation_ok=saturation_ok,
    )
    return report
