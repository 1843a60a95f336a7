"""Bundle loading, executor-count sweeps and run reports.

A bundle directory holds:

    tsg.md            the guide (required)
    dag.json          optional; re-extracted from tsg.md when absent
    qpp.json          optional query-template manifest; re-extracted too
    fixtures/         optional mock-plugin fixtures, keyed by tsg id
    scenarios/*.json  scripted scenarios

A sweep runs the same scenario once per executor count in virtual time and
reports makespans, reductions against a serial baseline, and the oracle's
checks: each run against the oracle's simulation at its k, Graham's bound
and saturation. The baseline is the k=1 run of a provided sequential-DAG
variant of the bundle when one is given, else the bundle's own k=1 run; the
report states which.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from .backends import ScriptedBackend
from .dag import InvalidDag, SchemaViolation, extract_dag, load_dag
from .document import parse_tsg, read_utf8
from .engine import Bundle, RunConfig, RunResult, run
from .errors import TsgflowError
from .oracle import MakespanOracle, Simulator, started_work
from .plugins import build_mock_registry
from .queryprep import extract_templates, load_manifest
from .scenario import read_scenario, scenario_steps


class HarnessError(TsgflowError):
    pass


def load_bundle(path: str | Path) -> Bundle:
    root = Path(path)
    tsg_path = root / "tsg.md"
    if not tsg_path.exists():
        raise HarnessError(f"bundle {root} has no tsg.md")
    doc = parse_tsg(read_utf8(tsg_path))

    dag_path = root / "dag.json"
    if dag_path.exists():
        try:
            dag = load_dag(read_utf8(dag_path))
        except SchemaViolation as exc:
            raise SchemaViolation(f"{dag_path}: {exc.path}", exc.message) from None
    else:
        dag = extract_dag(doc)

    qpp_path = root / "qpp.json"
    if qpp_path.exists():
        _, templates = load_manifest(read_utf8(qpp_path), str(qpp_path))
    else:
        templates = extract_templates(doc)

    fixtures_dir = root / "fixtures"
    registry = None
    if (fixtures_dir / doc.tsg_id).is_dir():
        registry = build_mock_registry(fixtures_dir, doc.tsg_id)
    try:
        return Bundle(doc=doc, dag=dag, templates=templates, registry=registry)
    except InvalidDag as exc:
        raise HarnessError(f"bundle {root}: invalid DAG: {exc}") from None


def load_scenario(bundle_dir: str | Path, name_or_path: str) -> dict:
    """Resolve a scenario by path, or by name inside <bundle>/scenarios/.

    Raises FileNotUtf8 or ScenarioInvalid for a file that is not a scenario.
    """
    candidates = [
        Path(name_or_path),
        Path(bundle_dir) / "scenarios" / name_or_path,
        Path(bundle_dir) / "scenarios" / f"{name_or_path}.json",
    ]
    for candidate in candidates:
        if candidate.exists():
            return read_scenario(candidate)
    raise HarnessError(f"scenario {name_or_path!r} not found")


def run_scenario(
    bundle: Bundle,
    scenario: dict,
    executors: int = RunConfig.max_executors,
    retry_limit: int = RunConfig.retry_limit,
    clock: str = RunConfig.clock,
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
        # a lone surrogate from a JSON \u escape is written as that escape again
        Path(trace_path).write_text(result.trace_jsonl(), encoding="utf-8",
                                    errors="backslashreplace")
    return result


@dataclass
class SweepEntry:
    k: int
    makespan: float
    executed: int
    cancelled: int
    status: str


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
    oracle_ok: bool = True

    def to_obj(self) -> dict:
        return {
            "tsg_id": self.tsg_id,
            "scenario_id": self.scenario_id,
            "entries": [asdict(e) for e in self.entries],
            "baseline": {"kind": self.baseline_kind, "makespan": self.baseline_makespan},
            "reductions": {str(k): v for k, v in sorted(self.reductions.items())},
            "oracle": asdict(self.oracle),
            "bounds_ok": self.bounds_ok,
            "saturation_ok": self.saturation_ok,
            "oracle_ok": self.oracle_ok,
        }


def sweep(
    bundle: Bundle,
    scenario: dict,
    k_values: list[int],
    retry_limit: int = RunConfig.retry_limit,
    baseline: tuple[Bundle, dict] | None = None,
) -> SweepReport:
    """Run the scenario once per executor count and report the comparison.

    oracle_ok: every run's executed steps, conclusion and makespan equal the
    oracle's simulation at its k. bounds_ok: every concluded run has
    T_inf <= T_k <= W_k/k + T_inf (Graham), W_k the work the k-run started.
    T_k <= T_1 is not claimed: list scheduling has timing anomalies.
    """
    if not k_values:
        raise HarnessError("k_values must be non-empty with every k >= 1")
    for k in k_values:
        if type(k) is not int or k < 1:  # a bool is an int, but no executor count
            raise HarnessError(f"executor count {k!r} is not an int >= 1")
    steps = scenario_steps(scenario)
    simulator = Simulator(bundle.dag, steps, retry_limit)
    oracle = simulator.makespan()
    t_inf = oracle.critical_path_to_conclusion

    entries = []
    makespans: dict[int, float] = {}
    oracle_ok = bounds_ok = True
    for k in sorted(set(k_values)):
        result = run_scenario(bundle, scenario, executors=k, retry_limit=retry_limit)
        sim = simulator.run(k)
        m = makespans[k] = result.makespan
        oracle_ok = oracle_ok and (result.executed, result.conclusion, m) == (
            sim.executed, sim.conclusion, sim.total_time)
        if sim.status == "concluded":  # then so did the unbounded run: t_inf is set
            bounds_ok = bounds_ok and t_inf <= m <= started_work(steps, sim.starts) / k + t_inf
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

    saturated = [m for k, m in sorted(makespans.items()) if k >= oracle.width]
    saturation_ok = all(m == saturated[0] for m in saturated) if saturated else True

    return SweepReport(
        tsg_id=bundle.dag.tsg_id,
        scenario_id=(scenario.get("incident") or {}).get("id", "scenario"),
        entries=entries,
        baseline_kind=baseline_kind,
        baseline_makespan=baseline_makespan,
        oracle=oracle,
        reductions=reductions,
        bounds_ok=bounds_ok,
        saturation_ok=saturation_ok,
        oracle_ok=oracle_ok,
    )
