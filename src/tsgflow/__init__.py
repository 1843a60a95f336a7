"""tsgflow: executable workflows from structured troubleshooting guides.

Parse a conforming guide, extract its execution DAG and query templates,
then execute scenarios with an event-driven scheduler over a pool of
executors: tri-state edge propagation, retries, early termination, and
parallel execution of independent steps, with a blackboard memory for
structured data exchanged between plugins.
"""

from .backends import ProcessBackend, ScriptedBackend
from .dag import (
    CompiledDag,
    DagEdge,
    DagNode,
    ExecutionDag,
    compile_dag,
    extract_dag,
    load_dag,
    serialize_dag,
    validate_dag,
)
from .document import TsgDocument, TsgStep, parse_tsg, serialize_tsg
from .engine import (
    Bundle,
    ExecutorBackend,
    RunConfig,
    RunResult,
    RunStatus,
    StepContext,
    StepOutcome,
    apply_outcome,
    run,
)
from .errors import TsgflowError
from .harness import load_bundle, load_scenario, run_scenario, sweep
from .lint import LintFinding, evaluate_lint, lint
from .memory import (
    ContextSummary,
    FileBackedStore,
    MemoryRef,
    MemoryStore,
    MemoryValue,
    RunScope,
    Table,
    render_context,
)
from .oracle import oracle_makespan
from .plugins import PluginDescriptor, PluginRegistry, PluginResult, build_mock_registry
from .queryprep import PreparedQuery, QueryTemplate, extract_templates, prepare_query

__version__ = "0.1.0"

__all__ = [
    "Bundle",
    "CompiledDag",
    "ContextSummary",
    "DagEdge",
    "DagNode",
    "ExecutionDag",
    "ExecutorBackend",
    "FileBackedStore",
    "LintFinding",
    "MemoryRef",
    "MemoryStore",
    "MemoryValue",
    "PluginDescriptor",
    "PluginRegistry",
    "PluginResult",
    "PreparedQuery",
    "ProcessBackend",
    "QueryTemplate",
    "RunConfig",
    "RunResult",
    "RunScope",
    "RunStatus",
    "ScriptedBackend",
    "StepContext",
    "StepOutcome",
    "Table",
    "TsgDocument",
    "TsgStep",
    "TsgflowError",
    "apply_outcome",
    "build_mock_registry",
    "compile_dag",
    "evaluate_lint",
    "extract_dag",
    "extract_templates",
    "lint",
    "load_bundle",
    "load_dag",
    "load_scenario",
    "oracle_makespan",
    "parse_tsg",
    "prepare_query",
    "render_context",
    "run",
    "run_scenario",
    "serialize_dag",
    "serialize_tsg",
    "sweep",
    "validate_dag",
]
