from __future__ import annotations

import ast
import sys
from pathlib import Path

from tsgflow.linechild import LineChild

SRC = Path(__file__).parent.parent / "src" / "tsgflow"


def test_line_framing_is_independent_of_writes():
    """One answer split over two writes is one line; two answers in one write
    are the answers to two requests, the second read from the buffer."""
    code = (
        "import sys, time\n"
        "for n, _ in enumerate(sys.stdin):\n"
        "    if n == 0:\n"
        "        sys.stdout.write('{\"part\": '); sys.stdout.flush(); time.sleep(0.1)\n"
        "        sys.stdout.write('1}\\n'); sys.stdout.flush()\n"
        "    elif n == 1:\n"
        "        sys.stdout.write('two\\nthree\\n'); sys.stdout.flush()\n"
    )
    child = LineChild([sys.executable, "-c", code])
    try:
        assert child.request("a") == '{"part": 1}'
        assert child.request("b") == "two"
        assert child.request("c") == "three"
    finally:
        assert child.close() == 0


def test_unterminated_last_line_is_an_answer():
    """At end of output a line without its newline still answers; no output
    at all is None."""
    code = "import sys; sys.stdout.write('[]'); sys.exit(3)"
    child = LineChild([sys.executable, "-c", code])
    try:
        assert child.request("a") == "[]"
        assert child.request("b") == "[]"  # from a fresh child
    finally:
        assert child.close() == 3
    silent = LineChild([sys.executable, "-c", "pass"])
    try:
        assert silent.request("a") is None
    finally:
        assert silent.close() == 0


def test_only_the_line_client_imports_subprocess():
    """Keeps child-process handling in one module."""
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            if any(name.split(".")[0] == "subprocess" for name in names):
                importers.append(path.name)
    assert sorted(set(importers)) == ["linechild.py"]


def test_oracle_takes_only_the_scenario_reader_from_the_engine():
    """The oracle checks the engine, so of engine.py it may use only the
    scenario reader and its error: not RunState, apply_outcome or CompiledDag."""
    names = set()
    for node in ast.walk(ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "engine":
                names |= {alias.name for alias in node.names}
            elif any(alias.name == "engine" for alias in node.names):
                names.add("engine")  # the whole module
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[-1] == "engine" for alias in node.names):
                names.add("engine")
    assert names <= {"ScenarioIncomplete", "scenario_steps", "scripted_attempt", "attempt_value"}
