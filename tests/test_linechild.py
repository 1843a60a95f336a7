from __future__ import annotations

import ast
import importlib
import inspect
import os
import pkgutil
import signal
import sys
import threading
import time
from pathlib import Path

import pytest

import tsgflow
from test_engine import bundle_of, linear_dag
from tsgflow import linechild
from tsgflow.backends import ProcessBackend
from tsgflow.engine import BackendUnavailable, run
from tsgflow.errors import TsgflowError
from tsgflow.linechild import ChildCancelled, ChildUnavailable, LineChild
from tsgflow.oracle import NotADag

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


# answers with the hex of each line's bytes as read, its newline included
ECHO_BYTES = "import sys\nfor line in sys.stdin.buffer:\n    print(line.hex(), flush=True)\n"


def test_a_request_goes_on_the_wire_as_utf8_with_lone_surrogates_escaped():
    child = LineChild([sys.executable, "-c", ECHO_BYTES])
    try:
        assert bytes.fromhex(child.request("a\ud800b")) == b"a\\ud800b\n"
        assert bytes.fromhex(child.request("caf\u00e9 \u2028")) == "caf\u00e9 \u2028\n".encode()
        assert bytes.fromhex(child.request('{"k": 1}')) == b'{"k": 1}\n'
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


def test_a_child_that_stops_reading_mid_request_still_answers(monkeypatch):
    """The request is longer than a pipe holds, so the write that meets the
    closed stdin raises BrokenPipeError; the rest is dropped and the answer read."""
    broken = []
    write = os.write

    def spy(fd, data):
        try:
            return write(fd, data)
        except BrokenPipeError:
            broken.append(fd)
            raise

    monkeypatch.setattr(linechild, "CLOSE_GRACE_S", 0.05)
    monkeypatch.setattr(linechild.os, "write", spy)
    code = "import os, sys, time; os.close(0); print('ok', flush=True); time.sleep(0.5)"
    child = LineChild([sys.executable, "-c", code])
    try:
        assert child.request("x" * (1 << 20)) == "ok"
        assert broken
    finally:
        child.close()


def test_a_child_that_ignores_stdin_eof_is_killed(monkeypatch):
    monkeypatch.setattr(linechild, "CLOSE_GRACE_S", 0.05)
    code = "import time; print('ready', flush=True); time.sleep(30)"
    child = LineChild([sys.executable, "-c", code])
    started = time.monotonic()
    try:
        assert child.request("a") == "ready"
    finally:
        assert child.close() == -signal.SIGKILL
    assert time.monotonic() - started < 5


def test_a_child_that_lingers_after_ending_its_output_is_killed(monkeypatch):
    """An answer without a newline, then the child closes its stdout and
    sleeps: the request returns the answer after killing the child through
    close(), and the next request starts a fresh child."""
    monkeypatch.setattr(linechild, "CLOSE_GRACE_S", 0.2)
    codes = []
    close = LineChild.close
    monkeypatch.setattr(LineChild, "close", lambda self: codes.append(close(self)) or codes[-1])
    code = "import os, time; os.write(1, str(os.getpid()).encode()); os.close(1); time.sleep(30)"
    child = LineChild([sys.executable, "-c", code])
    started = time.monotonic()
    try:
        first = child.request("a")  # a close() with no child, then the kill
        assert codes == [None, -signal.SIGKILL]
        second = child.request("b")
        assert codes == [None, -signal.SIGKILL] * 2
    finally:
        child.close()
    assert first.isdigit() and second.isdigit() and first != second
    assert codes[-1] is None  # nothing was left running
    assert time.monotonic() - started < 5


def test_an_empty_command_is_unavailable():
    """Popen([]) fails with IndexError, which no caller takes for a start failure."""
    child = LineChild([])
    with pytest.raises(ChildUnavailable, match="^cannot start an empty command$"):
        child.request("{}")
    assert child.close() is None
    with pytest.raises(BackendUnavailable, match="^cannot start an empty command$"):
        run(bundle_of(linear_dag(1)), ProcessBackend([]))


def test_a_request_already_cancelled_starts_no_child(tmp_path):
    """A command that does not exist would be ChildUnavailable once started."""
    child = LineChild([str(tmp_path / "no-such-child")])
    cancel = threading.Event()
    cancel.set()
    with pytest.raises(ChildCancelled, match="^request cancelled$"):
        child.request("{}", cancel)
    assert child.close() is None  # no child was started


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


def _package_imports(module: str) -> set[str]:
    """The tsgflow modules that src/tsgflow/<module>.py imports from."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "tsgflow":
                continue
            inner = parts[1:] if node.level == 0 else [p for p in parts if p]
            if inner:
                found.add(inner[0])
            else:  # from . import engine
                found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "tsgflow" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_oracle_imports_nothing_from_the_engine():
    """The oracle checks the engine, so it reads DAGs through dag.py and
    scripts through scenario.py, and nothing of engine.py."""
    assert _package_imports("oracle") <= {"dag", "scenario"}


def test_scenario_format_imports_none_of_its_readers():
    """scenario.py owns the scenario format; the engine, the backends, the
    harness and the oracle read it, so it imports none of them."""
    assert not _package_imports("scenario") & {"engine", "backends", "harness", "oracle"}


def test_every_tsgflow_exception_is_a_tsgflow_error():
    """One root: a caller catches any tsgflow failure as TsgflowError, and it
    is the only class that derives from Exception directly."""
    defined = []
    for info in pkgutil.iter_modules(tsgflow.__path__):
        module = importlib.import_module(f"tsgflow.{info.name}")
        defined += [
            cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__ and issubclass(cls, Exception)
        ]
    assert len(defined) > 40
    assert [c.__name__ for c in defined if not issubclass(c, TsgflowError)] == []
    assert [c.__name__ for c in defined if Exception in c.__bases__] == ["TsgflowError"]


def test_error_root_imports_nothing_from_the_package():
    """Every module imports errors.py, so it imports none of them."""
    assert _package_imports("errors") == set()


def test_not_a_dag_is_still_a_value_error():
    assert issubclass(NotADag, ValueError)


_GC_TUNING = {"disable", "freeze", "set_threshold"}


def test_package_keeps_its_structural_rules():
    """The package imports only the standard library; the oracle imports
    nothing of what it checks; errors.py and scenario.py import nothing of
    the package but errors; and no module tunes the garbage collector, a
    choice that belongs to the program that embeds the package."""
    foreign, gc_tuning = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
                if node.module == "gc":
                    gc_tuning += [f"{path.name}: gc.{a.name}" for a in node.names
                                  if a.name in _GC_TUNING]
            elif (isinstance(node, ast.Attribute) and node.attr in _GC_TUNING
                  and isinstance(node.value, ast.Name) and node.value.id == "gc"):
                gc_tuning.append(f"{path.name}: gc.{node.attr}")
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []
    assert not _package_imports("oracle") & {"engine", "backends", "harness"}
    assert _package_imports("errors") <= {"errors"}
    assert _package_imports("scenario") <= {"errors"}
    assert gc_tuning == []
