"""One child process spoken to in lines: a request line to its stdin, one
answer line from its stdout.

backends.ProcessBackend and the linter's ExternalAnalyzer both talk to
their children through LineChild, so starting, framing, the deadline, cancel
and crash handling live here only. Every request has the deadline
REQUEST_TIMEOUT_S; a request that passes it, or whose cancel event is set,
closes the child first, because an answer still owed would otherwise be read
as the answer to the next request. The next request starts a fresh child.
"""

from __future__ import annotations

import os
import selectors
import subprocess
import threading
import time
from select import PIPE_BUF

from .errors import TsgflowError

REQUEST_TIMEOUT_S = 60
CLOSE_GRACE_S = 1  # between closing the child's stdin and killing it
_CANCEL_POLL_S = 0.05  # how often a request waiting on its child looks at cancel


class ChildUnavailable(TsgflowError):
    """The child process cannot be started."""


class ChildTimeout(TsgflowError):
    """The child gave no answer line within REQUEST_TIMEOUT_S."""


class ChildCancelled(TsgflowError):
    """The request's cancel event was set before the answer arrived."""


class LineChild:
    """A long-lived child process behind a request/answer line protocol.

    Not thread-safe: callers that share one LineChild hold their own lock.
    """

    def __init__(self, command: list[str]):
        self.command = command
        self._proc: subprocess.Popen | None = None
        # Bytes read from stdout but not yet returned. select() cannot see
        # them, so a second answer that arrived in the same read waits here.
        self._buffer = bytearray()

    def _running(self) -> subprocess.Popen:
        if self._proc is None or self._proc.poll() is not None:
            self.close()  # a dead child's pipes are closed before a new one starts
            if not self.command:
                raise ChildUnavailable("cannot start an empty command")
            try:
                self._proc = subprocess.Popen(
                    self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0
                )
            except OSError as exc:
                raise ChildUnavailable(f"cannot start {self.command!r}: {exc}") from exc
        return self._proc

    def request(self, line: str, cancel: threading.Event | None = None) -> str | None:
        """Send `line` and return the child's answer line without its newline,
        or None when the child closes its output before it writes anything.

        Raises ChildUnavailable, ChildTimeout or ChildCancelled; the last two
        close the child before they are raised.
        """
        if cancel is not None and cancel.is_set():
            raise ChildCancelled("request cancelled")  # nothing was sent
        proc = self._running()
        # a lone surrogate goes as its \ud800 escape, which a JSON line decodes back
        pending = memoryview((line + "\n").encode("utf-8", "backslashreplace"))
        deadline = time.monotonic() + REQUEST_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            selector.register(proc.stdin, selectors.EVENT_WRITE)
            while True:
                end = self._buffer.find(b"\n")
                if not pending and end >= 0:
                    answer = self._buffer[:end].decode(errors="replace")
                    del self._buffer[: end + 1]
                    return answer
                if cancel is not None and cancel.is_set():
                    self.close()
                    raise ChildCancelled("request cancelled")
                left = deadline - time.monotonic()
                if left <= 0:
                    self.close()
                    raise ChildTimeout(f"timed out after {REQUEST_TIMEOUT_S} s")
                wait = left if cancel is None else min(left, _CANCEL_POLL_S)
                for key, _ in selector.select(wait):
                    if key.fileobj is proc.stdin:
                        # A pipe that selects writable takes PIPE_BUF bytes without blocking.
                        try:
                            pending = pending[os.write(key.fd, pending[:PIPE_BUF]) :]
                        except BrokenPipeError:  # the child stopped reading; drain its output
                            pending = pending[:0]
                        if not pending:
                            selector.unregister(proc.stdin)
                        continue
                    chunk = os.read(key.fd, 65536)
                    if not chunk:  # an unterminated last line still answers, as readline() does
                        answer = self._buffer.decode(errors="replace") if self._buffer else None
                        self._buffer.clear()
                        # Let the child exit, so close() still reports its code and the
                        # next request starts a fresh one; kill a child that lingers.
                        try:
                            proc.wait(timeout=CLOSE_GRACE_S)
                        except subprocess.TimeoutExpired:
                            self.close()
                        return answer
                    self._buffer += chunk

    def close(self) -> int | None:
        """Close the child's stdin, give it CLOSE_GRACE_S to exit, kill it if
        it has not, and return its exit code (None when no child runs)."""
        proc, self._proc = self._proc, None
        self._buffer.clear()
        if proc is None:
            return None
        proc.stdin.close()
        try:
            proc.wait(timeout=CLOSE_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        return proc.returncode
