"""The one root of every error tsgflow raises on purpose, the UTF-8 file reader,
and the rule by which the CLI writes a lone surrogate to a UTF-8 stream."""

from pathlib import Path


class TsgflowError(Exception):
    """Any tsgflow failure with a name: a malformed guide, DAG, manifest,
    scenario, fixture or log, a failed plugin or child process, or a
    scheduler invariant broken by a backend.

    Each module keeps its own family under this root (DagError, EngineError,
    PluginError, ...), so a caller catches one family or all of them.
    `tsgflow.cli.main` reports any of them as `error: <ClassName>: <message>`
    and exits 1. It imports nothing from the package, so every module can
    import it.
    """


# What json.loads raises for input that does not decode: ValueError (bad JSON or
# UTF-8, an integer past sys.get_int_max_str_digits()) or RecursionError (nesting).
JSON_DECODE_ERRORS = (ValueError, RecursionError)


class FileNotUtf8(TsgflowError):
    """A guide, DAG, query-template manifest or scenario file that is not UTF-8."""


def read_utf8(path: str | Path) -> str:
    """The text of a guide, DAG, manifest or scenario file; raises
    FileNotUtf8, naming the file, when it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FileNotUtf8(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from None


def escaped(text: str) -> str:
    """`text` with each lone surrogate (what a `\\ud800` escape in a JSON
    input decodes to) written as that escape, so that a strict UTF-8 stream
    takes it; inside a JSON string, it decodes back to the same surrogate."""
    return text.encode("utf-8", "backslashreplace").decode("utf-8")
