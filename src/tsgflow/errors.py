"""The one root of every error tsgflow raises on purpose."""


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
