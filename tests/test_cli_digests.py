"""CLI output pinned to fixed digests.

tests/fixtures/cli_digests.json holds, for every command of a fixed matrix
over the fixture bundles, the exit code and the SHA-256 of stdout, of
stderr and of each file the command wrote. The matrix: on each bundle and
scenario, `run` at k=1..4 with --retry 0 and 2, each with --trace; `sweep
--executors 1..4 --report`; `oracle`; `lint` and `lint --json` on each
guide; `extract dag` and `extract qpp`; `prepare` of each extracted template
with fixed params; and two error paths (fig5 with a "maybe" decision, and a
scenario that does not exist). The bundle directory and the temporary
directory are replaced by fixed tokens in every text before it is hashed,
so the digests do not depend on where the tests run. A change that alters
any byte of any of them fails here. Regenerate the file only for an
intended output change:

    PYTHONPATH=src:tests python tests/test_cli_digests.py > tests/fixtures/cli_digests.json
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tsgflow.cli import main
from tsgflow.document import parse_tsg, read_utf8
from tsgflow.queryprep import dump_manifest, extract_templates

TESTS_DIR = Path(__file__).parent
BUNDLES = TESTS_DIR / "fixtures" / "bundles"
DIGESTS = TESTS_DIR / "fixtures" / "cli_digests.json"


def _cases(inputs: Path, out: Path):
    """(name, argv) for every pinned command, in a fixed order. Inputs the
    commands read are written under `inputs` first; each command writes
    under `out`."""
    for bundle_dir in sorted(p for p in BUNDLES.iterdir() if p.is_dir()):
        b, tsg = str(bundle_dir), str(bundle_dir / "tsg.md")
        for path in sorted((bundle_dir / "scenarios").glob("*.json")):
            s = path.stem
            for k in (1, 2, 3, 4):
                for retry in (0, 2):
                    yield (f"{bundle_dir.name}/{s}/run-k{k}-r{retry}",
                           ["run", b, "--scenario", s, "--executors", str(k),
                            "--retry", str(retry), "--trace", str(out / "trace.jsonl")])
            yield (f"{bundle_dir.name}/{s}/sweep",
                   ["sweep", b, "--scenario", s, "--executors", "1..4",
                    "--report", str(out / "report.json")])
            yield f"{bundle_dir.name}/{s}/oracle", ["oracle", b, "--scenario", s]
        yield f"{bundle_dir.name}/lint", ["lint", tsg]
        yield f"{bundle_dir.name}/lint-json", ["lint", tsg, "--json"]
        yield f"{bundle_dir.name}/extract-dag", ["extract", "dag", tsg, "-o", str(out / "dag.json")]
        yield f"{bundle_dir.name}/extract-qpp", ["extract", "qpp", tsg, "-o", str(out / "qpp.json")]
        doc = parse_tsg(read_utf8(tsg))
        templates = extract_templates(doc)
        manifest = inputs / f"{bundle_dir.name}.qpp.json"
        manifest.write_text(dump_manifest(doc.tsg_id, templates), encoding="utf-8")
        for template in templates:
            params = [f"--param={p}=v{i}-{p}" for i, p in enumerate(template.placeholders)]
            yield (f"{bundle_dir.name}/prepare-{template.name}",
                   ["prepare", str(manifest), template.name, *params])
    fig5 = BUNDLES / "availability_fig5"
    scenario = json.loads((fig5 / "scenarios" / "dependency_issue.json").read_text("utf-8"))
    scenario["steps"]["step1"]["attempts"][0]["edge_decisions"]["edge_step1_step2"] = "maybe"
    maybe = inputs / "maybe.json"
    maybe.write_text(json.dumps(scenario), encoding="utf-8")
    for command in (["run"], ["oracle"], ["sweep", "--executors", "1..2"]):
        yield (f"availability_fig5/maybe/{command[0]}",
               [command[0], str(fig5), "--scenario", str(maybe), *command[1:]])
    yield ("availability_fig5/missing-scenario",
           ["run", str(fig5), "--scenario", "no_such_scenario"])


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_digests() -> dict[str, dict]:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        inputs, out = root / "in", root / "out"
        inputs.mkdir()
        tokens = ((str(root), "<TMP>"), (str(BUNDLES), "<BUNDLES>"))

        def fixed(text: str) -> bytes:
            for path, token in tokens:
                text = text.replace(path, token)
            return text.encode("utf-8", "surrogateescape")

        for name, argv in _cases(inputs, out):
            out.mkdir()
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(argv)
            digests[name] = {
                "exit": code,
                "stdout": _sha(fixed(stdout.getvalue())),
                "stderr": _sha(fixed(stderr.getvalue())),
                "files": {
                    p.name: _sha(fixed(p.read_text(encoding="utf-8", errors="surrogateescape")))
                    for p in sorted(out.iterdir())
                },
            }
            shutil.rmtree(out)
    return digests


def test_cli_output_matches_pinned_digests():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = cli_digests()
    assert sorted(actual) == sorted(expected)
    assert [name for name in expected if actual[name] != expected[name]] == []


if __name__ == "__main__":
    print(json.dumps(cli_digests(), indent=1, sort_keys=True))
