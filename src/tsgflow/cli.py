"""Command-line surface.

    tsgflow lint <tsg.md> [--json] [--analyzer CMD]
    tsgflow extract dag <tsg.md> -o <dag.json>
    tsgflow extract qpp <tsg.md> -o <manifest.json>
    tsgflow prepare <manifest.json> <template> --param k=v ...
    tsgflow run <bundle_dir> --scenario <s> [--executors K] [--mode virtual|wall]
                [--retry R] [--trace <out.jsonl>]
    tsgflow sweep <bundle_dir> --scenario <s> --executors A..B
                  [--report <r.json>] [--baseline <bundle_dir>]
    tsgflow oracle <bundle_dir> --scenario <s>

Exit codes: 0 success, 1 findings or errors of severity error, 2 usage.
`main` is the one place an error becomes exit 1: any TsgflowError prints
`error: <ClassName>: <message>` and an OSError `error: <message>`. argparse
is the one place for exit 2, `--param` without `=` included. Input text
that reaches stdout or stderr goes through `errors.escaped`, so a lone
surrogate from a JSON input prints as its escape instead of failing the
stream.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from dataclasses import asdict
from pathlib import Path

from .dag import extract_dag, serialize_dag, validate_dag
from .document import parse_tsg, read_utf8
from .engine import RunConfig, RunStatus
from .errors import TsgflowError, escaped
from .harness import load_bundle, load_scenario, run_scenario, sweep
from .lint import ExternalAnalyzer, findings_to_json, lint
from .oracle import oracle_makespan
from .queryprep import (
    dump_manifest,
    extract_templates,
    load_manifest,
    prepare_query,
    template_named,
)


def _parse_k_range(text: str) -> list[int]:
    """`K` or `A..B` (1 <= A <= B) as a list of executor counts; argparse
    turns the ArgumentTypeError into a usage error."""
    lo, sep, hi = text.partition("..")
    try:
        ks = list(range(int(lo), int(hi if sep else lo) + 1))
    except ValueError:
        ks = []
    if not ks:
        raise argparse.ArgumentTypeError(f"expected K or A..B with integers A <= B, got {text!r}")
    if ks[0] < 1:
        raise argparse.ArgumentTypeError(f"expected executor counts >= 1, got {text!r}")
    return ks


def _int_at_least(low: int):
    """An argparse type for integers >= `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


def _key_value(text: str) -> tuple[str, str]:
    """An argparse type for `K=V`, split at the first `=`."""
    key, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected K=V, got {text!r}")
    return key, value


def _command_line(text: str) -> list[str]:
    """An argparse type for a command line of one or more words, split as a shell would."""
    try:
        argv = shlex.split(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from None
    if not argv:
        raise argparse.ArgumentTypeError(f"expected a command, got {text!r}")
    return argv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tsgflow")
    sub = parser.add_subparsers(dest="command", required=True)

    p_lint = sub.add_parser("lint", help="run quality checks over a guide")
    p_lint.add_argument("tsg")
    p_lint.add_argument("--json", action="store_true")
    p_lint.add_argument("--analyzer", metavar="CMD", type=_command_line,
                        help="external analyzer command line (split as a shell would)")

    p_extract = sub.add_parser("extract", help="extract artifacts from a guide")
    esub = p_extract.add_subparsers(dest="what", required=True)
    p_dag = esub.add_parser("dag")
    p_dag.add_argument("tsg")
    p_dag.add_argument("-o", "--output", required=True)
    p_qpp = esub.add_parser("qpp")
    p_qpp.add_argument("tsg")
    p_qpp.add_argument("-o", "--output", required=True)

    p_prepare = sub.add_parser("prepare", help="instantiate a query template")
    p_prepare.add_argument("manifest")
    p_prepare.add_argument("template")
    p_prepare.add_argument("--param", action="append", default=[], metavar="K=V",
                           type=_key_value)

    p_run = sub.add_parser("run", help="execute a bundle against a scenario")
    p_run.add_argument("bundle")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--executors", type=_int_at_least(1), default=RunConfig.max_executors)
    p_run.add_argument("--mode", choices=("virtual", "wall"), default=RunConfig.clock)
    p_run.add_argument("--retry", type=_int_at_least(0), default=RunConfig.retry_limit)
    p_run.add_argument("--trace")

    p_sweep = sub.add_parser("sweep", help="run a scenario across executor counts")
    p_sweep.add_argument("bundle")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--executors", required=True, metavar="A..B", type=_parse_k_range)
    p_sweep.add_argument("--retry", type=_int_at_least(0), default=RunConfig.retry_limit)
    p_sweep.add_argument("--report")
    p_sweep.add_argument("--baseline", help="sequential-DAG bundle for the serial baseline")

    p_oracle = sub.add_parser("oracle", help="independent makespan bounds for a scenario")
    p_oracle.add_argument("bundle")
    p_oracle.add_argument("--scenario", required=True)
    p_oracle.add_argument("--retry", type=_int_at_least(0), default=RunConfig.retry_limit)

    return parser


def _cmd_lint(args) -> int:
    doc = parse_tsg(read_utf8(args.tsg))
    analyzer = ExternalAnalyzer(args.analyzer) if args.analyzer else None
    findings = lint(doc, analyzer=analyzer)
    if args.json:
        sys.stdout.write(escaped(findings_to_json(findings)))
    else:
        for f in findings:
            print(escaped(f.render(args.tsg)))
    return 1 if any(f.severity == "error" for f in findings) else 0


def _cmd_extract(args) -> int:
    doc = parse_tsg(read_utf8(args.tsg))
    if args.what == "dag":
        dag = extract_dag(doc)
        report = validate_dag(dag)
        if not report.ok:
            for v in report.violations:
                print(f"{v.code}({v.subject}): {v.message}", file=sys.stderr)
            return 1
        Path(args.output).write_text(serialize_dag(dag), encoding="utf-8")
        print(f"wrote {args.output} ({len(dag.nodes)} nodes, {len(dag.edges)} edges)")
        return 0
    templates = extract_templates(doc)
    Path(args.output).write_text(dump_manifest(doc.tsg_id, templates), encoding="utf-8")
    print(f"wrote {args.output} ({len(templates)} templates)")
    return 0


def _cmd_prepare(args) -> int:
    _, templates = load_manifest(read_utf8(args.manifest), args.manifest)
    template = template_named(templates, args.template)
    prepared = prepare_query(template, dict(args.param))
    sys.stdout.write(escaped(prepared.text))
    if not prepared.text.endswith("\n"):
        sys.stdout.write("\n")
    return 0


def _cmd_run(args) -> int:
    bundle = load_bundle(args.bundle)
    scenario = load_scenario(args.bundle, args.scenario)
    result = run_scenario(
        bundle,
        scenario,
        executors=args.executors,
        retry_limit=args.retry,
        clock=args.mode,
        trace_path=args.trace,
    )
    summary = {
        "status": result.status.value,
        "conclusion": result.conclusion,
        "makespan": result.makespan,
        "executed": result.executed,
        "cancelled": result.cancelled,
    }
    print(escaped(json.dumps(summary, ensure_ascii=False)))
    return 0 if result.status is RunStatus.CONCLUDED else 1


def _cmd_sweep(args) -> int:
    bundle = load_bundle(args.bundle)
    scenario = load_scenario(args.bundle, args.scenario)
    baseline = None
    if args.baseline:
        baseline = (load_bundle(args.baseline), load_scenario(args.baseline, args.scenario))
    report = sweep(
        bundle,
        scenario,
        args.executors,
        retry_limit=args.retry,
        baseline=baseline,
    )
    if args.report:
        Path(args.report).write_text(
            json.dumps(report.to_obj(), indent=2, ensure_ascii=False) + "\n", encoding="utf-8",
            errors="backslashreplace",  # as in run_scenario's trace
        )
    for entry in report.entries:
        reduction = report.reductions.get(entry.k, 0.0)
        print(
            f"k={entry.k} makespan={entry.makespan} status={entry.status} "
            f"reduction={reduction * 100:.1f}%"
        )
    print(
        f"baseline={report.baseline_kind}({report.baseline_makespan}) "
        f"width={report.oracle.width} bounds_ok={report.bounds_ok} "
        f"saturation_ok={report.saturation_ok} oracle_ok={report.oracle_ok}"
    )
    return 0


def _cmd_oracle(args) -> int:
    bundle = load_bundle(args.bundle)
    scenario = load_scenario(args.bundle, args.scenario)
    oracle = oracle_makespan(bundle.dag, scenario, retry_limit=args.retry)
    print(json.dumps(asdict(oracle)))
    return 0


_COMMANDS = {
    "lint": _cmd_lint,
    "extract": _cmd_extract,
    "prepare": _cmd_prepare,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except TsgflowError as exc:
        print(escaped(f"error: {type(exc).__name__}: {exc}"), file=sys.stderr)
        return 1
    except OSError as exc:
        print(escaped(f"error: {exc}"), file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
