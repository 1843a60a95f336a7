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
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from pathlib import Path

from .dag import DagError, extract_dag, serialize_dag, validate_dag
from .document import TsgParseError, parse_tsg, read_guide
from .engine import EngineError, RunStatus
from .harness import HarnessError, load_bundle, load_scenario, run_scenario, sweep
from .lint import ExternalAnalyzer, LintError, findings_to_json, lint
from .oracle import oracle_makespan
from .queryprep import TemplateError, dump_manifest, extract_templates, load_manifest, prepare_query


def _parse_k_range(text: str) -> list[int]:
    """`K` or `A..B` (A <= B) as a list of executor counts; argparse turns the
    ArgumentTypeError into a usage error."""
    lo, sep, hi = text.partition("..")
    try:
        ks = list(range(int(lo), int(hi if sep else lo) + 1))
    except ValueError:
        ks = []
    if not ks:
        raise argparse.ArgumentTypeError(f"expected K or A..B with integers A <= B, got {text!r}")
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tsgflow")
    sub = parser.add_subparsers(dest="command", required=True)

    p_lint = sub.add_parser("lint", help="run quality checks over a guide")
    p_lint.add_argument("tsg")
    p_lint.add_argument("--json", action="store_true")
    p_lint.add_argument("--analyzer", metavar="CMD",
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
    p_prepare.add_argument("--param", action="append", default=[], metavar="K=V")

    p_run = sub.add_parser("run", help="execute a bundle against a scenario")
    p_run.add_argument("bundle")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--executors", type=_int_at_least(1), default=1)
    p_run.add_argument("--mode", choices=("virtual", "wall"), default="virtual")
    p_run.add_argument("--retry", type=_int_at_least(0), default=2)
    p_run.add_argument("--trace")

    p_sweep = sub.add_parser("sweep", help="run a scenario across executor counts")
    p_sweep.add_argument("bundle")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--executors", required=True, metavar="A..B", type=_parse_k_range)
    p_sweep.add_argument("--retry", type=_int_at_least(0), default=2)
    p_sweep.add_argument("--report")
    p_sweep.add_argument("--baseline", help="sequential-DAG bundle for the serial baseline")

    p_oracle = sub.add_parser("oracle", help="independent makespan bounds for a scenario")
    p_oracle.add_argument("bundle")
    p_oracle.add_argument("--scenario", required=True)
    p_oracle.add_argument("--retry", type=_int_at_least(0), default=2)

    return parser


def _cmd_lint(args) -> int:
    doc = parse_tsg(read_guide(args.tsg))
    analyzer = ExternalAnalyzer(shlex.split(args.analyzer)) if args.analyzer else None
    findings = lint(doc, analyzer=analyzer)
    if args.json:
        sys.stdout.write(findings_to_json(findings))
    else:
        for f in findings:
            print(f.render(args.tsg))
    return 1 if any(f.severity == "error" for f in findings) else 0


def _cmd_extract(args) -> int:
    doc = parse_tsg(read_guide(args.tsg))
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
    _, templates = load_manifest(Path(args.manifest).read_text(encoding="utf-8"), args.manifest)
    by_name = {t.name: t for t in templates}
    if args.template not in by_name:
        print(f"error: no template named {args.template!r} in manifest", file=sys.stderr)
        return 1
    params = {}
    for raw in args.param:
        key, sep, value = raw.partition("=")
        if not sep:
            print(f"error: --param needs K=V, got {raw!r}", file=sys.stderr)
            return 2
        params[key] = value
    prepared = prepare_query(by_name[args.template], params)
    sys.stdout.write(prepared.text)
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
    print(
        json.dumps(
            {
                "status": result.status.value,
                "conclusion": result.conclusion,
                "makespan": result.makespan,
                "executed": result.executed,
                "cancelled": result.cancelled,
            },
            ensure_ascii=False,
        )
    )
    return 0 if result.status is RunStatus.CONCLUDED else 1


def _cmd_sweep(args) -> int:
    bundle = load_bundle(args.bundle)
    scenario = load_scenario(args.bundle, args.scenario)
    baseline = None
    if args.baseline:
        base_bundle = load_bundle(args.baseline)
        base_scenario = load_scenario(args.baseline, args.scenario)
        baseline = (base_bundle, base_scenario)
    report = sweep(
        bundle,
        scenario,
        args.executors,
        retry_limit=args.retry,
        baseline=baseline,
    )
    if args.report:
        Path(args.report).write_text(
            json.dumps(report.to_obj(), indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
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
        f"saturation_ok={report.saturation_ok}"
    )
    return 0


def _cmd_oracle(args) -> int:
    bundle = load_bundle(args.bundle)
    scenario = load_scenario(args.bundle, args.scenario)
    oracle = oracle_makespan(bundle.dag, scenario, retry_limit=args.retry)
    print(
        json.dumps(
            {
                "critical_path_to_conclusion": oracle.critical_path_to_conclusion,
                "serial_sum": oracle.serial_sum,
                "width": oracle.width,
            }
        )
    )
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
    except (TsgParseError, DagError, TemplateError, EngineError, HarnessError, LintError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
