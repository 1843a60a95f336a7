"""tsgflow benchmark: seeded workloads, end-to-end and per-layer metrics.

One workload, as BENCHMARK.json's command runs it (the last stdout line is the
JSON result; --trace 1 prints the per-layer metrics instead):

    python3 perfbench/run.py --workload replay --seed 1 --seconds 25 --trace 0

Every workload, each untraced --runs times (seeds seed, seed+1, ...) and
traced once, with a results file for --compare:

    python3 perfbench/run.py --all --runs 3 --out perfbench/results/now.json

Deltas between two results files, per workload and end-to-end metric:

    python3 perfbench/run.py --compare perfbench/baseline.json perfbench/results/now.json

Load is closed-loop from this one process: each operation starts when the
previous one returns. Operations are timed with time.perf_counter; checks run
outside the timed region. Reported timings are scaled to a reference host
speed measured between operations (refspeed.py); the measured ones are printed
beside them.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = (5, 50)  # set-up runs this many times at least and at most,
SETUP_SECONDS = 1.0  # and until it has taken this long; setup_s is their median
WORKLOAD_NAMES = ["replay", "scale", "tables"]
TAIL_BLOCK = 1000  # operations per block of the tail (see tail)

# (name, unit, better) -- the end-to-end metrics, in BENCHMARK.json's order
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("steps_per_s", "1/s", "higher"),
    ("rows_per_s", "1/s", "higher"),
]

# per-step layers: metric base name -> span name; each also gets a .n250,
# .n1000 and .n2000 variant, filled on the scale workload
PER_STEP = [
    ("document.parse_us_per_step", "document.parse"),
    ("lint.us_per_step", "lint"),
    ("dag.extract_us_per_step", "dag.extract"),
    ("dag.validate_us_per_step", "dag.validate"),
    ("dag.roundtrip_us_per_step", "dag.roundtrip"),
    ("queryprep.extract_us_per_step", "queryprep.extract"),
    ("engine.runstate_init_us_per_node", "engine.runstate_init"),
    ("engine.run_us_per_step", "engine.run"),
]
SIZES = ["n250", "n1000", "n2000"]
PLUGINS = ["log_query", "metric_fetch", "devops_deployments", "devops_code_changes",
           "analysis.aggregate", "analysis.pearson"]


def per_layer_spec() -> list[tuple[str, str, str]]:
    spec = []
    for name, _ in PER_STEP:
        spec += [(name, "us", "lower")] + [(f"{name}.{s}", "us", "lower") for s in SIZES]
    spec += [
        ("queryprep.prepare_us", "us", "lower"),
        ("harness.load_bundle_ms", "ms", "lower"),
        ("engine.self_us_per_dispatch", "us", "lower"),
        ("engine.backend_us_per_dispatch", "us", "lower"),
        ("engine.idle_gap_ms_per_op", "ms", "lower"),
        ("engine.dispatches_per_op", "count", "lower"),
        ("engine.retries_per_op", "count", "lower"),
        ("engine.cancelled_per_op", "count", "lower"),
        ("engine.useful_dispatch_ratio", "ratio", "higher"),
        ("memory.put_us", "us", "lower"),
        ("memory.ref_us", "us", "lower"),
        ("memory.put_us_per_krow", "us", "lower"),
        ("memory.render_us", "us", "lower"),
        ("memory.puts_per_op", "count", "lower"),
        ("memory.rows_per_op", "count", "lower"),
    ]
    spec += [(f"plugins.{p}.invoke_ms", "ms", "lower") for p in PLUGINS]
    spec += [("plugins.rows_returned_per_op", "count", "lower"), ("oracle.makespan_ms", "ms", "lower")]
    return spec


PER_LAYER = per_layer_spec()


# -- statistics ---------------------------------------------------------------------


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(rounds: list[list[float]]) -> tuple[float, dict]:
    """The tail of per-round latencies: p99 when at least ten samples lie
    beyond it, else p90 (which has ten beyond it from 100 samples on).

    When the run holds two or more blocks of whole rounds with TAIL_BLOCK
    operations each, p99 is taken in each block and the median over blocks is
    reported. A burst of host noise then moves one block, not the whole tail.
    Returns (value, how it was taken)."""
    blocks, block = [], []
    for latencies in rounds:
        block += latencies
        if len(block) >= TAIL_BLOCK:
            blocks.append(block)
            block = []
    if blocks and block:
        blocks[-1] += block
    if len(blocks) < 2:
        blocks = [[x for latencies in rounds for x in latencies]]
    n = min(len(b) for b in blocks)
    p = 99 if n - math.ceil(0.99 * n) >= 10 else 90
    value = statistics.median(percentile(sorted(b), p) for b in blocks)
    return value, {"percentile": f"p{p}", "blocks": len(blocks), "samples": sum(map(len, blocks)),
                   "samples_beyond": n - math.ceil(p / 100 * n)}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


# -- one workload run ---------------------------------------------------------------


def import_program():
    """Import tsgflow from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import tsgflow
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import tsgflow from {ROOT / 'src'}: {exc}")
    if not Path(tsgflow.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: tsgflow resolved to {tsgflow.__file__}, outside {ROOT / 'src'}")


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    from refspeed import RefSpeed
    from spans import Tracer
    from workloads import WORKLOADS, engine_counts

    ref = RefSpeed()
    tracer = Tracer() if traced else None
    work = HERE / ".work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[name](seed, work, smoke, tracer)
        wl.generate()
        setups, setup_starts = [], []
        while len(setups) < SETUP_REPEATS[0] or (
                sum(setups) < SETUP_SECONDS and len(setups) < SETUP_REPEATS[1]):
            gc.collect()  # each set-up starts from the same collector state
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
            setup_starts.append(t0)
            ref.keep_up(sum(setups))
        setup_calls = len(ref.samples)
        wl.prepare()
        if tracer:
            tracer.finish_op()

        attempted, failed, errors = 0, 0, []
        # per timed round: [guide steps, memory rows, [latencies], [start times]]
        rounds = []
        counts = {"dispatches": 0, "retries": 0, "cancelled": 0, "cancelled_running": 0}
        plugin_rows = 0
        worked = 0.0  # seconds of timed operations, for the reference kernel's share

        def one(desc, timed: bool) -> None:
            nonlocal attempted, failed, plugin_rows, worked
            attempted += 1
            t0 = time.perf_counter()
            try:
                op = wl.op(desc)
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                errors.append(f"{desc}: {type(exc).__name__}: {exc}")
                if tracer:
                    tracer.current = []
                return
            elapsed = time.perf_counter() - t0
            if tracer and timed:
                tracer.finish_op(wl.group(desc))
            elif tracer:
                tracer.current = []
            if not wl.check(desc, op):
                failed += 1
                errors.append(f"{desc}: output does not match the reference")
            if timed:
                tally = rounds[-1]
                tally[0] += op.steps
                tally[1] += op.rows()
                tally[2].append(elapsed)
                tally[3].append(t0)
                plugin_rows += sum(op.facts.get("plugin_rows", ()))
                for key, value in engine_counts(op.result).items():
                    counts[key] += value
                worked += elapsed
                ref.keep_up(worked)

        for desc in wl.round():  # warm-up round: checked, not timed
            one(desc, timed=False)
        gc.collect()
        start = time.perf_counter()
        while True:
            rounds.append([0, 0, [], []])
            for desc in wl.round():
                one(desc, timed=True)
            if time.perf_counter() - start >= seconds:
                break
        if tracer:
            wl.probe(wl.guides())
            results = HERE / "results"
            results.mkdir(exist_ok=True)
            tracer.write(results / f"spans-{name}-{seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    timed = [r for r in rounds if r[2]]
    ordered = sorted(x for r in timed for x in r[2])
    # host speed factors (see refspeed.py): the timed phase's, each set-up's and each operation's
    run_factor = ref.factor(setup_calls) or 1.0
    setup_factors = [ref.local_factor(t0, t0 + x) or run_factor for x, t0 in zip(setups, setup_starts)]
    op_factors = [[ref.local_factor(t0, t0 + x) or run_factor for x, t0 in zip(r[2], r[3])]
                  for r in timed]

    def end_to_end(setup_f: list[float], op_f: list[list[float]]) -> dict:
        latencies = [[x * f for x, f in zip(r[2], fs)] for r, fs in zip(timed, op_f)]
        ordered = sorted(x for r in latencies for x in r)

        def rate(work) -> float:
            """Median over rounds of work done per second of operation time."""
            return statistics.median(work(r) / sum(lat) for r, lat in zip(timed, latencies)) \
                if timed else float("nan")

        return {
            "setup_s": statistics.median(x * f for x, f in zip(setups, setup_f)),
            "ops_per_s": rate(lambda r: len(r[2])),
            "op_p50_ms": percentile(ordered, 50) * 1e3 if ordered else float("nan"),
            "op_tail_ms": tail(latencies)[0] * 1e3 if ordered else float("nan"),
            # less the reference kernel's chain, which the program never sees
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - ref.rss_mb,
            "steps_per_s": rate(lambda r: r[0]),
            "rows_per_s": rate(lambda r: r[1]),
        }

    detail = {
        "workload": name, "seed": seed, "traced": traced, "ops": len(ordered), "rounds": len(timed),
        "setups": len(setups),
        "attempted": attempted, "failed": failed, "failed_ratio": failed / max(attempted, 1),
        "tail": tail([r[2] for r in timed])[1] if timed else None,
        "errors": errors[:10], "host": {"speed_factor": run_factor, "kernel_calls": len(ref.samples)},
        "end_to_end": end_to_end(setup_factors, op_factors),
        "end_to_end_measured": end_to_end([1.0] * len(setups), [[1.0] * len(r[2]) for r in timed]),
    }
    if tracer:
        layers = layer_metrics(tracer, len(ordered), counts, plugin_rows)
        detail["per_layer"] = at_ref_speed(layers, run_factor)
        detail["per_layer_measured"] = layers
    return detail


def at_ref_speed(metrics: dict, factor: float) -> dict:
    """Timings scaled to the reference host speed (see refspeed.py): times
    by `factor`, rates by its inverse; counts, ratios and sizes as measured."""
    units = {n: u for n, u, _ in END_TO_END + PER_LAYER}
    scale = {"s": factor, "ms": factor, "us": factor, "1/s": 1 / factor}
    return {n: v * scale.get(units[n], 1.0) for n, v in metrics.items()}


def layer_metrics(t, ops: int, counts: dict, plugin_rows: int) -> dict:
    def per_unit(span: str, scale: float) -> float:
        units = t.get(span, 3)
        return t.get(span, 1) / units * scale if units else 0.0

    def mean(span: str, field: int, scale: float) -> float:
        n = t.get(span, 0)
        return t.get(span, field) / n * scale if n else 0.0

    dispatches = counts["dispatches"]
    out = {}
    for name, span in PER_STEP:
        out[name] = per_unit(span, 1e6)
        for size in SIZES:
            out[f"{name}.{size}"] = per_unit(f"{span}.{size}", 1e6)
    krows = t.get("memory.put.table", 3) / 1000
    out.update({
        "queryprep.prepare_us": mean("queryprep.prepare", 1, 1e6),
        "harness.load_bundle_ms": mean("harness.load_bundle", 1, 1e3),
        "engine.self_us_per_dispatch": t.get("engine.run", 2) / dispatches * 1e6 if dispatches else 0.0,
        "engine.backend_us_per_dispatch": t.get("engine.execute", 1) / dispatches * 1e6 if dispatches else 0.0,
        "engine.idle_gap_ms_per_op": t.idle / ops * 1e3,
        "engine.dispatches_per_op": dispatches / ops,
        "engine.retries_per_op": counts["retries"] / ops,
        "engine.cancelled_per_op": counts["cancelled"] / ops,
        "engine.useful_dispatch_ratio":
            (dispatches - counts["retries"] - counts["cancelled_running"]) / dispatches if dispatches else 0.0,
        "memory.put_us": mean("memory.put", 2, 1e6),
        "memory.ref_us": mean("memory.ref", 1, 1e6),
        "memory.put_us_per_krow": t.get("memory.put.table", 2) / krows * 1e6 if krows else 0.0,
        "memory.render_us": mean("memory.ref.table", 1, 1e6),
        "memory.puts_per_op": (t.get("memory.put", 0) + t.get("memory.put.table", 0)) / ops,
        "memory.rows_per_op": (t.get("memory.put", 0) + t.get("memory.put.table", 3)) / ops,
    })
    for p in PLUGINS:
        out[f"plugins.{p}.invoke_ms"] = mean(f"plugin.{p}", 1, 1e3)
    out["plugins.rows_returned_per_op"] = plugin_rows / ops
    out["oracle.makespan_ms"] = mean("oracle.makespan", 1, 1e3)
    return out


def print_detail(d: dict) -> None:
    print(f"workload {d['workload']}  seed {d['seed']}  traced {int(d['traced'])}  "
          f"operations timed {d['ops']}")
    host = d["host"]
    print(f"  host speed factor {host['speed_factor']:.4f} from {host['kernel_calls']} kernel calls; "
          f"columns: at reference speed, as measured")
    units = {n: u for n, u, _ in END_TO_END}
    for name, value in d["end_to_end"].items():
        note = ""
        if name == "setup_s":
            note += f"median of {d['setups']} set-ups"
        elif name == "op_tail_ms":
            tl = d["tail"]
            if tl and tl["blocks"] > 1:
                note += (f"{tl['percentile']}, median over {tl['blocks']} blocks ({tl['samples']} samples), "
                         f"at least {tl['samples_beyond']} samples beyond it in each")
            elif tl:
                note += f"{tl['percentile']}, {tl['samples_beyond']} of {tl['samples']} samples beyond it"
        measured = d["end_to_end_measured"][name]
        print(f"  {name:<16} {value:>14.4f} {measured:>14.4f} {units[name]:<6} {note}")
    print(f"  {'failed_ratio':<16} {d['failed_ratio']:>14.4f} {'':<6} "
          f"{d['failed']} of {d['attempted']} operations failed or were wrong")
    for err in d["errors"]:
        print(f"  error: {err}")
    if "per_layer" in d:
        layer_units = {n: u for n, u, _ in PER_LAYER}
        for name, value in d["per_layer"].items():
            measured = d["per_layer_measured"][name]
            print(f"  {name:<40} {value:>14.4f} {measured:>14.4f} {layer_units[name]}")


def result_line(d: dict) -> str:
    units = {n: u for n, u, _ in END_TO_END + PER_LAYER}
    metrics = d["per_layer"] if d["traced"] else d["end_to_end"]
    return json.dumps({
        "correct": d["failed"] == 0,
        "attempted": d["attempted"],
        "failed": d["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    })


# -- all workloads, results files, compare -----------------------------------------------


def environment() -> dict:
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        git = "unknown"
    return {"git": git, "python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def child(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload in its own process, so peak RSS is that workload's."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(traced)), "--detail"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(args) -> None:
    out = {"environment": environment(), "seconds": args.seconds, "workloads": {}}
    for name in WORKLOAD_NAMES:
        runs = [child(name, args.seed + i, args.seconds, False) for i in range(args.runs)]
        traced = child(name, args.seed, args.seconds, True)
        summary = {}
        for metric, _, _ in END_TO_END:
            values = [r["end_to_end"][metric] for r in runs]
            q1, med, q3 = quartiles(values)
            summary[metric] = {"median": med, "q1": q1, "q3": q3, "values": values}
        overhead = {m: traced["end_to_end"][m] / summary[m]["median"] - 1 for m, _, _ in END_TO_END}
        out["workloads"][name] = {"end_to_end": summary, "runs": runs, "traced": traced,
                                  "tracing_overhead": overhead}
        for r in runs:
            print_detail(r)
        print_detail(traced)
        print("  tracing overhead (traced run against the untraced median):")
        for m, v in overhead.items():
            print(f"    {m:<16} {v:+.1%}")
        print()
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
        print(f"results written to {args.out}")


def compare(path_a: str, path_b: str) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (path_a, path_b))
    for side, doc in (("A", a), ("B", b)):
        env = doc["environment"]
        print(f"{side}: git {env['git']}  python {env['python']}  nproc {env['nproc']}  {env['time']}")
    for name in WORKLOAD_NAMES:
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        print(f"workload {name}")
        for metric, bound in bounds.items():
            ma, mb = a["workloads"][name]["end_to_end"][metric], b["workloads"][name]["end_to_end"][metric]
            delta = mb["median"] / ma["median"] - 1
            worse = delta if better[metric] == "lower" else -delta
            spread = max((m["q3"] - m["q1"]) / m["median"] for m in (ma, mb))
            if better[metric] == "lower":
                all_better = max(mb["values"]) < min(ma["values"])
            else:
                all_better = min(mb["values"]) > max(ma["values"])
            if spread > bound and not all_better:
                verdict = "unresolved (spread above bound)"
            elif worse > bound:
                verdict = "WORSE beyond bound"
            elif worse < -bound or all_better:
                verdict = "better"
            else:
                verdict = "unchanged within bound"
            print(f"  {metric:<14} {ma['median']:>12.4f} -> {mb['median']:>12.4f}  {delta:+8.1%}  "
                  f"spread {spread:6.1%}  bound {bound:.0%}  {verdict}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="smallest sizes, for the smoke test")
    ap.add_argument("--detail", action="store_true", help="print the full result as the last line")
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--runs", type=int, default=3, help="untraced runs per workload with --all")
    ap.add_argument("--out", help="results file for --all")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two results files")
    args = ap.parse_args(argv)

    if args.compare:
        compare(*args.compare)
        return 0
    import_program()
    if args.all:
        run_all(args)
        return 0
    if not args.workload:
        ap.error("--workload, --all or --compare is required")
    d = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print_detail(d)
    print(json.dumps(d) if args.detail else result_line(d))
    return 0


if __name__ == "__main__":
    sys.exit(main())
