"""Seeded input generators for the benchmark.

Everything here is benchmark-side knowledge: the generator writes conforming
guides, scenarios and plugin fixtures to disk (the program under test sees
only those files) and returns what it planted (the expected conclusion of
each scenario, the raw rows behind each fixture table) so the checks never
depend on the engine's own answers.

Sizes are fixed per workload; the seed only varies structure details, texts,
latencies and data values. That keeps the amount of work per round nearly the
same from seed to seed, so end-to-end figures from different seeds agree.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

INPUTS = ["incident_id", "service", "ring", "start_time", "end_time"]
WINDOW_START = datetime(2026, 3, 1, tzinfo=timezone.utc)

_NOUNS = ["gateway", "cache", "queue", "database", "scheduler", "frontend",
          "storage", "auth", "billing", "search", "indexer", "router"]
_VERBS = ["Inspect", "Check", "Compare", "Collect", "Review", "Probe", "Trace", "Sample"]
_TABLES = ["ServiceLogs", "RequestTrace", "DeployEvents", "MetricFeed", "JobRuns"]


def rng_for(seed: int, *parts) -> random.Random:
    return random.Random(":".join([str(seed), *map(str, parts)]))


def iso(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


# -- guide model -----------------------------------------------------------------


@dataclass
class GStep:
    """One guide step. Arms are step ids, or ("end", conclusion) tuples."""

    id: str
    kind: str  # next | parallel | if | terminate
    targets: list = field(default_factory=list)  # next/parallel: step ids; if: [Y arm, N arm]
    question: str = ""
    conclusion: str = ""  # terminate steps
    query: bool = False
    produces: str = ""

    @property
    def node(self) -> str:
        return f"step{self.id}"

    def edges(self) -> list[tuple[str, str | None]]:
        """(edge id, Y/N label or None) for every outgoing edge."""
        if self.kind == "terminate":
            return [(f"edge_{self.node}_end", None)]
        if self.kind in ("next", "parallel"):
            return [(f"edge_{self.node}_step{t}", None) for t in self.targets]
        out = []
        for label, arm in zip("YN", self.targets):
            target = "end" if isinstance(arm, tuple) else f"step{arm}"
            out.append((f"edge_{self.node}_{target}", label))
        return out


@dataclass
class Guide:
    tsg_id: str
    title: str
    steps: list[GStep]


def _arm_text(arm) -> str:
    return f"Terminate({arm[1]})" if isinstance(arm, tuple) else f"Step {arm}"


def render_guide(g: Guide, rng: random.Random) -> str:
    lines = [f"# TSG: {g.tsg_id} — {g.title}", "", "Inputs: " + ", ".join(INPUTS), "",
             "Generated guide for the benchmark. Every step names its successors.", ""]
    for s in g.steps:
        noun = rng.choice(_NOUNS)
        lines += [f"## Step {s.id}: {rng.choice(_VERBS)} the {noun} signals", "",
                  f"Look at the {noun} signals for the incident window and record what you see.", ""]
        if s.query:
            name = "q_" + s.id.replace(".", "_")
            lines += [f"```kql name={name}", rng.choice(_TABLES),
                      "| where ServiceName == '{service}' and DeployRing == '{ring}'",
                      "| where TIMESTAMP between (datetime({start_time}) .. datetime({end_time}))",
                      f"| summarize Count = count() by {noun.capitalize()}Id",
                      "```", ""]
        if s.produces:
            lines += [f"Produces: {s.produces}", ""]
        if s.kind == "terminate":
            lines += [f"Terminate: {s.conclusion}", ""]
            continue
        lines.append("Next:")
        if s.kind == "next":
            lines.append(f"- Step {s.targets[0]}")
        elif s.kind == "parallel":
            lines.append("- Parallel: " + ", ".join(f"Step {t}" for t in s.targets))
        else:
            y, n = s.targets
            lines.append(f"- If {s.question}: Y -> {_arm_text(y)}; N -> {_arm_text(n)}")
        lines.append("")
    return "\n".join(lines)


def _question(rng: random.Random, sid: str) -> str:
    return f"the {rng.choice(_NOUNS)} probe of step {sid} reports errors above {rng.randint(2, 90)} per minute"


def _if(sid: str, rng: random.Random, yes, no) -> GStep:
    return GStep(sid, "if", [yes, no], question=_question(rng, sid))


def _decorate(g: Guide, query_every: int, produce_every: int) -> None:
    for i, s in enumerate(g.steps):
        s.query = i % query_every == 1
        if i % produce_every == 0:
            s.produces = "finding_" + s.id.replace(".", "_")


# -- shapes ------------------------------------------------------------------------


def chain_guide(tsg_id: str, n: int, rng: random.Random) -> Guide:
    """Steps 1..n in a line; most steps ask a Y/N question whose N arm concludes."""
    steps = []
    for i in range(1, n):
        if i % 3 != 0:
            steps.append(_if(str(i), rng, str(i + 1), ("end", f"cause found at step {i}")))
        else:
            steps.append(GStep(str(i), "next", [str(i + 1)]))
    steps.append(GStep(str(n), "terminate", conclusion="escalate to the owning team"))
    g = Guide(tsg_id, "Generated chain guide", steps)
    _decorate(g, query_every=4, produce_every=2)
    return g


def fanout_guide(tsg_id: str, n: int, width: int, rng: random.Random) -> Guide:
    """Step 1 forks into `width` probe tracks; a track concludes on Y at its end,
    every N arm falls back to a shared hand-off step (like the paper's fig. 5)."""
    length = max(1, (n - 2) // width)
    fallback = str(width + 2)
    steps = [GStep("1", "parallel", [f"{t + 2}.1" for t in range(width)])]
    for t in range(width):
        for j in range(1, length + 1):
            sid = f"{t + 2}.{j}"
            if j < length:
                steps.append(_if(sid, rng, f"{t + 2}.{j + 1}", fallback))
            else:
                steps.append(_if(sid, rng, ("end", f"cause found by track {t + 1}"), fallback))
    steps.append(GStep(fallback, "terminate", conclusion="hand off for manual investigation"))
    g = Guide(tsg_id, "Generated parallel-probe guide", steps)
    _decorate(g, query_every=3, produce_every=2)
    return g


def diamond_guide(tsg_id: str, n: int, width: int, rng: random.Random,
                  branch_if_every: int = 1) -> Guide:
    """Blocks of (fork step, `width` branch steps, join step); the last join
    concludes. Branch steps either continue to the join or conclude on N."""
    blocks = max(1, (n - 1) // (width + 1))
    steps = []
    for b in range(blocks):
        fork = str(2 * b + 1)
        branches = [f"{2 * b + 2}.{i + 1}" for i in range(width)]
        steps.append(GStep(fork, "parallel", branches))
        join = str(2 * b + 3)
        for i, sid in enumerate(branches):
            if (b * width + i) % branch_if_every == 0:
                steps.append(_if(sid, rng, join, ("end", f"cause found in branch {sid}")))
            else:
                steps.append(GStep(sid, "next", [join]))
    steps.append(GStep(str(2 * blocks + 1), "terminate", conclusion="all branches clean, escalate"))
    g = Guide(tsg_id, "Generated diamond guide", steps)
    _decorate(g, query_every=3, produce_every=2)
    return g


def layered_guide(tsg_id: str, n: int, width: int, rng: random.Random) -> Guide:
    """An entry step, layers of `width` steps each wired to one or two steps of
    the next layer, and a final concluding step."""
    layers = max(1, (n - 2) // width)
    ids = [[f"{l + 2}.{i + 1}" for i in range(width)] for l in range(layers)]
    steps = [GStep("1", "parallel", list(ids[0]))]
    final = str(layers + 2)
    for l in range(layers):
        for i, sid in enumerate(ids[l]):
            if l == layers - 1:
                steps.append(GStep(sid, "next", [final]))
                continue
            nxt = ids[l + 1]
            first = nxt[i]
            roll = rng.random()
            if roll < 0.2:
                steps.append(_if(sid, rng, first, ("end", f"cause found at step {sid}")))
            elif roll < 0.5:
                other = nxt[(i + rng.randint(1, width - 1)) % width]
                steps.append(GStep(sid, "parallel", sorted({first, other}, key=_key)))
            else:
                steps.append(GStep(sid, "next", [first]))
    steps.append(GStep(final, "terminate", conclusion="walked every layer, escalate"))
    g = Guide(tsg_id, "Generated layered guide", steps)
    _decorate(g, query_every=5, produce_every=3)
    return g


def _key(sid: str) -> tuple:
    return tuple(int(p) for p in sid.split("."))


# -- scenarios ---------------------------------------------------------------------


def _attempts(s: GStep, choice: str, latency: int, fails: int, final_failure: bool) -> dict:
    """Attempt script for one node: `fails` failures first (or failures only)."""
    failure = {"result": "failure", "latency": latency, "error": "scripted fault"}
    if final_failure:
        return {"attempts": [failure]}
    decisions = {}
    for eid, label in s.edges():
        decisions[eid] = "enable" if label is None or label == choice else "disable"
    ok = {"result": "success", "latency": latency, "edge_decisions": decisions,
          "summary": f"step {s.id} answered {choice}"}
    if s.produces:
        ok["memory_writes"] = {s.produces: f"value of {s.produces}"}
        if s.query:
            ok["memory_writes"][s.produces + "_detail"] = {"rows": latency, "source": s.id}
    return {"attempts": [failure] * fails + [ok]}


def _incident(rng: random.Random, tag: str) -> dict:
    fields = {
        "incident_id": f"INC-{rng.randint(100000, 999999)}",
        "service": rng.choice(_NOUNS) + "-svc",
        "ring": rng.choice(["prod", "canary", "staging"]),
        "start_time": iso(WINDOW_START),
        "end_time": iso(WINDOW_START + timedelta(hours=9)),
    }
    return {"id": f"{fields['incident_id']}-{tag}", "fields": fields}


@dataclass
class Planted:
    name: str
    scenario: dict
    conclusion: str | None  # None: the run must end exhausted


def _scenario(name, rng, g: Guide, choices: dict, latency: dict, fails: dict, final: set,
              conclusion) -> Planted:
    steps = {s.node: _attempts(s, choices.get(s.id, "Y"), latency[s.id], fails.get(s.id, 0),
                               s.id in final) for s in g.steps}
    return Planted(name, {"incident": _incident(rng, name), "steps": steps}, conclusion)


def chain_scenarios(g: Guide, rng: random.Random) -> list[Planted]:
    n = len(g.steps)
    lat = {s.id: rng.randint(1, 9) for s in g.steps}
    ifs = [s.id for s in g.steps if s.kind == "if"]
    stop = min(ifs, key=lambda sid: abs(int(sid) - 0.6 * n))
    flaky = {sid: 1 for sid in rng.sample([s.id for s in g.steps], max(1, n // 8))}
    broken = str(max(2, n // 2))
    final = g.steps[-1].conclusion
    return [
        _scenario("early", rng, g, {stop: "N"}, lat, {}, set(), f"cause found at step {stop}"),
        _scenario("retry", rng, g, {}, lat, flaky, set(), final),
        _scenario("failure", rng, g, {}, lat, {}, {broken}, None),
        _scenario("full", rng, g, {}, lat, {}, set(), final),
    ]


def fanout_scenarios(g: Guide, width: int, rng: random.Random) -> list[Planted]:
    tracks = {t: [s for s in g.steps if s.id.startswith(f"{t + 2}.")] for t in range(width)}
    winner = rng.randrange(width)
    fallback = g.steps[-1]

    def base(slow: int):
        choices, lat = {}, {"1": rng.randint(1, 4), fallback.id: rng.randint(1, 4)}
        for t, track in tracks.items():
            for s in track:
                lat[s.id] = rng.randint(1, 3) if t == winner else rng.randint(slow, slow + 10)
            if t != winner:
                choices[track[-1].id] = "N"
        return choices, lat

    conclusion = f"cause found by track {winner + 1}"
    choices, lat = base(10)
    plants = [_scenario("cancel", rng, g, choices, lat, {}, set(), conclusion)]
    choices, lat = base(4)
    flaky = {s.id: 1 for s in tracks[winner][::2]}
    plants.append(_scenario("retry", rng, g, choices, lat, flaky, set(), conclusion))
    choices, lat = base(2)
    loser = (winner + 1) % width
    broken = {tracks[loser][len(tracks[loser]) // 2].id}
    plants.append(_scenario("failure", rng, g, choices, lat, {}, broken, conclusion))
    choices, lat = base(2)
    choices.update({tracks[winner][-1].id: "N"})
    plants.append(_scenario("exhausted", rng, g, choices, lat, {}, {fallback.id}, None))
    return plants


def diamond_scenarios(g: Guide, rng: random.Random) -> list[Planted]:
    branches = [s for s in g.steps if "." in s.id]
    joins = [s for s in g.steps if "." not in s.id and s.kind == "parallel"]
    mid = len(branches) // 2
    block = [s for s in branches if s.id.split(".")[0] == branches[mid].id.split(".")[0]]
    ifs = [s for s in block if s.kind == "if"]
    stopper = ifs[rng.randrange(len(ifs))]
    final = g.steps[-1].conclusion

    lat = {s.id: rng.randint(1, 6) for s in g.steps}
    cancel_lat = dict(lat)
    for s in block:
        cancel_lat[s.id] = 1 if s is stopper else rng.randint(8, 20)
    flaky = {s.id: 1 for s in rng.sample(g.steps, max(1, len(g.steps) // 8))}
    loser = branches[rng.randrange(len(branches))]
    return [
        _scenario("cancel", rng, g, {stopper.id: "N"}, cancel_lat, {}, set(),
                  f"cause found in branch {stopper.id}"),
        _scenario("retry", rng, g, {}, lat, flaky, set(), final),
        _scenario("failure", rng, g, {}, lat, {}, {loser.id}, final),
        _scenario("exhausted", rng, g, {}, lat, {}, {joins[len(joins) // 2].id}, None),
    ]


def scale_scenario(g: Guide, rng: random.Random) -> Planted:
    lat = {s.id: rng.randint(1, 10) for s in g.steps}
    return _scenario("walk", rng, g, {}, lat, {}, set(), g.steps[-1].conclusion)


# -- writing bundles -----------------------------------------------------------------


def write_bundle(root: Path, g: Guide, rng: random.Random, plants: list[Planted]) -> Path:
    bundle = root / g.tsg_id
    (bundle / "scenarios").mkdir(parents=True)
    (bundle / "tsg.md").write_text(render_guide(g, rng), encoding="utf-8")
    for p in plants:
        (bundle / "scenarios" / f"{p.name}.json").write_text(json.dumps(p.scenario), encoding="utf-8")
    return bundle


# Replay population: fixed (shape, steps, width) list; the seed varies structure
# details and latencies only. Sizes span the 8-60 steps of real guides.
REPLAY_POPULATION = [
    ("chain", 8, 0), ("chain", 20, 0), ("chain", 40, 0), ("chain", 60, 0),
    ("fanout", 10, 2), ("fanout", 26, 3), ("fanout", 42, 4), ("fanout", 58, 4),
    ("diamond", 13, 3), ("diamond", 25, 3), ("diamond", 41, 4), ("diamond", 61, 4),
]
REPLAY_SMOKE = [("chain", 8, 0), ("fanout", 10, 2), ("diamond", 13, 3)]


def replay_inputs(seed: int, root: Path, smoke: bool = False) -> list[tuple[Path, list[Planted]]]:
    out = []
    for idx, (shape, n, width) in enumerate(REPLAY_SMOKE if smoke else REPLAY_POPULATION):
        rng = rng_for(seed, "replay", idx)
        tsg_id = f"replay-{shape}-{idx}"
        if shape == "chain":
            g = chain_guide(tsg_id, n, rng)
            plants = chain_scenarios(g, rng)
        elif shape == "fanout":
            g = fanout_guide(tsg_id, n, width, rng)
            plants = fanout_scenarios(g, width, rng)
        else:
            g = diamond_guide(tsg_id, n, width, rng, branch_if_every=2)
            plants = diamond_scenarios(g, rng)
        out.append((write_bundle(root, g, rng, plants), plants))
    return out


# Scale guides: (shape, steps, width). Widths keep every guide at most about
# 400 layers deep: validate_dag and extract_dag use a recursive DFS that hits
# Python's recursion limit near depth 1000.
# Ranked by cost, the round's median operation is the 1000-step guide and
# its p90 a 2000-step one, so neither sits between two kinds of operation.
SCALE_GUIDES = [
    ("layered", 250, 4), ("diamond", 250, 5), ("diamond", 1000, 7),
    ("layered", 2000, 8), ("diamond", 2000, 10),
]
SCALE_SMOKE = [("layered", 30, 4), ("diamond", 30, 4)]


@dataclass
class ScaleInput:
    label: str  # n250 | n1000 | n2000
    shape: str
    guide_path: Path
    scenario_path: Path
    conclusion: str


def scale_inputs(seed: int, root: Path, smoke: bool = False) -> list[ScaleInput]:
    out = []
    for idx, (shape, n, width) in enumerate(SCALE_SMOKE if smoke else SCALE_GUIDES):
        rng = rng_for(seed, "scale", idx)
        tsg_id = f"scale-{shape}-{n}-w{width}"
        if shape == "layered":
            g = layered_guide(tsg_id, n, width, rng)
        else:
            g = diamond_guide(tsg_id, n, width, rng, branch_if_every=5)
        plant = scale_scenario(g, rng)
        bundle = write_bundle(root, g, rng, [plant])
        out.append(ScaleInput(f"n{n}", shape, bundle / "tsg.md",
                              bundle / "scenarios" / f"{plant.name}.json", plant.conclusion))
    return out


# -- tables workload ------------------------------------------------------------------

TABLES_GUIDE = """# TSG: {tsg_id} — Availability drop with table evidence

Inputs: incident_id, service, ring, start_time, end_time

Generated guide for the benchmark. The log and metric tracks run in parallel
and join before the deployment check.

## Step 1: Scope the incident window

Record the service, ring and window before the probes start.

Produces: window_scope

Next:
- Parallel: Step 2, Step 3

## Step 2: Rank exceptions in the service logs

```kql name=exception_log
ServiceLogs
| where ServiceName == '{{service}}' and DeployRing == '{{ring}}'
| where TIMESTAMP between (datetime({{start_time}}) .. datetime({{end_time}}))
| project TIMESTAMP, ExceptionType, Count, LatencyMs, Retried
```

Produces: top_exception

Next:
- If the top exception count exceeds {threshold}: Y -> Step 4; N -> Terminate(no dominant exception)

## Step 3: Correlate availability with the upstream service

Fetch both availability series for the window and correlate them.

Produces: availability_r

Next:
- If the correlation coefficient is at least 0.8: Y -> Step 4; N -> Terminate(upstream not correlated)

## Step 4: Find deployments overlapping the window

Produces: deployment_id

Next:
- If a deployment overlaps the incident window: Y -> Step 5; N -> Terminate(no recent deployment)

## Step 5: List the code changes of the deployment

Produces: change_list

Terminate: roll back the suspect deployment
"""

TABLES_CONCLUSION = "roll back the suspect deployment"
LOG_COLUMNS = ["TIMESTAMP", "ExceptionType", "Count", "LatencyMs", "Retried"]
LOG_TYPES = ["timestamp", "text", "integer", "decimal", "boolean"]

# (log rows, metric points) per bundle. Ranked by cost, the round's median
# operation falls inside the 3k class and its p90 inside the 50k class, so
# op_p50_ms and op_tail_ms never sit on a boundary between two sizes.
TABLES_SIZES = [(2000, 1000), (2000, 1000), (2000, 1500), (3000, 1500), (3000, 2000),
                (3000, 2000), (5000, 2500), (10000, 10000), (50000, 5000), (50000, 5000)]
TABLES_SMOKE = [(200, 100), (300, 120)]


@dataclass
class TablesInput:
    bundle: Path
    scenario: dict
    rows: int
    plan: dict  # node -> what the benchmark-side backend does there
    expect: dict  # reference answers computed from the raw rows


def _write_csv(path: Path, columns, types, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        writer.writerow(types)
        writer.writerows(rows)


def _pearson_reference(xs: list[float], ys: list[float]) -> float:
    """Textbook one-pass formula on shifted data (the program uses two passes)."""
    n = len(xs)
    xs = [x - xs[0] for x in xs]
    ys = [y - ys[0] for y in ys]
    sx, sy = sum(xs), sum(ys)
    sxy = sum(x * y for x, y in zip(xs, ys))
    sxx, syy = sum(x * x for x in xs), sum(y * y for y in ys)
    return (n * sxy - sx * sy) / ((n * sxx - sx * sx) ** 0.5 * (n * syy - sy * sy) ** 0.5)


def tables_inputs(seed: int, root: Path, smoke: bool = False) -> list[TablesInput]:
    out = []
    for idx, (n_rows, n_points) in enumerate(TABLES_SMOKE if smoke else TABLES_SIZES):
        rng = rng_for(seed, "tables", idx)
        tsg_id = f"tables-{idx}"
        bundle = root / tsg_id
        fx = bundle / "fixtures" / tsg_id
        incident = _incident(rng, "tables")
        fields = incident["fields"]
        lo, hi = WINDOW_START, WINDOW_START + timedelta(hours=9)

        # exception log: distinct counts, so top-k has one right answer
        counts = rng.sample(range(1, 20 * n_rows), n_rows)
        step_s = 9 * 3600 / n_rows
        log_rows, raw_log = [], []
        for i, count in enumerate(counts):
            ts = lo + timedelta(seconds=int(i * step_s))
            row = [ts, f"{rng.choice(_NOUNS).capitalize()}Exception{rng.randint(0, 40)}",
                   count, round(rng.uniform(1, 900), 3), rng.random() < 0.3]
            raw_log.append(row)
            log_rows.append([iso(ts), row[1], str(count), repr(row[3]), "true" if row[4] else "false"])
        _write_csv(fx / "queries" / "exceptions.csv", LOG_COLUMNS, LOG_TYPES, log_rows)
        bindings = {k: fields[k] for k in ("service", "ring", "start_time", "end_time")}
        (fx / "queries" / "index.json").write_text(json.dumps(
            [{"template": "exception_log", "bindings": bindings, "file": "exceptions.csv"}]),
            encoding="utf-8")
        threshold = max(counts) // 2

        # two strongly correlated availability series; the window keeps the
        # middle 80% of the points
        t0 = lo - timedelta(seconds=int(0.1 * 9 * 3600))
        step_m = 9 * 3600 / (0.8 * n_points)
        xs = [99.0 + rng.gauss(0, 0.5) for _ in range(n_points)]
        ys = [0.9 * x + 10 + rng.gauss(0, 0.05) for x in xs]
        times = [t0 + timedelta(seconds=int(i * step_m)) for i in range(n_points)]
        for name, series in (("availability_service", xs), ("availability_upstream", ys)):
            _write_csv(fx / "metrics" / f"{name}.csv", ["ts", "value"], ["timestamp", "decimal"],
                       [[iso(t), repr(round(v, 6))] for t, v in zip(times, series)])
        in_window = [i for i, t in enumerate(times) if lo <= t <= hi]
        wx = [round(xs[i], 6) for i in in_window]
        wy = [round(ys[i], 6) for i in in_window]

        # deployments: a few before the window, one planted inside it
        deployments, overlap = [], []
        for d in range(40):
            start = lo - timedelta(hours=rng.randint(30, 400))
            end = start + timedelta(hours=rng.randint(1, 6))
            deployments.append({"id": f"dep-{idx}-{d}", "service": fields["service"],
                                "ring": fields["ring"], "started": iso(start), "finished": iso(end)})
        planted = {"id": f"dep-{idx}-live", "service": fields["service"], "ring": fields["ring"],
                   "started": iso(lo + timedelta(hours=2)), "finished": None}
        deployments.insert(rng.randrange(len(deployments)), planted)
        for dep in deployments:
            start = datetime.fromisoformat(dep["started"].replace("Z", "+00:00"))
            end = dep["finished"] and datetime.fromisoformat(dep["finished"].replace("Z", "+00:00"))
            if start <= hi and (end is None or end >= lo):
                overlap.append(dep["id"])
        changes = {dep["id"]: [{"change_id": f"pr-{idx}-{d}-{c}", "file": f"src/{rng.choice(_NOUNS)}.py",
                                "author": rng.choice(["ak", "bm", "cz"]), "summary": "tune settings"}
                               for c in range(rng.randint(1, 5))] for d, dep in enumerate(deployments)}
        (fx / "devops.json").write_text(json.dumps({"deployments": deployments, "code_changes": changes}),
                                        encoding="utf-8")

        (bundle / "scenarios").mkdir(parents=True)
        (bundle / "tsg.md").write_text(TABLES_GUIDE.format(tsg_id=tsg_id, threshold=threshold),
                                       encoding="utf-8")
        top = sorted(raw_log, key=lambda r: r[2], reverse=True)[:3]
        expect = {
            "log_rows": n_rows,
            "top3": [[iso(r[0]), r[1], r[2], r[3], r[4]] for r in top],
            "max": float(max(counts)),
            "mean": sum(float(c) for c in counts) / n_rows,
            "metric_rows": len(in_window),
            "pearson": _pearson_reference(wx, wy),
            "deployments": len(overlap),
            "deployment_id": overlap[0],
            "changes": len(changes[overlap[0]]),
            "conclusion": TABLES_CONCLUSION,
        }
        plan = {"step1": "scope", "step2": "logs", "step3": "metrics",
                "step4": "deployments", "step5": "changes", "threshold": threshold}
        out.append(TablesInput(bundle, incident, n_rows, plan, expect))
    return out
