"""qapkit benchmark: CLI command timings on generated corpora, and a traced run.

Usage, from the repository root:

    python3 bench/run.py --workload pipeline-20k --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 30      # every workload, one after another

One run generates the workload's inputs from the seed, then runs the
workload's CLI commands (``python -m qapkit.cli`` with ``PYTHONPATH=src``)
as subprocesses, one at a time on one CPU, pass after pass until the time
is up, and checks every output against the benchmark's own oracles. A
command's time is its median over the passes, and ``pipeline_s`` sums
those medians. ``pipeline_ref`` is the pipeline's time in units of a fixed
reference task timed on the same CPU around every command (see
``bench/launch.py``): the sum of the commands' mean wall times over the
mean reference time of the run. It cancels the drift of a shared host's
CPU speed, which moves ``pipeline_s`` by a fifth from run to run.
With ``--trace 1`` each pass runs every command twice, once plain and once
under ``bench/tracer.py``, and the run reports per-layer self times and
counts instead of the end-to-end metrics.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Work files go to
``.bench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer as tracing
from workloads import WORKLOADS, Command

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 5
STARTUP_REPEATS = 5
COMMAND_TIMEOUT_S = 60.0
HARD_LIMIT_S = 150.0  # a run stops starting commands after this long

COMMANDS = ("ingest", "classify_rule", "train", "classify_tree", "evaluate", "agree", "validate")

# Per-layer metrics of a traced run: self time (.s, or self_s for the cli
# layer) and counts. Every workload reports all of them; a layer the
# workload never reaches reads 0.
LAYER_TIMES = (
    "ingestion.parse_dialogue_jsonl", "ingestion.parse_tsv_transcript", "ingestion.write_dialogues",
    "ingestion.read_annotations", "ingestion.write_annotations",
    "text.tokenize", "text.overlap_ratio", "lexicon.contains", "lexicon.matches_end",
    "features.extract_features", "rules.rule_classify", "rules.map_wh_feature",
    "tree.train_tree", "tree.predict", "tree.save_model", "tree.load_model",
    "evaluation.confusion", "evaluation.score", "evaluation.pairwise_agreement",
    "evaluation.disagreement_report", "model.validate_corpus",
)
LAYER_CALLS = ("text.tokenize", "lexicon.contains", "features.extract_features")
LAYER_COUNTS = (
    "ingestion.parse_dialogue_jsonl.lines", "ingestion.read_annotations.records",
    "tree.instances", "tree.distinct_share", "tree.nodes",
    "evaluation.pairwise_agreement.pairs", "evaluation.disagreement_report.records",
    "model.violations",
)


@dataclass(frozen=True)
class Result:
    """One finished subprocess."""

    wall: float
    refs: list[float]  # timings of the reference task around the command
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    timed_out: bool


class Launcher:
    """Runs commands one at a time through bench/launch.py; see there for why."""

    def __init__(self) -> None:
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )

    def run(self, argv: list[str], cwd: Path, timeout: float) -> Result:
        self.proc.stdin.write(json.dumps({"argv": argv, "cwd": str(cwd), "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("bench/launch.py ended unexpectedly")
        read = lambda name: (cwd / name).read_text(encoding="utf-8", errors="replace")
        return Result(stdout=read(".stdout"), stderr=read(".stderr"), **json.loads(reply))

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def cli_argv(command: Command) -> list[str]:
    return [sys.executable, "-m", "qapkit.cli", *command.argv]


def traced_argv(command: Command, spans_path: Path, command_id: str) -> list[str]:
    return [sys.executable, str(BENCH / "tracer.py"), str(spans_path), command_id, "--", *command.argv]


class Checker:
    """Judges each command result; the first correct one sets the bytes later ones must repeat."""

    def __init__(self, work: Path):
        self.work = work
        self.fingerprints: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def fingerprint(self, command: Command, stdout: str) -> str:
        digest = hashlib.sha256(stdout.encode())
        for name in command.outputs:
            path = self.work / name
            digest.update(path.read_bytes() if path.exists() else b"<missing>")
        return digest.hexdigest()

    def judge(self, command: Command, result: Result) -> None:
        self.attempted += 1
        problems = []
        if result.timed_out:
            problems.append("timed out")
        elif result.code != command.exit_code:
            problems.append(f"exit code {result.code}, expected {command.exit_code}")
        if "Traceback (most recent call last)" in result.stderr:
            problems.append("printed a traceback")
        if not problems:
            fp = self.fingerprint(command, result.stdout)
            known = self.fingerprints.get(command.name)
            if known is None:
                problems = command.check(self.work, result.stdout)
                if not problems:
                    self.fingerprints[command.name] = fp
            elif fp != known:
                problems.append("output differs from the first repetition")
        if problems:
            self.failed += 1
            tail = result.stderr.strip().splitlines()[-3:]
            print(f"FAIL {command.name}: {'; '.join(problems)}", *tail, sep="\n  ", file=sys.stderr)


def setup(workload: str, seed: int, work: Path) -> tuple[list[Command], list[float]]:
    """Generate the inputs SETUP_REPEATS times; each generation must give the same bytes."""
    times, digests, commands = [], set(), []
    for _ in range(SETUP_REPEATS):
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        start = time.perf_counter()
        commands = WORKLOADS[workload](seed, work)
        times.append(time.perf_counter() - start)
        digest = hashlib.sha256()
        for path in sorted(work.iterdir()):
            digest.update(path.name.encode() + path.read_bytes())
        digests.add(digest.hexdigest())
    if len(digests) != 1:
        raise RuntimeError(f"generator is not deterministic for seed {seed}")
    return commands, times


def layer_metrics(span_docs: list[dict]) -> dict[str, float]:
    """Per-layer self times and counts summed over one traced pass."""
    metrics = {f"{name}.s": 0.0 for name in LAYER_TIMES}
    metrics.update({f"{name}.calls": 0 for name in LAYER_CALLS})
    metrics.update({name: 0 for name in LAYER_COUNTS})
    metrics.update({f"cli.{name}.self_s": 0.0 for name in COMMANDS})
    for doc in span_docs:
        names = doc["names"]
        spans = [(names[s[0]], s[1], s[2], s[3]) for s in doc["spans"]]
        for (name, _, _, _), self_ns in zip(spans, tracing.self_times(spans)):
            if name == tracing.ROOT_SPAN:
                metrics[f"cli.{doc['command']}.self_s"] += self_ns / 1e9
            else:
                metrics[f"{name}.s"] = metrics.get(f"{name}.s", 0.0) + self_ns / 1e9
                if f"{name}.calls" in metrics:
                    metrics[f"{name}.calls"] += 1
        for name, value in doc["counts"].items():
            metrics[name] = metrics.get(name, 0) + value
    distinct = metrics.pop("tree.distinct_groups", 0)
    metrics["tree.distinct_share"] = distinct / metrics["tree.instances"] if distinct else 0.0
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, launcher: Launcher) -> dict:
    """One run: set up, warm up, then passes over the workload's commands until time is up.

    A command's time is the median of its wall times over the passes, failed
    attempts included; failures are counted separately by the checker.
    """
    work = WORK / workload
    commands, setup_times = setup(workload, seed, work)
    checker = Checker(work)
    version = Command("version", ["--version"], lambda w, out: [], ())
    # Untimed warm-up: imports every module, so bytecode caches exist before timing.
    launcher.run(cli_argv(version), work, COMMAND_TIMEOUT_S)

    plain: dict[str, list[float]] = {c.name: [] for c in commands}
    refs: list[float] = []
    traced: dict[str, list[float]] = {c.name: [] for c in commands}
    rss: list[float] = []
    startup: list[float] = []
    layer_passes: list[dict[str, float]] = []

    def attempt(command: Command, argv: list[str]) -> Result:
        timeout = min(COMMAND_TIMEOUT_S, max(1.0, HARD_LIMIT_S - (time.perf_counter() - start)))
        result = launcher.run(argv, work, timeout)
        checker.judge(command, result)
        return result

    start = time.perf_counter()
    pass_time = 0.0
    while not plain[commands[0].name] or time.perf_counter() - start + pass_time <= seconds:
        if time.perf_counter() - start > HARD_LIMIT_S:
            print(f"stopping {workload}: past the {HARD_LIMIT_S:.0f} s limit", file=sys.stderr)
            break
        pass_start = time.perf_counter()
        for command in commands:
            result = attempt(command, cli_argv(command))
            plain[command.name].append(result.wall)
            refs.extend(result.refs)
            rss.append(result.rss_mb)
        if trace:
            startup += [attempt(version, cli_argv(version)).wall for _ in range(STARTUP_REPEATS)]
            docs = []
            for command in commands:
                spans_path = work / f".spans-{command.name}.json"
                spans_path.unlink(missing_ok=True)
                traced[command.name].append(attempt(command, traced_argv(command, spans_path, command.name)).wall)
                if spans_path.exists():
                    docs.append(json.loads(spans_path.read_text(encoding="utf-8")))
            layer_passes.append(layer_metrics(docs))
        pass_time = time.perf_counter() - pass_start

    command_s = {name: statistics.median(times) for name, times in plain.items()}
    pipeline_s = sum(command_s.values())
    passes = len(plain[commands[0].name])
    # Means, not medians: the mean reference time estimates the CPU's mean speed over the run.
    command_ref = {name: statistics.fmean(times) / statistics.fmean(refs) for name, times in plain.items()}
    summary = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "pipeline_s": (pipeline_s, "s", passes),
        "pipeline_ref": (sum(command_ref.values()), "ref", passes),
        "peak_rss_mb": (max(rss), "MB", len(rss)),
        **{f"{name}_s": (value, "s", len(plain[name])) for name, value in command_s.items()},
        **{f"{name}_min_s": (min(t), "s", len(t)) for name, t in plain.items()},
        "failed_ops_frac": (checker.failed / checker.attempted, "share", checker.attempted),
    }
    if trace:
        metrics = {
            name: (statistics.median(p[name] for p in layer_passes), unit_of(name))
            for name in per_layer_names()
        }
        metrics["cli.startup_s"] = (statistics.median(startup), "s")
        metrics["trace.overhead_s"] = (sum(statistics.median(t) for t in traced.values()) - pipeline_s, "s")
        metrics["pipeline_s"] = (pipeline_s, "s")
        for name in COMMANDS:
            metrics[f"{name}_s"] = (command_s.get(name, 0.0), "s")
            metrics[f"{name}_ref"] = (command_ref.get(name, 0.0), "ref")
    else:
        metrics = {name: summary[name][:2] for name in ("setup_s", "pipeline_ref", "peak_rss_mb")}
    return {"summary": summary, "checker": checker, "metrics": metrics}


def per_layer_names() -> list[str]:
    return (
        [f"cli.{name}.self_s" for name in COMMANDS]
        + [f"{name}.s" for name in LAYER_TIMES]
        + [f"{name}.calls" for name in LAYER_CALLS]
        + list(LAYER_COUNTS)
    )


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    return "share" if name == "tree.distinct_share" else "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "qapkit" / "cli.py").is_file():
        print(f"error: qapkit sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload NAME or --all")

    names = sorted(WORKLOADS) if args.all else [args.workload]
    outcomes = []
    with Launcher() as launcher:
        for name in names:
            outcomes.append(run(name, args.seed, args.seconds, bool(args.trace), launcher))
    for name, outcome in zip(names, outcomes):
        print(f"# {name} seed={args.seed}: command times and setup are medians of n")
        for key, (value, unit, n) in outcome["summary"].items():
            print(f"  {key:<24} {value:10.4f} {unit:<5} n={n}")
        if args.trace:
            print(f"# {name} seed={args.seed}: traced layers (median of the traced passes)")
            for key, (value, unit) in outcome["metrics"].items():
                print(f"  {key:<42} {value:14.6f} {unit}")
    attempted = sum(o["checker"].attempted for o in outcomes)
    failed = sum(o["checker"].failed for o in outcomes)
    prefix = (lambda name: f"{name}.") if args.all else (lambda name: "")
    metrics = {
        prefix(name) + key: {"value": value, "unit": unit}
        for name, outcome in zip(names, outcomes)
        for key, (value, unit) in outcome["metrics"].items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
