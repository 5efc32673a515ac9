#!/usr/bin/env python3
"""Benchmark of the chgsets CLI, standard library only.

Run from the repository root:

    python3 perfbench/run.py --workload verify-construct --seed 1 --seconds 55 --trace 0

The loop is closed with one client: each timed command is one
``python -m chgsets`` subprocess, started after the previous one exits.  A run
sets the workload up, then repeats passes over its commands for ``--seconds``,
setting up again after each pass, and checks every output.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: one pass over the workload's commands, spawn to exit, with each
  command at its fastest over the run's passes.  On a shared host, noise only
  adds time and comes in phases longer than a pass, so the per-command minimum
  repeats across runs where a pass median does not; median pass times are in
  the record.
* ``setup_s``: median time of the set-up's CLI runs (input files written
  through ``chgsets construct --out``, plus one no-op CLI start), summed; the
  benchmark's own file work in the set-up is not timed.
* ``peak_rss_mb``: the largest ``ru_maxrss`` of any timed child, from
  ``os.wait4``.

``--trace 1`` runs ``chgsets.cli.main`` in-process instead, alternating plain
passes with passes under the span wrappers of ``tracing.py``, and reports the
per-layer metrics, the tracing overhead among them.

The last line of stdout is the result the contract asks for; the line before
it is the full record: seed, machine, median/quartiles/sample count of every
timing, per-kind times, per-command times, work counts and failures.  A
set-up or command that raises, or whose output fails a check, is a failure:
the run goes on and still prints its result.  Spans
and the record are also written under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave the benchmark's own directory as checked out

from checks import CheckFailed  # noqa: E402
from tracing import PER_LAYER, Tracer, combine, pass_metrics, spans_json  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")
START_REPEATS = 7


@dataclass(frozen=True)
class Child:
    code: int
    out: str
    wall: float
    maxrss_mb: float


class Cli:
    """Runs ``python -m chgsets`` as a user does; one child at a time."""

    def __init__(self, work: Path):
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.stderr = work / "stderr.txt"

    def run(self, argv) -> Child:
        with open(self.stderr, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "chgsets", *argv], cwd=ROOT,
                                    stdout=subprocess.PIPE, stderr=err, env=self.env)
            try:
                out = proc.stdout.read()
            except BaseException:
                proc.kill()
                raise
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            wall = perf_counter() - start
        return Child(proc.returncode, out.decode("utf-8"), wall, usage.ru_maxrss / 1024)

    def plain(self, argv) -> tuple:
        child = self.run(argv)
        return child.code, child.out


def summary(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def fingerprint(code: int, out: str) -> str:
    """The report minus ``elapsed_ms``: identical reruns must agree on it."""
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return f"{code}:{out}"
    report.pop("elapsed_ms", None)
    return f"{code}:{json.dumps(report, sort_keys=True)}"


class Tally:
    """Attempts (set-ups and commands) and failures, with the reason for each."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []
        self._first: dict = {}

    def _fail(self, argv, code, exc) -> None:
        self.failures.append({"argv": list(argv), "exit": code,
                              "why": f"{type(exc).__name__}: {exc}"})

    def attempt(self, argv, fn, *args):
        """Count one attempt of ``fn(*args)``; if it raises, record a failure and give None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a defect of the program fails the run, it does not end it
            self._fail(argv, None, exc)
            return None

    def check(self, index: int, cmd, code: int, out: str) -> None:
        """Check the output of an attempted command."""
        try:
            cmd.check(code, out)
            if self._first.setdefault(index, fingerprint(code, out)) != fingerprint(code, out):
                raise CheckFailed("report differs from the first pass")
        except (CheckFailed, KeyError, TypeError, ValueError, OSError) as exc:
            self._fail(cmd.argv, code, exc)


def untraced(workload, seed: int, seconds: float, work: Path) -> tuple:
    cli = Cli(work)
    tally = Tally()
    setup_times = []

    def set_up() -> list:
        """The workload's set-up, timed as the sum of its CLI runs."""
        spent = []

        def timed(argv) -> tuple:
            child = cli.run(argv)
            spent.append(child.wall)
            return child.code, child.out

        commands = workload.setup(seed, work, timed)
        setup_times.append(sum(spent))
        return commands

    commands = tally.attempt(["set-up"], set_up)
    if commands is None:
        return {}, tally, {}
    passes = []  # per pass: kind -> seconds
    per_command = defaultdict(list)
    peak = 0.0
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        kinds = defaultdict(float)
        for i, cmd in enumerate(commands):
            child = cli.run(cmd.argv)
            tally.attempted += 1
            tally.check(i, cmd, child.code, child.out)
            kinds[cmd.kind] += child.wall
            per_command[i].append(child.wall)
            peak = max(peak, child.maxrss_mb)
        passes.append(kinds)
        # set up again between passes, so that the median spans the whole run
        if tally.attempt(["set-up"], set_up) is None:
            break
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    # Host interference only ever adds time, and it comes in phases longer than
    # a pass, so a command's fastest run is its steadiest estimate.
    best = [min(per_command[i]) for i in range(len(commands))]
    metrics = {"wall_s": (sum(best), "s"),
               "setup_s": (statistics.median(setup_times), "s"),
               "peak_rss_mb": (peak, "MB")}
    kind_names = sorted({c.kind for c in commands})
    record = {
        "wall_s": {"best": sum(best), "passes": summary([sum(p.values()) for p in passes])},
        "setup_s": summary(setup_times),
        "peak_rss_mb": peak,
        "failed_ratio": len(tally.failures) / tally.attempted,
        "kinds": {f"{kind}_s": {"best": sum(b for b, c in zip(best, commands) if c.kind == kind),
                                "passes": summary([p[kind] for p in passes])}
                  for kind in kind_names},
        "commands": [{"argv": list(c.argv), "kind": c.kind, "best": best[i],
                      **summary(per_command[i])} for i, c in enumerate(commands)],
    }
    return metrics, tally, record


def traced(workload, seed: int, seconds: float, work: Path) -> tuple:
    cli = Cli(work)
    tally = Tally()
    commands = tally.attempt(["set-up"], workload.setup, seed, work, cli.plain)
    if commands is None:
        return {}, tally, {}
    starts = [cli.run(["--help"]).wall for _ in range(START_REPEATS)]
    tracer = Tracer(str(SRC))
    walls = {False: [], True: []}  # traced? -> pass wall times
    layer_passes = []

    def one_pass(with_spans: bool) -> None:
        first_span = len(tracer.spans)
        wall = 0.0
        with tracer.installed() if with_spans else contextlib.nullcontext():
            for i, cmd in enumerate(commands):
                t0 = perf_counter()
                got = tally.attempt(cmd.argv, tracer.run, i, cmd.argv, with_spans)
                wall += perf_counter() - t0
                if got is not None:
                    tally.check(i, cmd, *got)
        walls[with_spans].append(wall)
        if with_spans:
            layer_passes.append(pass_metrics(tracer.spans[first_span:]))

    start = perf_counter()
    for iteration in itertools.count():
        pass_start = perf_counter()
        # alternate which side runs first, so order effects cancel in the overhead
        for with_spans in (False, True) if iteration % 2 == 0 else (True, False):
            one_pass(with_spans)
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    plain, with_spans = statistics.median(walls[False]), statistics.median(walls[True])
    values, spreads, unstable = combine(layer_passes, {
        "cli.start_s": statistics.median(starts),
        "trace.wall_s": with_spans,
        "trace.untraced_wall_s": plain,
        "trace.overhead": with_spans / plain - 1,
    })
    for name in unstable:
        tally.failures.append({"argv": [], "exit": None, "why": f"count {name} changed between passes"})
    units = dict(PER_LAYER)
    metrics = {name: (value, units[name]) for name, value in values.items()}
    record = {
        "cli.start_s": summary(starts),
        "trace.wall_s": summary(walls[True]),
        "trace.untraced_wall_s": summary(walls[False]),
        "layer_times": {name: summary(v) for name, v in spreads.items()},
    }
    with open(work / "spans.json", "w", encoding="utf-8") as fh:
        json.dump(spans_json(tracer.spans), fh)
    return metrics, tally, record


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chgsets" / "cli.py").is_file():
        print(f"perfbench: no chgsets sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    run = traced if args.trace else untraced
    metrics, tally, record = run(workload, args.seed, args.seconds, work)
    failed = len(tally.failures)
    record = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": machine(),
              "attempted": tally.attempted, "failed": failed, **record,
              "failures": tally.failures}
    with open(work / "record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
