#!/usr/bin/env python3
"""Benchmark of the dpnibble command line: coloring runs and Monte-Carlo stats.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload builds its cover files with ``dpnibble generate`` (the set-up,
timed three times), then runs whole rounds of its primary command and a few
secondary commands, one process at a time, until ``--seconds`` have passed.
Every output is checked by ``checks.py``, which shares no code with the
program.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured on plain
``python3 -m dpnibble.cli`` processes.  With ``--trace 1`` the set-up and the
primary command run under ``traced.py`` and the metrics are per layer: each
layer's self time per invocation, counts, the share of wall time no span
covers, and the tracing overhead against untraced runs of the same commands.

The cover files use fixed seeds, so every run times the same instances;
``--seed`` sets the seeds the program gets for coloring and sampling.
See README.md for the workloads and what each metric should track.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
# secondary invocations per round; they are short, so several are needed
# for a steady median
SECONDARY_PER_ROUND = 3
# a color round takes about as long as a whole run, so without a floor the
# number of primary samples would hinge on the machine's speed
MIN_ROUNDS = 2
ETA = 0.1
# a process still running after this long is killed and counted as failed
PROCESS_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Cover:
    kind: str
    n: int
    d: int
    ell: int
    seed: int
    girth5: bool = False

    def generate_args(self, path: Path) -> list[str]:
        args = ["generate", "--kind", self.kind, "--n", str(self.n),
                "--d", str(self.d), "--ell", str(self.ell),
                "--seed", str(self.seed), "--out", str(path)]
        if self.kind == "dp_cover":
            args += ["--rho", "1"]
        if self.girth5:
            args.append("--girth5")
        return args


COVERS = {
    # acceptance criterion 9: the point-line incidence graph of the
    # projective plane of order 31 (girth 6) with 37 shared labels per vertex
    "calib": Cover("list_cover", 1986, 32, 37, 424241, girth5=True),
    # lists already 8x the cover degree, so `color` goes straight to the
    # resampling finisher
    "finish": Cover("dp_cover", 4000, 8, 64, 8),
    # acceptance criterion 3's instance size: 408 colors
    "small": Cover("dp_cover", 34, 16, 12, 77),
    "large": Cover("dp_cover", 400, 16, 12, 78),
    # a small finisher-only cover for the secondary `color` of stats workloads
    "probe": Cover("dp_cover", 34, 4, 32, 79),
}


@dataclass(frozen=True)
class Op:
    command: str          # "color" or "stats"
    cover: str
    trials: int = 0
    anchor: int | None = None

    def args(self, cover_path: Path, seed: int, out: Path) -> list[str]:
        args = [self.command, str(cover_path), "--seed", str(seed)]
        if self.command == "stats":
            args += ["--trials", str(self.trials), "--eta", str(ETA)]
            if self.anchor is not None:
                args += ["--anchor", str(self.anchor)]
        return args + ["--out", str(out)]


STATS_PROBE = Op("stats", "small", trials=1000)
COLOR_PROBE = Op("color", "probe")


# workload -> (primary op, secondary op).  One round is the primary op once,
# then the secondary op SECONDARY_PER_ROUND times.  The secondary op gives
# the workload the end-to-end metric of the other command, on a small input;
# interleaving it with the primary op lets both sample the same stretch of
# machine time.
WORKLOADS = {
    "calib-color": (Op("color", "calib"), STATS_PROBE),
    "finish-color": (Op("color", "finish"), STATS_PROBE),
    "stats-small": (Op("stats", "small", trials=5000, anchor=0), COLOR_PROBE),
    "stats-large": (Op("stats", "large", trials=1000), COLOR_PROBE),
}

END_TO_END_UNITS = {"color_seed_s": "s", "stats_trials_per_s": "trials/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> which traced invocations it is read from: the
# primary command ("main", mean per invocation), one whole set-up
# ("setup") or the girth call on the calibration base graph ("girth")
PER_LAYER = {
    "process.start_s": "main",
    "process.exit_s": "main",
    "python.import_s": "main",
    "cli.command_s": "main",
    "cover.cover_from_json_s": "main",
    "cover.json_loads_s": "main",
    "graph.from_edges_s": "main",
    "cover.dpcover_init_s": "main",
    "cover.validate_s": "main",
    "pipeline.color_graph_s": "main",
    "pipeline.rounds": "main",
    "nibble.round_attempts": "main",
    "kernels.round_s": "main",
    "nibble.count_violations_s": "main",
    "nibble.residual_s": "main",
    "pipeline.finish_s": "main",
    "pipeline.finish_vertices": "main",
    "pipeline.finish_resamples": "main",
    "analysis.verify_proper_s": "main",
    "pipeline.result_to_json_s": "main",
    "analysis.round_stats_s": "main",
    "analysis.trials": "main",
    "analysis.stats_to_csv_s": "main",
    "generators.random_girth5_regular_s": "setup",
    "generators.random_regular_s": "setup",
    "generators.random_dp_cover_s": "setup",
    "cover.from_list_assignment_s": "setup",
    "cover.cover_to_json_s": "setup",
    "graph.girth_s": "girth",
}
# the incidence graph of a projective plane has girth 6
CALIB_GIRTH = 6


@dataclass
class Run:
    op: Op | None
    args: list[str]
    out: Path | None
    wall: float
    rss_mb: float
    code: int
    start: float
    trace: Path | None = None


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.seed = seed
        self.seconds = seconds
        self.primary, self.secondary = WORKLOADS[workload]
        self.dir = OUT / workload
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        # dpnibble does no BLAS work; an idle OpenBLAS thread pool per
        # process made start-up times bimodal on two cores
        self.env["OPENBLAS_NUM_THREADS"] = "1"
        self.spawned = 0

    def cover_path(self, name: str) -> Path:
        return self.dir / f"{name}.json"

    def covers(self) -> list[str]:
        return sorted({self.primary.cover, self.secondary.cover})

    def spawn(self, args: list[str], op: Op | None = None,
              out: Path | None = None, traced: bool = False) -> Run:
        """Run one program process to its end; wall time and peak RSS."""
        stem = self.dir / f"p{self.spawned:04d}"
        self.spawned += 1
        trace = stem.with_suffix(".trace.json") if traced else None
        prefix = ([sys.executable, str(HERE / "traced.py"), str(trace)] if traced
                  else [sys.executable, "-m", "dpnibble.cli"])
        with open(stem.with_suffix(".log"), "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(prefix + args, cwd=ROOT, env=self.env,
                                    stdout=fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB on Linux
        return Run(op, args, out, wall, usage.ru_maxrss / 1024.0,
                   proc.returncode, t0, trace)

    def setup(self, traced: bool = False) -> tuple[float, list[Run]]:
        runs = []
        for name in self.covers():
            run = self.spawn(COVERS[name].generate_args(self.cover_path(name)),
                             traced=traced)
            if run.code != 0:
                sys.exit(f"set-up failed: dpnibble {' '.join(run.args)} "
                         f"exited {run.code}")
            runs.append(run)
        return sum(r.wall for r in runs), runs

    def invoke(self, op: Op, seed: int, traced: bool = False) -> Run:
        ext = "json" if op.command == "color" else "csv"
        out = self.dir / f"out{self.spawned:04d}.{ext}"
        return self.spawn(op.args(self.cover_path(op.cover), seed, out), op, out,
                          traced=traced)

    def primary_seed(self, k: int) -> int:
        return self.seed * 1000 + k

    def rounds(self) -> list[Run]:
        """Whole rounds in a closed loop until ``seconds`` have passed."""
        runs = []
        t0 = time.perf_counter()
        k = 0
        while k < MIN_ROUNDS or time.perf_counter() - t0 < self.seconds:
            runs.append(self.invoke(self.primary, self.primary_seed(k)))
            for j in range(SECONDARY_PER_ROUND):
                seed = self.seed * 1000 + 500 + k * SECONDARY_PER_ROUND + j
                runs.append(self.invoke(self.secondary, seed))
            k += 1
        return runs

    def check(self, runs: list[Run]) -> tuple[int, bool]:
        """(failed, correct) over ``runs``; reasons go to stderr."""
        docs: dict[str, dict] = {}
        failed = 0
        correct = True
        for run in runs:
            if run.code != 0:
                failed += 1
                print(f"failed (exit {run.code}): {' '.join(run.args)}",
                      file=sys.stderr)
                continue
            name = run.op.cover
            if name not in docs:
                docs[name] = load(self.cover_path(name))
                cover = COVERS[name]
                shape = checks.cover_shape(docs[name])
                if shape != (cover.n, cover.d, cover.ell):
                    correct = False
                    print(f"cover {name} has shape {shape}", file=sys.stderr)
            try:
                text = run.out.read_text()
                if run.op.command == "color":
                    checks.check_coloring(docs[name], text)
                else:
                    checks.check_stats(docs[name], text, ETA,
                                       run.op.trials, run.op.anchor)
            except (checks.CheckError, OSError, KeyError, ValueError, TypeError) as exc:
                correct = False
                print(f"wrong output of {' '.join(run.args)}: {exc!r}",
                      file=sys.stderr)
        return failed, correct

    # -- the two kinds of run ------------------------------------------------

    def end_to_end(self) -> dict:
        setups = [self.setup()[0] for _ in range(SETUP_REPEATS)]
        runs = self.rounds()
        failed, correct = self.check(runs)
        ok = [r for r in runs if r.code == 0]
        colors = [r.wall for r in ok if r.op.command == "color"]
        stats = [r.op.trials / r.wall for r in ok if r.op.command == "stats"]
        if not colors or not stats:
            sys.exit("no color or no stats invocation succeeded")
        values = {
            "color_seed_s": statistics.median(colors),
            "stats_trials_per_s": statistics.median(stats),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r.rss_mb for r in runs),
        }
        return result(correct, len(runs), failed, values, END_TO_END_UNITS)

    def per_layer(self) -> dict:
        _, setup_runs = self.setup(traced=True)
        # traced and plain runs of the same seed alternate, so that both
        # sides of the overhead see the same machine
        traced, plain = [], []
        t0 = time.perf_counter()
        while not traced or time.perf_counter() - t0 < self.seconds:
            seed = self.primary_seed(len(traced))
            traced.append(self.invoke(self.primary, seed, traced=True))
            plain.append(self.invoke(self.primary, seed))
        girth_runs = []
        correct = True
        if self.primary.cover == "calib":
            run = self.spawn(["--girth", str(self.cover_path("calib"))], traced=True)
            if run.code != 0:
                sys.exit(f"girth call exited {run.code}")
            girth_runs.append(run)
            if load(run.trace)["result"] != CALIB_GIRTH:
                correct = False
                print("girth of the calibration base graph is not 6", file=sys.stderr)
        failed, outputs_ok = self.check(traced + plain)
        correct = correct and outputs_ok

        def layer_values(runs: list[Run]) -> list[dict]:
            values = []
            for run in runs:
                spans = process_spans(run)
                v = {f"{name}_s": t for name, t in self_times(spans).items()}
                v.update(load(run.trace)["counts"])
                values.append(v)
            return values

        roles = {"main": layer_values([r for r in traced if r.code == 0]),
                 "setup": [sum_dicts(layer_values(setup_runs))],
                 "girth": layer_values(girth_runs)}
        values = {}
        units = {}
        for name, role in PER_LAYER.items():
            per_run = [v.get(name, 0.0) for v in roles[role]]
            values[name] = statistics.fmean(per_run) if per_run else 0.0
            units[name] = "s" if name.endswith("_s") else "count"
        every = setup_runs + traced + girth_runs
        values["trace.uncovered_pct"] = max(
            100.0 * (r.wall - covered(process_spans(r))) / r.wall for r in every)
        ok_plain = [r.wall for r in plain if r.code == 0]
        ok_traced = [r.wall for r in traced if r.code == 0]
        if not ok_plain or not ok_traced:
            sys.exit("no primary invocation succeeded")
        values["trace.overhead_pct"] = 100.0 * (
            statistics.median(ok_traced) / statistics.median(ok_plain) - 1.0)
        units["trace.uncovered_pct"] = units["trace.overhead_pct"] = "%"
        return result(correct, len(traced) + len(plain), failed, values, units)


def load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def process_spans(run: Run) -> list[list]:
    """The spans of a traced invocation plus two measured from outside it:
    ``process.start`` (spawn and interpreter start until the tracer's first
    line) and ``process.exit`` (trace write and interpreter shutdown).
    ``perf_counter`` reads the same monotonic clock in every process."""
    trace = load(run.trace)
    return trace["spans"] + [
        ["process.start", run.start, trace["start"], -1],
        ["process.exit", trace["end"], run.start + run.wall, -1]]


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: total duration minus the time its child spans cover."""
    inner = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            inner[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), child in zip(spans, inner):
        out[name] = out.get(name, 0.0) + (end - start) - child
    return out


def covered(spans: list[list]) -> float:
    """Wall time inside top-level spans (they never overlap)."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def sum_dicts(dicts: list[dict]) -> dict:
    out: dict = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out.get(k, 0) + v
    return out


def result(correct: bool, attempted: int, failed: int, values: dict,
           units: dict) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "dpnibble" / "cli.py").is_file():
        print(f"error: no dpnibble sources under {SRC}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds)
    shutil.rmtree(bench.dir, ignore_errors=True)
    bench.dir.mkdir(parents=True)
    doc = bench.per_layer() if args.trace else bench.end_to_end()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
