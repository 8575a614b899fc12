"""Batch command-line front end.

Subcommands: ``generate`` (instances), ``schedule`` (parameter CSV),
``color`` (end-to-end run), ``stats`` (Monte-Carlo round statistics).
Every randomized command requires an explicit ``--seed``; repeated runs with
the same inputs produce byte-identical outputs.

Exit codes: 0 success, 1 verification/feasibility failure, 2 usage or
validation error, 3 budget exhaustion.
"""

from __future__ import annotations

import hashlib
import sys

import click

from . import analysis, generators, pipeline
from .cover import DpCover, cover_from_json, cover_to_json, uniform_list_cover
from .errors import (BudgetExceededError, CoverValidationError, GenerationError,
                     PipelineError, ResampleBudgetError, RetriesExhaustedError)
from .graph import graph_to_text, max_degree
from .nibble import RoundParams
from .schedule import (ScheduleError, ScheduleInput, compute_schedule, schedule_to_csv,
                       tail_exponent)

EXIT_FEASIBILITY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _write_file(path: str, raw: bytes):
    """Write ``raw`` to ``path``; a path that cannot be written exits 2."""
    try:
        with open(path, "wb") as fh:
            fh.write(raw)
    except OSError as exc:
        _fail(EXIT_USAGE, f"cannot write {path}: {exc.strerror or exc}")


def _write_output(data: str, out: str | None, label: str):
    raw = data.encode()
    if out:
        _write_file(out, raw)
        click.echo(f"{label} {out} sha256:{_digest(raw)}")
    else:
        sys.stdout.write(data)
        sys.stdout.flush()
        click.echo(f"{label} <stdout> sha256:{_digest(raw)}", err=True)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_cover(path: str) -> DpCover:
    """Read and validate a cover file; any malformed document, one too large
    for memory, or a file that cannot be read exits 2."""
    try:
        # the loader reads the file in blocks and never holds its bytes whole
        with open(path, "rb") as fh:
            return cover_from_json(fh)
    # json.loads raises RecursionError on deeply nested arrays
    except (CoverValidationError, ValueError, OverflowError, RecursionError) as exc:
        _fail(EXIT_USAGE, f"cannot load cover: {exc}")
    except MemoryError:
        _fail(EXIT_USAGE, "cannot load cover: not enough memory")
    except OSError as exc:
        _fail(EXIT_USAGE, f"cannot load cover: {exc.strerror or exc}")


def _smallest_list(cov: DpCover) -> int:
    """Size of the cover's smallest list; 0 for a cover without vertices."""
    sizes = cov.list_sizes()
    return int(sizes.min()) if sizes.size else 0


@click.group()
def main():
    """DP-coloring engine: generators, schedules, coloring runs, statistics."""


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


# the size options each kind of instance is built from
_GENERATE_NEEDS = {
    "regular": ("n", "d"),
    "girth5_regular": ("n", "d"),
    "dp_cover": ("n", "d", "ell"),
    "list_cover": ("n", "d", "ell"),
    "kst_free_bipartite": ("m", "n", "s", "t"),
}


@main.command("generate")
@click.option("--kind", type=click.Choice(list(_GENERATE_NEEDS)), required=True)
@click.option("--n", type=int, default=None)
@click.option("--d", type=int, default=None)
@click.option("--ell", type=int, default=None)
@click.option("--rho", type=float, default=1.0)
@click.option("--m", type=int, default=None)
@click.option("--s", type=int, default=None)
@click.option("--t", type=int, default=None)
@click.option("--girth5/--no-girth5", "girth5_base", default=False,
              help="Use a girth>=5 base graph for cover kinds.")
@click.option("--seed", type=int, required=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_generate(kind, n, d, ell, rho, m, s, t, girth5_base, seed, out):
    """Generate a graph or cover file and print its content digest."""
    given = {"n": n, "d": d, "ell": ell, "m": m, "s": s, "t": t}
    for opt in _GENERATE_NEEDS[kind]:
        if given[opt] is None:
            _fail(EXIT_USAGE, f"missing --{opt}: --kind {kind} needs "
                              + " ".join(f"--{o}" for o in _GENERATE_NEEDS[kind]))
    try:
        if kind == "regular":
            g = generators.random_regular(n, d, seed)
            _write_output(graph_to_text(g), out, "graph")
        elif kind == "girth5_regular":
            g = generators.random_girth5_regular(n, d, seed)
            _write_output(graph_to_text(g), out, "graph")
        elif kind in ("dp_cover", "list_cover"):
            base = (generators.random_girth5_regular(n, d, seed + 1)
                    if girth5_base else generators.random_regular(n, d, seed + 1))
            if kind == "dp_cover":
                cov = generators.random_dp_cover(base, ell, rho, seed)
            else:
                cov = uniform_list_cover(base, ell)
            _write_output(cover_to_json(cov), out, "cover")
        elif kind == "kst_free_bipartite":
            g = generators.kst_free_bipartite(m, n, s, t, seed)
            _write_output(graph_to_text(g), out, "graph")
    # np.arange(2**63) is empty, so such an n first overflows in Graph.from_edges
    except (ValueError, TypeError, OverflowError) as exc:
        _fail(EXIT_USAGE, str(exc))
    except MemoryError as exc:
        _fail(EXIT_USAGE, f"not enough memory: {exc}")
    except (GenerationError, BudgetExceededError) as exc:
        _fail(EXIT_BUDGET, str(exc))


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


@main.command("schedule")
@click.option("--d", type=int, required=True)
@click.option("--epsilon", type=float, required=True)
@click.option("--s", type=int, default=2, show_default=True)
@click.option("--t", type=int, default=2, show_default=True)
@click.option("--max-iters", type=int, default=10000, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_schedule(d, epsilon, s, t, max_iters, out):
    """Compute the parameter iteration and emit it as CSV."""
    try:
        sched = compute_schedule(ScheduleInput(d=d, epsilon=epsilon, s=s, t=t),
                                 max_iters=max_iters)
    except ScheduleError as exc:
        _fail(EXIT_USAGE, str(exc))
    _write_output(schedule_to_csv(sched), out, "schedule")


# ---------------------------------------------------------------------------
# color
# ---------------------------------------------------------------------------


@main.command("color")
@click.argument("cover_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, required=True)
@click.option("--epsilon", type=float, default=None,
              help="Margin for the schedule; default matches the cover's lists.")
@click.option("--t", type=int, default=2, show_default=True)
@click.option("--slack", type=float, default=1.0, show_default=True)
@click.option("--max-retries", type=int, default=50, show_default=True)
@click.option("--max-resamples", type=int, default=100000, show_default=True)
@click.option("--max-rounds", type=int, default=5000, show_default=True)
@click.option("--regularize-first", is_flag=True, default=False)
@click.option("--out", type=click.Path(), default=None)
def cmd_color(cover_file, seed, epsilon, t, slack, max_retries,
              max_resamples, max_rounds, regularize_first, out):
    """Run the full coloring pipeline on a cover file."""
    cov = _load_cover(cover_file)
    d = max(max_degree(cov.cover), 1)
    if epsilon is None:
        # choose the margin so the schedule's initial list size matches the
        # cover's smallest list, kept below the schedule's bound of 100: lists
        # that long are already 8x the degree and need no schedule
        import math
        ell_min = _smallest_list(cov)
        epsilon = min(max(ell_min * math.log(max(d, 3)) / max(d, 3) - 1.0, 0.01),
                      math.nextafter(100.0, 0.0))
    try:
        cfg = pipeline.PipelineConfig(
            # no step of `color` reads s; it is echoed in the result JSON
            schedule_input=ScheduleInput(d=d, epsilon=epsilon, s=2, t=t),
            seed=seed, slack=slack, max_round_retries=max_retries,
            max_finish_resamples=max_resamples, max_rounds=max_rounds,
            regularize_first=regularize_first)
    except (ScheduleError, ValueError) as exc:
        _fail(EXIT_USAGE, str(exc))
    result = None
    error = None
    telemetry = None
    code = 0
    try:
        result = pipeline.color_graph(cov, cfg)
    except PipelineError as exc:
        error = str(exc)
        telemetry = exc.telemetry
        budget = (RetriesExhaustedError, ResampleBudgetError, BudgetExceededError)
        code = EXIT_BUDGET if isinstance(exc.__cause__, budget) else EXIT_FEASIBILITY
    except CoverValidationError as exc:
        error, code = str(exc), EXIT_USAGE
    except MemoryError as exc:
        error, code = f"not enough memory: {exc}", EXIT_USAGE
    doc = pipeline.result_to_json(result, cfg, error=error, telemetry=telemetry)
    _write_output(doc, out, "result")
    if code:
        _fail(code, error)


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


@main.command("stats")
@click.argument("cover_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, required=True)
@click.option("--trials", type=int, required=True)
@click.option("--eta", type=float, required=True)
@click.option("--t", type=int, default=2, show_default=True,
              help="Sets the tail exponent beta = 1/(25t).")
@click.option("--anchor", type=int, default=None,
              help="Track one color's uncolored/kept overlap per trial.")
@click.option("--out", type=click.Path(), default=None)
@click.option("--summary", "summary_path", type=click.Path(), default=None)
def cmd_stats(cover_file, seed, trials, eta, t, anchor, out, summary_path):
    """Seeded Monte-Carlo statistics for one round on a cover."""
    cov = _load_cover(cover_file)
    d = max(max_degree(cov.cover), 1)
    ell = _smallest_list(cov)
    try:
        params = RoundParams(eta=eta, d=d, ell=ell, beta=tail_exponent(t))
        stats = analysis.round_stats(cov, params, trials, seed, anchor=anchor)
    except ValueError as exc:
        _fail(EXIT_USAGE, str(exc))
    except MemoryError as exc:
        _fail(EXIT_USAGE, f"not enough memory: {exc}")
    config = {"cover_file": cover_file, "seed": seed, "trials": trials,
              "eta": eta, "t": t, "anchor": anchor,
              "d": d, "ell": ell}
    _write_output(analysis.stats_to_csv(stats, config), out, "stats")
    if summary_path:
        _write_file(summary_path, analysis.stats_summary_json(stats, config).encode())
        click.echo(f"summary {summary_path}")


if __name__ == "__main__":
    main()
