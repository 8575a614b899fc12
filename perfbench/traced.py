#!/usr/bin/env python3
"""Run one dpnibble command with timing wrappers around its layers.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/traced.py TRACE.json <dpnibble arguments...>
    python3 perfbench/traced.py TRACE.json --girth COVER.json

The wrappers are installed from here, around the public functions of each
``dpnibble`` module; the program itself is not changed.  Every call of a
wrapped function records a span ``[name, start, end, parent]`` (times from
``time.perf_counter``, ``parent`` the index of the enclosing span or -1) and
some wrappers also add to a count.  Spans and counts stay in memory and are
written to TRACE.json when the command ends.  The process exits with the
command's own exit code.
"""

from __future__ import annotations

import functools
import json
import sys
import time

T_START = time.perf_counter()
SPANS: list[list] = []
COUNTS: dict[str, int] = {}
_open: list[int] = []


def _begin(name: str) -> int:
    SPANS.append([name, time.perf_counter(), None, _open[-1] if _open else -1])
    _open.append(len(SPANS) - 1)
    return _open[-1]


def _end(idx: int) -> None:
    _open.pop()
    SPANS[idx][2] = time.perf_counter()


def _add(name: str, value: int) -> None:
    COUNTS[name] = COUNTS.get(name, 0) + int(value)


def timed(name, fn, count=None):
    """``fn`` wrapped in a span; ``count(args, kwargs, result)`` adds counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = _begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            _end(idx)
        if count is not None:
            count(args, kwargs, out)
        return out

    return wrapper


def counted(name, fn):
    """``fn`` wrapped to count its successful calls, without a span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        _add(name, 1)
        return out

    return wrapper


def _replace_everywhere(original, replacement) -> None:
    """Rebind every ``dpnibble`` module global that refers to ``original``.

    Modules import functions by name (``from .cover import cover_from_json``),
    so patching only the defining module would miss those call sites.
    """
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("dpnibble"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class _JsonProxy:
    """Stands in for the ``json`` module inside ``dpnibble.cover``."""

    def __init__(self, real):
        self._real = real
        self.loads = timed("cover.json_loads", real.loads)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def install() -> None:
    from functools import cached_property

    from dpnibble import analysis, cover, generators, graph, nibble, pipeline
    from dpnibble import _kernels

    def wrap(mod, attr, name, count=None):
        original = getattr(mod, attr)
        _replace_everywhere(original, timed(name, original, count))

    def finish_counts(args, kwargs, out):
        _add("pipeline.finish_vertices", args[0].base.vertex_count)
        _add("pipeline.finish_resamples", out[1])

    # ingest
    wrap(cover, "cover_from_json", "cover.cover_from_json")
    cover.json = _JsonProxy(cover.json)
    from_edges = graph.Graph.__dict__["from_edges"].__func__
    graph.Graph.from_edges = classmethod(timed("graph.from_edges", from_edges))
    cover.DpCover.__init__ = timed("cover.dpcover_init", cover.DpCover.__init__)
    wrap(cover, "validate", "cover.validate")
    # rounds
    wrap(pipeline, "color_graph", "pipeline.color_graph")
    _replace_everywhere(nibble.run_round_until_good,
                        counted("pipeline.rounds", nibble.run_round_until_good))
    _replace_everywhere(nibble.run_round,
                        counted("nibble.round_attempts", nibble.run_round))
    # without numba, round_dispatch is round_numpy, which round_stats_numpy
    # also calls once per trial: both names get the one wrapper
    wrap(_kernels, "round_dispatch", "kernels.round")
    wrap(nibble, "count_violations", "nibble.count_violations")
    residual = nibble.RoundOutcome.__dict__["residual"]
    prop = cached_property(timed("nibble.residual", residual.func))
    prop.__set_name__(nibble.RoundOutcome, "residual")
    nibble.RoundOutcome.residual = prop
    # finisher
    wrap(pipeline, "finish_with_stats", "pipeline.finish", finish_counts)
    # output
    wrap(analysis, "verify_proper", "analysis.verify_proper")
    wrap(pipeline, "result_to_json", "pipeline.result_to_json")
    wrap(analysis, "round_stats", "analysis.round_stats",
         lambda args, kwargs, out: _add("analysis.trials", out.trials))
    wrap(analysis, "stats_to_csv", "analysis.stats_to_csv")
    # generators
    for attr in ("random_girth5_regular", "random_regular", "random_dp_cover"):
        wrap(generators, attr, f"generators.{attr}")
    wrap(cover, "from_list_assignment", "cover.from_list_assignment")
    wrap(cover, "cover_to_json", "cover.cover_to_json")
    wrap(graph, "girth", "graph.girth")


def _girth_of_cover_base(path: str) -> float:
    from dpnibble import graph

    with open(path) as fh:
        base = json.load(fh)["base"]
    g = graph.Graph.from_edges(base["vertex_count"], base["edges"])
    return graph.girth(g)


def main(argv: list[str]) -> int:
    trace_path, args = argv[0], argv[1:]
    result = None
    code = 0
    idx = _begin("python.import")
    try:
        import dpnibble.cli as cli
        install()
    finally:
        _end(idx)
    idx = _begin("cli.command")
    try:
        if args[:1] == ["--girth"]:
            result = _girth_of_cover_base(args[1])
        else:
            cli.main.main(args=args, prog_name="dpnibble")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        _end(idx)
        with open(trace_path, "w") as fh:
            json.dump({"start": T_START, "end": time.perf_counter(),
                       "spans": SPANS, "counts": COUNTS, "result": result}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
