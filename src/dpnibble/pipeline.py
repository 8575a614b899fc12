"""End-to-end coloring: iterated good rounds, then resampling completion.

Round-to-round the engine tracks the *observed* state of the residual cover
in one :class:`~dpnibble.nibble.ResidualView` that each round advances in
place: the uniform list bound for the next round is the smallest surviving
kept list, and the degree bound is the largest residual cover degree (never
worse than the closed-form prediction after a good round).  Nibbling stops
as soon as every list is at least eight times the residual cover degree, at
which point repeated resampling of conflicting edges completes the coloring;
the resampler reads the same view, each list as its root list through
``alive``.  The returned coloring is verified against the original cover
before it leaves this module.

The closed-form schedule keyed by the same inputs is the reference for the
round targets; its integer sequences are not used to truncate lists (at
moderate degree their deviation allowances dwarf the actual shrinkage, and
trimming to them would destroy viable instances).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from ._kernels import alive_picks
from ._rng import derive_seed, normalize_seed
from .analysis import verify_proper
from .cover import DpCover, regularize, require_valid
from .errors import (BudgetExceededError, PipelineError, ResampleBudgetError,
                     RetriesExhaustedError)
from .graph import max_degree
from .nibble import (ResidualView, RoundParams, good_round_targets,
                     run_round_until_good)
from .schedule import FINISH_RATIO, ScheduleError, ScheduleInput, derive_constants


@dataclass(frozen=True)
class PipelineConfig:
    schedule_input: ScheduleInput
    seed: int
    slack: float = 1.0
    max_round_retries: int = 50
    max_finish_resamples: int = 100000
    max_rounds: int = 5000
    regularize_first: bool = False

    def __post_init__(self):
        # NaN fails every comparison, and a NaN or infinite slack passes
        # every round and cannot be written as JSON
        if not math.isfinite(self.slack):
            raise ValueError(f"slack must be finite, got {self.slack}")
        if self.slack < 1.0:
            raise ValueError("slack must be >= 1")
        if min(self.max_round_retries, self.max_finish_resamples, self.max_rounds) < 1:
            raise ValueError("budgets must be >= 1")


@dataclass(frozen=True)
class RoundTelemetry:
    iteration: int
    retries_used: int
    ell: int
    d: int
    min_kept: int
    max_residual_degree: int
    colored: int
    remaining: int


@dataclass
class ColoringResult:
    coloring: np.ndarray
    rounds: list[RoundTelemetry]
    finish_resamples: int


def finish_with_stats(c: DpCover, max_resamples: int, seed: int,
                      view: ResidualView | None = None):
    """:func:`resample_residual` on ``view``, a residual of ``c`` (by default
    all of it); its colors as an int64 array over ``c``'s vertices, -1 off
    the residual, then the resample count and the conflict trajectory."""
    view = ResidualView(c) if view is None else view
    coloring = np.full(c.base.vertex_count, -1, dtype=np.int64)
    coloring[view.vertices], resamples, trajectory = resample_residual(
        view, max_resamples, seed)
    return coloring, resamples, trajectory


def resample_residual(view: ResidualView, max_resamples: int, seed: int):
    """Proper colors for the residual vertices by iterated resampling.

    Requires every alive list to be at least eight times the residual cover
    degree.  Assigns every residual vertex a uniform alive color, then
    repeatedly picks the first violated cover edge (lexicographic order) and
    redraws both endpoint vertices, until no violation remains or the budget
    runs out.  Returns the root color ids chosen, by residual rank, the
    resample count and the conflict trajectory (empty without cover edges).
    The rows walked are the root cover's: dead colors are never chosen, and
    ranks and root ids are ordered alike, so the draws are those of a
    renumbered residual cover.

    This is the resampling algorithm of Moser and Tardos, and like it the
    finisher re-checks only the events a redraw can change: a vertex moving
    from color ``a`` to ``b`` touches the cover rows of ``a``, ``b`` and the
    chosen neighbours of ``a`` below it (lists are independent, so ``a`` and
    ``b`` are never adjacent).  The state is the chosen mask, the violation
    count and ``lead[x]``, set when ``x`` is chosen and has a chosen neighbour
    above it; the first violated edge starts at the first lead.  A resample
    costs O(d) array work plus one scan of ``lead``.
    """
    d, sizes = view.max_degree(), view.list_sizes()
    if sizes.size and sizes.min() < max(FINISH_RATIO * d, 1):
        raise ValueError(
            f"resampling completion needs lists >= {FINISH_RATIO}*max cover degree "
            f"({FINISH_RATIO * d}); smallest list has {int(sizes.min())}")
    rng = np.random.default_rng(normalize_seed(seed))
    root, alive, left = view.root, view.alive, view.sizes

    def draw(v: int) -> int:
        lst = root.lists(v)
        if lst.size > left[v]:  # some of its colors are dead
            lst = lst[alive[lst]]
        j = min(int(rng.random() * lst.size), lst.size - 1)
        return int(lst[j])

    # one uniform per vertex, in vertex order: the same doubles as scalar draws
    chosen = alive_picks(view, rng.random(sizes.size))
    if d == 0:
        return chosen, 0, []
    ptr, idx = root.cover.indptr, root.cover.indices
    rank = np.cumsum(view.blank) - 1

    def row(x: int) -> np.ndarray:
        return idx[ptr[x]:ptr[x + 1]]

    on = np.zeros(root.num_colors, dtype=bool)
    on[chosen] = True
    # every violated edge, seen from both of its ends
    src = np.repeat(chosen, ptr[chosen + 1] - ptr[chosen])
    dst = view.cover_rows(chosen)
    hit = on[dst]
    count = int(np.count_nonzero(hit)) // 2
    lead = np.zeros(root.num_colors, dtype=bool)
    lead[src[hit & (src < dst)]] = True

    def move(a: int, b: int) -> int:
        """Choose ``b`` instead of ``a``; returns the change in the count."""
        on[a] = lead[a] = False
        ra = row(a)
        gone = ra[on[ra]]
        for z in gone[gone < a].tolist():
            rz = row(z)
            lead[z] = on[rz[rz > z]].any()
        rb = row(b)
        hits = rb[on[rb]]
        on[b] = True
        lead[hits[hits < b]] = True
        lead[b] = hits.size > 0 and hits[-1] > b
        return hits.size - gone.size

    trajectory: list[int] = []
    resamples = 0
    while True:
        trajectory.append(count)
        if count == 0:
            return chosen, resamples, trajectory
        if resamples >= max_resamples:
            raise ResampleBudgetError(
                f"{count} conflicts remain after {resamples} resamples",
                conflict_trajectory=trajectory)
        x = int(np.argmax(lead))
        rx = row(x)
        y = int(rx[on[rx] & (rx > x)][0])
        for v in sorted((int(root.owner[x]), int(root.owner[y]))):
            a, b = int(chosen[rank[v]]), draw(v)
            if a != b:
                chosen[rank[v]] = b
                count += move(a, b)
        resamples += 1


def color_graph(c: DpCover, cfg: PipelineConfig) -> ColoringResult:
    """Color every vertex of the cover's base graph, verified proper."""
    require_valid(c)
    original = c
    base_seed = normalize_seed(cfg.seed)
    if cfg.regularize_first:
        # tag far outside the per-round range so streams never coincide
        c = regularize(c, max_degree(c.cover), derive_seed(base_seed, 10 ** 9))

    n_orig = original.base.vertex_count
    phi_total = np.full(c.base.vertex_count, -1, dtype=np.int64)
    view = ResidualView(c)
    telemetry: list[RoundTelemetry] = []
    consts = None

    for i in range(1, cfg.max_rounds + 1):
        if view.vertices.size == 0:
            break
        d_cur = view.max_degree()
        ell_cur = int(view.list_sizes().min())
        if ell_cur == 0:
            raise PipelineError(
                f"round {i}: a vertex has an empty list; instance cannot be "
                f"completed", telemetry=telemetry)
        if ell_cur >= FINISH_RATIO * d_cur:
            break
        if consts is None:
            try:
                consts = derive_constants(cfg.schedule_input)
            except ScheduleError as exc:
                raise PipelineError(
                    f"cover needs nibble rounds but the schedule is "
                    f"undefined: {exc}", telemetry=telemetry) from exc
            if ell_cur < consts[3]:
                raise PipelineError(
                    f"smallest list ({ell_cur}) is below the schedule's "
                    f"initial list size ({consts[3]})", telemetry=telemetry)
        _, eta, beta, _ = consts
        params = RoundParams(eta=eta, d=d_cur, ell=ell_cur, beta=beta)
        ell_t, d_t = good_round_targets(d_cur, ell_cur, eta, beta, cfg.slack)
        round_seed = derive_seed(base_seed, i)
        try:
            outcome = run_round_until_good(
                view, params, ell_t, d_t, cfg.max_round_retries, round_seed)
        except RetriesExhaustedError as exc:
            raise PipelineError(
                f"round {i}: {exc}", telemetry=telemetry) from exc

        colored = outcome.phi >= 0
        phi_total[outcome.vertices[colored]] = outcome.phi[colored]
        view = outcome.residual
        res_sizes = view.list_sizes()
        telemetry.append(RoundTelemetry(
            iteration=i,
            retries_used=outcome.seed - round_seed,
            ell=ell_cur, d=d_cur,
            min_kept=int(res_sizes.min()) if res_sizes.size else ell_cur,
            max_residual_degree=view.max_degree(),
            colored=int(np.count_nonzero(colored)),
            remaining=view.vertices.size,
        ))
    else:
        exhausted = BudgetExceededError(
            f"round budget ({cfg.max_rounds}) exhausted before lists cleared "
            f"{FINISH_RATIO}x the residual degree")
        raise PipelineError(str(exhausted), telemetry=telemetry) from exhausted

    try:
        finished, finish_resamples, _ = finish_with_stats(
            c, cfg.max_finish_resamples, derive_seed(base_seed, 0), view)
        phi_total[view.vertices] = finished[view.vertices]
    except (ValueError, ResampleBudgetError) as exc:
        raise PipelineError(f"completion failed: {exc}",
                            telemetry=telemetry) from exc

    result = phi_total[:n_orig]
    ok, witness = verify_proper(original, result)
    if not ok or np.any(result < 0):
        raise PipelineError(
            f"internal verification failed (witness: {witness})",
            telemetry=telemetry)
    return ColoringResult(coloring=result, rounds=telemetry,
                          finish_resamples=finish_resamples)


def result_to_json(result: ColoringResult | None, cfg: PipelineConfig,
                   error: str | None = None,
                   telemetry: list[RoundTelemetry] | None = None) -> str:
    doc = {
        "config": asdict(cfg),
        "ok": error is None,
    }
    if error is not None:
        doc["error"] = error
    if result is not None:
        doc["coloring"] = result.coloring.tolist()
        doc["finish_resamples"] = result.finish_resamples
        doc["verified"] = True
    rounds = result.rounds if result is not None else (telemetry or [])
    doc["rounds"] = [asdict(r) for r in rounds]
    return json.dumps(doc, sort_keys=True) + "\n"
