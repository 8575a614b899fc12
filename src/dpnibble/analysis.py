"""Verification and empirical measurement utilities.

Four tasks: certify proper colorings, classify the two-step neighborhood of
an anchor color into concentration-friendly and problematic parts, estimate
per-round statistics by seeded Monte Carlo, and compute the same quantities
exactly by brute-force enumeration on micro instances (the oracle grounding
the closed forms and the Monte Carlo).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import gather_rows, round_kernel
from .cover import DpCover
from .errors import BudgetExceededError
from .graph import Graph
from .nibble import (ResidualView, RoundParams, d_next, keep_fn, kept_counts,
                     residual_degrees)


# ---------------------------------------------------------------------------
# proper-coloring verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConflictWitness:
    vertex_u: int
    vertex_v: int
    color_u: int
    color_v: int


def verify_proper(c: DpCover, a: np.ndarray) -> tuple[bool, ConflictWitness | None]:
    """True iff no cover edge joins two assigned colors of ``a``, an int64
    array of a color id per base vertex, -1 where the vertex has none.

    Raises ``ValueError`` if the coloring uses a color outside its vertex's
    list; returns a witness pair on failure.
    """
    if a.size != c.base.vertex_count:
        raise ValueError("coloring length does not match the base graph")
    assigned = a >= 0
    if np.any(assigned):
        owners_ok = c.owner[a[assigned]] == np.nonzero(assigned)[0]
        if not np.all(owners_ok):
            v = int(np.nonzero(assigned)[0][np.argmin(owners_ok)])
            raise ValueError(f"vertex {v} is assigned color {int(a[v])} outside its list")
    # the rows of the chosen colors, in increasing order: the first entry that
    # is chosen too is the lexicographically first conflict, as its partner's
    # row, holding it as well, does not come earlier
    colors = np.sort(a[assigned])
    chosen = np.zeros(c.num_colors, dtype=bool)
    chosen[colors] = True
    partners = gather_rows(c.cover.indptr, c.cover.indices, colors)
    bad = chosen[partners]
    if not np.any(bad):
        return True, None
    i = int(np.argmax(bad))
    c1 = int(np.repeat(colors, c.cover.degrees()[colors])[i])
    c2 = int(partners[i])
    return False, ConflictWitness(int(c.owner[c1]), int(c.owner[c2]), c1, c2)


# ---------------------------------------------------------------------------
# anchor-color structure classifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureReport:
    """Classification of the distance-<=2 colors around an anchor.

    A second-neighborhood color is *crowded* ("bad") when it has at least
    ``d^(1-delta)`` neighbors inside the anchor's neighborhood; an anchor
    neighbor is "sad" when at least ``d^(1-delta)`` of its neighbors are
    crowded.  ``sad_bound`` is the reference cap ``d^(1-beta2)`` the count is
    compared against (reported, not asserted: it only binds for large d).
    """

    anchor: int
    d: int
    t: int
    delta: float
    beta1: float
    beta2: float
    delta2: float
    tau: float
    bad: tuple[int, ...]
    good: tuple[int, ...]
    sad: tuple[int, ...]
    happy: tuple[int, ...]
    sad_bound: float


def classify_structure(cover: Graph, anchor: int, d: int, t: int) -> StructureReport:
    """Exact bad/good/sad/happy partition around ``anchor`` in ``cover``."""
    if cover.degree(anchor) > d:
        raise ValueError(f"anchor degree {cover.degree(anchor)} exceeds d={d}")
    # integer division: a t too large for a float gives tiny exponents, no OverflowError
    delta = 1 / (3 * t)
    threshold = d ** (1.0 - delta)
    nbrs = cover.neighbors(anchor)
    nbr_set = set(nbrs.tolist())
    common = {}
    for w in nbrs:
        for x in cover.neighbors(int(w)):
            x = int(x)
            if x != anchor:
                common[x] = common.get(x, 0) + 1
    second = sorted(common)
    bad = tuple(x for x in second if common[x] >= threshold)
    good = tuple(x for x in second if common[x] < threshold)
    bad_set = set(bad)
    sad, happy = [], []
    for cp in sorted(nbr_set):
        bad_deg = sum(1 for y in cover.neighbors(cp) if int(y) in bad_set)
        (sad if bad_deg >= threshold else happy).append(cp)
    beta2 = 1 / (15 * t)
    return StructureReport(
        anchor=anchor, d=d, t=t, delta=delta,
        beta1=1 / (20 * t), beta2=beta2, delta2=1 / (10 * t),
        tau=4 / (9 * t),
        bad=bad, good=good, sad=tuple(sad), happy=tuple(happy),
        sad_bound=d ** (1.0 - beta2),
    )


# ---------------------------------------------------------------------------
# Monte-Carlo round statistics
# ---------------------------------------------------------------------------


# array entries one block of Monte-Carlo trials may touch (see block_size):
# the largest power of two that raised the peak RSS of neither perfbench
# stats workload; a 1,000-trial `stats` process on the 4,800-color cover
# peaked 0.5 MB higher at 2^19 and 2.4 MB (6 %) higher at 2^20
_BLOCK_ENTRIES = 1 << 18
# int64 entries of each row buffer round_stats reduces at once: 512 KB
_REDUCE_ENTRIES = 1 << 16


def block_size(c: DpCover, trials: int) -> int:
    """Trials per kernel call of :func:`round_stats` on ``c``.

    A trial touches each cover-row entry at most a few times and holds one
    kept flag per color, so ``_BLOCK_ENTRIES // max(row entries, colors)``
    trials keep a block's ``(B, K)`` and per-entry arrays near
    ``_BLOCK_ENTRIES`` entries; at least 1, at most ``trials``.

    The budget is set by the number of kernel calls per trial, not by cache
    fit: every call pays a fixed run of numpy dispatches, which dominates on
    a small cover.  On the 408-color cover (6,528 row entries) 2^18 instead
    of 2^16 entries takes B from 10 to 40 and 5,000 in-process trials from
    about 85 to 50 ms (medians of 7); a larger budget gained at most 5 ms
    more there and costs peak memory on large covers.
    """
    per_trial = max(c.cover.indices.size, c.num_colors, 1)
    return max(1, min(trials, _BLOCK_ENTRIES // per_trial))


@dataclass
class RoundStats:
    """Integer sums over seeded independent rounds, and their statistics.

    Sums over disjoint trial ranges add exactly; the statistics divide once.
    """

    trials: int
    params: RoundParams
    kept_sum: np.ndarray
    kept_sumsq: np.ndarray
    res_sum: np.ndarray
    res_sumsq: np.ndarray
    kept_tail: np.ndarray  # count of |kept(v) - keep*ell| > ell^(1-beta)
    res_tail: np.ndarray   # count of resdeg(c) > keep*uncolor*d + d^(1-beta)
    anchor: int | None = None
    anchor_u: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    anchor_u_minus_k: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    anchor_res: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))

    def __post_init__(self):
        n = float(self.trials)
        self.kept_mean = self.kept_sum / n
        self.kept_var = np.maximum(self.kept_sumsq / n - self.kept_mean ** 2, 0.0)
        self.res_mean = self.res_sum / n
        self.res_var = np.maximum(self.res_sumsq / n - self.res_mean ** 2, 0.0)
        self.kept_tail_freq = self.kept_tail / n
        self.res_tail_freq = self.res_tail / n

    @property
    def anchor_u_mean(self) -> float:
        return float(self.anchor_u.mean()) if self.anchor_u.size else math.nan

    @property
    def anchor_u_minus_k_mean(self) -> float:
        return float(self.anchor_u_minus_k.mean()) if self.anchor_u_minus_k.size else math.nan


def round_stats(c: DpCover, p: RoundParams, trials: int, seed: int,
                anchor: int | None = None) -> RoundStats:
    """Seeded Monte Carlo over ``trials`` rounds (seeds seed..seed+trials-1).

    Tail thresholds use the closed forms at the supplied params; they are
    meaningful when the cover is regular with uniform list size and merely
    recorded otherwise.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if anchor is not None and not 0 <= int(anchor) < c.num_colors:
        raise ValueError(f"anchor {anchor} is not a color id of this cover")
    keep = keep_fn(p.d, p.ell, p.eta)
    keep_ell = keep * p.ell
    ell_tail = p.ell ** (1.0 - p.beta)
    # an integer degree exceeds the real threshold iff it exceeds its floor;
    # the integer comparison skips a float conversion of every degree
    res_floor = math.floor(d_next(p.d, p.ell, p.eta, p.beta))
    n, num_colors = c.base.vertex_count, c.num_colors
    block = block_size(c, trials)
    # kept sizes and residual degrees go into row buffers of whole blocks of
    # about _REDUCE_ENTRIES entries; a full buffer, and the last, is reduced
    # into its sum, sum of squares and tail count at once
    rows = block * max(1, _REDUCE_ENTRIES // (block * max(n, num_colors, 1)))
    kept_buf, res_buf = np.empty((rows, n), np.int64), np.empty((rows, num_colors), np.int64)
    kept_acc, res_acc = np.zeros((3, n), np.int64), np.zeros((3, num_colors), np.int64)
    m = 0 if anchor is None else trials
    anchor_u, anchor_umk, anchor_res = (np.zeros(m, np.int64) for _ in range(3))
    if m:
        nbrs = c.cover.neighbors(int(anchor))
        nbr_owners = c.owner[nbrs]
    view = ResidualView(c)
    for lo in range(0, trials, block):
        b = min(block, trials - lo)
        kept, phi, _ = round_kernel(view, p.eta, seed + lo, b)
        row = lo % rows
        kept_buf[row:row + b] = kept_counts(view, kept)
        res_buf[row:row + b] = residual_degrees(view, kept, phi < 0)
        if m:
            blank = phi[:, nbr_owners] < 0
            anchor_u[lo:lo + b] = np.count_nonzero(blank, axis=1)
            anchor_umk[lo:lo + b] = np.count_nonzero(blank & ~kept[:, nbrs], axis=1)
            anchor_res[lo:lo + b] = res_buf[row:row + b, anchor]
        if row + b == rows or lo + b == trials:
            k, r = kept_buf[:row + b], res_buf[:row + b]
            for acc, buf, tail in ((kept_acc, k, np.abs(k - keep_ell) > ell_tail),
                                   (res_acc, r, r > res_floor)):
                acc += (buf.sum(axis=0), np.einsum("ij,ij->j", buf, buf),
                        np.count_nonzero(tail, axis=0))
    return RoundStats(trials, p, kept_acc[0], kept_acc[1], res_acc[0], res_acc[1],
                      kept_acc[2], res_acc[2], anchor, anchor_u, anchor_umk, anchor_res)


# ---------------------------------------------------------------------------
# exact enumeration oracle
# ---------------------------------------------------------------------------

_ENUM_CHUNK = 1 << 15  # outcomes enumerated per block of arrays


def exact_round_expectation(c: DpCover, p: RoundParams,
                            budget: int = 10 ** 6) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-vertex expected kept-list size and per-color expected
    residual degree, by full enumeration of the activation/color outcome
    space weighted by probability.

    Independent of the closed forms and of the round kernels: this is the
    ground truth they are tested against.  Refuses when the outcome space
    (product over vertices of 1 + list size) exceeds ``budget``.
    """
    n = c.base.vertex_count
    num_colors = c.num_colors
    sizes = c.list_sizes()
    total = 1
    for sz in sizes:
        total *= int(sz) + 1
        if total > budget:
            raise BudgetExceededError(
                f"outcome space exceeds budget: > {budget}")

    # per-vertex outcome probabilities: slot 0 = inactive, slot j = color j-1
    tables = [np.concatenate([[1.0 - p.eta], np.full(int(sz), p.eta / int(sz))])
              for sz in sizes]
    radix = (sizes + 1).astype(np.int64)

    # per-color lookup: owner and position within the owner's list
    within = np.zeros(num_colors, dtype=np.int64)
    for v in range(n):
        within[c.lists(v)] = np.arange(int(sizes[v]))

    cov_ptr, cov_idx = c.cover.indptr, c.cover.indices
    exp_kept = np.zeros(n, dtype=np.float64)
    exp_res = np.zeros(num_colors, dtype=np.float64)

    for start in range(0, total, _ENUM_CHUNK):
        stop = min(start + _ENUM_CHUNK, total)
        idx = np.arange(start, stop, dtype=np.int64)
        m = idx.size
        digits = np.empty((n, m), dtype=np.int64)
        rem = idx
        for v in range(n - 1, -1, -1):
            digits[v] = rem % radix[v]
            rem = rem // radix[v]
        w = np.ones(m, dtype=np.float64)
        for v in range(n):
            w *= tables[v][digits[v]]

        # assigned[c] per outcome: owner activated and picked exactly c
        assigned = np.empty((num_colors, m), dtype=bool)
        for col in range(num_colors):
            assigned[col] = digits[c.owner[col]] == within[col] + 1
        kept = np.empty((num_colors, m), dtype=bool)
        for col in range(num_colors):
            row = np.ones(m, dtype=bool)
            for k in range(cov_ptr[col], cov_ptr[col + 1]):
                row &= ~assigned[cov_idx[k]]
            kept[col] = row

        # vertex colored iff active and its own pick was kept
        blank = np.empty((n, m), dtype=bool)
        for v in range(n):
            lst = c.lists(v)
            if lst.size == 0:
                blank[v] = True
                continue
            active = digits[v] > 0
            picked = lst[np.maximum(digits[v] - 1, 0)]
            blank[v] = ~(active & kept[picked, np.arange(m)])

        for v in range(n):
            lst = c.lists(v)
            exp_kept[v] += float(np.sum(w * kept[lst].sum(axis=0)))
        in_res = kept & blank[c.owner]
        for col in range(num_colors):
            acc = np.zeros(m, dtype=np.int64)
            for k in range(cov_ptr[col], cov_ptr[col + 1]):
                acc += in_res[cov_idx[k]]
            exp_res[col] += float(np.sum(w * acc))

    return exp_kept, exp_res


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def stats_to_csv(stats: RoundStats, config: dict) -> str:
    """One row per vertex and per color; config echoed in comment lines."""
    # one tolist() per column: a Python float has the repr of its float64
    lines = [f"# {json.dumps(config, sort_keys=True)}", "kind,id,mean,variance,tail_freq"]
    for kind, columns in (("vertex", (stats.kept_mean, stats.kept_var, stats.kept_tail_freq)),
                          ("color", (stats.res_mean, stats.res_var, stats.res_tail_freq))):
        lines += [f"{kind},{i},{mean!r},{var!r},{tail!r}"
                  for i, (mean, var, tail) in enumerate(zip(*(a.tolist() for a in columns)))]
    if stats.anchor is not None:
        lines.append("# anchor samples: trial,u,u_minus_k,residual_degree")
        columns = (stats.anchor_u, stats.anchor_u_minus_k, stats.anchor_res)
        lines += [f"anchor,{i},{u},{umk},{res}"
                  for i, (u, umk, res) in enumerate(zip(*(a.tolist() for a in columns)))]
    return "\n".join(lines) + "\n"


def stats_summary_json(stats: RoundStats, config: dict) -> str:
    keep = keep_fn(stats.params.d, stats.params.ell, stats.params.eta)
    # per-vertex comparison of the sample mean against keep*ell at 3 standard
    # errors; meaningful when the cover is regular with uniform lists
    se = np.sqrt(np.maximum(stats.kept_var, 0.0) / stats.trials)
    expected = keep * stats.params.ell
    within = np.abs(stats.kept_mean - expected) <= 3 * se + 1e-12
    doc = {
        "config": config,
        "trials": stats.trials,
        "keep_closed_form": keep,
        "expected_kept_size": expected,
        "kept_mean_overall": float(stats.kept_mean.mean()),
        "kept_mean_within_3se": bool(np.all(within)),
        "res_mean_overall": float(stats.res_mean.mean()),
        "kept_tail_freq_max": float(stats.kept_tail_freq.max()),
        "res_tail_freq_max": float(stats.res_tail_freq.max()),
    }
    if stats.anchor is not None:
        doc["anchor"] = {
            "id": stats.anchor,
            "u_mean": stats.anchor_u_mean,
            "u_minus_k_mean": stats.anchor_u_minus_k_mean,
            "identity_holds": bool(np.all(
                stats.anchor_res == stats.anchor_u - stats.anchor_u_minus_k)),
        }
    return json.dumps(doc, sort_keys=True) + "\n"
