"""One round of the randomized activate/assign/prune coloring procedure.

A round activates each vertex independently with probability ``eta``, assigns
every activated vertex a uniform color from its list, keeps exactly the
colors with no assigned cover-neighbor, and colors an activated vertex iff
its own pick survived.  The closed forms below predict the per-round list
shrinkage and residual cover degree on regular covers:

    keep(d, l, eta)    = (1 - eta/l)^d
    uncolor(d, l, eta) = 1 - eta*keep
    ell_next           = keep*l - l^(1-beta)
    d_next             = keep*uncolor*d + d^(1-beta)

A round is *good* when no vertex's kept list fell to the ``ell`` target and
no residual color's degree reached the ``d`` target; the engine simply
re-rolls (seed+1, seed+2, ...) until a good round appears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .cover import DpCover, PartialColoring
from .errors import RetriesExhaustedError


def keep_fn(d: float, ell: float, eta: float) -> float:
    """Probability that a fixed color survives a round: (1 - eta/ell)^d."""
    if d == 0:
        return 1.0
    x = eta / ell
    if x >= 1.0:
        return 0.0
    # exp/log1p form keeps the relative error near machine epsilon for the
    # large exponents the schedule uses; plain pow loses ~d ulps
    return math.exp(d * math.log1p(-x))


def uncolor_fn(d: float, ell: float, eta: float) -> float:
    """Probability proxy that a vertex stays uncolored: 1 - eta*keep."""
    return 1.0 - eta * keep_fn(d, ell, eta)


def ell_next(d: float, ell: float, eta: float, beta: float) -> float:
    """Guaranteed list size after a good round (real-valued)."""
    return good_round_targets(d, ell, eta, beta)[0]


def d_next(d: float, ell: float, eta: float, beta: float) -> float:
    """Guaranteed residual degree bound after a good round (real-valued)."""
    return good_round_targets(d, ell, eta, beta)[1]


def good_round_targets(d: float, ell: float, eta: float, beta: float,
                       slack: float = 1.0) -> tuple[float, float]:
    """Acceptance thresholds with the deviation allowances scaled by ``slack``.

    ``slack=1`` is the exact closed form; larger values widen both allowances,
    which can only make acceptance easier.
    """
    k = keep_fn(d, ell, eta)
    ell_target = k * ell - slack * ell ** (1.0 - beta)
    d_target = k * uncolor_fn(d, ell, eta) * d + slack * d ** (1.0 - beta)
    return ell_target, d_target


@dataclass(frozen=True)
class RoundParams:
    """Parameters of one round."""

    eta: float
    d: int
    ell: int
    beta: float

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if self.d < 1 or self.ell < 1:
            raise ValueError("d and ell must be >= 1")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")


class ResidualView:
    """The residual of a partial coloring, as masks over a root cover.

    ``blank`` marks uncolored vertices, ``alive`` the colors left on their
    lists; ``sizes`` counts alive colors per vertex, ``deg`` alive neighbours
    per color.  Residual vertex ``i`` is the ``i``-th blank vertex with its
    alive colors in increasing order: the ids a renumbered residual cover
    would give them, so a round draws the same streams on either.
    """

    def __init__(self, root: DpCover, blank: np.ndarray, alive: np.ndarray,
                 sizes: np.ndarray, deg: np.ndarray):
        self.root = root
        self.blank = blank
        self.alive = alive
        self.sizes = sizes
        self.deg = deg
        self.vertices = np.flatnonzero(blank)
        self.lcolors = root.lcolors[alive[root.lcolors]]
        self._list_sizes = sizes[self.vertices]
        self.lptr = np.concatenate([[0], np.cumsum(self._list_sizes)])

    @classmethod
    def of(cls, cover: DpCover) -> "ResidualView":
        """The whole cover: every vertex blank, every color alive."""
        return cls(cover, np.ones(cover.base.vertex_count, bool),
                   np.ones(cover.num_colors, bool), cover.list_sizes(),
                   cover.cover.degrees())

    def lists(self, i: int) -> np.ndarray:
        """Alive colors of residual vertex ``i``, in increasing order."""
        return self.lcolors[self.lptr[i]:self.lptr[i + 1]]

    def list_sizes(self) -> np.ndarray:
        """Alive colors per residual vertex: the view's own array, not a copy."""
        return self._list_sizes

    def max_degree(self) -> int:
        """Largest residual cover degree; 0 without alive colors."""
        return int(self.deg[self.lcolors].max(initial=0))


def _as_view(cover: DpCover | ResidualView) -> ResidualView:
    return cover if isinstance(cover, ResidualView) else ResidualView.of(cover)


def on_lists(view: ResidualView, kept: np.ndarray) -> np.ndarray:
    """``(B, L)`` mask: ``kept`` at the colors of ``view.lcolors``, in list order."""
    return np.take(kept, view.lcolors, axis=1)


def kept_counts(view: ResidualView, listed: np.ndarray) -> np.ndarray:
    """Kept colors per residual vertex in each round: ``(B, n)`` from ``on_lists``."""
    # rounds run only on nonempty lists, so no segment is empty
    return np.add.reduceat(listed, view.lptr[:-1], axis=1, dtype=np.int64)


def staying(view: ResidualView, listed: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """``(B, L)`` mask over ``view.lcolors``: the kept colors of vertices left blank."""
    return listed & (phi < 0).repeat(view.list_sizes(), axis=1)


def residual_degrees(view: ResidualView, stays: np.ndarray) -> np.ndarray:
    """Alive neighbours of every root color after each round: ``(B, K)``.

    ``view.deg`` minus one ``bincount`` over the ``trial * K + color`` keys of
    the dying colors' cover rows, so the work follows those rows, not the
    whole cover.  On a whole cover this is each color's residual degree: its
    neighbours that were kept and whose vertex stayed blank.
    """
    g = view.root.cover
    width = g.vertex_count
    dying, offsets = _kernels.masked_keys(view.lcolors, ~stays, width)
    hits = _kernels.gather_rows(g.indptr, g.indices, dying, offsets)
    return view.deg - np.bincount(hits, minlength=stays.shape[0] * width).reshape(-1, width)


class RoundOutcome:
    """Result of one round on a residual view, backed by the kernel arrays.

    Vertices are residual ranks and colors root ids.  ``activated_mask``/
    ``col``/``kept_mask``/``phi`` are the raw arrays (one row of a kernel
    block); the residual degrees (``next_deg``) and the next residual, a
    :class:`ResidualView` over the same root, are built on demand.
    """

    def __init__(self, view: ResidualView, seed: int, activated_mask: np.ndarray,
                 col: np.ndarray, kept_mask: np.ndarray, phi: np.ndarray):
        self.view = view
        self.seed = seed
        self.activated_mask = activated_mask
        self.col = col
        self.kept_mask = kept_mask
        self.phi = phi

    def kept(self, v: int) -> np.ndarray:
        lst = self.view.lists(v)
        return lst[self.kept_mask[lst]]

    def kept_sizes(self) -> np.ndarray:
        return kept_counts(self.view, self._listed)[0]

    @property
    def coloring(self) -> PartialColoring:
        return PartialColoring(self.phi.copy())

    @cached_property
    def _listed(self) -> np.ndarray:
        return on_lists(self.view, self.kept_mask[None])

    @cached_property
    def stays(self) -> np.ndarray:
        """Mask over ``view.lcolors``: the kept colors of vertices left blank."""
        return staying(self.view, self._listed, self.phi[None])[0]

    @cached_property
    def next_deg(self) -> np.ndarray:
        """Alive neighbours of every root color after this round."""
        return residual_degrees(self.view, self.stays[None])[0]

    @cached_property
    def residual(self) -> ResidualView:
        """The residual after this round, as masks over the same root."""
        v = self.view
        dying = v.lcolors[~self.stays]
        blank = v.blank.copy()
        blank[v.vertices[self.phi >= 0]] = False
        alive = v.alive.copy()
        alive[dying] = False
        sizes = v.sizes - np.bincount(v.root.owner[dying], minlength=v.blank.size)
        return ResidualView(v.root, blank, alive, sizes, self.next_deg)


def run_block(cover: DpCover | ResidualView, params: RoundParams, seed: int,
              block: int) -> tuple[np.ndarray, ...]:
    """Kernel arrays of ``block`` rounds at seeds ``seed .. seed+block-1``.

    Returns ``(activated, col, kept, phi)``: ``(block, n)`` arrays over the
    residual vertices and a ``(block, K)`` mask over the root colors.
    """
    view = _as_view(cover)
    sizes = view.list_sizes()
    if np.any(sizes < 1):
        raise ValueError("every vertex needs a nonempty list")
    g = view.root.cover
    return _kernels.round_kernel(seed, block, params.eta, view.lptr, sizes,
                                 view.lcolors, g.indptr, g.indices)


def run_round(cover: DpCover | ResidualView, params: RoundParams,
              seed: int) -> RoundOutcome:
    """Execute one round; a pure function of (cover, params, seed)."""
    view = _as_view(cover)
    activated, col, kept, phi = run_block(view, params, seed, 1)
    return RoundOutcome(view, seed, activated[0], col[0], kept[0], phi[0])


def round_is_good(outcome: RoundOutcome, ell_target: float, d_target: float) -> bool:
    """No kept list at or below ``ell_target``; no residual color at or above ``d_target``."""
    bad_v, bad_c = count_violations(outcome, ell_target, d_target)
    return bad_v == 0 and bad_c == 0


def count_violations(outcome: RoundOutcome, ell_target: float, d_target: float) -> tuple[int, int]:
    """(#vertices with kept size <= ell_target, #residual colors with degree >= d_target)."""
    bad_v = int(np.count_nonzero(outcome.kept_sizes() <= ell_target))
    survivors = outcome.view.lcolors[outcome.stays]
    bad_c = int(np.count_nonzero(outcome.next_deg[survivors] >= d_target))
    return bad_v, bad_c


def run_round_until_good(cover: DpCover | ResidualView, params: RoundParams,
                         ell_target: float, d_target: float,
                         max_retries: int, seed: int) -> RoundOutcome:
    """First good round among seeds ``seed, seed+1, ...``.

    Raises :class:`RetriesExhaustedError` carrying the best attempt (fewest
    violated events) and the per-seed violation counts.
    """
    if max_retries < 1:
        raise ValueError("max_retries must be >= 1")
    best: RoundOutcome | None = None
    best_score = None
    violations: dict[int, tuple[int, int]] = {}
    view = _as_view(cover)
    for k in range(max_retries):
        outcome = run_round(view, params, seed + k)
        bad_v, bad_c = count_violations(outcome, ell_target, d_target)
        if bad_v == 0 and bad_c == 0:
            return outcome
        violations[seed + k] = (bad_v, bad_c)
        score = bad_v + bad_c
        if best_score is None or score < best_score:
            best, best_score = outcome, score
    raise RetriesExhaustedError(
        f"no good round in {max_retries} tries from seed {seed} "
        f"(targets: ell<={ell_target:.4g}, d>={d_target:.4g}); "
        f"best attempt violated {best_score} events",
        best_outcome=best, violations=violations)
