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
from .cover import DpCover
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
    """The residual of a partial coloring, as arrays over a root cover.

    ``blank`` marks uncolored vertices, ``alive`` the colors left on their
    lists; ``sizes`` counts alive colors per vertex, ``deg`` alive neighbours
    per alive color.  Residual vertex ``i`` is the blank vertex
    ``vertices[i]`` with its alive colors in increasing order: the ids a
    renumbered residual cover would give them, so a round draws the same
    streams on either.  A list is read as its root list through ``alive``.
    ``ResidualView(cover)`` is the whole cover, and
    :attr:`RoundOutcome.residual` advances it in place.
    """

    def __init__(self, root: DpCover):
        n = root.base.vertex_count
        self.root, self.blank, self.alive = root, np.ones(n, bool), np.ones(root.num_colors, bool)
        self.sizes, self.deg = root.list_sizes(), root.cover.degrees()
        # gathers of the root lists and of the cover rows
        self.list_rows = _kernels.row_gather(root.lptr, root.lcolors)
        self.cover_rows = _kernels.row_gather(root.cover.indptr, root.cover.indices)
        self._move_to(np.arange(n))

    def _move_to(self, vertices: np.ndarray):
        self.vertices = vertices
        self._list_sizes = self.sizes[vertices]
        self._max_degree = int(self.deg.max(initial=0))

    def list_sizes(self) -> np.ndarray:
        """Alive colors per residual vertex: the view's own array, not a copy."""
        return self._list_sizes

    def max_degree(self) -> int:
        """Largest residual cover degree; 0 without alive colors."""
        return self._max_degree


def on_lists(cover: DpCover, kept: np.ndarray) -> np.ndarray:
    """``(B, L)`` mask: ``kept`` at the colors of ``cover.lcolors``, in list order."""
    return np.take(kept, cover.lcolors, axis=1)


def kept_counts(cover: DpCover, listed: np.ndarray) -> np.ndarray:
    """Kept colors per vertex in each round: ``(B, n)`` from ``on_lists``."""
    # rounds run only on nonempty lists, so no segment is empty
    return np.add.reduceat(listed, cover.lptr[:-1], axis=1, dtype=np.int64)


def staying(cover: DpCover, listed: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """``(B, L)`` mask over ``cover.lcolors``: the kept colors of vertices left blank."""
    return listed & (phi < 0).repeat(cover.list_sizes(), axis=1)


def residual_degrees(cover: DpCover, stays: np.ndarray) -> np.ndarray:
    """Alive neighbours of every color after each round: ``(B, K)``.

    The cover degrees minus one ``bincount`` over the ``trial * K + color``
    keys of the dying colors' cover rows, so the work follows those rows,
    not the whole cover.  For a staying color this is its residual degree:
    its neighbours that were kept and whose vertex stayed blank.
    """
    g = cover.cover
    width = g.vertex_count
    dying, offsets = _kernels.masked_keys(cover.lcolors, ~stays, width)
    hits = _kernels.gather_rows(g.indptr, g.indices, dying, offsets)
    return g.degrees() - np.bincount(hits, minlength=stays.shape[0] * width).reshape(-1, width)


class RoundOutcome:
    """Result of one round on a residual view.

    Vertices are ranks in ``vertices``, the view's when the round was drawn,
    and colors root ids.  ``activated_mask``, ``col``, ``kept_mask`` and
    ``phi`` are row 0 of the kernel's arrays and ``hits`` the cover rows of
    the picks; the rest is read from the colors the round takes off the
    lists (``dying``) and from the view, so it belongs before
    :attr:`residual`, which advances it.
    """

    def __init__(self, view: ResidualView, seed: int, activated: np.ndarray, col: np.ndarray,
                 kept: np.ndarray, phi: np.ndarray, hits: np.ndarray):
        self.view, self.vertices, self.seed, self.hits = view, view.vertices, seed, hits
        self.activated_mask, self.col, self.kept_mask, self.phi = (
            activated[0], col[0], kept[0], phi[0])

    @cached_property
    def _killed(self) -> np.ndarray:
        """The alive colors with a picked neighbour, each once, increasing."""
        h = np.sort(self.hits[self.view.alive[self.hits]])
        first = np.ones(h.size, dtype=bool)
        np.not_equal(h[1:], h[:-1], out=first[1:])
        return h[first]

    @cached_property
    def dying(self) -> np.ndarray:
        """The killed colors, then the other alive colors of the vertices colored."""
        v = self.view
        listed = v.list_rows(self.vertices[self.phi >= 0])
        return np.concatenate([self._killed, listed[v.alive[listed] & self.kept_mask[listed]]])

    def kept_sizes(self) -> np.ndarray:
        v = self.view
        lost = np.bincount(v.root.owner[self._killed], minlength=v.sizes.size)
        return v.list_sizes() - lost[self.vertices]

    @cached_property
    def next_deg(self) -> np.ndarray:
        """Alive neighbours after this round of every color alive before it."""
        deg = self.view.deg.copy()
        np.subtract.at(deg, self.view.cover_rows(self.dying), 1)
        return deg

    @cached_property
    def residual(self) -> ResidualView:
        """The view, advanced in place past this round: only the entries of
        the dying colors, of their owners and along their cover rows change."""
        v = self.view
        if v.vertices is not self.vertices:
            raise ValueError("a round was already applied to this residual view")
        colored = self.phi >= 0
        v.alive[self.dying] = False
        v.blank[self.vertices[colored]] = False
        np.subtract.at(v.sizes, v.root.owner[self.dying], 1)
        # dead colors' degrees may fall below 0: nothing reads them
        np.subtract.at(v.deg, v.cover_rows(self.dying), 1)
        v.deg[self.dying] = 0
        v._move_to(self.vertices[~colored])
        return v


def run_block(view: ResidualView, params: RoundParams, seed: int,
              block: int) -> tuple[np.ndarray, ...]:
    """Kernel arrays of ``block`` rounds at seeds ``seed .. seed+block-1`` on
    ``view``: ``(activated, col, kept, phi, hits)``, see
    :func:`_kernels.round_kernel`."""
    if np.any(view.list_sizes() < 1):
        raise ValueError("every vertex needs a nonempty list")
    return _kernels.round_kernel(view, params.eta, seed, block)


def run_round(cover: DpCover | ResidualView, params: RoundParams,
              seed: int) -> RoundOutcome:
    """Execute one round; a pure function of (cover, params, seed)."""
    view = cover if isinstance(cover, ResidualView) else ResidualView(cover)
    return RoundOutcome(view, seed, *run_block(view, params, seed, 1))


def round_is_good(outcome: RoundOutcome, ell_target: float, d_target: float) -> bool:
    """No kept list at or below ``ell_target``; no residual color at or above ``d_target``."""
    bad_v, bad_c = count_violations(outcome, ell_target, d_target)
    return bad_v == 0 and bad_c == 0


def count_violations(outcome: RoundOutcome, ell_target: float, d_target: float) -> tuple[int, int]:
    """(#vertices with kept size <= ell_target, #residual colors with degree >= d_target)."""
    bad_v = int(np.count_nonzero(outcome.kept_sizes() <= ell_target))
    # degrees only fall: if none reaches d_target yet, none will
    if outcome.view.max_degree() < d_target:
        return bad_v, 0
    survivors = outcome.view.alive.copy()
    survivors[outcome.dying] = False
    return bad_v, int(np.count_nonzero(outcome.next_deg[survivors] >= d_target))


def run_round_until_good(cover: DpCover | ResidualView, params: RoundParams,
                         ell_target: float, d_target: float,
                         max_retries: int, seed: int) -> RoundOutcome:
    """First good round among seeds ``seed, seed+1, ...``.

    Raises :class:`RetriesExhaustedError` carrying the per-seed violation
    counts.
    """
    if max_retries < 1:
        raise ValueError("max_retries must be >= 1")
    violations: dict[int, tuple[int, int]] = {}
    view = cover if isinstance(cover, ResidualView) else ResidualView(cover)
    for k in range(max_retries):
        outcome = run_round(view, params, seed + k)
        bad_v, bad_c = count_violations(outcome, ell_target, d_target)
        if bad_v == 0 and bad_c == 0:
            return outcome
        violations[seed + k] = (bad_v, bad_c)
    raise RetriesExhaustedError(
        f"no good round in {max_retries} tries from seed {seed} "
        f"(targets: ell<={ell_target:.4g}, d>={d_target:.4g}); "
        f"best attempt violated {min(map(sum, violations.values()))} events",
        violations=violations)
