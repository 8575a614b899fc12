"""Hot numeric kernels: a block of nibble rounds and CSR row gathers.

Per-vertex draws come from the counter hash in ``_rng``, so a round's outcome
depends only on ``(seed, vertex)``, never on evaluation order, and rounds at
different seeds are independent.  :func:`round_kernel`, the one round kernel,
therefore runs a block of ``B`` rounds at seeds ``seed .. seed+B-1``
(mod 2**64) on a residual view (``nibble.ResidualView``) with one array pass
per step: per-vertex arrays are ``(B, n)``, the kept mask is ``(B, K)``, and
an entry of the flattened mask is keyed ``trial * K + color``.  Only the
activated ``(trial, vertex)`` entries pick a color (:func:`alive_picks`,
which also makes the finisher's picks), and the view's row gathers read the
cover rows of those picks.

``nibble.run_round`` runs one round (``B = 1``) on the view ``color``
advances; ``analysis.round_stats`` runs its trials on the whole cover in
blocks whose ``B`` is chosen by ``analysis.block_size``.
"""

from __future__ import annotations

import numpy as np

from ._rng import vertex_uniforms


def gather_rows(ptr, idx, rows, offsets=None):
    """The CSR rows ``idx[ptr[r]:ptr[r + 1]]`` of ``rows``, concatenated.

    With ``offsets`` (one per row), each entry is shifted by its row's offset.
    """
    starts = ptr[rows]
    lens = ptr[rows + 1] - starts
    shift = (starts - lens.cumsum() + lens).repeat(lens)
    out = idx[shift + np.arange(shift.size)]
    if offsets is not None:
        out += offsets.repeat(lens)
    return out


def row_gather(ptr, idx):
    """``(rows, offsets=None) -> gather_rows(ptr, idx, rows, offsets)``; rows of
    one width, as those of a regular cover or of equal lists, are copied whole
    from a 2-D view."""
    width = int(ptr[1]) if ptr.size > 1 else 0
    if not (width and np.all(np.diff(ptr) == width)):
        return lambda rows, offsets=None: gather_rows(ptr, idx, rows, offsets)
    table = idx.reshape(-1, width)

    def gather(rows, offsets=None):
        out = np.take(table, rows, axis=0)
        if offsets is not None:
            out += offsets[:, None]
        return out.ravel()
    return gather


def mask_entries(mask):
    """``(trial, column)`` of the true entries of a ``(B, m)`` mask, in row order,
    ``trial`` None when ``B = 1``; a 2-D ``nonzero`` costs several times this."""
    keys = mask.reshape(-1).nonzero()[0]
    if mask.shape[0] == 1:
        return None, keys
    trial = keys // mask.shape[1]
    return trial, keys - trial * mask.shape[1]


def alive_picks(view, u, ranks=slice(None)):
    """The colors the uniforms ``u`` pick from the alive colors of the residual
    vertices at ``ranks`` (all by default) of ``view``, >= 1 each; a list is
    read as its root list through ``view.alive``, and lists that lost no
    color are read at their picks only."""
    vertices, sizes = view.vertices[ranks], view.list_sizes()[ranks]
    lptr, lcolors = view.root.lptr, view.root.lcolors
    # the entry each uniform picks from a list of ``sizes`` colors
    starts, pos = lptr[vertices], np.minimum((u * sizes).astype(np.int64), sizes - 1)
    if np.array_equal(lptr[vertices + 1] - starts, sizes):
        return lcolors[starts + pos]
    listed = view.list_rows(vertices)
    return listed[view.alive[listed]][sizes.cumsum() - sizes + pos]


def round_kernel(view, eta, seed, block=1):
    """``block`` nibble rounds at seeds ``seed, seed+1, ...`` on the residual
    ``view``, whose lists are nonempty; returns (kept, phi, hits).

    ``phi`` is ``(block, n)`` over the view's vertices, a vertex's color or
    -1; ``kept`` is ``(block, K)`` over the root colors.  Only the activated
    vertices pick (:func:`alive_picks`); ``hits`` holds the cover rows of
    their picks, keyed ``trial * K + color`` when ``block > 1``.
    """
    u_act, u_col = vertex_uniforms(seed, view.vertices.size, block)
    activated = u_act < eta
    trial, ranks = mask_entries(activated)
    pick = alive_picks(view, u_col[activated], ranks)
    width = view.root.num_colors
    offsets = None if trial is None else trial * width
    hits = view.cover_rows(pick, offsets)
    kept = np.ones((block, width), dtype=bool)
    flat = kept.reshape(-1)
    flat[hits] = False
    phi = np.full(activated.shape, -1, dtype=np.int64)
    phi[activated] = np.where(flat[pick if offsets is None else pick + offsets], pick, -1)
    return kept, phi, hits


# perfbench/traced.py times the rounds of `color` and `stats` through this name
round_dispatch = round_kernel
