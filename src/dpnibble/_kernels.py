"""Hot numeric kernels: a block of nibble rounds and CSR row gathers.

Per-vertex draws come from the counter hash in ``_rng``, so a round's outcome
depends only on ``(seed, vertex)``, never on evaluation order, and rounds at
different seeds are independent.  The kernel therefore runs a block of ``B``
rounds at seeds ``seed .. seed+B-1`` (mod 2**64) with one array pass per
step: per-vertex arrays are ``(B, n)``, the kept mask is ``(B, K)``, and an
entry of the flattened mask is keyed ``trial * K + color``.

``analysis.round_stats`` runs its trials in blocks of
``B = max(1, min(trials, _BLOCK_ENTRIES // max(cover-row entries, colors)))``
with ``_BLOCK_ENTRIES = 2**16``: the 408-color criterion-3 cover (6,528
entries) gets ``B = 10``, a 4,800-color, 16-regular cover ``B = 1``.
``nibble.run_round`` runs :func:`alive_round`, which picks colors for the
activated vertices only; :func:`alive_picks` also makes the finisher's picks.

Array layout shared by the kernels:

* lists CSR: ``lptr`` (n+1), ``lcolors`` (total colors, grouped by vertex)
* cover CSR over color ids: ``cptr`` (K+1), ``cidx``
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
    """``rows -> gather_rows(ptr, idx, rows)``; rows of one width, as those of
    a regular cover or of equal lists, are copied whole from a 2-D view."""
    width = int(ptr[1]) if ptr.size > 1 else 0
    if width and np.all(np.diff(ptr) == width):
        table = idx.reshape(-1, width)
        return lambda rows: table[rows].ravel()
    return lambda rows: gather_rows(ptr, idx, rows)


def masked_keys(values, mask, width):
    """``values[mask]`` for a ``(B, m)`` mask and the key offset ``trial * width``
    of each entry; the offsets are ``None`` when ``B = 1``.

    ``values`` is ``(B, m)``, or ``(m,)`` shared by every row.
    """
    block = mask.shape[0]
    if block == 1:
        return (values if values.ndim == 1 else values[0])[mask[0]], None
    picked = np.broadcast_to(values, mask.shape)[mask]
    offsets = np.arange(0, block * width, width).repeat(np.count_nonzero(mask, axis=1))
    return picked, offsets


def list_positions(u, sizes):
    """The entry of a list of ``sizes`` colors that the uniform ``u`` picks."""
    return np.minimum((u * sizes).astype(np.int64), sizes - 1)


def round_kernel(seed, block, eta, lptr, sizes, lcolors, cptr, cidx):
    """``block`` nibble rounds at seeds ``seed, seed+1, ...`` on lists of
    ``sizes`` >= 1; returns (activated, col, kept, phi).

    ``activated``, ``col`` and ``phi`` are ``(block, n)``; ``kept`` is
    ``(block, K)``.  The lists may hold a subset of the colors; ``kept``
    covers them all.
    """
    u_act, u_col = vertex_uniforms(seed, sizes.size, block)
    activated = u_act < eta
    pick = lcolors[lptr[:-1] + list_positions(u_col, sizes)]
    col = np.where(activated, pick, -1)
    width = cptr.size - 1
    kept = np.ones((block, width), dtype=bool)
    flat = kept.reshape(-1)
    rows, offsets = masked_keys(pick, activated, width)
    flat[gather_rows(cptr, cidx, rows, offsets)] = False
    if block > 1:
        pick = pick + np.arange(0, block * width, width)[:, None]
    phi = np.where(activated & flat[pick], col, -1)
    return activated, col, kept, phi


def alive_picks(u, vertices, sizes, alive, lptr, lcolors, list_rows):
    """The colors the uniforms ``u`` pick from the ``alive`` colors of the
    root lists (CSR ``lptr``, ``lcolors``, rows gathered by ``list_rows``) of
    ``vertices``, ``sizes`` >= 1 each; lists that lost no color are read at
    their picks only."""
    starts, pos = lptr[vertices], list_positions(u, sizes)
    if np.array_equal(lptr[vertices + 1] - starts, sizes):
        return lcolors[starts + pos]
    listed = list_rows(vertices)
    return listed[alive[listed]][sizes.cumsum() - sizes + pos]


def alive_round(seed, eta, vertices, sizes, alive, lptr, lcolors, list_rows, cover_rows):
    """One round at ``seed`` on ``vertices`` (see :func:`alive_picks`); returns
    the activation mask, the activated vertices' picks and their cover rows."""
    u_act, u_col = vertex_uniforms(seed, sizes.size)
    activated = u_act[0] < eta
    act = np.flatnonzero(activated)
    pick = alive_picks(u_col[0, act], vertices[act], sizes[act], alive, lptr, lcolors, list_rows)
    return activated, pick, cover_rows(pick)


# perfbench/traced.py times the round kernel of `color` through this name
round_dispatch = alive_round
