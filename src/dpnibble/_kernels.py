"""Hot numeric kernels: the nibble round and CSR row gathers.

Per-vertex draws come from the counter hash in ``_rng``, so a round's outcome
depends only on ``(seed, vertex)``, never on evaluation order.  Monte-Carlo
statistics run the same round once per trial (``analysis.round_stats``).

Array layout shared by the kernels:

* lists CSR: ``lptr`` (n+1), ``lcolors`` (total colors, grouped by vertex)
* cover CSR over color ids: ``cptr`` (K+1), ``cidx``
"""

from __future__ import annotations

import numpy as np

from ._rng import vertex_uniforms


def gather_rows(ptr, idx, rows):
    """The CSR rows ``idx[ptr[r]:ptr[r + 1]]`` of ``rows``, concatenated."""
    starts = ptr[rows]
    lens = ptr[rows + 1] - starts
    shift = (starts - lens.cumsum() + lens).repeat(lens)
    return idx[shift + np.arange(shift.size)]


def round_kernel(seed, eta, lptr, sizes, lcolors, cptr, cidx):
    """One nibble round on lists of ``sizes`` >= 1; returns (activated, col, kept, phi).

    The lists may hold a subset of the colors; ``kept`` covers them all.
    """
    u_act, u_col = vertex_uniforms(seed, sizes.size)
    activated = u_act < eta
    pick = lcolors[lptr[:-1] + np.minimum((u_col * sizes).astype(np.int64), sizes - 1)]
    col = np.where(activated, pick, -1)
    kept = np.ones(cptr.size - 1, dtype=bool)
    kept[gather_rows(cptr, cidx, pick[activated])] = False
    phi = np.where(activated & kept[pick], pick, -1)
    return activated, col, kept, phi


# perfbench/traced.py times the round kernel through this name
round_dispatch = round_kernel
