"""Hot numeric kernels: the nibble round and its Monte-Carlo trial loop.

Per-vertex draws come from the counter hash in ``_rng``, so a round's outcome
depends only on ``(seed, vertex)``, never on evaluation order.

Array layout shared by all kernels:

* lists CSR: ``lptr`` (n+1), ``lcolors`` (total colors, grouped by vertex)
* ``owner``: color id -> owning vertex
* cover CSR over color ids: ``cptr`` (K+1), ``cidx``
"""

from __future__ import annotations

import numpy as np

from ._rng import vertex_uniforms


def gather_rows(ptr, idx, rows):
    """The CSR rows ``idx[ptr[r]:ptr[r + 1]]`` of ``rows``, concatenated."""
    starts = ptr[rows]
    lens = ptr[rows + 1] - starts
    shift = np.repeat(starts - np.cumsum(lens) + lens, lens)
    return idx[shift + np.arange(shift.size)]


def round_kernel(seed, eta, lptr, lcolors, owner, cptr, cidx):
    """One nibble round; returns (activated, col, kept, phi).

    The lists may hold a subset of the colors; ``kept`` covers them all.
    """
    n = lptr.size - 1
    num_colors = owner.size
    if lcolors.size == 0:
        return (np.zeros(n, bool), np.full(n, -1, np.int64),
                np.ones(num_colors, bool), np.full(n, -1, np.int64))
    u_act, u_col = vertex_uniforms(seed, n)
    sizes = np.diff(lptr)
    activated = (u_act < eta) & (sizes > 0)
    idx = np.minimum((u_col * sizes).astype(np.int64), np.maximum(sizes - 1, 0))
    pos = np.minimum(lptr[:-1] + idx, lcolors.size - 1)
    col = np.where(activated, lcolors[pos], -1)
    kept = np.ones(num_colors, dtype=bool)
    kept[gather_rows(cptr, cidx, col[activated])] = False
    phi = np.where(activated & kept[np.maximum(col, 0)] & (col >= 0), col, -1)
    return activated, col.astype(np.int64), kept, phi.astype(np.int64)


# perfbench/traced.py times the round kernel through this name
round_dispatch = round_kernel


def residual_degrees(kept, phi, owner, cptr, cidx):
    """Residual degree of every color: kept neighbors owned by blank vertices."""
    in_res = kept & (phi[owner] < 0)
    hit = in_res[cidx].astype(np.int64) if cidx.size else np.zeros(0, np.int64)
    cs = np.concatenate([[0], np.cumsum(hit)])
    return cs[cptr[1:]] - cs[cptr[:-1]]


def round_stats_kernel(seed0, trials, eta, lptr, lcolors, owner, cptr, cidx,
                       keep_ell, ell_tail, res_thresh, anchor):
    """Accumulate round statistics over ``trials`` seeded rounds."""
    n = lptr.size - 1
    num_colors = owner.size
    kept_sum = np.zeros(n, np.int64)
    kept_sumsq = np.zeros(n, np.int64)
    res_sum = np.zeros(num_colors, np.int64)
    res_sumsq = np.zeros(num_colors, np.int64)
    kept_tail = np.zeros(n, np.int64)
    res_tail = np.zeros(num_colors, np.int64)
    m = trials if anchor >= 0 else 0
    anchor_u = np.zeros(m, np.int64)
    anchor_umk = np.zeros(m, np.int64)
    anchor_res = np.zeros(m, np.int64)
    for trial in range(trials):
        activated, col, kept, phi = round_kernel(
            seed0 + trial, eta, lptr, lcolors, owner, cptr, cidx)
        hit = kept[lcolors].astype(np.int64)
        cs = np.concatenate([[0], np.cumsum(hit)])
        kcnt = cs[lptr[1:]] - cs[lptr[:-1]]
        resdeg = residual_degrees(kept, phi, owner, cptr, cidx)
        kept_sum += kcnt
        kept_sumsq += kcnt * kcnt
        res_sum += resdeg
        res_sumsq += resdeg * resdeg
        kept_tail += (np.abs(kcnt - keep_ell) > ell_tail).astype(np.int64)
        res_tail += (resdeg > res_thresh).astype(np.int64)
        if anchor >= 0:
            nbrs = cidx[cptr[anchor]:cptr[anchor + 1]]
            blank = phi[owner[nbrs]] < 0
            anchor_u[trial] = int(blank.sum())
            anchor_umk[trial] = int((blank & ~kept[nbrs]).sum())
            anchor_res[trial] = int(resdeg[anchor])
    return (kept_sum, kept_sumsq, res_sum, res_sumsq, kept_tail, res_tail,
            anchor_u, anchor_umk, anchor_res)
