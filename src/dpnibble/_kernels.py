"""Hot numeric kernels: numba-jitted with a pure-numpy fallback.

The fallback is selected by setting the environment variable
``DPNIBBLE_NUMBA=0`` before import (or automatically when numba is not
installed).  Both paths implement bit-identical arithmetic, enforced by the
kernel parity tests; ``benchmarks/bench_kernels.py`` compares their speed.

Array layout shared by all kernels:

* lists CSR: ``lptr`` (n+1), ``lcolors`` (total colors, grouped by vertex)
* ``owner``: color id -> owning vertex
* cover CSR over color ids: ``cptr`` (K+1), ``cidx``
"""

from __future__ import annotations

import math
import os
import warnings

import numpy as np

from ._rng import DRAW, GOLDEN, INV_2_53, MIX1, MIX2, STREAM

_FLAG = os.environ.get("DPNIBBLE_NUMBA", "1").strip().lower()
_WANT_NUMBA = _FLAG not in ("0", "false", "no", "off")

HAVE_NUMBA = False
if _WANT_NUMBA:
    try:
        from numba import njit

        HAVE_NUMBA = True
    except ImportError:  # pragma: no cover - exercised only without numba
        warnings.warn("numba not importable; falling back to pure numpy kernels")

USING_NUMBA = HAVE_NUMBA and _WANT_NUMBA

_U = np.uint64
_GOLDEN = _U(GOLDEN)
_STREAM = _U(STREAM)
_DRAW = _U(DRAW)
_MIX1 = _U(MIX1)
_MIX2 = _U(MIX2)
_S30 = _U(30)
_S27 = _U(27)
_S31 = _U(31)
_S11 = _U(11)


# ---------------------------------------------------------------------------
# pure-numpy reference implementations
# ---------------------------------------------------------------------------


_MASK64 = (1 << 64) - 1


def _uniforms_numpy(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    v = np.arange(n, dtype=np.uint64)
    # scalar parts are combined as Python ints: numpy warns on scalar overflow
    seed_term = (int(seed) * GOLDEN) & _MASK64
    base = _U(seed_term) + v * _STREAM
    out = []
    for draw in (0, 1):
        x = base + _U((draw * DRAW) & _MASK64)
        x = (x ^ (x >> _S30)) * _MIX1
        x = (x ^ (x >> _S27)) * _MIX2
        x = x ^ (x >> _S31)
        out.append((x >> _S11).astype(np.float64) * INV_2_53)
    return out[0], out[1]


def gather_rows(ptr, idx, rows):
    """The CSR rows ``idx[ptr[r]:ptr[r + 1]]`` of ``rows``, concatenated."""
    starts = ptr[rows]
    lens = ptr[rows + 1] - starts
    shift = np.repeat(starts - np.cumsum(lens) + lens, lens)
    return idx[shift + np.arange(shift.size)]


def round_numpy(seed, eta, lptr, lcolors, owner, cptr, cidx):
    """One nibble round; returns (activated, col, kept, phi).

    The lists may hold a subset of the colors; ``kept`` covers them all.
    """
    n = lptr.size - 1
    num_colors = owner.size
    if lcolors.size == 0:
        return (np.zeros(n, bool), np.full(n, -1, np.int64),
                np.ones(num_colors, bool), np.full(n, -1, np.int64))
    u_act, u_col = _uniforms_numpy(seed, n)
    sizes = np.diff(lptr)
    activated = (u_act < eta) & (sizes > 0)
    idx = np.minimum((u_col * sizes).astype(np.int64), np.maximum(sizes - 1, 0))
    pos = np.minimum(lptr[:-1] + idx, lcolors.size - 1)
    col = np.where(activated, lcolors[pos], -1)
    kept = np.ones(num_colors, dtype=bool)
    kept[gather_rows(cptr, cidx, col[activated])] = False
    phi = np.where(activated & kept[np.maximum(col, 0)] & (col >= 0), col, -1)
    return activated, col.astype(np.int64), kept, phi.astype(np.int64)


def residual_degrees_numpy(kept, phi, owner, cptr, cidx):
    """Residual degree of every color: kept neighbors owned by blank vertices."""
    in_res = kept & (phi[owner] < 0)
    hit = in_res[cidx].astype(np.int64) if cidx.size else np.zeros(0, np.int64)
    cs = np.concatenate([[0], np.cumsum(hit)])
    return cs[cptr[1:]] - cs[cptr[:-1]]


def round_stats_numpy(seed0, trials, eta, lptr, lcolors, owner, cptr, cidx,
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
        activated, col, kept, phi = round_numpy(
            seed0 + trial, eta, lptr, lcolors, owner, cptr, cidx)
        hit = kept[lcolors].astype(np.int64)
        cs = np.concatenate([[0], np.cumsum(hit)])
        kcnt = cs[lptr[1:]] - cs[lptr[:-1]]
        resdeg = residual_degrees_numpy(kept, phi, owner, cptr, cidx)
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


def girth_numpy(indptr, indices, n):
    from .graph import girth_python

    return girth_python(indptr, indices, n)


# ---------------------------------------------------------------------------
# numba kernels
# ---------------------------------------------------------------------------

if HAVE_NUMBA:

    @njit(cache=True, nogil=True, inline="always")
    def _u01(seed_u, v_u, draw_u):
        x = seed_u * _GOLDEN + v_u * _STREAM + draw_u * _DRAW
        x = (x ^ (x >> _S30)) * _MIX1
        x = (x ^ (x >> _S27)) * _MIX2
        x = x ^ (x >> _S31)
        return np.float64(x >> _S11) * INV_2_53

    @njit(cache=True, nogil=True)
    def _round_numba(seed, eta, lptr, lcolors, owner, cptr, cidx):
        n = lptr.size - 1
        num_colors = owner.size
        activated = np.zeros(n, np.bool_)
        col = np.full(n, -1, np.int64)
        kept = np.ones(num_colors, np.bool_)
        seed_u = _U(seed)
        for v in range(n):
            size = lptr[v + 1] - lptr[v]
            if size <= 0:
                continue
            v_u = _U(v)
            if _u01(seed_u, v_u, _U(0)) < eta:
                idx = np.int64(_u01(seed_u, v_u, _U(1)) * size)
                if idx >= size:
                    idx = size - 1
                c = lcolors[lptr[v] + idx]
                activated[v] = True
                col[v] = c
                for k in range(cptr[c], cptr[c + 1]):
                    kept[cidx[k]] = False
        phi = np.full(n, -1, np.int64)
        for v in range(n):
            if activated[v] and kept[col[v]]:
                phi[v] = col[v]
        return activated, col, kept, phi

    @njit(cache=True, nogil=True)
    def _residual_degrees_numba(kept, phi, owner, cptr, cidx):
        num_colors = owner.size
        in_res = np.zeros(num_colors, np.bool_)
        for c in range(num_colors):
            in_res[c] = kept[c] and phi[owner[c]] < 0
        out = np.zeros(num_colors, np.int64)
        for c in range(num_colors):
            acc = 0
            for k in range(cptr[c], cptr[c + 1]):
                if in_res[cidx[k]]:
                    acc += 1
            out[c] = acc
        return out

    @njit(cache=True, nogil=True)
    def _round_stats_numba(seed0, trials, eta, lptr, lcolors, owner, cptr, cidx,
                           keep_ell, ell_tail, res_thresh, anchor):
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
            activated, col, kept, phi = _round_numba(
                seed0 + _U(trial), eta, lptr, lcolors, owner, cptr, cidx)
            resdeg = _residual_degrees_numba(kept, phi, owner, cptr, cidx)
            for v in range(n):
                kcnt = 0
                for k in range(lptr[v], lptr[v + 1]):
                    if kept[lcolors[k]]:
                        kcnt += 1
                kept_sum[v] += kcnt
                kept_sumsq[v] += kcnt * kcnt
                if abs(kcnt - keep_ell) > ell_tail:
                    kept_tail[v] += 1
            for c in range(num_colors):
                rd = resdeg[c]
                res_sum[c] += rd
                res_sumsq[c] += rd * rd
                if rd > res_thresh:
                    res_tail[c] += 1
            if anchor >= 0:
                ucnt = 0
                umk = 0
                for k in range(cptr[anchor], cptr[anchor + 1]):
                    cp = cidx[k]
                    if phi[owner[cp]] < 0:
                        ucnt += 1
                        if not kept[cp]:
                            umk += 1
                anchor_u[trial] = ucnt
                anchor_umk[trial] = umk
                anchor_res[trial] = resdeg[anchor]
        return (kept_sum, kept_sumsq, res_sum, res_sumsq, kept_tail, res_tail,
                anchor_u, anchor_umk, anchor_res)

    @njit(cache=True, nogil=True)
    def _girth_numba(indptr, indices, n):
        best = np.int64(-1)
        dist = np.empty(n, np.int64)
        parent = np.empty(n, np.int64)
        queue = np.empty(n, np.int64)
        for root in range(n):
            for i in range(n):
                dist[i] = -1
            dist[root] = 0
            parent[root] = -1
            queue[0] = root
            head = 0
            tail = 1
            while head < tail:
                u = queue[head]
                head += 1
                du = dist[u]
                if best >= 0 and 2 * du >= best - 1:
                    continue
                for k in range(indptr[u], indptr[u + 1]):
                    w = indices[k]
                    if dist[w] < 0:
                        dist[w] = du + 1
                        parent[w] = u
                        queue[tail] = w
                        tail += 1
                    elif w != parent[u]:
                        c = du + dist[w] + 1
                        if best < 0 or c < best:
                            best = c
        return best

    def round_numba(seed, eta, lptr, lcolors, owner, cptr, cidx):
        return _round_numba(np.uint64(seed), float(eta), lptr, lcolors, owner,
                            cptr, cidx)

    def residual_degrees_numba(kept, phi, owner, cptr, cidx):
        return _residual_degrees_numba(kept, phi, owner, cptr, cidx)

    def round_stats_numba(seed0, trials, eta, lptr, lcolors, owner, cptr, cidx,
                          keep_ell, ell_tail, res_thresh, anchor):
        return _round_stats_numba(np.uint64(seed0), np.int64(trials), float(eta),
                                  lptr, lcolors, owner, cptr, cidx,
                                  float(keep_ell), float(ell_tail),
                                  float(res_thresh), np.int64(anchor))

    def girth_numba(indptr, indices, n):
        best = _girth_numba(indptr, indices, np.int64(n))
        return math.inf if best < 0 else float(best)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


if USING_NUMBA:
    round_dispatch = round_numba
    round_stats_dispatch = round_stats_numba
    girth_dispatch = girth_numba
else:
    round_dispatch = round_numpy
    round_stats_dispatch = round_stats_numpy
    girth_dispatch = girth_numpy
