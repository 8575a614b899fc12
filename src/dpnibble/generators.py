"""Reproducible instance generators.

Everything here is a deterministic function of its full parameter set
including the seed.  Regular graphs come from the pairing (configuration)
model with rejection of loops and parallel edges; girth-5 regular graphs are
obtained by rejection, then local edge-swap repair of 3- and 4-cycles, and,
at densities where local search cannot work (roughly ``n`` close to ``d^2``,
where only near-extremal structures exist), from the incidence graph of a
projective plane with a seeded random relabeling; regularization's auxiliary
graphs are explicit.  Every girth-5 graph is certified before it is returned,
by ``girth(g, 5)``, whose BFS stops after its triangle and 4-cycle levels.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import combinations

import numpy as np

from ._rng import derive_seed, normalize_seed
from .cover import DpCover
from .errors import GenerationError
from .graph import Graph, contains_kst, find_short_cycle, girth


_PAIRING_TRIES = 200  # pairing-model runs before random_regular gives up
_REJECTION_TRIES = 40  # least number of plain samples in random_girth5_regular
_REPAIR_TRIES = 8  # its samples with swap repair


def _rng(seed: int, tag: int = 0) -> np.random.Generator:
    return np.random.default_rng(derive_seed(normalize_seed(seed), tag))


# ---------------------------------------------------------------------------
# regular graphs
# ---------------------------------------------------------------------------


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Random simple ``d``-regular graph on ``n`` vertices (pairing model)."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    if (n * d) % 2 != 0:
        raise ValueError("n*d must be even")
    if d >= n:
        raise ValueError("need d < n")
    if d == 0:
        return Graph.empty(n)
    rng = _rng(seed)
    for _ in range(_PAIRING_TRIES):
        edges = _pairing_attempt(n, d, rng)
        if edges is not None:
            return Graph.from_edges(n, edges)
    raise GenerationError(
        f"pairing model failed for (n={n}, d={d}) after {_PAIRING_TRIES} tries")


def _pairing_attempt(n: int, d: int, rng: np.random.Generator):
    """One run of the stub-matching heuristic; None when it wedges."""
    edges: set[tuple[int, int]] = set()
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    while stubs.size:
        rng.shuffle(stubs)
        leftovers: dict[int, int] = defaultdict(int)
        for k in range(0, stubs.size - 1, 2):
            s1, s2 = int(stubs[k]), int(stubs[k + 1])
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                leftovers[s1] += 1
                leftovers[s2] += 1
        if leftovers and not _has_suitable_pair(edges, leftovers):
            return None
        stubs = np.array([v for v, cnt in leftovers.items() for _ in range(cnt)],
                         dtype=np.int64)
    return edges


def _has_suitable_pair(edges, leftovers) -> bool:
    """Can two distinct leftover stubs still be joined by a new edge?"""
    return any((min(a, b), max(a, b)) not in edges for a, b in combinations(leftovers, 2))


# ---------------------------------------------------------------------------
# girth >= 5 regular graphs
# ---------------------------------------------------------------------------


def _ball3_size(d: int) -> int:
    return 1 + d + d * (d - 1) + d * (d - 1) ** 2


def _expected_short_cycles(d: int) -> float:
    return (d - 1) ** 3 / 6 + (d - 1) ** 4 / 8


def _swap_repair(g: Graph, rng: np.random.Generator, max_swaps: int) -> Graph | None:
    """Break 3/4-cycles with degree-preserving double edge swaps."""
    adj = [set(g.neighbors(v).tolist()) for v in range(g.vertex_count)]
    edges = [tuple(e) for e in g.edge_array().tolist()]
    edge_pos = {e: i for i, e in enumerate(edges)}

    def remove_edge(a, b):
        key = (a, b) if a < b else (b, a)
        i = edge_pos.pop(key)
        last = edges[-1]
        edges[i] = last
        if last != key:
            edge_pos[last] = i
        edges.pop()
        adj[a].discard(b)
        adj[b].discard(a)

    def add_edge(a, b):
        key = (a, b) if a < b else (b, a)
        edge_pos[key] = len(edges)
        edges.append(key)
        adj[a].add(b)
        adj[b].add(a)

    for _ in range(max_swaps):
        cyc = find_short_cycle(adj)
        if cyc is None:
            return Graph.from_edges(g.vertex_count, edges)
        a, b = cyc[int(rng.integers(len(cyc)))]
        for _ in range(64):
            x, y = edges[int(rng.integers(len(edges)))]
            if rng.integers(2):
                x, y = y, x
            if len({a, b, x, y}) < 4:
                continue
            if x in adj[a] or y in adj[b]:
                continue
            remove_edge(a, b)
            remove_edge(x if x < y else y, y if x < y else x)
            add_edge(a, x)
            add_edge(b, y)
            break
    return None


def random_girth5_regular(n: int, d: int, seed: int) -> Graph:
    """``d``-regular graph on ``n`` vertices with girth at least 5.

    Strategy: plain rejection while the expected short-cycle count is small;
    then rejection plus swap repair while a repair step is expected to make
    progress (radius-3 balls clearly smaller than the graph); then, near the
    extremal density where neither can work, the projective-plane incidence
    graph when ``(n, d)`` matches one, relabeled by the seed.  The result is
    always verified before being returned.
    """
    if d <= 2:
        # 0/1/2-regular graphs: cycles of length >= 5 cover all valid cases
        if d < 2:
            g = random_regular(n, d, seed)
        else:
            g = _union_of_long_cycles(n, seed)
        _check_girth5(g)
        return g
    if n <= d * d:
        raise ValueError(f"need n > d^2 for girth 5 headroom (n={n}, d={d})")

    lam = _expected_short_cycles(d)
    if lam <= 14:
        # success rate per sample is roughly exp(-lam); scale tries to match
        tries = min(3000, max(_REJECTION_TRIES, int(12 * math.exp(lam))))
        for k in range(tries):
            g = random_regular(n, d, seed + k)
            if girth(g, 5) >= 5:
                return g

    if _ball3_size(d) <= 0.7 * n:
        budget = int(40 * (lam + 10))
        for k in range(_REPAIR_TRIES):
            g = random_regular(n, d, seed + 1000 + k)
            repaired = _swap_repair(g, _rng(seed, 7000 + k), budget)
            if repaired is not None and girth(repaired, 5) >= 5:
                _check_degrees(repaired, d)
                return repaired

    q = d - 1
    if _is_prime(q) and n == 2 * (q * q + q + 1):
        g = incidence_graph(q, seed)
        _check_girth5(g)
        return g

    feasible = 2 * ((d - 1) ** 2 + (d - 1) + 1) if _is_prime(d - 1) else None
    hint = f"; nearest incidence-graph order for d={d} is n={feasible}" if feasible else ""
    raise GenerationError(
        f"cannot reach girth 5 at (n={n}, d={d}): too dense for local repair"
        f" and no algebraic construction at this exact order{hint}")


def _union_of_long_cycles(n: int, seed: int) -> Graph:
    if n < 5:
        raise ValueError("2-regular girth-5 graphs need n >= 5")
    perm = _rng(seed, 3).permutation(n)
    edges = [(int(perm[i]), int(perm[(i + 1) % n])) for i in range(n)]
    return Graph.from_edges(n, edges)


def _check_degrees(g: Graph, d: int):
    degs = g.degrees()
    if degs.size and (degs.min() != d or degs.max() != d):
        raise GenerationError("repair broke regularity")


def _check_girth5(g: Graph):
    if girth(g, 5) < 5:
        raise GenerationError("construction produced a short cycle")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for f in range(2, int(math.isqrt(p)) + 1):
        if p % f == 0:
            return False
    return True


def incidence_graph(q: int, seed: int) -> Graph:
    """Point-line incidence graph of the projective plane of prime order ``q``.

    A (q+1)-regular bipartite graph on ``2(q^2+q+1)`` vertices with girth 6,
    relabeled by a seeded random permutation.  This is the instance family
    for girth-5 regular graphs at densities local search cannot reach.
    """
    if not _is_prime(q):
        raise ValueError(f"prime order required, got {q}")
    pts = [(1, x, y) for x in range(q) for y in range(q)]
    pts += [(0, 1, x) for x in range(q)]
    pts.append((0, 0, 1))
    arr = np.array(pts, dtype=np.int64)
    inc = (arr @ arr.T) % q == 0
    npts = arr.shape[0]
    rows, cols = np.nonzero(inc)
    n = 2 * npts
    perm = _rng(seed, 11).permutation(n).astype(np.int64)
    edges = np.stack([perm[rows], perm[cols + npts]], axis=1)
    return Graph.from_edges(n, edges)


def girth5_auxiliary(regular_degree: int, seed: int) -> Graph:
    """Auxiliary N-regular graph of girth >= 5 used by cover regularization.

    The empty graph, the edge and the pentagon for N = 0, 1 and 2; for N >= 3
    the biaffine plane of Lazebnik, Ustimenko and Woldar, relabeled by the
    seed: points (x, y) and lines [a, b] with x, a < N and y, b in F_q, q the
    least prime >= N, and (x, y) ~ [a, b] iff y + b = x*a (mod q).  It is
    N-regular on 2Nq vertices, and two points share at most one line, so its
    girth is at least 6."""
    n_reg = regular_degree
    if n_reg == 0:
        return Graph.empty(1)
    if n_reg == 1:
        return Graph.from_edges(2, [(0, 1)])
    if n_reg == 2:
        return Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    q = n_reg
    while not _is_prime(q):
        q += 1
    x, y, a = np.ogrid[:n_reg, :q, :n_reg]
    point = x * q + y
    line = n_reg * q + a * q + (x * a - y) % q
    perm = _rng(seed, 11).permutation(2 * n_reg * q).astype(np.int64)
    edges = np.stack(np.broadcast_arrays(perm[point], perm[line]), axis=-1)
    g = Graph.from_edges(2 * n_reg * q, edges.reshape(-1, 2))
    _check_girth5(g)
    return g


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------


def random_dp_cover(g: Graph, ell: int, rho: float, seed: int) -> DpCover:
    """Cover with lists of size ``ell`` and tunable matching density.

    Each base edge gets a uniformly random bijection between the two lists,
    thinned independently at rate ``rho``; ``rho=1`` gives perfect matchings,
    so the cover degree of every color equals its vertex's base degree.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must be in [0, 1]")
    n = g.vertex_count
    rng = _rng(seed, 23)
    e = g.edge_array()
    # per base edge, in edge order: its bijection, then its thinning draws
    perm = np.empty((len(e), ell), dtype=np.int64)
    keep = np.empty((len(e), ell))
    for i in range(len(e)):
        perm[i] = rng.permutation(ell)
        keep[i] = rng.random(ell)
    mask = keep < rho
    src = e[:, :1] * ell + np.arange(ell)
    dst = e[:, 1:] * ell + perm
    cover_graph = Graph.from_edges(n * ell, np.stack([src[mask], dst[mask]], axis=1))
    return DpCover(g, cover_graph, np.full(n, ell), np.arange(n * ell))


def kst_free_bipartite(m: int, n: int, s: int, t: int, seed: int) -> Graph:
    """Bipartite graph with no K_{s,t} whose s-side lies in the m-part.

    Greedy seeded construction: candidate edges in random order, each added
    only if no forbidden complete bipartite subgraph appears; verified
    exactly before returning.  Vertices ``0..m-1`` form X, ``m..m+n-1`` form
    Y.
    """
    if m < n:
        raise ValueError("orient the larger side first: need m >= n")
    if min(n, s, t) < 1:
        raise ValueError("n, s, t must be >= 1")
    # drawn before the sets, and from an int64 count (np.arange(2**63) is
    # empty), so a size numpy cannot allocate fails at once
    order = _rng(seed, 31).permutation(np.int64(m * n))
    adj_x: list[set[int]] = [set() for _ in range(m)]
    adj_y: list[set[int]] = [set() for _ in range(n)]
    for key in order:
        x, y = int(key) // n, int(key) % n
        if _would_create_kst(adj_x, adj_y, x, y, s, t):
            continue
        adj_x[x].add(y)
        adj_y[y].add(x)
    edges = [(x, m + y) for x in range(m) for y in sorted(adj_x[x])]
    g = Graph.from_edges(m + n, edges)
    if contains_kst(g, s, t, left=range(m), right=range(m, m + n)):
        raise GenerationError(f"greedy construction contains a K_({s},{t})")
    return g


def _would_create_kst(adj_x, adj_y, x, y, s, t) -> bool:
    """Exact check: does adding edge (x, y) complete some K_{s,t}?"""
    new_nx = adj_x[x] | {y}
    if s == 1:
        return len(new_nx) >= t
    others = [u for u in adj_y[y] if u != x]
    if len(others) < s - 1:
        return False
    for group in combinations(sorted(others), s - 1):
        inter = set(new_nx)
        for u in group:
            inter &= adj_x[u]
            if len(inter) < t:
                break
        if len(inter) >= t:
            return True
    return False
