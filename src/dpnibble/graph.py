"""Simple undirected graphs and the structural queries the engine needs.

Vertices are dense integers ``0..n-1``.  Adjacency is stored in CSR form
(``indptr``/``indices``) with each row sorted, which keeps runs reproducible
and feeds the array kernels directly.  Graphs are immutable after
construction; every query here is pure.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ._kernels import gather_rows
from .errors import BudgetExceededError

INFINITE = math.inf

# work estimate above which brute-force complete-bipartite detection refuses
DEFAULT_KST_BUDGET = 2 * 10**8
# edges Graph.from_pairs turns into keys at a time
_KEY_BLOCK = 1 << 16


class Graph:
    """Immutable simple undirected graph on vertices ``0..vertex_count-1``."""

    __slots__ = ("vertex_count", "indptr", "indices")

    def __init__(self, vertex_count: int, indptr: np.ndarray, indices: np.ndarray):
        self.vertex_count = int(vertex_count)
        self.indptr = indptr
        self.indices = indices
        indptr.flags.writeable = False
        indices.flags.writeable = False

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build from an edge list or (m, 2) array; rejects loops, duplicates,
        and out-of-range ids.  ``edges`` is copied, never written."""
        e = np.array(edges if isinstance(edges, np.ndarray) else list(edges),
                     dtype=np.int64, order="C")
        return cls.from_pairs(n, e.reshape(-1, 2))

    @classmethod
    def from_pairs(cls, n: int, e: np.ndarray) -> "Graph":
        """:meth:`from_edges` of the C-contiguous (m, 2) int64 array ``e``,
        which is built into the indices in place."""
        if e.size:
            if e.min() < 0 or e.max() >= n:
                raise ValueError(f"edge endpoint out of range [0, {n})")
            if np.any(e[:, 0] == e[:, 1]):
                bad = e[e[:, 0] == e[:, 1]][0]
                raise ValueError(f"self-loop at vertex {bad[0]}")
        # the pair (u, v) becomes the directed keys (u * n + v, v * n + u) in
        # place, a block of rows at a time
        for lo in range(0, e.shape[0], _KEY_BLOCK):
            pair = e[lo:lo + _KEY_BLOCK]
            uv = pair[:, 0] * n
            uv += pair[:, 1]
            pair[:, 1] *= n
            pair[:, 1] += pair[:, 0]
            pair[:, 0] = uv
        # one sort of the directed keys orders every row and puts the copies
        # of a repeated edge side by side; the sorted keys become the indices
        keys = e.reshape(-1)
        keys.sort()
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicate edge in edge list")
        # row v starts at the first key >= v * n; an n beyond int64 overflows here
        indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
        np.remainder(keys, max(n, 1), out=keys)
        return cls(n, indptr, keys)

    # -- basic queries -----------------------------------------------------

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def num_edges(self) -> int:
        return int(self.indices.size // 2)

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v, lexicographically sorted."""
        src = np.repeat(np.arange(self.vertex_count, dtype=np.int64), self.degrees())
        mask = src < self.indices
        return np.stack([src[mask], self.indices[mask]], axis=1)

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return bool(i < row.size and row[i] == v)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertex_count == other.vertex_count
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self):
        return f"Graph(n={self.vertex_count}, m={self.num_edges})"


def max_degree(g: Graph) -> int:
    """Maximum vertex degree; 0 for the empty graph."""
    if g.vertex_count == 0:
        return 0
    return int(g.degrees().max(initial=0))


_GIRTH_BLOCK = 1 << 22   # array entries one block of BFS roots may hold
_GIRTH_DENSE_MAX = 4096  # most vertices for which girth builds the dense adjacency
# float32 multiply-adds of a dense product that cost about as much as one
# entry of a CSR gather (measured with numpy and its BLAS on 2 cores)
_FLOPS_PER_GATHERED = 800


def girth(g: Graph, below: float = INFINITE) -> float:
    """``min(girth, below)``: the shortest cycle's length, ``math.inf`` for
    forests by default.

    Level-synchronous BFS from blocks of roots (Itai & Rodeh, "Finding a
    minimum circuit in a graph", SIAM J. Comput. 1978).  With the frontier at
    distance k from a root, an edge inside the frontier closes a cycle of
    length at most 2k+1, and an unvisited vertex with two frontier
    neighbours closes one of length at most 2k+2.  No root detects less than
    the girth, and a root on a shortest cycle detects exactly its length, so
    the least detection over all roots is exact.  A block stops at its first
    detection or once 2k+1 reaches the best length found so far, which
    starts at ``below``.  So ``girth(g, 5) < 5`` tests for a triangle or a
    4-cycle with levels 0 and 1 alone.

    A level gathers the frontier's CSR rows, or, on graphs of at most
    ``_GIRTH_DENSE_MAX`` vertices once that gather would cost more, takes a
    float32 product with the dense adjacency; from then on the block stays
    dense.  Long cycles keep small frontiers and stay sparse; dense graphs
    switch within a few levels.
    """
    n = g.vertex_count
    if g.indices.size == 0:
        return float(below)
    deg = g.degrees()
    adjacency = None
    best = below
    rows = max(1, _GIRTH_BLOCK // max(n, g.indices.size))
    for lo in range(0, n, rows):
        r = min(rows, n - lo)
        # frontier entries are keys root * n + vertex, one per (root, vertex)
        front = np.arange(r, dtype=np.int64) * (n + 1) + lo
        seen = np.zeros(r * n, dtype=bool)
        seen[front] = True
        in_front = seen.copy()
        k = 0
        while 2 * k + 1 < best and front.size:
            vertex = front % n
            if (n <= _GIRTH_DENSE_MAX
                    and int(deg[vertex].sum()) * _FLOPS_PER_GATHERED > r * n * n):
                if adjacency is None:
                    adjacency = _dense_adjacency(g)
                best = _dense_levels(adjacency, front, seen.reshape(r, n), k, best)
                break
            reach = gather_rows(g.indptr, g.indices, vertex, front - vertex)
            if np.any(in_front[reach]):
                best = 2 * k + 1
                break
            reach = np.sort(reach[~seen[reach]])
            if np.any(reach[1:] == reach[:-1]):
                best = 2 * k + 2
                break
            in_front[front] = False
            in_front[reach] = True
            seen[reach] = True
            front = reach
            k += 1
    return float(best)


def _dense_adjacency(g: Graph) -> np.ndarray:
    """The 0/1 adjacency matrix in float32.

    Products of it hit BLAS; their counts are below 2^24 up to 4096
    vertices, so they stay exact.
    """
    n = g.vertex_count
    a = np.zeros((n, n), dtype=np.float32)
    a[np.repeat(np.arange(n, dtype=np.int64), g.degrees()), g.indices] = 1.0
    return a


def _dense_levels(adjacency, front, seen, k, best):
    """:func:`girth`'s levels k, k+1, ... of one block by dense products.

    ``front`` holds the level-k keys, ``seen`` is the block's ``(r, n)``
    visited mask; returns the block's detection, or ``best`` without one.
    """
    reached = np.zeros(seen.size, dtype=np.float32)
    reached[front] = 1.0
    frontier = reached.reshape(seen.shape)
    while 2 * k + 1 < best and frontier.any():
        cnt = frontier @ adjacency
        if np.any((cnt > 0) & (frontier > 0)):
            return 2 * k + 1
        if np.any((cnt > 1) & ~seen):
            return 2 * k + 2
        fresh = (cnt > 0) & ~seen
        seen |= fresh
        frontier = fresh.astype(np.float32)
        k += 1
    return best


def kst_edge_bound(m: int, n: int, s: int, t: int) -> float:
    """Edge-count upper bound for bipartite graphs with no K_{s,t}.

    Parts of sizes ``m >= n``; the forbidden complete bipartite subgraph has
    its ``s`` side in the part of size ``m``.
    """
    if m < n:
        raise ValueError(f"require m >= n, got m={m} < n={n}")
    if min(m, n, s, t) < 1:
        raise ValueError("m, n, s, t must all be >= 1")
    return s ** (1.0 / t) * m ** (1.0 - 1.0 / t) * n + t * m


def contains_kst(
    g: Graph,
    s: int,
    t: int,
    left: Sequence[int] | None = None,
    right: Sequence[int] | None = None,
    budget: int = DEFAULT_KST_BUDGET,
) -> bool:
    """Exact detection of a complete bipartite subgraph K_{s,t}.

    With ``left``/``right`` given (disjoint vertex sets), looks for ``s``
    vertices in ``left`` and ``t`` in ``right`` inducing a complete bipartite
    subgraph.  Without them, checks the whole graph over all disjoint
    placements.  Branches over s-subsets by common-neighborhood intersection:
    a subset is extended only by vertices still adjacent to at least ``t``
    members of the running intersection.  Work is metered; when it would
    exceed ``budget`` the search refuses with :class:`BudgetExceededError`
    rather than approximating.
    """
    if s < 1 or t < 1:
        raise ValueError("s and t must be >= 1")
    if (left is None) != (right is None):
        raise ValueError("left and right must be given together")

    if left is not None:
        left_list = sorted(set(int(v) for v in left))
        right_set = frozenset(int(v) for v in right)
        if right_set & set(left_list):
            raise ValueError("left and right must be disjoint")
        cand_set = set(left_list)
        restrict = right_set
    else:
        # whole-graph mode: an s-subset with >= t common neighbors is exactly
        # a K_{s,t} (a common neighbor is never inside the subset)
        cand_set = set(range(g.vertex_count))
        restrict = None
    return _search_subsets(g, cand_set, s, t, restrict, budget)


def _search_subsets(g: Graph, cand_set: set[int], s: int, t: int,
                    restrict, budget: int) -> bool:
    """DFS over s-subsets; the intersection of neighborhoods only shrinks."""
    work = 0

    def charge(units: int):
        nonlocal work
        work += units
        if work > budget:
            raise BudgetExceededError(
                f"K_(s,t) search spent over {budget} work units")

    def extensions(inter: frozenset, min_id: int) -> list[int]:
        """Vertices above ``min_id`` adjacent to >= t members of ``inter``."""
        counts: dict[int, int] = {}
        for y in inter:
            row = g.neighbors(y)
            charge(row.size)
            for x in row.tolist():
                if x > min_id and x in cand_set:
                    counts[x] = counts.get(x, 0) + 1
        return sorted(x for x, cnt in counts.items() if cnt >= t)

    def nbrs(v: int) -> frozenset:
        ns = frozenset(g.neighbors(v).tolist())
        return ns & restrict if restrict is not None else ns

    def rec(v: int, depth: int, inter: frozenset) -> bool:
        if depth == s:
            return True
        for x in extensions(inter, v):
            new = inter & nbrs(x)
            charge(len(inter))
            if len(new) >= t and rec(x, depth + 1, new):
                return True
        return False

    for v in sorted(cand_set):
        first = nbrs(v)
        charge(g.degree(v))
        if len(first) >= t and (s == 1 or rec(v, 1, first)):
            return True
    return False


def find_short_cycle(adj: list[set[int]]):
    """Edges of some triangle or 4-cycle, or None."""
    n = len(adj)
    for u in range(n):
        nb = sorted(adj[u])
        for i in range(len(nb)):
            for j in range(i + 1, len(nb)):
                a, b = nb[i], nb[j]
                if b in adj[a]:
                    return [(u, a), (a, b), (b, u)]
    # 4-cycles: two vertices with two common neighbors
    seen: dict[tuple[int, int], int] = {}
    for x in range(n):
        nb = sorted(adj[x])
        for i in range(len(nb)):
            for j in range(i + 1, len(nb)):
                key = (nb[i], nb[j])
                if key in seen:
                    w = seen[key]
                    return [(nb[i], w), (w, nb[j]), (nb[j], x), (x, nb[i])]
                seen[key] = x
    return None


# -- edge-list text format -------------------------------------------------
#
#   p <vertex_count>
#   e <u> <v>            (0-based, one line per edge)
#   # comment lines are ignored


def graph_to_text(g: Graph) -> str:
    lines = [f"p {g.vertex_count}"]
    for u, v in g.edge_array():
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    n = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *fields = line.split()
        if kind not in ("p", "e"):
            raise ValueError(f"line {lineno}: unknown record {kind!r}")
        if len(fields) != {"p": 1, "e": 2}[kind]:
            raise ValueError(f"line {lineno}: malformed record {line!r}")
        try:
            values = [int(f) for f in fields]
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric field in {line!r}") from None
        if kind == "p":
            if n is not None:
                raise ValueError(f"line {lineno}: repeated 'p' line")
            n = values[0]
            if n < 0:
                raise ValueError(f"line {lineno}: negative vertex count {n}")
        else:
            if n is None:
                raise ValueError(f"line {lineno}: 'e' before 'p'")
            u, v = values
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"line {lineno}: edge endpoint out of range [0, {n})")
            if u == v:
                raise ValueError(f"line {lineno}: self-loop at vertex {u}")
            edge = (min(u, v), max(u, v))
            if edge in edges:
                raise ValueError(f"line {lineno}: repeated edge {u} {v}")
            edges.add(edge)
    if n is None:
        raise ValueError("missing 'p' line")
    return Graph.from_edges(n, edges)
