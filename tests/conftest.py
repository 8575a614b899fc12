"""Shared instance builders and independent test oracles.

The oracles here are deliberately written from scratch (brute force, direct
definitions) so the library code is always checked against a second,
independent route.
"""

from __future__ import annotations

import io
from itertools import combinations

import numpy as np
import pytest

from dpnibble import DpCover, Graph
from dpnibble.cover import Violation
from dpnibble.generators import random_dp_cover, random_regular

@pytest.fixture
def acceptance_reporter(request):
    """Emit one PASS/FAIL line per criterion straight to the terminal.

    The terminal reporter writes outside pytest's capture, so the lines show
    up in plain ``pytest -v`` runs and in logs; a normal print keeps them in
    the captured output of failing tests too.
    """
    tr = request.config.pluginmanager.get_plugin("terminalreporter")

    def _report(num: int, ok: bool, detail: str):
        line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
        print(line)
        if tr is not None:
            tr.write_line("")
            tr.write_line(line)

    return _report


class RewrittenOnRewind(io.BytesIO):
    """A binary file whose bytes turn into ``second``, of the same length, when
    it is rewound a second time, as a file rewritten between two reads."""

    def __init__(self, first: bytes, second: bytes):
        super().__init__(first)
        self.second, self.rewinds = second, 0

    def seek(self, pos, whence=0):
        if (pos, whence) == (0, 0):
            self.rewinds += 1
            if self.rewinds == 2:
                with self.getbuffer() as buf:
                    buf[:] = self.second
        return super().seek(pos, whence)


PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
]


@pytest.fixture
def petersen() -> Graph:
    return Graph.from_edges(10, PETERSEN_EDGES)


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def regular_cover(n: int, d: int, ell: int, seed: int, rho: float = 1.0) -> DpCover:
    """Cover whose cover graph is exactly d-regular when rho=1."""
    return random_dp_cover(random_regular(n, d, seed), ell, rho, seed + 1)


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def girth_by_cycle_enumeration(g: Graph) -> float:
    """Shortest cycle by checking every vertex subset for a spanning cycle."""
    n = g.vertex_count
    best = float("inf")
    adj = [set(g.neighbors(v).tolist()) for v in range(n)]

    # DFS over simple paths from a least-id anchor; closing edge makes a cycle
    def dfs(anchor, current, visited, length):
        nonlocal best
        if length >= best:
            return
        for w in adj[current]:
            if w == anchor and length >= 2:
                best = min(best, length + 1)
            elif w > anchor and w not in visited:
                visited.add(w)
                dfs(anchor, w, visited, length + 1)
                visited.remove(w)

    for a in range(n):
        dfs(a, a, {a}, 0)
    return best


def contains_kst_oracle(g: Graph, s: int, t: int, left=None, right=None) -> bool:
    """Dumb double subset enumeration with full edge checks."""
    if left is None:
        left = range(g.vertex_count)
        right = range(g.vertex_count)
    left, right = list(left), list(right)
    for a_side in combinations(left, s):
        for b_side in combinations(right, t):
            if set(a_side) & set(b_side):
                continue
            if all(g.has_edge(u, v) for u in a_side for v in b_side):
                return True
    return False


def finish_by_rescan(c: DpCover, max_resamples: int, seed: int):
    """Resampling completion that rescans every cover edge after each redraw.

    The draws follow the library's stream: one uniform per vertex in vertex
    order, then for each resample one uniform per endpoint vertex of the
    first violated edge (lexicographic), lower vertex first.  Returns the
    colors, the resample count, the conflict count before each resample and
    whether the coloring is proper.
    """
    rng = np.random.default_rng(seed)
    lists = [c.lists(v).tolist() for v in range(c.base.vertex_count)]
    owner = {x: v for v, lst in enumerate(lists) for x in lst}
    edges = sorted({(min(x, y), max(x, y))
                    for x in range(c.num_colors)
                    for y in c.cover.neighbors(x).tolist()})

    def draw(v):
        lst = lists[v]
        return lst[min(int(rng.random() * len(lst)), len(lst) - 1)]

    chosen = [draw(v) for v in range(len(lists))]
    trajectory = []
    for resamples in range(max_resamples + 1):
        on = set(chosen)
        violated = [(x, y) for x, y in edges if x in on and y in on]
        trajectory.append(len(violated))
        if not violated or resamples == max_resamples:
            return chosen, resamples, trajectory, not violated
        x, y = violated[0]
        for w in sorted((owner[x], owner[y])):
            chosen[w] = draw(w)


def classify_oracle(cover: Graph, anchor: int, d: int, t: int):
    """Independent bad/sad recount by literal double loops."""
    thr = d ** (1 - 1.0 / (3 * t))
    nbrs = list(cover.neighbors(anchor))
    second = set()
    for w in nbrs:
        for x in cover.neighbors(int(w)):
            if int(x) != anchor:
                second.add(int(x))
    bad = set()
    for x in sorted(second):
        cnt = sum(1 for y in cover.neighbors(x) if int(y) in set(int(z) for z in nbrs))
        if cnt >= thr:
            bad.add(x)
    sad = set()
    for cp in nbrs:
        cnt = sum(1 for y in cover.neighbors(int(cp)) if int(y) in bad)
        if cnt >= thr:
            sad.add(int(cp))
    return bad, sad


def residual_cover(view) -> tuple[DpCover, np.ndarray]:
    """The residual of a ``ResidualView`` as a cover of its own.

    Blank vertices and alive colors are renumbered densely in increasing
    order of their root ids, edges kept when both ends are.  Also returns
    the root id of every new color.
    """
    root = view.root
    vertices = np.flatnonzero(view.color < 0).tolist()
    colors = np.flatnonzero(view.alive)
    vnew = {v: i for i, v in enumerate(vertices)}
    cnew = {x: i for i, x in enumerate(colors.tolist())}
    lists = [[cnew[x] for x in root.lists(v).tolist() if x in cnew] for v in vertices]
    base_edges = [(vnew[u], vnew[v]) for u, v in root.base.edge_array().tolist()
                  if u in vnew and v in vnew]
    cover_edges = [(cnew[x], cnew[y]) for x, y in root.cover.edge_array().tolist()
                   if x in cnew and y in cnew]
    return DpCover.from_lists(Graph.from_edges(len(vertices), base_edges),
                              Graph.from_edges(len(cnew), cover_edges), lists), colors


def validate_reference(c: DpCover, max_violations: int = 1000) -> list[Violation]:
    """``validate`` as it was before it read the cover in row blocks: one pass
    over the whole ``edge_array`` and one sort of every matching key."""
    out: list[Violation] = []

    def add(kind, *ids):
        if len(out) < max_violations:
            out.append(Violation(kind, tuple(int(i) for i in ids)))

    # partition: every color in exactly one list, owners consistent
    seen = np.bincount(c.lcolors, minlength=c.num_colors)
    for col in np.nonzero(seen == 0)[0]:
        add("color-in-no-list", col)
    for col in np.nonzero(seen > 1)[0]:
        add("color-in-multiple-lists", col)

    edges = c.cover.edge_array()
    if edges.size == 0:
        return out
    u = c.owner[edges[:, 0]]
    v = c.owner[edges[:, 1]]
    placed = (u >= 0) & (v >= 0)  # partition defects already reported

    same = placed & (u == v)
    for i in np.nonzero(same)[0]:
        add("list-not-independent", u[i], edges[i, 0], edges[i, 1])

    cross = placed & ~same
    n = c.base.vertex_count
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    base_edges = c.base.edge_array()  # lexicographic, so its keys are sorted
    base_keys = base_edges[:, 0] * n + base_edges[:, 1]
    pos = np.searchsorted(base_keys, lo * n + hi)
    backed = np.zeros(edges.shape[0], dtype=bool)
    inr = pos < base_keys.size
    backed[inr] = base_keys[pos[inr]] == (lo * n + hi)[inr]
    for i in np.nonzero(cross & ~backed)[0]:
        add("cover-edge-without-base-edge", u[i], v[i], edges[i, 0], edges[i, 1])

    # matching: each color has at most one partner inside any one list
    good = cross & backed
    keys = np.concatenate([edges[good, 0] * n + v[good],
                           edges[good, 1] * n + u[good]])
    keys.sort()
    dup = keys[1:] == keys[:-1]
    # each repeated key once, where its run of equal neighbours starts
    for key in keys[1:][dup & ~np.r_[False, dup[:-1]]]:
        add("not-a-matching", int(key) % n, int(key) // n)
    return out


def defective_cover(seed: int, n: int = 40, colors: int = 400, edges: int = 1500,
                    base_edges: int | None = None) -> DpCover:
    """A cover with defects of every kind: lists that miss or repeat colors
    (and need not be ranges of ids), cover edges inside a list, across a
    non-edge of the base, and colors matched twice into one list.

    With ``base_edges``, the base has that many random edges instead of
    density 0.15, and one edge inside a list and one color matched twice
    are planted, since random edges of a sparse cover rarely make them."""
    rng = np.random.default_rng(seed)
    if base_edges is None:
        base = random_graph(n, 0.15, seed)
    else:
        ends = rng.integers(0, n, (base_edges, 2))
        ends = ends[ends[:, 0] != ends[:, 1]]
        base = Graph.from_edges(n, np.unique(np.sort(ends, axis=1), axis=0))
    owner = rng.integers(0, n, colors)
    # a few colors in no list, a few in two
    lists = [[] for _ in range(n)]
    for x in range(colors):
        if rng.random() < 0.98:
            lists[owner[x]].append(x)
        if rng.random() < 0.02:
            lists[rng.integers(0, n)].append(x)
    # a matching along each base edge, then random extra edges
    pairs = set()
    for u, v in base.edge_array().tolist():
        for x, y in zip(rng.permutation(lists[u]), rng.permutation(lists[v])):
            if x != y:
                pairs.add((min(x, y), max(x, y)))
    for x, y in rng.integers(0, colors, (edges, 2)).tolist():
        if x != y:
            pairs.add((min(x, y), max(x, y)))
    if base_edges is not None:
        # colors in exactly one list
        counts = np.bincount(np.concatenate(lists).astype(np.int64), minlength=colors)
        once = [[x for x in lst if counts[x] == 1] for lst in lists]
        u = next(u for u in range(n) if len(once[u]) >= 2)
        pairs.add((once[u][0], once[u][1]))
        u, v = next((u, v) for u, v in base.edge_array().tolist()
                    if once[u] and len(once[v]) >= 2)
        for y in once[v][:2]:
            pairs.add((min(once[u][0], y), max(once[u][0], y)))
    return DpCover.from_lists(base, Graph.from_edges(colors, sorted(pairs)), lists)
