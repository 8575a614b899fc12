"""Shared instance builders and independent test oracles.

The oracles here are deliberately written from scratch (brute force, direct
definitions) so the library code is always checked against a second,
independent route.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from dpnibble import DpCover, Graph
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
    vertices = np.flatnonzero(view.blank).tolist()
    colors = np.flatnonzero(view.alive)
    vnew = {v: i for i, v in enumerate(vertices)}
    cnew = {x: i for i, x in enumerate(colors.tolist())}
    lists = [[cnew[x] for x in root.lists(v).tolist() if x in cnew] for v in vertices]
    base_edges = [(vnew[u], vnew[v]) for u, v in root.base.edge_array().tolist()
                  if u in vnew and v in vnew]
    cover_edges = [(cnew[x], cnew[y]) for x, y in root.cover.edge_array().tolist()
                   if x in cnew and y in cnew]
    return DpCover(Graph.from_edges(len(vertices), base_edges),
                   Graph.from_edges(len(cnew), cover_edges), lists), colors
