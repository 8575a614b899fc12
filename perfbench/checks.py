"""Checks of dpnibble's outputs, written apart from the program.

Nothing here imports ``dpnibble``: the checks read the cover document and
the program's output files as plain JSON and CSV and test them against the
definitions (a proper coloring picks one color from each vertex's list and
no cover edge joins two picks; a round keeps a color with probability
``(1 - eta/ell)^d`` on a ``d``-regular cover with uniform lists of ``ell``).
Each check raises :class:`CheckError` with the first defect it finds.
"""

from __future__ import annotations

import json
import math

# a vertex's kept-list mean may sit this many standard errors from the
# closed form; at 6 the chance of a false alarm over all the vertices of a
# whole benchmark session is below one in a thousand
SE_LIMIT = 6.0


class CheckError(Exception):
    pass


def cover_shape(doc: dict) -> tuple[int, int, int]:
    """(vertices, cover degree, list size) of a cover document whose lists
    all have one size and whose cover graph is regular; raises otherwise."""
    n = doc["base"]["vertex_count"]
    lists = doc["lists"]
    if len(lists) != n:
        raise CheckError(f"{len(lists)} lists for {n} vertices")
    sizes = {len(lst) for lst in lists}
    if len(sizes) != 1:
        raise CheckError(f"list sizes differ: {sorted(sizes)[:5]}")
    num_colors = sum(len(lst) for lst in lists)
    if sorted(c for lst in lists for c in lst) != list(range(num_colors)):
        raise CheckError("lists do not partition the color ids 0..K-1")
    degree = [0] * num_colors
    for a, b in doc["cover_edges"]:
        degree[a] += 1
        degree[b] += 1
    degrees = set(degree)
    if len(degrees) != 1:
        raise CheckError(f"cover graph is not regular: degrees {sorted(degrees)[:5]}")
    return n, degrees.pop(), sizes.pop()


def check_coloring(doc: dict, result_text: str) -> None:
    """A ``dpnibble color`` result is a proper coloring of the cover ``doc``."""
    result = json.loads(result_text)
    if result.get("ok") is not True:
        raise CheckError(f"result reports failure: {result.get('error')}")
    coloring = result["coloring"]
    lists = doc["lists"]
    if len(coloring) != len(lists):
        raise CheckError(f"{len(coloring)} colors for {len(lists)} vertices")
    for v, (c, lst) in enumerate(zip(coloring, lists)):
        if type(c) is not int or c not in lst:
            raise CheckError(f"vertex {v} has color {c!r}, not in its list")
    chosen = set(coloring)
    for a, b in doc["cover_edges"]:
        if a in chosen and b in chosen:
            raise CheckError(f"cover edge ({a}, {b}) joins two chosen colors")


def expected_kept(d: int, ell: int, eta: float) -> float:
    """Exact expected kept-list size after one round on a d-regular cover."""
    return ell * (1.0 - eta / ell) ** d


def check_stats(doc: dict, csv_text: str, eta: float, trials: int,
                anchor: int | None) -> None:
    """A ``dpnibble stats`` CSV agrees with the closed form on cover ``doc``.

    Every vertex's kept-list mean must lie within ``SE_LIMIT`` standard
    errors of ``ell * (1 - eta/ell)^d``; with an anchor, there must be one
    row per trial and each must satisfy residual_degree = u - u_minus_k.
    """
    n, d, ell = cover_shape(doc)
    want = expected_kept(d, ell, eta)
    vertices = colors = 0
    anchor_rows = []
    for line in csv_text.splitlines():
        if not line or line.startswith("#") or line.startswith("kind,"):
            continue
        kind, *fields = line.split(",")
        if kind == "vertex":
            v, mean, var, _ = int(fields[0]), *map(float, fields[1:])
            if v != vertices:
                raise CheckError(f"vertex row {v} out of order")
            se = math.sqrt(max(var, 0.0) / trials)
            if not abs(mean - want) <= SE_LIMIT * se:
                raise CheckError(
                    f"vertex {v}: kept mean {mean} is more than {SE_LIMIT} "
                    f"standard errors ({se:.3g}) from {want:.6g}")
            vertices += 1
        elif kind == "color":
            colors += 1
        elif kind == "anchor":
            anchor_rows.append(tuple(int(x) for x in fields))
        else:
            raise CheckError(f"unknown row kind {kind!r}")
    if vertices != n or colors != n * ell:
        raise CheckError(f"{vertices} vertex and {colors} color rows, "
                         f"want {n} and {n * ell}")
    if anchor is None:
        if anchor_rows:
            raise CheckError("anchor rows without an anchor")
        return
    if len(anchor_rows) != trials:
        raise CheckError(f"{len(anchor_rows)} anchor rows for {trials} trials")
    for i, (trial, u, u_minus_k, res) in enumerate(anchor_rows):
        if trial != i or res != u - u_minus_k:
            raise CheckError(f"anchor row {i}: residual_degree {res} != "
                             f"u {u} - u_minus_k {u_minus_k}")
