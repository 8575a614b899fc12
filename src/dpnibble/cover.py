"""DP-cover data model: per-vertex color lists plus a cover graph over colors.

A cover pairs a base graph with a graph ``H`` on color ids such that the
per-vertex lists partition the colors, every list is independent in ``H``,
and the ``H``-edges between two lists form a matching that may be nonempty
only across a base edge.  A proper coloring picks one color per vertex with
no two picks adjacent in ``H``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CoverValidationError, GenerationError
from .graph import Graph, max_degree


@dataclass(frozen=True)
class Violation:
    """One structural defect found by :func:`validate`."""

    kind: str
    ids: tuple

    def __str__(self):
        return f"{self.kind}{self.ids}"


class DpCover:
    """Immutable cover: base graph, cover graph, and the list partition."""

    __slots__ = ("base", "cover", "owner", "lptr", "lcolors", "_valid")

    def __init__(self, base: Graph, cover: Graph, lists: Sequence[Sequence[int]]):
        n = base.vertex_count
        if len(lists) != n:
            raise ValueError("need one list per base vertex")
        self.base = base
        self.cover = cover
        lptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, lists), np.int64, count=n), out=lptr[1:])
        lcolors = np.fromiter(chain.from_iterable(lists), np.int64, count=int(lptr[-1]))
        vertex = np.repeat(np.arange(n, dtype=np.int64), np.diff(lptr))
        if np.any((lcolors[1:] < lcolors[:-1]) & (vertex[1:] == vertex[:-1])):
            lcolors = lcolors[np.lexsort((lcolors, vertex))]
        if lcolors.size and (lcolors.min() < 0 or lcolors.max() >= cover.vertex_count):
            raise ValueError("list entries must be color ids of the cover graph")
        owner = np.full(cover.vertex_count, -1, dtype=np.int64)
        owner[lcolors] = vertex
        self.owner = owner
        self.lptr = lptr
        self.lcolors = lcolors
        for a in (self.owner, self.lptr, self.lcolors):
            a.flags.writeable = False
        self._valid = False  # set by require_valid once validate finds nothing

    # -- accessors ---------------------------------------------------------

    @property
    def num_colors(self) -> int:
        return self.cover.vertex_count

    def lists(self, v: int) -> np.ndarray:
        """Sorted color ids available to base vertex ``v``."""
        return self.lcolors[self.lptr[v]:self.lptr[v + 1]]

    def list_sizes(self) -> np.ndarray:
        return np.diff(self.lptr)

    def all_lists(self) -> list[np.ndarray]:
        return [self.lists(v) for v in range(self.base.vertex_count)]

    def __repr__(self):
        return (f"DpCover(n={self.base.vertex_count}, colors={self.num_colors}, "
                f"cover_edges={self.cover.num_edges})")


@dataclass
class PartialColoring:
    """Assignment of a color id (or -1 for blank) to each base vertex."""

    assignment: np.ndarray

    @classmethod
    def blank(cls, n: int) -> "PartialColoring":
        return cls(np.full(n, -1, dtype=np.int64))

    def is_total(self) -> bool:
        return bool(np.all(self.assignment >= 0))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate(c: DpCover, max_violations: int = 1000) -> list[Violation]:
    """All structural defects of a cover; empty list iff the cover is valid."""
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


def require_valid(c: DpCover) -> DpCover:
    """``c`` if it is valid; a success is kept on the cover, whose arrays are read-only."""
    if not c._valid:
        violations = validate(c)
        if violations:
            raise CoverValidationError(violations)
        c._valid = True
    return c


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def from_list_assignment(g: Graph, lists: Mapping[int, Iterable] | Sequence[Iterable]) -> DpCover:
    """Cover encoding an ordinary list assignment.

    Colors sharing a label across a base edge are matched; labels must be
    sortable.  Every vertex needs a nonempty label set.
    """
    n = g.vertex_count
    label_lists = []
    for v in range(n):
        labels = sorted(set(lists[v]))
        if not labels:
            raise ValueError(f"vertex {v} has an empty color list")
        label_lists.append(labels)
    # color ids run through the vertices' sorted labels; each color gets the
    # key vertex * (number of labels) + label number, labels numbered by first use
    sizes = np.fromiter(map(len, label_lists), np.int64, count=n)
    lptr = np.concatenate([[0], np.cumsum(sizes)])
    number: dict = {}
    label = np.fromiter((number.setdefault(lab, len(number))
                         for lab in chain.from_iterable(label_lists)),
                        np.int64, count=int(lptr[-1]))
    keys = np.repeat(np.arange(n, dtype=np.int64), sizes) * len(number) + label
    by_key = np.argsort(keys)
    sorted_keys = keys[by_key]
    # every color of u looks up its label at v, for each base edge (u, v)
    e = g.edge_array()
    counts = sizes[e[:, 0]]
    starts = np.repeat(lptr[e[:, 0]] - (np.cumsum(counts) - counts), counts)
    colors_u = np.arange(int(counts.sum()), dtype=np.int64) + starts
    wanted = np.repeat(e[:, 1], counts) * len(number) + label[colors_u]
    pos = np.minimum(np.searchsorted(sorted_keys, wanted), keys.size - 1)
    hit = sorted_keys[pos] == wanted
    cover_graph = Graph.from_edges(
        int(lptr[-1]), np.stack([colors_u[hit], by_key[pos[hit]]], axis=1))
    return DpCover(g, cover_graph, [range(a, b) for a, b in zip(lptr[:-1], lptr[1:])])


def uniform_list_cover(g: Graph, ell: int) -> DpCover:
    """List cover where every vertex has the same ``ell`` labels."""
    return from_list_assignment(g, [range(ell)] * g.vertex_count)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def regularize(c: DpCover, d: int, seed: int) -> DpCover:
    """Embed the cover into one whose cover graph is exactly ``d``-regular.

    Takes ``k`` disjoint copies of the input, where ``k`` is the order of an
    auxiliary ``N``-regular graph of girth at least 5 and ``N`` is the total
    degree deficiency, then adds one cover edge (plus the corresponding base
    edge) per auxiliary edge, always consuming the smallest deficient color
    ids first.  Girth 5 of the auxiliary graph is what keeps the output free
    of complete bipartite subgraphs that the input did not contain.  The
    input embeds as copy 0.
    """
    from .generators import girth5_auxiliary

    degs = c.cover.degrees()
    if degs.size and int(degs.max()) > d:
        raise ValueError(f"cover max degree {int(degs.max())} exceeds target {d}")
    nb, nc = c.base.vertex_count, c.num_colors
    # one stub per missing cover edge, smallest color id first
    stubs = np.repeat(np.arange(nc, dtype=np.int64), d - degs)
    if stubs.size == 0:
        return c

    gamma = girth5_auxiliary(stubs.size, seed)
    k = gamma.vertex_count
    if np.any(gamma.degrees() != stubs.size):
        raise GenerationError(f"auxiliary graph is not {stubs.size}-regular")
    # auxiliary edges in lexicographic order, end i before end j: the r-th
    # time a copy appears it takes stubs[r]
    copy = gamma.edge_array().ravel()
    rank = np.empty_like(copy)
    rank[np.argsort(copy, kind="stable")] = np.arange(copy.size) % stubs.size
    col = stubs[rank]
    shift = np.arange(k, dtype=np.int64)[:, None, None]
    new_base = Graph.from_edges(nb * k, np.concatenate([
        (c.base.edge_array() + shift * nb).reshape(-1, 2),
        (c.owner[col] + copy * nb).reshape(-1, 2)]))
    new_cover = Graph.from_edges(nc * k, np.concatenate([
        (c.cover.edge_array() + shift * nc).reshape(-1, 2),
        (col + copy * nc).reshape(-1, 2)]))
    lcolors = (c.lcolors + shift[:, 0] * nc).ravel()
    out = DpCover(new_base, new_cover,
                  np.split(lcolors, np.cumsum(np.tile(c.list_sizes(), k))[:-1]))
    if max_degree(out.cover) != d or int(out.cover.degrees().min()) != d:
        raise GenerationError("regularization failed to reach exact regularity")
    return out


# ---------------------------------------------------------------------------
# cover file format: one JSON document
# ---------------------------------------------------------------------------


_CANONICAL = {"sort_keys": True, "separators": (",", ":")}
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def cover_to_json(c: DpCover) -> str:
    """The canonical document: ``json.dumps`` with sorted keys and no spaces.

    The two edge arrays are formatted straight from their ids, which gives
    the same text as dumping them as lists of pairs.
    """
    lists = json.dumps([lst.tolist() for lst in c.all_lists()], **_CANONICAL)
    return (f'{{"base":{{"edges":{_pairs_text(c.base.edge_array())},'
            f'"vertex_count":{c.base.vertex_count}}},'
            f'"cover_edges":{_pairs_text(c.cover.edge_array())},"lists":{lists}}}\n')


def _pairs_text(e: np.ndarray) -> str:
    """``json.dumps`` of an (m, 2) id array as a list of pairs, without spaces."""
    return "[" + ("[%d,%d]," * len(e) % tuple(e.ravel().tolist()))[:-1] + "]"


def _canonical_parts(text: str) -> tuple[dict, np.ndarray] | None:
    """The document with ``[]`` for its cover edges and the (m, 2) array of those
    edges, if ``text`` is byte for byte what :func:`cover_to_json` writes for a
    cover with cover edges; else None.  ``np.fromstring`` reads ``01`` as 1 and
    saturates past 2**63, so the ids' digits must add up to the text's digits.
    """
    start = text.find('"cover_edges":[[')
    if start < 0:
        return None
    a = start + len('"cover_edges":')
    b = text.find("]]", a) + 2
    seg = text[a:b].encode()
    skeleton = seg.translate(None, b"0123456789")
    m = (len(skeleton) - 1) // 4
    if m < 1 or skeleton != b"[" + b"[,]," * (m - 1) + b"[,]]":
        return None
    try:
        ids = np.fromstring(seg.translate(None, b"[]"), dtype=np.int64, sep=",")
    except ValueError:  # an empty id
        return None
    if (ids.size != 2 * m or ids.max() >= 10 ** 18 or len(seg) - len(skeleton)
            != ids.size + np.searchsorted(_POWERS_OF_TEN, ids, side="right").sum()):
        return None
    # the rest must be canonical too, with these edges as its top-level key
    rest = text[:a] + "[]" + text[b:]
    try:
        doc = json.loads(rest)
        if (not isinstance(doc, dict) or json.dumps(doc, **_CANONICAL) + "\n" != rest
                or text[:start] != '{"base":' + json.dumps(doc.get("base"), **_CANONICAL) + ","):
            return None
    except (ValueError, RecursionError):
        return None
    return doc, ids.reshape(m, 2)


def _edge_array(value, what: str, exact: bool) -> np.ndarray:
    """An (m, 2) int64 array of the id pairs in ``value``.

    numpy reads ``true`` among integers as 1, so with ``exact`` the type of
    every id is checked too.
    """
    arr = np.asarray(value)
    if arr.size == 0:
        return np.zeros((0, 2), np.int64)
    if (arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind != "i"
            or exact and set(map(type, chain.from_iterable(value))) != {int}):
        raise ValueError(f"{what} must be a list of pairs of integer ids")
    return arr.astype(np.int64, copy=False)


def cover_from_json(text: str) -> DpCover:
    """Parse and validate a cover document; refuses invalid covers.

    Text in the layout :func:`cover_to_json` writes takes a fast path; any
    other text is read by ``json.loads`` and refused with the same messages.
    """
    doc, parsed_edges = _canonical_parts(text) or (json.loads(text), None)
    try:
        n, lists = doc["base"]["vertex_count"], doc["lists"]
        base_edges, cover_edges = doc["base"]["edges"], doc["cover_edges"]
    except (TypeError, KeyError) as exc:
        raise ValueError("a cover document is an object with keys base (with "
                         "vertex_count and edges), lists and cover_edges") from exc
    if not (isinstance(lists, list) and set(map(type, lists)) <= {list}
            and set(map(type, chain.from_iterable(lists))) <= {int}):
        raise ValueError("lists must be a list of lists of integer ids")
    if type(n) is not int or n != len(lists):
        raise ValueError(f"base.vertex_count must equal the number of lists "
                         f"({len(lists)}), got {n!r}")
    # a JSON boolean needs a true/false token in the text
    exact = "true" in text or "false" in text
    base = Graph.from_edges(n, _edge_array(base_edges, "base.edges", exact))
    lists = [np.asarray(lst, dtype=np.int64) for lst in lists]
    num_colors = int(sum(len(lst) for lst in lists))
    cover_edges = (_edge_array(cover_edges, "cover_edges", exact)
                   if parsed_edges is None else parsed_edges)
    cover_graph = Graph.from_edges(num_colors, cover_edges)
    cov = DpCover(base, cover_graph, lists)
    return require_valid(cov)
