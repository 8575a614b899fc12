"""DP-cover data model: per-vertex color lists plus a cover graph over colors.

A cover pairs a base graph with a graph ``H`` on color ids such that the
per-vertex lists partition the colors, every list is independent in ``H``,
and the ``H``-edges between two lists form a matching that may be nonempty
only across a base edge.  A proper coloring picks one color per vertex with
no two picks adjacent in ``H``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import stat
import zlib
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._kernels import gather_rows
from .errors import CoverValidationError, GenerationError
from .graph import Graph, max_degree


@dataclass(frozen=True)
class Violation:
    """One structural defect found by :func:`validate`."""

    kind: str
    ids: tuple

    def __str__(self):
        return f"{self.kind}{self.ids}"


def _flat_lists(lists: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The sizes of ``lists`` and their entries, concatenated."""
    sizes = np.fromiter(map(len, lists), np.int64, count=len(lists))
    return sizes, np.fromiter(chain.from_iterable(lists), np.int64, count=int(sizes.sum()))


class DpCover:
    """Immutable cover: base graph, cover graph, and the list partition."""

    __slots__ = ("base", "cover", "owner", "lptr", "lcolors", "_valid")

    def __init__(self, base: Graph, cover: Graph, sizes, lcolors):
        """Vertex ``v``'s list is the next ``sizes[v]`` entries of ``lcolors``;
        each list is sorted here."""
        n = base.vertex_count
        sizes = np.asarray(sizes, dtype=np.int64)
        if sizes.shape != (n,):
            raise ValueError("need one list per base vertex")
        self.base = base
        self.cover = cover
        lptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sizes, out=lptr[1:])
        lcolors = np.array(lcolors, dtype=np.int64)  # a copy: it is made read-only
        if lcolors.shape != (int(lptr[-1]),) or np.any(sizes < 0):
            raise ValueError("list sizes must be >= 0 and add up to the list entries")
        vertex = np.repeat(np.arange(n, dtype=np.int64), sizes)
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

    @classmethod
    def from_lists(cls, base: Graph, cover: Graph,
                   lists: Sequence[Sequence[int]]) -> "DpCover":
        """Cover whose vertex ``v`` has the color list ``lists[v]``."""
        return cls(base, cover, *_flat_lists(lists))

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


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


# cover CSR entries validate reads at a time
_VALIDATE_BLOCK = 1 << 16
# most base vertices whose adjacency validate packs into n * n bits (2 MB)
_BITSET_MAX = 4096
_BIT = np.array([1 << i for i in range(8)], dtype=np.uint8)


def _base_adjacency(base: Graph):
    """``backed(key)``: which keys ``u * n + v`` are directed base edges; one
    gather from n * n bits up to ``_BITSET_MAX`` vertices, else a search."""
    n = base.vertex_count
    # directed base edges u * n + v, sorted since the CSR rows are
    keys = np.repeat(np.arange(n, dtype=np.int64) * n, base.degrees()) + base.indices
    if n <= _BITSET_MAX:
        bits = np.zeros((n * n + 7) // 8, dtype=np.uint8)
        np.bitwise_or.at(bits, keys >> 3, _BIT[keys & 7])
        return lambda key: (bits[key >> 3] & _BIT[key & 7]) != 0
    keys = np.append(keys, n * n)  # above every key, so a search stays in range
    return lambda key: keys[np.searchsorted(keys, key)] == key


def validate(c: DpCover, max_violations: int = 1000) -> list[Violation]:
    """All structural defects of a cover; empty list iff the cover is valid.

    The partition defects come first, then the cover edges inside a list, then
    those across a non-edge of the base (both in lexicographic edge order),
    then each color with two partners in one list, ordered by color and list.
    The cover CSR is read in row blocks of about ``_VALIDATE_BLOCK`` entries.
    """
    out: list[Violation] = []

    def add(found, kind, *ids):
        if len(found) < max_violations:
            found.append(Violation(kind, tuple(int(i) for i in ids)))

    # partition: every color in exactly one list, owners consistent
    seen = np.bincount(c.lcolors, minlength=c.num_colors)
    unlisted = np.flatnonzero(seen == 0)
    for col in unlisted:
        add(out, "color-in-no-list", col)
    for col in np.nonzero(seen > 1)[0]:
        add(out, "color-in-multiple-lists", col)

    inside, unbacked, unmatched = [], [], []
    n = c.base.vertex_count
    backed_by_base = _base_adjacency(c.base)
    indptr, indices, owner = c.cover.indptr, c.cover.indices, c.owner
    lo = 0
    while lo < c.num_colors:
        hi = max(lo + 1, int(np.searchsorted(indptr, indptr[lo] + _VALIDATE_BLOCK,
                                             side="right")) - 1)
        # entry (x, y) of row x; each edge shows up in both of its rows
        lens = np.diff(indptr[lo:hi + 1])
        x = np.repeat(np.arange(lo, hi, dtype=np.int64), lens)
        y = indices[indptr[lo]:indptr[hi]]
        u, v = np.repeat(owner[lo:hi], lens), owner[y]
        lo = hi
        # owners are -1 only for colors in no list, reported already
        placed = (u >= 0) & (v >= 0) if unlisted.size else True
        same = placed & (u == v)
        upper = y > x
        for i in np.flatnonzero(same & upper):
            add(inside, "list-not-independent", u[i], x[i], y[i])
        cross = placed & ~same
        backed = backed_by_base(u * n + v)
        for i in np.flatnonzero(cross & ~backed & upper):
            add(unbacked, "cover-edge-without-base-edge", u[i], v[i], x[i], y[i])
        # matching: each color has at most one partner inside any one list,
        # so the keys x * n + owner(y) of a row never repeat
        good = cross & backed
        keys = x * n + v if good.all() else x[good] * n + v[good]
        if np.all(keys[1:] > keys[:-1]):
            continue
        keys.sort()
        dup = keys[1:] == keys[:-1]
        # each repeated key once, where its run of equal neighbours starts
        for k in keys[1:][dup & ~np.r_[False, dup[:-1]]]:
            add(unmatched, "not-a-matching", k % n, k // n)
    for found in (inside, unbacked, unmatched):
        out.extend(found[:max_violations - len(out)])
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

    Color ids run through the vertices' sorted labels, and the colors of one
    label at the two ends of a base edge are matched; labels must be
    sortable.  Every vertex needs a nonempty label set.
    """
    color, count = [], 0  # color[v] maps each label of v to its color id
    for v in range(g.vertex_count):
        labels = sorted(set(lists[v]))
        if not labels:
            raise ValueError(f"vertex {v} has an empty color list")
        color.append(dict(zip(labels, range(count, count + len(labels)))))
        count += len(labels)
    pairs = [(color[u][label], color[v][label]) for u, v in g.edge_array().tolist()
             for label in color[u].keys() & color[v].keys()]
    return DpCover(g, Graph.from_edges(count, pairs), list(map(len, color)),
                   np.arange(count))


def uniform_list_cover(g: Graph, ell: int) -> DpCover:
    """List cover where every vertex has the same ``ell`` labels.

    Equal to ``from_list_assignment(g, [range(ell)] * n)``: color ``v * ell + j``
    is label ``j`` at ``v``, and its cover row is label ``j`` at ``v``'s
    neighbours, sorted because the base row is.
    """
    if ell < 1:  # the empty lists' error, or the empty cover when n = 0
        return from_list_assignment(g, [()] * g.vertex_count)
    n = g.vertex_count
    vertex = np.repeat(np.arange(n, dtype=np.int64), ell)
    lens = g.degrees()[vertex]
    indptr = np.zeros(vertex.size + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    indices = gather_rows(g.indptr, g.indices * ell, vertex,
                          np.tile(np.arange(ell, dtype=np.int64), n))
    return DpCover(g, Graph(vertex.size, indptr, indices), np.full(n, ell),
                   np.arange(vertex.size))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def regularize(c: DpCover, d: int, seed: int) -> DpCover:
    """Embed the cover into one whose cover graph is exactly ``d``-regular.

    Takes ``k`` disjoint copies of the input, where ``k`` is the order of an
    auxiliary ``N``-regular graph of girth at least 5 and ``N`` is the total
    degree deficiency, then adds one cover edge (plus the corresponding base
    edge) per auxiliary edge, always consuming the smallest deficient color
    ids first.  The auxiliary graph is the edge or the pentagon for N <= 2,
    else a biaffine plane of girth >= 6 with k = 2Nq, q the least prime >= N.
    Its girth is what keeps the output free of complete bipartite subgraphs
    that the input did not contain.  The input embeds as copy 0.
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
    out = DpCover(new_base, new_cover, np.tile(c.list_sizes(), k),
                  (c.lcolors + shift[:, 0] * nc).ravel())
    if max_degree(out.cover) != d or int(out.cover.degrees().min()) != d:
        raise GenerationError("regularization failed to reach exact regularity")
    return out


# ---------------------------------------------------------------------------
# cover file format: one JSON document
# ---------------------------------------------------------------------------


_CANONICAL = {"sort_keys": True, "separators": (",", ":")}


def cover_to_json(c: DpCover) -> str:
    """The canonical document: ``json.dumps`` with sorted keys and no spaces.

    The two edge arrays are formatted straight from their ids, which gives
    the same text as dumping them as lists of pairs.
    """
    lists = json.dumps([lst.tolist() for lst in c.all_lists()], **_CANONICAL)
    base = _pairs_text(c.base.edge_array(), c.base.vertex_count)
    return (f'{{"base":{{"edges":{base},"vertex_count":{c.base.vertex_count}}},'
            f'"cover_edges":{_pairs_text(c.cover.edge_array(), c.num_colors)},'
            f'"lists":{lists}}}\n')


def _pairs_text(e: np.ndarray, count: int) -> str:
    """``json.dumps`` of an (m, 2) array of ids below ``count`` as a list of
    pairs, without spaces.

    Row ``i`` of a table holds the word ``[i,`` and row ``count + i`` the word
    ``i],``, each NUL-padded to ``w + 2`` bytes for ``w`` digits; one gather at
    the ids ``a`` and ``count + b`` of every pair spells the text.
    """
    if not len(e):
        return "[]"
    ids = np.arange(count, dtype=np.int64)
    w = len(str(count - 1))
    power = 10 ** np.arange(w - 1, -1, -1, dtype=np.int64)
    # the digits of each id, most significant first; its leading zeros NUL
    digits = (ids[:, None] // power % 10 + ord("0")).astype(np.uint8)
    digits[ids[:, None] < power] = 0
    digits[0, -1] = ord("0")
    table = np.zeros((2 * count, w + 2), dtype=np.uint8)
    table[:count, 0], table[:count, 1:-1] = ord("["), digits
    table[count:, :-2], table[count:, -2] = digits, ord("]")
    table[:, -1] = ord(",")
    words = np.take(table, (e + [0, count]).ravel(), axis=0)
    return "[" + words.tobytes().replace(b"\0", b"")[:-1].decode() + "]"


# the skeleton of a canonical document, each run of digits cut to one 0:
# _HEAD, the base edges' pairs, _MID, the cover edges' pairs, _LISTS, the
# lists, _TAIL
_HEAD = b'{"base":{"edges":['
_MID = b'],"vertex_count":0},"cover_edges":['
_LISTS = b'],"lists":['
_TAIL = b']}\n'
# tables for bytes.translate: digits stay and every other byte becomes a
# space; every digit becomes 0 and every other byte stays
_DIGITS_ONLY = bytes(c if c in b"0123456789" else 32 for c in range(256))
_ZERO_DIGITS = bytes(48 if c in b"0123456789" else c for c in range(256))
# np.fromstring saturates past 2**63, so a canonical id has at most 18 digits
_MAX_ID = 10 ** 18
# a parse block takes this many bytes of the file and ends before the next
# byte that is no digit, so it splits no run of digits; it keeps the masks and
# copies of a parse small, and none of them is document-sized
_PARSE_BLOCK = 1 << 18
# the sidecar PATH.dpcache of a cover file PATH: _MAGIC, the int64 words (file
# size, n, base pairs, cover pairs, lists, entries), the file's sha256, then the
# base edges, cover edges, list sizes and list entries as raw int64 arrays
_MAGIC = b"dpcache\x01"
_SIDE_HEAD = len(_MAGIC) + 6 * 8 + 32


def _blocks(fh):
    """The bytes of the binary file ``fh`` from its start, in blocks of at most
    about :data:`_PARSE_BLOCK` bytes that end with the file or with a byte
    that is no digit."""
    fh.seek(0)
    size = _PARSE_BLOCK
    while chunk := fh.read(size):
        block = chunk.rstrip(b"0123456789") if len(chunk) == size else chunk
        fh.seek(len(block) - len(chunk), 1)
        if block:
            size = _PARSE_BLOCK
            yield block
        else:  # a run of digits longer than the block
            size *= 2


def _canonical_parts(fh, h=None):
    """``(vertex_count, base edges, cover edges, list sizes, list entries)`` of
    the document in the seekable binary stream ``fh`` if it is byte for byte
    what :func:`cover_to_json` writes; else None.  The edges are (m, 2)
    arrays; they and the entries are views of one array of all the
    document's numbers, the only document-sized array of a parse.  The hash
    ``h``, if given, is updated with the bytes of the first pass.

    The layout is checked on the skeleton, the text with each run of digits
    cut to one ``0``, and no run of two or more digits may start with ``0``.
    A second pass reads the numbers by ``np.fromstring`` from a copy of each
    block with every other byte turned into a space.  Both passes read the
    file block by block (:func:`_blocks`); a block that the second pass reads
    unlike the first (its ``crc32`` differs) raises ValueError.
    """
    blocks, pieces = [], []
    for block in _blocks(fh):
        if h:
            h.update(block)
        buf = np.frombuffer(block, np.uint8)
        digit = (buf - ord("0")) < 10  # uint8 subtraction wraps the lower bytes past 9
        # the skeleton keeps every byte but the second and later digits of a
        # run; a block starts with a byte that is no digit or follows one
        keep = np.empty_like(digit)
        keep[:1] = True
        np.logical_and(digit[1:], digit[:-1], out=keep[1:])
        np.logical_not(keep[1:], out=keep[1:])
        # a kept 0 followed by a dropped byte starts a run of two or more digits
        leading = buf[:-1] == ord("0")
        leading &= keep[:-1]
        if np.any(np.greater(leading, keep[1:], out=leading)):
            return None
        pieces.append(buf[keep].tobytes().translate(_ZERO_DIGITS))
        blocks.append((len(block), zlib.crc32(block), pieces[-1].count(b"0")))  # one 0 per number
    skeleton = b"".join(pieces)
    del pieces
    if not (skeleton.startswith(_HEAD) and skeleton.endswith(_TAIL)):
        return None
    mid = skeleton.find(_MID, len(_HEAD))
    lists = skeleton.find(_LISTS, mid + len(_MID))
    if mid < 0 or lists < 0:
        return None
    mb = _pair_count(skeleton, len(_HEAD), mid)
    mc = _pair_count(skeleton, mid + len(_MID), lists)
    sizes = _list_sizes(skeleton, lists + len(_LISTS), len(skeleton) - len(_TAIL))
    if mb is None or mc is None or sizes is None:
        return None
    del skeleton
    at = 2 * mb  # where vertex_count is
    end = at + 1 + 2 * mc  # where the list entries start
    # the skeleton holds one 0 per number, so the blocks' counts add up to
    # the numbers of the layout
    ids = np.empty(end + int(sizes.sum()), np.int64)
    i = 0
    fh.seek(0)
    for length, crc, count in blocks:
        block = fh.read(length)
        # np.fromstring reads past the numbers of a block when it holds fewer
        if len(block) != length or zlib.crc32(block) != crc:
            raise ValueError("the cover file changed while it was read")
        ids[i:i + count] = np.fromstring(block.translate(_DIGITS_ONLY), dtype=np.int64,
                                         count=count, sep=" ")
        i += count
    if ids.max() >= _MAX_ID:
        return None
    return (int(ids[at]), ids[:at].reshape(mb, 2), ids[at + 1:end].reshape(mc, 2),
            sizes, ids[end:])


def _pair_count(skeleton: bytes, a: int, b: int) -> int | None:
    """m if ``skeleton[a:b]`` is m pairs ``[0,0]`` with commas between."""
    m = (b - a + 1) // 6
    pairs = (b"[0,0]," * m)[:-1]
    return m if len(pairs) == b - a and skeleton.startswith(pairs, a) else None


def _list_sizes(skeleton: bytes, a: int, b: int) -> np.ndarray | None:
    """The sizes of the lists if ``skeleton[a:b]`` is their skeleton, a
    ``[0,...,0]`` or ``[]`` per list with commas between; else None."""
    region = np.frombuffer(skeleton, np.uint8, b - a, a)
    # a list of k >= 1 entries takes 2k + 1 bytes, an empty one 2, then a comma
    opens = np.flatnonzero(region == ord("["))
    sizes = np.diff(opens, append=region.size + 1) // 2 - 1
    if np.any(sizes < 0):
        return None
    length = 2 * sizes + 1 + (sizes == 0)
    starts = np.cumsum(length + 1) - length - 1
    if region.size != (starts[-1] + length[-1] if sizes.size else 0):
        return None
    expected = np.full(region.size, ord(","), np.uint8)
    expected[starts] = ord("[")
    expected[starts + length - 1] = ord("]")
    first = np.repeat(starts + 1 - 2 * (np.cumsum(sizes) - sizes), sizes)
    expected[first + 2 * np.arange(first.size)] = ord("0")
    return sizes if np.array_equal(expected, region) else None


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


def _json_parts(fh, h=None):
    """The parts :func:`_canonical_parts` returns, of any JSON document in the
    seekable binary stream ``fh``: one ``json.loads`` of its UTF-8 text, and
    a document not shaped like a cover raises ValueError.  The hash ``h``, if
    given, is updated with the text."""
    fh.seek(0)
    text = fh.read()
    if h:
        h.update(text)
    # a JSON boolean needs a true/false token in the text
    exact = b"true" in text or b"false" in text
    text = text.decode()
    doc = json.loads(text)
    del text
    try:
        n, lists = doc["base"]["vertex_count"], doc["lists"]
        base_edges, cover_edges = doc["base"]["edges"], doc["cover_edges"]
    except (TypeError, KeyError) as exc:
        raise ValueError("a cover document is an object with keys base (with "
                         "vertex_count and edges), lists and cover_edges") from exc
    if not (isinstance(lists, list) and set(map(type, lists)) <= {list}
            and set(map(type, chain.from_iterable(lists))) <= {int}):
        raise ValueError("lists must be a list of lists of integer ids")
    return (n, _edge_array(base_edges, "base.edges", exact),
            _edge_array(cover_edges, "cover_edges", exact), *_flat_lists(lists))


def _read_sidecar(fh, side: str, size: int):
    """The parts in the sidecar ``side`` if it is keyed by the ``size`` bytes of
    ``fh`` and trusted: a regular file of this user that group and others
    cannot write, whose header fits ``fh`` and its own length; else None."""
    # no symbolic link, no wait for a FIFO's writer; open closes what it refuses
    with suppress(OSError), open(side, "rb", opener=lambda p, f: os.open(
            p, f | os.O_NONBLOCK | os.O_NOFOLLOW)) as sc:
        # a header cut short is padded here and fails the length check
        st, head = os.fstat(sc.fileno()), sc.read(_SIDE_HEAD).ljust(_SIDE_HEAD, b"\0")
        got, n, mb, mc, nl, ne = map(int, np.frombuffer(head, np.int64, 6, len(_MAGIC)))
        words = (2 * mb, 2 * mc, nl, ne)
        if not (head.startswith(_MAGIC) and stat.S_ISREG(st.st_mode)
                and st.st_uid == os.geteuid() and not st.st_mode & 0o022 and got == size
                and min(words) >= 0 and st.st_size == _SIDE_HEAD + 8 * sum(words)):
            return None
        h, buf = hashlib.sha256(), bytearray(_PARSE_BLOCK)
        fh.seek(0)
        while k := fh.readinto(buf):
            h.update(memoryview(buf)[:k])
        # a part per array: the cover graph built in one keeps no other alive
        parts = [np.empty(k, np.int64) for k in words]
        if h.digest() == head[-32:] and all(sc.readinto(a) == a.nbytes for a in parts):
            return n, parts[0].reshape(mb, 2), parts[1].reshape(mc, 2), parts[2], parts[3]
    return None


def cover_from_json(source) -> DpCover:
    """Parse and validate a cover document, given as text, UTF-8 bytes or a
    binary file read from its start; refuses invalid covers.

    Every source becomes one seekable binary stream: text is encoded as
    UTF-8, and a stream that cannot seek is read whole first.  The layout
    :func:`cover_to_json` writes takes the fast path of
    :func:`_canonical_parts`, which reads the stream in blocks; any other
    document is read by :func:`_json_parts` and refused with the same
    messages.  Both paths end in one tail, which builds the cover graph in
    the cover edges' array, the one document-sized array of a load.

    A valid cover in a regular file ``PATH`` gets the sidecar ``PATH.dpcache``
    of its parsed numbers, keyed by the sha256 of the bytes parsed; a later
    load of the same bytes reads the numbers there and runs the same tail.
    """
    if isinstance(source, str):
        source = source.encode()
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    elif not source.seekable():
        source = io.BytesIO(source.read())
    side = size = h = tmp = done = None
    with suppress(OSError):  # io.UnsupportedOperation, from fileno, is one
        st = os.fstat(source.fileno())
        if (isinstance(source.name, str) and stat.S_ISREG(st.st_mode) and hasattr(os, "geteuid")
                and os.path.samestat(os.lstat(source.name), st)):
            side, size = source.name + ".dpcache", st.st_size
    if not (parts := side and _read_sidecar(source, side, size)):
        # each parse hashes the bytes it reads, the key of a new sidecar
        parts = (_canonical_parts(source, h := side and hashlib.sha256())
                 or _json_parts(source, h := side and hashlib.sha256()))
    n, base_edges, cover_edges, sizes, lcolors = parts
    if type(n) is not int or n != sizes.size:
        raise ValueError(f"base.vertex_count must equal the number of lists "
                         f"({sizes.size}), got {n!r}")
    # the sidecar of the ``size`` bytes parsed is staged before the tail builds in cover_edges
    if h and source.tell() == size:
        counts = np.array([size, n, len(base_edges), len(cover_edges), n, len(lcolors)], np.int64)
        with suppress(OSError):
            tmp = f"{side}.{os.getpid()}"
            with open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644), "wb") as out:
                out.write(_MAGIC + counts.tobytes() + h.digest())
                for a in (base_edges, cover_edges, sizes, lcolors):
                    a.tofile(out)
            done = True
    try:
        base = Graph.from_edges(n, base_edges)
        # both paths own cover_edges, a fresh C-contiguous (m, 2) int64 array
        cov = DpCover(base, Graph.from_pairs(int(sizes.sum()), cover_edges), sizes, lcolors)
        # the base edges and entries may be views of the parsed numbers: free them
        del base_edges, cover_edges, lcolors
        require_valid(cov)
        if done:
            with suppress(OSError):
                os.replace(tmp, side)
    finally:  # a refused cover, a sidecar not written whole or not moved, a stale file
        if tmp:
            with suppress(OSError):
                os.unlink(tmp)
    return cov
