"""Counter-based per-vertex random draws.

A nibble round must consume exactly two uniforms per vertex (activation and
color index) from a stream that depends only on ``(seed, vertex)``, so the
outcome is independent of iteration order and any draw can be reproduced on
its own by :func:`scalar_uniform`; the resampling finisher draws from it
too, and ``numpy.random`` serves only the instance generators.  We hash the
counter ``(seed, vertex, draw)`` with the splitmix64 finalizer; the
multiplier constants are the standard splitmix64 / LXM stream constants.
"""

from __future__ import annotations

import numpy as np

U64 = np.uint64
MASK64 = (1 << 64) - 1

GOLDEN = 0x9E3779B97F4A7C15
STREAM = 0xD1342543DE82EF95
DRAW = 0x2545F4914F6CDD1D

MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

INV_2_53 = 2.0 ** -53

# numpy scalars of the constants, made once: the hash runs once per round
_U_GOLDEN, _U_STREAM, _U_MIX1, _U_MIX2 = (U64(c) for c in (GOLDEN, STREAM, MIX1, MIX2))
_U30, _U27, _U31, _U11 = (U64(s) for s in (30, 27, 31, 11))

# the counters vertex_uniforms hashes: draw row ``k`` is offset by k * DRAW
_DRAW_OFFSETS = np.array([[[0]], [[DRAW]]], dtype=np.uint64)


def normalize_seed(seed: int) -> int:
    """Map an arbitrary Python int seed onto the u64 counter domain."""
    return int(seed) & MASK64


def mix64(x: int) -> int:
    """splitmix64 finalizer on a single Python int (scalar reference path)."""
    x &= MASK64
    x = (x ^ (x >> 30)) * MIX1 & MASK64
    x = (x ^ (x >> 27)) * MIX2 & MASK64
    return x ^ (x >> 31)


def vertex_uniforms(seed: int, n: int, block: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Two float64 uniforms in [0, 1) per vertex for seeds ``seed .. seed+block-1``.

    Returns ``(u_act, u_col)`` of shape ``(block, n)``; row ``b`` is the
    stream of seed ``seed + b`` (mod 2**64).  Must stay bit-identical to
    :func:`scalar_uniform` (the draw-stream tests enforce it).
    """
    seeds = np.arange(block, dtype=np.uint64) + U64(normalize_seed(seed))
    v = np.arange(n, dtype=np.uint64)
    x = (seeds * _U_GOLDEN)[:, None] + v * _U_STREAM + _DRAW_OFFSETS
    # the finalizer, in place on the one (2, block, n) array
    x ^= x >> _U30
    x *= _U_MIX1
    x ^= x >> _U27
    x *= _U_MIX2
    x ^= x >> _U31
    x >>= _U11
    u = x.astype(np.float64)
    u *= INV_2_53
    return u[0], u[1]


def scalar_uniform(seed: int, vertex: int, draw: int) -> float:
    """Reference scalar version of :func:`vertex_uniforms` (used by tests)."""
    x = (normalize_seed(seed) * GOLDEN + vertex * STREAM + draw * DRAW) & MASK64
    return (mix64(x) >> 11) * INV_2_53


def derive_seed(seed: int, tag: int) -> int:
    """Decorrelated child seed for sub-streams (rounds, finish, trials)."""
    return mix64((normalize_seed(seed) + tag * GOLDEN) & MASK64)
