"""Counter-based per-vertex random draws.

A nibble round must consume exactly two uniforms per vertex (activation and
color index) from a stream that depends only on ``(seed, vertex)``, so the
outcome is independent of iteration order and any draw can be reproduced on
its own by :func:`scalar_uniform`.  We hash the counter
``(seed, vertex, draw)`` with the splitmix64 finalizer; the multiplier
constants are the standard splitmix64 / LXM stream constants.
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

# row ``draw`` of the counters vertex_uniforms hashes is offset by draw * DRAW
_DRAW_OFFSETS = np.array([[0], [DRAW]], dtype=np.uint64)


def normalize_seed(seed: int) -> int:
    """Map an arbitrary Python int seed onto the u64 counter domain."""
    return int(seed) & MASK64


def mix64(x: int) -> int:
    """splitmix64 finalizer on a single Python int (scalar reference path)."""
    x &= MASK64
    x = (x ^ (x >> 30)) * MIX1 & MASK64
    x = (x ^ (x >> 27)) * MIX2 & MASK64
    return x ^ (x >> 31)


def vertex_uniforms(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two float64 uniforms in [0, 1) per vertex, vectorized.

    Returns ``(u_act, u_col)`` of shape ``(n,)``.  Must stay bit-identical to
    :func:`scalar_uniform` (the draw-stream tests enforce it).
    """
    v = np.arange(n, dtype=np.uint64)
    base = U64((normalize_seed(seed) * GOLDEN) & MASK64) + v * U64(STREAM)
    x = base + _DRAW_OFFSETS
    x = (x ^ (x >> U64(30))) * U64(MIX1)
    x = (x ^ (x >> U64(27))) * U64(MIX2)
    x = x ^ (x >> U64(31))
    u = (x >> U64(11)).astype(np.float64) * INV_2_53
    return u[0], u[1]


def scalar_uniform(seed: int, vertex: int, draw: int) -> float:
    """Reference scalar version of :func:`vertex_uniforms` (used by tests)."""
    x = (normalize_seed(seed) * GOLDEN + vertex * STREAM + draw * DRAW) & MASK64
    return (mix64(x) >> 11) * INV_2_53


def derive_seed(seed: int, tag: int) -> int:
    """Decorrelated child seed for sub-streams (rounds, finish, trials)."""
    return mix64((normalize_seed(seed) + tag * GOLDEN) & MASK64)
