"""The jitted kernels and the pure-numpy fallback must agree bit-for-bit."""

from pathlib import Path

import numpy as np
import pytest

from dpnibble import _kernels as K
from dpnibble._rng import scalar_uniform, vertex_uniforms
from dpnibble.graph import girth_python

from conftest import random_graph, regular_cover

needs_numba = pytest.mark.skipif(not K.HAVE_NUMBA, reason="numba not installed")


def csr(cov):
    return (cov.lptr, cov.lcolors, cov.owner, cov.cover.indptr, cov.cover.indices)


class TestDrawStreams:
    def test_vectorized_matches_scalar_reference(self):
        u_act, u_col = vertex_uniforms(12345, 50)
        for v in range(50):
            assert u_act[v] == scalar_uniform(12345, v, 0)
            assert u_col[v] == scalar_uniform(12345, v, 1)

    def test_kernel_uniforms_match_reference(self):
        u_act, u_col = K._uniforms_numpy(987654321, 40)
        ref_act, ref_col = vertex_uniforms(987654321, 40)
        assert np.array_equal(u_act, ref_act)
        assert np.array_equal(u_col, ref_col)

    def test_draws_in_unit_interval(self):
        u_act, u_col = vertex_uniforms(3, 1000)
        assert np.all((0 <= u_act) & (u_act < 1))
        assert np.all((0 <= u_col) & (u_col < 1))


@needs_numba
class TestRoundParity:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**63 + 5, 2**64 - 1])
    def test_round_outputs_identical(self, seed):
        cov = regular_cover(14, 4, 5, seed=3, rho=0.8)
        nb = K.round_numba(seed, 0.35, *csr(cov))
        np_ = K.round_numpy(seed, 0.35, *csr(cov))
        for a, b in zip(nb, np_):
            assert np.array_equal(a, b)

    def test_residual_degrees_identical(self):
        cov = regular_cover(14, 4, 5, seed=4)
        _, _, kept, phi = K.round_numba(5, 0.5, *csr(cov))
        a = K.residual_degrees_numba(kept, phi, cov.owner,
                                     cov.cover.indptr, cov.cover.indices)
        b = K.residual_degrees_numpy(kept, phi, cov.owner,
                                     cov.cover.indptr, cov.cover.indices)
        assert np.array_equal(a, b)

    def test_stats_accumulators_identical(self):
        cov = regular_cover(10, 3, 4, seed=5)
        args = (99, 150, 0.4, *csr(cov), 2.5, 1.5, 3.5, 1)
        for a, b in zip(K.round_stats_numba(*args), K.round_stats_numpy(*args)):
            assert np.array_equal(a, b)

    def test_girth_identical(self):
        for seed in range(6):
            g = random_graph(12, 0.3, seed=seed)
            assert K.girth_numba(g.indptr, g.indices, g.vertex_count) == \
                girth_python(g.indptr, g.indices, g.vertex_count)


class TestEnvFlag:
    def test_flag_selects_numpy_path(self):
        import subprocess
        import sys
        code = ("import dpnibble._kernels as K; "
                "print(K.USING_NUMBA, K.round_dispatch is K.round_numpy)")
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True,
            env={"DPNIBBLE_NUMBA": "0", "PATH": "/usr/bin:/bin"},
            cwd=Path(__file__).resolve().parents[1] / "src").stdout
        assert out.strip() == "False True"
