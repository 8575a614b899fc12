"""The vectorized draw stream must match the scalar reference bit-for-bit."""

import numpy as np
import pytest

from dpnibble._rng import scalar_uniform, vertex_uniforms


class TestDrawStreams:
    def test_vectorized_matches_scalar_reference(self):
        u_act, u_col = vertex_uniforms(12345, 50)
        assert u_act.shape == u_col.shape == (1, 50)
        for v in range(50):
            assert u_act[0, v] == scalar_uniform(12345, v, 0)
            assert u_col[0, v] == scalar_uniform(12345, v, 1)

    @pytest.mark.parametrize("seed", [0, 98765, 2 ** 64 - 3, 2 ** 65 + 7, -2])
    def test_block_rows_match_scalar_reference(self, seed):
        # row b is seed + b, wrapping past 2**64 like the scalar stream
        u_act, u_col = vertex_uniforms(seed, 13, 6)
        assert u_act.shape == u_col.shape == (6, 13)
        for b in range(6):
            for v in range(13):
                assert u_act[b, v] == scalar_uniform(seed + b, v, 0)
                assert u_col[b, v] == scalar_uniform(seed + b, v, 1)

    def test_draws_in_unit_interval(self):
        u_act, u_col = vertex_uniforms(3, 1000, 4)
        assert np.all((0 <= u_act) & (u_act < 1))
        assert np.all((0 <= u_col) & (u_col < 1))
