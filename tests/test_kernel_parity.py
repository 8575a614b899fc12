"""The vectorized draw stream must match the scalar reference bit-for-bit."""

import numpy as np

from dpnibble._rng import scalar_uniform, vertex_uniforms


class TestDrawStreams:
    def test_vectorized_matches_scalar_reference(self):
        u_act, u_col = vertex_uniforms(12345, 50)
        for v in range(50):
            assert u_act[v] == scalar_uniform(12345, v, 0)
            assert u_col[v] == scalar_uniform(12345, v, 1)

    def test_draws_in_unit_interval(self):
        u_act, u_col = vertex_uniforms(3, 1000)
        assert np.all((0 <= u_act) & (u_act < 1))
        assert np.all((0 <= u_col) & (u_col < 1))
