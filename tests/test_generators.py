import math

import numpy as np
import pytest

from dpnibble import (Graph, contains_kst, girth, kst_edge_bound, max_degree,
                      validate)
from dpnibble.errors import GenerationError
from dpnibble.generators import (girth5_auxiliary, incidence_graph,
                                 kst_free_bipartite, random_dp_cover,
                                 random_girth5_regular, random_regular)

from conftest import contains_kst_oracle, cycle_graph


class TestRandomRegular:
    def test_unique_one_regular_pair(self):
        g = random_regular(2, 1, seed=0)
        assert g.num_edges == 1 and g.has_edge(0, 1)

    def test_two_regular_is_cycle_union(self):
        g = random_regular(6, 2, seed=1)
        assert list(g.degrees()) == [2] * 6

    def test_degree_scan(self):
        g = random_regular(100, 8, seed=2)
        assert list(np.unique(g.degrees())) == [8]
        # simplicity is enforced by the Graph constructor

    def test_dense_case(self):
        g = random_regular(34, 16, seed=3)
        assert list(np.unique(g.degrees())) == [16]

    def test_parity_required(self):
        with pytest.raises(ValueError, match="even"):
            random_regular(5, 3, seed=0)

    def test_d_below_n(self):
        with pytest.raises(ValueError, match="d < n"):
            random_regular(4, 4, seed=0)

    def test_deterministic(self):
        a = random_regular(30, 4, seed=7)
        b = random_regular(30, 4, seed=7)
        c = random_regular(30, 4, seed=8)
        assert a == b
        assert a != c


class TestGirth5Regular:
    def test_five_vertices_gives_the_pentagon(self):
        g = random_girth5_regular(5, 2, seed=0)
        assert girth(g) == 5

    def test_petersen_parameters(self):
        g = random_girth5_regular(10, 3, seed=1)
        assert girth(g) >= 5
        assert list(np.unique(g.degrees())) == [3]

    def test_swap_repair_regime(self):
        g = random_girth5_regular(100, 4, seed=2)
        assert girth(g) >= 5
        assert list(np.unique(g.degrees())) == [4]

    def test_incidence_graph_regime(self):
        g = random_girth5_regular(1986, 32, seed=3)
        assert list(np.unique(g.degrees())) == [32]
        assert girth(g) >= 5

    def test_too_dense_for_any_strategy_fails_clearly(self):
        # at this density only near-extremal structures exist and none has
        # this exact order; the generator must refuse, not loop forever
        with pytest.raises(GenerationError, match="n=1986"):
            random_girth5_regular(2000, 32, seed=4)

    def test_moore_bound_headroom_enforced(self):
        with pytest.raises(ValueError, match="headroom"):
            random_girth5_regular(9, 3, seed=0)

    def test_deterministic(self):
        a = random_girth5_regular(100, 4, seed=11)
        b = random_girth5_regular(100, 4, seed=11)
        assert a == b


class TestIncidenceGraph:
    def test_order_three(self):
        g = incidence_graph(3, seed=0)  # 2*(9+3+1) = 26 vertices, 4-regular
        assert g.vertex_count == 26
        assert list(np.unique(g.degrees())) == [4]
        assert girth(g) == 6

    def test_requires_prime(self):
        with pytest.raises(ValueError, match="prime"):
            incidence_graph(4, seed=0)

    def test_relabeling_depends_on_seed(self):
        assert incidence_graph(3, seed=0) != incidence_graph(3, seed=1)


class TestGirth5Auxiliary:
    def test_degree_zero(self):
        g = girth5_auxiliary(0, seed=0)
        assert g.vertex_count == 1 and g.num_edges == 0

    def test_degree_one_is_single_edge(self):
        g = girth5_auxiliary(1, seed=0)
        assert g.vertex_count == 2 and g.num_edges == 1

    def test_degree_two_is_pentagon(self):
        g = girth5_auxiliary(2, seed=0)
        assert g.vertex_count == 5 and girth(g) == 5

    @pytest.mark.parametrize("degree", [*range(3, 21), 31, 40])
    def test_biaffine_plane_is_regular_with_girth_six(self, degree):
        # q is the least prime >= N; q = N itself gives 4-cycles when N is composite
        q = next(p for p in range(degree, 2 * degree) if all(p % f for f in range(2, p)))
        g = girth5_auxiliary(degree, seed=degree)
        assert g.vertex_count == 2 * degree * q
        assert list(np.unique(g.degrees())) == [degree]
        assert girth(g) == 6

    def test_relabeling_depends_on_seed(self):
        assert girth5_auxiliary(5, seed=0) != girth5_auxiliary(5, seed=1)


class TestRandomDpCover:
    def test_rho_zero_no_cover_edges(self):
        cov = random_dp_cover(cycle_graph(6), 3, 0.0, seed=0)
        assert cov.cover.num_edges == 0
        assert validate(cov) == []

    def test_rho_one_k2_perfect_matching(self):
        cov = random_dp_cover(Graph.from_edges(2, [(0, 1)]), 3, 1.0, seed=1)
        assert cov.cover.num_edges == 3
        assert list(np.unique(cov.cover.degrees())) == [1]

    def test_rho_one_degree_equals_base_degree(self):
        base = random_regular(12, 4, seed=2)
        cov = random_dp_cover(base, 5, 1.0, seed=3)
        assert list(np.unique(cov.cover.degrees())) == [4]
        assert validate(cov) == []

    def test_half_rho_on_four_cycle(self):
        base = cycle_graph(4)
        counts = []
        for seed in range(800):
            cov = random_dp_cover(base, 4, 0.5, seed=seed)
            assert cov.cover.degrees().max() <= 2
            counts.append(cov.cover.num_edges / base.num_edges)
        mean = float(np.mean(counts))
        se = float(np.std(counts)) / math.sqrt(len(counts))
        assert abs(mean - 2.0) <= 3 * se + 1e-9  # Binomial(4, 1/2) edge count

    def test_deterministic(self):
        base = cycle_graph(8)
        a = random_dp_cover(base, 4, 0.7, seed=5)
        b = random_dp_cover(base, 4, 0.7, seed=5)
        assert a.cover == b.cover


class TestKstFreeBipartite:
    def test_one_one_is_empty(self):
        g = kst_free_bipartite(4, 3, 1, 1, seed=0)
        assert g.num_edges == 0

    def test_two_two_verified_free(self):
        g = kst_free_bipartite(4, 4, 2, 2, seed=1)
        assert not contains_kst_oracle(g, 2, 2, left=range(4), right=range(4, 8))

    def test_edge_bound_over_grid(self):
        for seed, (m, n, s, t) in enumerate([
                (6, 4, 2, 2), (8, 8, 2, 3), (10, 5, 3, 2), (12, 9, 3, 3),
                (7, 7, 1, 2), (9, 6, 2, 1)]):
            g = kst_free_bipartite(m, n, s, t, seed=seed)
            assert g.num_edges <= kst_edge_bound(m, n, s, t)

    def test_orientation_enforced(self):
        with pytest.raises(ValueError, match="m >= n"):
            kst_free_bipartite(3, 5, 2, 2, seed=0)

    def test_deterministic(self):
        a = kst_free_bipartite(8, 6, 2, 2, seed=9)
        b = kst_free_bipartite(8, 6, 2, 2, seed=9)
        assert a == b

    def test_failed_verification_raises_generation_error(self, monkeypatch):
        # the final check must survive python -O, and the CLI maps it to exit 3
        from click.testing import CliRunner
        from dpnibble import generators
        from dpnibble.cli import main
        monkeypatch.setattr(generators, "contains_kst", lambda *a, **k: True)
        with pytest.raises(GenerationError, match="K_"):
            kst_free_bipartite(4, 4, 2, 2, seed=1)
        r = CliRunner().invoke(main, ["generate", "--kind", "kst_free_bipartite",
                                      "--m", "4", "--n", "4", "--s", "2",
                                      "--t", "2", "--seed", "1"])
        assert r.exit_code == 3, r.output
