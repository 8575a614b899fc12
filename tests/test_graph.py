import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpnibble import Graph, contains_kst, girth, graph_from_text, graph_to_text, kst_edge_bound, max_degree
from dpnibble.errors import BudgetExceededError
from dpnibble import graph as graph_module
from dpnibble.generators import incidence_graph

from conftest import (contains_kst_oracle, cycle_graph, girth_by_cycle_enumeration,
                      path_graph, random_graph, star_graph)


class TestGraphBasics:
    def test_from_edges_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(3, [(0, 0)])

    def test_from_edges_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    @pytest.mark.parametrize("edges", [[(1, 2), (0, 1), (1, 2)],
                                       np.array([[2, 0], [0, 1], [0, 2]])])
    def test_from_edges_rejects_separated_duplicates(self, edges):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edges(3, edges)

    def test_from_edges_any_order_same_graph(self):
        edges = random_graph(30, 0.3, seed=5).edge_array()
        shuffled = np.random.default_rng(6).permutation(edges)[:, ::-1]
        assert Graph.from_edges(30, shuffled) == Graph.from_edges(30, edges)

    def test_from_edges_rejects_bad_ids(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(3, [(0, 3)])

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1), (2, 3)], r"edge endpoint out of range \[0, 3\)"),
        ([(0, 1), (2, 2)], "self-loop at vertex 2"),
        ([(0, 1), (1, 2), (1, 0)], "duplicate edge in edge list"),
    ])
    def test_refusals_keep_their_messages(self, edges, message):
        for in_place in (False, True):
            e = np.array(edges, dtype=np.int64)
            with pytest.raises(ValueError, match=f"^{message}$"):
                Graph.from_pairs(3, e) if in_place else Graph.from_edges(3, e)

    def test_from_edges_leaves_its_input_alone(self):
        e = random_graph(40, 0.3, seed=2).edge_array()[:, ::-1]
        before = e.copy()
        Graph.from_edges(40, e)
        assert np.array_equal(e, before)

    @pytest.mark.parametrize("block", [1, 3, 1 << 16])
    def test_in_place_build_matches_from_edges(self, monkeypatch, block):
        # blocks of a few rows put block boundaries all through the edges
        monkeypatch.setattr(graph_module, "_KEY_BLOCK", block)
        edges = np.random.default_rng(7).permutation(random_graph(30, 0.3, seed=4).edge_array())
        e = np.ascontiguousarray(edges[:, ::-1])
        g = Graph.from_pairs(30, e)
        assert g == Graph.from_edges(30, edges)
        assert np.shares_memory(g.indices, e)

    def test_symmetry_and_sorted_rows(self):
        g = random_graph(12, 0.4, seed=3)
        for v in range(12):
            row = g.neighbors(v)
            assert list(row) == sorted(set(row.tolist()))
            for w in row:
                assert v in g.neighbors(int(w))

    def test_immutable(self):
        g = cycle_graph(5)
        with pytest.raises(ValueError):
            g.indices[0] = 7

    def test_edge_array_roundtrip(self):
        g = random_graph(9, 0.5, seed=1)
        again = Graph.from_edges(9, [tuple(e) for e in g.edge_array()])
        assert again == g


class TestMaxDegree:
    def test_empty_graph(self):
        assert max_degree(Graph.empty(0)) == 0
        assert max_degree(Graph.empty(4)) == 0

    def test_five_cycle(self):
        assert max_degree(cycle_graph(5)) == 2

    def test_star_with_seven_leaves(self):
        assert max_degree(star_graph(7)) == 7


class TestGirth:
    def test_tree_is_acyclic(self):
        assert girth(path_graph(10)) == math.inf

    def test_five_cycle(self):
        assert girth(cycle_graph(5)) == 5

    def test_petersen(self, petersen):
        # oracle: brute-force simple-cycle enumeration
        assert girth_by_cycle_enumeration(petersen) == 5
        assert girth(petersen) == 5

    def test_matches_enumeration_on_random_graphs(self):
        for seed in range(40):
            g = random_graph(8, 0.3, seed=seed)
            assert girth(g) == girth_by_cycle_enumeration(g)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.floats(0.1, 0.7))
    def test_girth_property(self, seed, p):
        g = random_graph(7, p, seed=seed)
        assert girth(g) == girth_by_cycle_enumeration(g)

    # each mode forces one way through girth's levels: CSR gathers only,
    # dense products from the first level on, and blocks of one or two roots
    MODES = {
        "sparse": {"_GIRTH_DENSE_MAX": 0},
        "dense": {"_FLOPS_PER_GATHERED": 10 ** 9},
        "one_root_blocks": {"_GIRTH_BLOCK": 1},
        "two_root_dense_blocks": {"_GIRTH_BLOCK": 20, "_FLOPS_PER_GATHERED": 10 ** 9},
    }

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_every_level_mode_matches_enumeration(self, monkeypatch, mode):
        for name, value in self.MODES[mode].items():
            monkeypatch.setattr(graph_module, name, value)
        graphs = [random_graph(9, 0.12 + 0.5 * (seed % 6) / 6, seed=seed)
                  for seed in range(60)]
        graphs += [Graph.empty(3), path_graph(6)] + [cycle_graph(k) for k in (3, 4, 5, 6, 9)]
        for i, g in enumerate(graphs):
            exact = girth_by_cycle_enumeration(g)
            # a bound caps the search: the answer is min(girth, bound)
            for below in (3, 4, 5, 6, math.inf):
                assert girth(g, below) == min(exact, below), (i, below)

    def test_projective_plane_incidence_graph(self):
        # 1986 vertices, 32-regular, girth 6: the dense products' regime
        assert girth(incidence_graph(31, seed=0)) == 6

    @pytest.mark.parametrize("chord, length", [(None, 4100), ((0, 2), 3), ((0, 3), 4),
                                               ((0, 2050), 2051)])
    def test_long_cycle_above_dense_size(self, chord, length):
        edges = cycle_graph(4100).edge_array().tolist() + ([chord] if chord else [])
        assert girth(Graph.from_edges(4100, edges)) == length

    def test_short_cycle_probe(self):
        # the generators' girth-5 certificate
        assert girth(cycle_graph(5), 5) == 5
        assert girth(cycle_graph(4), 5) < 5
        assert girth(cycle_graph(3), 5) < 5

    @pytest.mark.parametrize("chord, short", [(None, False), ((0, 2), True), ((0, 3), True)])
    def test_short_cycle_probe_above_dense_size(self, chord, short):
        # past _GIRTH_DENSE_MAX vertices the bounded search runs on CSR gathers only
        edges = cycle_graph(4100).edge_array().tolist() + ([chord] if chord else [])
        assert (girth(Graph.from_edges(4100, edges), 5) < 5) is short


class TestContainsKst:
    def test_c8_natural_bipartition(self):
        g = cycle_graph(8)
        evens, odds = range(0, 8, 2), range(1, 8, 2)
        assert not contains_kst(g, 2, 2, left=evens, right=odds)

    def test_k33(self):
        g = Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
        assert contains_kst(g, 2, 2)
        assert contains_kst(g, 3, 3, left=range(3), right=range(3, 6))

    def test_matches_oracle_on_random_bipartite(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            edges = [(u, 6 + v) for u in range(6) for v in range(6)
                     if rng.random() < 0.45]
            g = Graph.from_edges(12, edges)
            for s, t in [(1, 2), (2, 2), (2, 3), (3, 2)]:
                got = contains_kst(g, s, t, left=range(6), right=range(6, 12))
                want = contains_kst_oracle(g, s, t, left=range(6), right=range(6, 12))
                assert got == want, (seed, s, t)

    def test_whole_graph_matches_oracle(self):
        for seed in range(15):
            g = random_graph(9, 0.45, seed=100 + seed)
            for s, t in [(2, 2), (2, 3)]:
                assert contains_kst(g, s, t) == contains_kst_oracle(g, s, t)

    def test_budget_guard(self):
        g = Graph.from_edges(40, [(u, v) for u in range(20) for v in range(20, 40)])
        with pytest.raises(BudgetExceededError):
            contains_kst(g, 5, 5, left=range(20), right=range(20, 40), budget=1000)

    def test_disjointness_required(self):
        g = cycle_graph(6)
        with pytest.raises(ValueError, match="disjoint"):
            contains_kst(g, 1, 1, left=[0, 1], right=[1, 2])


class TestKstEdgeBound:
    def test_all_ones(self):
        assert kst_edge_bound(1, 1, 1, 1) == pytest.approx(2.0)

    def test_four_four_two_two(self):
        assert kst_edge_bound(4, 4, 2, 2) == pytest.approx(math.sqrt(2) * 2 * 4 + 8, rel=1e-12)

    def test_hundred_fifty_three_two(self):
        assert kst_edge_bound(100, 50, 3, 2) == pytest.approx(
            math.sqrt(3) * 10 * 50 + 200, rel=1e-12)

    def test_requires_m_at_least_n(self):
        with pytest.raises(ValueError, match="m >= n"):
            kst_edge_bound(3, 5, 1, 1)


class TestEdgeListFormat:
    def test_roundtrip(self):
        g = random_graph(11, 0.4, seed=5)
        assert graph_from_text(graph_to_text(g)) == g

    def test_comments_ignored(self):
        g = graph_from_text("# header\np 3\n# mid\ne 0 1\ne 1 2\n")
        assert g.num_edges == 2

    @pytest.mark.parametrize("text, message", [
        ("p 2\nq 0 1\n", "line 2: unknown record 'q'"),
        ("p 3\ne 0\n", "line 2: malformed record 'e 0'"),
        ("p\n", "line 1: malformed record 'p'"),
        ("p 3\ne 0 1 2\n", "line 2: malformed record 'e 0 1 2'"),
        ("p -1\n", "line 1: negative vertex count -1"),
        ("p 2\ne 0 x\n", "line 2: non-numeric field in 'e 0 x'"),
        ("p two\n", "line 1: non-numeric field in 'p two'"),
        ("p 2\ne 0 1\ne 0 5\n", r"line 3: edge endpoint out of range \[0, 2\)"),
        ("p 3\ne 0 1\ne 2 2\n", "line 3: self-loop at vertex 2"),
        ("p 3\ne 0 1\ne 1 2\ne 1 0\n", "line 4: repeated edge 1 0"),
    ])
    def test_rejects_unknown_records(self, text, message):
        with pytest.raises(ValueError, match=message):
            graph_from_text(text)

    def test_rejects_edge_before_header(self):
        with pytest.raises(ValueError, match="before"):
            graph_from_text("e 0 1\np 2\n")
