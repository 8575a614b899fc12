import hashlib
import io
import json
import tracemalloc
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpnibble import (DpCover, Graph, contains_kst, cover_from_json, cover_to_json,
                      from_list_assignment, max_degree, regularize, uniform_list_cover,
                      validate)
from dpnibble import cover as cover_module
from dpnibble import generators
from dpnibble.cover import require_valid
from dpnibble.errors import CoverValidationError, GenerationError
from dpnibble.generators import random_dp_cover, random_girth5_regular, random_regular
from dpnibble.nibble import ResidualView, RoundParams, run_round

from conftest import (RewrittenOnRewind, cycle_graph, defective_cover, path_graph,
                      random_graph, regular_cover, validate_reference)


def drop_cover_edges(cov: DpCover, count: int, seed: int) -> DpCover:
    """Remove `count` randomly chosen cover edges (test instrumentation)."""
    rng = np.random.default_rng(seed)
    edges = cov.cover.edge_array()
    keep = np.ones(len(edges), dtype=bool)
    keep[rng.choice(len(edges), size=count, replace=False)] = False
    smaller = Graph.from_edges(cov.num_colors, [tuple(e) for e in edges[keep]])
    return DpCover(cov.base, smaller, cov.list_sizes(), cov.lcolors)


# sha256 of cover_to_json(regularize(...)) for c06-style covers, keyed by
# (base order, list size, cover edges dropped, seed): dropping 1, 2 or 3
# edges leaves a total deficiency of 2, 4 or 6, so the auxiliary graph is the
# pentagon or the biaffine plane on 40 or 84 vertices.  The drop-1 digests
# were recorded when regularize still consumed per-copy queues of deficient
# colors; the others when the biaffine plane replaced a sampled graph.
REGULARIZED = {
    (30, 1, 1, 40): "dc7198f6e45ef53c0eeb153f7fa8302448e02abf785a12bde0f8908fc7ec7cf8",
    (30, 1, 2, 41): "584e3cc7227ba6146ff50bb9553594c5bfcb36d08438633688469cd53d3fa3fb",
    (30, 1, 3, 42): "d6296ab391d43fe8fa48eb3d2808738e36f1eb6ef9cb590375ca938f4385854a",
    (30, 2, 1, 43): "d0fb80a01d72be0ea6223e3b3d6f6a04bad0d22f730880c7e07b25470d51b8ee",
    (30, 2, 2, 44): "b129d8e2b5651c32e2101df2ba3938c91758a0301db739ef85d3f6939c9d4f64",
    (30, 2, 3, 45): "643539ee630bdaa7a3071886b10882e4a695d41af20cfe242607547cac458220",
    (30, 3, 1, 46): "22288f35e6a35050ca042768292b38c2aebf5816d512878a20c59c5ace4e340d",
    (30, 3, 2, 47): "85225a4de48e360a02df4d252e447ef33d495fcbfaac8d58ac3f058f1bb2cd04",
    (30, 3, 3, 48): "f024543f56d96b23422a2b98f987e652ba60db146a7c39a83667a7576b6504b4",
    (30, 4, 1, 49): "2020ca66dd5c67965342078212c355d7ea0b40147d9497e12de7f6fd0d276cf9",
    (30, 4, 2, 50): "b56e605c8ef9fbbbd55e57786b3b2e28eda9f8ad16866ae79624ac9d786f6034",
    (30, 4, 3, 51): "bcc64c0781cd3bd226e7147224265259086ab9322196bede41cce5b35e9f8895",
    (40, 1, 1, 52): "49b541e9ff0aab17eb25c1faeb15078d40667d46c0fbe52dcc34d89859eca5eb",
    (40, 1, 2, 53): "586ea7df792c889beea5fd87f9d3635b12fc98ec73508fa185acffbd3269ded3",
    (40, 1, 3, 54): "3adb8537a1935c2ddc247f45d7ac53c8e5e753865edfa9bb1650e17a0646330e",
    (40, 2, 1, 55): "b6c14f25a2f853124059d4383c9599cabaaf1c06deb373ad079c701ef5f4cb99",
    (40, 2, 2, 56): "cdbdf983fe08f0e81a5b09904e09800dd95117aaac81af43ff71fa6e88f43b7b",
    (40, 2, 3, 57): "6724654c2b06a49b66962bd588fafd8cd14ec87c4495542bdf8a164693d93a9b",
    (40, 3, 1, 58): "49057d7bc1376c88c999e2eafbba44ba26b891783d469593dfd7661e35d761bc",
    (40, 3, 2, 59): "1c0cc7e8d4ab0e546ac479b1f27b0dab9637ff5782c3370443c7ffca141bb037",
    (40, 3, 3, 60): "239b91180b413ea263eea8b7421e5668a94437bece5d5b7af0e0a6d6c68ab20e",
    (40, 4, 1, 61): "352c6caf1231a9762bf36a48b23afec1e94003a878ba7d8fb48971a1b515a54b",
    (40, 4, 2, 62): "09fb0ea869385fb83443b62b28f349caf35bcde92de846dffd4134e56d24ba6a",
    (40, 4, 3, 63): "a9e6b3a2c080256b8736a4fca58be359fcc1807e7cc216ec40c2bc8bc73914fc",
    (100, 4, 2, 74): "0275d11f8f5823ec5472c31265a61a95e9a505750622af0ed2fa94e7b2bb20c9",
    (100, 4, 3, 75): "7594fc890d7c02630bc42a2886b07b57c1e9f5c7c577764dd1c32862729a076f",
}
# list covers on paths, regularized with seed 5, keyed by (path order, labels
# per vertex, target degree): an end color misses two or more cover edges,
# so a copy's stubs repeat it
REGULARIZED_PATHS = {
    (2, 1, 3): "5d133a0eebba09ce5f9f7640c50693fbb4ae806d45af5a74a110e67d06a72965",
    (3, 1, 3): "b929134a50bd88ddaa1a6d02d49849df1cbc0e626cb396c8fd95782768ee56b4",
    (3, 2, 2): "4258f346df07247a156a7c05d8a40c47e481dad961ea0d133f68b65744906a93",
}


class TestFromListAssignment:
    def test_k2_identical_pair_lists(self):
        g = Graph.from_edges(2, [(0, 1)])
        cov = from_list_assignment(g, [[1, 2], [1, 2]])
        assert cov.num_colors == 4
        assert cov.cover.num_edges == 2  # perfect matching between the lists
        assert cov.cover.degrees().max() == 1
        assert validate(cov) == []

    def test_single_vertex_isolated_colors(self):
        cov = from_list_assignment(Graph.empty(1), [[1, 2, 3]])
        assert cov.num_colors == 3
        assert cov.cover.num_edges == 0

    def test_empty_list_rejected(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError, match="empty"):
            from_list_assignment(g, [[1], []])

    def test_triangle_two_labels_has_no_proper_coloring(self):
        # exhaustive oracle over all label choices, compared with the same
        # search over the DP encoding
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        cov = from_list_assignment(g, [[0, 1]] * 3)
        assert cov.num_colors == 6 and cov.cover.num_edges == 6

        def list_colorable():
            return any(a != b and b != c and a != c
                       for a, b, c in product([0, 1], repeat=3))

        def dp_colorable():
            from dpnibble.analysis import verify_proper
            for picks in product(range(2), repeat=3):
                phi = np.array([cov.lists(v)[picks[v]] for v in range(3)], dtype=np.int64)
                if verify_proper(cov, phi)[0]:
                    return True
            return False

        assert not list_colorable()
        assert dp_colorable() == list_colorable()

    def test_matches_round_trip_of_list_sizes(self):
        g = random_regular(8, 3, seed=2)
        cov = from_list_assignment(g, [range(4)] * 8)
        assert list(cov.list_sizes()) == [4] * 8
        assert cov.base == g

    @pytest.mark.parametrize("as_dict", [False, True], ids=["list", "dict"])
    @pytest.mark.parametrize("seed", [3, 5, 8, 13])
    def test_matches_label_oracle(self, seed, as_dict):
        # uneven lists of string labels with repeats; colors run through each
        # vertex's sorted labels and equal labels across a base edge match
        n = 9 + seed
        g = random_graph(n, 0.4, seed=seed)
        rng = np.random.default_rng(seed + 1)
        lists = [rng.choice(list("abcdefgh"), size=rng.integers(1, 7)).tolist()
                 for _ in range(n)]
        # the mapping form, its keys in reverse order and its lists as tuples
        cov = from_list_assignment(g, {v: tuple(lists[v]) for v in reversed(range(n))}
                                   if as_dict else lists)
        labels = [sorted(set(lst)) for lst in lists]
        color = {(v, lab): i for i, (v, lab) in enumerate(
            (v, lab) for v in range(n) for lab in labels[v])}
        expected = sorted((color[u, lab], color[v, lab])
                          for u, v in g.edge_array().tolist()
                          for lab in set(labels[u]) & set(labels[v]))
        assert cov.cover.edge_array().tolist() == [list(e) for e in expected]
        assert [cov.lists(v).tolist() for v in range(n)] == [
            [color[v, lab] for lab in labels[v]] for v in range(n)]


class TestUniformListCover:
    @pytest.mark.parametrize("g, ell", [
        (random_regular(8, 3, seed=2), 4),
        (random_regular(8, 3, seed=2), 1),
        (path_graph(7), 5),
        (path_graph(7), 1),
        (random_graph(12, 0.4, seed=3), 3),
        (Graph.empty(4), 3),
        (Graph.empty(0), 2),
    ], ids=["regular", "regular-ell1", "path", "path-ell1", "irregular", "edgeless",
            "no-vertices"])
    def test_matches_from_list_assignment(self, g, ell):
        got = uniform_list_cover(g, ell)
        ref = from_list_assignment(g, [range(ell)] * g.vertex_count)
        assert got.base == ref.base and got.cover == ref.cover
        for a, b in ((got.cover.indptr, ref.cover.indptr),
                     (got.cover.indices, ref.cover.indices),
                     (got.owner, ref.owner), (got.lptr, ref.lptr),
                     (got.lcolors, ref.lcolors)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("ell", [0, -1])
    def test_empty_lists_rejected(self, ell):
        with pytest.raises(ValueError, match="vertex 0 has an empty color list"):
            uniform_list_cover(path_graph(3), ell)
        assert uniform_list_cover(Graph.empty(0), ell).num_colors == 0


class TestDpCoverInit:
    def test_unsorted_lists_are_sorted(self):
        g = Graph.from_edges(3, [(0, 1)])
        cov = DpCover.from_lists(g, Graph.empty(6), [[4, 0, 2], np.array([5]), [3, 1]])
        assert [cov.lists(v).tolist() for v in range(3)] == [[0, 2, 4], [5], [1, 3]]
        assert cov.owner.tolist() == [0, 2, 0, 2, 0, 1]

    def test_empty_lists_and_range_check(self):
        cov = DpCover.from_lists(Graph.empty(3), Graph.empty(2), [[], [1, 0], []])
        assert cov.lptr.tolist() == [0, 0, 2, 2]
        with pytest.raises(ValueError, match="color ids"):
            DpCover.from_lists(Graph.empty(2), Graph.empty(2), [[0], [2]])
        with pytest.raises(ValueError, match="one list per base vertex"):
            DpCover(Graph.empty(2), Graph.empty(2), [2], [0, 1])
        for sizes in ([1, 0], [3, -1]):
            with pytest.raises(ValueError, match="add up to the list entries"):
                DpCover(Graph.empty(2), Graph.empty(2), sizes, [0, 1])


class TestValidate:
    def test_valid_cover(self):
        cov = regular_cover(10, 3, 4, seed=1)
        assert validate(cov) == []

    def test_edge_inside_list(self):
        g = Graph.from_edges(2, [(0, 1)])
        cover_graph = Graph.from_edges(4, [(0, 1)])  # both colors belong to vertex 0
        cov = DpCover.from_lists(g, cover_graph, [[0, 1], [2, 3]])
        kinds = [v.kind for v in validate(cov)]
        assert kinds == ["list-not-independent"]

    def test_not_a_matching(self):
        g = Graph.from_edges(2, [(0, 1)])
        cover_graph = Graph.from_edges(4, [(0, 2), (0, 3)])  # color 0 matched twice
        cov = DpCover.from_lists(g, cover_graph, [[0, 1], [2, 3]])
        kinds = [v.kind for v in validate(cov)]
        assert "not-a-matching" in kinds

    def test_cover_edge_without_base_edge(self):
        g = Graph.empty(2)
        cover_graph = Graph.from_edges(2, [(0, 1)])
        cov = DpCover.from_lists(g, cover_graph, [[0], [1]])
        kinds = [v.kind for v in validate(cov)]
        assert kinds == ["cover-edge-without-base-edge"]

    def test_full_violation_list_of_several_defects(self):
        # color 1 sits in lists 0 and 2, color 9 in none; colors 0, 2 and 8
        # each have two partners in one list; 0-6 joins unadjacent vertices;
        # 6-7 lies inside list 3.  The list was recorded before validate
        # moved to a bincount and one sort.
        base = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        cover_graph = Graph.from_edges(10, [(0, 2), (0, 3), (0, 6), (1, 2), (2, 4),
                                            (3, 5), (6, 7), (3, 9), (4, 8), (5, 8)])
        cov = DpCover.from_lists(base, cover_graph, [[0, 1], [2, 3], [4, 5, 1], [6, 7, 8]])
        assert [str(v) for v in validate(cov)] == [
            "color-in-no-list(9,)",
            "color-in-multiple-lists(1,)",
            "list-not-independent(3, 6, 7)",
            "cover-edge-without-base-edge(0, 3, 0, 6)",
            "not-a-matching(1, 0)",
            "not-a-matching(2, 2)",
            "not-a-matching(2, 8)",
        ]
        assert [str(v) for v in validate(cov, max_violations=3)] == [
            "color-in-no-list(9,)", "color-in-multiple-lists(1,)",
            "list-not-independent(3, 6, 7)"]

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_refused(self, cap):
        # a cap below 1 once returned [], the answer for a valid cover
        g = Graph.from_edges(2, [(0, 1)])
        cov = DpCover.from_lists(g, Graph.from_edges(4, [(0, 1)]), [[0, 1], [2, 3]])
        with pytest.raises(ValueError, match="max_violations must be >= 1"):
            validate(cov, max_violations=cap)

    def test_thrice_matched_color_reported_once(self):
        g = Graph.from_edges(2, [(0, 1)])
        cover_graph = Graph.from_edges(6, [(0, 3), (0, 4), (0, 5)])
        cov = DpCover.from_lists(g, cover_graph, [[0, 1, 2], [3, 4, 5]])
        assert [str(v) for v in validate(cov)] == ["not-a-matching(1, 0)"]

    @pytest.mark.parametrize("block", [1, 64, cover_module._VALIDATE_BLOCK, 1 << 16])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [40, 4096, 4097])
    def test_matches_reference_in_row_blocks(self, monkeypatch, block, seed, n):
        # over 4,600 cover CSR entries: a block of 64 entries splits them
        # into about 75 blocks, a block of 1 gives each row its own.  Up to
        # 4,096 base vertices the base edges are looked up in a bitset, above
        # by a search: the sparse covers sit on both sides of that gate.
        monkeypatch.setattr(cover_module, "_VALIDATE_BLOCK", block)
        cov = (defective_cover(seed) if n == 40 else
               defective_cover(seed, n, colors=1200, edges=400, base_edges=3 * n))
        full = [str(v) for v in validate_reference(cov, 10 ** 9)]
        assert {s[:s.index("(")] for s in full} == {
            "color-in-no-list", "color-in-multiple-lists", "list-not-independent",
            "cover-edge-without-base-edge", "not-a-matching"}
        for cap in (1000, 1300, 50, 3, 10 ** 9):
            assert [str(v) for v in validate(cov, cap)] == full[:cap]
        ok = regular_cover(30, 4, 6, seed=seed)
        assert validate(ok) == validate_reference(ok) == []

    def test_require_valid_raises(self):
        g = Graph.empty(2)
        cov = DpCover.from_lists(g, Graph.from_edges(2, [(0, 1)]), [[0], [1]])
        with pytest.raises(CoverValidationError):
            require_valid(cov)
        with pytest.raises(CoverValidationError):  # a refusal is not kept
            require_valid(cov)

    def test_require_valid_validates_once(self):
        cov = regular_cover(10, 3, 4, seed=1)
        with mock.patch.object(cover_module, "validate", wraps=validate) as spy:
            assert require_valid(require_valid(cov)) is cov
        assert spy.call_count == 1


class TestResidual:
    def test_identity_when_nothing_colored(self):
        cov = regular_cover(10, 3, 4, seed=6)
        view = ResidualView(cov)
        assert np.all(view.color < 0) and view.alive.all()
        assert np.array_equal(view.vertices, np.arange(10))
        assert np.array_equal(view.list_sizes(), cov.list_sizes())
        assert np.array_equal(view.deg, cov.cover.degrees())
        assert view.max_degree() == max_degree(cov.cover)

    def test_empty_when_all_colored(self):
        cov = from_list_assignment(Graph.empty(3), [[0]] * 3)
        outcome = run_round(cov, RoundParams(eta=1.0, d=1, ell=1, beta=0.1), seed=0)
        assert list(outcome.phi) == [0, 1, 2]
        view = outcome.residual
        assert view.vertices.size == 0 and not view.alive.any()
        assert view.list_sizes().size == 0
        assert view.max_degree() == 0

    def test_round_outcome_residual_avoids_image(self):
        cov = regular_cover(12, 4, 6, seed=7)
        outcome = run_round(cov, RoundParams(eta=0.5, d=4, ell=6, beta=0.02), seed=3)
        view = outcome.residual
        assert view is outcome.view  # advanced in place
        image = set(outcome.phi[outcome.phi >= 0].tolist())
        for col in np.flatnonzero(view.alive):
            for nb in cov.cover.neighbors(int(col)):
                assert int(nb) not in image
        # residual vertex i is the i-th blank vertex; its list is its root
        # list through `alive`, and alive colors belong to blank vertices only
        assert np.array_equal(view.vertices, np.flatnonzero(outcome.phi < 0))
        assert np.all(view.color[cov.owner[view.alive]] < 0)
        for i, v in enumerate(view.vertices):
            assert view.list_sizes()[i] == np.count_nonzero(view.alive[cov.lists(int(v))])

    def test_kept_must_be_subset(self):
        # alive colors belong to blank vertices only, and the kept counts
        # match the masks after every round
        cov = regular_cover(16, 4, 8, seed=8)
        view = ResidualView(cov)
        p = RoundParams(eta=0.5, d=4, ell=8, beta=0.02)
        for seed in range(5):
            view = run_round(view, p, seed).residual
            assert np.all(view.color[cov.owner[view.alive]] < 0)
            assert np.array_equal(
                view.sizes, np.bincount(cov.owner[view.alive], minlength=16))
            live = np.flatnonzero(view.alive)
            src = np.repeat(np.arange(cov.num_colors), cov.cover.degrees())
            alive_nbrs = np.bincount(src[view.alive[cov.cover.indices]],
                                     minlength=cov.num_colors)
            assert np.array_equal(view.deg[live], alive_nbrs[live])


class TestRegularize:
    def test_already_regular_is_identity(self):
        cov = regular_cover(10, 3, 4, seed=9)
        assert regularize(cov, 3, seed=1) is cov

    def test_single_vertex_single_color(self):
        cov = from_list_assignment(Graph.empty(1), [[0]])
        out = regularize(cov, 1, seed=1)
        assert out.base.vertex_count == 2
        assert out.num_colors == 2
        assert out.cover.num_edges == 1
        assert list(out.cover.degrees()) == [1, 1]
        assert validate(out) == []

    def test_max_degree_one_below_target(self):
        # every color deficient by one: K2 base, single-color lists, d = 2
        cov = from_list_assignment(Graph.from_edges(2, [(0, 1)]), [[0], [0]])
        assert max_degree(cov.cover) == 1
        out = regularize(cov, 2, seed=3)
        degs = out.cover.degrees()
        assert degs.min() == degs.max() == 2
        assert validate(out) == []
        assert not contains_kst(out.cover, 2, 2)

    @pytest.mark.parametrize("seed,drop", [(1, 1), (2, 2), (3, 3), (4, 4)])
    def test_random_deficient_covers(self, seed, drop):
        base = random_girth5_regular(30, 3, seed=seed)
        cov = random_dp_cover(base, 4, 1.0, seed=seed + 10)
        cov = drop_cover_edges(cov, drop, seed=seed + 20)
        out = regularize(cov, 3, seed=seed + 30)
        degs = out.cover.degrees()
        assert degs.min() == degs.max() == 3
        assert validate(out) == []
        # copy 0 embeds the input edge-for-edge
        k = cov.num_colors
        inner = out.cover.edge_array()
        inner = inner[(inner < k).all(axis=1)]
        assert np.array_equal(inner, cov.cover.edge_array())
        # freeness preserved
        assert not contains_kst(cov.cover, 2, 2)
        assert not contains_kst(out.cover, 2, 2)

    def test_rejects_degree_above_target(self):
        cov = regular_cover(10, 4, 3, seed=11)
        with pytest.raises(ValueError, match="exceeds"):
            regularize(cov, 3, seed=1)

    @pytest.mark.parametrize("n, ell, drop, seed", sorted(REGULARIZED))
    def test_recorded_digests(self, n, ell, drop, seed):
        base = random_girth5_regular(n, 3, seed=seed)
        cov = drop_cover_edges(random_dp_cover(base, ell, 1.0, seed=seed + 10), drop, seed + 20)
        out = regularize(cov, 3, seed=seed + 30)
        digest = hashlib.sha256(cover_to_json(out).encode()).hexdigest()
        assert digest == REGULARIZED[n, ell, drop, seed]

    @pytest.mark.parametrize("n, labels, d", sorted(REGULARIZED_PATHS))
    def test_recorded_digests_repeated_stubs(self, n, labels, d):
        cov = from_list_assignment(path_graph(n), [range(labels)] * n)
        out = regularize(cov, d, seed=5)
        digest = hashlib.sha256(cover_to_json(out).encode()).hexdigest()
        assert digest == REGULARIZED_PATHS[n, labels, d]

    def test_auxiliary_of_wrong_degree_refused(self, monkeypatch):
        # total deficiency 2, but vertex 0 of the pentagon gets a third edge
        wrong = Graph.from_edges(6, [(i, (i + 1) % 5) for i in range(5)] + [(0, 5)])
        monkeypatch.setattr(generators, "girth5_auxiliary", lambda *args, **kwargs: wrong)
        cov = from_list_assignment(path_graph(2), [[0], [0]])
        with pytest.raises(GenerationError, match="not 2-regular"):
            regularize(cov, 2, seed=1)

    def test_freeness_preserved_up_to_three_by_three(self):
        base = random_girth5_regular(30, 3, seed=21)
        # total deficiency 4 and 8: the biaffine plane over F_5 and over F_11
        for drop in (2, 4):
            cov = drop_cover_edges(random_dp_cover(base, 3, 1.0, seed=22), drop, seed=23)
            out = regularize(cov, 3, seed=24)
            for s, t in [(2, 2), (2, 3), (3, 2), (3, 3)]:
                assert contains_kst(cov.cover, s, t) == contains_kst(out.cover, s, t)


class TestCoverJson:
    def test_roundtrip(self):
        cov = regular_cover(8, 3, 4, seed=12)
        again = cover_from_json(cover_to_json(cov))
        assert again.base == cov.base
        assert again.cover == cov.cover
        assert all(np.array_equal(a, b)
                   for a, b in zip(again.all_lists(), cov.all_lists()))

    def test_loader_refuses_invalid(self):
        g = Graph.empty(2)
        bad = DpCover.from_lists(g, Graph.from_edges(2, [(0, 1)]), [[0], [1]])
        text = cover_to_json(bad)
        with pytest.raises(CoverValidationError):
            cover_from_json(text)

    def test_byte_identical_serialization(self):
        cov = regular_cover(8, 3, 4, seed=12)
        assert cover_to_json(cov) == cover_to_json(cov)


# vertex and color counts whose largest id crosses 9/10, 99/100 or 999/1000
DIGIT_BOUNDARY_COUNTS = [1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001]


@st.composite
def digit_boundary_covers(draw):
    """Covers, valid or not, with random edges and lists; the largest id of
    each graph is on one of its edges."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def graph(count):
        m = draw(st.integers(0, 3 * count)) if count > 1 else 0
        pairs = np.sort(rng.integers(0, count, size=(m, 2)), axis=1)
        if count > 1:
            pairs = np.vstack([pairs, [[count - 2, count - 1]]])
        return Graph.from_edges(count, np.unique(pairs[pairs[:, 0] < pairs[:, 1]], axis=0))

    n = draw(st.sampled_from(DIGIT_BOUNDARY_COUNTS))
    k = draw(st.sampled_from(DIGIT_BOUNDARY_COUNTS))
    cuts = np.sort(rng.integers(0, k + 1, size=n - 1))
    return DpCover(graph(n), graph(k), np.diff(cuts, prepend=0, append=k), rng.permutation(k))


def dumped(c: DpCover) -> str:
    """The canonical document by ``json.dumps`` of the cover's dict form."""
    doc = {"base": {"vertex_count": c.base.vertex_count,
                    "edges": c.base.edge_array().tolist()},
           "cover_edges": c.cover.edge_array().tolist(),
           "lists": [lst.tolist() for lst in c.all_lists()]}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


class TestCoverToJson:
    @settings(max_examples=80, deadline=None)
    @given(digit_boundary_covers())
    def test_matches_json_dumps(self, c):
        assert cover_to_json(c) == dumped(c)

    @pytest.mark.parametrize("c", [
        uniform_list_cover(Graph.empty(12), 1),
        uniform_list_cover(Graph.empty(0), 1),
        DpCover.from_lists(path_graph(11), Graph.empty(101), [[100], *([v] for v in range(10))]),
    ], ids=["no-edges", "no-vertices", "no-cover-edges"])
    def test_matches_json_dumps_without_edges(self, c):
        assert cover_to_json(c) == dumped(c)


def load_outcome(text: str, fast: bool = True):
    """The arrays ``cover_from_json`` builds from ``text``, or the type and
    message of what it raised; ``fast=False`` turns the canonical path off."""
    try:
        if fast:
            cov = cover_from_json(text)
        else:
            with mock.patch.object(cover_module, "_canonical_parts", return_value=None):
                cov = cover_from_json(text)
    except Exception as exc:
        return type(exc), str(exc)
    return [a.tolist() for a in (cov.base.indptr, cov.base.indices, cov.cover.indptr,
                                 cov.cover.indices, cov.owner, cov.lptr, cov.lcolors)]


@st.composite
def canonical_covers(draw):
    d = draw(st.integers(1, 4))
    n = 2 * draw(st.integers(d // 2 + 1, 6))
    g = random_regular(n, d, seed=draw(st.integers(0, 999)))
    cov = random_dp_cover(g, draw(st.integers(1, 4)), draw(st.sampled_from([0.5, 1.0])),
                          seed=draw(st.integers(0, 999)))
    return cover_to_json(cov)


MUTATION_BYTES = '0123456789[],:-." {}etx\n'


# edits that make a canonical document non-canonical
NON_CANONICAL_EDITS = [
    ('"cover_edges":[[', '"cover_edges":[[0'),        # leading zero
    (",[0,17],", ",0[,17],"),                         # an id moved out of its pair
    ('"cover_edges":[[', '"cover_edges":[[ '),        # whitespace
    ('"cover_edges":[[', '"cover_edges":[[-'),        # negative id
    ('"cover_edges":[[', f'"cover_edges":[[{2 ** 70}'),  # overflow
    ('"cover_edges":[[', f'"cover_edges":[[{10 ** 19 - 1},0],['),  # 19 digits saturate
    ('"cover_edges":[[', '"cover_edges":[[true,1],['),
    ("]],\"lists\"", "],],\"lists\""),                 # trailing comma
    ("]],\"lists\"", "],[1,]],\"lists\""),             # missing id
    ("]],\"lists\"", "]],\"cover_edges\":[],\"lists\""),  # second key
    ('{"base":{', '{"base":{"cover_edges":[[0,1]],'),  # key inside base
    ('{"base":', '{"a":1,"base":'),                  # key before base
    ("]],\"lists\"", "]], \"lists\""),
    ("}\n", "}\n\n"),                                 # a byte after the layout
]


def assert_edit_takes_json_loads(old: str, new: str):
    text = cover_to_json(regular_cover(8, 3, 4, seed=12))
    assert cover_module._canonical_parts(io.BytesIO(text.encode())) is not None
    text = text.replace(old, new, 1)
    assert cover_module._canonical_parts(io.BytesIO(text.encode())) is None
    assert load_outcome(text) == load_outcome(text, fast=False)


class TestCanonicalFastPath:
    """Canonical cover files skip ``json.loads``; every other text must load,
    or be refused, exactly as ``json.loads`` reads it."""

    @settings(max_examples=60, deadline=None)
    @given(canonical_covers())
    def test_valid_covers_agree(self, text):
        assert cover_module._canonical_parts(io.BytesIO(text.encode())) is not None
        assert load_outcome(text) == load_outcome(text, fast=False)
        assert load_outcome(text.encode()) == load_outcome(text)

    @pytest.mark.parametrize("lists", [[], [[]], [[0], [], [1, 2]], [[0, 1], [2]]])
    def test_empty_parts_take_the_fast_path(self, lists):
        # no vertices, no edges, empty lists: the document is still canonical
        cov = DpCover.from_lists(Graph.empty(len(lists)), Graph.empty(3), lists)
        text = cover_to_json(cov)
        assert cover_module._canonical_parts(io.BytesIO(text.encode())) is not None
        assert load_outcome(text) == load_outcome(text, fast=False)

    def test_many_small_lists_take_the_fast_path(self):
        # 50,000 lists of 0-3 entries and no edges: the check renders the
        # lists from a table of one zero list per size
        rng = np.random.default_rng(33)
        sizes = rng.integers(0, 4, 50_000)
        total = int(sizes.sum())
        cov = DpCover(Graph.empty(sizes.size), Graph.empty(total), sizes, rng.permutation(total))
        text = cover_to_json(cov).encode()
        parts = cover_module._canonical_parts(io.BytesIO(text))
        want = cover_module._json_parts(io.BytesIO(text))
        assert parts is not None and parts[0] == want[0] == sizes.size
        for got, exp in zip(parts[1:], want[1:]):
            assert np.array_equal(got, exp)
        assert np.array_equal(parts[3], sizes)

    @settings(max_examples=300, deadline=None)
    @given(canonical_covers(), st.data())
    def test_single_byte_mutations_agree(self, text, data):
        at = data.draw(st.integers(0, len(text) - 1))
        text = text[:at] + data.draw(st.sampled_from(MUTATION_BYTES)) + text[at + 1:]
        assert load_outcome(text) == load_outcome(text, fast=False)

    @settings(max_examples=300, deadline=None)
    @given(canonical_covers(), st.data())
    def test_adjacent_transpositions_agree(self, text, data):
        at = data.draw(st.integers(0, len(text) - 2))
        text = text[:at] + text[at + 1] + text[at] + text[at + 2:]
        assert load_outcome(text) == load_outcome(text, fast=False)

    @settings(max_examples=150, deadline=None)
    @given(canonical_covers(), st.integers(1, 8), st.booleans(), st.data())
    def test_blocks_of_a_few_bytes_agree(self, text, block, mutate, data):
        # parse blocks of a few bytes put their boundaries next to and after
        # runs of digits all through a short document
        if mutate:
            at = data.draw(st.integers(0, len(text) - 1))
            text = text[:at] + data.draw(st.sampled_from(MUTATION_BYTES)) + text[at + 1:]
        whole = cover_module._canonical_parts(io.BytesIO(text.encode()))
        with mock.patch.object(cover_module, "_PARSE_BLOCK", block):
            parts = cover_module._canonical_parts(io.BytesIO(text.encode()))
            assert load_outcome(text) == load_outcome(text, fast=False)
        assert (parts is None) == (whole is None)
        if parts is not None:
            assert parts[0] == whole[0]
            for got, want in zip(parts[1:], whole[1:]):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("old, new", NON_CANONICAL_EDITS)
    def test_non_canonical_text_takes_json_loads(self, old, new):
        assert_edit_takes_json_loads(old, new)

    @pytest.mark.parametrize("block", [1, 3])
    @pytest.mark.parametrize("old, new", NON_CANONICAL_EDITS)
    def test_non_canonical_text_refused_in_blocks_of_a_few_bytes(self, monkeypatch, block, old,
                                                                  new):
        monkeypatch.setattr(cover_module, "_PARSE_BLOCK", block)
        assert_edit_takes_json_loads(old, new)


class Unseekable(io.BytesIO):
    """A binary stream that cannot seek, as a pipe."""

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("File or stream is not seekable.")


# a canonical cover with a wrong vertex_count, and one with a trailing comma
REFUSED_EDITS = [('"vertex_count":8', '"vertex_count":9'), ("]],\"lists\"", "],],\"lists\"")]


class TestFileSource:
    """A cover file is read in blocks, once for the layout and once for the
    numbers, and loads as its bytes do."""

    @pytest.mark.parametrize("kind", ["str", "bytes", "file", "stream"])
    @pytest.mark.parametrize("edit", [None, "dumped", *REFUSED_EDITS],
                             ids=["canonical", "dumped", "refused-canonical", "refused-json"])
    def test_every_source_kind_loads_alike(self, tmp_path, kind, edit):
        text = cover_to_json(regular_cover(8, 3, 4, seed=12))
        if edit == "dumped":
            text = json.dumps(json.loads(text))
        elif edit is not None:
            assert edit[0] in text
            text = text.replace(*edit, 1)
        path = tmp_path / "cover.json"
        path.write_text(text)
        with open(path, "rb") as fh:
            source = {"str": text, "bytes": text.encode(), "file": fh,
                      "stream": Unseekable(text.encode())}[kind]
            outcome = load_outcome(source)
        # every kind loads as json.loads reads the text
        assert outcome == load_outcome(text, fast=False)
        assert isinstance(outcome, tuple) == (edit in REFUSED_EDITS)

    @pytest.mark.parametrize("block", [3, 1 << 18])
    @pytest.mark.parametrize("which", [0, -1])
    def test_file_changed_between_the_passes_refused(self, monkeypatch, block, which):
        # np.fromstring reads past a block that holds fewer numbers than the
        # first pass counted, so the second pass must read the same bytes
        monkeypatch.setattr(cover_module, "_PARSE_BLOCK", block)
        text = cover_to_json(regular_cover(8, 3, 4, seed=12)).encode()
        at = [i for i, b in enumerate(text) if b in b"0123456789"][which]
        changed = text[:at] + bytes([48 + (text[at] - 47) % 10]) + text[at + 1:]
        assert load_outcome(RewrittenOnRewind(text, text)) == load_outcome(text)
        with pytest.raises(ValueError, match="^the cover file changed while it was read$"):
            cover_from_json(RewrittenOnRewind(text, changed))

    def test_stream_that_cannot_seek_is_read_whole(self):
        text = cover_to_json(regular_cover(8, 3, 4, seed=12)).encode()
        assert load_outcome(Unseekable(text)) == load_outcome(text)
        assert load_outcome(Unseekable(text + b" ")) == load_outcome(text + b" ", fast=False)

    def test_non_canonical_file_takes_json_loads(self, tmp_path):
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(json.loads(cover_to_json(regular_cover(8, 3, 4, seed=12)))))
        with open(path, "rb") as fh:
            assert load_outcome(fh) == load_outcome(path.read_text(), fast=False)


def test_loading_a_file_holds_one_array_of_its_numbers(tmp_path):
    # the numbers of this document take 1.2x its size as int64, and the cover
    # graph is built inside them; holding the file's bytes whole as well, or a
    # second array of directed keys, passes 2x
    path = tmp_path / "cover.json"
    path.write_text(cover_to_json(random_dp_cover(random_regular(2000, 16, 1), 48, 1.0, 2)))
    tracemalloc.start()
    try:
        with open(path, "rb") as fh:
            cover_from_json(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * path.stat().st_size


def test_loading_takes_a_few_times_the_file_size():
    # a load through Python lists and whole-cover edge temporaries peaks
    # near 10x the file; the one-pass parse and block-wise validate near 3x
    text = cover_to_json(random_dp_cover(random_regular(1000, 8, 1), 32, 1.0, 2))
    tracemalloc.start()
    try:
        cover_from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * len(text)


def test_validate_holds_one_small_block_of_temporaries():
    # 256,000 cover CSR entries; a block's temporaries take about 56 bytes an
    # entry, so 2^16-entry blocks trace 3.8 MB above the per-color count and
    # 2^14-entry blocks 1.0 MB.  The cover's own arrays are made untraced.
    cov = random_dp_cover(random_regular(1000, 8, 1), 32, 1.0, 2)
    assert cov.cover.indices.size > 2 ** 16
    tracemalloc.start()
    try:
        assert validate(cov) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 8 * cov.num_colors <= 2 * 2 ** 20
