import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpnibble import DpCover, Graph, from_list_assignment, keep_fn, uncolor_fn
from dpnibble._rng import scalar_uniform
from dpnibble import analysis
from dpnibble.analysis import (block_size, classify_structure, exact_round_expectation,
                               round_stats, stats_summary_json, stats_to_csv,
                               verify_proper)
from dpnibble.errors import BudgetExceededError
from dpnibble.nibble import RoundParams, run_round

from conftest import classify_oracle, cycle_graph, path_graph, regular_cover, star_graph


class TestVerifyProper:
    def test_empty_coloring(self):
        cov = regular_cover(8, 3, 4, seed=1)
        ok, witness = verify_proper(cov, np.full(8, -1))
        assert ok and witness is None

    def test_matched_pair_rejected_with_witness(self):
        g = Graph.from_edges(2, [(0, 1)])
        cov = from_list_assignment(g, [[0], [0]])
        phi = np.array([cov.lists(0)[0], cov.lists(1)[0]])
        ok, witness = verify_proper(cov, phi)
        assert not ok
        assert {witness.vertex_u, witness.vertex_v} == {0, 1}

    def test_unlisted_color_raises(self):
        cov = regular_cover(6, 3, 4, seed=2)
        phi = np.full(6, -1)
        phi[0] = cov.lists(1)[0]
        with pytest.raises(ValueError, match="outside its list"):
            verify_proper(cov, phi)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_full_edge_scan(self, seed):
        # random partial colorings, with conflicts planted on random cover edges
        rng = np.random.default_rng(seed)
        cov = regular_cover(int(rng.integers(3, 9)) * 2, int(rng.integers(1, 5)),
                            int(rng.integers(1, 6)), seed=seed,
                            rho=float(rng.choice([0.5, 1.0])))
        if seed % 2:  # renumber the colors, so a list is no range of ids
            new = rng.permutation(cov.num_colors)
            cov = DpCover(cov.base, Graph.from_edges(cov.num_colors,
                                                     new[cov.cover.edge_array()]),
                          cov.list_sizes(), new[cov.lcolors])
        n = cov.base.vertex_count
        a = np.array([rng.choice(cov.lists(v)) for v in range(n)])
        a[rng.random(n) < 0.2] = -1
        edges = cov.cover.edge_array()
        for x, y in edges[rng.integers(0, len(edges), int(rng.integers(0, 3)))]:
            a[cov.owner[x]], a[cov.owner[y]] = x, y
        chosen = np.zeros(cov.num_colors, dtype=bool)
        chosen[a[a >= 0]] = True
        bad = np.flatnonzero(chosen[edges[:, 0]] & chosen[edges[:, 1]])
        ok, witness = verify_proper(cov, a)
        assert ok == (bad.size == 0)
        if bad.size:
            c1, c2 = edges[bad[0]].tolist()
            assert (witness.vertex_u, witness.vertex_v, witness.color_u, witness.color_v) \
                == (cov.owner[c1], cov.owner[c2], c1, c2)
        else:
            assert witness is None


class TestClassifyStructure:
    def test_star_anchor_has_no_second_neighborhood(self):
        rep = classify_structure(star_graph(5), anchor=0, d=5, t=1)
        assert rep.bad == () and rep.good == ()
        assert rep.sad == ()
        assert set(rep.happy) == set(range(1, 6))

    def test_threshold_arithmetic_small_case(self):
        # anchor 0 with neighbors 1..4; vertex 5 adjacent to three of them:
        # 3 >= 4^(2/3) ~ 2.52 makes it crowded at t=1
        edges = [(0, 1), (0, 2), (0, 3), (0, 4), (5, 1), (5, 2), (5, 3)]
        rep = classify_structure(Graph.from_edges(6, edges), anchor=0, d=4, t=1)
        assert rep.bad == (5,)
        assert rep.delta == pytest.approx(1 / 3)

    def test_partitions_are_exact(self):
        cov = regular_cover(14, 4, 5, seed=3).cover
        rep = classify_structure(cov, anchor=0, d=4, t=2)
        assert set(rep.bad) | set(rep.good) == set(rep.bad) ^ set(rep.good)
        nbrs = set(int(x) for x in cov.neighbors(0))
        assert set(rep.sad) | set(rep.happy) == nbrs
        assert not (set(rep.sad) & set(rep.happy))

    def test_matches_independent_recount(self):
        for seed in range(8):
            cov = regular_cover(16, 4, 4, seed=40 + seed).cover
            for anchor in (0, 5, 11):
                rep = classify_structure(cov, anchor=anchor, d=4, t=2)
                bad, sad = classify_oracle(cov, anchor, d=4, t=2)
                assert set(rep.bad) == bad
                assert set(rep.sad) == sad

    def test_reported_constants(self):
        rep = classify_structure(star_graph(3), anchor=0, d=3, t=2)
        assert rep.beta1 == pytest.approx(1 / 40)
        assert rep.beta2 == pytest.approx(1 / 30)
        assert rep.delta2 == pytest.approx(1 / 20)
        assert rep.tau == pytest.approx(4 / 18)
        assert rep.sad_bound == pytest.approx(3 ** (1 - 1 / 30))

    def test_t_beyond_float_range(self):
        # the exponents are integer quotients: tiny, not an OverflowError
        g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (4, 1), (4, 2), (4, 3), (5, 1)])
        rep = classify_structure(g, anchor=0, d=3, t=10 ** 400)
        assert (rep.delta, rep.beta1, rep.beta2, rep.delta2, rep.tau) == (0.0,) * 5
        assert rep.sad_bound == 3.0
        assert (rep.bad, rep.good, rep.sad, rep.happy) == ((4,), (5,), (), (1, 2, 3))

    def test_anchor_degree_checked(self):
        with pytest.raises(ValueError, match="exceeds"):
            classify_structure(star_graph(5), anchor=0, d=3, t=1)


class TestRoundStats:
    def test_edgeless_cover_keeps_everything(self):
        cov = from_list_assignment(Graph.empty(4), [range(3)] * 4)
        p = RoundParams(eta=0.7, d=1, ell=3, beta=0.1)
        st = round_stats(cov, p, trials=50, seed=1)
        assert np.all(st.kept_mean == 3.0)
        assert np.all(st.kept_var == 0.0)

    def test_k2_matching_limit(self):
        g = Graph.from_edges(2, [(0, 1)])
        cov = from_list_assignment(g, [range(2)] * 2)
        p = RoundParams(eta=1.0, d=1, ell=2, beta=0.1)
        st = round_stats(cov, p, trials=20000, seed=2)
        se = math.sqrt(float(st.kept_var.max()) / st.trials)
        assert np.all(np.abs(st.kept_mean - 1.0) <= 3 * se + 1e-9)

    def test_anchor_identity_holds_samplewise(self):
        cov = regular_cover(12, 4, 5, seed=4)
        p = RoundParams(eta=0.5, d=4, ell=5, beta=0.05)
        st = round_stats(cov, p, trials=300, seed=3, anchor=7)
        assert np.array_equal(st.anchor_res, st.anchor_u - st.anchor_u_minus_k)
        assert st.anchor_u.size == 300

    def test_seeds_are_sequential(self):
        cov = regular_cover(10, 3, 4, seed=5)
        p = RoundParams(eta=0.5, d=3, ell=4, beta=0.05)
        one = round_stats(cov, p, trials=10, seed=100)
        two_a = round_stats(cov, p, trials=5, seed=100)
        two_b = round_stats(cov, p, trials=5, seed=105)
        merged = (two_a.kept_mean * 5 + two_b.kept_mean * 5) / 10
        assert np.allclose(one.kept_mean, merged)


def recount_one_round(cov, p, seed, anchor):
    """One round's counts by direct definition, from the scalar draw stream."""
    picks = {}
    for v in range(cov.base.vertex_count):
        lst = [int(c) for c in cov.lists(v)]
        if scalar_uniform(seed, v, 0) < p.eta:
            j = min(int(scalar_uniform(seed, v, 1) * len(lst)), len(lst) - 1)
            picks[v] = lst[j]
    assigned = set(picks.values())
    kept = {c for c in range(cov.num_colors)
            if not any(int(nb) in assigned for nb in cov.cover.neighbors(c))}
    colored = {v for v, c in picks.items() if c in kept}
    kept_sizes = [sum(int(c) in kept for c in cov.lists(v))
                  for v in range(cov.base.vertex_count)]
    resdeg = [sum(int(nb) in kept and int(cov.owner[nb]) not in colored
                  for nb in cov.cover.neighbors(c)) for c in range(cov.num_colors)]
    uncolored_nbrs = [int(nb) for nb in cov.cover.neighbors(anchor)
                      if int(cov.owner[nb]) not in colored]
    u_minus_k = sum(nb not in kept for nb in uncolored_nbrs)
    return kept_sizes, resdeg, (len(uncolored_nbrs), u_minus_k, resdeg[anchor])


class TestOneTrialAgainstRecount:
    @pytest.mark.parametrize("cov, p, anchor", [
        (regular_cover(12, 4, 5, seed=4), RoundParams(eta=0.6, d=4, ell=5, beta=0.05), 7),
        (regular_cover(10, 3, 4, seed=5, rho=0.6),
         RoundParams(eta=0.8, d=3, ell=4, beta=0.1), 2),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 17, 2 ** 64 + 3])
    def test_counts_match(self, cov, p, anchor, seed):
        st = round_stats(cov, p, trials=1, seed=seed, anchor=anchor)
        kept_sizes, resdeg, anchor_row = recount_one_round(cov, p, seed, anchor)
        keep = keep_fn(p.d, p.ell, p.eta)
        res_thresh = keep * uncolor_fn(p.d, p.ell, p.eta) * p.d + p.d ** (1 - p.beta)
        assert st.kept_sum.tolist() == kept_sizes
        assert st.kept_sumsq.tolist() == [k * k for k in kept_sizes]
        assert st.kept_tail.tolist() == [
            int(abs(k - keep * p.ell) > p.ell ** (1 - p.beta)) for k in kept_sizes]
        assert st.res_sum.tolist() == resdeg
        assert st.res_sumsq.tolist() == [r * r for r in resdeg]
        assert st.res_tail.tolist() == [int(r > res_thresh) for r in resdeg]
        got = (st.anchor_u.tolist(), st.anchor_u_minus_k.tolist(), st.anchor_res.tolist())
        assert got == tuple([x] for x in anchor_row)


def per_round_sums(cov, p, trials, seed, anchor):
    """round_stats' integer sums and anchor rows from one run_round per trial."""
    keep = keep_fn(p.d, p.ell, p.eta)
    keep_ell = keep * p.ell
    res_thresh = keep * uncolor_fn(p.d, p.ell, p.eta) * p.d + p.d ** (1 - p.beta)
    sums = {k: 0 for k in ("kept_sum", "kept_sumsq", "kept_tail",
                           "res_sum", "res_sumsq", "res_tail")}
    rows = []
    nbrs = None if anchor is None else cov.cover.neighbors(anchor)
    for t in range(trials):
        o = run_round(cov, p, seed + t)
        k, r = o.kept_sizes(), o.next_deg
        sums["kept_sum"] = sums["kept_sum"] + k
        sums["kept_sumsq"] = sums["kept_sumsq"] + k * k
        sums["kept_tail"] = sums["kept_tail"] + (np.abs(k - keep_ell) > p.ell ** (1 - p.beta))
        sums["res_sum"] = sums["res_sum"] + r
        sums["res_sumsq"] = sums["res_sumsq"] + r * r
        sums["res_tail"] = sums["res_tail"] + (r > res_thresh)
        if nbrs is not None:
            blank = o.phi[cov.owner[nbrs]] < 0
            rows.append((int(blank.sum()), int((blank & ~o.kept_mask[nbrs]).sum()),
                         int(r[anchor])))
    return sums, rows


def assert_same_as_single_rounds(cov, p, trials, seed, anchor):
    stats = round_stats(cov, p, trials=trials, seed=seed, anchor=anchor)
    sums, rows = per_round_sums(cov, p, trials, seed, anchor)
    for field_name, want in sums.items():
        assert getattr(stats, field_name).tolist() == want.tolist(), field_name
    got = list(zip(stats.anchor_u.tolist(), stats.anchor_u_minus_k.tolist(),
                   stats.anchor_res.tolist()))
    assert got == rows


@st.composite
def renumbered_covers(draw) -> DpCover:
    """A cover on a random base graph with lists of uneven sizes, each base
    edge's matching thinned at the rate ``rho``, and the color ids shuffled,
    so that no list is a run of consecutive ids."""
    n = draw(st.integers(1, 10))
    rho = draw(st.sampled_from([0.5, 0.8, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
    sizes = rng.integers(1, 6, n)
    ptr = np.concatenate([[0], np.cumsum(sizes)])
    ids = rng.permutation(int(ptr[-1]))
    edges = []
    for u, v in pairs:
        k = min(sizes[u], sizes[v])
        keep = rng.random(k) < rho
        edges += zip(ids[ptr[u] + rng.permutation(sizes[u])[:k]][keep].tolist(),
                     ids[ptr[v] + rng.permutation(sizes[v])[:k]][keep].tolist())
    return DpCover(Graph.from_edges(n, pairs), Graph.from_edges(int(ptr[-1]), edges),
                   sizes, ids)


class TestBlockAgainstSingleRounds:
    """A block of trials equals the same trials run one ``run_round`` each."""

    COVERS = {
        "regular": (regular_cover(12, 4, 5, seed=4), RoundParams(eta=0.6, d=4, ell=5, beta=0.05), 7),
        # rho = 0.6 leaves colors of cover degree 0
        "sparse": (regular_cover(10, 3, 4, seed=5, rho=0.6),
                   RoundParams(eta=0.8, d=3, ell=4, beta=0.1), 2),
    }

    @pytest.mark.parametrize("name", sorted(COVERS))
    @pytest.mark.parametrize("block", [1, 2, 7])
    @pytest.mark.parametrize("trials", [1, 5, 7, 16])
    @pytest.mark.parametrize("seed", [3, 2 ** 64 - 4])
    def test_sums_and_anchor_rows(self, monkeypatch, name, block, trials, seed):
        cov, p, anchor = self.COVERS[name]
        per_trial = max(cov.cover.indices.size, cov.num_colors)
        monkeypatch.setattr(analysis, "_BLOCK_ENTRIES", block * per_trial)
        assert block_size(cov, trials) == min(block, trials)
        if name == "sparse":
            assert np.any(cov.cover.degrees() == 0)
        assert_same_as_single_rounds(cov, p, trials, seed, anchor)

    @settings(max_examples=80, deadline=None)
    @given(renumbered_covers(), st.integers(1, 3), st.integers(1, 3),
           st.sampled_from(["R-1", "R", "R+1", "BR+1"]), st.sampled_from([0.3, 0.7, 1.0]),
           st.integers(0, 2 ** 64 - 1), st.data())
    def test_buffered_blocks_on_random_covers(self, cov, block, buffers, count, eta, seed,
                                              data):
        # R = buffers * block trials fill a reduction buffer; the trial
        # counts around R and B * R end on a partial block, on a full buffer
        # and on a partial buffer
        rows = buffers * block
        trials = {"R-1": rows - 1, "R": rows, "R+1": rows + 1, "BR+1": block * rows + 1}[count]
        anchor = data.draw(st.none() | st.integers(0, cov.num_colors - 1))
        p = RoundParams(eta=eta, d=max(int(cov.cover.degrees().max(initial=0)), 1),
                        ell=int(cov.list_sizes().min()), beta=0.1)
        width = max(cov.base.vertex_count, cov.num_colors)
        with mock.patch.object(analysis, "_BLOCK_ENTRIES",
                               block * max(cov.cover.indices.size, cov.num_colors)), \
                mock.patch.object(analysis, "_REDUCE_ENTRIES", rows * width):
            assert_same_as_single_rounds(cov, p, max(trials, 1), seed, anchor)

    def test_block_size_on_the_benchmark_shapes(self):
        # 34 vertices, 16-regular, 12 labels: 6528 cover-row entries
        small = regular_cover(34, 16, 12, seed=77)
        assert block_size(small, 5000) == 10
        assert block_size(small, 4) == 4
        # 400 vertices: 76,800 entries, one trial per block
        assert block_size(regular_cover(400, 16, 12, seed=78), 1000) == 1

    def test_edgeless_cover_bounds_the_block_by_colors(self):
        cov = from_list_assignment(Graph.empty(1000), [range(8)] * 1000)
        assert block_size(cov, 10 ** 6) == analysis._BLOCK_ENTRIES // 8000


class TestExactRoundExpectation:
    def test_single_vertex(self):
        cov = from_list_assignment(Graph.empty(1), [range(3)])
        p = RoundParams(eta=0.4, d=1, ell=3, beta=0.1)
        kept, res = exact_round_expectation(cov, p)
        assert kept[0] == pytest.approx(3.0)
        assert np.all(res == 0.0)

    def test_k2_perfect_matching_equals_closed_form(self):
        g = Graph.from_edges(2, [(0, 1)])
        cov = from_list_assignment(g, [range(2)] * 2)
        p = RoundParams(eta=1.0, d=1, ell=2, beta=0.1)
        kept, _ = exact_round_expectation(cov, p)
        assert kept == pytest.approx([1.0, 1.0], abs=1e-12)
        assert keep_fn(1, 2, 1.0) * 2 == pytest.approx(1.0)

    def test_closed_form_on_regular_instances(self):
        for n, d, ell, eta, seed in [(6, 2, 3, 0.5, 1), (4, 3, 4, 0.3, 2),
                                     (8, 2, 4, 0.8, 3)]:
            cov = regular_cover(n, d, ell, seed=seed)
            p = RoundParams(eta=eta, d=d, ell=ell, beta=0.05)
            kept, res = exact_round_expectation(cov, p)
            want = keep_fn(d, ell, eta) * ell
            assert np.max(np.abs(kept - want) / want) <= 1e-9
            bound = keep_fn(d, ell, eta) * uncolor_fn(d, ell, eta) * d + d / ell
            assert np.all(res <= bound + 1e-9)

    def test_cross_oracle_with_monte_carlo(self):
        base = path_graph(3)
        cov = from_list_assignment(base, [range(2)] * 3)
        p = RoundParams(eta=0.5, d=1, ell=2, beta=0.1)
        kept, res = exact_round_expectation(cov, p)
        st = round_stats(cov, p, trials=20000, seed=6)
        for v in range(3):
            se = math.sqrt(max(float(st.kept_var[v]), 1e-12) / st.trials)
            assert abs(st.kept_mean[v] - kept[v]) <= 4 * se + 1e-9
        for c in range(cov.num_colors):
            se = math.sqrt(max(float(st.res_var[c]), 1e-12) / st.trials)
            assert abs(st.res_mean[c] - res[c]) <= 4 * se + 1e-9

    def test_budget_guard(self):
        cov = regular_cover(12, 4, 6, seed=7)
        with pytest.raises(BudgetExceededError):
            exact_round_expectation(cov, RoundParams(eta=0.5, d=4, ell=6, beta=0.1),
                                    budget=1000)


class TestExports:
    def test_csv_embeds_config_and_is_deterministic(self):
        cov = regular_cover(6, 2, 3, seed=8)
        p = RoundParams(eta=0.5, d=2, ell=3, beta=0.05)
        st = round_stats(cov, p, trials=20, seed=9, anchor=1)
        cfg = {"seed": 9, "trials": 20}
        text = stats_to_csv(st, cfg)
        assert text.startswith("# {")
        assert '"seed": 9' in text.splitlines()[0]
        assert text == stats_to_csv(st, cfg)
        assert any(line.startswith("anchor,") for line in text.splitlines())

    def test_summary_reports_identity(self):
        cov = regular_cover(6, 2, 3, seed=8)
        p = RoundParams(eta=0.5, d=2, ell=3, beta=0.05)
        st = round_stats(cov, p, trials=25, seed=10, anchor=0)
        import json
        doc = json.loads(stats_summary_json(st, {"seed": 10}))
        assert doc["anchor"]["identity_holds"] is True
        assert doc["trials"] == 25
