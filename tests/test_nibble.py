import math

import numpy as np
import pytest

from dpnibble import (Graph, d_next, ell_next, from_list_assignment, good_round_targets,
                      keep_fn, round_is_good, run_round, run_round_until_good, uncolor_fn)
from dpnibble._rng import scalar_uniform
from dpnibble.analysis import round_stats, verify_proper
from dpnibble.errors import RetriesExhaustedError
from dpnibble.nibble import RoundParams, count_violations

from conftest import regular_cover


def k2_matched_cover(ell: int) -> "DpCover":
    g = Graph.from_edges(2, [(0, 1)])
    return from_list_assignment(g, [range(ell)] * 2)


class TestClosedForms:
    def test_keep_eta_zero(self):
        assert keep_fn(5, 9, 0.0) == 1.0

    def test_keep_base_zero(self):
        assert keep_fn(1, 1, 1.0) == 0.0

    def test_keep_three_quarters_squared(self):
        assert keep_fn(2, 4, 1.0) == pytest.approx(0.5625, rel=1e-14)

    def test_uncolor(self):
        assert uncolor_fn(5, 9, 0.0) == 1.0
        assert uncolor_fn(2, 4, 1.0) == pytest.approx(0.4375, rel=1e-14)
        assert uncolor_fn(1, 1, 1.0) == 1.0

    def test_ell_next(self):
        assert ell_next(2, 4, 1.0, 0.5) == pytest.approx(0.25, rel=1e-12)
        assert ell_next(7, 9, 0.0, 0.3) == pytest.approx(9 - 9 ** 0.7, rel=1e-12)

    def test_d_next(self):
        expected = 0.5625 * 0.4375 * 2 + math.sqrt(2)
        assert d_next(2, 4, 1.0, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_matches_high_precision_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        mp.dps = 50
        rng = np.random.default_rng(20240811)
        for _ in range(60):
            d = int(rng.integers(1, 10 ** rng.integers(1, 8)))
            ell = int(rng.integers(1, 10 ** rng.integers(1, 7)))
            eta = float(rng.uniform(1e-6, 1.0))
            beta = float(rng.uniform(0.005, 0.9))
            k_ref = mpmath.power(1 - mpmath.mpf(eta) / ell, d)
            assert keep_fn(d, ell, eta) == pytest.approx(float(k_ref), rel=1e-12)
            u_ref = 1 - eta * k_ref
            assert uncolor_fn(d, ell, eta) == pytest.approx(float(u_ref), rel=1e-12)


class TestRoundParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            RoundParams(eta=0.0, d=1, ell=1, beta=0.1)
        with pytest.raises(ValueError):
            RoundParams(eta=0.5, d=0, ell=1, beta=0.1)
        with pytest.raises(ValueError):
            RoundParams(eta=0.5, d=1, ell=1, beta=1.0)


class TestRunRound:
    def test_isolated_vertex_always_colored_at_full_activation(self):
        cov = from_list_assignment(Graph.empty(1), [[0, 1, 2]])
        p = RoundParams(eta=1.0, d=1, ell=3, beta=0.1)
        for seed in range(20):
            o = run_round(cov, p, seed)
            assert o.kept_sizes()[0] == 3
            assert o.phi[0] >= 0

    def test_forced_conflict_blanks_both(self):
        cov = k2_matched_cover(1)
        p = RoundParams(eta=1.0, d=1, ell=1, beta=0.1)
        for seed in range(20):
            o = run_round(cov, p, seed)
            assert list(o.phi) == [-1, -1]
            assert list(o.kept_sizes()) == [0, 0]

    def test_k2_expected_kept_size(self):
        # two lists of size 2 joined by a perfect matching at eta=1: the four
        # equally likely assignments give kept sizes averaging exactly 1
        cov = k2_matched_cover(2)
        p = RoundParams(eta=1.0, d=1, ell=2, beta=0.1)
        from dpnibble.analysis import exact_round_expectation
        exact, _ = exact_round_expectation(cov, p)
        assert exact == pytest.approx([1.0, 1.0], abs=1e-12)
        assert keep_fn(1, 2, 1.0) * 2 == pytest.approx(1.0)
        trials = 4000
        means = np.zeros(2)
        for seed in range(trials):
            means += run_round(cov, p, seed).kept_sizes()
        means /= trials
        se = math.sqrt(0.5 * 0.5 / trials) * 2  # kept size is 0 or 2
        assert np.all(np.abs(means - 1.0) <= 3 * se + 1e-9)

    def test_determinism(self):
        cov = regular_cover(16, 4, 6, seed=3)
        p = RoundParams(eta=0.4, d=4, ell=6, beta=0.05)
        a = run_round(cov, p, seed=99)
        b = run_round(cov, p, seed=99)
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.kept_mask, b.kept_mask)
        c = run_round(cov, p, seed=100)
        assert not np.array_equal(a.hits, c.hits)

    def test_kept_set_law(self):
        cov = regular_cover(14, 4, 5, seed=4)
        p = RoundParams(eta=0.6, d=4, ell=5, beta=0.05)
        o = run_round(cov, p, seed=5)
        # the picks of the activated vertices, from the scalar reference draws
        assigned = set()
        for v in range(14):
            if scalar_uniform(5, v, 0) < p.eta:
                lst = cov.lists(v)
                assigned.add(int(lst[int(scalar_uniform(5, v, 1) * lst.size)]))
        assert set(o.phi[o.phi >= 0].tolist()) <= assigned
        assert sorted(o.hits.tolist()) == sorted(
            int(nb) for a in assigned for nb in cov.cover.neighbors(a))
        for v in range(14):
            expect = [c for c in cov.lists(v)
                      if not any(int(nb) in assigned
                                 for nb in cov.cover.neighbors(int(c)))]
            lst = cov.lists(v)
            assert list(lst[o.kept_mask[lst]]) == expect

    def test_always_proper(self):
        cov = regular_cover(20, 5, 4, seed=6)
        p = RoundParams(eta=0.8, d=5, ell=4, beta=0.05)
        for seed in range(30):
            o = run_round(cov, p, seed)
            ok, witness = verify_proper(cov, o.phi)
            assert ok, witness

    def test_rejects_empty_lists(self):
        g = Graph.empty(2)
        cov = from_list_assignment(g, [[0], [1]])
        from dpnibble.cover import DpCover
        broken = DpCover(g, cov.cover, [2, 0], [0, 1])
        # the round kernel refuses it, for `color` and for `stats` alike
        p = RoundParams(eta=0.5, d=1, ell=1, beta=0.1)
        with pytest.raises(ValueError, match="nonempty"):
            run_round(broken, p, 0)
        with pytest.raises(ValueError, match="nonempty"):
            round_stats(broken, p, 3, 0)


class TestGoodRounds:
    def test_unreachable_targets_always_good(self):
        cov = regular_cover(12, 3, 4, seed=7)
        p = RoundParams(eta=0.5, d=3, ell=4, beta=0.05)
        o = run_round(cov, p, seed=1)
        assert round_is_good(o, -1.0, 3 + 1.0)

    def test_empty_kept_list_fires_vertex_event(self):
        cov = k2_matched_cover(1)
        o = run_round(cov, RoundParams(eta=1.0, d=1, ell=1, beta=0.1), seed=0)
        assert not round_is_good(o, 0.0, 100.0)

    def test_first_round_returned_when_trivial(self):
        cov = regular_cover(12, 3, 4, seed=8)
        p = RoundParams(eta=0.5, d=3, ell=4, beta=0.05)
        o = run_round_until_good(cov, p, -1.0, 4.0, max_retries=5, seed=41)
        assert o.seed == 41

    def test_impossible_targets_exhaust_retries(self):
        cov = regular_cover(12, 3, 4, seed=9)
        p = RoundParams(eta=0.5, d=3, ell=4, beta=0.05)
        with pytest.raises(RetriesExhaustedError) as exc:
            run_round_until_good(cov, p, 4.0, -1.0, max_retries=7, seed=10)
        err = exc.value
        assert len(err.violations) == 7
        fewest = min(bv + bc for bv, bc in err.violations.values())
        assert str(err).endswith(f"best attempt violated {fewest} events")
        assert all(bc > 0 for _, bc in err.violations.values())

    def test_mid_distribution_targets_get_better_with_slack(self):
        # thresholds inside the kept-size distribution, then progressively
        # looser: the good-round rate must be monotone in the looseness
        cov = regular_cover(20, 4, 4, seed=11)
        p = RoundParams(eta=0.9, d=4, ell=4, beta=0.05)
        keep = keep_fn(4, 4, 0.9)
        rates = []
        for margin in (0.0, 1.0, 2.0):
            good = sum(
                round_is_good(run_round(cov, p, seed), keep * 4 - 1 - margin, 100.0)
                for seed in range(300))
            rates.append(good)
        assert rates[0] <= rates[1] <= rates[2]
        assert 0 < rates[0] < 300  # events actually fire at the tight target

    def test_slack_widens_targets(self):
        lo_ell, lo_d = good_round_targets(16, 12, 0.1, 0.02, slack=1.0)
        hi_ell, hi_d = good_round_targets(16, 12, 0.1, 0.02, slack=2.0)
        assert hi_ell < lo_ell
        assert hi_d > lo_d
        assert lo_ell == pytest.approx(ell_next(16, 12, 0.1, 0.02), rel=1e-12)
        assert lo_d == pytest.approx(d_next(16, 12, 0.1, 0.02), rel=1e-12)

    def test_calibration_paper_targets_with_slack(self):
        # reference configuration: degree-16 regular cover, lists of 12,
        # eta=0.1, allowances scaled 1.5x; every seeded attempt succeeds fast
        cov = regular_cover(34, 16, 12, seed=12)
        p = RoundParams(eta=0.1, d=16, ell=12, beta=1.0 / 50)
        ell_t, d_t = good_round_targets(16, 12, 0.1, 1.0 / 50, slack=1.5)
        ok = 0
        for run in range(100):
            try:
                o = run_round_until_good(cov, p, ell_t, d_t,
                                         max_retries=50, seed=1000 * run)
                ok += o.seed - 1000 * run < 50
            except RetriesExhaustedError:
                pass
        assert ok >= 99

    def test_count_violations_consistent(self):
        cov = regular_cover(16, 4, 5, seed=13)
        p = RoundParams(eta=0.7, d=4, ell=5, beta=0.05)
        o = run_round(cov, p, seed=3)
        sizes = o.kept_sizes()
        # the residual advances the view in place, so it is taken last
        bv, bc = count_violations(o, 2.0, 3.0)
        resdeg = o.residual.deg
        in_res = o.kept_mask & (o.phi[cov.owner] < 0)
        assert bv == int(np.sum(sizes <= 2.0))
        assert bc == int(np.sum(in_res & (resdeg >= 3.0)))
