import hashlib
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpnibble import (DpCover, Graph, PipelineConfig, ScheduleInput, color_graph,
                      from_list_assignment, pipeline, uniform_list_cover)
from dpnibble.analysis import verify_proper
from dpnibble.errors import PipelineError, ResampleBudgetError, RetriesExhaustedError
from dpnibble.generators import incidence_graph, random_dp_cover, random_regular
from dpnibble.graph import max_degree
from dpnibble.nibble import (ResidualView, RoundParams, count_violations, kept_counts,
                             residual_degrees, run_block, run_round, run_round_until_good)
from dpnibble.pipeline import finish_with_stats, resample_residual, result_to_json

from conftest import finish_by_rescan, path_graph, regular_cover, residual_cover


def k2_matched(ell: int):
    return from_list_assignment(Graph.from_edges(2, [(0, 1)]), [range(ell)] * 2)


class TestFinish:
    def test_no_cover_edges_zero_resamples(self):
        cov = from_list_assignment(Graph.empty(5), [range(2)] * 5)
        coloring, resamples, _ = finish_with_stats(cov, 100, seed=1)
        assert resamples == 0
        assert np.all(coloring >= 0)

    def test_k2_expected_resamples_below_markov_bound(self):
        # one cover edge and eight colors a side: a conflict appears with
        # probability 1/64 per joint draw, so the absorbing-chain expectation
        # is (1/64)/(63/64) = 1/63 resamples per run
        from dpnibble import DpCover
        base = Graph.from_edges(2, [(0, 1)])
        cov = DpCover(base, Graph.from_edges(16, [(0, 8)]), [8, 8], range(16))
        total = 0
        runs = 400
        for seed in range(runs):
            _, resamples, _ = finish_with_stats(cov, 100, seed=seed)
            total += resamples
        mean = total / runs
        p = 1 / 64
        expect = p / (1 - p)
        se = math.sqrt(p) / (1 - p) / math.sqrt(runs)
        assert abs(mean - expect) <= 3 * se + 1e-9
        assert mean < 2.0

    def test_large_random_cover_terminates_and_verifies(self):
        cov = regular_cover(200, 4, 32, seed=2)
        coloring = finish_with_stats(cov, 10_000, seed=3)[0]
        ok, _ = verify_proper(cov, coloring)
        assert ok and np.all(coloring >= 0)

    def test_precondition_enforced(self):
        cov = regular_cover(10, 3, 4, seed=4)  # 4 < 8*3
        with pytest.raises(ValueError, match="8"):
            finish_with_stats(cov, 100, seed=1)

    def test_budget_error_carries_trajectory(self):
        cov = k2_matched(8)  # eight matched pairs: conflict odds 1/8 per draw
        seed = next(s for s in range(2000)
                    if finish_with_stats(cov, 100, seed=s)[1] > 0)
        with pytest.raises(ResampleBudgetError) as exc:
            finish_with_stats(cov, 0, seed=seed)
        assert exc.value.conflict_trajectory[0] >= 1

    def test_deterministic(self):
        cov = regular_cover(60, 3, 24, seed=5)
        a = finish_with_stats(cov, 1000, seed=9)[0]
        b = finish_with_stats(cov, 1000, seed=9)[0]
        assert np.array_equal(a, b)


# lists of 8x the base degree, so many runs need resamples
RESCAN_COVERS = {
    "k2_matched": lambda: k2_matched(8),
    "regular": lambda: regular_cover(60, 3, 24, seed=5),
    "thinned": lambda: random_dp_cover(random_regular(200, 4, 3), 32, 0.7, 4),
}



def residual_after(cov, p: RoundParams, rounds: int) -> ResidualView:
    view = ResidualView(cov)
    for seed in range(100, 100 + rounds):
        view = run_round(view, p, seed).residual
    return view


# residuals of nibble rounds whose lists stay at least 8x the residual degree
RESCAN_RESIDUALS = {
    **{f"regular_{k}": (lambda k=k: residual_after(
        regular_cover(60, 3, 32, seed=5), RoundParams(eta=0.5, d=3, ell=32, beta=0.05), k))
       for k in (1, 2, 3)},
    **{f"list_{k}": (lambda k=k: residual_after(
        uniform_list_cover(random_regular(80, 4, seed=9), 40),
        RoundParams(eta=0.5, d=4, ell=40, beta=0.05), k))
       for k in (1, 2, 3)},
    # round seed 59 colors vertices 1 and 3 of the path and leaves no cover edge
    "edgeless": lambda: run_round(uniform_list_cover(path_graph(5), 8),
                                  RoundParams(eta=0.5, d=2, ell=8, beta=0.05), 59).residual,
}


class TestFinishAgainstRescan:
    @pytest.mark.parametrize("name", sorted(RESCAN_COVERS))
    def test_same_run_as_full_rescan(self, name):
        cov = RESCAN_COVERS[name]()
        total = 0
        for seed in range(60):
            colors, resamples, trajectory, done = finish_by_rescan(cov, 1000, seed)
            assert done
            coloring, got_resamples, got_trajectory = finish_with_stats(cov, 1000, seed)
            assert coloring.tolist() == colors, seed
            assert (got_resamples, got_trajectory) == (resamples, trajectory), seed
            total += resamples
        assert total >= 5

    @pytest.mark.parametrize("name", sorted(RESCAN_COVERS))
    def test_same_budget_exhaustion_as_full_rescan(self, name):
        cov = RESCAN_COVERS[name]()
        for seed in range(20):
            _, _, trajectory, done = finish_by_rescan(cov, 2, seed)
            if done:
                assert finish_with_stats(cov, 2, seed)[2] == trajectory
                continue
            with pytest.raises(ResampleBudgetError) as exc:
                finish_with_stats(cov, 2, seed)
            assert exc.value.conflict_trajectory == trajectory
            assert str(exc.value) == f"{trajectory[-1]} conflicts remain after 2 resamples"

    @pytest.mark.parametrize("name", sorted(RESCAN_RESIDUALS))
    def test_residual_same_run_as_rescan_of_renumbered_cover(self, name):
        view = RESCAN_RESIDUALS[name]()
        cov, root_ids = residual_cover(view)
        assert view.vertices.size == cov.base.vertex_count > 0
        assert (view.max_degree() == 0) == (name == "edgeless")
        for seed in range(60):
            colors, resamples, trajectory, done = finish_by_rescan(cov, 1000, seed)
            assert done
            got, got_resamples, got_trajectory = resample_residual(view, 1000, seed)
            assert got.tolist() == root_ids[colors].tolist(), seed
            # without cover edges the finisher records no trajectory
            expect = trajectory if cov.cover.num_edges else []
            assert (got_resamples, got_trajectory) == (resamples, expect), seed

    @pytest.mark.parametrize("name", sorted(RESCAN_RESIDUALS))
    def test_residual_same_budget_exhaustion_as_rescan(self, name):
        view = RESCAN_RESIDUALS[name]()
        cov, _ = residual_cover(view)
        for seed in range(20):
            _, _, trajectory, done = finish_by_rescan(cov, 0, seed)
            if done:
                continue
            with pytest.raises(ResampleBudgetError) as exc:
                resample_residual(view, 0, seed)
            assert exc.value.conflict_trajectory == trajectory

    # recorded before the finisher updated its state incrementally
    def test_pinned_trajectory(self):
        cov = regular_cover(60, 3, 24, seed=5)
        coloring, resamples, trajectory = finish_with_stats(cov, 1000, seed=17)
        assert resamples == 8
        assert trajectory == [5, 4, 3, 4, 3, 2, 2, 1, 0]
        assert hashlib.sha256(coloring.astype("<i8").tobytes()).hexdigest() == \
            "4ba4a4c269d2713dd3ad16069d941a2e58e9ce736bc5e6a406828f83bd2177a8"

    def test_pinned_budget_error(self):
        cov = regular_cover(60, 3, 24, seed=5)
        with pytest.raises(ResampleBudgetError) as exc:
            finish_with_stats(cov, 3, seed=17)
        assert str(exc.value) == "4 conflicts remain after 3 resamples"
        assert exc.value.conflict_trajectory == [5, 4, 3, 4]


def quick_cfg(d, eps, seed, **kw):
    return PipelineConfig(schedule_input=ScheduleInput(d=d, epsilon=eps, s=2, t=2),
                          seed=seed, **kw)


class TestColorGraph:
    def test_edgeless_base_trivial(self):
        cov = from_list_assignment(Graph.empty(6), [range(2)] * 6)
        res = color_graph(cov, quick_cfg(3, 0.5, seed=1))
        assert np.all(res.coloring >= 0)
        assert res.rounds == []

    def test_finish_only_when_lists_large(self):
        base = random_regular(20, 2, seed=2)
        cov = uniform_list_cover(base, 16)  # 16 >= 8*2
        res = color_graph(cov, quick_cfg(2, 0.5, seed=3))
        assert res.rounds == []
        ok, _ = verify_proper(cov, res.coloring)
        assert ok

    def test_nibble_rounds_then_finish(self, monkeypatch):
        base = incidence_graph(5, seed=0)  # 62 vertices, 6-regular, girth 6
        ell = math.ceil(4 * 6 / math.log(6))
        cov = uniform_list_cover(base, ell)
        eps = ell * math.log(6) / 6 - 1
        assigned = []

        def checked_round(*args, **kwargs):
            # no alive color may neighbour a color assigned so far
            outcome = run_round_until_good(*args, **kwargs)
            assigned.extend(outcome.phi[outcome.phi >= 0].tolist())
            for x in assigned:
                assert not outcome.residual.alive[cov.cover.neighbors(x)].any(), x
            return outcome

        monkeypatch.setattr(pipeline, "run_round_until_good", checked_round)
        res = color_graph(cov, quick_cfg(6, eps, seed=7))
        assert len(res.rounds) > 0
        ok, _ = verify_proper(cov, res.coloring)
        assert ok and np.all(res.coloring >= 0)
        # telemetry is coherent
        for tele in res.rounds:
            assert tele.min_kept >= 0 and tele.retries_used >= 0
        assert res.rounds[-1].remaining >= 0

    def test_infeasible_micro_instance(self):
        cov = k2_matched(1)
        with pytest.raises(PipelineError):
            color_graph(cov, quick_cfg(1, 0.5, seed=1))

    def test_empty_list_of_the_input_refused(self):
        # the round gate keeps every list nonempty, so only an input list is
        cov = DpCover.from_lists(path_graph(3), Graph.from_edges(2, [(0, 1)]), [[0], [1], []])
        with pytest.raises(PipelineError, match="round 1: a vertex has an empty list"):
            color_graph(cov, quick_cfg(1, 0.5, seed=1))

    def test_deterministic_given_seed(self):
        base = incidence_graph(3, seed=1)  # 26 vertices, 4-regular
        cov = uniform_list_cover(base, 12)
        eps = 12 * math.log(4) / 4 - 1
        a = color_graph(cov, quick_cfg(4, eps, seed=5))
        b = color_graph(cov, quick_cfg(4, eps, seed=5))
        assert np.array_equal(a.coloring, b.coloring)
        assert [t.retries_used for t in a.rounds] == [t.retries_used for t in b.rounds]

    def test_success_rate_monotone_in_slack(self):
        # tiny budgets so failures are possible; loosening targets can only help
        base = incidence_graph(3, seed=2)
        cov = uniform_list_cover(base, 12)
        eps = 12 * math.log(4) / 4 - 1

        def successes(slack):
            ok = 0
            for seed in range(12):
                try:
                    color_graph(cov, quick_cfg(4, eps, seed=seed, slack=slack,
                                               max_round_retries=2))
                    ok += 1
                except PipelineError:
                    pass
            return ok

        assert successes(1.0) <= successes(2.0)

    def test_regularize_first_path(self):
        base = Graph.from_edges(2, [(0, 1)])
        cov = random_dp_cover(base, 17, 1.0, seed=3)  # 1-regular cover, 17 >= 8
        res = color_graph(cov, quick_cfg(1, 0.5, seed=4, regularize_first=True))
        ok, _ = verify_proper(cov, res.coloring)
        assert ok and np.all(res.coloring >= 0)


class TestResultJson:
    def test_success_document(self):
        cov = from_list_assignment(Graph.empty(3), [range(2)] * 3)
        cfg = quick_cfg(3, 0.5, seed=1)
        res = color_graph(cov, cfg)
        doc = json.loads(result_to_json(res, cfg))
        assert doc["ok"] is True
        assert len(doc["coloring"]) == 3
        assert doc["config"]["seed"] == 1

    def test_failure_document_keeps_telemetry(self):
        cfg = quick_cfg(1, 0.5, seed=1)
        doc = json.loads(result_to_json(None, cfg, error="boom", telemetry=[]))
        assert doc["ok"] is False
        assert doc["error"] == "boom"
        assert doc["rounds"] == []

    def test_byte_identical(self):
        cov = from_list_assignment(Graph.empty(3), [range(2)] * 3)
        cfg = quick_cfg(3, 0.5, seed=1)
        res = color_graph(cov, cfg)
        assert result_to_json(res, cfg) == result_to_json(res, cfg)


# ---------------------------------------------------------------------------
# the incremental round state against the full-array helpers
# ---------------------------------------------------------------------------


STATE = ("blank", "alive", "sizes", "deg", "vertices")


def snapshot(view: ResidualView) -> SimpleNamespace:
    """Copies of ``view``'s state arrays, which a residual leaves alone, and
    the residual as a cover of its own with the root ids of its colors."""
    state = SimpleNamespace(root=view.root,
                            **{name: getattr(view, name).copy() for name in STATE})
    state.cover, state.root_ids = residual_cover(view)
    return state


def assert_same_state(view: ResidualView, other: SimpleNamespace):
    for name in STATE:
        assert np.array_equal(getattr(view, name), getattr(other, name)), name


def full_array_round(before: SimpleNamespace, p: RoundParams, seed: int, ell_t: float,
                     d_t: float) -> SimpleNamespace:
    """The round at ``seed`` recomputed by the full-array helpers ``stats``
    runs, on the residual cover of the state ``before``, and mapped back to
    root ids: ``phi``, the kept sizes, the next ``alive``, ``blank`` and
    degrees, and the violation counts."""
    cov, root_ids = before.cover, before.root_ids
    view = ResidualView(cov)
    kept, phi, _ = run_block(view, p, seed, 1)
    sizes = kept_counts(view, kept)[0]
    alive = np.zeros_like(before.alive)
    alive[root_ids[kept[0] & (phi[0] < 0)[cov.owner]]] = True
    deg = np.zeros_like(before.deg)
    deg[root_ids] = residual_degrees(view, kept, phi < 0)[0]
    blank = before.blank.copy()
    blank[before.vertices[phi[0] >= 0]] = False
    return SimpleNamespace(
        phi=np.where(phi[0] >= 0, root_ids[phi[0]], -1), kept_sizes=sizes,
        alive=alive, blank=blank, deg=deg,
        counts=(int(np.count_nonzero(sizes <= max(ell_t, 0))),
                int(np.count_nonzero(deg[alive] >= d_t))))


class CheckedRounds:
    """``run_round_until_good`` that checks every attempt and every accepted
    round against :func:`full_array_round`."""

    def __init__(self):
        self.rounds = self.rejected = self.gate_live = 0

    def __call__(self, view, p, ell_t, d_t, max_retries, seed):
        before = snapshot(view)
        self.gate_live += view.max_degree() >= d_t
        try:
            outcome = run_round_until_good(view, p, ell_t, d_t, max_retries, seed)
        except RetriesExhaustedError as exc:
            assert_same_state(view, before)
            for s, counts in exc.violations.items():
                assert counts == full_array_round(before, p, s, ell_t, d_t).counts
            raise
        # the rejected retries changed nothing
        assert_same_state(view, before)
        for s in range(seed, outcome.seed + 1):
            attempt, ref = run_round(view, p, s), full_array_round(before, p, s, ell_t, d_t)
            assert count_violations(attempt, ell_t, d_t) == ref.counts, s
            assert np.array_equal(attempt.phi, ref.phi), s
            assert np.array_equal(attempt.kept_sizes(), ref.kept_sizes), s
        self.rejected += outcome.seed - seed
        after = outcome.residual
        assert after is view
        assert np.array_equal(after.alive, ref.alive)
        assert np.array_equal(after.blank, ref.blank)
        assert np.array_equal(after.vertices, np.flatnonzero(ref.blank))
        assert np.array_equal(after.sizes, np.bincount(view.root.owner[ref.alive],
                                                       minlength=ref.blank.size))
        assert np.array_equal(after.list_sizes(), after.sizes[after.vertices])
        assert np.array_equal(after.deg[ref.alive], ref.deg[ref.alive])
        assert after.max_degree() == int(ref.deg[ref.alive].max(initial=0))
        self.rounds += 1
        return outcome


@st.composite
def random_covers(draw) -> DpCover:
    """A cover on a random base graph, edgeless or with isolated vertices
    among them, with lists of uneven sizes, and each base edge's matching
    as large as the smaller list allows, thinned at the rate ``rho``."""
    n = draw(st.integers(1, 14))
    density = draw(st.sampled_from([0.0, 0.3, 0.6, 0.9]))
    rho = draw(st.sampled_from([0.5, 0.8, 1.0]))
    top = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    sizes = rng.integers(1, top + 1, n)
    ptr = np.concatenate([[0], np.cumsum(sizes)])
    edges = []
    for u, v in pairs:
        k = min(sizes[u], sizes[v])
        keep = rng.random(k) < rho
        edges += zip((ptr[u] + rng.permutation(sizes[u])[:k])[keep].tolist(),
                     (ptr[v] + rng.permutation(sizes[v])[:k])[keep].tolist())
    return DpCover(Graph.from_edges(n, pairs), Graph.from_edges(int(ptr[-1]), edges),
                   sizes, np.arange(ptr[-1]))


def cli_cfg(cov, seed: int) -> PipelineConfig:
    """The configuration ``dpnibble color`` builds without ``--epsilon``."""
    d = max(max_degree(cov.cover), 1)
    ell = int(cov.list_sizes().min())
    return quick_cfg(d, min(max(ell * math.log(max(d, 3)) / max(d, 3) - 1.0, 0.01), 99.0), seed)


class TestRoundStateAgainstFullArrays:
    @pytest.mark.parametrize("make, seed", [
        # an incidence list cover, through the rounds to the finisher
        (lambda: uniform_list_cover(incidence_graph(5, seed=0), 14), 7),
        # a thinned cover, whose colors have unequal degrees
        (lambda: random_dp_cover(random_regular(60, 6, 1), 12, 0.7, 2), 1),
        (lambda: random_dp_cover(random_regular(40, 4, 3), 24, 1.0, 4), 2),
        # rounds that would empty a list, in round 278 and in round 296 once the
        # last alive colors lost their last alive neighbours, are retried
        (lambda: uniform_list_cover(incidence_graph(7, seed=0), 7), 3),
        (lambda: uniform_list_cover(incidence_graph(5, seed=0), 6), 1),
    ], ids=["incidence", "thinned", "finisher", "empty-list", "empty-list-no-degree"])
    def test_pipeline_rounds(self, monkeypatch, make, seed):
        cov = make()
        checked = CheckedRounds()
        monkeypatch.setattr(pipeline, "run_round_until_good", checked)
        res = color_graph(cov, cli_cfg(cov, seed))
        assert verify_proper(cov, res.coloring)[0]
        assert checked.rounds > 0

    def test_degree_gate_live_with_rejected_retries(self):
        # targets tighter than any pipeline sets: a round is rejected when a
        # kept color keeps two alive neighbours
        cov = regular_cover(20, 3, 6, seed=8)
        p = RoundParams(eta=0.6, d=3, ell=6, beta=0.02)
        checked = CheckedRounds()
        view = ResidualView(cov)
        for k in range(5):
            view = checked(view, p, 0.0, 2.0, 20, 100 * k).residual
        assert checked.gate_live > 0 and checked.rejected > 0

    def test_exhausted_retries_change_nothing(self):
        cov = regular_cover(24, 4, 8, seed=8)
        with pytest.raises(RetriesExhaustedError):
            CheckedRounds()(ResidualView(cov), RoundParams(eta=0.3, d=4, ell=8, beta=0.02),
                            0.0, 4.0, 20, 0)

    def test_stale_outcome_is_refused(self):
        cov = regular_cover(16, 4, 8, seed=8)
        p = RoundParams(eta=0.5, d=4, ell=8, beta=0.02)
        view = ResidualView(cov)
        first, second = run_round(view, p, 1), run_round(view, p, 2)
        assert first.residual is view
        with pytest.raises(ValueError, match="already applied"):
            second.residual
        # the view goes on from where the accepted round left it
        assert run_round(view, p, 3).vertices is view.vertices

    @given(cov=random_covers(), eta=st.sampled_from([0.2, 0.5, 0.9]),
           ell_t=st.sampled_from([-1.0, 0.0, 1.0]),
           d_t=st.sampled_from([2.0, 3.0, 5.0, math.inf]), seed=st.integers(0, 2 ** 20))
    @settings(max_examples=300, deadline=None)
    def test_random_covers(self, cov, eta, ell_t, d_t, seed):
        # targets tight enough that both gates reject some rounds
        p = RoundParams(eta=eta, d=max(max_degree(cov.cover), 1), ell=1, beta=0.05)
        checked = CheckedRounds()
        view = ResidualView(cov)
        for k in range(10):
            if view.vertices.size == 0 or view.list_sizes().min() == 0:
                break
            try:
                view = checked(view, p, ell_t, d_t, 5, seed + 10 * k).residual
            except RetriesExhaustedError:
                pass
