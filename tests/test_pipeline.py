import hashlib
import json
import math

import numpy as np
import pytest

from dpnibble import (Graph, PipelineConfig, ScheduleInput, color_graph,
                      from_list_assignment, pipeline, uniform_list_cover)
from dpnibble.analysis import verify_proper
from dpnibble.errors import PipelineError, ResampleBudgetError
from dpnibble.generators import incidence_graph, random_dp_cover, random_regular
from dpnibble.nibble import ResidualView, RoundParams, run_round, run_round_until_good
from dpnibble.pipeline import finish_with_stats, resample_residual, result_to_json

from conftest import finish_by_rescan, path_graph, regular_cover, residual_cover


def k2_matched(ell: int):
    return from_list_assignment(Graph.from_edges(2, [(0, 1)]), [range(ell)] * 2)


class TestFinish:
    def test_no_cover_edges_zero_resamples(self):
        cov = from_list_assignment(Graph.empty(5), [range(2)] * 5)
        coloring, resamples, _ = finish_with_stats(cov, 100, seed=1)
        assert resamples == 0
        assert coloring.is_total()

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
        assert ok and coloring.is_total()

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
        assert np.array_equal(a.assignment, b.assignment)


# lists of 8x the base degree, so many runs need resamples
RESCAN_COVERS = {
    "k2_matched": lambda: k2_matched(8),
    "regular": lambda: regular_cover(60, 3, 24, seed=5),
    "thinned": lambda: random_dp_cover(random_regular(200, 4, 3), 32, 0.7, 4),
}



def residual_after(cov, p: RoundParams, rounds: int) -> ResidualView:
    view = ResidualView.of(cov)
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
            assert coloring.assignment.tolist() == colors, seed
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
        assert hashlib.sha256(coloring.assignment.astype("<i8").tobytes()).hexdigest() == \
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
        assert res.coloring.is_total()
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
        assert ok and res.coloring.is_total()
        # telemetry is coherent
        for tele in res.rounds:
            assert tele.min_kept >= 0 and tele.retries_used >= 0
        assert res.rounds[-1].remaining >= 0

    def test_infeasible_micro_instance(self):
        cov = k2_matched(1)
        with pytest.raises(PipelineError):
            color_graph(cov, quick_cfg(1, 0.5, seed=1))

    def test_deterministic_given_seed(self):
        base = incidence_graph(3, seed=1)  # 26 vertices, 4-regular
        cov = uniform_list_cover(base, 12)
        eps = 12 * math.log(4) / 4 - 1
        a = color_graph(cov, quick_cfg(4, eps, seed=5))
        b = color_graph(cov, quick_cfg(4, eps, seed=5))
        assert np.array_equal(a.coloring.assignment, b.coloring.assignment)
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
        assert ok and res.coloring.is_total()


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
