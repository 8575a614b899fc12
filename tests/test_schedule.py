import math

import pytest

from dpnibble import (ScheduleError, ScheduleInput, compute_schedule, derive_constants,
                      hat_deviation_report, schedule_to_csv)
from dpnibble.schedule import keep_bounds, law_prefix, tail_exponent


def mpmath_schedule(d, eps, t, max_iters=10000):
    """Independent high-precision recursion (the oracle)."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    mp.dps = 60
    eps = mpmath.mpf(str(eps))
    kappa = (1 + eps / 2) * mpmath.log(1 + eps / 100)
    logd = mpmath.log(d)
    eta = kappa / logd
    beta = mpmath.mpf(1) / (25 * t)
    ell1 = int(mpmath.nint((1 + eps) * d / logd))
    states = [(ell1, d)]
    ell, dd = mpmath.mpf(ell1), mpmath.mpf(d)
    istar = None
    for i in range(1, max_iters + 1):
        if ell >= 8 * dd:
            istar = i
            break
        keep = mpmath.exp(dd * mpmath.log(1 - eta / ell))
        unc = 1 - eta * keep
        ne = mpmath.ceil(keep * ell - mpmath.power(ell, 1 - beta))
        nd = mpmath.floor(keep * unc * dd + mpmath.power(dd, 1 - beta))
        if ne < 1 or nd < 1:
            break
        ell, dd = mpmath.mpf(int(ne)), mpmath.mpf(int(nd))
        states.append((int(ne), int(nd)))
    return float(kappa), states, istar


class TestDeriveConstants:
    def test_kappa_small_epsilon(self):
        kappa, _, _, _ = derive_constants(ScheduleInput(d=100, epsilon=0.01, s=1, t=1))
        assert kappa == pytest.approx(1.005 * math.log(1.0001), rel=1e-12)
        assert kappa == pytest.approx(1.00495e-4, rel=1e-4)

    def test_initial_list_size_frozen_value(self):
        # cross-checked against the 60-digit recursion oracle below
        _, _, _, ell_1 = derive_constants(ScheduleInput(d=10**6, epsilon=0.1, s=2, t=2))
        assert ell_1 == 79621

    def test_beta(self):
        _, _, beta, _ = derive_constants(ScheduleInput(d=1000, epsilon=0.05, s=1, t=2))
        assert beta == pytest.approx(0.02, rel=1e-15)

    @pytest.mark.parametrize("t", [1, 2, 7, 10 ** 6])
    def test_beta_of_ordinary_t_unchanged(self, t):
        assert tail_exponent(t) == 1.0 / (25.0 * t)

    def test_beta_past_float_range(self):
        # t itself has no float, yet beta = 4e-322 is a positive subnormal
        assert tail_exponent(10 ** 320) == 4e-322
        _, _, beta, _ = derive_constants(ScheduleInput(d=100, epsilon=0.5, s=1, t=10 ** 320))
        assert beta == 4e-322
        with pytest.raises(ScheduleError, match="too large"):
            ScheduleInput(d=100, epsilon=0.5, s=1, t=10 ** 400)

    def test_eta_formula(self):
        kappa, eta, _, _ = derive_constants(ScheduleInput(d=10**4, epsilon=0.1, s=1, t=1))
        assert eta == pytest.approx(kappa / math.log(10**4), rel=1e-12)

    def test_too_small_d(self):
        with pytest.raises(ScheduleError, match="too small"):
            derive_constants(ScheduleInput(d=2, epsilon=0.1, s=1, t=1))

    def test_input_validation(self):
        with pytest.raises(ScheduleError):
            ScheduleInput(d=10, epsilon=0.0, s=1, t=1)
        with pytest.raises(ScheduleError):
            ScheduleInput(d=10, epsilon=0.1, s=0, t=1)


class TestComputeSchedule:
    @pytest.mark.parametrize("d,eps,t", [
        (10**4, 0.02, 2),   # ends with a size-1 list
        (10**4, 0.1, 1),
        (10**6, 0.1, 2),
        (10**7, 0.05, 3),
    ])
    def test_matches_high_precision_oracle(self, d, eps, t):
        sched = compute_schedule(ScheduleInput(d=d, epsilon=eps, s=2, t=t))
        _, oracle_states, oracle_istar = mpmath_schedule(d, eps, t)
        assert [(st.ell, st.d) for st in sched.states] == oracle_states
        assert sched.i_star == oracle_istar

    def test_first_state_formulas(self):
        inp = ScheduleInput(d=10**5, epsilon=0.05, s=2, t=2)
        sched = compute_schedule(inp)
        kappa, eta, beta, ell_1 = derive_constants(inp)
        st = sched.states[0]
        assert st.i == 1 and st.ell == ell_1 and st.d == 10**5
        expect_keep = (1 - kappa / (ell_1 * math.log(10**5))) ** (10**5)
        assert st.keep == pytest.approx(expect_keep, rel=1e-9)
        assert st.uncolor == pytest.approx(1 - eta * st.keep, rel=1e-12)
        assert st.ell_hat == ell_1 and st.d_hat == 10**5

    def test_desk_scale_divergence_is_reported_not_hidden(self):
        # at moderate d the deviation allowances dominate; the iteration
        # exits its domain without reaching the terminal index
        sched = compute_schedule(ScheduleInput(d=10**6, epsilon=0.1, s=2, t=2))
        assert sched.i_star is None
        assert len(sched.states) == 4
        assert sched.states[-1].d > sched.states[0].d  # degree bound grows

    def test_terminal_state_when_lists_start_large(self):
        # big margin at tiny degree: the very first state already clears 8d
        sched = compute_schedule(ScheduleInput(d=3, epsilon=8.0, s=1, t=1))
        assert sched.i_star == 1
        assert len(sched.states) == 1
        assert sched.states[0].ell >= 8 * sched.states[0].d

    def test_max_iters_caps_loop(self):
        sched = compute_schedule(ScheduleInput(d=10**6, epsilon=0.1, s=2, t=2),
                                 max_iters=2)
        assert len(sched.states) == 2
        assert sched.i_star is None


class TestHatDeviation:
    def test_first_iteration_exact(self):
        sched = compute_schedule(ScheduleInput(d=10**5, epsilon=0.1, s=2, t=2))
        report = hat_deviation_report(sched)
        assert report[0] == (0.0, 0.0)
        assert len(report) == len(sched.states)

    def test_single_state_schedule(self):
        sched = compute_schedule(ScheduleInput(d=3, epsilon=8.0, s=1, t=1))
        assert len(hat_deviation_report(sched)) == 1


class TestLawsInTheirRegime:
    """The monotonicity/termination/floor laws bind only when the deviation
    allowances are genuinely lower-order; that needs astronomically large d
    and a wide margin.  These inputs are pure arithmetic, so the module can
    be exercised exactly where the laws hold."""

    def test_huge_d_terminates_within_bound_and_laws_hold(self):
        d = 10**174
        inp = ScheduleInput(d=d, epsilon=9.0, s=2, t=1)
        sched = compute_schedule(inp, max_iters=10**6)
        assert sched.i_star == 4921
        logd = math.log(d)
        assert sched.i_star <= (10 / sched.kappa) * logd * math.log(logd)

        # monotone d/ell on the gated prefix (non-vacuous: 307 states)
        prefix = law_prefix(sched, 2)
        assert prefix == 307
        ratios = [st.ratio for st in sched.states]
        assert all(ratios[i] <= ratios[i - 1] for i in range(1, prefix))

        # list floor up to the terminal index
        floor_val = d ** (inp.epsilon / 15)
        assert all(st.ell >= floor_val for st in sched.states[:sched.i_star])

        # hat deviations stay within their cap on the gated prefix
        report = hat_deviation_report(sched)
        assert max(max(pair) for pair in report[:prefix]) <= 1.0

        # keep envelope on the gated prefix
        for i in range(1, prefix + 1):
            lo, hi = keep_bounds(sched, i)
            assert lo <= sched.states[i - 1].keep <= hi

    def test_law_prefixes_empty_at_desk_scale(self):
        sched = compute_schedule(ScheduleInput(d=10**6, epsilon=0.1, s=2, t=2))
        # desk scale: the hypotheses fail already at the first iteration
        assert law_prefix(sched, 2) == 0
        assert law_prefix(sched, 4) == 0


class TestCsvExport:
    def test_contains_terminal_line_and_is_deterministic(self):
        sched = compute_schedule(ScheduleInput(d=10**4, epsilon=0.05, s=2, t=2))
        text = schedule_to_csv(sched)
        assert text.splitlines()[0].startswith("i,ell,d,keep")
        assert text.splitlines()[-1] == "# i_star=not_reached"
        assert text == schedule_to_csv(sched)

    def test_terminal_index_emitted(self):
        sched = compute_schedule(ScheduleInput(d=3, epsilon=8.0, s=1, t=1))
        assert schedule_to_csv(sched).splitlines()[-1] == "# i_star=1"
