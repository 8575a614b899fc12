"""Parameter iteration driving the round-by-round coloring plan.

From an initial degree bound ``d`` and a margin ``epsilon`` the iteration
derives a fixed activation probability ``eta = kappa/log d`` and then tracks
integer sequences

    ell_{i+1} = ceil(keep_i * ell_i - ell_i^(1-beta))
    d_{i+1}   = floor(keep_i * uncolor_i * d_i + d_i^(1-beta))

with ``keep_i = (1 - eta/ell_i)^{d_i}``, alongside the error-free "hat"
companions ``ell_hat_{i+1} = keep_i * ell_hat_i`` and
``d_hat_{i+1} = keep_i * uncolor_i * d_hat_i``.  The terminal index is the
first ``i`` with ``ell_i >= 8 * d_i``; iteration also stops if the sequences
leave their positive domain, in which case the terminal index is reported as
not reached.

All reals use extended precision (numpy longdouble, 64-bit significand on
x86-64); the distributed deviation allowances ``ell^(1-beta)`` and
``d^(1-beta)`` dominate the recursion unless ``ell^beta`` and ``d^beta``
clear polylog thresholds, so at moderate ``d`` the integer sequences often
collapse before the terminal condition fires.  The per-iteration condition
records exist to make that visible rather than to stop the computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LD = np.longdouble

# bookkeeping proxies for the unquantified minimum-degree and t-range
# constants; conditions (1) and (4) are recorded against them, never enforced
D_TILDE = 2.0
ALPHA_TILDE = 1.0

# lists at least this many times the cover degree end the nibble rounds and
# go to the resampling finisher
FINISH_RATIO = 8


class ScheduleError(ValueError):
    """Schedule inputs outside the meaningful domain (e.g. d too small)."""


def tail_exponent(t: int) -> float:
    """The deviation exponent ``beta = 1/(25 t)`` of a ``t >= 1``.

    Divides integers, so a ``t`` too large for a float gives a tiny ``beta``
    instead of an ``OverflowError``; raises :class:`ScheduleError` for
    ``t < 1`` and once ``beta`` rounds to 0.
    """
    if t < 1:
        raise ScheduleError("t must be >= 1")
    beta = 1 / (25 * t)
    if not beta > 0.0:
        raise ScheduleError(f"t of {t.bit_length()} bits is too large: beta = 1/(25t) rounds to 0")
    return beta


@dataclass(frozen=True)
class ScheduleInput:
    """Initial degree bound, margin, and forbidden-subgraph parameters."""

    d: int
    epsilon: float
    s: int
    t: int

    def __post_init__(self):
        if self.d < 1:
            raise ScheduleError("d must be a positive integer")
        if not 0.0 < self.epsilon < 100.0:
            raise ScheduleError(f"epsilon must be in (0, 100), got {self.epsilon}")
        if self.s < 1 or self.t < 1:
            raise ScheduleError("s and t must be >= 1")
        tail_exponent(self.t)


@dataclass(frozen=True)
class ScheduleState:
    """One iteration: integer pair, closed-form probabilities, hats, conditions."""

    i: int
    ell: int
    d: int
    keep: float
    uncolor: float
    ell_hat: float
    d_hat: float
    conditions: tuple[bool, bool, bool, bool, bool]

    @property
    def ratio(self) -> float:
        return self.d / self.ell


@dataclass(frozen=True)
class Schedule:
    input: ScheduleInput
    kappa: float
    eta: float
    beta: float
    ell_1: int
    states: tuple[ScheduleState, ...]
    i_star: int | None  # None means "not reached"


def _derive(inp: ScheduleInput) -> tuple[LD, LD, float, int]:
    """(kappa, eta, beta, ell_1), kappa and eta in extended precision."""
    if inp.d < 3:
        raise ScheduleError(f"d={inp.d} is too small for a meaningful schedule")
    eps = LD(inp.epsilon)
    kappa = (1 + eps / 2) * np.log1p(eps / 100)
    logd = np.log(LD(inp.d))
    eta = kappa / logd
    if not eta < 1.0:
        raise ScheduleError(f"d={inp.d} too small: activation probability {float(eta)} >= 1")
    ell_1 = int(np.rint((1 + eps) * LD(inp.d) / logd))
    if ell_1 < 1:
        raise ScheduleError("derived initial list size is below 1")
    return kappa, eta, tail_exponent(inp.t), ell_1


def derive_constants(inp: ScheduleInput) -> tuple[float, float, float, int]:
    """(kappa, eta, beta, ell_1) for the iteration, as floats."""
    kappa, eta, beta, ell_1 = _derive(inp)
    return float(kappa), float(eta), beta, ell_1


def compute_schedule(inp: ScheduleInput, max_iters: int = 10000) -> Schedule:
    """Run the integer recursion until the terminal condition, domain exit,
    or ``max_iters``."""
    if max_iters < 1:
        raise ScheduleError("max_iters must be >= 1")
    kappa, eta, beta_f, ell_1 = _derive(inp)
    beta = LD(beta_f)

    states: list[ScheduleState] = []
    i_star: int | None = None
    ell = LD(ell_1)
    dd = LD(inp.d)
    ell_hat = LD(ell_1)
    d_hat = LD(inp.d)

    for i in range(1, max_iters + 1):
        keep = np.exp(dd * np.log1p(-eta / ell))
        uncolor = 1 - eta * keep
        states.append(ScheduleState(
            i=i, ell=int(ell), d=int(dd),
            keep=float(keep), uncolor=float(uncolor),
            ell_hat=float(ell_hat), d_hat=float(d_hat),
            conditions=_conditions(inp, eta, float(dd), int(ell)),
        ))
        if ell >= FINISH_RATIO * dd:
            i_star = i
            break
        next_ell = np.ceil(keep * ell - ell ** (1 - beta))
        next_d = np.floor(keep * uncolor * dd + dd ** (1 - beta))
        if next_ell < 1 or next_d < 1:
            break
        ell_hat = keep * ell_hat
        d_hat = keep * uncolor * d_hat
        ell, dd = next_ell, next_d

    return Schedule(input=inp, kappa=float(kappa), eta=float(eta), beta=beta_f,
                    ell_1=ell_1, states=tuple(states), i_star=i_star)


def _conditions(inp: ScheduleInput, eta: LD, d_i: float, ell_i: int):
    logdi = math.log(d_i) if d_i > 0 else float("-inf")
    c1 = d_i >= D_TILDE
    c2 = float(eta) * d_i < ell_i < FINISH_RATIO * d_i
    c3 = inp.s <= d_i ** 0.25
    c4 = logdi > 1 and inp.t <= ALPHA_TILDE * logdi / math.log(logdi)
    c5 = logdi > 0 and (1.0 / logdi ** 5) < float(eta) < (1.0 / logdi)
    return (bool(c1), bool(c2), bool(c3), bool(c4), bool(c5))


def hat_deviation_report(s: Schedule) -> list[tuple[float, float]]:
    """Per-iteration |ell_i - ell_hat_i| / ell_hat_i^(1-beta/2) and the d analog."""
    out = []
    b2 = 1 - s.beta / 2
    for st in s.states:
        r_ell = abs(st.ell - st.ell_hat) / st.ell_hat ** b2 if st.ell_hat > 0 else math.inf
        r_d = abs(st.d - st.d_hat) / st.d_hat ** b2 if st.d_hat > 0 else math.inf
        out.append((r_ell, r_d))
    return out


# -- hypotheses of the monotonicity / deviation laws --------------------------


def law_prefix(s: Schedule, power: int) -> int:
    """Number of leading states with ell^beta, d^beta >= 30 log^power d and
    ell <= 8 d.  With power 2, d/ell is nonincreasing on them; with power 4,
    the hat-deviation bound holds at index i when every j < i is among them."""
    thresh = 30.0 * math.log(s.input.d) ** power
    for k, st in enumerate(s.states):
        if st.ell ** s.beta < thresh or st.d ** s.beta < thresh or st.ell > FINISH_RATIO * st.d:
            return k
    return len(s.states)


def keep_bounds(s: Schedule, i: int) -> tuple[float, float]:
    """(lower, upper) envelope for keep_i used by the deviation law's proof:
    1 - kappa*(d_i/ell_i)/log d <= keep_i <= 1 - kappa/(10 log d)."""
    st = s.states[i - 1]
    logd = math.log(s.input.d)
    lo = 1 - s.kappa * (st.d / st.ell) / logd
    hi = 1 - s.kappa / (10 * logd)
    return lo, hi


# -- CSV export --------------------------------------------------------------


def schedule_to_csv(s: Schedule) -> str:
    """Plot-ready CSV; the terminal index is appended as a comment line."""
    lines = ["i,ell,d,keep,uncolor,ratio,ell_hat,d_hat,cond1,cond2,cond3,cond4,cond5"]
    for st in s.states:
        conds = ",".join("1" if c else "0" for c in st.conditions)
        lines.append(
            f"{st.i},{st.ell},{st.d},{st.keep!r},{st.uncolor!r},{st.ratio!r},"
            f"{st.ell_hat!r},{st.d_hat!r},{conds}")
    tail = s.i_star if s.i_star is not None else "not_reached"
    lines.append(f"# i_star={tail}")
    return "\n".join(lines) + "\n"
