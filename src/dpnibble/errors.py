"""Exception types shared across the package, and the ``t`` check of ``schedule`` and ``stats``."""

from __future__ import annotations


class DpnibbleError(Exception):
    """Base class for all package errors."""


class BudgetExceededError(DpnibbleError):
    """An exact enumeration, a search or the nibble rounds would exceed their
    configured work budget.

    Raised instead of silently approximating; the caller should use a smaller
    instance or raise the budget.
    """


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


class GenerationError(BudgetExceededError):
    """A generator could not produce an instance within its retry budget."""


class CoverValidationError(DpnibbleError):
    """A cover failed structural validation.

    Carries the list of violations produced by ``cover.validate``.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations[:8])
        extra = "" if len(self.violations) <= 8 else f" (+{len(self.violations) - 8} more)"
        super().__init__(f"invalid cover: {lines}{extra}")


class RetriesExhaustedError(BudgetExceededError):
    """No good round was found within the retry budget.

    ``violations`` maps each tried seed to its (vertex_events, color_events)
    counts.
    """

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = dict(violations or {})


class ResampleBudgetError(BudgetExceededError):
    """The resampling finisher did not clear all conflicts within budget.

    ``conflict_trajectory`` records the conflict count after each resample
    step, which is the first thing to look at when diagnosing a stuck run.
    """

    def __init__(self, message, conflict_trajectory=None):
        super().__init__(message)
        self.conflict_trajectory = list(conflict_trajectory or [])


class PipelineError(DpnibbleError):
    """End-to-end coloring failed; carries per-round telemetry."""

    def __init__(self, message, telemetry=None):
        super().__init__(message)
        self.telemetry = list(telemetry or [])
