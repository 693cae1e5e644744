"""Purchasing algorithms: how users come to hold reservations.

The paper's evaluation needs, per user, "the value of demands and new
reserved instances at each time" (Section VI-A). Public traces only have
demands, so the paper *imitates* users' reservation behaviour with four
purchasing algorithms; :mod:`repro.purchasing` implements all four. Each
algorithm maps a demand trace to a reservation schedule ``n_t`` — how
many new instances are reserved each hour — processing the trace online
(no lookahead), exactly like the users being imitated.

:func:`top_up_schedule` is the shared engine of the two imitators that
top the reserved pool up to an hourly target (All-Reserved and
Random-Reservation). :class:`ActiveReservationTracker` is the hour-by-hour
bookkeeping — the number of still-active reservations, maintained with an
expiry queue — for imitators that scan a trace one hour at a time.
"""

from __future__ import annotations

import abc
from collections import deque

import numpy as np

from repro.errors import SimulationError
from repro.pricing.plan import PricingPlan
from repro.workload.base import DemandTrace, TraceLike, as_trace


class ActiveReservationTracker:
    """Running count of active reservations while scanning a trace.

    ``advance_to(t)`` expires reservations whose period ended; ``reserve``
    registers new ones starting at the current hour.
    """

    def __init__(self, period: int) -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period!r}")
        self.period = period
        self._active = 0
        self._expiries: deque[tuple[int, int]] = deque()  # (expiry hour, count)

    @property
    def active(self) -> int:
        return self._active

    def advance_to(self, hour: int) -> None:
        """Expire everything whose period ends at or before ``hour``."""
        while self._expiries and self._expiries[0][0] <= hour:
            _, count = self._expiries.popleft()
            self._active -= count

    def reserve(self, hour: int, count: int) -> None:
        """Register ``count`` reservations starting at ``hour``."""
        if count < 0:
            raise SimulationError(f"count must be >= 0, got {count!r}")
        if count == 0:
            return
        self._active += count
        self._expiries.append((hour + self.period, count))


class PurchasingAlgorithm(abc.ABC):
    """Interface of the reservation-behaviour imitators."""

    #: Human-readable name used in experiment reports.
    name: str = "purchasing"

    @abc.abstractmethod
    def schedule(self, demands: DemandTrace, plan: PricingPlan) -> np.ndarray:
        """Produce the per-hour new-reservation counts ``n_t``."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def top_up_schedule(targets: np.ndarray, period: int) -> np.ndarray:
    """New reservations ``n_t`` that top the active pool up to ``targets``.

    Each hour the pool first loses the reservations made one period
    earlier and then, if it falls short of ``targets[h]``, reserves the
    gap. The active pool after hour ``h`` therefore follows the integer
    recurrence ``A(h) = max(A(h−1) − n[h−P], target[h])``. Within one
    period-long round every expiry ``n[h−P]`` comes from the round
    before, so with ``C(h)`` the round's running sum of expiries,
    ``A(h) + C(h)`` is a running maximum of ``target + C`` — one
    ``np.maximum.accumulate`` per round instead of one step per hour.
    ``targets`` must be non-negative integers (0 = no top-up).
    """
    horizon = targets.size
    n = np.zeros(horizon, dtype=np.int64)
    active = 0  # A(start − 1): the pool after the previous round
    for start in range(0, horizon, period):
        stop = min(start + period, horizon)
        if start >= period:
            expiring = n[start - period:stop - period]
        else:
            expiring = np.zeros(stop - start, dtype=np.int64)
        expired = np.cumsum(expiring)
        pool = np.maximum(np.maximum.accumulate(targets[start:stop] + expired), active)
        pool -= expired
        n[start] = pool[0] - active + expiring[0]
        n[start + 1:stop] = np.diff(pool) + expiring[1:]
        active = int(pool[-1])
    return n


def validated_schedule(n: np.ndarray, horizon: int) -> np.ndarray:
    """Common output validation for all algorithms."""
    if n.shape != (horizon,):
        raise SimulationError(
            f"schedule must have shape ({horizon},), got {n.shape}"
        )
    if np.any(n < 0):
        raise SimulationError("schedule contains negative reservation counts")
    return n.astype(np.int64)


def demands_array(demands: TraceLike, plan: PricingPlan) -> "tuple[DemandTrace, np.ndarray]":
    """Coerce input demands and return (trace, int array)."""
    trace = as_trace(demands)
    if plan.period_hours <= 1:
        raise SimulationError("plan period must exceed one hour")
    return trace, trace.values
