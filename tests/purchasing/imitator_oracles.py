"""Hour-by-hour renderings of the imitators: the oracles for their schedules.

These are the All-Reserved, Random-Reservation and break-even loops as
they were written before the batch ``schedule()`` methods moved to
per-round running maxima and an inline covered count: one
:class:`~repro.purchasing.base.ActiveReservationTracker` step per hour,
one gap or one level scan per hour. They are slow on purpose and kept
only as references; ``tests/purchasing/test_imitator_oracles.py`` holds
the imitators to them exactly.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.purchasing.base import ActiveReservationTracker


def all_reserved_oracle(values: np.ndarray, period: int) -> np.ndarray:
    """Reserve the full demand gap every hour."""
    tracker = ActiveReservationTracker(period)
    n = np.zeros(len(values), dtype=np.int64)
    for hour in range(len(values)):
        tracker.advance_to(hour)
        gap = int(values[hour]) - tracker.active
        if gap > 0:
            n[hour] = gap
            tracker.reserve(hour, gap)
    return n


def random_reservation_oracle(
    values: np.ndarray, period: int, seed: int, reservation_probability: float
) -> np.ndarray:
    """Top the pool up to a random target ≤ demand each hour."""
    rng = np.random.default_rng(seed)
    tracker = ActiveReservationTracker(period)
    n = np.zeros(len(values), dtype=np.int64)
    for hour in range(len(values)):
        tracker.advance_to(hour)
        demand = int(values[hour])
        if demand == 0:
            continue
        if rng.random() >= reservation_probability:
            continue
        target = int(rng.integers(0, demand + 1))
        gap = target - tracker.active
        if gap > 0:
            n[hour] = gap
            tracker.reserve(hour, gap)
    return n


def break_even_oracle(
    values: np.ndarray, period: int, trigger: int, window: int
) -> np.ndarray:
    """Per-level sliding-window break-even rule."""
    tracker = ActiveReservationTracker(period)
    histories: list[deque[int]] = []
    n = np.zeros(len(values), dtype=np.int64)
    for hour in range(len(values)):
        tracker.advance_to(hour)
        demand = int(values[hour])
        covered = tracker.active
        if demand > len(histories):
            histories.extend(deque() for _ in range(demand - len(histories)))
        new_reservations = 0
        for level in range(covered, demand):
            history = histories[level]
            history.append(hour)
            while history and history[0] <= hour - window:
                history.popleft()
            if len(history) >= trigger:
                new_reservations += 1
                history.clear()
        if new_reservations:
            n[hour] = new_reservations
            tracker.reserve(hour, new_reservations)
    return n
