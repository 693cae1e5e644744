"""The *Random-Reservation* imitator (Section VI-A, second behaviour).

"Takes a random number that is not greater than the demands' quantity as
the targeted number of active reserved instances at each time": each hour
a target in ``[0, d_t]`` is drawn and the pool is topped up toward it.
Imitates users who reserve ad hoc, without a policy.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.pricing.plan import PricingPlan
from repro.purchasing.base import (
    PurchasingAlgorithm,
    demands_array,
    top_up_schedule,
    validated_schedule,
)


class RandomReservation(PurchasingAlgorithm):
    """Top the reserved pool up to a random target ≤ demand each hour.

    ``reservation_probability`` throttles how often the user even looks
    at the gap (1.0 = every hour); the draw is deterministic in ``seed``.
    """

    def __init__(self, seed: int = 0, reservation_probability: float = 1.0) -> None:
        if not 0.0 < reservation_probability <= 1.0:
            raise SimulationError(
                f"reservation_probability must lie in (0, 1], "
                f"got {reservation_probability!r}"
            )
        self.seed = seed
        self.reservation_probability = reservation_probability
        self.name = "Random-Reservation"

    def schedule(self, demands, plan: PricingPlan) -> np.ndarray:
        trace, values = demands_array(demands, plan)
        # The draws depend on the demands alone, never on the pool, so
        # the hourly targets are drawn first — scalar calls in hour
        # order, the stream the stepper consumes — and the top-ups are
        # solved afterwards. A target of 0 never tops anything up.
        rng = np.random.default_rng(self.seed)
        uniform, integers = rng.random, rng.integers
        probability = self.reservation_probability
        busy_hours = np.flatnonzero(values)
        targets = np.zeros(len(trace), dtype=np.int64)
        targets[busy_hours] = [
            integers(0, demand + 1) if uniform() < probability else 0
            for demand in values[busy_hours].tolist()
        ]
        return validated_schedule(
            top_up_schedule(targets, plan.period_hours), len(trace)
        )
