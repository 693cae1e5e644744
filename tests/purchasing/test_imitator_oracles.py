"""The imitators' batch schedules against their hour-by-hour oracles.

Each ``schedule()`` must equal, hour for hour, both the tracker loop it
replaced (:mod:`tests.purchasing.imitator_oracles`) and its reactive
stepper driven against a keep-everything pool — over horizons shorter
than one period, horizons that are not a multiple of it, and horizons
of several periods.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pricing.plan import PricingPlan
from repro.purchasing.all_reserved import AllReserved
from repro.purchasing.online_breakeven import OnlineBreakEven
from repro.purchasing.random_reservation import RandomReservation
from repro.purchasing.stepper import stepper_for
from tests.purchasing.imitator_oracles import (
    all_reserved_oracle,
    break_even_oracle,
    random_reservation_oracle,
)
from tests.purchasing.test_stepper import drive_stepper


def _plan(period: int) -> PricingPlan:
    # break-even hours R / (p(1 − α)) = 2T/3: triggers land inside a period.
    return PricingPlan(
        on_demand_hourly=1.0,
        upfront=period / 2,
        alpha=0.25,
        period_hours=period,
        name=f"oracle-{period}",
    )


@st.composite
def traces(draw):
    """(plan, demands): horizons from under one period to 3+ periods."""
    period = draw(st.sampled_from((2, 5, 8, 24)))
    horizon = draw(
        st.one_of(
            st.integers(1, period - 1),
            st.integers(period + 1, 2 * period - 1),
            st.integers(3 * period, 4 * period + 3),
        )
    )
    level = st.integers(0, draw(st.sampled_from((3, 12))))
    demands = draw(
        st.lists(st.one_of(st.just(0), level), min_size=horizon, max_size=horizon)
    )
    return _plan(period), np.array(demands, dtype=np.int64)


def _assert_matches(algorithm, plan, demands, oracle) -> None:
    schedule = algorithm.schedule(demands, plan)
    assert schedule.dtype == np.int64
    assert np.array_equal(schedule, oracle)
    stepped = drive_stepper(stepper_for(algorithm, plan), demands, plan)
    assert np.array_equal(schedule, stepped)


@settings(max_examples=150, deadline=None)
@given(trace=traces())
def test_all_reserved_matches_its_oracle(trace):
    plan, demands = trace
    _assert_matches(
        AllReserved(), plan, demands, all_reserved_oracle(demands, plan.period_hours)
    )


@settings(max_examples=150, deadline=None)
@given(
    trace=traces(),
    seed=st.integers(0, 2**32),
    probability=st.sampled_from((1.0, 0.7, 0.25)),
)
def test_random_reservation_matches_its_oracle(trace, seed, probability):
    plan, demands = trace
    algorithm = RandomReservation(seed=seed, reservation_probability=probability)
    oracle = random_reservation_oracle(demands, plan.period_hours, seed, probability)
    _assert_matches(algorithm, plan, demands, oracle)


@settings(max_examples=200, deadline=None)
@given(
    trace=traces(),
    fraction=st.sampled_from((1.0, 0.5, 0.3, 0.01)),
    window_factor=st.sampled_from((None, 0.5, 1.5, 3.0)),
)
def test_break_even_matches_its_oracle(trace, fraction, window_factor):
    plan, demands = trace
    window = (
        None
        if window_factor is None
        else max(1, round(window_factor * plan.period_hours))
    )
    algorithm = OnlineBreakEven(threshold_fraction=fraction, window_hours=window)
    oracle = break_even_oracle(
        demands,
        plan.period_hours,
        algorithm.trigger_hours(plan),
        window or plan.period_hours,
    )
    _assert_matches(algorithm, plan, demands, oracle)
