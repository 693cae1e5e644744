"""``run_fast`` against the per-instance pseudocode oracle, field by field.

The engine decides a whole reservation batch at once (one sort of the
window's slack, one searchsorted); :func:`fastsim_oracle.run_fast_oracle`
rescans the window for every instance as Algorithm 1/2 is written. Every
:class:`~repro.core.fastsim.FastResult` field must match exactly —
sales, listings and re-buys record for record, arrays element for
element, costs bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.account import CostModel, HourlyFeeMode
from repro.core.cancellation import CancellationModel
from repro.core.clearing import ClearingModel
from repro.core.fastsim import FastPolicyKind, run_fast
from repro.pricing.plan import PricingPlan
from tests.core.fastsim_oracle import run_fast_oracle

PHIS = (0.25, 0.5, 0.75)
THRESHOLD_SCALES = (0.0, 0.6, 1.0, 1.7, 1e9)
CLEARINGS = {
    "none": None,
    "instant": ClearingModel.instant(seed=3),
    "normal": ClearingModel.for_regime("normal", seed=5, base_hazard=0.3),
    "thin": ClearingModel.for_regime("thin", seed=7, base_hazard=0.3),
}
CANCELLATIONS = {
    "none": None,
    "trigger-1": CancellationModel(penalty=0.25, trigger_hours=1),
    "trigger-3": CancellationModel(penalty=0.0, trigger_hours=3),
}


def _model(period: int, fee_mode: HourlyFeeMode) -> CostModel:
    # R = p·T keeps β = 2φT/3 inside the decision window for every period.
    plan = PricingPlan(
        on_demand_hourly=1.0,
        upfront=float(period),
        alpha=0.25,
        period_hours=period,
        name=f"oracle-{period}",
    )
    return CostModel(plan=plan, selling_discount=0.5, fee_mode=fee_mode)


def assert_same_result(actual, expected) -> None:
    assert actual.breakdown == expected.breakdown
    # repr also pins the Python types of every record field.
    assert repr(actual.sales) == repr(expected.sales)
    assert repr(actual.listings) == repr(expected.listings)
    assert repr(actual.rebuys) == repr(expected.rebuys)
    for name in ("on_demand", "r_physical"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


@st.composite
def scenarios(draw):
    period = draw(st.sampled_from((4, 8, 12, 24)))
    horizon = draw(st.integers(1, 4 * period + 3))
    demands = draw(
        st.lists(st.integers(0, 9), min_size=horizon, max_size=horizon)
    )
    # Mostly empty hours, some small batches, and now and then a batch
    # far larger than the decision window.
    batch = st.one_of(
        st.just(0), st.just(0), st.integers(1, 6), st.integers(2 * period, 5 * period)
    )
    reservations = draw(st.lists(batch, min_size=horizon, max_size=horizon))
    return period, np.array(demands), np.array(reservations)


@settings(max_examples=300, deadline=None)
@given(
    scenario=scenarios(),
    phi=st.sampled_from(PHIS),
    kind=st.sampled_from(tuple(FastPolicyKind)),
    threshold_scale=st.sampled_from(THRESHOLD_SCALES),
    clearing=st.sampled_from(sorted(CLEARINGS)),
    cancellation=st.sampled_from(sorted(CANCELLATIONS)),
    fee_mode=st.sampled_from(tuple(HourlyFeeMode)),
)
# A decision age at or beyond the horizon: no batch reaches its spot.
@example(
    scenario=(8, np.array([3, 2, 1, 0, 2]), np.array([4, 0, 2, 0, 1])),
    phi=0.75, kind=FastPolicyKind.ONLINE, threshold_scale=1.0,
    clearing="none", cancellation="none", fee_mode=HourlyFeeMode.ACTIVE,
)
def test_run_fast_matches_the_per_instance_oracle(
    scenario, phi, kind, threshold_scale, clearing, cancellation, fee_mode
):
    period, demands, reservations = scenario
    model = _model(period, fee_mode)
    kwargs = dict(
        phi=phi,
        kind=kind,
        threshold_scale=threshold_scale,
        clearing=CLEARINGS[clearing],
        clearing_key="oracle-user",
        cancellation=CANCELLATIONS[cancellation],
    )
    assert_same_result(
        run_fast(demands, reservations, model, **kwargs),
        run_fast_oracle(demands, reservations, model, **kwargs),
    )


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("kind", [FastPolicyKind.ONLINE, FastPolicyKind.ALL_SELLING])
@pytest.mark.parametrize("clearing", sorted(CLEARINGS))
def test_oversized_batches_and_partial_sales(phi, kind, clearing):
    """Batches of several windows' worth of instances on a busy trace:
    the online rule sells a proper prefix, All-Selling all of them."""
    period = 24
    rng = np.random.default_rng(2018)
    demands = rng.integers(0, 40, size=5 * period)
    reservations = np.zeros(5 * period, dtype=np.int64)
    reservations[[0, 7, 30, 61, 90]] = [90, 3, 150, 12, 70]
    model = _model(period, HourlyFeeMode.ACTIVE)
    kwargs = dict(phi=phi, kind=kind, clearing=CLEARINGS[clearing])
    result = run_fast(demands, reservations, model, **kwargs)
    assert_same_result(result, run_fast_oracle(demands, reservations, model, **kwargs))
    assert result.instances_sold > 0
