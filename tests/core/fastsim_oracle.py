"""The per-instance rendering of Algorithm 1/2: the oracle for ``run_fast``.

This is the pseudocode transliterated line by line, as
:func:`repro.core.fastsim.run_fast` was written before it moved to
per-batch decisions: the hourly loop over every decision hour, the
``l`` running sum, and the ``r_j − d_j − i + 1 > l`` freeness test
rescanned for every instance ``i`` of a batch, with one
``r_effective`` rewrite per sale. It is slow on purpose and kept only
as a reference; ``tests/core/test_fastsim_oracle.py`` holds the engine
to it field for field.

Inputs are assumed valid (the engine's validation is tested
separately).
"""

from __future__ import annotations

import numpy as np

from repro.core.account import CostBreakdown, CostModel, HourlyFeeMode
from repro.core.breakeven import break_even_working_hours
from repro.core.cancellation import CancellationModel, Rebuy, SoldUnit, apply_rebuys
from repro.core.clearing import ClearingModel, ClearingProfile
from repro.core.fastsim import FastListing, FastPolicyKind, FastResult, FastSale


def run_fast_oracle(
    demands: np.ndarray,
    reservations: np.ndarray,
    model: CostModel,
    phi: float = 0.75,
    kind: FastPolicyKind = FastPolicyKind.ONLINE,
    threshold_scale: float = 1.0,
    *,
    clearing: "ClearingModel | None" = None,
    clearing_key: object = 0,
    cancellation: "CancellationModel | None" = None,
) -> FastResult:
    """``run_fast``'s semantics, one instance and one hour at a time."""
    d = np.asarray(demands, dtype=np.int64)
    n = np.asarray(reservations, dtype=np.int64)
    horizon = d.size
    period = model.period
    decision_age = round(phi * period)
    beta = break_even_working_hours(model.plan, model.selling_discount, phi)

    # Active-reservation timelines: physical for costs, effective (with the
    # pseudocode's history rewrites) for decisions.
    r_physical = np.zeros(horizon, dtype=np.int64)
    r_effective = np.zeros(horizon, dtype=np.int64)
    for start in np.flatnonzero(n):
        end = min(int(start) + period, horizon)
        r_physical[start:end] += n[start]
        r_effective[start:end] += n[start]

    sales: list[FastSale] = []
    listings: list[FastListing] = []
    # Cleared listings as (clear_hour, creation_seq, income): income is
    # accumulated in clearing order, matching the streaming tracker's
    # book-at-clear-hour order; in the instant limit every delay is 0 so
    # this collapses to today's decision-order accumulation.
    cleared_entries: "list[tuple[int, int, float]]" = []
    income = 0.0
    evaluate = (
        kind is not FastPolicyKind.KEEP_RESERVED
        and 0 < decision_age < period
    )
    clear_profile: "ClearingProfile | None" = None
    clear_rng: "np.random.Generator | None" = None
    if clearing is not None and evaluate:
        clear_profile = clearing.profile(
            model.selling_discount, period, decision_age
        )
        clear_rng = clearing.stream(clearing_key)
    if evaluate:
        remaining_fraction = 1.0 - decision_age / period
        per_sale_income = model.sale_income(remaining_fraction)
        # The pseudocode recomputes the ``l`` running sum over the
        # effective schedule ``n_k`` with a fresh cumsum at every decision
        # hour. But its ``n_k`` decrements only ever touch index ``t0``,
        # at hour ``t0 + decision_age`` — strictly after every window
        # ``(t0', t')`` with ``t0' < t0`` has closed and strictly before
        # any window with ``t0' > t0`` opens reads below ``t0' + 1`` — so
        # inside any window the effective schedule equals the original
        # ``n`` and the whole family of per-hour cumulative sums collapses
        # into one prefix sum computed once per run.
        n_prefix = np.concatenate(([0], np.cumsum(n)))
        for t in range(decision_age, horizon):
            t0 = t - decision_age
            batch = int(n[t0])
            if batch == 0:
                continue  # "no need to make decisions at this moment"
            window = slice(t0, t)
            l_values = n_prefix[t0 + 1:t + 1] - n_prefix[t0 + 1]
            for i in range(1, batch + 1):  # the pseudocode's instance loop
                free = (
                    r_effective[window] - d[window] - i + 1 > l_values
                )
                working = decision_age - int(np.count_nonzero(free))
                if kind is FastPolicyKind.ONLINE:
                    sell = working < threshold_scale * beta
                else:  # ALL_SELLING
                    sell = True
                if not sell:
                    continue
                end = min(t0 + period, horizon)
                r_effective[t0:end] -= 1  # history rewrite (lines 17-21)
                sales.append(
                    FastSale(
                        reserved_at=t0, batch_index=i, hour=t, working_hours=working
                    )
                )
                if clear_profile is None:
                    r_physical[t:end] -= 1  # future: the unit stops serving
                    income += per_sale_income
                    continue
                # Clearing: the decision opened a listing. The unit keeps
                # serving (and billing) until the drawn clearing hour; a
                # draw of the full window means it never clears.
                delay = clear_profile.sample_delay(clear_rng.random())
                seq = len(listings)
                if delay < clear_profile.window:
                    clear_at = t + delay
                    if clear_at < horizon:
                        r_physical[clear_at:end] -= 1
                        clear_fraction = 1.0 - (clear_at - t0) / period
                        sale_value = (
                            (1.0 - model.marketplace_fee)
                            * float(clear_profile.discounts[delay])
                            * clear_fraction
                            * model.big_r
                        )
                        cleared_entries.append((clear_at, seq, sale_value))
                        listings.append(
                            FastListing(
                                reserved_at=t0,
                                batch_index=i,
                                listed_at=t,
                                delay=delay,
                                cleared_at=clear_at,
                                outcome="cleared",
                                income=sale_value,
                            )
                        )
                    else:
                        listings.append(
                            FastListing(
                                reserved_at=t0,
                                batch_index=i,
                                listed_at=t,
                                delay=delay,
                                cleared_at=None,
                                outcome="open",
                                income=0.0,
                            )
                        )
                else:
                    expire_at = t + clear_profile.window
                    listings.append(
                        FastListing(
                            reserved_at=t0,
                            batch_index=i,
                            listed_at=t,
                            delay=delay,
                            cleared_at=None,
                            outcome="expired" if expire_at < horizon else "open",
                            income=0.0,
                        )
                    )
        for _clear_at, _seq, sale_value in sorted(cleared_entries):
            income += sale_value

    rebuys: "tuple[Rebuy, ...]" = ()
    rebuy_cost = 0.0
    if cancellation is not None and evaluate:
        units: "list[SoldUnit]" = []
        if clear_profile is None:
            for sale in sales:
                units.append(
                    SoldUnit(
                        reserved_at=sale.reserved_at,
                        watch_from=sale.hour,
                        term_end=min(sale.reserved_at + period, horizon),
                    )
                )
        else:
            for listing in listings:
                if listing.outcome == "cleared":
                    units.append(
                        SoldUnit(
                            reserved_at=listing.reserved_at,
                            watch_from=listing.cleared_at,
                            term_end=min(listing.reserved_at + period, horizon),
                        )
                    )
        outcome = apply_rebuys(d, r_physical, units, period, model, cancellation)
        r_physical = outcome.r_after
        rebuys = outcome.rebuys
        rebuy_cost = outcome.rebuy_cost

    on_demand = np.maximum(d - r_physical, 0)
    if model.fee_mode is HourlyFeeMode.ACTIVE:
        billed_hours = int(r_physical.sum())
    else:
        billed_hours = int(np.minimum(d, r_physical).sum())
    breakdown = CostBreakdown(
        on_demand=float(on_demand.sum()) * model.p,
        upfront=float(n.sum()) * model.big_r,
        reserved_hourly=billed_hours * model.alpha * model.p,
        sale_income=income,
        rebuy=rebuy_cost,
    )
    return FastResult(
        breakdown=breakdown,
        sales=tuple(sales),
        on_demand=on_demand,
        r_physical=r_physical,
        listings=tuple(listings),
        rebuys=rebuys,
    )
