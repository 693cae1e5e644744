"""Input-boundary fuzz of :func:`checkpoint_from_payload`.

A checkpoint file is untrusted input: whatever a damaged or hand-edited
payload holds, restoring it either yields a :class:`Checkpoint` or
raises :class:`CheckpointError` — never a bare ``KeyError``,
``AttributeError``, numpy ``OverflowError`` or any other exception type.

The seed payload is a real format-4 checkpoint with every optional
section populated: a clearing model with open listings, a randomized
policy (per-instance ``drawn`` spots) and a cancellation policy
(per-instance ``rebuys`` state). Each example drops keys, or replaces
their values with a value of another JSON type, at the top level, in
the pricing model, in an instance row, in a spot or in a re-buy entry.
"""

import copy
import json

import pytest

from repro.core.account import CostModel
from repro.core.clearing import ClearingModel
from repro.pricing.plan import PricingPlan
from repro.serve.checkpoint import (
    Checkpoint,
    checkpoint_from_payload,
    fleet_to_payload,
)
from repro.serve.errors import CheckpointError
from repro.serve.state import FleetState

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PERIOD = 32
CANCELLATION = "cancellation:phi=0.5,penalty=0.1"
POLICIES = ("randomized:seed=7", CANCELLATION)

#: One sample per JSON type; a replacement always changes the type.
JSON_SAMPLES = (None, True, -3, 2.5, "x", [], [1, "a"], {}, {"k": 1})


def _json_type(value):
    if isinstance(value, bool) or value is None:
        return type(value)
    if isinstance(value, (int, float)):
        return float
    return type(value)


def build_payload():
    plan = PricingPlan(
        on_demand_hourly=0.6, upfront=40.0, alpha=0.25, period_hours=PERIOD
    )
    model = CostModel(plan=plan, selling_discount=0.8, marketplace_fee=0.05)
    fleet = FleetState(
        model,
        clearing=ClearingModel.for_regime("normal", seed=3),
        policies=POLICIES,
    )
    ids = [f"i-{k}" for k in range(8)]
    # Idle past the φ=0.5 decision age (listings open, some clear), then
    # busy (cleared sales see demand return: re-buy watches fire); stop
    # before the term rolls over and resets the listing state.
    for hour in range(PERIOD - 2):
        fleet.apply_events(ids, [hour >= PERIOD // 2 + 2] * len(ids))
    payload = fleet_to_payload(fleet, 17, {"ingest_last_seq": 4})
    return json.loads(json.dumps(payload))


SEED = build_payload()


def _pick_row(payload):
    """An instance row holding both an open listing and a fired re-buy
    watch, so row- and spot-level mutations hit live state."""
    for row in payload["instances"]:
        listed = any(spot["verdict"] == 3 for spot in row["spots"].values())
        watched = row["rebuys"][CANCELLATION]["age"] >= 0
        if listed and watched:
            return row
    raise AssertionError("the seed fleet should hold a listed, re-bought row")


ROW = _pick_row(SEED)
ROW_INDEX = SEED["instances"].index(ROW)
SPOT_KEY = next(key for key, spot in ROW["spots"].items() if spot["verdict"] == 3)

#: Every mutable location: a path of keys from the payload root.
PATHS = (
    [(key,) for key in SEED]
    + [("model", key) for key in SEED["model"]]
    + [("model", "plan", key) for key in SEED["model"]["plan"]]
    + [("instances", ROW_INDEX, key) for key in ROW]
    + [("instances", ROW_INDEX, "spots", SPOT_KEY, key) for key in ROW["spots"][SPOT_KEY]]
    + [("instances", ROW_INDEX, "rebuys", CANCELLATION, key)
       for key in ROW["rebuys"][CANCELLATION]]
)


def test_seed_payload_carries_every_optional_section():
    assert SEED["format"] == 4
    assert SEED["clearing"] is not None
    assert SEED["policies"] == list(POLICIES)
    assert "drawn" in ROW and "rebuys" in ROW
    assert ROW["spots"][SPOT_KEY]["clear_at"] >= 0


def test_unmutated_payload_round_trips_exactly():
    checkpoint = checkpoint_from_payload(copy.deepcopy(SEED))
    assert checkpoint.events_ingested == 17
    again = fleet_to_payload(
        checkpoint.fleet, checkpoint.events_ingested, checkpoint.extra
    )
    assert again == SEED


def _mutate(payload, path, replacement, drop):
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement


def _other_type_values(value):
    kind = _json_type(value)
    return [sample for sample in JSON_SAMPLES if _json_type(sample) is not kind]


def _lookup(payload, path):
    node = payload
    for key in path:
        node = node[key]
    return node


def _outcome(payload):
    """``None`` when the restore behaved, else the escaped exception."""
    try:
        restored = checkpoint_from_payload(payload)
    except CheckpointError:
        return None
    except Exception as error:  # noqa: BLE001 - the property under test
        return error
    assert isinstance(restored, Checkpoint)
    return None


def test_every_single_mutation_restores_or_raises_checkpoint_error():
    """The exhaustive single-mutation pass; hypothesis below combines."""
    escaped = []
    for path in PATHS:
        for drop, replacement in [(True, None)] + [
            (False, value) for value in _other_type_values(_lookup(SEED, path))
        ]:
            payload = copy.deepcopy(SEED)
            _mutate(payload, path, replacement, drop)
            error = _outcome(payload)
            if error is not None:
                escaped.append((path, drop, replacement, error))
    assert not escaped, escaped


mutation = st.sampled_from(PATHS).flatmap(
    lambda path: st.tuples(
        st.just(path),
        st.booleans(),
        st.sampled_from(_other_type_values(_lookup(SEED, path))),
    )
)


@settings(max_examples=300, deadline=None)
@given(st.lists(mutation, min_size=2, max_size=4))
def test_mutated_payload_restores_or_raises_checkpoint_error(mutations):
    payload = copy.deepcopy(SEED)
    for path, drop, replacement in mutations:
        try:
            _mutate(payload, path, replacement, drop)
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or retyped the parent
    error = _outcome(payload)
    assert error is None, repr(error)
