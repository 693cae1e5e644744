"""Checkpoint format: atomic save, faithful restore, and loud refusal
on corrupt, version-skewed or internally inconsistent files."""

import json

import numpy as np
import pytest

from repro.core.account import CostModel
from repro.pricing.plan import PricingPlan
from repro.serve.checkpoint import (
    CHECKPOINT_FORMAT,
    checkpoint_from_payload,
    fleet_to_payload,
    restore_checkpoint,
    save_checkpoint,
)
from repro.serve.errors import CheckpointError, ServeStateError
from repro.serve.state import STATE_VERSION, FleetState, StreamTracker


def build_fleet(seed: int = 0) -> FleetState:
    plan = PricingPlan(
        on_demand_hourly=0.5, upfront=9.0, alpha=0.3, period_hours=12
    )
    fleet = FleetState(CostModel(plan=plan, selling_discount=0.7))
    rng = np.random.default_rng(seed)
    for _ in range(15):
        fleet.apply_events(["i-0", "i-1", "i-2"], list(rng.random(3) < 0.5))
    return fleet


def test_round_trip_preserves_fleet_and_counter(tmp_path):
    fleet = build_fleet()
    path = tmp_path / "fleet.ckpt"
    save_checkpoint(path, fleet, events_ingested=45)
    checkpoint = restore_checkpoint(path)
    restored = checkpoint.fleet
    assert checkpoint.events_ingested == 45
    assert restored.rows() == fleet.rows()
    assert restored.model == fleet.model
    assert restored.phis == fleet.phis
    # restored fleet advances identically
    fleet.apply_events(["i-1"], [True])
    restored.apply_events(["i-1"], [True])
    assert restored.rows() == fleet.rows()


def test_save_is_atomic_no_temp_left_behind(tmp_path):
    path = tmp_path / "fleet.ckpt"
    save_checkpoint(path, build_fleet())
    save_checkpoint(path, build_fleet(1))  # overwrite in place
    assert [p.name for p in tmp_path.iterdir()] == ["fleet.ckpt"]


def test_missing_file_is_a_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError, match="no checkpoint"):
        restore_checkpoint(tmp_path / "nope.ckpt")


def test_corrupt_json_is_a_checkpoint_error(tmp_path):
    path = tmp_path / "fleet.ckpt"
    path.write_text('{"format": 1, "state_ver', encoding="utf-8")
    with pytest.raises(CheckpointError, match="corrupt"):
        restore_checkpoint(path)


def test_unknown_format_is_refused(tmp_path):
    payload = fleet_to_payload(build_fleet())
    payload["format"] = CHECKPOINT_FORMAT + 1
    path = tmp_path / "fleet.ckpt"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CheckpointError, match="format"):
        restore_checkpoint(path)


def test_old_state_version_is_refused(tmp_path):
    payload = fleet_to_payload(build_fleet())
    payload["state_version"] = STATE_VERSION - 1
    path = tmp_path / "fleet.ckpt"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CheckpointError, match="state machine"):
        restore_checkpoint(path)


def test_malformed_instances_are_refused(tmp_path):
    payload = fleet_to_payload(build_fleet())
    payload["instances"] = [{"bogus": True}]
    path = tmp_path / "fleet.ckpt"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CheckpointError, match="malformed"):
        restore_checkpoint(path)


# ----------------------------------------------------------------------
# Inconsistent rows and parameters: typed refusal, never a silent restore
# ----------------------------------------------------------------------


def _row_payload(**overrides):
    payload = fleet_to_payload(build_fleet())
    payload["instances"][0].update(overrides)
    return payload


def test_duplicate_instance_ids_are_refused():
    payload = fleet_to_payload(build_fleet())
    payload["instances"][1]["id"] = payload["instances"][0]["id"]
    with pytest.raises(CheckpointError, match="duplicate instance id"):
        checkpoint_from_payload(payload)


def test_duplicate_rows_are_refused_by_the_fleet():
    fleet = build_fleet()
    rows = fleet.snapshot_instances()
    with pytest.raises(ServeStateError, match="duplicate"):
        FleetState(fleet.model).restore_instances([rows[0], rows[0]])


@pytest.mark.parametrize("bad_id", [None, 7, ["i-0"]])
def test_non_string_instance_ids_are_refused(bad_id):
    with pytest.raises(CheckpointError, match="strings"):
        checkpoint_from_payload(_row_payload(id=bad_id))


@pytest.mark.parametrize(
    "age,working,working_in_term",
    [
        (-3, 0, 0),  # negative age
        (15, 99, 0),  # working beyond age
        (15, 2, 3),  # working_in_term beyond working
        (15, 2, -1),  # negative working_in_term
    ],
)
def test_counters_out_of_order_are_refused(age, working, working_in_term):
    payload = _row_payload(
        age=age, working=working, working_in_term=working_in_term
    )
    with pytest.raises(CheckpointError, match="counters"):
        checkpoint_from_payload(payload)


@pytest.mark.parametrize("scale", [float("inf"), float("nan"), -1.0])
def test_bad_threshold_scale_is_refused_everywhere(scale):
    """The batch engines' finiteness rule holds on the serve path too."""
    model = build_fleet().model
    with pytest.raises(ServeStateError, match="threshold_scale"):
        StreamTracker(model, threshold_scale=scale)
    with pytest.raises(ServeStateError, match="threshold_scale"):
        FleetState(model, threshold_scale=scale)
    payload = fleet_to_payload(build_fleet())
    payload["threshold_scale"] = scale
    with pytest.raises(CheckpointError, match="threshold_scale"):
        checkpoint_from_payload(payload)
