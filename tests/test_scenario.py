import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedvid import geo, plates, scenario


def _world(**kw):
    defaults = dict(seed=7, num_vehicles=10, duration=10.0)
    defaults.update(kw)
    return scenario.WorldConfig(**defaults)


def _obs_equal(a, b):
    return (
        a.t == b.t
        and [(x.vehicle_ref, x.bb_norm, x.plate_readable, x.plate_read) for x in a.front_boxes]
        == [(x.vehicle_ref, x.bb_norm, x.plate_readable, x.plate_read) for x in b.front_boxes]
        and [(m.id, m.lat, m.lng, m.ori, m.spd) for m in a.messages]
        == [(m.id, m.lat, m.lng, m.ori, m.spd) for m in b.messages]
        and a.truth_pairs == b.truth_pairs
    )


# --- config validation ----------------------------------------------------------

def test_config_invariants_enforced():
    with pytest.raises(ValueError):
        _world(num_vehicles=1)
    with pytest.raises(ValueError):
        _world(tick_interval=0.0)
    with pytest.raises(ValueError):
        _world(comm_range=-1.0)
    with pytest.raises(ValueError):
        _world(weather="plasma_storm")
    with pytest.raises(ValueError):
        _world(miss_rate=1.5)


def test_weather_ladder_shape():
    degs = list(scenario.WEATHER_DEGRADATION.values())
    assert len(degs) == 14
    assert degs[0] == 0.0
    assert degs[-1] == 0.65
    assert all(type(d) is float and 0.0 <= d <= 1.0 for d in degs)
    steps = {round(b - a, 10) for a, b in zip(degs, degs[1:])}
    assert steps == {0.05}


# --- generation -----------------------------------------------------------------

def test_same_seed_same_world():
    a = scenario.generate_scenario(_world())
    b = scenario.generate_scenario(_world())
    assert [v.plate for v in a.vehicles] == [v.plate for v in b.vehicles]
    assert [v.true_position for v in a.vehicles] == [v.true_position for v in b.vehicles]
    assert [v.speed for v in a.vehicles] == [v.speed for v in b.vehicles]


def test_same_seed_bit_identical_observations():
    runs = []
    for _ in range(2):
        state = scenario.generate_scenario(_world(num_vehicles=20))
        runs.append([scenario.simulate_tick(state) for _ in range(15)])
    assert all(_obs_equal(x, y) for x, y in zip(*runs))


def test_different_seeds_differ():
    a = scenario.generate_scenario(_world(seed=7))
    b = scenario.generate_scenario(_world(seed=8))
    assert [v.plate for v in a.vehicles] != [v.plate for v in b.vehicles]


def test_minimal_world_no_overlap():
    state = scenario.generate_scenario(_world(num_vehicles=2))
    assert len(state.vehicles) == 2
    d = state.distance_to_ego(state.vehicles[1])
    assert d >= scenario.MIN_PLACEMENT_GAP_M - 1e-6 or d > 0


def test_capacity_error():
    with pytest.raises(scenario.CapacityError):
        scenario.generate_scenario(_world(num_vehicles=2000))


def test_unique_ids_across_vehicles():
    state = scenario.generate_scenario(_world(num_vehicles=60))
    ids = [v.id for v in state.vehicles]
    assert len(ids) == len(set(ids))


def test_grid_layout_generates():
    state = scenario.generate_scenario(_world(road_layout="grid", num_vehicles=30))
    obs = [scenario.simulate_tick(state) for _ in range(20)]
    assert any(o.messages for o in obs)
    oris = {v.orientation for v in state.vehicles}
    assert oris <= {0.0, 90.0, 180.0, 270.0}


# --- pinned simulation bytes -------------------------------------------------------

def _observation_digest(cfg):
    """sha256 over every tick's observation as JSON, which writes each float
    as its shortest round-trip repr: every value is pinned at full precision."""
    _, observations = scenario.run_scenario(cfg)
    h = hashlib.sha256()
    for obs in observations:
        h.update(json.dumps(dataclasses.asdict(obs)).encode())
    return h.hexdigest()


PINNED_WORLDS = {
    "straight-light-haze": (
        scenario.WorldConfig(seed=4, num_vehicles=60, duration=20.0, weather="light_haze"),
        "70de887106209240ddfff2c4371b5d81332fa1af234d932cf2d6280e386d9cb5"),
    "grid-storm": (
        scenario.WorldConfig(seed=5, num_vehicles=80, duration=20.0, road_layout="grid",
                             weather="storm"),
        "7b529d4766d2a9f1b25bfd747967229683db0646dff4ddeb142210052ee572e3"),
    "lossless": (
        scenario.lossless_config(seed=6, num_vehicles=40, duration=20.0),
        "0a0b8154c69947e17d8711cf8b41e73458efaeaac259fb1901ebab9501013806"),
}


@pytest.mark.parametrize("name", sorted(PINNED_WORLDS))
def test_observation_bytes_pinned(name):
    cfg, digest = PINNED_WORLDS[name]
    assert _observation_digest(cfg) == digest


def test_observation_numbers_are_python_floats():
    # a numpy scalar would print and pickle differently from the float it equals
    for cfg, _ in PINNED_WORLDS.values():
        _, observations = scenario.run_scenario(cfg)
        for obs in observations:
            records = obs.messages + [obs.ego_sensors]
            numbers = [getattr(r, k) for r in records for k in ("lat", "lng", "ori", "spd")]
            numbers += [x for b in obs.front_boxes + obs.rear_boxes for x in b.bb_norm]
            assert {type(x) for x in numbers} == {float}


def test_one_ego_distance_per_vehicle_per_tick(monkeypatch):
    calls = []
    real = geo.haversine_m

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(geo, "haversine_m", counting)
    n, ticks = 30, 12
    scenario.run_scenario(_world(num_vehicles=n, comm_range=100.0), ticks=ticks)
    assert len(calls) == (n - 1) * ticks


# --- messages and noise -----------------------------------------------------------

def _two_vehicle_state(north_m, east_m=0.0, cfg=None, ori=0.0):
    cfg = cfg or scenario.lossless_config(seed=3, num_vehicles=2, duration=5.0)
    placements = [
        scenario.Placement(north_m=0.0, east_m=0.0, orientation=0.0, speed=0.0),
        scenario.Placement(north_m=north_m, east_m=east_m, orientation=ori, speed=0.0),
    ]
    return scenario.build_scenario(cfg, placements)


def test_sender_beyond_comm_range_absent():
    state = _two_vehicle_state(north_m=60.0)
    obs = scenario.simulate_tick(state)
    assert obs.messages == []
    near = _two_vehicle_state(north_m=40.0)
    assert len(scenario.simulate_tick(near).messages) == 1


def test_zero_gps_noise_means_true_positions():
    state = _two_vehicle_state(north_m=30.0)
    obs = scenario.simulate_tick(state)
    m, v = obs.messages[0], state.vehicles[1]
    assert (m.lat, m.lng) == v.true_position
    assert (obs.ego_sensors.lat, obs.ego_sensors.lng) == state.ego.true_position


def test_gps_noise_perturbs():
    cfg = scenario.lossless_config(seed=3, num_vehicles=2, duration=5.0, gps_noise_sigma=3.0)
    state = _two_vehicle_state(north_m=30.0, cfg=cfg)
    m = scenario.simulate_tick(state).messages[0]
    v = state.vehicles[1]
    assert (m.lat, m.lng) != v.true_position
    north, east = geo.deg_to_meters(
        m.lat - v.true_position[0], m.lng - v.true_position[1], v.true_position[0])
    assert math.hypot(north, east) < 25.0  # a few sigma


def test_stationary_world_truth_fixed_point():
    state = _two_vehicle_state(north_m=25.0)
    a = scenario.simulate_tick(state)
    b = scenario.simulate_tick(state)
    assert a.truth_pairs == b.truth_pairs
    assert a.truth_pairs[state.vehicles[1].id] == 0


def test_message_id_is_canonical_plate_hash():
    state = _two_vehicle_state(north_m=25.0)
    obs = scenario.simulate_tick(state)
    sender = state.vehicles[1]
    assert obs.messages[0].id == plates.canonical_plate_id(
        sender.plate, plates.default_conversion_table())


# --- detection --------------------------------------------------------------------

def test_vehicle_behind_not_in_front_camera():
    state = _two_vehicle_state(north_m=-20.0)
    obs = scenario.simulate_tick(state)
    assert obs.front_boxes == []
    assert len(obs.rear_boxes) == 1
    assert obs.truth_pairs[state.vehicles[1].id] == scenario.OUTSIDE


def test_three_spread_vehicles_three_boxes():
    cfg = scenario.lossless_config(seed=5, num_vehicles=4, duration=5.0)
    placements = [
        scenario.Placement(north_m=0.0, east_m=0.0, orientation=0.0, speed=0.0),
        scenario.Placement(north_m=15.0, east_m=-4.0, orientation=0.0, speed=0.0),
        scenario.Placement(north_m=20.0, east_m=4.0, orientation=0.0, speed=0.0),
        scenario.Placement(north_m=30.0, east_m=0.0, orientation=0.0, speed=0.0),
    ]
    state = scenario.build_scenario(cfg, placements)
    obs = scenario.simulate_tick(state)
    assert len(obs.front_boxes) == 3


def test_occlusion_merge_drops_far_box():
    # same lane, the far vehicle fully covered by the near one
    cfg = scenario.lossless_config(seed=5, num_vehicles=3, duration=5.0, merge_threshold=0.7)
    placements = [
        scenario.Placement(north_m=0.0, east_m=0.0, orientation=0.0, speed=0.0),
        scenario.Placement(north_m=10.0, east_m=0.0, orientation=0.0, speed=0.0),
        scenario.Placement(north_m=20.0, east_m=0.0, orientation=0.0, speed=0.0),
    ]
    state = scenario.build_scenario(cfg, placements)
    obs = scenario.simulate_tick(state)
    assert len(obs.front_boxes) == 1
    assert obs.front_boxes[0].vehicle_ref == state.vehicles[1].id
    # merge disabled: both boxes survive
    cfg2 = scenario.lossless_config(seed=5, num_vehicles=3, duration=5.0, merge_threshold=1.0)
    state2 = scenario.build_scenario(cfg2, placements)
    assert len(scenario.simulate_tick(state2).front_boxes) == 2


def test_box_coordinates_normalized_and_ordered():
    state = scenario.generate_scenario(_world(num_vehicles=40, seed=11))
    for _ in range(20):
        obs = scenario.simulate_tick(state)
        for box in obs.front_boxes + obs.rear_boxes:
            x0, y0, x1, y1 = box.bb_norm
            assert 0.0 <= x0 < x1 <= 1.0
            assert 0.0 <= y0 < y1 <= 1.0


def test_messages_within_comm_range_invariant():
    state = scenario.generate_scenario(_world(num_vehicles=40, seed=13))
    vehicles = {v.id: v for v in state.vehicles}
    for _ in range(20):
        obs = scenario.simulate_tick(state)
        for m in obs.messages:
            assert state.distance_to_ego(vehicles[m.id]) <= state.cfg.comm_range + 1e-9


def test_truth_pairs_injective():
    state = scenario.generate_scenario(_world(num_vehicles=40, seed=17))
    for _ in range(20):
        obs = scenario.simulate_tick(state)
        boxes = [v for v in obs.truth_pairs.values() if v != scenario.OUTSIDE]
        assert len(boxes) == len(set(boxes))
        for v in boxes:
            assert 0 <= v < len(obs.front_boxes)


def test_lossless_world_every_in_frustum_sender_paired():
    cfg = scenario.lossless_config(seed=23, num_vehicles=30, duration=20.0)
    state = scenario.generate_scenario(cfg)
    cam = cfg.front_camera
    for _ in range(30):
        obs = scenario.simulate_tick(state)
        ego = state.ego
        for m in obs.messages:
            v = next(x for x in state.vehicles if x.id == m.id)
            d = state.distance_to_ego(v)
            if d < 1.0:
                continue  # kinematic pass-through, detection degenerate
            brg = geo.initial_bearing(ego.true_position[0], ego.true_position[1],
                                      v.true_position[0], v.true_position[1])
            diff = abs(geo.angle_diff_deg(brg, ego.orientation))
            if diff <= cam.hfov_deg / 2.0 - 0.5:  # strictly interior of the cone
                assert obs.truth_pairs[m.id] != scenario.OUTSIDE


# --- plate channel ----------------------------------------------------------------

def test_occluded_box_gets_no_plate_read():
    # same lane, merging off: the far box survives but a nearer car hides its plate
    cfg = scenario.lossless_config(seed=5, num_vehicles=3, duration=5.0, merge_threshold=1.0)
    placements = [
        scenario.Placement(north_m=0.0, east_m=0.0, orientation=0.0, speed=0.0),
        scenario.Placement(north_m=10.0, east_m=0.0, orientation=0.0, speed=0.0),
        scenario.Placement(north_m=20.0, east_m=0.0, orientation=0.0, speed=0.0),
    ]
    state = scenario.build_scenario(cfg, placements)
    near, hidden = scenario.simulate_tick(state).front_boxes
    assert hidden.vehicle_ref == state.vehicles[2].id
    assert not hidden.plate_readable
    assert hidden.plate_read is None
    assert near.plate_read == state.vehicles[1].plate


def test_read_plate_full_degradation_none():
    state = _two_vehicle_state(north_m=10.0)
    scenario.simulate_tick(state)
    d = state.distance_to_ego(state.vehicles[1])
    assert scenario.read_plate(state, state.vehicles[1], d, state.cfg.front_camera, 1.0) is None


def test_read_plate_certain_when_distance_term_is_one():
    # unbounded camera range: the distance factor is exactly 1, clear weather
    # contributes no degradation, so the read always happens (identity channel)
    state = _two_vehicle_state(north_m=5.0)
    scenario.simulate_tick(state)
    cam = state.cfg.front_camera
    clear = scenario.WEATHER_DEGRADATION[state.cfg.weather]
    assert scenario.p_ocr(5.0, cam, clear) == 1.0
    sender = state.vehicles[1]
    d = state.distance_to_ego(sender)
    for _ in range(50):
        assert scenario.read_plate(state, sender, d, cam, clear) == sender.plate


def test_plate_read_attached_in_lossless_world():
    state = _two_vehicle_state(north_m=20.0)
    obs = scenario.simulate_tick(state)
    assert obs.front_boxes[0].plate_read == state.vehicles[1].plate  # identity channel


def test_plate_unreadable_below_min_height():
    cfg = scenario.lossless_config(seed=3, num_vehicles=2, duration=5.0)
    state = _two_vehicle_state(north_m=150.0, cfg=cfg)  # tiny box, within inf range
    obs = scenario.simulate_tick(state)
    assert len(obs.front_boxes) == 1
    box = obs.front_boxes[0]
    assert (box.bb_norm[3] - box.bb_norm[1]) * cfg.front_camera.image_h < scenario.PLATE_MIN_BOX_HEIGHT_PX
    assert not box.plate_readable
    assert box.plate_read is None


# --- record files ------------------------------------------------------------------

def test_run_files_roundtrip(tmp_path):
    cfg = _world(num_vehicles=15, seed=19, duration=5.0)
    _, observations = scenario.run_scenario(cfg)
    scenario.write_run(tmp_path, observations)
    for name in ("frames.jsonl", "messages.jsonl", "sensors.jsonl", "truth.jsonl"):
        assert (tmp_path / name).exists()
    back = scenario.read_run(tmp_path)
    assert len(back) == len(observations)
    for a, b in zip(observations, back):
        assert a.t == b.t
        assert a.truth_pairs == b.truth_pairs
        assert len(a.front_boxes) == len(b.front_boxes)
        for x, y in zip(a.front_boxes, b.front_boxes):
            assert x.vehicle_ref == y.vehicle_ref
            assert x.plate_read == y.plate_read
            assert np.allclose(x.bb_norm, y.bb_norm, atol=1e-8)
        for mx, my in zip(a.messages, b.messages):
            assert mx.id == my.id
            assert abs(mx.lat - my.lat) < 1e-7


def test_read_run_ignores_legacy_message_state(tmp_path):
    # record files from before the always-"cruising" state field was dropped
    cfg = _world(num_vehicles=15, seed=19, duration=5.0)
    _, observations = scenario.run_scenario(cfg)
    scenario.write_run(tmp_path, observations)
    path = tmp_path / "messages.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for rec in records:
        for m in rec["messages"]:
            m["state"] = "cruising"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    back = scenario.read_run(tmp_path)
    ids = [[m.id for m in o.messages] for o in observations]
    assert [[m.id for m in o.messages] for o in back] == ids


# --- record reader errors -------------------------------------------------------------

def _written_run(tmp_path, ticks=10):
    cfg = _world(num_vehicles=15, seed=19, duration=5.0)
    _, observations = scenario.run_scenario(cfg, ticks=ticks)
    scenario.write_run(tmp_path, observations)
    return observations


def _edit_record(path, line, edit):
    records = [json.loads(text) for text in path.read_text().splitlines()]
    edit(records[line - 1])
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))


def _read_error(tmp_path):
    with pytest.raises(ValueError) as exc:
        scenario.read_run(tmp_path)
    return str(exc.value)


def test_read_run_rejects_non_finite_values(tmp_path):
    _written_run(tmp_path)
    path = tmp_path / "messages.jsonl"
    _edit_record(path, 2, lambda rec: rec["messages"][0].update(lat=float("nan")))
    msg = _read_error(tmp_path)
    assert msg.startswith(f"{path}:2: ") and "non-finite value NaN" in msg
    path.write_text(path.read_text().replace("NaN", "1e999"))
    assert _read_error(tmp_path).startswith(f"{path}:2: ")


def test_read_run_names_line_of_missing_key(tmp_path):
    _written_run(tmp_path)
    path = tmp_path / "messages.jsonl"
    _edit_record(path, 3, lambda rec: rec["messages"][0].pop("spd"))
    assert _read_error(tmp_path) == f"{path}:3: missing key 'spd'"


def test_read_run_names_line_of_truncated_record(tmp_path):
    _written_run(tmp_path)
    path = tmp_path / "sensors.jsonl"
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:-9]
    path.write_text("\n".join(lines) + "\n")
    msg = _read_error(tmp_path)
    assert msg.startswith(f"{path}:2: not JSON: ")


def test_read_run_names_line_of_wrong_type(tmp_path):
    _written_run(tmp_path)
    path = tmp_path / "frames.jsonl"
    _edit_record(path, 4, lambda rec: rec.update(front_boxes=5))
    assert _read_error(tmp_path).startswith(f"{path}:4: malformed record: ")
    _written_run(tmp_path)
    path = tmp_path / "sensors.jsonl"
    _edit_record(path, 4, lambda rec: rec.update(spd="12.5"))
    assert _read_error(tmp_path) == f"{path}:4: malformed record: '12.5' is not a number"


def test_read_run_names_line_of_mismatched_tick(tmp_path):
    _written_run(tmp_path)
    path = tmp_path / "truth.jsonl"
    _edit_record(path, 5, lambda rec: rec.update(t=rec["t"] + 1))
    msg = _read_error(tmp_path)
    assert msg == f"{path}:5: tick 6, but {tmp_path / 'frames.jsonl'}:5 holds tick 5"


def test_read_run_names_files_of_mismatched_tick_count(tmp_path):
    _written_run(tmp_path)
    path = tmp_path / "messages.jsonl"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    msg = _read_error(tmp_path)
    assert f"{path} has 9" in msg and f"{tmp_path / 'frames.jsonl'} has 10" in msg


def test_read_run_checks_message_ids_against_truth(tmp_path):
    _written_run(tmp_path)
    path = tmp_path / "messages.jsonl"
    _edit_record(path, 6, lambda rec: rec["messages"][0].update(id=999))
    msg = _read_error(tmp_path)
    assert msg == f"{path}:6: message ids differ from the senders at {tmp_path / 'truth.jsonl'}:6"


def _message_values(observations):
    return [[(m.lat, m.lng, m.ori, m.spd) for m in o.messages] for o in observations]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_damaged_messages_load_as_written_or_name_the_file(tmp_path_factory, data):
    run_dir = tmp_path_factory.mktemp("damaged")
    _written_run(run_dir)
    written = scenario.read_run(run_dir)
    path = run_dir / "messages.jsonl"
    raw = path.read_bytes()
    if data.draw(st.booleans(), label="truncate"):
        damaged = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        i = data.draw(st.integers(0, len(raw) - 1), label="offset")
        damaged = raw[:i] + bytes([data.draw(st.integers(0, 255), label="byte")]) + raw[i + 1:]
    path.write_bytes(damaged)
    try:
        back = scenario.read_run(run_dir)
    except ValueError as exc:   # a damaged line, or a tick count that differs
        assert re.search(re.escape(str(path)) + r"(:\d+: | has \d+)", str(exc))
        return
    # a byte inside one number may change that number, and nothing else
    assert [(o.t, [m.id for m in o.messages]) for o in back] == \
        [(o.t, [m.id for m in o.messages]) for o in written]
    changed = [(a, b) for ta, tb in zip(_message_values(back), _message_values(written))
               for ma, mb in zip(ta, tb) for a, b in zip(ma, mb) if a != b]
    assert len(changed) <= 1
    for a, _ in changed:
        assert type(a) in (int, float) and math.isfinite(a)
    rest = [[(o.front_boxes, o.rear_boxes, o.ego_sensors, o.truth_pairs) for o in obs]
            for obs in (back, written)]
    assert rest[0] == rest[1]


def test_run_files_nine_significant_digits(tmp_path):
    cfg = _world(num_vehicles=5, seed=19, duration=2.0)
    _, observations = scenario.run_scenario(cfg)
    scenario.write_run(tmp_path, observations)
    import json as _json
    with open(tmp_path / "sensors.jsonl") as f:
        rec = _json.loads(f.readline())
    assert float(f"{rec['lat']:.9g}") == rec["lat"]
