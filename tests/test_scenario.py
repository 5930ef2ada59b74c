import dataclasses
import hashlib
import json
import math
import re
import typing

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedvid import geo, plates, records, scenario
from fedvid.labeling import DatasetMode


def _world(**kw):
    defaults = dict(seed=7, num_vehicles=10, duration=10.0)
    defaults.update(kw)
    return scenario.WorldConfig(**defaults)


def _distance_to_ego(state, v):
    return geo.haversine_m(*state.ego.true_position, *v.true_position)


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
    with pytest.raises(ValueError, match="at least 1 is needed"):
        _world(duration=0.25)   # rounds to 0 ticks of 0.5 s
    assert _world(duration=0.3).num_ticks() == 1
    with pytest.raises(ValueError):
        _world(comm_range=-1.0)
    with pytest.raises(ValueError):
        _world(weather="plasma_storm")
    with pytest.raises(ValueError):
        _world(miss_rate=1.5)


def test_tick_count_has_an_upper_bound():
    # run_scenario keeps every tick, so a long enough duration would exhaust memory
    at_bound = records.from_record(scenario.WorldConfig,
                                   {"seed": 3, "duration": scenario.MAX_TICKS * 0.5})
    assert at_bound.num_ticks() == scenario.MAX_TICKS
    with pytest.raises(ValueError, match=f"at most {scenario.MAX_TICKS} are allowed"):
        _world(duration=(scenario.MAX_TICKS + 1) * 0.5)
    with pytest.raises(ValueError, match="gives 2000000000000 ticks"):
        _world(duration=1e12)
    with pytest.raises(ValueError, match=f"^{10**12} ticks asked for; at most {scenario.MAX_TICKS}"):
        scenario.run_scenario(at_bound, ticks=10**12)


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
    d = _distance_to_ego(state, state.vehicles[1])
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
    as its shortest round-trip repr: every value is pinned at full precision.
    The derived answer key is hashed after the fields, so the truth stays pinned."""
    _, observations = scenario.run_scenario(cfg)
    h = hashlib.sha256()
    for obs in observations:
        h.update(json.dumps({**dataclasses.asdict(obs), "truth_pairs": obs.truth_pairs}).encode())
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
    # the benchmark's dense world: about 20 messages per tick
    "dense-light-haze": (
        scenario.WorldConfig(seed=8, num_vehicles=100, comm_range=100.0, duration=20.0,
                             weather="light_haze"),
        "bbe5fd338d42b30d30823e2197d07013d4e8603ab46e2cc9d97d5b570757373d"),
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

def _two_vehicle_state(north_m, east_m=0.0, cfg=None, ori=0.0, ego_ori=0.0, ego_speed=0.0):
    cfg = cfg or scenario.lossless_config(seed=3, num_vehicles=2, duration=5.0)
    placements = [
        scenario.Placement(north_m=0.0, east_m=0.0, orientation=ego_ori, speed=ego_speed),
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


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, scenario.SPEED_MAX_MS), st.floats(0.0, 360.0, exclude_max=True),
       st.sampled_from([0.5, 0.1, 1.0]))
def test_motion_step_has_the_bits_of_meters_to_deg(speed, ori, dt):
    # the step restates geo.meters_to_deg at BASE_LAT with its divisor hoisted
    cfg = scenario.lossless_config(seed=3, num_vehicles=2, duration=5.0, tick_interval=dt)
    state = _two_vehicle_state(north_m=30.0, cfg=cfg, ego_ori=ori, ego_speed=speed)
    lat, lng = state.ego.true_position
    scenario._advance_vehicles(state)
    dlat, dlng = geo.meters_to_deg(speed * dt * math.cos(math.radians(ori)),
                                   speed * dt * math.sin(math.radians(ori)), scenario.BASE_LAT)
    assert [x.hex() for x in state.ego.true_position] == [(lat + dlat).hex(), (lng + dlng).hex()]


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


def _cover_fraction_with_min_max(nearer, farther):
    """scenario._cover_fraction as it was written with min and max calls."""
    ix = max(0.0, min(nearer[2], farther[2]) - max(nearer[0], farther[0]))
    iy = max(0.0, min(nearer[3], farther[3]) - max(nearer[1], farther[1]))
    area = (farther[2] - farther[0]) * (farther[3] - farther[1])
    if area <= 0.0:
        return 1.0
    return (ix * iy) / area


_coord = st.one_of(st.floats(-0.2, 1.2, allow_nan=False), st.sampled_from([0.0, -0.0, 0.5, 1.0]))


@settings(max_examples=400, deadline=None)
@given(st.tuples(_coord, _coord, _coord, _coord), st.tuples(_coord, _coord, _coord, _coord))
def test_cover_fraction_has_the_bits_of_its_min_max_form(nearer, farther):
    assert (scenario._cover_fraction(nearer, farther).hex()
            == _cover_fraction_with_min_max(nearer, farther).hex())


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


def _reference_box(ego, v, cam):
    """The image box of `v`, or None, as detection computed it one vehicle
    at a time: geo's own distance, bearing and offset, eight projected
    points per box, and `min`/`max` over all of them."""
    (e_lat, e_lng), (lat, lng) = ego.true_position, v.true_position
    d = geo.haversine_m(e_lat, e_lng, lat, lng)
    cam_yaw = ego.orientation % 360.0 if cam.facing == "front" else (ego.orientation + 180.0) % 360.0
    if d < 0.5 or d > cam.max_range:
        return None
    if abs(geo.angle_diff_deg(geo.initial_bearing(e_lat, e_lng, lat, lng), cam_yaw)) > cam.hfov_deg / 2.0:
        return None
    north, east = geo.deg_to_meters(lat - e_lat, lng - e_lng, e_lat)
    yaw = math.radians(cam_yaw)
    fwd, right = (math.sin(yaw), math.cos(yaw)), (math.cos(yaw), -math.sin(yaw))
    cx, cy = east * fwd[0] + north * fwd[1], east * right[0] + north * right[1]
    rel = math.radians(v.orientation) - yaw
    ux, uy = math.sin(rel), math.cos(rel)
    f = cam.focal_px()
    us, vs = [], []
    for sl, sw in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        fx = cx + sl * (scenario.VEHICLE_LENGTH_M / 2.0) * uy - sw * (scenario.VEHICLE_WIDTH_M / 2.0) * ux
        fy = cy + sl * (scenario.VEHICLE_LENGTH_M / 2.0) * ux + sw * (scenario.VEHICLE_WIDTH_M / 2.0) * uy
        fx = max(fx, 0.5)
        for z in (0.0 - scenario.CAMERA_HEIGHT_M, scenario.VEHICLE_HEIGHT_M - scenario.CAMERA_HEIGHT_M):
            us.append(f * fy / fx + cam.image_w / 2.0)
            vs.append(f * (-z) / fx + cam.image_h / 2.0)
    x_tl, y_tl = max(0.0, min(us)), max(0.0, min(vs))
    x_br, y_br = min(float(cam.image_w), max(us)), min(float(cam.image_h), max(vs))
    if x_br - x_tl < 1.0 or y_br - y_tl < 1.0:
        return None
    return (x_tl / cam.image_w, y_tl / cam.image_h, x_br / cam.image_w, y_br / cam.image_h)


_offset_m = st.one_of(st.floats(-6.0, 6.0), st.floats(-90.0, 90.0))


@settings(max_examples=300, deadline=None)
@example(1.3, 0.0, 90.0, 0.0, 60.0, 40.0)   # a crosswise car whose near side is 0.4 m ahead
@example(1.0, 0.2, 80.0, 0.0, 60.0, 40.0)   # and one whose near corners are behind the image plane
@given(_offset_m, _offset_m, st.floats(0.0, 360.0, exclude_max=True),
       st.floats(0.0, 360.0, exclude_max=True), st.floats(20.0, 90.0), st.floats(20.0, 90.0))
def test_detection_has_the_bits_of_the_per_vehicle_projection(north, east, ori, ego_ori,
                                                              front_range, rear_range):
    # the ego frame, the unrolled corners and the nearest-corner rows give
    # the boxes of the one-vehicle-at-a-time projection, bit for bit
    cfg = scenario.lossless_config(
        seed=3, num_vehicles=2, duration=5.0,
        front_camera=dataclasses.replace(scenario.default_front_camera(), max_range=front_range),
        rear_camera=dataclasses.replace(scenario.default_rear_camera(), max_range=rear_range))
    state = _two_vehicle_state(north_m=north, east_m=east, cfg=cfg, ori=ori, ego_ori=ego_ori)
    obs = scenario.simulate_tick(state)
    for cam, boxes in ((cfg.front_camera, obs.front_boxes), (cfg.rear_camera, obs.rear_boxes)):
        expected = _reference_box(state.ego, state.vehicles[1], cam)
        got = [[x.hex() for x in b.bb_norm] for b in boxes]
        assert got == ([] if expected is None else [[x.hex() for x in expected]])


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
            assert _distance_to_ego(state, vehicles[m.id]) <= state.cfg.comm_range + 1e-9


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
            d = _distance_to_ego(state, v)
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
    d = _distance_to_ego(state, state.vehicles[1])
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
    d = _distance_to_ego(state, sender)
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

@pytest.mark.parametrize("name", sorted(PINNED_WORLDS))
def test_run_files_roundtrip(name, tmp_path):
    cfg, _ = PINNED_WORLDS[name]
    if name == "lossless":   # JSON cannot hold its infinite camera ranges
        cfg = dataclasses.replace(
            cfg, front_camera=dataclasses.replace(cfg.front_camera, max_range=1e6),
            rear_camera=dataclasses.replace(cfg.rear_camera, max_range=1e6))
    _, observations = scenario.run_scenario(cfg)
    path = tmp_path / "run.jsonl"
    scenario.write_run(path, cfg, observations)
    header = json.loads(path.read_text().splitlines()[0])
    assert header == {"world": dataclasses.asdict(cfg), "ticks": len(observations)}
    assert scenario.read_run(path) == (cfg, observations)


def test_write_run_refuses_a_config_json_cannot_hold(tmp_path):
    cfg = scenario.lossless_config(seed=3, num_vehicles=4, duration=1.0)  # infinite ranges
    _, observations = scenario.run_scenario(cfg)
    path = tmp_path / "run.jsonl"
    with pytest.raises(ValueError, match=re.escape(f"{path}: cannot record ")):
        scenario.write_run(path, cfg, observations)
    assert not path.exists()


# --- record reader errors -------------------------------------------------------------

def _written_run(tmp_path, ticks=10):
    """A seed-19 run of `ticks` ticks written to tmp_path/run.jsonl; line 1 is
    the header, so tick t is on line t + 1."""
    cfg = _world(num_vehicles=15, seed=19, duration=5.0)
    _, observations = scenario.run_scenario(cfg, ticks=ticks)
    path = tmp_path / "run.jsonl"
    scenario.write_run(path, cfg, observations)
    return path, observations


def _edit_record(path, line, edit):
    records = [json.loads(text) for text in path.read_text().splitlines()]
    edit(records[line - 1])
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))


def _read_error(path):
    with pytest.raises(ValueError) as exc:
        scenario.read_run(path)
    return str(exc.value)


def test_read_run_rejects_non_finite_values(tmp_path):
    path, _ = _written_run(tmp_path)
    _edit_record(path, 3, lambda rec: rec["messages"][0].update(lat=float("nan")))
    msg = _read_error(path)
    assert msg.startswith(f"{path}:3: ") and "non-finite value NaN" in msg
    path.write_text(path.read_text().replace("NaN", "1e999"))
    assert _read_error(path).startswith(f"{path}:3: ")


def test_read_run_names_line_of_missing_key(tmp_path):
    path, _ = _written_run(tmp_path)
    _edit_record(path, 4, lambda rec: rec["messages"][0].pop("spd"))
    assert _read_error(path) == f"{path}:4: malformed record: missing key 'spd'"


def test_read_run_names_line_of_box_without_plate_read(tmp_path):
    # a box read without a plate_read key would otherwise load as unread
    path, _ = _written_run(tmp_path)
    _edit_record(path, 4, lambda rec: rec["rear_boxes"][0].pop("plate_read"))
    assert _read_error(path) == f"{path}:4: malformed record: missing key 'plate_read'"


def test_read_run_names_line_of_truncated_record(tmp_path):
    path, _ = _written_run(tmp_path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2][:-9]
    path.write_text("\n".join(lines) + "\n")
    assert _read_error(path).startswith(f"{path}:3: not JSON: ")


def test_read_run_names_line_of_deeply_nested_record(tmp_path):
    path, _ = _written_run(tmp_path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join([*lines[:2], "[" * 100_000 + "\n", *lines[3:]]))
    assert _read_error(path).startswith(f"{path}:3: not JSON: ")


def test_read_run_names_line_of_wrong_type(tmp_path):
    path, _ = _written_run(tmp_path)
    _edit_record(path, 5, lambda rec: rec.update(front_boxes=5))
    assert _read_error(path).startswith(f"{path}:5: malformed record: ")
    path, _ = _written_run(tmp_path)
    _edit_record(path, 5, lambda rec: rec["ego_sensors"].update(spd="12.5"))
    assert _read_error(path) == f"{path}:5: malformed record: spd '12.5' is not float"
    path, _ = _written_run(tmp_path)
    _edit_record(path, 5, lambda rec: rec.update(t=5.0))
    assert _read_error(path) == f"{path}:5: malformed record: t 5.0 is not int"


@pytest.mark.parametrize("key,value", [
    ("plate_read", 5), ("plate_read", ["5", "C"]), ("vehicle_ref", "3"),
    ("vehicle_ref", True), ("plate_readable", 1),
], ids=["plate_read-int", "plate_read-list", "vehicle_ref-str", "vehicle_ref-bool",
        "plate_readable-int"])
def test_read_run_names_line_of_wrong_box_field_type(key, value, tmp_path):
    path, observations = _written_run(tmp_path)
    line = next(obs.t + 1 for obs in observations if obs.front_boxes)
    _edit_record(path, line, lambda rec: rec["front_boxes"][0].update({key: value}))
    msg = _read_error(path)
    assert msg.startswith(f"{path}:{line}: malformed record: {key} {value!r} is not ")


def test_read_run_names_line_of_short_box(tmp_path):
    path, observations = _written_run(tmp_path)
    line = next(obs.t + 1 for obs in observations if obs.front_boxes)
    _edit_record(path, line, lambda rec: rec["front_boxes"][0]["bb_norm"].pop())
    msg = _read_error(path)
    assert msg.startswith(f"{path}:{line}: malformed record: bb_norm [")
    assert msg.endswith("] is not an array of 4")


@pytest.mark.parametrize("value", ["12", True, 1.5, None])
def test_read_run_names_line_of_message_id_of_wrong_type(value, tmp_path):
    path, _ = _written_run(tmp_path)
    _edit_record(path, 4, lambda rec: rec["messages"][0].update(id=value))
    assert _read_error(path).startswith(f"{path}:4: malformed record: id {value!r} is not int")


@pytest.mark.parametrize("edit,line,message", [
    (lambda lines: lines[:4] + lines[3:], 5, "tick 3 does not follow tick 3"),
    (lambda lines: lines[:4] + [lines[5], lines[4]] + lines[6:], 6,
     "tick 4 does not follow tick 5"),
], ids=["repeated", "swapped"])
def test_read_run_rejects_ticks_that_do_not_increase(edit, line, message, tmp_path):
    path, _ = _written_run(tmp_path)
    path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
    assert _read_error(path) == f"{path}:{line}: {message}"


def test_read_run_names_line_of_record_holding_truth_pairs(tmp_path):
    # a tick as files written before the answer key was derived hold it
    path, observations = _written_run(tmp_path)
    _edit_record(path, 7, lambda rec: rec.update(truth_pairs=observations[5].truth_pairs))
    assert _read_error(path) == f"{path}:7: malformed record: unknown key 'truth_pairs'"


def test_read_run_names_line_of_repeated_sender(tmp_path):
    path, observations = _written_run(tmp_path)
    line, obs = next((obs.t + 1, obs) for obs in observations if obs.messages)
    _edit_record(path, line, lambda rec: rec["messages"].append(rec["messages"][0]))
    msg = _read_error(path)
    assert msg == f"{path}:{line}: malformed record: sender id {obs.messages[0].id} repeats"


def test_read_run_names_line_of_repeated_vehicle_ref(tmp_path):
    # a second box of one vehicle would move that sender's truth to the copy
    path, observations = _written_run(tmp_path)
    line, obs = next((obs.t + 1, obs) for obs in observations if obs.front_boxes)
    _edit_record(path, line, lambda rec: rec["front_boxes"].append(rec["front_boxes"][0]))
    msg = _read_error(path)
    assert msg == (f"{path}:{line}: malformed record: "
                   f"vehicle_ref {obs.front_boxes[0].vehicle_ref} repeats")


@pytest.mark.parametrize("lines,message", [
    (lambda lines: [], "malformed header: missing key 'world'"),
    (lambda lines: lines[1:], "malformed header: missing key 'world'"),
    (lambda lines: ['{"world": {"seed": 19, "weather": "sunny"}, "ticks": 10}\n', *lines[1:]],
     "malformed header: weather 'sunny' is not one of ('clear', 'high_clouds', 'overcast', ...)"),
    (lambda lines: ['{"world": {"seed": 19, "fog": 1}, "ticks": 10}\n', *lines[1:]],
     "malformed header: "),
    (lambda lines: ['{"world": {"seed": 19}, "ticks": "10"}\n', *lines[1:]],
     "malformed header: ticks '10' is not int"),
    (lambda lines: ['{"world": {"seed": 19, "num_vehicles": 5.5}, "ticks": 10}\n', *lines[1:]],
     "malformed header: num_vehicles 5.5 is not int"),
    (lambda lines: ['{"world": {"seed": "x"}, "ticks": 10}\n', *lines[1:]],
     "malformed header: seed 'x' is not int"),
], ids=["empty", "no-header", "bad-weather", "unknown-field", "ticks-str", "vehicles-float",
        "seed-str"])
def test_read_run_names_line_1_of_a_bad_header(lines, message, tmp_path):
    path, _ = _written_run(tmp_path)
    path.write_text("".join(lines(path.read_text().splitlines(keepends=True))))
    assert _read_error(path).startswith(f"{path}:1: {message}")


@pytest.mark.parametrize("key,value,expected", [
    ("seed", True, "int"), ("num_vehicles", 40.0, "int"), ("duration", False, "float"),
    ("duration", "60", "float"), ("weather", None, "str"),
    ("front_camera", [90.0], "CameraModel"),
])
def test_world_config_checks_field_types(key, value, expected):
    with pytest.raises(TypeError, match=f"^{key} .* is not {expected}$"):
        records.from_record(scenario.WorldConfig, {"seed": 1, key: value})


def test_world_config_takes_an_int_for_a_float_field():
    assert scenario.WorldConfig(seed=1, duration=10).num_ticks() == 20
    cfg = records.from_record(scenario.WorldConfig, {"seed": 1, "duration": 10})
    assert type(cfg.duration) is float and cfg.duration == 10.0


def test_world_config_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="^seed -1 is not at least 0$"):
        scenario.WorldConfig(seed=-1)
    assert scenario.WorldConfig(seed=0).seed == 0


def test_enum_field_takes_one_of_its_values():
    assert records.from_record(DatasetMode, "ALDA", "dataset") is DatasetMode.ALDA


@pytest.mark.parametrize("value", ["alda", 1, None], ids=["wrong-case", "int", "null"])
def test_enum_field_refuses_what_is_not_one_of_its_values(value):
    with pytest.raises(TypeError, match=f"^dataset {re.escape(repr(value))} is not DatasetMode$"):
        records.from_record(DatasetMode, value, "dataset")


_WORLD_TYPES = typing.get_type_hints(scenario.WorldConfig)
_CAMERA_TYPES = typing.get_type_hints(scenario.CameraModel)
_UNKNOWN_KEYS = ["fog", "nmu_vehicles", "zoom"]
# the choices of each string field, read from its annotation's rule
_WORDS = {name: list(rule.limit) for cls in (scenario.WorldConfig, scenario.CameraModel)
          for name, _, rule in records.field_rules(cls) if rule.relation == "one of"}
_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6), st.integers(),
    st.sampled_from([10**400, -10**400]), st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


def _good(name, tp):
    """Values of field `name` that pass every check of its config."""
    if tp is scenario.CameraModel:
        return st.fixed_dictionaries({k: _good(k, t) for k, t in _CAMERA_TYPES.items()})
    if tp is str:
        return st.sampled_from(_WORDS[name])
    if name == "duration":   # at least one tick of any interval drawn here
        return st.floats(1.0, 10.0)
    # every other float field takes (0, 1]; every int field but the seed takes 2 and above
    return {int: st.integers(2, 2000) | st.just(10**400), float: st.floats(0.01, 1.0)}[tp]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_config_decoder_builds_a_world_or_names_a_key(data):
    # a valid config object, then at most one damage: a junk value, an unknown
    # key or a missing key, at its top level or in one of its cameras
    config = data.draw(st.fixed_dictionaries(
        {"seed": st.integers(min_value=0)},
        optional={k: _good(k, t) for k, t in _WORLD_TYPES.items() if k != "seed"}), label="config")
    cameras = [k for k in config if k.endswith("_camera")]
    obj = config[data.draw(st.sampled_from(cameras))] if cameras and data.draw(st.booleans()) \
        else config
    damage = data.draw(st.sampled_from(["none", "junk", "unknown", "missing"]), label="damage")
    key = data.draw(st.sampled_from(_UNKNOWN_KEYS if damage == "unknown" else sorted(obj)))
    if damage == "missing":
        del obj[key]
    elif damage != "none":
        obj[key] = data.draw(_JUNK, label="junk")
    try:
        cfg = records.from_record(scenario.WorldConfig, config)
    except (TypeError, ValueError) as exc:
        assert damage != "none", str(exc)
        names = [*_WORLD_TYPES, *_CAMERA_TYPES, *_UNKNOWN_KEYS]
        assert any(name in str(exc) for name in names), str(exc)
        return
    # junk may happen to be a valid value, and a field with a default may be left out
    assert damage in ("none", "junk") or damage == "missing" and obj is config and key != "seed"
    text = json.dumps(dataclasses.asdict(cfg))
    assert records.from_record(scenario.WorldConfig, records.decode_record(text)) == cfg


def test_read_run_names_the_file_cut_at_a_line_boundary(tmp_path):
    path, _ = _written_run(tmp_path)
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    assert _read_error(path) == f"{path}: the header promises 10 ticks, the file holds 9"


def _scalars(x, at=()):
    """`(place, value)` of every leaf of a config, observation or container."""
    if dataclasses.is_dataclass(x):
        x = records.to_record(x)
    if isinstance(x, dict):
        return [leaf for k, v in x.items() for leaf in _scalars(v, (*at, k))]
    if isinstance(x, (list, tuple)):
        return [leaf for i, v in enumerate(x) for leaf in _scalars(v, (*at, i))]
    return [(at, x)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_damaged_run_loads_as_written_or_names_the_file(tmp_path_factory, data):
    path, _ = _written_run(tmp_path_factory.mktemp("damaged"))
    written = _scalars(scenario.read_run(path))
    raw = path.read_bytes()
    if data.draw(st.booleans(), label="truncate"):
        damaged = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        i = data.draw(st.integers(0, len(raw) - 1), label="offset")
        damaged = raw[:i] + bytes([data.draw(st.integers(0, 255), label="byte")]) + raw[i + 1:]
    path.write_bytes(damaged)
    try:
        back = _scalars(scenario.read_run(path))
    except ValueError as exc:   # a damaged line, or fewer ticks than the header says
        assert re.match(re.escape(str(path)) + r"(:\d+: |: the header promises \d+ ticks)",
                        str(exc))
        return
    # a byte inside one value may change that value, and nothing else
    assert [place for place, _ in back] == [place for place, _ in written]
    changed = [(a, b) for (_, a), (_, b) in zip(back, written) if a != b]
    assert len(changed) <= 1
    for a, b in changed:
        assert type(a) in (int, float, str) and type(b) in (int, float, str)
        assert type(a) is str or math.isfinite(a)
