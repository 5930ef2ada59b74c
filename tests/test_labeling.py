import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedvid import labeling, plates, scenario
from fedvid.labeling import DatasetMode


@pytest.fixture(scope="module")
def cct():
    return plates.default_conversion_table()


def _lossless_run(seed=31, n=20, ticks=40, **kw):
    cfg = scenario.lossless_config(seed=seed, num_vehicles=n, duration=ticks * 0.5, **kw)
    cct = plates.default_conversion_table()
    state, obs = scenario.run_scenario(cfg, ticks=ticks, cct=cct)
    return state, labeling.label_run(obs, cct, cfg)


def _noisy_run(seed=37, n=40, ticks=120, **kw):
    cfg = scenario.WorldConfig(seed=seed, num_vehicles=n, duration=ticks * 0.5,
                               weather="light_haze", **kw)
    cct = plates.default_conversion_table()
    state, obs = scenario.run_scenario(cfg, ticks=ticks, cct=cct)
    return state, labeling.label_run(obs, cct, cfg)


# --- bearing / fov ------------------------------------------------------------

def test_fov_contains_center_and_boundary():
    assert labeling.fov_contains(0.0, 90.0, 0.0)
    assert labeling.fov_contains(0.0, 90.0, 45.0)   # boundary inclusive
    assert not labeling.fov_contains(0.0, 90.0, 45.001)


def test_fov_contains_wraparound():
    assert labeling.fov_contains(350.0, 90.0, 20.0)  # wrapped diff = 30
    assert not labeling.fov_contains(350.0, 90.0, 40.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(0, 360, exclude_max=True), st.floats(1, 179),
       st.floats(0, 360, exclude_max=True))
def test_fov_contains_matches_naive_wrap(ori, hfov, brg):
    diff = abs((brg - ori) % 360.0)
    diff = min(diff, 360.0 - diff)
    assert labeling.fov_contains(ori, hfov, brg) == (diff <= hfov / 2.0)


# --- auto labeling ------------------------------------------------------------

def test_lossless_auto_pairing_equals_truth(cct):
    _, run = _lossless_run()
    checked = 0
    for obs, lab in zip(run.observations, run.labels):
        in_frustum = {m: b for m, b in obs.truth_pairs.items() if b != scenario.OUTSIDE}
        readable = {obs.front_boxes[b].vehicle_ref for b in in_frustum.values()
                    if obs.front_boxes[b].plate_readable}
        expected = {m: b for m, b in in_frustum.items() if m in readable}
        assert lab.front.pairs == expected
        checked += len(expected)
    assert checked > 0


def test_worked_misread_pairs(cct):
    # a box whose read is the confusable misread of the sender's plate matches
    cfg = scenario.lossless_config(seed=41, num_vehicles=2, duration=2.0)
    placements = [
        scenario.Placement(north_m=0.0, east_m=0.0, orientation=0.0, speed=0.0),
        scenario.Placement(north_m=20.0, east_m=0.0, orientation=0.0, speed=0.0,
                           plate="5CRD321"),
    ]
    state = scenario.build_scenario(cfg, placements, cct)
    obs = scenario.simulate_tick(state)
    obs.front_boxes[0].plate_read = "SCRO32I"
    pairing = labeling.auto_label_frame(obs, cct)
    assert pairing.pairs == {state.vehicles[1].id: 0}


def test_auto_label_never_false_pairs(cct):
    # auto pairs are always a subset of the ground truth pairing
    _, run = _noisy_run()
    total = 0
    for obs, lab in zip(run.observations, run.labels):
        for msg_id, box_idx in lab.front.pairs.items():
            assert obs.truth_pairs.get(msg_id) == box_idx
            total += 1
    assert total > 0


def test_duplicate_canonical_reads_excluded(cct):
    cfg = scenario.lossless_config(seed=43, num_vehicles=3, duration=2.0)
    placements = [
        scenario.Placement(north_m=0.0, east_m=0.0, orientation=0.0, speed=0.0),
        scenario.Placement(north_m=15.0, east_m=-3.5, orientation=0.0, speed=0.0),
        scenario.Placement(north_m=22.0, east_m=3.5, orientation=0.0, speed=0.0),
    ]
    state = scenario.build_scenario(cfg, placements, cct)
    obs = scenario.simulate_tick(state)
    assert len(obs.front_boxes) == 2
    obs.front_boxes[0].plate_read = state.vehicles[1].plate
    obs.front_boxes[1].plate_read = state.vehicles[1].plate  # colliding read
    pairing = labeling.auto_label_frame(obs, cct)
    assert len(pairing.pairs) == 0
    assert pairing.ambiguous == 1


def test_pairing_set_injectivity_enforced():
    ps = labeling.PairingSet()
    ps.add(1, 0)
    with pytest.raises(ValueError):
        ps.add(1, 1)
    with pytest.raises(ValueError):
        ps.add(2, 0)


# --- outside set ----------------------------------------------------------------

def _msg(mid, lat=23.98, lng=120.98):
    return scenario.Message(lat=lat, lng=lng, ori=0.0, spd=5.0, id=mid)


def _obs_with(msgs, t=10):
    return scenario.Observation(t=t, front_boxes=[], rear_boxes=[], messages=msgs,
                                ego_sensors=scenario.SensorRecord(lat=23.97, lng=120.98,
                                                                  ori=0.0, spd=5.0),
                                truth_pairs={m.id: scenario.OUTSIDE for m in msgs})


def test_outside_sender_behind_for_full_window():
    ego = {t: (23.97, 120.98, 0.0, 5.0) for t in range(7, 11)}
    behind = (23.9695, 120.98, 180.0, 5.0)  # due south of the ego
    hist = {1: {t: behind for t in range(7, 11)}}
    obs = _obs_with([_msg(1, *behind[:2])])
    out = labeling.build_outside_set(hist, ego, obs, hfov_deg=90.0, k_samples=4,
                                     front_paired=set(), rear_paired=set())
    assert out == frozenset({1})


def test_sender_crossing_fov_edge_once_excluded():
    ego = {t: (23.97, 120.98, 0.0, 5.0) for t in range(7, 11)}
    outside_pt = (23.9695, 120.98)   # behind
    inside_pt = (23.9705, 120.98)    # dead ahead
    samples = {7: outside_pt, 8: inside_pt, 9: outside_pt, 10: outside_pt}
    hist = {1: {t: (*p, 0.0, 5.0) for t, p in samples.items()}}
    obs = _obs_with([_msg(1, *outside_pt)])
    out = labeling.build_outside_set(hist, ego, obs, hfov_deg=90.0, k_samples=4,
                                     front_paired=set(), rear_paired=set())
    assert out == frozenset()


def test_rear_paired_sender_included_despite_noisy_inside_sample():
    ego = {t: (23.97, 120.98, 0.0, 5.0) for t in range(7, 11)}
    inside_pt = (23.9705, 120.98)
    hist = {1: {t: (*inside_pt, 0.0, 5.0) for t in range(7, 11)}}
    obs = _obs_with([_msg(1, *inside_pt)])
    out = labeling.build_outside_set(hist, ego, obs, hfov_deg=90.0, k_samples=4,
                                     front_paired=set(), rear_paired={1})
    assert out == frozenset({1})


def test_incomplete_window_skipped():
    ego = {t: (23.97, 120.98, 0.0, 5.0) for t in range(7, 11)}
    behind = (23.9695, 120.98, 180.0, 5.0)
    hist = {1: {10: behind}}  # only the current tick
    obs = _obs_with([_msg(1, *behind[:2])])
    out = labeling.build_outside_set(hist, ego, obs, hfov_deg=90.0, k_samples=4,
                                     front_paired=set(), rear_paired=set())
    assert out == frozenset()


def test_outside_disjoint_from_front_pairs():
    _, run = _noisy_run(seed=53)
    for lab in run.labels:
        assert not (lab.outside & set(lab.front.pairs))


def test_outside_matches_truth_with_zero_noise():
    # zero GPS noise and full windows: the outside set equals the senders that
    # were outside the true frustum at every window sample (plus rear pairs)
    from fedvid import geo
    state_cfg = scenario.lossless_config(seed=59, num_vehicles=25, duration=30.0)
    cct = plates.default_conversion_table()
    state, obs_list = scenario.run_scenario(state_cfg, cct=cct)
    run = labeling.label_run(obs_list, cct, state_cfg)
    k = 4
    # rebuild true per-tick geometry from the observation stream itself
    true_pos: dict[int, dict[int, tuple[float, float]]] = {}
    ego_pos: dict[int, tuple[float, float, float]] = {}
    for obs in obs_list:
        ego_pos[obs.t] = (obs.ego_sensors.lat, obs.ego_sensors.lng, obs.ego_sensors.ori)
        for m in obs.messages:
            true_pos.setdefault(m.id, {})[obs.t] = (m.lat, m.lng)

    checked = 0
    for obs, lab in zip(obs_list, run.labels):
        if obs.t < k:
            continue
        for m in obs.messages:
            if m.id in lab.front.pairs or m.id in lab.rear.pairs:
                continue
            window = [true_pos[m.id].get(t) for t in range(obs.t - k + 1, obs.t + 1)]
            if any(w is None for w in window):
                continue
            expect = all(
                not labeling.fov_contains(
                    ego_pos[t][2], state_cfg.front_camera.hfov_deg,
                    geo.initial_bearing(ego_pos[t][0], ego_pos[t][1], w[0], w[1]))
                for t, w in zip(range(obs.t - k + 1, obs.t + 1), window)
            )
            assert (m.id in lab.outside) == expect
            checked += 1
    assert checked > 0


# --- dataset assembly ---------------------------------------------------------

def test_dataset_counts_strictly_ordered():
    _, run = _noisy_run(seed=61)
    al = labeling.assemble_dataset(run, DatasetMode.AL)
    alda = labeling.assemble_dataset(run, DatasetMode.ALDA)
    manual = labeling.assemble_dataset(run, DatasetMode.MANUAL)
    assert len(al) < len(alda) < len(manual)


def test_alda_negatives_superset_of_al_negatives():
    _, run = _noisy_run(seed=67)
    al = labeling.assemble_dataset(run, DatasetMode.AL)
    alda = labeling.assemble_dataset(run, DatasetMode.ALDA)
    al_neg = {(e.tick, e.sender_id) for e in al if e.target[4] == 0}
    alda_neg = {(e.tick, e.sender_id) for e in alda if e.target[4] == 0}
    assert al_neg <= alda_neg
    al_pos = {(e.tick, e.sender_id) for e in al if e.target[4] == 1}
    alda_pos = {(e.tick, e.sender_id) for e in alda if e.target[4] == 1}
    assert al_pos == alda_pos


def test_lossless_al_positives_equal_manual_positives():
    # frozen geometry with no occlusion so every box keeps a readable plate
    cfg = scenario.lossless_config(seed=71, num_vehicles=4, duration=15.0)
    placements = [
        scenario.Placement(north_m=0.0, east_m=0.0, orientation=0.0, speed=10.0),
        scenario.Placement(north_m=15.0, east_m=-3.5, orientation=0.0, speed=10.0),
        scenario.Placement(north_m=25.0, east_m=3.5, orientation=0.0, speed=10.0),
        scenario.Placement(north_m=-20.0, east_m=0.0, orientation=0.0, speed=10.0),
    ]
    cct = plates.default_conversion_table()
    state = scenario.build_scenario(cfg, placements, cct)
    obs = [scenario.simulate_tick(state) for _ in range(30)]
    run = labeling.label_run(obs, cct, cfg)
    assert all(b.plate_readable for o in run.observations for b in o.front_boxes)
    al = labeling.assemble_dataset(run, DatasetMode.AL)
    manual = labeling.assemble_dataset(run, DatasetMode.MANUAL)
    al_pos = {(e.tick, e.sender_id) for e in al if e.target[4] == 1}
    man_pos = {(e.tick, e.sender_id) for e in manual if e.target[4] == 1}
    assert al_pos == man_pos
    assert len(al_pos) == 2 * 30


def test_target_invariants():
    _, run = _noisy_run(seed=73)
    for mode in DatasetMode:
        for e in labeling.assemble_dataset(run, mode):
            assert e.target.shape == (5,)
            assert np.all((0.0 <= e.target) & (e.target <= 1.0))
            assert e.target[4] in (0.0, 1.0)
            if e.target[4] == 0.0:
                assert np.all(e.target == 0.0)


def test_feedback_teacher_forcing():
    _, run = _noisy_run(seed=79)
    examples = labeling.assemble_dataset(run, DatasetMode.MANUAL)
    by_key = {(e.tick, e.sender_id): e for e in examples}
    nonzero = 0
    for e in examples:
        prev = by_key.get((e.tick - 1, e.sender_id))
        if prev is not None and prev.target[4] == 1.0:
            assert np.array_equal(e.feedback, prev.target[:4])
            nonzero += 1
        else:
            assert np.all(e.feedback == 0.0)
    assert nonzero > 0


def test_canonicalization_lift_strict():
    from fedvid.experiment import autolabel_rates
    state, run = _noisy_run(seed=83, ticks=200)
    with_rate, without_rate = autolabel_rates(state, run, plates.default_conversion_table())
    assert with_rate > without_rate
    assert 0.0 < without_rate < 1.0


def test_dataset_jsonl_roundtrip(tmp_path):
    _, run = _noisy_run(seed=89, ticks=60)
    examples = labeling.assemble_dataset(run, DatasetMode.ALDA)
    path = tmp_path / "dataset.jsonl"
    labeling.write_dataset_jsonl(path, examples)
    arrays = labeling.read_dataset_jsonl(path)
    direct = labeling.to_arrays(examples)
    assert arrays.X.shape == direct.X.shape
    assert np.allclose(arrays.X, direct.X, atol=1e-7)
    assert np.allclose(arrays.Y, direct.Y, atol=1e-7)
    # ordering: (tick, sender id)
    keys = [(r["tick"], r["sender_id"]) for r in map(json.loads, path.read_text().splitlines())]
    assert keys == sorted(keys)


# --- pinned dataset bytes -----------------------------------------------------

PINNED_DATASETS = {   # mode -> (sha256 of to_arrays X|FB|Y, sha256 of the jsonl file)
    DatasetMode.AL: (
        "9660f0e8c298b01f358e0d743322176244005cbd9b73f1e72044c7abf39a21e5",
        "e8947d8266b87bcccfe35597f244d0e416c5419b38fb6e7973360afea1e01a72"),
    DatasetMode.ALDA: (
        "f0fdb3622e5b6462d961a1c6c0620e71d3336621d2a9df6bc624e33784eb3789",
        "8df1afa433b2b9a15b018d8ec9e109f81cbadcab10d4cbb15f98cfabad27fd9a"),
    DatasetMode.MANUAL: (
        "23212dfb5aa4a6c8fac5bcc0c4f3060b792491d4c0f4256dd6191b4cf85ee321",
        "7e5a860bd6cb3fc0b6aed7ea62f517c6bbcc72026ed740b647c5780cb1744278"),
}


@pytest.fixture(scope="module")
def run89():
    return _noisy_run(seed=89, ticks=60)[1]


@pytest.mark.parametrize("mode", list(DatasetMode))
def test_dataset_bytes_pinned(mode, run89, tmp_path):
    # the files hold rows of fresh senders, so the pin covers the derived mask
    examples = labeling.assemble_dataset(run89, mode)
    a = labeling.to_arrays(examples)
    path = tmp_path / "dataset.jsonl"
    labeling.write_dataset_jsonl(path, examples)
    masks = [json.loads(line)["validity_mask"] for line in path.read_text().splitlines()]
    assert any(not all(m) for m in masks)
    assert all(m == sorted(m) for m in masks)   # missing slots lead
    arrays_digest, jsonl_digest = PINNED_DATASETS[mode]
    assert hashlib.sha256(a.X.tobytes() + a.FB.tobytes() + a.Y.tobytes()).hexdigest() == arrays_digest
    assert hashlib.sha256(path.read_bytes()).hexdigest() == jsonl_digest


# --- dataset reader errors ----------------------------------------------------

def _dataset_lines(run89, tmp_path):
    path = tmp_path / "dataset.jsonl"
    labeling.write_dataset_jsonl(path, labeling.assemble_dataset(run89, DatasetMode.ALDA)[:5])
    return path, path.read_text().splitlines()


def _damage_line_3(path, lines, edit):
    damaged = lines[:2] + [edit(json.loads(lines[2]))] + lines[3:]
    path.write_text("\n".join(damaged) + "\n")
    with pytest.raises(ValueError) as exc:
        labeling.read_dataset_jsonl(path)
    assert f"{path}:3:" in str(exc.value)
    return str(exc.value)


def test_reader_names_line_of_bad_json(run89, tmp_path):
    path, lines = _dataset_lines(run89, tmp_path)
    _damage_line_3(path, lines, lambda rec: json.dumps(rec)[:-7])
    _damage_line_3(path, lines, lambda rec: json.dumps([rec]))


def test_reader_names_line_of_wrong_schema(run89, tmp_path):
    path, lines = _dataset_lines(run89, tmp_path)
    msg = _damage_line_3(path, lines, lambda rec: json.dumps({**rec, "schema_version": 9}))
    assert "schema" in msg


def test_reader_names_line_of_missing_key(run89, tmp_path):
    path, lines = _dataset_lines(run89, tmp_path)
    msg = _damage_line_3(path, lines, lambda rec: json.dumps(
        {k: v for k, v in rec.items() if k != "target"}))
    assert "'target'" in msg


@pytest.mark.parametrize("key", ["features", "feedback", "target"])
def test_reader_names_line_of_ragged_row(key, run89, tmp_path):
    path, lines = _dataset_lines(run89, tmp_path)
    msg = _damage_line_3(path, lines, lambda rec: json.dumps({**rec, key: rec[key] + [0.5]}))
    assert repr(key) in msg


@pytest.mark.parametrize("key,flag", [("features", True), ("target", False)])
def test_reader_names_line_of_boolean(key, flag, run89, tmp_path):
    # JSON true/false are not numbers, though numpy would read them as 1.0/0.0
    path, lines = _dataset_lines(run89, tmp_path)
    msg = _damage_line_3(path, lines, lambda rec: json.dumps({**rec, key: [flag] + rec[key][1:]}))
    assert msg == f"{path}:3: {key!r} is not a flat list of numbers"


def test_reader_names_line_of_non_finite_value(run89, tmp_path):
    path, lines = _dataset_lines(run89, tmp_path)
    msg = _damage_line_3(path, lines, lambda rec: json.dumps(
        {**rec, "features": [float("nan")] + rec["features"][1:]}))
    assert "non-finite" in msg


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_damaged_dataset_loads_consistently_or_names_its_line(run89, tmp_path_factory, data):
    path, _ = _dataset_lines(run89, tmp_path_factory.mktemp("damaged"))
    raw = path.read_bytes()
    if data.draw(st.booleans(), label="truncate"):
        damaged = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        i = data.draw(st.integers(0, len(raw) - 1), label="offset")
        damaged = raw[:i] + bytes([data.draw(st.integers(0, 255), label="byte")]) + raw[i + 1:]
    path.write_bytes(damaged)
    try:
        a = labeling.read_dataset_jsonl(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        if damaged.strip():
            assert re.search(re.escape(str(path)) + r":\d+: ", str(exc))
        return
    for arr, width in ((a.X, len(a.X[0])), (a.FB, 4), (a.Y, 5)):
        assert arr.dtype == np.float64 and arr.shape == (len(a.X), width)
        assert np.isfinite(arr).all()
