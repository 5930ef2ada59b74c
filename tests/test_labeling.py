import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedvid import labeling, plates, records, scenario
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
        assert lab.front == expected
        checked += len(expected)
    assert checked > 0


def _one_sender_tick(cct, read):
    """One tick with one sender, plate 5CRD321, whose box reads `read`."""
    cfg = scenario.lossless_config(seed=41, num_vehicles=2, duration=2.0)
    placements = [
        scenario.Placement(north_m=0.0, east_m=0.0, orientation=0.0, speed=0.0),
        scenario.Placement(north_m=20.0, east_m=0.0, orientation=0.0, speed=0.0,
                           plate="5CRD321"),
    ]
    state = scenario.build_scenario(cfg, placements, cct)
    obs = scenario.simulate_tick(state)
    obs.front_boxes[0].plate_read = read
    return state.vehicles[1].id, obs


def test_worked_misread_pairs(cct):
    # a box whose read is the confusable misread of the sender's plate matches
    sender, obs = _one_sender_tick(cct, "SCRO32I")
    pairs, _ = labeling.auto_label_frame(obs.messages, obs.front_boxes, cct)
    assert pairs == {sender: 0}


def test_duplicate_message_ids_excluded(cct):
    # two messages claim one id: the box that matches it pairs with neither
    sender, obs = _one_sender_tick(cct, "5CRD321")
    assert labeling.auto_label_frame(obs.messages, obs.front_boxes, cct) == ({sender: 0}, 0)
    assert labeling.auto_label_frame(obs.messages * 2, obs.front_boxes, cct) == ({}, 1)


def test_auto_label_never_false_pairs(cct):
    # auto pairs are always a subset of the ground truth pairing
    _, run = _noisy_run()
    total = 0
    for obs, lab in zip(run.observations, run.labels):
        for msg_id, box_idx in lab.front.items():
            assert obs.truth_pairs.get(msg_id) == box_idx
            total += 1
        # no box is paired with two senders
        assert len(set(lab.front.values())) == len(lab.front)
        assert len(set(lab.rear.values())) == len(lab.rear)
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
    pairs, collisions = labeling.auto_label_frame(obs.messages, obs.front_boxes, cct)
    assert len(pairs) == 0
    assert collisions == 1


# --- outside set ----------------------------------------------------------------

def _msg(mid, lat=23.98, lng=120.98):
    return scenario.Message(lat=lat, lng=lng, ori=0.0, spd=5.0, id=mid)


def _obs_with(msgs, t=10):
    return scenario.Observation(t=t, front_boxes=[], rear_boxes=[], messages=msgs,
                                ego_sensors=scenario.SensorRecord(lat=23.97, lng=120.98,
                                                                  ori=0.0, spd=5.0))


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
        assert not (lab.outside & set(lab.front))


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
            if m.id in lab.front or m.id in lab.rear:
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
            target = np.asarray(e.target)
            assert target.shape == (5,)
            assert np.all((0.0 <= target) & (target <= 1.0))
            assert target[4] in (0.0, 1.0)
            if target[4] == 0.0:
                assert np.all(target == 0.0)


def test_feedback_teacher_forcing():
    _, run = _noisy_run(seed=79)
    examples = labeling.assemble_dataset(run, DatasetMode.MANUAL)
    by_key = {(e.tick, e.sender_id): e for e in examples}
    nonzero = 0
    for e in examples:
        prev = by_key.get((e.tick - 1, e.sender_id))
        if prev is not None and prev.target[4] == 1.0:
            assert np.array_equal(np.asarray(e.feedback), np.asarray(prev.target[:4]))
            nonzero += 1
        else:
            assert np.all(np.asarray(e.feedback) == 0.0)
    assert nonzero > 0


def test_canonicalization_lift_strict():
    from fedvid.experiment import autolabel_rates
    state, run = _noisy_run(seed=83, ticks=200)
    with_rate, without_rate = autolabel_rates(state, run, plates.default_conversion_table())
    assert with_rate > without_rate
    assert 0.0 < without_rate < 1.0
    assert (with_rate, without_rate) == (102 / 259, 56 / 259)


# --- pinned dataset bytes -----------------------------------------------------

PINNED_DATASETS = {   # mode -> (sha256 of to_arrays X|FB|Y, sha256 of the jsonl file)
    DatasetMode.AL: (
        "9660f0e8c298b01f358e0d743322176244005cbd9b73f1e72044c7abf39a21e5",
        "6414ffa5c54fab5e58f7dfcffbdd141cf1b7f48102afba0f83767136b49a4ceb"),
    DatasetMode.ALDA: (
        "f0fdb3622e5b6462d961a1c6c0620e71d3336621d2a9df6bc624e33784eb3789",
        "a3e23496775835596b697470681bb516412f652ed8a80c7e12a1912ce5940984"),
    DatasetMode.MANUAL: (
        "23212dfb5aa4a6c8fac5bcc0c4f3060b792491d4c0f4256dd6191b4cf85ee321",
        "435c3ab7700005d0e56c0b6c42deb8c7c7b5a201a0f1a4262b018afc0041d192"),
}


@pytest.fixture(scope="module")
def run89():
    return _noisy_run(seed=89, ticks=60)[1]


def test_dataset_jsonl_roundtrip(run89, tmp_path):
    # the file holds every value exactly, ordered by (tick, sender id) as to_arrays is
    for mode in DatasetMode:
        examples = labeling.assemble_dataset(run89, mode)
        path = tmp_path / f"{mode.value}.jsonl"
        labeling.write_dataset_jsonl(path, examples)
        back, direct = labeling.read_dataset_jsonl(path), labeling.to_arrays(examples)
        for a, b in zip(vars(back).values(), vars(direct).values()):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        keys = [(r["tick"], r["sender_id"]) for r in map(json.loads, path.read_text().splitlines())]
        assert keys == sorted(keys)


def test_every_dataset_line_decodes_to_the_example_written(run89, tmp_path):
    for mode in DatasetMode:
        examples = labeling.assemble_dataset(run89, mode)
        path = tmp_path / f"{mode.value}.jsonl"
        labeling.write_dataset_jsonl(path, examples)
        back = []
        for _, rec in records.read_jsonl(path):
            assert rec.pop("schema_version") == labeling.DATASET_SCHEMA_VERSION
            back.append(records.from_record(labeling.LabeledExample, rec))
        assert back == examples
        # a str Enum equals its value, so equality alone would pass a plain str
        assert {(type(e.dataset), type(e.source)) for e in back} <= {
            (DatasetMode, labeling.PairSource)}


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


def test_reader_names_line_of_deeply_nested_json(run89, tmp_path):
    path, lines = _dataset_lines(run89, tmp_path)
    _damage_line_3(path, lines, lambda rec: "[" * 100_000)


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
    assert msg.startswith(f"{path}:3: {key} ")


@pytest.mark.parametrize("key,flag", [("features", True), ("target", False)])
def test_reader_names_line_of_boolean(key, flag, run89, tmp_path):
    # JSON true/false are not numbers, though numpy would read them as 1.0/0.0
    path, lines = _dataset_lines(run89, tmp_path)
    msg = _damage_line_3(path, lines, lambda rec: json.dumps({**rec, key: [flag] + rec[key][1:]}))
    assert msg == f"{path}:3: {key} {flag!r} is not float"


@pytest.mark.parametrize("edit,key", [
    (lambda rec: {**rec, "source": "BOGUS"}, "source"),
    (lambda rec: {**rec, "tick": "x"}, "tick"),
    (lambda rec: {**rec, "extra": 1}, "unknown key 'extra'"),
    (lambda rec: {**rec, "validity_mask": [1, 2]}, "validity_mask"),
    (lambda rec: {k: v for k, v in rec.items() if k != "sender_id"}, "missing key 'sender_id'"),
    (lambda rec: {**rec, "schema_version": True}, "unsupported dataset schema True"),
    (lambda rec: {**rec, "schema_version": 1.0}, "unsupported dataset schema 1.0"),
], ids=["bad-source", "tick-not-int", "extra-key", "mask-of-ints", "no-sender-id",
        "schema-true", "schema-float"])
def test_reader_refuses_line_outside_the_example_fields(edit, key, run89, tmp_path):
    # each of these lines loaded silently while the reader read only the number columns
    path, lines = _dataset_lines(run89, tmp_path)
    msg = _damage_line_3(path, lines, lambda rec: json.dumps(edit(rec)))
    assert msg.startswith(f"{path}:3: {key}")


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
