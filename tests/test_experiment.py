import csv
import hashlib
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from fedvid import experiment, labeling, mapping, model as mdl, plates, scenario
from fedvid.labeling import DatasetMode


def _small_world():
    return scenario.WorldConfig(seed=0, num_vehicles=15, duration=30.0, weather="light_haze")


def test_config_rejects_overlapping_seeds():
    with pytest.raises(ValueError):
        experiment.ExperimentConfig(train_seeds=(5, 6), eval_seed=5)


def test_autolabel_rates_bounds():
    cct = plates.default_conversion_table()
    state, run = experiment.simulate_and_label(_small_world(), 301, cct)
    with_rate, without_rate = experiment.autolabel_rates(state, run, cct)
    assert 0.0 <= without_rate <= with_rate <= 1.0


def test_predict_run_covers_every_sender():
    cct = plates.default_conversion_table()
    _, run = experiment.simulate_and_label(_small_world(), 303, cct)
    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(0))
    preds = experiment.predict_run(params, run, mapping.MappingConfig())
    assert len(preds) == len(run.observations)
    for p, obs in zip(preds, run.observations):
        assert set(p.entries) == {m.id for m in obs.messages}
        for inside, box in p.entries.values():
            assert 0.0 < inside < 1.0
            assert box is None or 0 <= box < len(obs.front_boxes)


@pytest.fixture(scope="module")
def run307():
    world = scenario.WorldConfig(seed=0, num_vehicles=40, duration=60.0, weather="light_haze")
    return experiment.simulate_and_label(world, 307, plates.default_conversion_table())[1]


PINNED_PREDICTIONS = {   # threshold_inside -> (mapped senders, sha256 of the predictions)
    0.5: (166, "aaae4c89e88aeea8f937e10926934680c29e5988b12af68eea098d7ca5af3969"),
    0.65: (127, "a102908ae8f180e6e94016e788167c59d0d6c39adeff7a76d5ecf28b6d937b43"),
}


@pytest.mark.parametrize("threshold", sorted(PINNED_PREDICTIONS))
def test_predict_run_pinned(threshold, run307):
    # 0.65 lies above some inside outputs, so the inside filter drops rows
    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(0))
    preds = experiment.predict_run(params, run307, mapping.MappingConfig(threshold_inside=threshold))
    mapped = sum(box is not None for p in preds for _, box in p.entries.values())
    assert sum(len(p.entries) for p in preds) == 496
    digest = hashlib.sha256(repr([(p.t, sorted(p.entries.items())) for p in preds]).encode())
    assert (mapped, digest.hexdigest()) == PINNED_PREDICTIONS[threshold]


def test_predict_run_feeds_back_the_mapped_box(run307, monkeypatch):
    # the feedback enters at the output layer, which runs once per tick with messages
    calls = []
    output_layer = mdl.output_layer

    def recording_output_layer(params, h_cat, fb, out=None):
        calls.append(np.array(fb))
        return output_layer(params, h_cat, fb, out)

    monkeypatch.setattr(mdl, "output_layer", recording_output_layer)
    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(0))
    preds = experiment.predict_run(params, run307, mapping.MappingConfig())
    ticks = [(obs, p) for obs, p in zip(run307.observations, preds) if obs.messages]
    assert len(calls) == len(ticks)

    prev: dict[int, tuple] = {}   # sender -> box mapped to it at the previous tick
    fed_back = 0
    for (obs, pred), FB in zip(ticks, calls):
        ids = sorted(pred.entries)
        expected = [prev.get(m, (0.0, 0.0, 0.0, 0.0)) for m in ids]
        assert np.array_equal(FB, np.array(expected))
        fed_back += sum(m in prev for m in ids)
        prev = {m: obs.front_boxes[box].bb_norm
                for m, (_, box) in pred.entries.items() if box is not None}
    assert fed_back > 0


def _per_tick_predict_run(params, run, mcfg):
    """`predict_run` as it was before the hidden stack ran per block of
    ticks: one whole forward pass per tick."""
    preds, prev_feedback, workspaces = [], {}, {}
    for obs in run.observations:
        ids = sorted(m.id for m in obs.messages)
        pairs, entries = [], {}
        if ids:
            X = np.array([labeling.feature_for(run, i, obs.t)[0] for i in ids])
            FB = np.array([prev_feedback.get(i, (0.0,) * 4) for i in ids], dtype=float)
            ws = mdl.workspace_for(workspaces, params, len(ids), keep_layers=False)
            y, _ = mdl.forward_batch(params, X, FB, training=False, ws=ws)
            pairs = mapping.decide_mapping(ids, y, [b.bb_norm for b in obs.front_boxes],
                                           mcfg).pairs
            mapped = dict(pairs)
            entries = {m: (float(y[i, 4]), mapped.get(m)) for i, m in enumerate(ids)}
        prev_feedback = {m: obs.front_boxes[j].bb_norm for m, j in pairs}
        preds.append((obs.t, entries))
    return preds


def _without_messages(run, drop):
    return replace(run, observations=[replace(obs, messages=[]) if drop(i) else obs
                                      for i, obs in enumerate(run.observations)])


def test_predict_run_has_the_bits_of_the_per_tick_forward(run307):
    # the benchmark's dense shape: about 25 senders a tick, several blocks a run
    dense = scenario.WorldConfig(seed=0, num_vehicles=100, comm_range=100.0, duration=30.0,
                                 weather="light_haze")
    _, dense_run = experiment.simulate_and_label(dense, 311, plates.default_conversion_table())
    # every third tick empty, and a last block of empty ticks only
    gappy = _without_messages(run307, lambda i: i % 3 == 0)
    cut = len(next(experiment._tick_blocks(gappy.observations))[0])
    gappy = _without_messages(gappy, lambda i: i >= cut)

    def block_rows(run):
        return [rows for _, rows in experiment._tick_blocks(run.observations)]

    assert any(len(obs.messages) == 1 for obs in run307.observations)
    assert len(block_rows(run307)) > 1 and len(block_rows(dense_run)) > 3
    assert cut < len(gappy.observations) and block_rows(gappy)[-1] == 0

    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(0))
    for run in (run307, dense_run, gappy):
        for threshold in (0.5, 0.65):
            mcfg = mapping.MappingConfig(threshold_inside=threshold)
            preds = experiment.predict_run(params, run, mcfg)
            assert len(preds) == len(run.observations)
            for p, (t, entries) in zip(preds, _per_tick_predict_run(params, run, mcfg)):
                assert p.t == t and p.entries.keys() == entries.keys()
                for m, (inside, box) in entries.items():
                    assert float.hex(p.entries[m][0]) == float.hex(inside)
                    assert p.entries[m][1] == box


def test_predict_run_refuses_a_non_finite_feature_row(run307, monkeypatch):
    feature_for = labeling.feature_for

    def nan_at_tick_9(run, sender, t):
        row, filled = feature_for(run, sender, t)
        return [math.nan if t == 9 else x for x in row], filled

    monkeypatch.setattr(labeling, "feature_for", nan_at_tick_9)
    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(0))
    with pytest.raises(ValueError, match="^non-finite model input$"):
        experiment.predict_run(params, run307, mapping.MappingConfig())


def test_evaluate_model_deterministic():
    cct = plates.default_conversion_table()
    _, run = experiment.simulate_and_label(_small_world(), 305, cct)
    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(0))
    a = experiment.evaluate_model(params, run, mapping.MappingConfig())
    b = experiment.evaluate_model(params, run, mapping.MappingConfig())
    assert a == b


def test_split_shards_disjoint_and_complete():
    arrays = labeling.TrainingArrays(X=np.arange(30).reshape(10, 3).astype(float),
                                     FB=np.zeros((10, 4)), Y=np.zeros((10, 5)))
    shards = experiment.split_shards(arrays, 3)
    assert sum(s.X.shape[0] for s in shards) == 10
    seen = np.concatenate([s.X[:, 0] for s in shards])
    assert sorted(seen.tolist()) == sorted(arrays.X[:, 0].tolist())


def test_run_experiment_writes_reports(tmp_path):
    cfg = experiment.ExperimentConfig(
        train_seeds=(401, 402), eval_seed=403,
        world=_small_world(),
        dataset_modes=(DatasetMode.AL, DatasetMode.MANUAL),
        training_modes=("central",),
        epochs=3,
    )
    rows = experiment.run_experiment(cfg, tmp_path)
    assert len(rows) == 2
    with open(tmp_path / "report.csv") as f:
        report = list(csv.DictReader(f))
    assert [r["dataset"] for r in report] == ["AL", "MANUAL"]
    for row in report:
        assert 0.0 <= float(row["cr_total"]) <= 1.0
        num = int(row["p_correctly"]) + int(row["p_outside"])
        den = int(row["n_inside"]) + int(row["n_outside"])
        assert float(row["cr_total"]) == pytest.approx(num / den, abs=1e-5)
    with open(tmp_path / "autolabel.csv") as f:
        auto = list(csv.DictReader(f))
    assert [int(r["scenario_seed"]) for r in auto] == [401, 402]
    for r in auto:
        assert 0.0 <= float(r["rate_without_conversion"]) <= float(r["rate_with_conversion"])


def test_run_experiment_repeatable(tmp_path):
    cfg = experiment.ExperimentConfig(
        train_seeds=(411,), eval_seed=412, world=_small_world(),
        dataset_modes=(DatasetMode.AL,), training_modes=("central",), epochs=2,
    )
    a = experiment.run_experiment(cfg, tmp_path / "a")
    b = experiment.run_experiment(cfg, tmp_path / "b")
    assert a == b
    assert (tmp_path / "a" / "report.csv").read_text() == (tmp_path / "b" / "report.csv").read_text()


def _no_world(*args, **kwargs):
    raise AssertionError("a world was simulated")


@pytest.mark.parametrize("modes", [
    ("quantum",), ("central", "federated-x"), ("federated-0",), ("federated-",),
    ("federated-02",), ("federated--1",), ("federated-2 ",),
], ids=["quantum", "after-central", "zero-clients", "no-count", "leading-zero", "negative",
        "trailing-space"])
def test_unknown_training_mode_rejected(modes, tmp_path, monkeypatch):
    # the config refuses the mode, so no world is simulated and no cell trained
    monkeypatch.setattr(scenario, "run_scenario", _no_world)
    with pytest.raises(ValueError, match=f"^unknown training mode {re.escape(repr(modes[-1]))} "):
        experiment.run_experiment(experiment.ExperimentConfig(
            train_seeds=(421,), eval_seed=422, world=_small_world(),
            dataset_modes=(DatasetMode.AL,), training_modes=modes, epochs=1), tmp_path)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("field,value,refused", [
    ("train_seed", -1, -1), ("eval_seed", -3, -3), ("train_seeds", (101, -2), -2),
], ids=["train-seed", "eval-seed", "train-seeds-entry"])
def test_negative_seed_rejected(field, value, refused, tmp_path, monkeypatch):
    # numpy would refuse it only after every world was simulated
    monkeypatch.setattr(scenario, "run_scenario", _no_world)
    with pytest.raises(ValueError, match=f"^{field} {refused} is not at least 0$"):
        experiment.run_experiment(experiment.ExperimentConfig(
            **{"train_seeds": (421,), "eval_seed": 422, field: value}, world=_small_world(),
            dataset_modes=(DatasetMode.AL,), epochs=1), tmp_path)
    assert not list(tmp_path.iterdir())


def test_federated_clients_reads_the_count():
    assert experiment.federated_clients("central") is None
    assert experiment.federated_clients("federated-2") == 2
    assert experiment.federated_clients("federated-12") == 12


def test_small_experiment_bytes_pinned(tmp_path):
    # two training worlds, central and federated-2, a few epochs and rounds:
    # both report files must keep their bytes
    cfg = experiment.ExperimentConfig(train_seeds=(101, 102), eval_seed=201,
                                      training_modes=("central", "federated-2"),
                                      epochs=2, rounds=2, local_epochs=1)
    cfg = replace(cfg, world=replace(cfg.world, num_vehicles=20, duration=40.0))
    experiment.run_experiment(cfg, tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("report.csv", "autolabel.csv")}
    assert digests == {
        "report.csv":
            "ee95a14f91127fbd21c8ed370b01c152e7da4510cb3d806e740af31f23ce4dbd",
        "autolabel.csv":
            "4e94a808bf192c52623f6821962a6d55080e841aa0cf16b6676fa65335905e3f",
    }


def test_experiment_at_one_second_ticks_trains_on_its_rows_width(tmp_path):
    # a 1 s tick gives a 2-sample window, so the rows are 7 wide, not the
    # default model's 11
    world = scenario.WorldConfig(seed=0, num_vehicles=20, duration=40.0, tick_interval=1.0)
    cfg = experiment.ExperimentConfig(train_seeds=(101,), eval_seed=201, world=world,
                                      dataset_modes=(DatasetMode.ALDA,),
                                      training_modes=("central", "federated-2"),
                                      epochs=1, rounds=1, local_epochs=1)
    rows = experiment.run_experiment(cfg, tmp_path)
    assert [r["training_mode"] for r in rows] == ["central", "federated-2"]
    assert all(0.0 <= r["cr_total"] <= 1.0 for r in rows)
