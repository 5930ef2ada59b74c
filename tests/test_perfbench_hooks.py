"""The benchmark's tracer must still find and exercise the functions it wraps.

`perfbench/tracing.py` patches fedvid attributes by name, where their callers
look them up. A refactor that renames or re-binds one of them would leave the
benchmark's per-layer metrics reading zero, so these tests install the tracer
(read-only: nothing under perfbench/ is written) around a toy federated run
and around the simulate/label/evaluate path of a tiny world.
"""

import importlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from fedvid import experiment, fed, labeling, mapping, model as mdl, scenario

ROOT = Path(__file__).resolve().parent.parent

FED_SPANS = ("fed.round", "fed.fed_avg", "fed.params_digest", "fed.params_b64",
             "fed.params_from_b64", "fed.local_train", "fed.train_federated_tcp",
             "model.params_to_bytes", "model.params_from_bytes",
             "model.forward_batch.train", "model.forward_batch.eval",
             "model.backward_batch", "model.Adam.step")
WORLD_SPANS = ("scenario.simulate_tick", "scenario.detect_vehicles", "geo.haversine_m",
               "plates.sample_ocr", "labeling.label_run", "labeling.auto_label_frame",
               "labeling.build_outside_set", "labeling.assemble_dataset", "labeling.to_arrays",
               "features.latlng_delta_norm", "labeling.feature_for",
               "mapping.decide_mapping", "mapping.build_score_table", "experiment.predict_run",
               "metrics.compute_cr")


def _resolve(target):
    owner = importlib.import_module(target.owner)
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _traced(monkeypatch, body):
    """Run `body()` under the benchmark's tracer; check that the tracer found
    every target and put every attribute back, and return its unit metrics."""
    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    from perfbench import tracing

    originals = []
    for target in tracing.TARGETS:
        owner, attr = _resolve(target)
        originals.append((owner, attr, getattr(owner, attr)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert not tracer.problems
        body()
    finally:
        tracer.restore()

    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, f"{attr} not restored"
    return tracer.unit_metrics((0, Counter()))


def test_tracer_installs_restores_and_sees_the_fed_path(monkeypatch):
    # the session itself, with a held-out set as on the benchmark's fed
    # workload, must reach every span that workload requires of it
    rng = np.random.default_rng(3)
    shards = [labeling.TrainingArrays(X=rng.random((6, 11)), FB=rng.random((6, 4)),
                                      Y=rng.random((6, 5)))
              for _ in range(3)]
    held_out = shards.pop()
    init = mdl.init_model(mdl.ModelConfig(hidden_width=8), np.random.default_rng(4))

    values = _traced(monkeypatch, lambda: fed.train_federated_tcp(
        shards, init, mdl.OptConfig(), rounds=2, seeds=[5, 6], eval_dataset=held_out,
        timeout=10.0))
    for name in FED_SPANS:
        assert values.get(f"{name}.calls", 0) >= 1, f"{name} recorded no calls"


def test_tracer_sees_the_world_path(monkeypatch):
    world = scenario.WorldConfig(seed=0, num_vehicles=30, duration=10.0, weather="light_haze")
    params = mdl.init_model(mdl.ModelConfig(hidden_width=8), np.random.default_rng(4))

    def body():
        _, run = experiment.simulate_and_label(world, 101)
        labeling.to_arrays(labeling.assemble_dataset(run, labeling.DatasetMode.ALDA))
        # an inside threshold of 0 keeps every estimate, so tables and pairs are built
        experiment.evaluate_model(params, run, mapping.MappingConfig(threshold_inside=0.0))

    values = _traced(monkeypatch, body)
    for name in WORLD_SPANS:
        assert values.get(f"{name}.calls", 0) >= 1, f"{name} recorded no calls"
    # the tracer takes the length of the labels, the examples, ScoreTable.scores
    # and MappingResult.pairs
    for name in ("labeling.pairs_front", "labeling.pairs_rear", "labeling.outside",
                 "labeling.examples", "mapping.table_cells", "mapping.pairs"):
        assert values.get(name, 0) > 0, f"{name} counted nothing"


def test_tracer_sees_the_train_path(monkeypatch):
    # a trainer reaches forward, backward and Adam through module globals, so
    # each step records exactly one call of each; the evaluation records one
    rng = np.random.default_rng(5)
    data = labeling.TrainingArrays(X=rng.random((40, 11)), FB=rng.random((40, 4)),
                                   Y=rng.random((40, 5)))   # batches of 32 and 8
    trainer = mdl.Trainer(mdl.init_model(mdl.ModelConfig(hidden_width=8), np.random.default_rng(4)),
                          mdl.OptConfig(), seed=6)
    epochs, steps = 3, 6

    def body():
        trainer.run_epochs(data, epochs)
        mdl.mean_loss(trainer.params, data)

    values = _traced(monkeypatch, body)
    for name in ("model.forward_batch.train", "model.backward_batch", "model.Adam.step"):
        assert values.get(f"{name}.calls", 0) == steps, f"{name}: {values.get(f'{name}.calls')}"
    assert values.get("model.forward_batch.eval.calls", 0) >= 1
    assert values["model.steps"] == steps
