#!/usr/bin/env python3
"""Train the box-prediction network and round-trip it through its file format.

Ten ReLU hidden layers with 30% inverted dropout, the previous tick's
decided box concatenated before the output layer, sigmoid outputs, a
quarter-MSE box loss plus a weighted inside term, hand-derived gradients,
and mini-batch Adam.
"""

import tempfile
from pathlib import Path

import numpy as np

from fedvid import experiment, labeling, model as mdl, plates, scenario

cct = plates.default_conversion_table()
world = scenario.WorldConfig(seed=0, num_vehicles=30, duration=180.0, weather="light_haze")
_, run = experiment.simulate_and_label(world, seed=601, cct=cct)
arrays = labeling.to_arrays(labeling.assemble_dataset(run, labeling.DatasetMode.ALDA))
print(f"training set: {arrays.X.shape[0]} rows x {arrays.X.shape[1]} features")

cfg = mdl.ModelConfig()
params = mdl.init_model(cfg, np.random.default_rng(7))
print(f"model: {cfg.hidden_layers} hidden layers of {cfg.hidden_width}, "
      f"{params.param_count()} parameters, dropout {cfg.dropout}, mu {cfg.mu}")

trainer = mdl.Trainer(params, mdl.OptConfig(), seed=7)
losses = trainer.run_epochs(arrays, 40)
for e in (0, 9, 19, 39):
    print(f"  epoch {e + 1:3d}: loss {losses[e]:.5f}")

row = int(np.argmax(arrays.Y[:, 4]))  # a sender that was inside the image
out, _ = mdl.forward_batch(trainer.params, arrays.X[row:row + 1], arrays.FB[row:row + 1])
print(f"\nprediction for an inside row: box {out[0, :4].round(3)}, inside {out[0, 4]:.3f}")
print(f"                      target: box {arrays.Y[row, :4].round(3)}, inside {arrays.Y[row, 4]:.0f}")

with tempfile.TemporaryDirectory(prefix="fedvid_model_") as tmp:
    path = Path(tmp) / "model.fmdf"
    mdl.save_model(trainer.params, path)
    loaded = mdl.load_model(path)
    size = path.stat().st_size
identical = all(np.array_equal(a, b) for a, b in zip(trainer.params.weights, loaded.weights))
print(f"\nsaved {size} bytes to model.fmdf; reload bit-identical: {identical}")
