#!/usr/bin/env python3
"""A federated training session over the TCP wire protocol, on localhost.

Two clients hold disjoint halves of a labeled dataset. Each round the server
broadcasts the global parameters, the clients train locally and upload
example-count-weighted updates, and the server installs the weighted mean.
Nothing but parameters, counts, and control fields crosses the wire.
"""

import json

import numpy as np

from fedvid import experiment, fed, labeling, model as mdl, plates, scenario

cct = plates.default_conversion_table()
world = scenario.WorldConfig(seed=0, num_vehicles=30, duration=180.0, weather="light_haze")
_, run = experiment.simulate_and_label(world, seed=701, cct=cct)
arrays = labeling.to_arrays(labeling.assemble_dataset(run, labeling.DatasetMode.ALDA))
shards = experiment.split_shards(arrays, 2)
print(f"dataset {arrays.X.shape[0]} rows split into "
      f"{[s.X.shape[0] for s in shards]} client shards")

init = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(7))
final, records, transcript, losses = fed.train_federated_tcp(
    shards, init, mdl.OptConfig(), rounds=8, seeds=[71, 72],
    local_epochs=2, eval_dataset=arrays)

print("\nround digests (64-bit checksums of the aggregated parameters) and socket bytes:")
for r, loss in zip(records, losses):
    print(f"  round {r.round}: clients {r.participants} counts {r.example_counts} "
          f"digest {r.digest:016x}  loss {loss:.5f}  bytes in {r.bytes_in} out {r.bytes_out}")

kinds = [json.loads(line.split(' ', 1)[1])["type"] for line in transcript]
print(f"\nwire transcript: {len(transcript)} frames "
      f"({', '.join(sorted(set(kinds)))})")
fields = set()
for line in transcript:
    fields |= set(json.loads(line.split(" ", 1)[1]))
print(f"every field seen on the wire: {sorted(fields)}")
print(f"the server keeps each blob as its length and digest: {transcript[2][:100]}")
print("no sensor samples, features, or labels were transmitted")
