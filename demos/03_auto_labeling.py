#!/usr/bin/env python3
"""Automatic labeling and data augmentation over a noisy run.

Plate reads pair some boxes with message senders (positives). The rear
camera and a persistence-filtered field-of-view test add outside-of-image
senders (negatives). Three datasets come out: AL (cameras only), ALDA
(cameras + field-of-view negatives), MANUAL (simulator ground truth).
"""

from fedvid import experiment, labeling, plates, scenario

cct = plates.default_conversion_table()
world = scenario.WorldConfig(seed=0, num_vehicles=40, duration=240.0, weather="mist")
state, run = experiment.simulate_and_label(world, seed=501, cct=cct)

with_rate, without_rate = experiment.autolabel_rates(state, run, cct)
print(f"auto-pair rate over {len(run.observations)} ticks:")
print(f"  with character conversion:    {with_rate:.1%}")
print(f"  exact matching (no classes):  {without_rate:.1%}")

front_pairs = sum(len(l.front) for l in run.labels)
rear_pairs = sum(len(l.rear) for l in run.labels)
outside = sum(len(l.outside) for l in run.labels)
print(f"\npairings: {front_pairs} front, {rear_pairs} rear; "
      f"{outside} persistent-outside sender ticks")

for mode in labeling.DatasetMode:
    examples = labeling.assemble_dataset(run, mode)
    pos = sum(1 for e in examples if e.target[4] == 1.0)
    print(f"  {mode.value:6s}: {len(examples):5d} examples "
          f"({pos} inside, {len(examples) - pos} outside)")

ex = labeling.assemble_dataset(run, labeling.DatasetMode.ALDA)[0]
print(f"\none row: tick={ex.tick} sender={ex.sender_id:#x} source={ex.source.value}")
print(f"  features: {' '.join(f'{v:+.3f}' for v in ex.features)}")
print(f"  real window slots: {sum(ex.validity_mask)} of {len(ex.validity_mask)}")
print(f"  target:   {tuple(round(v, 3) for v in ex.target)}")
