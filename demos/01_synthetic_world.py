#!/usr/bin/env python3
"""Build a seeded synthetic world and watch one vehicle's view of it.

The simulator stands in for a real test drive: vehicles move on a road
layout, the ego vehicle detects neighbors through pinhole front/rear cameras,
every nearby vehicle beacons its GPS/orientation/speed twice a second, and
the ground-truth pairing between senders and boxes is recorded per tick.
"""

import tempfile
from pathlib import Path

from fedvid import scenario

cfg = scenario.WorldConfig(seed=2024, num_vehicles=30, duration=30.0,
                           weather="light_rain", road_layout="straight")
state, observations = scenario.run_scenario(cfg)

print(f"world: {cfg.num_vehicles} vehicles, {len(observations)} ticks of "
      f"{cfg.tick_interval}s, weather={cfg.weather} "
      f"(degradation {scenario.WEATHER_DEGRADATION[cfg.weather]})")
print(f"ego plate {state.ego.plate}, id {state.ego.id:#018x}")

obs = observations[20]
print(f"\ntick {obs.t}:")
print(f"  messages received: {len(obs.messages)} (within {cfg.comm_range} m)")
print(f"  front boxes: {len(obs.front_boxes)}, rear boxes: {len(obs.rear_boxes)}")
for i, box in enumerate(obs.front_boxes):
    x0, y0, x1, y1 = box.bb_norm
    read = box.plate_read or "-"
    print(f"    box {i}: [{x0:.3f},{y0:.3f},{x1:.3f},{y1:.3f}] "
          f"plate_readable={box.plate_readable} read={read}")
inside = sum(1 for v in obs.truth_pairs.values() if v != scenario.OUTSIDE)
print(f"  truth: {inside} senders inside the image, "
      f"{len(obs.truth_pairs) - inside} outside")

# identical seeds give identical worlds, byte for byte
state2, observations2 = scenario.run_scenario(cfg)
same = all(a.truth_pairs == b.truth_pairs for a, b in zip(observations, observations2))
print(f"\nre-run with the same seed identical: {same}")

# the recording: a header with the whole WorldConfig, then one line per tick
with tempfile.TemporaryDirectory(prefix="fedvid_world_") as tmp:
    path = Path(tmp) / "run.jsonl"
    scenario.write_run(path, cfg, observations)
    cfg_back, observations_back = scenario.read_run(path)
    size = path.stat().st_size
print(f"run.jsonl: {size} bytes, {len(observations_back)} ticks, "
      f"config read back equal: {cfg_back == cfg}, "
      f"observations read back equal: {observations_back == observations}")
