#!/usr/bin/env python3
"""Sensor preprocessing: what the network actually sees.

Each (sender, tick) turns into eleven numbers: four ticks of normalized
lat/lng differences, both speeds scaled by 40 m/s, and gamma, the signed
left/right offset between the ego heading and the bearing to the sender.
"""

from fedvid import features

cfg = features.FeatureConfig()
print(f"window {cfg.window} samples, comm range {cfg.comm_range_m} m, "
      f"input width {cfg.input_dim()}")

# a sender pulling ahead on the ego's left
ego = [(23.9700, 120.9800, 0.0, 8.0)] * 4
sender = [(23.9700 + 1e-5 * i, 120.9800 - 8e-6 * i, 0.0, 12.0) for i in range(1, 5)]
row = features.build_feature_vector(sender, ego, cfg)
w = cfg.window
print("\nfull window, one model input row:")
print(f"  deltas (lat,lng, oldest first): {' '.join(f'{v:+.4f}' for v in row[:2 * w])}")
print(f"  speeds (sender, ego): {row[2 * w]:.3f}, {row[2 * w + 1]:.3f}")
print(f"  gamma: {row[2 * w + 2]:+.3f}  (positive = left of the ego)")

# a sender that only just came into range: leading slots zero-filled
row1 = features.build_feature_vector(sender[-1:], ego[-1:], cfg)
print(f"\nfresh sender deltas: {' '.join(f'{v:+.4f}' for v in row1[:2 * w])}")
print(f"  (1 of {w} slots real; the dataset file's validity_mask marks the rest False)")

# gamma's three branches around the wrap
for alpha, beta in ((90.0, 90.0), (10.0, 350.0), (350.0, 10.0)):
    g = features.orientation_gamma(alpha, beta)
    side = "ahead" if g == 0 else ("left" if g > 0 else "right")
    print(f"gamma(ego {alpha:5.1f}, bearing {beta:5.1f}) = {g:+.3f}  -> {side}")
