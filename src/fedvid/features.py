"""Sensor preprocessing for the box-prediction network.

Turns a message sender's recent GPS/speed/orientation samples plus the ego
vehicle's own sensor records into a fixed-width row of normalized floats:
a window of normalized lat/lng differences, both speeds scaled to [0, 1],
and the signed left/right orientation offset gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import geo

V_MAX = 40.0  # m/s ceiling for speed normalization


@dataclass(frozen=True)
class FeatureConfig:
    window: int = 4            # samples of lat/lng history (newest last)
    comm_range_m: float = 50.0  # sets the lat/lng difference normalization scale

    def input_dim(self) -> int:
        return 2 * self.window + 3


def _clamp(x: float, lo: float, hi: float) -> float:
    """x limited to [lo, hi]. NaN passes through, so the model still rejects it."""
    return lo if x < lo else hi if x > hi else x


def latlng_delta_norm(msg_latlng, ego_latlng, norm_scale) -> tuple[float, float]:
    """Signed (msg - ego) lat/lng difference divided by the normalization scale,
    clamped to [-1, 1]. North and east are positive.

    norm_scale is (lat_scale_deg, lng_scale_deg): the degrees that the range
    spans at the ego's latitude, as geo.meters_to_deg(range, range, lat) gives.
    """
    s_lat, s_lng = norm_scale
    if s_lat <= 0 or s_lng <= 0:
        raise ValueError("norm_scale components must be positive")
    dlat = (msg_latlng[0] - ego_latlng[0]) / s_lat
    dlng = (msg_latlng[1] - ego_latlng[1]) / s_lng
    return _clamp(dlat, -1.0, 1.0), _clamp(dlng, -1.0, 1.0)


def orientation_gamma(alpha_ori: float, beta: float) -> float:
    """Signed, normalized angular offset between the ego heading and the
    bearing to the sender. Positive means the sender is on the left."""
    d = alpha_ori - beta
    if -180.0 <= d <= 180.0:
        return d / 180.0
    if d < -180.0:
        return (d + 360.0) / 180.0
    return (d - 360.0) / 180.0


def speed_norm(spd: float, v_max: float) -> float:
    """Speed scaled into [0, 1]. Negative speeds are a kinematics violation."""
    if v_max <= 0:
        raise ValueError("v_max must be positive")
    if spd < 0:
        raise ValueError(f"negative speed {spd!r}")
    return _clamp(spd / v_max, 0.0, 1.0)


def build_feature_vector(history, ego_records, cfg: FeatureConfig) -> list[float]:
    """Assemble the model input row for one (sender, tick).

    history: sender samples as (lat, lng, ori, spd), oldest first, newest = the
    current message; ego_records: ego sensor samples aligned slot-for-slot with
    history (same length). The row holds cfg.input_dim() floats: the window's
    (dlat, dlng) pairs oldest first, with missing leading slots as 0.0, then
    sender speed, ego speed and gamma, all three from the newest sample.
    """
    if len(history) == 0:
        raise ValueError("empty sender history")
    if len(history) != len(ego_records):
        raise ValueError("sender history and ego records must align")

    used = min(cfg.window, len(history))
    row = [0.0] * (2 * (cfg.window - used))
    s_lat = cfg.comm_range_m / geo.METERS_PER_DEG_LAT   # geo.meters_to_deg(range, range, e[0])
    for h, e in zip(history[-used:], ego_records[-used:]):
        s_lng = cfg.comm_range_m / (geo.METERS_PER_DEG_LAT * math.cos(math.radians(e[0])))
        row.extend(latlng_delta_norm((h[0], h[1]), (e[0], e[1]), (s_lat, s_lng)))

    newest = history[-1]
    ego_now = ego_records[-1]
    brg = geo.initial_bearing(ego_now[0], ego_now[1], newest[0], newest[1])
    gamma = orientation_gamma(ego_now[2], brg)
    row += (speed_norm(newest[3], V_MAX), speed_norm(ego_now[3], V_MAX), gamma)
    return row
