import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedvid import features, geo, model as mdl


def test_latlng_delta_worked_example():
    msg = (23.973875, 120.982025)
    ego = (23.973828, 120.982038)
    dlat, dlng = features.latlng_delta_norm(msg, ego, (1.0, 1.0))
    assert dlat == pytest.approx(0.000047, abs=1e-9)
    assert dlng == pytest.approx(-0.000013, abs=1e-9)


def test_latlng_delta_zero():
    assert features.latlng_delta_norm((10.0, 20.0), (10.0, 20.0), (1e-3, 1e-3)) == (0.0, 0.0)


def test_latlng_delta_clamps():
    dlat, dlng = features.latlng_delta_norm((1.0, 0.0), (0.0, 1.0), (1e-4, 1e-4))
    assert dlat == 1.0
    assert dlng == -1.0


def test_gamma_dead_ahead():
    assert features.orientation_gamma(137.0, 137.0) == 0.0


def test_gamma_wrap_branches():
    assert features.orientation_gamma(10.0, 350.0) == pytest.approx((10 - 350 + 360) / 180)
    assert features.orientation_gamma(350.0, 10.0) == pytest.approx((350 - 10 - 360) / 180)


def test_gamma_range_exhaustive_grid():
    for a in range(0, 360):
        for b in range(0, 360, 5):
            g = features.orientation_gamma(float(a), float(b))
            assert -1.0 <= g <= 1.0


def test_gamma_antisymmetric_on_grid():
    for a in range(0, 360, 3):
        for b in range(0, 360, 7):
            if abs(a - b) == 180:
                continue
            assert features.orientation_gamma(a, b) == pytest.approx(
                -features.orientation_gamma(b, a), abs=1e-12)


def test_speed_norm():
    assert features.speed_norm(0.0, 40.0) == 0.0
    assert features.speed_norm(40.0, 40.0) == 1.0
    assert features.speed_norm(10.0, 40.0) == 0.25
    assert features.speed_norm(80.0, 40.0) == 1.0


def test_speed_norm_negative_rejected():
    with pytest.raises(ValueError):
        features.speed_norm(-1.0, 40.0)


def _samples(n, lat0=23.97, lng0=120.98):
    # sender drifting north-east of the ego, ego heading north
    sender = [(lat0 + 1e-5 * (i + 1), lng0 + 5e-6 * (i + 1), 0.0, 12.0) for i in range(n)]
    ego = [(lat0, lng0, 0.0, 8.0) for _ in range(n)]
    return sender, ego


def test_nan_survives_the_clamps_so_the_model_rejects_it():
    nan = float("nan")
    dlat, dlng = features.latlng_delta_norm((nan, 120.98), (23.97, nan), (1e-4, 1e-4))
    assert math.isnan(dlat) and math.isnan(dlng)
    assert math.isnan(features.speed_norm(nan, 40.0))
    # NaN only in an old position slot and in the sender speed: gamma stays finite
    sender, ego = _samples(4)
    sender[0] = (nan,) + sender[0][1:]
    sender[-1] = sender[-1][:3] + (nan,)
    row = features.build_feature_vector(sender, ego, features.FeatureConfig())
    assert math.isnan(row[0]) and math.isnan(row[-3])   # oldest dlat, sender speed
    assert math.isfinite(row[-1])                        # gamma
    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(4))
    with pytest.raises(ValueError, match="non-finite"):
        mdl.forward_batch(params, np.array(row), np.zeros(4))


def test_full_window_mask_all_true():
    cfg = features.FeatureConfig()
    sender, ego = _samples(4)
    row = features.build_feature_vector(sender, ego, cfg)
    assert len(row) == cfg.input_dim() == 11
    assert all(type(v) is float for v in row)
    assert all(v != 0.0 for v in row[:8])   # no zero-filled slot


def test_single_sample_pads_leading_slots():
    cfg = features.FeatureConfig()
    sender, ego = _samples(1)
    row = features.build_feature_vector(sender, ego, cfg)
    assert row[:6] == [0.0] * 6
    assert row[6] != 0.0 and row[7] != 0.0


def test_empty_history_rejected():
    with pytest.raises(ValueError):
        features.build_feature_vector([], [], features.FeatureConfig())


def test_translation_invariance():
    cfg = features.FeatureConfig()
    sender, ego = _samples(4)
    base = features.build_feature_vector(sender, ego, cfg)
    off = 0.3  # degrees of longitude applied to everyone
    sender2 = [(la, ln + off, o, s) for la, ln, o, s in sender]
    ego2 = [(la, ln + off, o, s) for la, ln, o, s in ego]
    moved = features.build_feature_vector(sender2, ego2, cfg)
    assert np.allclose(base[:8], moved[:8], atol=1e-6)
    assert moved[-1] == pytest.approx(base[-1], abs=0.01)
    assert moved[-3:-1] == base[-3:-1]   # speeds


def test_gamma_sign_matches_side():
    # sender due west of a north-facing ego is on the left: gamma > 0
    sender = [(23.97, 120.97, 0.0, 5.0)]
    ego = [(23.97, 120.98, 0.0, 5.0)]
    row = features.build_feature_vector(sender, ego, features.FeatureConfig())
    assert row[-1] > 0


def _window_with_meters_to_deg(history, ego_records, cfg):
    """The window slots as geo.meters_to_deg gives each slot's scale, the
    conversion that build_feature_vector restates with its dlat hoisted."""
    used = min(cfg.window, len(history))
    row = [0.0] * (2 * (cfg.window - used))
    for h, e in zip(history[-used:], ego_records[-used:]):
        scale = geo.meters_to_deg(cfg.comm_range_m, cfg.comm_range_m, e[0])
        row.extend(features.latlng_delta_norm((h[0], h[1]), (e[0], e[1]), scale))
    return row


_lat = st.floats(-80.0, 80.0, allow_nan=False)
_near = st.floats(-0.002, 0.002, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_lat, st.floats(-180.0, 180.0, allow_nan=False), _near, _near),
                min_size=1, max_size=6),
       st.integers(1, 5), st.floats(1.0, 500.0, allow_nan=False))
def test_window_has_the_bits_of_meters_to_deg(slots, window, comm_range):
    cfg = features.FeatureConfig(window=window, comm_range_m=comm_range)
    ego = [(lat, lng, 0.0, 5.0) for lat, lng, _, _ in slots]
    sender = [(lat + dlat, lng + dlng, 90.0, 7.0) for lat, lng, dlat, dlng in slots]
    row = features.build_feature_vector(sender, ego, cfg)
    expected = _window_with_meters_to_deg(sender, ego, cfg)
    assert [x.hex() for x in row[:2 * window]] == [x.hex() for x in expected]
