import math

import pytest

from fedvid import geo


def test_bearing_due_north():
    assert geo.initial_bearing(0.0, 0.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-9)


def test_bearing_due_east():
    assert geo.initial_bearing(0.0, 0.0, 0.0, 1.0) == pytest.approx(90.0, abs=1e-9)


def test_bearing_desk_scale_matches_spherical_oracle():
    # independent longhand spherical-trig evaluation
    lat1, lng1 = 23.9738, 120.9820
    lat2, lng2 = 23.9743, 120.9825
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lng2 - lng1)
    expected = math.degrees(math.atan2(
        math.sin(dl) * math.cos(p2),
        math.cos(p1) * math.sin(p2) - math.sin(p1) * math.cos(p2) * math.cos(dl),
    )) % 360.0
    assert geo.initial_bearing(lat1, lng1, lat2, lng2) == pytest.approx(expected, abs=0.01)


def test_bearing_degenerate_flag():
    # coincident points have no bearing; 0.0 stands in for it
    assert geo.initial_bearing(10.0, 20.0, 10.0, 20.0) == 0.0
    assert geo.initial_bearing(10.0, 20.0, 10.0, 20.1) > 0.0


def test_haversine_one_degree_latitude():
    d = geo.haversine_m(0.0, 0.0, 1.0, 0.0)
    assert d == pytest.approx(math.pi * geo.EARTH_RADIUS_M / 180.0, rel=1e-9)


def test_meter_degree_roundtrip():
    north, east = 120.0, -45.0
    dlat, dlng = geo.meters_to_deg(north, east, 23.97)
    back = geo.deg_to_meters(dlat, dlng, 23.97)
    assert back[0] == pytest.approx(north, abs=1e-9)
    assert back[1] == pytest.approx(east, abs=1e-9)


def test_angle_diff_wraps():
    assert geo.angle_diff_deg(350.0, 10.0) == pytest.approx(-20.0)
    assert geo.angle_diff_deg(10.0, 350.0) == pytest.approx(20.0)
    assert geo.angle_diff_deg(180.0, 0.0) == pytest.approx(-180.0)
