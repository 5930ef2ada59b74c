import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# --- the reference frame's restated formulas ------------------------------------

def _bits(xs):
    return [float(x).hex() for x in xs]   # tells -0.0 from 0.0, unlike ==


_lat = st.floats(-89.0, 89.0, allow_nan=False)
_lng = st.floats(-180.0, 180.0, allow_nan=False)
# the simulator's scale: a few hundred meters, down to a single ulp and to 0
_offset = st.one_of(st.just(0.0), st.floats(-0.005, 0.005, allow_nan=False),
                    st.sampled_from([5e-324, -5e-324, 1e-15, -1e-15]))


@st.composite
def _point_pairs(draw):
    lat, lng = draw(_lat), draw(_lng)
    far = draw(st.booleans())
    lat2 = draw(_lat) if far else lat + draw(_offset)
    lng2 = draw(_lng) if far else lng + draw(_offset)
    return lat, lng, lat2, lng2


@settings(max_examples=400, deadline=None)
@given(_point_pairs(), st.floats(-1e4, 1e4, allow_nan=False), st.floats(-1e4, 1e4, allow_nan=False))
def test_frame_gives_the_bits_of_the_module_functions(pts, north, east):
    lat, lng, lat2, lng2 = pts
    frame = geo.Frame(lat, lng)
    assert _bits([frame.initial_bearing(lat2, lng2)]) == _bits([geo.initial_bearing(*pts)])
    assert _bits(frame.deg_to_meters(lat2, lng2)) == _bits(
        geo.deg_to_meters(lat2 - lat, lng2 - lng, lat))
    assert _bits(frame.meters_to_deg(north, east)) == _bits(geo.meters_to_deg(north, east, lat))


@pytest.mark.parametrize("lat,lng", [(23.9738, 120.982), (0.0, 0.0), (-0.0, -0.0), (89.0, 180.0)])
def test_frame_bearing_to_its_own_point_is_zero(lat, lng):
    assert geo.Frame(lat, lng).initial_bearing(lat, lng) == geo.initial_bearing(lat, lng, lat, lng)
    assert geo.Frame(lat, lng).initial_bearing(lat, lng) == 0.0


def _haversine_with_min(lat1, lng1, lat2, lng2):
    """haversine_m as it was written before its clamp lost the `min` call."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp, dl = math.radians(lat2 - lat1), math.radians(lng2 - lng1)
    a = math.sin(dp / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2.0) ** 2
    return 2.0 * geo.EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_point_pairs(),
                 # near-antipodes, where the clamp to 1.0 acts
                 st.tuples(_lat, _lng, _offset, _offset).map(
                     lambda p: (p[0], p[1], -p[0] + p[2], p[1] - 180.0 + p[3]))))
def test_haversine_has_the_bits_of_its_min_form(pts):
    assert _bits([geo.haversine_m(*pts)]) == _bits([_haversine_with_min(*pts)])
