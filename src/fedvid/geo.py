"""Spherical-earth helpers: great-circle distance, initial bearing, angle wrapping,
and the small-scale metric/degree conversions used throughout the simulator."""

from __future__ import annotations

import math

EARTH_RADIUS_M = 6371000.0
METERS_PER_DEG_LAT = 111320.0
_EARTH_DIAMETER_M = 2.0 * EARTH_RADIUS_M   # 2.0 * R * x is (2.0 * R) * x: same bits


def haversine_m(lat1: float, lng1: float, lat2: float, lng2: float) -> float:
    """Great-circle distance in meters between two lat/lng points (decimal degrees)."""
    p1 = math.radians(lat1)
    p2 = math.radians(lat2)
    dp = math.radians(lat2 - lat1)
    dl = math.radians(lng2 - lng1)
    a = math.sin(dp / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2.0) ** 2
    s = math.sqrt(a)
    return _EARTH_DIAMETER_M * math.asin(s if s < 1.0 else 1.0)   # min(1.0, s) without the call


def initial_bearing(lat1: float, lng1: float, lat2: float, lng2: float) -> float:
    """Initial great-circle bearing from point 1 to point 2, clockwise from north
    in [0, 360). Coincident points are degenerate: returns 0.0."""
    if lat1 == lat2 and lng1 == lng2:
        return 0.0
    p1 = math.radians(lat1)
    p2 = math.radians(lat2)
    dl = math.radians(lng2 - lng1)
    y = math.sin(dl) * math.cos(p2)
    x = math.cos(p1) * math.sin(p2) - math.sin(p1) * math.cos(p2) * math.cos(dl)
    return math.degrees(math.atan2(y, x)) % 360.0


def angle_diff_deg(a: float, b: float) -> float:
    """Smallest signed difference a-b in degrees, in [-180, 180)."""
    return (a - b + 180.0) % 360.0 - 180.0


def meters_to_deg(north_m: float, east_m: float, at_lat: float) -> tuple[float, float]:
    """Convert a local ENU offset in meters to (dlat, dlng) degrees at a latitude."""
    dlat = north_m / METERS_PER_DEG_LAT
    dlng = east_m / (METERS_PER_DEG_LAT * math.cos(math.radians(at_lat)))
    return dlat, dlng


def deg_to_meters(dlat: float, dlng: float, at_lat: float) -> tuple[float, float]:
    """Convert a (dlat, dlng) offset in degrees to local (north_m, east_m)."""
    north = dlat * METERS_PER_DEG_LAT
    east = dlng * METERS_PER_DEG_LAT * math.cos(math.radians(at_lat))
    return north, east


class Frame:
    """What every bearing and offset from one reference point shares, worked
    out once. Each method gives the bits of the module function of its name
    with this point first: the same `math` calls in the same order."""

    __slots__ = ("lat", "lng", "sin_p", "cos_p", "m_per_deg_lng")

    def __init__(self, lat: float, lng: float):
        p = math.radians(lat)
        self.lat, self.lng, self.sin_p, self.cos_p = lat, lng, math.sin(p), math.cos(p)
        self.m_per_deg_lng = METERS_PER_DEG_LAT * self.cos_p   # meters_to_deg's divisor

    def initial_bearing(self, lat: float, lng: float) -> float:
        if lat == self.lat and lng == self.lng:
            return 0.0
        p2, dl = math.radians(lat), math.radians(lng - self.lng)
        cos_p2 = math.cos(p2)
        x = self.cos_p * math.sin(p2) - self.sin_p * cos_p2 * math.cos(dl)
        return math.degrees(math.atan2(math.sin(dl) * cos_p2, x)) % 360.0

    def deg_to_meters(self, lat: float, lng: float) -> tuple[float, float]:
        return ((lat - self.lat) * METERS_PER_DEG_LAT,
                (lng - self.lng) * METERS_PER_DEG_LAT * self.cos_p)

    def meters_to_deg(self, north_m: float, east_m: float) -> tuple[float, float]:
        return north_m / METERS_PER_DEG_LAT, east_m / self.m_per_deg_lng
