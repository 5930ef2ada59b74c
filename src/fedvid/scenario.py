"""Deterministic synthetic V2V world.

Generates seeded vehicle trajectories on a straight or grid road layout,
simulates the ego vehicle's front/rear camera detections through a pinhole
model (with occlusion merging and random misses), produces in-range V2V
messages with GPS noise, and reads the plate of each readable box as part of
detection. Each box names the vehicle it shows, and the ground-truth
sender-to-box pairing of a tick derives from those names.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Annotated

import numpy as np

from . import geo, plates
from .records import Rule, check, from_record, read_jsonl, to_record

OUTSIDE = -1  # truth-pair value for a sender with no front-camera box

BASE_LAT = 23.9738
BASE_LNG = 120.9820
_ANCHOR = geo.Frame(BASE_LAT, BASE_LNG)   # placements, motion and the grid wrap measure from it

VEHICLE_LENGTH_M = 4.5
VEHICLE_WIDTH_M = 1.8
VEHICLE_HEIGHT_M = 1.5
CAMERA_HEIGHT_M = 1.2
LANE_WIDTH_M = 3.5
MIN_PLACEMENT_GAP_M = 8.0
STRAIGHT_HALF_SPAN_M = 400.0   # vehicles live within this band around the ego
GRID_EXTENT_M = 600.0
GRID_SPACING_M = 120.0
SPEED_RESAMPLE_TICKS = 10
SPEED_MAX_MS = 20.0
MAX_TICKS = 100_000   # 13.9 h at 0.5 s; a run keeps every tick, about 3 KB each at 40 vehicles

PLATE_MIN_BOX_HEIGHT_PX = 20.0   # smaller boxes cannot expose a readable plate
PLATE_MAX_OCCLUSION_FRAC = 0.05  # nearer-box cover beyond this hides the plate
WEATHER_MISS_WEIGHT = 0.3        # how strongly weather degrades detection

# weather -> degradation of both OCR and detection, evenly spaced 0.00..0.65
WEATHER_DEGRADATION = {name: round(i * 0.05, 2) for i, name in enumerate([
    "clear", "high_clouds", "overcast", "light_haze", "haze", "mist",
    "drizzle", "light_rain", "rain", "fog", "rain_dusk", "heavy_rain",
    "storm", "heavy_storm",
])}


@dataclass(frozen=True)
class CameraModel:
    hfov_deg: Annotated[float, Rule("above", 0.0), Rule("below", 180.0)]
    image_w: Annotated[int, Rule("above", 0)]
    image_h: Annotated[int, Rule("above", 0)]
    facing: Annotated[str, Rule("one of", ("front", "rear"))]
    max_range: Annotated[float, Rule("above", 0.0)]   # meters; inf, the lossless range, is allowed
    __post_init__ = check

    def focal_px(self) -> float:
        return (self.image_w / 2.0) / math.tan(math.radians(self.hfov_deg) / 2.0)


def default_front_camera() -> CameraModel:
    return CameraModel(hfov_deg=90.0, image_w=1280, image_h=720, facing="front", max_range=60.0)


def default_rear_camera() -> CameraModel:
    return CameraModel(hfov_deg=90.0, image_w=1280, image_h=720, facing="rear", max_range=40.0)


class CapacityError(ValueError):
    """The requested vehicle count does not fit on the road layout."""


@dataclass(frozen=True)
class WorldConfig:
    seed: Annotated[int, Rule("at least", 0)]
    num_vehicles: Annotated[int, Rule("at least", 2)] = 100
    tick_interval: Annotated[float, Rule("above", 0.0)] = 0.5
    duration: float = 60.0   # its rules are on the tick count, in `__post_init__`
    comm_range: Annotated[float, Rule("above", 0.0)] = 50.0
    road_layout: Annotated[str, Rule("one of", ("straight", "grid"))] = "straight"
    weather: Annotated[str, Rule("one of", tuple(WEATHER_DEGRADATION))] = "clear"
    gps_noise_sigma: Annotated[float, Rule("at least", 0.0)] = 2.0   # meters
    miss_rate: Annotated[float, Rule("at least", 0.0), Rule("at most", 1.0)] = 0.10
    merge_threshold: Annotated[float, Rule("at least", 0.0), Rule("at most", 1.0)] = 0.7
    speed_profile: Annotated[str, Rule("one of", ("varied", "constant"))] = "varied"
    front_camera: CameraModel = field(default_factory=default_front_camera)
    rear_camera: CameraModel = field(default_factory=default_rear_camera)
    ocr_channel: Annotated[str, Rule("one of", ("builtin", "identity"))] = "builtin"

    def __post_init__(self):
        check(self)   # a positive tick_interval first: the tick count divides by it
        if not math.isfinite(self.duration / self.tick_interval):   # `num_ticks` would overflow
            raise ValueError(f"duration {self.duration} over tick_interval {self.tick_interval} "
                             "overflows the tick count")
        if self.duration / self.tick_interval <= 0.5:   # `num_ticks` rounds it to 0 or less
            raise ValueError(f"duration {self.duration} gives {self.num_ticks()} ticks of "
                             f"{self.tick_interval} s; at least 1 is needed")
        if self.num_ticks() > MAX_TICKS:
            raise ValueError(f"duration {self.duration} gives {self.num_ticks()} ticks of "
                             f"{self.tick_interval} s; at most {MAX_TICKS} are allowed")

    def num_ticks(self) -> int:
        return int(round(self.duration / self.tick_interval))


@dataclass(slots=True)
class VehicleState:
    id: int                      # hash of the canonicalized plate
    plate: str
    true_position: tuple[float, float]    # (lat, lng) decimal degrees
    orientation: float           # degrees in [0, 360)
    speed: float                 # m/s


@dataclass(slots=True)
class DetectedBox:
    vehicle_ref: int             # simulator-internal ground truth, hidden from the pipeline
    bb_norm: tuple[float, float, float, float]
    plate_readable: bool
    plate_read: str | None       # OCR channel output for this box, if any


@dataclass(slots=True)
class Message:
    lat: float
    lng: float
    ori: float
    spd: float
    id: int


@dataclass(slots=True)
class SensorRecord:
    lat: float
    lng: float
    ori: float
    spd: float


@dataclass(slots=True)
class Observation:
    t: int
    front_boxes: list[DetectedBox]
    rear_boxes: list[DetectedBox]
    messages: list[Message]
    ego_sensors: SensorRecord

    @property
    def truth_pairs(self) -> dict[int, int]:
        """The simulator's answer key, which the pipeline never reads: each
        sender id -> the index of the front box whose `vehicle_ref` it is, or
        OUTSIDE. Computed on each read: a copy cached in the instance would
        be written by `write_run`, and `read_run` refuses it."""
        by_ref = {b.vehicle_ref: i for i, b in enumerate(self.front_boxes)}
        return {m.id: by_ref.get(m.id, OUTSIDE) for m in self.messages}


@dataclass
class Placement:
    """Initial pose for one vehicle, in meters relative to the world anchor."""
    north_m: float
    east_m: float
    orientation: float
    speed: float
    plate: str | None = None


class ScenarioState:
    """Mutable world: advance with simulate_tick, inspect via Observations."""

    def __init__(self, cfg: WorldConfig, vehicles: list[VehicleState],
                 seed_seq: np.random.SeedSequence):
        self.cfg = cfg
        self.vehicles = vehicles   # vehicles[0] is the ego
        self.t = 0
        motion_ss, gps_ss, detect_ss, ocr_ss = seed_seq.spawn(4)
        self.motion_rng = np.random.default_rng(motion_ss)
        self.gps_rng = np.random.default_rng(gps_ss)
        self.detect_rng = np.random.default_rng(detect_ss)
        self.ocr_rng = np.random.default_rng(ocr_ss)
        if cfg.ocr_channel == "identity":
            self.ocr_table = plates.identity_confusion_table()
        else:
            self.ocr_table = plates.builtin_confusion_table()

    @property
    def ego(self) -> VehicleState:
        return self.vehicles[0]


def _random_plate(rng) -> str:
    idx = rng.integers(0, len(plates.ALPHABET), size=7)
    return "".join(plates.ALPHABET[i] for i in idx)


def _assign_plates(n: int, rng, cct: plates.ConversionTable) -> list[str]:
    """Unique plates whose canonical ids are also unique under the builtin classes."""
    guard = plates.default_conversion_table()
    out: list[str] = []
    seen: set[int] = set()
    seen_scenario: set[int] = set()
    while len(out) < n:
        p = _random_plate(rng)
        cid = plates.canonical_plate_id(p, guard)
        sid = plates.canonical_plate_id(p, cct)
        if cid in seen or sid in seen_scenario:
            continue
        seen.add(cid)
        seen_scenario.add(sid)
        out.append(p)
    return out


def _build_vehicle(plate: str, cct: plates.ConversionTable, pl: Placement) -> VehicleState:
    lat, lng = _anchor_to_latlng(pl.north_m, pl.east_m)
    return VehicleState(
        id=plates.canonical_plate_id(plate, cct),
        plate=plate,
        true_position=(lat, lng),
        orientation=pl.orientation % 360.0,
        speed=pl.speed,
    )


def _anchor_to_latlng(north_m: float, east_m: float) -> tuple[float, float]:
    dlat, dlng = _ANCHOR.meters_to_deg(north_m, east_m)
    return BASE_LAT + dlat, BASE_LNG + dlng


def build_scenario(cfg: WorldConfig, placements: list[Placement],
                   cct: plates.ConversionTable | None = None) -> ScenarioState:
    """Construct a world from explicit placements; placement 0 is the ego."""
    if len(placements) != cfg.num_vehicles:
        raise ValueError("placements must match num_vehicles")
    cct = cct if cct is not None else plates.default_conversion_table()
    plate_ss, state_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    plate_rng = np.random.default_rng(plate_ss)
    auto = _assign_plates(cfg.num_vehicles, plate_rng, cct)
    vehicles = []
    used: set[str] = set()
    for i, pl in enumerate(placements):
        plate = pl.plate if pl.plate is not None else auto[i]
        if plate in used:
            raise ValueError(f"duplicate plate {plate!r}")
        used.add(plate)
        vehicles.append(_build_vehicle(plate, cct, pl))
    return ScenarioState(cfg, vehicles, state_ss)


def _straight_placements(cfg: WorldConfig, rng) -> list[Placement]:
    lanes = int(rng.integers(2, 5))  # 2-4 parallel lanes
    capacity = lanes * int(2 * STRAIGHT_HALF_SPAN_M / MIN_PLACEMENT_GAP_M)
    if cfg.num_vehicles > capacity:
        raise CapacityError(
            f"straight layout holds at most {capacity} vehicles, requested {cfg.num_vehicles}"
        )
    north_half = lanes // 2  # lanes [north_half:] head north, the rest south
    taken: dict[int, list[float]] = {ln: [] for ln in range(lanes)}

    def place(lane: int, north: float) -> Placement:
        east = (lane - (lanes - 1) / 2.0) * LANE_WIDTH_M
        ori = 0.0 if lane >= north_half else 180.0
        spd = float(rng.uniform(0.0, SPEED_MAX_MS))
        taken[lane].append(north)
        return Placement(north_m=north, east_m=east, orientation=ori, speed=spd)

    out = [place(lanes - 1, 0.0)]  # ego: northbound outer lane at the band center
    while len(out) < cfg.num_vehicles:
        lane = int(rng.integers(0, lanes))
        north = float(rng.uniform(-STRAIGHT_HALF_SPAN_M, STRAIGHT_HALF_SPAN_M))
        if any(abs(north - o) < MIN_PLACEMENT_GAP_M for o in taken[lane]):
            continue
        out.append(place(lane, north))
    return out


def _grid_placements(cfg: WorldConfig, rng) -> list[Placement]:
    n_roads = int(GRID_EXTENT_M / GRID_SPACING_M)  # per axis
    capacity = 2 * n_roads * int(GRID_EXTENT_M / MIN_PLACEMENT_GAP_M)
    if cfg.num_vehicles > capacity:
        raise CapacityError(
            f"grid layout holds at most {capacity} vehicles, requested {cfg.num_vehicles}"
        )
    taken: dict[tuple[str, int], list[float]] = {}

    def place(axis: str, road: int, along: float, direction: int) -> Placement:
        road_coord = road * GRID_SPACING_M
        lane_off = 1.75 * direction
        spd = float(rng.uniform(0.0, SPEED_MAX_MS))
        key = (axis, road)
        taken.setdefault(key, []).append(along)
        if axis == "ns":
            ori = 0.0 if direction > 0 else 180.0
            return Placement(north_m=along, east_m=road_coord + lane_off, orientation=ori, speed=spd)
        ori = 90.0 if direction > 0 else 270.0
        return Placement(north_m=road_coord - lane_off, east_m=along, orientation=ori, speed=spd)

    out = [place("ns", n_roads // 2, GRID_EXTENT_M / 2.0, +1)]  # ego mid-grid heading north
    while len(out) < cfg.num_vehicles:
        axis = "ns" if rng.random() < 0.5 else "ew"
        road = int(rng.integers(0, n_roads + 1))
        along = float(rng.uniform(0.0, GRID_EXTENT_M))
        direction = 1 if rng.random() < 0.5 else -1
        if any(abs(along - o) < MIN_PLACEMENT_GAP_M for o in taken.get((axis, road), [])):
            continue
        out.append(place(axis, road, along, direction))
    return out


def generate_scenario(cfg: WorldConfig, cct: plates.ConversionTable | None = None) -> ScenarioState:
    """Seeded random world: same (cfg, seed) gives a bit-identical state."""
    # the seed's third child draws the layout; build_scenario spawns the first
    # two for the plates and the simulation state
    layout_ss = np.random.SeedSequence(cfg.seed).spawn(3)[2]
    layout_rng = np.random.default_rng(layout_ss)
    if cfg.road_layout == "straight":
        placements = _straight_placements(cfg, layout_rng)
    else:
        placements = _grid_placements(cfg, layout_rng)
    return build_scenario(cfg, placements, cct)


# --- motion ------------------------------------------------------------------

def _advance_vehicles(state: ScenarioState) -> None:
    cfg = state.cfg
    dt = cfg.tick_interval
    resample = (
        cfg.speed_profile == "varied"
        and state.t > 1
        and (state.t - 1) % SPEED_RESAMPLE_TICKS == 0
    )
    m_per_deg_lng = _ANCHOR.m_per_deg_lng
    for v in state.vehicles:
        if resample:
            v.speed = float(state.motion_rng.uniform(0.0, SPEED_MAX_MS))
        ori, step = math.radians(v.orientation), v.speed * dt
        lat, lng = v.true_position   # moved by _ANCHOR.meters_to_deg of the step, inline
        v.true_position = (lat + step * math.cos(ori) / geo.METERS_PER_DEG_LAT,
                           lng + step * math.sin(ori) / m_per_deg_lng)

    if cfg.road_layout == "straight":
        _wrap_straight(state)
    else:
        _wrap_grid(state)


def _wrap_straight(state: ScenarioState) -> None:
    """Keep traffic density steady: fold vehicles into a band around the ego."""
    ego_lat = state.ego.true_position[0]
    span = STRAIGHT_HALF_SPAN_M
    for v in state.vehicles[1:]:
        dn = (v.true_position[0] - ego_lat) * geo.METERS_PER_DEG_LAT
        if abs(dn) > span:
            folded = ((dn + span) % (2 * span)) - span
            new_lat = ego_lat + folded / geo.METERS_PER_DEG_LAT
            v.true_position = (new_lat, v.true_position[1])


def _wrap_grid(state: ScenarioState) -> None:
    for v in state.vehicles:
        north, east = _ANCHOR.deg_to_meters(*v.true_position)
        wrapped = (north % GRID_EXTENT_M, east % GRID_EXTENT_M)
        if wrapped != (north, east):
            v.true_position = _anchor_to_latlng(*wrapped)


# --- detection ---------------------------------------------------------------

def _cover_fraction(nearer, farther) -> float:
    """The share of `farther` that `nearer` covers; `b if b < a else a` is min(a, b)."""
    (n0, n1, n2, n3), (f0, f1, f2, f3) = nearer, farther
    area = (f2 - f0) * (f3 - f1)
    if area <= 0.0:
        return 1.0
    ix = (f2 if f2 < n2 else n2) - (f0 if f0 > n0 else n0)
    iy = (f3 if f3 < n3 else n3) - (f1 if f1 > n1 else n1)
    return ((ix if ix > 0.0 else 0.0) * (iy if iy > 0.0 else 0.0)) / area


def detect_vehicles(state: ScenarioState, cam: CameraModel, near: list) -> list[DetectedBox]:
    """Pinhole detection for one camera over the tick's vehicles in camera
    reach, each as (distance, vehicle, bearing, north_m, east_m) from the ego:
    range and frustum culling, projection of each vehicle's 3D box to a
    normalized image box, occlusion merging, random misses, the
    plate-visibility rule, and the OCR read of each readable plate."""
    cfg = state.cfg
    ego_ori = state.ego.orientation
    cam_yaw = ego_ori % 360.0 if cam.facing == "front" else (ego_ori + 180.0) % 360.0
    degradation = WEATHER_DEGRADATION[cfg.weather]
    yaw = math.radians(cam_yaw)
    sin_yaw, cos_yaw = math.sin(yaw), math.cos(yaw)
    half_l, half_w, half_fov = VEHICLE_LENGTH_M / 2.0, VEHICLE_WIDTH_M / 2.0, cam.hfov_deg / 2.0
    f, half_iw, half_ih = cam.focal_px(), cam.image_w / 2.0, cam.image_h / 2.0
    # f * (-z) of the box's top and bottom: the nearest corner bounds the box's rows
    f_top = f * -(VEHICLE_HEIGHT_M - CAMERA_HEIGHT_M)
    f_bottom = f * -(0.0 - CAMERA_HEIGHT_M)

    candidates = []  # (distance, vehicle, raw box)
    for d, v, brg, north, east in near:
        if d > cam.max_range or abs(geo.angle_diff_deg(brg, cam_yaw)) > half_fov:
            continue
        cx = east * sin_yaw + north * cos_yaw     # camera-frame forward
        cy = east * cos_yaw + north * -sin_yaw    # camera-frame right
        rel = math.radians(v.orientation) - yaw
        ux, uy = math.sin(rel), math.cos(rel)     # vehicle heading in camera frame (right, fwd)
        # corner (sl, sw) of (+-1, +-1) is at cx + sl * half_l * uy - sw * half_w * ux
        # forward, cy + sl * half_l * ux + sw * half_w * uy right; sign flips are exact
        lu, lx, wu, wy = half_l * uy, half_l * ux, half_w * ux, half_w * uy
        fa, fb, ya, yb = cx + lu, cx - lu, cy + lx, cy - lx
        fx1, fx2, fx3, fx4 = fa - wu, fa + wu, fb - wu, fb + wu
        near_fx = min(fx1, fx2, fx3, fx4)
        if near_fx < 0.5:   # clamp points at/behind the image plane
            fx1, fx2, fx3, fx4 = (0.5 if fx < 0.5 else fx for fx in (fx1, fx2, fx3, fx4))
            near_fx = 0.5
        us = (f * (ya + wy) / fx1 + half_iw, f * (ya - wy) / fx2 + half_iw,
              f * (yb + wy) / fx3 + half_iw, f * (yb - wy) / fx4 + half_iw)
        x_tl = max(0.0, min(us))
        y_tl = max(0.0, f_top / near_fx + half_ih)
        x_br = min(float(cam.image_w), max(us))
        y_br = min(float(cam.image_h), f_bottom / near_fx + half_ih)
        if x_br - x_tl < 1.0 or y_br - y_tl < 1.0:
            continue
        box = (x_tl / cam.image_w, y_tl / cam.image_h, x_br / cam.image_w, y_br / cam.image_h)
        candidates.append((d, v, box))
    candidates.sort(key=lambda c: c[0])

    miss = 1.0 - (1.0 - cfg.miss_rate) * (1.0 - WEATHER_MISS_WEIGHT * degradation)
    kept = []   # boxes no nearer box swallowed, missed ones included
    out = []
    for d, v, box in candidates:
        if any(_cover_fraction(nb, box) > cfg.merge_threshold for nb in kept):
            continue  # swallowed by a nearer detection
        kept.append(box)
        if miss > 0.0 and state.detect_rng.random() < miss:
            continue
        height_px = (box[3] - box[1]) * cam.image_h
        # plates are hidden by nearer vehicles whether or not those got a box
        readable = height_px >= PLATE_MIN_BOX_HEIGHT_PX and not any(
            _cover_fraction(nb, box) > PLATE_MAX_OCCLUSION_FRAC
            for nd, _, nb in candidates if nd < d
        )
        read = read_plate(state, v, d, cam, degradation) if readable else None
        out.append(DetectedBox(vehicle_ref=v.id, bb_norm=box, plate_readable=readable,
                               plate_read=read))
    return out


def p_ocr(distance_m: float, cam: CameraModel, degradation: float) -> float:
    """Probability a readable plate yields an OCR read: linear in distance,
    scaled by the weather's degradation."""
    base = min(1.0, max(0.0, 1.0 - distance_m / cam.max_range))
    return base * (1.0 - degradation)


def read_plate(state: ScenarioState, vehicle: VehicleState, distance_m: float,
               cam: CameraModel, degradation: float) -> str | None:
    """OCR channel output for one readable plate: the distance/weather draw
    decides whether a read happens, then the confusion channel garbles it."""
    p = p_ocr(distance_m, cam, degradation)
    if p <= 0.0 or state.ocr_rng.random() >= p:
        return None
    return plates.sample_ocr(vehicle.plate, state.ocr_table, state.ocr_rng)


def simulate_tick(state: ScenarioState) -> Observation:
    """Advance the world one tick and emit the observation for it. The ego
    frame, each vehicle's distance and, in camera reach, its bearing and
    offset are worked out once and serve both cameras and the messages."""
    cfg = state.cfg
    state.t += 1
    _advance_vehicles(state)
    # one GPS draw per tick; its rows are the per-vehicle draws in vehicle order
    noise = state.gps_rng.normal(0.0, cfg.gps_noise_sigma,
                                 size=(len(state.vehicles), 2)).tolist()
    ego = state.ego
    e_lat, e_lng = ego.true_position
    frame = geo.Frame(e_lat, e_lng)
    reach = max(cfg.front_camera.max_range, cfg.rear_camera.max_range)

    near, messages = [], []   # a sender reports its true position moved by its GPS draw
    for v, (dn, de) in zip(state.vehicles[1:], noise[1:]):
        lat, lng = v.true_position
        d = geo.haversine_m(e_lat, e_lng, lat, lng)
        if 0.5 <= d <= reach:   # no camera sees a vehicle closer than 0.5 m
            near.append((d, v, frame.initial_bearing(lat, lng), *frame.deg_to_meters(lat, lng)))
        if d <= cfg.comm_range:
            dlat, dlng = frame.meters_to_deg(dn, de)
            messages.append(Message(lat + dlat, lng + dlng, v.orientation, v.speed, v.id))
    front = detect_vehicles(state, cfg.front_camera, near)
    rear = detect_vehicles(state, cfg.rear_camera, near)
    dlat, dlng = frame.meters_to_deg(*noise[0])
    sensors = SensorRecord(e_lat + dlat, e_lng + dlng, ego.orientation, ego.speed)
    return Observation(t=state.t, front_boxes=front, rear_boxes=rear,
                       messages=messages, ego_sensors=sensors)


def run_scenario(cfg: WorldConfig, ticks: int | None = None,
                 cct: plates.ConversionTable | None = None) -> tuple[ScenarioState, list[Observation]]:
    """Generate a world and simulate `ticks` steps (default from duration), MAX_TICKS at most."""
    n = ticks if ticks is not None else cfg.num_ticks()
    if n > MAX_TICKS:
        raise ValueError(f"{n} ticks asked for; at most {MAX_TICKS} are allowed")
    state = generate_scenario(cfg, cct)
    return state, [simulate_tick(state) for _ in range(n)]


# --- record files ------------------------------------------------------------

@dataclass
class _RunHeader:
    world: WorldConfig
    ticks: int


def write_run(path, cfg: WorldConfig, observations: list[Observation]) -> None:
    """Write a run as one JSON-lines file: a header `{"world": asdict(cfg),
    "ticks": n}`, then one record per tick holding the Observation's own
    fields, each float in its shortest round-trip form, so `read_run` gives
    back equal observations. The boxes' `vehicle_ref` values carry the
    simulator's answer key. A config that JSON cannot hold (an infinite
    camera range, say) raises ValueError."""
    try:
        header = json.dumps(asdict(_RunHeader(cfg, len(observations))), allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: cannot record a world config with a non-finite field: "
                         f"{exc}") from None
    with open(path, "w") as f:
        f.write(header + "\n")
        for obs in observations:
            f.write(json.dumps(obs, default=to_record) + "\n")


def read_run(path) -> tuple[WorldConfig, list[Observation]]:
    """Rebuild a run's world config and observation stream from its file.
    A damaged header or record raises ValueError naming `path:line`, and a
    file that holds fewer or more ticks than its header says names the file."""
    records = read_jsonl(path)
    where, header = next(records, (f"{path}:1", {}))
    try:
        header = from_record(_RunHeader, header)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: malformed header: {exc}") from None
    out = []
    for where, rec in records:
        try:
            obs = from_record(Observation, rec)
            for what, ids in (("sender id", [m.id for m in obs.messages]),
                              ("vehicle_ref", [b.vehicle_ref for b in obs.front_boxes])):
                if len(ids) > len(set(ids)):
                    raise ValueError(f"{what} {next(i for i in ids if ids.count(i) > 1)} repeats")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}: malformed record: {exc}") from None
        if out and obs.t <= out[-1].t:
            raise ValueError(f"{where}: tick {obs.t} does not follow tick {out[-1].t}")
        out.append(obs)
    if len(out) != header.ticks:
        raise ValueError(f"{path}: the header promises {header.ticks} ticks, "
                         f"the file holds {len(out)}")
    return header.world, out


def lossless_config(seed: int, **overrides) -> WorldConfig:
    """Oracle-world preset: no GPS noise, no detector misses or merges, an
    identity OCR channel, and unbounded camera range so the distance term of
    the plate-read probability is exactly one. Useful for end-to-end checks."""
    kwargs = dict(
        seed=seed,
        gps_noise_sigma=0.0,
        miss_rate=0.0,
        merge_threshold=1.0,
        weather="clear",
        ocr_channel="identity",
        speed_profile="constant",
        front_camera=replace(default_front_camera(), max_range=math.inf),
        rear_camera=replace(default_rear_camera(), max_range=math.inf),
    )
    kwargs.update(overrides)
    return WorldConfig(**kwargs)
