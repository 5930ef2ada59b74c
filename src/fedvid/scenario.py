"""Deterministic synthetic V2V world.

Generates seeded vehicle trajectories on a straight or grid road layout,
simulates the ego vehicle's front/rear camera detections through a pinhole
model (with occlusion merging and random misses), produces in-range V2V
messages with GPS noise, reads the plate of each readable box as part of
detection, and records the ground-truth sender-to-box pairing for every tick.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import geo, plates

OUTSIDE = -1  # truth-pair value for a sender with no front-camera box

BASE_LAT = 23.9738
BASE_LNG = 120.9820

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
    hfov_deg: float
    image_w: int
    image_h: int
    facing: str          # "front" | "rear"
    max_range: float     # meters

    def __post_init__(self):
        if not 0.0 < self.hfov_deg < 180.0:
            raise ValueError("hfov_deg must be in (0, 180)")
        if self.image_w <= 0 or self.image_h <= 0:
            raise ValueError("image dimensions must be positive")
        if self.facing not in ("front", "rear"):
            raise ValueError("facing must be 'front' or 'rear'")

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
    seed: int
    num_vehicles: int = 100
    tick_interval: float = 0.5
    duration: float = 60.0
    comm_range: float = 50.0
    road_layout: str = "straight"       # "straight" | "grid"
    weather: str = "clear"
    gps_noise_sigma: float = 2.0        # meters
    miss_rate: float = 0.10
    merge_threshold: float = 0.7
    speed_profile: str = "varied"       # "varied" | "constant"
    front_camera: CameraModel = field(default_factory=default_front_camera)
    rear_camera: CameraModel = field(default_factory=default_rear_camera)
    ocr_channel: str = "builtin"        # "builtin" | "identity"

    def __post_init__(self):
        if self.num_vehicles < 2:
            raise ValueError("num_vehicles must be at least 2")
        if self.tick_interval <= 0:
            raise ValueError("tick_interval must be positive")
        if self.comm_range <= 0:
            raise ValueError("comm_range must be positive")
        if self.road_layout not in ("straight", "grid"):
            raise ValueError(f"unknown road_layout {self.road_layout!r}")
        if self.weather not in WEATHER_DEGRADATION:
            raise ValueError(f"unknown weather {self.weather!r}")
        if self.gps_noise_sigma < 0:
            raise ValueError("gps_noise_sigma must be non-negative")
        if not 0.0 <= self.miss_rate <= 1.0:
            raise ValueError("miss_rate must be in [0, 1]")
        if not 0.0 <= self.merge_threshold <= 1.0:
            raise ValueError("merge_threshold must be in [0, 1]")
        if self.speed_profile not in ("varied", "constant"):
            raise ValueError(f"unknown speed_profile {self.speed_profile!r}")
        if self.ocr_channel not in ("builtin", "identity"):
            raise ValueError(f"unknown ocr_channel {self.ocr_channel!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "WorldConfig":
        """Inverse of `dataclasses.asdict`: camera fields, when present, are
        dicts of CameraModel fields."""
        data = dict(data)
        for key in ("front_camera", "rear_camera"):
            if key in data:
                data[key] = CameraModel(**data[key])
        return cls(**data)

    def num_ticks(self) -> int:
        return int(round(self.duration / self.tick_interval))


@dataclass
class VehicleState:
    id: int                      # hash of the canonicalized plate
    plate: str
    true_position: tuple[float, float]    # (lat, lng) decimal degrees
    orientation: float           # degrees in [0, 360)
    speed: float                 # m/s


@dataclass
class DetectedBox:
    vehicle_ref: int             # simulator-internal ground truth, hidden from the pipeline
    bb_norm: tuple[float, float, float, float]
    plate_readable: bool
    plate_read: str | None = None  # OCR channel output for this box, if any


@dataclass
class Message:
    lat: float
    lng: float
    ori: float
    spd: float
    id: int


@dataclass
class SensorRecord:
    lat: float
    lng: float
    ori: float
    spd: float


@dataclass
class Observation:
    t: int
    front_boxes: list[DetectedBox]
    rear_boxes: list[DetectedBox]
    messages: list[Message]
    ego_sensors: SensorRecord
    truth_pairs: dict[int, int]   # sender id -> front box index, or OUTSIDE


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

    def distance_to_ego(self, v: VehicleState) -> float:
        e = self.ego
        return geo.haversine_m(e.true_position[0], e.true_position[1],
                               v.true_position[0], v.true_position[1])


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
    dlat, dlng = geo.meters_to_deg(north_m, east_m, BASE_LAT)
    return BASE_LAT + dlat, BASE_LNG + dlng


def _latlng_to_anchor(lat: float, lng: float) -> tuple[float, float]:
    return geo.deg_to_meters(lat - BASE_LAT, lng - BASE_LNG, BASE_LAT)


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
    for v in state.vehicles:
        if resample:
            v.speed = float(state.motion_rng.uniform(0.0, SPEED_MAX_MS))
        north = v.speed * dt * math.cos(math.radians(v.orientation))
        east = v.speed * dt * math.sin(math.radians(v.orientation))
        dlat, dlng = geo.meters_to_deg(north, east, BASE_LAT)
        v.true_position = (v.true_position[0] + dlat, v.true_position[1] + dlng)

    if cfg.road_layout == "straight":
        _wrap_straight(state)
    else:
        _wrap_grid(state)


def _wrap_straight(state: ScenarioState) -> None:
    """Keep traffic density steady: fold vehicles into a band around the ego."""
    ego = state.ego
    span = STRAIGHT_HALF_SPAN_M
    for v in state.vehicles[1:]:
        dn = (v.true_position[0] - ego.true_position[0]) * geo.METERS_PER_DEG_LAT
        if abs(dn) > span:
            folded = ((dn + span) % (2 * span)) - span
            new_lat = ego.true_position[0] + folded / geo.METERS_PER_DEG_LAT
            v.true_position = (new_lat, v.true_position[1])


def _wrap_grid(state: ScenarioState) -> None:
    for v in state.vehicles:
        north, east = _latlng_to_anchor(*v.true_position)
        wrapped = (north % GRID_EXTENT_M, east % GRID_EXTENT_M)
        if wrapped != (north, east):
            v.true_position = _anchor_to_latlng(*wrapped)


def _gps_fix(v: VehicleState, noise: list[float], ego_lat: float) -> tuple[float, float]:
    """The position `v` reports: its true one moved by a (north, east) draw in meters."""
    dlat, dlng = geo.meters_to_deg(noise[0], noise[1], ego_lat)
    return v.true_position[0] + dlat, v.true_position[1] + dlng


# --- detection ---------------------------------------------------------------

def _camera_yaw(ego_ori: float, cam: CameraModel) -> float:
    return ego_ori % 360.0 if cam.facing == "front" else (ego_ori + 180.0) % 360.0


def _project_box(state: ScenarioState, v: VehicleState, cam: CameraModel,
                 cam_yaw: float) -> tuple[float, float, float, float] | None:
    """Project the vehicle's 3D box footprint to a normalized image box."""
    ego = state.ego
    north, east = geo.deg_to_meters(
        v.true_position[0] - ego.true_position[0],
        v.true_position[1] - ego.true_position[1],
        ego.true_position[0],
    )
    yaw = math.radians(cam_yaw)
    fwd = (math.sin(yaw), math.cos(yaw))      # (east, north)
    right = (math.cos(yaw), -math.sin(yaw))
    cx = east * fwd[0] + north * fwd[1]       # camera-frame forward
    cy = east * right[0] + north * right[1]   # camera-frame right

    length, width = VEHICLE_LENGTH_M, VEHICLE_WIDTH_M
    rel = math.radians(v.orientation) - yaw
    ux, uy = math.sin(rel), math.cos(rel)     # vehicle heading in camera frame (right, fwd)
    corners = []
    for sl, sw in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        fx = cx + sl * (length / 2.0) * uy - sw * (width / 2.0) * ux
        fy = cy + sl * (length / 2.0) * ux + sw * (width / 2.0) * uy
        corners.append((fx, fy))

    f = cam.focal_px()
    half_w, half_h = cam.image_w / 2.0, cam.image_h / 2.0
    us, vs = [], []
    for fx, fy in corners:
        fx = max(fx, 0.5)  # clamp points at/behind the image plane
        for z in (0.0 - CAMERA_HEIGHT_M, VEHICLE_HEIGHT_M - CAMERA_HEIGHT_M):
            us.append(f * fy / fx + half_w)
            vs.append(f * (-z) / fx + half_h)
    x_tl = max(0.0, min(us))
    y_tl = max(0.0, min(vs))
    x_br = min(float(cam.image_w), max(us))
    y_br = min(float(cam.image_h), max(vs))
    if x_br - x_tl < 1.0 or y_br - y_tl < 1.0:
        return None
    return (x_tl / cam.image_w, y_tl / cam.image_h, x_br / cam.image_w, y_br / cam.image_h)


def _cover_fraction(nearer, farther) -> float:
    ix = max(0.0, min(nearer[2], farther[2]) - max(nearer[0], farther[0]))
    iy = max(0.0, min(nearer[3], farther[3]) - max(nearer[1], farther[1]))
    area = (farther[2] - farther[0]) * (farther[3] - farther[1])
    if area <= 0.0:
        return 1.0
    return (ix * iy) / area


def detect_vehicles(state: ScenarioState, cam: CameraModel,
                    others: list[tuple[float, VehicleState]]) -> list[DetectedBox]:
    """Pinhole detection for one camera over the tick's (distance to ego,
    vehicle) pairs: frustum and range culling, occlusion merging, random
    misses, the plate-visibility rule, and the OCR read of each readable plate."""
    cfg = state.cfg
    ego = state.ego
    cam_yaw = _camera_yaw(ego.orientation, cam)
    degradation = WEATHER_DEGRADATION[cfg.weather]

    candidates = []  # (distance, vehicle, raw box)
    for d, v in others:
        if d < 0.5 or d > cam.max_range:
            continue
        brg = geo.initial_bearing(ego.true_position[0], ego.true_position[1],
                                  v.true_position[0], v.true_position[1])
        if abs(geo.angle_diff_deg(brg, cam_yaw)) > cam.hfov_deg / 2.0:
            continue
        box = _project_box(state, v, cam, cam_yaw)
        if box is not None:
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
        occluded = any(
            _cover_fraction(nb, box) > PLATE_MAX_OCCLUSION_FRAC
            for nd, _, nb in candidates if nd < d
        )
        readable = height_px >= PLATE_MIN_BOX_HEIGHT_PX and not occluded
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
    """Advance the world one tick and emit the observation for it."""
    cfg = state.cfg
    state.t += 1
    _advance_vehicles(state)
    # one GPS draw per tick; its rows are the per-vehicle draws in vehicle order
    noise = state.gps_rng.normal(0.0, cfg.gps_noise_sigma,
                                 size=(len(state.vehicles), 2)).tolist()
    ego = state.ego
    ego_lat = ego.true_position[0]

    others = [(state.distance_to_ego(v), v) for v in state.vehicles[1:]]
    front = detect_vehicles(state, cfg.front_camera, others)
    rear = detect_vehicles(state, cfg.rear_camera, others)
    messages = [Message(*_gps_fix(v, n, ego_lat), ori=v.orientation, spd=v.speed, id=v.id)
                for n, (d, v) in zip(noise[1:], others) if d <= cfg.comm_range]

    by_ref = {b.vehicle_ref: idx for idx, b in enumerate(front)}
    truth = {m.id: by_ref.get(m.id, OUTSIDE) for m in messages}

    sensors = SensorRecord(*_gps_fix(ego, noise[0], ego_lat), ori=ego.orientation, spd=ego.speed)
    return Observation(t=state.t, front_boxes=front, rear_boxes=rear,
                       messages=messages, ego_sensors=sensors, truth_pairs=truth)


def run_scenario(cfg: WorldConfig, ticks: int | None = None,
                 cct: plates.ConversionTable | None = None) -> tuple[ScenarioState, list[Observation]]:
    """Generate a world and simulate it for `ticks` steps (default from duration)."""
    state = generate_scenario(cfg, cct)
    n = ticks if ticks is not None else cfg.num_ticks()
    return state, [simulate_tick(state) for _ in range(n)]


# --- record files ------------------------------------------------------------

def _sig9(x: float) -> float:
    return float(f"{x:.9g}")


def _box_record(b: DetectedBox) -> dict:
    return {
        "vehicle_ref": b.vehicle_ref,
        "bb_norm": [_sig9(v) for v in b.bb_norm],
        "plate_readable": b.plate_readable,
        "plate_read": b.plate_read,
    }


def write_run(out_dir, observations: list[Observation]) -> None:
    """Write frames/messages/sensors/truth record files, one JSON object per tick."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "frames.jsonl", "w") as ff, \
            open(out / "messages.jsonl", "w") as mf, \
            open(out / "sensors.jsonl", "w") as sf, \
            open(out / "truth.jsonl", "w") as tf:
        for obs in observations:
            ff.write(json.dumps({
                "t": obs.t,
                "front_boxes": [_box_record(b) for b in obs.front_boxes],
                "rear_boxes": [_box_record(b) for b in obs.rear_boxes],
            }) + "\n")
            mf.write(json.dumps({
                "t": obs.t,
                "messages": [{
                    "lat": _sig9(m.lat), "lng": _sig9(m.lng), "ori": _sig9(m.ori),
                    "spd": _sig9(m.spd), "id": m.id,
                } for m in obs.messages],
            }) + "\n")
            sf.write(json.dumps({
                "t": obs.t,
                "lat": _sig9(obs.ego_sensors.lat), "lng": _sig9(obs.ego_sensors.lng),
                "ori": _sig9(obs.ego_sensors.ori), "spd": _sig9(obs.ego_sensors.spd),
            }) + "\n")
            tf.write(json.dumps({
                "t": obs.t,
                "truth_pairs": {str(k): v for k, v in obs.truth_pairs.items()},
            }) + "\n")


def _finite(text: str) -> float:
    if not math.isfinite(x := float(text)):   # float() also reads NaN and [-]Infinity
        raise ValueError(f"non-finite value {text}")
    return x


def read_jsonl(path):
    """Yield `(f"{path}:{line}", record)` for each non-blank line of a
    JSON-lines file. A line that is not JSON, holds a non-finite number or is
    not an object raises ValueError naming `path:line`."""
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                rec = json.loads(line, parse_constant=_finite, parse_float=_finite)
            except ValueError as exc:
                raise ValueError(f"{where}: not JSON: {exc}") from None
            if not isinstance(rec, dict):
                raise ValueError(f"{where}: record is not a JSON object")
            yield where, rec


def _num(v):
    if type(v) not in (int, float):
        raise TypeError(f"{v!r} is not a number")
    return v


def _box(d) -> DetectedBox:
    return DetectedBox(vehicle_ref=d["vehicle_ref"], bb_norm=tuple(map(_num, d["bb_norm"])),
                       plate_readable=d["plate_readable"], plate_read=d.get("plate_read"))


def _read_records(path, build) -> list[tuple[str, int, object]]:
    """`(where, tick, build(record))` per record of one record file."""
    out = []
    for where, rec in read_jsonl(path):
        try:
            out.append((where, _num(rec["t"]), build(rec)))
        except KeyError as exc:
            raise ValueError(f"{where}: missing key {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"{where}: malformed record: {exc}") from None
    return out


def read_run(run_dir) -> list[Observation]:
    """Rebuild an observation stream from the record files. A damaged or
    inconsistent record raises ValueError naming `path:line`."""
    run = Path(run_dir)
    names = ("frames.jsonl", "messages.jsonl", "sensors.jsonl", "truth.jsonl")
    files = [_read_records(run / name, build) for name, build in zip(names, (
        lambda r: ([_box(b) for b in r["front_boxes"]], [_box(b) for b in r["rear_boxes"]]),
        lambda r: [Message(lat=_num(m["lat"]), lng=_num(m["lng"]), ori=_num(m["ori"]),
                           spd=_num(m["spd"]), id=_num(m["id"])) for m in r["messages"]],
        lambda r: SensorRecord(lat=_num(r["lat"]), lng=_num(r["lng"]),
                               ori=_num(r["ori"]), spd=_num(r["spd"])),
        lambda r: {int(k): v for k, v in r["truth_pairs"].items()},
    ))]
    if len({len(records) for records in files}) > 1:
        raise ValueError("record files disagree on tick count: " + ", ".join(
            f"{run / name} has {len(records)}" for name, records in zip(names, files)))

    out = []
    for frame, msgs, sensors, truth in zip(*files):
        fw, t, (front, rear) = frame
        for where, tick, _ in (msgs, sensors, truth):
            if tick != t:
                raise ValueError(f"{where}: tick {tick}, but {fw} holds tick {t}")
        if sorted(m.id for m in msgs[2]) != sorted(truth[2]):
            raise ValueError(f"{msgs[0]}: message ids differ from the senders at {truth[0]}")
        out.append(Observation(t=t, front_boxes=front, rear_boxes=rear, messages=msgs[2],
                               ego_sensors=sensors[2], truth_pairs=truth[2]))
    return out


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
