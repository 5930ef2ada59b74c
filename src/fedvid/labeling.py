"""Automatic labeling and augmentation.

Builds sender-to-box pairings by canonical plate matching on the front camera,
rear-camera pairings, and the persistent outside-of-view sender set from the
horizontal field-of-view test applied to the last k seconds of GPS samples.
Assembles the three training datasets: plate-matched labels only (AL), plate
labels plus field-of-view negatives (ALDA), and simulator ground truth
(MANUAL).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import features as feats
from . import geo, plates
from .scenario import OUTSIDE, Observation, WorldConfig, _num, read_jsonl


class PairSource(str, Enum):
    AUTO_FRONT = "AUTO_FRONT"
    AUTO_REAR = "AUTO_REAR"
    AUTO_FOV = "AUTO_FOV"   # outside negatives from the field-of-view test
    MANUAL = "MANUAL"


class DatasetMode(str, Enum):
    AL = "AL"
    ALDA = "ALDA"
    MANUAL = "MANUAL"


Sample = tuple[float, float, float, float]   # (lat, lng, ori, spd)
K_SECONDS = 2.0   # span of the outside-set history and of the feature window


@dataclass
class PairingSet:
    """Injective sender-id -> box-index pairing."""

    pairs: dict[int, int] = field(default_factory=dict)
    ambiguous: int = 0  # senders dropped due to duplicate canonical ids

    def add(self, msg_id: int, box_idx: int) -> None:
        if msg_id in self.pairs:
            raise ValueError(f"message {msg_id} already paired")
        if box_idx in self.pairs.values():
            raise ValueError(f"box {box_idx} already paired")
        self.pairs[msg_id] = box_idx

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, msg_id: int) -> bool:
        return msg_id in self.pairs


def fov_contains(ego_ori: float, hfov_deg: float, brg: float) -> bool:
    """True iff the bearing falls inside the horizontal field of view centered
    on the ego heading (boundary inclusive)."""
    if not 0.0 < hfov_deg < 180.0:
        raise ValueError("hfov_deg must be in (0, 180)")
    return abs(geo.angle_diff_deg(brg, ego_ori)) <= hfov_deg / 2.0


def auto_label_frame(obs: Observation, cct: plates.ConversionTable,
                     camera: str = "front") -> PairingSet:
    """Pair boxes with messages through plate reads: canonicalize each box's
    OCR read, hash it, and match against the message ids. Duplicate canonical
    ids on either side exclude all colliding parties."""
    boxes = obs.front_boxes if camera == "front" else obs.rear_boxes
    result = PairingSet()

    msg_ids: set[int] = set()
    dup_msgs: set[int] = set()
    for m in obs.messages:
        if m.id in msg_ids:
            dup_msgs.add(m.id)
        msg_ids.add(m.id)
    read_ids: dict[int, list[int]] = {}
    for idx, box in enumerate(boxes):
        if box.plate_read is None:
            continue
        rid = plates.canonical_plate_id(box.plate_read, cct)
        read_ids.setdefault(rid, []).append(idx)

    for rid, box_idxs in sorted(read_ids.items()):
        if rid not in msg_ids:
            continue
        if len(box_idxs) > 1 or rid in dup_msgs:
            result.ambiguous += 1
            continue
        result.add(rid, box_idxs[0])
    return result


def build_outside_set(histories: dict[int, dict[int, Sample]],
                      ego_history: dict[int, Sample],
                      obs: Observation,
                      hfov_deg: float,
                      k_samples: int,
                      front_paired: set[int],
                      rear_paired: set[int]) -> frozenset[int]:
    """Senders confidently outside the front view at tick t.

    A sender qualifies if it stayed outside the field-of-view cone at every
    sample of its full k-window, or if the rear camera paired it this tick.
    Senders currently front-paired are excluded; senders with an incomplete
    window (and no rear pairing) are skipped.
    """
    out: set[int] = set()
    ticks = range(obs.t - k_samples + 1, obs.t + 1)
    for m in obs.messages:
        if m.id in front_paired:
            continue
        if m.id in rear_paired:
            out.add(m.id)
            continue
        samples = histories[m.id]
        if any(tt not in samples for tt in ticks):
            continue
        for tt in ticks:
            ego, sample = ego_history[tt], samples[tt]
            brg = geo.initial_bearing(ego[0], ego[1], sample[0], sample[1])
            if fov_contains(ego[2], hfov_deg, brg):
                break
        else:  # outside the cone at every sample
            out.add(m.id)
    return frozenset(out)


@dataclass
class TickLabels:
    t: int
    front: PairingSet
    rear: PairingSet
    outside: frozenset[int]


@dataclass
class LabeledRun:
    """A simulated run plus everything labeling derived from it."""

    cfg: WorldConfig
    observations: list[Observation]
    labels: list[TickLabels]
    histories: dict[int, dict[int, Sample]]   # sender -> tick -> sample
    ego_history: dict[int, Sample]
    feature_cfg: feats.FeatureConfig


def label_run(observations: list[Observation], cct: plates.ConversionTable,
              cfg: WorldConfig) -> LabeledRun:
    """Run auto-labeling and augmentation over a full observation stream.
    The feature window spans the same `K_SECONDS` as the outside-set history."""
    k_samples = max(1, int(round(K_SECONDS / cfg.tick_interval)))

    histories: dict[int, dict[int, Sample]] = {}
    ego_history: dict[int, Sample] = {}
    labels: list[TickLabels] = []
    for obs in observations:
        ego = obs.ego_sensors
        ego_history[obs.t] = (ego.lat, ego.lng, ego.ori, ego.spd)
        for m in obs.messages:
            histories.setdefault(m.id, {})[obs.t] = (m.lat, m.lng, m.ori, m.spd)

        front = auto_label_frame(obs, cct, camera="front")
        rear = auto_label_frame(obs, cct, camera="rear")
        outside = build_outside_set(
            histories, ego_history, obs,
            hfov_deg=cfg.front_camera.hfov_deg,
            k_samples=k_samples,
            front_paired=set(front.pairs),
            rear_paired=set(rear.pairs),
        )
        labels.append(TickLabels(t=obs.t, front=front, rear=rear, outside=outside))
    return LabeledRun(cfg=cfg, observations=observations, labels=labels,
                      histories=histories, ego_history=ego_history,
                      feature_cfg=feats.FeatureConfig(window=k_samples,
                                                      comm_range_m=cfg.comm_range))


@dataclass
class LabeledExample:
    features: list[float]         # model input row, from feats.build_feature_vector
    valid: int                    # trailing window slots that hold real samples
    target: np.ndarray            # 5-vector; [*box, 1] inside or all zeros outside
    tick: int
    sender_id: int
    source: PairSource
    dataset: DatasetMode
    feedback: np.ndarray = field(default_factory=lambda: np.zeros(4))


def feature_for(run: LabeledRun, msg, t: int) -> tuple[list[float], int]:
    """The model input row of `msg`'s sender at tick t, and how many trailing
    window slots hold real samples. Only the contiguous suffix of samples
    ending at t counts; older-than-gap samples are missing leading slots."""
    w = run.feature_cfg.window
    samples = run.histories[msg.id]
    history, ego_records = [], []
    for tt in range(t, t - w, -1):
        s = samples.get(tt)
        if s is None:
            break
        history.append(s)
        ego_records.append(run.ego_history[tt])
    history.reverse()
    ego_records.reverse()
    return feats.build_feature_vector(history, ego_records, run.feature_cfg), len(history)


def assemble_dataset(run: LabeledRun, mode: DatasetMode) -> list[LabeledExample]:
    """Materialize one dataset variant as feature/target training rows.

    Positives carry the paired box and an inside flag of 1; negatives are all
    zeros. The feedback column holds the sender's previous-tick labeled box
    (teacher forcing), zeros when the sender was not paired at t-1.
    """
    mode = DatasetMode(mode)
    prev_boxes: dict[int, np.ndarray] = {}
    examples: list[LabeledExample] = []

    for obs, ticklab in zip(run.observations, run.labels):
        rows: list[tuple[int, np.ndarray, PairSource]] = []
        if mode in (DatasetMode.AL, DatasetMode.ALDA):
            for msg_id, box_idx in ticklab.front.pairs.items():
                box = obs.front_boxes[box_idx].bb_norm
                rows.append((msg_id, np.array([*box, 1.0]), PairSource.AUTO_FRONT))
            negatives = {m: PairSource.AUTO_REAR for m in ticklab.rear.pairs}
            if mode is DatasetMode.ALDA:
                for m in ticklab.outside:
                    negatives.setdefault(m, PairSource.AUTO_FOV)
            for msg_id, src in negatives.items():
                if msg_id in ticklab.front:
                    continue
                rows.append((msg_id, np.zeros(5), src))
        else:
            for msg_id, box_idx in obs.truth_pairs.items():
                if box_idx == OUTSIDE:
                    rows.append((msg_id, np.zeros(5), PairSource.MANUAL))
                else:
                    box = obs.front_boxes[box_idx].bb_norm
                    rows.append((msg_id, np.array([*box, 1.0]), PairSource.MANUAL))

        msg_by_id = {m.id: m for m in obs.messages}
        next_prev: dict[int, np.ndarray] = {}
        for msg_id, target, src in sorted(rows, key=lambda r: r[0]):
            msg = msg_by_id.get(msg_id)
            if msg is None:
                continue
            row, valid = feature_for(run, msg, obs.t)
            fb = prev_boxes.get(msg_id, np.zeros(4))
            examples.append(LabeledExample(
                features=row, valid=valid, target=target, tick=obs.t, sender_id=msg_id,
                source=src, dataset=mode, feedback=fb,
            ))
            if target[4] == 1.0:
                next_prev[msg_id] = target[:4].copy()
        prev_boxes = next_prev
    examples.sort(key=lambda e: (e.tick, e.sender_id))
    return examples


@dataclass
class TrainingArrays:
    X: np.ndarray
    FB: np.ndarray
    Y: np.ndarray


def to_arrays(examples: list[LabeledExample]) -> TrainingArrays:
    if not examples:
        raise ValueError("no labeled examples")
    X = np.array([e.features for e in examples])
    FB = np.stack([e.feedback for e in examples])
    Y = np.stack([e.target for e in examples])
    return TrainingArrays(X=X, FB=FB, Y=Y)


DATASET_SCHEMA_VERSION = 1


def write_dataset_jsonl(path, examples: list[LabeledExample]) -> None:
    """One record per example, ordered by (tick, sender id)."""
    with open(path, "w") as f:
        for e in sorted(examples, key=lambda e: (e.tick, e.sender_id)):
            w = (len(e.features) - 3) // 2
            f.write(json.dumps({
                "schema_version": DATASET_SCHEMA_VERSION,
                "tick": e.tick,
                "sender_id": e.sender_id,
                "dataset": e.dataset.value,
                "source": e.source.value,
                "features": [float(f"{v:.9g}") for v in e.features],
                "validity_mask": [False] * (w - e.valid) + [True] * e.valid,
                "feedback": [float(f"{v:.9g}") for v in e.feedback],
                "target": [float(f"{v:.9g}") for v in e.target],
            }) + "\n")


def read_dataset_jsonl(path) -> TrainingArrays:
    """Load the flat training arrays back from a dataset file. A damaged
    record, a non-finite value included, raises ValueError naming `path:line`."""
    columns: dict[str, list[list[float]]] = {"features": [], "feedback": [], "target": []}
    for where, rec in read_jsonl(path):
        if rec.get("schema_version") != DATASET_SCHEMA_VERSION:
            raise ValueError(f"{where}: unsupported dataset schema {rec.get('schema_version')!r}")
        for key, rows in columns.items():
            if key not in rec:
                raise ValueError(f"{where}: missing key {key!r}")
            try:
                if type(row := rec[key]) is not list:
                    raise TypeError
                row = [float(_num(v)) for v in row]   # _num refuses booleans
            except (TypeError, OverflowError):
                raise ValueError(f"{where}: {key!r} is not a flat list of numbers") from None
            if rows and len(row) != len(rows[0]):
                raise ValueError(f"{where}: {key!r} has {len(row)} values, "
                                 f"the first record {len(rows[0])}")
            rows.append(row)
    if not columns["features"]:
        raise ValueError(f"empty dataset file {path}")
    return TrainingArrays(*(np.array(rows, dtype=float) for rows in columns.values()))
