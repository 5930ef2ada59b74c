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
from collections.abc import Container
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import features as feats
from . import geo, plates
from .records import from_record, read_jsonl, to_record
from .scenario import OUTSIDE, DetectedBox, Message, Observation, WorldConfig


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


def fov_contains(ego_ori: float, hfov_deg: float, brg: float) -> bool:
    """True iff the bearing falls inside the horizontal field of view centered
    on the ego heading (boundary inclusive); `CameraModel` admits hfov_deg in (0, 180)."""
    return abs(geo.angle_diff_deg(brg, ego_ori)) <= hfov_deg / 2.0


def auto_label_frame(messages: list[Message], boxes: list[DetectedBox],
                     cct: plates.ConversionTable) -> tuple[dict[int, int], int]:
    """Pair boxes with messages through plate reads: canonicalize each box's
    OCR read, hash it, and match against the message ids. Returns the
    sender id -> box index pairs and the count of collisions: canonical ids
    duplicated on either side, whose parties all stay unpaired."""
    msg_ids: set[int] = set()
    dup_msgs: set[int] = set()
    for m in messages:
        if m.id in msg_ids:
            dup_msgs.add(m.id)
        msg_ids.add(m.id)
    read_ids: dict[int, list[int]] = {}
    for idx, box in enumerate(boxes):
        if box.plate_read is not None:
            read_ids.setdefault(plates.canonical_plate_id(box.plate_read, cct), []).append(idx)

    pairs: dict[int, int] = {}
    collisions = 0
    for rid, box_idxs in read_ids.items():
        if rid not in msg_ids:
            continue
        if len(box_idxs) > 1 or rid in dup_msgs:
            collisions += 1
        else:
            pairs[rid] = box_idxs[0]
    return pairs, collisions


def build_outside_set(histories: dict[int, dict[int, Sample]],
                      ego_history: dict[int, Sample],
                      obs: Observation,
                      hfov_deg: float,
                      k_samples: int,
                      front_paired: Container[int],
                      rear_paired: Container[int]) -> frozenset[int]:
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


@dataclass(slots=True)
class TickLabels:
    front: dict[int, int]   # sender id -> front box index, plate-matched
    rear: dict[int, int]    # sender id -> rear box index, plate-matched
    outside: frozenset[int]


@dataclass
class LabeledRun:
    """A simulated run plus everything labeling derived from it."""

    observations: list[Observation]
    labels: list[TickLabels]
    histories: dict[int, dict[int, Sample]]   # sender -> tick -> sample
    ego_history: dict[int, Sample]
    feature_cfg: feats.FeatureConfig


def feature_config(cfg: WorldConfig) -> feats.FeatureConfig:
    """The feature rows of a world: the window holds the ticks of `K_SECONDS`
    (at least one), so the model's input width follows the tick interval."""
    return feats.FeatureConfig(window=max(1, int(round(K_SECONDS / cfg.tick_interval))),
                               comm_range_m=cfg.comm_range)


def label_run(observations: list[Observation], cct: plates.ConversionTable,
              cfg: WorldConfig) -> LabeledRun:
    """Run auto-labeling and augmentation over a full observation stream.
    The feature window spans the same ticks as the outside-set history."""
    feature_cfg = feature_config(cfg)

    histories: dict[int, dict[int, Sample]] = {}
    ego_history: dict[int, Sample] = {}
    labels: list[TickLabels] = []
    for obs in observations:
        ego = obs.ego_sensors
        ego_history[obs.t] = (ego.lat, ego.lng, ego.ori, ego.spd)
        for m in obs.messages:
            histories.setdefault(m.id, {})[obs.t] = (m.lat, m.lng, m.ori, m.spd)

        front, _ = auto_label_frame(obs.messages, obs.front_boxes, cct)
        rear, _ = auto_label_frame(obs.messages, obs.rear_boxes, cct)
        outside = build_outside_set(histories, ego_history, obs, cfg.front_camera.hfov_deg,
                                    feature_cfg.window, front_paired=front, rear_paired=rear)
        labels.append(TickLabels(front=front, rear=rear, outside=outside))
    return LabeledRun(observations=observations, labels=labels,
                      histories=histories, ego_history=ego_history, feature_cfg=feature_cfg)


@dataclass(slots=True)
class LabeledExample:
    """A training row, and a line of the dataset file: its keys in field order."""

    tick: int
    sender_id: int
    dataset: DatasetMode
    source: PairSource
    features: list[float]         # model input row, from feats.build_feature_vector
    validity_mask: list[bool]     # per window slot, True where it holds a real sample
    feedback: tuple[float, float, float, float]   # the sender's labeled box at t-1, else zeros
    target: tuple[float, float, float, float, float]   # (*box, 1.0) inside, zeros outside


def feature_for(run: LabeledRun, sender_id: int, t: int) -> tuple[list[float], int]:
    """The model input row of a sender at tick t, and how many trailing
    window slots hold real samples. Only the contiguous suffix of samples
    ending at t counts; older-than-gap samples are missing leading slots."""
    w = run.feature_cfg.window
    samples = run.histories[sender_id]
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
    w = run.feature_cfg.window
    prev_boxes: dict[int, tuple[float, ...]] = {}
    examples: list[LabeledExample] = []

    for obs, lab in zip(run.observations, run.labels):
        if mode is DatasetMode.MANUAL:
            rows = [(m, (0.0,) * 5 if b == OUTSIDE else (*obs.front_boxes[b].bb_norm, 1.0),
                     PairSource.MANUAL) for m, b in obs.truth_pairs.items()]
        else:   # a rear pairing outranks the field-of-view test
            fov = lab.outside if mode is DatasetMode.ALDA else ()
            negatives = {**dict.fromkeys(fov, PairSource.AUTO_FOV),
                         **dict.fromkeys(lab.rear, PairSource.AUTO_REAR)}
            rows = [(m, (*obs.front_boxes[b].bb_norm, 1.0), PairSource.AUTO_FRONT)
                    for m, b in lab.front.items()]
            rows += [(m, (0.0,) * 5, src) for m, src in negatives.items() if m not in lab.front]

        next_prev: dict[int, tuple[float, ...]] = {}
        for msg_id, target, src in sorted(rows, key=lambda r: r[0]):
            row, valid = feature_for(run, msg_id, obs.t)
            examples.append(LabeledExample(
                tick=obs.t, sender_id=msg_id, dataset=mode, source=src, features=row,
                validity_mask=[False] * (w - valid) + [True] * valid,
                feedback=prev_boxes.get(msg_id, (0.0,) * 4), target=target,
            ))
            if target[4] == 1.0:
                next_prev[msg_id] = target[:4]
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
    return TrainingArrays(X=np.array([e.features for e in examples], dtype=float),
                          FB=np.array([e.feedback for e in examples], dtype=float),
                          Y=np.array([e.target for e in examples], dtype=float))


DATASET_SCHEMA_VERSION = 1


def write_dataset_jsonl(path, examples: list[LabeledExample]) -> None:
    """One record per example, ordered by (tick, sender id), floats exact."""
    with open(path, "w") as f:
        for e in sorted(examples, key=lambda e: (e.tick, e.sender_id)):
            f.write(json.dumps({"schema_version": DATASET_SCHEMA_VERSION, **to_record(e)}) + "\n")


def read_dataset_jsonl(path) -> TrainingArrays:
    """Load the flat training arrays back from a dataset file. A damaged
    record, a non-finite value included, raises ValueError naming `path:line`."""
    examples: list[LabeledExample] = []
    for where, rec in read_jsonl(path):
        version = rec.pop("schema_version", None)
        if type(version) is not int or version != DATASET_SCHEMA_VERSION:   # not True, not 1.0
            raise ValueError(f"{where}: unsupported dataset schema {version!r}")
        try:
            e = from_record(LabeledExample, rec)
        except TypeError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if examples and len(e.features) != len(examples[0].features):
            raise ValueError(f"{where}: features has {len(e.features)} values, "
                             f"the first record {len(examples[0].features)}")
        examples.append(e)
    if not examples:
        raise ValueError(f"empty dataset file {path}")
    return to_arrays(examples)
