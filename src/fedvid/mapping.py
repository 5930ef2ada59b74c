"""Mapping decision: pair model box estimates with detected boxes.

Estimates are filtered by their inside-image output, scored against every
detected box with a blend of IoU and center distance, the score rows are
normalized into per-estimate confidences, and pairs are then accepted
greedily by maximum confidence (gated on a nonzero score) with each accepted
pair consuming its row and column. A brute-force optimal assignment is
included as a test oracle only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .records import Rule, check

DIAGONAL_LEN = math.sqrt(2.0)  # image diagonal in normalized coordinates
SCORE_EPS = 1e-9               # floating-point reading of "score != 0"
EXHAUSTIVE_LIMIT = 8


@dataclass
class ScoreTable:
    scores: np.ndarray        # (rows, cols)
    row_ids: list[int]        # message ids
    col_ids: list[int]        # box indices
    omega: float


@dataclass
class ConfidenceTable:
    conf: np.ndarray


@dataclass(frozen=True)
class MappingConfig:
    omega: Annotated[float, Rule("at least", 0.0), Rule("at most", 1.0)] = 0.5
    threshold_inside: Annotated[float, Rule("at least", 0.0), Rule("at most", 1.0)] = 0.5
    __post_init__ = check


@dataclass
class MappingResult:
    pairs: list[tuple[int, int]]            # (msg_id, box_index), injective both ways


def _box_area(b) -> float:
    return max(0.0, b[2] - b[0]) * max(0.0, b[3] - b[1])


def iou(a, b) -> float:
    """Intersection over union of two corner-ordered boxes; 0 for degenerate union."""
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    union = _box_area(a) + _box_area(b) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def center_dist(a, b) -> float:
    acx, acy = (a[0] + a[2]) / 2.0, (a[1] + a[3]) / 2.0
    bcx, bcy = (b[0] + b[2]) / 2.0, (b[1] + b[3]) / 2.0
    return math.hypot(acx - bcx, acy - bcy)


def score_bbx(e, v, omega: float) -> float:
    """Blend of overlap and proximity: (1-w)*IoU + w*(diag - centerdist)/diag,
    for the w in [0, 1] that `MappingConfig` admits."""
    return (1.0 - omega) * iou(e, v) + omega * (DIAGONAL_LEN - center_dist(e, v)) / DIAGONAL_LEN


def build_score_table(bbx: np.ndarray, row_ids: list[int], boxes, omega: float) -> ScoreTable:
    """Dense score table of the estimated boxes `bbx` (one row per id in
    `row_ids`) against the detected boxes, on Python floats: numpy scalars are slower."""
    scores = np.zeros((len(bbx), len(boxes)))
    for i, e in enumerate(bbx.tolist()):
        for j, v in enumerate(boxes):
            scores[i, j] = score_bbx(e, v, omega)
    return ScoreTable(scores, row_ids, list(range(len(boxes))), omega)


def build_confidence_table(st: ScoreTable) -> ConfidenceTable:
    """Row-normalize scores; a row summing to zero stays all-zero."""
    sums = st.scores.sum(axis=1, keepdims=True)
    return ConfidenceTable(np.divide(st.scores, sums, out=np.zeros_like(st.scores), where=sums > 0))


def _greedy_pairs(scores: np.ndarray, conf: np.ndarray, eps: float) -> list[tuple[int, int]]:
    """Greedy max-confidence selection gated on scores, row-major tie-breaking."""
    work = conf.copy()
    pairs: list[tuple[int, int]] = []
    while work.size:   # an empty table has no pairs
        flat = int(np.argmax(work))  # first maximum in row-major order
        i, j = divmod(flat, work.shape[1])
        if work[i, j] <= 0.0 or scores[i, j] <= eps:
            break  # table exhausted, or the most confident cell scores zero
        pairs.append((i, j))
        work[i, :] = 0.0
        work[:, j] = 0.0
    return pairs


def decide_mapping(msg_ids: list[int], y: np.ndarray, boxes,
                   cfg: MappingConfig = MappingConfig()) -> MappingResult:
    """Run the full decision: inside filter, score and confidence tables, greedy pairing.

    `y` holds the model's (n, 5) output rows for the senders `msg_ids`: a
    normalized box estimate and the inside-image probability. `boxes` is a
    sequence of normalized corner boxes indexed by position.
    """
    if len(set(msg_ids)) != len(msg_ids) or len(msg_ids) != len(y):
        raise ValueError("estimate message ids must be distinct, one per output row")
    keep = y[:, 4] > cfg.threshold_inside
    if not keep.any() or len(boxes) == 0:
        return MappingResult(pairs=[])
    st = build_score_table(y[keep, :4], [m for m, k in zip(msg_ids, keep) if k], boxes, cfg.omega)
    raw = _greedy_pairs(st.scores, build_confidence_table(st).conf, SCORE_EPS)
    return MappingResult(pairs=[(st.row_ids[i], st.col_ids[j]) for i, j in raw])


def greedy_confidence_sum(st: ScoreTable, eps: float = SCORE_EPS) -> float:
    """Summed confidence of the greedy selection (for regret measurements)."""
    ct = build_confidence_table(st)
    return float(sum(ct.conf[i, j] for i, j in _greedy_pairs(st.scores, ct.conf, eps)))


def optimal_assignment(st: ScoreTable, eps: float = SCORE_EPS) -> tuple[list[tuple[int, int]], float]:
    """Exhaustive maximum-summed-confidence injective assignment. Test oracle only.

    Rows may be skipped; cells with score <= eps are not assignable. Raises
    for tables whose smaller side exceeds the exhaustive bound.
    """
    rows, cols = st.scores.shape
    if min(rows, cols) > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"table {rows}x{cols} exceeds exhaustive bound {EXHAUSTIVE_LIMIT}"
        )
    ct = build_confidence_table(st)
    best_pairs: list[tuple[int, int]] = []
    best_value = 0.0

    def recurse(i: int, used_cols: int, value: float, chosen: list[tuple[int, int]]):
        nonlocal best_pairs, best_value
        if i == rows:
            if value > best_value:
                best_value = value
                best_pairs = list(chosen)
            return
        recurse(i + 1, used_cols, value, chosen)  # skip this row
        for j in range(cols):
            if used_cols & (1 << j):
                continue
            if st.scores[i, j] <= eps:
                continue
            chosen.append((i, j))
            recurse(i + 1, used_cols | (1 << j), value + ct.conf[i, j], chosen)
            chosen.pop()

    recurse(0, 0, 0.0, [])
    pairs = [(st.row_ids[i], st.col_ids[j]) for i, j in best_pairs]
    return pairs, best_value

