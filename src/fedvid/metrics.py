"""Correctness-ratio metrics for evaluating pairing decisions against truth."""

from __future__ import annotations

from dataclasses import dataclass

from .scenario import OUTSIDE


@dataclass(frozen=True)
class TickPrediction:
    """Model verdicts for the senders of one tick: inside score and mapped box."""

    t: int
    entries: dict[int, tuple[float, int | None]]  # msg id -> (inside, box index or None)


def _ratio(num: int, den: int) -> float:
    # empty denominator: vacuously perfect
    return num / den if den > 0 else 1.0


@dataclass(frozen=True)
class MetricsReport:
    # fields in report.csv column order
    cr_ic: float
    cr_inside: float
    cr_outside: float
    cr_total: float
    p_correctly: int
    p_inside: int
    p_outside: int
    n_inside: int
    n_outside: int

    @classmethod
    def from_counts(cls, p_correctly: int, p_inside: int, p_outside: int,
                    n_inside: int, n_outside: int) -> "MetricsReport":
        return cls(cr_ic=_ratio(p_correctly, n_inside),
                   cr_inside=_ratio(p_inside, n_inside),
                   cr_outside=_ratio(p_outside, n_outside),
                   cr_total=_ratio(p_correctly + p_outside, n_inside + n_outside),
                   p_correctly=p_correctly, p_inside=p_inside, p_outside=p_outside,
                   n_inside=n_inside, n_outside=n_outside)


def compute_cr(predictions: list[TickPrediction],
               truths: list[tuple[int, dict[int, int]]],
               threshold_inside: float = 0.5) -> MetricsReport:
    """Count per-sender verdicts against ground truth across aligned ticks.

    truths: (tick, truth_pairs) per tick; a truth value of OUTSIDE marks a
    sender with no front-camera box. Misaligned streams are an error.
    """
    if len(predictions) != len(truths):
        raise ValueError("prediction and truth streams differ in length")

    p_correctly = p_inside = p_outside = n_inside = n_outside = 0
    for pred, (t, truth) in zip(predictions, truths):
        if pred.t != t:
            raise ValueError(f"tick mismatch: predictions at {pred.t}, truth at {t}")
        if set(pred.entries) != set(truth):
            raise ValueError(f"sender sets differ at tick {t}")
        for msg_id, true_box in truth.items():
            inside_score, mapped = pred.entries[msg_id]
            if true_box == OUTSIDE:
                n_outside += 1
                if inside_score <= threshold_inside:
                    p_outside += 1
            else:
                n_inside += 1
                if inside_score > threshold_inside:
                    p_inside += 1
                if mapped is not None and mapped == true_box:
                    p_correctly += 1
    return MetricsReport.from_counts(p_correctly, p_inside, p_outside, n_inside, n_outside)
