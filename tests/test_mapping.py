import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedvid import mapping

PAPER_SCORES = np.array([
    [0.3, 0.7, 0.1],
    [0.1, 0.83, 0.8],
    [0.62, 0.35, 0.4],
])
PAPER_CONFIDENCE = np.array([
    [0.27, 0.64, 0.09],
    [0.06, 0.48, 0.46],
    [0.45, 0.26, 0.29],
])


def _table(scores, omega=0.5):
    scores = np.asarray(scores, dtype=float)
    return mapping.ScoreTable(scores=scores, row_ids=list(range(scores.shape[0])),
                              col_ids=list(range(scores.shape[1])), omega=omega)


# --- score function -----------------------------------------------------------

def test_score_identical_boxes_is_one():
    b = [0.1, 0.2, 0.5, 0.6]
    for omega in (0.0, 0.3, 1.0):
        assert mapping.score_bbx(b, b, omega) == pytest.approx(1.0)


def test_score_opposite_corner_points_is_zero():
    e = [0.0, 0.0, 0.0, 0.0]
    v = [1.0, 1.0, 1.0, 1.0]
    for omega in (0.0, 0.5, 1.0):
        assert mapping.score_bbx(e, v, omega) == pytest.approx(0.0, abs=1e-12)


def test_score_iou_oracle():
    # overlap area 0.0625, union 0.4375 -> IoU = 1/7
    e = [0.0, 0.0, 0.5, 0.5]
    v = [0.25, 0.25, 0.75, 0.75]
    assert mapping.score_bbx(e, v, 0.0) == pytest.approx(1 / 7, abs=1e-12)


def test_score_degenerate_zero_area():
    e = [0.2, 0.2, 0.2, 0.2]
    assert mapping.score_bbx(e, e, 0.0) == 0.0  # IoU term defined as 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0, 1), min_size=8, max_size=8),
       st.floats(0, 1))
def test_score_symmetric(vals, omega):
    e = sorted(vals[0:2]) + sorted(vals[2:4])
    v = sorted(vals[4:6]) + sorted(vals[6:8])
    e = [e[0], e[2], e[1], e[3]]
    v = [v[0], v[2], v[1], v[3]]
    assert mapping.score_bbx(e, v, omega) == pytest.approx(mapping.score_bbx(v, e, omega))


# --- tables -------------------------------------------------------------------

def test_score_table_shape_and_trivial():
    bbx = np.array([[0.1, 0.1, 0.3, 0.3]])
    st_ = mapping.build_score_table(bbx, [7], [np.array([0.1, 0.1, 0.3, 0.3])], omega=0.5)
    assert st_.scores.shape == (1, 1)
    assert st_.scores[0, 0] == pytest.approx(1.0)
    assert (st_.row_ids, st_.col_ids) == ([7], [0])


def test_score_table_shape_matches_inputs():
    rng = np.random.default_rng(0)
    bbx = np.sort(rng.random((4, 4)), axis=1)
    boxes = [np.array([0.1, 0.1, 0.2, 0.2])] * 6
    st_ = mapping.build_score_table(bbx, list(range(4)), boxes, omega=0.5)
    assert st_.scores.shape == (4, 6)


def test_confidence_reproduces_worked_table():
    ct = mapping.build_confidence_table(_table(PAPER_SCORES))
    assert np.all(np.abs(ct.conf - PAPER_CONFIDENCE) <= 0.005)


def test_confidence_zero_row_stays_zero():
    ct = mapping.build_confidence_table(_table([[0.0, 0.0], [0.5, 0.5]]))
    assert np.all(ct.conf[0] == 0.0)
    assert ct.conf[1].sum() == pytest.approx(1.0)


def test_confidence_rows_sum_to_one_or_zero():
    rng = np.random.default_rng(3)
    ct = mapping.build_confidence_table(_table(rng.random((5, 4))))
    for row in ct.conf:
        assert row.sum() == pytest.approx(1.0, abs=1e-9)


def test_confidence_row_scaling_invariance():
    scores = np.random.default_rng(5).random((4, 4))
    scaled = scores.copy()
    scaled[2] *= 7.5
    a = mapping.build_confidence_table(_table(scores)).conf
    b = mapping.build_confidence_table(_table(scaled)).conf
    assert np.allclose(a[2], b[2])


def _row_loop_confidence(scores):
    """The row-by-row normalization that build_confidence_table replaced."""
    conf = np.zeros_like(scores)
    for i in range(scores.shape[0]):
        s = scores[i].sum()
        if s > 0.0:
            conf[i] = scores[i] / s
    return conf


@pytest.mark.parametrize("seed", range(6))
def test_confidence_has_the_bits_of_the_row_loop(seed):
    rng = np.random.default_rng(seed)
    tables = [PAPER_SCORES]
    for shape in [(1, 1), (3, 7), (9, 16), (40, 150), (5, 0), (0, 4)]:
        scores = rng.random(shape) * 10.0 ** rng.integers(-8, 3)
        scores[rng.random(shape[0]) < 0.3] = 0.0   # all-zero rows
        tables.append(scores)
    for scores in tables:
        got = mapping.build_confidence_table(_table(scores)).conf
        assert got.tobytes() == _row_loop_confidence(scores).tobytes()


# --- greedy decision ----------------------------------------------------------

def test_worked_mapping_decision():
    ct = mapping.build_confidence_table(_table(PAPER_SCORES))
    pairs = mapping._greedy_pairs(PAPER_SCORES, ct.conf, mapping.SCORE_EPS)
    assert pairs == [(0, 1), (1, 2), (2, 0)]


def test_decide_mapping_empty():
    result = mapping.decide_mapping([], np.empty((0, 5)), [np.array([0.0, 0.0, 0.1, 0.1])])
    assert result.pairs == []


def test_decide_mapping_zero_score_row_yields_single_pair():
    # estimate 10 scores exactly zero against every box (no overlap, diagonal
    # distance), so only the nonzero row can pair
    y = np.array([[0.0, 0.0, 0.0, 0.0, 0.9],
                  [0.9, 0.9, 1.0, 1.0, 0.9]])
    boxes = [np.array([1.0, 1.0, 1.0, 1.0]), np.array([1.0, 1.0, 1.0, 1.0])]
    result = mapping.decide_mapping([10, 11], y, boxes, mapping.MappingConfig(omega=0.5))
    assert result.pairs == [(11, 0)]


def test_decide_mapping_injective_and_filtered():
    rng = np.random.default_rng(11)
    y = np.array([[*np.sort(rng.random(4))[np.array([0, 2, 1, 3])], rng.random()]
                  for _ in range(6)])
    boxes = [np.sort(rng.random(4))[np.array([0, 2, 1, 3])] for _ in range(4)]
    ids = [40 + i for i in range(6)]
    result = mapping.decide_mapping(ids, y, boxes, mapping.MappingConfig())
    msgs = [m for m, _ in result.pairs]
    cols = [v for _, v in result.pairs]
    assert result.pairs
    assert len(msgs) == len(set(msgs))
    assert len(cols) == len(set(cols))
    assert all(y[ids.index(m), 4] > 0.5 for m in msgs)
    assert all(0 <= v < len(boxes) for v in cols)


@pytest.mark.parametrize("ids", [[3, 5, 3], [3, 5]])
def test_decide_mapping_rejects_duplicate_or_missing_ids(ids):
    y = np.full((3, 5), 0.9)
    with pytest.raises(ValueError, match="distinct"):
        mapping.decide_mapping(ids, y, [np.array([0.1, 0.1, 0.3, 0.3])])


def test_raising_threshold_never_adds_pairs():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n, m = rng.integers(1, 6, size=2)
        y = np.array([[*_rand_box(rng), rng.random()] for _ in range(n)])
        boxes = [_rand_box(rng) for _ in range(m)]
        counts = [len(mapping.decide_mapping(
                      list(range(n)), y, boxes, mapping.MappingConfig(threshold_inside=thr)).pairs)
                  for thr in (0.2, 0.5, 0.8)]
        assert counts[0] >= counts[1] >= counts[2]


def _rand_box(rng):
    x = np.sort(rng.random(2))
    y = np.sort(rng.random(2))
    return np.array([x[0], y[0], x[1], y[1]])


# --- brute-force oracle --------------------------------------------------------

def test_oracle_matches_greedy_on_worked_example():
    st_ = _table(PAPER_SCORES)
    pairs, _ = mapping.optimal_assignment(st_)
    assert sorted(pairs) == [(0, 1), (1, 2), (2, 0)]


def test_oracle_single_cell():
    pairs, value = mapping.optimal_assignment(_table([[0.4]]))
    assert pairs == [(0, 0)]
    assert value == pytest.approx(1.0)


def test_oracle_beats_greedy_on_adversarial_table():
    # greedy grabs (0,0) first and loses the better global combination
    scores = np.array([
        [0.9, 0.85, 0.0],
        [0.88, 0.0, 0.0],
        [0.0, 0.0, 0.05],
    ])
    st_ = _table(scores)
    greedy_val = mapping.greedy_confidence_sum(st_)
    _, oracle_val = mapping.optimal_assignment(st_)
    assert oracle_val >= greedy_val - 1e-12


def test_oracle_rejects_oversized_tables():
    with pytest.raises(ValueError):
        mapping.optimal_assignment(_table(np.random.default_rng(0).random((9, 9))))


def test_greedy_never_beats_oracle_random_tables():
    rng = np.random.default_rng(99)
    for _ in range(100):
        rows, cols = rng.integers(1, 7, size=2)
        st_ = _table(rng.random((rows, cols)))
        greedy_val = mapping.greedy_confidence_sum(st_)
        _, oracle_val = mapping.optimal_assignment(st_)
        assert greedy_val <= oracle_val + 1e-12
