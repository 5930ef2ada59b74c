#!/usr/bin/env python3
"""From box estimates to final pairings: score, confidence, greedy decision.

A plain take-the-best-score assignment can waste a strong box on an
unconfident estimate. Row-normalizing the score table into confidences and
greedily taking the most confident cell (while its score is nonzero) fixes
the classic 3x3 example below.
"""

import numpy as np

from fedvid import mapping

scores = np.array([
    [0.30, 0.70, 0.10],
    [0.10, 0.83, 0.80],
    [0.62, 0.35, 0.40],
])
st = mapping.ScoreTable(scores=scores, row_ids=[1, 2, 3], col_ids=[1, 2, 3], omega=0.5)
print("score table (rows e1..e3, cols v1..v3):")
print(scores)

ct = mapping.build_confidence_table(st)
print("\nconfidence table (each row / its sum):")
print(ct.conf.round(2))

pairs = mapping._greedy_pairs(st.scores, ct.conf, mapping.SCORE_EPS)
print("\ngreedy max-confidence pairing:",
      "{" + ",".join(f"(e{i + 1},v{j + 1})" for i, j in pairs) + "}")
print("note e2 cedes v2 to e1: e2 was nearly as happy with v3, e1 was not")

oracle_pairs, oracle_val = mapping.optimal_assignment(st)   # pairs of (row id, col id)
greedy_ids = sorted((st.row_ids[i], st.col_ids[j]) for i, j in pairs)
print(f"exhaustive optimum agrees: {sorted(oracle_pairs) == greedy_ids}")

# the same machinery on model output rows (box estimate, inside) vs detected boxes
msg_ids = [101, 102, 103]
y = np.array([
    [0.42, 0.40, 0.58, 0.60, 0.97],
    [0.10, 0.45, 0.25, 0.62, 0.91],
    [0.70, 0.40, 0.90, 0.70, 0.23],
])
boxes = [np.array([0.12, 0.44, 0.27, 0.63]), np.array([0.44, 0.41, 0.60, 0.61])]
result = mapping.decide_mapping(msg_ids, y, boxes, mapping.MappingConfig())
print(f"\nmodel estimates vs {len(boxes)} boxes (estimate 103 filtered, inside 0.23):")
for msg_id, box_idx in result.pairs:
    print(f"  message {msg_id} -> box {box_idx}")
feedback = {m: boxes[j].round(2).tolist() for m, j in sorted(result.pairs)}
print(f"feedback for the next tick (zeros for unmapped senders): {feedback}")
