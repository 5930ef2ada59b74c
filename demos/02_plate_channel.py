#!/usr/bin/env python3
"""The license-plate reading channel and the character conversion trick.

OCR keeps confusing a handful of characters (0/O, 1/I, 5/S, ...). Folding
each confusable group into one class token before hashing lets a misread
plate still match the id its owner transmitted.
"""

import numpy as np

from fedvid import plates

table = plates.builtin_confusion_table()
print("some channel rows (counts of what each character was read as):")
for c in ("0", "I", "S", "Q", "R"):
    row = ", ".join(f"{o}:{n}" for o, n in sorted(table.counts[c].items()))
    print(f"  {c}: {row}")

rng = np.random.default_rng(7)
plate = "5CRD321"
reads = [plates.sample_ocr(plate, table, rng) for _ in range(8)]
print(f"\neight reads of {plate}: {reads}")

# characters whose error rate tops the threshold (20%) become confusable pairs
threshold = plates.CONFUSABLE_THRESHOLD
pairs = plates.derive_char_pairs(table, threshold)
print(f"\nconfusable pairs at threshold {threshold}: {pairs}")

cct = plates.build_conversion_table(pairs)
print("conversion table:")
for key, value in sorted(cct.entries.items()):
    print(f"  {key} -> {value}")

canon = plates.canonicalize_plate(plate, cct)
misread = plates.canonicalize_plate("SCRO32I", cct)
print(f"\ncanonical form of {plate}:   {canon}")
print(f"canonical form of SCRO32I:  {misread}")
print(f"hashes equal: {plates.plate_id(canon) == plates.plate_id(misread)}")

# unconverted characters still distinguish plates
a, b = "1ABCEF", "2ABCEF"
print(f"{a} vs {b} ids differ: "
      f"{plates.canonical_plate_id(a, cct) != plates.canonical_plate_id(b, cct)}")
