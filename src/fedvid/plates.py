"""License-plate character pipeline.

Covers the OCR error channel (a character confusion table used generatively),
extraction of confusable character pairs above an error-rate threshold,
construction of the character conversion table that folds confusable
characters into shared class tokens, plate canonicalization, and the stable
64-bit plate hash used as a vehicle id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_TOKEN_SEP = b"\x1f"

# Error rate above which two characters count as confusable.
CONFUSABLE_THRESHOLD = 0.2


class UnsupportedCharacterError(ValueError):
    """Raised when the OCR channel is asked to emit a character it has no row for."""


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash of a byte string."""
    h = FNV64_OFFSET
    for b in data:
        h ^= b
        h = (h * FNV64_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


@dataclass
class ConfusionTable:
    """Per-character counts of observed OCR outputs.

    counts[truth][observed] is the number of times `truth` was read as
    `observed`. Error rates are counts divided by the row total (the total
    number of ground-truth occurrences of the character).
    """

    counts: dict[str, dict[str, int]] = field(default_factory=dict)

    def row_total(self, c: str) -> int:
        return sum(self.counts.get(c, {}).values())

    def err(self, truth: str, observed: str) -> float:
        """Fraction of ground-truth occurrences of `truth` read as `observed`."""
        total = self.row_total(truth)
        if total == 0:
            return 0.0
        return self.counts[truth].get(observed, 0) / total

    def sample(self, c: str, rng) -> str:
        """Draw one observed character for ground truth `c` (counts as weights)."""
        row = self.counts.get(c)
        total = self.row_total(c)
        if not row or total == 0:
            raise UnsupportedCharacterError(f"no confusion row for character {c!r}")
        pick = int(rng.integers(0, total))
        for observed in sorted(row):
            pick -= row[observed]
            if pick < 0:
                return observed
        raise AssertionError("unreachable: counts exhausted")


# Bundled character confusion counts for the default OCR error channel,
# gathered from recognition runs over a small rendered-plate corpus.
BUILTIN_CONFUSION_COUNTS: dict[str, dict[str, int]] = {
    "0": {"0": 20, "O": 13},
    "1": {"1": 42, "T": 1, "E": 1, "I": 6},
    "2": {"2": 40, "Z": 4},
    "3": {"3": 39, "L": 1, "6": 1},
    "4": {"4": 50},
    "5": {"5": 39, "S": 2},
    "6": {"6": 30, "W": 1, "3": 1, "G": 2},
    "7": {"7": 62, "A": 1, "T": 2},
    "8": {"8": 66, "B": 3},
    "9": {"9": 40},
    "A": {"A": 19},
    "B": {"B": 12, "L": 1, "9": 1},
    "C": {"C": 14},
    "D": {"D": 5, "0": 2},
    "E": {"E": 21, "C": 1},
    "F": {"F": 8},
    "G": {"G": 7},
    "H": {"H": 16},
    "I": {"I": 12, "1": 4},
    "J": {"J": 12},
    "K": {"K": 17},
    "L": {"L": 20},
    "M": {"M": 18, "9": 1, "P": 1, "H": 1},
    "N": {"N": 31},
    "O": {"O": 8, "0": 11},
    "P": {"P": 8, "M": 1},
    "Q": {"Q": 1, "0": 2},
    "R": {"R": 22},
    "S": {"S": 2, "5": 7},
    "T": {"T": 13, "7": 1},
    "U": {"U": 17},
    "V": {"V": 10, "W": 1},
    "W": {"W": 4, "M": 1},
    "X": {"X": 7},
    "Y": {"Y": 9},
    "Z": {"Z": 3},
}


def builtin_confusion_table() -> ConfusionTable:
    """The bundled OCR channel covering [A-Z0-9]."""
    return ConfusionTable({t: dict(r) for t, r in BUILTIN_CONFUSION_COUNTS.items()})


def identity_confusion_table() -> ConfusionTable:
    """A noise-free channel: every character of ALPHABET reads as itself."""
    return ConfusionTable({c: {c: 1} for c in ALPHABET})


def sample_ocr(plate: str, table: ConfusionTable, rng) -> str:
    """Pass a plate through the OCR channel: each character is independently
    replaced by a draw from its observed-character distribution."""
    return "".join(table.sample(c, rng) for c in plate)


def derive_char_pairs(tbl: ConfusionTable, threshold: float) -> list[tuple[str, str]]:
    """Pairs (c1, c2), c1 < c2, where err(c1,c2) or err(c2,c1) exceeds the
    threshold, sorted lexicographically."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    out: set[tuple[str, str]] = set()
    for truth, row in tbl.counts.items():
        for observed in row:
            if observed == truth:
                continue
            if tbl.err(truth, observed) > threshold:
                out.add((min(truth, observed), max(truth, observed)))
    return sorted(out)


@dataclass(frozen=True)
class ConversionTable:
    """Character -> class-token map ("#1", "#2", ...). Characters sharing a
    token are treated as equal after canonicalization."""

    entries: dict[str, str] = field(default_factory=dict)


def build_conversion_table(pairs) -> ConversionTable:
    """Fold confusable pairs into class tokens.

    For each pair in the order given: if either member is already keyed, the
    other is assigned that member's value (an already-keyed member is
    reassigned, i.e. a pair bridging two existing classes does not
    union-merge them); otherwise both members receive a fresh value. Values
    are issued contiguously from #1.
    """
    entries: dict[str, str] = {}
    value = 1
    for c1, c2 in pairs:
        if c1 in entries:
            entries[c2] = entries[c1]
        elif c2 in entries:
            entries[c1] = entries[c2]
        else:
            entries[c1] = f"#{value}"
            entries[c2] = f"#{value}"
            value += 1
    return ConversionTable(entries=entries)


def default_conversion_table() -> ConversionTable:
    """Conversion table derived from the bundled confusion counts."""
    return build_conversion_table(
        derive_char_pairs(builtin_confusion_table(), CONFUSABLE_THRESHOLD))


@dataclass(frozen=True)
class CanonicalPlate:
    """A plate after conversion: a sequence of raw characters and class tokens."""

    tokens: tuple[str, ...]

    def __str__(self) -> str:
        return "".join(self.tokens)


def canonicalize_plate(plate: str, cct: ConversionTable) -> CanonicalPlate:
    """Replace each keyed character of a raw plate string by its class token,
    keeping every other character as it is."""
    return CanonicalPlate(tuple(cct.entries.get(c, c) for c in plate))


def plate_id(canon: CanonicalPlate) -> int:
    """64-bit FNV-1a over the canonical token sequence (tokens 0x1f-separated)."""
    data = _TOKEN_SEP.join(t.encode("ascii") for t in canon.tokens)
    return fnv1a64(data)


def canonical_plate_id(plate: str, cct: ConversionTable) -> int:
    """Convenience: canonicalize then hash."""
    return plate_id(canonicalize_plate(plate, cct))
