from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedvid import plates


@pytest.fixture(scope="module")
def builtin():
    return plates.builtin_confusion_table()


@pytest.fixture(scope="module")
def cct():
    return plates.default_conversion_table()


# --- confusion table / OCR channel ------------------------------------------

def test_builtin_row_fractions(builtin):
    assert builtin.err("O", "0") == pytest.approx(11 / 19)   # ~58%
    assert builtin.err("S", "5") == pytest.approx(7 / 9)     # ~78%
    assert builtin.err("I", "1") == pytest.approx(4 / 16)    # 25%
    assert builtin.err("4", "4") == 1.0


def test_sample_ocr_identity_channel():
    ident = plates.identity_confusion_table()
    rng = np.random.default_rng(0)
    assert plates.sample_ocr("ABC1234", ident, rng) == "ABC1234"


def test_sample_ocr_s_to_5_fraction(builtin):
    rng = np.random.default_rng(42)
    n = 10_000
    reads = [builtin.sample("S", rng) for _ in range(n)]
    frac = reads.count("5") / n
    assert frac == pytest.approx(7 / 9, abs=0.02)


def test_sample_ocr_unknown_character(builtin):
    rng = np.random.default_rng(0)
    with pytest.raises(plates.UnsupportedCharacterError):
        plates.sample_ocr("abc", builtin, rng)


def test_estimator_converges_to_generator(builtin):
    # the share of each reading among a character's draws tends to its error rate
    rng = np.random.default_rng(123)
    n = 5_000
    for c in plates.ALPHABET:
        draws = Counter(builtin.sample(c, rng) for _ in range(n))
        for observed in builtin.counts[c]:
            assert draws[observed] / n == pytest.approx(builtin.err(c, observed), abs=0.05)


# --- confusable pairs ---------------------------------------------------------

def test_derive_pairs_builtin_threshold(builtin):
    pairs = plates.derive_char_pairs(builtin, plates.CONFUSABLE_THRESHOLD)
    # ("M", "W") is absent: err(W,M) = 0.2 is not strictly above the threshold
    assert pairs == [("0", "D"), ("0", "O"), ("0", "Q"), ("1", "I"), ("5", "S")]


def test_derive_pairs_high_threshold_empty(builtin):
    # err never exceeds 0.99 anywhere in the bundled counts
    assert all(builtin.err(t, o) <= 0.99
               for t, row in builtin.counts.items() for o in row if o != t)
    assert plates.derive_char_pairs(builtin, 0.99) == []


def test_derive_pairs_empty_table():
    assert plates.derive_char_pairs(plates.ConfusionTable(), 0.2) == []


# --- conversion table ---------------------------------------------------------

def test_conversion_table_partition(cct):
    classes: dict[str, set[str]] = {}
    for key, value in cct.entries.items():
        classes.setdefault(value, set()).add(key)
    groups = sorted(classes.values(), key=sorted)
    assert groups == sorted([{"0", "O", "D", "Q"}, {"1", "I"}, {"5", "S"}], key=sorted)
    assert sorted(set(cct.entries.values())) == ["#1", "#2", "#3"]


def test_conversion_values_contiguous_from_one(cct):
    values = {int(v[1:]) for v in cct.entries.values()}
    assert values == set(range(1, len(values) + 1))


def test_conversion_empty():
    assert plates.build_conversion_table([]).entries == {}


def test_conversion_chain_joins_one_class():
    cct = plates.build_conversion_table([("A", "B"), ("B", "C")])
    assert cct.entries == {"A": "#1", "B": "#1", "C": "#1"}


def test_conversion_partition_stable_under_reordering():
    pairs = [("0", "O"), ("0", "D"), ("0", "Q"), ("1", "I"), ("5", "S")]
    base = plates.build_conversion_table(pairs)

    def partition(cct):
        inv: dict[str, frozenset] = {}
        for k, v in cct.entries.items():
            inv.setdefault(v, set()).add(k)
        return {frozenset(s) for s in inv.values()}

    reordered = plates.build_conversion_table(list(reversed(pairs)))
    assert partition(base) == partition(reordered)


# --- canonical plates ---------------------------------------------------------

def test_worked_example(cct):
    assert str(plates.canonicalize_plate("5CRD321", cct)) == "#3CR#132#2"
    assert str(plates.canonicalize_plate("SCRO32I", cct)) == "#3CR#132#2"


def test_distinguishes_unconverted_digits(cct):
    a = plates.canonicalize_plate("1ABCEF", cct)
    b = plates.canonicalize_plate("2ABCEF", cct)
    assert a.tokens != b.tokens
    assert plates.plate_id(a) != plates.plate_id(b)


def test_matching_ids(cct):
    assert plates.canonical_plate_id("5CRD321", cct) == plates.canonical_plate_id("SCRO32I", cct)


def test_plate_id_empty_is_offset_basis():
    assert plates.plate_id(plates.CanonicalPlate(tokens=())) == plates.FNV64_OFFSET


def test_fnv_against_independent_implementation():
    def fnv(data: bytes) -> int:
        h = 14695981039346656037
        for byte in data:
            h = ((h ^ byte) * 1099511628211) % (1 << 64)
        return h

    for payload in (b"", b"abc", b"#3\x1fC\x1fR"):
        assert plates.fnv1a64(payload) == fnv(payload)


def test_canonicalize_reads_single_characters(cct):
    # a string is raw characters: "#132" is not re-read as a class token
    assert plates.canonicalize_plate("#132", cct).tokens == ("#", "#2", "3", "2")


def test_raw_outputs_never_in_keys(cct):
    canon = plates.canonicalize_plate("5CRD321XYZ", cct)
    assert all(tok not in cct.entries for tok in canon.tokens)


_classes = [["0", "O", "D", "Q"], ["1", "I"], ["5", "S"]]
_class_of = {c: cls for cls in _classes for c in cls}


@st.composite
def plate_and_misread(draw):
    plate = draw(st.text(alphabet=plates.ALPHABET, min_size=1, max_size=8))
    misread = "".join(
        draw(st.sampled_from(_class_of[c])) if c in _class_of else c
        for c in plate
    )
    return plate, misread


@settings(max_examples=200, deadline=None)
@given(plate_and_misread())
def test_roundtrip_matching_property(pm):
    # any misread reachable only through recorded confusable classes matches
    cct = plates.default_conversion_table()
    plate, misread = pm
    assert plates.canonicalize_plate(plate, cct) == plates.canonicalize_plate(misread, cct)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=plates.ALPHABET, min_size=0, max_size=10))
def test_canonical_tokens_are_never_conversion_keys(plate):
    # the condition under which canonicalizing the tokens again is a no-op
    cct = plates.default_conversion_table()
    canon = plates.canonicalize_plate(plate, cct)
    assert not set(canon.tokens) & cct.entries.keys()
