"""The record rule, the one reader of records taken from outside: run files,
dataset files, `--config` files and federated wire frames; the one writer
of a record's fields; and `check_value`, the one reader of value rules."""

from __future__ import annotations

import functools
import json
import math
import operator
import reprlib
import typing
from dataclasses import MISSING, fields
from enum import Enum

# a refused value is quoted at most about 130 characters long, whatever its size
_brief = reprlib.Repr()
_brief.maxstring = _brief.maxlong = _brief.maxother = 40
_brief.maxlist = _brief.maxtuple = 3
_brief.maxdict = _brief.maxlevel = 1
brief = _brief.repr


# a value rule, data in its field's annotation: `Annotated[int, Rule("at least", 0)]`;
# NaN stands in no relation, so a number rule refuses it
Rule = typing.NamedTuple("Rule", [("relation", str), ("limit", object)])   # "one of": a tuple
RELATIONS = {"above": operator.gt, "at least": operator.ge, "below": operator.lt,
             "at most": operator.le, "one of": lambda v, choices: v in choices}


def check(obj) -> None:
    """Apply `field_rules` by `check_value`. A checked config takes it as its
    `__post_init__`, so built and decoded objects meet the same rules."""
    for name, each, rule in field_rules(type(obj)):
        value = getattr(obj, name)
        for v in value if each else (value,):
            check_value(name, v, rule)


def check_value(name: str, value, *rules: Rule) -> None:
    """ValueError `<name> <value> is not <rule>` of the first rule `value` breaks."""
    for relation, limit in rules:
        if not RELATIONS[relation](value, limit):
            raise ValueError(f"{name} {brief(value)} is not {relation} {brief(limit)}")


@functools.cache
def field_rules(cls) -> tuple[tuple[str, bool, Rule], ...]:
    """`(field, each, rule)` of every `Rule` in the field annotations of `cls`;
    with `each`, it is on the entries of a `tuple[X, ...]` field."""
    table = []
    for name, hint in typing.get_type_hints(cls, include_extras=True).items():
        hint = typing.get_args(hint)[0] if (each := typing.get_origin(hint) is tuple) else hint
        table += [(name, each, m) for m in getattr(hint, "__metadata__", ()) if type(m) is Rule]
    return tuple(table)


def _finite(text: str) -> float:
    if not math.isfinite(x := float(text)):   # float() also reads NaN and [-]Infinity
        raise ValueError(f"non-finite value {brief(text)[1:-1]}")   # a number, unquoted
    return x


def decode_record(text: str | bytes) -> dict:
    """The JSON object that `text` holds: the one rule of record lines, wire
    frames and config files. Text that is not JSON, nests too deep, holds a
    non-finite number or is not an object raises ValueError."""
    try:
        rec = json.loads(text, parse_constant=_finite, parse_float=_finite)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"not JSON: {exc}") from None
    if not isinstance(rec, dict):
        raise ValueError("not a JSON object")
    return rec


def read_jsonl(path):
    """Yield `(f"{path}:{line}", record)` for each non-blank line of a
    JSON-lines file. A line that `decode_record` refuses raises ValueError
    naming `path:line`."""
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                rec = decode_record(line)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            yield where, rec


def from_record(tp, value, key: str = "record"):
    """`value`, as `decode_record` gives it, built into the annotated type
    `tp` by the record rule (README); a value that does not fit raises
    TypeError naming its field, or `key` at the top, and one that its
    field's rule refuses raises `check`'s ValueError."""
    return _decoder(tp)(value, key)


def to_record(obj) -> dict:
    """`{field: value}` of a dataclass instance, in field order: the keys and
    order that `from_record` reads back. Nested values are left as they are,
    so `json.dumps(x, default=to_record)` writes a whole tree; it works where
    `vars` does not, on a slotted instance."""
    return {name: getattr(obj, name) for name in _field_names(type(obj))}


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    # once per class: `fields()` on each record would make `write_run` about 30% slower
    return tuple(f.name for f in fields(cls))


@functools.cache
def _decoder(tp, named: bool = False):
    """The `(value, key)` function that `from_record` applies for `tp`."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    subs = [_decoder(a, named) for a in args if a not in (type(None), ...)]
    if type(None) in args:   # X | None
        return lambda v, key: None if v is None else subs[0](v, key)
    if isinstance(tp, type) and issubclass(tp, Enum):   # a member by its exact value
        values = {m.value for m in tp}
        return _shaped((str,), tp.__name__, lambda v, key: tp(v), values.__contains__)
    if tp in (int, str, bool, float):   # float() of an int no float can hold raises OverflowError
        return _shaped((int, float) if tp is float else (tp,), tp.__name__, lambda v, key: tp(v))
    if origin is list or args[1:] == (...,):   # list[X], or tuple[X, ...]
        return _shaped((list,), "list", lambda v, key: origin([subs[0](x, key) for x in v]))
    if origin is tuple:
        return _shaped((list,), f"an array of {len(subs)}", lambda v, key: tuple(
            sub(x, key) for sub, x in zip(subs, v)), lambda v: len(v) == len(subs))
    hints = typing.get_type_hints(tp)   # a dataclass: fields() refuses any other type
    # in a config, a refusal inside a dataclass field names the field: a world has two cameras
    members = {f.name: _decoder(hints[f.name], bool(field_rules(tp))) for f in fields(tp)}
    required = [f.name for f in fields(tp) if f.default is f.default_factory is MISSING]

    def build(v, key):
        try:
            if missing := [name for name in required if name not in v]:
                raise TypeError(f"missing key {missing[0]!r}")
            if unknown := [name for name in v if name not in members]:
                raise TypeError(f"unknown key {brief(unknown[0])}")
            return tp(**{name: members[name](x, name) for name, x in v.items()})
        except (TypeError, ValueError) as exc:
            if not named:
                raise
            raise type(exc)(f"{key}: {exc}") from None
    return _shaped((dict,), tp.__name__, build)


def _shaped(kinds, name, build, fits=None):
    """The decoder that builds a value of a type in `kinds` that `fits`."""
    def decode(v, key):
        try:
            if type(v) in kinds and (fits is None or fits(v)):
                return build(v, key)
        except OverflowError:
            pass
        raise TypeError(f"{key} {brief(v)} is not {name}")
    return decode
