"""The value rules that config fields carry in their annotations, the one
`records.check` that applies them, and the decoder's `tuple[X, ...]` branch."""

import dataclasses
import json
import math
import re
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedvid import experiment, fed, mapping, model as mdl, records, scenario

# each checked config, and a record of it that every rule admits
CHECKED = {
    scenario.WorldConfig: {"seed": 1},
    scenario.CameraModel: records.to_record(scenario.default_front_camera()),
    experiment.ExperimentConfig: {},
    fed.Hello: {"client_id": 1, "examples": 1},
    mapping.MappingConfig: {},
    mdl.ModelConfig: {},
    mdl.OptConfig: {},
}


def _rules_by_field(cls):
    """`{field: (each, [rule, ...])}` of the rule table of `cls`."""
    table = {}
    for name, each, rule in records.field_rules(cls):
        table.setdefault(name, (each, []))[1].append(rule)
    return table


# every rule-bearing field: (class, field, each, rules, the type of one value)
_FIELDS = [(cls, name, each, rules, typing.get_args(tp)[0] if each else tp)
           for cls in CHECKED for name, (each, rules) in _rules_by_field(cls).items()
           for tp in [typing.get_type_hints(cls)[name]]]


def test_rule_table_reads_every_checked_field():
    assert {(cls.__name__, name) for cls, name, *_ in _FIELDS} == {
        ("WorldConfig", name) for name in (
            "seed", "num_vehicles", "tick_interval", "comm_range", "road_layout", "weather",
            "gps_noise_sigma", "miss_rate", "merge_threshold", "speed_profile", "ocr_channel")
    } | {("CameraModel", name) for name in ("hfov_deg", "image_w", "image_h", "facing",
                                           "max_range")} | {
        ("ExperimentConfig", name) for name in (
            "train_seeds", "eval_seed", "epochs", "rounds", "local_epochs", "train_seed")
    } | {("ModelConfig", name) for name in (
        "input_dim", "hidden_width", "hidden_layers", "dropout", "mu")} | {
        ("OptConfig", name) for name in ("lr", "beta1", "beta2", "eps", "batch_size")} | {
        ("Hello", "client_id"), ("Hello", "examples"), ("MappingConfig", "omega"),
        ("MappingConfig", "threshold_inside")}
    assert records.field_rules(scenario.WorldConfig) is records.field_rules(scenario.WorldConfig)


def test_each_relation_at_its_limit():
    # a closed relation takes its limit and an open one refuses it; NaN stands in none
    holds = {rel: records.RELATIONS[rel] for rel in ("above", "at least", "below", "at most")}
    assert [f(0.0, 0.0) for f in holds.values()] == [False, True, False, True]
    assert [f(math.nextafter(0.0, 1.0), 0.0) for f in holds.values()] == [True, True, False, False]
    assert [f(math.nextafter(0.0, -1.0), 0.0) for f in holds.values()] == [False, False, True, True]
    assert not any(f(math.nan, 0.0) for f in holds.values())
    assert records.RELATIONS["one of"]("grid", ("straight", "grid"))
    assert not records.RELATIONS["one of"]("Grid", ("straight", "grid"))


def test_a_numpy_scalar_built_in_python_passes():
    cfg = scenario.WorldConfig(seed=np.int64(3), miss_rate=np.float64(0.5),
                               road_layout=np.str_("grid"))
    assert (cfg.seed, cfg.miss_rate, cfg.road_layout) == (3, 0.5, "grid")
    assert fed.Hello(1, np.int64(5)).examples == 5
    assert mapping.MappingConfig(omega=np.float32(1.0)).omega == 1.0


@pytest.mark.parametrize("build, message", [
    (lambda: scenario.CameraModel(180.0, 1280, 720, "front", 60.0),
     "hfov_deg 180.0 is not below 180.0"),
    (lambda: scenario.CameraModel(90.0, 1280, 0, "front", 60.0), "image_h 0 is not above 0"),
    (lambda: scenario.WorldConfig(seed=1, miss_rate=math.nan),
     "miss_rate nan is not at least 0.0"),
    (lambda: scenario.WorldConfig(seed=1, weather="sunny"),
     "weather 'sunny' is not one of ('clear', 'high_clouds', 'overcast', ...)"),
    (lambda: mapping.MappingConfig(omega=1.5), "omega 1.5 is not at most 1.0"),
], ids=["open-limit", "int-limit", "nan", "choices", "closed-limit"])
def test_refusal_names_the_field_the_value_and_the_rule(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


_REAR = records.to_record(scenario.default_rear_camera())


@pytest.mark.parametrize("record, exc, message", [
    ({"model_cfg": {"dropout": 1.0}}, ValueError, "model_cfg: dropout 1.0 is not below 1.0"),
    ({"world": {"seed": 1, "rear_camera": {**_REAR, "image_w": "x"}}}, TypeError,
     "world: rear_camera: image_w 'x' is not int"),
    ({"world": {"seed": 1, "rear_camera": {**_REAR, "max_range": 0}}}, ValueError,
     "world: rear_camera: max_range 0.0 is not above 0.0"),
    ({"opt_cfg": {"lr": 0.1, "bta1": 0.5}}, TypeError, "opt_cfg: unknown key 'bta1'"),
    ({"opt_cfg": 5}, TypeError, "opt_cfg 5 is not OptConfig"),   # refused whole: named once
    ({"epochs": 0}, ValueError, "epochs 0 is not at least 1"),
], ids=["model", "camera-type", "camera-rule", "unknown-key", "whole", "top-level"])
def test_a_refusal_inside_a_nested_config_names_each_config_that_holds_it(record, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        records.from_record(experiment.ExperimentConfig, record)


def test_tuple_of_any_length_decodes_each_entry():
    assert records.from_record(tuple[int, ...], [1, 2, 3]) == (1, 2, 3)
    assert records.from_record(tuple[int, ...], []) == ()
    with pytest.raises(TypeError, match=r"^seeds 'x' is not int$"):
        records.from_record(tuple[int, ...], [1, "x"], "seeds")
    with pytest.raises(TypeError, match=r"^seeds \(1, 2\) is not list$"):
        records.from_record(tuple[int, ...], (1, 2), "seeds")
    with pytest.raises(TypeError, match=r"^train_seeds True is not int$"):
        records.from_record(experiment.ExperimentConfig, {"train_seeds": [101, True]})
    with pytest.raises(ValueError, match=r"^train_seeds -2 is not at least 0$"):
        records.from_record(experiment.ExperimentConfig,
                            {"train_seeds": [101, -2], "eval_seed": 201})


def test_experiment_config_decodes_from_its_json():
    cfg = experiment.ExperimentConfig(train_seeds=(5, 6), training_modes=("central", "federated-2"))
    text = json.dumps(dataclasses.asdict(cfg))
    assert records.from_record(experiment.ExperimentConfig, records.decode_record(text)) == cfg


def _values(tp, rules):
    """Draws on both sides of every rule of a field: each limit and its
    neighbours, 0, negatives, huge values and, for a float, NaN."""
    if rules[0].relation == "one of":
        choices = st.sampled_from(rules[0].limit)
        return choices | choices.map(str.upper) | st.text(max_size=6)
    limits = [rule.limit for rule in rules]
    if tp is int:
        near = [limit + step for limit in limits for step in (-1, 0, 1)]
        return (st.sampled_from([*near, 0]) | st.integers(max_value=-1)
                | st.integers(min_value=2**63))
    near = [x for limit in limits
            for x in (math.nextafter(limit, -math.inf), limit, math.nextafter(limit, math.inf))]
    return (st.sampled_from([*near, 0.0, -0.0, 1e308, math.inf, math.nan])
            | st.floats(max_value=-5e-324, allow_nan=False) | st.floats(min_value=1e300))


def _refusal(build):
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_decoded_and_built_configs_meet_the_same_rule(data):
    cls, name, each, rules, tp = data.draw(st.sampled_from(_FIELDS), label="field")
    value = data.draw(_values(tp, rules), label=name)
    base = CHECKED[cls]
    decoded = _refusal(lambda: records.from_record(cls, {**base, name: [value] if each else value}))
    built = _refusal(lambda: cls(**{**base, name: (value,) if each else value}))
    assert decoded == built
    broken = [rule for rule in rules if not records.RELATIONS[rule.relation](value, rule.limit)]
    if broken:
        relation, limit = broken[0]
        assert built == f"{name} {records.brief(value)} is not {relation} {records.brief(limit)}"
    elif built is not None:
        # an admitted tick_interval may still give a tick count the world refuses
        assert (cls, name) == (scenario.WorldConfig, "tick_interval"), built
        assert built.startswith(f"duration {base.get('duration', 60.0)} ")
