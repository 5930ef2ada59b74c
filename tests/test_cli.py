import argparse
import hashlib
import json
import math
import socket
import threading
import time
import typing
from dataclasses import replace

import numpy as np
import pytest

from fedvid import cli, experiment, fed, labeling, model as mdl, plates, records, scenario


def test_no_arguments_usage_exit_1(capsys):
    assert cli.cli_main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_exit_1(capsys):
    assert cli.cli_main(["transmogrify"]) == 1


def test_eval_missing_model_exit_2(capsys):
    rc = cli.cli_main(["--seed", "5", "--out", "/tmp/x", "eval", "--model", "/nope/missing.fmdf"])
    assert rc == 2
    assert "missing.fmdf" in capsys.readouterr().err


def test_eval_names_model_file_that_is_no_fmdf(tmp_path, capsys):
    model_path = tmp_path / "model.fmdf"
    model_path.write_bytes(b"FMD")
    assert cli.cli_main(["--seed", "5", "--out", str(tmp_path / "out"), "eval",
                         "--model", str(model_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {model_path}: truncated blob: needed 4 bytes for magic at offset 0" in err
    assert not (tmp_path / "out").exists()


_LABEL = ["label", "--run", "run.jsonl"]
_EVAL_RUN = ["eval", "--model", "model.fmdf", "--run", "run.jsonl"]
_CLIENT = ["client", "--port", "9", "--id", "1", "--dataset", "d.jsonl"]


@pytest.mark.parametrize("flag,argv", [
    ("--seed", _LABEL), ("--config", _LABEL),
    ("--seed", _EVAL_RUN), ("--config", _EVAL_RUN),
    ("--config", ["train", "--dataset", "d.jsonl"]),
    ("--config", _CLIENT), ("--out", _CLIENT),
])
def test_global_flag_the_command_never_reads_is_a_usage_error(flag, argv, tmp_path,
                                                              monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    value = {"--seed": "5", "--config": "w.json", "--out": "out"}[flag]
    assert cli.cli_main([flag, value, *argv]) == 1
    assert f"usage error: {argv[0]} does not read {flag}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


_HUGE = "100000000000000000...0000000000000000000"   # 10**400, quoted briefly


@pytest.mark.parametrize("key,value,expected,quoted", [
    ("num_vehicles", 5.5, "int", None), ("seed", "x", "int", None),
    # too large for a float
    ("duration", 10**400, "float", _HUGE), ("comm_range", 10**400, "float", _HUGE),
], ids=["num_vehicles-5.5", "seed-x", "duration-huge", "comm_range-huge"])
def test_gen_config_field_of_wrong_type_exit_2(key, value, expected, quoted, tmp_path, capsys):
    cfg_path = tmp_path / "w.json"
    cfg_path.write_text(json.dumps({"seed": 3, key: value}))
    out = tmp_path / "run"
    assert cli.cli_main(["--config", str(cfg_path), "--out", str(out), "gen"]) == 2
    quoted = repr(value) if quoted is None else quoted
    assert f"error: {cfg_path}: {key} {quoted} is not {expected}" in capsys.readouterr().err
    assert not out.exists()


_CAMERA = {"hfov_deg": 60.0, "image_w": 1280, "image_h": 720, "facing": "front", "max_range": 60.0}


@pytest.mark.parametrize("world,message", [
    ({"nmu_vehicles": 5}, "unknown key 'nmu_vehicles'"),
    ({"front_camera": {**_CAMERA, "hfov_deg": 200.0}},
     "front_camera: hfov_deg 200.0 is not below 180.0"),
    ({"front_camera": {k: v for k, v in _CAMERA.items() if k != "image_w"}},
     "front_camera: missing key 'image_w'"),
    ({"front_camera": {**_CAMERA, "max_range": -5.0}},
     "front_camera: max_range -5.0 is not above 0.0"),
    ({"rear_camera": {**_CAMERA, "facing": "rear", "max_range": 0}},
     "rear_camera: max_range 0.0 is not above 0.0"),
    ({"rear_camera": {**_CAMERA, "facing": "rear", "image_w": "x"}},
     "rear_camera: image_w 'x' is not int"),
    # a world of no tick: gen would write an empty run and exit 0
    ({"duration": -5}, "duration -5.0 gives -10 ticks of 0.5 s; at least 1 is needed"),
    ({"duration": 0.1}, "duration 0.1 gives 0 ticks of 0.5 s; at least 1 is needed"),
    # finite fields whose tick count is not: `num_ticks` would raise OverflowError
    ({"duration": -1e308, "tick_interval": 1e-9},
     "duration -1e+308 over tick_interval 1e-09 overflows the tick count"),
    ({"duration": 1e308, "tick_interval": 1e-9},
     "duration 1e+308 over tick_interval 1e-09 overflows the tick count"),
    # a finite tick count that a run could not hold in memory
    ({"duration": 1e12}, "duration 1000000000000.0 gives 2000000000000 ticks of 0.5 s; "
                         "at most 100000 are allowed"),
], ids=["unknown-key", "bad-camera", "camera-missing-key", "negative-range", "zero-range",
        "camera-field-type", "negative-duration", "sub-tick-duration", "negative-overflow-duration",
        "overflow-duration", "too-many-ticks"])
def test_gen_config_that_builds_no_world_is_named(world, message, tmp_path, capsys):
    cfg_path = tmp_path / "w.json"
    cfg_path.write_text(json.dumps(world))
    out = tmp_path / "run"
    assert cli.cli_main(["--seed", "3", "--config", str(cfg_path), "--out", str(out), "gen"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_path}: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("text", ["[1]", "not json", '{"duration": NaN}'],
                         ids=["not-object", "not-json", "nan"])
def test_gen_config_file_that_is_no_json_object_is_named(text, tmp_path, capsys):
    cfg_path = tmp_path / "w.json"
    cfg_path.write_text(text)
    out = tmp_path / "run"
    assert cli.cli_main(["--seed", "3", "--config", str(cfg_path), "--out", str(out), "gen"]) == 2
    assert f"error: {cfg_path}: " in capsys.readouterr().err
    assert not out.exists()


def test_serve_has_no_local_epochs_flag():
    # each client sets its own local epochs; the server never trains
    with pytest.raises(cli.UsageError):
        cli.build_parser().parse_args(["--seed", "7", "serve", "--clients", "1",
                                       "--local-epochs", "2"])


def test_gen_requires_seed(tmp_path, capsys):
    assert cli.cli_main(["--out", str(tmp_path), "gen"]) == 1


@pytest.mark.parametrize("argv", [
    ["gen", "--ticks", "0"], ["gen", "--ticks", "-4"],
    ["train", "--dataset", "x.jsonl", "--epochs", "0"],
    ["serve", "--clients", "0"], ["serve", "--clients", "2", "--rounds", "0"],
    ["serve", "--clients", "2", "--min-clients", "-1"],
    ["client", "--port", "9", "--id", "1", "--dataset", "x.jsonl", "--local-epochs", "0"],
    ["client", "--port", "9", "--dataset", "x.jsonl", "--id", "0"],
    ["client", "--port", "9", "--dataset", "x.jsonl", "--id", "-5"],   # seed 7 - 5000 < 0
    ["gen", "--ticks", str(scenario.MAX_TICKS + 1)],   # refused before anything is simulated
])
def test_count_flags_below_one_are_usage_errors(argv, tmp_path, capsys):
    flag, value = argv[-2:]
    assert cli.cli_main(["--seed", "5", "--out", str(tmp_path), *argv]) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: '{value}' is not an integer of at least 1" in err
    assert not list(tmp_path.iterdir())


def test_gen_ticks_at_the_bound_parses():
    args = cli.build_parser().parse_args(["gen", "--ticks", str(scenario.MAX_TICKS)])
    assert args.ticks == scenario.MAX_TICKS


def _rules(cls, name):
    return [rule for field, _, rule in records.field_rules(cls) if field == name]


# the rules that each flag reads, with the type it parses: a config field's, the
# one timeout rule of `fed`, or a port's, which only a server may leave to the system
_PORT = records.Rule("at most", 65535)
_FLAG_RULES = {"--timeout": ("timeout", float, fed.TIMEOUT_RULES),
               ("serve", "--port"): ("port", int, (records.Rule("at least", 0), _PORT)),
               ("client", "--port"): ("port", int, (records.Rule("at least", 1), _PORT))} | {
    flag: (name, typing.get_type_hints(cls)[name], _rules(cls, name))
    for flag, cls, name in [("--seed", experiment.ExperimentConfig, "train_seed"),
                            ("--epochs", experiment.ExperimentConfig, "epochs"),
                            ("--rounds", experiment.ExperimentConfig, "rounds"),
                            ("--local-epochs", experiment.ExperimentConfig, "local_epochs"),
                            ("--id", fed.Hello, "client_id")]}


def _near(tp, rules):
    """Each limit of `rules` and its neighbours, and for a float NaN."""
    if tp is int:
        return [rule.limit + step for rule in rules for step in (-1, 0, 1)]
    return [math.nan, *(x for rule in rules for x in (
        math.nextafter(rule.limit, -math.inf), rule.limit, math.nextafter(rule.limit, math.inf)))]


def test_every_number_flag_parses_by_flag_and_admits_what_its_rules_admit():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    typed = [(command, action) for command, p in [(None, parser), *subparsers.choices.items()]
             for action in p._actions if action.type is not None]
    assert {a.type.__qualname__ for _, a in typed} == {"_flag.<locals>.parse"}
    assert {a.option_strings[0] for _, a in typed} == {
        "--seed", "--ticks", "--epochs", "--port", "--clients", "--rounds", "--min-clients",
        "--timeout", "--id", "--local-epochs"}
    # --seed is the scenario seed too
    seed_rules = _rules(scenario.WorldConfig, "seed")
    assert _rules(experiment.ExperimentConfig, "train_seed") == seed_rules
    checked = set()
    for command, action in typed:
        flag = action.option_strings[0]
        if (key := (command, flag)) not in _FLAG_RULES and (key := flag) not in _FLAG_RULES:
            continue
        name, tp, rules = _FLAG_RULES[key]
        for value in _near(tp, rules):
            try:
                records.check_value(name, value, *rules)
                admitted = True
            except ValueError:
                admitted = False
            try:
                parsed = action.type(str(value))
            except argparse.ArgumentTypeError as exc:
                assert not admitted, (key, value)
                assert str(exc).startswith(f"{str(value)!r} is not ")
            else:
                assert admitted and type(parsed) is tp and parsed == value, (key, value)
        checked.add(key)
    assert checked == set(_FLAG_RULES)


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "soon"])
@pytest.mark.parametrize("argv", [
    ["serve", "--clients", "1"], ["client", "--port", "9", "--id", "1", "--dataset", "x.jsonl"],
], ids=["serve", "client"])
def test_timeout_that_is_not_a_positive_finite_number_is_a_usage_error(argv, value, tmp_path,
                                                                       capsys):
    out = tmp_path / "out"
    assert cli.cli_main(["--out", str(out), *argv, "--timeout", value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: argument --timeout: '{value}' is not a number "
                          "above 0.0 and below inf\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, value, meets", [
    (["serve", "--clients", "1"], "70000", "at least 0 and at most 65535"),
    (["client", "--id", "1", "--dataset", "x.jsonl"], "0", "at least 1 and at most 65535"),
], ids=["serve", "client"])
def test_port_outside_its_range_is_a_usage_error(argv, value, meets, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.cli_main(["--out", str(out), *argv, "--port", value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: argument --port: '{value}' is not an integer of {meets}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen"], ["train", "--dataset", "x.jsonl"], ["serve", "--clients", "1"],
    ["client", "--port", "9", "--id", "1", "--dataset", "x.jsonl"], ["eval", "--model", "m.fmdf"],
], ids=["gen", "train", "serve", "client", "eval"])
def test_negative_seed_flag_is_a_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.cli_main(["--seed", "-1", "--out", str(out), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: argument --seed: '-1' is not an integer of at least 0")
    assert not out.exists()


def test_gen_config_of_negative_seed_is_named(tmp_path, capsys):
    cfg_path = tmp_path / "w.json"
    cfg_path.write_text(json.dumps({"seed": -1}))
    out = tmp_path / "run"
    assert cli.cli_main(["--config", str(cfg_path), "--out", str(out), "gen"]) == 2
    assert capsys.readouterr().err == f"error: {cfg_path}: seed -1 is not at least 0\n"
    assert not out.exists()


def test_min_clients_above_clients_is_a_usage_error(tmp_path, capsys):
    assert cli.cli_main(["--out", str(tmp_path), "serve", "--clients", "2",
                         "--min-clients", "3"]) == 1
    assert "--min-clients 3 exceeds --clients 2" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_run_flag_names_a_path_that_is_no_run_file(tmp_path, capsys):
    # a directory of the old four record files is not a run
    (tmp_path / "frames.jsonl").write_text("{}\n")
    model_path = tmp_path / "model.fmdf"
    mdl.save_model(mdl.init_model(mdl.ModelConfig(), np.random.default_rng(3)), model_path)
    for command in (["label", "--run", str(tmp_path)],
                    ["eval", "--model", str(model_path), "--run", str(tmp_path)]):
        assert cli.cli_main(["--out", str(tmp_path / "out"), *command]) == 2
        assert str(tmp_path) in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["AL", "ALDA", "MANUAL"])
def test_label_of_a_run_with_no_example_names_the_run_and_writes_nothing(mode, tmp_path,
                                                                         capsys):
    # two vehicles for 2 s give no sender row: train would refuse the empty file
    cfg_path = tmp_path / "w.json"
    cfg_path.write_text(json.dumps({"num_vehicles": 2, "duration": 2}))
    run_dir = tmp_path / "run"
    assert cli.cli_main(["--seed", "3", "--config", str(cfg_path),
                         "--out", str(run_dir), "gen"]) == 0
    capsys.readouterr()
    out = tmp_path / "labels"
    assert cli.cli_main(["--out", str(out), "label", "--run", str(run_dir / "run.jsonl"),
                         "--mode", mode]) == 2
    assert capsys.readouterr().err == f"error: {run_dir / 'run.jsonl'}: no {mode} examples to write\n"
    assert not out.exists()


def test_full_cli_pipeline(tmp_path, capsys):
    run_dir = tmp_path / "run"
    cfg = {"num_vehicles": 12, "duration": 20.0, "weather": "light_haze"}
    cfg_path = tmp_path / "world.json"
    cfg_path.write_text(json.dumps(cfg))

    assert cli.cli_main(["--seed", "77", "--config", str(cfg_path),
                         "--out", str(run_dir), "gen"]) == 0
    assert [p.name for p in run_dir.iterdir()] == ["run.jsonl"]
    run_path = run_dir / "run.jsonl"

    label_dir = tmp_path / "labels"
    assert cli.cli_main(["--out", str(label_dir), "label", "--run", str(run_path),
                         "--mode", "MANUAL"]) == 0
    assert [p.name for p in label_dir.iterdir()] == ["dataset.jsonl"]
    cct = plates.default_conversion_table().entries
    assert cct["0"] == cct["O"] == cct["D"] == cct["Q"]

    model_dir = tmp_path / "model"
    assert cli.cli_main(["--seed", "7", "--out", str(model_dir), "train",
                         "--dataset", str(label_dir / "dataset.jsonl"),
                         "--epochs", "3"]) == 0
    assert (model_dir / "model.fmdf").exists()

    eval_dir = tmp_path / "eval"
    assert cli.cli_main(["--out", str(eval_dir), "eval",
                         "--model", str(model_dir / "model.fmdf"),
                         "--run", str(run_path)]) == 0
    assert (eval_dir / "report.csv").exists()
    out = capsys.readouterr().out
    assert "CR_total=" in out


def test_eval_report_written_like_the_experiment_report(tmp_path):
    model_path = tmp_path / "model.fmdf"
    mdl.save_model(mdl.init_model(mdl.ModelConfig(), np.random.default_rng(3)), model_path)
    cfg_path = tmp_path / "w.json"
    cfg_path.write_text(json.dumps({"num_vehicles": 12, "duration": 10.0}))
    out = tmp_path / "eval"
    assert cli.cli_main(["--seed", "5", "--config", str(cfg_path), "--out", str(out),
                         "eval", "--model", str(model_path)]) == 0
    header, row, end = (out / "report.csv").read_bytes().split(b"\r\n")
    assert header.decode().split(",") == experiment.REPORT_COLUMNS[2:]
    assert end == b"" and b"\n" not in header + row
    values = dict(zip(experiment.REPORT_COLUMNS[2:], row.decode().split(",")))
    assert all(len(values[k].split(".")[1]) == 6 for k in ("cr_ic", "cr_inside", "cr_outside",
                                                          "cr_total"))
    assert all(values[k].isdigit() for k in ("p_correctly", "p_inside", "p_outside",
                                             "n_inside", "n_outside"))


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


@pytest.mark.parametrize("world", [{}, {"tick_interval": 1.0}], ids=["tick-0.5s", "tick-1s"])
def test_serve_and_client_subcommands(world, tmp_path):
    # serve reads the world of --config, so its model is as wide as the rows
    # label writes for that world
    cfg_path = tmp_path / "w.json"
    cfg_path.write_text(json.dumps({"num_vehicles": 10, "duration": 10.0, **world}))
    run_dir = tmp_path / "run"
    assert cli.cli_main(["--seed", "78", "--config", str(cfg_path),
                         "--out", str(run_dir), "gen"]) == 0
    label_dir = tmp_path / "labels"
    assert cli.cli_main(["--out", str(label_dir), "label",
                         "--run", str(run_dir / "run.jsonl")]) == 0
    dataset = str(label_dir / "dataset.jsonl")

    port = _free_port()
    serve_dir = tmp_path / "serve"
    rc = {}

    def serve():
        rc["serve"] = cli.cli_main(["--seed", "7", "--config", str(cfg_path),
                                    "--out", str(serve_dir), "serve",
                                    "--port", str(port), "--clients", "1",
                                    "--rounds", "2", "--timeout", "10"])

    t = threading.Thread(target=serve, daemon=True)
    t.start()
    client_rc = None
    for _ in range(50):  # wait for the listener to come up
        client_rc = cli.cli_main(["client", "--host", "127.0.0.1", "--port", str(port),
                                  "--id", "1", "--dataset", dataset, "--timeout", "10"])
        if client_rc == 0:
            break
        time.sleep(0.1)
    t.join(timeout=30.0)
    assert client_rc == 0
    assert rc["serve"] == 0
    width = labeling.read_dataset_jsonl(dataset).X.shape[1]
    assert mdl.load_model(serve_dir / "model.fmdf").shapes[0][0] == width
    assert (serve_dir / "transcript.log").exists()


def _gen_and_label(tmp_path, cfg):
    """gen a seed-79 run from `cfg` and label it as ALDA; returns (run file, dataset)."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    run_dir = tmp_path / "run"
    assert cli.cli_main(["--seed", "79", "--config", str(cfg_path),
                         "--out", str(run_dir), "gen"]) == 0
    label_dir = tmp_path / "labels"
    assert cli.cli_main(["--out", str(label_dir), "label", "--run", str(run_dir / "run.jsonl"),
                         "--mode", "ALDA"]) == 0
    return run_dir / "run.jsonl", label_dir / "dataset.jsonl"


def test_eval_of_a_model_of_another_width_names_both(tmp_path, capsys):
    # a 1 s tick gives 7 input features; the default model takes 11
    cfg_path = tmp_path / "w.json"
    cfg_path.write_text(json.dumps({"num_vehicles": 10, "duration": 10.0, "tick_interval": 1.0}))
    run_dir = tmp_path / "run"
    assert cli.cli_main(["--seed", "3", "--config", str(cfg_path),
                         "--out", str(run_dir), "gen"]) == 0
    model_path = tmp_path / "model.fmdf"
    mdl.save_model(mdl.init_model(mdl.ModelConfig(), np.random.default_rng(3)), model_path)
    assert cli.cli_main(["--out", str(tmp_path / "out"), "eval", "--model", str(model_path),
                         "--run", str(run_dir / "run.jsonl")]) == 2
    assert "the model takes 11 input features, the data has 7" in capsys.readouterr().err


def test_train_seed_zero_is_honoured(tmp_path):
    _, dataset = _gen_and_label(tmp_path, {"num_vehicles": 10, "duration": 10.0})
    models = {}
    for seed in ("0", "7"):
        out = tmp_path / f"model{seed}"
        assert cli.cli_main(["--seed", seed, "--out", str(out), "train",
                             "--dataset", str(dataset), "--epochs", "1"]) == 0
        models[seed] = (out / "model.fmdf").read_bytes()
    assert models["0"] != models["7"]


def test_run_header_round_trips_camera_config(tmp_path):
    world = {"num_vehicles": 20, "duration": 30.0, "front_camera": _CAMERA}
    run_path, dataset = _gen_and_label(tmp_path, world)

    cfg, observations = scenario.read_run(run_path)
    assert cfg.front_camera.hfov_deg == 60.0
    assert cfg == records.from_record(scenario.WorldConfig, {**world, "seed": 79})

    # label must run the field-of-view test with the 60 degree camera
    cct = plates.default_conversion_table()

    def alda_jsonl(world_cfg, name):
        run = labeling.label_run(observations, cct, world_cfg)
        examples = labeling.assemble_dataset(run, labeling.DatasetMode.ALDA)
        path = tmp_path / name
        labeling.write_dataset_jsonl(path, examples)
        return path.read_bytes()

    wide = replace(cfg, front_camera=scenario.default_front_camera())
    assert dataset.read_bytes() == alda_jsonl(cfg, "narrow.jsonl")
    assert dataset.read_bytes() != alda_jsonl(wide, "wide.jsonl")


_WORLD77 = {"num_vehicles": 12, "duration": 20.0, "weather": "light_haze"}


@pytest.fixture(scope="module")
def chain77(tmp_path_factory):
    """gen -> label -> train -> eval of the seed-77 world at default seeds;
    the output directory of each step, by name."""
    tmp_path = tmp_path_factory.mktemp("chain77")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_WORLD77))
    dirs = {d: tmp_path / d for d in ("run", "labels", "model", "eval")}
    assert cli.cli_main(["--seed", "77", "--config", str(cfg_path), "--out", str(dirs["run"]),
                         "gen"]) == 0
    assert cli.cli_main(["--out", str(dirs["labels"]), "label",
                         "--run", str(dirs["run"] / "run.jsonl"), "--mode", "ALDA"]) == 0
    assert cli.cli_main(["--out", str(dirs["model"]), "train",
                         "--dataset", str(dirs["labels"] / "dataset.jsonl"), "--epochs", "3"]) == 0
    assert cli.cli_main(["--out", str(dirs["eval"]), "eval",
                         "--model", str(dirs["model"] / "model.fmdf"),
                         "--run", str(dirs["run"] / "run.jsonl")]) == 0
    return dirs


def test_cli_round_trip_bytes_pinned(chain77):
    # every file the chain hands on must keep its bytes
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (
        chain77["labels"] / "dataset.jsonl", chain77["model"] / "model.fmdf",
        chain77["eval"] / "report.csv")}
    assert digests == {
        "dataset.jsonl":
            "033ee8e7ebc632ccdf9d37c240e78a734a533adfb58e1f97026a9c19ff42365a",
        "model.fmdf":
            "cb6f1bc13b3d301bcebc7a5a31053b20580edf37a7b943898e3dfbb6fecbdedc",
        "report.csv":
            "7b5d080a642fdc55cf0f6975a217d7c8919528f34b089e828239bb594bcb9f5b",
    }


def test_cli_chain_trains_on_the_library_arrays(chain77):
    # the record files in between lose nothing: the CLI trains what experiment trains
    world = scenario.WorldConfig(seed=77, **_WORLD77)
    _, run = experiment.simulate_and_label(world, world.seed)
    arrays = labeling.to_arrays(labeling.assemble_dataset(run, labeling.DatasetMode.ALDA))
    back = labeling.read_dataset_jsonl(chain77["labels"] / "dataset.jsonl")
    for a, b in zip(vars(back).values(), vars(arrays).values()):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    params = experiment.train_central(arrays, experiment.ExperimentConfig(epochs=3))
    assert (chain77["model"] / "model.fmdf").read_bytes() == mdl.params_to_bytes(params)


def test_cli_session_at_default_seeds_matches_train_federated_tcp(tmp_path):
    # serve and two clients, every seed left to its default, train the same
    # streams as a threaded session on the same two datasets
    datasets = []
    for seed in (81, 82):
        _, run = experiment.simulate_and_label(
            scenario.WorldConfig(seed=0, num_vehicles=12, duration=15.0), seed)
        path = tmp_path / f"shard{seed}.jsonl"
        labeling.write_dataset_jsonl(path, labeling.assemble_dataset(run, labeling.DatasetMode.ALDA))
        datasets.append(path)

    port = _free_port()
    serve_dir = tmp_path / "serve"
    rc = {}

    def serve():
        rc["serve"] = cli.cli_main(["--out", str(serve_dir), "serve", "--port", str(port),
                                    "--clients", "2", "--rounds", "3", "--timeout", "10"])

    def client(cid):
        for _ in range(50):  # wait for the listener to come up
            rc[cid] = cli.cli_main(["client", "--port", str(port), "--id", str(cid),
                                    "--dataset", str(datasets[cid - 1]), "--timeout", "10"])
            if rc[cid] == 0:
                return
            time.sleep(0.1)

    threads = [threading.Thread(target=f, args=a, daemon=True)
               for f, a in ((serve, ()), (client, (1,)), (client, (2,)))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert rc == {"serve": 0, 1: 0, 2: 0}

    train_seed = experiment.ExperimentConfig.train_seed
    init = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(train_seed))
    final, _, _, _ = fed.train_federated_tcp(
        [labeling.read_dataset_jsonl(p) for p in datasets], init, mdl.OptConfig(), rounds=3,
        seeds=[train_seed + 1000, train_seed + 2000], timeout=30.0)
    mdl.save_model(final, tmp_path / "threads.fmdf")
    assert (serve_dir / "model.fmdf").read_bytes() == (tmp_path / "threads.fmdf").read_bytes()
